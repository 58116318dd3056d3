//! ARP resolution: static entries (the tapping configuration) plus a
//! dynamic cache.
//!
//! Static entries model the paper's `SVI → SME` / `GVI → GME` mappings
//! (§3.1): they are consulted first and never overwritten by dynamic
//! learning, because RFC 1812 forbids learning a multicast MAC from an
//! ARP reply — the whole reason the paper installs them statically.

use netsim::DetHashMap;
use std::net::Ipv4Addr;
use wire::MacAddr;

/// Static-first ARP table.
#[derive(Debug, Clone, Default)]
pub struct ArpCache {
    static_entries: DetHashMap<Ipv4Addr, MacAddr>,
    dynamic: DetHashMap<Ipv4Addr, MacAddr>,
}

impl ArpCache {
    /// Creates a cache with the given static entries.
    pub fn new(static_entries: impl IntoIterator<Item = (Ipv4Addr, MacAddr)>) -> Self {
        ArpCache {
            static_entries: static_entries.into_iter().collect(),
            dynamic: DetHashMap::default(),
        }
    }

    /// Looks up the MAC for `ip` (static entries win).
    pub fn lookup(&self, ip: Ipv4Addr) -> Option<MacAddr> {
        self.static_entries.get(&ip).or_else(|| self.dynamic.get(&ip)).copied()
    }

    /// Learns a dynamic mapping. Static entries are never overridden,
    /// and group MACs are never learned dynamically.
    pub fn learn(&mut self, ip: Ipv4Addr, mac: MacAddr) {
        if self.static_entries.contains_key(&ip) || mac.is_multicast() {
            return;
        }
        self.dynamic.insert(ip, mac);
    }

    /// Adds or replaces a static entry.
    pub fn insert_static(&mut self, ip: Ipv4Addr, mac: MacAddr) {
        self.static_entries.insert(ip, mac);
    }

    /// Number of dynamic entries (diagnostics).
    pub fn dynamic_len(&self) -> usize {
        self.dynamic.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const VIP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 100);
    const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);

    #[test]
    fn static_wins_over_dynamic() {
        let sme = MacAddr::multicast_for_ip(VIP);
        let mut cache = ArpCache::new([(VIP, sme)]);
        cache.learn(VIP, MacAddr::local(9));
        assert_eq!(cache.lookup(VIP), Some(sme), "static SVI→SME must never be displaced");
    }

    #[test]
    fn dynamic_learning() {
        let mut cache = ArpCache::default();
        assert_eq!(cache.lookup(CLIENT), None);
        cache.learn(CLIENT, MacAddr::local(1));
        assert_eq!(cache.lookup(CLIENT), Some(MacAddr::local(1)));
        cache.learn(CLIENT, MacAddr::local(2));
        assert_eq!(cache.lookup(CLIENT), Some(MacAddr::local(2)), "dynamic entries refresh");
        assert_eq!(cache.dynamic_len(), 1);
    }

    #[test]
    fn multicast_never_learned_dynamically() {
        let mut cache = ArpCache::default();
        cache.learn(CLIENT, MacAddr::multicast_for_ip(CLIENT));
        assert_eq!(cache.lookup(CLIENT), None, "RFC 1812: no multicast from ARP");
    }

    #[test]
    fn insert_static_after_construction() {
        let mut cache = ArpCache::default();
        cache.insert_static(VIP, MacAddr::multicast_for_ip(VIP));
        assert!(cache.lookup(VIP).unwrap().is_multicast());
    }
}

//! A two-interface IP gateway (sans-io).
//!
//! The paper's clients reach the LAN "by one or more gateways" (§3.1),
//! and the gateway is where the static `SVI → SME` ARP entry lives: it
//! rewrites the destination MAC of client→service packets to the
//! multicast `SME`, making the switch flood them to the backup's tap.
//! Symmetrically, the server reaches clients through the gateway's
//! virtual IP `GVI`, whose multicast `GME` floods server→client traffic.
//!
//! This is a plain IPv4 forwarder: no NAT, no firewall, TTL decremented,
//! packets with exhausted TTL dropped. Frames in on one side come out on
//! the other with rewritten Ethernet headers.

use crate::arp_cache::ArpCache;
use bytes::Bytes;
use std::collections::VecDeque;
use std::net::Ipv4Addr;
use wire::{ArpOp, ArpPacket, EtherType, EthernetFrame, Ipv4Packet, MacAddr};

/// Which of the gateway's two interfaces a frame touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Interface 0 (conventionally the client side).
    A,
    /// Interface 1 (conventionally the server LAN side).
    B,
}

impl Side {
    /// The opposite interface.
    #[must_use]
    pub fn other(self) -> Side {
        match self {
            Side::A => Side::B,
            Side::B => Side::A,
        }
    }

    /// Index form (A=0, B=1).
    pub fn index(self) -> usize {
        match self {
            Side::A => 0,
            Side::B => 1,
        }
    }
}

/// Configuration of one gateway interface.
#[derive(Debug, Clone)]
pub struct GatewayIface {
    /// Interface MAC.
    pub mac: MacAddr,
    /// Interface IP (clients/servers use it as their default gateway).
    pub ip: Ipv4Addr,
    /// Subnet prefix length.
    pub netmask_bits: u8,
}

impl GatewayIface {
    fn on_subnet(&self, dst: Ipv4Addr) -> bool {
        let bits = u32::from(self.netmask_bits.min(32));
        let mask = if bits == 0 { 0 } else { u32::MAX << (32 - bits) };
        (u32::from(self.ip) & mask) == (u32::from(dst) & mask)
    }
}

/// Counters for the gateway.
#[derive(Debug, Clone, Copy, Default)]
pub struct GatewayStats {
    /// Packets forwarded A→B or B→A.
    pub forwarded: u64,
    /// Packets dropped: TTL exhausted.
    pub ttl_drops: u64,
    /// Packets dropped: no route (neither subnet).
    pub no_route: u64,
    /// Packets dropped: next-hop MAC unresolved.
    pub unresolved: u64,
}

/// A sans-io two-interface IPv4 gateway.
///
/// Feed frames with [`Gateway::handle_frame`]; collect output with
/// [`Gateway::poll`]. The ST-TCP node adapters wire it into the
/// simulator.
#[derive(Debug)]
pub struct Gateway {
    ifaces: [GatewayIface; 2],
    arp: [ArpCache; 2],
    out: VecDeque<(Side, Bytes)>,
    /// Counters.
    pub stats: GatewayStats,
}

impl Gateway {
    /// Builds a gateway. `static_arp` entries are installed per side —
    /// side B conventionally carries `(SVI, SME)` so client→service
    /// packets egress with the multicast destination the backup taps.
    pub fn new(
        a: GatewayIface,
        b: GatewayIface,
        static_arp_a: impl IntoIterator<Item = (Ipv4Addr, MacAddr)>,
        static_arp_b: impl IntoIterator<Item = (Ipv4Addr, MacAddr)>,
    ) -> Self {
        Gateway {
            ifaces: [a, b],
            arp: [ArpCache::new(static_arp_a), ArpCache::new(static_arp_b)],
            out: VecDeque::new(),
            stats: GatewayStats::default(),
        }
    }

    /// Processes a frame received on `side`.
    pub fn handle_frame(&mut self, side: Side, raw: Bytes) {
        let Ok(eth) = EthernetFrame::parse(raw) else {
            return;
        };
        let iface = &self.ifaces[side.index()];
        let for_us = eth.dst == iface.mac || eth.dst.is_broadcast() || eth.dst.is_multicast();
        if !for_us {
            return;
        }
        match eth.ethertype {
            EtherType::Arp => self.handle_arp(side, &eth),
            EtherType::Ipv4 => self.handle_ip(side, &eth),
            EtherType::Other(_) => {}
        }
    }

    fn handle_arp(&mut self, side: Side, eth: &EthernetFrame) {
        let Ok(arp) = ArpPacket::parse(&eth.payload) else {
            return;
        };
        self.arp[side.index()].learn(arp.sender_ip, arp.sender_mac);
        let iface = &self.ifaces[side.index()];
        if arp.op == ArpOp::Request && arp.target_ip == iface.ip {
            let reply = ArpPacket::reply(iface.mac, iface.ip, &arp);
            let frame =
                EthernetFrame::new(arp.sender_mac, iface.mac, EtherType::Arp, reply.encode());
            self.out.push_back((side, frame.encode()));
        }
    }

    fn handle_ip(&mut self, side: Side, eth: &EthernetFrame) {
        let Ok(mut packet) = Ipv4Packet::parse(eth.payload.clone()) else {
            return;
        };
        // Learn the sender on the ingress side.
        if !eth.src.is_multicast() {
            self.arp[side.index()].learn(packet.src, eth.src);
        }
        // Packets addressed to the gateway itself are sunk (no services).
        if self.ifaces.iter().any(|i| i.ip == packet.dst) {
            return;
        }
        if packet.ttl <= 1 {
            self.stats.ttl_drops += 1;
            return;
        }
        packet.ttl -= 1;
        // Route: pick the interface whose subnet holds the destination.
        let egress = if self.ifaces[side.other().index()].on_subnet(packet.dst) {
            side.other()
        } else if self.ifaces[side.index()].on_subnet(packet.dst) {
            side // hairpin
        } else {
            self.stats.no_route += 1;
            return;
        };
        let Some(dst_mac) = self.arp[egress.index()].lookup(packet.dst) else {
            // A production router would ARP-and-queue; the experiment
            // topologies pre-install every needed entry, so an
            // unresolved hop is a configuration bug worth surfacing.
            self.stats.unresolved += 1;
            return;
        };
        let iface = &self.ifaces[egress.index()];
        let frame = EthernetFrame::new(dst_mac, iface.mac, EtherType::Ipv4, packet.encode());
        self.stats.forwarded += 1;
        self.out.push_back((egress, frame.encode()));
    }

    /// Collects frames to transmit as `(side, frame)` pairs.
    pub fn poll(&mut self) -> Vec<(Side, Bytes)> {
        self.out.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wire::IpProtocol;

    const CLIENT: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 10);
    const VIP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 100);
    const GW_A: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 1);
    const GW_B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);

    fn gateway() -> Gateway {
        let sme = MacAddr::multicast_for_ip(VIP);
        Gateway::new(
            GatewayIface { mac: MacAddr::local(10), ip: GW_A, netmask_bits: 24 },
            GatewayIface { mac: MacAddr::local(11), ip: GW_B, netmask_bits: 24 },
            [],
            [(VIP, sme)], // the paper's static SVI→SME entry
        )
    }

    fn client_to_vip_frame() -> Bytes {
        let ip = Ipv4Packet::new(CLIENT, VIP, IpProtocol::Tcp, Bytes::from_static(b"seg"));
        EthernetFrame::new(MacAddr::local(10), MacAddr::local(1), EtherType::Ipv4, ip.encode())
            .encode()
    }

    #[test]
    fn forwards_with_multicast_rewrite() {
        let mut gw = gateway();
        gw.handle_frame(Side::A, client_to_vip_frame());
        let out = gw.poll();
        assert_eq!(out.len(), 1);
        let (side, frame) = &out[0];
        assert_eq!(*side, Side::B);
        let eth = EthernetFrame::parse(frame.clone()).unwrap();
        assert_eq!(eth.dst, MacAddr::multicast_for_ip(VIP), "static ARP rewrites to SME");
        assert_eq!(eth.src, MacAddr::local(11));
        let ip = Ipv4Packet::parse(eth.payload).unwrap();
        assert_eq!(ip.ttl, 63, "TTL decremented");
        assert_eq!(ip.dst, VIP);
    }

    #[test]
    fn replies_to_arp_for_own_ip() {
        let mut gw = gateway();
        let req = ArpPacket::request(MacAddr::local(1), CLIENT, GW_A);
        let frame =
            EthernetFrame::new(MacAddr::BROADCAST, MacAddr::local(1), EtherType::Arp, req.encode());
        gw.handle_frame(Side::A, frame.encode());
        let out = gw.poll();
        assert_eq!(out.len(), 1);
        let eth = EthernetFrame::parse(out[0].1.clone()).unwrap();
        let arp = ArpPacket::parse(&eth.payload).unwrap();
        assert_eq!(arp.op, ArpOp::Reply);
        assert_eq!(arp.sender_mac, MacAddr::local(10));
    }

    #[test]
    fn reverse_path_uses_learned_mac() {
        let mut gw = gateway();
        // The client's frame teaches side A the client MAC.
        gw.handle_frame(Side::A, client_to_vip_frame());
        gw.poll();
        // Server (VIP) responds toward the client.
        let ip = Ipv4Packet::new(VIP, CLIENT, IpProtocol::Tcp, Bytes::from_static(b"resp"));
        let f =
            EthernetFrame::new(MacAddr::local(11), MacAddr::local(5), EtherType::Ipv4, ip.encode());
        gw.handle_frame(Side::B, f.encode());
        let out = gw.poll();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, Side::A);
        let eth = EthernetFrame::parse(out[0].1.clone()).unwrap();
        assert_eq!(eth.dst, MacAddr::local(1), "learned from the earlier client frame");
    }

    #[test]
    fn ttl_exhaustion_drops() {
        let mut gw = gateway();
        let mut ip = Ipv4Packet::new(CLIENT, VIP, IpProtocol::Tcp, Bytes::new());
        ip.ttl = 1;
        let f =
            EthernetFrame::new(MacAddr::local(10), MacAddr::local(1), EtherType::Ipv4, ip.encode());
        gw.handle_frame(Side::A, f.encode());
        assert!(gw.poll().is_empty());
        assert_eq!(gw.stats.ttl_drops, 1);
    }

    #[test]
    fn no_route_counts() {
        let mut gw = gateway();
        let ip =
            Ipv4Packet::new(CLIENT, Ipv4Addr::new(172, 16, 0, 1), IpProtocol::Tcp, Bytes::new());
        let f =
            EthernetFrame::new(MacAddr::local(10), MacAddr::local(1), EtherType::Ipv4, ip.encode());
        gw.handle_frame(Side::A, f.encode());
        assert!(gw.poll().is_empty());
        assert_eq!(gw.stats.no_route, 1);
    }

    #[test]
    fn packets_to_gateway_itself_are_sunk() {
        let mut gw = gateway();
        let ip = Ipv4Packet::new(CLIENT, GW_A, IpProtocol::Udp, Bytes::from_static(b"hi"));
        let f =
            EthernetFrame::new(MacAddr::local(10), MacAddr::local(1), EtherType::Ipv4, ip.encode());
        gw.handle_frame(Side::A, f.encode());
        assert!(gw.poll().is_empty());
        assert_eq!(gw.stats.forwarded, 0);
    }
}

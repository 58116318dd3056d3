//! Configuration types for connections and stacks.

use crate::congestion::CongestionAlgo;
use netsim::SimDuration;
use std::fmt;
use std::net::Ipv4Addr;
use wire::MacAddr;

/// The four-tuple identifying a TCP connection, from the perspective of
/// one endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Quad {
    /// Local IP address (for ST-TCP service connections: the virtual
    /// service IP, not the machine's own address).
    pub local_ip: Ipv4Addr,
    /// Local TCP port.
    pub local_port: u16,
    /// Remote IP address.
    pub remote_ip: Ipv4Addr,
    /// Remote TCP port.
    pub remote_port: u16,
}

impl Quad {
    /// Builds a quad.
    pub fn new(local_ip: Ipv4Addr, local_port: u16, remote_ip: Ipv4Addr, remote_port: u16) -> Self {
        Quad { local_ip, local_port, remote_ip, remote_port }
    }

    /// This connection as a canonical (endpoint-order-independent)
    /// trace identifier, so events recorded by the client, the primary,
    /// and the backup's shadow all attribute to the same connection.
    pub fn trace_conn(&self) -> obs::TraceConn {
        obs::TraceConn::new((self.local_ip, self.local_port), (self.remote_ip, self.remote_port))
    }

    /// The same connection seen from the other end.
    #[must_use]
    pub fn flipped(&self) -> Quad {
        Quad {
            local_ip: self.remote_ip,
            local_port: self.remote_port,
            remote_ip: self.local_ip,
            remote_port: self.local_port,
        }
    }
}

impl fmt::Display for Quad {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} <-> {}:{}",
            self.local_ip, self.local_port, self.remote_ip, self.remote_port
        )
    }
}

/// Per-connection TCP tuning.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Maximum segment size advertised and used (default 1460, Ethernet).
    pub mss: u16,
    /// Send buffer capacity in bytes.
    pub send_buf: usize,
    /// Receive buffer capacity in bytes (the *first* buffer). The
    /// default is 12×MSS: an MSS-aligned, even segment count per window
    /// keeps the delayed-ACK clock clean (a non-aligned window leaves a
    /// runt segment unacknowledged for the delayed-ACK timeout each
    /// cycle, costing ~7% of window-limited throughput in a
    /// phase-dependent way).
    pub recv_buf: usize,
    /// ST-TCP second-buffer capacity; 0 = standard TCP. The paper doubles
    /// the receive allocation, i.e. sets this equal to `recv_buf`.
    pub retention_buf: usize,
    /// Delayed-ACK timeout; `SimDuration::ZERO` acks every segment.
    pub delayed_ack: SimDuration,
    /// Minimum retransmission timeout (Linux: 200 ms).
    pub rto_min: SimDuration,
    /// Maximum retransmission timeout (Linux: 2 min).
    pub rto_max: SimDuration,
    /// TIME_WAIT hold time.
    pub time_wait: SimDuration,
    /// ST-TCP backup shadow semantics: establish on any client ACK and
    /// tolerate ACKs ahead of `snd_nxt` (the primary's transmissions
    /// the shadow has not made yet). The shadow's ISS is the primary's
    /// already: every server keys it on the SYN.
    pub shadow: bool,
    /// RFC 1323 window scaling: the shift this endpoint requests in its
    /// SYN. `None` disables the option. In effect only when both sides
    /// offer it. Required for receive buffers beyond 65 535 bytes
    /// (modern-LAN experiments).
    pub window_scale: Option<u8>,
    /// Congestion-control algorithm for connections using this config.
    /// The default (Reno) reproduces the paper-era stack bit-for-bit.
    pub congestion: CongestionAlgo,
    /// RFC 2018 selective acknowledgment: generate SACK blocks on
    /// out-of-order receive and drive recovery from the sender
    /// scoreboard. Off by default (the paper-era stack is go-back-N;
    /// the determinism digests pin that wire behaviour).
    pub sack: bool,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1460,
            send_buf: 32 * 1024,
            recv_buf: 12 * 1460,
            retention_buf: 0,
            delayed_ack: SimDuration::from_millis(40),
            rto_min: SimDuration::from_millis(200),
            rto_max: SimDuration::from_secs(120),
            time_wait: SimDuration::from_secs(60),
            shadow: false,
            window_scale: None,
            congestion: CongestionAlgo::Reno,
            sack: false,
        }
    }
}

impl TcpConfig {
    /// The ST-TCP *primary* profile: retention buffer equal to the
    /// receive buffer ("double the space", paper §4.2).
    pub fn st_tcp_primary() -> Self {
        let mut c = Self::default();
        c.retention_buf = c.recv_buf;
        c
    }

    /// The ST-TCP *backup* profile: shadow semantics on.
    pub fn st_tcp_backup() -> Self {
        TcpConfig { shadow: true, ..Self::default() }
    }
}

/// Interface + stack configuration for one host.
#[derive(Debug, Clone)]
pub struct StackConfig {
    /// Hardware address of the NIC.
    pub mac: MacAddr,
    /// The host's own IP address.
    pub ip: Ipv4Addr,
    /// Additional accepted IPs — the virtual service IP(s) of a VNIC.
    pub extra_ips: Vec<Ipv4Addr>,
    /// Prefix length of the local subnet (e.g. 24).
    pub netmask_bits: u8,
    /// Default gateway for off-subnet destinations.
    pub gateway: Option<Ipv4Addr>,
    /// Extra unicast/multicast MACs accepted by the NIC filter (the
    /// multicast `SME`/`GME` of the tapping architecture).
    pub accept_macs: Vec<MacAddr>,
    /// Accept every frame regardless of destination MAC (hub tapping).
    pub promiscuous: bool,
    /// Static ARP entries, consulted before the dynamic cache — the
    /// paper's `SVI -> SME` / `GVI -> GME` mappings.
    pub static_arp: Vec<(Ipv4Addr, MacAddr)>,
    /// Learn IP→MAC mappings from the source addresses of received IP
    /// frames (lets a tapping backup address the client immediately on
    /// takeover without ARPing).
    pub learn_from_ip: bool,
    /// Seed of the initial sequence numbers of active opens (a client's
    /// connects). A passive open takes no seed: its ISS is keyed on the
    /// quad and the client's ISN, the same on every server.
    pub isn_seed: u64,
    /// IPs whose egress is suppressed (the backup lists the service VIP;
    /// takeover removes it).
    pub suppressed_ips: Vec<Ipv4Addr>,
    /// TCP defaults applied to new connections.
    pub tcp: TcpConfig,
}

impl StackConfig {
    /// A plain host: `ip` on a /24, no tapping, no suppression.
    pub fn host(mac: MacAddr, ip: Ipv4Addr) -> Self {
        StackConfig {
            mac,
            ip,
            extra_ips: Vec::new(),
            netmask_bits: 24,
            gateway: None,
            accept_macs: Vec::new(),
            promiscuous: false,
            static_arp: Vec::new(),
            learn_from_ip: false,
            isn_seed: 1,
            suppressed_ips: Vec::new(),
            tcp: TcpConfig::default(),
        }
    }

    /// The addresses the NIC filter accepts besides broadcast (own MAC,
    /// `accept_macs`), `None` when promiscuous: what `handle_frame`
    /// filters by and what a NIC hosting the stack is programmed with.
    pub fn nic_macs(&self) -> Option<(MacAddr, &[MacAddr])> {
        (!self.promiscuous).then_some((self.mac, &self.accept_macs))
    }

    /// True when `dst` is on this host's subnet.
    pub fn on_subnet(&self, dst: Ipv4Addr) -> bool {
        let bits = u32::from(self.netmask_bits.min(32));
        let mask = if bits == 0 { 0 } else { u32::MAX << (32 - bits) };
        (u32::from(self.ip) & mask) == (u32::from(dst) & mask)
    }

    /// All IPs this stack answers for.
    pub fn all_ips(&self) -> impl Iterator<Item = Ipv4Addr> + '_ {
        std::iter::once(self.ip).chain(self.extra_ips.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quad_flip_is_involution() {
        let q = Quad::new(Ipv4Addr::new(1, 2, 3, 4), 80, Ipv4Addr::new(5, 6, 7, 8), 4242);
        assert_eq!(q.flipped().flipped(), q);
        assert_eq!(q.flipped().local_port, 4242);
    }

    #[test]
    fn st_tcp_profiles() {
        let p = TcpConfig::st_tcp_primary();
        assert_eq!(p.retention_buf, p.recv_buf);
        assert!(!p.shadow);
        let b = TcpConfig::st_tcp_backup();
        assert!(b.shadow);
        assert_eq!(b.retention_buf, 0);
    }

    #[test]
    fn subnet_membership() {
        let cfg = StackConfig::host(MacAddr::local(1), Ipv4Addr::new(10, 0, 0, 5));
        assert!(cfg.on_subnet(Ipv4Addr::new(10, 0, 0, 200)));
        assert!(!cfg.on_subnet(Ipv4Addr::new(10, 0, 1, 200)));
    }

    #[test]
    fn all_ips_includes_vnics() {
        let mut cfg = StackConfig::host(MacAddr::local(1), Ipv4Addr::new(10, 0, 0, 5));
        cfg.extra_ips.push(Ipv4Addr::new(10, 0, 0, 100));
        let ips: Vec<_> = cfg.all_ips().collect();
        assert_eq!(ips, vec![Ipv4Addr::new(10, 0, 0, 5), Ipv4Addr::new(10, 0, 0, 100)]);
    }

    #[test]
    fn quad_display() {
        let q = Quad::new(Ipv4Addr::new(1, 1, 1, 1), 80, Ipv4Addr::new(2, 2, 2, 2), 99);
        assert_eq!(q.to_string(), "1.1.1.1:80 <-> 2.2.2.2:99");
    }
}

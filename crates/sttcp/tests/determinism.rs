//! Frame-trace determinism regression tests.
//!
//! The zero-copy frame hot path (single-pass `FrameBuilder`, deferred
//! payload staging, recycled simulator contexts) reuses buffers
//! aggressively. None of that reuse may change a single bit on the
//! wire: two runs of the same seeded scenario must transmit byte-for-
//! byte identical frames at identical times. A probe hashes every
//! frame accepted for transmission, so any divergence — reordering, a
//! stale byte from a recycled buffer, a checksum mismatch between the
//! builder and the layered encoders — changes the digest.

use apps::Workload;
use bytes::Bytes;
use netsim::{DropRule, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;
use sttcp::fleet::{self, FleetSpec};
use sttcp::scenario::{addrs, build, FaultSpec, RunLimits, ScenarioSpec};
use sttcp::{SideMsg, SttcpConfig};
use wire::{EtherType, EthernetFrame, IpProtocol, Ipv4Packet, TcpSegment, UdpDatagram};

/// FNV-1a over every probe observation: departure time, link, both
/// endpoints, and the full frame bytes.
#[derive(Default)]
struct TraceDigest {
    hash: u64,
    frames: u64,
    bytes: u64,
}

impl TraceDigest {
    fn new() -> Self {
        TraceDigest { hash: 0xcbf2_9ce4_8422_2325, frames: 0, bytes: 0 }
    }

    fn mix(&mut self, v: u64) {
        self.hash ^= v;
        self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn observe(&mut self, ev: &netsim::ProbeEvent<'_>) {
        self.mix(ev.time.as_nanos());
        self.mix(ev.link.0 as u64);
        self.mix(ev.from.0 as u64);
        self.mix(ev.to.0 as u64);
        self.mix(ev.frame.len() as u64);
        for &b in ev.frame.iter() {
            self.mix(u64::from(b));
        }
        self.frames += 1;
        self.bytes += ev.frame.len() as u64;
    }
}

/// One seeded ST-TCP bulk run with a mid-transfer primary crash,
/// digesting every transmitted frame. Returns (digest, frame count,
/// wire bytes, events processed, client bytes received).
fn digest_failover_run() -> (u64, u64, u64, u64, u64) {
    let spec = ScenarioSpec::new(Workload::Bulk { file_size: 2 << 20 })
        .st_tcp(SttcpConfig::new(addrs::VIP, 80))
        .faults(FaultSpec::crash_primary_at(SimTime::ZERO + SimDuration::from_millis(300)));
    let mut s = build(&spec);
    let digest = Rc::new(RefCell::new(TraceDigest::new()));
    let sink = Rc::clone(&digest);
    s.sim.set_probe(move |ev| sink.borrow_mut().observe(&ev));
    let m = s.run(RunLimits::time(SimDuration::from_secs(120))).expect_completed();
    assert!(m.verified_clean(), "failover run must deliver the stream intact");
    assert!(s.backup().unwrap().has_taken_over(), "the crash must trigger a takeover");
    let d = digest.borrow();
    let events = s.sim.trace().events_processed;
    (d.hash, d.frames, d.bytes, events, m.bytes_received)
}

#[test]
fn failover_frame_traces_are_bit_identical() {
    let a = digest_failover_run();
    let b = digest_failover_run();
    assert!(a.1 > 1000, "a 2 MB failover run must transmit many frames, saw {}", a.1);
    assert_eq!(a, b, "two identically-seeded runs must produce bit-identical frame traces");
}

#[test]
fn fleet_failover_frame_traces_are_bit_identical() {
    // The multi-connection pin for the slab/demux/timer-queue hot
    // path: 80 mixed-workload clients, a mid-stagger primary crash,
    // every frame digested. Hash-demux iteration never reaches the
    // wire (slab order, poll-queue touch order, and timer pop order
    // are all deterministic), so two runs must agree bit-for-bit.
    let run = || {
        let spec = FleetSpec::new(80)
            .connect_spread(SimDuration::from_millis(80))
            .crash_primary_at(SimTime::ZERO + SimDuration::from_millis(140));
        let mut f = fleet::build(&spec);
        let digest = Rc::new(RefCell::new(TraceDigest::new()));
        let sink = Rc::clone(&digest);
        f.sim.set_probe(move |ev| sink.borrow_mut().observe(&ev));
        assert!(f.run_until_done(SimDuration::from_secs(120)), "fleet must finish");
        assert!(f.verified_clean(), "every client stream intact across failover");
        let d = digest.borrow();
        (d.hash, d.frames, d.bytes, f.sim.trace().events_processed)
    };
    let a = run();
    let b = run();
    assert!(a.1 > 2000, "an 80-client failover fleet transmits many frames, saw {}", a.1);
    assert_eq!(a, b, "fleet traces must be bit-identical across runs");
}

#[test]
fn echo_frame_traces_are_bit_identical() {
    let run = || {
        let spec = ScenarioSpec::new(Workload::Echo { requests: 50 })
            .st_tcp(SttcpConfig::new(addrs::VIP, 80));
        let mut s = build(&spec);
        let digest = Rc::new(RefCell::new(TraceDigest::new()));
        let sink = Rc::clone(&digest);
        s.sim.set_probe(move |ev| sink.borrow_mut().observe(&ev));
        let m = s.run(RunLimits::time(SimDuration::from_secs(60))).expect_completed();
        assert!(m.verified_clean());
        let d = digest.borrow();
        (d.hash, d.frames, d.bytes)
    };
    assert_eq!(run(), run(), "failure-free traces must be bit-identical");
}

/// The IPv4 packet inside `frame`, if it is one.
fn ipv4(frame: &Bytes) -> Option<Ipv4Packet> {
    let eth = EthernetFrame::parse(frame.clone()).ok()?;
    (eth.ethertype == EtherType::Ipv4).then(|| Ipv4Packet::parse(eth.payload).ok())?
}

fn client_request(frame: &Bytes) -> bool {
    ipv4(frame)
        .filter(|ip| ip.dst == addrs::VIP && ip.protocol == IpProtocol::Tcp)
        .and_then(|ip| TcpSegment::parse(ip.payload.clone(), ip.src, ip.dst).ok())
        .is_some_and(|seg| !seg.payload.is_empty())
}

fn missing_data_reply(frame: &Bytes) -> bool {
    ipv4(frame)
        .filter(|ip| ip.protocol == IpProtocol::Udp)
        .and_then(|ip| UdpDatagram::parse(ip.payload.clone(), ip.src, ip.dst).ok())
        .and_then(|udp| SideMsg::decode(udp.payload))
        .is_some_and(|msg| matches!(msg, SideMsg::MissingData { .. }))
}

#[test]
fn replay_with_gaps_on_many_connections_is_bit_identical() {
    // Twelve echo connections, each with a hole in its shadow's receive
    // stream when the primary dies: the tap loses 40 client requests in
    // a row and every recovery reply, so the promoted backup walks its
    // gap table to ask the logger — one query per connection, in table
    // order, and the logger replays in query order. A table hashed with
    // `RandomState` is walked in a different order by each *build*,
    // even inside one process (six processes printed six digests for
    // this spec); the frames, their count and the outcome are the same
    // every time, so nothing but a digest sees it.
    let run = || {
        let crash = SimTime::ZERO + SimDuration::from_millis(600);
        let mut spec =
            FleetSpec::new(12).closing().workload(Workload::Echo { requests: 100 }).crash(0, crash);
        spec.st_tcp = spec.st_tcp.with_logger();
        let mut f = fleet::build(&spec);
        f.sim.add_ingress_drop(f.backup, DropRule::window(299, 40, client_request));
        f.sim.add_ingress_drop(f.backup, DropRule::all(missing_data_reply));
        let digest = Rc::new(RefCell::new(TraceDigest::new()));
        let sink = Rc::clone(&digest);
        f.sim.set_probe(move |ev| sink.borrow_mut().observe(&ev));
        assert!(f.run_until_done(SimDuration::from_secs(60)), "every client must finish");
        assert!(f.verified_clean(), "every stream intact across the failover");
        let queries = f.engine(1).stats.logger_queries;
        let d = digest.borrow();
        (d.hash, d.frames, d.bytes, queries)
    };
    let a = run();
    println!("digest {:016x}, {} frames, {} logger queries", a.0, a.1, a.3);
    assert!(a.3 >= 2, "the scenario needs gaps on several connections, saw {} queries", a.3);
    for _ in 0..3 {
        assert_eq!(run(), a, "same spec, same seed: every build must replay bit for bit");
    }
}

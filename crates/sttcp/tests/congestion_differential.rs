//! Differential pins for the congestion-controller redesign.
//!
//! The `CongestionController` trait refactor must be behavior-preserving
//! by default: Reno behind the trait, with SACK emission off, has to put
//! the same bytes on the wire at the same instants as the pre-refactor
//! hardwired `Congestion` struct. These tests pin that with golden
//! frame-trace digests captured at the commit *before* the refactor:
//! the 100 MB bulk transfer (the simperf `bulk_100mb` scenario) and the
//! 80-client failover fleet (the determinism-test scenario). Any change
//! to default wire behavior — an extra option byte, a different cwnd
//! growth step, a shifted retransmit — moves these hashes.

use apps::Workload;
use netsim::{SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;
use sttcp::fleet::{self, FleetSpec};
use sttcp::scenario::{build, RunLimits, ScenarioSpec};
use sttcp::ServerNode;

/// FNV-1a over every probe observation, identical to the fold in
/// `tests/determinism.rs`: departure time, link, endpoints, frame bytes.
#[derive(Default)]
struct TraceDigest {
    hash: u64,
    frames: u64,
}

impl TraceDigest {
    fn new() -> Self {
        TraceDigest { hash: 0xcbf2_9ce4_8422_2325, frames: 0 }
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
    }
}

/// Golden digest of the `bulk_100mb` scenario (standard TCP, default
/// config), captured pre-refactor.
const BULK_100MB_DIGEST: (u64, u64) = (0xf6cc_9c4e_6e20_1a1d, 215_472);

/// Simulator events the same run takes. The digest says the frames are
/// the same; the count says nobody is paying for them twice (from PR 6
/// until the stack-wake rule of DESIGN.md "Timer contract" the run took
/// 270 816: every superseded timer fire armed a successor; until the
/// stack's deadlines moved onto the exact `TimeQueue` it took 219 440:
/// a timer wheel's coarse slots woke the node early; until each node's
/// wake and each socket's deadline became one entry that moves, it took
/// 217 314: a deadline that moved later still woke the node at its old
/// instant).
const BULK_100MB_EVENTS: u64 = 215_475;

/// Golden digest of the 80-client failover fleet (the
/// `fleet_failover_frame_traces_are_bit_identical` scenario), captured
/// pre-refactor (PR 9) and held through the engine collapse (PR 12).
/// The loss-free LAN draws nothing at random, so only protocol changes
/// move it. Re-pinned four times:
///
/// * from (0x24bf_5764_6391_d5fd, 4 228) when the stack's deadlines
///   became exact: two clients' 200 ms retransmissions reach the
///   promoted backup on the nanosecond its shadows' own 200 ms RTOs come
///   due, and the RTO wake — armed when the deadline was set, so the
///   older event — now runs first. RTO retransmission, then a pure ACK
///   for the duplicate request, where the duplicate used to get in first
///   and the retransmission carried its ACK: two 54-byte ACKs over two
///   hops, four frames, every other frame in place (the order rule is
///   pinned by
///   `node::tests::a_wake_armed_when_the_deadline_is_set_runs_before_a_later_frame`);
/// * from (0x048a_fb1b_dcd3_80e7, 4 232) when the promoted backup
///   stopped serving the primary it replaced: the heartbeats and
///   `BackupAck`s it still sent that primary on its 350 ms and 400 ms
///   ticks, eight frames in all (`Fleet80::dead_primary_frames` counts
///   what is left of them: nothing). [`FLEET_80_PRE_PROMOTION_DIGEST`]
///   held;
/// * from (0x50f1_49f6_3bf2_afef, 4 224) when every backup got the one
///   ack rule: an ack pass that owes several connections sends one
///   `AckBatch` datagram for up to 63 of them instead of a `BackupAck`
///   each, 252 frames fewer (two hops per datagram). The takeover
///   instant held; [`FLEET_80_PRE_PROMOTION_DIGEST`] moved with it;
/// * from (0x7fef_36b3_12c6_7909, 3 972) when the side channel got one
///   heartbeat: the primary's carries its epoch (13 bytes, was 9), and
///   a backup's acks are its heartbeat, so a tick that acked no longer
///   also sent one, 6 frames fewer. The takeover instant held;
///   [`FLEET_80_PRE_PROMOTION_DIGEST`] moved with it.
const FLEET_80_FAILOVER_DIGEST: (u64, u64) = (0xd65b_8bc3_0b21_d1a8, 3_966);

/// Simulator events of the failover fleet and of its fault-free twin
/// (see [`BULK_100MB_EVENTS`]) plus the flood copies the clients' NICs
/// refused: such a copy was an arrival event until its verdict moved to
/// the transmit (DESIGN.md §8 "When it runs"), so the sum is what has
/// stayed put since — 4 284 + 474 and 4 025 + 474 when that happened.
/// The failover fleet's fell from 4 758 with the heartbeats to the dead.
/// Both fell again (4 756 → 4 484, 4 499 → 4 454) when a moved deadline
/// stopped waking its node at the old instant, again (→ 4 232,
/// → 4 202) when acks for several connections began to share a datagram:
/// one event per frame fewer, and again (→ 4 226, → 4 196) when a backup
/// stopped sending a heartbeat beside its acks.
const FLEET_80_FAILOVER_EVENTS: u64 = 4_226;
const FLEET_80_FAULT_FREE_EVENTS: u64 = 4_196;

#[test]
fn reno_via_trait_matches_prerefactor_bulk_100mb() {
    let spec = ScenarioSpec::new(Workload::bulk_mb(100));
    let mut s = build(&spec);
    let digest = Rc::new(RefCell::new(TraceDigest::new()));
    let sink = Rc::clone(&digest);
    s.sim.set_probe(move |ev| sink.borrow_mut().observe(&ev));
    let m = s.run(RunLimits::time(SimDuration::from_secs(600))).expect_completed();
    assert!(m.verified_clean());
    let d = digest.borrow();
    assert_eq!(
        (d.hash, d.frames),
        BULK_100MB_DIGEST,
        "default-config bulk_100mb wire trace diverged from the pre-refactor seed \
         (got ({:#018x}, {}))",
        d.hash,
        d.frames
    );
    assert_eq!(s.sim.trace().events_processed, BULK_100MB_EVENTS, "same frames, other event count");
}

/// Golden digest of the same 80-client fleet with no crash (whole run),
/// captured on the commit before the engine collapse (PR 12).
/// Re-pinned twice: from (0xd42d_b817_8f53_a80b, 4 215) for batched
/// acks (see [`FLEET_80_FAILOVER_DIGEST`]), 256 frames fewer, and from
/// (0xc251_a78b_5b63_382b, 3 959) for the one heartbeat, 7 fewer.
const FLEET_80_FAULT_FREE_DIGEST: (u64, u64) = (0xa239_214d_a47d_322a, 3_952);

/// When the backup of the 80-client failover fleet promotes itself.
const FLEET_80_TAKEOVER: SimTime = SimTime::from_nanos(300_000_000);

/// Golden digest of the failover fleet restricted to frames departing
/// before [`FLEET_80_TAKEOVER`], captured on the commit before the
/// engine collapse (PR 12): whatever the surviving engine does after
/// the promotion, the pair's pre-takeover wire trace may not move.
/// Re-pinned twice, from (0x2efc_b375_8c3f_a909, 4 129) for batched
/// acks and from (0x4ef5_6c6a_869e_b9b1, 3 877) for the one heartbeat
/// (see [`FLEET_80_FAILOVER_DIGEST`]).
const FLEET_80_PRE_PROMOTION_DIGEST: (u64, u64) = (0x5cb8_f76f_ab42_fba2, 3_871);

/// What one run of the 80-client fleet put on the wire.
struct Fleet80 {
    /// Digest of every frame.
    whole: (u64, u64),
    /// Digest of the frames departing before [`FLEET_80_TAKEOVER`].
    prefix: (u64, u64),
    /// The backup's promotion instant.
    takeover: Option<SimTime>,
    /// Simulator events processed plus the frames a NIC filtered.
    events: u64,
    /// Frames addressed to the primary's own IPv4 address that depart
    /// more than one heartbeat after [`FLEET_80_TAKEOVER`].
    dead_primary_frames: u64,
    /// Stack wakes the servers took (clients record nothing), and how
    /// many of them found no deadline due and sent nothing.
    stack_wakes: (u64, u64),
}

/// Runs the 80-client fleet, crashing the primary at 140 ms if `crash`.
fn fleet_80(crash: bool) -> Fleet80 {
    let mut spec = FleetSpec::new(80).connect_spread(SimDuration::from_millis(80)).recording();
    if crash {
        spec = spec.crash_primary_at(SimTime::ZERO + SimDuration::from_millis(140));
    }
    let mut f = fleet::build(&spec);
    let settled = FLEET_80_TAKEOVER + spec.st_tcp.hb_interval;
    let primary = fleet::server_ip(0).octets();
    let seen = Rc::new(RefCell::new((TraceDigest::new(), TraceDigest::new(), 0)));
    let sink = Rc::clone(&seen);
    f.sim.set_probe(move |ev| {
        let (whole, prefix, dead) = &mut *sink.borrow_mut();
        whole.observe(&ev);
        if ev.time < FLEET_80_TAKEOVER {
            prefix.observe(&ev);
        }
        let to_primary = wire::EthernetFrame::parse(ev.frame.clone())
            .ok()
            .and_then(|eth| wire::Ipv4Packet::parse(eth.payload).ok())
            .is_some_and(|ip| ip.dst.octets() == primary);
        *dead += u64::from(ev.time > settled && to_primary);
    });
    assert!(f.run_until_done(SimDuration::from_secs(120)), "fleet must finish");
    assert!(f.verified_clean(), "all 80 client streams must verify clean");
    let takeover = f.sim.node_ref::<ServerNode>(f.backup).backup_engine().unwrap().takeover_at();
    let (whole, prefix, dead_primary_frames) = &*seen.borrow();
    let snap = f.obs.as_ref().expect("recording on").snapshot();
    Fleet80 {
        whole: (whole.hash, whole.frames),
        prefix: (prefix.hash, prefix.frames),
        takeover,
        events: f.sim.trace().events_processed + f.sim.trace().frames_filtered_nic,
        dead_primary_frames: *dead_primary_frames,
        stack_wakes: (snap.get("stack_wakes"), snap.get("stack_wakes_idle")),
    }
}

#[test]
fn reno_via_trait_matches_prerefactor_fleet_failover() {
    let Fleet80 { whole, prefix, takeover, events, .. } = fleet_80(true);
    assert_eq!(takeover, Some(FLEET_80_TAKEOVER), "the takeover instant moved");
    assert_eq!(
        prefix, FLEET_80_PRE_PROMOTION_DIGEST,
        "the pair's pre-takeover wire trace diverged (got ({:#018x}, {}))",
        prefix.0, prefix.1
    );
    assert_eq!(
        whole, FLEET_80_FAILOVER_DIGEST,
        "default-config 80-client failover wire trace diverged (got ({:#018x}, {}))",
        whole.0, whole.1
    );
    assert_eq!(events, FLEET_80_FAILOVER_EVENTS, "same frames, other event count");
}

#[test]
fn the_promoted_backup_sends_the_dead_primary_nothing() {
    // The power switch makes a wrong suspicion correct (§3.2, §4.4): once
    // the backup has taken over, nothing is owed to the primary it
    // replaced. Within one heartbeat of the takeover no frame is
    // addressed to that primary any more — no heartbeat, no ack, no
    // missing-segment request.
    let run = fleet_80(true);
    assert_eq!(run.takeover, Some(FLEET_80_TAKEOVER));
    assert_eq!(run.dead_primary_frames, 0);
}

#[test]
fn fault_free_fleet_matches_the_pre_collapse_pair() {
    let Fleet80 { whole, takeover, events, stack_wakes: (wakes, idle), .. } = fleet_80(false);
    assert_eq!(takeover, None, "nobody promotes in a fault-free run");
    assert_eq!(
        whole, FLEET_80_FAULT_FREE_DIGEST,
        "fault-free 80-client fleet wire trace diverged (got ({:#018x}, {}))",
        whole.0, whole.1
    );
    assert_eq!(events, FLEET_80_FAULT_FREE_EVENTS, "same frames, other event count");
    // A wake is a deadline that came due: none finds nothing to do. (The
    // servers — the recorded hosts — took 18 wakes here, every one idle,
    // while a deadline that moved later still woke its node.)
    assert_eq!(idle, 0, "{idle} of {wakes} stack wakes found nothing due and sent nothing");
}

/// Golden digest of a 1 MB upload through 15 % tap loss, a primary
/// crash at 700 ms and the in-network logger (the scenario of
/// `upload.rs::upload_failover_with_tap_loss_and_logger`), captured on
/// the commit before the engine collapse (PR 12). It holds the pair's
/// recovery traffic in place — which missing-segment requests go out,
/// when, and what the promoted backup sends afterwards — where the
/// loss-free fleet digests above cannot see it.
///
/// Re-pinned twice. First from (0x86d4_57de_ad58_b603, 9 657), for two
/// reasons at once. The promoted backup stopped serving the primary it
/// replaced: its acks, heartbeats and missing-segment retries to the
/// dead (that alone made 6 827 frames). And the tap-loss rule stopped
/// sharing the simulator's one generator: it draws from the backup's
/// own ingress stream. Then from (0xa2a8_a55d_b719_20c3, 6 440), when the
/// side channel got one heartbeat: the primary's carries its epoch, and
/// the backup's acks are its heartbeat (36 frames fewer).
const TAP_LOSS_FAILOVER_DIGEST: (u64, u64) = (0x8db8_78a8_1c7d_636d, 6_404);

#[test]
fn tap_loss_failover_matches_the_pre_collapse_pair() {
    use sttcp::scenario::{addrs, FaultSpec};
    let mut cfg = sttcp::SttcpConfig::new(addrs::VIP, 80).with_logger();
    cfg.missing_req_chunk = 8 * 1024;
    let crash = SimTime::ZERO + SimDuration::from_millis(700);
    let spec = ScenarioSpec::new(Workload::upload_mb(1))
        .st_tcp(cfg)
        .faults(FaultSpec::crash_primary_at(crash));
    let mut s = build(&spec);
    s.sim.add_ingress_drop(
        s.backup.unwrap(),
        netsim::DropRule::rate(0.15, |frame: &bytes::Bytes| {
            wire::EthernetFrame::parse(frame.clone())
                .ok()
                .and_then(|eth| wire::Ipv4Packet::parse(eth.payload).ok())
                .is_some_and(|ip| ip.protocol == wire::IpProtocol::Tcp)
        }),
    );
    let digest = Rc::new(RefCell::new(TraceDigest::new()));
    let sink = Rc::clone(&digest);
    s.sim.set_probe(move |ev| sink.borrow_mut().observe(&ev));
    let m = s.run(RunLimits::time(SimDuration::from_secs(120))).expect_completed();
    assert!(m.verified_clean());
    let d = digest.borrow();
    assert_eq!(
        (d.hash, d.frames),
        TAP_LOSS_FAILOVER_DIGEST,
        "tap-loss failover wire trace diverged from the pre-collapse pair \
         (got ({:#018x}, {}))",
        d.hash,
        d.frames
    );
}

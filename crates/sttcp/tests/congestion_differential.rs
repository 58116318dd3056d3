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
/// config), captured pre-refactor. Re-pinned once, from
/// (0xf6cc_9c4e_6e20_1a1d, 215 472), when a passive open's ISS became
/// keyed on the SYN instead of drawn from the server's seed: every
/// server sequence number moved, every frame and instant held.
const BULK_100MB_DIGEST: (u64, u64) = (0x45a3_0dbe_ea2c_5737, 215_472);

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
/// move it. Re-pinned eight times:
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
///   [`FLEET_80_PRE_PROMOTION_DIGEST`] moved with it;
/// * from (0xd65b_8bc3_0b21_d1a8, 3 966) when the mirror began to copy
///   only what the switch sends to the primary's port, 399 frames
///   fewer: the copies of the primary's half are gone, and the side
///   channel gained a `Frontier` entry per answered SYN and per
///   heartbeat, the backup a loopback frame at boot, and the promoted
///   backup speaks first. The takeover instant held;
///   [`FLEET_80_PRE_PROMOTION_DIGEST`] moved with it (3 871 → 3 469
///   frames);
/// * from (0x8095_94a5_ec19_80d6, 3 567) when every server began to
///   derive a passive open's ISS from the SYN: the SYN entries went
///   (one side-channel datagram, two hops, per pump that answered a
///   SYN), the heartbeat came to carry the frontier entries, and a
///   mirror copy came to leave no earlier than the frame it copies.
///   164 frames fewer; every server sequence number moved. The
///   takeover instant held; [`FLEET_80_PRE_PROMOTION_DIGEST`] moved
///   with it (3 469 → 3 305 frames);
/// * from (0x7a4e_dd47_e497_d474, 3 403) when a heartbeat began to owe
///   a frontier entry only for bytes its backup had a whole tick to
///   ack, 2 frames fewer. The takeover instant held;
///   [`FLEET_80_PRE_PROMOTION_DIGEST`] moved with it (3 305 → 3 303
///   frames);
/// * from (0xa727_2005_fffc_b8db, 3 401) when the switch began with
///   every server's port learned: the 474 flood copies of the first
///   SYNs, each refused by a client's NIC, are gone; the events and
///   the frames delivered held. The takeover instant
///   held; [`FLEET_80_PRE_PROMOTION_DIGEST`] moved with it (3 303 →
///   2 829 frames).
const FLEET_80_FAILOVER_DIGEST: (u64, u64) = (0xdb8d_5630_4dcf_0040, 2_927);

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
/// stopped sending a heartbeat beside its acks, and again (→ 3 832,
/// → 3 780) when the mirror stopped copying the primary's half to the
/// backup, and again (→ 3 668, → 3 614) when the SYN entries went and
/// the frontier began to ride the heartbeat, and again (→ 3 666,
/// → 3 612) when a frontier entry came to be owed a tick later. Since
/// the switch has begun with every server's port learned no NIC refuses
/// a frame, so the sum is the events alone (3 666 − 474, 3 612 − 474).
const FLEET_80_FAILOVER_EVENTS: u64 = 3_192;
const FLEET_80_FAULT_FREE_EVENTS: u64 = 3_138;

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
/// Re-pinned six times: from (0xd42d_b817_8f53_a80b, 4 215) for
/// batched acks (see [`FLEET_80_FAILOVER_DIGEST`]), 256 frames fewer,
/// from (0xc251_a78b_5b63_382b, 3 959) for the one heartbeat, 7 fewer,
/// from (0xa239_214d_a47d_322a, 3 952) for the mirror that copies only
/// the client's half, 415 fewer, and from (0x2404_154f_a89a_941c,
/// 3 537) for the keyed ISS and the frontier on the heartbeat, 167
/// fewer, and from (0xc4d5_700b_3ab2_60e5, 3 370) for frontier entries
/// owed a tick later, 2 fewer, and from (0x99be_0c67_2a38_c4e4, 3 368)
/// for the switch that starts with the servers' ports learned, 474
/// flood copies fewer.
const FLEET_80_FAULT_FREE_DIGEST: (u64, u64) = (0x8791_82e9_18e7_a725, 2_894);

/// When the backup of the 80-client failover fleet promotes itself.
const FLEET_80_TAKEOVER: SimTime = SimTime::from_nanos(300_000_000);

/// Golden digest of the failover fleet restricted to frames departing
/// before [`FLEET_80_TAKEOVER`], captured on the commit before the
/// engine collapse (PR 12): whatever the surviving engine does after
/// the promotion, the pair's pre-takeover wire trace may not move.
/// Re-pinned six times, from (0x2efc_b375_8c3f_a909, 4 129) for
/// batched acks, from (0x4ef5_6c6a_869e_b9b1, 3 877) for the one
/// heartbeat, from (0x5cb8_f76f_ab42_fba2, 3 871) for the mirror that
/// copies only the client's half, from (0x6034_0b1d_c88a_83ec, 3 469)
/// for the keyed ISS and the frontier on the heartbeat and from
/// (0x7269_29f6_5a01_509f, 3 305) for frontier entries owed a tick
/// later and from (0x1f20_9568_a2cb_885c, 3 303) for the switch that
/// starts with the servers' ports learned (see
/// [`FLEET_80_FAILOVER_DIGEST`]).
const FLEET_80_PRE_PROMOTION_DIGEST: (u64, u64) = (0xdd0f_5323_02d7_394b, 2_829);

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
/// Re-pinned five times. First from (0x86d4_57de_ad58_b603, 9 657), for two
/// reasons at once. The promoted backup stopped serving the primary it
/// replaced: its acks, heartbeats and missing-segment retries to the
/// dead (that alone made 6 827 frames). And the tap-loss rule stopped
/// sharing the simulator's one generator: it draws from the backup's
/// own ingress stream. Then from (0xa2a8_a55d_b719_20c3, 6 440), when the
/// side channel got one heartbeat: the primary's carries its epoch, and
/// the backup's acks are its heartbeat (36 frames fewer). Then from
/// (0x8db8_78a8_1c7d_636d, 6 404), when the mirror began to copy only
/// the client's half: the primary's frontier reaches the backup on each
/// heartbeat, not with each segment, so the promoted backup asks the
/// logger for what follows each shadow and for the holes it sees
/// itself (77 queries, each flooded), and speaks first. The upload
/// finishes at 8.84 s instead of 23.78 s; 8 896 frames. Then from
/// (0xf462_57ac_2059_949b, 8 896), when every server began to derive a
/// passive open's ISS from the SYN: the SYN entry went and the
/// frontier rides the heartbeat, 48 frames fewer, and every server
/// sequence number moved. Then from (0x3180_5735_700d_480a, 8 848),
/// when a heartbeat began to owe a frontier entry only for bytes the
/// backup had a whole tick to ack: the backup learns of an omission a
/// tick later, 30 frames more. Then from (0x9a6c_5a08_05c1_2063, 8 878),
/// for two reasons at once. The backup stopped running a retry clock of
/// its own: an unanswered request is asked again by the second frontier
/// entry since, and an entry for bytes the shadow holds re-acks them.
/// And a request asks for up to 16 KiB, the one size there is, where
/// this test used to set 8 KiB. Each alone gives
/// (0x1fae_79bf_f5a2_a459, 8 874); together 8 840 frames.
const TAP_LOSS_FAILOVER_DIGEST: (u64, u64) = (0x8c0b_e917_7f8b_7c3b, 8_840);

#[test]
fn tap_loss_failover_matches_the_pre_collapse_pair() {
    use sttcp::scenario::{addrs, FaultSpec};
    let cfg = sttcp::SttcpConfig::new(addrs::VIP, 80).with_logger();
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

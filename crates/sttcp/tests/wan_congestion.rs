//! WAN-profile congestion experiments: the scenario space the paper's
//! 10/100 Mbit LAN never reaches (ROADMAP item 2, ISSUE 9).
//!
//! On `wan_high_bdp` the receive window no longer binds (scaled 2 MB
//! windows over a ≈500 KB bandwidth-delay product), so goodput is set
//! by how fast each [`CongestionAlgo`] reopens the window after loss —
//! exactly where CUBIC's cubic regrowth and BBR's model-based pacing
//! were designed to beat Reno's one-MSS-per-RTT probe.

use apps::Workload;
use netsim::{LinkProfile, SimDuration, SimTime};
use sttcp::scenario::{addrs, build, FaultSpec, RunLimits, ScenarioSpec};
use sttcp::SttcpConfig;
use tcpstack::CongestionAlgo;

/// Bulk-download completion time on `wan_high_bdp` with scaled windows
/// (SACK on for every run, so recovery style is held constant and only
/// the controller varies).
fn wan_bulk_secs(algo: CongestionAlgo) -> f64 {
    let mut spec = ScenarioSpec::new(Workload::bulk_mb(20))
        .link_profile(LinkProfile::WanHighBdp)
        .congestion(algo)
        .with_sack();
    spec.tcp.recv_buf = 2 << 20;
    spec.tcp.send_buf = 4 << 20;
    spec.tcp.window_scale = Some(6); // 2 MB >> 6 fits the 16-bit field
    let mut s = build(&spec);
    let m = s.run(RunLimits::time(SimDuration::from_secs(300))).expect_completed();
    assert!(m.verified_clean());
    m.total_time().unwrap().as_secs_f64()
}

#[test]
fn cubic_and_bbr_beat_reno_on_wan_high_bdp() {
    let reno = wan_bulk_secs(CongestionAlgo::Reno);
    let cubic = wan_bulk_secs(CongestionAlgo::Cubic);
    let bbr = wan_bulk_secs(CongestionAlgo::Bbr);
    println!("wan_high_bdp 20 MB bulk: reno {reno:.2}s cubic {cubic:.2}s bbr {bbr:.2}s");
    assert!(
        cubic < reno,
        "CUBIC must beat Reno on a high-BDP path (cubic {cubic:.2}s vs reno {reno:.2}s)"
    );
    assert!(bbr < reno, "BBR must beat Reno on a high-BDP path (bbr {bbr:.2}s vs reno {reno:.2}s)");
}

/// Failover under loss on the `reordering` profile (its jitter plus
/// 1 % random loss, so the client holds SACKed islands past the holes
/// when the crash lands). Returns the crash→first-post-takeover-byte
/// latency and the total completion time.
fn takeover_under_loss(sack: bool) -> (u64, f64) {
    let mut spec = ScenarioSpec::new(Workload::bulk_mb(5))
        .st_tcp(SttcpConfig::new(addrs::VIP, 80))
        .faults(FaultSpec::crash_primary_at(SimTime::ZERO + SimDuration::from_millis(700)))
        .recording();
    spec.link = LinkProfile::Reordering.spec().with_loss(netsim::LossModel::Rate(0.01));
    if sack {
        spec = spec.with_sack();
    }
    spec.tcp.recv_buf = 1 << 20;
    spec.tcp.send_buf = 2 << 20;
    spec.tcp.window_scale = Some(5);
    let mut s = build(&spec);
    let m = s.run(RunLimits::time(SimDuration::from_secs(300))).expect_completed();
    assert!(m.verified_clean());
    let bd = s.takeover_breakdown().expect("recording on");
    let total = m.total_time().unwrap().as_secs_f64();
    (bd.first_byte_latency_ns().expect("first byte after takeover"), total)
}

#[test]
fn sack_keeps_first_byte_latency_under_reordering_loss() {
    let (gbn_fb, gbn_total) = takeover_under_loss(false);
    let (sack_fb, sack_total) = takeover_under_loss(true);
    println!(
        "reordering+loss failover: go-back-N first-byte {:.1}ms total {gbn_total:.2}s, \
         sack first-byte {:.1}ms total {sack_total:.2}s",
        gbn_fb as f64 / 1e6,
        sack_fb as f64 / 1e6,
    );
    // The first byte after takeover is the hole at snd_una in both
    // recovery styles, so it must not regress (small tolerance: the
    // wire histories differ slightly by then). Completion time is
    // printed, not asserted: which style finishes first depends on the
    // loss draws (SACK 59.55 s vs go-back-N 73.72 s here while every
    // link drew from one shared generator, 72.52 s vs 72.15 s since each
    // link direction has its own stream; 75.6 s vs 72.1 s in a ten-seed
    // mean), so an ordering at one seed says nothing.
    assert!(
        sack_fb <= gbn_fb + 5_000_000,
        "selective retransmit must not delay the first post-takeover byte \
         (sack {sack_fb}ns vs go-back-N {gbn_fb}ns)"
    );
}

/// The system says when it is woken for nothing, and it is not. A lossy
/// WAN transfer is where deadlines move most (every ACK pushes the RTO
/// out, every loss pulls a retransmit in). Each move used to leave a
/// wake behind: more than 80 % of this run's simulator events were stack
/// wakes that found nothing due before the one-live-wake rule, 11 % with
/// a timer wheel, 5–6 % with exact expiry. With one movable wake per node
/// and one entry per socket, a wake is a deadline that came due.
#[test]
fn no_stack_wake_is_idle_under_burst_loss() {
    let mut spec = ScenarioSpec::new(Workload::bulk_mb(5))
        .link_profile(LinkProfile::WanBurstLoss)
        .congestion(CongestionAlgo::Cubic)
        .with_sack()
        .st_tcp(SttcpConfig::new(addrs::VIP, 80).with_missed_hb_threshold(10))
        .recording();
    spec.tcp.recv_buf = 2 << 20;
    spec.tcp.send_buf = 4 << 20;
    spec.tcp.window_scale = Some(6);
    let mut s = build(&spec);
    let m = s.run(RunLimits::time(SimDuration::from_secs(600))).expect_completed();
    assert!(m.verified_clean());
    let snap = s.snapshot().expect("recording on");
    let (wakes, idle) = (snap.get("stack_wakes"), snap.get("stack_wakes_idle"));
    let events = s.sim.trace().events_processed;
    println!("wan_burst_loss 5 MB: {events} events, {wakes} stack wakes, {idle} idle");
    assert!(wakes > 0, "the transfer's deadlines wake its nodes");
    assert_eq!(idle, 0, "{idle} of {wakes} stack wakes found nothing due and nothing to send");
}

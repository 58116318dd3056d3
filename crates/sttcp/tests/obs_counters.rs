//! Invariants over the recorded observability counters: suppression
//! stops at takeover, retention stays within the §4.2 bound, and the
//! takeover breakdown is consistent with the failure-detector tuning.

use sttcp::prelude::*;
use sttcp::ServerNode;

fn secs(s: f64) -> SimDuration {
    SimDuration::from_secs_f64(s)
}

fn failover_spec() -> ScenarioSpec {
    ScenarioSpec::new(Workload::Echo { requests: 100 })
        .st_tcp(SttcpConfig::new(addrs::VIP, 80))
        .faults(FaultSpec::crash_primary_at(SimTime::ZERO + SimDuration::from_millis(400)))
        .recording()
}

#[test]
fn snapshot_absent_without_recording() {
    let spec =
        ScenarioSpec::new(Workload::Echo { requests: 3 }).st_tcp(SttcpConfig::new(addrs::VIP, 80));
    let mut s = build(&spec);
    assert!(s.obs.is_none());
    s.run(RunLimits::default()).expect_completed();
    assert!(s.snapshot().is_none());
    assert!(s.takeover_breakdown().is_none());
}

#[test]
fn failure_free_run_records_protocol_chatter() {
    let spec = ScenarioSpec::new(Workload::Echo { requests: 50 })
        .st_tcp(SttcpConfig::new(addrs::VIP, 80))
        .recording();
    let mut s = build(&spec);
    s.run(RunLimits::default()).expect_completed();
    let snap = s.snapshot().unwrap();
    assert!(snap.get("segs_suppressed") > 0, "the shadow suppresses every VIP egress");
    assert!(snap.get("heartbeats_sent") > 0);
    assert!(snap.get("heartbeats_received") > 0);
    assert!(snap.get("backup_acks_sent") > 0);
    assert!(snap.get("backup_acks_received") > 0);
    // No takeover: the failure-side marks must stay unset.
    assert_eq!(snap.mark(Mark::SuspectedPrimaryDead), None);
    assert_eq!(snap.mark(Mark::TakeoverUnsuppressed), None);
    assert!(s.takeover_breakdown().is_none());
}

#[test]
fn suppression_stops_growing_after_takeover() {
    let mut s = build(&failover_spec());
    // Drive until the backup has taken over (bounded: detection fires
    // ~200 ms after the 400 ms crash).
    for _ in 0..40 {
        if s.backup().map(|e| e.has_taken_over()).unwrap_or(false) {
            break;
        }
        s.sim.run_for(SimDuration::from_millis(50));
    }
    assert!(s.backup().unwrap().has_taken_over(), "takeover must happen within 2 s");
    let at_takeover = s.snapshot().unwrap().get("segs_suppressed");
    assert!(at_takeover > 0, "pre-takeover shadowing must have suppressed segments");
    let outcome = s.run(RunLimits::time(secs(60.0)));
    assert!(outcome.completed());
    s.sim.run_for(secs(2.0));
    let at_end = s.snapshot().unwrap().get("segs_suppressed");
    assert_eq!(
        at_end, at_takeover,
        "unsuppressing at takeover must stop the suppression counter cold"
    );
}

#[test]
fn retention_high_water_stays_within_bound() {
    // An upload pushes client→server data through the primary's
    // retention buffer (§4.2). Retained bytes past the second-buffer
    // capacity spill into the first buffer and eat the advertised
    // window, so the high-water mark is structurally capped at
    // retention + recv capacity — window exhaustion stops the sender.
    let spec = ScenarioSpec::new(Workload::upload_mb(2))
        .st_tcp(SttcpConfig::new(addrs::VIP, 80))
        .recording();
    let mut s = build(&spec);
    let outcome = s.run(RunLimits::time(secs(120.0)));
    assert!(outcome.completed());
    let tcp = &s.sim.node_ref::<ServerNode>(s.primary).stack().config().tcp;
    let bound = (tcp.retention_buf + tcp.recv_buf) as u64;
    let snap = s.snapshot().unwrap();
    let high_water = snap.get("retention_high_water");
    assert!(high_water > 0, "an upload must exercise primary retention");
    assert!(
        high_water <= bound,
        "retention high-water {high_water} exceeds the §4.2 bound {bound}"
    );
}

#[test]
fn takeover_breakdown_is_consistent_with_detector_tuning() {
    let cfg = SttcpConfig::new(addrs::VIP, 80);
    let hb_ns = cfg.hb_interval.as_nanos();
    let missed = u64::from(cfg.missed_hb_threshold);
    let mut s = build(&failover_spec());
    s.run(RunLimits::time(secs(60.0))).expect_completed();

    let breakdown = s.takeover_breakdown().expect("recorded failover produces a breakdown");
    // Marks are causally ordered: heard -> suspected -> unsuppressed.
    assert!(breakdown.last_primary_heard_ns <= breakdown.suspected_ns);
    assert!(breakdown.suspected_ns <= breakdown.unsuppressed_ns);
    // Detection is paced by heartbeats: silence past the threshold,
    // noticed at a sync tick — just past `missed × hb`, and within two
    // further intervals of slack.
    let detection = breakdown.detection_ns();
    assert!(
        detection > hb_ns * missed && detection <= hb_ns * (missed + 2),
        "detection {detection} ns inconsistent with hb {hb_ns} ns × threshold {missed}"
    );
    // Active takeover without fencing promotes instantly.
    assert_eq!(breakdown.promotion_ns(), 0);
    assert_eq!(breakdown.fenced_ns, None);
    // Service resumed: the backup sourced a data byte after takeover.
    assert!(breakdown.first_byte_latency_ns().is_some());
}

#[test]
fn fencing_mark_lands_between_suspicion_and_takeover() {
    let spec = ScenarioSpec::new(Workload::Echo { requests: 100 })
        .st_tcp(SttcpConfig::new(addrs::VIP, 80).with_fencing(0))
        .faults(FaultSpec::crash_primary_at(SimTime::ZERO + SimDuration::from_millis(400)))
        .recording();
    let mut s = build(&spec);
    s.run(RunLimits::time(secs(60.0))).expect_completed();
    let breakdown = s.takeover_breakdown().expect("breakdown");
    let fenced = breakdown.fenced_ns.expect("fencing must be recorded");
    assert!(breakdown.suspected_ns <= fenced);
    assert!(fenced <= breakdown.unsuppressed_ns);
}

#[test]
fn a_promoted_shadow_speaking_first_is_a_promotion_send_not_a_timeout() {
    // Eight bulk downloads, every one mid-transfer when the primary
    // dies on a loss-free LAN: each shadow holds bytes in flight, so the
    // promoted backup's speak-first fires one retransmission timer per
    // connection. Those are promotion sends; no timer fires for a loss.
    let clients = 8;
    let spec = sttcp::fleet::FleetSpec::new(clients)
        .workload(Workload::bulk_mb(1))
        .crash_primary_at(SimTime::ZERO + SimDuration::from_millis(300))
        .recording();
    let mut f = sttcp::fleet::build(&spec);
    assert!(f.run_until_done(secs(60.0)), "every download completes");
    assert!(f.verified_clean());
    let snap = f.obs.as_ref().expect("recording").snapshot();
    assert_eq!(snap.get("promotion_sends"), clients as u64);
    assert_eq!(snap.get("tcp_rto_fired"), 0);
    // The per-connection stats split the same way.
    let backup = f.sim.node_ref::<ServerNode>(f.backup);
    let stats: Vec<_> =
        backup.stack().socks().filter_map(|s| backup.stack().tcb(s)).map(|t| t.stats).collect();
    assert_eq!(stats.len(), clients);
    assert_eq!(stats.iter().map(|s| u64::from(s.promotion_sends)).sum::<u64>(), clients as u64);
    assert_eq!(stats.iter().map(|s| u64::from(s.rto_retransmits)).sum::<u64>(), 0);
}

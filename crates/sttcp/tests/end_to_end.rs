//! End-to-end scenario tests: full simulated topologies, complete
//! workload runs, crashes, omissions, fencing, and double failures.

use apps::Workload;
use netsim::{SimDuration, SimTime};
use sttcp::scenario::{addrs, build, FaultSpec, RunLimits, ScenarioSpec, Topology};
use sttcp::SttcpConfig;

fn st_cfg() -> SttcpConfig {
    SttcpConfig::new(addrs::VIP, 80)
}

fn secs(s: f64) -> SimDuration {
    SimDuration::from_secs_f64(s)
}

#[test]
fn standard_tcp_echo_baseline() {
    let mut s = build(&ScenarioSpec::new(Workload::Echo { requests: 100 }));
    let m = s.run(RunLimits::time(secs(30.0))).expect_completed();
    assert!(m.verified_clean());
    assert_eq!(m.latencies.len(), 100);
    let total = m.total_time().unwrap().as_secs_f64();
    // Paper Table 1: 0.892 s. One exchange ≈ RTT ≈ 10 ms.
    assert!((0.7..1.3).contains(&total), "echo total {total}s, expected ≈1 s");
}

#[test]
fn standard_tcp_interactive_baseline() {
    let mut s = build(&ScenarioSpec::new(Workload::interactive()));
    let m = s.run(RunLimits::time(secs(30.0))).expect_completed();
    assert!(m.verified_clean());
    let total = m.total_time().unwrap().as_secs_f64();
    // Paper Table 1: 2.000 s (20 ms/exchange). Our simulated exchange is
    // 1 RTT + 10 KB serialization ≈ 11 ms — physically consistent with
    // the echo RTT and the bulk line rate, which the paper's 20 ms is
    // not; see EXPERIMENTS.md for the discussion of this deviation.
    assert!((0.9..2.5).contains(&total), "interactive total {total}s, expected ≈1.1–2 s");
}

#[test]
fn standard_tcp_bulk_1mb_baseline() {
    let mut s = build(&ScenarioSpec::new(Workload::bulk_mb(1)));
    let m = s.run(RunLimits::time(secs(30.0))).expect_completed();
    assert!(m.verified_clean());
    let total = m.total_time().unwrap().as_secs_f64();
    // Paper Table 1: 0.640 s (window-limited at ≈1.6 MB/s).
    assert!((0.5..0.9).contains(&total), "bulk 1MB total {total}s, expected ≈0.64 s");
}

#[test]
fn st_tcp_failure_free_echo_matches_standard() {
    let mut std_run = build(&ScenarioSpec::new(Workload::Echo { requests: 100 }));
    let std_time =
        std_run.run(RunLimits::time(secs(30.0))).expect_completed().total_time().unwrap();
    let mut st_run = build(&ScenarioSpec::new(Workload::Echo { requests: 100 }).st_tcp(st_cfg()));
    let st_m = st_run.run(RunLimits::time(secs(30.0))).expect_completed();
    assert!(st_m.verified_clean());
    let st_time = st_m.total_time().unwrap();
    // Table 1's core claim: no measurable overhead.
    let ratio = st_time.as_secs_f64() / std_time.as_secs_f64();
    assert!((0.98..1.02).contains(&ratio), "ST-TCP overhead ratio {ratio}");
    // And the backup really was shadowing (sent acks, got heartbeats).
    let eng = st_run.backup().unwrap();
    assert!(eng.stats.acks_sent > 0);
    assert!(eng.stats.hbs_received > 0);
    assert!(!eng.has_taken_over());
}

#[test]
fn st_tcp_echo_failover_is_transparent_and_fast() {
    let crash = SimTime::ZERO + secs(0.45); // mid-run
    let spec = ScenarioSpec::new(Workload::Echo { requests: 100 })
        .st_tcp(st_cfg()) // 50 ms heartbeats
        .faults(FaultSpec::crash_primary_at(crash));
    let mut s = build(&spec);
    let m = s.run(RunLimits::time(secs(60.0))).expect_completed();
    assert!(m.verified_clean(), "bytes must survive the failover intact");
    assert_eq!(m.latencies.len(), 100);
    let eng = s.backup().unwrap();
    assert!(eng.has_taken_over());
    let takeover = eng.takeover_at().unwrap();
    let detection = takeover.duration_since(crash);
    // 3..4 heartbeat intervals of 50 ms, plus one tick of slack.
    assert!((0.15..0.30).contains(&detection.as_secs_f64()), "detection took {detection}");
    // Paper Table 2 (50 ms HB): failover ≈ 0.219 s; total ≈ 1.1 s.
    let total = m.total_time().unwrap().as_secs_f64();
    assert!((0.9..2.5).contains(&total), "echo with failover total {total}s");
}

#[test]
fn st_tcp_bulk_failover_mid_transfer() {
    let crash = SimTime::ZERO + secs(0.3);
    let spec = ScenarioSpec::new(Workload::bulk_mb(1))
        .st_tcp(st_cfg())
        .faults(FaultSpec::crash_primary_at(crash));
    let mut s = build(&spec);
    let m = s.run(RunLimits::time(secs(60.0))).expect_completed();
    assert!(m.verified_clean(), "1 MB stream must be exactly-once across the crash");
    assert_eq!(m.bytes_received, 1 << 20);
    assert!(s.backup().unwrap().has_taken_over());
}

#[test]
fn st_tcp_interactive_failover() {
    let crash = SimTime::ZERO + secs(1.0);
    let spec = ScenarioSpec::new(Workload::interactive())
        .st_tcp(st_cfg())
        .faults(FaultSpec::crash_primary_at(crash));
    let mut s = build(&spec);
    let m = s.run(RunLimits::time(secs(60.0))).expect_completed();
    assert!(m.verified_clean());
    assert_eq!(m.bytes_received, 100 * 10 * 1024);
}

#[test]
fn switch_multicast_tapping_works() {
    let crash = SimTime::ZERO + secs(0.45);
    let spec = ScenarioSpec::new(Workload::Echo { requests: 100 })
        .topology(Topology::SwitchMulticast)
        .st_tcp(st_cfg())
        .faults(FaultSpec::crash_primary_at(crash));
    let mut s = build(&spec);
    let m = s.run(RunLimits::time(secs(60.0))).expect_completed();
    assert!(m.verified_clean());
    assert!(s.backup().unwrap().has_taken_over());
}

#[test]
fn shared_medium_hub_paper_testbed() {
    // The paper's actual device: a shared-medium hub. Tapping is free
    // (every station hears every frame) and failover works identically;
    // throughput is merely lower than on the idealized fabric.
    let crash = SimTime::ZERO + secs(0.45);
    let spec = ScenarioSpec::new(Workload::Echo { requests: 100 })
        .topology(Topology::SharedMediumHub { medium_bps: 100_000_000 })
        .st_tcp(st_cfg())
        .faults(FaultSpec::crash_primary_at(crash));
    let mut s = build(&spec);
    let m = s.run(RunLimits::time(secs(60.0))).expect_completed();
    assert!(m.verified_clean());
    assert!(s.backup().unwrap().has_taken_over());
}

#[test]
fn switch_mirror_tapping_works() {
    let spec = ScenarioSpec::new(Workload::Echo { requests: 50 })
        .topology(Topology::SwitchMirror)
        .st_tcp(st_cfg());
    let mut s = build(&spec);
    let m = s.run(RunLimits::time(secs(60.0))).expect_completed();
    assert!(m.verified_clean());
    // Backup shadowed through the mirror.
    let eng = s.backup().unwrap();
    assert!(eng.stats.acks_sent > 0);
}

#[test]
fn gateway_topology_full_architecture() {
    let spec = ScenarioSpec::new(Workload::Echo { requests: 50 })
        .topology(Topology::GatewaySwitch)
        .st_tcp(st_cfg());
    let mut s = build(&spec);
    let m = s.run(RunLimits::time(secs(60.0))).expect_completed();
    assert!(m.verified_clean());
    assert!(s.backup().unwrap().stats.acks_sent > 0);
}

#[test]
fn backup_crash_drops_to_non_fault_tolerant_mode() {
    let spec = ScenarioSpec::new(Workload::Echo { requests: 100 }).st_tcp(st_cfg());
    let mut s = build(&spec);
    let backup = s.backup.unwrap();
    s.sim.schedule_crash(backup, SimTime::ZERO + secs(0.3));
    let m = s.run(RunLimits::time(secs(30.0))).expect_completed();
    assert!(m.verified_clean(), "service continues when the backup dies");
    let eng = s.primary().unwrap();
    assert!(!eng.backup_alive(), "primary must notice the backup's death");
    assert!(eng.backup_dead_at().is_some());
}

fn any_tcp_frame(frame: &bytes::Bytes) -> bool {
    use wire::{EtherType, EthernetFrame, IpProtocol, Ipv4Packet};
    (|| {
        let eth = EthernetFrame::parse(frame.clone()).ok()?;
        if eth.ethertype != EtherType::Ipv4 {
            return None;
        }
        let ip = Ipv4Packet::parse(eth.payload).ok()?;
        Some(ip.protocol == IpProtocol::Tcp)
    })()
    .unwrap_or(false)
}

#[test]
fn tap_omission_recovered_over_side_channel() {
    use netsim::DropRule;
    let spec = ScenarioSpec::new(Workload::Echo { requests: 100 }).st_tcp(st_cfg());
    let mut s = build(&spec);
    let backup = s.backup.unwrap();
    // Drop 30 random-ish % of TCP frames on their way INTO the backup
    // only (the paper's IP-buffer-overflow scenario, §4.2). The UDP
    // side channel is the recovery path and heartbeat carrier; losing
    // it is a different fault class (see side_channel_loss test below).
    s.sim.add_ingress_drop(backup, DropRule::rate(0.3, any_tcp_frame));
    let m = s.run(RunLimits::time(secs(30.0))).expect_completed();
    assert!(m.verified_clean());
    // The backup must have requested and recovered missing bytes.
    let eng = s.backup().unwrap();
    assert!(eng.stats.missing_reqs > 0, "tap loss must trigger missing-segment requests");
    assert!(eng.stats.missing_bytes_recovered > 0);
    assert!(!eng.has_taken_over(), "omissions alone must not trigger a takeover");
}

#[test]
fn side_channel_loss_causes_false_takeover() {
    // Heartbeat loss is NOT the §4.2 omission class: sustained loss of
    // the primary's heartbeats makes the backup wrongly suspect a live
    // primary — the exact wrong-suspicion scenario §4.4's fencing
    // exists for. This test documents the hazard: with all UDP into
    // the backup dropped, takeover fires though the primary is fine.
    use netsim::DropRule;
    use wire::{EtherType, EthernetFrame, IpProtocol, Ipv4Packet};
    let spec = ScenarioSpec::new(Workload::Echo { requests: 100 }).st_tcp(st_cfg());
    let mut s = build(&spec);
    let backup = s.backup.unwrap();
    s.sim.add_ingress_drop(
        backup,
        DropRule::all(|frame: &bytes::Bytes| {
            (|| {
                let eth = EthernetFrame::parse(frame.clone()).ok()?;
                if eth.ethertype != EtherType::Ipv4 {
                    return None;
                }
                let ip = Ipv4Packet::parse(eth.payload).ok()?;
                Some(ip.protocol == IpProtocol::Udp)
            })()
            .unwrap_or(false)
        }),
    );
    let m = s.run(RunLimits::time(secs(30.0))).expect_completed();
    // The client still completes: the shadow is complete (TCP tap was
    // clean), so the falsely-promoted backup serves the same bytes the
    // primary does. Both transmit as the VIP — split brain — which only
    // fencing can rule out for non-deterministic real servers.
    assert!(m.verified_clean());
    assert!(
        s.backup().unwrap().has_taken_over(),
        "sustained heartbeat loss must trigger a (wrong) takeover"
    );
    assert!(s.sim.is_alive(s.primary), "the primary was never actually down");
}

#[test]
fn tap_omission_then_crash_still_transparent() {
    // Omission + (later) crash: the side channel healed the gap before
    // the crash, so takeover still works without a logger.
    use netsim::DropRule;
    let crash = SimTime::ZERO + secs(0.6);
    let spec = ScenarioSpec::new(Workload::Echo { requests: 100 })
        .st_tcp(st_cfg())
        .faults(FaultSpec::crash_primary_at(crash));
    let mut s = build(&spec);
    let backup = s.backup.unwrap();
    s.sim.add_ingress_drop(backup, DropRule::window(40, 2, |_| true));
    let m = s.run(RunLimits::time(secs(60.0))).expect_completed();
    assert!(m.verified_clean());
    assert!(s.backup().unwrap().has_taken_over());
}

#[test]
fn power_switch_fencing_kills_primary_before_takeover() {
    let spec = ScenarioSpec::new(Workload::Echo { requests: 100 })
        .st_tcp(st_cfg().with_fencing(0))
        .faults(FaultSpec::crash_primary_at(SimTime::ZERO + secs(0.45)));
    let mut s = build(&spec);
    let m = s.run(RunLimits::time(secs(60.0))).expect_completed();
    assert!(m.verified_clean());
    let psw = s.power.unwrap();
    assert_eq!(s.sim.node_ref::<netsim::PowerSwitch>(psw).offs, 1, "backup fenced the primary");
    assert!(!s.sim.is_alive(s.primary));
}

#[test]
fn determinism_identical_runs_produce_identical_timings() {
    let run = || {
        let spec = ScenarioSpec::new(Workload::Echo { requests: 100 })
            .st_tcp(st_cfg())
            .faults(FaultSpec::crash_primary_at(SimTime::ZERO + secs(0.45)));
        let mut s = build(&spec);
        let m = s.run(RunLimits::time(secs(60.0))).expect_completed();
        (m.total_time().unwrap(), m.latencies.clone())
    };
    assert_eq!(run(), run(), "simulation must be bit-reproducible");
}

//! What happens when the crashed primary comes back?
//!
//! The paper keeps it simple: the power switch turns the primary off and
//! nobody turns it back on mid-service. These tests document why that
//! discipline matters — a rebooted ex-primary has lost all TCP state
//! (reboot amnesia is modelled by `ServerNode`), still owns the VIP by
//! configuration, and will RST the very connections that migrated to
//! the backup.

use st_tcp::apps::Workload;
use st_tcp::netsim::{SimDuration, SimTime};
use st_tcp::sttcp::scenario::{addrs, build, FaultSpec, RunLimits, ScenarioSpec};
use st_tcp::sttcp::{ClientNode, ServerNode, SttcpConfig};

fn secs(s: f64) -> SimDuration {
    SimDuration::from_secs_f64(s)
}

#[test]
fn reboot_resets_all_server_state() {
    let spec = ScenarioSpec::new(Workload::Echo { requests: 100 })
        .st_tcp(SttcpConfig::new(addrs::VIP, 80));
    let mut s = build(&spec);
    s.sim.run_for(secs(0.3));
    assert_eq!(s.sim.node_ref::<ServerNode>(s.primary).accepted.len(), 1);
    // Power-cycle the primary.
    s.sim.schedule_crash(s.primary, s.sim.now());
    s.sim.schedule_power_on(s.primary, s.sim.now() + secs(0.05));
    s.sim.run_for(secs(0.2));
    let p = s.sim.node_ref::<ServerNode>(s.primary);
    assert_eq!(p.boot_count, 2, "the node must have rebooted");
    assert_eq!(p.accepted.len(), 0, "reboot amnesia: all connections forgotten");
    assert_eq!(p.stack().socks().count(), 0);
}

#[test]
fn rebooted_ex_primary_resets_migrated_connections() {
    // Crash → takeover → the backup serves. Then someone powers the old
    // primary back on. It answers for the VIP again with no TCBs and
    // RSTs the client — the failure mode the power-switch discipline
    // (leave it off!) exists to prevent.
    let crash = SimTime::ZERO + secs(0.3);
    let spec = ScenarioSpec::new(Workload::Echo { requests: 100 })
        .st_tcp(SttcpConfig::new(addrs::VIP, 80))
        .faults(FaultSpec::crash_primary_at(crash));
    let mut s = build(&spec);
    // Let the takeover complete and service resume...
    s.sim.run_for(secs(0.7));
    assert!(s.backup().unwrap().has_taken_over());
    let bytes_mid = s.client().unwrap().metrics.bytes_received;
    assert!(bytes_mid > 0);
    // ...then bring the old primary back.
    s.sim.schedule_power_on(s.primary, s.sim.now());
    let deadline = SimTime::ZERO + secs(20.0);
    while s.sim.now() < deadline && !s.client().unwrap().is_done() {
        s.sim.run_for(secs(0.05));
    }
    // The amnesiac primary RSTs the client's established connection the
    // moment one of its segments reaches it.
    assert!(
        !s.client().unwrap().is_done(),
        "the returning amnesiac primary must break the service"
    );
    let c = s.sim.node_ref::<ClientNode>(s.client);
    let state = c.sock().and_then(|sk| c.stack().state(sk));
    assert_eq!(
        state,
        Some(st_tcp::tcpstack::TcpState::Closed),
        "client connection must have been reset"
    );
    assert!(
        s.sim.node_ref::<ServerNode>(s.primary).stack().stats.rsts_sent > 0,
        "the reset came from the rebooted primary"
    );
}

#[test]
fn with_fencing_discipline_the_primary_stays_down_and_service_survives() {
    // The counterpart: same crash, nobody powers the primary back on
    // (the paper's §4.4 discipline). The run completes.
    let crash = SimTime::ZERO + secs(0.3);
    let spec = ScenarioSpec::new(Workload::Echo { requests: 100 })
        .st_tcp(SttcpConfig::new(addrs::VIP, 80).with_fencing(0))
        .faults(FaultSpec::crash_primary_at(crash));
    let mut s = build(&spec);
    let m = s.run(RunLimits::time(secs(30.0))).expect_completed();
    assert!(m.verified_clean());
    assert!(!s.sim.is_alive(s.primary), "fenced and left off");
}

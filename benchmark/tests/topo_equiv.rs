//! The benchmark's timed topology must be the library's topology: same
//! events, same frames, same goodput — or the traced run measures a
//! different program.

use apps::Workload;
use netsim::{SimDuration, SimTime};
use sttcp::fleet::FleetSpec;
use sttcp::scenario::{addrs, ScenarioSpec, Topology};
use sttcp::SttcpConfig;
use sttcp_perf::rig::{Outcome, Rig};
use sttcp_perf::topo::{build_timed, Actor, Callback, SpanBuf};
use sttcp_perf::workloads::Spec;

fn both_ways(spec: &Spec) -> (Outcome, Outcome, SpanBuf) {
    let library = Rig::build(spec).run();
    let sink = SpanBuf::sink(0);
    let mut rig = build_timed(spec, false, &sink);
    let timed = rig.run();
    drop(rig);
    let buf = SpanBuf::collect(sink);
    (library, timed, buf)
}

#[test]
fn timed_fleet_replays_fleet_build() {
    let spec = Spec::Fleet(FleetSpec::new(100));
    let (library, timed, buf) = both_ways(&spec);
    assert_eq!(library.failures, Vec::<String>::new());
    assert_eq!(timed, library, "events, frames, goodput, completion: all of it");
    assert_eq!(library.conns_ok, 100);

    // One span per dispatched callback: every delivered frame is one.
    let agg = buf.aggregates();
    let on_frame: u64 =
        Actor::ALL.iter().map(|&a| agg[a as usize][Callback::Frame as usize].count).sum();
    assert_eq!(on_frame, library.frames);
    assert!(buf.spans.len() as u64 <= library.events);
    assert!(buf.spans.windows(2).all(|w| w[0].end_ns() <= w[1].start_ns), "spans never overlap");
    assert_eq!(agg[Actor::Solo as usize][Callback::Frame as usize].count, 0);
}

#[test]
fn timed_fleet_replays_a_crash_too() {
    let crash = SimTime::ZERO + SimDuration::from_millis(150);
    let spec = Spec::Fleet(FleetSpec::new(60).crash_primary_at(crash));
    let (library, timed, _) = both_ways(&spec);
    assert_eq!(timed, library);
    assert!(library.takeover_at.is_some());
}

#[test]
fn timed_scenario_replays_scenario_build() {
    let st_tcp = SttcpConfig::new(addrs::VIP, 80);
    for spec in [
        ScenarioSpec::new(Workload::bulk_mb(1)).topology(Topology::SwitchMirror),
        ScenarioSpec::new(Workload::bulk_mb(1))
            .topology(Topology::SwitchMirror)
            .st_tcp(st_tcp.clone()),
        ScenarioSpec::new(Workload::upload_mb(1)).topology(Topology::SwitchMirror).st_tcp(st_tcp),
    ] {
        let has_backup = matches!(spec.deployment, sttcp::scenario::Deployment::StTcp(_));
        let (library, timed, buf) = both_ways(&Spec::Scenario(spec));
        assert_eq!(library.failures, Vec::<String>::new());
        assert_eq!(timed, library);
        let agg = buf.aggregates();
        let frames_to = |a: Actor| agg[a as usize][Callback::Frame as usize].count;
        // sttcp spans exist exactly where a backup exists.
        assert_eq!(frames_to(Actor::Backup) > 0, has_backup);
        assert_eq!(frames_to(Actor::Primary) > 0, has_backup);
        assert_eq!(frames_to(Actor::Solo) > 0, !has_backup);
    }
}

#[test]
fn the_standard_tcp_twin_serves_the_same_bytes_without_a_backup() {
    let spec = Spec::Fleet(FleetSpec::new(40));
    let sink = SpanBuf::sink(0);
    let mut rig = build_timed(&spec, true, &sink);
    let solo = rig.run();
    assert_eq!(solo.failures, Vec::<String>::new());
    assert!(rig.backup.is_none());
    let paired = Rig::build(&spec).run();
    assert_eq!(solo.payload_bytes, paired.payload_bytes);
    assert!(solo.frames < paired.frames, "no mirror copies, no side channel");
}

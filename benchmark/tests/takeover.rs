//! Takeover extraction on a small crash fleet.

use netsim::{SimDuration, SimTime};
use sttcp::fleet::FleetSpec;
use sttcp_perf::probe;
use sttcp_perf::rig::Rig;
use sttcp_perf::workloads::Spec;

#[test]
fn every_connection_open_at_the_crash_gets_exactly_one_sample() {
    let crash = SimTime::ZERO + SimDuration::from_millis(150);
    let fleet = FleetSpec::new(50).crash_primary_at(crash);
    let spec = Spec::Fleet(fleet.clone());
    let mut rig = Rig::build(&spec);
    let counts = probe::install(&mut rig, &spec);
    let outcome = rig.run();
    assert_eq!(outcome.failures, Vec::<String>::new());
    assert_eq!(outcome.takeover_gate(&spec), None);
    let takeover = outcome.takeover_at.expect("the backup took over");
    assert!(takeover > crash);

    let (samples, missing) = probe::takeover_samples(&counts.borrow(), &rig, crash, takeover);
    assert_eq!(missing, 0, "an open connection never heard from the backup");

    // The same set, worked out from the plan and the client metrics alone.
    let open = (0..fleet.clients)
        .filter(|&i| {
            let connected = SimTime::ZERO + fleet.client_plan(i).connect_at <= crash;
            let finished = rig.client_app(i).metrics.finished.expect("every client finished");
            connected && finished > takeover
        })
        .count();
    assert!(open >= 10, "the fleet should straddle the crash, {open} connections did");
    assert_eq!(samples.len(), open, "one sample per open connection, no more, no fewer");

    // Nothing leaves the backup for a client before it has taken over.
    let detection_ms = takeover.duration_since(crash).as_nanos() as f64 / 1e6;
    assert!(samples.iter().all(|&ms| ms >= detection_ms), "{samples:?} vs {detection_ms}");
}

#[test]
fn a_fault_free_run_has_no_samples_and_no_takeover() {
    let spec = Spec::Fleet(FleetSpec::new(20));
    let mut rig = Rig::build(&spec);
    let counts = probe::install(&mut rig, &spec);
    let outcome = rig.run();
    assert_eq!(outcome.failures, Vec::<String>::new());
    assert_eq!(outcome.takeover_at, None);
    let counts = counts.borrow();
    assert!(counts.side_msgs > 0 && counts.side_bytes > 0, "heartbeats and backup acks flow");
    assert!(counts.client_link_bytes > outcome.payload_bytes, "headers ride on top of payload");
    assert!(counts.host_frames as usize >= counts.tape.len() && !counts.tape.is_empty());
}

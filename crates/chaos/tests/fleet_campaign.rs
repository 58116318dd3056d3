//! Chaos campaigns over the fleet-scale workload generator.
//!
//! The single-connection campaigns in `engine.rs` stress the protocol
//! state machine; these sweep the *connection-scale* hot path instead —
//! slab socket tables, hash demux, the timer queue, and the backup's
//! O(active) bookkeeping — by crossing RNG seeds with crash times over
//! mixed-workload fleets. Every run must finish with every client's
//! byte stream intact, crash or no crash, and crashed runs must hand
//! over to the backup. Kept small for debug mode; `conn_scale_*` in the
//! bench crate covers the large populations in release mode.

use netsim::{SimDuration, SimTime};
use sttcp::fleet::{self, FleetSpec};
use sttcp::node::ServerNode;

const CLIENTS: usize = 40;

fn run_fleet(seed: u64, crash_at_ms: Option<u64>) {
    let mut spec = FleetSpec::new(CLIENTS).seed(seed).connect_spread(SimDuration::from_millis(60));
    if let Some(ms) = crash_at_ms {
        spec = spec.crash_primary_at(SimTime::ZERO + SimDuration::from_millis(ms));
    }
    let mut f = fleet::build(&spec);
    assert!(
        f.run_until_done(SimDuration::from_secs(120)),
        "seed {seed} crash {crash_at_ms:?}: fleet stalled at {}/{CLIENTS} done",
        f.done_count()
    );
    assert!(
        f.verified_clean(),
        "seed {seed} crash {crash_at_ms:?}: byte-stream verification failed"
    );
    if crash_at_ms.is_some() {
        // A late crash may land after the last client finished; give the
        // backup its heartbeat-silence window so detection completes.
        f.sim.run_for(SimDuration::from_secs(1));
        let b = f.sim.node_ref::<ServerNode>(f.backup);
        assert!(
            b.backup_engine().unwrap().has_taken_over(),
            "seed {seed} crash {crash_at_ms:?}: backup never took over"
        );
    }
}

#[test]
fn fleet_campaign_seeds_by_crash_times() {
    // Crash times chosen to land in distinct phases of a 60 ms connect
    // spread: mid-stagger (half the fleet still handshaking), just past
    // the stagger, and deep into steady state.
    let seeds = [0xF1EE7u64, 0xC0FFEE, 0xDEAD_BEEF];
    let crashes = [Some(30u64), Some(70), Some(250)];
    for &seed in &seeds {
        for &crash in &crashes {
            run_fleet(seed, crash);
        }
    }
}

#[test]
fn fleet_campaign_fault_free_seeds() {
    for &seed in &[0xF1EE7u64, 0xC0FFEE, 0xDEAD_BEEF] {
        run_fleet(seed, None);
    }
}

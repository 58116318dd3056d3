//! No takeover without a fault, under load.
//!
//! The fault-free twin of the benchmark's `fleet_failover` — 3 000
//! clients opening within 200 ms, nobody crashing — used to depose its
//! live primary (63 of 64 seeds): the backup's switch port carried both
//! directions of every mirrored conversation, fell behind, and the
//! heartbeats queued behind the data read as silence. The mirror now
//! copies only what the switch sends to the primary's port, so the
//! backup's port carries the client's half and the side channel.

use netsim::SimDuration;
use sttcp::fleet::{self, FleetSpec};
use sttcp::node::ServerNode;

#[test]
fn a_loaded_fault_free_fleet_deposes_nobody_and_shadows_every_connection() {
    let spec = FleetSpec::new(3_000).seed(1);
    let mut f = fleet::build(&spec);
    assert!(f.run_until_done(SimDuration::from_secs(30)), "every client finishes");
    assert!(f.verified_clean());
    for rank in 1..f.servers.len() {
        let engine = f.engine(rank);
        assert_eq!(
            engine.takeover_at(),
            None,
            "rank {rank} suspected at {:?}",
            engine.suspected_at()
        );
    }
    // Every connection the primary holds has its shadow by now.
    let primary = f.sim.node_ref::<ServerNode>(f.primary).stack();
    let backup = f.sim.node_ref::<ServerNode>(f.backup).stack();
    let quads: Vec<_> = primary.socks().filter_map(|s| primary.tcb(s)).map(|t| t.quad()).collect();
    assert_eq!(quads.len(), 3_000);
    let missing = quads.iter().filter(|&&q| backup.sock_by_quad(q).is_none()).count();
    assert_eq!(missing, 0, "connections without a shadow when the last client is done");
}

//! Planned migration: drain a *healthy* primary and hand the VIP to
//! its rank-1 backup with no crash, no detection window, and no
//! client-visible corruption.
//!
//! Once the drain is due, the primary waits for a heartbeat that owes
//! the successor no frontier entry: the successor's own acks say it
//! holds every byte it had a tick to ack. The primary then fences
//! itself and sends `Handover`, the one message of the migration, and
//! the successor unsuppresses the VIP at once — the client-visible
//! pause is bounded by the in-flight round trip, not by the heartbeat
//! failure detector.
//!
//! Run with: `cargo run --release --example planned_migration`

use st_tcp::netsim::Switch;
use st_tcp::obs::TakeoverBreakdown;
use st_tcp::sttcp::cluster::DrainPhase;
use st_tcp::sttcp::fleet::{self, FleetSpec};
use st_tcp::sttcp::prelude::*;
use st_tcp::sttcp::ClusterRole;

fn main() {
    let migrate_at = SimTime::ZERO + SimDuration::from_millis(100);
    let spec = FleetSpec::new(12).backups(2).closing().migrate_at(migrate_at, 1).recording();
    let hb = spec.st_tcp.hb_interval;
    let mut fleet = fleet::build(&spec);

    println!("12 clients, primary + 2 backups; drain-and-handover to rank 1 at t=100 ms\n");
    assert!(fleet.run_until_done(SimDuration::from_secs(30)), "fleet must finish");
    assert!(fleet.verified_clean(), "zero client-visible stream corruption");
    let (got, want) = fleet.progress();
    assert_eq!(got, want, "every expected response byte arrived");

    // The old primary handed over and retired; the successor reigns
    // under the planned epoch.
    assert_eq!(fleet.engine(0).drain_phase(), DrainPhase::HandedOver);
    assert_eq!(fleet.engine(0).role(), ClusterRole::Retired);
    assert_eq!(fleet.engine(0).stats.migrations, 1);
    assert!(fleet.engine(1).has_taken_over(), "rank 1 owns the VIP");
    assert_eq!(fleet.engine(1).topology().epoch(), 1);
    assert_eq!(fleet.engine(2).role(), ClusterRole::Backup, "rank 2 keeps shadowing");

    println!(
        "handover complete: {} clients, {}/{} bytes verified clean",
        fleet.clients.len(),
        got,
        want
    );
    let trace = fleet.sim.trace();
    println!(
        "network: {} switch floods; {} frames delivered to a node, {} more dropped by the \
         filter of a NIC they were not for",
        fleet.sim.node_ref::<Switch>(fleet.fabric).floods,
        trace.frames_delivered,
        trace.frames_filtered_nic,
    );
    println!(
        "old primary: {:?}/{:?}; successor unsuppressed at {:.3} s\n",
        fleet.engine(0).role(),
        fleet.engine(0).drain_phase(),
        fleet.engine(1).takeover_at().unwrap().as_secs_f64(),
    );

    // The breakdown reads the same marks as the crash case, but the
    // "suspicion" instant is the Handover receipt — so the detection
    // phase collapses to zero and the whole pause is the promotion +
    // first-byte tail.
    let snap = fleet.obs.as_ref().expect("recording fleet").snapshot();
    let breakdown = TakeoverBreakdown::from_snapshot(&snap).expect("handover recorded");
    println!("{}", breakdown.render());

    let first_byte_ns = breakdown.first_byte_latency_ns().expect("post-handover data flowed");
    assert!(
        first_byte_ns < hb.as_nanos(),
        "planned migration must restart service within one heartbeat interval \
         ({:.3} ms >= {:.0} ms)",
        first_byte_ns as f64 / 1e6,
        hb.as_millis()
    );
    println!(
        "first byte after handover: {:.3} ms < one {:.0} ms heartbeat interval — \
         no detection window was paid",
        first_byte_ns as f64 / 1e6,
        hb.as_millis()
    );
}

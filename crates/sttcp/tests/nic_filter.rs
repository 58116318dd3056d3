//! The NIC unicast filter, end to end: a fleet's hosts see exactly the
//! frames addressed to them.
//!
//! Fleet clients hold a static ARP entry for the VIP, so every SYN sent
//! before the primary has transmitted its first frame is addressed to a
//! MAC the switch has not learned, and is flooded to every port. Each
//! of those copies is a transmission toward a client that is not its
//! addressee; the client's NIC refuses it — as it goes on the wire, so
//! it is not even an event — and the host — node, stack, pump — never
//! runs.

use netsim::{DetHashMap, NodeId, SimDuration, SimTime, Switch};
use std::cell::RefCell;
use std::rc::Rc;
use sttcp::fleet::{self, FleetSpec};
use sttcp::node::{ClientNode, ServerNode};
use tcpstack::StackConfig;
use wire::MacAddr;

/// Whether a host configured with `cfg` is an addressee of `dst`.
fn addressed_to(cfg: &StackConfig, dst: MacAddr) -> bool {
    dst.is_multicast() || cfg.nic_macs().is_none_or(|(own, also)| dst == own || also.contains(&dst))
}

#[test]
fn a_fleets_hosts_see_exactly_the_frames_addressed_to_them() {
    let spec = FleetSpec::new(500)
        .connect_spread(SimDuration::from_millis(100))
        .crash_primary_at(SimTime::ZERO + SimDuration::from_millis(150));
    let mut f = fleet::build(&spec);
    let mut hosts: DetHashMap<NodeId, StackConfig> = DetHashMap::default();
    for &c in &f.clients {
        hosts.insert(c, f.sim.node_ref::<ClientNode>(c).stack().config().clone());
    }
    for &s in &f.servers {
        hosts.insert(s, f.sim.node_ref::<ServerNode>(s).stack().config().clone());
    }
    // Transmissions towards a host that is not their addressee, and the
    // departure time of the last one.
    let foreign = Rc::new(RefCell::new((0u64, SimTime::ZERO)));
    let sink = Rc::clone(&foreign);
    f.sim.set_probe(move |ev| {
        let dst = MacAddr(ev.frame[..6].try_into().expect("an Ethernet frame"));
        if hosts.get(&ev.to).is_some_and(|cfg| !addressed_to(cfg, dst)) {
            let mut seen = sink.borrow_mut();
            *seen = (seen.0 + 1, ev.time);
        }
    });
    assert!(f.run_until_done(SimDuration::from_secs(120)), "fleet must finish");
    assert!(f.verified_clean(), "all 500 client streams must verify clean");

    let (foreign, last) = *foreign.borrow();
    let trace = f.sim.trace();
    assert!(foreign > 1_000, "the cold switch floods the first SYNs: {foreign} copies");
    assert!(last + SimDuration::from_millis(100) < f.sim.now(), "none is still in flight");
    assert_eq!(trace.frames_filtered_nic, foreign, "each was dropped by a NIC, and nothing else");

    // What the NICs passed is what the nodes processed: every host's
    // stack, plus the switch (which handles each frame it is given).
    let mut processed = 0;
    for &c in &f.clients {
        let stats = f.sim.node_ref::<ClientNode>(c).stack().stats;
        assert_eq!(stats.frames_filtered, 0, "a client's stack saw a frame for another station");
        processed += stats.frames_in;
    }
    for &s in &f.servers {
        let stats = f.sim.node_ref::<ServerNode>(s).stack().stats;
        assert_eq!(stats.frames_filtered, 0);
        processed += stats.frames_in;
    }
    let sw = f.sim.node_ref::<Switch>(f.fabric);
    processed += sw.floods + sw.unicast_forwards + sw.local;
    assert_eq!(trace.frames_delivered, processed);
    // A flooded SYN reaches its addressee, the mirror tap, and the 499
    // clients that did not send it.
    assert_eq!(foreign % 499, 0);
    assert!(foreign / 499 <= sw.floods, "{} floods made {foreign} copies", sw.floods);
}

/// The crash herd (`simperf`'s `conn_herd_3k`, the benchmark's
/// `fleet_failover` at the library seed): 3 000 clients connect over
/// 200 ms and the primary dies at 150 ms. More than half of what its
/// links carry is flood copies for other stations, and none of them
/// costs an event: a NIC's verdict on a frame it will refuse is taken
/// when the frame goes on the wire (DESIGN.md §8 "When it runs"). The
/// three counts are exact; only their sum with `events_processed` was
/// what the run took before that. The last two fell (from 117 122 and
/// 387 272) when the promoted backup stopped acking and heartbeating
/// the dead primary; the flood copies, all sent before the crash, held.
/// The sum fell again (373 126 → 351 606) when a moved deadline stopped
/// waking its node at the old instant, and the last two fell together
/// (110 257 → 101 437, 351 606 → 334 936) when the backup began to ack
/// several connections in one datagram, and again (→ 101 429,
/// → 334 924) when the backup stopped sending a heartbeat beside its
/// acks. The last two rose (→ 103 867, → 343 610) when the mirror began
/// to copy only the client's half: each answered SYN is a side-channel
/// datagram, two hops, where its SYN/ACK was one mirror copy, and the
/// promoted backup speaks first; the flood copies held. They fell
/// (→ 98 092, → 335 578) when the SYN entries went: every server
/// derives a passive open's ISS from the SYN, and the frontier rides
/// the heartbeat; the flood copies held. They rose (→ 98 154,
/// → 335 712) when a frontier entry came to be owed a tick later: 24
/// overflow heartbeats fewer, and the clients' timers fired 164 times
/// in the detection window instead of 155; the flood copies held.
#[test]
fn the_crash_herds_flood_copies_are_counted_and_never_events() {
    let spec =
        FleetSpec::new(3_000).crash_primary_at(SimTime::ZERO + SimDuration::from_millis(150));
    let mut f = fleet::build(&spec);
    assert!(f.run_until_done(SimDuration::from_secs(120)), "fleet must finish");
    assert!(f.verified_clean(), "all 3 000 client streams must verify clean");
    let t = f.sim.trace();
    assert_eq!(t.frames_filtered_nic, 203_932);
    assert_eq!(t.frames_delivered, 98_154);
    assert_eq!(t.events_processed + t.frames_filtered_nic, 335_712);
}

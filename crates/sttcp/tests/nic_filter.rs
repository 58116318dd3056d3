//! The NIC unicast filter, end to end: a fleet's hosts see exactly the
//! frames addressed to them.
//!
//! Fleet clients hold a static ARP entry for the VIP, and the servers a
//! full mesh of them, so `fleet::build` starts the switch with every
//! server's port learned. No frame is flooded for want of a learned
//! destination, and no host is sent a frame that is not its own. Until
//! then every SYN sent before the primary's first transmission was
//! flooded to every port, and each client's NIC refused the copies
//! meant for others. The filter still has work on a hub, which repeats
//! every frame by design: a refused frame is not even an event, and the
//! host — node, stack, pump — never runs.

use netsim::{DetHashMap, Hub, NodeId, SimDuration, SimTime, Switch};
use std::cell::RefCell;
use std::rc::Rc;
use sttcp::fleet::{self, Fleet, FleetSpec};
use sttcp::node::{ClientNode, ServerNode};
use sttcp::prelude::*;
use sttcp::scenario::{self, ScenarioSpec};
use tcpstack::StackConfig;
use wire::MacAddr;

/// Whether a host configured with `cfg` is an addressee of `dst`.
fn addressed_to(cfg: &StackConfig, dst: MacAddr) -> bool {
    dst.is_multicast() || cfg.nic_macs().is_none_or(|(own, also)| dst == own || also.contains(&dst))
}

/// Counts the transmissions toward a host that is not their addressee,
/// with the departure time of the last one.
fn watch_foreign(f: &mut Fleet) -> Rc<RefCell<(u64, SimTime)>> {
    let mut hosts: DetHashMap<NodeId, StackConfig> = DetHashMap::default();
    for &c in &f.clients {
        hosts.insert(c, f.sim.node_ref::<ClientNode>(c).stack().config().clone());
    }
    for &s in &f.servers {
        hosts.insert(s, f.sim.node_ref::<ServerNode>(s).stack().config().clone());
    }
    let foreign = Rc::new(RefCell::new((0u64, SimTime::ZERO)));
    let sink = Rc::clone(&foreign);
    f.sim.set_probe(move |ev| {
        let dst = MacAddr(ev.frame[..6].try_into().expect("an Ethernet frame"));
        if hosts.get(&ev.to).is_some_and(|cfg| !addressed_to(cfg, dst)) {
            let mut seen = sink.borrow_mut();
            *seen = (seen.0 + 1, ev.time);
        }
    });
    foreign
}

/// The frames the hosts' stacks processed; none saw a frame for another
/// station.
fn host_frames_in(f: &Fleet) -> u64 {
    let clients = f.clients.iter().map(|&c| f.sim.node_ref::<ClientNode>(c).stack().stats);
    let servers = f.servers.iter().map(|&s| f.sim.node_ref::<ServerNode>(s).stack().stats);
    clients
        .chain(servers)
        .map(|stats| {
            assert_eq!(stats.frames_filtered, 0, "a stack saw a frame for another station");
            stats.frames_in
        })
        .sum()
}

/// Runs `spec`'s fleet to completion and checks that no NIC had a
/// frame to refuse and that the switch flooded only the logger queries,
/// which are broadcast by design.
fn assert_floods_nothing(spec: &FleetSpec) -> Fleet {
    let mut f = fleet::build(spec);
    let foreign = watch_foreign(&mut f);
    assert!(f.run_until_done(SimDuration::from_secs(120)), "fleet must finish");
    assert!(f.verified_clean(), "every client stream must verify clean");
    assert_eq!(foreign.borrow().0, 0, "a host was sent a frame addressed to another");
    assert_eq!(f.sim.trace().frames_filtered_nic, 0);
    let queries: u64 = (0..f.servers.len()).map(|rank| f.engine(rank).stats.logger_queries).sum();
    assert_eq!(f.sim.node_ref::<Switch>(f.fabric).floods, queries);
    f
}

#[test]
fn a_fleets_hosts_see_exactly_the_frames_addressed_to_them() {
    let spec = FleetSpec::new(500)
        .connect_spread(SimDuration::from_millis(100))
        .crash_primary_at(SimTime::ZERO + SimDuration::from_millis(150));
    let f = assert_floods_nothing(&spec);
    // What reached a node is what the nodes processed: every host's
    // stack, plus the switch (which handles each frame it is given).
    let sw = f.sim.node_ref::<Switch>(f.fabric);
    let processed = host_frames_in(&f) + sw.unicast_forwards + sw.local;
    assert_eq!(f.sim.trace().frames_delivered, processed);
}

#[test]
fn a_chain_fleet_and_a_logged_fleet_flood_nothing() {
    let crash = SimTime::ZERO + SimDuration::from_millis(150);
    let spec = FleetSpec::new(200).connect_spread(SimDuration::from_millis(100)).crash(0, crash);
    let chain = assert_floods_nothing(&spec.clone().backups(2));
    assert_eq!(chain.sim.node_ref::<Switch>(chain.fabric).floods, 0);
    // The logger sits inline on the primary's hop, so the primary's
    // port is still port 0. The promoted backup asks it for what may
    // follow each shadow's frontier: one broadcast query a connection.
    let mut logged = spec;
    logged.st_tcp = logged.st_tcp.with_logger();
    let f = assert_floods_nothing(&logged);
    assert!(f.logger.is_some(), "the logger is on the primary's hop");
    assert_eq!(f.engine(1).stats.logger_queries, 200);
}

#[test]
fn a_hubs_hosts_refuse_what_it_repeats_for_others() {
    // A hub repeats every frame out of every other port: the client is
    // sent the side channel between the servers, and its NIC refuses it
    // as it goes on the wire.
    let spec = ScenarioSpec::new(Workload::Echo { requests: 20 })
        .st_tcp(SttcpConfig::new(addrs::VIP, 80))
        .closing();
    let mut f = scenario::build(&spec).into_fleet();
    let foreign = watch_foreign(&mut f);
    assert!(f.run_until_done(SimDuration::from_secs(30)), "the echo run must finish");
    assert!(f.verified_clean());
    let (foreign, last) = *foreign.borrow();
    let trace = f.sim.trace();
    assert!(foreign > 0, "the hub repeats the side channel to the client");
    assert!(last < f.sim.now(), "none is still in flight");
    assert_eq!(trace.frames_filtered_nic, foreign, "each was dropped by a NIC, and nothing else");
    let hub = f.sim.node_ref::<Hub>(f.fabric);
    assert_eq!(trace.frames_delivered, host_frames_in(&f) + hub.frames_repeated);
}

/// The crash herd (`simperf`'s `conn_herd_3k`, the benchmark's
/// `fleet_failover` at the library seed): 3 000 clients connect over
/// 200 ms and the primary dies at 150 ms. The four counts are exact.
/// Its links once carried more flood copies for other stations than
/// frames for their hosts; none cost an event, since a NIC's verdict on
/// a frame it will refuse is taken when the frame goes on the wire
/// (DESIGN.md §8 "When it runs"), so the pins were the filtered copies
/// and their sum with `events_processed`. The last two fell (from
/// 117 122 and 387 272) when the promoted backup stopped acking and
/// heartbeating the dead primary; the flood copies, all sent before the
/// crash, held. The sum fell again (373 126 → 351 606) when a moved
/// deadline stopped waking its node at the old instant, and the last
/// two fell together (110 257 → 101 437, 351 606 → 334 936) when the
/// backup began to ack several connections in one datagram, and again
/// (→ 101 429, → 334 924) when the backup stopped sending a heartbeat
/// beside its acks. The last two rose (→ 103 867, → 343 610) when the
/// mirror began to copy only the client's half: each answered SYN is a
/// side-channel datagram, two hops, where its SYN/ACK was one mirror
/// copy, and the promoted backup speaks first; the flood copies held.
/// They fell (→ 98 092, → 335 578) when the SYN entries went: every
/// server derives a passive open's ISS from the SYN, and the frontier
/// rides the heartbeat; the flood copies held. They rose (→ 98 154,
/// → 335 712) when a frontier entry came to be owed a tick later: 24
/// overflow heartbeats fewer, and the clients' timers fired 164 times
/// in the detection window instead of 155; the flood copies held. The
/// 203 932 flood copies (68 floods) went when the switch began with
/// every server's port learned; events and delivered frames held.
#[test]
fn the_crash_herd_floods_nothing() {
    let spec =
        FleetSpec::new(3_000).crash_primary_at(SimTime::ZERO + SimDuration::from_millis(150));
    let mut f = fleet::build(&spec);
    assert!(f.run_until_done(SimDuration::from_secs(120)), "fleet must finish");
    assert!(f.verified_clean(), "all 3 000 client streams must verify clean");
    let t = f.sim.trace();
    assert_eq!(f.sim.node_ref::<Switch>(f.fabric).floods, 0);
    assert_eq!(t.frames_filtered_nic, 0);
    assert_eq!(t.frames_delivered, 98_154);
    assert_eq!(t.events_processed, 131_780);
}

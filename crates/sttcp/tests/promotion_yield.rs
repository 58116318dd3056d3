//! Lag-gated promotion must never leave the VIP unserved.
//!
//! A tap omission plus lost recovery replies leaves rank 1 of a
//! two-backup chain lagging when the primary crashes; there is no
//! logger, so nothing can ever close that gap. Rank 1 yields its
//! promotion slot — and rank 2, the last candidate, must take it at its
//! own staggered deadline — even when it lags too. Before the engines
//! were collapsed, promotion was gated on lag zero for *every* rank: one
//! lagging connection on the last candidate blocked the whole fleet's
//! promotion forever.
//!
//! The planned-migration gate has the mirror-image hazard: recovery is
//! driven by tapped primary ACKs (a reply clears the in-flight request,
//! the next ACK that still runs ahead of the shadow asks for the rest),
//! so on a connection that has gone idle a gap larger than one request
//! chunk stays open — and `drain_and_handover()` waits for lag zero.
//! The successor must chase its gaps itself while a drain names it.

use apps::Workload;
use bytes::Bytes;
use netsim::{DropRule, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;
use sttcp::cluster::promotion::detection_deadline;
use sttcp::fleet::{self, Fleet, FleetSpec, UPLOAD_FILE};
use sttcp::scenario::addrs;
use sttcp::{ClusterRole, ServerNode, SideMsg};
use wire::{EtherType, EthernetFrame, IpProtocol, Ipv4Packet, TcpSegment, UdpDatagram};

/// The IPv4 packet inside `frame`, if it is one.
fn ipv4(frame: &Bytes) -> Option<Ipv4Packet> {
    let eth = EthernetFrame::parse(frame.clone()).ok()?;
    (eth.ethertype == EtherType::Ipv4).then(|| Ipv4Packet::parse(eth.payload).ok())?
}

fn client_request(frame: &Bytes) -> bool {
    ipv4(frame)
        .filter(|ip| ip.dst == addrs::VIP && ip.protocol == IpProtocol::Tcp)
        .and_then(|ip| TcpSegment::parse(ip.payload.clone(), ip.src, ip.dst).ok())
        .is_some_and(|seg| !seg.payload.is_empty())
}

fn missing_data_reply(frame: &Bytes) -> bool {
    ipv4(frame)
        .filter(|ip| ip.protocol == IpProtocol::Udp)
        .and_then(|ip| UdpDatagram::parse(ip.payload.clone(), ip.src, ip.dst).ok())
        .and_then(|udp| SideMsg::decode(udp.payload))
        .is_some_and(|msg| matches!(msg, SideMsg::MissingData { .. } | SideMsg::MissingNack { .. }))
}

const CRASH: SimTime = SimTime::from_nanos(600_000_000);

/// One echo client on a two-backup chain whose primary crashes at
/// [`CRASH`]; request #41 never reaches the tap of the first
/// `lagging_ranks` backups, and neither do the primary's side-channel
/// recovery replies.
fn chain_with_tap_omission(lagging_ranks: usize) -> Fleet {
    let spec = FleetSpec::new(1)
        .backups(2)
        .closing()
        .workload(Workload::Echo { requests: 100 })
        .crash(0, CRASH)
        .connect_spread(SimDuration::ZERO);
    let mut fleet = fleet::build(&spec);
    for rank in 1..=lagging_ranks {
        let node = fleet.servers[rank];
        fleet.sim.add_ingress_drop(node, DropRule::window(40, 1, client_request));
        fleet.sim.add_ingress_drop(node, DropRule::all(missing_data_reply));
    }
    fleet
}

fn lag(fleet: &Fleet, rank: usize) -> u64 {
    let node = fleet.sim.node_ref::<ServerNode>(fleet.servers[rank]);
    fleet.engine(rank).catchup_lag(node.stack())
}

/// The last rank's detection deadline (measured from the primary's last
/// heartbeat, which precedes the crash) plus one heartbeat of tick
/// granularity.
fn last_rank_bound(fleet: &Fleet) -> SimDuration {
    let cfg = fleet.engine(2).config();
    detection_deadline(cfg, 2) + cfg.hb_interval
}

#[test]
fn lagging_rank1_yields_and_the_last_rank_serves() {
    let mut fleet = chain_with_tap_omission(1);
    let rank2 = fleet.servers[2];

    // Who sources the VIP, and when (origin hops only).
    let servers: Vec<usize> = fleet.servers.iter().map(|n| n.0).collect();
    let vip_sends = Rc::new(RefCell::new(Vec::new()));
    let sink = Rc::clone(&vip_sends);
    fleet.sim.set_probe(move |ev| {
        if servers.contains(&ev.from.0) && ipv4(ev.frame).is_some_and(|ip| ip.src == addrs::VIP) {
            sink.borrow_mut().push((ev.time, ev.from));
        }
    });

    fleet.sim.run_until(CRASH);
    assert!(lag(&fleet, 1) > 0, "the scenario must leave rank 1 lagging at the crash");
    assert_eq!(lag(&fleet, 2), 0);

    assert!(fleet.run_until_done(SimDuration::from_secs(30)), "the client must finish");
    assert!(fleet.verified_clean(), "byte stream intact across the failover");

    let took_over = fleet.engine(2).takeover_at().expect("the last rank promotes");
    let bound = last_rank_bound(&fleet);
    assert!(
        took_over <= CRASH + bound,
        "rank 2 promoted at {took_over}, later than {bound} after the crash"
    );
    assert_eq!(fleet.engine(2).topology().epoch(), 2, "epoch-by-rank: skipped two members");
    // Rank 1 yielded: it never served, then or later.
    assert_eq!(fleet.engine(1).role(), ClusterRole::Backup);
    assert!(!fleet.engine(1).has_taken_over());
    // Single server: once rank 2 has promoted, nobody else sources the VIP.
    let slack = SimDuration::from_millis(5);
    let intruders: Vec<_> = vip_sends
        .borrow()
        .iter()
        .filter(|&&(at, from)| at > took_over + slack && from != rank2)
        .copied()
        .collect();
    assert!(intruders.is_empty(), "VIP frames from a non-serving member: {intruders:?}");
}

#[test]
fn a_lagging_last_rank_promotes_at_its_deadline_regardless() {
    // Both backups missed the request: an unmasked double failure (the
    // stream cannot complete without a logger), but the fleet's other
    // connections would still need a server — somebody must promote.
    let mut fleet = chain_with_tap_omission(2);
    fleet.sim.run_until(CRASH);
    assert!(lag(&fleet, 1) > 0 && lag(&fleet, 2) > 0, "both shadows lag at the crash");
    let bound = last_rank_bound(&fleet);
    fleet.sim.run_until(CRASH + bound);
    assert_eq!(fleet.engine(2).role(), ClusterRole::Primary, "the last candidate never yields");
    assert_eq!(fleet.engine(1).role(), ClusterRole::Backup, "rank 1 had a deeper rank to yield to");
}

#[test]
fn a_lagging_successor_catches_up_on_an_idle_connection_and_takes_the_handover() {
    // One client uploads the fleet's 8 KB file and then sits on the open
    // connection. Rank 1's tap misses five of the six data segments
    // (≈ 7 KB, several 2 KB request chunks), and the primary's replies
    // are lost until after the drain has begun: every heartbeat's
    // frontier asks again, but nothing heals before the drain does.
    let migrate_at = SimTime::ZERO + SimDuration::from_secs(1);
    let mut spec = FleetSpec::new(1)
        .backups(2)
        .workload(Workload::Upload { file_size: UPLOAD_FILE })
        .migrate_at(migrate_at, 1)
        .connect_spread(SimDuration::ZERO);
    spec.st_tcp.missing_req_chunk = 2 * 1024;
    let mut fleet = fleet::build(&spec);
    let rank1 = fleet.servers[1];
    fleet.sim.add_ingress_drop(rank1, DropRule::window(1, 5, client_request));
    let heals_at = migrate_at + SimDuration::from_millis(200);
    fleet.sim.add_ingress_drop(
        rank1,
        DropRule::all(missing_data_reply).between(SimTime::ZERO, heals_at),
    );

    fleet.sim.run_until(migrate_at);
    assert!(fleet.all_done(), "the upload itself finishes long before the drain");
    assert!(lag(&fleet, 1) > 0, "the scenario must leave the successor lagging, connection idle");

    fleet.sim.run_for(SimDuration::from_secs(2));
    assert_eq!(lag(&fleet, 1), 0, "the drain must make the successor close its gap");
    assert_eq!(fleet.engine(1).role(), ClusterRole::Primary, "the handover completes");
    assert_eq!(fleet.engine(0).role(), ClusterRole::Retired);
    assert!(fleet.verified_clean());
}

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
//! The planned-migration gate has the mirror-image hazard:
//! `drain_and_handover()` waits until the successor trails on nothing,
//! so a gap that never closes would hold the drain forever. On a
//! connection that has gone idle a gap larger than one request chunk
//! stays open unless something asks again: each heartbeat's frontier
//! entry does. And the gate must count the connections the successor
//! never shadowed at all, or the drain hands the VIP to a member that
//! cannot serve them.

use apps::Workload;
use bytes::Bytes;
use netsim::{DropRule, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;
use sttcp::cluster::promotion::detection_deadline;
use sttcp::fleet::{self, Fleet, FleetSpec, UPLOAD_FILE};
use sttcp::scenario::addrs;
use sttcp::{ClusterRole, ServerNode, SideMsg};
use wire::{EtherType, EthernetFrame, IpProtocol, Ipv4Packet, TcpFlags, TcpSegment, UdpDatagram};

/// The IPv4 packet inside `frame`, if it is one.
fn ipv4(frame: &Bytes) -> Option<Ipv4Packet> {
    let eth = EthernetFrame::parse(frame.clone()).ok()?;
    (eth.ethertype == EtherType::Ipv4).then(|| Ipv4Packet::parse(eth.payload).ok())?
}

/// The client's TCP segment inside `frame`, if it is one.
fn client_segment(frame: &Bytes) -> Option<TcpSegment> {
    ipv4(frame)
        .filter(|ip| ip.dst == addrs::VIP && ip.protocol == IpProtocol::Tcp)
        .and_then(|ip| TcpSegment::parse(ip.payload.clone(), ip.src, ip.dst).ok())
}

fn client_request(frame: &Bytes) -> bool {
    client_segment(frame).is_some_and(|seg| !seg.payload.is_empty())
}

fn client_syn(frame: &Bytes) -> bool {
    client_segment(frame).is_some_and(|seg| seg.flags.contains(TcpFlags::SYN))
}

/// The side-channel message inside `frame`, if it is one.
fn side_msg(frame: &Bytes) -> Option<SideMsg> {
    ipv4(frame)
        .filter(|ip| ip.protocol == IpProtocol::Udp)
        .and_then(|ip| UdpDatagram::parse(ip.payload.clone(), ip.src, ip.dst).ok())
        .and_then(|udp| SideMsg::decode(udp.payload))
}

fn missing_data_reply(frame: &Bytes) -> bool {
    side_msg(frame)
        .is_some_and(|msg| matches!(msg, SideMsg::MissingData { .. } | SideMsg::MissingNack { .. }))
}

fn handover(frame: &Bytes) -> bool {
    side_msg(frame).is_some_and(|msg| matches!(msg, SideMsg::Handover { .. }))
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

#[test]
fn a_drain_waits_while_the_successor_lacks_a_connection_that_carries_data() {
    // The backup's tap loses every client SYN, so it never shadows the
    // one connection, and there is no logger to rebuild it. Handing over
    // at the drain would strand the client: the drain must wait until the
    // old primary has served the connection to its close.
    let migrate_at = SimTime::ZERO + SimDuration::from_millis(300);
    let spec = FleetSpec::new(1)
        .closing()
        .workload(Workload::Echo { requests: 100 })
        .migrate_at(migrate_at, 1)
        .connect_spread(SimDuration::ZERO);
    let mut fleet = fleet::build(&spec);
    fleet.sim.add_ingress_drop(fleet.servers[1], DropRule::all(client_syn));

    fleet.sim.run_until(migrate_at + SimDuration::from_millis(200));
    assert!(!fleet.all_done(), "the scenario must drain mid-stream");
    assert_eq!(fleet.engine(0).role(), ClusterRole::Primary, "no handover while rank 1 lacks it");
    assert!(fleet.run_until_done(SimDuration::from_secs(30)), "the old primary serves it out");
    assert!(fleet.verified_clean());
    let (got, want) = fleet.progress();
    assert_eq!(got, want);

    fleet.sim.run_for(SimDuration::from_secs(1));
    assert_eq!(fleet.engine(0).role(), ClusterRole::Retired, "the closed connection frees it");
    assert!(fleet.engine(1).has_taken_over(), "rank 1 takes the handover");
}

#[test]
fn a_lost_handover_costs_one_detection_window_not_the_service() {
    // The planned-migration fleet, with every `Handover` lost on its way
    // into rank 1: the retired primary falls silent, so rank 1 promotes
    // at its own deadline, under the epoch the handover would have set.
    let migrate_at = SimTime::ZERO + SimDuration::from_millis(100);
    let spec = FleetSpec::new(12).backups(2).closing().migrate_at(migrate_at, 1);
    let mut fleet = fleet::build(&spec);
    fleet.sim.add_ingress_drop(fleet.servers[1], DropRule::all(handover));

    let mut handed_over = migrate_at;
    while fleet.engine(0).role() == ClusterRole::Primary {
        handed_over += SimDuration::from_millis(1);
        fleet.sim.run_until(handed_over);
    }
    assert!(fleet.run_until_done(SimDuration::from_secs(30)), "the fleet must finish");
    assert!(fleet.verified_clean());
    let (got, want) = fleet.progress();
    assert_eq!(got, want);

    let cfg = &spec.st_tcp;
    let took_over = fleet.engine(1).takeover_at().expect("rank 1 promotes at its deadline");
    let bound = handed_over + detection_deadline(cfg, 1) + cfg.effective_sync_time();
    assert!(took_over > handed_over && took_over <= bound, "{took_over:?} past {bound:?}");
    assert_eq!(fleet.engine(1).topology().epoch(), 1);
    assert_eq!(fleet.engine(0).role(), ClusterRole::Retired);
    let old_primary = fleet.sim.node_ref::<ServerNode>(fleet.servers[0]);
    assert!(old_primary.stack().is_suppressed(addrs::VIP), "the retired primary stays fenced");
    assert_eq!(fleet.engine(2).role(), ClusterRole::Backup, "rank 2 stays a backup");
}

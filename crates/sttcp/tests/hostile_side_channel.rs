//! Hostile side-channel input never panics a [`ClusterEngine`].
//!
//! The side channel is UDP: any host on the LAN can send any datagram
//! to any member, from any address. These tests drive every kind of
//! message, and `decode` of arbitrary and corrupted bytes, from the
//! primary's address, a backup's and a stranger's, interleaved with
//! ticks, into each role a member of a 3-member chain can hold: the
//! primary, the rank-1 and rank-2 backups, and a retired primary. Each
//! engine holds one real connection, and most generated keys and
//! sequence numbers aim at it, so the per-connection paths run too.
//! The oracle: nothing panics, every message an engine sends survives
//! the codec, and a backup always has a rank in a reign with a member.
//! Beyond not panicking, an engine obeys only its chain: a stranger's
//! datagram moves nothing and draws no reply, only the reign's primary
//! hands over, and only with the epoch the backup's rank gives, and only
//! the successor's own acks complete a drain.

mod common;

use bytes::Bytes;
use netsim::{SimDuration, SimTime};
use proptest::prelude::*;
use std::net::Ipv4Addr;
use sttcp::cluster::{ClusterRole, DrainPhase, Topology};
use sttcp::messages::FrontierEntry;
use sttcp::{ClusterEngine, ConnKey, SideMsg, SttcpConfig};
use tcpstack::{NetStack, StackConfig, TcpConfig};
use wire::{EtherType, EthernetFrame, IpProtocol, Ipv4Packet, MacAddr, TcpFlags, TcpSegment};

const VIP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 100);
const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const PRIMARY: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const RANK1: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);
const RANK2: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 4);
const STRANGER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 9);
const CLIENT_ISS: u32 = 5000;

/// The roles under test.
#[derive(Debug, Clone, Copy)]
enum Target {
    Primary,
    Rank1,
    Rank2,
    Retired,
}

const TARGETS: [Target; 4] = [Target::Primary, Target::Rank1, Target::Rank2, Target::Retired];

fn key() -> ConnKey {
    ConnKey { client_ip: CLIENT, client_port: 40000, server_ip: VIP, server_port: 80 }
}

fn ms(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(n)
}

fn deliver(stack: &mut NetStack, to: MacAddr, seg: &TcpSegment) {
    let ip = Ipv4Packet::new(CLIENT, VIP, IpProtocol::Tcp, seg.encode(CLIENT, VIP));
    let eth = EthernetFrame::new(to, MacAddr::local(1), EtherType::Ipv4, ip.encode());
    stack.handle_frame(SimTime::ZERO, eth.encode());
}

/// `ip`'s stack, holding one established service connection 10 bytes
/// into its client's stream (a backup's is its suppressed shadow).
fn stack_with_conn(ip: Ipv4Addr) -> NetStack {
    let mac = MacAddr::local(u32::from(ip.octets()[3]));
    let mut c = StackConfig::host(mac, ip);
    c.extra_ips = vec![VIP];
    c.learn_from_ip = true;
    if ip == PRIMARY {
        c.tcp = TcpConfig::st_tcp_primary();
    } else {
        c.suppressed_ips = vec![VIP];
        c.tcp = TcpConfig::st_tcp_backup();
    }
    let mut stack = NetStack::new(c);
    stack.listen(80);
    let mut syn = TcpSegment::bare(40000, 80, CLIENT_ISS, 0, TcpFlags::SYN, 17520);
    syn.options = vec![wire::TcpOption::Mss(1460)];
    deliver(&mut stack, mac, &syn);
    let _ = stack.poll(SimTime::ZERO);
    let half_open = stack.socks().next().expect("a passive open");
    let iss = stack.tcb(half_open).expect("live").iss();
    let mut ack =
        TcpSegment::bare(40000, 80, CLIENT_ISS + 1, iss.add(1).raw(), TcpFlags::ACK, 17520);
    ack.payload = Bytes::from_static(b"0123456789");
    deliver(&mut stack, mac, &ack);
    stack
}

/// A fresh engine in `target`'s role, with its stack.
fn build(target: Target) -> (ClusterEngine, NetStack) {
    let ip = match target {
        Target::Primary | Target::Retired => PRIMARY,
        Target::Rank1 => RANK1,
        Target::Rank2 => RANK2,
    };
    let cfg = SttcpConfig::new(VIP, 80).with_logger().with_cong_sync();
    let chain = Topology::new(vec![PRIMARY, RANK1, RANK2]);
    let mut engine = ClusterEngine::new(cfg, ip, chain, 12 * 1024, SimTime::ZERO);
    let mut stack = stack_with_conn(ip);
    let sock = stack.accept(80).expect("established");
    engine.on_accept(sock, &mut stack);
    engine.note_activity(key());
    if let Target::Retired = target {
        // Rank 1's reign begins: the old primary steps out of the chain.
        engine.on_side_msg(
            ms(0),
            RANK1,
            SideMsg::Heartbeat { seq: 1, epoch: 1, entries: vec![] },
            &mut stack,
        );
        assert_eq!(engine.role(), ClusterRole::Retired);
    }
    (engine, stack)
}

/// The node adapter's half of a step: pump, drain and check.
fn settle(engine: &mut ClusterEngine, stack: &mut NetStack, now: SimTime) {
    engine.maybe_send_acks(stack, false);
    let _ = stack.poll(now);
    let mut out = Vec::new();
    engine.drain_outbox_into(&mut out);
    for (_, msg) in out {
        assert_eq!(SideMsg::decode(msg.encode()), Some(msg), "an engine sends what decodes");
    }
    let _ = engine.take_logger_queries();
    let _ = engine.take_fence_request();
    assert!(!engine.topology().members().is_empty());
    if engine.role() == ClusterRole::Backup {
        assert!(engine.rank().is_some_and(|r| r > 0), "a backup ranks in its reign");
    }
}

#[derive(Debug, Clone)]
enum Step {
    /// A message from an address.
    Msg(Ipv4Addr, SideMsg),
    /// A datagram from an address, whatever it decodes to.
    Raw(Ipv4Addr, Vec<u8>),
    /// Time passes by this many ms, then the engine ticks.
    Tick(u64),
}

fn arb_sender() -> impl Strategy<Value = Ipv4Addr> {
    prop_oneof![Just(PRIMARY), Just(RANK1), Just(RANK2), Just(STRANGER)]
}

/// The real connection two times in three.
fn arb_conn() -> impl Strategy<Value = ConnKey> {
    prop_oneof![Just(key()), Just(key()), common::arb_key()]
}

/// A client sequence number near the real stream's, or any.
fn arb_seq() -> impl Strategy<Value = u32> {
    prop_oneof![CLIENT_ISS..CLIENT_ISS + 4_000, any::<u32>()]
}

/// An epoch inside the chain and just past it, or any.
fn arb_epoch() -> impl Strategy<Value = u32> {
    prop_oneof![0u32..5, any::<u32>()]
}

/// A frontier entry, some with a congestion snapshot (a tiny window
/// among them).
fn arb_entry() -> impl Strategy<Value = FrontierEntry> {
    let cwnd = prop_oneof![0u32..3_000, any::<u32>()];
    (arb_conn(), arb_seq(), any::<bool>(), cwnd, any::<u32>()).prop_map(
        |(conn, ack, moved, cwnd, ssthresh)| (conn, ack, moved.then_some((cwnd, ssthresh))),
    )
}

fn arb_msg() -> impl Strategy<Value = SideMsg> {
    prop_oneof![
        (any::<u64>(), arb_epoch(), proptest::collection::vec(arb_entry(), 0..4))
            .prop_map(|(seq, epoch, entries)| SideMsg::Heartbeat { seq, epoch, entries }),
        (arb_conn(), arb_seq())
            .prop_map(|(conn, acked_next)| SideMsg::BackupAck { conn, acked_next }),
        (arb_conn(), arb_seq(), prop_oneof![0u32..4_000, any::<u32>()])
            .prop_map(|(conn, from, len)| SideMsg::MissingReq { conn, from, len }),
        (arb_conn(), arb_seq(), proptest::collection::vec(any::<u8>(), 0..1_500)).prop_map(
            |(conn, seq, data)| SideMsg::MissingData { conn, seq, data: Bytes::from(data) }
        ),
        (arb_conn(), arb_seq()).prop_map(|(conn, from)| SideMsg::MissingNack { conn, from }),
        proptest::collection::vec((arb_conn(), arb_seq()), 0..4)
            .prop_map(|entries| SideMsg::AckBatch { entries }),
        arb_epoch().prop_map(|epoch| SideMsg::Handover { epoch }),
    ]
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (arb_sender(), arb_msg()).prop_map(|(from, msg)| Step::Msg(from, msg)),
        (arb_sender(), arb_msg()).prop_map(|(from, msg)| Step::Msg(from, msg)),
        (arb_sender(), proptest::collection::vec(any::<u8>(), 0..48))
            .prop_map(|(from, raw)| Step::Raw(from, raw)),
        // A real message with one byte corrupted.
        (arb_sender(), arb_msg(), any::<usize>(), 1u8..=255).prop_map(|(from, msg, at, flip)| {
            let mut raw = msg.encode().to_vec();
            let at = at % raw.len();
            raw[at] ^= flip;
            Step::Raw(from, raw)
        }),
        (1u64..120).prop_map(Step::Tick),
    ]
}

fn run(target: Target, steps: &[Step]) {
    let (mut engine, mut stack) = build(target);
    let mut now = ms(1);
    for step in steps {
        match step {
            Step::Msg(from, msg) => engine.on_side_msg(now, *from, msg.clone(), &mut stack),
            Step::Raw(from, raw) => {
                if let Some(msg) = SideMsg::decode(Bytes::from(raw.clone())) {
                    engine.on_side_msg(now, *from, msg, &mut stack);
                }
            }
            Step::Tick(dt) => {
                now += SimDuration::from_millis(*dt);
                engine.on_tick(now, &mut stack);
            }
        }
        settle(&mut engine, &mut stack, now);
    }
}

#[test]
fn the_generator_draws_every_kind() {
    let mut rng = TestRng::for_test("the_generator_draws_every_kind");
    let msgs: Vec<SideMsg> = (0..500).map(|_| arb_msg().generate(&mut rng)).collect();
    common::assert_every_kind(&msgs);
}

proptest! {
    #[test]
    fn hostile_side_channel_input_never_panics_an_engine(
        steps in proptest::collection::vec(arb_step(), 1..80),
    ) {
        for target in TARGETS {
            run(target, &steps);
        }
    }
}

#[test]
fn a_heartbeat_whose_reign_has_no_member_changes_nothing() {
    // The chain has three members, so epoch 3 is the first that would
    // leave nobody.
    for epoch in [3, u32::MAX] {
        for from in [PRIMARY, RANK1, RANK2, STRANGER] {
            for target in TARGETS {
                let (mut engine, mut stack) = build(target);
                let before = (engine.role(), engine.topology().clone());
                let hb = SideMsg::Heartbeat { seq: 1, epoch, entries: vec![] };
                engine.on_side_msg(ms(10), from, hb, &mut stack);
                engine.on_tick(ms(60), &mut stack);
                settle(&mut engine, &mut stack, ms(60));
                assert_eq!((engine.role(), engine.topology().clone()), before, "{target:?} {from}");
            }
        }
    }
}

#[test]
fn a_member_list_on_the_wire_is_garbage() {
    // The retired cluster heartbeat (tag 6) carried a member list. Epoch
    // 1 with no members (15 bytes), and a list naming one member twice,
    // each panicked a backup that adopted it.
    let header = [6, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0];
    let empty = [&header[..], &[0]].concat();
    let twice = [&header[..], &[2, 10, 0, 0, 3, 10, 0, 0, 3]].concat();
    for raw in [empty, twice] {
        assert_eq!(SideMsg::decode(Bytes::from(raw.clone())), None);
        for target in TARGETS {
            run(target, &[Step::Raw(PRIMARY, raw.clone()), Step::Tick(50)]);
        }
    }
}

/// What a stranger's datagram must not move: role, reign, whether the
/// VIP is suppressed, and the connection's receive point.
fn state(engine: &ClusterEngine, stack: &NetStack) -> (ClusterRole, u32, bool, u32) {
    let sock = stack.sock_by_quad(key().server_quad()).expect("the connection lives");
    let rcv_nxt = stack.tcb(sock).expect("live").rcv_nxt().raw();
    (engine.role(), engine.topology().epoch(), stack.is_suppressed(VIP), rcv_nxt)
}

/// Everything `engine` would send, fence or ask the logger for.
fn replies(engine: &mut ClusterEngine, stack: &mut NetStack) -> Vec<String> {
    engine.maybe_send_acks(stack, false);
    let mut out = Vec::new();
    engine.drain_outbox_into(&mut out);
    let mut replies: Vec<String> = out.iter().map(|(to, msg)| format!("{msg:?} to {to}")).collect();
    replies.extend(engine.take_fence_request().map(|outlet| format!("fence outlet {outlet}")));
    replies.extend(engine.take_logger_queries().iter().map(|q| format!("{q:?}")));
    replies
}

#[test]
fn a_strangers_orders_move_nothing_and_draw_no_reply() {
    // What a member would send to make each role act: announce a reign,
    // ack, ask for or supply bytes, and hand over to rank 1 and rank 2.
    let next = CLIENT_ISS + 11; // the client byte after the 10 held
    let orders = [
        SideMsg::Heartbeat { seq: 1, epoch: 1, entries: vec![] },
        SideMsg::Heartbeat {
            seq: 2,
            epoch: 0,
            entries: vec![(key(), next + 4_000, Some((1, 1))), (key(), next, None)],
        },
        SideMsg::BackupAck { conn: key(), acked_next: next },
        SideMsg::AckBatch { entries: vec![(key(), next)] },
        SideMsg::MissingReq { conn: key(), from: CLIENT_ISS + 1, len: 10 },
        SideMsg::MissingData { conn: key(), seq: next, data: Bytes::from_static(b"forged") },
        SideMsg::MissingNack { conn: key(), from: next },
        SideMsg::Handover { epoch: 1 },
        SideMsg::Handover { epoch: 2 },
    ];
    common::assert_every_kind(&orders);
    for target in TARGETS {
        let (mut engine, mut stack) = build(target);
        if let Target::Primary = target {
            mid_drain(&mut engine, &mut stack);
        }
        let _ = replies(&mut engine, &mut stack);
        let before = state(&engine, &stack);
        for (i, order) in orders.iter().enumerate() {
            engine.on_side_msg(ms(2 + i as u64), STRANGER, order.clone(), &mut stack);
            let _ = stack.poll(ms(2 + i as u64));
            assert_eq!(
                replies(&mut engine, &mut stack),
                Vec::<String>::new(),
                "{target:?} {order:?}"
            );
            assert_eq!(state(&engine, &stack), before, "{target:?} after {order:?}");
        }
    }
}

/// Takes a primary built by [`build`] into a drain to rank 1 that waits:
/// rank 1 has not acked the connection's 10 bytes.
fn mid_drain(engine: &mut ClusterEngine, stack: &mut NetStack) {
    engine.schedule_drain(ms(1), 1);
    // The first heartbeat notes the frontier; the second, due, finds
    // rank 1 has had a tick to ack it.
    engine.on_tick(ms(0), stack);
    engine.on_tick(ms(1), stack);
    assert_eq!(engine.drain_phase(), DrainPhase::Draining);
}

#[test]
fn only_the_reigns_primary_orders_a_handover_and_only_a_member_speaks_for_its_rank() {
    // A backup takes a handover only from its reign's primary, and only
    // with its reign's epoch plus its own rank.
    for (target, other, rank) in [(Target::Rank1, RANK2, 1), (Target::Rank2, RANK1, 2)] {
        let (mut engine, mut stack) = build(target);
        let before = state(&engine, &stack);
        let wrong = [(other, rank), (STRANGER, rank), (PRIMARY, rank - 1), (PRIMARY, rank + 1)];
        for (from, epoch) in wrong {
            engine.on_side_msg(ms(2), from, SideMsg::Handover { epoch }, &mut stack);
            assert_eq!(state(&engine, &stack), before, "{target:?}: epoch {epoch} from {from}");
        }
        engine.on_side_msg(ms(3), PRIMARY, SideMsg::Handover { epoch: rank }, &mut stack);
        assert_eq!(engine.role(), ClusterRole::Primary, "{target:?} handed over by the primary");
        assert_eq!(engine.topology().epoch(), rank);
        assert!(!stack.is_suppressed(VIP));
    }

    // A draining primary hands over only once rank 1 itself has acked
    // what it trailed on: rank 2's acks and a stranger's do not speak
    // for it.
    let (mut engine, mut stack) = build(Target::Primary);
    mid_drain(&mut engine, &mut stack);
    let _ = replies(&mut engine, &mut stack);
    let before = state(&engine, &stack);
    let ack = SideMsg::AckBatch { entries: vec![(key(), CLIENT_ISS + 11)] };
    for (i, from) in [RANK2, STRANGER].into_iter().enumerate() {
        let at = ms(50 * (i as u64 + 1));
        engine.on_side_msg(at, from, ack.clone(), &mut stack);
        engine.on_tick(at, &mut stack);
        assert!(!replies(&mut engine, &mut stack).iter().any(|r| r.contains("Handover")));
        assert_eq!(state(&engine, &stack), before, "{from} spoke for rank 1");
        assert_eq!(engine.drain_phase(), DrainPhase::Draining);
    }
    engine.on_side_msg(ms(150), RANK1, ack, &mut stack);
    engine.on_tick(ms(150), &mut stack);
    let replies = replies(&mut engine, &mut stack);
    assert_eq!(replies.last(), Some(&format!("{:?} to {RANK1}", SideMsg::Handover { epoch: 1 })));
    assert_eq!(engine.drain_phase(), DrainPhase::HandedOver);
    assert_eq!(engine.role(), ClusterRole::Retired);
    assert!(stack.is_suppressed(VIP));
}

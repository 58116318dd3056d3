//! Focused engine-level tests exercising paths the end-to-end scenarios
//! cross only incidentally: missing-data chunking, the frontier entry
//! as the backup's one recovery cue (ask, ask again, re-ack, refusal),
//! retention release ordering, detection, and takeover idempotence —
//! mostly on the paper's pair, i.e. [`ClusterEngine`] over the
//! two-member topology; the ack rule is also checked at rank 2.

use bytes::Bytes;
use netsim::{SimDuration, SimTime};
use std::net::Ipv4Addr;
use sttcp::cluster::Topology;
use sttcp::messages::FrontierEntry;
use sttcp::{ClusterEngine, ConnKey, SideMsg, SttcpConfig};
use tcpstack::{NetStack, SeqNum, StackConfig, TcpConfig};
use wire::{MacAddr, TcpFlags, TcpSegment};

const VIP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 100);
const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const PRIMARY: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const BACKUP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);

fn cfg() -> SttcpConfig {
    SttcpConfig::new(VIP, 80)
}

/// The pair's rank-0 engine.
fn primary(cfg: SttcpConfig) -> ClusterEngine {
    ClusterEngine::new(cfg, PRIMARY, Topology::new(vec![PRIMARY, BACKUP]), 12 * 1024, SimTime::ZERO)
}

/// The pair's rank-1 engine.
fn backup(cfg: SttcpConfig) -> ClusterEngine {
    ClusterEngine::new(cfg, BACKUP, Topology::new(vec![PRIMARY, BACKUP]), 12 * 1024, SimTime::ZERO)
}

/// Drains the outbox; every message of a pair goes to the one peer.
fn sent(engine: &mut ClusterEngine) -> Vec<SideMsg> {
    let mut out = Vec::new();
    engine.drain_outbox_into(&mut out);
    out.into_iter().map(|(_, msg)| msg).collect()
}

/// A suppressed, empty backup stack.
fn backup_stack() -> NetStack {
    let mut c = StackConfig::host(MacAddr::local(3), BACKUP);
    c.extra_ips = vec![VIP];
    c.suppressed_ips = vec![VIP];
    c.tcp = TcpConfig::st_tcp_backup();
    NetStack::new(c)
}

fn ms(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(n)
}

fn key() -> ConnKey {
    ConnKey { client_ip: CLIENT, client_port: 40000, server_ip: VIP, server_port: 80 }
}

/// A primary stack with one established service connection carrying
/// `payload` already received from the client (and read by the "app" so
/// it lives in the retention buffer).
fn primary_with_data(payload: &[u8]) -> (NetStack, SeqNum) {
    let mut scfg = StackConfig::host(MacAddr::local(2), PRIMARY);
    scfg.extra_ips = vec![VIP];
    scfg.learn_from_ip = true; // client MAC learned from the frames below
    scfg.tcp = TcpConfig::st_tcp_primary();
    let mut stack = NetStack::new(scfg);
    stack.listen(80);
    let now = SimTime::ZERO;
    // Hand-deliver a SYN then data.
    let client_iss = 5000u32;
    let mut syn = TcpSegment::bare(40000, 80, client_iss, 0, TcpFlags::SYN, 17520);
    syn.options = vec![wire::TcpOption::Mss(1460)];
    deliver(&mut stack, now, &syn);
    let synack = stack.poll(now);
    assert_eq!(synack.len(), 1);
    let tcb_iss = parse_tcp(&synack[0]).seq;
    let mut ack =
        TcpSegment::bare(40000, 80, client_iss + 1, tcb_iss.wrapping_add(1), TcpFlags::ACK, 17520);
    ack.payload = Bytes::copy_from_slice(payload);
    deliver(&mut stack, now, &ack);
    let sock = stack.accept(80).expect("established");
    // The app reads everything: bytes move to the retention buffer.
    let mut buf = vec![0u8; payload.len()];
    assert_eq!(stack.read(sock, &mut buf).unwrap(), payload.len());
    (stack, SeqNum(client_iss + 1))
}

fn deliver(stack: &mut NetStack, now: SimTime, seg: &TcpSegment) {
    use wire::{EtherType, EthernetFrame, IpProtocol, Ipv4Packet};
    let ip = Ipv4Packet::new(CLIENT, VIP, IpProtocol::Tcp, seg.encode(CLIENT, VIP));
    let eth =
        EthernetFrame::new(MacAddr::local(2), MacAddr::local(1), EtherType::Ipv4, ip.encode());
    stack.handle_frame(now, eth.encode());
}

/// The primary's heartbeat with a one-entry frontier for [`key`]: its
/// cumulative ACK, and its congestion window and threshold if mirrored.
fn frontier(ack: SeqNum, cong: Option<(u32, u32)>) -> SideMsg {
    SideMsg::Heartbeat { seq: 1, epoch: 0, entries: vec![(key(), ack.raw(), cong)] }
}

fn parse_tcp(frame: &Bytes) -> TcpSegment {
    use wire::{EthernetFrame, Ipv4Packet};
    let eth = EthernetFrame::parse(frame.clone()).unwrap();
    let ip = Ipv4Packet::parse(eth.payload).unwrap();
    TcpSegment::parse(ip.payload.clone(), ip.src, ip.dst).unwrap()
}

#[test]
fn primary_serves_missing_range_in_chunks() {
    // 3000 retained bytes; SIDE_CHUNK is 1024 so a full-range request
    // yields ceil(3000/1024) = 3 MissingData messages with contiguous
    // coverage and no overlap.
    let payload: Vec<u8> = (0..3000u32).map(|i| (i % 251) as u8).collect();
    let (mut stack, data_start) = primary_with_data(&payload);
    let mut engine = primary(cfg());
    engine.on_side_msg(
        SimTime::ZERO,
        BACKUP,
        SideMsg::MissingReq { conn: key(), from: data_start.raw(), len: 3000 },
        &mut stack,
    );
    let chunks: Vec<(u32, Vec<u8>)> = sent(&mut engine)
        .iter()
        .filter_map(|m| match m {
            SideMsg::MissingData { seq, data, .. } => Some((*seq, data.to_vec())),
            _ => None,
        })
        .collect();
    assert_eq!(chunks.len(), 3);
    let mut reassembled = Vec::new();
    let mut expect = data_start.raw();
    for (seq, data) in &chunks {
        assert_eq!(*seq, expect, "chunks must be contiguous");
        expect = expect.wrapping_add(data.len() as u32);
        reassembled.extend_from_slice(data);
    }
    assert_eq!(reassembled, payload);
    assert_eq!(engine.stats.missing_served, 1);
    assert_eq!(engine.stats.missing_bytes_sent, 3000);
}

#[test]
fn primary_clamps_overlong_requests_to_what_it_holds() {
    let payload = vec![7u8; 500];
    let (mut stack, data_start) = primary_with_data(&payload);
    let mut engine = primary(cfg());
    engine.on_side_msg(
        SimTime::ZERO,
        BACKUP,
        SideMsg::MissingReq { conn: key(), from: data_start.raw(), len: 1_000_000 },
        &mut stack,
    );
    let total: usize = sent(&mut engine)
        .iter()
        .map(|m| match m {
            SideMsg::MissingData { data, .. } => data.len(),
            _ => 0,
        })
        .sum();
    assert_eq!(total, 500, "serve what is held, not what was asked");
}

#[test]
fn primary_nacks_ranges_below_the_floor() {
    let payload = vec![9u8; 100];
    let (mut stack, data_start) = primary_with_data(&payload);
    let mut engine = primary(cfg());
    // Backup acks everything: retention releases.
    engine.on_side_msg(
        SimTime::ZERO,
        BACKUP,
        SideMsg::BackupAck { conn: key(), acked_next: data_start.add(100).raw() },
        &mut stack,
    );
    assert_eq!(engine.stats.acks_applied, 1);
    engine.on_side_msg(
        SimTime::ZERO,
        BACKUP,
        SideMsg::MissingReq { conn: key(), from: data_start.raw(), len: 100 },
        &mut stack,
    );
    let out = sent(&mut engine);
    let refusal = SideMsg::MissingData { conn: key(), seq: data_start.raw(), data: Bytes::new() };
    assert_eq!(out, [refusal], "released bytes are gone: a reply with none");
    assert_eq!(engine.stats.missing_nacked, 1);
}

#[test]
fn primary_nacks_a_missing_req_for_an_unknown_conn() {
    let (mut stack, _) = primary_with_data(b"");
    let mut engine = primary(cfg());
    let mut other = key();
    other.client_port = 40001;
    engine.on_side_msg(
        SimTime::ZERO,
        BACKUP,
        SideMsg::MissingReq { conn: other, from: 0, len: 100 },
        &mut stack,
    );
    assert_eq!(
        sent(&mut engine),
        vec![SideMsg::MissingData { conn: other, seq: 0, data: Bytes::new() }]
    );
    assert_eq!(engine.stats.missing_nacked, 1);
}

#[test]
fn primary_heartbeats_every_tick() {
    let (mut stack, _) = primary_with_data(b"");
    let mut engine = primary(cfg());
    engine.on_tick(ms(50), &mut stack);
    engine.on_tick(ms(100), &mut stack);
    assert_eq!(
        sent(&mut engine),
        vec![
            SideMsg::Heartbeat { seq: 1, epoch: 0, entries: vec![] },
            SideMsg::Heartbeat { seq: 2, epoch: 0, entries: vec![] }
        ]
    );
    assert_eq!(engine.stats.hbs_sent, 2);
    assert_eq!(engine.tick_interval(), cfg().hb_interval);
}

#[test]
fn primary_declares_the_backup_dead_after_the_threshold_and_takes_it_back() {
    let payload = vec![1u8; 64];
    let (mut stack, _) = primary_with_data(&payload);
    let sock = stack.sock_by_quad(key().server_quad()).unwrap();
    let mut engine = primary(cfg());
    // Backup says hello at t=100 (its ack tick: an empty batch).
    // Threshold = 3 × 50 ms.
    engine.on_side_msg(ms(100), BACKUP, SideMsg::AckBatch { entries: vec![] }, &mut stack);
    engine.on_tick(ms(250), &mut stack);
    assert!(engine.backup_alive(), "150 ms of silence is still inside the window");
    assert_eq!(stack.tcb(sock).unwrap().retained(), 64);
    engine.on_tick(ms(251), &mut stack);
    assert!(!engine.backup_alive());
    assert_eq!(engine.backup_dead_at(), Some(ms(251)));
    assert_eq!(
        stack.tcb(sock).unwrap().retained(),
        0,
        "non-fault-tolerant mode releases every connection's retention (§4.4)"
    );
    // Any side message counts as liveness — an ack reintegrates it.
    engine.on_side_msg(
        ms(900),
        BACKUP,
        SideMsg::BackupAck { conn: key(), acked_next: 0 },
        &mut stack,
    );
    assert!(engine.backup_alive());
    assert_eq!(engine.backup_dead_at(), None);
    assert_eq!(engine.stats.reintegrations, 1);
    assert_eq!(engine.stats.acks_applied, 1, "acks count again after a reintegration");
    engine.on_tick(ms(1000), &mut stack);
    assert!(engine.backup_alive());
}

/// A backup of the pair (`cfg`) and its stack, shadowing one
/// established connection whose client has sent nothing yet; returns
/// the shadow's `rcv_nxt` too.
fn backup_with_shadow(cfg: SttcpConfig) -> (ClusterEngine, NetStack, SeqNum) {
    let mut bcfg = StackConfig::host(MacAddr::local(3), BACKUP);
    bcfg.extra_ips = vec![VIP];
    bcfg.learn_from_ip = true;
    bcfg.promiscuous = true; // the deliver() helper addresses the primary's MAC
    bcfg.tcp = TcpConfig::st_tcp_backup();
    let mut stack = NetStack::new(bcfg);
    stack.listen(80);
    let now = SimTime::ZERO;
    // Shadow sees the SYN and the handshake ACK, establishes (hand-rolled).
    let mut syn = TcpSegment::bare(40000, 80, 5000, 0, TcpFlags::SYN, 17520);
    syn.options = vec![wire::TcpOption::Mss(1460)];
    deliver(&mut stack, now, &syn);
    let _ = stack.poll(now); // suppressed SYN/ACK (not actually suppressed here; fine)
    let ack = TcpSegment::bare(40000, 80, 5001, 999_001, TcpFlags::ACK, 17520);
    deliver(&mut stack, now, &ack);
    let sock = stack.accept(80).expect("shadow established");
    let rcv_nxt = stack.tcb(sock).unwrap().rcv_nxt();
    let mut engine = backup(cfg);
    engine.on_accept(sock, &mut stack);
    (engine, stack, rcv_nxt)
}

fn missing_reqs(msgs: &[SideMsg]) -> usize {
    msgs.iter().filter(|m| matches!(m, SideMsg::MissingReq { .. })).count()
}

#[test]
fn backup_retries_stale_missing_requests() {
    // A request is stale once a second frontier entry finds it in flight.
    let (mut engine, mut stack, rcv_nxt) = backup_with_shadow(cfg());
    let gap = frontier(rcv_nxt.add(400), None);
    // The primary's frontier reveals a 400-byte gap: ask for it.
    engine.on_side_msg(ms(0), PRIMARY, gap.clone(), &mut stack);
    let first = sent(&mut engine);
    assert_eq!(first, [SideMsg::MissingReq { conn: key(), from: rcv_nxt.raw(), len: 400 }]);
    // The backup keeps no clock of its own: ticks only ack, however late
    // (the heartbeats in between carry no entry).
    for at in [150, 300, 450] {
        let idle = SideMsg::Heartbeat { seq: at, epoch: 0, entries: vec![] };
        engine.on_side_msg(ms(at), PRIMARY, idle, &mut stack);
        engine.on_tick(ms(at), &mut stack);
        let tick = sent(&mut engine);
        assert_eq!(missing_reqs(&tick), 0, "{at} ms: {tick:?}");
    }
    // The first entry since the request lets it be; the second finds it
    // still in flight and asks again.
    engine.on_side_msg(ms(500), PRIMARY, gap.clone(), &mut stack);
    assert_eq!(sent(&mut engine), []);
    engine.on_side_msg(ms(550), PRIMARY, gap.clone(), &mut stack);
    assert_eq!(sent(&mut engine), first, "the unanswered request is asked again");
    assert_eq!(engine.stats.missing_reqs, 2);
    // Recovery data clears the gap; no further requests.
    let missing = vec![3u8; 400];
    engine.on_side_msg(
        ms(560),
        PRIMARY,
        SideMsg::MissingData { conn: key(), seq: rcv_nxt.raw(), data: Bytes::from(missing) },
        &mut stack,
    );
    let sock = stack.sock_by_quad(key().server_quad()).unwrap();
    assert_eq!(stack.tcb(sock).unwrap().rcv_nxt(), rcv_nxt.add(400));
    assert_eq!(engine.stats.missing_bytes_recovered, 400);
    assert_eq!(sent(&mut engine), [], "the answered request asks for nothing more");
    // The forced tick acks the recovered bytes, and that ack is its
    // heartbeat: nothing else goes out.
    engine.on_tick(ms(600), &mut stack);
    let acked = SideMsg::BackupAck { conn: key(), acked_next: rcv_nxt.add(400).raw() };
    assert_eq!(sent(&mut engine), [acked]);
    // A tick that owes no ack still says hello, with an empty batch.
    engine.on_tick(ms(650), &mut stack);
    assert_eq!(sent(&mut engine), [SideMsg::AckBatch { entries: vec![] }]);
    assert_eq!(engine.stats.missing_reqs, 2);
}

#[test]
fn an_entry_for_a_held_connection_re_acks_it_in_the_next_tick_only() {
    // Rank 1 of a three-member chain self-releases one ack behind its
    // own acks. Its shadow holds 10 bytes, then 10 more; the app reads
    // each, and each tick acks them.
    let (mut rank1, mut stack) = shadowing(BACKUP, 12 * 1024, 1);
    let sock = stack.sock_by_quad(key().server_quad()).unwrap();
    let mut buf = [0u8; 64];
    assert_eq!(stack.read(sock, &mut buf).unwrap(), 10);
    rank1.maybe_send_acks(&mut stack, true);
    assert_eq!(sent(&mut rank1), [SideMsg::BackupAck { conn: key(), acked_next: 5011 }]);
    let mut more = TcpSegment::bare(40000, 80, 5011, 999_001, TcpFlags::ACK, 17520);
    more.payload = Bytes::from_static(b"abcdefghij");
    deliver(&mut stack, ms(10), &more);
    assert_eq!(stack.read(sock, &mut buf).unwrap(), 10);
    rank1.note_activity(key());
    rank1.on_tick(ms(50), &mut stack);
    let acked = SideMsg::BackupAck { conn: key(), acked_next: 5021 };
    assert_eq!(sent(&mut rank1), std::slice::from_ref(&acked));
    let retained = stack.tcb(sock).unwrap().retained();
    assert!(retained > 0, "rank 1 keeps history behind its acks for rank 2");
    // That ack was lost: the primary's frontier entry quotes an ACK the
    // shadow holds. Nothing goes out at once, a pump adds nothing, and
    // the next tick's batch carries the one re-ack.
    let held = SideMsg::Heartbeat { seq: 2, epoch: 0, entries: vec![(key(), 5021, None)] };
    rank1.on_side_msg(ms(60), PRIMARY, held.clone(), &mut stack);
    rank1.maybe_send_acks(&mut stack, false);
    assert_eq!(sent(&mut rank1), []);
    rank1.on_tick(ms(100), &mut stack);
    assert_eq!(sent(&mut rank1), [acked], "exactly one re-ack, in the tick");
    assert_eq!(rank1.stats.missing_reqs, 0);
    assert_eq!(
        stack.tcb(sock).unwrap().retained(),
        retained,
        "a re-ack leaves the self-release point where it was"
    );
    rank1.on_tick(ms(150), &mut stack);
    assert_eq!(sent(&mut rank1), [SideMsg::AckBatch { entries: vec![] }], "and only once");
    // Two entries before one tick still owe one re-ack.
    rank1.on_side_msg(ms(160), PRIMARY, held.clone(), &mut stack);
    rank1.on_side_msg(ms(170), PRIMARY, held, &mut stack);
    rank1.on_tick(ms(200), &mut stack);
    assert_eq!(sent(&mut rank1), [SideMsg::BackupAck { conn: key(), acked_next: 5021 }]);
}

#[test]
fn an_empty_reply_clears_the_request_and_asks_the_logger_only_if_there_is_one() {
    for logger in [false, true] {
        let cfg = if logger { cfg().with_logger() } else { cfg() };
        let (mut engine, mut stack, rcv_nxt) = backup_with_shadow(cfg);
        let gap = frontier(rcv_nxt.add(400), None);
        engine.on_side_msg(ms(0), PRIMARY, gap.clone(), &mut stack);
        assert_eq!(missing_reqs(&sent(&mut engine)), 1);
        // The primary no longer holds the range: it replies with no bytes.
        let refusal = SideMsg::MissingData { conn: key(), seq: rcv_nxt.raw(), data: Bytes::new() };
        engine.on_side_msg(ms(10), PRIMARY, refusal, &mut stack);
        assert_eq!(sent(&mut engine), [], "logger {logger}");
        let queries = engine.take_logger_queries();
        assert_eq!(queries.len(), usize::from(logger), "logger {logger}: {queries:?}");
        if let Some(q) = queries.first() {
            assert_eq!(q.seq_from, rcv_nxt.raw(), "the query starts at the shadow's gap");
        }
        // The request is cleared: the very next entry asks afresh.
        engine.on_side_msg(ms(50), PRIMARY, gap, &mut stack);
        assert_eq!(missing_reqs(&sent(&mut engine)), 1, "logger {logger}");
        assert_eq!(engine.stats.missing_bytes_recovered, 0);
    }
}

#[test]
fn backup_detection_fires_after_three_silent_intervals() {
    let mut engine = backup(cfg());
    let mut stack = backup_stack();
    engine.on_side_msg(
        SimTime::ZERO,
        PRIMARY,
        SideMsg::Heartbeat { seq: 1, epoch: 0, entries: vec![] },
        &mut stack,
    );
    // Tick just inside the window: no suspicion.
    engine.on_tick(ms(150), &mut stack);
    assert!(!engine.has_taken_over());
    assert!(stack.is_suppressed(VIP));
    assert_eq!(engine.tick_interval(), cfg().effective_sync_time());
    // One more silent tick: takeover, in the same instant (§4.4 — the
    // last candidate never waits on its lag).
    engine.on_tick(ms(200), &mut stack);
    assert!(engine.has_taken_over());
    assert!(!stack.is_suppressed(VIP), "takeover lifts the suppression");
    assert_eq!(engine.suspected_at(), Some(ms(200)));
    assert_eq!(engine.takeover_at(), engine.suspected_at());
    assert_eq!(engine.take_fence_request(), None, "no fencing hardware configured");
}

#[test]
fn heartbeats_defer_detection() {
    let mut engine = backup(cfg());
    let mut stack = backup_stack();
    for i in 1..100u64 {
        let hb = SideMsg::Heartbeat { seq: i, epoch: 0, entries: vec![] };
        engine.on_side_msg(ms(50 * i), PRIMARY, hb, &mut stack);
        engine.on_tick(ms(50 * i), &mut stack);
    }
    assert!(!engine.has_taken_over());
    assert_eq!(engine.stats.hbs_received, 99);
}

#[test]
fn fencing_requested_when_configured() {
    let mut engine = backup(cfg().with_fencing(7));
    let mut stack = backup_stack();
    engine.on_tick(ms(1000), &mut stack);
    assert!(engine.has_taken_over());
    assert_eq!(engine.take_fence_request(), Some(7));
    assert_eq!(engine.take_fence_request(), None, "fence request is one-shot");
}

#[test]
fn cold_replay_standby_serves_only_after_restart_and_replay() {
    use sttcp::config::TakeoverPolicy;
    let mut cold = cfg();
    cold.takeover_policy = TakeoverPolicy::ColdReplay {
        restart_delay: SimDuration::from_millis(500),
        replay_rate_bps: 1 << 20,
    };
    let mut engine = backup(cold);
    let mut stack = backup_stack();
    engine.on_tick(ms(200), &mut stack);
    assert_eq!(engine.suspected_at(), Some(ms(200)));
    assert!(!engine.has_taken_over(), "the replacement process is still starting");
    engine.on_tick(ms(650), &mut stack);
    assert!(!engine.has_taken_over());
    // No connection history to replay: ready at suspicion + restart.
    engine.on_tick(ms(700), &mut stack);
    assert_eq!(engine.takeover_at(), Some(ms(700)));
}

#[test]
fn unknown_conn_tapped_ack_is_ignored_without_a_logger() {
    let mut engine = backup(cfg());
    let mut stack = backup_stack();
    for cong in [None, Some((29_200, 14_600))] {
        engine.on_side_msg(SimTime::ZERO, PRIMARY, frontier(SeqNum(1001), cong), &mut stack);
    }
    assert!(sent(&mut engine).is_empty());
    assert_eq!(engine.stats.missing_reqs, 0);
    assert_eq!(engine.stats.bootstrap_queries, 0);
    assert!(engine.take_logger_queries().is_empty());
}

#[test]
fn unknown_conn_syn_ack_triggers_bootstrap() {
    // The tap lost the SYN, so no shadow answered it: the primary's
    // frontier entry is the evidence the connection exists, and it must
    // fire the logger bootstrap.
    let mut engine = backup(cfg().with_logger());
    let mut stack = backup_stack();
    engine.on_side_msg(SimTime::ZERO, PRIMARY, frontier(SeqNum(1001), None), &mut stack);
    assert_eq!(engine.stats.bootstrap_queries, 1);
    let queries = engine.take_logger_queries();
    assert_eq!(queries.len(), 1);
    // The replay window is anchored by the entry's ACK and must cover
    // the client's ISN (1000, one below the ACK).
    let q = &queries[0];
    assert!(q.seq_from.wrapping_sub(1000) as i32 <= 0, "window must reach back to the ISN");
    assert!(1000u32.wrapping_sub(q.seq_to) as i32 <= 0, "window must extend past the ISN");
}

#[test]
fn closing_a_connection_forgets_its_bootstrap_attempt() {
    // `on_close` leaves no per-connection record behind, so the engine's
    // state is bounded by open connections: a connection that closes and
    // reappears under the same key is a new one, not a retry.
    let mut engine = backup(cfg().with_logger());
    let mut stack = backup_stack();
    let mut entry = |engine: &mut ClusterEngine| {
        engine.on_side_msg(ms(10), PRIMARY, frontier(SeqNum(1001), None), &mut stack);
        engine.take_logger_queries().len()
    };
    assert_eq!(entry(&mut engine), 1, "no shadow: ask the logger");
    assert_eq!(entry(&mut engine), 0, "at most one query per 2 × SyncTime");
    engine.on_close(key());
    assert_eq!(entry(&mut engine), 1, "the closed connection's attempt is forgotten");
    assert_eq!(engine.stats.bootstrap_queries, 2);
}

#[test]
fn takeover_is_idempotent_under_continued_silence() {
    let mut stack = backup_stack();
    let mut engine = backup(cfg());
    engine.on_tick(ms(1000), &mut stack);
    assert!(engine.has_taken_over());
    let first_takeover = engine.takeover_at();
    // More silent ticks must not move the takeover timestamp or
    // re-suppress anything. The primary it replaced is fenced or dead
    // (§3.2, §4.4): the promoted node sends it nothing — no heartbeat,
    // no ack, no missing-segment request — and, as the last member of
    // the pair, has nobody else to talk to.
    let _ = sent(&mut engine);
    for i in 2..10u64 {
        engine.on_tick(ms(1000 * i), &mut stack);
        let mut out = Vec::new();
        engine.drain_outbox_into(&mut out);
        assert!(out.iter().all(|(to, _)| *to != PRIMARY), "tick {i} talks to the dead: {out:?}");
        assert!(out.is_empty(), "tick {i}: {out:?}");
    }
    assert_eq!(engine.takeover_at(), first_takeover);
    assert!(!stack.is_suppressed(VIP));
}

/// The frontier entries of the heartbeats in `msgs`.
fn entries(msgs: &[SideMsg]) -> Vec<FrontierEntry> {
    let entries = |m: &SideMsg| match m {
        SideMsg::Heartbeat { entries, .. } => entries.clone(),
        _ => Vec::new(),
    };
    msgs.iter().flat_map(entries).collect()
}

#[test]
fn primary_mirrors_congestion_snapshots_only_on_change() {
    let (mut stack, _) = primary_with_data(b"hello");
    let sock = stack.sock_by_quad(key().server_quad()).unwrap();
    let ack = stack.tcb(sock).unwrap().ack_seq().raw();
    let snap = stack.tcb(sock).unwrap().export_congestion();
    let mut engine = primary(cfg().with_cong_sync());
    // The backup has acked all 5 bytes: the connection leads it nowhere,
    // and only its congestion snapshot is owed.
    engine.on_side_msg(
        ms(10),
        BACKUP,
        SideMsg::BackupAck { conn: key(), acked_next: ack },
        &mut stack,
    );
    engine.note_activity(key());
    engine.on_tick(ms(50), &mut stack);
    let first = sent(&mut engine);
    assert!(
        matches!(first.as_slice(), [SideMsg::Heartbeat { seq: 1, epoch: 0, .. }]),
        "one heartbeat carries the tick: {first:?}"
    );
    assert_eq!(entries(&first), [(key(), ack, Some((snap.cwnd, snap.ssthresh)))]);
    // Touched again, but nothing changed the window: the next
    // heartbeat owes nothing.
    engine.note_activity(key());
    engine.on_tick(ms(100), &mut stack);
    let again = sent(&mut engine);
    assert_eq!(entries(&again), [], "unchanged snapshot must not be rebroadcast");
}

#[test]
fn primary_with_cong_sync_off_never_mirrors() {
    let (mut stack, _) = primary_with_data(b"hello");
    let mut engine = primary(cfg());
    engine.note_activity(key());
    engine.on_tick(ms(50), &mut stack);
    assert_eq!(entries(&sent(&mut engine)), [], "the backup's ack of this tick is in flight");
    engine.on_tick(ms(100), &mut stack);
    let second = entries(&sent(&mut engine));
    assert_eq!(second.len(), 1, "a tick later the unacked 5 bytes are owed: {second:?}");
    assert!(second.iter().all(|&(_, _, cong)| cong.is_none()), "{second:?}");
}

#[test]
fn an_entry_is_owed_only_for_bytes_the_backup_had_a_tick_to_ack() {
    // The backup's ack tick falls on the primary's heartbeat, so bytes
    // that arrived since the previous heartbeat are acked by a datagram
    // still in flight. The heartbeat judges the frontier it held one
    // tick earlier: an acked connection costs no entry, an omission
    // costs one a tick later.
    let (mut stack, data_start) = primary_with_data(b"hello");
    let mut engine = primary(cfg());
    engine.note_activity(key());
    engine.on_tick(ms(50), &mut stack);
    assert_eq!(entries(&sent(&mut engine)), []);
    let acked = SideMsg::BackupAck { conn: key(), acked_next: data_start.add(5).raw() };
    engine.on_side_msg(ms(51), BACKUP, acked, &mut stack);
    engine.on_tick(ms(100), &mut stack);
    assert_eq!(entries(&sent(&mut engine)), [], "acked within the tick: nothing owed");
    // Acked short of the frontier: the two missing bytes are an entry.
    let (mut stack, data_start) = primary_with_data(b"hello");
    let mut engine = primary(cfg());
    engine.note_activity(key());
    engine.on_tick(ms(50), &mut stack);
    let short = SideMsg::BackupAck { conn: key(), acked_next: data_start.add(3).raw() };
    engine.on_side_msg(ms(51), BACKUP, short, &mut stack);
    engine.on_tick(ms(100), &mut stack);
    let ack = data_start.add(5).raw();
    assert_eq!(entries(&sent(&mut engine)), [(key(), ack, None)]);
}

#[test]
fn backup_applies_mirrored_congestion_snapshot() {
    use tcpstack::CongestionController;
    // The shadow stack holds the same established quad as the primary.
    let (mut stack, _) = primary_with_data(b"hello");
    let mut engine = backup(cfg());
    let sock = stack.sock_by_quad(key().server_quad()).unwrap();
    let before = stack.tcb(sock).unwrap().congestion().cwnd();
    assert_ne!(before, 99_280, "pick a snapshot distinguishable from the default");
    let ack = stack.tcb(sock).unwrap().ack_seq();
    engine.on_side_msg(ms(10), PRIMARY, frontier(ack, Some((99_280, 7_300))), &mut stack);
    let cong = stack.tcb(sock).unwrap().congestion();
    assert_eq!(cong.cwnd(), 99_280);
    assert_eq!(cong.ssthresh(), 7_300);
}

const BACKUP2: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 4);

fn chain() -> Topology {
    Topology::new(vec![PRIMARY, BACKUP, BACKUP2])
}

/// The chain member `ip` as a backup with an X threshold of `x` bytes,
/// and its stack shadowing `conns` connections, each 10 bytes into its
/// client's stream and queued for the next ack pass.
fn shadowing(ip: Ipv4Addr, x: usize, conns: u16) -> (ClusterEngine, NetStack) {
    let mut bcfg = StackConfig::host(MacAddr::local(u32::from(ip.octets()[3])), ip);
    bcfg.extra_ips = vec![VIP];
    bcfg.suppressed_ips = vec![VIP];
    bcfg.promiscuous = true; // the deliver() helper addresses the primary's MAC
    bcfg.tcp = TcpConfig::st_tcp_backup();
    if ip == BACKUP {
        // Rank 1 retains for rank 2: two ack windows (`fleet::build`).
        bcfg.tcp.retention_buf = 2 * bcfg.tcp.recv_buf;
    }
    let mut stack = NetStack::new(bcfg);
    stack.listen(80);
    let now = SimTime::ZERO;
    let mut engine = ClusterEngine::new(cfg(), ip, chain(), x, now);
    for port in 40_000..40_000 + conns {
        let mut syn = TcpSegment::bare(port, 80, 5000, 0, TcpFlags::SYN, 17520);
        syn.options = vec![wire::TcpOption::Mss(1460)];
        deliver(&mut stack, now, &syn);
        let mut ack = TcpSegment::bare(port, 80, 5001, 999_001, TcpFlags::ACK, 17520);
        ack.payload = Bytes::from_static(b"0123456789");
        deliver(&mut stack, now, &ack);
        let sock = stack.accept(80).expect("shadow established");
        engine.on_accept(sock, &mut stack);
        engine.note_activity(ConnKey { client_port: port, ..key() });
    }
    (engine, stack)
}

#[test]
fn a_deep_backup_acks_at_x_without_waiting_for_the_tick() {
    // Rank 2 runs the same rule as rank 1 (§4.3): progress of X bytes is
    // acked on the pump that sees it, so the primary, which releases at
    // the minimum over its backups, is not held to the sync tick.
    let (mut rank2, mut stack) = shadowing(BACKUP2, 10, 1);
    rank2.maybe_send_acks(&mut stack, false);
    assert_eq!(sent(&mut rank2), [SideMsg::BackupAck { conn: key(), acked_next: 5011 }]);
    assert_eq!(rank2.stats.acks_threshold_triggered, 1);
    // Below X a pump owes nothing; the tick owes everything.
    let (mut rank2, mut stack) = shadowing(BACKUP2, 11, 1);
    rank2.maybe_send_acks(&mut stack, false);
    assert!(sent(&mut rank2).is_empty());
    rank2.maybe_send_acks(&mut stack, true);
    assert_eq!(sent(&mut rank2), [SideMsg::BackupAck { conn: key(), acked_next: 5011 }]);
}

#[test]
fn every_rank_acks_one_connection_alone_and_two_hundred_in_four_batches() {
    use sttcp::cluster::SIDE_CHUNK;
    for ip in [BACKUP, BACKUP2] {
        let (mut engine, mut stack) = shadowing(ip, 12 * 1024, 1);
        engine.maybe_send_acks(&mut stack, true);
        assert_eq!(
            sent(&mut engine),
            [SideMsg::BackupAck { conn: key(), acked_next: 5011 }],
            "{ip}: one connection owed is the paper's BackupAck"
        );
        assert_eq!((engine.stats.ack_batches_sent, engine.stats.acks_sent), (0, 1));

        let (mut engine, mut stack) = shadowing(ip, 12 * 1024, 200);
        engine.maybe_send_acks(&mut stack, true);
        let batches = sent(&mut engine);
        let sizes: Vec<usize> = batches
            .iter()
            .map(|m| match m {
                SideMsg::AckBatch { entries } => entries.len(),
                other => panic!("{ip}: not an ack batch: {other:?}"),
            })
            .collect();
        assert_eq!(sizes, [63, 63, 63, 11], "{ip}");
        assert!(batches.iter().all(|m| m.encode().len() <= SIDE_CHUNK));
        assert_eq!((engine.stats.ack_batches_sent, engine.stats.acks_sent), (4, 200));
        // Every entry of every datagram reaches the primary's books.
        let mut primary = ClusterEngine::new(cfg(), PRIMARY, chain(), 12 * 1024, SimTime::ZERO);
        let mut pstack = NetStack::new(StackConfig::host(MacAddr::local(2), PRIMARY));
        for msg in batches {
            let wire = SideMsg::decode(msg.encode()).expect("a batch survives the wire");
            primary.on_side_msg(SimTime::ZERO, ip, wire, &mut pstack);
        }
        assert_eq!(primary.stats.acks_applied, 200);
    }
}

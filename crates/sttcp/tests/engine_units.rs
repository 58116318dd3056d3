//! Focused engine-level tests exercising paths the end-to-end scenarios
//! cross only incidentally: missing-data chunking, request retry,
//! retention release ordering, detection, and takeover idempotence —
//! mostly on the paper's pair, i.e. [`ClusterEngine`] over the
//! two-member topology; the ack rule is also checked at rank 2.

use bytes::Bytes;
use netsim::{SimDuration, SimTime};
use std::net::Ipv4Addr;
use sttcp::cluster::Topology;
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
    assert!(
        matches!(out.as_slice(), [SideMsg::MissingNack { .. }]),
        "released bytes are gone: {out:?}"
    );
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
    assert_eq!(sent(&mut engine), vec![SideMsg::MissingNack { conn: other, from: 0 }]);
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
        vec![SideMsg::Heartbeat { seq: 1, epoch: 0 }, SideMsg::Heartbeat { seq: 2, epoch: 0 }]
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

#[test]
fn backup_retries_stale_missing_requests() {
    let mut bcfg = StackConfig::host(MacAddr::local(3), BACKUP);
    bcfg.extra_ips = vec![VIP];
    bcfg.learn_from_ip = true;
    bcfg.promiscuous = true; // the deliver() helper addresses the primary's MAC
    bcfg.tcp = TcpConfig::st_tcp_backup();
    let mut stack = NetStack::new(bcfg);
    stack.listen(80);
    let now = SimTime::ZERO;
    // Shadow sees the SYN, resyncs, establishes (hand-rolled).
    let mut syn = TcpSegment::bare(40000, 80, 5000, 0, TcpFlags::SYN, 17520);
    syn.options = vec![wire::TcpOption::Mss(1460)];
    deliver(&mut stack, now, &syn);
    let _ = stack.poll(now); // suppressed SYN/ACK (not actually suppressed here; fine)
    let ack = TcpSegment::bare(40000, 80, 5001, 999_001, TcpFlags::ACK, 17520);
    deliver(&mut stack, now, &ack);
    let sock = stack.accept(80).expect("shadow established");
    let rcv_nxt = stack.tcb(sock).unwrap().rcv_nxt();

    let mut engine = backup(cfg());
    engine.on_accept(sock, &mut stack);
    // A tapped primary ACK reveals a 400-byte gap.
    engine.on_tapped_primary_segment(now, key(), SeqNum(0), rcv_nxt.add(400), false, &mut stack);
    let first = sent(&mut engine);
    assert!(first.iter().any(|m| matches!(m, SideMsg::MissingReq { len: 400, .. })), "{first:?}");
    // No reply arrives; ticks past 2×SyncTime re-issue the request.
    engine.on_side_msg(now, PRIMARY, SideMsg::Heartbeat { seq: 1, epoch: 0 }, &mut stack);
    let later = ms(150);
    engine.on_side_msg(later, PRIMARY, SideMsg::Heartbeat { seq: 2, epoch: 0 }, &mut stack);
    engine.on_tick(later, &mut stack);
    let retried = sent(&mut engine);
    assert!(
        retried.iter().any(|m| matches!(m, SideMsg::MissingReq { .. })),
        "stale request must be retried: {retried:?}"
    );
    assert_eq!(engine.stats.missing_reqs, 2);
    // Recovery data clears the gap; no further requests.
    let missing = vec![3u8; 400];
    engine.on_side_msg(
        later,
        PRIMARY,
        SideMsg::MissingData { conn: key(), seq: rcv_nxt.raw(), data: Bytes::from(missing) },
        &mut stack,
    );
    assert_eq!(stack.tcb(sock).unwrap().rcv_nxt(), rcv_nxt.add(400));
    assert_eq!(engine.stats.missing_bytes_recovered, 400);
    let after = ms(300);
    engine.on_side_msg(after, PRIMARY, SideMsg::Heartbeat { seq: 3, epoch: 0 }, &mut stack);
    engine.on_tick(after, &mut stack);
    let quiet = sent(&mut engine);
    assert!(
        !quiet.iter().any(|m| matches!(m, SideMsg::MissingReq { .. })),
        "healed gap must not be re-requested: {quiet:?}"
    );
    // The forced tick acked the recovered bytes, and that ack is its
    // heartbeat: nothing else goes out.
    assert!(matches!(quiet.as_slice(), [SideMsg::BackupAck { .. }]), "{quiet:?}");
    // A tick that owes no ack still says hello, with an empty batch.
    engine.on_tick(ms(350), &mut stack);
    assert_eq!(sent(&mut engine), [SideMsg::AckBatch { entries: vec![] }]);
}

#[test]
fn backup_detection_fires_after_three_silent_intervals() {
    let mut engine = backup(cfg());
    let mut stack = backup_stack();
    engine.on_side_msg(SimTime::ZERO, PRIMARY, SideMsg::Heartbeat { seq: 1, epoch: 0 }, &mut stack);
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
        let hb = SideMsg::Heartbeat { seq: i, epoch: 0 };
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
    for is_syn in [false, true] {
        engine.on_tapped_primary_segment(
            SimTime::ZERO,
            key(),
            SeqNum(5000),
            SeqNum(1001),
            is_syn,
            &mut stack,
        );
    }
    assert!(sent(&mut engine).is_empty());
    assert_eq!(engine.stats.missing_reqs, 0);
    assert_eq!(engine.stats.bootstrap_queries, 0);
    assert!(engine.take_logger_queries().is_empty());
}

#[test]
fn unknown_conn_syn_ack_triggers_bootstrap() {
    // A tapped SYN/ACK for a quad with no shadow is sometimes the
    // ONLY evidence a connection exists (primary crashes before its
    // first data segment), so it must fire the logger bootstrap.
    let mut engine = backup(cfg().with_logger());
    let mut stack = backup_stack();
    engine.on_tapped_primary_segment(
        SimTime::ZERO,
        key(),
        SeqNum(5000),
        SeqNum(1001),
        true,
        &mut stack,
    );
    assert_eq!(engine.stats.bootstrap_queries, 1);
    let queries = engine.take_logger_queries();
    assert_eq!(queries.len(), 1);
    // The replay window is anchored by the SYN/ACK's ack field and
    // must cover the client's ISN (1000, one below the ack).
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
    let mut tapped_syn_ack = |engine: &mut ClusterEngine| {
        engine.on_tapped_primary_segment(
            ms(10),
            key(),
            SeqNum(5000),
            SeqNum(1001),
            true,
            &mut stack,
        );
        engine.take_logger_queries().len()
    };
    assert_eq!(tapped_syn_ack(&mut engine), 1, "no shadow: ask the logger");
    assert_eq!(tapped_syn_ack(&mut engine), 0, "at most one query per 2 × SyncTime");
    engine.on_close(key());
    assert_eq!(tapped_syn_ack(&mut engine), 1, "the closed connection's attempt is forgotten");
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

#[test]
fn primary_mirrors_congestion_snapshots_only_on_change() {
    let (mut stack, _) = primary_with_data(b"hello");
    let mut engine = primary(cfg().with_cong_sync());
    engine.on_tick(ms(50), &mut stack);
    let first = sent(&mut engine);
    assert!(
        matches!(first[0], SideMsg::Heartbeat { seq: 1, epoch: 0 }),
        "the heartbeat leads the tick: {first:?}"
    );
    let syncs: Vec<_> = first.iter().filter(|m| matches!(m, SideMsg::CongSync { .. })).collect();
    assert_eq!(syncs.len(), 1, "one established connection, one snapshot: {first:?}");
    let SideMsg::CongSync { conn, cwnd, ssthresh } = syncs[0] else { unreachable!() };
    assert_eq!(*conn, key());
    let sock = stack.sock_by_quad(key().server_quad()).unwrap();
    let snap = stack.tcb(sock).unwrap().export_congestion();
    assert_eq!((*cwnd, *ssthresh), (snap.cwnd, snap.ssthresh));
    // Nothing changed the window since: the next tick stays quiet.
    engine.on_side_msg(ms(60), BACKUP, SideMsg::AckBatch { entries: vec![] }, &mut stack);
    engine.on_tick(ms(100), &mut stack);
    let again = sent(&mut engine);
    assert!(
        !again.iter().any(|m| matches!(m, SideMsg::CongSync { .. })),
        "unchanged snapshot must not be rebroadcast: {again:?}"
    );
}

#[test]
fn primary_with_cong_sync_off_never_mirrors() {
    let (mut stack, _) = primary_with_data(b"hello");
    let mut engine = primary(cfg());
    engine.on_tick(ms(50), &mut stack);
    assert!(!sent(&mut engine).iter().any(|m| matches!(m, SideMsg::CongSync { .. })));
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
    engine.on_side_msg(
        ms(10),
        PRIMARY,
        SideMsg::CongSync { conn: key(), cwnd: 99_280, ssthresh: 7_300 },
        &mut stack,
    );
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

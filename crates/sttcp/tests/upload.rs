//! Upload-direction tests: large client→server transfers are what load
//! the primary's retention buffer (§4.2) and the backup ack strategy
//! (§4.3). Exactly-once delivery must hold at the *server application*
//! across a failover — the backup's app, fed purely by the tap and the
//! recovery machinery, must consume the identical stream.

use apps::{UploadServer, Workload};
use netsim::{DropRule, SimDuration, SimTime};
use sttcp::fleet::{self, FleetSpec};
use sttcp::scenario::{addrs, build, FaultSpec, RunLimits, ScenarioSpec};
use sttcp::{ServerNode, SttcpConfig};

fn st_cfg() -> SttcpConfig {
    SttcpConfig::new(addrs::VIP, 80)
}

#[test]
fn upload_failure_free_and_servers_agree() {
    let spec = ScenarioSpec::new(Workload::upload_mb(2)).st_tcp(st_cfg());
    let mut s = build(&spec);
    let m = s.run(RunLimits::time(SimDuration::from_secs(60))).expect_completed();
    assert!(m.verified_clean(), "confirmation must verify");
    // Both server applications consumed and verified the whole upload.
    for id in [s.primary, s.backup.unwrap()] {
        let node = s.sim.node_ref::<ServerNode>(id);
        let sock = node.accepted[0];
        let app = node.app::<UploadServer>(sock).expect("upload server app");
        assert_eq!(app.received(), 2 << 20, "{}", s.sim.node_name(id));
        assert_eq!(app.content_errors, 0, "{}", s.sim.node_name(id));
    }
    // The upload volume forced threshold-triggered backup acks.
    let eng = s.backup().unwrap();
    assert!(
        eng.stats.acks_threshold_triggered > 0,
        "2 MB of client data must trip the X-byte ack rule"
    );
}

#[test]
fn upload_throughput_and_the_x_threshold_tradeoff() {
    // §4.2/§4.3 in action. With the paper's default X = ¾ of the second
    // buffer, the retained bytes peak near X plus one side-channel RTT
    // of data — at LAN bandwidth-delay that transiently spills past the
    // second buffer and shaves the advertised window (mild throttle).
    // A smaller X keeps retention under the buffer and restores full
    // download-equal throughput, at the price of more frequent acks.
    let down = {
        let spec = ScenarioSpec::new(Workload::bulk_mb(2)).st_tcp(st_cfg());
        build(&spec)
            .run(RunLimits::time(SimDuration::from_secs(60)))
            .expect_completed()
            .total_time()
            .unwrap()
    };
    let up_default = {
        let spec = ScenarioSpec::new(Workload::upload_mb(2)).st_tcp(st_cfg());
        build(&spec)
            .run(RunLimits::time(SimDuration::from_secs(60)))
            .expect_completed()
            .total_time()
            .unwrap()
    };
    let up_small_x = {
        let mut cfg = st_cfg();
        cfg.ack_threshold = Some(4096);
        let spec = ScenarioSpec::new(Workload::upload_mb(2)).st_tcp(cfg);
        build(&spec)
            .run(RunLimits::time(SimDuration::from_secs(60)))
            .expect_completed()
            .total_time()
            .unwrap()
    };
    let ratio_default = up_default.as_secs_f64() / down.as_secs_f64();
    let ratio_small = up_small_x.as_secs_f64() / down.as_secs_f64();
    assert!(
        (1.0..1.3).contains(&ratio_default),
        "default X mildly throttles the upload: ratio {ratio_default:.3}"
    );
    assert!(
        (0.9..1.08).contains(&ratio_small),
        "small X must restore download-equal throughput: ratio {ratio_small:.3}"
    );
    assert!(ratio_small < ratio_default, "smaller X must be at least as fast");
}

#[test]
fn upload_failover_server_side_exactly_once() {
    let crash = SimTime::ZERO + SimDuration::from_millis(600);
    let spec = ScenarioSpec::new(Workload::upload_mb(2))
        .st_tcp(st_cfg())
        .faults(FaultSpec::crash_primary_at(crash));
    let mut s = build(&spec);
    let m = s.run(RunLimits::time(SimDuration::from_secs(120))).expect_completed();
    assert!(m.verified_clean());
    let backup_id = s.backup.unwrap();
    let node = s.sim.node_ref::<ServerNode>(backup_id);
    let app = node.app::<UploadServer>(node.accepted[0]).unwrap();
    assert_eq!(app.received(), 2 << 20, "backup app must see every byte exactly once");
    assert_eq!(app.content_errors, 0, "backup app stream must be bit-identical");
    assert!(node.backup_engine().unwrap().has_taken_over());
}

#[test]
fn upload_failover_with_tap_loss_and_logger() {
    // Omissions on a loaded upload stream + crash: recovery must stitch
    // the backup's stream from side channel (pre-crash) and logger
    // (post-crash) without duplicating a single byte.
    let crash = SimTime::ZERO + SimDuration::from_millis(700);
    let cfg = st_cfg().with_logger();
    let spec = ScenarioSpec::new(Workload::upload_mb(1))
        .st_tcp(cfg)
        .faults(FaultSpec::crash_primary_at(crash));
    let mut s = build(&spec);
    let backup = s.backup.unwrap();
    s.sim.add_ingress_drop(
        backup,
        DropRule::rate(0.15, |frame: &bytes::Bytes| {
            use wire::{EtherType, EthernetFrame, IpProtocol, Ipv4Packet};
            (|| {
                let eth = EthernetFrame::parse(frame.clone()).ok()?;
                if eth.ethertype != EtherType::Ipv4 {
                    return None;
                }
                let ip = Ipv4Packet::parse(eth.payload).ok()?;
                Some(ip.protocol == IpProtocol::Tcp)
            })()
            .unwrap_or(false)
        }),
    );
    let m = s.run(RunLimits::time(SimDuration::from_secs(120))).expect_completed();
    assert!(m.verified_clean());
    let node = s.sim.node_ref::<ServerNode>(backup);
    let app = node.app::<UploadServer>(node.accepted[0]).unwrap();
    assert_eq!(app.received(), 1 << 20);
    assert_eq!(app.content_errors, 0);
    let eng = node.backup_engine().unwrap();
    assert!(eng.stats.missing_bytes_recovered > 0, "side channel must have recovered bytes");
}

#[test]
fn slow_backup_acks_shrink_the_window_but_nothing_breaks() {
    // §4.2: "The behavior of ST-TCP will differ from that of standard
    // TCP if the second buffer fills up." Force that: SyncTime of 2 s,
    // X larger than the whole buffer — the backup acks only on the slow
    // timer, the retention spill shrinks the advertised window, and the
    // upload completes anyway (slower).
    // SyncTime is coupled to the heartbeat interval (the paper uses the
    // acks AS heartbeats), so starving the acks means slowing the whole
    // side channel — otherwise the primary would declare the quiet
    // backup dead after 3 missed heartbeats and rightly disable
    // retention (non-fault-tolerant mode).
    let mut cfg = st_cfg().with_hb_interval(SimDuration::from_secs(2));
    cfg.ack_threshold = Some(usize::MAX);
    let spec = ScenarioSpec::new(Workload::upload_mb(1)).st_tcp(cfg);
    let mut slow = build(&spec);
    let slow_time = slow
        .run(RunLimits::time(SimDuration::from_secs(300)))
        .expect_completed()
        .total_time()
        .unwrap();

    let fast_spec = ScenarioSpec::new(Workload::upload_mb(1)).st_tcp(st_cfg());
    let fast_time = build(&fast_spec)
        .run(RunLimits::time(SimDuration::from_secs(60)))
        .expect_completed()
        .total_time()
        .unwrap();
    assert!(
        slow_time > fast_time.saturating_mul(2),
        "starved backup acks must throttle the upload: slow={slow_time} fast={fast_time}"
    );
    // And the server apps still verified the stream.
    let node = slow.sim.node_ref::<ServerNode>(slow.primary);
    let app = node.app::<UploadServer>(node.accepted[0]).unwrap();
    assert_eq!(app.content_errors, 0);
    assert_eq!(app.received(), 1 << 20);
}

#[test]
fn a_chain_upload_finishes_as_fast_as_the_pair() {
    // Every rank acks at X (§4.3), so the primary, releasing at the
    // minimum over its backups, releases as often for a chain as for the
    // pair; a middle rank has room for the two ack windows it keeps.
    let run = |backups: usize| {
        let spec = FleetSpec::new(1).backups(backups).workload(Workload::upload_mb(5));
        let mut fleet = fleet::build(&spec);
        assert!(fleet.run_until_done(SimDuration::from_secs(60)), "N = {backups} stalled");
        assert!(fleet.verified_clean(), "N = {backups}");
        for (rank, &id) in fleet.servers.iter().enumerate() {
            let node = fleet.sim.node_ref::<ServerNode>(id);
            let app = node.app::<UploadServer>(node.accepted[0]).expect("upload server app");
            assert_eq!(app.received(), 5 << 20, "N = {backups}, rank {rank}");
            assert_eq!(fleet.engine(rank).stats.missing_reqs, 0, "N = {backups}, rank {rank}");
        }
        fleet.sim.now()
    };
    let pair = run(1);
    assert_eq!(run(2), pair);
    assert_eq!(run(3), pair);
}

#[test]
fn a_fleet_workload_override_reaches_the_servers() {
    // Connections stay open, which keeps the server's app to inspect.
    let open = |workload| FleetSpec::new(1).workload(workload);
    let mut bulk = fleet::build(&open(Workload::bulk_mb(1)));
    assert!(bulk.run_until_done(SimDuration::from_secs(60)), "1 MiB download");
    assert!(bulk.verified_clean());
    let mut upload = fleet::build(&open(Workload::upload_mb(1)));
    assert!(upload.run_until_done(SimDuration::from_secs(60)), "1 MiB upload");
    assert!(upload.verified_clean());
    for &id in &upload.servers {
        let node = upload.sim.node_ref::<ServerNode>(id);
        let app = node.app::<UploadServer>(node.accepted[0]).expect("upload server app");
        assert_eq!(app.received(), 1 << 20, "{}", upload.sim.node_name(id));
        assert_eq!(app.content_errors, 0);
    }
}

/// A client data segment on its way to the VIP.
fn client_data(frame: &bytes::Bytes) -> bool {
    (|| {
        let eth = wire::EthernetFrame::parse(frame.clone()).ok()?;
        let ip = wire::Ipv4Packet::parse(eth.payload).ok()?;
        if ip.dst != addrs::VIP || ip.protocol != wire::IpProtocol::Tcp {
            return None;
        }
        let seg = wire::TcpSegment::parse(ip.payload, ip.src, ip.dst).ok()?;
        Some(!seg.payload.is_empty())
    })()
    .unwrap_or(false)
}

#[test]
fn an_idle_gap_wider_than_one_request_heals_within_a_few_round_trips() {
    // The backup's tap loses the last ≈ 21.7 KB of a 64 KiB upload, more
    // than one 16 KiB request chunk, and the client then sits idle on
    // the open connection: nothing it sends will show the gap again.
    // The heartbeat's frontier reveals it once; each answered request
    // must ask for the next chunk at once, not wait for a heartbeat.
    let cfg = st_cfg().with_hb_interval(SimDuration::from_millis(200));
    let spec = ScenarioSpec::new(Workload::Upload { file_size: 64 * 1024 }).st_tcp(cfg);
    let mut s = build(&spec);
    let backup = s.backup.unwrap();
    s.sim.add_ingress_drop(backup, DropRule::window(30, 1_000, client_data));
    let heard = |s: &sttcp::scenario::Scenario| s.backup().unwrap().stats.missing_reqs > 0;
    let step = SimDuration::from_millis(1);
    while !heard(&s) && s.sim.now() < SimTime::ZERO + SimDuration::from_secs(2) {
        s.sim.run_until(s.sim.now() + step);
    }
    assert!(heard(&s), "the heartbeat's frontier reveals the gap");
    let asked = s.sim.now();
    let rtt = SimDuration::from_millis(10);
    s.sim.run_until(asked + rtt.saturating_mul(4));
    let next = |id| {
        let node = s.sim.node_ref::<ServerNode>(id);
        node.stack().tcb(node.accepted[0]).expect("the connection").rcv_nxt()
    };
    assert_eq!(next(backup), next(s.primary), "the shadow holds the whole upload");
    assert!(s.backup().unwrap().stats.missing_reqs >= 2, "more than one chunk was asked for");
}

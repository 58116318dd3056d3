//! Backup failure, reboot, and reintegration (extension beyond the
//! paper, which stops at the primary's transition to non-fault-tolerant
//! mode).
//!
//! Model: when the backup dies, the primary releases retention for all
//! live connections — their tap history is gone for good. When a
//! (rebooted, amnesiac) backup returns, the side channel resumes and
//! *new* connections are fully protected again; the old connection is
//! served but unprotected.

use st_tcp::apps::{EchoServer, Workload, WorkloadClient};
use st_tcp::netsim::node::PortId;
use st_tcp::netsim::{Hub, LinkSpec, SimDuration, SimTime, Simulator};
use st_tcp::sttcp::node::{ClientNode, ServerNode, LAN};
use st_tcp::sttcp::SttcpConfig;
use st_tcp::tcpstack::{StackConfig, TcpConfig};
use st_tcp::wire::MacAddr;
use std::net::Ipv4Addr;

const VIP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 100);
const PRIMARY_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const BACKUP_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);

fn secs(s: f64) -> SimDuration {
    SimDuration::from_secs_f64(s)
}

#[test]
fn rebooted_backup_reintegrates_and_protects_new_connections() {
    let mut sim = Simulator::with_seed(0xFACE);
    let st = SttcpConfig::new(VIP, 80);

    let mut p_cfg = StackConfig::host(MacAddr::local(2), PRIMARY_IP);
    p_cfg.extra_ips = vec![VIP];
    p_cfg.learn_from_ip = true;
    p_cfg.isn_seed = 22;
    p_cfg.tcp = TcpConfig::st_tcp_primary();
    let primary = sim.add_node(
        "primary",
        ServerNode::primary(p_cfg, st.clone(), BACKUP_IP, Box::new(|| Box::new(EchoServer::new()))),
    );

    let mut b_cfg = StackConfig::host(MacAddr::local(3), BACKUP_IP);
    b_cfg.extra_ips = vec![VIP];
    b_cfg.learn_from_ip = true;
    b_cfg.promiscuous = true;
    b_cfg.suppressed_ips = vec![VIP];
    b_cfg.isn_seed = 33;
    b_cfg.tcp = TcpConfig::st_tcp_backup();
    let backup = sim.add_node(
        "backup",
        ServerNode::backup(b_cfg, st, PRIMARY_IP, Box::new(|| Box::new(EchoServer::new()))),
    );

    let hub = sim.add_node("hub", Hub::new(4));
    sim.connect(primary, LAN, hub, PortId(0), LinkSpec::lan());
    sim.connect(backup, LAN, hub, PortId(1), LinkSpec::lan());

    // Client 1 connects immediately; its run lasts ~3 s (300 requests).
    let mut c1_cfg = StackConfig::host(MacAddr::local(101), Ipv4Addr::new(10, 0, 0, 11));
    c1_cfg.isn_seed = 1001;
    let c1 = sim.add_node(
        "client1",
        ClientNode::new(
            c1_cfg,
            (VIP, 80),
            SimDuration::from_millis(1),
            WorkloadClient::new(Workload::Echo { requests: 300 }),
        ),
    );
    sim.connect(c1, LAN, hub, PortId(2), LinkSpec::lan());

    // Client 2 connects AFTER the backup has rebooted and reintegrated.
    let mut c2_cfg = StackConfig::host(MacAddr::local(102), Ipv4Addr::new(10, 0, 0, 12));
    c2_cfg.isn_seed = 1002;
    let c2 = sim.add_node(
        "client2",
        ClientNode::new(
            c2_cfg,
            (VIP, 80),
            SimDuration::from_millis(1200),
            WorkloadClient::new(Workload::Echo { requests: 100 }),
        ),
    );
    sim.connect(c2, LAN, hub, PortId(3), LinkSpec::lan());

    // Backup dies at 0.3 s, reboots at 0.8 s.
    sim.schedule_crash(backup, SimTime::ZERO + secs(0.3));
    sim.schedule_power_on(backup, SimTime::ZERO + secs(0.8));

    // Let the death be detected and the reintegration happen.
    sim.run_until(SimTime::ZERO + secs(1.1));
    {
        let p = sim.node_ref::<ServerNode>(primary);
        let eng = p.engine().unwrap();
        assert!(eng.backup_alive(), "rebooted backup must have reintegrated by 1.1s");
        assert_eq!(eng.stats.reintegrations, 1);
        let b = sim.node_ref::<ServerNode>(backup);
        assert_eq!(b.boot_count, 2);
        assert_eq!(b.accepted.len(), 0, "amnesiac backup knows no old connections");
    }

    // Run until both clients finish.
    let deadline = SimTime::ZERO + secs(30.0);
    loop {
        sim.run_for(secs(0.1));
        let done1 = sim.node_ref::<ClientNode>(c1).app::<WorkloadClient>().unwrap().is_done();
        let done2 = sim.node_ref::<ClientNode>(c2).app::<WorkloadClient>().unwrap().is_done();
        if done1 && done2 {
            break;
        }
        assert!(sim.now() < deadline, "clients must finish (done1={done1}, done2={done2})");
    }
    for c in [c1, c2] {
        let app = sim.node_ref::<ClientNode>(c).app::<WorkloadClient>().unwrap();
        assert!(app.metrics.verified_clean());
    }
    // The reintegrated backup shadows client 2's (new) connection...
    let b = sim.node_ref::<ServerNode>(backup);
    assert_eq!(b.accepted.len(), 1, "exactly the post-reboot connection is shadowed");
    // ...and acks it, so the primary retains for it again.
    let eng = b.backup_engine().unwrap();
    assert!(eng.stats.acks_sent > 0, "side channel resumed for the new connection");
    assert!(!eng.has_taken_over());
}

#[test]
fn new_connection_after_reintegration_survives_primary_crash() {
    // The payoff: a connection opened after the backup's reboot is fully
    // protected — crash the primary mid-run and it migrates cleanly.
    let mut sim = Simulator::with_seed(0xFACE);
    let st = SttcpConfig::new(VIP, 80);

    let mut p_cfg = StackConfig::host(MacAddr::local(2), PRIMARY_IP);
    p_cfg.extra_ips = vec![VIP];
    p_cfg.learn_from_ip = true;
    p_cfg.isn_seed = 22;
    p_cfg.tcp = TcpConfig::st_tcp_primary();
    let primary = sim.add_node(
        "primary",
        ServerNode::primary(p_cfg, st.clone(), BACKUP_IP, Box::new(|| Box::new(EchoServer::new()))),
    );
    let mut b_cfg = StackConfig::host(MacAddr::local(3), BACKUP_IP);
    b_cfg.extra_ips = vec![VIP];
    b_cfg.learn_from_ip = true;
    b_cfg.promiscuous = true;
    b_cfg.suppressed_ips = vec![VIP];
    b_cfg.isn_seed = 33;
    b_cfg.tcp = TcpConfig::st_tcp_backup();
    let backup = sim.add_node(
        "backup",
        ServerNode::backup(b_cfg, st, PRIMARY_IP, Box::new(|| Box::new(EchoServer::new()))),
    );
    let hub = sim.add_node("hub", Hub::new(3));
    sim.connect(primary, LAN, hub, PortId(0), LinkSpec::lan());
    sim.connect(backup, LAN, hub, PortId(1), LinkSpec::lan());

    // Backup power-cycles early; the client connects after reintegration.
    sim.schedule_crash(backup, SimTime::ZERO + secs(0.1));
    sim.schedule_power_on(backup, SimTime::ZERO + secs(0.5));
    let mut c_cfg = StackConfig::host(MacAddr::local(101), Ipv4Addr::new(10, 0, 0, 11));
    c_cfg.isn_seed = 1001;
    let client = sim.add_node(
        "client",
        ClientNode::new(
            c_cfg,
            (VIP, 80),
            SimDuration::from_millis(900),
            WorkloadClient::new(Workload::Echo { requests: 100 }),
        ),
    );
    sim.connect(client, LAN, hub, PortId(2), LinkSpec::lan());
    // Crash the primary mid-run of the new connection.
    sim.schedule_crash(primary, SimTime::ZERO + secs(1.4));

    let deadline = SimTime::ZERO + secs(30.0);
    loop {
        sim.run_for(secs(0.1));
        if sim.node_ref::<ClientNode>(client).app::<WorkloadClient>().unwrap().is_done() {
            break;
        }
        assert!(sim.now() < deadline, "run must complete after failover");
    }
    let app = sim.node_ref::<ClientNode>(client).app::<WorkloadClient>().unwrap();
    assert!(app.metrics.verified_clean());
    assert_eq!(app.metrics.latencies.len(), 100);
    let b = sim.node_ref::<ServerNode>(backup);
    assert!(b.backup_engine().unwrap().has_taken_over(), "the reintegrated backup took over");
}

#[test]
fn chain_reintegration_releases_retention_for_new_connections_again() {
    // The chain variant: both backups of a two-backup chain die, one
    // returns. The primary must leave non-fault-tolerant mode for *new*
    // connections — apply the returned backup's acks and release its
    // retention by them. (The chain engine used to latch retention off
    // for good once the last backup died and discard every later ack: a
    // post-reintegration connection then filled the second buffer,
    // spilled into the first, closed the advertised window and stalled.)
    use st_tcp::sttcp::fleet::{self, FleetSpec};
    // 400 × 150 B of requests ≫ recv_buf + retention_buf (2 × 17 520 B):
    // the connection stalls unless its retention keeps being released.
    let mut spec =
        FleetSpec::new(3).backups(2).closing().workload(Workload::Echo { requests: 400 });
    // Client 0 connects at once and lives through the outage; client 1
    // connects at 0.6 s, in the middle of it (both served unprotected:
    // with nobody to ack, neither may retain); client 2 connects at
    // 1.2 s, after rank 1 has rebooted.
    spec.connect_spread = SimDuration::from_millis(1200);
    for rank in [1, 2] {
        spec = spec.crash(rank, SimTime::ZERO + secs(0.3));
    }
    let mut fleet = fleet::build(&spec);
    fleet.sim.schedule_power_on(fleet.servers[1], SimTime::ZERO + secs(0.8));

    fleet.sim.run_until(SimTime::ZERO + secs(0.7));
    let eng = fleet.engine(0);
    assert!(!eng.backup_alive(), "both backups silent: non-fault-tolerant mode");
    assert!(eng.backup_dead_at().is_some());
    let acks_before = eng.stats.acks_applied;

    fleet.sim.run_until(SimTime::ZERO + secs(1.1));
    let eng = fleet.engine(0);
    assert!(eng.backup_alive(), "rank 1 rebooted and reintegrated by 1.1 s");
    assert_eq!(eng.backup_dead_at(), None);
    assert_eq!(eng.stats.reintegrations, 1, "rank 2 stays dead");

    assert!(
        fleet.run_until_done(secs(30.0)),
        "no connection may stall — not the mid-outage one, not the post-reintegration one"
    );
    assert!(fleet.verified_clean());
    assert!(
        fleet.engine(0).stats.acks_applied > acks_before,
        "the returned backup's acks count again"
    );
    let b = fleet.sim.node_ref::<ServerNode>(fleet.servers[1]);
    assert_eq!(b.boot_count, 2);
    assert_eq!(b.accepted.len(), 1, "exactly the post-reboot connection is shadowed");
    assert!(!fleet.engine(1).has_taken_over());
}

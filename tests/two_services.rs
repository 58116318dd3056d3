//! Two independent ST-TCP service pairs sharing one broadcast LAN: both
//! backups run promiscuous taps, so every frame reaches every NIC — the
//! VIP-based demux and the per-pair side channels must keep the services
//! perfectly isolated, including when only ONE primary crashes.

use st_tcp::apps::{EchoServer, InteractiveServer, Workload, WorkloadClient};
use st_tcp::netsim::node::PortId;
use st_tcp::netsim::{Hub, LinkSpec, SimDuration, SimTime, Simulator};
use st_tcp::sttcp::node::{ClientNode, ServerNode, LAN};
use st_tcp::sttcp::SttcpConfig;
use st_tcp::tcpstack::{StackConfig, TcpConfig};
use st_tcp::wire::MacAddr;
use std::net::Ipv4Addr;

const VIP_A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 100);
const VIP_B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 200);

struct Pair {
    primary: st_tcp::netsim::NodeId,
    backup: st_tcp::netsim::NodeId,
}

#[allow(clippy::too_many_arguments)]
fn add_pair(
    sim: &mut Simulator,
    hub: st_tcp::netsim::NodeId,
    ports: (usize, usize),
    vip: Ipv4Addr,
    primary_ip: Ipv4Addr,
    backup_ip: Ipv4Addr,
    side_port: u16,
    mac_base: u32,
    echo: bool,
) -> Pair {
    let mut st = SttcpConfig::new(vip, 80);
    st.side_channel_port = side_port;

    let factory = move || -> Box<dyn st_tcp::apps::Application> {
        if echo {
            Box::new(EchoServer::new())
        } else {
            Box::new(InteractiveServer::with_sizes(st_tcp::apps::REQUEST_SIZE, 4096))
        }
    };

    let mut p_cfg = StackConfig::host(MacAddr::local(mac_base), primary_ip);
    p_cfg.extra_ips = vec![vip];
    p_cfg.learn_from_ip = true;
    p_cfg.isn_seed = u64::from(mac_base) * 7 + 1;
    p_cfg.tcp = TcpConfig::st_tcp_primary();
    let primary = sim.add_node(
        format!("primary-{vip}"),
        ServerNode::primary(p_cfg, st.clone(), backup_ip, Box::new(factory)),
    );

    let mut b_cfg = StackConfig::host(MacAddr::local(mac_base + 1), backup_ip);
    b_cfg.extra_ips = vec![vip];
    b_cfg.learn_from_ip = true;
    b_cfg.promiscuous = true; // sees the OTHER service's frames too
    b_cfg.suppressed_ips = vec![vip];
    b_cfg.isn_seed = u64::from(mac_base) * 7 + 2;
    b_cfg.tcp = TcpConfig::st_tcp_backup();
    let backup = sim.add_node(
        format!("backup-{vip}"),
        ServerNode::backup(b_cfg, st, primary_ip, Box::new(factory)),
    );

    sim.connect(primary, LAN, hub, PortId(ports.0), LinkSpec::lan());
    sim.connect(backup, LAN, hub, PortId(ports.1), LinkSpec::lan());
    Pair { primary, backup }
}

#[test]
fn two_pairs_coexist_and_one_failover_does_not_disturb_the_other() {
    let mut sim = Simulator::with_seed(0x2AC3);
    let hub = sim.add_node("hub", Hub::new(6));
    let pair_a = add_pair(
        &mut sim,
        hub,
        (0, 1),
        VIP_A,
        Ipv4Addr::new(10, 0, 0, 2),
        Ipv4Addr::new(10, 0, 0, 3),
        7077,
        10,
        true,
    );
    let pair_b = add_pair(
        &mut sim,
        hub,
        (2, 3),
        VIP_B,
        Ipv4Addr::new(10, 0, 0, 4),
        Ipv4Addr::new(10, 0, 0, 5),
        7078,
        20,
        false,
    );

    let mut ca_cfg = StackConfig::host(MacAddr::local(101), Ipv4Addr::new(10, 0, 0, 11));
    ca_cfg.isn_seed = 501;
    let client_a = sim.add_node(
        "client-a",
        ClientNode::new(
            ca_cfg,
            (VIP_A, 80),
            SimDuration::from_millis(1),
            WorkloadClient::new(Workload::Echo { requests: 150 }),
        ),
    );
    sim.connect(client_a, LAN, hub, PortId(4), LinkSpec::lan());

    let mut cb_cfg = StackConfig::host(MacAddr::local(102), Ipv4Addr::new(10, 0, 0, 12));
    cb_cfg.isn_seed = 502;
    let client_b = sim.add_node(
        "client-b",
        ClientNode::new(
            cb_cfg,
            (VIP_B, 80),
            SimDuration::from_millis(3),
            WorkloadClient::new(Workload::Interactive { requests: 150, reply_size: 4096 }),
        ),
    );
    sim.connect(client_b, LAN, hub, PortId(5), LinkSpec::lan());

    // Crash ONLY service A's primary, mid-run.
    sim.schedule_crash(pair_a.primary, SimTime::ZERO + SimDuration::from_millis(400));

    let deadline = SimTime::ZERO + SimDuration::from_secs(30);
    loop {
        sim.run_for(SimDuration::from_millis(50));
        let da = sim.node_ref::<ClientNode>(client_a).app::<WorkloadClient>().unwrap().is_done();
        let db = sim.node_ref::<ClientNode>(client_b).app::<WorkloadClient>().unwrap().is_done();
        if da && db {
            break;
        }
        assert!(sim.now() < deadline, "both services must complete (a={da}, b={db})");
    }

    for (client, expected_bytes) in [(client_a, 150 * 150u64), (client_b, 150 * 4096u64)] {
        let app = sim.node_ref::<ClientNode>(client).app::<WorkloadClient>().unwrap();
        assert!(app.metrics.verified_clean());
        assert_eq!(app.metrics.bytes_received, expected_bytes);
    }

    // Service A failed over; service B never did.
    assert!(sim.node_ref::<ServerNode>(pair_a.backup).backup_engine().unwrap().has_taken_over());
    assert!(!sim.node_ref::<ServerNode>(pair_b.backup).backup_engine().unwrap().has_taken_over());
    // Each backup shadowed exactly its own service.
    assert_eq!(sim.node_ref::<ServerNode>(pair_a.backup).accepted.len(), 1);
    assert_eq!(sim.node_ref::<ServerNode>(pair_b.backup).accepted.len(), 1);
    // And service B's pair stayed in fault-tolerant mode throughout.
    assert!(sim.node_ref::<ServerNode>(pair_b.primary).engine().unwrap().backup_alive());
}

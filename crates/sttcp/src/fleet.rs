//! Fleet-scale workload generator: hundreds to thousands of clients on
//! one ST-TCP replication chain — the paper's pair, or a primary with N
//! chained backups ([`FleetSpec::backups`]) — built by [`build`].
//!
//! The paper's evaluation drives a single client; the protocol,
//! however, is per-connection, and the interesting regime for a
//! backup that shadows *every* connection of a busy primary is
//! thousands of live TCBs (cf. the NF-backup and service-migration
//! scale framings in PAPERS.md). This module builds that regime as a
//! deterministic scenario, netbench-style: a seeded mix of short echo,
//! interactive, bulk-download, and upload clients against the servers
//! behind a port-mirroring switch.
//!
//! # Wiring
//!
//! Server `rank` sits on switch port `rank`; clients follow. What the
//! switch sends to the initial primary's port 0 is mirrored to every
//! *backup* port: the client's half of every conversation, which is all
//! a shadow replays. Whoever currently sources the VIP, the clients'
//! frames still go to port 0 (below), so every shadow keeps seeing them
//! — that is what lets a cascade (kill the primary, then kill its
//! successor mid-takeover) keep converging without re-wiring. What the
//! shadows need of the serving member's half rides its side-channel
//! [`crate::SideMsg::Heartbeat`]s as frontier entries. With one backup
//! this is the single primary→backup mirror of §3.1.
//!
//! The servers' stacks, the recorders and the devices the protocol
//! configuration names come from the same parts as
//! [`crate::scenario::build`]'s: the in-network packet logger sits
//! inline on the primary's hop when `st_tcp.use_logger` is set, and the
//! power switch on rank 1's management port when `st_tcp.fencing` names
//! an outlet.
//!
//! Clients keep a static `VIP → initial primary MAC` ARP entry
//! (clients are unmodified, §2): no per-client ARP broadcast, and after
//! any number of failovers their frames still flow to port 0, where the
//! mirrors carry them to the survivors.
//!
//! # Workload classes and ports
//!
//! The server cannot tell workload classes apart by content — every
//! downstream workload opens with the same 150-byte request — so each
//! class gets its own service port ([`ECHO_PORT`] … [`UPLOAD_PORT`])
//! and every server registers the same four services. Class membership,
//! per-client request counts, and connect stagger all derive from
//! [`FleetSpec::seed`] via SplitMix64, so the primary, its backups, and
//! any re-run of the same spec agree on every byte — across a failover
//! too, because the service table (not per-run state) determines the
//! app a migrated connection lands on.
//!
//! # Connections stay open
//!
//! A [`FleetSpec::new`] fleet never closes a connection, and at the end
//! of a 10 000-client run all 10 000 clients are `Established`. So a
//! peak-memory figure for such a fleet (the benchmark's
//! `peak_alloc_mb` on `fleet_churn` / `fleet_failover`) measures that
//! many idle established connections on three nodes, not churn. An
//! idle connection holds no socket ring (a drained ring's storage goes
//! to its thread's one spare) and a client stack no frame buffer (its
//! frames are carved from its thread's one arena), so at 10 000 clients
//! (seed 1) the 65 MB live at the end is, roughly: 21.2 MB of the two
//! servers' 16 384-slot slabs, 8.3 MB of it empty slots; 14.7 MB of
//! other server and simulator tables; 9.1 MB of boxed client stacks;
//! 6.5 MB of one-slot client slabs; 13.5 MB of blocks under 300 B.
//! [`FleetSpec::closing`] closes.
//!
//! # Determinism
//!
//! Everything is derived from the spec: client addresses, MACs, ISN
//! seeds, workloads, connect times — the same for every chain length,
//! so results compare across backup counts. Two [`build`]s of the same
//! spec replay bit-identically (see `tests/determinism.rs`).

use crate::cluster::{ClusterEngine, Topology};
use crate::config::{Fencing, SttcpConfig};
use crate::node::{ClientNode, ServerNode, LAN};
use crate::scenario::{
    addrs, connect_hop, drive, make_server_app, plug_power_switch, Recording, RunLimits, StopReason,
};
use apps::{EchoServer, Workload, WorkloadClient};
use netsim::node::{NodeId, PortId};
use netsim::{LinkProfile, LinkSpec, SimDuration, SimTime, Simulator, SplitMix64, Switch};
use obs::{Actor, FlightRecorder, ObsSink};
use std::net::Ipv4Addr;
use std::sync::Arc;
use tcpstack::{CongestionAlgo, StackConfig, TcpConfig};
use wire::MacAddr;

/// Echo service port (150 B ↔ 150 B exchanges).
pub const ECHO_PORT: u16 = 80;
/// Interactive service port (150 B → [`INTERACTIVE_REPLY`] B).
pub const INTERACTIVE_PORT: u16 = 81;
/// Bulk-download service port (one request → [`BULK_FILE`] B).
pub const BULK_PORT: u16 = 82;
/// Upload service port ([`UPLOAD_FILE`] B up → 150 B confirmation).
pub const UPLOAD_PORT: u16 = 83;

/// Reply size of the fleet's interactive class. Class-wide (not
/// per-client): the server app on [`INTERACTIVE_PORT`] must agree with
/// every client that connects there.
pub const INTERACTIVE_REPLY: usize = 2048;
/// Download size of the fleet's bulk class.
pub const BULK_FILE: u64 = 16 * 1024;
/// Upload size of the fleet's upload class.
pub const UPLOAD_FILE: u64 = 8 * 1024;

/// Everything needed to build one fleet run.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// Number of workload clients.
    pub clients: usize,
    /// Number of backups (chain length N; 1 is the paper's pair).
    pub backups: usize,
    /// Master seed: workload mix, request counts, stagger jitter, ISNs.
    pub seed: u64,
    /// Per-hop link characteristics.
    pub link: LinkSpec,
    /// ST-TCP protocol configuration (heartbeats, thresholds), and the
    /// devices it talks to: the logger when `use_logger`, the power
    /// switch when `fencing` names an outlet.
    pub st_tcp: SttcpConfig,
    /// TCP tuning template (role flags applied automatically).
    pub tcp: TcpConfig,
    /// Window over which client connects are staggered (first connect
    /// at 1 ms, last at 1 ms + spread).
    pub connect_spread: SimDuration,
    /// Give every client this workload instead of the seeded mix
    /// (single-scenario demos like `examples/double_failure_logger`).
    pub workload: Option<Workload>,
    /// Have each client close its connection after its final response.
    pub close_when_done: bool,
    /// Crash the primary at this instant, if set.
    pub crash_primary_at: Option<SimTime>,
    /// Backup crash schedule: `(server rank ≥ 1, instant)` pairs — rank
    /// 1 is the primary's first successor, and so on.
    pub crashes: Vec<(usize, SimTime)>,
    /// Planned migration: `drain_and_handover()` to the rank-`r`
    /// backup starting at the instant.
    pub migrate: Option<(SimTime, u8)>,
    /// Record protocol counters into a shared [`ObsSink`].
    pub record_obs: bool,
    /// Flight-recorder ring capacity, when tracing.
    pub trace_capacity: Option<usize>,
}

impl FleetSpec {
    /// A fleet of `clients` against the paper's pair, with the standard
    /// seed and calibrated LAN links; connections stay open.
    pub fn new(clients: usize) -> Self {
        FleetSpec {
            clients,
            backups: 1,
            seed: 0xF1EE7,
            link: LinkSpec::lan(),
            st_tcp: SttcpConfig::new(addrs::VIP, ECHO_PORT),
            tcp: TcpConfig::default(),
            connect_spread: SimDuration::from_millis(200),
            workload: None,
            close_when_done: false,
            crash_primary_at: None,
            crashes: Vec::new(),
            migrate: None,
            record_obs: false,
            trace_capacity: None,
        }
    }

    /// Serves the fleet from a primary and `backups` chained backups
    /// (builder style).
    #[must_use]
    pub fn backups(mut self, backups: usize) -> Self {
        assert!(backups >= 1, "a chain needs at least one backup");
        self.backups = backups;
        self
    }

    /// Replaces the seeded workload mix with one uniform workload
    /// (builder style).
    #[must_use]
    pub fn workload(mut self, workload: Workload) -> Self {
        self.workload = Some(workload);
        self
    }

    /// Each client closes after its final response (builder style).
    #[must_use]
    pub fn closing(mut self) -> Self {
        self.close_when_done = true;
        self
    }

    /// Sets the master seed (builder style).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Schedules a primary crash (builder style).
    #[must_use]
    pub fn crash_primary_at(mut self, at: SimTime) -> Self {
        self.crash_primary_at = Some(at);
        self
    }

    /// Schedules the crash of server `rank` (builder style; one per
    /// rank).
    #[must_use]
    pub fn crash(mut self, rank: usize, at: SimTime) -> Self {
        match rank {
            0 => self.crash_primary_at = Some(at),
            _ => self.crashes.push((rank, at)),
        }
        self
    }

    /// Schedules a planned migration (builder style).
    #[must_use]
    pub fn migrate_at(mut self, at: SimTime, successor_rank: u8) -> Self {
        self.migrate = Some((at, successor_rank));
        self
    }

    /// Staggers connects over `spread` (builder style).
    #[must_use]
    pub fn connect_spread(mut self, spread: SimDuration) -> Self {
        self.connect_spread = spread;
        self
    }

    /// Records protocol counters into a shared [`ObsSink`] (builder
    /// style).
    #[must_use]
    pub fn recording(mut self) -> Self {
        self.record_obs = true;
        self
    }

    /// Records structured trace events into a flight-recorder ring of
    /// the default capacity (builder style).
    #[must_use]
    pub fn tracing(self) -> Self {
        self.tracing_with_capacity(obs::DEFAULT_TRACE_CAPACITY)
    }

    /// Records structured trace events into a flight-recorder ring of
    /// `capacity` (builder style).
    #[must_use]
    pub fn tracing_with_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = Some(capacity);
        self
    }

    /// Applies a canned [`LinkProfile`] to every hop (builder style).
    #[must_use]
    pub fn link_profile(mut self, profile: LinkProfile) -> Self {
        self.link = profile.spec();
        self
    }

    /// Selects the congestion-control algorithm on every host (builder
    /// style).
    #[must_use]
    pub fn congestion(mut self, algo: CongestionAlgo) -> Self {
        self.tcp.congestion = algo;
        self
    }

    /// Negotiates RFC 2018 SACK on every host (builder style).
    #[must_use]
    pub fn with_sack(mut self) -> Self {
        self.tcp.sack = true;
        self
    }

    /// The initial topology this spec builds.
    pub fn topology(&self) -> Topology {
        Topology::new((0..=self.backups).map(server_ip).collect())
    }

    /// The deterministic plan for client `index` under this spec.
    pub fn client_plan(&self, index: usize) -> ClientPlan {
        let mut rng = SplitMix64::new(
            self.seed
                ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0x00C0_FFEE),
        );
        let (workload, port) = match rng.next_below(100) {
            0..=44 => (Workload::Echo { requests: 2 + rng.next_below(9) as usize }, ECHO_PORT),
            45..=69 => (
                Workload::Interactive {
                    requests: 1 + rng.next_below(4) as usize,
                    reply_size: INTERACTIVE_REPLY,
                },
                INTERACTIVE_PORT,
            ),
            70..=84 => (Workload::Bulk { file_size: BULK_FILE }, BULK_PORT),
            _ => (Workload::Upload { file_size: UPLOAD_FILE }, UPLOAD_PORT),
        };
        let spread_ns = self.connect_spread.as_nanos();
        let slot =
            if self.clients > 1 { spread_ns * index as u64 / (self.clients as u64 - 1) } else { 0 };
        let jitter = rng.next_below(997_000); // < 1 ms, breaks phase locks
        ClientPlan {
            workload,
            port,
            connect_at: SimDuration::from_millis(1)
                + SimDuration::from_nanos(slot)
                + SimDuration::from_nanos(jitter),
            ip: client_ip(index),
            isn_seed: rng.next_u64(),
        }
    }
}

/// One client's deterministic assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientPlan {
    /// The workload the client drives.
    pub workload: Workload,
    /// The service port it connects to (encodes the workload class).
    pub port: u16,
    /// When it connects, relative to simulation start.
    pub connect_at: SimDuration,
    /// Its address.
    pub ip: Ipv4Addr,
    /// Its ISN seed.
    pub isn_seed: u64,
}

/// The address of fleet client `index`: `10.1.x.y`, disjoint from the
/// servers' `10.0.0.0/24` corner of the `10/8` LAN.
pub fn client_ip(index: usize) -> Ipv4Addr {
    assert!(index < 250 * 256, "fleet address plan holds 64 000 clients");
    Ipv4Addr::new(10, 1, (index / 250) as u8, 1 + (index % 250) as u8)
}

/// The address of server `rank`: `10.0.0.2 + rank`
/// ([`addrs::PRIMARY`]/[`addrs::BACKUP`] are ranks 0 and 1).
pub fn server_ip(rank: usize) -> Ipv4Addr {
    assert!(rank < 90, "fleet address plan holds 90 servers");
    Ipv4Addr::new(10, 0, 0, 2 + rank as u8)
}

/// The MAC of server `rank`.
pub fn server_mac(rank: usize) -> MacAddr {
    MacAddr::local(2 + rank as u32)
}

/// The stack of server `rank` in a primary + `backups` chain (a solo
/// server is rank 0 of none): its address, the VIP, the retention its
/// rank needs, and — for a backup — the suppressed shadow. It takes no
/// ISN seed: a server only opens passively, and every server derives a
/// passive open's ISS from the SYN. Each builder adds only how its NIC
/// taps the service traffic.
pub(crate) fn server_stack(rank: usize, backups: usize, tcp: &TcpConfig) -> StackConfig {
    let mut cfg = StackConfig::host(server_mac(rank), server_ip(rank));
    cfg.extra_ips = vec![addrs::VIP];
    cfg.learn_from_ip = true;
    cfg.tcp = tcp.clone();
    if rank < backups {
        // "Double the space" (§4.2): the primary retains to serve its
        // backups, each backup to serve the *deeper* ranks after a
        // promotion — two ack windows of it (see
        // `ClusterEngine::maybe_send_acks`). The last rank has nobody
        // to retain for.
        cfg.tcp.retention_buf = cfg.tcp.recv_buf * if rank == 0 { 1 } else { 2 };
    }
    if rank > 0 {
        cfg.tcp.shadow = true;
        cfg.suppressed_ips = vec![addrs::VIP];
    }
    cfg
}

/// The service port that serves `workload`'s class.
fn class_port(workload: Workload) -> u16 {
    match workload {
        Workload::Echo { .. } => ECHO_PORT,
        Workload::Interactive { .. } => INTERACTIVE_PORT,
        Workload::Bulk { .. } => BULK_PORT,
        Workload::Upload { .. } => UPLOAD_PORT,
    }
}

/// The four-service factory table every server registers. Keeping it in
/// one place is what makes a migrated connection land on the same app
/// type on the backup. An `overridden` workload replaces its class's
/// service, so the server sends and expects what the clients do.
fn add_fleet_services(node: &mut ServerNode, overridden: Option<Workload>) {
    // The constructor installed ECHO_PORT; append the rest.
    for default in [
        Workload::Interactive { requests: 0, reply_size: INTERACTIVE_REPLY },
        Workload::Bulk { file_size: BULK_FILE },
        Workload::Upload { file_size: UPLOAD_FILE },
    ] {
        let port = class_port(default);
        let workload = overridden.filter(|&w| class_port(w) == port).unwrap_or(default);
        node.add_service(port, Box::new(move || make_server_app(workload, SimDuration::ZERO)));
    }
}

/// A built fleet: the simulator plus every node of interest.
pub struct Fleet {
    /// The simulator, ready to run.
    pub sim: Simulator,
    /// Workload clients, in index order.
    pub clients: Vec<NodeId>,
    /// Servers in rank order (index 0 = initial primary).
    pub servers: Vec<NodeId>,
    /// The initial ST-TCP primary (`servers[0]`).
    pub primary: NodeId,
    /// The first ST-TCP backup (`servers[1]`).
    pub backup: NodeId,
    /// The mirroring switch.
    pub fabric: NodeId,
    /// The inline packet logger, when `st_tcp.use_logger`.
    pub logger: Option<NodeId>,
    /// The power switch on rank 1's management port, when
    /// `st_tcp.fencing` names an outlet.
    pub power: Option<NodeId>,
    /// Shared counter sink, when `record_obs` was set.
    pub obs: Option<Arc<ObsSink>>,
    /// Flight-recorder ring, when tracing was on.
    pub flight: Option<Arc<FlightRecorder>>,
}

/// Builds the simulator for `spec`. See the module docs for the
/// wiring.
pub fn build(spec: &FleetSpec) -> Fleet {
    let n = spec.clients;
    let servers_total = 1 + spec.backups;
    let mut sim = Simulator::with_seed(spec.seed);
    // Servers, clients and their links, the switch, and the logger's
    // node and second link and the power switch with its link, if any.
    let extras =
        usize::from(spec.st_tcp.use_logger) + usize::from(spec.st_tcp.fencing != Fencing::None);
    sim.reserve(servers_total + n + 1 + extras, servers_total + n + extras);
    let recording = Recording::new(&mut sim, spec.record_obs, spec.trace_capacity);
    let topology = spec.topology();

    // --- servers ----------------------------------------------------
    let mut servers = Vec::with_capacity(servers_total);
    for rank in 0..servers_total {
        let mut cfg = server_stack(rank, spec.backups, &spec.tcp);
        cfg.netmask_bits = 8;
        cfg.promiscuous = rank > 0; // a backup taps the mirror copies
                                    // Full-mesh static ARP among the servers: the side channel is
                                    // unicast UDP and must not depend on broadcast resolution.
        for other in (0..servers_total).filter(|&other| other != rank) {
            cfg.static_arp.push((server_ip(other), server_mac(other)));
        }
        let mut node = ServerNode::cluster(
            cfg,
            spec.st_tcp.clone(),
            topology.clone(),
            Box::new(|| Box::new(EchoServer::new())),
        );
        add_fleet_services(&mut node, spec.workload);
        let actor = if rank == 0 { Actor::Primary } else { Actor::Backup };
        if let Some(rec) = recording.recorder(actor) {
            node.set_recorder(rec);
        }
        let name = if rank == 0 { "primary".to_string() } else { format!("backup{rank}") };
        servers.push(sim.add_node(name, node));
    }

    // --- fabric -----------------------------------------------------
    let mut sw = Switch::new(servers_total + n);
    for to in 1..servers_total {
        sw.add_mirror(PortId(0), PortId(to));
    }
    let fabric = sim.add_node("switch", sw);
    let mut logger = None;
    for (rank, &server) in servers.iter().enumerate() {
        // The logger sits on the primary's hop: replayed frames re-enter
        // the switch on port 0 and ride the same mirrors as live
        // traffic.
        let on_hop = rank == 0 && spec.st_tcp.use_logger;
        let lg = connect_hop(&mut sim, (server, LAN), (fabric, PortId(rank)), spec.link, on_hop);
        logger = logger.or(lg);
    }

    // --- clients ----------------------------------------------------
    let mut clients = Vec::with_capacity(n);
    for i in 0..n {
        let mut plan = spec.client_plan(i);
        if let Some(workload) = spec.workload {
            plan.workload = workload;
            plan.port = class_port(workload);
        }
        let mut c_cfg = StackConfig::host(MacAddr::local(100 + i as u32), plan.ip);
        c_cfg.netmask_bits = 8;
        c_cfg.isn_seed = plan.isn_seed;
        c_cfg.static_arp.push((addrs::VIP, server_mac(0)));
        c_cfg.tcp = spec.tcp.clone();
        let mut app = WorkloadClient::new(plan.workload);
        if spec.close_when_done {
            app = app.closing();
        }
        let node = ClientNode::new(c_cfg, (addrs::VIP, plan.port), plan.connect_at, app);
        let id = sim.add_node(format!("client{i}"), node);
        sim.connect(id, LAN, fabric, PortId(servers_total + i), spec.link);
        clients.push(id);
    }
    let fences = spec.st_tcp.fencing != Fencing::None;
    let power = plug_power_switch(&mut sim, servers[1], servers[0], fences);

    // --- faults and migrations --------------------------------------
    let crash_primary = spec.crash_primary_at.map(|at| (0, at));
    for &(rank, at) in crash_primary.iter().chain(&spec.crashes) {
        sim.schedule_crash(servers[rank], at);
    }
    if let Some((at, successor_rank)) = spec.migrate {
        sim.node_mut::<ServerNode>(servers[0])
            .engine_mut()
            .expect("rank 0 runs the engine")
            .schedule_drain(at, successor_rank);
    }

    let (primary, backup) = (servers[0], servers[1]);
    let (obs, flight) = (recording.obs, recording.flight);
    Fleet { sim, clients, servers, primary, backup, fabric, logger, power, obs, flight }
}

impl Fleet {
    /// The workload driver of client `index`.
    pub fn client_app(&self, index: usize) -> &WorkloadClient {
        self.sim
            .node_ref::<ClientNode>(self.clients[index])
            .app::<WorkloadClient>()
            .expect("fleet clients run WorkloadClient")
    }

    /// The replication engine of server `rank`.
    pub fn engine(&self, rank: usize) -> &ClusterEngine {
        self.sim
            .node_ref::<ServerNode>(self.servers[rank])
            .engine()
            .expect("fleet servers run the replication engine")
    }

    /// How many clients have finished their workload.
    pub fn done_count(&self) -> usize {
        (0..self.clients.len()).filter(|&i| self.client_app(i).is_done()).count()
    }

    /// True when every client has finished.
    pub fn all_done(&self) -> bool {
        (0..self.clients.len()).all(|i| self.client_app(i).is_done())
    }

    /// True when every client's byte stream verified clean so far.
    pub fn verified_clean(&self) -> bool {
        (0..self.clients.len()).all(|i| self.client_app(i).metrics.verified_clean())
    }

    /// Aggregate progress: response bytes received / expected, summed
    /// over the fleet.
    pub fn progress(&self) -> (u64, u64) {
        (0..self.clients.len())
            .map(|i| self.client_app(i).progress())
            .fold((0, 0), |(a, b), (x, y)| (a + x, b + y))
    }

    /// Drives the fleet until every client finishes, a budget of
    /// `limits` runs out, or the event queue drains (nothing will ever
    /// complete the stragglers) — and says which. `sample` sees the
    /// fleet after every 50 ms chunk.
    pub fn run(&mut self, limits: RunLimits, sample: impl FnMut(&Fleet)) -> StopReason {
        drive(self, |f| &mut f.sim, Fleet::all_done, limits, sample)
    }

    /// [`Fleet::run`] for `limit` virtual time; returns whether every
    /// client finished.
    pub fn run_until_done(&mut self, limit: SimDuration) -> bool {
        self.run(RunLimits::time(limit), |_| {}) == StopReason::Completed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "no backup at rank 2 to drain to: the chain has 2 members")]
    fn a_drain_to_a_rank_the_chain_lacks_is_refused() {
        let at = SimTime::ZERO + SimDuration::from_millis(100);
        let spec = FleetSpec::new(1).backups(1).migrate_at(at, 2);
        let _ = build(&spec);
    }

    #[test]
    fn plans_are_deterministic_and_mixed() {
        let spec = FleetSpec::new(200);
        let again = FleetSpec::new(200);
        let mut ports = [0usize; 4];
        for i in 0..200 {
            let plan = spec.client_plan(i);
            assert_eq!(plan, again.client_plan(i), "plan must be a pure function of the spec");
            let slot = match plan.port {
                ECHO_PORT => 0,
                INTERACTIVE_PORT => 1,
                BULK_PORT => 2,
                UPLOAD_PORT => 3,
                other => panic!("unexpected service port {other}"),
            };
            ports[slot] += 1;
        }
        assert!(ports.iter().all(|&c| c > 0), "all four classes present: {ports:?}");
        assert!(ports[0] > ports[3], "echo dominates the mix: {ports:?}");
    }

    #[test]
    fn client_addresses_are_unique_and_off_server_subnet() {
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..1000 {
            let ip = client_ip(i);
            assert!(seen.insert(ip), "duplicate client ip {ip}");
            assert_eq!(ip.octets()[0], 10);
            assert_ne!((ip.octets()[0], ip.octets()[1]), (10, 0), "servers own 10.0.0.0/24");
        }
    }

    #[test]
    fn connect_times_are_staggered_within_spread() {
        let spec = FleetSpec::new(50);
        let first = spec.client_plan(0).connect_at;
        let last = spec.client_plan(49).connect_at;
        assert!(last > first, "stagger must spread connects");
        let cap = SimDuration::from_millis(1) + spec.connect_spread + SimDuration::from_millis(1);
        assert!(last <= cap, "last connect {last:?} beyond spread cap {cap:?}");
    }

    #[test]
    fn small_fleet_completes_clean() {
        let mut fleet = build(&FleetSpec::new(12));
        assert!(fleet.run_until_done(SimDuration::from_secs(30)), "12-client fleet must finish");
        assert!(fleet.verified_clean());
        let (got, want) = fleet.progress();
        assert_eq!(got, want);
    }

    #[test]
    fn fault_free_chain_completes_clean() {
        let mut fleet = build(&FleetSpec::new(8).backups(2).closing());
        assert!(
            fleet.run_until_done(SimDuration::from_secs(30)),
            "8-client, 2-backup fleet must finish"
        );
        assert!(fleet.verified_clean());
        let (got, want) = fleet.progress();
        assert_eq!(got, want);
        // The chain stayed intact: nobody promoted.
        for rank in 0..3 {
            assert!(!fleet.engine(rank).has_taken_over(), "rank {rank} must not take over");
        }
    }

    #[test]
    fn crash_failover_promotes_rank1_and_finishes() {
        // Crash mid-connect-spread, while the workloads are in flight
        // (the default echo mix drains within a few hundred ms).
        let spec = FleetSpec::new(8)
            .backups(2)
            .closing()
            .crash(0, SimTime::ZERO + SimDuration::from_millis(150));
        let mut fleet = build(&spec);
        assert!(
            fleet.run_until_done(SimDuration::from_secs(60)),
            "fleet must finish across the failover"
        );
        assert!(fleet.verified_clean(), "no client-visible stream corruption");
        assert!(fleet.engine(1).has_taken_over(), "rank 1 takes over");
        assert!(!fleet.engine(2).has_taken_over(), "rank 2 stays a backup");
        assert_eq!(fleet.engine(1).topology().epoch(), 1);
    }
}

//! Ready-made experiment topologies.
//!
//! Builds the paper's testbed (§6: client, primary, backup on a
//! 10/100 Mbit hub) and the switched-Ethernet tapping architectures of
//! §3.1, wiring [`crate::node`] adapters into a [`netsim::Simulator`].
//!
//! The pair and [`crate::fleet::build`]'s fleets are built from the
//! same parts: each server's stack comes from
//! `fleet::server_stack` (this module adds only how each [`Topology`]'s
//! NICs tap the service traffic, decided in one `match`), the recorders
//! from one `Recording`, the §3.2 packet logger from `connect_hop` —
//! inline on the client's hop on every tap, exactly when the
//! configuration uses it — and the power switch from
//! `plug_power_switch`, on the backup's management port exactly when
//! the configuration fences.
//!
//! Calibration: 100 Mbit links with 2.5 ms one-way latency per hop give
//! a ≈10 ms client↔server RTT; with the 12×MSS (17 520 B) receive window this
//! reproduces the paper's measured bulk throughput (≈1.56 MB/s — 100 MB
//! in ≈64 s) and echo exchange time (≈9–10 ms), so Tables 1–2 can be
//! compared in absolute terms. See DESIGN.md §2.

use crate::cluster::ClusterEngine;
use crate::config::{Fencing, SttcpConfig};
use crate::fleet::{server_stack, Fleet};
use crate::node::{AppFactory, ClientNode, GatewayNode, ServerNode, LAN, MGMT};
use apps::{
    Application, BulkServer, EchoServer, InteractiveServer, RunMetrics, UploadServer, Workload,
    WorkloadClient,
};
use netsim::node::{NodeId, PortId};
use netsim::{
    Hub, LinkProfile, LinkSpec, PacketLogger, PowerSwitch, SharedHub, SimDuration, SimTime,
    Simulator, Switch,
};
use obs::{
    Actor, FlightRecorder, ObsSink, SharedRecorder, Snapshot, TakeoverBreakdown, TraceExport,
    DEFAULT_TRACE_CAPACITY,
};
use std::sync::Arc;
use tcpstack::{CongestionAlgo, Gateway, GatewayIface, StackConfig, TcpConfig};
use wire::MacAddr;

/// Standard experiment addresses.
pub mod addrs {
    use std::net::Ipv4Addr;

    /// The client's address (hub/switch topologies).
    pub const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    /// The primary's own (non-service) address.
    pub const PRIMARY: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
    /// The backup's own address.
    pub const BACKUP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);
    /// The virtual service IP (`SVI`).
    pub const VIP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 100);
    /// Client address in the gateway topology (remote subnet).
    pub const REMOTE_CLIENT: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 10);
    /// Gateway address on the client subnet.
    pub const GW_CLIENT_SIDE: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 1);
    /// Gateway address on the server LAN (`GVI`).
    pub const GW_LAN_SIDE: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 254);
}

/// How the backup taps the service traffic (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Broadcast hub — the paper's actual testbed (§6). Idealized: each
    /// port serializes independently (no shared-medium contention).
    Hub,
    /// A half-duplex shared-medium hub at the given line rate: one
    /// frame on the wire at a time, so data, ACKs and the side channel
    /// contend — the device the paper actually measured on, and the
    /// reason §6 notes "using an Ethernet switch will lead to a higher
    /// throughput".
    SharedMediumHub {
        /// Medium line rate in bits/s (the paper's hub: 10/100 Mbit).
        medium_bps: u64,
    },
    /// Managed switch mirroring what it sends to the primary's port —
    /// the client's half of the conversation — to the backup's.
    SwitchMirror,
    /// Switch + unicast-IP→multicast-MAC mapping (`SVI→SME`,
    /// client→`CME`), no management features needed.
    SwitchMulticast,
    /// The full §3.1 architecture: remote client behind a gateway whose
    /// static ARP maps `SVI→SME`; the server LAN switch floods the
    /// multicast tap; server→client traffic rides `GVI→GME`.
    GatewaySwitch,
}

/// What kind of server deployment to build.
#[derive(Debug, Clone)]
pub enum Deployment {
    /// A single standard-TCP server — the paper's baseline rows.
    StandardTcp,
    /// Primary + active backup running ST-TCP.
    StTcp(SttcpConfig),
}

/// One scheduled fault, in absolute virtual time.
///
/// This is the same vocabulary the chaos engine's `FaultPlan` resolves
/// into: quantile-relative chaos ops become absolute [`Fault`]s once a
/// probe pass has measured the fault-free duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Crash the primary at this instant. It stays down (amnesia reboot
    /// is scheduled separately via [`netsim::Simulator::schedule_power_on`]).
    CrashPrimary {
        /// The instant of the crash.
        at: SimTime,
    },
    /// Freeze the primary for a window — a gray failure: the node
    /// neither crashes nor answers, then resumes with its state intact.
    PausePrimary {
        /// Start of the freeze.
        at: SimTime,
        /// How long the node stays frozen.
        duration: SimDuration,
    },
}

/// A composable fault schedule accepted by [`ScenarioSpec::faults`].
///
/// Replaces the old single-purpose `crash_primary_at` field and the
/// ad-hoc toggles around it: faults compose with [`FaultSpec::and`] and
/// are installed in order at build time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSpec {
    /// Scheduled faults, installed in order at build time.
    pub faults: Vec<Fault>,
}

impl FaultSpec {
    /// No faults — the fault-free baseline.
    pub fn none() -> Self {
        FaultSpec::default()
    }

    /// The classic experiment: crash the primary at `at`.
    pub fn crash_primary_at(at: SimTime) -> Self {
        FaultSpec { faults: vec![Fault::CrashPrimary { at }] }
    }

    /// Appends another fault (builder style).
    #[must_use]
    pub fn and(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// True when no fault is scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Earliest instant a fault incapacitates the primary, if any.
    pub fn incapacitated_at(&self) -> Option<SimTime> {
        self.faults
            .iter()
            .map(|f| match *f {
                Fault::CrashPrimary { at } | Fault::PausePrimary { at, .. } => at,
            })
            .min()
    }
}

/// Everything needed to build one experiment run.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Tapping architecture.
    pub topology: Topology,
    /// Baseline or ST-TCP.
    pub deployment: Deployment,
    /// Client workload.
    pub workload: Workload,
    /// Per-hop link characteristics.
    pub link: LinkSpec,
    /// Scheduled faults (virtual time).
    pub faults: FaultSpec,
    /// Record protocol events into a shared [`ObsSink`] (off by
    /// default: the no-op recorder keeps the hot path allocation- and
    /// atomics-free).
    pub record_obs: bool,
    /// Capacity of the flight-recorder trace ring, when tracing is on
    /// (off by default for the same hot-path reason as `record_obs`).
    pub trace_capacity: Option<usize>,
    /// Insert the in-network packet logger (§3.2) on the client's hop,
    /// whatever the tap; [`ScenarioSpec::st_tcp`] sets it from
    /// `use_logger`.
    pub with_logger: bool,
    /// Attach a power switch on the backup's management port;
    /// [`ScenarioSpec::st_tcp`] sets it when `fencing` names an outlet.
    pub with_power_switch: bool,
    /// TCP tuning template for all hosts (retention/shadow flags are set
    /// per role automatically).
    pub tcp: TcpConfig,
    /// Have the client close the connection after its final response
    /// (exercises FIN choreography, §4-adjacent).
    pub close_when_done: bool,
    /// Per-request server compute ("think") time for the Interactive
    /// workload. The paper's measured 20 ms/exchange implies ≈9 ms of
    /// server-side work its text does not model; this knob reproduces
    /// their absolute numbers when desired.
    pub interactive_think: SimDuration,
    /// Simulator RNG seed.
    pub seed: u64,
}

impl ScenarioSpec {
    /// The paper's testbed defaults: hub topology, calibrated LAN links,
    /// standard TCP, no faults.
    pub fn new(workload: Workload) -> Self {
        ScenarioSpec {
            topology: Topology::Hub,
            deployment: Deployment::StandardTcp,
            workload,
            link: LinkSpec::lan(),
            faults: FaultSpec::none(),
            record_obs: false,
            trace_capacity: None,
            with_logger: false,
            with_power_switch: false,
            tcp: TcpConfig::default(),
            close_when_done: false,
            interactive_think: SimDuration::ZERO,
            seed: 0xE4A1,
        }
    }

    /// Switches to an ST-TCP deployment (builder style) and plugs in
    /// the devices the protocol configuration talks to: the in-network
    /// logger when `cfg.use_logger`, the power switch when `cfg.fencing`
    /// names an outlet — a backup fencing into an unplugged management
    /// port fails without a word.
    #[must_use]
    pub fn st_tcp(mut self, cfg: SttcpConfig) -> Self {
        self.with_logger = cfg.use_logger;
        self.with_power_switch = cfg.fencing != Fencing::None;
        self.deployment = Deployment::StTcp(cfg);
        self
    }

    /// Installs a fault schedule (builder style).
    #[must_use]
    pub fn faults(mut self, faults: FaultSpec) -> Self {
        self.faults = faults;
        self
    }

    /// Records protocol events into a shared [`ObsSink`] (builder
    /// style). The built [`Scenario`] then exposes
    /// [`Scenario::snapshot`] and [`Scenario::takeover_breakdown`].
    #[must_use]
    pub fn recording(mut self) -> Self {
        self.record_obs = true;
        self
    }

    /// Records structured trace events into a per-run
    /// [`FlightRecorder`] ring (builder style). The built [`Scenario`]
    /// then exposes [`Scenario::trace_export`]. Composes with
    /// [`ScenarioSpec::recording`]; either works alone.
    #[must_use]
    pub fn tracing(self) -> Self {
        self.tracing_with_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// Like [`ScenarioSpec::tracing`] with an explicit ring capacity
    /// (builder style). Long campaigns keep only the newest `capacity`
    /// events; the export's `dropped` counter records the loss.
    #[must_use]
    pub fn tracing_with_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = Some(capacity);
        self
    }

    /// Selects the tapping topology (builder style).
    #[must_use]
    pub fn topology(mut self, t: Topology) -> Self {
        self.topology = t;
        self
    }

    /// The client closes after its final response (builder style).
    #[must_use]
    pub fn closing(mut self) -> Self {
        self.close_when_done = true;
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
}

/// A built scenario: the simulator plus the ids of every node of
/// interest.
pub struct Scenario {
    /// The simulator, ready to run.
    pub sim: Simulator,
    /// The workload client.
    pub client: NodeId,
    /// The primary (or the solo standard-TCP server).
    pub primary: NodeId,
    /// The backup, when deployed.
    pub backup: Option<NodeId>,
    /// The hub or switch at the LAN core.
    pub fabric: NodeId,
    /// The in-network logger, when present.
    pub logger: Option<NodeId>,
    /// The power switch, when present.
    pub power: Option<NodeId>,
    /// The gateway, in the gateway topology.
    pub gateway: Option<NodeId>,
    /// The shared observability sink, when built with
    /// [`ScenarioSpec::recording`].
    pub obs: Option<Arc<ObsSink>>,
    /// The flight-recorder trace ring, when built with
    /// [`ScenarioSpec::tracing`].
    pub flight: Option<Arc<FlightRecorder>>,
}

/// The server application that answers `workload`'s clients.
pub(crate) fn make_server_app(workload: Workload, think: SimDuration) -> Box<dyn Application> {
    match workload {
        Workload::Echo { .. } => Box::new(EchoServer::new()),
        Workload::Interactive { requests: _, reply_size } => Box::new(
            InteractiveServer::with_sizes(apps::REQUEST_SIZE, reply_size).with_think_time(think),
        ),
        Workload::Bulk { file_size } => Box::new(BulkServer::new(file_size)),
        Workload::Upload { file_size } => Box::new(UploadServer::new(file_size)),
    }
}

/// A run's observability, shared by [`build`] and
/// [`crate::fleet::build`]: counters go to one shared sink when
/// recording, trace events into one flight ring tagged with the actor
/// that emitted them when tracing.
pub(crate) struct Recording {
    pub(crate) obs: Option<Arc<ObsSink>>,
    pub(crate) flight: Option<Arc<FlightRecorder>>,
}

impl Recording {
    /// The sink and ring a spec asks for, with the simulator's own
    /// recorder installed.
    pub(crate) fn new(
        sim: &mut Simulator,
        record_obs: bool,
        trace_capacity: Option<usize>,
    ) -> Recording {
        let recording = Recording {
            obs: record_obs.then(|| Arc::new(ObsSink::new())),
            flight: trace_capacity.map(|cap| Arc::new(FlightRecorder::new(cap))),
        };
        if let Some(rec) = recording.recorder(Actor::Net) {
            sim.set_recorder(rec);
        }
        recording
    }

    /// `actor`'s recorder; `None` when neither is on, so the node keeps
    /// its allocation-free no-op.
    pub(crate) fn recorder(&self, actor: Actor) -> Option<SharedRecorder> {
        let metrics = self.obs.clone().map(|sink| sink as SharedRecorder);
        match &self.flight {
            Some(ring) => {
                Some(obs::for_actor(actor, metrics.unwrap_or_else(obs::nop), ring.clone()))
            }
            None => metrics,
        }
    }
}

/// Joins `a` to `b` over `link`. With `logger`, the §3.2 in-network
/// packet logger sits inline on the hop (`a` on its port 0, `b` on its
/// port 1) and the hop's latency is split around it, so the end-to-end
/// RTT is unchanged ("the logger introduces a very small delay").
pub(crate) fn connect_hop(
    sim: &mut Simulator,
    (a, a_port): (NodeId, PortId),
    (b, b_port): (NodeId, PortId),
    link: LinkSpec,
    logger: bool,
) -> Option<NodeId> {
    if !logger {
        sim.connect(a, a_port, b, b_port, link);
        return None;
    }
    let half = link.with_latency(link.latency / 2);
    let lg = sim.add_node("logger", PacketLogger::with_defaults());
    sim.connect(a, a_port, lg, PortId(0), half);
    sim.connect(lg, PortId(1), b, b_port, half);
    Some(lg)
}

/// With `plugged`, puts a power switch feeding `victim` (outlet 0) on
/// `fencer`'s management port — a fencer sending into an unplugged port
/// fails without a word.
pub(crate) fn plug_power_switch(
    sim: &mut Simulator,
    fencer: NodeId,
    victim: NodeId,
    plugged: bool,
) -> Option<NodeId> {
    plugged.then(|| {
        let psw = sim.add_node("power-switch", PowerSwitch::new(vec![victim]));
        sim.connect(fencer, MGMT, psw, PortId(0), LinkSpec::lan());
        psw
    })
}

/// Builds the simulator for `spec`.
pub fn build(spec: &ScenarioSpec) -> Scenario {
    let sme = MacAddr::multicast_for_ip(addrs::VIP);
    let cme = MacAddr::multicast_for_ip(addrs::CLIENT);
    let mut sim = Simulator::with_seed(spec.seed);
    let workload = spec.workload;
    let recording = Recording::new(&mut sim, spec.record_obs, spec.trace_capacity);

    // --- host stacks --------------------------------------------------
    let mut client_cfg = StackConfig::host(MacAddr::local(1), addrs::CLIENT);
    client_cfg.isn_seed = spec.seed ^ 0x1111;
    client_cfg.tcp = spec.tcp.clone();
    let backups = match spec.deployment {
        Deployment::StandardTcp => 0,
        Deployment::StTcp(_) => 1,
    };
    let mut servers: Vec<StackConfig> =
        (0..=backups).map(|rank| server_stack(rank, backups, &spec.tcp)).collect();
    // How each NIC sees the service traffic (§3.1).
    match spec.topology {
        Topology::Hub | Topology::SharedMediumHub { .. } | Topology::SwitchMirror => {
            for backup in &mut servers[1..] {
                backup.promiscuous = true;
            }
        }
        Topology::SwitchMulticast => {
            // The client plays the gateway's role: static SVI→SME entry,
            // and it accepts the multicast MAC the servers use to reach it.
            // Backups tap only the client's half: they join the SME
            // group and leave the CME group's frames to the client.
            client_cfg.static_arp.push((addrs::VIP, sme));
            client_cfg.accept_macs.push(cme);
            for server in &mut servers {
                server.accept_macs.push(sme);
                server.static_arp.push((addrs::CLIENT, cme));
            }
        }
        Topology::GatewaySwitch => {
            client_cfg.ip = addrs::REMOTE_CLIENT;
            client_cfg.gateway = Some(addrs::GW_CLIENT_SIDE);
            let gme = MacAddr::multicast_for_ip(addrs::GW_LAN_SIDE);
            for server in &mut servers {
                server.accept_macs.push(sme);
                server.gateway = Some(addrs::GW_LAN_SIDE);
                server.static_arp.push((addrs::GW_LAN_SIDE, gme));
            }
        }
    }

    // --- hosts --------------------------------------------------------
    let client_app = if spec.close_when_done {
        WorkloadClient::new(workload).closing()
    } else {
        WorkloadClient::new(workload)
    };
    let mut client_node =
        ClientNode::new(client_cfg, (addrs::VIP, 80), SimDuration::from_millis(1), client_app);
    if let Some(rec) = recording.recorder(Actor::Client) {
        client_node.set_recorder(rec);
    }
    let client = sim.add_node("client", client_node);

    let think = spec.interactive_think;
    let mut ids = Vec::with_capacity(servers.len());
    for (rank, cfg) in servers.into_iter().enumerate() {
        let factory: AppFactory = Box::new(move || make_server_app(workload, think));
        let (mut node, name) = match &spec.deployment {
            Deployment::StandardTcp => (ServerNode::solo(cfg, 80, factory), "server"),
            Deployment::StTcp(st_tcp) => {
                let chain = crate::cluster::Topology::new(vec![addrs::PRIMARY, addrs::BACKUP]);
                let node = ServerNode::cluster(cfg, st_tcp.clone(), chain, factory);
                (node, if rank == 0 { "primary" } else { "backup" })
            }
        };
        let actor = if rank == 0 { Actor::Primary } else { Actor::Backup };
        if let Some(rec) = recording.recorder(actor) {
            node.set_recorder(rec);
        }
        ids.push(sim.add_node(name, node));
    }
    let (primary, backup) = (ids[0], ids.get(1).copied());

    // --- fabric and wiring -------------------------------------------
    let (fabric, cable) = match spec.topology {
        Topology::Hub => (sim.add_node("hub", Hub::new(4)), spec.link),
        Topology::SharedMediumHub { medium_bps } => {
            // The medium does the serialization; port cables carry
            // latency only (no double-counted bandwidth).
            let cable = LinkSpec {
                latency: spec.link.latency,
                bandwidth_bps: None,
                reverse_bandwidth_bps: None,
                loss: spec.link.loss,
                max_queue: None,
                jitter: spec.link.jitter,
            };
            (sim.add_node("shared-hub", SharedHub::new(4, medium_bps)), cable)
        }
        Topology::SwitchMirror => {
            let mut sw = Switch::new(4);
            sw.add_mirror(PortId(1), PortId(2)); // primary's port → backup
            (sim.add_node("switch", sw), spec.link)
        }
        Topology::SwitchMulticast | Topology::GatewaySwitch => {
            (sim.add_node("switch", Switch::new(4)), spec.link)
        }
    };
    let mut gateway = None;
    let mut client_end = (client, LAN);
    if spec.topology == Topology::GatewaySwitch {
        // Gateway between the client subnet and the LAN, static
        // SVI→SME on the LAN side (the paper's key entry).
        let gw = Gateway::new(
            GatewayIface { mac: MacAddr::local(10), ip: addrs::GW_CLIENT_SIDE, netmask_bits: 24 },
            GatewayIface { mac: MacAddr::local(11), ip: addrs::GW_LAN_SIDE, netmask_bits: 24 },
            [],
            [(addrs::VIP, sme)],
        );
        let gw_id = sim.add_node("gateway", GatewayNode::new(gw));
        sim.connect(client, LAN, gw_id, PortId(0), spec.link);
        gateway = Some(gw_id);
        client_end = (gw_id, PortId(1));
    }
    // The logger sits on the client's hop, whatever the tap.
    let logger = connect_hop(&mut sim, client_end, (fabric, PortId(0)), cable, spec.with_logger);
    for (rank, &server) in ids.iter().enumerate() {
        sim.connect(server, LAN, fabric, PortId(1 + rank), cable);
    }
    let power =
        backup.and_then(|b| plug_power_switch(&mut sim, b, primary, spec.with_power_switch));

    // --- faults -------------------------------------------------------
    for fault in &spec.faults.faults {
        match *fault {
            Fault::CrashPrimary { at } => sim.schedule_crash(primary, at),
            Fault::PausePrimary { at, duration } => sim.schedule_pause(primary, at, duration),
        }
    }

    let (obs, flight) = (recording.obs, recording.flight);
    Scenario { sim, client, primary, backup, fabric, logger, power, gateway, obs, flight }
}

/// Why a run stopped before the workload completed.
///
/// A bare "did not finish" is unclassifiable in a fault campaign; these
/// reasons separate "the experiment needed more virtual time" from "the
/// simulation physically cannot make further progress".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The workload finished; metrics are complete.
    Completed,
    /// The virtual-time limit passed with events still pending — a
    /// longer limit might have finished (e.g. retransmission storms).
    TimeLimit,
    /// The event budget ran out before the time limit — a runaway
    /// message loop rather than a slow experiment.
    EventLimit,
    /// The event queue drained with the client unfinished: no timer or
    /// frame will ever fire again, so no limit would help (e.g. the
    /// client's connection was reset and everything went quiet).
    WedgedClient,
}

/// The classified result of driving a scenario: how it stopped, the
/// client metrics so far (partial unless `Completed`), and how much the
/// simulator worked.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Why the run stopped.
    pub reason: StopReason,
    /// Client metrics (complete only when `reason` is `Completed`).
    pub metrics: RunMetrics,
    /// Response bytes the client received out of the expected total.
    pub progress: (u64, u64),
    /// Simulator events processed during this call.
    pub events: u64,
    /// Virtual instant the run stopped at.
    pub stopped_at: SimTime,
}

impl RunOutcome {
    /// True when the workload finished.
    pub fn completed(&self) -> bool {
        self.reason == StopReason::Completed
    }

    /// Unwraps the metrics of a completed run.
    ///
    /// # Panics
    ///
    /// Panics with the stop reason and progress when the workload did
    /// not finish — a hung experiment is a bug worth failing loudly on.
    /// Keep the [`RunOutcome`] instead for experiments where not
    /// finishing is an expected result (e.g. unmasked double failures).
    pub fn expect_completed(self) -> RunMetrics {
        match self.reason {
            StopReason::Completed => self.metrics,
            reason => panic!(
                "workload did not complete by {}: {reason:?} (received {} of {} bytes)",
                self.stopped_at, self.progress.0, self.progress.1
            ),
        }
    }
}

/// Budget for one [`Scenario::run`] call.
///
/// Collapses the old `run_to_completion(limit)` /
/// `try_run_to_completion(limit)` / `run_classified(limit, max_events)`
/// trio into one vocabulary: build the limits, run, then decide whether
/// to [`RunOutcome::expect_completed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunLimits {
    /// Virtual-time budget for this call.
    pub time: SimDuration,
    /// Simulator-event budget (runaway-loop backstop).
    pub max_events: u64,
}

impl Default for RunLimits {
    /// 60 virtual seconds, unlimited events.
    fn default() -> Self {
        RunLimits { time: SimDuration::from_secs(60), max_events: u64::MAX }
    }
}

impl RunLimits {
    /// A budget of `time` virtual time (unlimited events).
    pub fn time(time: SimDuration) -> Self {
        RunLimits { time, ..RunLimits::default() }
    }

    /// Caps the simulator events processed (builder style).
    #[must_use]
    pub fn max_events(mut self, max_events: u64) -> Self {
        self.max_events = max_events;
        self
    }
}

/// The one run loop: drives `world`'s simulator in 50 ms chunks until
/// `done(world)`, a budget of `limits` runs out, or the event queue
/// drains — and says which. `sample` sees the world after every chunk.
pub(crate) fn drive<W>(
    world: &mut W,
    sim_of: fn(&mut W) -> &mut Simulator,
    done: fn(&W) -> bool,
    limits: RunLimits,
    mut sample: impl FnMut(&W),
) -> StopReason {
    let deadline = sim_of(world).now() + limits.time;
    let events_before = sim_of(world).trace().events_processed;
    loop {
        if done(world) {
            return StopReason::Completed;
        }
        let sim = sim_of(world);
        if sim.now() >= deadline {
            return StopReason::TimeLimit;
        }
        if sim.trace().events_processed - events_before >= limits.max_events {
            return StopReason::EventLimit;
        }
        if sim.pending_events() == 0 {
            return StopReason::WedgedClient;
        }
        sim.run_for(SimDuration::from_millis(50));
        sample(world);
    }
}

impl Scenario {
    /// Drives the scenario until the workload completes, the
    /// [`RunLimits`] budget runs out, or the event queue wedges — and
    /// says which.
    pub fn run(&mut self, limits: RunLimits) -> RunOutcome {
        let events_before = self.sim.trace().events_processed;
        let done = |s: &Scenario| s.workload_client().is_done();
        let reason = drive(self, |s| &mut s.sim, done, limits, |_| {});
        RunOutcome {
            reason,
            metrics: self.workload_client().metrics.clone(),
            progress: self.workload_client().progress(),
            events: self.sim.trace().events_processed - events_before,
            stopped_at: self.sim.now(),
        }
    }

    fn workload_client(&self) -> &WorkloadClient {
        self.client().expect("client runs a WorkloadClient")
    }

    /// The client's workload driver, when the client node runs one.
    pub fn client(&self) -> Option<&WorkloadClient> {
        self.sim.node_ref::<ClientNode>(self.client).app::<WorkloadClient>()
    }

    /// The primary's ST-TCP engine (`None` for a standard-TCP
    /// deployment).
    pub fn primary(&self) -> Option<&ClusterEngine> {
        self.sim.node_ref::<ServerNode>(self.primary).engine()
    }

    /// The backup's ST-TCP engine, when a backup is deployed.
    pub fn backup(&self) -> Option<&ClusterEngine> {
        self.sim.node_ref::<ServerNode>(self.backup?).engine()
    }

    /// The rank-ordered [`Fleet`] view of an ST-TCP pair — servers
    /// `[primary, backup]`, one client — so code written over a chain of
    /// any length (the chaos runner's probe and oracles) also drives the
    /// paper's testbed.
    ///
    /// # Panics
    ///
    /// Panics for a standard-TCP scenario: there is no chain to view.
    pub fn into_fleet(self) -> Fleet {
        let backup = self.backup.expect("only an ST-TCP scenario has a replication chain");
        Fleet {
            sim: self.sim,
            clients: vec![self.client],
            servers: vec![self.primary, backup],
            primary: self.primary,
            backup,
            fabric: self.fabric,
            logger: self.logger,
            power: self.power,
            obs: self.obs,
            flight: self.flight,
        }
    }

    /// A snapshot of the recorded observability counters; `None` unless
    /// the scenario was built with [`ScenarioSpec::recording`].
    pub fn snapshot(&self) -> Option<Snapshot> {
        self.obs.as_ref().map(|sink| sink.snapshot())
    }

    /// An export of the flight-recorder trace; `None` unless the
    /// scenario was built with [`ScenarioSpec::tracing`].
    pub fn trace_export(&self) -> Option<TraceExport> {
        self.flight.as_ref().map(|ring| ring.export())
    }

    /// The takeover phase breakdown, when recording was on and a
    /// takeover actually happened.
    pub fn takeover_breakdown(&self) -> Option<TakeoverBreakdown> {
        TakeoverBreakdown::from_snapshot(&self.snapshot()?)
    }
}

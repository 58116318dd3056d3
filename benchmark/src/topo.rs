//! The benchmark's own mirror-switch topology, every node inside a
//! [`Timed`] wrapper that records one span per callback.
//!
//! The spans come from outside the program: the wrapper sits between
//! `netsim`'s dispatch and the node, so nothing in `crates/` is touched.
//! Because the simulator is deterministic and the wiring below adds the
//! same nodes and links in the same order as `sttcp::scenario::build`
//! (for `Topology::SwitchMirror`) and `sttcp::fleet::build`, a traced rep
//! replays the untraced rep event for event; the benchmark asserts it.

use crate::clock::ticks;
use crate::rig::Rig;
use crate::workloads::Spec;
use apps::{
    Application, BulkServer, EchoServer, InteractiveServer, UploadServer, Workload, WorkloadClient,
    REQUEST_SIZE,
};
use bytes::Bytes;
use netsim::node::{Context, Node, PortId};
use netsim::{SimDuration, Simulator, Switch};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;
use sttcp::fleet::{
    FleetSpec, BULK_FILE, BULK_PORT, ECHO_PORT, INTERACTIVE_PORT, INTERACTIVE_REPLY, UPLOAD_FILE,
    UPLOAD_PORT,
};
use sttcp::node::{AppFactory, LAN};
use sttcp::scenario::{addrs, Deployment, Fault, ScenarioSpec, Topology};
use sttcp::{ClientNode, ServerNode};
use tcpstack::StackConfig;
use wire::MacAddr;

/// Which node of the topology a span belongs to. All fleet clients share
/// one actor: the ledger is per layer, not per connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Actor {
    /// A workload client (`apps` driving `tcpstack`).
    Client,
    /// The ST-TCP primary.
    Primary,
    /// The ST-TCP backup.
    Backup,
    /// The standard-TCP server.
    Solo,
    /// The mirroring switch (`netsim`).
    Switch,
}

/// Which callback a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Callback {
    /// `Node::on_start`.
    Start,
    /// `Node::on_frame`.
    Frame,
    /// `Node::on_timer`.
    Timer,
}

impl Actor {
    /// Every actor, in index order.
    pub const ALL: [Actor; 5] =
        [Actor::Client, Actor::Primary, Actor::Backup, Actor::Solo, Actor::Switch];

    /// The actor's name in span names and trace files.
    pub fn name(self) -> &'static str {
        match self {
            Actor::Client => "client",
            Actor::Primary => "primary",
            Actor::Backup => "backup",
            Actor::Solo => "solo",
            Actor::Switch => "switch",
        }
    }
}

impl Callback {
    /// Every callback, in index order.
    pub const ALL: [Callback; 3] = [Callback::Start, Callback::Frame, Callback::Timer];

    /// The callback's name in span names and trace files.
    pub fn name(self) -> &'static str {
        match self {
            Callback::Start => "on_start",
            Callback::Frame => "on_frame",
            Callback::Timer => "on_timer",
        }
    }
}

/// One callback of one node. Its id is its index in the buffer plus one,
/// which is also its sequence number among the simulator's dispatches;
/// its parent is always the run span (id 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Host nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Host nanoseconds the callback took (saturating at 4.29 s; a whole
    /// rep is shorter).
    pub dur_ns: u32,
    /// The node.
    pub actor: Actor,
    /// The callback.
    pub callback: Callback,
}

impl Span {
    /// Host nanoseconds since the recorder was created.
    pub fn end_ns(&self) -> u64 {
        self.start_ns + u64::from(self.dur_ns)
    }
}

/// Count and total host time of one actor × callback.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Aggregate {
    /// Spans.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
}

/// What the [`Timed`] nodes of one traced rep write into. Times are raw
/// [`ticks`] here; [`SpanBuf::collect`] scales them to nanoseconds.
#[derive(Debug)]
pub struct SpanRecorder {
    created: Instant,
    created_ticks: u64,
    run_ticks: (u64, u64),
    spans: Vec<Span>,
}

/// Shared handle: every [`Timed`] node of a topology holds one.
pub type SpanSink = Rc<RefCell<SpanRecorder>>;

impl SpanRecorder {
    /// Opens the run span (id 0); call right before the rep runs.
    pub fn run_starts(&mut self) {
        self.run_ticks.0 = ticks();
    }

    /// Closes the run span; call right after the rep ran.
    pub fn run_ends(&mut self) {
        self.run_ticks.1 = ticks();
    }
}

/// The spans of one traced rep, in nanoseconds.
#[derive(Debug)]
pub struct SpanBuf {
    /// Start and end of the run span (id 0), the parent of every other.
    pub run_ns: (u64, u64),
    /// Every span, in dispatch order.
    pub spans: Vec<Span>,
}

impl SpanBuf {
    /// A recorder with room for `capacity` spans, so that a rep whose
    /// event count is known (from the untraced rep) never allocates here.
    pub fn sink(capacity: usize) -> SpanSink {
        // Written once and emptied again, so that the pages are mapped
        // before the run span opens and not faulted in during it.
        let blank =
            Span { start_ns: 0, dur_ns: 0, actor: Actor::Client, callback: Callback::Start };
        let mut spans = vec![blank; capacity];
        spans.clear();
        Rc::new(RefCell::new(SpanRecorder {
            created: Instant::now(),
            created_ticks: ticks(),
            run_ticks: (0, 0),
            spans,
        }))
    }

    /// Takes the spans out of `sink` and scales them to nanoseconds,
    /// against `Instant` over the recorder's whole life.
    ///
    /// # Panics
    ///
    /// Panics while a [`Timed`] node still holds the sink: drop the rig first.
    pub fn collect(sink: SpanSink) -> SpanBuf {
        let rec = Rc::try_unwrap(sink).expect("every timed node is gone").into_inner();
        let life_ticks = ticks().saturating_sub(rec.created_ticks).max(1);
        let ns_per_tick = rec.created.elapsed().as_nanos() as f64 / life_ticks as f64;
        let ns = |t: u64| (t.saturating_sub(rec.created_ticks) as f64 * ns_per_tick) as u64;
        let mut spans = rec.spans;
        for s in &mut spans {
            s.dur_ns = (f64::from(s.dur_ns) * ns_per_tick) as u32;
            s.start_ns = ns(s.start_ns);
        }
        SpanBuf { run_ns: (ns(rec.run_ticks.0), ns(rec.run_ticks.1)), spans }
    }

    /// Totals per actor × callback, indexed `[actor][callback]`.
    pub fn aggregates(&self) -> [[Aggregate; 3]; 5] {
        let mut out = [[Aggregate::default(); 3]; 5];
        for s in &self.spans {
            let a = &mut out[s.actor as usize][s.callback as usize];
            a.count += 1;
            a.total_ns += u64::from(s.dur_ns);
        }
        out
    }
}

/// A node wrapper that times every callback of the node inside it.
pub struct Timed<N> {
    /// The wrapped node.
    pub inner: N,
    actor: Actor,
    sink: SpanSink,
}

impl<N: Node> Timed<N> {
    fn new(inner: N, actor: Actor, sink: &SpanSink) -> Self {
        Timed { inner, actor, sink: Rc::clone(sink) }
    }

    fn span(&mut self, callback: Callback, call: impl FnOnce(&mut N)) {
        let start = ticks();
        call(&mut self.inner);
        let dur = u32::try_from(ticks().saturating_sub(start)).unwrap_or(u32::MAX);
        // Ticks for now; `SpanBuf::collect` turns both fields into nanoseconds.
        let span = Span { start_ns: start, dur_ns: dur, actor: self.actor, callback };
        self.sink.borrow_mut().spans.push(span);
    }
}

impl<N: Node> Node for Timed<N> {
    fn on_start(&mut self, ctx: &mut Context) {
        self.span(Callback::Start, |n| n.on_start(ctx));
    }

    fn on_frame(&mut self, port: PortId, frame: Bytes, ctx: &mut Context) {
        self.span(Callback::Frame, |n| n.on_frame(port, frame, ctx));
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context) {
        self.span(Callback::Timer, |n| n.on_timer(token, ctx));
    }
}

/// Builds `spec` with every node in a [`Timed`] wrapper. `solo` replaces
/// the primary/backup pair by one standard-TCP server offering the same
/// services (the twin `sttcp.shadow_cost_ratio` divides by).
///
/// # Panics
///
/// Panics on a scenario this module does not mirror (anything but a bare
/// `Topology::SwitchMirror`): silently building something else would void
/// the traced ≡ untraced assertion.
pub fn build_timed(spec: &Spec, solo: bool, sink: &SpanSink) -> Rig {
    match spec {
        Spec::Scenario(s) => build_scenario(s, solo, sink),
        Spec::Fleet(f) => build_fleet(f, solo, sink),
    }
}

fn server_app(workload: Workload, think: SimDuration) -> Box<dyn Application> {
    match workload {
        Workload::Echo { .. } => Box::new(EchoServer::new()),
        Workload::Interactive { reply_size, .. } => {
            Box::new(InteractiveServer::with_sizes(REQUEST_SIZE, reply_size).with_think_time(think))
        }
        Workload::Bulk { file_size } => Box::new(BulkServer::new(file_size)),
        Workload::Upload { file_size } => Box::new(UploadServer::new(file_size)),
    }
}

/// Mirrors `sttcp::scenario::build` for `Topology::SwitchMirror`.
fn build_scenario(spec: &ScenarioSpec, solo: bool, sink: &SpanSink) -> Rig {
    assert!(
        spec.topology == Topology::SwitchMirror
            && !spec.with_logger
            && !spec.with_power_switch
            && !spec.close_when_done
            && !spec.record_obs
            && spec.trace_capacity.is_none(),
        "the traced topology mirrors only a bare SwitchMirror scenario"
    );
    let mut sim = Simulator::with_seed(spec.seed);
    let workload = spec.workload;
    let think = spec.interactive_think;
    let factory = move || -> AppFactory { Box::new(move || server_app(workload, think)) };

    let mut client_cfg = StackConfig::host(MacAddr::local(1), addrs::CLIENT);
    client_cfg.isn_seed = spec.seed ^ 0x1111;
    client_cfg.tcp = spec.tcp.clone();
    let client_node = ClientNode::new(
        client_cfg,
        (addrs::VIP, 80),
        SimDuration::from_millis(1),
        WorkloadClient::new(workload),
    );
    let client = sim.add_node("client", Timed::new(client_node, Actor::Client, sink));

    let mut primary_cfg = StackConfig::host(MacAddr::local(2), addrs::PRIMARY);
    primary_cfg.extra_ips = vec![addrs::VIP];
    primary_cfg.isn_seed = spec.seed ^ 0x2222;
    primary_cfg.learn_from_ip = true;
    primary_cfg.tcp = spec.tcp.clone();

    let (primary, backup) = match &spec.deployment {
        Deployment::StTcp(cfg) if !solo => {
            let mut p_cfg = primary_cfg;
            p_cfg.tcp.retention_buf = p_cfg.tcp.recv_buf;
            let p_node = ServerNode::primary(p_cfg, cfg.clone(), addrs::BACKUP, factory());
            let primary = sim.add_node("primary", Timed::new(p_node, Actor::Primary, sink));

            let mut b_cfg = StackConfig::host(MacAddr::local(3), addrs::BACKUP);
            b_cfg.extra_ips = vec![addrs::VIP];
            b_cfg.isn_seed = spec.seed ^ 0x3333;
            b_cfg.learn_from_ip = true;
            b_cfg.suppressed_ips = vec![addrs::VIP];
            b_cfg.tcp = spec.tcp.clone();
            b_cfg.tcp.shadow = true;
            b_cfg.promiscuous = true;
            let b_node = ServerNode::backup(b_cfg, cfg.clone(), addrs::PRIMARY, factory());
            (primary, Some(sim.add_node("backup", Timed::new(b_node, Actor::Backup, sink))))
        }
        _ => {
            let node = ServerNode::solo(primary_cfg, 80, factory());
            (sim.add_node("server", Timed::new(node, Actor::Solo, sink)), None)
        }
    };

    let mut sw = Switch::new(4);
    sw.add_mirror(PortId(1), PortId(2));
    let fabric = sim.add_node("switch", Timed::new(sw, Actor::Switch, sink));
    sim.connect(client, LAN, fabric, PortId(0), spec.link);
    sim.connect(primary, LAN, fabric, PortId(1), spec.link);
    if let Some(b) = backup {
        sim.connect(b, LAN, fabric, PortId(2), spec.link);
    }
    for fault in &spec.faults.faults {
        match *fault {
            Fault::CrashPrimary { at } => sim.schedule_crash(primary, at),
            Fault::PausePrimary { at, duration } => sim.schedule_pause(primary, at, duration),
        }
    }
    Rig::timed(sim, vec![client], primary, backup)
}

/// The fleet's three extra services (the constructor installs echo).
fn add_fleet_services(node: &mut ServerNode) {
    node.add_service(
        INTERACTIVE_PORT,
        Box::new(|| Box::new(InteractiveServer::with_sizes(REQUEST_SIZE, INTERACTIVE_REPLY))),
    );
    node.add_service(BULK_PORT, Box::new(|| Box::new(BulkServer::new(BULK_FILE))));
    node.add_service(UPLOAD_PORT, Box::new(|| Box::new(UploadServer::new(UPLOAD_FILE))));
}

/// Mirrors `sttcp::fleet::build`.
fn build_fleet(spec: &FleetSpec, solo: bool, sink: &SpanSink) -> Rig {
    assert!(
        !spec.record_obs && spec.trace_capacity.is_none(),
        "the traced topology carries no recorder"
    );
    let n = spec.clients;
    let mut sim = Simulator::with_seed(spec.seed);
    let primary_mac = MacAddr::local(2);
    let backup_mac = MacAddr::local(3);
    let echo = || -> AppFactory { Box::new(|| Box::new(EchoServer::new())) };

    let mut p_cfg = StackConfig::host(primary_mac, addrs::PRIMARY);
    p_cfg.extra_ips = vec![addrs::VIP];
    p_cfg.learn_from_ip = true;
    p_cfg.netmask_bits = 8;
    p_cfg.isn_seed = spec.seed ^ 0x2222;
    p_cfg.static_arp.push((addrs::BACKUP, backup_mac));
    p_cfg.tcp = spec.tcp.clone();

    let (primary, backup) = if solo {
        let mut node = ServerNode::solo(p_cfg, ECHO_PORT, echo());
        add_fleet_services(&mut node);
        (sim.add_node("server", Timed::new(node, Actor::Solo, sink)), None)
    } else {
        p_cfg.tcp.retention_buf = p_cfg.tcp.recv_buf;
        let mut p_node = ServerNode::primary(p_cfg, spec.st_tcp.clone(), addrs::BACKUP, echo());
        add_fleet_services(&mut p_node);
        let primary = sim.add_node("primary", Timed::new(p_node, Actor::Primary, sink));

        let mut b_cfg = StackConfig::host(backup_mac, addrs::BACKUP);
        b_cfg.extra_ips = vec![addrs::VIP];
        b_cfg.learn_from_ip = true;
        b_cfg.netmask_bits = 8;
        b_cfg.promiscuous = true;
        b_cfg.suppressed_ips = vec![addrs::VIP];
        b_cfg.isn_seed = spec.seed ^ 0x3333;
        b_cfg.static_arp.push((addrs::PRIMARY, primary_mac));
        b_cfg.tcp = spec.tcp.clone();
        b_cfg.tcp.shadow = true;
        let mut b_node = ServerNode::backup(b_cfg, spec.st_tcp.clone(), addrs::PRIMARY, echo());
        add_fleet_services(&mut b_node);
        (primary, Some(sim.add_node("backup", Timed::new(b_node, Actor::Backup, sink))))
    };

    let mut sw = Switch::new(2 + n);
    sw.add_mirror(PortId(0), PortId(1));
    let fabric = sim.add_node("switch", Timed::new(sw, Actor::Switch, sink));
    sim.connect(primary, LAN, fabric, PortId(0), spec.link);
    if let Some(b) = backup {
        sim.connect(b, LAN, fabric, PortId(1), spec.link);
    }

    let mut clients = Vec::with_capacity(n);
    for i in 0..n {
        let plan = spec.client_plan(i);
        let mut c_cfg = StackConfig::host(MacAddr::local(100 + i as u32), plan.ip);
        c_cfg.netmask_bits = 8;
        c_cfg.isn_seed = plan.isn_seed;
        c_cfg.static_arp.push((addrs::VIP, primary_mac));
        c_cfg.tcp = spec.tcp.clone();
        let node = ClientNode::new(
            c_cfg,
            (addrs::VIP, plan.port),
            plan.connect_at,
            WorkloadClient::new(plan.workload),
        );
        let id = sim.add_node(format!("client{i}"), Timed::new(node, Actor::Client, sink));
        sim.connect(id, LAN, fabric, PortId(2 + i), spec.link);
        clients.push(id);
    }
    if let Some(at) = spec.crash_primary_at {
        sim.schedule_crash(primary, at);
    }
    Rig::timed(sim, clients, primary, backup)
}

//! The [`Simulator`]: event loop, wiring, fault scheduling, inspection.

use crate::event::{event_target, EventKind, EventQueue};
use crate::fault::{
    DelayRule, DropRule, DuplicateRule, IngressAction, IngressRule, RuleId, RuleStats,
};
use crate::link::{LinkId, LinkSpec, LinkStats, LossModel};
use crate::node::{Context, ControlAction, NicFilter, Node, NodeId, PortId};
use crate::rng::{link_stream_id, node_stream_id, SplitMix64};
use crate::time::{SimDuration, SimTime};
use crate::trace::{ProbeEvent, Trace};
use bytes::Bytes;
use obs::trace::{FaultKind, PowerKind};
use obs::{Counter, Gauge, SharedRecorder, TraceEvent};
use std::any::Any;
use std::borrow::Cow;

/// Callback observing every frame accepted for transmission.
pub type Probe = Box<dyn FnMut(ProbeEvent<'_>)>;

struct NodeSlot {
    node: Option<Box<dyn Node>>,
    name: String,
    alive: bool,
    /// Power-ons after the first start; stamps the timers the node arms.
    boot: u32,
    paused_until: SimTime,
    /// The unicast filter the current boot programmed into its NIC
    /// ([`Context::set_nic_filter`]); `None` passes every frame.
    nic: Option<NicFilter>,
    /// Wiring, indexed by `PortId` (ports are node-local and dense, so a
    /// flat table beats hashing on the per-frame transmit path).
    ports: Vec<Option<(LinkId, usize)>>,
    rules: Vec<IngressRule>,
    /// The stream `rules` draw from.
    rng: SplitMix64,
}

impl NodeSlot {
    /// The one NIC verdict: whether the filter this boot programmed
    /// discards `frame` before the host sees it.
    fn nic_rejects(&self, frame: &[u8]) -> bool {
        self.nic.as_ref().is_some_and(|nic| !nic.passes(frame))
    }
}

struct LinkState {
    spec: LinkSpec,
    ends: [(NodeId, PortId); 2],
    stats: LinkStats,
    busy_until: [SimTime; 2],
    /// Per-direction Gilbert–Elliott burst state (true = bad state);
    /// only consulted by `LossModel::GilbertElliott`.
    ge_bad: [bool; 2],
    /// Per-direction stream the loss model and the jitter draw from:
    /// one direction's frames never move the other's dice.
    rng: [SplitMix64; 2],
}

/// A deterministic discrete-event network simulator.
///
/// See the crate-level docs for an end-to-end example. All mutation of
/// simulated state happens inside [`Simulator::step`]; the various `run_*`
/// methods just loop over it.
pub struct Simulator {
    nodes: Vec<NodeSlot>,
    links: Vec<LinkState>,
    queue: EventQueue,
    now: SimTime,
    /// Names the whole family of random streams (see
    /// [`Simulator::with_seed`]).
    seed: u64,
    trace: Trace,
    probe: Option<Probe>,
    /// Recycled dispatch context (keeps its effect vectors' capacity, so
    /// steady-state dispatches allocate nothing). Boxed: a dispatch takes
    /// it out and puts it back, and a pointer moves cheaper than the
    /// context itself.
    scratch: Option<Box<Context>>,
    /// Every crash scheduled through [`Simulator::schedule_crash`], in
    /// scheduling order (campaign reports attribute failures to it).
    crash_schedule: Vec<(NodeId, SimTime)>,
    /// Observability sink for link/ingress events (no-op by default).
    recorder: SharedRecorder,
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.now)
            .field("nodes", &self.nodes.len())
            .field("links", &self.links.len())
            .field("pending_events", &self.queue.len())
            .finish_non_exhaustive()
    }
}

impl Default for Simulator {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulator {
    /// Creates a simulator with the default RNG seed.
    pub fn new() -> Self {
        Self::with_seed(0xD15C_0B01)
    }

    /// Creates a simulator whose random decisions derive from `seed`.
    /// Equal seeds (and equal scenarios) replay identically.
    ///
    /// Nothing shares a generator. Each direction of each link draws its
    /// loss and jitter from its own stream, and each node's ingress rules
    /// from another, every one named by `seed` and a stable id — the
    /// link's index and direction, the node's index — through the
    /// SplitMix finalizer. So a frame only rolls the dice of the
    /// wire direction it crosses and the node it enters: extra traffic
    /// elsewhere, or a rule on another node, leaves every decision here
    /// as it was. Links and nodes are numbered in the order they are
    /// added, so a scenario built in the same order draws the same.
    pub fn with_seed(seed: u64) -> Self {
        Simulator {
            nodes: Vec::new(),
            links: Vec::new(),
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            seed,
            trace: Trace::default(),
            probe: None,
            scratch: None,
            crash_schedule: Vec::new(),
            recorder: obs::nop(),
        }
    }

    /// Installs an observability recorder; link-layer drops, queue depth,
    /// and ingress-fault outcomes are reported to it from then on.
    pub fn set_recorder(&mut self, recorder: SharedRecorder) {
        self.recorder = recorder;
    }

    /// The currently installed recorder (the no-op one by default).
    pub fn recorder(&self) -> &SharedRecorder {
        &self.recorder
    }

    /// Makes room for `nodes` more nodes and `links` more links. A
    /// builder that knows its topology's size calls this first, so each
    /// table is allocated once instead of doubling, which leaves up to
    /// half its slots empty and holds the old copy while it grows.
    pub fn reserve(&mut self, nodes: usize, links: usize) {
        self.nodes.reserve_exact(nodes);
        self.links.reserve_exact(links);
    }

    /// Adds a node and returns its id. `on_start` fires when the
    /// simulation first runs.
    pub fn add_node(&mut self, name: impl Into<String>, node: impl Node) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(NodeSlot {
            node: Some(Box::new(node)),
            name: name.into(),
            alive: true,
            boot: 0,
            paused_until: SimTime::ZERO,
            nic: None,
            ports: Vec::new(),
            rules: Vec::new(),
            rng: SplitMix64::stream(self.seed, node_stream_id(id.0)),
        });
        self.queue.push(SimTime::ZERO, EventKind::Start { node: id });
        id
    }

    /// Wires port `pa` of node `a` to port `pb` of node `b`.
    ///
    /// # Panics
    ///
    /// Panics if either port is already wired or a node id is invalid.
    pub fn connect(
        &mut self,
        a: NodeId,
        pa: PortId,
        b: NodeId,
        pb: PortId,
        spec: LinkSpec,
    ) -> LinkId {
        let id = LinkId(self.links.len());
        for (end, (node, port)) in [(a, pa), (b, pb)].into_iter().enumerate() {
            let slot = &mut self.nodes[node.0];
            if slot.ports.len() <= port.0 {
                slot.ports.resize(port.0 + 1, None);
            }
            let prev = slot.ports[port.0].replace((id, end));
            assert!(prev.is_none(), "port {port} of node {node} already wired");
        }
        self.links.push(LinkState {
            spec,
            ends: [(a, pa), (b, pb)],
            stats: LinkStats::default(),
            busy_until: [SimTime::ZERO; 2],
            ge_bad: [false; 2],
            rng: [0, 1].map(|end| SplitMix64::stream(self.seed, link_stream_id(id.0, end))),
        });
        id
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The display name given to `id` at [`Simulator::add_node`] time.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.nodes[id.0].name
    }

    /// Whether `id` is powered on.
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.nodes[id.0].alive
    }

    /// Borrow a node as its concrete type (after or between runs).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not refer to a `T`.
    pub fn node_ref<T: Node>(&self, id: NodeId) -> &T {
        let any: &dyn Any =
            self.nodes[id.0].node.as_deref().expect("node is currently being dispatched");
        any.downcast_ref::<T>().unwrap_or_else(|| {
            panic!("node {id} ({}) is not a {}", self.nodes[id.0].name, std::any::type_name::<T>())
        })
    }

    /// Mutable variant of [`Simulator::node_ref`].
    ///
    /// # Panics
    ///
    /// Panics if `id` does not refer to a `T`.
    pub fn node_mut<T: Node>(&mut self, id: NodeId) -> &mut T {
        let slot = &mut self.nodes[id.0];
        let any: &mut dyn Any =
            slot.node.as_deref_mut().expect("node is currently being dispatched");
        if !(*any).is::<T>() {
            panic!("node {id} ({}) is not a {}", slot.name, std::any::type_name::<T>());
        }
        any.downcast_mut::<T>().expect("type just checked")
    }

    /// Schedules a crash (power-off) of `node` at absolute time `at`.
    ///
    /// From that instant the node receives no frames or timers and emits
    /// nothing — fail-stop semantics, the paper's §4.4 failure model.
    /// Timers it had armed are lost for good, even if it is powered on
    /// again before they come due.
    pub fn schedule_crash(&mut self, node: NodeId, at: SimTime) {
        self.crash_schedule.push((node, at));
        self.queue.push(at, EventKind::Control(ControlAction::PowerOff(node)));
    }

    /// Every crash scheduled so far, in scheduling order.
    pub fn crash_schedule(&self) -> &[(NodeId, SimTime)] {
        &self.crash_schedule
    }

    /// Schedules powering `node` back on at `at`; it gets a fresh
    /// `on_start` call (its Rust state is whatever it was — nodes that
    /// model reboots must reset themselves in `on_start`).
    pub fn schedule_power_on(&mut self, node: NodeId, at: SimTime) {
        self.queue.push(at, EventKind::Control(ControlAction::PowerOn(node)));
    }

    /// Pauses `node` from `from` until `from + duration` — a
    /// *performance failure* (paper §4.4's failure model includes them):
    /// the machine is alive but makes no progress; its frames and timers
    /// are delivered late rather than lost. This is exactly the failure
    /// mode that makes timeout-based detection "wrong" and fencing
    /// necessary: the paused primary will resume and keep acting as the
    /// service unless its power is cut.
    ///
    /// ```
    /// use netsim::{Simulator, SimTime, SimDuration};
    /// # struct N;
    /// # impl netsim::Node for N {
    /// #   fn on_frame(&mut self, _p: netsim::PortId, _f: bytes::Bytes, _c: &mut netsim::Context) {}
    /// # }
    /// let mut sim = Simulator::new();
    /// let node = sim.add_node("stalls", N);
    /// sim.schedule_pause(node, SimTime::ZERO + SimDuration::from_millis(100),
    ///                    SimDuration::from_secs(1));
    /// ```
    pub fn schedule_pause(&mut self, node: NodeId, from: SimTime, duration: SimDuration) {
        self.queue.push(from, EventKind::Control(ControlAction::Pause(node, from + duration)));
    }

    /// Installs any ingress rule on `node`; the returned [`RuleId`]
    /// retrieves its counters via [`Simulator::ingress_rule_stats`].
    pub fn add_ingress_rule(&mut self, node: NodeId, rule: impl Into<IngressRule>) -> RuleId {
        let rules = &mut self.nodes[node.0].rules;
        rules.push(rule.into());
        RuleId(rules.len() - 1)
    }

    /// Installs an ingress [`DropRule`] on `node` (tap-omission faults).
    pub fn add_ingress_drop(&mut self, node: NodeId, rule: DropRule) -> RuleId {
        self.add_ingress_rule(node, rule)
    }

    /// Installs an ingress [`DelayRule`] on `node` (reordering faults).
    pub fn add_ingress_delay(&mut self, node: NodeId, rule: DelayRule) -> RuleId {
        self.add_ingress_rule(node, rule)
    }

    /// Installs an ingress [`DuplicateRule`] on `node`.
    pub fn add_ingress_duplicate(&mut self, node: NodeId, rule: DuplicateRule) -> RuleId {
        self.add_ingress_rule(node, rule)
    }

    /// Counters of one ingress rule on `node`.
    ///
    /// # Panics
    ///
    /// Panics if `rule` was not returned for this `node`.
    pub fn ingress_rule_stats(&self, node: NodeId, rule: RuleId) -> RuleStats {
        self.nodes[node.0].rules[rule.0].stats()
    }

    /// Total frames dropped so far by `node`'s ingress drop rules.
    pub fn ingress_dropped(&self, node: NodeId) -> u64 {
        self.nodes[node.0]
            .rules
            .iter()
            .filter_map(|r| match r {
                IngressRule::Drop(d) => Some(d.dropped()),
                _ => None,
            })
            .sum()
    }

    /// Number of events pending in the queue. A simulator with zero
    /// pending events is *wedged*: nothing will ever happen again
    /// without outside intervention.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Statistics for a link.
    pub fn link_stats(&self, link: LinkId) -> &LinkStats {
        &self.links[link.0].stats
    }

    /// Installs a probe observing every frame accepted for transmission.
    pub fn set_probe(&mut self, probe: impl FnMut(ProbeEvent<'_>) + 'static) {
        self.probe = Some(Box::new(probe));
    }

    /// The simulator's counters.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Runs a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some((at, kind)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(at >= self.now, "event queue went backwards");
        self.now = at;
        self.trace.events_processed += 1;
        // A paused node (performance failure) neither processes nor
        // loses its events: they are deferred until the pause ends, like
        // a machine stalled in a long GC pause or an SMI; a deferred wake
        // stays the node's one wake. Control events (power) act on the
        // hardware and are never deferred.
        if let Some(node) = event_target(&kind) {
            let until = self.nodes[node.0].paused_until;
            if until > self.now {
                match kind {
                    EventKind::Wake { .. } => self.queue.set(node.0, until, kind),
                    _ => self.queue.push(until, kind),
                }
                return true;
            }
        }
        match kind {
            EventKind::Start { node } => {
                if self.nodes[node.0].alive {
                    self.dispatch(node, |n, ctx| n.on_start(ctx));
                }
            }
            EventKind::Timer { node, token, boot } => {
                let slot = &self.nodes[node.0];
                if slot.alive {
                    if slot.boot == boot {
                        self.dispatch(node, |n, ctx| n.on_timer(token, ctx));
                    } else {
                        // Armed before a crash, due after the reboot:
                        // the machine that set it no longer exists.
                        self.trace.timers_from_past_boot += 1;
                    }
                }
            }
            EventKind::Wake { node, token } => {
                debug_assert!(self.nodes[node.0].alive, "a power-off clears the wake");
                self.dispatch(node, |n, ctx| n.on_timer(token, ctx));
            }
            EventKind::Frame { node, .. } | EventKind::InjectedFrame { node, .. }
                if !self.nodes[node.0].alive =>
            {
                self.trace.frames_to_dead_node += 1;
            }
            EventKind::Frame { node, port, frame } => match self.ingress_decide(node, &frame) {
                IngressAction::Drop => {
                    self.trace.frames_dropped_ingress += 1;
                    self.recorder.count(Counter::IngressDrops, 1);
                    self.trace_fault(FaultKind::Drop);
                }
                IngressAction::Delay(d) => {
                    self.trace.frames_delayed_ingress += 1;
                    self.recorder.count(Counter::IngressDelays, 1);
                    self.trace_fault(FaultKind::Delay);
                    self.queue.push(self.now + d, EventKind::InjectedFrame { node, port, frame });
                }
                IngressAction::Duplicate(d) => {
                    self.trace.frames_duplicated_ingress += 1;
                    self.recorder.count(Counter::IngressDuplicates, 1);
                    self.trace_fault(FaultKind::Duplicate);
                    self.queue.push(
                        self.now + d,
                        EventKind::InjectedFrame { node, port, frame: frame.clone() },
                    );
                    self.deliver(node, port, frame);
                }
                IngressAction::Deliver => self.deliver(node, port, frame),
            },
            EventKind::InjectedFrame { node, port, frame } => self.deliver(node, port, frame),
            EventKind::Control(action) => self.apply_control(action),
        }
        true
    }

    /// Runs until the queue is exhausted or `max_events` have fired.
    /// Returns the number of events processed.
    pub fn run_until_idle(&mut self, max_events: u64) -> u64 {
        let mut n = 0;
        while n < max_events && self.step() {
            n += 1;
        }
        n
    }

    /// Processes every event scheduled at or before `deadline`, then sets
    /// the clock to `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                break;
            }
            self.step();
        }
        self.now = self.now.max(deadline);
    }

    /// Runs for `d` of virtual time from the current instant.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.now + d;
        self.run_until(deadline);
    }

    /// Runs every ingress rule over the frame (all of them, so each
    /// keeps counting) and combines their verdicts: drop beats delay
    /// beats duplicate beats deliver; concurrent delays take the
    /// longest hold.
    fn ingress_decide(&mut self, node: NodeId, frame: &Bytes) -> IngressAction {
        let slot = &mut self.nodes[node.0];
        if slot.rules.is_empty() {
            return IngressAction::Deliver;
        }
        let mut verdict = IngressAction::Deliver;
        for rule in &mut slot.rules {
            match (rule.decide(frame, self.now, &mut slot.rng), &mut verdict) {
                (IngressAction::Drop, v) => *v = IngressAction::Drop,
                (IngressAction::Delay(d), IngressAction::Delay(held)) => *held = (*held).max(d),
                (IngressAction::Delay(_), IngressAction::Drop) => {}
                (IngressAction::Delay(d), v) => *v = IngressAction::Delay(d),
                (IngressAction::Duplicate(d), v @ IngressAction::Deliver) => {
                    *v = IngressAction::Duplicate(d)
                }
                (IngressAction::Duplicate(_) | IngressAction::Deliver, _) => {}
            }
        }
        verdict
    }

    /// A frame reaches the NIC of live node `id` as an event, and the
    /// filter decides whether the host sees it. (A refusal that was
    /// already certain when the frame went on the wire never gets here:
    /// see the end of [`Simulator::transmit`].)
    fn deliver(&mut self, id: NodeId, port: PortId, frame: Bytes) {
        if self.nodes[id.0].nic_rejects(&frame) {
            return self.count_nic_filtered();
        }
        self.trace.frames_delivered += 1;
        self.dispatch(id, |n, ctx| n.on_frame(port, frame, ctx));
    }

    fn count_nic_filtered(&mut self) {
        self.trace.frames_filtered_nic += 1;
        self.recorder.count(Counter::NicFiltered, 1);
    }

    fn dispatch(&mut self, id: NodeId, call: impl FnOnce(&mut dyn Node, &mut Context)) {
        let mut node = self.nodes[id.0].node.take().expect("re-entrant dispatch");
        let mut ctx = match self.scratch.take() {
            Some(mut c) => {
                c.rearm(self.now, id);
                c
            }
            None => Box::new(Context::new(self.now, id)),
        };
        call(node.as_mut(), &mut ctx);
        self.nodes[id.0].node = Some(node);
        self.apply_effects(id, &mut ctx);
        self.scratch = Some(ctx);
    }

    fn apply_effects(&mut self, id: NodeId, ctx: &mut Context) {
        if let Some(nic) = ctx.nic.take() {
            self.nodes[id.0].nic = Some(nic);
        }
        // When the last frame sent (not copied) starts onto its wire.
        let mut started = self.now;
        for (port, frame, copy) in ctx.frames.drain(..) {
            let start = self.transmit(id, port, frame, if copy { started } else { self.now });
            if !copy {
                started = start;
            }
        }
        let boot = self.nodes[id.0].boot;
        for (at, token) in ctx.timers.drain(..) {
            self.queue.push(at, EventKind::Timer { node: id, token, boot });
        }
        match ctx.wake.take() {
            Some(Some((at, token))) => {
                self.queue.set(id.0, at, EventKind::Wake { node: id, token })
            }
            Some(None) => self.queue.clear(id.0),
            None => {}
        }
        for action in ctx.control.drain(..) {
            self.queue.push(self.now, EventKind::Control(action));
        }
    }

    fn apply_control(&mut self, action: ControlAction) {
        match action {
            ControlAction::PowerOff(node) => {
                self.nodes[node.0].alive = false;
                self.queue.clear(node.0);
                self.trace_power(node, PowerKind::Crash);
            }
            ControlAction::Pause(node, until) => {
                self.nodes[node.0].paused_until = until;
                self.trace_power(node, PowerKind::Pause);
            }
            ControlAction::PowerOn(node) => {
                if !self.nodes[node.0].alive {
                    self.nodes[node.0].alive = true;
                    self.nodes[node.0].boot += 1;
                    self.nodes[node.0].nic = None;
                    self.queue.push(self.now, EventKind::Start { node });
                    self.trace_power(node, PowerKind::PowerOn);
                }
            }
        }
    }

    fn trace_fault(&self, kind: FaultKind) {
        self.recorder.trace(self.now.as_nanos(), &TraceEvent::FaultRule { kind });
    }

    fn trace_power(&self, node: NodeId, what: PowerKind) {
        self.recorder.trace(
            self.now.as_nanos(),
            &TraceEvent::NodePower { node: Cow::Owned(self.nodes[node.0].name.clone()), what },
        );
    }

    /// Puts `frame` on the wire of `from`'s `port`, starting no earlier
    /// than `not_before`; returns when it starts (now, for a frame that
    /// never does).
    fn transmit(
        &mut self,
        from: NodeId,
        port: PortId,
        frame: Bytes,
        not_before: SimTime,
    ) -> SimTime {
        let Some((link_id, end)) = self.nodes[from.0].ports.get(port.0).copied().flatten() else {
            self.trace.frames_unwired += 1;
            return self.now;
        };
        let link = &mut self.links[link_id.0];
        let (to, to_port) = link.ends[1 - end];
        let dir = if end == 0 { &mut link.stats.a_to_b } else { &mut link.stats.b_to_a };
        let rng = &mut link.rng[end];

        // Loss model decides before the frame occupies the wire (a frame
        // corrupted on the wire still consumed air time; modelling it as
        // pre-drop keeps throughput slightly optimistic but simple).
        let lost = match link.spec.loss {
            LossModel::None => false,
            LossModel::Rate(p) => rng.chance(p),
            LossModel::GilbertElliott { p_enter, p_exit, loss } => {
                // Advance this direction's two-state Markov chain, then
                // draw the (state-conditional) loss.
                let bad = &mut link.ge_bad[end];
                *bad = if *bad { !rng.chance(p_exit) } else { rng.chance(p_enter) };
                *bad && rng.chance(loss)
            }
        };
        if lost {
            dir.dropped += 1;
            self.trace.frames_lost_on_link += 1;
            self.recorder.count(Counter::LinkLossDrops, 1);
            return self.now;
        }

        // Bounded transmit queue: if the serialization backlog already
        // exceeds the configured depth, tail-drop (congestion loss).
        if let Some(depth) = link.spec.max_queue {
            let backlog =
                link.busy_until[end].checked_duration_since(self.now).unwrap_or(SimDuration::ZERO);
            if backlog > depth {
                dir.queue_drops += 1;
                self.trace.frames_lost_on_link += 1;
                self.recorder.count(Counter::LinkQueueDrops, 1);
                return self.now;
            }
        }
        let start = not_before.max(link.busy_until[end]);
        let departure = start + link.spec.serialization_time_dir(frame.len(), end);
        link.busy_until[end] = departure;
        self.recorder.gauge_max(
            Gauge::LinkQueueDepth,
            departure.checked_duration_since(self.now).unwrap_or(SimDuration::ZERO).as_nanos(),
        );
        let mut arrival = departure + link.spec.latency;
        if !link.spec.jitter.is_zero() {
            arrival += SimDuration::from_nanos(rng.next_below(link.spec.jitter.as_nanos() + 1));
        }
        dir.frames += 1;
        dir.bytes += frame.len() as u64;

        if let Some(probe) = self.probe.as_mut() {
            probe(ProbeEvent { time: departure, link: link_id, from, to, frame: &frame });
        }
        // The wire has been charged in full. A NIC's filter is static
        // within a boot, so when the far node is up, running and has no
        // ingress rule to judge the frame first, a rejection is already
        // known: the copy is counted now and never becomes an event.
        // Every other frame is scheduled, and `deliver` judges it.
        let far = &self.nodes[to.0];
        let decidable = far.alive && far.paused_until <= self.now && far.rules.is_empty();
        if decidable && far.nic_rejects(&frame) {
            self.count_nic_filtered();
        } else {
            self.queue.push(arrival, EventKind::Frame { node: to, port: to_port, frame });
        }
        start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sends `count` frames of `len` bytes on start, counts what it gets.
    struct Blaster {
        count: usize,
        len: usize,
        received: Vec<(SimTime, usize)>,
    }

    impl Blaster {
        fn new(count: usize, len: usize) -> Self {
            Blaster { count, len, received: Vec::new() }
        }
    }

    impl Node for Blaster {
        fn on_start(&mut self, ctx: &mut Context) {
            for _ in 0..self.count {
                ctx.send_frame(PortId(0), Bytes::from(vec![0u8; self.len]));
            }
        }
        fn on_frame(&mut self, _port: PortId, frame: Bytes, ctx: &mut Context) {
            self.received.push((ctx.now(), frame.len()));
        }
    }

    struct Sink {
        received: Vec<(SimTime, usize)>,
    }

    impl Node for Sink {
        fn on_frame(&mut self, _port: PortId, frame: Bytes, ctx: &mut Context) {
            self.received.push((ctx.now(), frame.len()));
        }
    }

    fn pair(spec: LinkSpec) -> (Simulator, NodeId, NodeId) {
        let mut sim = Simulator::new();
        let a = sim.add_node("a", Blaster::new(0, 0));
        let b = sim.add_node("b", Sink { received: Vec::new() });
        sim.connect(a, PortId(0), b, PortId(0), spec);
        (sim, a, b)
    }

    #[test]
    fn latency_only_delivery() {
        let (mut sim, a, b) = pair(LinkSpec::ideal().with_latency(SimDuration::from_millis(3)));
        sim.node_mut::<Blaster>(a).count = 1;
        sim.node_mut::<Blaster>(a).len = 100;
        sim.run_until_idle(1000);
        let rx = &sim.node_ref::<Sink>(b).received;
        assert_eq!(rx.len(), 1);
        assert_eq!(rx[0].0, SimTime::ZERO + SimDuration::from_millis(3));
    }

    #[test]
    fn bandwidth_serializes_fifo() {
        // 2 frames of 1230B (+20B overhead = 1250B = 10_000 bits) at
        // 1 Mbit/s: 10ms each, so arrivals at 10ms and 20ms (zero latency).
        let spec = LinkSpec::ideal().with_bandwidth_bps(1_000_000);
        let (mut sim, a, b) = pair(spec);
        sim.node_mut::<Blaster>(a).count = 2;
        sim.node_mut::<Blaster>(a).len = 1230;
        sim.run_until_idle(1000);
        let rx = &sim.node_ref::<Sink>(b).received;
        assert_eq!(rx.len(), 2);
        assert_eq!(rx[0].0, SimTime::ZERO + SimDuration::from_millis(10));
        assert_eq!(rx[1].0, SimTime::ZERO + SimDuration::from_millis(20));
    }

    #[test]
    fn directions_do_not_contend() {
        // Full-duplex: a->b and b->a transmissions at the same instant
        // each take their own serialization slot.
        struct PingPong {
            got: Vec<SimTime>,
        }
        impl Node for PingPong {
            fn on_start(&mut self, ctx: &mut Context) {
                ctx.send_frame(PortId(0), Bytes::from(vec![0; 1230]));
            }
            fn on_frame(&mut self, _p: PortId, _f: Bytes, ctx: &mut Context) {
                self.got.push(ctx.now());
            }
        }
        let mut sim = Simulator::new();
        let a = sim.add_node("a", PingPong { got: vec![] });
        let b = sim.add_node("b", PingPong { got: vec![] });
        sim.connect(a, PortId(0), b, PortId(0), LinkSpec::ideal().with_bandwidth_bps(1_000_000));
        sim.run_until_idle(100);
        assert_eq!(
            sim.node_ref::<PingPong>(a).got,
            vec![SimTime::ZERO + SimDuration::from_millis(10)]
        );
        assert_eq!(
            sim.node_ref::<PingPong>(b).got,
            vec![SimTime::ZERO + SimDuration::from_millis(10)]
        );
    }

    #[test]
    fn crash_stops_delivery_and_timers() {
        struct Ticker {
            ticks: u32,
        }
        impl Node for Ticker {
            fn on_start(&mut self, ctx: &mut Context) {
                ctx.set_timer_after(SimDuration::from_millis(10), 0);
            }
            fn on_frame(&mut self, _p: PortId, _f: Bytes, _ctx: &mut Context) {}
            fn on_timer(&mut self, _t: u64, ctx: &mut Context) {
                self.ticks += 1;
                ctx.set_timer_after(SimDuration::from_millis(10), 0);
            }
        }
        let mut sim = Simulator::new();
        let t = sim.add_node("ticker", Ticker { ticks: 0 });
        sim.schedule_crash(t, SimTime::ZERO + SimDuration::from_millis(55));
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(sim.node_ref::<Ticker>(t).ticks, 5);
        assert!(!sim.is_alive(t));
    }

    #[test]
    fn power_on_restarts_node() {
        struct Boots {
            boots: u32,
        }
        impl Node for Boots {
            fn on_start(&mut self, _ctx: &mut Context) {
                self.boots += 1;
            }
            fn on_frame(&mut self, _p: PortId, _f: Bytes, _ctx: &mut Context) {}
        }
        let mut sim = Simulator::new();
        let n = sim.add_node("boots", Boots { boots: 0 });
        sim.schedule_crash(n, SimTime::ZERO + SimDuration::from_millis(10));
        sim.schedule_power_on(n, SimTime::ZERO + SimDuration::from_millis(20));
        sim.run_for(SimDuration::from_millis(30));
        assert_eq!(sim.node_ref::<Boots>(n).boots, 2);
        assert!(sim.is_alive(n));
    }

    #[test]
    fn timers_do_not_survive_a_power_cycle() {
        /// Arms one timer 100 ms after every start; logs what fires.
        struct Sleeper {
            boots: u64,
            fired: Vec<(SimTime, u64)>,
        }
        impl Node for Sleeper {
            fn on_start(&mut self, ctx: &mut Context) {
                self.boots += 1;
                ctx.set_timer_after(SimDuration::from_millis(100), self.boots);
            }
            fn on_frame(&mut self, _p: PortId, _f: Bytes, _ctx: &mut Context) {}
            fn on_timer(&mut self, token: u64, ctx: &mut Context) {
                self.fired.push((ctx.now(), token));
            }
        }
        let ms = |n| SimTime::ZERO + SimDuration::from_millis(n);
        let mut sim = Simulator::new();
        let n = sim.add_node("sleeper", Sleeper { boots: 0, fired: Vec::new() });
        sim.schedule_crash(n, ms(10));
        sim.schedule_power_on(n, ms(20));
        sim.run_for(SimDuration::from_secs(1));
        // The first boot's timer came due at 100 ms, inside the second
        // boot: it must not reach the rebooted node. The second boot's
        // own timer (armed at 20 ms) does.
        assert_eq!(sim.node_ref::<Sleeper>(n).fired, vec![(ms(120), 2)]);
        assert_eq!(sim.trace().timers_from_past_boot, 1);
    }

    #[test]
    fn frames_to_dead_node_counted() {
        let (mut sim, a, b) = pair(LinkSpec::ideal().with_latency(SimDuration::from_millis(5)));
        sim.node_mut::<Blaster>(a).count = 3;
        sim.node_mut::<Blaster>(a).len = 64;
        sim.schedule_crash(b, SimTime::ZERO + SimDuration::from_millis(1));
        sim.run_until_idle(100);
        assert_eq!(sim.node_ref::<Sink>(b).received.len(), 0);
        assert_eq!(sim.trace().frames_to_dead_node, 3);
    }

    #[test]
    fn loss_rate_drops_deterministically() {
        let run = |seed| {
            let mut sim = Simulator::with_seed(seed);
            let a = sim.add_node("a", Blaster::new(1000, 64));
            let b = sim.add_node("b", Sink { received: vec![] });
            let l = sim.connect(
                a,
                PortId(0),
                b,
                PortId(0),
                LinkSpec::ideal().with_loss(LossModel::Rate(0.3)),
            );
            sim.run_until_idle(10_000);
            (sim.node_ref::<Sink>(b).received.len(), sim.link_stats(l).a_to_b.dropped)
        };
        let (rx1, drop1) = run(7);
        let (rx2, drop2) = run(7);
        assert_eq!((rx1, drop1), (rx2, drop2));
        assert_eq!(rx1 as u64 + drop1, 1000);
        assert!((200..400).contains(&drop1), "30% loss dropped {drop1}/1000");
    }

    #[test]
    fn gilbert_elliott_loss_is_bursty_and_deterministic() {
        let run = |seed| {
            let mut sim = Simulator::with_seed(seed);
            let a = sim.add_node("a", Blaster::new(5000, 64));
            let b = sim.add_node("b", Sink { received: vec![] });
            let l = sim.connect(
                a,
                PortId(0),
                b,
                PortId(0),
                LinkSpec::ideal().with_loss(LossModel::GilbertElliott {
                    p_enter: 0.02,
                    p_exit: 0.25,
                    loss: 1.0,
                }),
            );
            sim.run_until_idle(100_000);
            (sim.node_ref::<Sink>(b).received.len(), sim.link_stats(l).a_to_b.dropped)
        };
        let (rx1, drop1) = run(42);
        let (rx2, drop2) = run(42);
        assert_eq!((rx1, drop1), (rx2, drop2), "same seed must replay identically");
        assert_eq!(rx1 as u64 + drop1, 5000);
        // Stationary bad-state fraction = p_enter/(p_enter+p_exit) ≈ 7.4%,
        // all of it lost (loss = 1.0). Allow a wide deterministic band.
        assert!((150..800).contains(&drop1), "GE dropped {drop1}/5000");
    }

    #[test]
    fn gilbert_elliott_state_is_per_direction() {
        // A one-way blast must leave the reverse direction's chain alone:
        // drops only ever appear in a_to_b.
        let mut sim = Simulator::with_seed(9);
        let a = sim.add_node("a", Blaster::new(1000, 64));
        let b = sim.add_node("b", Sink { received: vec![] });
        let l = sim.connect(
            a,
            PortId(0),
            b,
            PortId(0),
            LinkSpec::ideal().with_loss(LossModel::GilbertElliott {
                p_enter: 0.05,
                p_exit: 0.3,
                loss: 1.0,
            }),
        );
        sim.run_until_idle(100_000);
        assert!(sim.link_stats(l).a_to_b.dropped > 0);
        assert_eq!(sim.link_stats(l).b_to_a.dropped, 0);
    }

    /// Sends one 64-byte frame carrying `tag` at each `(at, tag)` of its
    /// plan and logs the tag and arrival instant of every frame it hears.
    struct Chatter {
        plan: Vec<(SimTime, u64)>,
        heard: Vec<(u64, SimTime)>,
    }

    impl Chatter {
        /// Tags `first..first + 200`, one per millisecond.
        fn every_ms(first: u64) -> Self {
            let plan = (0..200).map(|i| (SimTime::ZERO + SimDuration::from_millis(i), first + i));
            Chatter { plan: plan.collect(), heard: Vec::new() }
        }
    }

    impl Node for Chatter {
        fn on_start(&mut self, ctx: &mut Context) {
            for (k, &(at, _)) in self.plan.iter().enumerate() {
                ctx.set_timer_at(at, k as u64);
            }
        }
        fn on_frame(&mut self, _port: PortId, frame: Bytes, ctx: &mut Context) {
            let tag = u64::from_le_bytes(frame[..8].try_into().unwrap());
            self.heard.push((tag, ctx.now()));
        }
        fn on_timer(&mut self, token: u64, ctx: &mut Context) {
            let mut frame = vec![0u8; 64];
            frame[..8].copy_from_slice(&self.plan[token as usize].1.to_le_bytes());
            ctx.send_frame(PortId(0), Bytes::from(frame));
        }
    }

    /// Links `a`–`b` (A) and `c`–`d` (B), each direction losing 30 % and
    /// jittering up to 400 µs, with 200 frames each way on each link; `a`
    /// sends `extra` more. `rule` runs on the simulator before it starts.
    /// Returns the simulator, the nodes and the links.
    fn two_lossy_links(
        extra: u64,
        rule: impl FnOnce(&mut Simulator, [NodeId; 4]),
    ) -> (Simulator, [NodeId; 4], [LinkId; 2]) {
        let spec = LinkSpec::ideal()
            .with_latency(SimDuration::from_millis(1))
            .with_jitter(SimDuration::from_micros(400))
            .with_loss(LossModel::Rate(0.3));
        let mut sim = Simulator::with_seed(11);
        let mut a = Chatter::every_ms(0);
        let half_ms = SimDuration::from_micros(500);
        a.plan.extend((0..extra).map(|i| (at_ms(i) + half_ms, 1_000 + i)));
        let nodes = [
            sim.add_node("a", a),
            sim.add_node("b", Chatter::every_ms(2_000)),
            sim.add_node("c", Chatter::every_ms(3_000)),
            sim.add_node("d", Chatter::every_ms(4_000)),
        ];
        let links = [
            sim.connect(nodes[0], PortId(0), nodes[1], PortId(0), spec),
            sim.connect(nodes[2], PortId(0), nodes[3], PortId(0), spec),
        ];
        rule(&mut sim, nodes);
        sim.run_until_idle(100_000);
        (sim, nodes, links)
    }

    fn heard(sim: &Simulator, node: NodeId) -> Vec<(u64, SimTime)> {
        sim.node_ref::<Chatter>(node).heard.clone()
    }

    #[test]
    fn extra_frames_in_one_direction_move_no_other_draw() {
        let (base, nodes, [a, b]) = two_lossy_links(0, |_, _| {});
        let (more, ..) = two_lossy_links(150, |_, _| {});
        // Every loss and jitter decision of A's other direction and of
        // both directions of B is the one the quiet run took.
        assert_eq!(heard(&base, nodes[0]), heard(&more, nodes[0]), "b→a on A");
        assert_eq!(heard(&base, nodes[2]), heard(&more, nodes[2]), "d→c on B");
        assert_eq!(heard(&base, nodes[3]), heard(&more, nodes[3]), "c→d on B");
        let drops = |sim: &Simulator| {
            let (a, b) = (sim.link_stats(a), sim.link_stats(b));
            (a.b_to_a.dropped, b.a_to_b.dropped, b.b_to_a.dropped)
        };
        assert_eq!(drops(&base), drops(&more));
        assert!(drops(&base).0 > 20, "the links do lose frames: {:?}", drops(&base));
        // The direction the extra frames crossed is the one they re-roll.
        let from_a = |sim: &Simulator| {
            heard(sim, nodes[1]).into_iter().filter(|&(tag, _)| tag < 200).collect::<Vec<_>>()
        };
        assert_ne!(from_a(&base), from_a(&more));
    }

    #[test]
    fn an_ingress_rule_moves_no_link_draw() {
        let (base, nodes, links) = two_lossy_links(0, |_, _| {});
        let (ruled, ..) = two_lossy_links(0, |sim, nodes| {
            sim.add_ingress_drop(nodes[1], DropRule::rate(0.5, |_| true));
        });
        for node in [nodes[0], nodes[2], nodes[3]] {
            assert_eq!(heard(&base, node), heard(&ruled, node), "{}", base.node_name(node));
        }
        // `b` hears a subset of what it heard without the rule, each
        // frame at the instant its link gave it.
        let (all, kept) = (heard(&base, nodes[1]), heard(&ruled, nodes[1]));
        assert!(kept.len() < all.len() * 3 / 4, "{} of {}", kept.len(), all.len());
        assert!(kept.iter().all(|f| all.contains(f)));
        for link in links {
            let drops = |sim: &Simulator| {
                let s = sim.link_stats(link);
                (s.a_to_b.dropped, s.b_to_a.dropped)
            };
            assert_eq!(drops(&base), drops(&ruled));
            assert_eq!(base.links[link.0].rng, ruled.links[link.0].rng);
        }
    }

    #[test]
    fn ingress_drop_rule_applies() {
        let (mut sim, a, b) = pair(LinkSpec::ideal());
        sim.node_mut::<Blaster>(a).count = 10;
        sim.node_mut::<Blaster>(a).len = 64;
        sim.add_ingress_drop(b, DropRule::window(3, 2, |_| true));
        sim.run_until_idle(100);
        assert_eq!(sim.node_ref::<Sink>(b).received.len(), 8);
        assert_eq!(sim.ingress_dropped(b), 2);
        assert_eq!(sim.trace().frames_dropped_ingress, 2);
    }

    #[test]
    fn ingress_delay_rule_defers_delivery() {
        let (mut sim, a, b) = pair(LinkSpec::ideal().with_latency(SimDuration::from_millis(1)));
        sim.node_mut::<Blaster>(a).count = 3;
        sim.node_mut::<Blaster>(a).len = 64;
        // Delay only the second frame by 10ms: it arrives after the third
        // (reordering), nothing is lost.
        let rule = DelayRule::by(SimDuration::from_millis(10), |_| true).window(1, 1);
        let id = sim.add_ingress_delay(b, rule);
        sim.run_until_idle(100);
        let rx = &sim.node_ref::<Sink>(b).received;
        assert_eq!(rx.len(), 3, "delay must never lose a frame");
        assert_eq!(rx[0].0, SimTime::ZERO + SimDuration::from_millis(1));
        assert_eq!(rx[1].0, SimTime::ZERO + SimDuration::from_millis(1));
        assert_eq!(rx[2].0, SimTime::ZERO + SimDuration::from_millis(11), "held frame lands late");
        assert_eq!(sim.ingress_rule_stats(b, id), RuleStats { matched: 3, fired: 1 });
        assert_eq!(sim.trace().frames_delayed_ingress, 1);
        assert_eq!(sim.ingress_dropped(b), 0);
    }

    #[test]
    fn ingress_duplicate_rule_delivers_twice() {
        let (mut sim, a, b) = pair(LinkSpec::ideal());
        sim.node_mut::<Blaster>(a).count = 2;
        sim.node_mut::<Blaster>(a).len = 64;
        let rule = DuplicateRule::after(SimDuration::from_millis(5), |_| true).window(0, 1);
        let id = sim.add_ingress_duplicate(b, rule);
        sim.run_until_idle(100);
        let rx = &sim.node_ref::<Sink>(b).received;
        assert_eq!(rx.len(), 3, "one original duplicated once");
        assert_eq!(sim.ingress_rule_stats(b, id), RuleStats { matched: 2, fired: 1 });
        assert_eq!(sim.trace().frames_duplicated_ingress, 1);
        // The copy bypasses ingress rules: it is not re-duplicated even
        // with an unbounded rule.
        let (mut sim2, a2, b2) = pair(LinkSpec::ideal());
        sim2.node_mut::<Blaster>(a2).count = 1;
        sim2.node_mut::<Blaster>(a2).len = 64;
        sim2.add_ingress_duplicate(b2, DuplicateRule::after(SimDuration::from_millis(5), |_| true));
        sim2.run_until_idle(100);
        assert_eq!(sim2.node_ref::<Sink>(b2).received.len(), 2);
    }

    #[test]
    fn drop_beats_delay_and_duplicate() {
        let (mut sim, a, b) = pair(LinkSpec::ideal());
        sim.node_mut::<Blaster>(a).count = 1;
        sim.node_mut::<Blaster>(a).len = 64;
        sim.add_ingress_delay(b, DelayRule::by(SimDuration::from_millis(5), |_| true));
        sim.add_ingress_drop(b, DropRule::all(|_| true));
        sim.add_ingress_duplicate(b, DuplicateRule::after(SimDuration::from_millis(5), |_| true));
        sim.run_until_idle(100);
        assert_eq!(sim.node_ref::<Sink>(b).received.len(), 0);
        assert_eq!(sim.trace().frames_dropped_ingress, 1);
    }

    #[test]
    fn crash_schedule_is_recorded() {
        let mut sim = Simulator::new();
        let a = sim.add_node("a", Blaster::new(0, 0));
        let at = SimTime::ZERO + SimDuration::from_millis(7);
        sim.schedule_crash(a, at);
        assert_eq!(sim.crash_schedule(), &[(a, at)]);
    }

    #[test]
    fn pending_events_reaches_zero_when_idle() {
        let (mut sim, a, _b) = pair(LinkSpec::ideal());
        sim.node_mut::<Blaster>(a).count = 1;
        sim.node_mut::<Blaster>(a).len = 64;
        assert!(sim.pending_events() > 0);
        sim.run_until_idle(100);
        assert_eq!(sim.pending_events(), 0);
    }

    #[test]
    fn unwired_port_counted() {
        let mut sim = Simulator::new();
        let a = sim.add_node("a", Blaster::new(1, 64));
        sim.run_until_idle(10);
        assert_eq!(sim.trace().frames_unwired, 1);
        let _ = a;
    }

    #[test]
    fn probe_sees_frames() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let count = Arc::new(AtomicU64::new(0));
        let c2 = count.clone();
        let (mut sim, a, _b) = pair(LinkSpec::ideal());
        sim.node_mut::<Blaster>(a).count = 4;
        sim.node_mut::<Blaster>(a).len = 64;
        sim.set_probe(move |ev| {
            assert_eq!(ev.frame.len(), 64);
            c2.fetch_add(1, Ordering::Relaxed);
        });
        sim.run_until_idle(100);
        assert_eq!(count.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let mut sim = Simulator::new();
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(5));
        assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_secs(5));
    }

    #[test]
    fn pause_defers_but_never_loses_events() {
        struct Ticker {
            ticks: Vec<SimTime>,
            frames: Vec<SimTime>,
        }
        impl Node for Ticker {
            fn on_start(&mut self, ctx: &mut Context) {
                ctx.set_timer_after(SimDuration::from_millis(10), 0);
            }
            fn on_frame(&mut self, _p: PortId, _f: Bytes, ctx: &mut Context) {
                self.frames.push(ctx.now());
            }
            fn on_timer(&mut self, _t: u64, ctx: &mut Context) {
                self.ticks.push(ctx.now());
                ctx.set_timer_after(SimDuration::from_millis(10), 0);
            }
        }
        let mut sim = Simulator::new();
        let t = sim.add_node("ticker", Ticker { ticks: vec![], frames: vec![] });
        let b = sim.add_node("blaster", Blaster::new(0, 0));
        sim.connect(
            b,
            PortId(0),
            t,
            PortId(0),
            LinkSpec::ideal().with_latency(SimDuration::from_millis(1)),
        );
        // Pause [25ms, 60ms): ticks at 30,40,50 defer to 60.
        sim.schedule_pause(
            t,
            SimTime::ZERO + SimDuration::from_millis(25),
            SimDuration::from_millis(35),
        );
        sim.run_for(SimDuration::from_millis(100));
        let ticks: Vec<u64> =
            sim.node_ref::<Ticker>(t).ticks.iter().map(|x| x.as_nanos() / 1_000_000).collect();
        // 10, 20, then the 30ms tick deferred to 60, then 70, 80, 90, 100.
        assert_eq!(ticks, vec![10, 20, 60, 70, 80, 90, 100]);
    }

    #[test]
    fn paused_node_receives_frames_late_not_never() {
        let mut sim = Simulator::new();
        let a = sim.add_node("a", Blaster::new(3, 64));
        let b = sim.add_node("b", Sink { received: vec![] });
        sim.connect(
            a,
            PortId(0),
            b,
            PortId(0),
            LinkSpec::ideal().with_latency(SimDuration::from_millis(1)),
        );
        sim.schedule_pause(b, SimTime::ZERO, SimDuration::from_millis(50));
        sim.run_for(SimDuration::from_millis(100));
        let rx = &sim.node_ref::<Sink>(b).received;
        assert_eq!(rx.len(), 3, "no frame may be lost by a pause");
        assert!(rx.iter().all(|(t, _)| *t >= SimTime::ZERO + SimDuration::from_millis(50)));
    }

    /// Sets its wake to the next of `wakes` on every start (`None`, or
    /// running out, sets none) and logs every wake that reaches it.
    struct Waker {
        wakes: Vec<Option<SimTime>>,
        boots: usize,
        woke: Vec<(SimTime, u64)>,
    }

    impl Waker {
        fn new(wakes: Vec<Option<SimTime>>) -> Self {
            Waker { wakes, boots: 0, woke: Vec::new() }
        }
    }

    impl Node for Waker {
        fn on_start(&mut self, ctx: &mut Context) {
            self.boots += 1;
            if let Some(&Some(at)) = self.wakes.get(self.boots - 1) {
                ctx.set_wake(Some(at), self.boots as u64);
            }
        }
        fn on_frame(&mut self, _p: PortId, _f: Bytes, _ctx: &mut Context) {}
        fn on_timer(&mut self, token: u64, ctx: &mut Context) {
            self.woke.push((ctx.now(), token));
        }
    }

    #[test]
    fn a_wake_due_during_a_pause_fires_when_the_pause_ends() {
        let mut sim = Simulator::new();
        let n = sim.add_node("waker", Waker::new(vec![Some(at_ms(30))]));
        sim.schedule_pause(n, at_ms(20), SimDuration::from_millis(30));
        sim.run_until(at_ms(40));
        assert!(sim.node_ref::<Waker>(n).woke.is_empty(), "paused at 30 ms");
        assert_eq!(sim.pending_events(), 1, "the deferred wake is still the node's one wake");
        sim.run_until_idle(100);
        assert_eq!(sim.node_ref::<Waker>(n).woke, [(at_ms(50), 1)]);
        assert_eq!(sim.trace().events_processed, 4, "start, pause, the deferral, the wake");
    }

    #[test]
    fn a_wake_armed_before_a_crash_never_reaches_the_next_boot() {
        // Boot 1 sets its wake for 100 ms and dies at 10 ms; boot 2,
        // powered on at 20 ms, sets its own for 150 ms.
        let mut sim = Simulator::new();
        let n = sim.add_node("waker", Waker::new(vec![Some(at_ms(100)), Some(at_ms(150))]));
        sim.schedule_crash(n, at_ms(10));
        sim.schedule_power_on(n, at_ms(20));
        sim.run_until(at_ms(11));
        assert_eq!(sim.pending_events(), 1, "the power-off cleared the wake: only the power-on");
        sim.run_until_idle(100);
        assert_eq!(sim.node_ref::<Waker>(n).woke, [(at_ms(150), 2)]);
        // The dead boot's wake was never an event, so nothing had to be
        // told apart as a timer from a past boot.
        assert_eq!(sim.trace().timers_from_past_boot, 0);
        assert_eq!(sim.trace().events_processed, 5, "two starts, crash, power-on, one wake");
    }

    // ---------------------------------------------------- NIC filter

    use wire::MacAddr;

    const GROUP: MacAddr = MacAddr([0x01, 0x00, 0x5e, 0, 0, 7]);

    /// A host whose every boot programs its NIC with the next of `macs`
    /// (`None`, or running out, programs nothing) and logs the
    /// destination and the instant of every frame that reaches it.
    #[derive(Default)]
    struct Station {
        macs: Vec<Option<(MacAddr, Vec<MacAddr>)>>,
        boots: usize,
        seen: Vec<MacAddr>,
        seen_at: Vec<SimTime>,
    }

    impl Station {
        fn with(own: MacAddr, also: &[MacAddr]) -> Self {
            Station { macs: vec![Some((own, also.to_vec()))], ..Self::default() }
        }
    }

    impl Node for Station {
        fn on_start(&mut self, ctx: &mut Context) {
            if let Some(Some((own, also))) = self.macs.get(self.boots) {
                ctx.set_nic_filter(*own, also.iter().copied());
            }
            self.boots += 1;
        }
        fn on_frame(&mut self, _port: PortId, frame: Bytes, ctx: &mut Context) {
            self.seen.push(MacAddr(frame[..6].try_into().unwrap()));
            self.seen_at.push(ctx.now());
        }
    }

    /// Sends one 64-byte frame to each `(at, dst)` of its script.
    struct Script(Vec<(SimTime, MacAddr)>);

    impl Node for Script {
        fn on_start(&mut self, ctx: &mut Context) {
            for (i, &(at, _)) in self.0.iter().enumerate() {
                ctx.set_timer_at(at, i as u64);
            }
        }
        fn on_frame(&mut self, _port: PortId, _frame: Bytes, _ctx: &mut Context) {}
        fn on_timer(&mut self, token: u64, ctx: &mut Context) {
            let mut frame = vec![0u8; 64];
            frame[..6].copy_from_slice(&self.0[token as usize].1 .0);
            ctx.send_frame(PortId(0), Bytes::from(frame));
        }
    }

    fn at_ms(n: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(n)
    }

    /// `script` wired straight to `station` over an ideal link.
    fn scripted(
        seed: u64,
        script: Vec<(SimTime, MacAddr)>,
        station: Station,
    ) -> (Simulator, NodeId) {
        scripted_over(LinkSpec::ideal(), seed, script, station)
    }

    fn scripted_over(
        spec: LinkSpec,
        seed: u64,
        script: Vec<(SimTime, MacAddr)>,
        station: Station,
    ) -> (Simulator, NodeId) {
        let mut sim = Simulator::with_seed(seed);
        let tx = sim.add_node("script", Script(script));
        let rx = sim.add_node("station", station);
        sim.connect(tx, PortId(0), rx, PortId(0), spec);
        (sim, rx)
    }

    #[test]
    fn nic_drops_foreign_unicast_and_passes_own_and_group() {
        let (own, alias, foreign) = (MacAddr::local(1), MacAddr::local(2), MacAddr::local(9));
        let script = [foreign, own, MacAddr::BROADCAST, foreign, GROUP, alias];
        let script = script.iter().map(|&dst| (at_ms(1), dst)).collect();
        let (mut sim, rx) = scripted(1, script, Station::with(own, &[alias]));
        let events = sim.run_until_idle(100);
        assert_eq!(sim.node_ref::<Station>(rx).seen, [own, MacAddr::BROADCAST, GROUP, alias]);
        // One `on_frame` per delivered frame; the filtered frames are
        // counted apart and, their verdict known at transmit, are never
        // events.
        assert_eq!(sim.trace().frames_delivered, 4);
        assert_eq!(sim.trace().frames_filtered_nic, 2);
        assert_eq!(events, 2 + 6 + 4, "two starts, six sends, four arrivals");
    }

    #[test]
    fn an_unprogrammed_nic_sees_everything() {
        let script = vec![(at_ms(1), MacAddr::local(9)), (at_ms(1), GROUP)];
        let (mut sim, rx) = scripted(1, script, Station::default());
        sim.run_until_idle(100);
        assert_eq!(sim.node_ref::<Station>(rx).seen, [MacAddr::local(9), GROUP]);
        assert_eq!(sim.trace().frames_filtered_nic, 0);
    }

    #[test]
    fn a_power_cycle_reprograms_the_nic() {
        let (a, b) = (MacAddr::local(1), MacAddr::local(2));
        // Boot 1 is station `a`, boot 2 station `b`, boot 3 programs
        // nothing; both addresses are tried in each boot and in between.
        let times = [5, 15, 25, 35, 45];
        let script = times.iter().flat_map(|&t| [(at_ms(t), a), (at_ms(t), b)]).collect();
        let station = Station {
            macs: vec![Some((a, vec![])), Some((b, vec![])), None],
            ..Station::default()
        };
        let (mut sim, rx) = scripted(1, script, station);
        for (off, on) in [(10, 20), (30, 40)] {
            sim.schedule_crash(rx, at_ms(off));
            sim.schedule_power_on(rx, at_ms(on));
        }
        sim.run_until_idle(1000);
        assert_eq!(sim.node_ref::<Station>(rx).seen, [a, b, a, b], "a | down | b | down | both");
        assert_eq!(sim.trace().frames_to_dead_node, 4, "a dead node's NIC filters nothing");
        assert_eq!(sim.trace().frames_filtered_nic, 2);
        assert_eq!(sim.trace().frames_delivered, 4);
    }

    #[test]
    fn a_paused_node_filters_when_the_deferred_frame_comes_due() {
        let (own, foreign) = (MacAddr::local(1), MacAddr::local(9));
        let script = vec![(at_ms(5), foreign), (at_ms(6), own)];
        let (mut sim, rx) = scripted(1, script, Station::with(own, &[]));
        sim.schedule_pause(rx, at_ms(1), SimDuration::from_millis(50));
        sim.run_until(at_ms(50));
        assert_eq!(sim.trace().frames_delivered, 0, "both arrivals are deferred, not judged");
        assert_eq!(sim.trace().frames_filtered_nic, 0);
        sim.run_until_idle(100);
        assert_eq!(sim.node_ref::<Station>(rx).seen, [own]);
        assert_eq!((sim.trace().frames_delivered, sim.trace().frames_filtered_nic), (1, 1));
    }

    #[test]
    fn fault_rules_judge_a_frame_before_the_nic_does() {
        // The same 400 frames, three in four of them foreign, through a
        // 30 % drop rule, a delay rule and a duplicate rule: the rules
        // must match, fire and draw from the node's stream exactly as
        // they do when the NIC filters nothing, whatever becomes of the
        // frame after.
        let (own, foreign) = (MacAddr::local(1), MacAddr::local(9));
        let run = |station: Station| {
            let script = (0..400).map(|i| (at_ms(i), if i % 4 == 0 { own } else { foreign }));
            let (mut sim, rx) = scripted(77, script.collect(), station);
            let rules = [
                sim.add_ingress_drop(rx, DropRule::rate(0.3, |_| true)),
                sim.add_ingress_delay(
                    rx,
                    DelayRule::by(SimDuration::from_millis(3), |_| true).rate(0.2),
                ),
                sim.add_ingress_duplicate(
                    rx,
                    DuplicateRule::after(SimDuration::from_millis(2), |_| true).rate(0.2),
                ),
            ];
            let events = sim.run_until_idle(10_000);
            let stats = rules.map(|id| sim.ingress_rule_stats(rx, id));
            let t = sim.trace();
            let at_nic = t.frames_delivered + t.frames_filtered_nic;
            let counts = (t.frames_dropped_ingress, t.frames_delayed_ingress, at_nic);
            let own_seen = sim.node_ref::<Station>(rx).seen.iter().filter(|&&d| d == own).count();
            let streams = (sim.nodes[rx.0].rng, sim.links[0].rng);
            (events, stats, streams, counts, own_seen, t.frames_filtered_nic)
        };
        let (open, filtering) = (run(Station::default()), run(Station::with(own, &[])));
        assert_eq!(
            (open.0, open.1, open.2, open.3, open.4),
            (filtering.0, filtering.1, filtering.2, filtering.3, filtering.4)
        );
        assert!(open.1.iter().all(|s| s.matched == 400 && s.fired > 40), "{:?}", open.1);
        assert_eq!(open.5, 0);
        // Every foreign frame that got past the drop rule was filtered,
        // delayed ones when re-injected and duplicates once per copy.
        assert!(filtering.5 > 150, "{} filtered", filtering.5);
    }

    #[test]
    fn a_flood_charges_the_wire_the_same_whether_or_not_the_nics_filter() {
        use crate::switch::Switch;
        use std::cell::RefCell;
        use std::rc::Rc;
        const STATIONS: u32 = 8;
        // One sender floods 20 frames for station 1 through a switch that
        // never learns it (no station ever transmits); every link has a
        // rate, a latency and jitter, so each copy occupies its wire and
        // draws from that direction's stream. Returns what the wires saw
        // — per-link frames and bytes, every probe observation, when the
        // addressee heard each frame, every link's and node's stream —
        // and what it cost: events, frames filtered, frames delivered.
        let run = |others_filter: bool| {
            let mut sim = Simulator::with_seed(5);
            let script = (0..20).map(|i| (at_ms(i), MacAddr::local(1))).collect();
            let tx = sim.add_node("script", Script(script));
            let sw = sim.add_node("switch", Switch::new(STATIONS as usize + 1));
            let spec = LinkSpec::ideal()
                .with_bandwidth_bps(10_000_000)
                .with_latency(SimDuration::from_micros(50))
                .with_jitter(SimDuration::from_micros(20));
            let mut links = vec![sim.connect(tx, PortId(0), sw, PortId(0), spec)];
            let mut stations = Vec::new();
            for i in 1..=STATIONS {
                let station = match i == 1 || others_filter {
                    true => Station::with(MacAddr::local(i), &[]),
                    false => Station::default(),
                };
                stations.push(sim.add_node(format!("s{i}"), station));
                links.push(sim.connect(
                    stations[i as usize - 1],
                    PortId(0),
                    sw,
                    PortId(i as usize),
                    spec,
                ));
            }
            let probed = Rc::new(RefCell::new(Vec::new()));
            let sink = Rc::clone(&probed);
            sim.set_probe(move |ev| {
                sink.borrow_mut().push((ev.time, ev.link, ev.from, ev.to, ev.frame.clone()))
            });
            let events = sim.run_until_idle(10_000);
            let stats = |l: &LinkId| {
                let s = sim.link_stats(*l);
                (s.a_to_b.frames, s.a_to_b.bytes, s.b_to_a.frames, s.b_to_a.bytes)
            };
            let stats: Vec<_> = links.iter().map(stats).collect();
            let heard = sim.node_ref::<Station>(stations[0]).seen_at.clone();
            assert_eq!(heard.len(), 20);
            let t = sim.trace();
            let streams: Vec<_> = sim.links.iter().flat_map(|l| l.rng).collect();
            let node_streams: Vec<_> = sim.nodes.iter().map(|n| n.rng).collect();
            (
                (stats, probed.take(), heard, streams, node_streams),
                [events, t.frames_filtered_nic, t.frames_delivered],
            )
        };
        let ((open_wire, open), (filtering_wire, filtering)) = (run(false), run(true));
        assert_eq!(open_wire, filtering_wire);
        // What differs is what it cost: a copy no NIC takes is no event.
        let copies = 20 * u64::from(STATIONS - 1);
        let ([events, filtered, delivered], [events_f, filtered_f, delivered_f]) =
            (open, filtering);
        assert_eq!((filtered, filtered_f), (0, copies));
        assert_eq!((events - events_f, delivered - delivered_f), (copies, copies));
    }

    #[test]
    fn a_frame_sent_to_a_powered_off_node_is_judged_by_the_boot_it_lands_in() {
        let (a, b) = (MacAddr::local(1), MacAddr::local(2));
        let spec = LinkSpec::ideal().with_latency(SimDuration::from_millis(10));
        let station =
            Station { macs: vec![Some((a, vec![])), Some((b, vec![]))], ..Station::default() };
        // Both frames leave at 15 ms, while the station is down, and land
        // at 25 ms in its second boot — which is station `b`.
        let (mut sim, rx) = scripted_over(spec, 1, vec![(at_ms(15), a), (at_ms(15), b)], station);
        sim.schedule_crash(rx, at_ms(10));
        sim.schedule_power_on(rx, at_ms(20));
        sim.run_until(at_ms(24));
        let t = sim.trace();
        assert_eq!((t.frames_filtered_nic, t.frames_to_dead_node), (0, 0), "no verdict yet");
        assert_eq!(sim.pending_events(), 2, "both arrivals are events");
        sim.run_until_idle(100);
        assert_eq!(sim.node_ref::<Station>(rx).seen, [b]);
        let t = sim.trace();
        assert_eq!((t.frames_filtered_nic, t.frames_delivered, t.frames_to_dead_node), (1, 1, 0));
    }

    #[test]
    fn a_foreign_frame_in_flight_at_a_crash_is_counted_filtered() {
        let (own, foreign) = (MacAddr::local(1), MacAddr::local(9));
        let spec = LinkSpec::ideal().with_latency(SimDuration::from_millis(10));
        // Sent at 5 ms to a station that is up, due at 15 ms; it dies at
        // 10 ms. The NIC's verdict on the foreign frame was taken when it
        // left; the station's own frame was an event and finds it dead.
        let script = vec![(at_ms(5), foreign), (at_ms(5), own)];
        let (mut sim, rx) = scripted_over(spec, 1, script, Station::with(own, &[]));
        sim.schedule_crash(rx, at_ms(10));
        sim.run_until(at_ms(9));
        assert_eq!(sim.trace().frames_filtered_nic, 1, "counted at transmit");
        sim.run_until_idle(100);
        let t = sim.trace();
        assert_eq!((t.frames_filtered_nic, t.frames_to_dead_node, t.frames_delivered), (1, 1, 0));
    }

    #[test]
    #[should_panic(expected = "is not a")]
    fn node_ref_wrong_type_panics() {
        let (sim, a, _) = pair(LinkSpec::ideal());
        let _ = sim.node_ref::<Sink>(a);
    }

    #[test]
    #[should_panic(expected = "already wired")]
    fn double_wiring_panics() {
        let mut sim = Simulator::new();
        let a = sim.add_node("a", Blaster::new(0, 0));
        let b = sim.add_node("b", Blaster::new(0, 0));
        let c = sim.add_node("c", Blaster::new(0, 0));
        sim.connect(a, PortId(0), b, PortId(0), LinkSpec::ideal());
        sim.connect(a, PortId(0), c, PortId(0), LinkSpec::ideal());
    }
}

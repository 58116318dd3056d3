//! Flight recorder: structured protocol event tracing.
//!
//! Counters and marks (the rest of this crate) answer *how often* and
//! *when first*; a post-mortem needs *the story* — the ordered sequence
//! of semantic protocol events that led to a takeover or a violated
//! invariant. This module provides that layer:
//!
//! * [`TraceEvent`] — one semantic event: a TCB state transition,
//!   suppression toggling, a side-channel message,
//!   suspicion/fencing/promotion, a fault-rule activation, a wire
//!   summary with connection and sequence-range attribution.
//! * [`FlightRecorder`] — a bounded ring buffer of [`TracedEvent`]s
//!   (drop-oldest, with a dropped-events counter), fed through the
//!   [`Recorder::trace`] hook. The no-op default recorder keeps the
//!   un-traced cost at one virtual call per event.
//! * [`TraceExport`] — an immutable copy of the ring with a pinned
//!   single-line JSON format (`sttcp-trace-v1`) that round-trips via
//!   [`TraceExport::from_json`].
//!
//! The three post-mortem views the `sttcp-trace` CLI exposes live in
//! [`crate::render`].
//!
//! Events carry virtual-time nanosecond timestamps and a global
//! monotone sequence number assigned at record time. The simulator is
//! single-threaded, so the sequence order is the causal order — in
//! particular, per-connection event order is exact.

use crate::json::{self, Value};
use crate::{Recorder, SharedRecorder};
use std::borrow::Cow;
use std::collections::VecDeque;
use std::fmt;
use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex};

/// Format tag embedded in every exported trace.
pub const TRACE_FORMAT: &str = "sttcp-trace-v1";

/// Default [`FlightRecorder`] capacity (events).
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// Which simulated node recorded an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Actor {
    /// The client node.
    Client,
    /// The primary server.
    Primary,
    /// The backup server.
    Backup,
    /// The network fabric (simulator-level events: faults, power).
    Net,
    /// Anything else (tests, standalone stacks).
    Other,
}

impl Actor {
    /// Every actor, in lane order for rendering.
    pub const ALL: &'static [Actor] =
        &[Actor::Client, Actor::Net, Actor::Primary, Actor::Backup, Actor::Other];

    /// The stable snake_case name used in trace exports.
    pub const fn name(self) -> &'static str {
        match self {
            Actor::Client => "client",
            Actor::Primary => "primary",
            Actor::Backup => "backup",
            Actor::Net => "net",
            Actor::Other => "other",
        }
    }

    fn from_name(s: &str) -> Option<Actor> {
        Actor::ALL.iter().copied().find(|a| a.name() == s)
    }
}

impl fmt::Display for Actor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A connection identified by its unordered endpoint pair.
///
/// TCBs on different nodes see the same connection with `local` and
/// `remote` swapped; canonicalizing to a sorted pair lets events from
/// the client, the primary, and the backup's shadow all attribute to
/// the same connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceConn {
    /// The lower endpoint (by `(ip, port)` order).
    pub lo_ip: Ipv4Addr,
    /// The lower endpoint's port.
    pub lo_port: u16,
    /// The higher endpoint.
    pub hi_ip: Ipv4Addr,
    /// The higher endpoint's port.
    pub hi_port: u16,
}

impl TraceConn {
    /// Canonicalizes an endpoint pair (order of arguments is irrelevant).
    pub fn new(a: (Ipv4Addr, u16), b: (Ipv4Addr, u16)) -> Self {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        TraceConn { lo_ip: lo.0, lo_port: lo.1, hi_ip: hi.0, hi_port: hi.1 }
    }

    /// Parses the [`fmt::Display`] form (`"a:p<->b:q"`); endpoint order
    /// is irrelevant, as in [`TraceConn::new`].
    pub fn parse(s: &str) -> Option<TraceConn> {
        let (a, b) = s.split_once("<->")?;
        let ep = |e: &str| -> Option<(Ipv4Addr, u16)> {
            let (ip, port) = e.rsplit_once(':')?;
            Some((ip.parse().ok()?, port.parse().ok()?))
        };
        Some(TraceConn::new(ep(a)?, ep(b)?))
    }
}

impl fmt::Display for TraceConn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}<->{}:{}", self.lo_ip, self.lo_port, self.hi_ip, self.hi_port)
    }
}

macro_rules! named_enum {
    ($(#[$meta:meta])* $name:ident { $($(#[$vmeta:meta])* $variant:ident => $str:literal,)+ }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum $name {
            $($(#[$vmeta])* $variant,)+
        }

        impl $name {
            /// The stable snake_case name used in trace exports.
            pub const fn name(self) -> &'static str {
                match self {
                    $($name::$variant => $str,)+
                }
            }

            fn from_name(s: &str) -> Option<$name> {
                match s {
                    $($str => Some($name::$variant),)+
                    _ => None,
                }
            }
        }
    };
}

named_enum! {
    /// The kind of a side-channel message (§4.3 sync protocol).
    SideMsgKind {
        /// Primary liveness heartbeat, carrying its reign's epoch and
        /// the frontier entries its backup is owed.
        Heartbeat => "heartbeat",
        /// Backup cumulative acknowledgment (`LastByteAcked`).
        BackupAck => "backup_ack",
        /// Backup request for a missed segment range.
        MissingReq => "missing_req",
        /// Primary reply carrying retained bytes.
        MissingData => "missing_data",
        /// Primary refusal of a missing-segment request.
        MissingNack => "missing_nack",
        /// Batched per-connection cumulative acks from one backup.
        AckBatch => "ack_batch",
        /// VIP ownership transfer concluding a planned migration.
        Handover => "handover",
    }
}

named_enum! {
    /// A phase transition of a planned migration (drain → handover).
    MigrationPhase {
        /// The drain fell due: the primary waits for a heartbeat on which
        /// its successor trails on nothing.
        DrainStarted => "drain_started",
        /// The successor trailed on nothing: the primary fenced itself
        /// and sent the handover.
        HandedOver => "handed_over",
    }
}

named_enum! {
    /// The kind of an injected ingress fault rule that fired.
    FaultKind {
        /// Frame dropped (tap omission).
        Drop => "drop",
        /// Frame delivery deferred (reordering).
        Delay => "delay",
        /// Frame delivered twice.
        Duplicate => "duplicate",
    }
}

named_enum! {
    /// A node power/performance transition scheduled by the simulator.
    PowerKind {
        /// Fail-stop power-off (§4.4 crash).
        Crash => "crash",
        /// Power restored (node reboots via `on_start`).
        PowerOn => "power_on",
        /// Performance failure: alive but making no progress.
        Pause => "pause",
    }
}

/// One semantic protocol event. See the module docs for the taxonomy.
///
/// Variants use `Copy` fields and `Cow<'static, str>` names so that
/// constructing an event at a hook site allocates nothing; owned
/// strings appear only when a trace is parsed back from JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A TCB moved between TCP states.
    TcpState {
        /// The connection.
        conn: TraceConn,
        /// State before the transition.
        from: Cow<'static, str>,
        /// State after the transition.
        to: Cow<'static, str>,
    },
    /// Egress suppression for an IP was enabled or lifted (§4.2 / §5).
    Suppression {
        /// The suppressed (or released) IP.
        ip: Ipv4Addr,
        /// `true` when suppression was enabled.
        on: bool,
    },
    /// A retransmission timeout fired.
    RtoFired {
        /// The connection.
        conn: TraceConn,
        /// Consecutive backoffs applied after this timeout.
        backoff: u32,
        /// The new timeout value, in nanoseconds.
        rto_ns: u64,
    },
    /// A side-channel message was sent.
    SideSend {
        /// Message kind.
        msg: SideMsgKind,
        /// The connection, for per-connection messages.
        conn: Option<TraceConn>,
        /// Kind-specific sequence number (TCP seq, or heartbeat seq).
        seq: u64,
        /// Payload length for data-carrying kinds (a heartbeat's
        /// epoch, a batch's entry count otherwise).
        len: u32,
    },
    /// A side-channel message was received.
    SideRecv {
        /// Message kind.
        msg: SideMsgKind,
        /// The connection, for per-connection messages.
        conn: Option<TraceConn>,
        /// Kind-specific sequence number (TCP seq, or heartbeat seq).
        seq: u64,
        /// Payload length for data-carrying kinds (a heartbeat's
        /// epoch, a batch's entry count otherwise).
        len: u32,
    },
    /// The backup suspected the primary dead (§4.4 detection).
    Suspected {
        /// How long the primary had been silent, in nanoseconds.
        silent_ns: u64,
    },
    /// The backup requested power fencing of the primary (§4.4).
    Fence {
        /// The power-switch outlet addressed.
        outlet: u32,
    },
    /// The backup promoted itself (lifted VIP suppression, §5).
    Promoted,
    /// First post-takeover data byte left for the client.
    FirstByte {
        /// The connection carrying the byte.
        conn: TraceConn,
    },
    /// The primary declared the backup dead (non-fault-tolerant mode).
    BackupDead {
        /// How long the backup had been silent, in nanoseconds.
        silent_ns: u64,
    },
    /// An injected ingress fault rule fired.
    FaultRule {
        /// What the rule did to the frame.
        kind: FaultKind,
    },
    /// A node's power/progress state changed.
    NodePower {
        /// The simulator's display name for the node.
        node: Cow<'static, str>,
        /// The transition.
        what: PowerKind,
    },
    /// A planned migration advanced one phase (cluster subsystem).
    PlannedMigration {
        /// The phase reached.
        phase: MigrationPhase,
        /// Topology epoch the migration establishes.
        epoch: u32,
    },
    /// A congestion controller changed phase (e.g. slow start →
    /// avoidance, startup → probe-bw).
    CongPhase {
        /// The connection.
        conn: TraceConn,
        /// The controller algorithm ("reno", "cubic", "bbr").
        algo: Cow<'static, str>,
        /// Phase before the transition.
        from: Cow<'static, str>,
        /// Phase after the transition.
        to: Cow<'static, str>,
        /// Congestion window (bytes) after the transition.
        cwnd: u32,
    },
    /// Wire summary: one TCP segment emitted by a stack.
    WireData {
        /// The connection.
        conn: TraceConn,
        /// First sequence number of the segment.
        seq: u32,
        /// Payload length (0 for pure control segments).
        len: u32,
        /// Raw TCP flag bits (FIN=0x01 SYN=0x02 RST=0x04 PSH=0x08 ACK=0x10).
        flags: u8,
    },
}

impl TraceEvent {
    /// The stable snake_case kind tag used in trace exports.
    pub const fn kind(&self) -> &'static str {
        match self {
            TraceEvent::TcpState { .. } => "tcp_state",
            TraceEvent::Suppression { .. } => "suppression",
            TraceEvent::RtoFired { .. } => "rto_fired",
            TraceEvent::SideSend { .. } => "side_send",
            TraceEvent::SideRecv { .. } => "side_recv",
            TraceEvent::Suspected { .. } => "suspected",
            TraceEvent::Fence { .. } => "fence",
            TraceEvent::Promoted => "promoted",
            TraceEvent::FirstByte { .. } => "first_byte",
            TraceEvent::BackupDead { .. } => "backup_dead",
            TraceEvent::FaultRule { .. } => "fault_rule",
            TraceEvent::NodePower { .. } => "node_power",
            TraceEvent::PlannedMigration { .. } => "planned_migration",
            TraceEvent::CongPhase { .. } => "cong_phase",
            TraceEvent::WireData { .. } => "wire_data",
        }
    }

    /// The connection the event is attributed to, if any.
    pub fn conn(&self) -> Option<TraceConn> {
        match self {
            TraceEvent::TcpState { conn, .. }
            | TraceEvent::RtoFired { conn, .. }
            | TraceEvent::FirstByte { conn }
            | TraceEvent::CongPhase { conn, .. }
            | TraceEvent::WireData { conn, .. } => Some(*conn),
            TraceEvent::SideSend { conn, .. } | TraceEvent::SideRecv { conn, .. } => *conn,
            _ => None,
        }
    }

    /// One-line human-readable description (no timestamp, no actor).
    pub fn describe(&self) -> String {
        match self {
            TraceEvent::TcpState { conn, from, to } => {
                format!("tcp {from} -> {to}  [{conn}]")
            }
            TraceEvent::Suppression { ip, on } => {
                format!("suppression {} for {ip}", if *on { "ON" } else { "OFF" })
            }
            TraceEvent::RtoFired { conn, backoff, rto_ns } => {
                format!("rto fired backoff={backoff} next={:.0}ms  [{conn}]", ns_ms(*rto_ns))
            }
            TraceEvent::SideSend { msg, conn, seq, len } => {
                format!("side send {}{}", msg.name(), side_detail(*conn, *seq, *len))
            }
            TraceEvent::SideRecv { msg, conn, seq, len } => {
                format!("side recv {}{}", msg.name(), side_detail(*conn, *seq, *len))
            }
            TraceEvent::Suspected { silent_ns } => {
                format!("SUSPECTED primary dead after {:.3}ms of silence", ns_ms(*silent_ns))
            }
            TraceEvent::Fence { outlet } => format!("FENCE requested (outlet {outlet})"),
            TraceEvent::Promoted => "PROMOTED: VIP suppression lifted".to_string(),
            TraceEvent::FirstByte { conn } => {
                format!("FIRST BYTE after takeover  [{conn}]")
            }
            TraceEvent::BackupDead { silent_ns } => {
                format!("backup dead after {:.3}ms of silence (retention off)", ns_ms(*silent_ns))
            }
            TraceEvent::FaultRule { kind } => format!("fault rule fired: {}", kind.name()),
            TraceEvent::NodePower { node, what } => format!("power: {} {}", what.name(), node),
            TraceEvent::PlannedMigration { phase, epoch } => {
                format!("MIGRATION {} (epoch {epoch})", phase.name())
            }
            TraceEvent::CongPhase { conn, algo, from, to, cwnd } => {
                format!("cc {algo} {from} -> {to} cwnd={cwnd}  [{conn}]")
            }
            TraceEvent::WireData { conn, seq, len, flags } => {
                format!("wire {} seq={seq} len={len}  [{conn}]", flag_str(*flags))
            }
        }
    }
}

pub(crate) fn ns_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn side_detail(conn: Option<TraceConn>, seq: u64, len: u32) -> String {
    let mut s = format!(" seq={seq}");
    if len > 0 {
        s.push_str(&format!(" len={len}"));
    }
    if let Some(c) = conn {
        s.push_str(&format!("  [{c}]"));
    }
    s
}

/// Renders raw TCP flag bits as the classic letter string (`S`, `SA`,
/// `PA`, `F`, `R`…), or `.` for a bare segment.
pub fn flag_str(flags: u8) -> String {
    let mut s = String::new();
    for (bit, ch) in [(0x02u8, 'S'), (0x01, 'F'), (0x04, 'R'), (0x08, 'P'), (0x10, 'A')] {
        if flags & bit != 0 {
            s.push(ch);
        }
    }
    if s.is_empty() {
        s.push('.');
    }
    s
}

/// One recorded event: global sequence number, virtual-time timestamp,
/// recording actor, and the event itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TracedEvent {
    /// Global monotone sequence number (assigned at record time; the
    /// total order of a single-threaded simulation).
    pub seq: u64,
    /// Virtual-time nanoseconds.
    pub t_ns: u64,
    /// Which node recorded the event.
    pub actor: Actor,
    /// The event.
    pub event: TraceEvent,
}

struct Ring {
    events: VecDeque<TracedEvent>,
    capacity: usize,
    next_seq: u64,
    dropped: u64,
}

/// Bounded in-memory ring of trace events (drop-oldest).
///
/// Shared as an `Arc` across every node of a scenario via
/// [`for_actor`]; interior mutability is a `Mutex` (uncontended in the
/// single-threaded simulator, and correct if a future embedding records
/// from several threads).
pub struct FlightRecorder {
    inner: Mutex<Ring>,
}

impl fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ring = self.inner.lock().expect("flight recorder poisoned");
        f.debug_struct("FlightRecorder")
            .field("len", &ring.events.len())
            .field("capacity", &ring.capacity)
            .field("dropped", &ring.dropped)
            .finish()
    }
}

impl FlightRecorder {
    /// Creates a recorder holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            inner: Mutex::new(Ring {
                events: VecDeque::with_capacity(capacity.min(4096)),
                capacity,
                next_seq: 0,
                dropped: 0,
            }),
        }
    }

    /// Appends one event, evicting the oldest if the ring is full.
    pub fn record(&self, actor: Actor, t_ns: u64, event: &TraceEvent) {
        let mut ring = self.inner.lock().expect("flight recorder poisoned");
        if ring.events.len() == ring.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        let seq = ring.next_seq;
        ring.next_seq += 1;
        ring.events.push_back(TracedEvent { seq, t_ns, actor, event: event.clone() });
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("flight recorder poisoned").events.len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted so far by the drop-oldest policy.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("flight recorder poisoned").dropped
    }

    /// An immutable copy of everything currently held.
    pub fn export(&self) -> TraceExport {
        let ring = self.inner.lock().expect("flight recorder poisoned");
        TraceExport { dropped: ring.dropped, events: ring.events.iter().cloned().collect() }
    }

    /// The newest `n` events (older retained events count as dropped in
    /// the export, so `dropped + events.len()` stays the total recorded).
    pub fn tail(&self, n: usize) -> TraceExport {
        let ring = self.inner.lock().expect("flight recorder poisoned");
        let skip = ring.events.len().saturating_sub(n);
        TraceExport {
            dropped: ring.dropped + skip as u64,
            events: ring.events.iter().skip(skip).cloned().collect(),
        }
    }
}

/// A [`Recorder`] that forwards metrics to an inner recorder and trace
/// events — tagged with a fixed [`Actor`] — to a shared
/// [`FlightRecorder`]. Built by [`for_actor`].
#[derive(Debug)]
pub struct ActorRecorder {
    actor: Actor,
    metrics: SharedRecorder,
    flight: Arc<FlightRecorder>,
}

impl Recorder for ActorRecorder {
    fn count(&self, c: crate::Counter, n: u64) {
        self.metrics.count(c, n);
    }

    fn gauge_max(&self, g: crate::Gauge, v: u64) {
        self.metrics.gauge_max(g, v);
    }

    fn mark_first(&self, m: crate::Mark, t_ns: u64) {
        self.metrics.mark_first(m, t_ns);
    }

    fn mark_latest(&self, m: crate::Mark, t_ns: u64) {
        self.metrics.mark_latest(m, t_ns);
    }

    fn trace(&self, t_ns: u64, ev: &TraceEvent) {
        self.flight.record(self.actor, t_ns, ev);
    }
}

/// Wraps a metrics recorder so that trace events flow into `flight`
/// attributed to `actor`. Pass [`crate::nop()`] as `metrics` to trace
/// without counting.
pub fn for_actor(
    actor: Actor,
    metrics: SharedRecorder,
    flight: Arc<FlightRecorder>,
) -> SharedRecorder {
    Arc::new(ActorRecorder { actor, metrics, flight })
}

/// Immutable export of a [`FlightRecorder`], with the pinned
/// `sttcp-trace-v1` JSON round-trip.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceExport {
    /// Events evicted before this export was taken.
    pub dropped: u64,
    /// Retained events, oldest first.
    pub events: Vec<TracedEvent>,
}

impl TraceExport {
    /// Distinct connections, in first-appearance order.
    pub fn conns(&self) -> Vec<TraceConn> {
        let mut out: Vec<TraceConn> = Vec::new();
        for e in &self.events {
            if let Some(c) = e.event.conn() {
                if !out.contains(&c) {
                    out.push(c);
                }
            }
        }
        out
    }

    /// This export as a JSON value:
    /// `{"format":"sttcp-trace-v1","dropped":N,"events":[...]}`.
    ///
    /// Member order is fixed per event kind, so equal exports serialize
    /// to byte-identical strings (the determinism tests rely on it).
    pub fn to_value(&self) -> Value {
        json::obj([
            ("format", json::str(TRACE_FORMAT)),
            ("dropped", Value::Num(self.dropped)),
            ("events", Value::Arr(self.events.iter().map(event_to_value).collect())),
        ])
    }

    /// Serializes [`TraceExport::to_value`] as a single line.
    pub fn to_json(&self) -> String {
        self.to_value().to_json()
    }

    /// Parses a `sttcp-trace-v1` export.
    ///
    /// # Errors
    ///
    /// Returns [`TraceParseError`] on malformed JSON, a wrong format
    /// tag, or an unknown event kind / actor.
    pub fn from_json(s: &str) -> Result<TraceExport, TraceParseError> {
        let v = Value::parse(s).ok_or_else(|| TraceParseError("malformed JSON".into()))?;
        let format = v.get("format").and_then(Value::as_str).unwrap_or("");
        if format != TRACE_FORMAT {
            return Err(TraceParseError(format!(
                "expected format {TRACE_FORMAT:?}, got {format:?}"
            )));
        }
        let dropped = v.get("dropped").and_then(Value::as_u64).unwrap_or(0);
        let items = v.get("events").and_then(Value::as_arr).unwrap_or(&[]);
        let events = items.iter().map(parse_event).collect::<Result<_, _>>()?;
        Ok(TraceExport { dropped, events })
    }
}

fn event_to_value(e: &TracedEvent) -> Value {
    let mut m: Vec<(&str, Value)> = vec![
        ("s", Value::Num(e.seq)),
        ("t", Value::Num(e.t_ns)),
        ("a", json::str(e.actor.name())),
        ("ev", json::str(e.event.kind())),
    ];
    let num = Value::Num;
    let conn_str = |c: &TraceConn| json::str(c.to_string());
    match &e.event {
        TraceEvent::TcpState { conn, from, to } => {
            m.extend([
                ("conn", conn_str(conn)),
                ("from", json::str(&**from)),
                ("to", json::str(&**to)),
            ]);
        }
        TraceEvent::Suppression { ip, on } => {
            m.extend([("ip", json::str(ip.to_string())), ("on", Value::Bool(*on))]);
        }
        TraceEvent::RtoFired { conn, backoff, rto_ns } => {
            m.extend([
                ("conn", conn_str(conn)),
                ("backoff", num(u64::from(*backoff))),
                ("rto_ns", num(*rto_ns)),
            ]);
        }
        TraceEvent::SideSend { msg, conn, seq, len }
        | TraceEvent::SideRecv { msg, conn, seq, len } => {
            m.push(("msg", json::str(msg.name())));
            m.extend(conn.as_ref().map(|c| ("conn", conn_str(c))));
            m.extend([("seq", num(*seq)), ("len", num(u64::from(*len)))]);
        }
        TraceEvent::Suspected { silent_ns } | TraceEvent::BackupDead { silent_ns } => {
            m.push(("silent_ns", num(*silent_ns)));
        }
        TraceEvent::Fence { outlet } => m.push(("outlet", num(u64::from(*outlet)))),
        TraceEvent::Promoted => {}
        TraceEvent::FirstByte { conn } => m.push(("conn", conn_str(conn))),
        TraceEvent::FaultRule { kind } => m.push(("kind", json::str(kind.name()))),
        TraceEvent::NodePower { node, what } => {
            m.extend([("node", json::str(&**node)), ("what", json::str(what.name()))]);
        }
        TraceEvent::PlannedMigration { phase, epoch } => {
            m.extend([("phase", json::str(phase.name())), ("epoch", num(u64::from(*epoch)))]);
        }
        TraceEvent::CongPhase { conn, algo, from, to, cwnd } => {
            m.extend([
                ("conn", conn_str(conn)),
                ("algo", json::str(&**algo)),
                ("from", json::str(&**from)),
                ("to", json::str(&**to)),
                ("cwnd", num(u64::from(*cwnd))),
            ]);
        }
        TraceEvent::WireData { conn, seq, len, flags } => {
            m.extend([
                ("conn", conn_str(conn)),
                ("seq", num(u64::from(*seq))),
                ("len", num(u64::from(*len))),
                ("flags", num(u64::from(*flags))),
            ]);
        }
    }
    json::obj(m)
}

/// Error from [`TraceExport::from_json`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError(String);

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace parse error: {}", self.0)
    }
}

impl std::error::Error for TraceParseError {}

fn parse_event(v: &Value) -> Result<TracedEvent, TraceParseError> {
    let err = |what: &str| TraceParseError(format!("event missing/invalid {what}"));
    let seq = v.get("s").and_then(Value::as_u64).ok_or_else(|| err("s"))?;
    let t_ns = v.get("t").and_then(Value::as_u64).ok_or_else(|| err("t"))?;
    let actor = v
        .get("a")
        .and_then(Value::as_str)
        .and_then(Actor::from_name)
        .ok_or_else(|| err("actor"))?;
    let kind = v.get("ev").and_then(Value::as_str).ok_or_else(|| err("ev"))?;
    let conn = |key: &str| -> Result<TraceConn, TraceParseError> {
        v.get(key).and_then(Value::as_str).and_then(TraceConn::parse).ok_or_else(|| err("conn"))
    };
    let opt_conn = |key: &str| -> Option<TraceConn> {
        v.get(key).and_then(Value::as_str).and_then(TraceConn::parse)
    };
    let num = |key: &str| -> Result<u64, TraceParseError> {
        v.get(key).and_then(Value::as_u64).ok_or_else(|| err(key))
    };
    let string = |key: &str| -> Result<String, TraceParseError> {
        v.get(key).and_then(Value::as_str).map(str::to_string).ok_or_else(|| err(key))
    };
    let event = match kind {
        "tcp_state" => TraceEvent::TcpState {
            conn: conn("conn")?,
            from: Cow::Owned(string("from")?),
            to: Cow::Owned(string("to")?),
        },
        "suppression" => TraceEvent::Suppression {
            ip: string("ip")?.parse().map_err(|_| err("ip"))?,
            on: v.get("on").and_then(Value::as_bool).ok_or_else(|| err("on"))?,
        },
        "rto_fired" => TraceEvent::RtoFired {
            conn: conn("conn")?,
            backoff: num("backoff")? as u32,
            rto_ns: num("rto_ns")?,
        },
        "side_send" | "side_recv" => {
            let msg = v
                .get("msg")
                .and_then(Value::as_str)
                .and_then(SideMsgKind::from_name)
                .ok_or_else(|| err("msg"))?;
            let (c, seq_n, len) = (opt_conn("conn"), num("seq")?, num("len")? as u32);
            if kind == "side_send" {
                TraceEvent::SideSend { msg, conn: c, seq: seq_n, len }
            } else {
                TraceEvent::SideRecv { msg, conn: c, seq: seq_n, len }
            }
        }
        "suspected" => TraceEvent::Suspected { silent_ns: num("silent_ns")? },
        "fence" => TraceEvent::Fence { outlet: num("outlet")? as u32 },
        "promoted" => TraceEvent::Promoted,
        "first_byte" => TraceEvent::FirstByte { conn: conn("conn")? },
        "backup_dead" => TraceEvent::BackupDead { silent_ns: num("silent_ns")? },
        "fault_rule" => TraceEvent::FaultRule {
            kind: v
                .get("kind")
                .and_then(Value::as_str)
                .and_then(FaultKind::from_name)
                .ok_or_else(|| err("kind"))?,
        },
        "node_power" => TraceEvent::NodePower {
            node: Cow::Owned(string("node")?),
            what: v
                .get("what")
                .and_then(Value::as_str)
                .and_then(PowerKind::from_name)
                .ok_or_else(|| err("what"))?,
        },
        "planned_migration" => TraceEvent::PlannedMigration {
            phase: v
                .get("phase")
                .and_then(Value::as_str)
                .and_then(MigrationPhase::from_name)
                .ok_or_else(|| err("phase"))?,
            epoch: num("epoch")? as u32,
        },
        "cong_phase" => TraceEvent::CongPhase {
            conn: conn("conn")?,
            algo: Cow::Owned(string("algo")?),
            from: Cow::Owned(string("from")?),
            to: Cow::Owned(string("to")?),
            cwnd: num("cwnd")? as u32,
        },
        "wire_data" => TraceEvent::WireData {
            conn: conn("conn")?,
            seq: num("seq")? as u32,
            len: num("len")? as u32,
            flags: num("flags")? as u8,
        },
        other => return Err(TraceParseError(format!("unknown event kind {other:?}"))),
    };
    Ok(TracedEvent { seq, t_ns, actor, event })
}
#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    const IP_A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const IP_B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 100);

    pub(crate) fn conn() -> TraceConn {
        TraceConn::new((IP_B, 80), (IP_A, 40000))
    }

    #[test]
    fn trace_conn_canonicalizes_and_parses() {
        let a = TraceConn::new((IP_A, 40000), (IP_B, 80));
        let b = TraceConn::new((IP_B, 80), (IP_A, 40000));
        assert_eq!(a, b);
        assert_eq!(a.to_string(), "10.0.0.1:40000<->10.0.0.100:80");
        assert_eq!(TraceConn::parse(&a.to_string()), Some(a));
        assert_eq!(TraceConn::parse("nonsense"), None);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let fr = FlightRecorder::new(3);
        for i in 0..5u64 {
            fr.record(Actor::Net, i * 10, &TraceEvent::Promoted);
        }
        assert_eq!(fr.len(), 3);
        assert_eq!(fr.dropped(), 2);
        let exp = fr.export();
        assert_eq!(exp.dropped, 2);
        // The newest three survive, with their original seq numbers.
        assert_eq!(exp.events.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(exp.events.iter().map(|e| e.t_ns).collect::<Vec<_>>(), vec![20, 30, 40]);
    }

    #[test]
    fn tail_counts_skipped_as_dropped() {
        let fr = FlightRecorder::new(10);
        for i in 0..6u64 {
            fr.record(Actor::Backup, i, &TraceEvent::Promoted);
        }
        let tail = fr.tail(2);
        assert_eq!(tail.events.len(), 2);
        assert_eq!(tail.dropped, 4);
        assert_eq!(tail.events[0].seq, 4);
        let all = fr.tail(100);
        assert_eq!(all.events.len(), 6);
        assert_eq!(all.dropped, 0);
    }

    #[test]
    fn nop_recorder_ignores_trace() {
        let r = crate::nop();
        r.trace(5, &TraceEvent::Promoted);
    }

    #[test]
    fn actor_recorder_tags_and_forwards() {
        let sink = Arc::new(crate::ObsSink::new());
        let flight = Arc::new(FlightRecorder::new(16));
        let r = for_actor(Actor::Backup, sink.clone(), flight.clone());
        r.count(crate::Counter::HeartbeatsSent, 2);
        r.trace(99, &TraceEvent::Suspected { silent_ns: 7 });
        assert_eq!(sink.counter(crate::Counter::HeartbeatsSent), 2);
        let exp = flight.export();
        assert_eq!(exp.events.len(), 1);
        assert_eq!(exp.events[0].actor, Actor::Backup);
        assert_eq!(exp.events[0].t_ns, 99);
    }

    pub(crate) fn sample_export() -> TraceExport {
        let fr = FlightRecorder::new(64);
        fr.record(
            Actor::Client,
            1_000,
            &TraceEvent::TcpState {
                conn: conn(),
                from: "SynSent".into(),
                to: "Established".into(),
            },
        );
        fr.record(Actor::Backup, 2_500, &TraceEvent::Suppression { ip: IP_B, on: true });
        fr.record(
            Actor::Primary,
            3_000,
            &TraceEvent::SideSend { msg: SideMsgKind::Heartbeat, conn: None, seq: 1, len: 0 },
        );
        fr.record(
            Actor::Backup,
            3_500,
            &TraceEvent::SideRecv {
                msg: SideMsgKind::MissingData,
                conn: Some(conn()),
                seq: 777,
                len: 512,
            },
        );
        fr.record(Actor::Net, 4_000, &TraceEvent::FaultRule { kind: FaultKind::Drop });
        fr.record(
            Actor::Net,
            5_000,
            &TraceEvent::NodePower { node: "primary".into(), what: PowerKind::Crash },
        );
        fr.record(Actor::Backup, 6_000, &TraceEvent::Suspected { silent_ns: 150_000 });
        fr.record(Actor::Backup, 6_100, &TraceEvent::Fence { outlet: 1 });
        fr.record(Actor::Backup, 6_200, &TraceEvent::Promoted);
        fr.record(
            Actor::Backup,
            6_300,
            &TraceEvent::RtoFired { conn: conn(), backoff: 2, rto_ns: 800_000_000 },
        );
        fr.record(
            Actor::Backup,
            7_000,
            &TraceEvent::WireData { conn: conn(), seq: 42, len: 536, flags: 0x18 },
        );
        fr.record(Actor::Backup, 7_000, &TraceEvent::FirstByte { conn: conn() });
        fr.record(Actor::Primary, 8_000, &TraceEvent::BackupDead { silent_ns: 9 });
        fr.record(
            Actor::Primary,
            8_500,
            &TraceEvent::SideSend { msg: SideMsgKind::AckBatch, conn: None, seq: 0, len: 3 },
        );
        fr.record(
            Actor::Primary,
            8_600,
            &TraceEvent::PlannedMigration { phase: MigrationPhase::DrainStarted, epoch: 2 },
        );
        fr.record(
            Actor::Primary,
            8_700,
            &TraceEvent::CongPhase {
                conn: conn(),
                algo: "bbr".into(),
                from: "startup".into(),
                to: "probe_bw".into(),
                cwnd: 29_200,
            },
        );
        fr.export()
    }

    #[test]
    fn export_json_round_trips_byte_identical() {
        let exp = sample_export();
        let json = exp.to_json();
        assert!(json.starts_with("{\"format\":\"sttcp-trace-v1\",\"dropped\":0,\"events\":["));
        let back = TraceExport::from_json(&json).expect("parse own output");
        assert_eq!(back, exp);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn golden_event_encoding() {
        let fr = FlightRecorder::new(4);
        fr.record(Actor::Backup, 1_650_000_000, &TraceEvent::Suspected { silent_ns: 150_000_000 });
        assert_eq!(
            fr.export().to_json(),
            "{\"format\":\"sttcp-trace-v1\",\"dropped\":0,\"events\":[\
             {\"s\":0,\"t\":1650000000,\"a\":\"backup\",\"ev\":\"suspected\",\
             \"silent_ns\":150000000}]}"
        );
    }

    #[test]
    fn from_json_rejects_wrong_format_and_garbage() {
        assert!(TraceExport::from_json("{\"format\":\"bogus\",\"events\":[]}").is_err());
        assert!(TraceExport::from_json("not json").is_err());
        assert!(TraceExport::from_json(
            "{\"format\":\"sttcp-trace-v1\",\"dropped\":0,\
                                        \"events\":[{\"s\":0}]}"
        )
        .is_err());
    }

    #[test]
    fn conns_lists_first_seen_order() {
        let exp = sample_export();
        assert_eq!(exp.conns(), vec![conn()]);
    }

    #[test]
    fn flag_rendering() {
        assert_eq!(flag_str(0x02), "S");
        assert_eq!(flag_str(0x12), "SA");
        assert_eq!(flag_str(0x18), "PA");
        assert_eq!(flag_str(0x11), "FA");
        assert_eq!(flag_str(0), ".");
    }
}

//! Deterministic observability for the ST-TCP reproduction.
//!
//! The paper's evaluation (§6) hinges on per-mechanism numbers: takeover
//! latency split into detection vs. promotion, retention-buffer occupancy
//! against the `LastByteAcked` bound (§4.2), side-channel ack/heartbeat
//! cadence (§4.3). This crate is the sink those numbers flow into.
//!
//! # Design
//!
//! * [`Recorder`] is the instrumentation trait. Every method has a no-op
//!   default body, so the cost of an un-instrumented run is one virtual
//!   call per event — no allocation, no branching on feature flags, and
//!   (critically for the simulator) no change in behavior or event order
//!   whether or not recording is on.
//! * [`ObsSink`] is the recording implementation: fixed arrays of
//!   [`AtomicU64`] indexed by the [`Counter`]/[`Gauge`]/[`Mark`] enums.
//!   Atomics (relaxed) keep the sink `Sync` so one `Arc<ObsSink>` can be
//!   cloned into every node of a simulation — or shared across chaos
//!   worker threads — without interior-mutability gymnastics.
//! * [`Snapshot`] is the exported view: only non-zero counters/gauges and
//!   set marks, in declaration order, written through the shared
//!   [`json::Value`] in a format pinned by a golden test.
//! * [`TakeoverBreakdown`] derives the paper's headline latency split
//!   from the phase marks.
//!
//! Timestamps are raw `u64` nanoseconds of virtual time; this crate
//! deliberately depends on nothing (not even `netsim`) so every layer of
//! the workspace can record into it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod render;
pub mod trace;

pub use render::{render_chrome, render_sequence, render_timeline, TimelinePhases};
pub use trace::{
    for_actor, Actor, FlightRecorder, MigrationPhase, TraceConn, TraceEvent, TraceExport,
    TracedEvent, DEFAULT_TRACE_CAPACITY, TRACE_FORMAT,
};

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock};

/// Sentinel for "this mark was never recorded".
const UNSET: u64 = u64::MAX;

macro_rules! obs_enum {
    ($(#[$meta:meta])* $name:ident { $($(#[$vmeta:meta])* $variant:ident => $str:literal,)+ }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(usize)]
        pub enum $name {
            $($(#[$vmeta])* $variant,)+
        }

        impl $name {
            /// Every variant, in declaration (and therefore export) order.
            pub const ALL: &'static [$name] = &[$($name::$variant,)+];

            /// The stable snake_case name used in JSON snapshots.
            pub const fn name(self) -> &'static str {
                match self {
                    $($name::$variant => $str,)+
                }
            }
        }
    };
}

obs_enum! {
    /// Monotonic event counters, one per instrumented mechanism.
    Counter {
        /// TCP retransmission timeouts that fired (go-back-N restarts).
        TcpRtoFired => "tcp_rto_fired",
        /// Fast retransmits triggered by duplicate ACKs.
        TcpFastRetransmits => "tcp_fast_retransmits",
        /// Zero-window probes sent.
        TcpWindowProbes => "tcp_window_probes",
        /// Times a sender entered a zero-window stall.
        TcpWindowStalls => "tcp_window_stalls",
        /// Egress segments dropped by ST-TCP suppression (§4.2).
        SegsSuppressed => "segs_suppressed",
        /// Backup acknowledgments sent over the side channel (§4.3), one
        /// per connection, whichever datagram carried it.
        BackupAcksSent => "backup_acks_sent",
        /// Backup acknowledgments received by the primary.
        BackupAcksReceived => "backup_acks_received",
        /// Missing-segment requests sent by the backup.
        MissingReqsSent => "missing_reqs_sent",
        /// Missing-segment requests the primary served with data.
        MissingRepliesServed => "missing_replies_served",
        /// Missing-segment requests the primary refused (replied to with
        /// no bytes).
        MissingNacks => "missing_nacks",
        /// Heartbeats sent by the primary.
        HeartbeatsSent => "heartbeats_sent",
        /// Heartbeats received by the backup.
        HeartbeatsReceived => "heartbeats_received",
        /// Shadow handshake ACKs that did not ack the shadow's SYN/ACK:
        /// its ISS differs from the primary's (the §4.1 check; 0 when
        /// every server derives the same keyed ISS).
        ShadowIsnResyncs => "shadow_isn_resyncs",
        /// Range queries served by the in-network packet logger (§3.2).
        LoggerQueries => "logger_queries",
        /// Bootstrap (full-history) queries served by the logger.
        BootstrapQueries => "bootstrap_queries",
        /// Frames dropped because a link's serialization queue was full.
        LinkQueueDrops => "link_queue_drops",
        /// Frames dropped by a link's probabilistic loss model.
        LinkLossDrops => "link_loss_drops",
        /// Frames dropped by an injected ingress fault rule.
        IngressDrops => "ingress_drops",
        /// Frames delayed by an injected ingress fault rule.
        IngressDelays => "ingress_delays",
        /// Frames duplicated by an injected ingress fault rule.
        IngressDuplicates => "ingress_duplicates",
        /// Unicast frames for another station that a node's NIC filter
        /// discarded before its host saw them (flood copies, mostly).
        NicFiltered => "nic_filtered",
        /// Batched ack datagrams (several connections' acks in one) sent
        /// by backups.
        AckBatchesSent => "ack_batches_sent",
        /// Planned migrations completed (drain → handover).
        PlannedMigrations => "planned_migrations",
        /// SACK blocks attached to outgoing ACKs (RFC 2018 receiver side).
        SackBlocksSent => "sack_blocks_sent",
        /// Retransmissions that skipped SACKed ranges instead of
        /// resending the whole window (scoreboard-driven recovery).
        SelectiveRetransmits => "selective_retransmits",
        /// Heartbeat frontier entries that carried a congestion snapshot
        /// (the congestion-state mirror), one per backup.
        CongSyncsSent => "cong_syncs_sent",
        /// Stack-timer wake-ups a host adapter took from the simulator.
        StackWakes => "stack_wakes",
        /// Those of them that were for nothing: the poll found no
        /// connection deadline due and emitted no frame. A node's wake
        /// moves with its stack's deadline, so this reads 0; anything
        /// else is a wake armed for a deadline nobody has.
        StackWakesIdle => "stack_wakes_idle",
        /// Retransmission-timer fires a promoted shadow armed to speak
        /// first (`Tcb::speak_first`): sends a takeover owes, not losses,
        /// so they are not in [`Counter::TcpRtoFired`].
        PromotionSends => "promotion_sends",
    }
}

obs_enum! {
    /// High-water-mark gauges (the recorded value is the maximum seen).
    Gauge {
        /// Peak send-buffer occupancy in bytes, across all connections.
        SendBufHighWater => "send_buf_high_water",
        /// Peak receive-buffer occupancy in bytes, across all connections.
        RecvBufHighWater => "recv_buf_high_water",
        /// Peak retention-buffer occupancy in bytes (§4.2 bound).
        RetentionHighWater => "retention_high_water",
        /// Peak per-link queue backlog, in nanoseconds of serialization.
        LinkQueueDepth => "link_queue_depth_ns",
        /// This node's promotion rank in the cluster topology, plus one
        /// (1 = primary, 2 = first backup, …; a max-gauge cannot hold 0).
        PromotionRank => "promotion_rank",
        /// Peak catch-up lag in bytes: how far a backup's shadow trailed
        /// the primary's cumulative ack before reaching eligibility.
        CatchupLagBytes => "catchup_lag_bytes",
        /// Peak congestion window in bytes, across all connections.
        CwndBytes => "cwnd_bytes",
    }
}

obs_enum! {
    /// Phase timestamps (virtual-time nanoseconds).
    Mark {
        /// Latest instant the backup heard from the primary (kept fresh).
        LastPrimaryHeard => "last_primary_heard",
        /// First instant the backup suspected the primary dead (§4.4).
        SuspectedPrimaryDead => "suspected_primary_dead",
        /// First instant a power-fencing request was issued (§4.4).
        FenceRequested => "fence_requested",
        /// First instant VIP egress suppression was lifted (§5 takeover).
        TakeoverUnsuppressed => "takeover_unsuppressed",
        /// First data byte emitted to the client after takeover.
        FirstByteAfterTakeover => "first_byte_after_takeover",
    }
}

/// Instrumentation sink. All methods default to no-ops, so the
/// un-instrumented cost is a single virtual call at each hook point.
pub trait Recorder: fmt::Debug + Send + Sync {
    /// Adds `n` to counter `c`.
    fn count(&self, c: Counter, n: u64) {
        let _ = (c, n);
    }
    /// Raises gauge `g` to `v` if `v` exceeds the recorded maximum.
    fn gauge_max(&self, g: Gauge, v: u64) {
        let _ = (g, v);
    }
    /// Records `t_ns` for mark `m` only if the mark is still unset.
    fn mark_first(&self, m: Mark, t_ns: u64) {
        let _ = (m, t_ns);
    }
    /// Records `t_ns` for mark `m`, overwriting any earlier value.
    fn mark_latest(&self, m: Mark, t_ns: u64) {
        let _ = (m, t_ns);
    }
    /// Records one structured [`TraceEvent`] at virtual time `t_ns`.
    ///
    /// Defaulted to a no-op (and ignored by [`ObsSink`], which only
    /// aggregates); trace events are retained by wrapping a recorder
    /// with [`trace::for_actor`], which routes them into a shared
    /// [`FlightRecorder`] ring.
    fn trace(&self, t_ns: u64, ev: &TraceEvent) {
        let _ = (t_ns, ev);
    }
}

/// Shared handle to a recorder; cloned into every instrumented layer.
pub type SharedRecorder = Arc<dyn Recorder>;

/// The do-nothing recorder used when observability is off.
#[derive(Debug, Clone, Copy, Default)]
pub struct NopRecorder;

impl Recorder for NopRecorder {}

/// A [`SharedRecorder`] that records nothing: a clone of one handle
/// per process, so a stack or node that records nothing allocates
/// nothing for it.
pub fn nop() -> SharedRecorder {
    static NOP: LazyLock<SharedRecorder> = LazyLock::new(|| Arc::new(NopRecorder));
    Arc::clone(&NOP)
}

/// Recording sink: fixed atomic arrays indexed by the enums.
///
/// Relaxed atomics are exact in the single-threaded simulator and still
/// safe if a future embedding records from several threads (counters may
/// then interleave, but each increment lands).
#[derive(Default)]
pub struct ObsSink {
    counters: [AtomicU64; Counter::ALL.len()],
    gauges: [AtomicU64; Gauge::ALL.len()],
    marks: Marks,
}

struct Marks([AtomicU64; Mark::ALL.len()]);

impl Default for Marks {
    fn default() -> Self {
        Marks(std::array::from_fn(|_| AtomicU64::new(UNSET)))
    }
}

impl fmt::Debug for ObsSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObsSink").finish_non_exhaustive()
    }
}

impl ObsSink {
    /// A fresh, all-zero sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current value of one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize].load(Ordering::Relaxed)
    }

    /// Current value of one gauge (its maximum so far).
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g as usize].load(Ordering::Relaxed)
    }

    /// Value of one mark, if it was ever recorded.
    pub fn mark(&self, m: Mark) -> Option<u64> {
        match self.marks.0[m as usize].load(Ordering::Relaxed) {
            UNSET => None,
            t => Some(t),
        }
    }

    /// An immutable copy of everything recorded so far.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: Counter::ALL
                .iter()
                .map(|&c| (c, self.counter(c)))
                .filter(|&(_, v)| v != 0)
                .collect(),
            gauges: Gauge::ALL
                .iter()
                .map(|&g| (g, self.gauge(g)))
                .filter(|&(_, v)| v != 0)
                .collect(),
            marks_ns: Mark::ALL.iter().filter_map(|&m| self.mark(m).map(|t| (m, t))).collect(),
        }
    }
}

impl Recorder for ObsSink {
    fn count(&self, c: Counter, n: u64) {
        self.counters[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    fn gauge_max(&self, g: Gauge, v: u64) {
        self.gauges[g as usize].fetch_max(v, Ordering::Relaxed);
    }

    fn mark_first(&self, m: Mark, t_ns: u64) {
        let _ = self.marks.0[m as usize].compare_exchange(
            UNSET,
            t_ns,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    fn mark_latest(&self, m: Mark, t_ns: u64) {
        self.marks.0[m as usize].store(t_ns, Ordering::Relaxed);
    }
}

/// Point-in-time export of an [`ObsSink`]: non-zero counters and gauges
/// plus set marks, in enum declaration order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Non-zero counters.
    pub counters: Vec<(Counter, u64)>,
    /// Non-zero gauges (high-water maxima).
    pub gauges: Vec<(Gauge, u64)>,
    /// Set marks, in virtual-time nanoseconds.
    pub marks_ns: Vec<(Mark, u64)>,
}

/// Format tag embedded in every exported snapshot.
pub const SNAPSHOT_FORMAT: &str = "sttcp-obs-v1";

impl Snapshot {
    /// Looks up a counter or gauge by its snake_case name; absent means
    /// zero, so oracles can probe uniformly.
    pub fn get(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(c, _)| c.name() == name)
            .map(|&(_, v)| v)
            .or_else(|| self.gauges.iter().find(|(g, _)| g.name() == name).map(|&(_, v)| v))
            .unwrap_or(0)
    }

    /// Looks up a mark by name.
    pub fn mark(&self, m: Mark) -> Option<u64> {
        self.marks_ns.iter().find(|&&(mm, _)| mm == m).map(|&(_, t)| t)
    }

    /// The snapshot as a JSON value:
    /// `{"format":"sttcp-obs-v1","counters":{...},"gauges":{...},"marks_ns":{...}}`.
    ///
    /// Key order is the enum declaration order, so equal snapshots
    /// serialize to byte-identical strings (golden-tested).
    pub fn to_value(&self) -> json::Value {
        fn section(entries: impl Iterator<Item = (&'static str, u64)>) -> json::Value {
            json::obj(entries.map(|(name, v)| (name, json::Value::Num(v))))
        }
        json::obj([
            ("format", json::str(SNAPSHOT_FORMAT)),
            ("counters", section(self.counters.iter().map(|&(c, v)| (c.name(), v)))),
            ("gauges", section(self.gauges.iter().map(|&(g, v)| (g.name(), v)))),
            ("marks_ns", section(self.marks_ns.iter().map(|&(m, v)| (m.name(), v)))),
        ])
    }

    /// Serializes [`Snapshot::to_value`] as a single line.
    pub fn to_json(&self) -> String {
        self.to_value().to_json()
    }
}

/// The paper's headline takeover-latency split (Table 2, Fig. 5),
/// derived from the phase marks of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TakeoverBreakdown {
    /// Last instant the backup heard from the primary.
    pub last_primary_heard_ns: u64,
    /// When the backup declared the primary dead.
    pub suspected_ns: u64,
    /// When power fencing was requested (absent without a power switch).
    pub fenced_ns: Option<u64>,
    /// When VIP egress suppression was lifted.
    pub unsuppressed_ns: u64,
    /// When the first post-takeover data byte left for the client
    /// (absent if the run ended before any such byte).
    pub first_byte_ns: Option<u64>,
}

impl TakeoverBreakdown {
    /// Builds the breakdown if the run actually took over (all of
    /// last-heard, suspicion, and unsuppress marks are present).
    pub fn from_snapshot(snap: &Snapshot) -> Option<Self> {
        Some(TakeoverBreakdown {
            last_primary_heard_ns: snap.mark(Mark::LastPrimaryHeard)?,
            suspected_ns: snap.mark(Mark::SuspectedPrimaryDead)?,
            fenced_ns: snap.mark(Mark::FenceRequested),
            unsuppressed_ns: snap.mark(Mark::TakeoverUnsuppressed)?,
            first_byte_ns: snap.mark(Mark::FirstByteAfterTakeover),
        })
    }

    /// Detection latency: silence heard → primary declared dead.
    pub fn detection_ns(&self) -> u64 {
        self.suspected_ns.saturating_sub(self.last_primary_heard_ns)
    }

    /// Promotion latency: suspicion → suppression lifted (zero for the
    /// active-backup policy without fencing, by design).
    pub fn promotion_ns(&self) -> u64 {
        self.unsuppressed_ns.saturating_sub(self.suspected_ns)
    }

    /// Suspicion → first data byte reaches the wire, if one did.
    pub fn first_byte_latency_ns(&self) -> Option<u64> {
        Some(self.first_byte_ns?.saturating_sub(self.suspected_ns))
    }

    /// Multi-line human-readable rendering for examples and reports.
    pub fn render(&self) -> String {
        fn ms(ns: u64) -> f64 {
            ns as f64 / 1e6
        }
        let mut s = String::new();
        s.push_str("takeover breakdown:\n");
        s.push_str(&format!(
            "  detection   {:>9.3} ms  (last heard t={:.3} ms -> suspected t={:.3} ms)\n",
            ms(self.detection_ns()),
            ms(self.last_primary_heard_ns),
            ms(self.suspected_ns),
        ));
        if let Some(f) = self.fenced_ns {
            s.push_str(&format!(
                "  fencing req {:>9.3} ms  (t={:.3} ms)\n",
                ms(f - self.suspected_ns),
                ms(f)
            ));
        }
        s.push_str(&format!(
            "  promotion   {:>9.3} ms  (unsuppressed t={:.3} ms)\n",
            ms(self.promotion_ns()),
            ms(self.unsuppressed_ns),
        ));
        match self.first_byte_ns {
            Some(fb) => s.push_str(&format!(
                "  first byte  {:>9.3} ms  (t={:.3} ms)\n",
                ms(self.first_byte_latency_ns().unwrap_or(0)),
                ms(fb),
            )),
            None => s.push_str("  first byte        n/a  (no post-takeover data)\n"),
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nop_recorder_is_truly_inert() {
        let r = nop();
        r.count(Counter::SegsSuppressed, 5);
        r.gauge_max(Gauge::RetentionHighWater, 100);
        r.mark_first(Mark::SuspectedPrimaryDead, 7);
        // Nothing observable; this is a smoke test that the calls compile
        // and cost nothing semantically.
    }

    #[test]
    fn sink_counts_gauges_and_marks() {
        let s = ObsSink::new();
        s.count(Counter::HeartbeatsSent, 1);
        s.count(Counter::HeartbeatsSent, 2);
        assert_eq!(s.counter(Counter::HeartbeatsSent), 3);

        s.gauge_max(Gauge::RetentionHighWater, 10);
        s.gauge_max(Gauge::RetentionHighWater, 4);
        assert_eq!(s.gauge(Gauge::RetentionHighWater), 10);

        s.mark_first(Mark::SuspectedPrimaryDead, 100);
        s.mark_first(Mark::SuspectedPrimaryDead, 200);
        assert_eq!(s.mark(Mark::SuspectedPrimaryDead), Some(100));

        s.mark_latest(Mark::LastPrimaryHeard, 50);
        s.mark_latest(Mark::LastPrimaryHeard, 60);
        assert_eq!(s.mark(Mark::LastPrimaryHeard), Some(60));
    }

    #[test]
    fn snapshot_keeps_only_nonzero_in_declaration_order() {
        let s = ObsSink::new();
        s.count(Counter::SegsSuppressed, 2);
        s.count(Counter::TcpRtoFired, 1);
        let snap = s.snapshot();
        // Declaration order: TcpRtoFired before SegsSuppressed.
        assert_eq!(snap.counters, vec![(Counter::TcpRtoFired, 1), (Counter::SegsSuppressed, 2)]);
        assert!(snap.gauges.is_empty());
        assert_eq!(snap.get("segs_suppressed"), 2);
        assert_eq!(snap.get("heartbeats_sent"), 0);
    }

    #[test]
    fn golden_json_snapshot() {
        let s = ObsSink::new();
        s.count(Counter::TcpRtoFired, 3);
        s.count(Counter::SegsSuppressed, 41);
        s.count(Counter::HeartbeatsSent, 12);
        s.gauge_max(Gauge::RetentionHighWater, 8192);
        s.mark_latest(Mark::LastPrimaryHeard, 1_500_000_000);
        s.mark_first(Mark::SuspectedPrimaryDead, 1_650_000_000);
        s.mark_first(Mark::TakeoverUnsuppressed, 1_650_000_000);
        let json = s.snapshot().to_json();
        assert_eq!(
            json,
            "{\"format\":\"sttcp-obs-v1\",\
             \"counters\":{\"tcp_rto_fired\":3,\"segs_suppressed\":41,\"heartbeats_sent\":12},\
             \"gauges\":{\"retention_high_water\":8192},\
             \"marks_ns\":{\"last_primary_heard\":1500000000,\
             \"suspected_primary_dead\":1650000000,\
             \"takeover_unsuppressed\":1650000000}}"
        );
    }

    #[test]
    fn empty_snapshot_json() {
        let snap = ObsSink::new().snapshot();
        assert_eq!(
            snap.to_json(),
            "{\"format\":\"sttcp-obs-v1\",\"counters\":{},\"gauges\":{},\"marks_ns\":{}}"
        );
    }

    #[test]
    fn takeover_breakdown_from_marks() {
        let s = ObsSink::new();
        assert!(TakeoverBreakdown::from_snapshot(&s.snapshot()).is_none());
        s.mark_latest(Mark::LastPrimaryHeard, 1_000_000_000);
        s.mark_first(Mark::SuspectedPrimaryDead, 1_160_000_000);
        s.mark_first(Mark::TakeoverUnsuppressed, 1_160_000_000);
        s.mark_first(Mark::FirstByteAfterTakeover, 1_170_000_000);
        let bd = TakeoverBreakdown::from_snapshot(&s.snapshot()).expect("took over");
        assert_eq!(bd.detection_ns(), 160_000_000);
        assert_eq!(bd.promotion_ns(), 0);
        assert_eq!(bd.first_byte_latency_ns(), Some(10_000_000));
        assert!(bd.fenced_ns.is_none());
        let text = bd.render();
        assert!(text.contains("detection"));
        assert!(text.contains("160.000 ms"));
    }
}

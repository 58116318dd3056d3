//! The metric tables: every name the benchmark reports, with its unit,
//! its direction and — for end-to-end metrics — its regression bound.
//!
//! `BENCHMARK.json` at the repo root carries the same tables for the
//! acceptance driver; `tests/contract.rs` keeps the two in step.

/// How a metric is obtained, which decides how two runs are compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Host time (or derived from it): a median over reps; two runs agree
    /// when their medians are within the metric's bound.
    Host,
    /// A count or a simulated time: a pure function of the seed; two
    /// runs of the same code must report the identical value.
    Exact,
}

/// One metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, as reported and as cited by later issues.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
    /// See [`Kind`].
    pub kind: Kind,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64, kind: Kind) -> MetricDef {
    MetricDef { name, unit, higher_is_better: false, bound: Some(bound), kind }
}

const fn host(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, higher_is_better: false, bound: None, kind: Kind::Host }
}

const fn exact(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, higher_is_better: false, bound: None, kind: Kind::Exact }
}

/// Bound of the host-time metrics: the largest the driver allows. Ten
/// runs of unchanged code spread (quartile distance over median) by 2–8 %
/// on the 2-core box, differently from one set of ten to the next, and
/// the median of ten drifts by 6 % within the hour: execution speed itself
/// wanders (thread CPU time equals wall time, so it is not preemption).
/// A bound has to be three times its metric's spread.
pub const HOST_BOUND: f64 = 0.25;

/// Metrics a user of ST-TCP sees, reported on every workload with
/// `--trace 0`. Lower is better for all of them.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", 0.25, Kind::Host),
    e2e("host_ns_per_payload_byte", "ns/B", HOST_BOUND, Kind::Host),
    e2e("host_us_per_conn", "us/conn", HOST_BOUND, Kind::Host),
    e2e("wire_bytes_per_payload_byte", "B/B", 0.15, Kind::Exact),
    e2e("peak_alloc_mb", "MB", 0.10, Kind::Exact),
    e2e("alloc_kb_per_conn", "KB/conn", 0.10, Kind::Exact),
];

/// Metrics of single layers (and the simulated-time results, which the
/// driver's every-workload, never-zero, spread-within-bound rules keep
/// out of the end-to-end table), reported on every workload with
/// `--trace 1`; 0 where a metric does not apply.
pub const PER_LAYER: &[MetricDef] = &[
    exact("sim_completion_s", "virtual_s"),
    exact("sim_failover_s", "virtual_s"),
    exact("sim_takeover_ms_p50", "virtual_ms"),
    exact("sim_takeover_ms_p99", "virtual_ms"),
    MetricDef { higher_is_better: true, ..exact("sim_takeover_n", "count") },
    exact("side_bytes_per_goodput_byte", "B/B"),
    exact("netsim.events_per_payload_mb", "1/MB"),
    exact("netsim.events_per_conn", "1/conn"),
    exact("netsim.timer_events_share", "ratio"),
    host("netsim.self_ns_per_event", "ns"),
    host("netsim.switch_ns_per_frame", "ns"),
    exact("netsim.queue_depth_mean", "count"),
    exact("netsim.queue_depth_max", "count"),
    host("netsim.hop_ns", "ns"),
    host("netsim.hop_deep_ns", "ns"),
    exact("netsim.frames_lost_on_link", "count"),
    exact("wire.frames_per_payload_mb", "1/MB"),
    MetricDef { higher_is_better: true, ..exact("wire.mean_frame_bytes", "B") },
    host("wire.parse_ns_per_frame", "ns"),
    host("wire.encode_ns_per_frame", "ns"),
    host("wire.checksum_ns_per_kb", "ns/KB"),
    host("tcpstack.rx_ns_per_frame", "ns"),
    host("tcpstack.tx_ns_per_frame", "ns"),
    host("tcpstack.write_ns_per_kb", "ns/KB"),
    host("tcpstack.read_ns_per_kb", "ns/KB"),
    host("tcpstack.conn_ns", "ns"),
    exact("tcpstack.retransmits_per_payload_mb", "1/MB"),
    exact("tcpstack.window_stalls", "count"),
    host("sttcp.solo_actor_ns_per_frame", "ns"),
    host("sttcp.primary_actor_ns_per_frame", "ns"),
    host("sttcp.backup_actor_ns_per_frame", "ns"),
    host("sttcp.shadow_cost_ratio", "ratio"),
    exact("sttcp.side_msgs_per_payload_mb", "1/MB"),
    exact("sttcp.backup_acks_per_payload_mb", "1/MB"),
    exact("sttcp.segs_suppressed_per_payload_mb", "1/MB"),
    exact("sttcp.heartbeats_sent", "count"),
    exact("sttcp.missing_reqs_sent", "count"),
    exact("sttcp.retention_high_water_bytes", "B"),
    exact("sttcp.detect_ms", "virtual_ms"),
    exact("sttcp.promote_ms", "virtual_ms"),
    exact("sttcp.first_byte_ms", "virtual_ms"),
    host("sttcp.sidemsg_codec_ns", "ns"),
    host("apps.client_actor_ns_per_payload_kb", "ns/KB"),
    host("apps.pattern_fill_ns_per_kb", "ns/KB"),
    host("apps.pattern_verify_ns_per_kb", "ns/KB"),
    host("obs.recorder_on_ratio", "ratio"),
    exact("alloc.count_per_frame", "1/frame"),
    host("trace.overhead_ratio", "ratio"),
];

/// Looks a metric up in either table.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

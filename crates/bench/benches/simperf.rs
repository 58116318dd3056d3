//! simperf — simulator throughput benchmark.
//!
//! Measures how fast the simulator itself runs (wall time and simulator
//! events per wall-clock second) on the Echo and Bulk-100MB scenarios
//! plus the `conn_scale_{100,1k,10k}` fleet scenarios, and appends the
//! numbers to `BENCH_simperf.json` at the repo root so the performance
//! trajectory is tracked across changes.
//!
//! The `conn_scale_*` cases drive the seeded mixed-workload fleet
//! generator (`sttcp::fleet`) at 100 / 1 000 / 10 000 clients, and
//! `conn_herd_3k` crashes the primary of a 3 000-client fleet with
//! every connection open (the thundering herd onto the backup). Both
//! large cases assert the flatness contract against the 100-client
//! fleet: wall time per frame *a host processed* may not exceed
//! [`FLATNESS_CEILING`] × that at 100, where a per-frame scan of the
//! connection table would cost 10× per tenfold. The unit is frames, not
//! events: an event count contains however many timer wake-ups the code
//! of the day takes, and cheap idle wake-ups inflate events/s — more at
//! 100 clients, where they are a larger share, than at 10 k. And it is
//! frames processed, not frames that reached a NIC: a cold switch
//! floods the first SYNs to every client, the NICs refuse the copies,
//! and at 10 k clients those copies are 68 % of all — they occupy
//! their links but are never simulator events (`filtered` in the tables
//! below: `events + filtered` is what such a run took while they were),
//! and dividing by them would flatter the large fleets for no work done.
//!
//! The first run seeds the `baseline` section; later runs preserve it
//! and rewrite only `current`, so the file always shows current speed
//! against the recorded pre-optimization baseline.
//!
//! `STTCP_BENCH_QUICK=1` shrinks the bulk transfer to 1 MB, runs only
//! the 100-client fleet, and skips the file write — a smoke run for CI,
//! not a measurement.
//!
//! `STTCP_BENCH_CHECK=<factor>` turns the run into a perf guard: the
//! measured `bulk_100mb`, `conn_scale_100` and `conn_scale_1k` wall
//! times (best of three) must stay within `factor ×` the references
//! recorded in `BENCH_simperf.json`, plus a slack of a tenth of the
//! reference (the timed scenarios use the default no-op recorder, so
//! this also asserts the observability layer stays off the hot path) —
//! and none of them may process **more simulator events** than its
//! reference: the count is exact, so one event more for the same frames
//! is a defect (a timer that re-arms itself, a wake nobody needed), not
//! noise. Nor may the side-channel cost of the 1-, 2- and 3-backup
//! chains exceed its committed value (deterministic, so exact). Guard
//! mode runs only the guarded cases and never rewrites the file.
//!
//! `STTCP_BENCH_TRACE_CHECK=<factor>` guards the recorder itself: the
//! ST-TCP bulk scenario and the 100-client fleet are each run twice
//! in-process — no-op recorder vs metrics + flight recorder — and the
//! enabled run must stay within `factor ×` the no-op wall time (best of
//! three each). Composes with `STTCP_BENCH_QUICK=1`; never touches the
//! report file.

use apps::Workload;
use netsim::{LinkProfile, SimDuration, SimTime};
use std::cell::Cell;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::Instant;
use sttcp::fleet::{self, FleetSpec};
use sttcp::scenario::{build, FaultSpec, RunLimits, ScenarioSpec};
use sttcp_bench::{quick_mode, st_cfg, Table};
use tcpstack::CongestionAlgo;
use wire::{EtherType, EthernetFrame, IpProtocol, Ipv4Packet, UdpDatagram};

struct Case {
    name: &'static str,
    wall_s: f64,
    events: u64,
    events_per_s: f64,
    /// Frames that reached a live node's NIC.
    frames: u64,
    /// Those of them a host processed (`Trace::frames_delivered`; the
    /// rest is `frames_filtered_nic`): the work a run does, whatever
    /// number of events it takes to do it.
    processed: u64,
}

impl Case {
    fn new(name: &'static str, wall_s: f64, trace: &netsim::Trace) -> Case {
        let events = trace.events_processed;
        let processed = trace.frames_delivered;
        let frames = processed + trace.frames_filtered_nic;
        Case { name, wall_s, events, events_per_s: events as f64 / wall_s, frames, processed }
    }

    fn ns_per_frame(&self) -> f64 {
        self.wall_s * 1e9 / self.processed as f64
    }

    /// Frames a NIC's unicast filter refused (`Trace::frames_filtered_nic`).
    fn filtered(&self) -> u64 {
        self.frames - self.processed
    }
}

fn run_case(name: &'static str, spec: &ScenarioSpec) -> Case {
    let mut scenario = build(spec);
    let start = Instant::now();
    let metrics = scenario.run(RunLimits::time(SimDuration::from_secs(600))).expect_completed();
    let wall_s = start.elapsed().as_secs_f64();
    assert!(metrics.verified_clean(), "{name}: byte-stream verification failed");
    Case::new(name, wall_s, scenario.sim.trace())
}

fn run_fleet_case(name: &'static str, clients: usize) -> Case {
    run_fleet_spec(name, &FleetSpec::new(clients))
}

/// The crash herd: 3 000 clients connect over 200 ms and the primary
/// dies at 150 ms, so the backup takes over ≈ 2 000 open connections at
/// once — the shape on which a per-frame accept-backlog scan once cost
/// a tenth of the run while the churn cases showed nothing.
fn herd_spec() -> FleetSpec {
    FleetSpec::new(3_000).crash_primary_at(SimTime::ZERO + SimDuration::from_millis(150))
}

fn run_fleet_spec(name: &'static str, spec: &FleetSpec) -> Case {
    let mut f = fleet::build(spec);
    let start = Instant::now();
    let done = f.run_until_done(SimDuration::from_secs(600));
    let wall_s = start.elapsed().as_secs_f64();
    assert!(done, "{name}: fleet did not complete");
    assert!(f.verified_clean(), "{name}: byte-stream verification failed");
    if spec.crash_primary_at.is_none() {
        let deposed = (1..f.servers.len()).any(|rank| f.engine(rank).has_taken_over());
        assert!(!deposed, "{name}: a fault-free fleet took over from its live primary");
    }
    Case::new(name, wall_s, f.sim.trace())
}

/// One WAN-profile congestion case: virtual completion time is the
/// deterministic regression metric (controller behaviour), wall time
/// the simulator-throughput one.
struct WanCase {
    name: &'static str,
    completion_s: f64,
    wall_s: f64,
    events: u64,
    filtered: u64,
}

/// 20 MB bulk on `wan_high_bdp` with scaled windows and SACK — the
/// controller comparison surface (same setup as the
/// `wan_congestion` acceptance test in `sttcp`).
fn wan_bulk_spec(algo: CongestionAlgo) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(Workload::bulk_mb(20))
        .link_profile(LinkProfile::WanHighBdp)
        .congestion(algo)
        .with_sack();
    spec.tcp.recv_buf = 2 << 20;
    spec.tcp.send_buf = 4 << 20;
    spec.tcp.window_scale = Some(6);
    spec
}

/// ST-TCP failover mid-bulk on `wan_high_bdp`: crash the primary at
/// 700 ms with the congestion mirror on, measure end-to-end completion.
fn wan_failover_spec() -> ScenarioSpec {
    let mut spec = wan_bulk_spec(CongestionAlgo::Cubic)
        .st_tcp(st_cfg(SimDuration::from_millis(50)).with_cong_sync())
        .faults(FaultSpec::crash_primary_at(SimTime::ZERO + SimDuration::from_millis(700)));
    spec.workload = Workload::bulk_mb(5);
    spec
}

fn run_wan_case(name: &'static str, spec: &ScenarioSpec) -> WanCase {
    let mut scenario = build(spec);
    let start = Instant::now();
    let metrics = scenario.run(RunLimits::time(SimDuration::from_secs(600))).expect_completed();
    let wall_s = start.elapsed().as_secs_f64();
    assert!(metrics.verified_clean(), "{name}: byte-stream verification failed");
    WanCase {
        name,
        completion_s: metrics.total_time().expect("completed").as_secs_f64(),
        wall_s,
        events: scenario.sim.trace().events_processed,
        filtered: scenario.sim.trace().frames_filtered_nic,
    }
}

fn run_wan_cases() -> Vec<WanCase> {
    let cases = vec![
        run_wan_case("wan_bdp_reno", &wan_bulk_spec(CongestionAlgo::Reno)),
        run_wan_case("wan_bdp_cubic", &wan_bulk_spec(CongestionAlgo::Cubic)),
        run_wan_case("wan_bdp_bbr", &wan_bulk_spec(CongestionAlgo::Bbr)),
        run_wan_case("failover_wan", &wan_failover_spec()),
    ];
    // The redesign's reason to exist: modern controllers must beat Reno
    // once the receive window stops binding.
    let secs = |name: &str| cases.iter().find(|c| c.name == name).unwrap().completion_s;
    assert!(
        secs("wan_bdp_cubic") < secs("wan_bdp_reno") && secs("wan_bdp_bbr") < secs("wan_bdp_reno"),
        "CUBIC ({:.2}s) and BBR ({:.2}s) must beat Reno ({:.2}s) on wan_high_bdp",
        secs("wan_bdp_cubic"),
        secs("wan_bdp_bbr"),
        secs("wan_bdp_reno"),
    );
    cases
}

fn json_wan(cases: &[WanCase]) -> String {
    let mut s = String::from("{");
    for (i, c) in cases.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"completion_s\": {:.3}, \"wall_s\": {:.3}, \"events\": {}}}",
            c.name, c.completion_s, c.wall_s, c.events
        );
    }
    s.push('}');
    s
}

/// One fault-free cluster run's side-channel economy.
struct SideChannelCase {
    backups: usize,
    side_datagrams: u64,
    side_bytes: u64,
    goodput_bytes: u64,
}

impl SideChannelCase {
    /// Side-channel bytes spent per goodput (response) byte delivered.
    fn overhead(&self) -> f64 {
        self.side_bytes as f64 / self.goodput_bytes as f64
    }
}

/// Runs a 20-client fault-free cluster fleet with `backups` shadows and
/// tallies the side-channel frames (UDP to the sync port) at their
/// origin hop — the switch's mirror fan-out is topology, not protocol
/// cost. Every rank runs the same ack rule and sends what one pass owes
/// in `AckBatch`es of up to 63 connections, so each backup adds the
/// same batched stream; [`check_side_channel`] holds each N to its
/// committed cost.
fn run_side_channel_case(backups: usize) -> SideChannelCase {
    let spec = FleetSpec::new(20).backups(backups).closing();
    let side_port = spec.st_tcp.side_channel_port;
    let mut fleet = fleet::build(&spec);
    let server_ids: Vec<usize> = fleet.servers.iter().map(|n| n.0).collect();
    let tally = Rc::new(Cell::new((0u64, 0u64)));
    let handle = Rc::clone(&tally);
    fleet.sim.set_probe(move |ev| {
        if !server_ids.contains(&ev.from.0) {
            return;
        }
        let is_side = (|| {
            let eth = EthernetFrame::parse(ev.frame.clone()).ok()?;
            if eth.ethertype != EtherType::Ipv4 {
                return None;
            }
            let ip = Ipv4Packet::parse(eth.payload).ok()?;
            if ip.protocol != IpProtocol::Udp {
                return None;
            }
            let udp = UdpDatagram::parse(ip.payload.clone(), ip.src, ip.dst).ok()?;
            Some(udp.dst_port == side_port)
        })()
        .unwrap_or(false);
        if is_side {
            let (frames, bytes) = handle.get();
            handle.set((frames + 1, bytes + ev.frame.len() as u64));
        }
    });
    let done = fleet.run_until_done(SimDuration::from_secs(600));
    assert!(done, "side_channel_{backups}backups: fleet did not complete");
    assert!(fleet.verified_clean(), "side_channel_{backups}backups: corrupted stream");
    let (goodput_bytes, expected) = fleet.progress();
    assert_eq!(goodput_bytes, expected);
    let (side_datagrams, side_bytes) = tally.get();
    SideChannelCase { backups, side_datagrams, side_bytes, goodput_bytes }
}

/// The side-channel guard: each `side_channel_overhead_{N}backups` may
/// not exceed the value committed in the report's `side_channel` section
/// (printed to four places, so compared at that precision). The runs are
/// deterministic, so any rise is a protocol change, not noise. Returns
/// whether every case held.
fn check_side_channel(cases: &[SideChannelCase], path: &std::path::Path) -> bool {
    let committed = previous_section(path, "side_channel");
    let mut ok = true;
    for c in cases {
        let name = format!("side_channel_overhead_{}backups", c.backups);
        let measured = (c.overhead() * 1e4).round() / 1e4;
        match committed.as_deref().and_then(|s| field_of(s, &name, "overhead")) {
            Some(r) if measured <= r => {
                println!("side-channel check ok: {name} {measured:.4} <= {r:.4} committed");
            }
            Some(r) => {
                eprintln!("side-channel check FAILED: {name} {measured:.4} > {r:.4} committed");
                ok = false;
            }
            None => eprintln!("side-channel check skipped: no {name} in {}", path.display()),
        }
    }
    ok
}

fn json_side_channel(cases: &[SideChannelCase]) -> String {
    let mut s = String::from("{");
    for (i, c) in cases.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"side_channel_overhead_{}backups\": {{\"overhead\": {:.4}, \"side_bytes\": {}, \"side_datagrams\": {}, \"goodput_bytes\": {}}}",
            c.backups, c.overhead(), c.side_bytes, c.side_datagrams, c.goodput_bytes
        );
    }
    s.push('}');
    s
}

fn json_section(cases: &[Case]) -> String {
    // One line per section so a later run can carry the baseline over
    // without a JSON parser.
    let mut s = String::from("{");
    for (i, c) in cases.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"wall_s\": {:.4}, \"events\": {}, \"events_per_s\": {:.0}, \"frames\": {}, \"frames_processed\": {}, \"ns_per_frame\": {:.0}}}",
            c.name, c.wall_s, c.events, c.events_per_s, c.frames, c.processed, c.ns_per_frame()
        );
    }
    s.push('}');
    s
}

fn repo_root() -> PathBuf {
    // crates/bench -> crates -> repo root
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

/// Pulls a one-line `"<key>": {...}` section out of a previous report,
/// if any.
fn previous_section(path: &std::path::Path, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let prefix = format!("\"{key}\":");
    text.lines()
        .find(|l| l.trim_start().starts_with(&prefix))
        .and_then(|l| l.find('{').map(|i| l[i..].trim_end().trim_end_matches(',').to_string()))
}

/// Extracts one numeric field of one case from a one-line section.
fn field_of(section: &str, case: &str, field: &str) -> Option<f64> {
    let case_key = format!("\"{case}\": {{");
    let object = &section[section.find(&case_key)? + case_key.len()..];
    let object = &object[..object.find('}')?];
    let field_key = format!("\"{field}\": ");
    let i = object.find(&field_key)? + field_key.len();
    object[i..].split(',').next()?.trim().parse().ok()
}

/// `STTCP_BENCH_CHECK=<factor>` — perf-guard mode.
fn check_factor() -> Option<f64> {
    std::env::var("STTCP_BENCH_CHECK").ok()?.parse().ok()
}

/// `STTCP_BENCH_TRACE_CHECK=<factor>` — recorder-overhead guard mode.
fn trace_check_factor() -> Option<f64> {
    std::env::var("STTCP_BENCH_TRACE_CHECK").ok()?.parse().ok()
}

/// How much dearer a frame a host processes may be in a large fleet than
/// with 100 clients. A hundred times the connections buys a deeper
/// event heap (≈ 30 k pending events against ≈ 100) and a working set of
/// hundreds of megabytes where the 100-client fleet — 4 ms of wall time
/// — lives in L2: measured 3.3–4.2× at 10 k and 2.1–3.0× on the herd
/// with both ends timed warm, and the ceiling is 1.3× the middle of the
/// former (EXPERIMENTS.md, "Flatness"). Since the mirror stopped
/// copying the primary's half the 10 k fleet runs 44 % fewer frames in
/// 15–40 % less wall time, so its cost per frame is not flatter:
/// 3.0–4.5× in three runs. Anything that scans per frame,
/// the regression this guards against, costs 10× per tenfold.
const FLATNESS_CEILING: f64 = 5.0;

/// The fastest of three runs of a guarded case: how guard mode measures,
/// and so how the full run measures the references it commits.
fn best_of_three(run: &dyn Fn() -> Case) -> Case {
    (0..3).map(|_| run()).min_by(|a, b| a.wall_s.total_cmp(&b.wall_s)).expect("three runs")
}

/// Slack on top of the guard factor, as a share of the reference: what
/// best-of-three still spreads by on a quiet machine. (It used to be an
/// absolute 0.1 s — 57 % of the bulk reference and eleven times the
/// `conn_scale_100` one, which left that case unguarded.)
const CHECK_SLACK: f64 = 0.10;

/// Perf-guard mode: run only the guarded cases (`bulk_100mb`,
/// `conn_scale_100`, `conn_scale_1k`) and compare each against the
/// `current` reference committed in `BENCH_simperf.json` — wall time
/// best of three runs per case to damp scheduler noise, like the trace
/// check; the event count exactly, as a ceiling. In quick mode only the
/// 100-client fleet runs (the 1 MB bulk has no committed reference).
fn run_perf_check(factor: f64, quick: bool, path: &std::path::Path) {
    let reference = previous_section(path, "current");
    let mut cases = Vec::new();
    if quick {
        eprintln!(
            "perf check (quick): bulk skipped — quick mode measures 1 MB, reference is 100 MB"
        );
    } else {
        cases.push(best_of_three(&|| {
            run_case("bulk_100mb", &ScenarioSpec::new(Workload::bulk_mb(100)))
        }));
    }
    cases.push(best_of_three(&|| run_fleet_case("conn_scale_100", 100)));
    if !quick {
        cases.push(best_of_three(&|| run_fleet_case("conn_scale_1k", 1_000)));
    }
    let mut failed = false;
    for c in &cases {
        let reference = |field| reference.as_deref().and_then(|s| field_of(s, c.name, field));
        let limit = factor + CHECK_SLACK;
        match reference("wall_s") {
            Some(r) if c.wall_s <= r * limit => {
                println!("perf check ok: {} {:.3}s <= {r:.3}s x {limit:.2}", c.name, c.wall_s);
            }
            Some(r) => {
                eprintln!("perf check FAILED: {} {:.3}s > {r:.3}s x {limit:.2}", c.name, c.wall_s);
                failed = true;
            }
            None => eprintln!("perf check skipped: no {} reference in {}", c.name, path.display()),
        }
        match reference("events") {
            Some(r) if c.events as f64 <= r => {
                println!(
                    "event check ok: {} {} events <= {r:.0} committed ({} frames filtered)",
                    c.name,
                    c.events,
                    c.filtered()
                );
            }
            Some(r) => {
                eprintln!(
                    "event check FAILED: {} ran {} events, {} more than the {r:.0} committed for \
                     the same frames ({} of them filtered; a timer that re-arms itself?)",
                    c.name,
                    c.events,
                    c.events - r as u64,
                    c.filtered()
                );
                failed = true;
            }
            None => {}
        }
    }
    // WAN congestion guards: virtual completion time is deterministic,
    // so one run per case suffices and the factor only needs to absorb
    // intentional controller or link-profile tuning.
    let wan_reference = previous_section(path, "wan");
    for c in [
        run_wan_case("wan_bdp_cubic", &wan_bulk_spec(CongestionAlgo::Cubic)),
        run_wan_case("failover_wan", &wan_failover_spec()),
    ] {
        match wan_reference.as_deref().and_then(|s| field_of(s, c.name, "completion_s")) {
            Some(r) if c.completion_s <= r * factor => {
                println!(
                    "perf check ok: {} completes in {:.3}s virtual <= {r:.3}s x {factor}",
                    c.name, c.completion_s
                );
            }
            Some(r) => {
                eprintln!(
                    "perf check FAILED: {} completes in {:.3}s virtual > {r:.3}s x {factor}",
                    c.name, c.completion_s
                );
                failed = true;
            }
            None => eprintln!("perf check skipped: no {} reference in {}", c.name, path.display()),
        }
    }
    let side_cases: Vec<SideChannelCase> = (1..=3).map(run_side_channel_case).collect();
    failed |= !check_side_channel(&side_cases, path);
    if failed {
        std::process::exit(1);
    }
}

/// Recorder-overhead guard: the same scenario with the recorder off vs
/// fully on (metrics sink + flight ring), best of three runs each to
/// damp scheduler noise — on the bulk transfer and on the 100-client
/// fleet. Exits non-zero past `factor`.
fn run_trace_check(factor: f64, bulk: Workload) {
    let mut failed = false;
    let mut judge = |what: &str, nop: f64, on: f64| {
        let ratio = on / nop;
        if ratio <= factor {
            println!(
                "trace perf check ok ({what}): {on:.3}s recorded / {nop:.3}s no-op = {ratio:.3}x <= {factor}x"
            );
        } else {
            eprintln!(
                "trace perf check FAILED ({what}): {on:.3}s recorded / {nop:.3}s no-op = {ratio:.3}x > {factor}x"
            );
            failed = true;
        }
    };
    {
        let base = || ScenarioSpec::new(bulk).st_tcp(st_cfg(SimDuration::from_millis(50)));
        let best = |name: &'static str, spec: &dyn Fn() -> ScenarioSpec| {
            (0..3).map(|_| run_case(name, &spec()).wall_s).fold(f64::INFINITY, f64::min)
        };
        let nop = best("bulk_st_tcp (no-op recorder)", &base);
        let on = best("bulk_st_tcp (metrics + flight)", &|| base().recording().tracing());
        judge("bulk_st_tcp", nop, on);
    }
    {
        let best = |spec: &dyn Fn() -> FleetSpec| {
            (0..3)
                .map(|_| {
                    let mut f = fleet::build(&spec());
                    let start = Instant::now();
                    let done = f.run_until_done(SimDuration::from_secs(600));
                    assert!(done && f.verified_clean(), "conn_scale_100 trace check run failed");
                    start.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min)
        };
        let nop = best(&|| FleetSpec::new(100));
        let on = best(&|| FleetSpec::new(100).recording().tracing());
        judge("conn_scale_100", nop, on);
    }
    if failed {
        std::process::exit(1);
    }
}

fn main() {
    let quick = quick_mode();
    let bulk = if quick { Workload::bulk_mb(1) } else { Workload::bulk_mb(100) };
    let bulk_name = if quick { "bulk_1mb (quick)" } else { "bulk_100mb" };

    if let Some(factor) = trace_check_factor() {
        run_trace_check(factor, bulk);
        return;
    }

    let path = repo_root().join("BENCH_simperf.json");
    if let Some(factor) = check_factor() {
        run_perf_check(factor, quick, &path);
        return; // guard mode never rewrites the report
    }

    let mut cases = vec![
        run_case("echo", &ScenarioSpec::new(Workload::echo())),
        run_case(
            "echo_st_tcp",
            &ScenarioSpec::new(Workload::echo()).st_tcp(st_cfg(SimDuration::from_millis(50))),
        ),
        best_of_three(&|| run_case("bulk_100mb", &ScenarioSpec::new(bulk))),
        run_case(
            "bulk_100mb_st_tcp",
            &ScenarioSpec::new(bulk).st_tcp(st_cfg(SimDuration::from_millis(50))),
        ),
        best_of_three(&|| run_fleet_case("conn_scale_100", 100)),
    ];
    if !quick {
        cases.push(best_of_three(&|| run_fleet_case("conn_scale_1k", 1_000)));
        cases.push(run_fleet_case("conn_scale_10k", 10_000));
        cases.push(run_fleet_spec("conn_herd_3k", &herd_spec()));
        // The flatness contract: the cost of a frame a host processes
        // must not grow with the number of connections around it.
        let cost = |name: &str| {
            cases.iter().find(|c| c.name == name).map(Case::ns_per_frame).expect("case ran")
        };
        let c100 = cost("conn_scale_100");
        for big in ["conn_scale_10k", "conn_herd_3k"] {
            let c = cost(big);
            assert!(
                c <= FLATNESS_CEILING * c100,
                "{big} per-frame cost blew up: {c:.0} ns/frame vs {c100:.0} at 100 clients"
            );
            println!(
                "flatness check ok: {big} {c:.0} ns/frame <= {FLATNESS_CEILING} x {c100:.0} \
                 ns/frame @100 ({:.2}x)",
                c / c100
            );
        }
    }

    let mut table = Table::new(
        if quick {
            "simperf (quick smoke — 1 MB bulk, no file write)"
        } else {
            "simperf: simulator throughput"
        },
        &[
            "scenario",
            "wall (s)",
            "events",
            "filtered",
            "events/s",
            "frames",
            "processed",
            "ns/frame",
        ],
    );
    for c in &cases {
        let name = if c.name.starts_with("bulk_100mb") {
            c.name.replace("bulk_100mb", bulk_name.split(' ').next().unwrap())
        } else {
            c.name.to_string()
        };
        table.row(vec![
            name,
            format!("{:.3}", c.wall_s),
            c.events.to_string(),
            c.filtered().to_string(),
            format!("{:.0}", c.events_per_s),
            c.frames.to_string(),
            c.processed.to_string(),
            format!("{:.0}", c.ns_per_frame()),
        ]);
    }
    table.emit("simperf");

    // WAN congestion surface: the controller comparison the paper's LAN
    // testbed never reaches. Virtual completion time is deterministic;
    // the Reno-vs-modern ordering is asserted inside.
    let wan_cases = run_wan_cases();
    let mut wan_table = Table::new(
        "wan_high_bdp congestion (20 MB bulk; failover: 5 MB + crash at 700 ms)",
        &["case", "completion (virtual s)", "wall (s)", "events", "filtered"],
    );
    for c in &wan_cases {
        wan_table.row(vec![
            c.name.to_string(),
            format!("{:.2}", c.completion_s),
            format!("{:.3}", c.wall_s),
            c.events.to_string(),
            c.filtered.to_string(),
        ]);
    }
    wan_table.emit("simperf_wan");

    // Side-channel economy across chain lengths (virtual-time metric:
    // deterministic, so it doubles as a regression check against the
    // committed costs, before this run rewrites them).
    let side_cases: Vec<SideChannelCase> = (1..=3).map(run_side_channel_case).collect();
    let mut side_table = Table::new(
        "side-channel overhead vs chain length (20-client fleet, fault-free)",
        &["backups", "side datagrams", "side bytes", "goodput bytes", "bytes/goodput"],
    );
    for c in &side_cases {
        side_table.row(vec![
            c.backups.to_string(),
            c.side_datagrams.to_string(),
            c.side_bytes.to_string(),
            c.goodput_bytes.to_string(),
            format!("{:.4}", c.overhead()),
        ]);
    }
    side_table.emit("simperf_side_channel");
    assert!(
        check_side_channel(&side_cases, &path),
        "side-channel cost rose past its committed value"
    );

    if quick {
        println!("(quick mode: BENCH_simperf.json not updated)");
        return;
    }

    // An untimed *recorded* failover run embeds the protocol counter
    // snapshot in the report. The timed cases above keep the default
    // no-op recorder, so recording can never skew the measurements.
    let obs = {
        // Crash after a few 50 ms heartbeat intervals so the snapshot
        // exhibits the full protocol (heartbeats, acks, detection marks).
        let crash = SimTime::ZERO + SimDuration::from_millis(200);
        let spec = ScenarioSpec::new(Workload::echo())
            .st_tcp(st_cfg(SimDuration::from_millis(50)))
            .faults(FaultSpec::crash_primary_at(crash))
            .recording();
        let mut sc = build(&spec);
        sc.run(RunLimits::time(SimDuration::from_secs(60))).expect_completed();
        sc.snapshot().expect("recording scenario has a sink").to_json()
    };

    let side_channel = json_side_channel(&side_cases);
    let wan = json_wan(&wan_cases);
    let current = json_section(&cases);
    let baseline = previous_section(&path, "baseline").unwrap_or_else(|| current.clone());
    let speedup = {
        // Wall-time ratio baseline/current for the bulk case, when the
        // baseline line carries one.
        match (
            field_of(&baseline, "bulk_100mb", "wall_s"),
            field_of(&current, "bulk_100mb", "wall_s"),
        ) {
            (Some(b), Some(c)) if c > 0.0 => b / c,
            _ => 1.0,
        }
    };
    let json = format!(
        "{{\n  \"bench\": \"simperf\",\n  \"units\": {{\"wall_s\": \"seconds\", \"events_per_s\": \"simulator events per wall-clock second\", \"frames\": \"frames that reached a live node's NIC\", \"frames_processed\": \"frames minus those a NIC's unicast filter discarded\", \"ns_per_frame\": \"wall nanoseconds per frame processed\", \"side_channel_overhead\": \"side-channel bytes per goodput byte (virtual time, deterministic)\", \"completion_s\": \"virtual seconds to workload completion (deterministic)\"}},\n  \"baseline\": {baseline},\n  \"current\": {current},\n  \"wan\": {wan},\n  \"side_channel\": {side_channel},\n  \"obs\": {obs},\n  \"bulk_100mb_speedup_vs_baseline\": {speedup:.2}\n}}\n"
    );
    std::fs::write(&path, json).expect("write BENCH_simperf.json");
    println!("BENCH_simperf.json updated (bulk speedup vs baseline: {speedup:.2}x)");
}

//! simperf — simulator throughput benchmark.
//!
//! Measures how fast the simulator itself runs (wall time and simulator
//! events per wall-clock second) on the Echo and Bulk-100MB scenarios
//! plus the `conn_scale_{100,1k,10k}` fleet scenarios, and appends the
//! numbers to `BENCH_simperf.json` at the repo root so the performance
//! trajectory is tracked across changes.
//!
//! The `conn_scale_*` cases drive the seeded mixed-workload fleet
//! generator (`sttcp::fleet`) at 100 / 1 000 / 10 000 clients and
//! assert the O(1)-demux contract: events/sec at 10 k connections must
//! stay within 2× of events/sec at 100 (per-event cost must not grow
//! with connection count).
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
//! measured `bulk_100mb` and `conn_scale_100` wall times (best of
//! three, plus a small absolute slack for the millisecond-scale fleet
//! case) must stay within `factor ×` the references recorded in
//! `BENCH_simperf.json`
//! (the timed scenarios use the default no-op recorder, so this also
//! asserts the observability layer stays off the hot path). Guard mode
//! runs only the guarded cases and never rewrites the file.
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
use sttcp::{build_cluster, ClusterFleetSpec};
use sttcp_bench::{quick_mode, st_cfg, Table};
use tcpstack::CongestionAlgo;
use wire::{EtherType, EthernetFrame, IpProtocol, Ipv4Packet, UdpDatagram};

struct Case {
    name: &'static str,
    wall_s: f64,
    events: u64,
    events_per_s: f64,
}

fn run_case(name: &'static str, spec: &ScenarioSpec) -> Case {
    let mut scenario = build(spec);
    let start = Instant::now();
    let metrics = scenario.run(RunLimits::time(SimDuration::from_secs(600))).expect_completed();
    let wall_s = start.elapsed().as_secs_f64();
    assert!(metrics.verified_clean(), "{name}: byte-stream verification failed");
    let events = scenario.sim.trace().events_processed;
    Case { name, wall_s, events, events_per_s: events as f64 / wall_s }
}

fn run_fleet_case(name: &'static str, clients: usize) -> Case {
    let mut f = fleet::build(&FleetSpec::new(clients));
    let start = Instant::now();
    let done = f.run_until_done(SimDuration::from_secs(600));
    let wall_s = start.elapsed().as_secs_f64();
    assert!(done, "{name}: fleet did not complete");
    assert!(f.verified_clean(), "{name}: byte-stream verification failed");
    let events = f.sim.trace().events_processed;
    Case { name, wall_s, events, events_per_s: events as f64 / wall_s }
}

/// One WAN-profile congestion case: virtual completion time is the
/// deterministic regression metric (controller behaviour), wall time
/// the simulator-throughput one.
struct WanCase {
    name: &'static str,
    completion_s: f64,
    wall_s: f64,
    events: u64,
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
/// cost. Rank 1 speaks per-connection `BackupAck`s; deeper ranks flush
/// one `AckBatch` per sync tick, which is what keeps the growth in N
/// sub-linear.
fn run_side_channel_case(backups: usize) -> SideChannelCase {
    let spec = ClusterFleetSpec::new(20, backups);
    let side_port = spec.fleet.st_tcp.side_channel_port;
    let mut fleet = build_cluster(&spec);
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
            "\"{}\": {{\"wall_s\": {:.3}, \"events\": {}, \"events_per_s\": {:.0}}}",
            c.name, c.wall_s, c.events, c.events_per_s
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

/// Extracts `wall_s` for one case from a one-line section.
fn wall_of(section: &str, case: &str) -> Option<f64> {
    let key = format!("\"{case}\": {{\"wall_s\": ");
    let i = section.find(&key)? + key.len();
    section[i..].split([',', '}']).next()?.trim().parse().ok()
}

/// Extracts `completion_s` for one case from a one-line `wan` section.
fn completion_of(section: &str, case: &str) -> Option<f64> {
    let key = format!("\"{case}\": {{\"completion_s\": ");
    let i = section.find(&key)? + key.len();
    section[i..].split([',', '}']).next()?.trim().parse().ok()
}

/// `STTCP_BENCH_CHECK=<factor>` — perf-guard mode.
fn check_factor() -> Option<f64> {
    std::env::var("STTCP_BENCH_CHECK").ok()?.parse().ok()
}

/// `STTCP_BENCH_TRACE_CHECK=<factor>` — recorder-overhead guard mode.
fn trace_check_factor() -> Option<f64> {
    std::env::var("STTCP_BENCH_TRACE_CHECK").ok()?.parse().ok()
}

/// Absolute slack added on top of the guard factor. The
/// `conn_scale_100` reference is milliseconds of wall time, where
/// process cold-start and scheduler noise dwarf any multiplicative
/// factor; the slack keeps the guard meaningful for long cases and
/// non-flaky for short ones.
const CHECK_SLACK_S: f64 = 0.1;

/// Perf-guard mode: run only the guarded cases (`bulk_100mb` and
/// `conn_scale_100`) and compare each against the `current` reference
/// committed in `BENCH_simperf.json` — best of three runs per case to
/// damp scheduler noise, like the trace check. In quick mode only the
/// fleet case is comparable (the 1 MB bulk has no committed reference).
fn run_perf_check(factor: f64, quick: bool, path: &std::path::Path) {
    let reference = previous_section(path, "current");
    let best = |run: &dyn Fn() -> Case| {
        (0..3).map(|_| run()).min_by(|a, b| a.wall_s.total_cmp(&b.wall_s)).unwrap()
    };
    let mut cases = Vec::new();
    if quick {
        eprintln!(
            "perf check (quick): bulk skipped — quick mode measures 1 MB, reference is 100 MB"
        );
    } else {
        cases.push(best(&|| run_case("bulk_100mb", &ScenarioSpec::new(Workload::bulk_mb(100)))));
    }
    cases.push(best(&|| run_fleet_case("conn_scale_100", 100)));
    let mut failed = false;
    for c in &cases {
        match reference.as_deref().and_then(|s| wall_of(s, c.name)) {
            Some(r) if c.wall_s <= r * factor + CHECK_SLACK_S => {
                println!(
                    "perf check ok: {} {:.3}s <= {r:.3}s x {factor} + {CHECK_SLACK_S}s",
                    c.name, c.wall_s
                );
            }
            Some(r) => {
                eprintln!(
                    "perf check FAILED: {} {:.3}s > {r:.3}s x {factor} + {CHECK_SLACK_S}s",
                    c.name, c.wall_s
                );
                failed = true;
            }
            None => eprintln!("perf check skipped: no {} reference in {}", c.name, path.display()),
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
        match wan_reference.as_deref().and_then(|s| completion_of(s, c.name)) {
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
        run_case("bulk_100mb", &ScenarioSpec::new(bulk)),
        run_case(
            "bulk_100mb_st_tcp",
            &ScenarioSpec::new(bulk).st_tcp(st_cfg(SimDuration::from_millis(50))),
        ),
        run_fleet_case("conn_scale_100", 100),
    ];
    if !quick {
        cases.push(run_fleet_case("conn_scale_1k", 1_000));
        cases.push(run_fleet_case("conn_scale_10k", 10_000));
        // The O(1)-demux contract: per-event cost must not grow with
        // connection count (acceptance: ≥ 0.5× the 100-client rate).
        let rate = |name: &str| {
            cases.iter().find(|c| c.name == name).map(|c| c.events_per_s).unwrap_or(0.0)
        };
        let (r100, r10k) = (rate("conn_scale_100"), rate("conn_scale_10k"));
        assert!(
            r10k >= 0.5 * r100,
            "conn_scale_10k throughput collapsed: {r10k:.0} ev/s vs {r100:.0} ev/s at 100 clients"
        );
        println!("conn_scale check ok: {r10k:.0} ev/s @10k >= 0.5 x {r100:.0} ev/s @100");
    }

    let mut table = Table::new(
        if quick {
            "simperf (quick smoke — 1 MB bulk, no file write)"
        } else {
            "simperf: simulator throughput"
        },
        &["scenario", "wall (s)", "events", "events/s"],
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
            format!("{:.0}", c.events_per_s),
        ]);
    }
    table.emit("simperf");

    // WAN congestion surface: the controller comparison the paper's LAN
    // testbed never reaches. Virtual completion time is deterministic;
    // the Reno-vs-modern ordering is asserted inside.
    let wan_cases = run_wan_cases();
    let mut wan_table = Table::new(
        "wan_high_bdp congestion (20 MB bulk; failover: 5 MB + crash at 700 ms)",
        &["case", "completion (virtual s)", "wall (s)", "events"],
    );
    for c in &wan_cases {
        wan_table.row(vec![
            c.name.to_string(),
            format!("{:.2}", c.completion_s),
            format!("{:.3}", c.wall_s),
            c.events.to_string(),
        ]);
    }
    wan_table.emit("simperf_wan");

    // Side-channel economy across chain lengths (virtual-time metric:
    // deterministic, so it doubles as a regression check). The naive
    // design — every backup speaking rank 1's per-connection dialect —
    // would triple the cost from 1 to 3 backups; batching must keep the
    // growth visibly below that.
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
    let (o1, o3) = (side_cases[0].overhead(), side_cases[2].overhead());
    assert!(
        o3 < 2.5 * o1,
        "side-channel cost must grow sub-linearly in backup count: \
         {o3:.4} bytes/goodput at 3 backups vs {o1:.4} at 1 (linear would be 3x)"
    );
    println!(
        "side-channel sub-linearity ok: {o3:.4} @3 backups < 2.5 x {o1:.4} @1 (linear would be 3x)"
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
        match (wall_of(&baseline, "bulk_100mb"), wall_of(&current, "bulk_100mb")) {
            (Some(b), Some(c)) if c > 0.0 => b / c,
            _ => 1.0,
        }
    };
    let json = format!(
        "{{\n  \"bench\": \"simperf\",\n  \"units\": {{\"wall_s\": \"seconds\", \"events_per_s\": \"simulator events per wall-clock second\", \"side_channel_overhead\": \"side-channel bytes per goodput byte (virtual time, deterministic)\", \"completion_s\": \"virtual seconds to workload completion (deterministic)\"}},\n  \"baseline\": {baseline},\n  \"current\": {current},\n  \"wan\": {wan},\n  \"side_channel\": {side_channel},\n  \"obs\": {obs},\n  \"bulk_100mb_speedup_vs_baseline\": {speedup:.2}\n}}\n"
    );
    std::fs::write(&path, json).expect("write BENCH_simperf.json");
    println!("BENCH_simperf.json updated (bulk speedup vs baseline: {speedup:.2}x)");
}

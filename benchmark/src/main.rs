//! Command line of `sttcp-perf`. Three forms:
//!
//! * `sttcp-perf --workload W --seed N --seconds S --trace 0|1` — what
//!   the acceptance driver calls: one workload, one phase, one JSON line.
//! * `sttcp-perf run [--seed N] [--seconds S] [--only W] [--quick] [--out FILE]`
//!   — all six workloads, both phases, every metric printed by name;
//!   writes the results file and one trace file per workload.
//! * `sttcp-perf repeat [same flags]` — `run` twice in fresh processes;
//!   fails unless the two agree.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use sttcp_perf::alloc::BenchAlloc;
use sttcp_perf::measure::{end_to_end, per_layer, Options, Report};
use sttcp_perf::metrics::{self, Kind};
use sttcp_perf::report::{driver_line, print_table, read_results, write_results, write_trace};
use sttcp_perf::workloads::{WorkloadId, ALL};

#[global_allocator]
static ALLOC: BenchAlloc = BenchAlloc;

const USAGE: &str = "usage:
  sttcp-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
  sttcp-perf run    [--seed <n>] [--seconds <s>] [--only <name>] [--quick] [--out <file>]
  sttcp-perf repeat [--seed <n>] [--seconds <s>] [--only <name>] [--quick]
workloads: bulk_std bulk_sttcp upload_sttcp fleet_churn fleet_failover wan_loss_failover";

/// Window of each phase under `run`, chosen so that the full set stays
/// near a minute and a half on two cores.
const RUN_SECONDS: f64 = 4.0;
/// Never fewer measured reps than this (except `--quick`).
const MIN_REPS: usize = 7;
/// Never fewer traced cycles than this (except `--quick`).
const MIN_CYCLES: usize = 2;

#[derive(Debug, Default)]
struct Flags {
    workload: Option<WorkloadId>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    out: Option<PathBuf>,
}

fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        // A driver may hand over a signed number; any 64 bits make a seed.
        None => text.parse::<u64>().ok().or_else(|| text.parse::<i64>().ok().map(|v| v as u64)),
    }
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            flags.quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" | "--only" => {
                flags.workload = Some(WorkloadId::from_name(value).ok_or_else(bad)?);
            }
            "--seed" => flags.seed = Some(parse_seed(value).ok_or_else(bad)?),
            "--seconds" => {
                let s = value.parse::<f64>().ok().filter(|s| (0.0..=3_600.0).contains(s));
                flags.seconds = Some(s.ok_or_else(bad)?);
            }
            "--trace" => {
                flags.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            "--out" => flags.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(flags)
}

fn options(workload: WorkloadId, flags: &Flags, default_seconds: f64) -> Options {
    Options {
        workload,
        seed: flags.seed,
        seconds: if flags.quick { 0.0 } else { flags.seconds.unwrap_or(default_seconds) },
        min_reps: if flags.quick { 1 } else { MIN_REPS },
        min_cycles: if flags.quick { 1 } else { MIN_CYCLES },
        quick: flags.quick,
    }
}

/// The driver form: one phase of one workload, one JSON line.
fn drive(flags: &Flags) -> ExitCode {
    let (Some(workload), Some(trace), Some(seconds)) = (flags.workload, flags.trace, flags.seconds)
    else {
        eprintln!("--workload, --seconds and --trace are required\n{USAGE}");
        return ExitCode::from(2);
    };
    let opts = options(workload, flags, seconds);
    let report = if trace { per_layer(&opts) } else { end_to_end(&opts) };
    print_table(&mut std::io::stderr(), &report).expect("stderr is writable");
    println!("{}", driver_line(&report));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// All workloads (or `--only` one), both phases.
fn run(flags: &Flags) -> std::io::Result<ExitCode> {
    let mut reports: Vec<Report> = Vec::new();
    let mut stdout = std::io::stdout();
    if !flags.quick {
        std::fs::create_dir_all(out_dir())?;
    }
    for workload in ALL.into_iter().filter(|w| flags.workload.is_none_or(|only| only == *w)) {
        let opts = options(workload, flags, RUN_SECONDS);
        let untraced = end_to_end(&opts);
        print_table(&mut stdout, &untraced)?;
        let mut traced = per_layer(&opts);
        print_table(&mut stdout, &traced)?;
        if let (false, Some(buf)) = (flags.quick, traced.trace.take()) {
            let path = out_dir().join(format!("trace-{}.json", workload.name()));
            write_trace(&path, workload.name(), &buf)?;
            println!("  trace: {} spans -> {}", buf.spans.len(), path.display());
        }
        reports.extend([untraced, traced]);
    }
    if !flags.quick {
        let path = flags.out.clone().unwrap_or_else(|| out_dir().join("results.json"));
        write_results(&path, &reports)?;
        println!("results -> {}", path.display());
    }
    let failed: u64 = reports.iter().map(|r| r.failed).sum();
    let attempted: u64 = reports.iter().map(|r| r.attempted).sum();
    println!(
        "failed_ops_share = {} ({failed} of {attempted})",
        failed as f64 / attempted.max(1) as f64
    );
    Ok(if reports.iter().all(Report::correct) { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// `run` twice, each in a fresh process; the two must agree.
fn repeat(flags: &Flags, passthrough: &[String]) -> std::io::Result<ExitCode> {
    if flags.quick {
        eprintln!("repeat compares results files, which --quick does not write");
        return Ok(ExitCode::from(2));
    }
    std::fs::create_dir_all(out_dir())?;
    let mut sets = Vec::new();
    for i in 1..=2 {
        let path = out_dir().join(format!("repeat-{i}.json"));
        let status = Command::new(std::env::current_exe()?)
            .arg("run")
            .args(passthrough)
            .arg("--out")
            .arg(&path)
            .status()?;
        if !status.success() {
            eprintln!("run {i} of 2 failed: {status}");
            return Ok(ExitCode::FAILURE);
        }
        sets.push(read_results(&path)?);
    }
    let (first, second) = (&sets[0], &sets[1]);
    let mut disagreements = 0;
    println!(
        "{:<18} {:<40} {:>16} {:>16} {:>9}  verdict",
        "workload", "metric", "run 1", "run 2", "diff"
    );
    for a in first {
        let Some(b) = second.iter().find(|b| b.workload == a.workload && b.metric == a.metric)
        else {
            println!("{:<18} {:<40} missing from run 2", a.workload, a.metric);
            disagreements += 1;
            continue;
        };
        let def = metrics::find(&a.metric).expect("results files hold table metrics");
        let (x, y) = (a.value.value, b.value.value);
        let diff = if x == y { 0.0 } else { (x - y).abs() / x.abs().min(y.abs()) };
        // Set-up of a three-node topology takes microseconds; below 5 ms
        // of absolute difference a ratio of two set-up times means nothing.
        let tiny_setup = def.unit == "s" && (x - y).abs() <= 0.005;
        let (verdict, agree) = match (def.kind, def.bound) {
            (Kind::Exact, _) if x == y => ("identical", true),
            (Kind::Exact, _) => ("DIFFERS", false),
            (Kind::Host, Some(bound)) if diff <= bound || tiny_setup => ("within bound", true),
            (Kind::Host, Some(_)) => ("OUT OF BOUND", false),
            (Kind::Host, None) => ("(not bounded)", true),
        };
        disagreements += usize::from(!agree);
        println!(
            "{:<18} {:<40} {x:>16.6} {y:>16.6} {:>8.2}%  {verdict}",
            a.workload,
            a.metric,
            diff * 100.0
        );
    }
    println!("{disagreements} disagreements");
    Ok(if disagreements == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some("run") => ("run", &args[1..]),
        Some("repeat") => ("repeat", &args[1..]),
        Some(flag) if flag.starts_with("--") => ("drive", &args[..]),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let flags = match parse_flags(rest) {
        Ok(flags) => flags,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match command {
        "run" => run(&flags),
        "repeat" => repeat(&flags, rest),
        _ => Ok(drive(&flags)),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("sttcp-perf: {e}");
        ExitCode::FAILURE
    })
}

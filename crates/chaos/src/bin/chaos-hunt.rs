//! Campaign CLI: run chaos campaigns, verify the oracles catch a
//! deliberately broken configuration, and emit replayable artifacts.
//!
//! ```text
//! chaos-hunt [--smoke | --demo | --wan | --cascade] [--skip-canary]
//!            [--threads N] [--replay FILE] [--artifacts DIR]
//! chaos-hunt --sweep <twin | wan | lossy-chain> [--seeds N] [--threads N]
//! ```
//!
//! * `--smoke`     bounded campaign for CI (default): the pair matrix,
//!   then the cascade matrix.
//! * `--demo`      the full ≥200-run campaign.
//! * `--wan`       burst-loss WAN failover matrix (seeds × controllers).
//! * `--cascade`   cascading failure over a 3-backup chain (three seeds).
//! * `--sweep`     one spec over `--seeds` seeds (default 64) with every
//!   oracle on: the pass rate, a Wilson 95 % bound on the failure rate,
//!   and the failing seeds grouped by first oracle. `twin` is the
//!   fault-free `fleet_failover` twin, `wan` the benchmark's
//!   `wan_loss_failover`, `lossy-chain` the burst-loss chain. Exit code
//!   0 iff every seed passed; no canary.
//! * `--replay`    replay a failure artifact JSON file and verify it
//!   reproduces (same oracle, same frame digest).
//! * `--artifacts` write each failure's reproducer to DIR: the JSON
//!   artifact (with embedded obs snapshot and trace tail)
//!   plus a `.pcap` capture of the failing pass.
//!
//! Exit code 0 iff the campaign is all green AND the broken-config
//! canary is caught, shrunk, and replays deterministically.

use chaos::{
    broken_config_canary, cascade_campaign, demo_campaign, execute_with_pcap, measure_profile,
    run_campaign, run_sweep, shrink, smoke_campaign, wan_burst_loss_campaign, Campaign,
    FailureArtifact, OracleKind, Profile, Sweep,
};
use netsim::pcap::SharedPcap;
use std::process::ExitCode;
use std::time::Instant;

enum Matrix {
    Smoke,
    Demo,
    Wan,
    Cascade,
}

struct Args {
    matrix: Matrix,
    sweep: Option<Sweep>,
    seeds: u64,
    skip_canary: bool,
    threads: usize,
    replay: Option<String>,
    artifacts: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        matrix: Matrix::Smoke,
        sweep: None,
        seeds: 64,
        skip_canary: false,
        threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
        replay: None,
        artifacts: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => args.matrix = Matrix::Smoke,
            "--demo" => args.matrix = Matrix::Demo,
            "--wan" => args.matrix = Matrix::Wan,
            "--cascade" => args.matrix = Matrix::Cascade,
            "--skip-canary" => args.skip_canary = true,
            "--sweep" => {
                let v = it.next().ok_or("--sweep needs a spec")?;
                args.sweep = Some(Sweep::from_name(&v).ok_or(format!("unknown sweep {v:?}"))?);
            }
            "--seeds" => {
                let v = it.next().ok_or("--seeds needs a value")?;
                args.seeds = v.parse().map_err(|_| format!("bad seed count {v:?}"))?;
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                args.threads = v.parse().map_err(|_| format!("bad thread count {v:?}"))?;
            }
            "--replay" => {
                args.replay = Some(it.next().ok_or("--replay needs a file")?);
            }
            "--artifacts" => {
                args.artifacts = Some(it.next().ok_or("--artifacts needs a directory")?);
            }
            "--help" | "-h" => {
                println!(
                    "usage: chaos-hunt [--smoke | --demo | --wan | --cascade] [--skip-canary] \
                     [--threads N] [--replay FILE] [--artifacts DIR]\n       \
                     chaos-hunt --sweep <twin | wan | lossy-chain> [--seeds N] [--threads N]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Writes `name.json` (the artifact) and `name.pcap` (a frame capture of
/// the failing pass, re-executed deterministically) into `dir`.
fn export_artifact(dir: &str, name: &str, artifact: &FailureArtifact) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        println!("      cannot create {dir}: {e}");
        return;
    }
    let json_path = format!("{dir}/{name}.json");
    if let Err(e) = std::fs::write(&json_path, artifact.to_json()) {
        println!("      cannot write {json_path}: {e}");
        return;
    }
    let profile = if artifact.spec.plan.needs_probe() {
        measure_profile(&artifact.spec).unwrap_or_default()
    } else {
        Profile::default()
    };
    let pcap = SharedPcap::new();
    let _ = execute_with_pcap(&artifact.spec, &profile, pcap.clone());
    let pcap_path = format!("{dir}/{name}.pcap");
    match pcap.save(&pcap_path) {
        Ok(()) => println!("      artifact files: {json_path}, {pcap_path}"),
        Err(e) => println!("      cannot write {pcap_path}: {e}"),
    }
}

fn run_matrix(campaign: &Campaign, threads: usize, artifacts: Option<&str>) -> bool {
    let started = Instant::now();
    println!(
        "== campaign `{}`: {} runs on {} threads",
        campaign.name,
        campaign.runs.len(),
        threads
    );
    let result = run_campaign(campaign, threads);
    let failed = result.failed_runs();
    let elapsed = started.elapsed();
    let takeovers = result.reports.iter().filter(|r| r.takeover_latency.is_some()).count();
    println!(
        "   {} passed, {} failed, {} takeovers observed, {:.1}s wall",
        result.reports.len() - failed.len(),
        failed.len(),
        takeovers,
        elapsed.as_secs_f64()
    );
    for &i in &failed {
        let spec = &campaign.runs[i];
        let report = &result.reports[i];
        println!(
            "   FAIL run {i}: {} seed={} plan=[{}]",
            spec.testbed.label(),
            spec.seed,
            spec.plan.describe()
        );
        for v in &report.violations {
            println!("      {v}");
        }
        if let Some(oracle) = report.first_oracle() {
            let artifact = FailureArtifact::capture(spec, report, oracle);
            println!("      artifact: {}", artifact.to_json());
            if let Some(dir) = artifacts {
                export_artifact(
                    dir,
                    &format!("{}-run{i}-{}", campaign.name, oracle.tag()),
                    &artifact,
                );
            }
        }
    }
    failed.is_empty()
}

/// Proves the oracles have teeth: a fencing-disabled configuration must
/// be caught by the single-server oracle, shrink to a minimal schedule,
/// and replay deterministically.
fn run_canary(artifacts: Option<&str>) -> bool {
    println!("== broken-config canary (fencing disabled, paused primary)");
    let spec = broken_config_canary();
    let report = chaos::execute(&spec);
    let caught = report.violations.iter().any(|v| v.oracle == OracleKind::SingleServer);
    if !caught {
        println!("   FAIL: split brain was NOT caught; violations: {:?}", report.violations);
        return false;
    }
    println!("   caught: {}", report.violations[0]);

    let Some(result) = shrink(&spec, OracleKind::SingleServer, 32) else {
        println!("   FAIL: shrink could not reproduce the original failure");
        return false;
    };
    println!(
        "   shrunk in {} trials ({} ops removed): [{}]",
        result.trials,
        result.ops_removed,
        result.minimal.plan.describe()
    );
    if result.minimal.plan.ops.is_empty() {
        println!("   FAIL: shrink emptied the schedule yet still fails — oracle is vacuous");
        return false;
    }

    let artifact =
        FailureArtifact::capture(&result.minimal, &result.report, OracleKind::SingleServer);
    let text = artifact.to_json();
    let parsed = match FailureArtifact::from_json(&text) {
        Some(a) => a,
        None => {
            println!("   FAIL: artifact did not round-trip through JSON");
            return false;
        }
    };
    let (reproduced, replay_report) = parsed.replay();
    if !reproduced {
        println!(
            "   FAIL: replay diverged (digest {:016x} vs {:016x})",
            replay_report.digest, artifact.digest
        );
        return false;
    }
    println!("   artifact replays deterministically (digest {:016x})", artifact.digest);
    println!("   artifact: {text}");
    if let Some(dir) = artifacts {
        export_artifact(dir, "canary-single-server", &artifact);
    }
    true
}

fn run_replay(path: &str) -> bool {
    let Ok(text) = std::fs::read_to_string(path) else {
        println!("cannot read {path}");
        return false;
    };
    let Some(artifact) = FailureArtifact::from_json(&text) else {
        println!("{path} is not a chaos artifact");
        return false;
    };
    println!(
        "replaying {} seed={:#x} plan=[{}]",
        artifact.spec.testbed.label(),
        artifact.spec.seed,
        artifact.spec.plan.describe()
    );
    let (reproduced, report) = artifact.replay();
    for v in &report.violations {
        println!("   {v}");
    }
    if reproduced {
        println!("reproduced: oracle [{}] fired, digest matches", artifact.oracle.tag());
    } else {
        println!(
            "did NOT reproduce (digest {:016x}, expected {:016x})",
            report.digest, artifact.digest
        );
    }
    reproduced
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("chaos-hunt: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &args.replay {
        return if run_replay(path) { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }
    if let Some(sweep) = args.sweep {
        let started = Instant::now();
        println!("== sweep `{}`: {} seeds on {} threads", sweep.name(), args.seeds, args.threads);
        let result = run_sweep(sweep, args.seeds, args.threads);
        print!("{result}");
        println!("   {:.1}s wall", started.elapsed().as_secs_f64());
        let green = result.passed() == result.runs.len();
        return if green { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }
    let campaigns = match args.matrix {
        Matrix::Smoke => vec![smoke_campaign(), cascade_campaign()],
        Matrix::Demo => vec![demo_campaign()],
        Matrix::Wan => vec![wan_burst_loss_campaign()],
        Matrix::Cascade => vec![cascade_campaign()],
    };
    let mut ok = true;
    for campaign in &campaigns {
        ok &= run_matrix(campaign, args.threads, args.artifacts.as_deref());
    }
    if !args.skip_canary {
        ok &= run_canary(args.artifacts.as_deref());
    }
    if ok {
        println!("chaos-hunt: all green");
        ExitCode::SUCCESS
    } else {
        println!("chaos-hunt: FAILURES");
        ExitCode::FAILURE
    }
}

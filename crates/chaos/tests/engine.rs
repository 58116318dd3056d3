//! End-to-end tests of the chaos engine against the real simulator.
//!
//! Kept deliberately small (debug-mode friendly): a handful of
//! representative runs rather than a full campaign — `chaos-hunt` and
//! the CI `chaos-smoke` job cover the matrices in release mode.

//!
//! Every frame digest asserted here was captured from the runner of the
//! commit before the pair and chain runners were merged: the merged
//! runner builds the same simulations, only the judging moved. The five
//! runs with a takeover were re-pinned once since, when a promoted
//! backup stopped acking and heartbeating the primary it replaced. Every
//! digest but the bulk regression's was re-pinned when the side channel
//! got one heartbeat: the primary's carries its epoch (13 bytes, was 9),
//! and a backup's acks are its heartbeat. Every digest was re-pinned
//! when the backup's tap began to carry only the client's half: the
//! primary's half comes as side-channel `Frontier` entries, a backup
//! sends a loopback frame at boot, and a promoted backup speaks first.
//! Every digest was re-pinned again when every server began to derive
//! a passive open's ISS from the SYN: the SYN entries went, the frontier
//! rides the heartbeat, and every server sequence number moved
//! (CHANGES.md has both tables).

use apps::Workload;
use chaos::{
    broken_config_canary, execute, shrink, FailureArtifact, FaultOp, FaultPlan, OracleKind,
    RunSpec, BACKUP,
};

fn plan(ops: &[FaultOp]) -> FaultPlan {
    FaultPlan { ops: ops.to_vec() }
}

/// The fault-free 20-echo run; side-channel duplication at the backup's
/// ingress adds deliveries, not transmissions, so it shares the digest.
const ECHO20_SEED1_DIGEST: u64 = 0x6677_3e10_367d_3adb;

#[test]
fn fault_free_run_is_green() {
    let spec = RunSpec::new(Workload::Echo { requests: 20 }, 1, plan(&[]));
    let report = execute(&spec);
    assert!(report.violations.is_empty(), "violations: {:?}", report.violations);
    assert!(report.takeover_latency.is_none(), "no fault, no takeover");
    assert_eq!(report.digest, ECHO20_SEED1_DIGEST);
    assert_eq!((report.final_epoch, report.progress), (0, (3000, 3000)));
}

#[test]
fn crash_with_tap_loss_recovers_and_is_green() {
    // Representative hard case: a mid-run crash combined with tap loss.
    let spec = RunSpec::new(
        Workload::Echo { requests: 20 },
        1,
        plan(&[
            FaultOp::CrashPrimary { quantile_pct: 50 },
            FaultOp::TapDrop { rank: BACKUP, skip: 2, count: 2 },
        ]),
    );
    let report = execute(&spec);
    assert!(report.violations.is_empty(), "violations: {:?}", report.violations);
    assert!(report.takeover_latency.is_some(), "a crashed primary must hand over");
    assert_eq!(report.digest, 0x46c2_6046_190a_4715);
    assert_eq!(report.final_epoch, 1, "the backup serves under the first promotion's epoch");
    assert_eq!(report.injections, [("tap_drop@backup(skip 2, 2)".to_string(), 23, 2)]);
}

#[test]
fn synack_only_window_bulk_regression() {
    // Regression for a gap the chaos engine originally found: the tap
    // misses the client's SYN and the primary dies before its first
    // data segment — the client's next segment, which the backup's
    // stack holds no connection for, is then the only evidence the
    // connection exists and must trigger the logger bootstrap.
    let spec = RunSpec::new(
        Workload::Bulk { file_size: 64 * 1024 },
        1,
        plan(&[
            FaultOp::CrashPrimary { quantile_pct: 10 },
            FaultOp::TapDrop { rank: BACKUP, skip: 0, count: 1 },
        ]),
    );
    let report = execute(&spec);
    assert!(report.violations.is_empty(), "violations: {:?}", report.violations);
    assert_eq!(report.digest, 0x0838_a173_5b5f_9243);
}

#[test]
fn runs_are_bit_deterministic() {
    let spec = RunSpec::new(
        Workload::Echo { requests: 15 },
        3,
        plan(&[
            FaultOp::CrashPrimary { quantile_pct: 30 },
            FaultOp::SideDelay { rank: BACKUP, delay_ms: 60 },
        ]),
    );
    let a = execute(&spec);
    let b = execute(&spec);
    assert_eq!(a.digest, 0x88fb_bb00_0547_e3bf);
    assert_eq!(a.digest, b.digest, "identical specs must produce identical frame traces");
    assert_eq!(a.virtual_duration, b.virtual_duration);
    assert_eq!(a.takeover_latency, b.takeover_latency);
}

#[test]
fn different_seeds_diverge() {
    let mk = |seed| RunSpec::new(Workload::Echo { requests: 15 }, seed, plan(&[]));
    let a = execute(&mk(1));
    let b = execute(&mk(2));
    assert_eq!((a.digest, b.digest), (0x6473_b94a_3199_9771, 0xf1e1_6699_3f5c_fdeb));
}

#[test]
fn canary_is_caught_shrunk_and_replayable() {
    // The oracle-teeth proof: fencing disabled + paused primary is a
    // split-brain the single-server oracle must catch; the failure must
    // shrink to a non-empty minimal schedule whose artifact replays.
    let spec = broken_config_canary();
    let report = execute(&spec);
    assert!(
        report.violations.iter().any(|v| v.oracle == OracleKind::SingleServer),
        "split brain must be caught: {:?}",
        report.violations
    );
    assert_eq!(report.digest, 0xf0c5_70cd_7ba8_9824);

    let result = shrink(&spec, OracleKind::SingleServer, 16).expect("original failure reproduces");
    assert!(!result.minimal.plan.ops.is_empty(), "shrink must not empty the schedule");
    assert_eq!(result.minimal.plan.describe(), "pause@10%/300ms");
    assert_eq!(result.report.digest, 0x5094_efd6_30f2_bb81);

    let artifact =
        FailureArtifact::capture(&result.minimal, &result.report, OracleKind::SingleServer);
    let text = artifact.to_json();
    let parsed = FailureArtifact::from_json(&text).expect("artifact round-trips");
    let (reproduced, _) = parsed.replay();
    assert!(reproduced, "minimal artifact must replay bit-exactly");
}

#[test]
fn innocent_side_channel_noise_is_not_flagged() {
    // Side-channel jitter alone must neither violate an oracle nor
    // trigger a spurious takeover (false-suspicion check).
    let spec = RunSpec::new(
        Workload::Echo { requests: 20 },
        1,
        plan(&[FaultOp::SideDuplicate { rank: BACKUP, offset_ms: 5 }]),
    );
    let report = execute(&spec);
    assert!(report.violations.is_empty(), "violations: {:?}", report.violations);
    assert!(report.takeover_latency.is_none(), "no takeover without a real fault");
    assert_eq!(report.digest, ECHO20_SEED1_DIGEST);
    assert_eq!(report.injections, [("side_dup@backup(5ms)".to_string(), 64, 64)]);
}

/// An artifact in the form the engine wrote before chains shared the
/// format: no testbed members, no `target` on the tap op, the
/// side-channel op addressed by the `"backup"` tag. Its recorded
/// `digest` and violation text are the current runner's: the digest
/// moved when the promoted backup stopped talking to the primary it
/// replaced and when the side channel got one heartbeat, both moved
/// when the mirror began to copy only the client's half, and both again
/// when every server began to derive its ISS from the SYN.
const PARENT_ERA_ARTIFACT: &str = r#"{"format":"sttcp-chaos-artifact-v1","workload":{"kind":"echo","requests":100},"seed":"0x0000000000000007","fencing":false,"limit_ms":60000,"max_events":20000000,"link":"lan","congestion":"reno","sack":false,"plan":{"ops":[{"op":"pause_primary","at_pct":10,"dur_ms":300},{"op":"tap_drop","skip":0,"count":1},{"op":"side_duplicate","target":"backup","offset_ms":5}]},"oracle":"single-server","details":["[single-server] t=t=1.242598s node 1 still sourcing VIP traffic at t=1.242598s, 942.598ms after takeover"],"digest":"0xe2841d22cabaf8fe"}"#;

#[test]
fn parent_era_artifact_parses_to_the_same_spec_and_replays() {
    let artifact = FailureArtifact::from_json(PARENT_ERA_ARTIFACT).expect("still parses");
    let mut spec = broken_config_canary();
    spec.plan = plan(&[
        FaultOp::PausePrimary { at_pct: 10, dur_ms: 300 },
        FaultOp::TapDrop { rank: BACKUP, skip: 0, count: 1 },
        FaultOp::SideDuplicate { rank: BACKUP, offset_ms: 5 },
    ]);
    assert_eq!(artifact.spec, spec);
    // The replay must report the very same violation text, not merely
    // the same oracle.
    let (reproduced, report) = artifact.replay();
    assert_eq!(report.violations.len(), 1);
    assert_eq!(artifact.details, [report.violations[0].to_string()]);
    assert!(reproduced, "digest {:#018x}", report.digest);
}

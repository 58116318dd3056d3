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
//! and a backup's acks are its heartbeat.

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
const ECHO20_SEED1_DIGEST: u64 = 0x1126_a6a1_abeb_6f5d;

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
    assert_eq!(report.digest, 0x7771_c170_a3a4_3ec2);
    assert_eq!(report.final_epoch, 1, "the backup serves under the first promotion's epoch");
    assert_eq!(report.injections, [("tap_drop@backup(skip 2, 2)".to_string(), 24, 2)]);
}

#[test]
fn synack_only_window_bulk_regression() {
    // Regression for a gap the chaos engine originally found: the tap
    // misses the client's SYN and the primary dies before its first
    // data segment — the tapped SYN/ACK is then the only evidence the
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
    assert_eq!(report.digest, 0x8168_65c1_b7b0_dd31);
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
    assert_eq!(a.digest, 0xda98_3e84_534b_87d3);
    assert_eq!(a.digest, b.digest, "identical specs must produce identical frame traces");
    assert_eq!(a.virtual_duration, b.virtual_duration);
    assert_eq!(a.takeover_latency, b.takeover_latency);
}

#[test]
fn different_seeds_diverge() {
    let mk = |seed| RunSpec::new(Workload::Echo { requests: 15 }, seed, plan(&[]));
    let a = execute(&mk(1));
    let b = execute(&mk(2));
    assert_eq!((a.digest, b.digest), (0xc994_357c_e37d_d86f, 0xba09_11be_ff30_a751));
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
    assert_eq!(report.digest, 0x20c4_0d9b_f6cc_65b8);

    let result = shrink(&spec, OracleKind::SingleServer, 16).expect("original failure reproduces");
    assert!(!result.minimal.plan.ops.is_empty(), "shrink must not empty the schedule");
    assert_eq!(result.minimal.plan.describe(), "pause@10%/300ms");
    assert_eq!(result.report.digest, 0x1d7c_6c5b_d04a_78b7);

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
/// `digest` is the current runner's (the promoted backup no longer talks
/// to the primary it replaced, and the side channel has one heartbeat);
/// the violation text is as first written.
const PARENT_ERA_ARTIFACT: &str = r#"{"format":"sttcp-chaos-artifact-v1","workload":{"kind":"echo","requests":100},"seed":"0x0000000000000007","fencing":false,"limit_ms":60000,"max_events":20000000,"link":"lan","congestion":"reno","sack":false,"plan":{"ops":[{"op":"pause_primary","at_pct":10,"dur_ms":300},{"op":"tap_drop","skip":0,"count":1},{"op":"side_duplicate","target":"backup","offset_ms":5}]},"oracle":"single-server","details":["[single-server] t=t=1.246907s node 1 still sourcing VIP traffic at t=1.246907s, 946.907ms after takeover"],"digest":"0x8b843bcbf74cc064"}"#;

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

//! Chain campaigns: the N-backup replication chain through the same
//! plan → probe → oracle → shrink → replay pipeline as the pair.
//!
//! The cascade runs kill the primary mid-workload, then kill the freshly
//! promoted rank-1 backup *mid-takeover* (inside its successor's
//! detection stagger), leaving rank 2 of a 3-backup chain to serve.
//! Every run must keep all eight invariant oracles green, with every
//! one of the 40 clients' byte streams intact, and the surviving rank
//! must converge on the epoch-by-rank topology (epoch 2) regardless of
//! the path the cascade took.
//!
//! The frame digests were captured from the separate chain runner of the
//! commit before it was folded into `chaos::run`. The three cascade
//! digests were re-pinned three times since: when a promoted rank stopped
//! acking and heartbeating the primary it replaced and, with the
//! fault-free one, when every rank got the one ack rule (ack at X or on
//! the sync tick, several connections per datagram) and when the side
//! channel got one heartbeat (the primary's carries its epoch, a
//! backup's acks are its heartbeat). All four moved when the mirror
//! began to copy only what the switch sends to the primary's port, and
//! again when every server began to derive a passive open's ISS from
//! the SYN: what the shadows need of the serving member's half rides its
//! heartbeat as frontier entries, and a mirror copy leaves no earlier
//! than the frame it copies.
//!
//! On failure, the run's replayable artifact (`chaos-hunt --replay`)
//! lands in `target/tmp/chaos-artifacts/` before the panic.

use chaos::{
    cascade_campaign, execute, shrink, FailureArtifact, FaultOp, FaultPlan, OracleKind, RunReport,
    RunSpec,
};
use netsim::{LinkProfile, SimDuration};
use sttcp::scenario::StopReason;

const BACKUPS: usize = 3;

fn cascade(first_crash_ms: u64, second_crash_ms: u64) -> [FaultOp; 2] {
    [
        FaultOp::Crash { rank: 0, at_ms: first_crash_ms },
        FaultOp::Crash { rank: 1, at_ms: second_crash_ms },
    ]
}

fn assert_green(spec: &RunSpec, report: &RunReport) {
    let Some(oracle) = report.first_oracle() else { return };
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("chaos-artifacts");
    std::fs::create_dir_all(&dir).ok();
    let path = dir.join(format!("chain-{:x}-{}.json", spec.seed, oracle.tag()));
    std::fs::write(&path, FailureArtifact::capture(spec, report, oracle).to_json()).ok();
    panic!(
        "seed {:#x} [{}]: {} violations (artifact: {}):\n{}",
        spec.seed,
        spec.plan.describe(),
        report.violations.len(),
        path.display(),
        report.violations.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn cascade_campaign_three_seeds() {
    // First crash lands mid-connect-spread (half the fleet still
    // handshaking); the second lands 160 ms later — right past rank 1's
    // 150 ms detection deadline, i.e. mid-takeover.
    let pinned = [0x3283_22a9_dbb3_79f1, 0xc686_9087_f3fc_db29, 0x6292_bb41_eb8e_ff50];
    let campaign = cascade_campaign();
    assert_eq!(campaign.runs.len(), pinned.len());
    for (spec, digest) in campaign.runs.iter().zip(pinned) {
        assert_eq!(spec.plan.ops, cascade(120, 280));
        let report = execute(spec);
        assert_green(spec, &report);
        assert_eq!(report.digest, digest, "seed {:#x}", spec.seed);
        assert_eq!(
            report.final_epoch, 2,
            "seed {:#x}: the survivor must serve under the epoch-by-rank epoch",
            spec.seed
        );
        // Rank 2 promotes 120 ms after rank 1 died: its clock has been
        // running since the primary fell silent.
        assert_eq!(report.takeover_latency, Some(SimDuration::from_millis(120)));
    }
}

#[test]
fn cascade_campaign_is_deterministic() {
    let spec = &cascade_campaign().runs[0];
    let a = execute(spec);
    let b = execute(spec);
    assert_eq!(a.digest, b.digest, "same spec ⇒ bit-identical frame schedule");
    assert_eq!(a.final_epoch, b.final_epoch);
}

#[test]
fn fault_free_chain_promotes_nobody() {
    let spec = RunSpec::chain(BACKUPS, 12, 0xC0FFEE, FaultPlan::none());
    let report = execute(&spec);
    assert_green(&spec, &report);
    assert_eq!(report.digest, 0xb2c2_8001_d17d_ab12);
    assert_eq!(report.final_epoch, 0);
    assert!(report.takeover_latency.is_none());
    assert_eq!(report.progress, (78_528, 78_528));
}

#[test]
fn cascade_crossed_with_tap_loss_and_side_channel_noise_is_green() {
    // What the chain runner could not express before it was the pair's:
    // the cascade with rank 1 missing tapped segments before it is
    // promoted and rank 2 hearing every side-channel datagram twice.
    let mut ops = cascade(120, 280).to_vec();
    ops.push(FaultOp::TapDrop { rank: 1, skip: 5, count: 3 });
    ops.push(FaultOp::SideDuplicate { rank: 2, offset_ms: 5 });
    let spec = RunSpec::chain(BACKUPS, 40, 0xF1EE7, FaultPlan::new(ops));
    let report = execute(&spec);
    assert_green(&spec, &report);
    assert_eq!(report.final_epoch, 2);
    assert_eq!(report.injections[0], ("tap_drop@backup(skip 5, 3)".to_string(), 161, 3));
    assert!(report.injections[1].2 > 0, "the duplication rule fired: {:?}", report.injections);
    assert!(report.obs.is_some() && report.trace.is_some(), "chain reports embed obs + trace");
}

#[test]
fn quantile_crash_on_a_chain_uses_the_probe_pass() {
    let plan = FaultPlan::new([
        FaultOp::CrashPrimary { quantile_pct: 50 },
        FaultOp::SideDelay { rank: 1, delay_ms: 60 },
    ]);
    let spec = RunSpec::chain(2, 12, 0xC0FFEE, plan);
    let report = execute(&spec);
    assert_green(&spec, &report);
    assert!(report.probe_duration > SimDuration::ZERO, "the plan needs a probe pass");
    assert_eq!(report.final_epoch, 1);
    assert!(report.takeover_latency.is_some());
}

#[test]
fn chain_on_a_lossy_link_is_provisioned_and_gated_like_the_pair() {
    // Burst loss eats heartbeats: with the paper's threshold of 3 rank 1
    // would promote on a healthy primary. The one `sttcp_cfg()` raises it
    // to 10 (500 ms of silence), so every takeover waits at least that
    // long, and sequence agreement — meaningless when every link draws
    // its own loss — stays out of the verdict. Both hold on every seed.
    //
    // Whether a lossy run ends green is a rate, not a property of one
    // seed, so it is judged over a panel. About one run in seven still
    // fails on an open ROADMAP item-1 bug (64 seeds: 54 green): a rank 1
    // whose shadows lag when the primary dies yields to rank 2, which the
    // false-suspicion oracle flags, or a connection whose handshake the
    // tap lost stalls. The panel must not get worse than that.
    const PANEL: u64 = 8;
    let mut green = 0;
    for k in 0..PANEL {
        let seed = 0xC0FFEE_u64.wrapping_add(k.wrapping_mul(0xD1B5_4A32_D192_ED03));
        let plan = FaultPlan::new([FaultOp::CrashPrimary { quantile_pct: 30 }]);
        let spec = RunSpec::chain(2, 12, seed, plan).on_link(LinkProfile::WanBurstLoss).with_sack();
        let report = execute(&spec);
        assert!(
            report.violations.iter().all(|v| v.oracle != OracleKind::SeqAgreement),
            "seed {seed:#x}: {:?}",
            report.violations
        );
        if let Some(latency) = report.takeover_latency {
            assert!(latency >= SimDuration::from_millis(500), "seed {seed:#x}: after {latency}");
        }
        green += u64::from(report.passed());
    }
    assert!(green >= PANEL - 3, "{green} of {PANEL} seeds green");
}

#[test]
fn runaway_chain_run_stops_at_the_event_budget() {
    let mut spec = RunSpec::chain(2, 12, 0xC0FFEE, FaultPlan::none());
    spec.max_events = 200;
    let report = execute(&spec);
    assert_eq!(report.reason, StopReason::EventLimit);
    assert_eq!(report.first_oracle(), Some(OracleKind::Completion));
}

/// Chains have no fencing hardware, so starving a deeper rank of
/// heartbeats is a split brain by construction: rank 2 promotes itself
/// past its 250 ms deadline while ranks 0 and 1 are alive and serving.
fn starve_rank_2() -> FaultOp {
    FaultOp::SideDrop { rank: 2, skip: 0, count: 400 }
}

#[test]
fn promotion_ahead_of_the_fault_is_a_violation_at_every_rank() {
    // Rank 2 has promoted itself by 300 ms; the cascade that would have
    // made it the legitimate survivor only starts then. The chain runner
    // used to accept any takeover instant that did not exceed the bound.
    let mut ops = vec![starve_rank_2()];
    ops.extend(cascade(300, 460));
    let report = execute(&RunSpec::chain(2, 40, 0xF1EE7, FaultPlan::new(ops)));
    let early: Vec<_> =
        report.violations.iter().filter(|v| v.oracle == OracleKind::TakeoverLatency).collect();
    assert_eq!(early.len(), 1, "violations: {:?}", report.violations);
    assert!(early[0].detail.contains("precedes the fault at t=0.460000s"), "{}", early[0]);
}

#[test]
fn chain_canary_is_caught_shrunk_and_replayable() {
    // Mirrors `canary_is_caught_shrunk_and_replayable` in engine.rs, two
    // ranks deeper: the starvation rides on a primary crash and tap loss
    // that have nothing to do with the failure, and the shrinker must
    // find that out.
    let spec = RunSpec::chain(
        2,
        12,
        0xF1EE7,
        FaultPlan::new([
            FaultOp::Crash { rank: 0, at_ms: 120 },
            FaultOp::TapDrop { rank: 1, skip: 3, count: 2 },
            starve_rank_2(),
        ]),
    );
    let report = execute(&spec);
    assert_eq!(report.first_oracle(), Some(OracleKind::SingleServer), "{:?}", report.violations);

    let result = shrink(&spec, OracleKind::SingleServer, 40).expect("original failure reproduces");
    assert_eq!(result.ops_removed, 2, "minimal plan: [{}]", result.minimal.plan.describe());
    assert!(
        matches!(result.minimal.plan.ops[..], [FaultOp::SideDrop { rank: 2, skip: 0, count }] if count < 400),
        "minimal plan: [{}]",
        result.minimal.plan.describe()
    );

    let artifact =
        FailureArtifact::capture(&result.minimal, &result.report, OracleKind::SingleServer);
    let parsed = FailureArtifact::from_json(&artifact.to_json()).expect("artifact round-trips");
    assert_eq!(parsed, artifact);
    let (reproduced, replay) = parsed.replay();
    assert!(reproduced, "minimal chain artifact must replay bit-exactly");
    assert_eq!(replay.digest, artifact.digest);
}

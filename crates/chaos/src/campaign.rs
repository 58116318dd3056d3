//! Campaign enumeration and parallel execution.
//!
//! A campaign crosses fault schedules with workloads and seeds into a
//! run matrix, executes every run on a thread pool (each run owns an
//! independent deterministic [`netsim::Simulator`]), and aggregates the
//! verdicts. Probe passes are shared: every run with the same testbed,
//! seed and link knobs reuses one measured [`Profile`].

use crate::plan::{FaultOp, FaultPlan, BACKUP, PRIMARY};
use crate::run::{execute_with_profile, measure_profile, Profile, RunReport, RunSpec};
use apps::Workload;
use netsim::LinkProfile;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use tcpstack::CongestionAlgo;

/// A named run matrix.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Campaign name (reports, CI logs).
    pub name: String,
    /// Every run to execute.
    pub runs: Vec<RunSpec>,
}

/// Aggregated campaign outcome.
#[derive(Debug)]
pub struct CampaignResult {
    /// Per-run reports, in run order.
    pub reports: Vec<RunReport>,
}

impl CampaignResult {
    /// Indices of runs with at least one violation.
    pub fn failed_runs(&self) -> Vec<usize> {
        self.reports.iter().enumerate().filter(|(_, r)| !r.passed()).map(|(i, _)| i).collect()
    }
}

fn profile_key(spec: &RunSpec) -> String {
    // Everything that changes fault-free timing must key the profile:
    // the same workload and seed complete at very different instants on
    // a lossy WAN than on the paper's LAN.
    format!(
        "{:?}|{}|{}|{}|{}",
        spec.testbed,
        spec.seed,
        spec.link.name(),
        spec.congestion.name(),
        spec.sack
    )
}

/// Executes every run of `campaign` across `threads` worker threads and
/// returns the reports in run order. Fully deterministic per run: the
/// thread schedule only affects wall-clock time, never a verdict.
pub fn run_campaign(campaign: &Campaign, threads: usize) -> CampaignResult {
    let threads = threads.max(1);
    let runs = &campaign.runs;

    // Phase 1: measure one profile per key that any probe-needing plan
    // references.
    let mut probe_specs: Vec<RunSpec> = Vec::new();
    let mut seen = BTreeSet::new();
    for spec in runs {
        if spec.plan.needs_probe() && seen.insert(profile_key(spec)) {
            probe_specs.push(RunSpec { plan: FaultPlan::none(), ..spec.clone() });
        }
    }
    let profiles: BTreeMap<String, Result<Profile, Box<RunReport>>> = {
        let slots: Mutex<BTreeMap<String, Result<Profile, Box<RunReport>>>> =
            Mutex::new(BTreeMap::new());
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads.min(probe_specs.len().max(1)) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(spec) = probe_specs.get(i) else { break };
                    let profile = measure_profile(spec);
                    slots.lock().expect("probe lock").insert(profile_key(spec), profile);
                });
            }
        });
        slots.into_inner().expect("probe lock")
    };

    // Phase 2: execute the matrix.
    let slots: Vec<Mutex<Option<RunReport>>> = runs.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(runs.len().max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = runs.get(i) else { break };
                let report = if spec.plan.needs_probe() {
                    match profiles.get(&profile_key(spec)).expect("profile measured") {
                        Ok(profile) => execute_with_profile(spec, profile),
                        Err(failed_probe) => (**failed_probe).clone(),
                    }
                } else {
                    execute_with_profile(spec, &Profile::default())
                };
                *slots[i].lock().expect("slot lock") = Some(report);
            });
        }
    });
    CampaignResult {
        reports: slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("slot lock").expect("run executed"))
            .collect(),
    }
}

// ---------------------------------------------------------------------
// Stock campaigns.

fn crash_matrix_plans(quantiles: &[u8]) -> Vec<FaultPlan> {
    let tap_variants: [Option<FaultOp>; 3] = [
        None,
        Some(FaultOp::TapDrop { rank: BACKUP, skip: 0, count: 1 }),
        Some(FaultOp::TapDrop { rank: BACKUP, skip: 5, count: 3 }),
    ];
    let side_variants: [Option<FaultOp>; 4] = [
        None,
        Some(FaultOp::SideDrop { rank: BACKUP, skip: 0, count: 2 }),
        Some(FaultOp::SideDelay { rank: BACKUP, delay_ms: 60 }),
        Some(FaultOp::SideDuplicate { rank: BACKUP, offset_ms: 5 }),
    ];
    let mut plans = Vec::new();
    for &q in quantiles {
        for tap in tap_variants.iter() {
            for side in side_variants.iter() {
                let mut ops = vec![FaultOp::CrashPrimary { quantile_pct: q }];
                ops.extend(*tap);
                ops.extend(*side);
                plans.push(FaultPlan::new(ops));
            }
        }
    }
    plans
}

/// Fault schedules that never kill the primary — the oracles assert the
/// workload completes with *no* takeover (detection must tolerate them).
fn innocent_plans() -> Vec<FaultPlan> {
    vec![
        FaultPlan::new([FaultOp::TapDrop { rank: BACKUP, skip: 0, count: 1 }]),
        FaultPlan::new([FaultOp::TapDrop { rank: BACKUP, skip: 3, count: 4 }]),
        FaultPlan::new([FaultOp::SideDrop { rank: BACKUP, skip: 0, count: 2 }]),
        FaultPlan::new([FaultOp::SideDrop { rank: PRIMARY, skip: 0, count: 3 }]),
        FaultPlan::new([FaultOp::SideDelay { rank: BACKUP, delay_ms: 60 }]),
        FaultPlan::new([FaultOp::SideDelay { rank: PRIMARY, delay_ms: 40 }]),
        FaultPlan::new([FaultOp::SideDuplicate { rank: BACKUP, offset_ms: 5 }]),
        FaultPlan::new([FaultOp::SideDuplicate { rank: PRIMARY, offset_ms: 7 }]),
    ]
}

/// Teardown and partition corners added on top of the crash matrix.
fn corner_plans() -> Vec<FaultPlan> {
    vec![
        FaultPlan::new([FaultOp::CrashPrimaryNearFin]),
        FaultPlan::new([
            FaultOp::CrashPrimaryNearFin,
            FaultOp::TapDrop { rank: BACKUP, skip: 0, count: 1 },
        ]),
        FaultPlan::new([FaultOp::TapPartition { rank: BACKUP, from_pct: 30, dur_ms: 200 }]),
        FaultPlan::new([
            FaultOp::CrashPrimary { quantile_pct: 60 },
            FaultOp::TapPartition { rank: BACKUP, from_pct: 20, dur_ms: 150 },
        ]),
        FaultPlan::new([FaultOp::PausePrimary { at_pct: 30, dur_ms: 500 }]),
    ]
}

fn cross(name: &str, workloads: &[Workload], seeds: &[u64], plans: &[FaultPlan]) -> Campaign {
    let mut runs = Vec::new();
    for &workload in workloads {
        for &seed in seeds {
            for plan in plans {
                runs.push(RunSpec::new(workload, seed, plan.clone()));
            }
        }
    }
    Campaign { name: name.to_string(), runs }
}

/// The full demo campaign: ≥200 runs crossing crash quantiles ×
/// tap omissions × side-channel faults × workloads × seeds, plus the
/// teardown/partition corners and the innocent (no-takeover) set.
pub fn demo_campaign() -> Campaign {
    let workloads = [Workload::Echo { requests: 60 }, Workload::Bulk { file_size: 256 * 1024 }];
    let seeds = [1, 2];
    let mut plans = crash_matrix_plans(&[10, 30, 50, 70, 85]);
    plans.extend(corner_plans());
    plans.extend(innocent_plans());
    cross("demo", &workloads, &seeds, &plans)
}

/// A bounded smoke campaign for CI: one workload, one seed, a reduced
/// matrix — finishes in well under a minute in release builds.
pub fn smoke_campaign() -> Campaign {
    let workloads = [Workload::Echo { requests: 40 }];
    let seeds = [1];
    let mut plans = crash_matrix_plans(&[30, 70]);
    plans.push(FaultPlan::new([FaultOp::CrashPrimaryNearFin]));
    plans.push(FaultPlan::new([FaultOp::TapPartition { rank: BACKUP, from_pct: 30, dur_ms: 200 }]));
    plans.push(FaultPlan::new([FaultOp::PausePrimary { at_pct: 30, dur_ms: 500 }]));
    plans.extend(innocent_plans().into_iter().take(4));
    let mut campaign = cross("smoke", &workloads, &seeds, &plans);
    // One burst-loss WAN failover per controller: the cheap canary for
    // the full [`wan_burst_loss_campaign`] matrix.
    for algo in CongestionAlgo::ALL {
        campaign.runs.push(
            RunSpec::new(
                Workload::Echo { requests: 40 },
                1,
                FaultPlan::new([FaultOp::CrashPrimary { quantile_pct: 50 }]),
            )
            .on_link(LinkProfile::WanBurstLoss)
            .with_congestion(algo)
            .with_sack(),
        );
    }
    campaign
}

/// Failover far from the paper's clean LAN: crash the primary
/// mid-workload on the Gilbert–Elliott burst-loss WAN profile, crossing
/// seeds × congestion controllers with SACK negotiated. Every oracle
/// must hold while recovery itself is fighting bursty loss.
pub fn wan_burst_loss_campaign() -> Campaign {
    let mut runs = Vec::new();
    for seed in [1, 2, 3] {
        for algo in CongestionAlgo::ALL {
            for q in [30, 70] {
                runs.push(
                    RunSpec::new(
                        Workload::Echo { requests: 40 },
                        seed,
                        FaultPlan::new([FaultOp::CrashPrimary { quantile_pct: q }]),
                    )
                    .on_link(LinkProfile::WanBurstLoss)
                    .with_congestion(algo)
                    .with_sack(),
                );
            }
        }
    }
    Campaign { name: "wan_burst_loss".to_string(), runs }
}

/// Cascading failure over a 3-backup chain, three seeds × 40 clients of
/// the seeded mix: the primary dies mid-connect-spread (half the fleet
/// still handshaking) and its freshly promoted successor 160 ms later —
/// just past rank 1's 150 ms detection deadline, inside rank 2's
/// stagger, i.e. mid-takeover — leaving rank 2 to serve.
pub fn cascade_campaign() -> Campaign {
    let cascade = [FaultOp::Crash { rank: 0, at_ms: 120 }, FaultOp::Crash { rank: 1, at_ms: 280 }];
    let runs = [0xF1EE7, 0xC0FFEE, 0xDEAD_BEEF]
        .into_iter()
        .map(|seed| RunSpec::chain(3, 40, seed, FaultPlan::new(cascade)))
        .collect();
    Campaign { name: "cascade".to_string(), runs }
}

/// The intentionally-broken configuration: fencing disabled, primary
/// paused past the detection threshold. The resumed primary speaks for
/// the VIP alongside the backup — the [`crate::oracle::OracleKind::SingleServer`]
/// oracle must catch it.
pub fn broken_config_canary() -> RunSpec {
    RunSpec::new(
        Workload::Echo { requests: 100 },
        7,
        FaultPlan::new([FaultOp::PausePrimary { at_pct: 30, dur_ms: 500 }]),
    )
    .without_fencing()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Testbed;

    #[test]
    fn demo_campaign_is_big_enough() {
        let c = demo_campaign();
        assert!(c.runs.len() >= 200, "demo campaign has only {} runs", c.runs.len());
        // The matrix really crosses the axes: crash × tap × side.
        let with_crash_tap_side = c
            .runs
            .iter()
            .filter(|r| {
                let ops = &r.plan.ops;
                ops.iter().any(|o| matches!(o, FaultOp::CrashPrimary { .. }))
                    && ops.iter().any(|o| matches!(o, FaultOp::TapDrop { .. }))
                    && ops.iter().any(|o| {
                        matches!(
                            o,
                            FaultOp::SideDrop { .. }
                                | FaultOp::SideDelay { .. }
                                | FaultOp::SideDuplicate { .. }
                        )
                    })
            })
            .count();
        assert!(with_crash_tap_side >= 50, "only {with_crash_tap_side} fully-crossed runs");
    }

    #[test]
    fn smoke_campaign_is_bounded() {
        let c = smoke_campaign();
        assert!(!c.runs.is_empty());
        assert!(c.runs.len() <= 40, "smoke campaign too large: {}", c.runs.len());
    }

    #[test]
    fn smoke_campaign_covers_burst_loss_wan() {
        let c = smoke_campaign();
        let wan: Vec<_> = c.runs.iter().filter(|r| r.link == LinkProfile::WanBurstLoss).collect();
        assert_eq!(wan.len(), CongestionAlgo::ALL.len());
        assert!(wan.iter().all(|r| r.sack && r.plan.expected_primary() == BACKUP));
    }

    #[test]
    fn wan_burst_loss_campaign_crosses_seeds_and_controllers() {
        let c = wan_burst_loss_campaign();
        assert_eq!(c.runs.len(), 3 * CongestionAlgo::ALL.len() * 2);
        assert!(c.runs.iter().all(|r| r.link == LinkProfile::WanBurstLoss && r.sack));
        for algo in CongestionAlgo::ALL {
            let seeds: std::collections::BTreeSet<u64> =
                c.runs.iter().filter(|r| r.congestion == algo).map(|r| r.seed).collect();
            assert_eq!(seeds.len(), 3, "{algo:?} must run on three seeds");
        }
    }

    #[test]
    fn canary_disables_fencing() {
        let c = broken_config_canary();
        assert!(matches!(c.testbed, Testbed::Pair { fencing: false, .. }));
        assert_eq!(c.plan.expected_primary(), BACKUP);
    }
}

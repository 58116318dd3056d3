//! Correctness as a rate over seeds: one spec, N seeds, every oracle.
//!
//! A [`Sweep`] names a run spec that is judged by how often it passes,
//! not at one seed. [`run_sweep`] executes seed `k = 0 … n−1` of it on
//! the campaign runner and [`SweepResult`] reports the pass rate with a
//! Wilson 95 % interval on the failure rate, and the failures grouped by
//! their first oracle.

use crate::campaign::{run_campaign, Campaign};
use crate::plan::{FaultOp, FaultPlan};
use crate::run::{RunReport, RunSpec};
use apps::Workload;
use netsim::LinkProfile;
use std::collections::BTreeMap;
use std::fmt;
use sttcp::scenario::ScenarioSpec;
use tcpstack::CongestionAlgo;

/// The stride between consecutive panel seeds (the benchmark's).
const STRIDE: u64 = 0xD1B5_4A32_D192_ED03;

/// A spec swept over seeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sweep {
    /// The fault-free twin of the benchmark's `fleet_failover`: a pair
    /// serving 3 000 clients, nobody crashes (seeds 1 … n).
    Twin,
    /// The benchmark's `wan_loss_failover`: a 60 MB download over
    /// burst-loss links, CUBIC with SACK, the primary crashing at 8 s.
    Wan,
    /// `chain_on_a_lossy_link_…`'s spec: a primary, two backups and 12
    /// clients on burst-loss links with SACK, the primary crashing at
    /// the 30 % quantile.
    LossyChain,
}

impl Sweep {
    /// Parses a command-line name (`twin`, `wan`, `lossy-chain`).
    pub fn from_name(name: &str) -> Option<Sweep> {
        match name {
            "twin" => Some(Sweep::Twin),
            "wan" => Some(Sweep::Wan),
            "lossy-chain" => Some(Sweep::LossyChain),
            _ => None,
        }
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Sweep::Twin => "twin",
            Sweep::Wan => "wan",
            Sweep::LossyChain => "lossy-chain",
        }
    }

    /// The seed of panel member `k`.
    pub fn seed(self, k: u64) -> u64 {
        let base = match self {
            Sweep::Twin => return k + 1,
            Sweep::Wan => ScenarioSpec::new(Workload::echo()).seed,
            Sweep::LossyChain => 0xC0FFEE,
        };
        base.wrapping_add(k.wrapping_mul(STRIDE))
    }

    /// Panel member `k`'s run.
    pub fn spec(self, k: u64) -> RunSpec {
        let seed = self.seed(k);
        match self {
            Sweep::Twin => RunSpec::chain(1, 3_000, seed, FaultPlan::none()),
            Sweep::Wan => {
                let crash = FaultPlan::new([FaultOp::Crash { rank: 0, at_ms: 8_000 }]);
                let mut spec = RunSpec::mirrored(Workload::bulk_mb(60), seed, crash)
                    .on_link(LinkProfile::WanBurstLoss)
                    .with_congestion(CongestionAlgo::Cubic)
                    .with_sack();
                spec.limit = netsim::SimDuration::from_secs(3_600);
                spec
            }
            Sweep::LossyChain => {
                let crash = FaultPlan::new([FaultOp::CrashPrimary { quantile_pct: 30 }]);
                RunSpec::chain(2, 12, seed, crash).on_link(LinkProfile::WanBurstLoss).with_sack()
            }
        }
    }
}

/// A sweep's verdicts, in seed order.
#[derive(Debug)]
pub struct SweepResult {
    /// What was swept.
    pub sweep: Sweep,
    /// `(seed, report)` per panel member.
    pub runs: Vec<(u64, RunReport)>,
}

impl SweepResult {
    /// Members that passed every oracle.
    pub fn passed(&self) -> usize {
        self.runs.iter().filter(|(_, r)| r.passed()).count()
    }

    /// The failing seeds, grouped by their first oracle's tag.
    pub fn by_first_oracle(&self) -> BTreeMap<&'static str, Vec<u64>> {
        let mut groups: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for (seed, report) in &self.runs {
            if let Some(oracle) = report.first_oracle() {
                groups.entry(oracle.tag()).or_default().push(*seed);
            }
        }
        groups
    }
}

impl fmt::Display for SweepResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.runs.len();
        let failed = n - self.passed();
        let (lo, hi) = wilson95(failed as u64, n as u64);
        writeln!(
            f,
            "   sweep `{}`: {} passed, {failed} failed of {n}; failure rate 95 % Wilson [{:.2} %, {:.2} %]",
            self.sweep.name(),
            self.passed(),
            100.0 * lo,
            100.0 * hi
        )?;
        for (tag, seeds) in self.by_first_oracle() {
            let shown: Vec<String> = seeds.iter().take(8).map(|s| format!("{s:#x}")).collect();
            let more = if seeds.len() > 8 { " …" } else { "" };
            writeln!(f, "   [{tag}] first on {}: {}{more}", seeds.len(), shown.join(" "))?;
        }
        Ok(())
    }
}

/// The Wilson score interval at 95 % for `k` successes in `n` trials.
pub fn wilson95(k: u64, n: u64) -> (f64, f64) {
    if n == 0 {
        return (0.0, 1.0);
    }
    let (z, n_f) = (1.959_964, n as f64);
    let p = k as f64 / n_f;
    let z2n = z * z / n_f;
    let centre = (p + z2n / 2.0) / (1.0 + z2n);
    let half = z * (p * (1.0 - p) / n_f + z2n / (4.0 * n_f)).sqrt() / (1.0 + z2n);
    ((centre - half).max(0.0), (centre + half).min(1.0))
}

/// Runs panel members `0 … seeds−1` of `sweep` on `threads` workers.
pub fn run_sweep(sweep: Sweep, seeds: u64, threads: usize) -> SweepResult {
    let campaign = Campaign {
        name: format!("sweep-{}", sweep.name()),
        runs: (0..seeds).map(|k| sweep.spec(k)).collect(),
    };
    let result = run_campaign(&campaign, threads);
    let runs = campaign.runs.iter().map(|s| s.seed).zip(result.reports).collect();
    SweepResult { sweep, runs }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wilson_bounds_bracket_the_rate() {
        let (lo, hi) = wilson95(0, 64);
        assert_eq!(lo, 0.0);
        assert!((hi - 0.0564).abs() < 1e-3, "{hi}");
        let (lo, hi) = wilson95(68, 512);
        assert!(lo < 68.0 / 512.0 && 68.0 / 512.0 < hi);
        assert!((lo - 0.1059).abs() < 1e-3 && (hi - 0.1653).abs() < 1e-3, "{lo} {hi}");
    }

    #[test]
    fn names_round_trip_and_panels_match_the_hand_sweeps() {
        for sweep in [Sweep::Twin, Sweep::Wan, Sweep::LossyChain] {
            assert_eq!(Sweep::from_name(sweep.name()), Some(sweep));
        }
        assert_eq!((Sweep::Twin.seed(0), Sweep::Twin.seed(63)), (1, 64));
        assert_eq!(Sweep::LossyChain.seed(1), 0xC0FFEE_u64.wrapping_add(STRIDE));
    }
}

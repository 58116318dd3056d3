//! Failure shrinking: reduce a violating schedule to a minimal
//! reproducer.
//!
//! Delta-debugging in two phases, each trial a full deterministic
//! re-execution:
//!
//! 1. **Op removal** — greedily drop schedule ops one at a time,
//!    keeping a removal whenever the run still violates the *same*
//!    oracle as the original failure.
//! 2. **Parameter simplification** — walk each surviving op's numeric
//!    parameters toward their simplest value (counts toward 1, delays
//!    and windows halved) while the violation persists.
//!
//! Because every run is bit-deterministic, "still fails" is an exact
//! predicate, not a statistical one — a shrunk schedule is guaranteed
//! to reproduce.

use crate::oracle::OracleKind;
use crate::plan::FaultOp;
use crate::run::{execute, RunReport, RunSpec};

/// The outcome of shrinking one failing run.
#[derive(Debug, Clone)]
pub struct ShrinkResult {
    /// The minimal spec that still reproduces the violation.
    pub minimal: RunSpec,
    /// The report of the minimal spec's run.
    pub report: RunReport,
    /// Which oracle the shrink preserved.
    pub oracle: OracleKind,
    /// Re-executions spent shrinking.
    pub trials: u32,
    /// Ops removed from the original schedule.
    pub ops_removed: usize,
}

fn fails_same_way(spec: &RunSpec, oracle: OracleKind) -> Option<RunReport> {
    let report = execute(spec);
    if report.violations.iter().any(|v| v.oracle == oracle) {
        Some(report)
    } else {
        None
    }
}

/// Candidate simplifications for one op, most aggressive first.
fn simpler_ops(op: FaultOp) -> Vec<FaultOp> {
    match op {
        FaultOp::CrashPrimary { quantile_pct } if quantile_pct > 50 => {
            vec![FaultOp::CrashPrimary { quantile_pct: 50 }]
        }
        FaultOp::PausePrimary { at_pct, dur_ms } => {
            let mut out = Vec::new();
            if dur_ms > 300 {
                // Keep the pause past the 3×50 ms detection threshold,
                // otherwise the fault disappears rather than shrinks.
                out.push(FaultOp::PausePrimary { at_pct, dur_ms: 300 });
            }
            if at_pct > 10 {
                out.push(FaultOp::PausePrimary { at_pct: 10, dur_ms });
            }
            out
        }
        FaultOp::TapDrop { rank, skip, count } => {
            let mut out = Vec::new();
            if count > 1 {
                out.push(FaultOp::TapDrop { rank, skip, count: 1 });
            }
            if skip > 0 {
                out.push(FaultOp::TapDrop { rank, skip: 0, count });
            }
            out
        }
        FaultOp::TapPartition { rank, from_pct, dur_ms } if dur_ms > 100 => {
            vec![FaultOp::TapPartition { rank, from_pct, dur_ms: dur_ms / 2 }]
        }
        FaultOp::SideDrop { rank, skip, count } => {
            let mut out = Vec::new();
            if count > 1 {
                out.push(FaultOp::SideDrop { rank, skip, count: count / 2 });
            }
            if skip > 0 {
                out.push(FaultOp::SideDrop { rank, skip: 0, count });
            }
            out
        }
        FaultOp::SideDelay { rank, delay_ms } if delay_ms > 10 => {
            vec![FaultOp::SideDelay { rank, delay_ms: delay_ms / 2 }]
        }
        FaultOp::SideDuplicate { rank, offset_ms } if offset_ms > 1 => {
            vec![FaultOp::SideDuplicate { rank, offset_ms: offset_ms / 2 }]
        }
        _ => Vec::new(),
    }
}

/// Shrinks `failing` (whose run violated `oracle`) to a minimal
/// reproducer, spending at most `max_trials` re-executions.
///
/// Returns `None` if the original spec does not actually reproduce the
/// violation (a non-deterministic caller bug this engine rules out, but
/// stay total).
pub fn shrink(failing: &RunSpec, oracle: OracleKind, max_trials: u32) -> Option<ShrinkResult> {
    let mut trials: u32 = 1;
    let mut best = failing.clone();
    let mut best_report = fails_same_way(&best, oracle)?;
    let original_ops = best.plan.ops.len();

    // Phase 1: greedy op removal. Restart the scan after every
    // successful removal so later ops get re-tried in the new context.
    'removal: loop {
        for i in 0..best.plan.ops.len() {
            if trials >= max_trials {
                break 'removal;
            }
            let mut candidate = best.clone();
            candidate.plan.ops.remove(i);
            trials += 1;
            if let Some(report) = fails_same_way(&candidate, oracle) {
                best = candidate;
                best_report = report;
                continue 'removal;
            }
        }
        break;
    }

    // Phase 2: per-op parameter simplification to a fixpoint.
    'simplify: loop {
        for i in 0..best.plan.ops.len() {
            for simpler in simpler_ops(best.plan.ops[i]) {
                if trials >= max_trials {
                    break 'simplify;
                }
                let mut candidate = best.clone();
                candidate.plan.ops[i] = simpler;
                trials += 1;
                if let Some(report) = fails_same_way(&candidate, oracle) {
                    best = candidate;
                    best_report = report;
                    continue 'simplify;
                }
            }
        }
        break;
    }

    let ops_removed = original_ops - best.plan.ops.len();
    Some(ShrinkResult { minimal: best, report: best_report, oracle, trials, ops_removed })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{BACKUP, PRIMARY};

    #[test]
    fn simpler_ops_never_return_the_input() {
        let ops = [
            FaultOp::CrashPrimary { quantile_pct: 85 },
            FaultOp::PausePrimary { at_pct: 30, dur_ms: 500 },
            FaultOp::TapDrop { rank: BACKUP, skip: 5, count: 3 },
            FaultOp::TapPartition { rank: BACKUP, from_pct: 30, dur_ms: 200 },
            FaultOp::SideDrop { rank: BACKUP, skip: 2, count: 4 },
            FaultOp::SideDelay { rank: PRIMARY, delay_ms: 60 },
            FaultOp::SideDuplicate { rank: BACKUP, offset_ms: 8 },
        ];
        for op in ops {
            for s in simpler_ops(op) {
                assert_ne!(s, op, "simplification of {op:?} must change it");
            }
        }
    }

    #[test]
    fn already_minimal_ops_have_no_simplifications() {
        assert!(simpler_ops(FaultOp::CrashPrimary { quantile_pct: 30 }).is_empty());
        assert!(simpler_ops(FaultOp::TapDrop { rank: BACKUP, skip: 0, count: 1 }).is_empty());
        assert!(simpler_ops(FaultOp::CrashPrimaryNearFin).is_empty());
        // A cascade is timed against detection deadlines: moving a crash
        // makes a different fault, not a simpler one.
        assert!(simpler_ops(FaultOp::Crash { rank: 1, at_ms: 280 }).is_empty());
    }
}

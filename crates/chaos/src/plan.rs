//! Fault schedules: serializable descriptions of *what to break when*.
//!
//! A [`FaultPlan`] is a list of [`FaultOp`]s — pure data, no closures —
//! so a failing schedule can be shrunk op-by-op, written into a
//! replayable artifact, and parsed back byte-identically. Servers are
//! addressed **by rank** in the replication chain ([`PRIMARY`] = 0,
//! [`BACKUP`] = 1, deeper backups 2…), so the same vocabulary drives
//! the paper's pair and a chain of any length. Times are percentages of
//! the fault-free run duration (measured by a probe run), so one plan is
//! meaningful across workloads — except [`FaultOp::Crash`], which is
//! absolute: a cascade is timed against detection deadlines, not
//! against the length of the run.

use crate::json::{self, Value};
use apps::Workload;

/// Rank of the initial primary.
pub const PRIMARY: usize = 0;
/// Rank of the first backup (the only one in the paper's pair).
pub const BACKUP: usize = 1;

/// The name of server `rank` in plan JSON, descriptions and oracle
/// details: `primary`, `backup`, then `rank2`, `rank3`, ….
pub fn rank_tag(rank: usize) -> String {
    match rank {
        PRIMARY => "primary".to_string(),
        BACKUP => "backup".to_string(),
        r => format!("rank{r}"),
    }
}

fn rank_from_tag(s: &str) -> Option<usize> {
    match s {
        "primary" => Some(PRIMARY),
        "backup" => Some(BACKUP),
        _ => s.strip_prefix("rank")?.parse().ok(),
    }
}

/// One scheduled fault.
///
/// Tap and side-channel ops install an ingress rule on server `rank`,
/// so the rank also selects the *direction* of a side-channel fault:
/// heartbeats and missing-segment replies arrive at backups, backup
/// acks and missing-segment requests arrive at the primary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// Fail-stop the primary at `quantile_pct` % of the fault-free run
    /// duration.
    CrashPrimary {
        /// Crash instant as a percentage (0–100) of the probe duration.
        quantile_pct: u8,
    },
    /// Fail-stop the primary at the instant the first FIN of a
    /// client↔server teardown was observed in the probe run — the
    /// crash-during-teardown corner.
    CrashPrimaryNearFin,
    /// Freeze the primary (performance failure, paper §7) at
    /// `at_pct` % for `dur_ms` virtual milliseconds; it resumes with
    /// its state intact — the scenario fencing exists for.
    PausePrimary {
        /// Pause start as a percentage of the probe duration.
        at_pct: u8,
        /// Pause length in virtual milliseconds.
        dur_ms: u64,
    },
    /// Fail-stop server `rank` at `at_ms` virtual milliseconds. Two of
    /// these make a cascade: kill the primary, then kill its successor
    /// inside the next rank's detection stagger.
    Crash {
        /// Which server.
        rank: usize,
        /// Crash instant, absolute.
        at_ms: u64,
    },
    /// Drop tapped client→VIP data segments at backup `rank`: after
    /// letting `skip` through, drop the next `count` (the §4.2 omission
    /// the missing-segment protocol exists for).
    TapDrop {
        /// Which backup's tap.
        rank: usize,
        /// Matching segments let through first.
        skip: u64,
        /// Matching segments then dropped.
        count: u64,
    },
    /// Drop *all* tapped VIP traffic at backup `rank` in a time window
    /// starting at `from_pct` % for `dur_ms` ms (a tap partition).
    TapPartition {
        /// Which backup's tap.
        rank: usize,
        /// Partition start as a percentage of the probe duration.
        from_pct: u8,
        /// Partition length in virtual milliseconds.
        dur_ms: u64,
    },
    /// Drop side-channel datagrams arriving at server `rank`: skip
    /// `skip`, then drop `count`.
    SideDrop {
        /// Which server's ingress.
        rank: usize,
        /// Matching datagrams let through first.
        skip: u64,
        /// Matching datagrams then dropped.
        count: u64,
    },
    /// Delay every side-channel datagram arriving at server `rank` by
    /// `delay_ms` virtual milliseconds (reordering relative to the tap).
    SideDelay {
        /// Which server's ingress.
        rank: usize,
        /// Added latency in virtual milliseconds.
        delay_ms: u64,
    },
    /// Deliver side-channel datagrams arriving at server `rank` twice,
    /// the copy `offset_ms` later (repetition fault).
    SideDuplicate {
        /// Which server's ingress.
        rank: usize,
        /// Echo offset in virtual milliseconds.
        offset_ms: u64,
    },
}

impl FaultOp {
    /// The rank this op takes out of service (crash or pause), if it
    /// does: runs where a takeover by a deeper rank is legitimate.
    pub fn incapacitates(&self) -> Option<usize> {
        match *self {
            FaultOp::CrashPrimary { .. }
            | FaultOp::CrashPrimaryNearFin
            | FaultOp::PausePrimary { .. } => Some(PRIMARY),
            FaultOp::Crash { rank, .. } => Some(rank),
            _ => None,
        }
    }

    /// The rank an op names (the `*Primary` ops imply rank 0).
    fn named_rank(&self) -> Option<usize> {
        match *self {
            FaultOp::Crash { rank, .. }
            | FaultOp::TapDrop { rank, .. }
            | FaultOp::TapPartition { rank, .. }
            | FaultOp::SideDrop { rank, .. }
            | FaultOp::SideDelay { rank, .. }
            | FaultOp::SideDuplicate { rank, .. } => Some(rank),
            _ => None,
        }
    }

    /// The server whose power or ingress this op touches.
    pub fn rank(&self) -> usize {
        self.named_rank().unwrap_or(PRIMARY)
    }

    /// Extra heartbeat silence this op can add at server `rank`'s
    /// failure detector, in virtual milliseconds, given the heartbeat
    /// interval. Widens the takeover-latency bound (and excuses a
    /// suspicion) for schedules that disturb the channel carrying the
    /// detector.
    pub fn detector_slack_ms(&self, rank: usize, hb_interval_ms: u64) -> u64 {
        match *self {
            FaultOp::SideDrop { rank: r, count, .. } if r == rank => {
                count.saturating_mul(hb_interval_ms)
            }
            FaultOp::SideDelay { rank: r, delay_ms } if r == rank => delay_ms,
            _ => 0,
        }
    }

    /// Short human description (`crash@40%`, `tap_drop@backup(skip 5, 3)`).
    pub fn describe(&self) -> String {
        match *self {
            FaultOp::CrashPrimary { quantile_pct } => format!("crash@{quantile_pct}%"),
            FaultOp::CrashPrimaryNearFin => "crash@fin".to_string(),
            FaultOp::PausePrimary { at_pct, dur_ms } => format!("pause@{at_pct}%/{dur_ms}ms"),
            FaultOp::Crash { rank, at_ms } => format!("crash@{}/{at_ms}ms", rank_tag(rank)),
            FaultOp::TapDrop { rank, skip, count } => {
                format!("tap_drop@{}(skip {skip}, {count})", rank_tag(rank))
            }
            FaultOp::TapPartition { rank, from_pct, dur_ms } => {
                format!("tap_partition@{}/{from_pct}%/{dur_ms}ms", rank_tag(rank))
            }
            FaultOp::SideDrop { rank, skip, count } => {
                format!("side_drop@{}(skip {skip}, {count})", rank_tag(rank))
            }
            FaultOp::SideDelay { rank, delay_ms } => {
                format!("side_delay@{}({delay_ms}ms)", rank_tag(rank))
            }
            FaultOp::SideDuplicate { rank, offset_ms } => {
                format!("side_dup@{}({offset_ms}ms)", rank_tag(rank))
            }
        }
    }

    fn to_value(self) -> Value {
        let (op, params): (&str, Vec<(&str, u64)>) = match self {
            FaultOp::CrashPrimary { quantile_pct } => {
                ("crash_primary", vec![("quantile_pct", quantile_pct.into())])
            }
            FaultOp::CrashPrimaryNearFin => ("crash_primary_near_fin", vec![]),
            FaultOp::PausePrimary { at_pct, dur_ms } => {
                ("pause_primary", vec![("at_pct", at_pct.into()), ("dur_ms", dur_ms)])
            }
            FaultOp::Crash { at_ms, .. } => ("crash", vec![("at_ms", at_ms)]),
            FaultOp::TapDrop { skip, count, .. } => {
                ("tap_drop", vec![("skip", skip), ("count", count)])
            }
            FaultOp::TapPartition { from_pct, dur_ms, .. } => {
                ("tap_partition", vec![("from_pct", from_pct.into()), ("dur_ms", dur_ms)])
            }
            FaultOp::SideDrop { skip, count, .. } => {
                ("side_drop", vec![("skip", skip), ("count", count)])
            }
            FaultOp::SideDelay { delay_ms, .. } => ("side_delay", vec![("delay_ms", delay_ms)]),
            FaultOp::SideDuplicate { offset_ms, .. } => {
                ("side_duplicate", vec![("offset_ms", offset_ms)])
            }
        };
        let mut members = vec![("op", json::str(op))];
        members.extend(self.named_rank().map(|r| ("target", json::str(rank_tag(r)))));
        members.extend(params.into_iter().map(|(k, v)| (k, Value::Num(v))));
        json::obj(members)
    }

    fn from_value(v: &Value) -> Option<Self> {
        let num = |key: &str| v.get(key)?.as_u64();
        let pct = |key: &str| u8::try_from(num(key)?).ok();
        // Artifacts from before chains had tap ops without a target: the
        // pair's only tap is the backup's.
        let rank = |default: Option<usize>| match v.get("target") {
            Some(tag) => rank_from_tag(tag.as_str()?),
            None => default,
        };
        Some(match v.get("op")?.as_str()? {
            "crash_primary" => FaultOp::CrashPrimary { quantile_pct: pct("quantile_pct")? },
            "crash_primary_near_fin" => FaultOp::CrashPrimaryNearFin,
            "pause_primary" => {
                FaultOp::PausePrimary { at_pct: pct("at_pct")?, dur_ms: num("dur_ms")? }
            }
            "crash" => FaultOp::Crash { rank: rank(None)?, at_ms: num("at_ms")? },
            "tap_drop" => FaultOp::TapDrop {
                rank: rank(Some(BACKUP))?,
                skip: num("skip")?,
                count: num("count")?,
            },
            "tap_partition" => FaultOp::TapPartition {
                rank: rank(Some(BACKUP))?,
                from_pct: pct("from_pct")?,
                dur_ms: num("dur_ms")?,
            },
            "side_drop" => {
                FaultOp::SideDrop { rank: rank(None)?, skip: num("skip")?, count: num("count")? }
            }
            "side_delay" => FaultOp::SideDelay { rank: rank(None)?, delay_ms: num("delay_ms")? },
            "side_duplicate" => {
                FaultOp::SideDuplicate { rank: rank(None)?, offset_ms: num("offset_ms")? }
            }
            _ => return None,
        })
    }
}

/// An ordered fault schedule.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// The scheduled faults, applied to one run together.
    pub ops: Vec<FaultOp>,
}

impl FaultPlan {
    /// A schedule from ops.
    pub fn new(ops: impl IntoIterator<Item = FaultOp>) -> Self {
        FaultPlan { ops: ops.into_iter().collect() }
    }

    /// The empty (fault-free) schedule.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// The rank expected to serve once the schedule has run: the lowest
    /// rank no op takes out of service.
    pub fn expected_primary(&self) -> usize {
        (0..)
            .find(|r| !self.ops.iter().any(|op| op.incapacitates() == Some(*r)))
            .expect("finitely many ops name finitely many ranks")
    }

    /// True when the schedule fits a testbed of `servers`: every op
    /// addresses a rank that exists, and one of them survives to serve.
    pub fn fits(&self, servers: usize) -> bool {
        self.ops.iter().all(|op| op.rank() < servers) && self.expected_primary() < servers
    }

    /// True when some op needs the probe run's quantile→time map.
    pub fn needs_probe(&self) -> bool {
        self.ops.iter().any(|op| {
            matches!(
                op,
                FaultOp::CrashPrimary { .. }
                    | FaultOp::CrashPrimaryNearFin
                    | FaultOp::PausePrimary { .. }
                    | FaultOp::TapPartition { .. }
            )
        })
    }

    /// Total extra failure-detector slack the schedule can introduce at
    /// server `rank`, in virtual milliseconds.
    pub fn detector_slack_ms(&self, rank: usize, hb_interval_ms: u64) -> u64 {
        self.ops
            .iter()
            .fold(0, |ms, op| ms.saturating_add(op.detector_slack_ms(rank, hb_interval_ms)))
    }

    /// Serializes the schedule as a JSON value.
    pub fn to_value(&self) -> Value {
        json::obj([("ops", Value::Arr(self.ops.iter().map(|op| op.to_value()).collect()))])
    }

    /// Parses a schedule serialized by [`FaultPlan::to_value`].
    pub fn from_value(v: &Value) -> Option<Self> {
        let ops = v.get("ops")?.as_arr()?;
        Some(FaultPlan { ops: ops.iter().map(FaultOp::from_value).collect::<Option<Vec<_>>>()? })
    }

    /// One-line human description (`crash@40% + tap_drop@backup(skip 5, 3)`).
    pub fn describe(&self) -> String {
        if self.ops.is_empty() {
            return "fault-free".to_string();
        }
        self.ops.iter().map(FaultOp::describe).collect::<Vec<_>>().join(" + ")
    }
}

/// Serializes a workload (for artifacts).
pub fn workload_to_value(w: Workload) -> Value {
    match w {
        Workload::Echo { requests } => {
            json::obj([("kind", json::str("echo")), ("requests", Value::Num(requests as u64))])
        }
        Workload::Interactive { requests, reply_size } => json::obj([
            ("kind", json::str("interactive")),
            ("requests", Value::Num(requests as u64)),
            ("reply_size", Value::Num(reply_size as u64)),
        ]),
        Workload::Bulk { file_size } => {
            json::obj([("kind", json::str("bulk")), ("file_size", Value::Num(file_size))])
        }
        Workload::Upload { file_size } => {
            json::obj([("kind", json::str("upload")), ("file_size", Value::Num(file_size))])
        }
    }
}

/// Parses a workload serialized by [`workload_to_value`].
pub fn workload_from_value(v: &Value) -> Option<Workload> {
    match v.get("kind")?.as_str()? {
        "echo" => Some(Workload::Echo { requests: v.get("requests")?.as_u64()? as usize }),
        "interactive" => Some(Workload::Interactive {
            requests: v.get("requests")?.as_u64()? as usize,
            reply_size: v.get("reply_size")?.as_u64()? as usize,
        }),
        "bulk" => Some(Workload::Bulk { file_size: v.get("file_size")?.as_u64()? }),
        "upload" => Some(Workload::Upload { file_size: v.get("file_size")?.as_u64()? }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn every_op() -> Vec<FaultOp> {
        vec![
            FaultOp::CrashPrimary { quantile_pct: 40 },
            FaultOp::CrashPrimaryNearFin,
            FaultOp::PausePrimary { at_pct: 30, dur_ms: 400 },
            FaultOp::Crash { rank: 1, at_ms: 280 },
            FaultOp::TapDrop { rank: 2, skip: 5, count: 3 },
            FaultOp::TapPartition { rank: BACKUP, from_pct: 20, dur_ms: 250 },
            FaultOp::SideDrop { rank: 3, skip: 0, count: 2 },
            FaultOp::SideDelay { rank: PRIMARY, delay_ms: 60 },
            FaultOp::SideDuplicate { rank: BACKUP, offset_ms: 5 },
        ]
    }

    #[test]
    fn plan_json_roundtrip() {
        let plan = FaultPlan::new(every_op());
        let text = plan.to_value().to_json();
        let back = FaultPlan::from_value(&Value::parse(&text).expect("parses")).expect("decodes");
        assert_eq!(back, plan);
    }

    #[test]
    fn plans_written_before_chains_parse_as_ranks_0_and_1() {
        let text = r#"{"ops":[{"op":"tap_drop","skip":5,"count":3},
            {"op":"tap_partition","from_pct":20,"dur_ms":250},
            {"op":"side_drop","target":"backup","skip":0,"count":2},
            {"op":"side_delay","target":"primary","delay_ms":60}]}"#;
        let plan = FaultPlan::from_value(&Value::parse(text).unwrap()).expect("decodes");
        assert_eq!(
            plan.ops,
            [
                FaultOp::TapDrop { rank: BACKUP, skip: 5, count: 3 },
                FaultOp::TapPartition { rank: BACKUP, from_pct: 20, dur_ms: 250 },
                FaultOp::SideDrop { rank: BACKUP, skip: 0, count: 2 },
                FaultOp::SideDelay { rank: PRIMARY, delay_ms: 60 },
            ]
        );
        // A side-channel or crash op has no default direction.
        let untargeted = r#"{"ops":[{"op":"side_drop","skip":0,"count":2}]}"#;
        assert_eq!(FaultPlan::from_value(&Value::parse(untargeted).unwrap()), None);
    }

    #[test]
    fn workload_json_roundtrip() {
        for w in [
            Workload::echo(),
            Workload::interactive(),
            Workload::bulk_mb(1),
            Workload::upload_mb(2),
        ] {
            let text = workload_to_value(w).to_json();
            let back = workload_from_value(&Value::parse(&text).unwrap()).unwrap();
            assert_eq!(back, w);
        }
    }

    #[test]
    fn detector_slack_counts_only_ops_facing_that_rank() {
        let plan = FaultPlan::new([
            FaultOp::SideDrop { rank: BACKUP, skip: 0, count: 2 },
            FaultOp::SideDelay { rank: BACKUP, delay_ms: 60 },
            FaultOp::SideDrop { rank: PRIMARY, skip: 0, count: 9 },
            FaultOp::SideDrop { rank: 2, skip: 0, count: 7 },
            FaultOp::TapDrop { rank: BACKUP, skip: 0, count: 5 },
        ]);
        assert_eq!(plan.detector_slack_ms(BACKUP, 50), 2 * 50 + 60);
        assert_eq!(plan.detector_slack_ms(2, 50), 7 * 50);
    }

    #[test]
    fn probe_need_is_derived_from_ops() {
        assert!(
            !FaultPlan::new([FaultOp::TapDrop { rank: BACKUP, skip: 0, count: 1 }]).needs_probe()
        );
        assert!(!FaultPlan::new([FaultOp::Crash { rank: 0, at_ms: 120 }]).needs_probe());
        assert!(FaultPlan::new([FaultOp::CrashPrimary { quantile_pct: 50 }]).needs_probe());
        assert!(FaultPlan::new([FaultOp::CrashPrimaryNearFin]).needs_probe());
    }

    #[test]
    fn expected_primary_is_the_lowest_rank_left_in_service() {
        let cascade = FaultPlan::new([
            FaultOp::Crash { rank: 0, at_ms: 100 },
            FaultOp::Crash { rank: 1, at_ms: 260 },
        ]);
        assert_eq!(cascade.expected_primary(), 2);
        assert!(cascade.fits(4) && cascade.fits(3));
        assert!(!cascade.fits(2), "a pair cannot survive losing both servers");
        assert_eq!(FaultPlan::none().expected_primary(), 0);
        assert_eq!(
            FaultPlan::new([FaultOp::PausePrimary { at_pct: 30, dur_ms: 500 }]).expected_primary(),
            1
        );
        let deep = FaultPlan::new([FaultOp::SideDrop { rank: 2, skip: 0, count: 1 }]);
        assert!(deep.fits(3) && !deep.fits(2), "the pair has no rank 2 to address");
    }
}

//! Replayable failure artifacts.
//!
//! When a campaign run violates an oracle, the engine emits a JSON
//! artifact carrying everything needed to reproduce the failure
//! byte-for-byte: the testbed, the seed, the (possibly shrunk) fault
//! schedule, the run knobs, and the frame-trace digest the replay must
//! match. One format for the pair and for chains of any length.

use crate::json::{self, Value};
use crate::oracle::OracleKind;
use crate::plan::{workload_from_value, workload_to_value, FaultPlan};
use crate::run::{execute, RunReport, RunSpec, Testbed};
use netsim::{LinkProfile, SimDuration};
use tcpstack::CongestionAlgo;

const FORMAT: &str = "sttcp-chaos-artifact-v1";

/// A self-contained failure reproducer.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureArtifact {
    /// The run to replay.
    pub spec: RunSpec,
    /// The oracle that fired.
    pub oracle: OracleKind,
    /// Human-readable violation details at capture time.
    pub details: Vec<String>,
    /// The frame-trace digest a faithful replay must reproduce.
    pub digest: u64,
    /// Observability counter snapshot of the failing run, when the run
    /// recorded one (absent in artifacts from older engines).
    pub obs: Option<Value>,
    /// Flight-recorder trace tail (`sttcp-trace-v1`) of the failing
    /// run, when the run traced one (absent in artifacts from older
    /// engines).
    pub trace: Option<Value>,
}

impl FailureArtifact {
    /// Captures an artifact from a failing run.
    pub fn capture(spec: &RunSpec, report: &RunReport, oracle: OracleKind) -> Self {
        FailureArtifact {
            spec: spec.clone(),
            oracle,
            details: report
                .violations
                .iter()
                .filter(|v| v.oracle == oracle)
                .map(|v| v.to_string())
                .collect(),
            digest: report.digest,
            obs: report.obs.clone(),
            trace: report.trace.clone(),
        }
    }

    /// Serializes to JSON text. The testbed is written as its own
    /// members — `workload` + `fencing` for the pair (the whole format
    /// before chains existed), `workload` + `"tap": "mirror"` for the
    /// mirrored pair, `backups` + `clients` for a chain.
    pub fn to_json(&self) -> String {
        let spec = &self.spec;
        let mut fields = vec![("format", json::str(FORMAT))];
        match spec.testbed {
            Testbed::Pair { workload, fencing } => fields.extend([
                ("workload", workload_to_value(workload)),
                ("seed", json::hex(spec.seed)),
                ("fencing", Value::Bool(fencing)),
            ]),
            Testbed::Mirrored { workload } => fields.extend([
                ("workload", workload_to_value(workload)),
                ("seed", json::hex(spec.seed)),
                ("tap", json::str("mirror")),
            ]),
            Testbed::Chain { backups, clients } => fields.extend([
                ("backups", Value::Num(backups as u64)),
                ("clients", Value::Num(clients as u64)),
                ("seed", json::hex(spec.seed)),
            ]),
        }
        fields.extend([
            ("limit_ms", Value::Num(spec.limit.as_millis())),
            ("max_events", Value::Num(spec.max_events)),
            ("link", json::str(spec.link.name())),
            ("congestion", json::str(spec.congestion.name())),
            ("sack", Value::Bool(spec.sack)),
            ("plan", spec.plan.to_value()),
            ("oracle", json::str(self.oracle.tag())),
            ("details", Value::Arr(self.details.iter().map(json::str).collect())),
            ("digest", json::hex(self.digest)),
        ]);
        fields.extend(self.obs.clone().map(|obs| ("obs", obs)));
        fields.extend(self.trace.clone().map(|trace| ("trace", trace)));
        json::obj(fields).to_json()
    }

    /// Parses an artifact serialized by [`FailureArtifact::to_json`].
    /// Returns `None` for anything else, including a plan that does not
    /// fit its testbed and a chain that asks for fencing.
    pub fn from_json(text: &str) -> Option<Self> {
        let v = Value::parse(text)?;
        if v.get("format")?.as_str()? != FORMAT {
            return None;
        }
        let testbed = match (v.get("backups"), v.get("fencing")) {
            (None, None) if v.get("tap")?.as_str()? == "mirror" => {
                Testbed::Mirrored { workload: workload_from_value(v.get("workload")?)? }
            }
            (Some(backups), None) => Testbed::Chain {
                backups: usize::try_from(backups.as_u64()?).ok().filter(|&n| n >= 1)?,
                clients: usize::try_from(v.get("clients")?.as_u64()?).ok()?,
            },
            (None, Some(fencing)) => Testbed::Pair {
                workload: workload_from_value(v.get("workload")?)?,
                fencing: fencing.as_bool()?,
            },
            _ => return None,
        };
        let spec = RunSpec {
            testbed,
            seed: json::from_hex(v.get("seed")?)?,
            plan: FaultPlan::from_value(v.get("plan")?)?,
            limit: SimDuration::from_millis(v.get("limit_ms")?.as_u64()?),
            max_events: v.get("max_events")?.as_u64()?,
            // Absent in artifacts from older engines: paper-era defaults.
            link: match v.get("link") {
                Some(l) => LinkProfile::from_name(l.as_str()?)?,
                None => LinkProfile::Lan,
            },
            congestion: match v.get("congestion") {
                Some(c) => CongestionAlgo::from_name(c.as_str()?)?,
                None => CongestionAlgo::Reno,
            },
            sack: match v.get("sack") {
                Some(s) => s.as_bool()?,
                None => false,
            },
        };
        if !spec.plan.fits(spec.testbed.servers()) {
            return None;
        }
        let details = v
            .get("details")?
            .as_arr()?
            .iter()
            .map(|d| d.as_str().map(str::to_string))
            .collect::<Option<Vec<_>>>()?;
        Some(FailureArtifact {
            spec,
            oracle: OracleKind::from_tag(v.get("oracle")?.as_str()?)?,
            details,
            digest: json::from_hex(v.get("digest")?)?,
            obs: v.get("obs").cloned(),
            trace: v.get("trace").cloned(),
        })
    }

    /// Re-executes the artifact's run and checks that it reproduces:
    /// the same oracle fires and the frame-trace digest matches
    /// exactly. Returns the replay report alongside the verdict.
    pub fn replay(&self) -> (bool, RunReport) {
        let report = execute(&self.spec);
        let same_oracle = report.violations.iter().any(|v| v.oracle == self.oracle);
        let same_digest = report.digest == self.digest;
        (same_oracle && same_digest, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{FaultOp, BACKUP};
    use apps::Workload;

    #[test]
    fn artifact_json_roundtrip() {
        let spec = RunSpec::new(
            Workload::Echo { requests: 100 },
            0xDEAD_BEEF_0000_0007,
            FaultPlan::new([
                FaultOp::PausePrimary { at_pct: 30, dur_ms: 500 },
                FaultOp::SideDelay { rank: BACKUP, delay_ms: 60 },
            ]),
        )
        .without_fencing();
        let artifact = FailureArtifact {
            spec,
            oracle: OracleKind::SingleServer,
            details: vec!["node 1 still sourcing VIP traffic".into()],
            digest: 0xFFFF_0000_1234_5678,
            obs: Some(json::obj([("counters", json::obj([("segs_suppressed", Value::Num(7))]))])),
            trace: Some(json::obj([
                ("format", json::str("sttcp-trace-v1")),
                ("dropped", Value::Num(3)),
                ("events", Value::Arr(vec![])),
            ])),
        };
        let text = artifact.to_json();
        let back = FailureArtifact::from_json(&text).expect("parses");
        assert_eq!(back, artifact);
    }

    #[test]
    fn artifact_without_obs_roundtrips() {
        let spec = RunSpec::new(Workload::Echo { requests: 1 }, 1, FaultPlan::new([]));
        let artifact = FailureArtifact {
            spec,
            oracle: OracleKind::Completion,
            details: Vec::new(),
            digest: 0,
            obs: None,
            trace: None,
        };
        let text = artifact.to_json();
        assert!(!text.contains("\"obs\""), "absent snapshot must stay absent");
        assert!(!text.contains("\"trace\""), "absent trace must stay absent");
        let back = FailureArtifact::from_json(&text).expect("parses");
        assert_eq!(back, artifact);
    }

    #[test]
    fn artifact_roundtrips_wan_congestion_knobs() {
        let spec = RunSpec::new(Workload::Echo { requests: 3 }, 9, FaultPlan::new([]))
            .on_link(LinkProfile::WanBurstLoss)
            .with_congestion(CongestionAlgo::Cubic)
            .with_sack();
        let artifact = FailureArtifact {
            spec,
            oracle: OracleKind::Completion,
            details: Vec::new(),
            digest: 1,
            obs: None,
            trace: None,
        };
        let back = FailureArtifact::from_json(&artifact.to_json()).expect("parses");
        assert_eq!(back, artifact);
        assert_eq!(back.spec.link, LinkProfile::WanBurstLoss);
        assert_eq!(back.spec.congestion, CongestionAlgo::Cubic);
        assert!(back.spec.sack);
    }

    #[test]
    fn artifact_from_an_older_engine_defaults_the_new_knobs() {
        // Build a current artifact, then strip the new fields to mimic
        // pre-WAN engines: parsing must fall back to paper-era defaults.
        let spec = RunSpec::new(Workload::Echo { requests: 1 }, 2, FaultPlan::new([]));
        let artifact = FailureArtifact {
            spec,
            oracle: OracleKind::Completion,
            details: Vec::new(),
            digest: 0,
            obs: None,
            trace: None,
        };
        let text = artifact
            .to_json()
            .replace("\"link\":\"lan\",", "")
            .replace("\"congestion\":\"reno\",", "")
            .replace("\"sack\":false,", "");
        assert!(!text.contains("\"link\""), "field must really be gone: {text}");
        let back = FailureArtifact::from_json(&text).expect("tolerant parse");
        assert_eq!(back.spec.link, LinkProfile::Lan);
        assert_eq!(back.spec.congestion, CongestionAlgo::Reno);
        assert!(!back.spec.sack);
    }

    fn bare(spec: RunSpec) -> FailureArtifact {
        FailureArtifact {
            spec,
            oracle: OracleKind::SingleServer,
            details: Vec::new(),
            digest: 7,
            obs: None,
            trace: None,
        }
    }

    #[test]
    fn chain_artifact_roundtrips_with_its_testbed_members() {
        let plan = FaultPlan::new([
            FaultOp::Crash { rank: 0, at_ms: 120 },
            FaultOp::SideDrop { rank: 2, skip: 0, count: 40 },
        ]);
        let artifact = bare(RunSpec::chain(3, 40, 0xF1EE7, plan));
        let text = artifact.to_json();
        assert!(text.contains("\"backups\":3,\"clients\":40"), "{text}");
        assert!(!text.contains("workload") && !text.contains("fencing"), "{text}");
        assert_eq!(FailureArtifact::from_json(&text), Some(artifact));
    }

    #[test]
    fn chain_artifact_with_fencing_or_a_misfit_plan_is_refused() {
        let text = bare(RunSpec::chain(2, 4, 1, FaultPlan::none())).to_json();
        let fenced = text.replace("\"clients\":4,", "\"clients\":4,\"fencing\":true,");
        assert_ne!(fenced, text);
        assert_eq!(FailureArtifact::from_json(&fenced), None, "chains have no fencing hardware");
        let no_backups = text.replace("\"backups\":2", "\"backups\":0");
        assert_eq!(FailureArtifact::from_json(&no_backups), None);

        let deep = FaultPlan::new([FaultOp::TapDrop { rank: 2, skip: 0, count: 1 }]);
        let fits = bare(RunSpec::chain(2, 4, 1, deep)).to_json();
        assert!(FailureArtifact::from_json(&fits).is_some());
        let misfit = fits.replace("\"backups\":2", "\"backups\":1");
        assert_eq!(FailureArtifact::from_json(&misfit), None, "rank 2 does not exist at N = 1");
    }

    #[test]
    fn artifact_rejects_wrong_format() {
        assert_eq!(FailureArtifact::from_json("{\"format\":\"other\"}"), None);
        assert_eq!(FailureArtifact::from_json("not json"), None);
    }
}

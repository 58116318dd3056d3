//! Invariant oracles: what must hold through and after every chaos run.
//!
//! Each oracle encodes one paper-level guarantee. Sampled oracles are
//! evaluated every scheduler chunk while the run executes; terminal
//! oracles are evaluated once the run stops. A run *passes* iff no
//! oracle records a [`Violation`].
//!
//! The per-node checks ([`check_seq_agreement`],
//! [`check_single_server`]) are pure functions over sampled state, and
//! deliberately take *node sets* rather than a primary/backup pair:
//! the same code judges the classic two-node runs and the N-backup
//! cluster campaigns. The two-node harness passes singleton sets and
//! gets byte-identical reports to the pre-cluster implementation (see
//! the regression tests below).

use netsim::{SimDuration, SimTime};
use std::collections::BTreeMap;
use tcpstack::{Quad, SeqNum};

/// The invariant a violation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OracleKind {
    /// The client's received byte stream is exactly the expected
    /// content (paper's transparency claim — no loss, no corruption,
    /// no duplication visible to the application).
    ClientIntegrity,
    /// A survivable schedule must let the workload finish within the
    /// run budget.
    Completion,
    /// After a takeover, at most one server transmits from the VIP —
    /// fencing must have silenced the old primary (§4.4).
    SingleServer,
    /// A backup's shadow starts its send space at the primary's ISS,
    /// and, while the primary lives on loss-free links, never runs
    /// ahead of the primary in the client's sequence space (§4.1: the
    /// backup mirrors, it does not invent).
    SeqAgreement,
    /// The primary's retention buffer occupancy never exceeds its
    /// configured capacity (§4.2: retention is bounded, backed by the
    /// backup-ack release protocol).
    RetentionBound,
    /// Takeover happens within the detection bound:
    /// `hb_interval × (missed_hb_threshold + 2) + sync_time` plus any
    /// slack the schedule itself adds to the detector channel.
    TakeoverLatency,
    /// A schedule that never incapacitates the primary and stays under
    /// the heartbeat-loss threshold must not trigger a takeover.
    FalseSuspicion,
    /// A completed closing workload must actually tear the connection
    /// down (no half-open leftovers — the crash-during-FIN corner).
    EventualClose,
}

impl OracleKind {
    /// Stable string tag (artifacts, CLI output).
    pub fn tag(self) -> &'static str {
        match self {
            OracleKind::ClientIntegrity => "client-integrity",
            OracleKind::Completion => "completion",
            OracleKind::SingleServer => "single-server",
            OracleKind::SeqAgreement => "seq-agreement",
            OracleKind::RetentionBound => "retention-bound",
            OracleKind::TakeoverLatency => "takeover-latency",
            OracleKind::FalseSuspicion => "false-suspicion",
            OracleKind::EventualClose => "eventual-close",
        }
    }

    /// Parses a [`OracleKind::tag`] string.
    pub fn from_tag(s: &str) -> Option<Self> {
        [
            OracleKind::ClientIntegrity,
            OracleKind::Completion,
            OracleKind::SingleServer,
            OracleKind::SeqAgreement,
            OracleKind::RetentionBound,
            OracleKind::TakeoverLatency,
            OracleKind::FalseSuspicion,
            OracleKind::EventualClose,
        ]
        .into_iter()
        .find(|k| k.tag() == s)
    }
}

/// One observed invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which invariant broke.
    pub oracle: OracleKind,
    /// Virtual instant the violation was observed.
    pub at: SimTime,
    /// Human-readable specifics (sequence numbers, node, counts).
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] t={} {}", self.oracle.tag(), self.at, self.detail)
    }
}

// ---------------------------------------------------------------------
// Generalized per-node checks.

/// `a ≤ b` in 32-bit TCP sequence space (wraparound-aware).
pub fn seq_le(a: SeqNum, b: SeqNum) -> bool {
    (b.0.wrapping_sub(a.0) as i32) >= 0
}

/// One sampled shadow↔authority pair for [`check_seq_agreement`]: a
/// synchronized shadow connection on some backup, matched with the
/// same quad on the node currently authoritative for the VIP.
#[derive(Debug, Clone, Copy)]
pub struct ShadowSample {
    /// The connection, as seen from the server side.
    pub quad: Quad,
    /// The shadow's ISS on the sampled backup.
    pub shadow_iss: SeqNum,
    /// The authoritative server's ISS for the same quad.
    pub primary_iss: SeqNum,
    /// The client ISN the shadow was built from.
    pub shadow_irs: SeqNum,
    /// The client ISN the authoritative server holds for the quad.
    pub primary_irs: SeqNum,
    /// The shadow's `rcv_nxt` on the sampled backup.
    pub shadow_rcv_nxt: SeqNum,
    /// The authoritative server's `rcv_nxt` for the same quad.
    pub primary_rcv_nxt: SeqNum,
}

/// §4.1 sequence agreement over an arbitrary shadow set. Send space: a
/// shadow's ISS is the authoritative server's (every server derives it
/// from the SYN), on every link profile. Receive space, checked only
/// while `receive` holds (loss-free links before any fault: see
/// `run::install_plan`): the shadow is of the authoritative server's
/// incarnation (one IRS), and it does not run ahead of it in the
/// client's sequence space. Where `receive` does not hold, a pair of
/// another incarnation (a quad reused after a reboot) is skipped.
/// Pushes one violation per offending sample; returns whether any fired
/// (callers typically stop sampling after the first).
pub fn check_seq_agreement(
    now: SimTime,
    samples: &[ShadowSample],
    receive: bool,
    violations: &mut Vec<Violation>,
) -> bool {
    let mut any = false;
    for s in samples {
        if s.shadow_irs != s.primary_irs {
            if receive {
                violations.push(Violation {
                    oracle: OracleKind::SeqAgreement,
                    at: now,
                    detail: format!(
                        "backup shadow irs {} differs from primary's {} on {:?}",
                        s.shadow_irs, s.primary_irs, s.quad
                    ),
                });
                any = true;
            }
            continue;
        }
        if s.shadow_iss != s.primary_iss {
            violations.push(Violation {
                oracle: OracleKind::SeqAgreement,
                at: now,
                detail: format!(
                    "backup shadow iss {} differs from primary's {} on {:?}",
                    s.shadow_iss, s.primary_iss, s.quad
                ),
            });
            any = true;
        }
        if receive && !seq_le(s.shadow_rcv_nxt, s.primary_rcv_nxt) {
            violations.push(Violation {
                oracle: OracleKind::SeqAgreement,
                at: now,
                detail: format!(
                    "backup shadow rcv_nxt {} ahead of primary {} on {:?}",
                    s.shadow_rcv_nxt, s.primary_rcv_nxt, s.quad
                ),
            });
            any = true;
        }
    }
    any
}

/// §4.4 single-server property over an arbitrary node set: after
/// `takeover_at` plus an in-flight `grace`, only nodes in `allowed`
/// (simulator node indices — the current server and any node yet to be
/// excluded) may source VIP traffic. `vip_last_sent` maps node index →
/// latest VIP-sourced departure, as collected by the run's frame probe.
pub fn check_single_server(
    takeover_at: SimTime,
    grace: SimDuration,
    allowed: &[usize],
    vip_last_sent: &BTreeMap<usize, SimTime>,
    violations: &mut Vec<Violation>,
) {
    for (&node, &last) in vip_last_sent {
        if !allowed.contains(&node) && last > takeover_at + grace {
            violations.push(Violation {
                oracle: OracleKind::SingleServer,
                at: last,
                detail: format!(
                    "node {node} still sourcing VIP traffic at {last}, {} after takeover",
                    last.duration_since(takeover_at)
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    #[test]
    fn tags_roundtrip() {
        for k in [
            OracleKind::ClientIntegrity,
            OracleKind::Completion,
            OracleKind::SingleServer,
            OracleKind::SeqAgreement,
            OracleKind::RetentionBound,
            OracleKind::TakeoverLatency,
            OracleKind::FalseSuspicion,
            OracleKind::EventualClose,
        ] {
            assert_eq!(OracleKind::from_tag(k.tag()), Some(k));
        }
        assert_eq!(OracleKind::from_tag("nope"), None);
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn seq_le_handles_wraparound() {
        assert!(seq_le(SeqNum(5), SeqNum(5)));
        assert!(seq_le(SeqNum(5), SeqNum(6)));
        assert!(!seq_le(SeqNum(6), SeqNum(5)));
        assert!(seq_le(SeqNum(u32::MAX), SeqNum(3)), "wrap: MAX < 3");
        assert!(!seq_le(SeqNum(3), SeqNum(u32::MAX)));
    }

    /// The generalized check must reproduce the pre-cluster two-node
    /// implementation byte for byte, so existing artifacts, shrink
    /// fingerprints, and report goldens stay comparable.
    #[test]
    fn two_node_seq_agreement_detail_is_byte_identical() {
        let quad = Quad::new(Ipv4Addr::new(10, 0, 0, 100), 80, Ipv4Addr::new(10, 1, 0, 1), 40000);
        let (shadow_iss, primary_iss) = (SeqNum(7), SeqNum(7));
        let sample = ShadowSample {
            quad,
            shadow_iss,
            primary_iss,
            shadow_irs: SeqNum(3),
            primary_irs: SeqNum(3),
            shadow_rcv_nxt: SeqNum(900),
            primary_rcv_nxt: SeqNum(500),
        };
        let mut got = Vec::new();
        assert!(check_seq_agreement(t(250), &[sample], true, &mut got));
        // The legacy string, formatted exactly as crates/chaos/src/run.rs
        // did before the oracle was generalized.
        let legacy = format!(
            "backup shadow rcv_nxt {} ahead of primary {} on {:?}",
            SeqNum(900),
            SeqNum(500),
            quad
        );
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].oracle, OracleKind::SeqAgreement);
        assert_eq!(got[0].at, t(250));
        assert_eq!(got[0].detail, legacy);

        // An agreeing (or equal) shadow stays silent, and so does a
        // leading one where the receive space is not checked.
        let ok = ShadowSample { shadow_rcv_nxt: SeqNum(500), ..sample };
        let mut none = Vec::new();
        assert!(!check_seq_agreement(t(251), &[ok], true, &mut none));
        assert!(!check_seq_agreement(t(251), &[sample], false, &mut none));
        assert!(none.is_empty());
    }

    #[test]
    fn a_shadow_with_another_iss_is_flagged_on_every_profile() {
        let quad = Quad::new(Ipv4Addr::new(10, 0, 0, 100), 80, Ipv4Addr::new(10, 1, 0, 1), 40000);
        let sample = ShadowSample {
            quad,
            shadow_iss: SeqNum(8),
            primary_iss: SeqNum(7),
            shadow_irs: SeqNum(3),
            primary_irs: SeqNum(3),
            shadow_rcv_nxt: SeqNum(500),
            primary_rcv_nxt: SeqNum(500),
        };
        for receive in [true, false] {
            let mut got = Vec::new();
            assert!(check_seq_agreement(t(250), &[sample], receive, &mut got));
            assert_eq!(got.len(), 1);
            assert!(got[0].detail.starts_with("backup shadow iss 8 differs from primary's 7"));
        }
    }

    #[test]
    fn a_shadow_of_another_incarnation_is_flagged_until_a_reboot_can_explain_it() {
        let quad = Quad::new(Ipv4Addr::new(10, 0, 0, 100), 80, Ipv4Addr::new(10, 1, 0, 1), 40000);
        // Built from another SYN of the quad: another IRS, so (keyed on
        // it) another ISS, and a receive space that leads or trails.
        let sample = ShadowSample {
            quad,
            shadow_iss: SeqNum(8),
            primary_iss: SeqNum(7),
            shadow_irs: SeqNum(4),
            primary_irs: SeqNum(3),
            shadow_rcv_nxt: SeqNum(900),
            primary_rcv_nxt: SeqNum(500),
        };
        let mut got = Vec::new();
        assert!(check_seq_agreement(t(250), &[sample], true, &mut got));
        assert_eq!(got.len(), 1, "one violation: the incarnation, not each field it moved");
        assert!(got[0].detail.starts_with("backup shadow irs 4 differs from primary's 3"));
        // Past a fault (or on a lossy link) a quad can legitimately be
        // reused by the next incarnation: the pair is not compared.
        let mut none = Vec::new();
        assert!(!check_seq_agreement(t(251), &[sample], false, &mut none));
        assert!(none.is_empty());
    }

    #[test]
    fn two_node_single_server_detail_is_byte_identical() {
        let takeover = t(300);
        let grace = SimDuration::from_millis(5);
        let mut last_sent = BTreeMap::new();
        last_sent.insert(1usize, t(200)); // old primary, before takeover: fine
        last_sent.insert(2usize, t(400)); // the promoted backup: allowed
        let mut got = Vec::new();
        check_single_server(takeover, grace, &[2], &last_sent, &mut got);
        assert!(got.is_empty(), "quiet old primary and busy successor are both legal");

        last_sent.insert(1usize, t(400)); // old primary still talking
        check_single_server(takeover, grace, &[2], &last_sent, &mut got);
        let legacy = format!(
            "node {} still sourcing VIP traffic at {}, {} after takeover",
            1,
            t(400),
            t(400).duration_since(takeover)
        );
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].oracle, OracleKind::SingleServer);
        assert_eq!(got[0].at, t(400));
        assert_eq!(got[0].detail, legacy);
    }

    #[test]
    fn single_server_accepts_multiple_allowed_nodes() {
        // Cluster flavour: after a cascade, the retired-but-draining
        // member and the current primary may both appear in `allowed`.
        let mut last_sent = BTreeMap::new();
        last_sent.insert(3usize, t(500));
        last_sent.insert(4usize, t(500));
        last_sent.insert(5usize, t(500));
        let mut got = Vec::new();
        check_single_server(t(100), SimDuration::from_millis(5), &[3, 4], &last_sent, &mut got);
        assert_eq!(got.len(), 1, "only the node outside the allowed set fires");
        assert!(got[0].detail.starts_with("node 5 "));
    }
}

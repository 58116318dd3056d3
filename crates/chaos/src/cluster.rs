//! Chaos runs over the N-backup replication chain.
//!
//! The classic [`crate::run`] pipeline drives the paper's one-primary /
//! one-backup scenario. This module drives the
//! [`sttcp::cluster`] fleet instead — a primary plus N chained
//! backups behind a mirroring switch — through *cascading* failure
//! schedules (crash the primary, then crash its successor mid-takeover)
//! and judges the same eight invariants. Node-specific checks reuse the
//! generalized node-set oracles in [`crate::oracle`]; fleet-level ones
//! (integrity, completion, eventual close) aggregate over every client.
//!
//! Runs are deterministic: the same [`ClusterRunSpec`] produces the
//! same frame digest, so a failing spec embedded in an artifact is a
//! bit-exact reproducer.

use crate::json::Value;
use crate::oracle::{
    check_seq_agreement, check_single_server, OracleKind, ShadowSample, Violation,
};
use crate::run::{fnv1a, FNV_OFFSET};
use netsim::{SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;
use sttcp::cluster::promotion::detection_deadline;
use sttcp::fleet::{build_cluster, ClusterFleetSpec, Fleet};
use sttcp::node::{ClientNode, ServerNode};
use sttcp::scenario::StopReason;
use sttcp::ClusterRole;
use tcpstack::TcpState;
use wire::{EtherType, EthernetFrame, IpProtocol, Ipv4Packet};

/// One cluster chaos run: fleet shape plus a cascading crash schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterRunSpec {
    /// Workload clients in the fleet.
    pub clients: usize,
    /// Chain length N (backups behind the primary).
    pub backups: usize,
    /// Master seed (workload mix, stagger, ISNs).
    pub seed: u64,
    /// Crash schedule in milliseconds: `(rank, at_ms)`. A cascade
    /// crashes rank 0 first, then rank 1 mid-takeover, and so on.
    pub crashes_ms: Vec<(usize, u64)>,
    /// Virtual-time budget.
    pub limit: SimDuration,
}

impl ClusterRunSpec {
    /// A spec with the default 120-second budget.
    pub fn new(clients: usize, backups: usize, seed: u64) -> Self {
        ClusterRunSpec {
            clients,
            backups,
            seed,
            crashes_ms: Vec::new(),
            limit: SimDuration::from_secs(120),
        }
    }

    /// Appends a crash (builder style).
    #[must_use]
    pub fn crash(mut self, rank: usize, at_ms: u64) -> Self {
        self.crashes_ms.push((rank, at_ms));
        self
    }

    /// The rank expected to serve once the schedule has run: the lowest
    /// rank the schedule never crashes.
    pub fn expected_primary(&self) -> usize {
        (0..=self.backups)
            .find(|r| !self.crashes_ms.iter().any(|&(cr, _)| cr == *r))
            .expect("a schedule must leave one survivor")
    }

    /// This spec as a JSON value (artifact embedding).
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("clients".into(), Value::Num(self.clients as f64)),
            ("backups".into(), Value::Num(self.backups as f64)),
            ("seed".into(), Value::Num(self.seed as f64)),
            (
                "crashes_ms".into(),
                Value::Arr(
                    self.crashes_ms
                        .iter()
                        .map(|&(r, ms)| {
                            Value::Arr(vec![Value::Num(r as f64), Value::Num(ms as f64)])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// The judged result of one cluster chaos run.
#[derive(Debug, Clone)]
pub struct ClusterRunReport {
    /// Why the run stopped.
    pub reason: StopReason,
    /// Invariant violations, in observation order. Empty ⇒ pass.
    pub violations: Vec<Violation>,
    /// FNV-1a digest over every frame transmission — the replay
    /// fingerprint.
    pub digest: u64,
    /// Final takeover instant (the surviving rank's promotion), if any.
    pub final_takeover_at: Option<SimTime>,
    /// Epoch the surviving rank serves under at the end.
    pub final_epoch: u32,
    /// Aggregate client progress `(received, expected)`.
    pub progress: (u64, u64),
}

impl ClusterRunReport {
    /// True when every oracle stayed green.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// A replayable JSON artifact: spec + digest + violations.
    pub fn artifact(&self, spec: &ClusterRunSpec) -> String {
        Value::Obj(vec![
            ("format".into(), Value::Str("sttcp-cluster-chaos-v1".into())),
            ("spec".into(), spec.to_value()),
            ("digest".into(), Value::Str(format!("{:016x}", self.digest))),
            ("reason".into(), Value::Str(format!("{:?}", self.reason))),
            ("final_epoch".into(), Value::Num(f64::from(self.final_epoch))),
            (
                "violations".into(),
                Value::Arr(self.violations.iter().map(|v| Value::Str(v.to_string())).collect()),
            ),
        ])
        .to_json()
    }
}

struct ClusterProbe {
    digest: u64,
    /// node index → latest VIP-sourced departure (origin sends only).
    vip_last_sent: std::collections::BTreeMap<usize, SimTime>,
}

fn vip_sourced(frame: &bytes::Bytes, vip: std::net::Ipv4Addr) -> bool {
    let Ok(eth) = EthernetFrame::parse(frame.clone()) else {
        return false;
    };
    if eth.ethertype != EtherType::Ipv4 {
        return false;
    }
    let Ok(ip) = Ipv4Packet::parse(eth.payload) else {
        return false;
    };
    ip.protocol == IpProtocol::Tcp && ip.src == vip
}

/// Executes one cluster chaos run and judges it against every oracle.
pub fn execute_cluster(spec: &ClusterRunSpec) -> ClusterRunReport {
    let mut fspec = ClusterFleetSpec::new(spec.clients, spec.backups);
    fspec.fleet = fspec.fleet.seed(spec.seed).recording();
    for &(rank, ms) in &spec.crashes_ms {
        fspec = fspec.crash(rank, SimTime::ZERO + SimDuration::from_millis(ms));
    }
    let cfg = fspec.fleet.st_tcp.clone();
    let mut fleet = build_cluster(&fspec);
    let server_ids: Vec<usize> = fleet.servers.iter().map(|n| n.0).collect();
    let vip = cfg.vip;

    let probe = Rc::new(RefCell::new(ClusterProbe {
        digest: FNV_OFFSET,
        vip_last_sent: std::collections::BTreeMap::new(),
    }));
    let handle = Rc::clone(&probe);
    fleet.sim.set_probe(move |ev| {
        let mut st = handle.borrow_mut();
        let mut h = st.digest;
        h = fnv1a(h, &ev.time.as_nanos().to_le_bytes());
        h = fnv1a(h, &(ev.from.0 as u64).to_le_bytes());
        h = fnv1a(h, &(ev.to.0 as u64).to_le_bytes());
        h = fnv1a(h, ev.frame);
        st.digest = h;
        if server_ids.contains(&ev.from.0) && vip_sourced(ev.frame, vip) {
            st.vip_last_sent.insert(ev.from.0, ev.time);
        }
    });

    let first_crash =
        spec.crashes_ms.iter().map(|&(_, ms)| SimTime::ZERO + SimDuration::from_millis(ms)).min();
    let mut violations = Vec::new();
    let mut seq_tripped = false;
    let deadline = SimTime::ZERO + spec.limit;
    let chunk = SimDuration::from_millis(50);
    let reason = loop {
        if fleet.all_done() {
            break StopReason::Completed;
        }
        if fleet.sim.now() >= deadline {
            break StopReason::TimeLimit;
        }
        if fleet.sim.pending_events() == 0 {
            break StopReason::WedgedClient;
        }
        fleet.sim.run_for(chunk);
        sample_cluster_seq_agreement(&fleet, first_crash, &mut violations, &mut seq_tripped);
    };
    let stopped_at = fleet.sim.now();

    // ---- terminal oracles -------------------------------------------

    // Client integrity + completion, aggregated over the fleet.
    let progress = fleet.progress();
    for i in 0..spec.clients {
        let m = &fleet.client_app(i).metrics;
        if m.content_errors > 0 {
            violations.push(Violation {
                oracle: OracleKind::ClientIntegrity,
                at: stopped_at,
                detail: format!(
                    "client {i}: {} content errors, first at byte offset {:?}",
                    m.content_errors, m.first_error_pos
                ),
            });
        }
    }
    if reason != StopReason::Completed {
        violations.push(Violation {
            oracle: OracleKind::Completion,
            at: stopped_at,
            detail: format!("run stopped: {:?} after {}/{} bytes", reason, progress.0, progress.1),
        });
    }

    // Retention bound (§4.2): every chain member retains within its own
    // structural cap; the shared gauge records the global peak.
    let snap = fleet.obs.as_ref().expect("cluster chaos runs record obs").snapshot();
    let tcp = &fleet.sim.node_ref::<ServerNode>(fleet.servers[0]).stack().config().tcp;
    let bound = (tcp.retention_buf + tcp.recv_buf) as u64;
    let high_water = snap.get("retention_high_water");
    if high_water > bound {
        violations.push(Violation {
            oracle: OracleKind::RetentionBound,
            at: stopped_at,
            detail: format!("retained {high_water} bytes > §4.2 bound {bound}"),
        });
    }

    // Promotion bookkeeping for the remaining node-set oracles.
    let survivor = spec.expected_primary();
    let final_takeover_at = if survivor == 0 { None } else { fleet.engine(survivor).takeover_at() };
    let final_epoch = fleet.engine(survivor).topology().epoch();
    let last_crash =
        spec.crashes_ms.iter().map(|&(_, ms)| SimTime::ZERO + SimDuration::from_millis(ms)).max();

    // Takeover latency: the survivor must promote within its staggered
    // detection bound of the crash that handed it the chain. A crash
    // landing after the workload drained needs no takeover.
    if let Some(crash_at) = last_crash {
        match final_takeover_at {
            Some(tk) => {
                let bound = detection_deadline(&cfg, survivor as u8)
                    + cfg.effective_sync_time()
                    + SimDuration::from_millis(100);
                match tk.checked_duration_since(crash_at) {
                    Some(latency) if latency > bound => violations.push(Violation {
                        oracle: OracleKind::TakeoverLatency,
                        at: tk,
                        detail: format!(
                            "rank {survivor} takeover {latency} after the final crash \
                             exceeds bound {bound}"
                        ),
                    }),
                    _ => {}
                }
            }
            None => {
                if reason != StopReason::Completed && crash_at < stopped_at {
                    violations.push(Violation {
                        oracle: OracleKind::TakeoverLatency,
                        at: stopped_at,
                        detail: format!(
                            "primary chain crashed through rank {}, rank {survivor} never \
                             took over",
                            survivor.saturating_sub(1)
                        ),
                    });
                }
            }
        }
    }

    // False suspicion: ranks deeper than the survivor must still be
    // backups, and a fault-free schedule must promote nobody.
    for rank in 0..=spec.backups {
        let e = fleet.engine(rank);
        let crashed = spec.crashes_ms.iter().any(|&(r, _)| r == rank);
        if !crashed && rank > survivor && e.has_taken_over() {
            violations.push(Violation {
                oracle: OracleKind::FalseSuspicion,
                at: e.takeover_at().unwrap_or(stopped_at),
                detail: format!(
                    "rank {rank} took over though rank {survivor} survived the schedule"
                ),
            });
        }
        if spec.crashes_ms.is_empty() && e.role() != ClusterRole::Backup && rank > 0 {
            violations.push(Violation {
                oracle: OracleKind::FalseSuspicion,
                at: stopped_at,
                detail: format!("rank {rank} left the backup role in a fault-free run"),
            });
        }
    }

    // Single server: after the final takeover, only the survivor may
    // source VIP traffic (crashed members fell silent at their crash
    // instants, which precede it).
    if let Some(tk) = final_takeover_at {
        let allowed = [fleet.servers[survivor].0];
        let st = probe.borrow();
        check_single_server(
            tk,
            SimDuration::from_millis(5),
            &allowed,
            &st.vip_last_sent,
            &mut violations,
        );
    }

    // Eventual close: a completed closing workload must fully tear down
    // on every client.
    if reason == StopReason::Completed {
        fleet.sim.run_for(SimDuration::from_secs(3));
        for (i, &id) in fleet.clients.iter().enumerate() {
            let client = fleet.sim.node_ref::<ClientNode>(id);
            let state = client.sock().and_then(|s| client.stack().state(s));
            let closed = matches!(state, None | Some(TcpState::Closed) | Some(TcpState::TimeWait));
            if !closed {
                violations.push(Violation {
                    oracle: OracleKind::EventualClose,
                    at: fleet.sim.now(),
                    detail: format!("client {i} connection stuck in {state:?} after completion"),
                });
            }
        }
    }

    let digest = probe.borrow().digest;
    ClusterRunReport { reason, violations, digest, final_takeover_at, final_epoch, progress }
}

fn sample_cluster_seq_agreement(
    fleet: &Fleet,
    first_crash: Option<SimTime>,
    violations: &mut Vec<Violation>,
    tripped: &mut bool,
) {
    let now = fleet.sim.now();
    // Valid only while rank 0 is alive and authoritative: after a crash
    // the shadows legitimately overtake the dead primary's last state.
    if *tripped || first_crash.is_some_and(|t| now >= t) {
        return;
    }
    let primary = fleet.sim.node_ref::<ServerNode>(fleet.servers[0]);
    let mut samples = Vec::new();
    for &id in &fleet.servers[1..] {
        let backup = fleet.sim.node_ref::<ServerNode>(id);
        let engine = backup.engine().expect("cluster fleet servers run the engine");
        if engine.role() != ClusterRole::Backup {
            continue;
        }
        for sock in backup.stack().socks() {
            let Some(btcb) = backup.stack().tcb(sock) else { continue };
            if !btcb.state().is_synchronized() {
                continue;
            }
            let Some(psock) = primary.stack().sock_by_quad(btcb.quad()) else { continue };
            let Some(ptcb) = primary.stack().tcb(psock) else { continue };
            if !ptcb.state().is_synchronized() {
                continue;
            }
            samples.push(ShadowSample {
                quad: btcb.quad(),
                shadow_rcv_nxt: btcb.rcv_nxt(),
                primary_rcv_nxt: ptcb.rcv_nxt(),
            });
        }
    }
    if check_seq_agreement(now, &samples, violations) {
        *tripped = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_primary_is_the_lowest_uncrashed_rank() {
        let spec = ClusterRunSpec::new(4, 3, 1).crash(0, 100).crash(1, 260);
        assert_eq!(spec.expected_primary(), 2);
        assert_eq!(ClusterRunSpec::new(4, 3, 1).expected_primary(), 0);
    }

    #[test]
    fn artifact_embeds_spec_and_digest() {
        let spec = ClusterRunSpec::new(2, 2, 42).crash(0, 100);
        let report = ClusterRunReport {
            reason: StopReason::Completed,
            violations: Vec::new(),
            digest: 0xABCD,
            final_takeover_at: None,
            final_epoch: 1,
            progress: (10, 10),
        };
        let json = report.artifact(&spec);
        assert!(json.contains("sttcp-cluster-chaos-v1"));
        assert!(json.contains("000000000000abcd"));
        assert!(json.contains("\"seed\":42"));
    }

    #[test]
    fn small_cascade_is_green_and_deterministic() {
        let spec = ClusterRunSpec::new(6, 2, 0xCA5CADE).crash(0, 120).crash(1, 300);
        let a = execute_cluster(&spec);
        assert!(a.passed(), "violations: {:?}", a.violations);
        assert_eq!(a.final_epoch, 2, "rank 2 serves under epoch 2 after the cascade");
        let b = execute_cluster(&spec);
        assert_eq!(a.digest, b.digest, "same spec ⇒ same frame digest");
    }
}

//! One built topology, however it was built, and the one way to run it.
//!
//! [`Rig::build`] goes through the library's public builders
//! (`sttcp::scenario::build`, `sttcp::fleet::build`); [`crate::topo`]
//! produces the same shape with timed nodes. Both are driven by
//! [`Rig::run`], which steps the simulator in the 50 ms chunks the
//! library's own drivers use, so traced and untraced reps stop on the
//! same event.

use crate::topo::Timed;
use crate::workloads::{payload_bytes, Spec};
use apps::{UploadServer, WorkloadClient};
use netsim::{NodeId, SimDuration, SimTime, Simulator};
use obs::ObsSink;
use std::sync::Arc;
use sttcp::{ClientNode, ServerNode};

/// Virtual-time budget of one rep. The slowest workload (60 MB over a
/// burst-loss WAN, through a crash) needs ≈ 700 virtual seconds.
const VIRTUAL_LIMIT: SimDuration = SimDuration::from_secs(3_600);
/// The chunk `Scenario::run` and `Fleet::run_until_done` step by.
const CHUNK: SimDuration = SimDuration::from_millis(50);

/// A topology ready to run.
pub struct Rig {
    /// The simulator.
    pub sim: Simulator,
    /// Workload clients, in index order.
    pub clients: Vec<NodeId>,
    /// The primary, or the solo standard-TCP server.
    pub primary: NodeId,
    /// The backup, when deployed.
    pub backup: Option<NodeId>,
    /// The shared counter sink of a `.recording()` spec.
    pub obs: Option<Arc<ObsSink>>,
    /// Whether the nodes sit inside [`Timed`] wrappers.
    timed: bool,
}

/// What one rep did, read off the simulator and the clients afterwards.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Simulator events processed.
    pub events: u64,
    /// Frames handed to a live node.
    pub frames: u64,
    /// Frames dropped by link loss models and full queues.
    pub frames_lost: u64,
    /// Virtual instant the last client verified its last byte (ns since
    /// simulation start); the stop instant if some client never did.
    pub sim_completion_ns: u64,
    /// Connections attempted (one per client).
    pub conns: u64,
    /// Connections that completed with a clean byte stream.
    pub conns_ok: u64,
    /// Payload bytes of the completed, clean connections.
    pub payload_bytes: u64,
    /// When the backup took over, if it did.
    pub takeover_at: Option<SimTime>,
    /// Mean of `pending_events()` sampled at every chunk boundary.
    pub queue_depth_mean: f64,
    /// Maximum of the same samples.
    pub queue_depth_max: u64,
    /// Every byte-stream gate that failed, in words. Empty = correct.
    pub failures: Vec<String>,
}

impl Outcome {
    /// The takeover gate: the backup must take over exactly when `spec`
    /// schedules a crash. Returns what went wrong, if anything.
    pub fn takeover_gate(&self, spec: &Spec) -> Option<String> {
        match (spec.crash_at(), self.takeover_at) {
            (Some(_), None) => Some("primary crashed but the backup never took over".into()),
            (None, Some(at)) => Some(format!("backup took over at {at} with no fault")),
            _ => None,
        }
    }

    /// The fields a deterministic replay must reproduce bit for bit.
    pub fn fingerprint(&self) -> (u64, u64, u64) {
        (self.events, self.frames, self.sim_completion_ns)
    }
}

impl Rig {
    /// Builds `spec` through the library's public builders.
    pub fn build(spec: &Spec) -> Rig {
        match spec {
            Spec::Scenario(s) => {
                let sc = sttcp::scenario::build(s);
                Rig {
                    sim: sc.sim,
                    clients: vec![sc.client],
                    primary: sc.primary,
                    backup: sc.backup,
                    obs: sc.obs,
                    timed: false,
                }
            }
            Spec::Fleet(f) => {
                let fl = sttcp::fleet::build(f);
                Rig {
                    sim: fl.sim,
                    clients: fl.clients,
                    primary: fl.primary,
                    backup: Some(fl.backup),
                    obs: fl.obs,
                    timed: false,
                }
            }
        }
    }

    /// A rig whose nodes are [`Timed`] (built by [`crate::topo`]).
    pub(crate) fn timed(
        sim: Simulator,
        clients: Vec<NodeId>,
        primary: NodeId,
        backup: Option<NodeId>,
    ) -> Rig {
        Rig { sim, clients, primary, backup, obs: None, timed: true }
    }

    /// The workload driver of client `index`.
    pub fn client_app(&self, index: usize) -> &WorkloadClient {
        let id = self.clients[index];
        let node = if self.timed {
            &self.sim.node_ref::<Timed<ClientNode>>(id).inner
        } else {
            self.sim.node_ref::<ClientNode>(id)
        };
        node.app::<WorkloadClient>().expect("every client runs a WorkloadClient")
    }

    /// The server node `id` (primary, backup or solo).
    pub fn server(&self, id: NodeId) -> &ServerNode {
        if self.timed {
            &self.sim.node_ref::<Timed<ServerNode>>(id).inner
        } else {
            self.sim.node_ref::<ServerNode>(id)
        }
    }

    fn all_done(&self) -> bool {
        (0..self.clients.len()).all(|i| self.client_app(i).is_done())
    }

    /// Runs to completion (or the virtual-time budget, or a drained event
    /// queue) and checks the byte streams: all clients done, every stream
    /// clean on the client and — for uploads — on the servers, goodput as
    /// expected. Whether a takeover was due is the caller's gate
    /// ([`Outcome::takeover_gate`]).
    pub fn run(&mut self) -> Outcome {
        let deadline = self.sim.now() + VIRTUAL_LIMIT;
        let (mut depth_sum, mut depth_max, mut samples) = (0u64, 0u64, 0u64);
        while !self.all_done() && self.sim.now() < deadline && self.sim.pending_events() > 0 {
            let depth = self.sim.pending_events() as u64;
            depth_sum += depth;
            depth_max = depth_max.max(depth);
            samples += 1;
            self.sim.run_for(CHUNK);
        }
        self.outcome(depth_sum as f64 / samples.max(1) as f64, depth_max)
    }

    fn outcome(&self, queue_depth_mean: f64, queue_depth_max: u64) -> Outcome {
        let mut failures = Vec::new();
        let (mut conns_ok, mut payload, mut last) = (0u64, 0u64, 0u64);
        for i in 0..self.clients.len() {
            let app = self.client_app(i);
            let (got, want) = app.progress();
            let ok = app.is_done() && app.metrics.verified_clean() && got == want;
            if ok {
                conns_ok += 1;
                payload += payload_bytes(app.workload());
            }
            last = last.max(app.metrics.finished.unwrap_or(self.sim.now()).as_nanos());
        }
        let conns = self.clients.len() as u64;
        if conns_ok != conns {
            failures.push(format!(
                "{} of {conns} connections unfinished or failing byte verification",
                conns - conns_ok
            ));
        }
        let mut takeover_at = None;
        for id in [Some(self.primary), self.backup].into_iter().flatten() {
            let node = self.server(id);
            // Upload streams are verified where they land: on the server
            // that consumed them, shadow included.
            let upload_errors: u64 = node
                .accepted
                .iter()
                .filter_map(|&sock| node.app::<UploadServer>(sock))
                .map(|app| app.content_errors)
                .sum();
            if upload_errors > 0 {
                failures.push(format!(
                    "{}: {upload_errors} upload bytes failed verification",
                    self.sim.node_name(id)
                ));
            }
            if let Some(engine) = node.backup_engine() {
                takeover_at = engine.takeover_at();
            }
        }
        let trace = self.sim.trace();
        Outcome {
            events: trace.events_processed,
            frames: trace.frames_delivered,
            frames_lost: trace.frames_lost_on_link,
            sim_completion_ns: last,
            conns,
            conns_ok,
            payload_bytes: payload,
            takeover_at,
            queue_depth_mean,
            queue_depth_max,
            failures,
        }
    }
}

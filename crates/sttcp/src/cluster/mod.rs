//! The replication engine: a primary and its rank-ordered chain of N
//! backups, deterministic promotion, and planned migration.
//!
//! [`ClusterEngine`] is the repo's *only* implementation of the paper's
//! protocol — retain until the backup acks (§4.2), ack at X bytes or
//! `SyncTime` (§4.3), heartbeat / detect / take over (§4.4). The
//! paper's primary/backup pair is the chain of length one
//! ([`crate::node::ServerNode::primary`] / `backup` build the
//! two-member [`Topology`]); longer chains add nothing but ranks:
//!
//! * [`Topology`] — the chain every member was built with and the
//!   epoch of the reign in force, with the epoch-by-rank promotion rule
//!   that makes cascades converge without elections ([`topology`]). A
//!   reign's members are the chain from index `epoch` on, so the
//!   primary's [`SideMsg::Heartbeat`] carries the epoch and nothing
//!   else; a member that hears a higher one from that reign's primary
//!   adopts it.
//! * [`promotion`] — rank-staggered failure detection: rank 1 uses the
//!   paper's window, each deeper rank waits as many extra heartbeats as
//!   that window tolerates losing, so at most one member unsuppresses
//!   the VIP per reign.
//! * [`catchup`] — the backup's per-connection ack/lag accounting; a
//!   lagging backup yields its promotion slot while a deeper rank could
//!   still take it, and closes lag via missing-segment replays (from
//!   the primary, or the in-network logger once the primary is gone).
//! * planned migration — `drain_and_handover()`: a healthy primary
//!   fences itself once its own view of the successor's acks says the
//!   successor trails on nothing (below).
//!
//! The backup taps only the client's half of each connection (the
//! mirror copies what the switch sends to the primary's port). It needs
//! no ISS of the primary's: every server derives a passive open's from
//! the SYN (`tcpstack`'s keyed ISS). What it needs of the primary's
//! half — the primary's cumulative ACK where what it held a heartbeat
//! earlier leads the backup's last ack, and thereby the connections it
//! has no shadow for, and the
//! primary's congestion state where [`SttcpConfig::cong_sync`] is on —
//! rides each heartbeat as frontier entries (see `DESIGN.md` §12 "The
//! tap").
//!
//! A node starts as rank-0 primary or rank-k backup and moves through
//! promotion/retirement as the topology evolves. Only a backup owes
//! anybody shadow duties (acks, missing-segment requests), and only to
//! its current primary; its acks are its liveness (§4.4). A member that
//! promotes owes the primary it replaced nothing: the paper makes a
//! wrong suspicion correct by cutting the suspect's power (§3.2, §4.4),
//! so after a takeover the old primary is dead or fenced, and after a
//! handover it has stepped down itself.
//!
//! # Side-channel economy
//!
//! Every backup, whatever its rank, runs the paper's one ack rule
//! (§4.3): each pump acks the connections whose progress crossed X
//! bytes, and each `SyncTime` tick acks everything still unacked. One
//! pass sends what it owes as [`SideMsg::AckBatch`]es of up to 63
//! connections, each datagram within [`SIDE_CHUNK`]; a datagram that
//! carries one ack is the paper's [`SideMsg::BackupAck`]. So a busy
//! fleet costs a datagram per 63 active connections per tick, not one
//! per connection, and each extra backup adds the same batched stream
//! (`bench` records the cost as `side_channel_overhead_{1,2,3}backups`).
//!
//! The paper's backup has no heartbeat of its own: "the acks sent by the
//! backup server" are its heartbeats (§4.4). A tick that owes no ack
//! sends one empty [`SideMsg::AckBatch`], and the primary counts any
//! datagram from a backup as life. The primary's one heartbeat per
//! backup per tick is 13 bytes when it owes that backup nothing: its
//! sequence number and its epoch. Its frontier entries ride with it, up
//! to [`SIDE_CHUNK`] per datagram; more go in further heartbeats of the
//! same sequence number, and each datagram counts as a heartbeat sent.
//!
//! # Retention in a chain
//!
//! The primary releases retained bytes at the *minimum* acknowledged
//! point over all live backups; when the last one falls silent it
//! drops to non-fault-tolerant mode (§4.4) until one returns. Because
//! every rank acks at X, a chain releases as often as the pair does.
//! Each backup that has a deeper rank behind it also keeps its own
//! retention buffer and self-releases one ack window behind its own
//! acks: after a promotion it can serve the deeper ranks' missing
//! segments from that window without ever having been asked to. Up to
//! two ack windows are unreleased there at once, so the fleet builder
//! gives such a rank twice the primary's retention space. The last rank
//! has nobody to serve and retains nothing.
//!
//! A backup that returns from the dead (rebooted, so amnesiac) has no
//! shadow of the connections open at its return, and its last ack of
//! each, if any, never moves again. Until it acks one of them, that one
//! does not gate its releases.
//!
//! # Planned migration
//!
//! `drain_and_handover()` moves the VIP from a *healthy* primary to the
//! backup at a chosen rank, with no crash and no detection window.
//! Crash takeover is reactive: the successor waits out a detection
//! window and promotes into whatever state its shadow holds. A planned
//! migration is one message, because the primary already knows how far
//! the successor's shadow has come: its acks (§4.3). Once the drain is
//! due, the primary hands over at the first heartbeat that owes the
//! live successor no frontier entry for bytes it had a whole tick to
//! ack — the rule that owes entries, so a connection the successor
//! never acked counts from its stream's start, and one it has no shadow
//! of since it returned from the dead counts until it acks it:
//!
//! ```text
//!  primary (epoch e)                       successor (rank r)
//!     | -- Heartbeat{e, entries} ------------>|   (per tick while it trails)
//!     |<------------------- AckBatch / BackupAck
//!     | -- Heartbeat{e}, Handover{e+r} ------>|   (the first tick it trails on nothing)
//!     |  suppress VIP, retire                 |  epoch e+r, unsuppress VIP
//! ```
//!
//! While it trails, the heartbeat's entries ask it for its gaps every
//! tick, as they always do. The successor takes a `Handover` only from
//! its reign's primary, and only with the epoch the epoch-by-rank rule
//! gives its own rank ([`Topology::promoted`]), so a member that learns
//! of the new reign from its heartbeat instead adopts the same
//! topology. Bytes the successor's tap lost in the last tick before the
//! handover are recovered as after a crash: the promoted member asks
//! the logger, if there is one, for what may follow each shadow. The
//! retired primary keeps its retention and keeps answering
//! missing-segment requests, but the surviving backups ask their
//! current primary, the successor. A lost `Handover` costs the
//! successor one detection window: the retired primary sends no more
//! heartbeats, so the successor promotes at its own deadline under the
//! same epoch.

pub mod catchup;
pub mod promotion;
pub mod topology;

pub use topology::Topology;

use crate::config::{Fencing, SttcpConfig, TakeoverPolicy};
use crate::messages::{ConnKey, FrontierEntry, SideMsg};
use bytes::Bytes;
use catchup::{CatchupTracker, MissingOut};
use netsim::logger::ReplayQuery;
use netsim::{DetHashMap, SimDuration, SimTime};
use obs::{Counter, Gauge, Mark, MigrationPhase, SharedRecorder, TraceEvent};
use promotion::PromotionTimer;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;
use tcpstack::{NetStack, SeqNum, SockId, TcpState};

/// Side-channel datagrams are kept under this payload size.
pub const SIDE_CHUNK: usize = 1024;

/// Most entries one [`SideMsg::AckBatch`] carries under [`SIDE_CHUNK`]:
/// tag and count take 3 B, an entry (key, sequence number) 16 B.
const ACK_BATCH_MAX: usize = (SIDE_CHUNK - 3) / 16;

/// Most frontier entries one [`SideMsg::Heartbeat`] carries under
/// [`SIDE_CHUNK`]: tag, seq, epoch and count take 15 B, an entry with a
/// congestion snapshot 25 B (key, ACK, flag, cwnd, ssthresh).
const HB_ENTRIES_MAX: usize = (SIDE_CHUNK - 15) / 25;

/// What a cluster member currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterRole {
    /// Rank 0: serves the VIP, retains bytes, answers replays.
    Primary,
    /// Rank ≥ 1: shadows, acks, waits its staggered turn.
    Backup,
    /// Out of the promotion chain (superseded or handed over); still
    /// answers missing-segment requests from its retained bytes.
    Retired,
}

/// The primary's progress through `drain_and_handover()` (see the
/// module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainPhase {
    /// No migration scheduled or underway.
    Idle,
    /// Due, and waiting for a heartbeat on which the successor trails
    /// on nothing.
    Draining,
    /// `Handover` sent; this node has retired.
    HandedOver,
}

/// Engine counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClusterStats {
    /// Heartbeat datagrams sent (as primary, one per backup per tick,
    /// and one more per 40 frontier entries past the first datagram's).
    pub hbs_sent: u64,
    /// Heartbeats received from the serving primary.
    pub hbs_received: u64,
    /// Topologies adopted from a higher epoch.
    pub adoptions: u64,
    /// Times this node promoted itself to primary.
    pub promotions: u64,
    /// Planned migrations completed (as the retiring primary).
    pub migrations: u64,
    /// Per-connection acks sent, whichever datagram carried them.
    pub acks_sent: u64,
    /// Acks triggered by the X-byte threshold (vs. the SyncTime tick).
    pub acks_threshold_triggered: u64,
    /// [`SideMsg::AckBatch`] datagrams sent with acks in them (not the
    /// empty one a tick that owes none sends).
    pub ack_batches_sent: u64,
    /// Peer acks applied to retention (as primary, entries included).
    pub acks_applied: u64,
    /// Missing-segment requests sent.
    pub missing_reqs: u64,
    /// Missing-segment replies served (as primary/retired).
    pub missing_served: u64,
    /// Bytes re-sent over the side channel in those replies.
    pub missing_bytes_sent: u64,
    /// Missing-segment requests refused.
    pub missing_nacked: u64,
    /// Bytes recovered into this node's shadows via replays.
    pub missing_bytes_recovered: u64,
    /// Catch-up replay rounds applied (MissingData datagrams).
    pub catchup_replays: u64,
    /// Logger replay-window queries issued.
    pub logger_queries: u64,
    /// Full-history bootstrap queries issued.
    pub bootstrap_queries: u64,
    /// Backups that returned from the dead (as primary; an extension —
    /// the paper stops at the transition to non-fault-tolerant mode).
    pub reintegrations: u64,
}

/// One backup, as the primary sees it.
#[derive(Debug)]
struct Peer {
    ip: Ipv4Addr,
    last_heard: SimTime,
    alive: bool,
    /// The point this backup has acknowledged, per connection.
    acks: DetHashMap<ConnKey, SeqNum>,
    /// Whether the last heartbeat owed this backup an entry for bytes
    /// it had a whole tick to ack.
    trails: bool,
    /// The connections open when this backup returned from the dead that
    /// it has not acked since (see the module docs).
    unshadowed: BTreeSet<ConnKey>,
}

/// See the module docs.
pub struct ClusterEngine {
    cfg: SttcpConfig,
    self_ip: Ipv4Addr,
    topo: Topology,
    role: ClusterRole,
    x_threshold: usize,
    timer: PromotionTimer,
    /// Cold-replay policy: when state reconstruction completes.
    replay_ready_at: Option<SimTime>,
    catchup: CatchupTracker,
    /// As primary: the scheduled `drain_and_handover()`, its instant and
    /// the successor's rank.
    drain: Option<(SimTime, u8)>,
    drain_phase: DrainPhase,
    hb_seq: u64,
    /// The backups in rank order, as primary; retention releases at
    /// the minimum acknowledged point over the live ones.
    peers: Vec<Peer>,
    /// When the last live backup was declared dead (non-fault-tolerant
    /// mode); cleared when one reintegrates.
    backups_dead_at: Option<SimTime>,
    /// Last congestion snapshot mirrored per connection (primary side,
    /// [`SttcpConfig::cong_sync`]); suppresses no-change rebroadcasts.
    cong_sent: DetHashMap<ConnKey, (u32, u32)>,
    /// As primary: the connections touched since their receive frontier
    /// last matched every live backup's ack, each with its frontier at
    /// the last heartbeat that scanned it. The heartbeat's frontier scan
    /// visits only these, in key order, and drops those it finds acked.
    frontier: BTreeMap<ConnKey, Option<SeqNum>>,
    takeover_at: Option<SimTime>,
    outbox: Vec<(Ipv4Addr, SideMsg)>,
    fence_request: Option<u32>,
    logger_queries: Vec<ReplayQuery>,
    last_logger_query: Option<SimTime>,
    bootstrap_attempts: DetHashMap<ConnKey, SimTime>,
    ack_scratch: Vec<catchup::AckOut>,
    req_scratch: Vec<MissingOut>,
    gap_scratch: Vec<catchup::Gap>,
    recorder: SharedRecorder,
    /// Counters.
    pub stats: ClusterStats,
}

fn fresh_peers(topo: &Topology, now: SimTime) -> Vec<Peer> {
    let peer = |&ip| Peer {
        ip,
        last_heard: now,
        alive: true,
        acks: DetHashMap::default(),
        trails: false,
        unshadowed: BTreeSet::new(),
    };
    topo.backups().iter().map(peer).collect()
}

impl ClusterEngine {
    /// Creates the engine for the member `self_ip` of `topology`.
    /// Rank 0 starts as primary, everyone else as a backup.
    /// `x_threshold` is the ack byte threshold `X` (typically ¾ of the
    /// primary's second buffer); `now` starts the liveness clocks (every
    /// peer gets a full detection window to say hello).
    pub fn new(
        cfg: SttcpConfig,
        self_ip: Ipv4Addr,
        topology: Topology,
        x_threshold: usize,
        now: SimTime,
    ) -> Self {
        let rank = topology
            .rank_of(self_ip)
            .unwrap_or_else(|| panic!("{self_ip} is not a member of the topology"));
        let role = if rank == 0 { ClusterRole::Primary } else { ClusterRole::Backup };
        ClusterEngine {
            cfg,
            self_ip,
            role,
            x_threshold,
            timer: PromotionTimer::new(now),
            replay_ready_at: None,
            catchup: CatchupTracker::new(),
            drain: None,
            drain_phase: DrainPhase::Idle,
            hb_seq: 0,
            peers: if rank == 0 { fresh_peers(&topology, now) } else { Vec::new() },
            backups_dead_at: None,
            cong_sent: DetHashMap::default(),
            frontier: BTreeMap::new(),
            takeover_at: None,
            outbox: Vec::new(),
            fence_request: None,
            logger_queries: Vec::new(),
            last_logger_query: None,
            bootstrap_attempts: DetHashMap::default(),
            ack_scratch: Vec::new(),
            req_scratch: Vec::new(),
            gap_scratch: Vec::new(),
            recorder: obs::nop(),
            stats: ClusterStats::default(),
            topo: topology,
        }
    }

    /// Installs an observability recorder (no-op by default).
    pub fn set_recorder(&mut self, recorder: SharedRecorder) {
        self.recorder = recorder;
        let rank = self.rank().unwrap_or(0);
        self.recorder.gauge_max(Gauge::PromotionRank, u64::from(rank) + 1);
    }

    /// The protocol configuration this engine runs.
    pub fn config(&self) -> &SttcpConfig {
        &self.cfg
    }

    /// Current role.
    pub fn role(&self) -> ClusterRole {
        self.role
    }

    /// Current topology view.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// This node's rank in its current topology view.
    pub fn rank(&self) -> Option<u8> {
        self.topo.rank_of(self.self_ip)
    }

    /// Whom this node owes a backup's shadow duties, and its own rank:
    /// a backup's current primary. Anybody else owes nobody (see the
    /// module docs).
    fn upstream(&self) -> Option<(Ipv4Addr, u8)> {
        if self.role != ClusterRole::Backup {
            return None;
        }
        Some((self.topo.primary(), self.rank()?))
    }

    /// Whether this node tracks its connections' receive progress for
    /// somebody (see [`ClusterEngine::note_activity`]).
    pub fn is_shadowing(&self) -> bool {
        self.upstream().is_some()
    }

    /// Whether this node promoted itself at some point.
    pub fn has_taken_over(&self) -> bool {
        self.takeover_at.is_some()
    }

    /// When this node promoted itself.
    pub fn takeover_at(&self) -> Option<SimTime> {
        self.takeover_at
    }

    /// When this node first suspected its current primary.
    pub fn suspected_at(&self) -> Option<SimTime> {
        self.timer.suspected_at()
    }

    /// As primary: whether any backup is considered alive
    /// (fault-tolerant mode).
    pub fn backup_alive(&self) -> bool {
        self.peers.iter().any(|p| p.alive)
    }

    /// As primary: when the last live backup was declared dead, while
    /// none has returned since.
    pub fn backup_dead_at(&self) -> Option<SimTime> {
        self.backups_dead_at
    }

    /// Shadow lag in bytes (promotion-eligible at zero).
    pub fn catchup_lag(&self, stack: &NetStack) -> u64 {
        self.catchup.lag(stack)
    }

    /// Primary-side drain phase.
    pub fn drain_phase(&self) -> DrainPhase {
        self.drain_phase
    }

    /// Schedules `drain_and_handover()` to the rank-`successor_rank`
    /// backup at `at` (call on the serving primary). Panics unless the
    /// reign has a backup at that rank.
    pub fn schedule_drain(&mut self, at: SimTime, successor_rank: u8) {
        let members = self.topo.members().len();
        assert!(
            (1..members).contains(&usize::from(successor_rank)),
            "no backup at rank {successor_rank} to drain to: the chain has {members} members"
        );
        self.drain = Some((at, successor_rank));
    }

    /// How often the node adapter ticks this engine in its current
    /// role: the primary at the heartbeat cadence, a backup at
    /// `SyncTime` (its ack and detection cadence).
    pub fn tick_interval(&self) -> SimDuration {
        match self.role {
            ClusterRole::Backup => self.cfg.effective_sync_time(),
            ClusterRole::Primary | ClusterRole::Retired => self.cfg.hb_interval,
        }
    }

    /// The node adapter accepted `sock` from a service listener. A
    /// shadowing node starts tracking it; a primary with no live backup
    /// (non-fault-tolerant mode) has nobody to retain for.
    pub fn on_accept(&mut self, sock: SockId, stack: &mut NetStack) {
        let Some(tcb) = stack.tcb_mut(sock) else {
            return;
        };
        if self.role == ClusterRole::Primary && !self.backup_alive() {
            tcb.disable_retention();
        }
        if self.is_shadowing() {
            // Baseline at the start of the client's stream, NOT the
            // current rcv_nxt: when the client piggybacks its handshake
            // ACK on the first request, the shadow establishes on a
            // data-carrying frame and rcv_nxt already covers bytes the
            // primary must not discard before we acknowledge them.
            let (key, base) = (ConnKey::from_server_quad(tcb.quad()), tcb.irs().add(1));
            self.register_conn(key, base);
        }
    }

    /// Starts tracking `key`'s receive progress from `initial_next` —
    /// the key-level half of [`ClusterEngine::on_accept`], for callers
    /// that hold no socket (engine-level tests).
    pub fn register_conn(&mut self, key: ConnKey, initial_next: SeqNum) {
        self.catchup.register(key, initial_next);
    }

    /// The node adapter reaped `key`'s closed connection: forget every
    /// per-connection record, so a long-running server's engine state
    /// is bounded by its *open* connections.
    pub fn on_close(&mut self, key: ConnKey) {
        self.catchup.forget(key);
        self.cong_sent.remove(&key);
        self.frontier.remove(&key);
        self.bootstrap_attempts.remove(&key);
        for peer in &mut self.peers {
            peer.acks.remove(&key);
            peer.unshadowed.remove(&key);
        }
    }

    /// Notes that `key`'s socket was touched since the last pump: a
    /// backup queues an ack check of its shadow, a primary the frontier
    /// and congestion check of the next heartbeat.
    pub fn note_activity(&mut self, key: ConnKey) {
        match self.role {
            ClusterRole::Backup => self.catchup.note_activity(key),
            ClusterRole::Primary if self.backup_alive() => {
                self.frontier.entry(key).or_default();
            }
            ClusterRole::Primary | ClusterRole::Retired => {}
        }
    }

    /// Handles one side-channel datagram from `from`.
    pub fn on_side_msg(
        &mut self,
        now: SimTime,
        from: Ipv4Addr,
        msg: SideMsg,
        stack: &mut NetStack,
    ) {
        // The side channel is UDP, so any host can send anything: only
        // the chain this topology was built with is heard.
        if !self.topo.is_in_chain(from) {
            return;
        }
        // Topology adoption first: the liveness check below must judge
        // `from` against the *new* reign when this very message
        // announces one. Only that reign's primary announces it, and
        // only a reign that leaves a member exists.
        if let SideMsg::Heartbeat { epoch, .. } = msg {
            if epoch > self.topo.epoch() && from != self.self_ip {
                if let Some(topo) = self.topo.at_epoch(epoch).filter(|t| t.primary() == from) {
                    self.adopt(now, topo, stack);
                }
            }
        }
        if from == self.topo.primary() && self.role != ClusterRole::Primary {
            // Any datagram from the primary is life (§4.4).
            self.timer.note_heard(now);
            self.recorder.mark_latest(Mark::LastPrimaryHeard, now.as_nanos());
            if let SideMsg::Heartbeat { .. } = msg {
                self.stats.hbs_received += 1;
                self.recorder.count(Counter::HeartbeatsReceived, 1);
            }
        }
        if self.role == ClusterRole::Primary {
            self.note_peer(now, from, stack);
        }
        match msg {
            SideMsg::Heartbeat { entries, .. } => {
                if self.role == ClusterRole::Backup && from == self.topo.primary() {
                    for (conn, ack, cong) in entries {
                        self.on_primary_frontier(now, conn, SeqNum(ack), cong, stack);
                    }
                }
            }
            SideMsg::BackupAck { conn, acked_next } => {
                self.apply_peer_ack(from, conn, SeqNum(acked_next), stack);
            }
            SideMsg::AckBatch { entries } => {
                for (conn, acked_next) in entries {
                    self.apply_peer_ack(from, conn, SeqNum(acked_next), stack);
                }
            }
            SideMsg::MissingReq { conn, from: seq_from, len } => {
                if matches!(self.role, ClusterRole::Primary | ClusterRole::Retired) {
                    self.serve_missing(from, conn, SeqNum(seq_from), len as usize, stack);
                }
            }
            SideMsg::MissingData { conn, seq, data } => {
                if self.role == ClusterRole::Backup {
                    self.apply_missing_data(now, conn, SeqNum(seq), &data, stack);
                }
            }
            SideMsg::MissingNack { conn, .. } => {
                self.catchup.clear_outstanding(conn);
                if self.role == ClusterRole::Backup && self.cfg.use_logger {
                    // The primary no longer holds those bytes; only the
                    // in-network logger can heal the gap now.
                    self.queue_logger_queries(now, stack, false);
                }
            }
            SideMsg::Handover { epoch } => {
                // Only the reign's primary hands over, and only to the
                // rank the epoch-by-rank rule gives this epoch.
                if let Some((primary, rank)) = self.upstream() {
                    if from == primary && epoch == self.topo.epoch() + u32::from(rank) {
                        // The handover is the (benign) death certificate
                        // of the old reign; the takeover marks keep their
                        // crash-case meaning so TakeoverBreakdown reads
                        // the same either way.
                        self.recorder.mark_first(Mark::SuspectedPrimaryDead, now.as_nanos());
                        self.promote(now, stack);
                    }
                }
            }
        }
    }

    /// One heartbeat's frontier entry from the primary (backup role).
    ///
    /// * The cumulative ACK (`primary_ack`, the primary's
    ///   `NextByteExpected`) exposes tap omissions (§4.2).
    /// * A congestion snapshot moves the shadow to the primary's
    ///   operating point, so a takeover does not cold-start from the
    ///   initial window. Advisory: a shadow works without ever seeing
    ///   one.
    fn on_primary_frontier(
        &mut self,
        now: SimTime,
        key: ConnKey,
        primary_ack: SeqNum,
        cong: Option<(u32, u32)>,
        stack: &mut NetStack,
    ) {
        let Some(sock) = stack.sock_by_quad(key.server_quad()) else {
            // The primary is serving a connection we have no shadow
            // for: its SYN was lost on the tap. Late-join extension
            // (beyond the paper): ask the logger to replay the
            // connection's entire client-side history — the replayed
            // SYN builds the shadow with the primary's ISS, and the
            // replayed data catches the application up.
            self.maybe_bootstrap(now, key, primary_ack);
            return;
        };
        if let (Some((cwnd, ssthresh)), Some(tcb)) = (cong, stack.tcb_mut(sock)) {
            tcb.import_congestion(tcpstack::CongSnapshot { cwnd, ssthresh });
        }
        if self.catchup.on_primary_ack(key, primary_ack) {
            self.request_missing_now(now, key, stack);
        }
    }

    /// The shadow stack got a client segment with sequence number `seq`
    /// for `key`, a connection it has no shadow for: its SYN was lost on
    /// the tap. Like a frontier entry for an unknown connection, it asks
    /// the logger for the connection's history (backup role).
    pub fn on_stray(&mut self, now: SimTime, key: ConnKey, seq: SeqNum) {
        if self.role == ClusterRole::Backup {
            self.maybe_bootstrap(now, key, seq);
        }
    }

    /// The backup ack rule (§4.3), the same at every rank: a pump
    /// (`force = false`) acks the connections whose progress crossed X;
    /// the sync tick (`force = true`) acks everything unacked. The pass
    /// sends what it owes as [`SideMsg::AckBatch`]es of at most 63
    /// entries; a datagram that carries one ack is the paper's
    /// [`SideMsg::BackupAck`]. The acks are the backup's heartbeat, so a
    /// tick that owes none sends an empty batch. Visits only connections
    /// queued by [`ClusterEngine::note_activity`] — an idle shadow costs
    /// nothing but that one datagram per tick.
    pub fn maybe_send_acks(&mut self, stack: &mut NetStack, force: bool) {
        let Some((upstream, rank)) = self.upstream() else {
            return;
        };
        let mut acks = std::mem::take(&mut self.ack_scratch);
        acks.clear();
        self.stats.acks_threshold_triggered +=
            self.catchup.collect_acks(stack, self.x_threshold, force, &mut acks);
        // Self-release, while a backup has a deeper rank to serve after
        // a promotion: release up to the previous ack, keeping one ack
        // window of history. The next window grows on top of it, so just
        // before the next ack at X two windows (≈ 2X) are retained, and
        // `fleet::server_stack` gives such a rank twice the primary's
        // retention space. With room for one, the spill would shrink the
        // shadow's receive window below the primary's, and it would drop
        // tapped segments it then has to request again.
        if usize::from(rank) + 1 < self.topo.members().len() {
            for &(key, _, prev) in &acks {
                if let Some(sock) = stack.sock_by_quad(key.server_quad()) {
                    if let Some(tcb) = stack.tcb_mut(sock) {
                        tcb.set_backup_acked(prev);
                    }
                }
            }
        }
        for batch in acks.chunks(ACK_BATCH_MAX) {
            self.stats.acks_sent += batch.len() as u64;
            self.recorder.count(Counter::BackupAcksSent, batch.len() as u64);
            let msg = if let [(conn, next, _)] = *batch {
                SideMsg::BackupAck { conn, acked_next: next.raw() }
            } else {
                self.stats.ack_batches_sent += 1;
                self.recorder.count(Counter::AckBatchesSent, 1);
                SideMsg::AckBatch {
                    entries: batch.iter().map(|&(k, next, _)| (k, next.raw())).collect(),
                }
            };
            self.outbox.push((upstream, msg));
        }
        if force && acks.is_empty() {
            self.outbox.push((upstream, SideMsg::AckBatch { entries: Vec::new() }));
        }
        acks.clear();
        self.ack_scratch = acks;
    }

    /// Periodic tick (every [`ClusterEngine::tick_interval`]),
    /// role-dispatched.
    pub fn on_tick(&mut self, now: SimTime, stack: &mut NetStack) {
        self.hb_seq += 1; // one per tick, whatever this tick sends
        match self.role {
            ClusterRole::Primary => self.primary_tick(now, stack),
            ClusterRole::Backup => self.backup_tick(now, stack),
            ClusterRole::Retired => {}
        }
    }

    /// Drains queued `(destination, message)` pairs into `out`.
    pub fn drain_outbox_into(&mut self, out: &mut Vec<(Ipv4Addr, SideMsg)>) {
        out.append(&mut self.outbox);
    }

    /// Takes the pending fence request (power-switch outlet), if any.
    pub fn take_fence_request(&mut self) -> Option<u32> {
        self.fence_request.take()
    }

    /// Takes the pending logger replay queries.
    pub fn take_logger_queries(&mut self) -> Vec<ReplayQuery> {
        std::mem::take(&mut self.logger_queries)
    }

    // --- internals --------------------------------------------------

    /// Adopts the later reign `topo`, announced by its own primary: this
    /// node is a backup in it or out of it. Only a node's own promotion
    /// lifts suppression.
    fn adopt(&mut self, now: SimTime, topo: Topology, stack: &mut NetStack) {
        self.topo = topo;
        self.stats.adoptions += 1;
        if self.role == ClusterRole::Primary {
            // Superseded: a higher reign exists. Yield the VIP
            // immediately — at-most-one-server is the invariant
            // everything else exists to protect.
            stack.suppress(now, self.cfg.vip);
        }
        match self.rank() {
            Some(rank) => {
                self.role = ClusterRole::Backup;
                self.timer.reset(now);
                self.recorder.gauge_max(Gauge::PromotionRank, u64::from(rank) + 1);
            }
            None => self.role = ClusterRole::Retired,
        }
    }

    fn note_peer(&mut self, now: SimTime, from: Ipv4Addr, stack: &NetStack) {
        let Some(peer) = self.peers.iter_mut().find(|p| p.ip == from) else {
            return;
        };
        peer.last_heard = now;
        if !peer.alive {
            // Reintegration: a backup that returns — typically rebooted
            // — resumes protecting *new* connections. Connections that
            // lived through an all-backups-dead spell stay unprotected:
            // their retention was released then, so their history is
            // unrecoverable (short of the logger). Those open now do not
            // gate its releases until it acks them.
            peer.alive = true;
            peer.unshadowed = stack
                .socks()
                .filter_map(|s| stack.tcb(s))
                .map(|tcb| ConnKey::from_server_quad(tcb.quad()))
                .collect();
            self.backups_dead_at = None;
            self.stats.reintegrations += 1;
        }
    }

    fn apply_peer_ack(
        &mut self,
        from: Ipv4Addr,
        key: ConnKey,
        acked: SeqNum,
        stack: &mut NetStack,
    ) {
        if self.role != ClusterRole::Primary {
            return;
        }
        let Some(peer) = self.peers.iter_mut().find(|p| p.ip == from) else {
            return;
        };
        self.stats.acks_applied += 1;
        self.recorder.count(Counter::BackupAcksReceived, 1);
        let slot = peer.acks.entry(key).or_insert(acked);
        *slot = (*slot).max(acked);
        peer.unshadowed.remove(&key);
        self.release_conn(key, stack);
    }

    /// Releases `key`'s retention at the minimum acknowledged point
    /// over live backups — but only once *every* live backup has acked
    /// the connection at least once (until then its floor is unknown
    /// and everything is held; the per-tick forced ack bounds that
    /// wait to one sync interval). A returned backup that has no shadow
    /// of `key` does not count.
    fn release_conn(&mut self, key: ConnKey, stack: &mut NetStack) {
        let Some(tcb) = stack.sock_by_quad(key.server_quad()).and_then(|s| stack.tcb_mut(s)) else {
            // The connection is gone; so is the need to remember it.
            for peer in &mut self.peers {
                peer.acks.remove(&key);
            }
            return;
        };
        let mut floor: Option<SeqNum> = None;
        for peer in self.peers.iter().filter(|p| p.alive && !p.unshadowed.contains(&key)) {
            match peer.acks.get(&key) {
                Some(&acked) => floor = Some(floor.map_or(acked, |f| f.min(acked))),
                None => return,
            }
        }
        if let Some(floor) = floor {
            tcb.set_backup_acked(floor);
        }
    }

    fn serve_missing(
        &mut self,
        to: Ipv4Addr,
        conn: ConnKey,
        from: SeqNum,
        len: usize,
        stack: &mut NetStack,
    ) {
        // Clamp the request to what we actually hold: [floor, rcv_nxt).
        // A range below the retention floor should not happen while
        // retention is on (that is the §4.2 guarantee), but can after a
        // transition to non-fault-tolerant mode.
        let bytes =
            stack.sock_by_quad(conn.server_quad()).and_then(|s| stack.tcb(s)).and_then(|tcb| {
                let avail = from.add(len as u32).min(tcb.rcv_nxt()).distance(from);
                if avail > 0 {
                    tcb.fetch_rx(from, avail as usize)
                } else {
                    None
                }
            });
        let Some(bytes) = bytes else {
            self.stats.missing_nacked += 1;
            self.recorder.count(Counter::MissingNacks, 1);
            self.outbox.push((to, SideMsg::MissingNack { conn, from: from.raw() }));
            return;
        };
        self.stats.missing_served += 1;
        self.stats.missing_bytes_sent += bytes.len() as u64;
        self.recorder.count(Counter::MissingRepliesServed, 1);
        for (i, chunk) in bytes.chunks(SIDE_CHUNK).enumerate() {
            let seq = from.add((i * SIDE_CHUNK) as u32);
            self.outbox.push((
                to,
                SideMsg::MissingData { conn, seq: seq.raw(), data: Bytes::copy_from_slice(chunk) },
            ));
        }
    }

    fn apply_missing_data(
        &mut self,
        now: SimTime,
        conn: ConnKey,
        seq: SeqNum,
        data: &[u8],
        stack: &mut NetStack,
    ) {
        if let Some(sock) = stack.sock_by_quad(conn.server_quad()) {
            if let Some(tcb) = stack.tcb_mut(sock) {
                tcb.inject_rx(now, seq, data);
                self.stats.missing_bytes_recovered += data.len() as u64;
            }
        }
        self.stats.catchup_replays += 1;
        self.recorder.count(Counter::CatchupReplays, 1);
        // Once the request is answered, ask at once for the next chunk
        // while the primary's known frontier still leads: on an idle
        // connection nothing else would ask before the next heartbeat.
        // Injected bytes are receive progress: queue the ack check.
        if self.catchup.settle_reply(conn, stack) {
            self.request_missing_now(now, conn, stack);
        }
        self.catchup.note_activity(conn);
    }

    /// Fires a full-history replay query for a connection with no
    /// shadow (rate-limited per connection), anchored at a point of the
    /// client's sequence space: the primary's ACK or a client segment.
    fn maybe_bootstrap(&mut self, now: SimTime, key: ConnKey, anchor: SeqNum) {
        if !self.cfg.use_logger {
            return; // without a logger the history is unrecoverable
        }
        let retry = self.cfg.effective_sync_time().saturating_mul(2);
        if let Some(&last) = self.bootstrap_attempts.get(&key) {
            if now.checked_duration_since(last).is_none_or(|d| d < retry) {
                return;
            }
        }
        self.bootstrap_attempts.insert(key, now);
        self.stats.bootstrap_queries += 1;
        self.recorder.count(Counter::BootstrapQueries, 1);
        // A half-space window backwards from the anchor covers the
        // whole connection history including the SYN.
        self.logger_queries.push(ReplayQuery {
            src_ip: key.client_ip,
            dst_ip: key.server_ip,
            src_port: key.client_port,
            dst_port: key.server_port,
            seq_from: anchor.sub(1 << 30).raw(),
            seq_to: anchor.add(1 << 20).raw(),
        });
    }

    fn request_missing_now(&mut self, now: SimTime, key: ConnKey, stack: &NetStack) {
        let mut reqs = std::mem::take(&mut self.req_scratch);
        reqs.clear();
        self.catchup.request_missing(now, key, self.cfg.missing_req_chunk, stack, &mut reqs);
        self.push_missing_reqs(self.topo.primary(), &mut reqs);
        self.req_scratch = reqs;
    }

    fn push_missing_reqs(&mut self, to: Ipv4Addr, reqs: &mut Vec<MissingOut>) {
        for (key, from, len) in reqs.drain(..) {
            self.stats.missing_reqs += 1;
            self.recorder.count(Counter::MissingReqsSent, 1);
            self.outbox.push((to, SideMsg::MissingReq { conn: key, from: from.raw(), len }));
        }
    }

    /// One heartbeat per backup, stamped with this reign's epoch: every
    /// member derives the reign's members from it, so deeper ranks and
    /// members that missed a promotion re-anchor on it. It carries the
    /// frontier entries owed to that backup, [`HB_ENTRIES_MAX`] to a
    /// datagram; the rest go in further heartbeats of the same seq.
    fn broadcast_heartbeat(&mut self, stack: &NetStack) {
        let owed = self.owed_entries(stack);
        let (seq, epoch) = (self.hb_seq, self.topo.epoch());
        for (i, peer) in self.peers.iter().enumerate() {
            let entries = owed.get(i).map_or(&[][..], Vec::as_slice);
            let mut batches = entries.chunks(HB_ENTRIES_MAX);
            let first = batches.next().unwrap_or_default();
            for batch in std::iter::once(first).chain(batches) {
                let msg = SideMsg::Heartbeat { seq, epoch, entries: batch.to_vec() };
                self.outbox.push((peer.ip, msg));
                self.stats.hbs_sent += 1;
                self.recorder.count(Counter::HeartbeatsSent, 1);
            }
        }
    }

    fn primary_tick(&mut self, now: SimTime, stack: &mut NetStack) {
        self.broadcast_heartbeat(stack);
        self.drain_tick(now, stack);
        // Backup liveness (§4.4, N-ary): a silent backup stops gating
        // retention release; when the *last* one goes silent "the
        // primary transitions to non-fault-tolerant mode".
        let deadline = self.cfg.hb_interval.saturating_mul(u64::from(self.cfg.missed_hb_threshold));
        let mut longest_silence = None;
        for peer in self.peers.iter_mut().filter(|p| p.alive) {
            let silence = now.checked_duration_since(peer.last_heard);
            if silence.is_some_and(|d| d > deadline) {
                peer.alive = false;
                longest_silence = longest_silence.max(silence);
            }
        }
        if let Some(silence) = longest_silence {
            if let Some(survivor) = self.peers.iter().find(|p| p.alive) {
                // The dead peer no longer gates releases: re-derive
                // every connection's floor from the survivors (a
                // releasable connection has an entry with each of them),
                // in key order — a release can put a segment on the wire.
                let mut keys: Vec<ConnKey> = survivor.acks.keys().copied().collect();
                keys.sort_unstable();
                for key in keys {
                    self.release_conn(key, stack);
                }
            } else {
                self.backups_dead_at = Some(now);
                self.recorder.trace(
                    now.as_nanos(),
                    &TraceEvent::BackupDead { silent_ns: silence.as_nanos() },
                );
                release_all_retention(stack);
            }
        }
        // A freshly promoted primary may still have gaps of its own;
        // keep asking the logger while they last (the replayed frames
        // themselves ride the lossy tap path).
        if self.takeover_at.is_some() && self.cfg.use_logger && self.logger_query_due(now) {
            self.queue_logger_queries(now, stack, false);
        }
    }

    /// Planned migration (see the module docs): once the drain is due,
    /// hands over at the first heartbeat on which the live successor
    /// trails on nothing.
    fn drain_tick(&mut self, now: SimTime, stack: &mut NetStack) {
        let Some((_, rank)) = self.drain.filter(|&(at, _)| now >= at) else {
            return;
        };
        let epoch = self.topo.epoch() + u32::from(rank);
        if self.drain_phase == DrainPhase::Idle {
            self.drain_phase = DrainPhase::Draining;
            let phase = MigrationPhase::DrainStarted;
            self.recorder.trace(now.as_nanos(), &TraceEvent::PlannedMigration { phase, epoch });
        }
        let Some(peer) = self.peers.get(usize::from(rank) - 1) else {
            return;
        };
        if !peer.alive || peer.trails || !peer.unshadowed.is_empty() {
            return;
        }
        self.outbox.push((peer.ip, SideMsg::Handover { epoch }));
        // Fence ourselves: the successor owns the VIP the instant it
        // reads the Handover. Retention stays on, and the retired
        // primary still answers missing-segment requests.
        stack.suppress(now, self.cfg.vip);
        self.role = ClusterRole::Retired;
        self.drain_phase = DrainPhase::HandedOver;
        self.stats.migrations += 1;
        self.recorder.count(Counter::PlannedMigrations, 1);
        let phase = MigrationPhase::HandedOver;
        self.recorder.trace(now.as_nanos(), &TraceEvent::PlannedMigration { phase, epoch });
    }

    /// The heartbeat's frontier, per peer: for each live backup, an
    /// entry for every touched connection whose receive frontier at the
    /// previous heartbeat leads that backup's last ack — bytes the
    /// backup has had a whole tick to ack and has not — or, with
    /// [`SttcpConfig::cong_sync`] on, whose established congestion
    /// snapshot changed since it was last mirrored (the entry then
    /// carries it). The backup's ack tick falls on the primary's, so
    /// what arrived since the previous heartbeat is normally acked by a
    /// datagram still in flight: judging it now would send an entry per
    /// active connection per tick. A connection whose frontier leads
    /// nobody leaves the scan until it is touched again. A backup that
    /// never acked a connection is taken to hold its stream's start. A
    /// backup owed an entry for bytes it had a tick to ack `trails`.
    fn owed_entries(&mut self, stack: &NetStack) -> Vec<Vec<FrontierEntry>> {
        for peer in &mut self.peers {
            peer.trails = false;
        }
        if self.frontier.is_empty() || !self.backup_alive() {
            return Vec::new();
        }
        let mut owed: Vec<Vec<FrontierEntry>> = vec![Vec::new(); self.peers.len()];
        let (peers, cong_sent, recorder) = (&mut self.peers, &mut self.cong_sent, &self.recorder);
        let cong_sync = self.cfg.cong_sync;
        self.frontier.retain(|&key, held| {
            let Some(tcb) = stack.sock_by_quad(key.server_quad()).and_then(|s| stack.tcb(s)) else {
                return false;
            };
            let cong = (cong_sync && tcb.state() == TcpState::Established)
                .then(|| tcb.export_congestion())
                .map(|snap| (snap.cwnd, snap.ssthresh))
                .filter(|&pair| cong_sent.insert(key, pair) != Some(pair));
            let (front, base) = (tcb.rcv_nxt(), tcb.irs().add(1));
            let mut leads = false;
            for (i, peer) in peers.iter_mut().enumerate().filter(|(_, p)| p.alive) {
                let acked = peer.acks.get(&key).copied().unwrap_or(base);
                let trails = held.is_some_and(|h| h.gt(acked));
                peer.trails |= trails;
                if trails || cong.is_some() {
                    owed[i].push((key, tcb.ack_seq().raw(), cong));
                    if cong.is_some() {
                        recorder.count(Counter::CongSyncsSent, 1);
                    }
                }
                leads |= front.gt(acked);
            }
            *held = Some(front);
            leads
        });
        owed
    }

    fn backup_tick(&mut self, now: SimTime, stack: &mut NetStack) {
        // The shadow duties owed to the primary on every tick: the
        // forced ack flush (§4.3), which is also this backup's liveness
        // (§4.4), and the retry of stale missing-segment requests.
        let primary = self.topo.primary();
        self.maybe_send_acks(stack, true);
        let window = self.cfg.effective_sync_time().saturating_mul(2);
        let mut reqs = std::mem::take(&mut self.req_scratch);
        reqs.clear();
        self.catchup.retry_stale(now, window, self.cfg.missing_req_chunk, stack, &mut reqs);
        self.push_missing_reqs(primary, &mut reqs);
        self.req_scratch = reqs;
        let Some(rank) = self.rank() else {
            return;
        };
        // Failure detection, staggered by rank: suspect → fence →
        // take over (§4.4).
        if let Some(silence) = self.timer.check(now, promotion::detection_deadline(&self.cfg, rank))
        {
            self.recorder.mark_first(Mark::SuspectedPrimaryDead, now.as_nanos());
            self.recorder
                .trace(now.as_nanos(), &TraceEvent::Suspected { silent_ns: silence.as_nanos() });
            if let Fencing::PowerSwitch { outlet } = self.cfg.fencing {
                self.fence_request = Some(outlet);
                self.recorder.mark_first(Mark::FenceRequested, now.as_nanos());
                self.recorder.trace(now.as_nanos(), &TraceEvent::Fence { outlet });
            }
            self.replay_ready_at = self.cold_replay_done(now, stack);
        }
        if self.timer.is_suspected() {
            let lag = self.catchup.lag(stack);
            self.recorder.gauge_max(Gauge::CatchupLagBytes, lag);
            // A lagging member yields while a deeper rank could still
            // promote in its place. The last rank has nobody to yield
            // to: once the primary is dead only the logger can close a
            // gap, so waiting would leave the VIP unserved forever (with
            // one backup this is the paper's unconditional takeover).
            let my_turn = lag == 0 || usize::from(rank) + 1 == self.topo.members().len();
            if my_turn && self.replay_ready_at.is_none_or(|ready| now >= ready) {
                self.promote(now, stack);
                return;
            }
            // Keep healing: the primary is suspected dead, so only the
            // logger can close the gap.
            if lag > 0 && self.cfg.use_logger && self.logger_query_due(now) {
                self.queue_logger_queries(now, stack, false);
            }
        }
    }

    /// [`TakeoverPolicy::ColdReplay`]: when an FT-TCP-style standby
    /// that suspects the primary at `now` would be ready to serve
    /// (paper §2) — it starts a replacement process and replays the
    /// connection history through the application first. The history is
    /// the input stream plus the output the app must regenerate (and
    /// discard) to reach the crash-point state. We model the cost; the
    /// shadow state itself is already correct. `None` for ST-TCP's
    /// active backup, which is ready at once.
    fn cold_replay_done(&self, now: SimTime, stack: &NetStack) -> Option<SimTime> {
        let TakeoverPolicy::ColdReplay { restart_delay, replay_rate_bps } =
            self.cfg.takeover_policy
        else {
            return None;
        };
        let total_bytes: u64 = stack
            .socks()
            .filter_map(|s| stack.tcb(s))
            .map(|t| t.stats.bytes_in + t.stats.bytes_out)
            .sum();
        let replay = SimDuration::from_nanos(
            total_bytes.saturating_mul(1_000_000_000) / replay_rate_bps.max(1),
        );
        Some(now + restart_delay + replay)
    }

    fn logger_query_due(&self, now: SimTime) -> bool {
        let every = self.cfg.effective_sync_time().saturating_mul(2);
        self.last_logger_query
            .is_none_or(|t| now.checked_duration_since(t).is_some_and(|d| d >= every))
    }

    /// Double-failure masking: any gap between what the primary
    /// acknowledged and what we hold can only be healed by the
    /// in-network logger once the primary is gone.
    fn queue_logger_queries(&mut self, now: SimTime, stack: &NetStack, tails: bool) {
        self.last_logger_query = Some(now);
        let mut gaps = std::mem::take(&mut self.gap_scratch);
        gaps.clear();
        self.catchup.gaps(stack, tails, &mut gaps);
        for &(key, from, to) in &gaps {
            self.logger_queries.push(ReplayQuery {
                src_ip: key.client_ip,
                dst_ip: key.server_ip,
                src_port: key.client_port,
                dst_port: key.server_port,
                seq_from: from.raw(),
                seq_to: to.raw(),
            });
            self.stats.logger_queries += 1;
            self.recorder.count(Counter::LoggerQueries, 1);
        }
        gaps.clear();
        self.gap_scratch = gaps;
    }

    fn become_primary(&mut self, now: SimTime, stack: &mut NetStack) {
        stack.unsuppress(now, self.cfg.vip);
        self.role = ClusterRole::Primary;
        self.takeover_at = Some(now);
        self.recorder.mark_first(Mark::TakeoverUnsuppressed, now.as_nanos());
        self.recorder.trace(now.as_nanos(), &TraceEvent::Promoted);
        self.stats.promotions += 1;
        self.recorder.gauge_max(Gauge::PromotionRank, 1);
        self.peers = fresh_peers(&self.topo, now);
        if self.peers.is_empty() {
            // The end of the chain: nobody left to retain for.
            release_all_retention(stack);
        }
        // Speak first: a client that sent what the dead primary never
        // answered is backing off, and so is a suppressed shadow's timer.
        // The retransmissions are paced across one heartbeat.
        let socks: Vec<_> = stack.socks().collect();
        let step = self.cfg.hb_interval / socks.len().max(1) as u64;
        for (i, sock) in socks.into_iter().enumerate() {
            if let Some(tcb) = stack.tcb_mut(sock) {
                tcb.speak_first(now + step * i as u64);
            }
        }
    }

    fn promote(&mut self, now: SimTime, stack: &mut NetStack) {
        let rank = self.rank().expect("only members promote");
        self.topo = self.topo.promoted(rank);
        self.become_primary(now, stack);
        // Announce the new reign immediately — deeper ranks re-anchor
        // their detection clocks on us instead of promoting in parallel.
        self.broadcast_heartbeat(stack);
        if self.cfg.use_logger {
            // The last frontier the dead primary sent is up to one
            // heartbeat old: ask for what may follow every shadow too.
            self.queue_logger_queries(now, stack, true);
        }
    }
}

/// Non-fault-tolerant mode: drops every connection's retention.
fn release_all_retention(stack: &mut NetStack) {
    let socks: Vec<_> = stack.socks().collect();
    for sock in socks {
        if let Some(tcb) = stack.tcb_mut(sock) {
            tcb.disable_retention();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::SimDuration;
    use tcpstack::StackConfig;
    use wire::MacAddr;

    const VIP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 100);

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, last)
    }

    fn cfg() -> SttcpConfig {
        SttcpConfig::new(VIP, 80)
    }

    fn topo() -> Topology {
        Topology::new(vec![ip(2), ip(3), ip(4)])
    }

    fn stack_for(last: u8, suppressed: bool) -> NetStack {
        let mut c = StackConfig::host(MacAddr::local(u32::from(last)), ip(last));
        c.extra_ips = vec![VIP];
        if suppressed {
            c.suppressed_ips = vec![VIP];
        }
        NetStack::new(c)
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn epoch0_primary_sends_the_plain_heartbeat_to_every_backup() {
        let mut e = ClusterEngine::new(cfg(), ip(2), topo(), 1024, SimTime::ZERO);
        let mut s = stack_for(2, false);
        e.on_tick(t(50), &mut s);
        let mut out = Vec::new();
        e.drain_outbox_into(&mut out);
        assert_eq!(
            out,
            vec![
                (ip(3), SideMsg::Heartbeat { seq: 1, epoch: 0, entries: vec![] }),
                (ip(4), SideMsg::Heartbeat { seq: 1, epoch: 0, entries: vec![] })
            ],
            "one targeted heartbeat per backup, rank order"
        );
        assert_eq!(e.stats.hbs_sent, 2);
    }

    #[test]
    fn rank1_promotes_at_its_deadline_and_announces_the_new_reign() {
        let mut e = ClusterEngine::new(cfg(), ip(3), topo(), 1024, SimTime::ZERO);
        let mut s = stack_for(3, true);
        assert!(s.is_suppressed(VIP));
        // hb 50 ms × threshold 3 → deadline 150 ms for rank 1.
        e.on_tick(t(150), &mut s);
        assert_eq!(e.role(), ClusterRole::Backup, "not past the deadline yet");
        e.on_tick(t(200), &mut s);
        assert_eq!(e.role(), ClusterRole::Primary);
        assert!(!s.is_suppressed(VIP), "takeover lifts the suppression");
        assert_eq!(e.topology().epoch(), 1);
        assert_eq!(e.topology().members(), &[ip(3), ip(4)]);
        let mut out = Vec::new();
        e.drain_outbox_into(&mut out);
        assert!(
            out.iter()
                .any(|(to, m)| *to == ip(4) && matches!(m, SideMsg::Heartbeat { epoch: 1, .. })),
            "the new primary announces its reign to the survivors at once"
        );
    }

    #[test]
    fn rank2_waits_out_its_stagger_and_re_anchors_on_the_new_primary() {
        let mut e = ClusterEngine::new(cfg(), ip(4), topo(), 1024, SimTime::ZERO);
        let mut s = stack_for(4, true);
        // Rank 2's deadline is 150 + 100 = 250 ms; at 200 ms it still
        // waits even though rank 1 would have promoted already.
        e.on_tick(t(200), &mut s);
        assert_eq!(e.role(), ClusterRole::Backup);
        assert!(s.is_suppressed(VIP));
        // The new primary's heartbeat arrives: adopt, reset the clock.
        e.on_side_msg(
            t(205),
            ip(3),
            SideMsg::Heartbeat { seq: 1, epoch: 1, entries: vec![] },
            &mut s,
        );
        assert_eq!(e.topology().epoch(), 1);
        assert_eq!(e.rank(), Some(1), "rank 2 became rank 1 under the new reign");
        // Old deadline instant passes harmlessly — the clock restarted.
        e.on_tick(t(260), &mut s);
        assert_eq!(e.role(), ClusterRole::Backup);
        // But the new primary's silence is detected on the rank-1
        // deadline measured from the adoption.
        e.on_tick(t(400), &mut s);
        assert_eq!(e.role(), ClusterRole::Primary, "cascade: promoted over the new reign");
        assert_eq!(e.topology().epoch(), 2, "epoch-by-rank: both paths converge on 2");
        assert_eq!(e.topology().members(), &[ip(4)]);
    }

    #[test]
    fn superseded_primary_yields_the_vip() {
        let mut e = ClusterEngine::new(cfg(), ip(2), topo(), 1024, SimTime::ZERO);
        let mut s = stack_for(2, false);
        assert!(!s.is_suppressed(VIP));
        // Only a reign's own primary announces it, and only a reign
        // that leaves a member exists: none of these is one.
        for (from, epoch) in [(ip(4), 1), (ip(9), 1), (ip(4), 3), (ip(4), u32::MAX)] {
            e.on_side_msg(
                t(300),
                from,
                SideMsg::Heartbeat { seq: 9, epoch, entries: vec![] },
                &mut s,
            );
            assert_eq!(
                (e.role(), e.topology().epoch()),
                (ClusterRole::Primary, 0),
                "{from} {epoch}"
            );
        }
        assert!(!s.is_suppressed(VIP));
        // A higher reign (e.g. we were wrongly suspected) drops us: we
        // yield the VIP and retire.
        e.on_side_msg(
            t(400),
            ip(4),
            SideMsg::Heartbeat { seq: 1, epoch: 2, entries: vec![] },
            &mut s,
        );
        assert_eq!(e.role(), ClusterRole::Retired);
        assert!(s.is_suppressed(VIP), "at most one server sources the VIP");
        assert_eq!(e.topology().members(), &[ip(4)]);
    }

    #[test]
    fn planned_migration_hands_over_with_matching_epochs() {
        let mut p = ClusterEngine::new(cfg(), ip(2), topo(), 1024, SimTime::ZERO);
        let mut b = ClusterEngine::new(cfg(), ip(3), topo(), 1024, SimTime::ZERO);
        let mut ps = stack_for(2, false);
        let mut bs = stack_for(3, true);
        p.schedule_drain(t(100), 1);
        p.on_tick(t(50), &mut ps);
        assert_eq!(p.drain_phase(), DrainPhase::Idle, "not due yet");
        // Due, and the successor trails on nothing (it has no connection
        // to trail on): the first due heartbeat hands over.
        p.on_tick(t(100), &mut ps);
        assert_eq!(p.drain_phase(), DrainPhase::HandedOver);
        assert_eq!(p.role(), ClusterRole::Retired);
        assert!(ps.is_suppressed(VIP), "the retiring primary fences its VIP");
        assert_eq!(p.stats.migrations, 1);
        let mut out = Vec::new();
        p.drain_outbox_into(&mut out);
        assert_eq!(
            out.last(),
            Some(&(ip(3), SideMsg::Handover { epoch: 1 })),
            "epoch-by-rank: 0 + rank 1, after the tick's heartbeats"
        );
        // A handover with another epoch, or from anyone but the reign's
        // primary, moves nothing.
        for (from, epoch) in [(ip(2), 0), (ip(2), 2), (ip(4), 1)] {
            b.on_side_msg(t(101), from, SideMsg::Handover { epoch }, &mut bs);
            assert_eq!(b.role(), ClusterRole::Backup, "{from} {epoch}");
        }
        // The successor promotes under the agreed epoch.
        b.on_side_msg(t(101), ip(2), SideMsg::Handover { epoch: 1 }, &mut bs);
        assert_eq!(b.role(), ClusterRole::Primary);
        assert!(!bs.is_suppressed(VIP));
        assert_eq!(b.topology().epoch(), 1);
        assert_eq!(b.topology().members(), &[ip(3), ip(4)]);
        // The retired primary adopts the new reign without reclaiming.
        out.clear();
        b.drain_outbox_into(&mut out);
        let hb = out
            .iter()
            .find(|(_, m)| matches!(m, SideMsg::Heartbeat { epoch: 1, .. }))
            .expect("new reign announced")
            .1
            .clone();
        p.on_side_msg(t(102), ip(3), hb, &mut ps);
        assert_eq!(p.role(), ClusterRole::Retired);
        assert!(ps.is_suppressed(VIP));
    }

    /// 1 000 connections, and a stack holding each as a half-open
    /// passive open of member `last` (its shadow when `suppressed`).
    fn thousand_conns(last: u8, suppressed: bool) -> (NetStack, Vec<ConnKey>) {
        use wire::{EtherType, EthernetFrame, IpProtocol, Ipv4Packet, TcpFlags, TcpSegment};
        let mut stack = stack_for(last, suppressed);
        stack.listen(80);
        let keys: Vec<ConnKey> = (0..1_000u16)
            .map(|i| ConnKey {
                client_ip: Ipv4Addr::new(10, 1, (i >> 8) as u8, i as u8),
                client_port: 40_000 + i % 7,
                server_ip: VIP,
                server_port: 80,
            })
            .collect();
        for key in &keys {
            let syn = TcpSegment::bare(key.client_port, 80, 7, 0, TcpFlags::SYN, 8192);
            let (src, dst) = (key.client_ip, VIP);
            let ip = Ipv4Packet::new(src, dst, IpProtocol::Tcp, syn.encode(src, dst));
            let (to, from) = (MacAddr::local(u32::from(last)), MacAddr::local(1));
            stack.handle_frame(
                t(0),
                EthernetFrame::new(to, from, EtherType::Ipv4, ip.encode()).encode(),
            );
        }
        stack.poll(t(0));
        assert_eq!(stack.sock_count(), keys.len());
        (stack, keys)
    }

    /// `keys`, inserted first to last or last to first.
    fn in_order(keys: &[ConnKey], reverse: bool) -> Vec<ConnKey> {
        let mut keys = keys.to_vec();
        if reverse {
            keys.reverse();
        }
        keys
    }

    #[test]
    fn gaps_come_in_key_order_whatever_order_the_keys_went_in() {
        let (stack, keys) = thousand_conns(3, true);
        let gaps = |reverse: bool| {
            let mut tracker = CatchupTracker::new();
            for key in in_order(&keys, reverse) {
                tracker.register(key, SeqNum(8));
                tracker.on_primary_ack(key, SeqNum(5_000));
            }
            let mut out = Vec::new();
            tracker.gaps(&stack, false, &mut out);
            out
        };
        let forward = gaps(false);
        assert_eq!(forward.len(), keys.len(), "every shadow trails the primary");
        assert_eq!(forward, gaps(true));
        assert!(forward.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn a_dead_backups_releases_come_in_key_order_whatever_order_the_acks_came_in() {
        // Both backups have acked every connection; the second falls
        // silent, and the primary re-derives every floor from the first.
        // Each release touches its socket, in the order it is walked.
        let released = |reverse: bool| {
            let (mut stack, keys) = thousand_conns(2, false);
            stack.set_activity_tracking(true);
            let mut e = ClusterEngine::new(cfg(), ip(2), topo(), 1024, SimTime::ZERO);
            for peer in &mut e.peers {
                for key in in_order(&keys, reverse) {
                    peer.acks.insert(key, SeqNum(8));
                }
            }
            e.peers[0].last_heard = t(1_000);
            e.on_tick(t(1_000), &mut stack);
            assert!(e.peers[0].alive && !e.peers[1].alive);
            let mut touched = Vec::new();
            stack.drain_activity(&mut touched);
            let key = |sock| ConnKey::from_server_quad(stack.tcb(sock).expect("live").quad());
            touched.into_iter().map(key).collect::<Vec<_>>()
        };
        let forward = released(false);
        assert_eq!(forward.len(), 1_000);
        assert_eq!(forward, released(true));
        assert!(forward.windows(2).all(|w| w[0] < w[1]));
    }
}

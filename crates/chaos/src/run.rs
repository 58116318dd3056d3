//! Executing one chaos run: probe, inject, observe, judge.
//!
//! A run is two deterministic simulations. The **probe** pass executes
//! the workload fault-free to map schedule percentages onto virtual
//! instants (total duration, first-FIN time). The **faulted** pass
//! replays the same testbed with the plan's crash schedule and ingress
//! rules installed, a frame probe digesting every transmission, and the
//! invariant oracles sampled between scheduler chunks and at the end.
//!
//! Both passes, the probe and every oracle are written once, over the
//! rank-ordered [`Fleet`] view: the paper's pair is the chain with
//! ranks 0 and 1 and a single client.

use crate::json::Value;
use crate::oracle::{
    check_seq_agreement, check_single_server, OracleKind, ShadowSample, Violation,
};
use crate::plan::{rank_tag, FaultOp, FaultPlan};
use apps::Workload;
use bytes::Bytes;
use netsim::node::NodeId;
use netsim::pcap::SharedPcap;
use netsim::{
    DelayRule, DropRule, DuplicateRule, IngressRule, LinkProfile, LossModel, RuleId, SimDuration,
    SimTime,
};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use sttcp::cluster::promotion::detection_deadline;
use sttcp::fleet::{self, Fleet, FleetSpec};
use sttcp::node::{ClientNode, ServerNode};
use sttcp::scenario::{addrs, build, RunLimits, ScenarioSpec, StopReason, Topology};
use sttcp::{ClusterRole, SttcpConfig};
use tcpstack::{CongestionAlgo, TcpState};
use wire::{EtherType, EthernetFrame, IpProtocol, Ipv4Packet, TcpFlags, TcpSegment, UdpDatagram};

/// What a chaos run runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Testbed {
    /// The paper's testbed (§6): one client driving one workload at a
    /// primary and its backup on a hub, with the in-network logger
    /// (§3.2) on the client's path.
    Pair {
        /// The client workload.
        workload: Workload,
        /// Whether fencing (power switch) is deployed — the demo
        /// campaigns keep it on; the canary turns it off to prove the
        /// oracles notice.
        fencing: bool,
    },
    /// The benchmark's `wan_loss_failover` testbed: one client driving
    /// one workload at a primary and its backup on a port-mirroring
    /// switch, with 2 MB receive and 4 MB send buffers under window
    /// scaling, and neither logger nor fencing hardware.
    Mirrored {
        /// The client workload.
        workload: Workload,
    },
    /// A primary and `backups` chained backups behind a mirroring
    /// switch, serving `clients` of the seeded workload mix. The chain
    /// has no fencing hardware and no logger.
    Chain {
        /// Chain length N (≥ 1).
        backups: usize,
        /// Workload clients in the fleet.
        clients: usize,
    },
}

impl Testbed {
    /// Servers in the testbed (ranks `0..servers`).
    pub fn servers(&self) -> usize {
        match *self {
            Testbed::Pair { .. } | Testbed::Mirrored { .. } => 2,
            Testbed::Chain { backups, .. } => 1 + backups,
        }
    }

    /// Short name for reports (`echo`, `chain 1+3 × 40`).
    pub fn label(&self) -> String {
        match *self {
            Testbed::Pair { workload, .. } => workload.label().to_string(),
            Testbed::Mirrored { workload } => format!("{} on a mirror", workload.label()),
            Testbed::Chain { backups, clients } => format!("chain 1+{backups} × {clients}"),
        }
    }
}

/// Everything one chaos run needs: the testbed plus the fault schedule
/// and the knobs common to every testbed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSpec {
    /// What to run on.
    pub testbed: Testbed,
    /// Simulation seed (drives ISNs, the chain's workload mix,
    /// probabilistic rules, jitter).
    pub seed: u64,
    /// The fault schedule.
    pub plan: FaultPlan,
    /// Virtual-time budget for each pass.
    pub limit: SimDuration,
    /// Event budget for each pass (runaway-loop backstop).
    pub max_events: u64,
    /// Link characteristics on every hop (LAN reproduces the paper's
    /// testbed; the WAN profiles stress recovery under loss and delay).
    pub link: LinkProfile,
    /// Congestion-control algorithm on every host.
    pub congestion: CongestionAlgo,
    /// Negotiate RFC 2018 SACK on every host.
    pub sack: bool,
}

impl RunSpec {
    fn on(testbed: Testbed, seed: u64, plan: FaultPlan) -> Self {
        RunSpec {
            testbed,
            seed,
            plan,
            limit: SimDuration::from_secs(60),
            max_events: 20_000_000,
            link: LinkProfile::Lan,
            congestion: CongestionAlgo::Reno,
            sack: false,
        }
    }

    /// A run on the fenced pair with default budgets (60 virtual
    /// seconds, 20 M events).
    pub fn new(workload: Workload, seed: u64, plan: FaultPlan) -> Self {
        RunSpec::on(Testbed::Pair { workload, fencing: true }, seed, plan)
    }

    /// A run on the benchmark's mirrored pair, same budgets.
    pub fn mirrored(workload: Workload, seed: u64, plan: FaultPlan) -> Self {
        RunSpec::on(Testbed::Mirrored { workload }, seed, plan)
    }

    /// A run on a chain of `backups` serving `clients`, same budgets.
    pub fn chain(backups: usize, clients: usize, seed: u64, plan: FaultPlan) -> Self {
        RunSpec::on(Testbed::Chain { backups, clients }, seed, plan)
    }

    /// Disables fencing (builder style) — the intentionally-broken
    /// configuration the canary uses.
    ///
    /// # Panics
    ///
    /// Panics on a chain or the mirrored pair: neither has fencing
    /// hardware to take away.
    #[must_use]
    pub fn without_fencing(mut self) -> Self {
        match &mut self.testbed {
            Testbed::Pair { fencing, .. } => *fencing = false,
            _ => panic!("this testbed has no fencing to disable"),
        }
        self
    }

    /// Runs every hop on `profile` (builder style).
    #[must_use]
    pub fn on_link(mut self, profile: LinkProfile) -> Self {
        self.link = profile;
        self
    }

    /// Selects the congestion-control algorithm (builder style).
    #[must_use]
    pub fn with_congestion(mut self, algo: CongestionAlgo) -> Self {
        self.congestion = algo;
        self
    }

    /// Negotiates SACK on every host (builder style).
    #[must_use]
    pub fn with_sack(mut self) -> Self {
        self.sack = true;
        self
    }
}

/// Quantile→instant map measured by the fault-free probe pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Profile {
    /// Fault-free completion time of the workload.
    pub duration: SimDuration,
    /// Departure time of the first FIN segment on a service
    /// connection, when the probe observed one.
    pub first_fin: Option<SimTime>,
}

impl Profile {
    /// The instant at `pct` % of the fault-free duration.
    pub fn at_pct(&self, pct: u8) -> SimTime {
        let ns = (u128::from(self.duration.as_nanos()) * u128::from(pct) / 100) as u64;
        SimTime::ZERO + SimDuration::from_nanos(ns)
    }
}

/// The judged result of one chaos run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Why the faulted pass stopped.
    pub reason: StopReason,
    /// Invariant violations, in observation order. Empty ⇒ pass.
    pub violations: Vec<Violation>,
    /// FNV-1a digest over every frame transmission of the faulted pass
    /// (time, endpoints, bytes) — the replay fingerprint.
    pub digest: u64,
    /// Fault-free duration from the probe pass (zero if not needed).
    pub probe_duration: SimDuration,
    /// Virtual time the faulted pass consumed.
    pub virtual_duration: SimDuration,
    /// Delay from the fault that handed the expected survivor the chain
    /// to its takeover, when it took over.
    pub takeover_latency: Option<SimDuration>,
    /// Topology epoch the expected survivor serves under at the end.
    pub final_epoch: u32,
    /// Response bytes received / expected, summed over the clients.
    pub progress: (u64, u64),
    /// Per-injection counters: (op description, matched, fired).
    pub injections: Vec<(String, u64, u64)>,
    /// Observability counter snapshot of the faulted pass (`sttcp-obs-v1`),
    /// ready to embed in reports and artifacts.
    pub obs: Option<Value>,
    /// Tail of the flight-recorder trace (newest events) of the faulted
    /// pass (`sttcp-trace-v1`), ready to embed in reports and artifacts.
    pub trace: Option<Value>,
}

impl RunReport {
    /// True when every oracle stayed green.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// The first violation's oracle, if any.
    pub fn first_oracle(&self) -> Option<OracleKind> {
        self.violations.first().map(|v| v.oracle)
    }
}

/// Flight-recorder ring capacity for chaos runs: enough to hold the
/// whole failure neighbourhood while keeping per-run memory small.
const TRACE_RING: usize = 4096;

/// How many newest trace events a report/artifact embeds.
const TRACE_TAIL: usize = 256;

/// The one protocol configuration of a chaos run; the testbed's devices
/// (logger, power switch) follow from it.
fn sttcp_cfg(spec: &RunSpec) -> SttcpConfig {
    let mut cfg = SttcpConfig::new(addrs::VIP, 80);
    if let Testbed::Pair { fencing, .. } = spec.testbed {
        // The in-network packet logger (§3.2) is part of the full ST-TCP
        // deployment and is what makes tap omissions recoverable even
        // when the primary dies before healing them over the side
        // channel (double failures). The pair exercises that full
        // configuration.
        cfg = cfg.with_logger();
        if fencing {
            cfg = cfg.with_fencing(0);
        }
    }
    if spec.link.spec().loss != LossModel::None {
        // The paper's threshold of 3 assumes a loss-free LAN side
        // channel. On bursty profiles a Gilbert–Elliott bad period eats
        // several consecutive heartbeats, so the deployment provisions a
        // larger silence budget (and mirrors congestion state, which is
        // pointless on a LAN but saves the slow WAN window rebuild).
        cfg = cfg.with_missed_hb_threshold(10).with_cong_sync();
    }
    cfg
}

/// Builds the testbed, recording protocol counters and a trace ring so
/// oracles and artifacts can read protocol state instead of re-deriving
/// it from frame traces. Past this point nothing knows which testbed
/// it is.
fn build_fleet(spec: &RunSpec, cfg: &SttcpConfig) -> Fleet {
    assert!(
        spec.plan.fits(spec.testbed.servers()),
        "plan [{}] does not fit a testbed of {} servers",
        spec.plan.describe(),
        spec.testbed.servers()
    );
    match spec.testbed {
        Testbed::Pair { workload, .. } => {
            let mut sc = ScenarioSpec::new(workload)
                .st_tcp(cfg.clone())
                .closing()
                .recording()
                .tracing_with_capacity(TRACE_RING)
                .link_profile(spec.link)
                .congestion(spec.congestion);
            if spec.sack {
                sc = sc.with_sack();
            }
            sc.seed = spec.seed;
            build(&sc).into_fleet()
        }
        Testbed::Mirrored { workload } => {
            let mut sc = ScenarioSpec::new(workload)
                .topology(Topology::SwitchMirror)
                .st_tcp(cfg.clone())
                .closing()
                .recording()
                .tracing_with_capacity(TRACE_RING)
                .link_profile(spec.link)
                .congestion(spec.congestion);
            if spec.sack {
                sc = sc.with_sack();
            }
            sc.tcp.recv_buf = 2 << 20;
            sc.tcp.send_buf = 4 << 20;
            sc.tcp.window_scale = Some(6);
            sc.seed = spec.seed;
            build(&sc).into_fleet()
        }
        Testbed::Chain { backups, clients } => {
            let mut fs = FleetSpec::new(clients)
                .backups(backups)
                .closing()
                .seed(spec.seed)
                .recording()
                .tracing_with_capacity(TRACE_RING)
                .link_profile(spec.link)
                .congestion(spec.congestion);
            if spec.sack {
                fs = fs.with_sack();
            }
            fs.st_tcp = cfg.clone();
            fleet::build(&fs)
        }
    }
}

// ---------------------------------------------------------------------
// Frame classification for matchers and the probe.

fn parse_ipv4(frame: &Bytes) -> Option<Ipv4Packet> {
    let eth = EthernetFrame::parse(frame.clone()).ok()?;
    if eth.ethertype != EtherType::Ipv4 {
        return None;
    }
    Ipv4Packet::parse(eth.payload).ok()
}

/// Tapped inbound service data: client→VIP TCP segments (what a backup
/// buffers, §4.2).
fn is_tap_data(frame: &Bytes) -> bool {
    parse_ipv4(frame)
        .map(|ip| ip.protocol == IpProtocol::Tcp && ip.dst == addrs::VIP)
        .unwrap_or(false)
}

/// Any tapped VIP traffic, both directions (a full tap partition).
fn is_tap_any(frame: &Bytes) -> bool {
    parse_ipv4(frame)
        .map(|ip| ip.protocol == IpProtocol::Tcp && (ip.dst == addrs::VIP || ip.src == addrs::VIP))
        .unwrap_or(false)
}

/// A side-channel datagram (the only UDP in the simulation is the
/// ST-TCP side channel; match the destination port to be precise).
fn is_side_channel(frame: &Bytes, side_port: u16) -> bool {
    parse_ipv4(frame)
        .and_then(|ip| {
            if ip.protocol != IpProtocol::Udp {
                return None;
            }
            let udp = UdpDatagram::parse(ip.payload.clone(), ip.src, ip.dst).ok()?;
            Some(udp.dst_port == side_port)
        })
        .unwrap_or(false)
}

// ---------------------------------------------------------------------
// Probe observer: trace digest, VIP senders, first FIN.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

#[derive(Debug)]
struct ProbeState {
    digest: u64,
    /// Latest departure time of a VIP-sourced frame per *originating*
    /// server node (forwarding hops are not servers).
    vip_last_sent: BTreeMap<usize, SimTime>,
    first_fin: Option<SimTime>,
}

fn attach_probe(fleet: &mut Fleet, pcap: Option<SharedPcap>) -> Rc<RefCell<ProbeState>> {
    let state = Rc::new(RefCell::new(ProbeState {
        digest: FNV_OFFSET,
        vip_last_sent: BTreeMap::new(),
        first_fin: None,
    }));
    let handle = Rc::clone(&state);
    let servers = fleet.servers.clone();
    fleet.sim.set_probe(move |ev| {
        if let Some(cap) = &pcap {
            cap.record(ev.time, ev.frame);
        }
        let mut st = handle.borrow_mut();
        let mut h = st.digest;
        h = fnv1a(h, &ev.time.as_nanos().to_le_bytes());
        h = fnv1a(h, &(ev.from.0 as u64).to_le_bytes());
        h = fnv1a(h, &(ev.to.0 as u64).to_le_bytes());
        h = fnv1a(h, ev.frame);
        st.digest = h;
        let from_server = servers.contains(&ev.from);
        if !from_server && st.first_fin.is_some() {
            return;
        }
        if let Some(ip) = parse_ipv4(ev.frame) {
            if ip.protocol == IpProtocol::Tcp {
                let vip_sourced = ip.src == addrs::VIP;
                if vip_sourced && from_server {
                    st.vip_last_sent.insert(ev.from.0, ev.time);
                }
                if st.first_fin.is_none() && (vip_sourced || ip.dst == addrs::VIP) {
                    if let Ok(seg) = TcpSegment::parse(ip.payload.clone(), ip.src, ip.dst) {
                        if seg.flags.contains(TcpFlags::FIN) {
                            st.first_fin = Some(ev.time);
                        }
                    }
                }
            }
        }
    });
    state
}

// ---------------------------------------------------------------------
// Driving a pass.

/// [`Fleet::run`] on the budgets of `spec`.
fn drive(fleet: &mut Fleet, spec: &RunSpec, sample: impl FnMut(&Fleet)) -> StopReason {
    fleet.run(RunLimits::time(spec.limit).max_events(spec.max_events), sample)
}

/// Measures the fault-free [`Profile`] for a spec (ignoring its plan).
/// Returns the failed report if even the fault-free run cannot finish.
pub fn measure_profile(spec: &RunSpec) -> Result<Profile, Box<RunReport>> {
    let mut fleet = build_fleet(spec, &sttcp_cfg(spec));
    let probe = attach_probe(&mut fleet, None);
    let reason = drive(&mut fleet, spec, |_| {});
    let stopped_at = fleet.sim.now();
    let duration = stopped_at.duration_since(SimTime::ZERO);
    if reason == StopReason::Completed {
        return Ok(Profile { duration, first_fin: probe.borrow().first_fin });
    }
    let progress = fleet.progress();
    let digest = probe.borrow().digest;
    Err(Box::new(RunReport {
        reason,
        violations: vec![Violation {
            oracle: OracleKind::Completion,
            at: stopped_at,
            detail: format!(
                "fault-free probe run stopped: {:?} after {}/{} bytes",
                reason, progress.0, progress.1
            ),
        }],
        digest,
        probe_duration: SimDuration::ZERO,
        virtual_duration: duration,
        takeover_latency: None,
        final_epoch: fleet.engine(0).topology().epoch(),
        progress,
        injections: Vec::new(),
        obs: fleet.obs.as_ref().map(|sink| sink.snapshot().to_value()),
        trace: fleet.flight.as_ref().map(|ring| ring.tail(TRACE_TAIL).to_value()),
    }))
}

// ---------------------------------------------------------------------
// Plan installation.

struct Installed {
    /// Earliest instant an op takes each rank out of service.
    down_at: Vec<Option<SimTime>>,
    /// Receive-space agreement is sampled strictly before this time.
    seq_check_until: SimTime,
    /// (op description, node, rule) for post-run stat collection.
    rules: Vec<(String, NodeId, RuleId)>,
}

/// What installing one op comes to.
enum Step {
    /// Take the server down at an instant: a pause of the given length,
    /// or a crash.
    Down(SimTime, Option<SimDuration>),
    /// Put a rule on the server's ingress.
    Rule(IngressRule),
}

fn install_plan(fleet: &mut Fleet, spec: &RunSpec, side_port: u16, profile: &Profile) -> Installed {
    // §4.1 receive-space agreement assumes the tap sees what the
    // primary sees. On lossy profiles that breaks legitimately: the
    // fabric repeats a frame onto the primary's and a backup's links,
    // and each link draws its own loss — so a shadow can briefly *lead*
    // the primary until the client retransmits. That half of the oracle
    // is only meaningful on loss-free links; the send-space half (one
    // ISS) holds on every profile.
    let mut seq_check_until =
        if spec.link.spec().loss == LossModel::None { SimTime::MAX } else { SimTime::ZERO };
    let mut down_at = vec![None; fleet.servers.len()];
    let mut rules = Vec::new();
    let is_side = move |f: &Bytes| is_side_channel(f, side_port);
    let ms = SimDuration::from_millis;
    for op in &spec.plan.ops {
        let step = match *op {
            FaultOp::CrashPrimary { quantile_pct } => {
                Step::Down(profile.at_pct(quantile_pct), None)
            }
            // Fall back to 95 % when the probe saw no FIN (the workload
            // should close, but stay total regardless).
            FaultOp::CrashPrimaryNearFin => {
                Step::Down(profile.first_fin.unwrap_or_else(|| profile.at_pct(95)), None)
            }
            FaultOp::PausePrimary { at_pct, dur_ms } => {
                Step::Down(profile.at_pct(at_pct), Some(ms(dur_ms)))
            }
            FaultOp::Crash { at_ms, .. } => Step::Down(SimTime::ZERO + ms(at_ms), None),
            FaultOp::TapDrop { skip, count, .. } => {
                Step::Rule(DropRule::window(skip, count, is_tap_data).into())
            }
            FaultOp::TapPartition { from_pct, dur_ms, .. } => {
                let from = profile.at_pct(from_pct);
                // The backup misses everything in the window; its shadow
                // may legitimately trail or resync after.
                seq_check_until = seq_check_until.min(from);
                Step::Rule(DropRule::all(is_tap_any).between(from, from + ms(dur_ms)).into())
            }
            FaultOp::SideDrop { skip, count, .. } => {
                Step::Rule(DropRule::window(skip, count, is_side).into())
            }
            FaultOp::SideDelay { delay_ms, .. } => {
                Step::Rule(DelayRule::by(ms(delay_ms), is_side).into())
            }
            FaultOp::SideDuplicate { offset_ms, .. } => {
                Step::Rule(DuplicateRule::after(ms(offset_ms), is_side).into())
            }
        };
        let node = fleet.servers[op.rank()];
        match step {
            Step::Down(at, pause) => {
                match pause {
                    Some(duration) => fleet.sim.schedule_pause(node, at, duration),
                    None => fleet.sim.schedule_crash(node, at),
                }
                let slot = &mut down_at[op.rank()];
                *slot = Some(slot.map_or(at, |prev: SimTime| prev.min(at)));
                // Past this the shadows legitimately overtake the downed
                // server's last state.
                seq_check_until = seq_check_until.min(at);
            }
            Step::Rule(rule) => {
                rules.push((op.describe(), node, fleet.sim.add_ingress_rule(node, rule)));
            }
        }
    }
    Installed { down_at, seq_check_until, rules }
}

// ---------------------------------------------------------------------
// Sampled oracle.

/// Sequence agreement (§4.1): every `Backup`-role server's shadow of a
/// connection rank 0 holds starts at rank 0's ISS, and while rank 0 is
/// alive and authoritative (and before any tap partition or lossy link
/// could make it lag) every shadow is of rank 0's incarnation and none
/// leads it. Sampling walks the stacks; the
/// judgment itself is the pure node-set check in [`crate::oracle`].
fn sample_seq_agreement(fleet: &Fleet, until: SimTime, violations: &mut Vec<Violation>) {
    let now = fleet.sim.now();
    if violations.iter().any(|v| v.oracle == OracleKind::SeqAgreement) {
        return;
    }
    let primary = fleet.sim.node_ref::<ServerNode>(fleet.servers[0]);
    let mut samples = Vec::new();
    for rank in 1..fleet.servers.len() {
        if fleet.engine(rank).role() != ClusterRole::Backup {
            continue;
        }
        let backup = fleet.sim.node_ref::<ServerNode>(fleet.servers[rank]);
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
                shadow_iss: btcb.iss(),
                primary_iss: ptcb.iss(),
                shadow_irs: btcb.irs(),
                primary_irs: ptcb.irs(),
                shadow_rcv_nxt: btcb.rcv_nxt(),
                primary_rcv_nxt: ptcb.rcv_nxt(),
            });
        }
    }
    check_seq_agreement(now, &samples, now < until, violations);
}

// ---------------------------------------------------------------------
// The full run.

/// Executes one chaos run (probe pass if the plan needs one, then the
/// faulted pass) and judges it against every oracle.
///
/// # Panics
///
/// Panics when the plan does not [fit](FaultPlan::fits) the testbed.
pub fn execute(spec: &RunSpec) -> RunReport {
    let profile = if spec.plan.needs_probe() {
        match measure_profile(spec) {
            Ok(p) => p,
            Err(report) => return *report,
        }
    } else {
        Profile::default()
    };
    execute_with_profile(spec, &profile)
}

/// Executes the faulted pass against an already-measured [`Profile`]
/// (campaigns reuse probes across plans sharing a testbed and seed).
pub fn execute_with_profile(spec: &RunSpec, profile: &Profile) -> RunReport {
    execute_faulted(spec, profile, None)
}

/// Like [`execute_with_profile`], but additionally captures every frame
/// transmission of the faulted pass into `pcap` (the artifact-export
/// path: the capture opens directly in Wireshark next to the JSON).
pub fn execute_with_pcap(spec: &RunSpec, profile: &Profile, pcap: SharedPcap) -> RunReport {
    execute_faulted(spec, profile, Some(pcap))
}

fn execute_faulted(spec: &RunSpec, profile: &Profile, pcap: Option<SharedPcap>) -> RunReport {
    let cfg = sttcp_cfg(spec);
    let mut fleet = build_fleet(spec, &cfg);
    let installed = install_plan(&mut fleet, spec, cfg.side_channel_port, profile);
    let probe = attach_probe(&mut fleet, pcap);

    let mut violations = Vec::new();
    let t0 = fleet.sim.now();
    let reason = drive(&mut fleet, spec, |fleet| {
        sample_seq_agreement(fleet, installed.seq_check_until, &mut violations);
    });
    let stopped_at = fleet.sim.now();

    // ---- terminal oracles -------------------------------------------
    let snapshot = fleet.obs.as_ref().expect("chaos runs record obs").snapshot();
    let who = |client: usize| match fleet.clients.len() {
        1 => String::new(),
        _ => format!("client {client}: "),
    };

    // Retention bound (§4.2): retained bytes past the second-buffer
    // capacity spill into the first buffer and eat the advertised
    // window, so occupancy is structurally capped at retention + recv
    // capacity — window exhaustion stops the sender there. The gauge is
    // shared by every server and sees every peak (clients and the last
    // rank run with retention capacity 0 and never retain).
    let tcp = &fleet.sim.node_ref::<ServerNode>(fleet.servers[0]).stack().config().tcp;
    let bound = (tcp.retention_buf + tcp.recv_buf) as u64;
    let high_water = snapshot.get("retention_high_water");
    if high_water > bound {
        violations.push(Violation {
            oracle: OracleKind::RetentionBound,
            at: stopped_at,
            detail: format!("primary retained {high_water} bytes > §4.2 bound {bound}"),
        });
    }

    for i in 0..fleet.clients.len() {
        let m = &fleet.client_app(i).metrics;
        if m.content_errors > 0 {
            violations.push(Violation {
                oracle: OracleKind::ClientIntegrity,
                at: stopped_at,
                detail: format!(
                    "{}{} content errors, first at byte offset {:?}",
                    who(i),
                    m.content_errors,
                    m.first_error_pos
                ),
            });
        }
    }
    let progress = fleet.progress();
    if reason != StopReason::Completed {
        violations.push(Violation {
            oracle: OracleKind::Completion,
            at: stopped_at,
            detail: format!("run stopped: {:?} after {}/{} bytes", reason, progress.0, progress.1),
        });
    }

    // Takeover latency: the survivor — the lowest rank the plan leaves
    // in service — is handed the chain once every rank below it is
    // down, and must promote within its staggered detection deadline of
    // that instant, plus two heartbeats and one sync tick of scheduling,
    // the slack the schedule itself adds to its detector, and a fencing
    // round-trip margin.
    let survivor = spec.plan.expected_primary();
    let handed_over_at = installed.down_at[..survivor]
        .iter()
        .map(|at| at.expect("every rank below the survivor is taken down by the plan"))
        .max();
    let takeover_at = handed_over_at.and_then(|_| fleet.engine(survivor).takeover_at());
    let hb_ms = cfg.hb_interval.as_millis();
    let mut takeover_latency = None;
    match (handed_over_at, takeover_at) {
        (Some(fault_at), Some(tk)) => {
            let bound = detection_deadline(&cfg, survivor as u8)
                + cfg.hb_interval.saturating_mul(2)
                + cfg.effective_sync_time()
                + SimDuration::from_millis(
                    spec.plan.detector_slack_ms(survivor, hb_ms).saturating_add(100),
                );
            takeover_latency = tk.checked_duration_since(fault_at);
            match takeover_latency {
                Some(latency) if latency > bound => violations.push(Violation {
                    oracle: OracleKind::TakeoverLatency,
                    at: tk,
                    detail: format!("takeover {latency} after fault exceeds bound {bound}"),
                }),
                Some(_) => {}
                None => violations.push(Violation {
                    oracle: OracleKind::TakeoverLatency,
                    at: tk,
                    detail: format!("takeover at {tk} precedes the fault at {fault_at}"),
                }),
            }
        }
        // The chain above the survivor died mid-workload and it never
        // took over — only a problem if the workload then failed to
        // finish (a crash after the last byte needs no takeover).
        (Some(fault_at), None) if reason != StopReason::Completed && fault_at < stopped_at => {
            violations.push(Violation {
                oracle: OracleKind::TakeoverLatency,
                at: stopped_at,
                detail: format!(
                    "{} incapacitated at {fault_at}, {} never took over",
                    rank_tag(survivor - 1),
                    rank_tag(survivor)
                ),
            });
        }
        _ => {}
    }

    // False suspicion: a rank deeper than the survivor has a live
    // server to follow and must not promote — unless the schedule itself
    // starved its detector past the deadline.
    for rank in survivor + 1..fleet.servers.len() {
        let deadline_ms = detection_deadline(&cfg, rank as u8).as_millis();
        let Some(tk) = fleet.engine(rank).takeover_at() else { continue };
        if spec.plan.detector_slack_ms(rank, hb_ms) < deadline_ms {
            violations.push(Violation {
                oracle: OracleKind::FalseSuspicion,
                at: tk,
                detail: format!(
                    "takeover at {tk} though the schedule never incapacitated the {}",
                    rank_tag(rank - 1)
                ),
            });
        }
    }

    // Single server: after the latest takeover (plus a small in-flight
    // grace), only the server that took over may source VIP traffic —
    // fencing, or the crashes that made room for it, must have silenced
    // every other.
    let latest_takeover = (1..fleet.servers.len())
        .filter_map(|rank| Some((fleet.engine(rank).takeover_at()?, rank)))
        .max();
    if let Some((tk, rank)) = latest_takeover {
        let allowed = [fleet.servers[rank].0];
        let grace = SimDuration::from_millis(5);
        check_single_server(tk, grace, &allowed, &probe.borrow().vip_last_sent, &mut violations);
    }

    // Eventual close: a completed closing workload must fully tear down.
    if reason == StopReason::Completed {
        fleet.sim.run_for(SimDuration::from_secs(3));
        for (i, &id) in fleet.clients.iter().enumerate() {
            let client = fleet.sim.node_ref::<ClientNode>(id);
            let state = client.sock().and_then(|s| client.stack().state(s));
            if !matches!(state, None | Some(TcpState::Closed) | Some(TcpState::TimeWait)) {
                violations.push(Violation {
                    oracle: OracleKind::EventualClose,
                    at: fleet.sim.now(),
                    detail: format!(
                        "{}client connection stuck in {state:?} after completion",
                        who(i)
                    ),
                });
            }
        }
    }

    let injections = installed
        .rules
        .iter()
        .map(|(desc, node, id)| {
            let stats = fleet.sim.ingress_rule_stats(*node, *id);
            (desc.clone(), stats.matched, stats.fired)
        })
        .collect();

    let digest = probe.borrow().digest;
    RunReport {
        reason,
        violations,
        digest,
        probe_duration: profile.duration,
        virtual_duration: stopped_at.duration_since(t0),
        takeover_latency,
        final_epoch: fleet.engine(survivor).topology().epoch(),
        progress,
        injections,
        obs: Some(snapshot.to_value()),
        trace: fleet.flight.as_ref().map(|ring| ring.tail(TRACE_TAIL).to_value()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_pct_maps_linearly() {
        let p = Profile { duration: SimDuration::from_secs(10), first_fin: None };
        assert_eq!(p.at_pct(0), SimTime::ZERO);
        assert_eq!(p.at_pct(50), SimTime::ZERO + SimDuration::from_secs(5));
        assert_eq!(p.at_pct(100), SimTime::ZERO + SimDuration::from_secs(10));
    }

    #[test]
    fn fnv_digest_is_order_sensitive() {
        let a = fnv1a(fnv1a(FNV_OFFSET, b"ab"), b"cd");
        let b = fnv1a(fnv1a(FNV_OFFSET, b"cd"), b"ab");
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "no fencing to disable")]
    fn a_chain_refuses_the_fencing_knob() {
        let _ = RunSpec::chain(2, 4, 1, FaultPlan::none()).without_fencing();
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn a_plan_addressing_a_rank_the_testbed_lacks_is_refused() {
        let plan = FaultPlan::new([FaultOp::SideDrop { rank: 2, skip: 0, count: 1 }]);
        execute(&RunSpec::new(Workload::Echo { requests: 1 }, 1, plan));
    }
}

//! The six workloads: what each one builds, from which seed, and why.
//!
//! All six run on a port-mirroring switch (`Topology::SwitchMirror`, the
//! fleet's fabric), so one fabric shape serves every workload and the
//! benchmark's own traced topology (see [`crate::topo`]) has one shape to
//! reproduce.

use apps::Workload;
use netsim::{LinkProfile, SimDuration, SimTime};
use sttcp::fleet::FleetSpec;
use sttcp::scenario::{addrs, Deployment, FaultSpec, ScenarioSpec, Topology};
use sttcp::SttcpConfig;
use tcpstack::CongestionAlgo;

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    /// 100 MB download, standard TCP, solo server.
    BulkStd,
    /// 100 MB download over ST-TCP, failure-free.
    BulkSttcp,
    /// 100 MB upload over ST-TCP, failure-free.
    UploadSttcp,
    /// 10 000 mixed clients arriving open-loop over 4 s, no fault.
    FleetChurn,
    /// 3 000 mixed clients, primary crashes at 150 ms.
    FleetFailover,
    /// 60 MB download over a burst-loss WAN, primary crashes at 8 s.
    WanLossFailover,
}

/// Every workload, in reporting order.
pub const ALL: [WorkloadId; 6] = [
    WorkloadId::BulkStd,
    WorkloadId::BulkSttcp,
    WorkloadId::UploadSttcp,
    WorkloadId::FleetChurn,
    WorkloadId::FleetFailover,
    WorkloadId::WanLossFailover,
];

/// What a workload hands to a topology builder: the library's own spec
/// types, nothing else — the library never sees the benchmark's seed.
#[derive(Debug, Clone)]
pub enum Spec {
    /// One client, built by `sttcp::scenario::build`.
    Scenario(ScenarioSpec),
    /// Many clients, built by `sttcp::fleet::build`.
    Fleet(FleetSpec),
}

/// 50 ms heartbeats on the standard service address — the paper's
/// fastest detector setting and the library default.
fn st_cfg() -> SttcpConfig {
    SttcpConfig::new(addrs::VIP, 80).with_hb_interval(SimDuration::from_millis(50))
}

fn at_ms(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

impl WorkloadId {
    /// The name used on the command line, in `BENCHMARK.json` and in reports.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::BulkStd => "bulk_std",
            WorkloadId::BulkSttcp => "bulk_sttcp",
            WorkloadId::UploadSttcp => "upload_sttcp",
            WorkloadId::FleetChurn => "fleet_churn",
            WorkloadId::FleetFailover => "fleet_failover",
            WorkloadId::WanLossFailover => "wan_loss_failover",
        }
    }

    /// Parses [`WorkloadId::name`] back.
    pub fn from_name(name: &str) -> Option<Self> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (one line; `BENCHMARK.json` carries the same).
    pub fn why(self) -> &'static str {
        match self {
            WorkloadId::BulkStd => {
                "1460 B frames through wire+tcpstack+netsim with no sttcp: the bypass workload an sttcp change must not move"
            }
            WorkloadId::BulkSttcp => {
                "same stream plus tap mirror, suppression, backup acks, heartbeats: host cost of fault tolerance = this / bulk_std"
            }
            WorkloadId::UploadSttcp => {
                "client writes: the only workload loading the retention buffer and ack-to-release path, so receive-side costs show"
            }
            WorkloadId::FleetChurn => {
                "10k short connections arriving open-loop at 2500/s: demux, slab, timer wheel, shadow set-up, deep event queue"
            }
            WorkloadId::FleetFailover => {
                "primary crash with ~1950 connections open: the takeover-latency distribution and the thundering-herd unsuppress path"
            }
            WorkloadId::WanLossFailover => {
                "burst loss, SACK/RTO recovery, crash at 8 s: timer-dominated traffic off the fast path; canary for protocol changes"
            }
        }
    }

    /// The library's own default seed for the builder this workload goes
    /// through: member 0 of the workload's seed panel.
    pub fn default_seed(self) -> u64 {
        match self {
            WorkloadId::FleetChurn | WorkloadId::FleetFailover => FleetSpec::new(1).seed,
            _ => ScenarioSpec::new(Workload::echo()).seed,
        }
    }

    /// The spec for one rep. `seed` feeds `ScenarioSpec::seed` /
    /// `FleetSpec::seed` (ISNs, link-loss generator, fleet mix, connect
    /// jitter); `quick` shrinks transfers to 10 MB and fleets to 500 clients.
    pub fn spec(self, seed: u64, quick: bool) -> Spec {
        let mb = |full: u64| if quick { 10 } else { full };
        let scenario = |workload: Workload| {
            let mut s = ScenarioSpec::new(workload).topology(Topology::SwitchMirror);
            s.seed = seed;
            s
        };
        let fleet = |full: usize| FleetSpec::new(if quick { 500 } else { full }).seed(seed);
        match self {
            WorkloadId::BulkStd => Spec::Scenario(scenario(Workload::bulk_mb(mb(100)))),
            WorkloadId::BulkSttcp => {
                Spec::Scenario(scenario(Workload::bulk_mb(mb(100))).st_tcp(st_cfg()))
            }
            WorkloadId::UploadSttcp => {
                Spec::Scenario(scenario(Workload::upload_mb(mb(100))).st_tcp(st_cfg()))
            }
            WorkloadId::FleetChurn => {
                // 2 500 connections/s, ~80 % of the server link, at either size.
                let f = fleet(10_000);
                let spread = SimDuration::from_micros(f.clients as u64 * 400);
                Spec::Fleet(f.connect_spread(spread))
            }
            WorkloadId::FleetFailover => Spec::Fleet(fleet(3_000).crash_primary_at(at_ms(150))),
            WorkloadId::WanLossFailover => {
                let mut s = scenario(Workload::bulk_mb(mb(60)))
                    .link_profile(LinkProfile::WanBurstLoss)
                    .congestion(CongestionAlgo::Cubic)
                    .with_sack()
                    .st_tcp(st_cfg().with_cong_sync().with_missed_hb_threshold(10))
                    .faults(FaultSpec::crash_primary_at(at_ms(8_000)));
                s.tcp.recv_buf = 2 << 20;
                s.tcp.send_buf = 4 << 20;
                s.tcp.window_scale = Some(6);
                Spec::Scenario(s)
            }
        }
    }
}

impl Spec {
    /// When the primary crashes, if it does.
    pub fn crash_at(&self) -> Option<SimTime> {
        match self {
            Spec::Scenario(s) => s.faults.incapacitated_at(),
            Spec::Fleet(f) => f.crash_primary_at,
        }
    }

    /// The same workload with no fault scheduled (paper §6.2: failover
    /// time is the difference between the two completion times).
    pub fn fault_free_twin(&self) -> Spec {
        match self {
            Spec::Scenario(s) => Spec::Scenario(s.clone().faults(FaultSpec::none())),
            Spec::Fleet(f) => {
                let mut f = f.clone();
                f.crash_primary_at = None;
                Spec::Fleet(f)
            }
        }
    }

    /// The same spec with the metrics sink and the flight recorder on.
    pub fn recorded(&self) -> Spec {
        match self {
            Spec::Scenario(s) => Spec::Scenario(s.clone().recording().tracing()),
            Spec::Fleet(f) => Spec::Fleet(f.clone().recording().tracing()),
        }
    }

    /// UDP port of the primary↔backup side channel; `None` without a backup.
    pub fn side_channel_port(&self) -> Option<u16> {
        match self {
            Spec::Scenario(s) => match &s.deployment {
                Deployment::StTcp(cfg) => Some(cfg.side_channel_port),
                Deployment::StandardTcp => None,
            },
            Spec::Fleet(f) => Some(f.st_tcp.side_channel_port),
        }
    }
}

/// Payload bytes one client moves: every response byte it must verify,
/// plus — for an upload — the file the server verifies before it answers.
pub fn payload_bytes(workload: Workload) -> u64 {
    let uploaded = match workload {
        Workload::Upload { file_size } => file_size,
        _ => 0,
    };
    workload.expected_total_bytes() + uploaded
}

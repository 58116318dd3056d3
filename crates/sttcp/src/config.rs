//! ST-TCP deployment configuration.

use netsim::SimDuration;
use std::net::Ipv4Addr;

/// When the backup becomes able to serve after detecting the failure.
///
/// ST-TCP's defining choice is [`TakeoverPolicy::Active`]: the backup
/// has been executing all along, so takeover is instantaneous. The
/// paper's §2 contrasts this with FT-TCP, where "a failover … requires
/// failure detection, time for the backup server to start, and time to
/// update the backup server state from all the data saved in the
/// logger (which could be quite large for long running applications)".
/// [`TakeoverPolicy::ColdReplay`] models that family of systems on the
/// same substrate, so the trade-off is measurable (see the
/// `ftcp_comparison` bench).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TakeoverPolicy {
    /// Active replication: the backup's state is already current
    /// (ST-TCP).
    Active,
    /// Cold standby: on detection the replacement process must start
    /// and replay the connection's entire received byte stream through
    /// the application before it can serve (FT-TCP-style).
    ColdReplay {
        /// Process start/initialization time.
        restart_delay: SimDuration,
        /// State-replay throughput in bytes per second.
        replay_rate_bps: u64,
    },
}

/// How the backup converts a suspicion into a certainty before taking
/// over the service IP (paper §3.2/§4.4: "we convert wrong suspicions
/// into correct suspicions by switching off the power of a suspected
/// computer").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fencing {
    /// Trust the timeout (valid when crashes are genuine, as in the
    /// simulator's fail-stop model). The paper's alternative: a perfect
    /// failure detector protocol.
    None,
    /// Send a power-off command for this outlet to the power switch on
    /// the management port before taking over.
    PowerSwitch {
        /// Outlet number feeding the primary.
        outlet: u32,
    },
}

/// Tunables of the ST-TCP protocol (paper §4).
#[derive(Debug, Clone)]
pub struct SttcpConfig {
    /// The virtual service IP (`SVI`) clients connect to.
    pub vip: Ipv4Addr,
    /// TCP port of the replicated service.
    pub service_port: u16,
    /// UDP port of the primary↔backup side channel.
    pub side_channel_port: u16,
    /// Heartbeat interval — the experiments' independent variable
    /// (50 ms … 5 s in §6).
    pub hb_interval: SimDuration,
    /// `SyncTime`: maximum time between backup acknowledgments. The
    /// paper couples it to the heartbeat ("we use the acks sent by the
    /// backup server … as heartbeat messages"); `None` means
    /// `hb_interval`.
    pub sync_time: Option<SimDuration>,
    /// `X`: send a backup ack once this many in-order bytes accumulated
    /// since the last one. `None` applies the paper's rule of thumb:
    /// ¾ of the second receive buffer.
    pub ack_threshold: Option<usize>,
    /// Consecutive missed heartbeats before declaring the peer dead
    /// (paper: 3).
    pub missed_hb_threshold: u32,
    /// Fencing mechanism used by the backup.
    pub fencing: Fencing,
    /// Whether a packet logger is present on the path and may be asked
    /// to replay client segments at takeover (double-failure masking,
    /// §3.2).
    pub use_logger: bool,
    /// Active (ST-TCP) vs cold-replay (FT-TCP-style) takeover.
    pub takeover_policy: TakeoverPolicy,
    /// Mirror each touched connection's congestion snapshot
    /// (cwnd/ssthresh), when it changed, in the heartbeat's frontier
    /// entries, so a promoted shadow resumes near the primary's
    /// operating point instead of cold-starting from the initial window.
    /// Off by default: on a LAN the window rebuilds in a few RTTs, and
    /// the extra entries would perturb the pinned paper-era wire traces.
    /// Worth switching on for WAN profiles.
    pub cong_sync: bool,
}

impl SttcpConfig {
    /// Paper-style defaults: VIP `10.0.0.100:80`, 50 ms heartbeats,
    /// threshold 3, no fencing hardware, no logger.
    pub fn new(vip: Ipv4Addr, service_port: u16) -> Self {
        SttcpConfig {
            vip,
            service_port,
            side_channel_port: 7077,
            hb_interval: SimDuration::from_millis(50),
            sync_time: None,
            ack_threshold: None,
            missed_hb_threshold: 3,
            fencing: Fencing::None,
            use_logger: false,
            takeover_policy: TakeoverPolicy::Active,
            cong_sync: false,
        }
    }

    /// The effective `SyncTime`.
    pub fn effective_sync_time(&self) -> SimDuration {
        self.sync_time.unwrap_or(self.hb_interval)
    }

    /// The effective ack threshold `X` given the primary's second-buffer
    /// capacity.
    pub fn effective_ack_threshold(&self, retention_capacity: usize) -> usize {
        self.ack_threshold.unwrap_or_else(|| (retention_capacity / 4) * 3)
    }

    /// Sets the heartbeat interval (builder style).
    #[must_use]
    pub fn with_hb_interval(mut self, hb: SimDuration) -> Self {
        self.hb_interval = hb;
        self
    }

    /// Sets the missed-heartbeat detection threshold (builder style).
    /// The paper's 3 assumes a loss-free LAN side channel; lossy WAN
    /// deployments must provision a larger budget or bursts of lost
    /// heartbeats read as a dead primary.
    #[must_use]
    pub fn with_missed_hb_threshold(mut self, missed: u32) -> Self {
        self.missed_hb_threshold = missed;
        self
    }

    /// Enables power-switch fencing (builder style).
    #[must_use]
    pub fn with_fencing(mut self, outlet: u32) -> Self {
        self.fencing = Fencing::PowerSwitch { outlet };
        self
    }

    /// Enables logger-assisted recovery (builder style).
    #[must_use]
    pub fn with_logger(mut self) -> Self {
        self.use_logger = true;
        self
    }

    /// Enables the congestion-state mirror (builder style).
    #[must_use]
    pub fn with_cong_sync(mut self) -> Self {
        self.cong_sync = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_the_paper() {
        let cfg = SttcpConfig::new(Ipv4Addr::new(10, 0, 0, 100), 80);
        assert_eq!(cfg.hb_interval, SimDuration::from_millis(50));
        assert_eq!(cfg.missed_hb_threshold, 3);
        assert_eq!(cfg.effective_sync_time(), SimDuration::from_millis(50));
        // X = 3/4 of a 16 KB second buffer = 12 KB.
        assert_eq!(cfg.effective_ack_threshold(16 * 1024), 12 * 1024);
        assert_eq!(cfg.fencing, Fencing::None);
    }

    #[test]
    fn builders() {
        let cfg = SttcpConfig::new(Ipv4Addr::new(10, 0, 0, 100), 80)
            .with_hb_interval(SimDuration::from_secs(5))
            .with_fencing(0)
            .with_logger();
        assert_eq!(cfg.hb_interval, SimDuration::from_secs(5));
        assert_eq!(cfg.fencing, Fencing::PowerSwitch { outlet: 0 });
        assert!(cfg.use_logger);
    }

    #[test]
    fn explicit_overrides_win() {
        let mut cfg = SttcpConfig::new(Ipv4Addr::new(10, 0, 0, 100), 80);
        cfg.sync_time = Some(SimDuration::from_millis(7));
        cfg.ack_threshold = Some(999);
        assert_eq!(cfg.effective_sync_time(), SimDuration::from_millis(7));
        assert_eq!(cfg.effective_ack_threshold(1 << 20), 999);
    }
}

//! Retransmission-timeout estimation (RFC 6298) with Linux bounds.
//!
//! The paper's failover analysis (§6.2) hinges on this machinery: "In
//! Linux, the RTO is computed using the round trip time (RTT) and is
//! increased by a factor of two with every retransmission. The lower and
//! upper bound for the RTO in Linux are 200 ms and 2 min respectively."
//! The Table 2 failover times are largely *where the exponential backoff
//! schedule happens to land* relative to the failure-detection delay, so
//! this estimator reproduces those bounds exactly.

use crate::config::TcpConfig;
use netsim::SimDuration;

/// SRTT/RTTVAR smoothing and exponential backoff.
///
/// The bounds every timeout is clamped to are the connection's config
/// (`rto_min`, `rto_max`), lent to the calls that need them rather than
/// copied into every estimator.
///
/// ```
/// use tcpstack::rto::RtoEstimator;
/// use tcpstack::TcpConfig;
/// use netsim::SimDuration;
///
/// let cfg = TcpConfig::default(); // Linux bounds
/// let mut rto = RtoEstimator::new(&cfg);
/// rto.on_sample(SimDuration::from_millis(10), &cfg); // LAN round trip
/// assert_eq!(rto.rto(&cfg), SimDuration::from_millis(200)); // Linux floor
/// rto.backoff();
/// rto.backoff();
/// assert_eq!(rto.rto(&cfg), SimDuration::from_millis(800)); // x2 per loss
/// ```
#[derive(Debug, Clone)]
pub struct RtoEstimator {
    /// `NO_SAMPLE` until the first sample.
    srtt: SimDuration,
    rttvar: SimDuration,
    base_rto: SimDuration,
    backoff_shift: u8,
}

/// The smoothed RTT before any sample: no round trip takes 584 years.
const NO_SAMPLE: SimDuration = SimDuration::MAX;
/// Backoffs beyond this many doublings change nothing (the clamp holds).
const MAX_SHIFT: u8 = 32;

impl RtoEstimator {
    /// Linux lower bound: 200 ms.
    pub const LINUX_MIN: SimDuration = SimDuration::from_millis(200);
    /// Linux upper bound: 2 minutes.
    pub const LINUX_MAX: SimDuration = SimDuration::from_secs(120);
    /// Initial RTO before any sample (RFC 6298: 1 s).
    pub const INITIAL: SimDuration = SimDuration::from_secs(1);

    /// Creates an estimator for a connection under `cfg`.
    pub fn new(cfg: &TcpConfig) -> Self {
        RtoEstimator {
            srtt: NO_SAMPLE,
            rttvar: SimDuration::ZERO,
            base_rto: Self::INITIAL.max(cfg.rto_min),
            backoff_shift: 0,
        }
    }

    /// Feeds one RTT sample (never from a retransmitted segment — Karn's
    /// algorithm — the TCB enforces that).
    pub fn on_sample(&mut self, rtt: SimDuration, cfg: &TcpConfig) {
        match self.srtt() {
            None => {
                self.srtt = rtt;
                self.rttvar = rtt / 2;
            }
            Some(srtt) => {
                // RTTVAR = 3/4 RTTVAR + 1/4 |SRTT - RTT|
                let err = if srtt >= rtt { srtt - rtt } else { rtt - srtt };
                self.rttvar = self.rttvar * 3 / 4 + err / 4;
                // SRTT = 7/8 SRTT + 1/8 RTT
                self.srtt = srtt * 7 / 8 + rtt / 8;
            }
        }
        // RTO = SRTT + max(G, 4*RTTVAR); clock granularity G folded into min.
        self.base_rto = (self.srtt + self.rttvar * 4).max(cfg.rto_min).min(cfg.rto_max);
    }

    /// The current timeout: base RTO with the backoff applied, clamped
    /// to `cfg`'s bounds.
    pub fn rto(&self, cfg: &TcpConfig) -> SimDuration {
        self.base_rto.saturating_mul(1u64 << self.backoff_shift).max(cfg.rto_min).min(cfg.rto_max)
    }

    /// Doubles the timeout (a retransmission fired); returns the new
    /// consecutive-backoff count (what trace events report).
    pub fn backoff(&mut self) -> u32 {
        if self.backoff_shift < MAX_SHIFT {
            self.backoff_shift += 1;
        }
        u32::from(self.backoff_shift)
    }

    /// Clears the backoff after an ACK of new data.
    pub fn reset_backoff(&mut self) {
        self.backoff_shift = 0;
    }

    /// The smoothed RTT, if any sample has arrived.
    pub fn srtt(&self) -> Option<SimDuration> {
        (self.srtt != NO_SAMPLE).then_some(self.srtt)
    }

    /// Number of consecutive backoffs applied.
    pub fn backoff_count(&self) -> u32 {
        u32::from(self.backoff_shift)
    }
}

impl Default for RtoEstimator {
    fn default() -> Self {
        Self::new(&TcpConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Linux's bounds, the default.
    fn linux() -> TcpConfig {
        TcpConfig::default()
    }

    /// Bounds loose enough that the estimate itself shows.
    fn loose() -> TcpConfig {
        TcpConfig { rto_min: SimDuration::from_millis(1), ..TcpConfig::default() }
    }

    #[test]
    fn initial_rto_is_one_second() {
        let b = linux();
        let e = RtoEstimator::new(&b);
        assert_eq!(e.rto(&b), SimDuration::from_secs(1));
        assert_eq!(e.srtt(), None);
    }

    #[test]
    fn lan_rtt_clamps_to_linux_floor() {
        let b = linux();
        // A 10 ms LAN RTT computes RTO ≈ 10 + 4*5 = 30 ms, below the
        // 200 ms Linux floor — the floor is what the client actually
        // waits during failover.
        let mut e = RtoEstimator::new(&b);
        for _ in 0..10 {
            e.on_sample(SimDuration::from_millis(10), &b);
        }
        assert_eq!(e.rto(&b), SimDuration::from_millis(200));
    }

    #[test]
    fn backoff_schedule_matches_linux() {
        let b = linux();
        // 200ms, 400, 800, 1.6s, 3.2, 6.4, 12.8, 25.6, 51.2, 102.4, 120 (cap)
        let mut e = RtoEstimator::new(&b);
        e.on_sample(SimDuration::from_millis(10), &b);
        let mut schedule = Vec::new();
        for _ in 0..11 {
            schedule.push(e.rto(&b).as_millis());
            e.backoff();
        }
        assert_eq!(
            schedule,
            vec![200, 400, 800, 1600, 3200, 6400, 12800, 25600, 51200, 102400, 120000]
        );
    }

    #[test]
    fn reset_backoff_restores_base() {
        let b = linux();
        let mut e = RtoEstimator::new(&b);
        e.on_sample(SimDuration::from_millis(10), &b);
        for _ in 0..5 {
            e.backoff();
        }
        assert!(e.rto(&b) > SimDuration::from_secs(1));
        e.reset_backoff();
        assert_eq!(e.rto(&b), SimDuration::from_millis(200));
        assert_eq!(e.backoff_count(), 0);
    }

    #[test]
    fn variance_raises_rto() {
        let b = loose();
        let mut e = RtoEstimator::new(&b);
        e.on_sample(SimDuration::from_millis(100), &b);
        let stable = e.rto(&b);
        // A wildly different sample inflates RTTVAR.
        e.on_sample(SimDuration::from_millis(500), &b);
        assert!(e.rto(&b) > stable);
    }

    #[test]
    fn smoothing_converges() {
        let b = loose();
        let mut e = RtoEstimator::new(&b);
        for _ in 0..100 {
            e.on_sample(SimDuration::from_millis(50), &b);
        }
        let srtt = e.srtt().unwrap().as_millis();
        assert!((48..=52).contains(&srtt), "srtt {srtt}ms should converge to 50ms");
        // With zero variance, RTO converges toward SRTT.
        assert!(e.rto(&b).as_millis() <= 60);
    }

    #[test]
    fn backoff_saturates_at_cap() {
        let b = linux();
        let mut e = RtoEstimator::new(&b);
        e.on_sample(SimDuration::from_millis(10), &b);
        for _ in 0..100 {
            e.backoff();
        }
        assert_eq!(e.rto(&b), SimDuration::from_secs(120));
    }
}

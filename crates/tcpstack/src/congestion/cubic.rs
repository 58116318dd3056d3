//! CUBIC congestion control (RFC 8312).
//!
//! The window regrows along a cubic curve anchored at the pre-loss
//! window `W_max`: concave up to the plateau, then convex probing beyond
//! it. Growth depends on *time since the loss epoch*, not on RTT, which
//! is the property that lets CUBIC fill high-BDP paths where Reno's one
//! MSS per RTT takes minutes. A Reno-tracking estimate (`W_est`) keeps
//! short-RTT paths TCP-friendly, as §4.2 of the RFC requires.
//!
//! Slow start, fast-recovery entry/exit, and the dup-ACK machinery are
//! structurally Reno's — only the avoidance growth law differs — so the
//! TCB drives every controller identically.

use super::{CcPhase, CongSnapshot, CongestionAlgo, CongestionController};
use netsim::{SimDuration, SimTime};

/// RFC 8312 §5: the cubic scaling constant (MSS/s³).
const C: f64 = 0.4;
/// RFC 8312 §4.5: multiplicative decrease factor.
const BETA: f64 = 0.7;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Open,
    FastRecovery,
}

/// CUBIC state for one connection.
#[derive(Debug, Clone)]
pub struct Cubic {
    mss: u32,
    cwnd: u32,
    ssthresh: u32,
    phase: Phase,
    dup_acks: u32,
    initial_cwnd: u32,
    /// Window (bytes) just before the last reduction.
    w_max: f64,
    /// Seconds for the cubic to regrow to `w_max` from the reduced window.
    k: f64,
    /// Start of the current growth epoch (`None` = next CA ack begins one).
    epoch_start: Option<SimTime>,
    /// Reno-tracking window estimate for the TCP-friendly region (bytes).
    w_est: f64,
    fast_retransmits: u64,
    timeout_retransmits: u64,
}

impl Cubic {
    /// Creates CUBIC state with the same initial window as Reno (2 MSS),
    /// keeping the handshake-adjacent behaviour comparable.
    pub fn new(mss: u32) -> Self {
        let initial_cwnd = 2 * mss;
        Cubic {
            mss,
            cwnd: initial_cwnd,
            ssthresh: u32::MAX,
            phase: Phase::Open,
            dup_acks: 0,
            initial_cwnd,
            w_max: 0.0,
            k: 0.0,
            epoch_start: None,
            w_est: 0.0,
            fast_retransmits: 0,
            timeout_retransmits: 0,
        }
    }

    /// Records a loss event: remember `W_max` (with fast convergence,
    /// RFC 8312 §4.6), shrink by β, and end the growth epoch.
    fn on_loss(&mut self) {
        let cwnd = f64::from(self.cwnd);
        self.w_max = if cwnd < self.w_max {
            // Fast convergence: release bandwidth faster when losses
            // arrive below the previous plateau.
            cwnd * (2.0 - BETA) / 2.0
        } else {
            cwnd
        };
        self.ssthresh = ((cwnd * BETA) as u32).max(2 * self.mss);
        self.epoch_start = None;
    }

    /// One congestion-avoidance ACK: move toward the cubic target.
    fn grow(&mut self, now: SimTime, acked: u32, srtt: Option<SimDuration>) {
        let mss = f64::from(self.mss);
        let cwnd = f64::from(self.cwnd);
        let rtt = srtt.unwrap_or(SimDuration::from_millis(100));
        if self.epoch_start.is_none() {
            self.epoch_start = Some(now);
            if self.w_max > cwnd {
                self.k = ((self.w_max - cwnd) / (C * mss)).cbrt();
            } else {
                self.k = 0.0;
                self.w_max = cwnd;
            }
            self.w_est = cwnd;
        }
        // Target the curve one RTT ahead (RFC 8312 §4.1).
        let t = now.duration_since(self.epoch_start.expect("set above")).as_nanos() as f64 / 1e9
            + rtt.as_nanos() as f64 / 1e9;
        let d = t - self.k;
        let w_cubic = C * mss * d * d * d + self.w_max;
        // TCP-friendly region (§4.2): track what Reno would have.
        self.w_est += 3.0 * (1.0 - BETA) / (1.0 + BETA) * mss * f64::from(acked) / cwnd;
        let target = w_cubic.max(self.w_est);
        if target > cwnd {
            // (target - cwnd)/cwnd MSS per ACK, capped at 1.5x/RTT-step
            // to stay sane across long idle gaps in the event-driven sim.
            let inc = (mss * (target - cwnd) / cwnd).min(cwnd / 2.0).max(1.0);
            self.cwnd = self.cwnd.saturating_add(inc as u32);
        } else {
            // At or above the curve: minimal growth keeps probing.
            self.cwnd = self.cwnd.saturating_add(1);
        }
    }
}

impl CongestionController for Cubic {
    fn on_new_ack(&mut self, now: SimTime, _flight: u32, acked: u32, srtt: Option<SimDuration>) {
        self.dup_acks = 0;
        match self.phase {
            Phase::FastRecovery => {
                self.cwnd = self.ssthresh;
                self.phase = Phase::Open;
                self.epoch_start = None;
            }
            Phase::Open => {
                if self.cwnd < self.ssthresh {
                    self.cwnd = self.cwnd.saturating_add(self.mss); // slow start
                } else {
                    self.grow(now, acked, srtt);
                }
            }
        }
    }

    fn on_dup_ack(&mut self, _flight: u32) -> bool {
        self.dup_acks += 1;
        match self.phase {
            Phase::Open if self.dup_acks == 3 => {
                self.on_loss();
                // Reno-style inflation keeps the in-flight accounting
                // the TCB expects during recovery.
                self.cwnd = self.ssthresh + 3 * self.mss;
                self.phase = Phase::FastRecovery;
                self.fast_retransmits += 1;
                true
            }
            Phase::FastRecovery => {
                self.cwnd = self.cwnd.saturating_add(self.mss);
                false
            }
            _ => false,
        }
    }

    fn on_timeout(&mut self, _flight: u32) {
        self.on_loss();
        self.cwnd = self.mss;
        self.phase = Phase::Open;
        self.dup_acks = 0;
        self.timeout_retransmits += 1;
    }

    fn on_sent(&mut self, _now: SimTime, _bytes: u32) {}

    fn on_idle_restart(&mut self) {
        self.cwnd = self.cwnd.min(self.initial_cwnd);
        self.phase = Phase::Open;
        self.dup_acks = 0;
        self.epoch_start = None;
    }

    fn cwnd(&self) -> u32 {
        self.cwnd
    }

    fn ssthresh(&self) -> u32 {
        self.ssthresh
    }

    fn pacing_rate(&self) -> Option<u64> {
        None
    }

    fn in_fast_recovery(&self) -> bool {
        self.phase == Phase::FastRecovery
    }

    fn dup_acks(&self) -> u32 {
        self.dup_acks
    }

    fn fast_retransmits(&self) -> u64 {
        self.fast_retransmits
    }

    fn timeout_retransmits(&self) -> u64 {
        self.timeout_retransmits
    }

    fn phase(&self) -> CcPhase {
        match self.phase {
            Phase::FastRecovery => CcPhase::FastRecovery,
            Phase::Open if self.cwnd < self.ssthresh => CcPhase::SlowStart,
            Phase::Open if f64::from(self.cwnd) < self.w_max => CcPhase::Concave,
            Phase::Open => CcPhase::Convex,
        }
    }

    fn algo(&self) -> CongestionAlgo {
        CongestionAlgo::Cubic
    }

    fn import(&mut self, snap: CongSnapshot) {
        self.cwnd = snap.cwnd.max(self.mss);
        self.ssthresh = snap.ssthresh.max(2 * self.mss);
        self.w_max = f64::from(self.cwnd);
        self.phase = Phase::Open;
        self.dup_acks = 0;
        self.epoch_start = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: u32 = 1460;

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn slow_start_matches_reno() {
        let mut c = Cubic::new(MSS);
        assert_eq!(c.cwnd(), 2 * MSS);
        c.on_new_ack(at(0), 2 * MSS, MSS, None);
        c.on_new_ack(at(10), 2 * MSS, MSS, None);
        assert_eq!(c.cwnd(), 4 * MSS);
        assert_eq!(c.phase(), CcPhase::SlowStart);
    }

    #[test]
    fn regrows_toward_w_max_within_k() {
        let mut c = Cubic::new(MSS);
        // Build a large window, then lose.
        for _ in 0..100 {
            c.on_new_ack(at(0), 4 * MSS, MSS, Some(SimDuration::from_millis(50)));
        }
        let before = c.cwnd();
        for _ in 0..3 {
            c.on_dup_ack(before);
        }
        c.on_new_ack(at(100), before, MSS, Some(SimDuration::from_millis(50)));
        assert!(c.cwnd() < before, "loss must shrink the window");
        // Feed ACKs across simulated time: the cubic regrows to ≈W_max.
        let mut t = 100u64;
        for _ in 0..2000 {
            t += 5;
            c.on_new_ack(at(t), c.cwnd(), MSS, Some(SimDuration::from_millis(50)));
            if f64::from(c.cwnd()) >= c.w_max {
                break;
            }
        }
        assert!(
            f64::from(c.cwnd()) >= c.w_max * 0.95,
            "cwnd {} should approach w_max {}",
            c.cwnd(),
            c.w_max
        );
    }

    #[test]
    fn growth_is_time_dependent_not_ack_dependent() {
        // Two identical controllers regrowing toward a high plateau
        // (the concave region, where the cubic term dominates the
        // TCP-friendly estimate), same ACK count, different elapsed
        // time: the one further into the epoch must be larger.
        let build = || {
            let mut c = Cubic::new(MSS);
            // Slow-start to a large window, then a loss anchors W_max.
            for _ in 0..60 {
                c.on_new_ack(at(0), 4 * MSS, MSS, Some(SimDuration::from_millis(20)));
            }
            let flight = c.cwnd();
            for _ in 0..3 {
                c.on_dup_ack(flight);
            }
            // Exit recovery: cwnd deflates to ssthresh, epoch pending.
            c.on_new_ack(at(5), flight, MSS, Some(SimDuration::from_millis(20)));
            c
        };
        let mut slow = build();
        let mut fast = build();
        for i in 0..50u64 {
            slow.on_new_ack(at(10 + i), slow.cwnd(), MSS, Some(SimDuration::from_millis(20)));
            fast.on_new_ack(at(10 + i * 40), fast.cwnd(), MSS, Some(SimDuration::from_millis(20)));
        }
        assert!(
            fast.cwnd() > slow.cwnd(),
            "more elapsed time must mean more cubic growth ({} vs {})",
            fast.cwnd(),
            slow.cwnd()
        );
    }

    #[test]
    fn fast_convergence_lowers_w_max_on_repeat_loss() {
        let mut c = Cubic::new(MSS);
        for _ in 0..100 {
            c.on_new_ack(at(0), 4 * MSS, MSS, Some(SimDuration::from_millis(50)));
        }
        for _ in 0..3 {
            c.on_dup_ack(c.cwnd());
        }
        let w1 = c.w_max;
        c.on_new_ack(at(50), c.cwnd(), MSS, Some(SimDuration::from_millis(50)));
        // Second loss below the plateau: fast convergence shrinks w_max.
        for _ in 0..3 {
            c.on_dup_ack(c.cwnd());
        }
        assert!(c.w_max < w1, "w_max {} must drop below {}", c.w_max, w1);
    }

    #[test]
    fn idle_restart_caps_at_initial() {
        let mut c = Cubic::new(MSS);
        for _ in 0..20 {
            c.on_new_ack(at(0), 4 * MSS, MSS, None);
        }
        c.on_idle_restart();
        assert_eq!(c.cwnd(), 2 * MSS);
        c.on_timeout(8 * MSS);
        c.on_idle_restart();
        assert_eq!(c.cwnd(), MSS, "idle restart must not inflate a collapsed window");
    }
}

//! TCP Reno congestion control (RFC 2581/5681).
//!
//! Slow start, congestion avoidance, fast retransmit / fast recovery,
//! and restart-after-idle. The evaluation LAN is never congestion-limited
//! (the ≈17 KB receive window binds first), but congestion control still
//! shapes the Interactive application's response latency: each burst
//! after an idle period restarts from the initial window, which is why a
//! 10 KB reply costs ≈2 round trips rather than one.
//!
//! This is the pre-trait `Congestion` struct verbatim — the window
//! arithmetic must stay bit-identical, since the determinism digests pin
//! the default stack's wire behaviour against the pre-refactor seed.

use super::{CcPhase, CongSnapshot, CongestionAlgo, CongestionController};
use netsim::{SimDuration, SimTime};

/// Why the sender entered recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Open,
    FastRecovery,
}

/// Reno congestion state for one connection.
#[derive(Debug, Clone)]
pub struct Reno {
    mss: u32,
    cwnd: u32,
    ssthresh: u32,
    phase: Phase,
    dup_acks: u32,
    initial_cwnd: u32,
    fast_retransmits: u64,
    timeout_retransmits: u64,
}

impl Reno {
    /// Creates Reno state: initial window of 2 MSS; ssthresh starts
    /// "arbitrarily high" (RFC 5681 §3.1) so slow start runs until the
    /// first loss or the flow-control window binds.
    pub fn new(mss: u32) -> Self {
        let initial_cwnd = 2 * mss;
        Reno {
            mss,
            cwnd: initial_cwnd,
            ssthresh: u32::MAX,
            phase: Phase::Open,
            dup_acks: 0,
            initial_cwnd,
            fast_retransmits: 0,
            timeout_retransmits: 0,
        }
    }
}

impl CongestionController for Reno {
    fn on_new_ack(&mut self, _now: SimTime, _flight: u32, _acked: u32, _srtt: Option<SimDuration>) {
        self.dup_acks = 0;
        match self.phase {
            Phase::FastRecovery => {
                // Deflate back to ssthresh.
                self.cwnd = self.ssthresh;
                self.phase = Phase::Open;
            }
            Phase::Open => {
                if self.cwnd < self.ssthresh {
                    self.cwnd = self.cwnd.saturating_add(self.mss); // slow start
                } else {
                    // Congestion avoidance: ~1 MSS per RTT.
                    let inc = (u64::from(self.mss) * u64::from(self.mss)
                        / u64::from(self.cwnd.max(1)))
                    .max(1);
                    self.cwnd = self.cwnd.saturating_add(inc as u32);
                }
            }
        }
    }

    fn on_dup_ack(&mut self, flight: u32) -> bool {
        self.dup_acks += 1;
        match self.phase {
            Phase::Open if self.dup_acks == 3 => {
                self.ssthresh = (flight / 2).max(2 * self.mss);
                self.cwnd = self.ssthresh + 3 * self.mss;
                self.phase = Phase::FastRecovery;
                self.fast_retransmits += 1;
                true
            }
            Phase::FastRecovery => {
                // Window inflation: each dup ACK signals a departed segment.
                self.cwnd = self.cwnd.saturating_add(self.mss);
                false
            }
            _ => false,
        }
    }

    fn on_timeout(&mut self, flight: u32) {
        self.ssthresh = (flight / 2).max(2 * self.mss);
        self.cwnd = self.mss; // loss window (RFC 5681 §3.1)
        self.phase = Phase::Open;
        self.dup_acks = 0;
        self.timeout_retransmits += 1;
    }

    fn on_sent(&mut self, _now: SimTime, _bytes: u32) {}

    fn on_idle_restart(&mut self) {
        // RFC 5681 §4.1: cwnd = min(IW, cwnd) — an idle restart must
        // never *grow* the window (a post-timeout 1-MSS window stays
        // collapsed; the pre-fix code bumped it back to the initial
        // window).
        self.cwnd = self.cwnd.min(self.initial_cwnd);
        self.phase = Phase::Open;
        self.dup_acks = 0;
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
            Phase::Open => CcPhase::Avoidance,
        }
    }

    fn algo(&self) -> CongestionAlgo {
        CongestionAlgo::Reno
    }

    fn import(&mut self, snap: CongSnapshot) {
        self.cwnd = snap.cwnd.max(self.mss);
        self.ssthresh = snap.ssthresh.max(2 * self.mss);
        self.phase = Phase::Open;
        self.dup_acks = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: u32 = 1460;

    fn ack(c: &mut Reno, flight: u32) {
        c.on_new_ack(SimTime::ZERO, flight, MSS, None);
    }

    #[test]
    fn starts_with_two_segments() {
        let c = Reno::new(MSS);
        assert_eq!(c.cwnd(), 2 * MSS);
        assert!(!c.in_fast_recovery());
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut c = Reno::new(MSS);
        // One RTT's worth of ACKs: 2 ACKs (one per segment) -> cwnd 4 MSS.
        ack(&mut c, 2 * MSS);
        ack(&mut c, 2 * MSS);
        assert_eq!(c.cwnd(), 4 * MSS);
    }

    #[test]
    fn congestion_avoidance_grows_linearly() {
        let mut c = Reno::new(MSS);
        // A timeout sets a finite ssthresh; grow back into avoidance.
        c.on_timeout(64 * 1024);
        while c.cwnd() < c.ssthresh() {
            let w = c.cwnd();
            ack(&mut c, w);
        }
        let w = c.cwnd();
        // cwnd/MSS ACKs ≈ one RTT ≈ +1 MSS.
        let acks = w / MSS;
        for _ in 0..acks {
            ack(&mut c, w);
        }
        let grown = c.cwnd() - w;
        assert!((MSS - 100..=MSS + 100).contains(&grown), "grew {grown}, expected ≈MSS");
    }

    #[test]
    fn triple_dup_ack_enters_fast_recovery() {
        let mut c = Reno::new(MSS);
        let flight = 10 * MSS;
        assert!(!c.on_dup_ack(flight));
        assert!(!c.on_dup_ack(flight));
        assert!(c.on_dup_ack(flight), "third dup ACK must trigger fast retransmit");
        assert!(c.in_fast_recovery());
        assert_eq!(c.phase(), CcPhase::FastRecovery);
        assert_eq!(c.ssthresh(), 5 * MSS);
        assert_eq!(c.cwnd(), 5 * MSS + 3 * MSS);
        assert_eq!(c.fast_retransmits(), 1);
        // Additional dup ACKs inflate.
        c.on_dup_ack(flight);
        assert_eq!(c.cwnd(), 9 * MSS);
        // New ACK deflates to ssthresh.
        ack(&mut c, flight);
        assert_eq!(c.cwnd(), 5 * MSS);
        assert!(!c.in_fast_recovery());
    }

    #[test]
    fn timeout_collapses_to_one_segment() {
        let mut c = Reno::new(MSS);
        for _ in 0..20 {
            ack(&mut c, 4 * MSS);
        }
        c.on_timeout(8 * MSS);
        assert_eq!(c.cwnd(), MSS);
        assert_eq!(c.ssthresh(), 4 * MSS);
        assert_eq!(c.timeout_retransmits(), 1);
    }

    #[test]
    fn idle_restart_caps_at_initial() {
        let mut c = Reno::new(MSS);
        for _ in 0..10 {
            ack(&mut c, 4 * MSS);
        }
        assert!(c.cwnd() > 2 * MSS);
        c.on_idle_restart();
        assert_eq!(c.cwnd(), 2 * MSS);
    }

    #[test]
    fn idle_restart_never_grows_a_collapsed_window() {
        // RFC 5681 §4.1: cwnd = min(IW, cwnd). After a timeout the
        // window is 1 MSS; an idle restart must leave it there, not
        // reset it up to the 2-MSS initial window.
        let mut c = Reno::new(MSS);
        for _ in 0..10 {
            ack(&mut c, 4 * MSS);
        }
        c.on_timeout(8 * MSS);
        assert_eq!(c.cwnd(), MSS);
        c.on_idle_restart();
        assert_eq!(c.cwnd(), MSS, "idle restart must not inflate cwnd");
    }

    #[test]
    fn dup_acks_below_three_do_nothing() {
        let mut c = Reno::new(MSS);
        let before = c.cwnd();
        c.on_dup_ack(5 * MSS);
        c.on_dup_ack(5 * MSS);
        assert_eq!(c.cwnd(), before);
        assert_eq!(c.dup_acks(), 2);
        ack(&mut c, 5 * MSS);
        assert_eq!(c.dup_acks(), 0);
    }

    #[test]
    fn phase_names_follow_state() {
        let mut c = Reno::new(MSS);
        assert_eq!(c.phase(), CcPhase::SlowStart);
        c.on_timeout(8 * MSS);
        while c.cwnd() < c.ssthresh() {
            let w = c.cwnd();
            ack(&mut c, w);
        }
        assert_eq!(c.phase(), CcPhase::Avoidance);
    }
}

//! Pluggable congestion control.
//!
//! The sender's recovery decisions are factored behind the
//! [`CongestionController`] trait: the TCB reports what happened (an ACK
//! advanced `snd_una`, a duplicate ACK arrived, the RTO fired, bytes
//! left the host) and reads back the two decision outputs — a window
//! ([`CongestionController::cwnd`]) and optionally a pacing rate
//! ([`CongestionController::pacing_rate`]). Three controllers implement
//! it:
//!
//! * [`Reno`] — RFC 5681 slow start / congestion avoidance / fast
//!   recovery, bit-for-bit the behaviour the pre-trait stack hardwired
//!   (the determinism digests pin this);
//! * [`Cubic`] — RFC 8312 window growth, RTT-independent probing for
//!   high-BDP paths;
//! * [`Bbr`] — a simplified model-based BBR: windowed max-bandwidth /
//!   min-RTT estimation, a probe-bw pacing-gain cycle, and periodic RTT
//!   probing; largely loss-indifferent.
//!
//! Dispatch is by enum ([`CongestionCtrl`]), not `Box<dyn>`: the TCB
//! stays `Clone` + allocation-free, and a connection's controller choice
//! ([`CongestionAlgo`]) serializes by name into scenario specs and chaos
//! plans so campaigns replay identically.

mod bbr;
mod cubic;
mod reno;

pub use bbr::Bbr;
pub use cubic::Cubic;
pub use reno::Reno;

use netsim::{SimDuration, SimTime};

/// Which congestion-control algorithm a connection runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CongestionAlgo {
    /// RFC 5681 Reno (the default; matches the paper-era stack).
    #[default]
    Reno,
    /// RFC 8312 CUBIC.
    Cubic,
    /// Simplified model/probe-bw BBR.
    Bbr,
}

impl CongestionAlgo {
    /// Every algorithm, in serialization order.
    pub const ALL: [CongestionAlgo; 3] =
        [CongestionAlgo::Reno, CongestionAlgo::Cubic, CongestionAlgo::Bbr];

    /// Stable serialization name.
    pub const fn name(self) -> &'static str {
        match self {
            CongestionAlgo::Reno => "reno",
            CongestionAlgo::Cubic => "cubic",
            CongestionAlgo::Bbr => "bbr",
        }
    }

    /// Parses a [`CongestionAlgo::name`] back.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|a| a.name() == name)
    }
}

/// A controller's phase, as a connection traces its transitions. One
/// byte, where the name it traces as is two words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcPhase {
    /// Reno and CUBIC below `ssthresh`.
    SlowStart,
    /// Reno above `ssthresh`.
    Avoidance,
    /// CUBIC above `ssthresh`, below the last window maximum.
    Concave,
    /// CUBIC above the last window maximum.
    Convex,
    /// Reno and CUBIC loss recovery.
    FastRecovery,
    /// BBR start-up.
    Startup,
    /// BBR drain.
    Drain,
    /// BBR bandwidth probing.
    ProbeBw,
    /// BBR RTT probing.
    ProbeRtt,
}

impl CcPhase {
    /// The phase's name, as it appears in trace exports.
    pub const fn name(self) -> &'static str {
        match self {
            CcPhase::SlowStart => "slow_start",
            CcPhase::Avoidance => "avoidance",
            CcPhase::Concave => "concave",
            CcPhase::Convex => "convex",
            CcPhase::FastRecovery => "fast_recovery",
            CcPhase::Startup => "startup",
            CcPhase::Drain => "drain",
            CcPhase::ProbeBw => "probe_bw",
            CcPhase::ProbeRtt => "probe_rtt",
        }
    }
}

/// The controller state worth mirroring over the ST-TCP side channel so
/// a promoted backup resumes near the primary's operating point instead
/// of from the initial window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CongSnapshot {
    /// Congestion window in bytes.
    pub cwnd: u32,
    /// Slow-start threshold in bytes.
    pub ssthresh: u32,
}

/// One connection's congestion-control policy.
///
/// Inputs are events; outputs are `cwnd()` and `pacing_rate()`. The TCB
/// never mutates controller internals directly — counters are exposed as
/// read-only accessors.
pub trait CongestionController {
    /// An ACK advanced `snd_una`. `flight` is the bytes in flight before
    /// the ACK, `acked` the bytes it newly covered, `srtt` the current
    /// smoothed round-trip estimate (if any sample has arrived).
    fn on_new_ack(&mut self, now: SimTime, flight: u32, acked: u32, srtt: Option<SimDuration>);

    /// A duplicate ACK arrived. Returns `true` when the controller wants
    /// a fast retransmit (classically: the third duplicate).
    fn on_dup_ack(&mut self, flight: u32) -> bool;

    /// The retransmission timer fired.
    fn on_timeout(&mut self, flight: u32);

    /// `bytes` were handed to the wire (new data or retransmission).
    fn on_sent(&mut self, now: SimTime, bytes: u32);

    /// The connection restarted after an RTO-length idle. RFC 5681 §4.1:
    /// the window must come back *no larger than* the initial window —
    /// `min(initial, cwnd)`, never an increase.
    fn on_idle_restart(&mut self);

    /// Current congestion window in bytes.
    fn cwnd(&self) -> u32;

    /// Current slow-start threshold in bytes.
    fn ssthresh(&self) -> u32;

    /// Pacing rate in bytes/second, for rate-based controllers. `None`
    /// means no pacing: the window alone gates transmission (Reno and
    /// CUBIC here).
    fn pacing_rate(&self) -> Option<u64>;

    /// True while in a loss-recovery episode.
    fn in_fast_recovery(&self) -> bool;

    /// Consecutive duplicate ACKs seen.
    fn dup_acks(&self) -> u32;

    /// Retransmissions this controller triggered via duplicate ACKs.
    fn fast_retransmits(&self) -> u64;

    /// Retransmissions triggered by the RTO timer.
    fn timeout_retransmits(&self) -> u64;

    /// The controller's current phase, for state-transition tracing.
    fn phase(&self) -> CcPhase;

    /// Which algorithm this is.
    fn algo(&self) -> CongestionAlgo;

    /// Exports the mirrorable state (primary side of the shadow path).
    fn export(&self) -> CongSnapshot {
        CongSnapshot { cwnd: self.cwnd(), ssthresh: self.ssthresh() }
    }

    /// Adopts mirrored state from the primary (backup side). Values are
    /// clamped to sane bounds by the implementation.
    fn import(&mut self, snap: CongSnapshot);
}

/// Whether `idle` (time since last send) warrants a restart given the
/// current smoothed RTO (RFC 5681 §4.1).
pub fn idle_restart_due(idle: SimDuration, rto: SimDuration) -> bool {
    idle > rto
}

/// Enum dispatcher over the three controllers — the concrete type a TCB
/// holds. Keeps the TCB `Clone`/`Debug` without `dyn` indirection on the
/// default path: Reno (the paper-era default every fleet connection
/// runs) is inline, while the model-heavy CUBIC/BBR states are boxed so
/// they don't inflate every TCB — at 10 k connections the enum's size is
/// per-event cache footprint, and an unboxed BBR variant measurably
/// halves fleet event throughput.
#[derive(Debug, Clone)]
pub enum CongestionCtrl {
    /// RFC 5681 Reno.
    Reno(Reno),
    /// RFC 8312 CUBIC.
    Cubic(Box<Cubic>),
    /// Simplified BBR.
    Bbr(Box<Bbr>),
}

impl CongestionCtrl {
    /// Creates the controller `algo` selects, for a connection with the
    /// given MSS.
    pub fn new(algo: CongestionAlgo, mss: u32) -> Self {
        match algo {
            CongestionAlgo::Reno => CongestionCtrl::Reno(Reno::new(mss)),
            CongestionAlgo::Cubic => CongestionCtrl::Cubic(Box::new(Cubic::new(mss))),
            CongestionAlgo::Bbr => CongestionCtrl::Bbr(Box::new(Bbr::new(mss))),
        }
    }
}

macro_rules! dispatch {
    ($self:expr, $c:ident => $body:expr) => {
        match $self {
            CongestionCtrl::Reno($c) => $body,
            CongestionCtrl::Cubic($c) => $body,
            CongestionCtrl::Bbr($c) => $body,
        }
    };
}

impl CongestionController for CongestionCtrl {
    fn on_new_ack(&mut self, now: SimTime, flight: u32, acked: u32, srtt: Option<SimDuration>) {
        dispatch!(self, c => c.on_new_ack(now, flight, acked, srtt))
    }
    fn on_dup_ack(&mut self, flight: u32) -> bool {
        dispatch!(self, c => c.on_dup_ack(flight))
    }
    fn on_timeout(&mut self, flight: u32) {
        dispatch!(self, c => c.on_timeout(flight))
    }
    fn on_sent(&mut self, now: SimTime, bytes: u32) {
        dispatch!(self, c => c.on_sent(now, bytes))
    }
    fn on_idle_restart(&mut self) {
        dispatch!(self, c => c.on_idle_restart())
    }
    fn cwnd(&self) -> u32 {
        dispatch!(self, c => c.cwnd())
    }
    fn ssthresh(&self) -> u32 {
        dispatch!(self, c => c.ssthresh())
    }
    fn pacing_rate(&self) -> Option<u64> {
        dispatch!(self, c => c.pacing_rate())
    }
    fn in_fast_recovery(&self) -> bool {
        dispatch!(self, c => c.in_fast_recovery())
    }
    fn dup_acks(&self) -> u32 {
        dispatch!(self, c => c.dup_acks())
    }
    fn fast_retransmits(&self) -> u64 {
        dispatch!(self, c => c.fast_retransmits())
    }
    fn timeout_retransmits(&self) -> u64 {
        dispatch!(self, c => c.timeout_retransmits())
    }
    fn phase(&self) -> CcPhase {
        dispatch!(self, c => c.phase())
    }
    fn algo(&self) -> CongestionAlgo {
        dispatch!(self, c => c.algo())
    }
    fn import(&mut self, snap: CongSnapshot) {
        dispatch!(self, c => c.import(snap))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: u32 = 1460;

    #[test]
    fn algo_names_roundtrip() {
        for a in CongestionAlgo::ALL {
            assert_eq!(CongestionAlgo::from_name(a.name()), Some(a));
        }
        assert_eq!(CongestionAlgo::from_name("vegas"), None);
        assert_eq!(CongestionAlgo::default(), CongestionAlgo::Reno);
    }

    #[test]
    fn dispatcher_builds_the_selected_algo() {
        for a in CongestionAlgo::ALL {
            let c = CongestionCtrl::new(a, MSS);
            assert_eq!(c.algo(), a);
            assert!(c.cwnd() >= 2 * MSS);
        }
    }

    #[test]
    fn export_import_roundtrips_window_state() {
        for a in CongestionAlgo::ALL {
            let mut src = CongestionCtrl::new(a, MSS);
            let t = SimTime::ZERO + SimDuration::from_millis(50);
            for _ in 0..24 {
                src.on_new_ack(t, 4 * MSS, MSS, Some(SimDuration::from_millis(10)));
            }
            let snap = src.export();
            let mut dst = CongestionCtrl::new(a, MSS);
            dst.import(snap);
            assert_eq!(dst.cwnd(), snap.cwnd, "{}", a.name());
        }
    }

    #[test]
    fn idle_restart_predicate() {
        let rto = SimDuration::from_millis(200);
        assert!(!idle_restart_due(SimDuration::from_millis(100), rto));
        assert!(!idle_restart_due(SimDuration::from_millis(200), rto));
        assert!(idle_restart_due(SimDuration::from_millis(201), rto));
    }
}

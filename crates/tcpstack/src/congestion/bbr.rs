//! Simplified BBR congestion control (model/probe-bw variant).
//!
//! Instead of reacting to loss, BBR builds an explicit model of the path
//! — bottleneck bandwidth (windowed max of delivery-rate samples) and
//! propagation delay (windowed min RTT) — and paces transmission at the
//! model's rate. The cwnd becomes a secondary cap (2×BDP) rather than
//! the primary control. Phases follow the classic state machine:
//!
//! * **Startup** — pace at ~2.9× the estimated rate to find the
//!   bottleneck quickly (exponential, like slow start);
//! * **Drain** — pace below rate once bandwidth stops growing, to bleed
//!   the queue Startup built;
//! * **ProbeBw** — cycle pacing gain `[1.25, 0.75, 1, 1, 1, 1, 1, 1]`
//!   around the estimate, one step per min-RTT;
//! * **ProbeRtt** — every ~10 s, drop the window to 4 MSS briefly so the
//!   queue empties and a fresh propagation-delay sample can be taken.
//!
//! Loss is almost ignored: a triple-dup-ACK still requests the fast
//! retransmit (so holes get repaired promptly) but does not collapse the
//! model; an RTO resets cwnd conservatively while keeping the bandwidth
//! estimate, so recovery is quick.

use super::{CcPhase, CongSnapshot, CongestionAlgo, CongestionController};
use netsim::{SimDuration, SimTime};

/// Startup/Drain pacing gain: 2/ln(2), the fastest gain that still
/// lets each delivery-rate sample reflect the previous doubling.
const STARTUP_GAIN: f64 = 2.885;
/// ProbeBw gain cycle; one step per min-RTT.
const CYCLE: [f64; 8] = [1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
/// cwnd cap as a multiple of the BDP.
const CWND_GAIN: f64 = 2.0;
/// How long a min-RTT sample stays fresh before ProbeRtt re-measures.
const MIN_RTT_WINDOW: SimDuration = SimDuration::from_secs(10);
/// How long ProbeRtt holds the window down.
const PROBE_RTT_HOLD: SimDuration = SimDuration::from_millis(200);
/// Bandwidth filter length, in gain-cycle steps (~10 RTTs).
const BW_FILTER_LEN: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Startup,
    Drain,
    ProbeBw,
    ProbeRtt,
}

/// Simplified BBR state for one connection.
#[derive(Debug, Clone)]
pub struct Bbr {
    mss: u32,
    cwnd: u32,
    initial_cwnd: u32,
    mode: Mode,
    /// Delivery-rate epoch start — samples are taken over at least one
    /// min-RTT of acked bytes, NOT per ACK: per-ACK `acked/srtt` would
    /// undercount by the ack-decimation factor (delayed ACKs cover ~2
    /// MSS each) and collapse the model.
    epoch_start: Option<SimTime>,
    /// Bytes acknowledged since `epoch_start`.
    epoch_bytes: u64,
    /// Windowed max-filter over delivery-rate samples (bytes/sec); one
    /// slot per gain-cycle step, rotated as the cycle advances.
    bw_filter: [u64; BW_FILTER_LEN],
    bw_slot: usize,
    /// Current bottleneck-bandwidth estimate (max of the filter).
    btl_bw: u64,
    min_rtt: Option<SimDuration>,
    min_rtt_stamp: SimTime,
    /// When the current ProbeRtt hold ends.
    probe_rtt_done: SimTime,
    /// Window to restore after ProbeRtt.
    prior_cwnd: u32,
    cycle_idx: usize,
    cycle_stamp: SimTime,
    /// Plateau detection for Startup→Drain.
    full_bw: u64,
    full_bw_count: u32,
    dup_acks: u32,
    fast_retransmits: u64,
    timeout_retransmits: u64,
}

impl Bbr {
    /// Creates BBR state with a 10-MSS initial window (BBR assumes
    /// modern IW10; pacing, not the window, is the real control).
    pub fn new(mss: u32) -> Self {
        let initial_cwnd = 10 * mss;
        Bbr {
            mss,
            cwnd: initial_cwnd,
            initial_cwnd,
            mode: Mode::Startup,
            epoch_start: None,
            epoch_bytes: 0,
            bw_filter: [0; BW_FILTER_LEN],
            bw_slot: 0,
            btl_bw: 0,
            min_rtt: None,
            min_rtt_stamp: SimTime::ZERO,
            probe_rtt_done: SimTime::ZERO,
            prior_cwnd: initial_cwnd,
            cycle_idx: 0,
            cycle_stamp: SimTime::ZERO,
            full_bw: 0,
            full_bw_count: 0,
            dup_acks: 0,
            fast_retransmits: 0,
            timeout_retransmits: 0,
        }
    }

    /// Bandwidth-delay product from the current model, in bytes.
    fn bdp(&self) -> u32 {
        match self.min_rtt {
            Some(rtt) if self.btl_bw > 0 => {
                let bdp = self.btl_bw as f64 * rtt.as_nanos() as f64 / 1e9;
                bdp as u32
            }
            _ => self.initial_cwnd,
        }
    }

    /// Accumulates acked bytes and closes a delivery-rate epoch once at
    /// least one min-RTT has elapsed, feeding `epoch_bytes / elapsed`
    /// into the windowed max filter. Returns whether an epoch closed
    /// (i.e. `btl_bw` holds a fresh estimate).
    fn sample_bw(&mut self, now: SimTime, acked: u32) -> bool {
        let Some(start) = self.epoch_start else {
            // First ACK opens the epoch; no interval to measure yet.
            self.epoch_start = Some(now);
            return false;
        };
        self.epoch_bytes += u64::from(acked);
        let window = self.min_rtt.unwrap_or(SimDuration::from_millis(10));
        let elapsed = now.duration_since(start);
        if elapsed.is_zero() || elapsed < window {
            return false;
        }
        let rate = (self.epoch_bytes as f64 * 1e9 / elapsed.as_nanos() as f64) as u64;
        let slot = &mut self.bw_filter[self.bw_slot];
        *slot = (*slot).max(rate);
        self.btl_bw = self.bw_filter.iter().copied().max().unwrap_or(0);
        self.epoch_start = Some(now);
        self.epoch_bytes = 0;
        true
    }

    /// Advances the gain cycle (and rotates the bw filter) once per
    /// min-RTT of elapsed time.
    fn advance_cycle(&mut self, now: SimTime) {
        let step = self.min_rtt.unwrap_or(SimDuration::from_millis(100));
        if now.duration_since(self.cycle_stamp) < step {
            return;
        }
        self.cycle_stamp = now;
        self.cycle_idx = (self.cycle_idx + 1) % CYCLE.len();
        self.bw_slot = (self.bw_slot + 1) % BW_FILTER_LEN;
        self.bw_filter[self.bw_slot] = 0;
    }

    /// Startup exit: bandwidth stopped growing ≥25% for 3 rounds.
    fn check_full_pipe(&mut self) {
        if self.btl_bw > self.full_bw + self.full_bw / 4 {
            self.full_bw = self.btl_bw;
            self.full_bw_count = 0;
        } else {
            self.full_bw_count += 1;
            if self.full_bw_count >= 3 {
                self.mode = Mode::Drain;
            }
        }
    }
}

impl CongestionController for Bbr {
    fn on_new_ack(&mut self, now: SimTime, flight: u32, acked: u32, srtt: Option<SimDuration>) {
        self.dup_acks = 0;
        if let Some(rtt) = srtt {
            if !rtt.is_zero() && self.min_rtt.is_none_or(|m| rtt <= m) {
                self.min_rtt = Some(rtt);
                self.min_rtt_stamp = now;
            }
        }
        let epoch_closed = self.sample_bw(now, acked);
        self.advance_cycle(now);

        // ProbeRtt entry: the min-RTT sample went stale.
        if self.mode != Mode::ProbeRtt
            && self.min_rtt.is_some()
            && now.duration_since(self.min_rtt_stamp) > MIN_RTT_WINDOW
        {
            self.mode = Mode::ProbeRtt;
            self.prior_cwnd = self.cwnd;
            self.probe_rtt_done = now + PROBE_RTT_HOLD;
        }

        match self.mode {
            Mode::Startup => {
                // Exponential growth, like slow start but ack-clocked.
                self.cwnd = self.cwnd.saturating_add(acked);
                // Plateau detection is per *estimate*, not per ACK: the
                // estimate only moves when an epoch closes, so counting
                // every ACK would see false plateaus mid-epoch.
                if epoch_closed {
                    self.check_full_pipe();
                }
            }
            Mode::Drain => {
                let bdp = self.bdp();
                if flight <= bdp {
                    self.mode = Mode::ProbeBw;
                    self.cycle_stamp = now;
                    self.cycle_idx = 0;
                }
                self.cwnd = (CWND_GAIN * f64::from(bdp)) as u32;
            }
            Mode::ProbeBw => {
                self.cwnd = ((CWND_GAIN * f64::from(self.bdp())) as u32).max(4 * self.mss);
            }
            Mode::ProbeRtt => {
                self.cwnd = 4 * self.mss;
                if now >= self.probe_rtt_done {
                    self.min_rtt_stamp = now;
                    if let Some(rtt) = srtt {
                        self.min_rtt = Some(rtt);
                    }
                    self.cwnd = self.prior_cwnd.max(4 * self.mss);
                    self.mode = if self.full_bw_count >= 3 { Mode::ProbeBw } else { Mode::Startup };
                }
            }
        }
        self.cwnd = self.cwnd.max(4 * self.mss);
    }

    fn on_dup_ack(&mut self, _flight: u32) -> bool {
        self.dup_acks += 1;
        if self.dup_acks == 3 {
            // Repair the hole but keep the model: BBR treats isolated
            // loss as noise, not a congestion signal.
            self.fast_retransmits += 1;
            true
        } else {
            false
        }
    }

    fn on_timeout(&mut self, _flight: u32) {
        // Conservative window, but the bandwidth model survives — the
        // next ACKs restore cwnd straight to 2×BDP.
        self.cwnd = self.mss.max(self.initial_cwnd / 2);
        self.dup_acks = 0;
        self.timeout_retransmits += 1;
        // The retransmission epoch delivers nothing new; start fresh.
        self.epoch_start = None;
        self.epoch_bytes = 0;
    }

    fn on_sent(&mut self, _now: SimTime, _bytes: u32) {}

    fn on_idle_restart(&mut self) {
        self.cwnd = self.cwnd.min(self.initial_cwnd);
        self.dup_acks = 0;
        self.epoch_start = None;
        self.epoch_bytes = 0;
        // Stale after idle: re-grow the model from scratch.
        if self.mode == Mode::ProbeRtt {
            self.mode = Mode::ProbeBw;
        }
    }

    fn cwnd(&self) -> u32 {
        self.cwnd
    }

    fn ssthresh(&self) -> u32 {
        // BBR has no ssthresh; report the BDP as the nearest analogue so
        // snapshots and gauges stay meaningful.
        self.bdp().max(2 * self.mss)
    }

    fn pacing_rate(&self) -> Option<u64> {
        if self.btl_bw == 0 {
            return None; // no model yet: window-limited like Reno
        }
        let gain = match self.mode {
            Mode::Startup => STARTUP_GAIN,
            Mode::Drain => 1.0 / STARTUP_GAIN,
            Mode::ProbeBw => CYCLE[self.cycle_idx],
            Mode::ProbeRtt => 1.0,
        };
        Some(((self.btl_bw as f64 * gain) as u64).max(u64::from(self.mss)))
    }

    fn in_fast_recovery(&self) -> bool {
        false
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
        match self.mode {
            Mode::Startup => CcPhase::Startup,
            Mode::Drain => CcPhase::Drain,
            Mode::ProbeBw => CcPhase::ProbeBw,
            Mode::ProbeRtt => CcPhase::ProbeRtt,
        }
    }

    fn algo(&self) -> CongestionAlgo {
        CongestionAlgo::Bbr
    }

    fn import(&mut self, snap: CongSnapshot) {
        self.cwnd = snap.cwnd.max(4 * self.mss);
        self.prior_cwnd = self.cwnd;
        // The bandwidth model cannot be mirrored cheaply; rebuild it from
        // the imported window once ACKs flow (Startup re-probes quickly).
        self.mode = Mode::Startup;
        self.full_bw = 0;
        self.full_bw_count = 0;
        self.dup_acks = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: u32 = 1460;

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    /// Drives `acked` bytes per `rtt_ms` RTT for `rounds` rounds. The
    /// reported flight equals the delivered-per-RTT amount — the paced
    /// steady state (rate × RTT), which is what lets Drain observe the
    /// queue emptying and hand off to ProbeBw.
    fn drive(b: &mut Bbr, start_ms: u64, rounds: u64, acked: u32, rtt_ms: u64) -> u64 {
        let rtt = SimDuration::from_millis(rtt_ms);
        for i in 0..rounds {
            b.on_new_ack(at(start_ms + i * rtt_ms), acked, acked, Some(rtt));
        }
        start_ms + rounds * rtt_ms
    }

    #[test]
    fn startup_grows_exponentially_then_drains() {
        let mut b = Bbr::new(MSS);
        assert_eq!(b.phase(), CcPhase::Startup);
        // Rising delivery rate: stay in startup.
        let rtt = SimDuration::from_millis(40);
        let mut acked = MSS;
        let mut t = 0u64;
        while b.phase() == CcPhase::Startup && t < 10_000 {
            b.on_new_ack(at(t), b.cwnd(), acked, Some(rtt));
            acked = acked.saturating_add(acked / 8).min(64 * MSS);
            t += 40;
            if acked == 64 * MSS {
                // Rate plateaued: startup must exit within a few rounds.
                let before = t;
                while b.phase() == CcPhase::Startup && t < before + 400 {
                    b.on_new_ack(at(t), b.cwnd(), acked, Some(rtt));
                    t += 40;
                }
                break;
            }
        }
        assert_ne!(b.phase(), CcPhase::Startup, "plateaued bandwidth must exit startup");
    }

    #[test]
    fn model_tracks_delivery_rate() {
        let mut b = Bbr::new(MSS);
        // 10 MSS per 50 ms RTT ≈ 292 KB/s.
        drive(&mut b, 0, 40, 10 * MSS, 50);
        let rate = 10 * u64::from(MSS) * 20;
        assert!(
            b.btl_bw > rate / 2 && b.btl_bw < rate * 2,
            "btl_bw {} should be near {rate}",
            b.btl_bw
        );
        assert_eq!(b.min_rtt, Some(SimDuration::from_millis(50)));
        assert!(b.pacing_rate().is_some());
    }

    #[test]
    fn cwnd_settles_near_two_bdp() {
        let mut b = Bbr::new(MSS);
        let t = drive(&mut b, 0, 200, 10 * MSS, 50);
        assert_eq!(b.phase(), CcPhase::ProbeBw);
        drive(&mut b, t, 20, 10 * MSS, 50);
        let bdp = b.bdp();
        let lo = (f64::from(bdp) * 1.8) as u32;
        let hi = (f64::from(bdp) * 2.2) as u32;
        assert!(
            (lo..=hi).contains(&b.cwnd()) || b.cwnd() == 4 * MSS,
            "cwnd {} should track 2×BDP {bdp}",
            b.cwnd()
        );
    }

    #[test]
    fn loss_does_not_collapse_the_model() {
        let mut b = Bbr::new(MSS);
        drive(&mut b, 0, 100, 10 * MSS, 50);
        let bw = b.btl_bw;
        let cwnd = b.cwnd();
        assert!(!b.on_dup_ack(cwnd));
        assert!(!b.on_dup_ack(cwnd));
        assert!(b.on_dup_ack(cwnd), "third dup ACK still requests the retransmit");
        assert_eq!(b.btl_bw, bw, "bandwidth estimate must survive loss");
        assert_eq!(b.cwnd(), cwnd, "dup ACKs must not collapse cwnd");
        assert_eq!(b.fast_retransmits(), 1);
        // RTO: window resets but the model survives, and ACKs restore it.
        b.on_timeout(cwnd);
        assert!(b.cwnd() < cwnd);
        assert_eq!(b.btl_bw, bw);
        drive(&mut b, 6000, 5, 10 * MSS, 50);
        assert!(b.cwnd() > b.initial_cwnd, "cwnd should rebuild from the model");
    }

    #[test]
    fn probe_rtt_fires_when_sample_goes_stale() {
        let mut b = Bbr::new(MSS);
        let mut t = drive(&mut b, 0, 100, 10 * MSS, 50);
        assert_eq!(b.phase(), CcPhase::ProbeBw);
        // Feed ACKs with a *higher* RTT for >10 s: min-RTT goes stale.
        let rtt = SimDuration::from_millis(80);
        let mut saw_probe_rtt = false;
        for _ in 0..200 {
            t += 80;
            b.on_new_ack(at(t), b.cwnd(), 10 * MSS, Some(rtt));
            if b.phase() == CcPhase::ProbeRtt {
                saw_probe_rtt = true;
                assert_eq!(b.cwnd(), 4 * MSS, "probe-rtt must shrink the window");
            }
        }
        assert!(saw_probe_rtt, "stale min-RTT must trigger probe-rtt");
        assert_eq!(b.phase(), CcPhase::ProbeBw, "probe-rtt must end after the hold");
        assert!(b.cwnd() > 4 * MSS, "window must be restored after probe-rtt");
    }

    #[test]
    fn pacing_gain_cycles_in_probe_bw() {
        let mut b = Bbr::new(MSS);
        let mut t = drive(&mut b, 0, 100, 10 * MSS, 50);
        assert_eq!(b.phase(), CcPhase::ProbeBw);
        let mut rates = std::collections::BTreeSet::new();
        for _ in 0..20 {
            t += 50;
            b.on_new_ack(at(t), b.cwnd(), 10 * MSS, Some(SimDuration::from_millis(50)));
            if let Some(r) = b.pacing_rate() {
                rates.insert(r);
            }
        }
        assert!(rates.len() >= 2, "gain cycle must produce distinct pacing rates: {rates:?}");
    }
}

//! Deterministic, rank-staggered failure detection.
//!
//! Every backup watches the serving primary independently; the
//! promotion *order* is enforced purely by time. Rank 1 uses the
//! paper's detection window (`hb_interval × missed_hb_threshold`);
//! each deeper rank waits `missed_hb_threshold − 1` extra heartbeat
//! intervals per rank (at least one) — the new primary's announcement
//! (which resets the deeper ranks' clocks onto it) may miss a deeper
//! rank as many times in a row as the old primary's heartbeats may miss
//! any backup, so a deployment that provisions its threshold for a
//! lossy side channel provisions the stagger with it. It is still
//! bounded, so a cascade where rank 1 *also* died converges with no
//! election traffic at all. At the default threshold of 3 the stagger
//! is two heartbeats.

use crate::config::SttcpConfig;
use netsim::{SimDuration, SimTime};

/// How long a rank-`rank` backup tolerates primary silence before
/// suspecting it. Rank 0 (the primary itself) never suspects.
pub fn detection_deadline(cfg: &SttcpConfig, rank: u8) -> SimDuration {
    let base = cfg.hb_interval.saturating_mul(u64::from(cfg.missed_hb_threshold));
    let per_rank = u64::from(cfg.missed_hb_threshold.saturating_sub(1).max(1));
    base + cfg.hb_interval.saturating_mul(per_rank * u64::from(rank.saturating_sub(1)))
}

/// The per-backup primary-liveness clock.
#[derive(Debug, Clone, Copy)]
pub struct PromotionTimer {
    last_primary_heard: Option<SimTime>,
    suspected_at: Option<SimTime>,
}

impl PromotionTimer {
    /// Starts the clock: the primary gets a full detection window to
    /// say hello.
    pub fn new(now: SimTime) -> Self {
        PromotionTimer { last_primary_heard: Some(now), suspected_at: None }
    }

    /// A message from the current primary arrived. Also clears an
    /// active suspicion — side-channel evidence of life always wins
    /// over a missed deadline.
    pub fn note_heard(&mut self, now: SimTime) {
        self.last_primary_heard = Some(now);
        self.suspected_at = None;
    }

    /// Restarts the clock for a new reign (topology adoption).
    pub fn reset(&mut self, now: SimTime) {
        *self = PromotionTimer::new(now);
    }

    /// When suspicion began, if it did.
    pub fn suspected_at(&self) -> Option<SimTime> {
        self.suspected_at
    }

    /// Whether the watched primary is currently suspected dead.
    pub fn is_suspected(&self) -> bool {
        self.suspected_at.is_some()
    }

    /// Advances the clock; returns the observed silence when this call
    /// *newly* crossed the deadline (the caller emits the suspicion
    /// mark/trace exactly once).
    pub fn check(&mut self, now: SimTime, deadline: SimDuration) -> Option<SimDuration> {
        if self.suspected_at.is_some() {
            return None;
        }
        let silence = self.last_primary_heard.and_then(|t| now.checked_duration_since(t))?;
        if silence > deadline {
            self.suspected_at = Some(now);
            Some(silence)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn cfg() -> SttcpConfig {
        SttcpConfig::new(Ipv4Addr::new(10, 0, 0, 100), 80)
    }

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    #[test]
    fn deadlines_stagger_by_two_heartbeats_per_rank() {
        let c = cfg(); // hb 50 ms, threshold 3
        assert_eq!(detection_deadline(&c, 1), ms(150));
        assert_eq!(detection_deadline(&c, 2), ms(250));
        assert_eq!(detection_deadline(&c, 3), ms(350));
    }

    #[test]
    fn the_stagger_tolerates_as_many_lost_announcements_as_the_threshold_does_heartbeats() {
        // A lossy side channel's provisioning: a rank-1 backup suspects
        // after ten silent intervals, and a deeper rank gives the new
        // primary's announcement nine intervals to reach it.
        let lossy = cfg().with_missed_hb_threshold(10);
        assert_eq!(detection_deadline(&lossy, 1), ms(500));
        assert_eq!(detection_deadline(&lossy, 2), ms(950));
        assert_eq!(detection_deadline(&lossy, 3), ms(1_400));
        // A threshold of one still staggers the ranks.
        let eager = cfg().with_missed_hb_threshold(1);
        assert_eq!(detection_deadline(&eager, 2), ms(100));
    }

    #[test]
    fn timer_suspects_once_and_only_past_the_deadline() {
        let mut t = PromotionTimer::new(SimTime::ZERO);
        assert_eq!(t.check(SimTime::ZERO + ms(150), ms(150)), None, "at deadline: not past it");
        let silence = t.check(SimTime::ZERO + ms(151), ms(150));
        assert_eq!(silence, Some(ms(151)));
        assert!(t.is_suspected());
        assert_eq!(t.check(SimTime::ZERO + ms(200), ms(150)), None, "suspicion fires once");
    }

    #[test]
    fn hearing_the_primary_cancels_suspicion() {
        let mut t = PromotionTimer::new(SimTime::ZERO);
        assert!(t.check(SimTime::ZERO + ms(200), ms(150)).is_some());
        t.note_heard(SimTime::ZERO + ms(210));
        assert!(!t.is_suspected());
        // The clock restarts from the fresh evidence.
        assert_eq!(t.check(SimTime::ZERO + ms(300), ms(150)), None);
        assert!(t.check(SimTime::ZERO + ms(400), ms(150)).is_some());
    }
}

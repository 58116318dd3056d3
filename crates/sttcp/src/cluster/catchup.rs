//! Per-connection sync accounting for a backup: the §4.3
//! acknowledgment strategy, tap-omission detection, and catch-up.
//!
//! Tracks, per shadowed connection, what this node has acknowledged to
//! the primary, how far its shadow trails the primary's cumulative ACK
//! (the *lag*), and the missing-segment request that is closing it. A
//! lagging or late-joining backup replays retained segments (from the
//! primary, or from the in-network logger once the primary is gone)
//! until nothing is missing; the promotion layer asks [`lag`] whether
//! this node is shadow-consistent enough to serve.
//!
//! Everything on the per-frame and per-tick paths is O(active): the ack
//! scan visits only connections with fresh receive progress, and the
//! retry scan only connections with a request in flight. Only [`lag`]
//! and [`gaps`] walk every tracked connection, and the engine calls
//! them only while the primary is suspected or a drain is pending.
//!
//! [`lag`]: CatchupTracker::lag
//! [`gaps`]: CatchupTracker::gaps

use crate::messages::ConnKey;
use netsim::{DetHashMap, SimDuration, SimTime};
use tcpstack::{NetStack, SeqNum, Tcb};

/// Per-connection sync state.
#[derive(Debug, Clone, Copy)]
struct ConnSync {
    /// Receive progress acknowledged to the primary (retention release
    /// point on the primary's side).
    last_acked_next: SeqNum,
    /// The ack before that — this node's *own* retention release point
    /// (it keeps one ack window of history to serve deeper backups
    /// after a promotion).
    prev_acked_next: SeqNum,
    /// Highest cumulative ACK seen from the primary (tapped segments).
    highest_primary_ack: Option<SeqNum>,
    /// In-flight missing-segment request: `(from, sent_at)`.
    outstanding_req: Option<(SeqNum, SimTime)>,
    /// Queued for the next ack scan.
    pending_ack: bool,
    /// Parked below the X threshold awaiting the sync tick.
    deferred: bool,
    /// Sits on the in-flight list awaiting the retry scan.
    in_flight: bool,
}

/// One ack this node owes the primary: `(conn, acked_next, own
/// retention release point)`.
pub type AckOut = (ConnKey, SeqNum, SeqNum);

/// One missing-segment request to send: `(conn, from, len)`.
pub type MissingOut = (ConnKey, SeqNum, u32);

/// One unhealed gap: `(conn, from, to)` — the logger-query window.
pub type Gap = (ConnKey, SeqNum, SeqNum);

fn shadow(stack: &NetStack, key: ConnKey) -> Option<&Tcb> {
    stack.sock_by_quad(key.server_quad()).and_then(|s| stack.tcb(s))
}

/// See the module docs.
#[derive(Debug, Default)]
pub struct CatchupTracker {
    conns: DetHashMap<ConnKey, ConnSync>,
    /// Connections with possibly-unacked receive progress.
    pending: Vec<ConnKey>,
    /// Reused swap buffer for the scans (no per-pump allocation).
    scratch: Vec<ConnKey>,
    /// Connections with unacked progress still below the X threshold,
    /// parked until the forced tick. Keeping these off `pending` is
    /// what makes a pump O(new activity): otherwise every frame event
    /// would rescan every in-flight connection. Fresh activity
    /// re-queues a parked key via [`CatchupTracker::note_activity`].
    deferred: Vec<ConnKey>,
    /// Connections with a missing-segment request in flight — the only
    /// ones the per-tick retry scan visits.
    in_flight: Vec<ConnKey>,
}

impl CatchupTracker {
    /// A fresh tracker.
    pub fn new() -> Self {
        CatchupTracker::default()
    }

    /// Registers a newly shadowed connection at the start of the
    /// client's stream.
    pub fn register(&mut self, key: ConnKey, initial_next: SeqNum) {
        self.conns.entry(key).or_insert(ConnSync {
            last_acked_next: initial_next,
            prev_acked_next: initial_next,
            highest_primary_ack: None,
            outstanding_req: None,
            pending_ack: false,
            deferred: false,
            in_flight: false,
        });
    }

    /// Stops tracking `key` (its connection is gone). A stale entry on
    /// one of the scan lists is skipped when its turn comes.
    pub fn forget(&mut self, key: ConnKey) {
        self.conns.remove(&key);
    }

    /// Queues `key` for the next ack scan (idempotent until it runs).
    pub fn note_activity(&mut self, key: ConnKey) {
        if let Some(c) = self.conns.get_mut(&key) {
            if !c.pending_ack {
                c.pending_ack = true;
                self.pending.push(key);
            }
        }
    }

    /// Records a tapped primary cumulative ACK; returns whether the
    /// connection is tracked.
    pub fn on_primary_ack(&mut self, key: ConnKey, ack: SeqNum) -> bool {
        match self.conns.get_mut(&key) {
            Some(c) => {
                c.highest_primary_ack = Some(match c.highest_primary_ack {
                    Some(prev) => prev.max(ack),
                    None => ack,
                });
                true
            }
            None => false,
        }
    }

    /// Clears the in-flight request for `key` (answered or refused).
    pub fn clear_outstanding(&mut self, key: ConnKey) {
        if let Some(c) = self.conns.get_mut(&key) {
            c.outstanding_req = None;
        }
    }

    /// Issues a missing-segment request for `key` if its shadow trails
    /// the primary's ACK and no request is in flight.
    pub fn request_missing(
        &mut self,
        now: SimTime,
        key: ConnKey,
        chunk: usize,
        stack: &NetStack,
        out: &mut Vec<MissingOut>,
    ) {
        let Some(c) = self.conns.get_mut(&key) else {
            return;
        };
        let Some(primary_ack) = c.highest_primary_ack else {
            return;
        };
        let Some(tcb) = shadow(stack, key) else {
            return;
        };
        // Compare against ack_seq (payload + consumed FIN) so a consumed
        // FIN does not read as one missing byte forever.
        let gap = primary_ack.distance(tcb.ack_seq());
        if gap <= 0 {
            c.outstanding_req = None;
            return;
        }
        if c.outstanding_req.is_some() {
            return; // one request in flight per connection
        }
        let (from, len) = (tcb.rcv_nxt(), (gap as usize).min(chunk) as u32);
        c.outstanding_req = Some((from, now));
        if !c.in_flight {
            c.in_flight = true;
            self.in_flight.push(key);
        }
        out.push((key, from, len));
    }

    /// Re-issues requests whose staleness window passed (sync tick).
    /// Visits only the in-flight list; answered requests drop off it.
    pub fn retry_stale(
        &mut self,
        now: SimTime,
        window: SimDuration,
        chunk: usize,
        stack: &NetStack,
        out: &mut Vec<MissingOut>,
    ) {
        debug_assert!(self.scratch.is_empty());
        std::mem::swap(&mut self.in_flight, &mut self.scratch);
        for i in 0..self.scratch.len() {
            let key = self.scratch[i];
            let Some(c) = self.conns.get_mut(&key) else {
                continue;
            };
            c.in_flight = false;
            let Some((_, sent_at)) = c.outstanding_req else {
                continue; // answered: off the list
            };
            if now.checked_duration_since(sent_at).is_some_and(|d| d > window) {
                c.outstanding_req = None;
                self.request_missing(now, key, chunk, stack, out);
            } else {
                c.in_flight = true;
                self.in_flight.push(key);
            }
        }
        self.scratch.clear();
    }

    /// The ack scan (§4.3): emits `(conn, acked_next, own release
    /// point)` for every queued connection whose progress crossed
    /// `x_threshold`, or — when `force` is set (the sync tick) — for
    /// every connection with any unacked progress, parked ones
    /// included. Returns how many acks the X threshold triggered.
    pub fn collect_acks(
        &mut self,
        stack: &NetStack,
        x_threshold: usize,
        force: bool,
        out: &mut Vec<AckOut>,
    ) -> u64 {
        debug_assert!(self.scratch.is_empty());
        std::mem::swap(&mut self.pending, &mut self.scratch);
        let triggered = self.scan(stack, x_threshold, force, false, out);
        if force {
            // The periodic tick flushes every parked sub-threshold ack.
            std::mem::swap(&mut self.deferred, &mut self.scratch);
            self.scan(stack, x_threshold, true, true, out);
        }
        triggered
    }

    /// One pass over the keys staged in `scratch`, taken off the
    /// `pending` list (or the `deferred` one when `parked`).
    fn scan(
        &mut self,
        stack: &NetStack,
        x_threshold: usize,
        force: bool,
        parked: bool,
        out: &mut Vec<AckOut>,
    ) -> u64 {
        let mut triggered = 0;
        for i in 0..self.scratch.len() {
            let key = self.scratch[i];
            let Some(c) = self.conns.get_mut(&key) else {
                continue;
            };
            if parked {
                c.deferred = false;
            } else {
                c.pending_ack = false;
            }
            let Some(next) = shadow(stack, key).map(|t| t.rcv_nxt()) else {
                continue; // shadow gone
            };
            let progress = next.distance(c.last_acked_next);
            if progress <= 0 {
                continue; // fully acked; re-queued on activity
            }
            // Careful with the comparison: `usize::MAX as i64` is -1, so
            // cast the (known-positive) progress up instead.
            let threshold_hit = progress as u128 >= x_threshold as u128;
            if force || threshold_hit {
                out.push((key, next, c.prev_acked_next));
                c.prev_acked_next = c.last_acked_next;
                c.last_acked_next = next;
                triggered += u64::from(threshold_hit && !force);
            } else if !c.deferred {
                // Progress can only grow via new activity, which
                // re-queues the key, so nothing is lost by parking.
                c.deferred = true;
                self.deferred.push(key);
            }
        }
        self.scratch.clear();
        triggered
    }

    /// Total bytes this node's shadows trail the primary's cumulative
    /// ACKs — zero means shadow-consistent, hence promotion-eligible.
    pub fn lag(&self, stack: &NetStack) -> u64 {
        self.conns
            .iter()
            .filter_map(|(&key, c)| {
                let gap = c.highest_primary_ack?.distance(shadow(stack, key)?.ack_seq());
                (gap > 0).then_some(gap as u64)
            })
            .sum()
    }

    /// The unhealed gaps, as logger-query windows, in [`ConnKey`] order:
    /// they become requests on the wire, so their order is the keys',
    /// not the map's.
    pub fn gaps(&self, stack: &NetStack, out: &mut Vec<Gap>) {
        let start = out.len();
        for (&key, c) in &self.conns {
            let Some(primary_ack) = c.highest_primary_ack else {
                continue;
            };
            let Some(tcb) = shadow(stack, key) else {
                continue;
            };
            if primary_ack.gt(tcb.ack_seq()) {
                out.push((key, tcb.rcv_nxt(), primary_ack));
            }
        }
        out[start..].sort_unstable_by_key(|&(key, ..)| key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn key(p: u16) -> ConnKey {
        ConnKey {
            client_ip: Ipv4Addr::new(10, 1, 0, 1),
            client_port: p,
            server_ip: Ipv4Addr::new(10, 0, 0, 100),
            server_port: 80,
        }
    }

    #[test]
    fn untracked_primary_ack_reports_bootstrap_needed() {
        let mut t = CatchupTracker::new();
        assert!(!t.on_primary_ack(key(1), SeqNum(100)));
        t.register(key(1), SeqNum(1));
        assert!(t.on_primary_ack(key(1), SeqNum(100)));
    }

    #[test]
    fn primary_ack_is_monotone() {
        let mut t = CatchupTracker::new();
        t.register(key(1), SeqNum(1));
        t.on_primary_ack(key(1), SeqNum(500));
        t.on_primary_ack(key(1), SeqNum(100)); // reordered tap frame
        let c = t.conns[&key(1)];
        assert_eq!(c.highest_primary_ack, Some(SeqNum(500)));
    }

    #[test]
    fn both_release_points_start_at_the_stream_base() {
        let mut t = CatchupTracker::new();
        t.register(key(1), SeqNum(1));
        let c = t.conns[&key(1)];
        assert_eq!(c.last_acked_next, SeqNum(1));
        assert_eq!(c.prev_acked_next, SeqNum(1));
    }
}

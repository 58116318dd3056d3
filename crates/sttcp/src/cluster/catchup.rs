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
//! The backup keeps no recovery clock of its own. The primary's
//! heartbeat carries a frontier entry for every connection on which
//! this backup has not acked bytes it had a whole tick to ack, and that
//! entry is the one recovery cue ([`CatchupTracker::on_entry`]): a
//! shadow that lacks bytes asks for them, the second entry that still
//! finds the request in flight asks again, and a shadow that holds them
//! re-acks at the next sync tick, since its last ack may have been lost.
//!
//! Everything on the per-frame and per-tick paths is O(active): the ack
//! scan visits only connections with fresh receive progress or a re-ack
//! owed. Only [`lag`] and [`gaps`] walk every tracked connection, and
//! the engine calls them only while the primary is suspected, after a
//! refused request, and when it asks the logger after a promotion.
//!
//! [`lag`]: CatchupTracker::lag
//! [`gaps`]: CatchupTracker::gaps

use crate::messages::ConnKey;
use netsim::DetHashMap;
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
    /// Highest cumulative ACK the primary's frontier entries quoted.
    highest_primary_ack: Option<SeqNum>,
    /// In-flight missing-segment request: the end of its range, and
    /// whether a frontier entry has come since it was sent.
    outstanding_req: Option<(SeqNum, bool)>,
    /// Queued for the next ack scan.
    pending_ack: bool,
    /// Parked awaiting the sync tick: below the X threshold, or owed a
    /// re-ack.
    deferred: bool,
    /// A frontier entry quoted an ACK the shadow holds: the next sync
    /// tick acks the connection even without new progress.
    reack: bool,
}

impl ConnSync {
    /// A missing-segment request for `key`, if its shadow trails the
    /// primary's ACK and no request is in flight.
    fn request_missing(&mut self, key: ConnKey, stack: &NetStack) -> Option<MissingOut> {
        let primary_ack = self.highest_primary_ack?;
        let tcb = shadow(stack, key)?;
        // Compare against ack_seq (payload + consumed FIN) so a consumed
        // FIN does not read as one missing byte forever.
        let gap = primary_ack.distance(tcb.ack_seq());
        if gap <= 0 {
            self.outstanding_req = None;
            return None;
        }
        if self.outstanding_req.is_some() {
            return None; // one request in flight per connection
        }
        let (from, len) = (tcb.rcv_nxt(), (gap as u32).min(MISSING_REQ_CHUNK));
        self.outstanding_req = Some((from.add(len), false));
        Some((key, from, len))
    }
}

/// One ack this node owes the primary: `(conn, acked_next, own
/// retention release point)`. A re-ack has no release point: it moves
/// nothing.
pub type AckOut = (ConnKey, SeqNum, Option<SeqNum>);

/// One missing-segment request to send: `(conn, from, len)`.
pub type MissingOut = (ConnKey, SeqNum, u32);

/// The largest missing-byte range one request asks for.
pub const MISSING_REQ_CHUNK: u32 = 16 * 1024;

/// One unhealed gap: `(conn, from, to)` — the logger-query window.
pub type Gap = (ConnKey, SeqNum, SeqNum);

/// How far past a shadow's `rcv_nxt` a query for bytes nobody has
/// located asks: more than any window a client may have had open.
pub const TAIL: u32 = 1 << 20;

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
    /// and those owed a re-ack, parked until the forced tick. Keeping
    /// these off `pending` is what makes a pump O(new activity):
    /// otherwise every frame event would rescan every in-flight
    /// connection. Fresh activity re-queues a parked key via
    /// [`CatchupTracker::note_activity`].
    deferred: Vec<ConnKey>,
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
            reack: false,
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

    /// A heartbeat's frontier entry quotes `ack`, the primary's
    /// cumulative ACK on `key` (see the module docs). Returns the
    /// missing-segment request to send, if any.
    pub fn on_entry(&mut self, key: ConnKey, ack: SeqNum, stack: &NetStack) -> Option<MissingOut> {
        let c = self.conns.get_mut(&key)?;
        c.highest_primary_ack = Some(c.highest_primary_ack.map_or(ack, |prev| prev.max(ack)));
        if let Some((end, seen)) = c.outstanding_req {
            // The first entry since the request lets it be; the second
            // finds it lost and asks again.
            c.outstanding_req = (!seen).then_some((end, true));
        }
        let req = c.request_missing(key, stack);
        if c.outstanding_req.is_none() && !c.reack {
            // Nothing to ask: the shadow holds the entry's ACK, yet the
            // primary has not seen it acked. The next sync tick acks it
            // again.
            c.reack = true;
            if !c.deferred {
                c.deferred = true;
                self.deferred.push(key);
            }
        }
        req
    }

    /// Clears the in-flight request for `key` (refused).
    pub fn clear_outstanding(&mut self, key: ConnKey) {
        if let Some(c) = self.conns.get_mut(&key) {
            c.outstanding_req = None;
        }
    }

    /// A reply to `key`'s request arrived. The request is answered once
    /// the shadow holds the whole range it asked for (a reply comes in
    /// several datagrams); then, while the shadow still trails the
    /// primary's known frontier, returns the request for the next chunk
    /// at once: on an idle connection nothing else would ask before the
    /// next heartbeat.
    pub fn settle_reply(&mut self, key: ConnKey, stack: &NetStack) -> Option<MissingOut> {
        let c = self.conns.get_mut(&key)?;
        let held = shadow(stack, key).map(|t| t.rcv_nxt());
        if let (Some((end, _)), Some(next)) = (c.outstanding_req, held) {
            if end.gt(next) {
                return None;
            }
        }
        c.outstanding_req = None;
        c.request_missing(key, stack)
    }

    /// The ack scan (§4.3): emits `(conn, acked_next, own release
    /// point)` for every queued connection whose progress crossed
    /// `x_threshold`, or — when `force` is set (the sync tick) — for
    /// every connection with any unacked progress or a re-ack owed,
    /// parked ones included. Returns how many acks the X threshold
    /// triggered.
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
                if force && std::mem::take(&mut c.reack) {
                    out.push((key, next, None));
                }
                continue; // fully acked; re-queued on activity
            }
            // Careful with the comparison: `usize::MAX as i64` is -1, so
            // cast the (known-positive) progress up instead.
            let threshold_hit = progress as u128 >= x_threshold as u128;
            if force || threshold_hit {
                out.push((key, next, Some(c.prev_acked_next)));
                c.reack = false;
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
    /// not the map's. A gap ends at the primary's last known ACK or past
    /// the shadow's own out-of-order bytes, whichever is further. Where
    /// the client acknowledged output this shadow never made, the
    /// primary read input the shadow has not, wherever it is: that
    /// connection's window is the [`TAIL`] after `rcv_nxt`, and with
    /// `tails` every connection's is — bytes the primary acknowledged
    /// after its last frontier entry reached us show in no gap.
    pub fn gaps(&self, stack: &NetStack, tails: bool, out: &mut Vec<Gap>) {
        let start = out.len();
        for (&key, c) in &self.conns {
            let Some(tcb) = shadow(stack, key) else {
                continue;
            };
            let next = tcb.rcv_nxt();
            let front = c.highest_primary_ack.map_or(tcb.rcv_high(), |a| a.max(tcb.rcv_high()));
            let mut to = front.gt(tcb.ack_seq()).then_some(front);
            if tails || tcb.peer_ack_high_water().gt(tcb.snd_nxt()) {
                to = Some(to.unwrap_or(next).max(next.add(TAIL)));
            }
            if let Some(to) = to {
                out.push((key, next, to));
            }
        }
        out[start..].sort_unstable_by_key(|&(key, ..)| key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;
    use tcpstack::StackConfig;
    use wire::MacAddr;

    fn key(p: u16) -> ConnKey {
        ConnKey {
            client_ip: Ipv4Addr::new(10, 1, 0, 1),
            client_port: p,
            server_ip: Ipv4Addr::new(10, 0, 0, 100),
            server_port: 80,
        }
    }

    fn empty_stack() -> NetStack {
        NetStack::new(StackConfig::host(MacAddr::local(3), Ipv4Addr::new(10, 0, 0, 3)))
    }

    #[test]
    fn untracked_primary_ack_reports_bootstrap_needed() {
        // An entry for an untracked connection records nothing: the
        // engine bootstraps it from the logger instead.
        let mut t = CatchupTracker::new();
        let stack = empty_stack();
        assert_eq!(t.on_entry(key(1), SeqNum(100), &stack), None);
        assert!(t.conns.is_empty());
        t.register(key(1), SeqNum(1));
        t.on_entry(key(1), SeqNum(100), &stack);
        assert_eq!(t.conns[&key(1)].highest_primary_ack, Some(SeqNum(100)));
    }

    #[test]
    fn primary_ack_is_monotone() {
        let mut t = CatchupTracker::new();
        let stack = empty_stack();
        t.register(key(1), SeqNum(1));
        t.on_entry(key(1), SeqNum(500), &stack);
        t.on_entry(key(1), SeqNum(100), &stack); // a reordered heartbeat
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

//! The time-ordered queue: the simulator's events and a stack's
//! connection deadlines.
//!
//! Entries are ordered by `(time, sequence)`, where the sequence number is
//! assigned at insertion. Ties in virtual time therefore process in
//! insertion order, which — together with the buffered-effects node API —
//! makes every simulation run bit-reproducible.

use crate::node::{ControlAction, NodeId, PortId};
use crate::time::SimTime;
use bytes::Bytes;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// What happens when an event fires.
#[derive(Debug)]
pub enum EventKind {
    /// Deliver a frame to `node` on `port`.
    Frame {
        /// Receiving node.
        node: NodeId,
        /// Receiving port.
        port: PortId,
        /// Frame contents.
        frame: Bytes,
    },
    /// Deliver a frame to `node` on `port`, bypassing ingress rules.
    ///
    /// Used to re-inject frames an ingress [`crate::fault::DelayRule`]
    /// held back or a [`crate::fault::DuplicateRule`] copied — running
    /// them through the rules again would delay/duplicate them forever.
    InjectedFrame {
        /// Receiving node.
        node: NodeId,
        /// Receiving port.
        port: PortId,
        /// Frame contents.
        frame: Bytes,
    },
    /// Wake `node`'s `on_timer` with `token`.
    Timer {
        /// Node to wake.
        node: NodeId,
        /// Caller-chosen token.
        token: u64,
        /// The boot of `node` that armed the timer: a timer dies with
        /// its boot, so one that fires in a later boot is dropped.
        boot: u32,
    },
    /// Call `on_start` on `node` (simulation start or power-on).
    Start {
        /// Node to start.
        node: NodeId,
    },
    /// Apply a control action (fencing etc.).
    Control(ControlAction),
}

#[derive(Debug)]
struct Entry<T> {
    at: SimTime,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other.at.cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The node an event is addressed to, if any (control events act on
/// the simulator itself).
pub fn event_target(kind: &EventKind) -> Option<NodeId> {
    match kind {
        EventKind::Frame { node, .. }
        | EventKind::InjectedFrame { node, .. }
        | EventKind::Timer { node, .. }
        | EventKind::Start { node } => Some(*node),
        EventKind::Control(_) => None,
    }
}

/// A deterministic time-ordered queue: items come out by time, and
/// within one instant in the order they went in. Nothing is ever
/// cancelled — an owner whose deadline moved leaves the old entry to pop
/// and ignores it.
#[derive(Debug)]
pub struct TimeQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
}

/// The simulator's queue of pending events.
pub type EventQueue = TimeQueue<EventKind>;

impl<T> Default for TimeQueue<T> {
    fn default() -> Self {
        TimeQueue { heap: BinaryHeap::new(), next_seq: 0 }
    }
}

impl<T> TimeQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `item` for `at`.
    pub fn push(&mut self, at: SimTime, item: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, item });
    }

    /// Removes and returns the earliest entry.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.heap.pop().map(|e| (e.at, e.item))
    }

    /// Removes and returns the earliest entry if its time has come
    /// (`at <= now`); call until `None` to sweep everything due.
    pub fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, T)> {
        if self.peek_time()? <= now {
            self.pop()
        } else {
            None
        }
    }

    /// The time of the earliest pending entry, exactly.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer(node: usize, token: u64) -> EventKind {
        EventKind::Timer { node: NodeId(node), token, boot: 0 }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(30), timer(0, 3));
        q.push(SimTime::from_nanos(10), timer(0, 1));
        q.push(SimTime::from_nanos(20), timer(0, 2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, k)| match k {
                EventKind::Timer { token, .. } => token,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for token in 0..100 {
            q.push(t, timer(0, token));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, k)| match k {
                EventKind::Timer { token, .. } => token,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn pop_due_takes_what_is_due_in_order_and_stops() {
        let at = SimTime::from_nanos;
        let mut q = TimeQueue::new();
        q.push(at(40), 'c');
        q.push(at(20), 'a');
        q.push(at(61_000), 'e');
        q.push(at(20), 'b'); // same instant, later insert
        q.push(at(40), 'c'); // a second entry for one item: both pop
        assert_eq!(q.pop_due(at(19)), None);
        let swept: Vec<_> = std::iter::from_fn(|| q.pop_due(at(50))).collect();
        assert_eq!(swept, [(at(20), 'a'), (at(20), 'b'), (at(40), 'c'), (at(40), 'c')]);
        q.push(at(5), 'd'); // already past: due at once, and the new head
        assert_eq!(q.peek_time(), Some(at(5)));
        assert_eq!(q.pop_due(at(50)), Some((at(5), 'd')));
        assert_eq!((q.pop_due(at(50)), q.peek_time(), q.len()), (None, Some(at(61_000)), 1));
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(7), timer(0, 0));
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(7)));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }
}

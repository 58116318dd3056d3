//! The time-ordered queue: the simulator's events and node wakes, and a
//! stack's connection deadlines.
//!
//! Entries are ordered by `(time, sequence)`, where the sequence number is
//! assigned when an entry is scheduled or moved. Ties in virtual time
//! therefore process in scheduling order, which — together with the
//! buffered-effects node API — makes every simulation run bit-reproducible.

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
    /// `node`'s one movable wake ([`crate::Context::set_wake`]) came
    /// due: call its `on_timer` with `token`. Kept in the queue's keyed
    /// form under the node's index, so it moves instead of multiplying,
    /// and cleared when the node powers off.
    Wake {
        /// Node to wake.
        node: NodeId,
        /// Caller-chosen token.
        token: u64,
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
        | EventKind::Wake { node, .. }
        | EventKind::Start { node } => Some(*node),
        EventKind::Control(_) => None,
    }
}

/// A key's entry in the keyed min-heap. Its `(at, seq)` is where the
/// entry sits, which is never later than where its [`Slot`] says it is
/// due: a move to a later time is written to the slot alone.
#[derive(Debug, Clone, Copy)]
struct Keyed {
    at: SimTime,
    seq: u64,
    key: u32,
}

impl Keyed {
    fn before(&self, other: &Keyed) -> bool {
        (self.at, self.seq) < (other.at, other.seq)
    }
}

/// The `pos` of a key with no entry in the keyed heap.
const NO_ENTRY: u32 = u32::MAX;

/// One key of the keyed form: when its entry is due, and with what.
#[derive(Debug)]
struct Slot<T> {
    /// Index of the key's entry in the keyed heap, or [`NO_ENTRY`].
    pos: u32,
    at: SimTime,
    seq: u64,
    /// `None` when the key is not scheduled; an entry may still sit in
    /// the heap then (a lazy clear), to be dropped when it reaches the top.
    item: Option<T>,
}

/// A deterministic time-ordered queue: items come out by time, and
/// within one instant in the order they were scheduled.
///
/// It has two forms, which share that one order and one sequence
/// counter, so they can be mixed in one queue:
///
/// * [`TimeQueue::push`] adds an entry per call (the simulator's frames
///   and one-shot timers);
/// * the keyed form — [`TimeQueue::set`], [`TimeQueue::clear`] — holds
///   at most one entry per dense `usize` key, moved or removed in place
///   (a node's wake, a socket's deadline). A move takes a fresh sequence
///   number: it orders exactly as if the entry were scheduled anew.
///
/// A keyed move to a later time costs O(1): it is recorded against the
/// key, and the entry is re-sifted only if it reaches the top of the
/// keyed heap before the key moves again; a clear is as lazy. A move
/// earlier sifts at once. So a deadline that moves on every
/// acknowledgement never adds an entry and rarely touches the heap, and
/// [`TimeQueue::peek_time`] is exact after every call.
#[derive(Debug)]
pub struct TimeQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    keyed: Vec<Keyed>,
    slots: Vec<Slot<T>>,
    /// Keys with an item scheduled.
    live: usize,
    next_seq: u64,
}

/// The simulator's queue of pending events.
pub type EventQueue = TimeQueue<EventKind>;

impl<T> Default for TimeQueue<T> {
    fn default() -> Self {
        TimeQueue {
            heap: BinaryHeap::new(),
            keyed: Vec::new(),
            slots: Vec::new(),
            live: 0,
            next_seq: 0,
        }
    }
}

impl<T> TimeQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedules `item` for `at`.
    pub fn push(&mut self, at: SimTime, item: T) {
        let seq = self.take_seq();
        self.heap.push(Entry { at, seq, item });
    }

    /// Schedules `key`'s one entry, carrying `item`, for `at`: adds it,
    /// or moves it (and replaces its item) if the key is scheduled.
    ///
    /// # Panics
    ///
    /// Panics if `key` does not fit in 32 bits.
    pub fn set(&mut self, key: usize, at: SimTime, item: T) {
        let seq = self.take_seq();
        if key >= self.slots.len() {
            // Many queues only ever hold key 0 (a client's one socket):
            // size the first allocations exactly, then grow as usual.
            if self.slots.capacity() == 0 {
                self.slots.reserve_exact(key + 1);
                self.keyed.reserve_exact(1);
            }
            self.slots.resize_with(key + 1, || Slot {
                pos: NO_ENTRY,
                at: SimTime::ZERO,
                seq: 0,
                item: None,
            });
        }
        let slot = &mut self.slots[key];
        self.live += usize::from(slot.item.is_none());
        (slot.at, slot.seq, slot.item) = (at, seq, Some(item));
        // An entry placed where it is due leaves the top settled: it is
        // the top, or the top did not change.
        if slot.pos == NO_ENTRY {
            let key = u32::try_from(key).expect("keys are dense and fit in 32 bits");
            let pos = self.keyed.len();
            slot.pos = pos as u32;
            self.keyed.push(Keyed { at, seq, key });
            self.sift_up(pos);
        } else if at < self.keyed[slot.pos as usize].at {
            let pos = slot.pos as usize;
            (self.keyed[pos].at, self.keyed[pos].seq) = (at, seq);
            self.sift_up(pos);
        } else {
            // A move later: the entry stays put, out of date, until it
            // is the top.
            self.settle();
        }
    }

    /// Unschedules `key`: its entry, if any, will never be popped.
    pub fn clear(&mut self, key: usize) {
        if let Some(slot) = self.slots.get_mut(key) {
            if slot.item.take().is_some() {
                self.live -= 1;
                self.settle();
            }
        }
    }

    /// When `key` is scheduled for, if it is.
    pub fn deadline(&self, key: usize) -> Option<SimTime> {
        self.slots.get(key).filter(|slot| slot.item.is_some()).map(|slot| slot.at)
    }

    /// Removes and returns the earliest entry.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        if let Some(k) = self.keyed.first() {
            if self.heap.peek().is_none_or(|e| (k.at, k.seq) < (e.at, e.seq)) {
                return Some(self.pop_keyed());
            }
        }
        self.heap.pop().map(|e| (e.at, e.item))
    }

    fn pop_keyed(&mut self) -> (SimTime, T) {
        let top = self.remove_top();
        let item = self.slots[top.key as usize].item.take().expect("a settled top is scheduled");
        self.live -= 1;
        self.settle();
        (top.at, item)
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
        let keyed = self.keyed.first().map(|k| k.at);
        let pushed = self.heap.peek().map(|e| e.at);
        keyed.into_iter().chain(pushed).min()
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.heap.len() + self.live
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Brings the keyed heap's top up to date: drops it while its key
    /// is cleared and re-sifts it while its key has moved later, so the
    /// top is where it is due and every other entry is due no earlier.
    fn settle(&mut self) {
        while let Some(&top) = self.keyed.first() {
            let slot = &self.slots[top.key as usize];
            if slot.item.is_none() {
                self.remove_top();
            } else if slot.seq != top.seq {
                (self.keyed[0].at, self.keyed[0].seq) = (slot.at, slot.seq);
                self.sift_down(0);
            } else {
                return;
            }
        }
    }

    fn remove_top(&mut self) -> Keyed {
        let top = self.keyed.swap_remove(0);
        self.slots[top.key as usize].pos = NO_ENTRY;
        if let Some(moved) = self.keyed.first() {
            self.slots[moved.key as usize].pos = 0;
            self.sift_down(0);
        }
        top
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.keyed.swap(a, b);
        self.slots[self.keyed[a].key as usize].pos = a as u32;
        self.slots[self.keyed[b].key as usize].pos = b as u32;
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if !self.keyed[i].before(&self.keyed[parent]) {
                return;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.keyed.len();
        loop {
            let left = 2 * i + 1;
            if left >= n {
                return;
            }
            let right = left + 1;
            let child =
                if right < n && self.keyed[right].before(&self.keyed[left]) { right } else { left };
            if !self.keyed[child].before(&self.keyed[i]) {
                return;
            }
            self.swap(i, child);
            i = child;
        }
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
    fn a_key_has_one_entry_however_often_it_moves() {
        let at = SimTime::from_nanos;
        let mut q = TimeQueue::new();
        q.push(at(25), 'p');
        // Key 3 moves later, earlier, later again, and is cleared and
        // set once more; key 1 is set once.
        for t in [30, 10, 50, 70] {
            q.set(3, at(t), 'k');
        }
        q.set(1, at(25), 'j');
        assert_eq!((q.len(), q.deadline(3), q.peek_time()), (3, Some(at(70)), Some(at(25))));
        q.clear(3);
        assert_eq!((q.len(), q.deadline(3)), (2, None));
        q.set(3, at(25), 'k');
        // Three entries due at 25: the push, key 1, then key 3 — its
        // last move came after both.
        let all: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(all, [(at(25), 'p'), (at(25), 'j'), (at(25), 'k')]);
        assert!(q.is_empty() && q.keyed.is_empty() && q.deadline(1).is_none());
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

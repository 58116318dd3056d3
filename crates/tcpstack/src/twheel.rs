//! Hierarchical timer wheel over virtual-time ticks: O(1) schedule and
//! amortized-O(1) expiry for connection deadlines.
//!
//! `next_deadline()` used to scan every TCB for the minimum of its four
//! deadline fields — O(n) per poll, per node. The wheel replaces the scan
//! with four levels of 64 slots over ~1 ms ticks (shift 20 on
//! nanoseconds), covering ~67 ms / ~4.3 s / ~4.6 min / ~4.9 h per level;
//! deadlines beyond the horizon park in the farthest top-level slot and
//! cascade inward as time passes.
//!
//! # Design contract (lazy cancellation, conservative wakes)
//!
//! The wheel is a *wake index*, not the source of truth. Each TCB keeps
//! its own precise deadline fields; the stack guarantees only that for
//! every live deadline `d` there is a wheel entry at some time ≤ `d`.
//! Entries are never cancelled — a deadline that moves or disappears
//! leaves a stale entry behind, which pops harmlessly: the owning socket
//! gets polled, its `check_timers` does nothing, and the stack re-arms
//! from the TCB's real `next_deadline()` — *if* the pop was that of the
//! socket's armed (earliest) entry. A stale pop schedules nothing: the
//! stack keeps one live entry per socket, not one per pop (DESIGN.md,
//! "Timer contract"). [`TimerWheel::next_expiry`] is *conservative*: for
//! an entry parked at a coarse level it names the start of the entry's
//! block, where the embedding wakes, finds nothing due, and the entry
//! cascades one level finer; entries within the current tick live in a
//! side list carrying exact times. A deadline scheduled far ahead so
//! costs up to one early wake per level it descends plus one at the
//! start of its tick — but it is never late, which is the property the
//! simulation's liveness rests on.
//!
//! # Representation
//!
//! All entries live in one arena, a `Vec<Entry>` whose vacant cells
//! form a free list. Each of the 4 × 64 slots, the imminent list and a
//! cascade in flight is a FIFO threaded through the arena by `next`
//! indices, held as a head/tail pair; occupancy bitmaps say which slots
//! are non-empty. An empty wheel is the 2 KiB of slot indices inline
//! and one 1.5 KiB allocation (64 entries), a slot costs nothing until
//! used, moving a slot's entries to a cascade batch is O(1), and once
//! the arena has grown to a run's high-water mark nothing allocates.
//! (The wheel it replaces kept a pre-sized `Vec` per slot: 40 KB in 263
//! allocations per stack, most of a fleet client's footprint. It
//! survives as the oracle of `tests/twheel_differential.rs`.)
//!
//! # Determinism
//!
//! Expiry order is a pure function of (schedule order, virtual time):
//! slots drain in ascending block order, entries within a slot in
//! insertion order, cascades re-dispatch in that same order. No hashing,
//! no wall clock — identical runs pop identical sequences.

const TICK_SHIFT: u32 = 20; // 2^20 ns ≈ 1.05 ms per tick
const SLOT_BITS: u32 = 6;
const SLOTS: usize = 64;
const LEVELS: usize = 4;
/// Arena index meaning "no entry" (list terminator, empty list).
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Entry<T> {
    /// Precise expiry, nanoseconds of virtual time.
    at: u64,
    token: T,
    /// Next entry of the list this one is on (a slot, the imminent
    /// list, a cascade batch, or the free list).
    next: u32,
}

/// A FIFO of arena entries: pushes go to the tail, walks start at the
/// head, so a list keeps insertion order.
#[derive(Debug, Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
}

impl List {
    const EMPTY: List = List { head: NIL, tail: NIL };

    fn push_back<T>(&mut self, arena: &mut [Entry<T>], i: u32) {
        arena[i as usize].next = NIL;
        match self.tail {
            NIL => self.head = i,
            tail => arena[tail as usize].next = i,
        }
        self.tail = i;
    }

    /// Moves every entry of `other` (not empty) to the end of `self`, in
    /// order.
    fn append<T>(&mut self, arena: &mut [Entry<T>], other: &mut List) {
        debug_assert!(other.head != NIL, "only occupied slots are drained");
        match self.tail {
            NIL => self.head = other.head,
            tail => arena[tail as usize].next = other.head,
        }
        self.tail = other.tail;
        *other = List::EMPTY;
    }
}

/// A four-level hierarchical timer wheel. See the module docs.
#[derive(Debug)]
pub struct TimerWheel<T> {
    /// Every entry, scheduled or free; all lists thread through it.
    arena: Vec<Entry<T>>,
    /// Head of the free list (LIFO).
    free: u32,
    /// Per level: bit i set ⇔ `slots[level][i]` is non-empty.
    occupied: [u64; LEVELS],
    slots: [[List; SLOTS]; LEVELS],
    /// Entries due within the current tick, carrying precise times so
    /// [`TimerWheel::next_expiry`] converges to the exact deadline.
    imminent: List,
    now_tick: u64,
    len: usize,
}

impl<T: Copy> Default for TimerWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy> TimerWheel<T> {
    /// An empty wheel positioned at virtual time zero.
    pub fn new() -> Self {
        TimerWheel {
            // One allocation up front keeps the first connections'
            // timers off the allocator (the zero-alloc guard tests run
            // over this); a busier wheel grows it to its high-water mark.
            arena: Vec::with_capacity(SLOTS),
            free: NIL,
            occupied: [0; LEVELS],
            slots: [[List::EMPTY; SLOTS]; LEVELS],
            imminent: List::EMPTY,
            now_tick: 0,
            len: 0,
        }
    }

    /// Live entries (stale ones included until they pop).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `token` to pop at or before virtual time `at_ns`. O(1).
    pub fn schedule(&mut self, at_ns: u64, token: T) {
        self.len += 1;
        let entry = Entry { at: at_ns, token, next: NIL };
        let i = match self.free {
            NIL => {
                let i = u32::try_from(self.arena.len()).ok().filter(|&i| i != NIL);
                let i = i.expect("timer arena full");
                self.arena.push(entry);
                i
            }
            i => {
                self.free = self.arena[i as usize].next;
                self.arena[i as usize] = entry;
                i
            }
        };
        self.place(i);
    }

    /// Puts entry `i` back on the free list and returns its token.
    fn release(&mut self, i: u32) -> T {
        self.len -= 1;
        let e = &mut self.arena[i as usize];
        e.next = self.free;
        self.free = i;
        e.token
    }

    /// Links entry `i` onto the list its time belongs to.
    fn place(&mut self, i: u32) {
        let at_tick = self.arena[i as usize].at >> TICK_SHIFT;
        if at_tick <= self.now_tick {
            // Due now or within the current tick: precise side list.
            self.imminent.push_back(&mut self.arena, i);
            return;
        }
        // The first level whose window reaches the tick — or, beyond the
        // top-level horizon (~4.9 h out), the farthest top-level slot,
        // which cascades inward when that block is reached.
        let (lvl, slot) = (0..LEVELS)
            .find_map(|lvl| {
                let shift = SLOT_BITS * lvl as u32;
                let high_delta = (at_tick >> shift) - (self.now_tick >> shift);
                (high_delta <= 63).then_some((lvl, (at_tick >> shift) & 63))
            })
            .unwrap_or_else(|| {
                let shift = SLOT_BITS * (LEVELS - 1) as u32;
                (LEVELS - 1, ((self.now_tick >> shift) + 63) & 63)
            });
        self.slots[lvl][slot as usize].push_back(&mut self.arena, i);
        self.occupied[lvl] |= 1 << slot;
    }

    /// Advances the wheel to `now_ns`, pushing every token whose entry
    /// time has passed onto `expired` (in deterministic order). Entries
    /// whose blocks are reached but whose precise time is still in the
    /// future cascade toward finer levels.
    pub fn advance(&mut self, now_ns: u64, expired: &mut Vec<T>) {
        // The due imminent entries expire; the rest go back on in order.
        let imminent = std::mem::replace(&mut self.imminent, List::EMPTY);
        self.dispatch(imminent, now_ns, expired);
        let target = now_ns >> TICK_SHIFT;
        if target <= self.now_tick {
            return;
        }
        let old = self.now_tick;
        self.now_tick = target;
        let mut batch = List::EMPTY;
        for lvl in 0..LEVELS {
            let shift = SLOT_BITS * lvl as u32;
            let old_high = old >> shift;
            let new_high = target >> shift;
            if old_high == new_high {
                break; // higher levels unchanged too
            }
            if self.occupied[lvl] == 0 {
                continue;
            }
            if new_high - old_high >= 64 {
                // Jump past the whole level: drain every occupied slot.
                let mut occ = self.occupied[lvl];
                while occ != 0 {
                    let s = occ.trailing_zeros() as usize;
                    occ &= occ - 1;
                    batch.append(&mut self.arena, &mut self.slots[lvl][s]);
                }
                self.occupied[lvl] = 0;
            } else {
                for h in (old_high + 1)..=new_high {
                    let s = (h & 63) as usize;
                    if self.occupied[lvl] & (1 << s) != 0 {
                        batch.append(&mut self.arena, &mut self.slots[lvl][s]);
                        self.occupied[lvl] &= !(1u64 << s);
                    }
                }
            }
        }
        self.dispatch(batch, now_ns, expired);
    }

    /// Walks `list` in order: entries due by `now_ns` expire, the rest
    /// are placed afresh relative to the current tick.
    fn dispatch(&mut self, list: List, now_ns: u64, expired: &mut Vec<T>) {
        let mut i = list.head;
        while i != NIL {
            let Entry { at, next, .. } = self.arena[i as usize];
            if at <= now_ns {
                expired.push(self.release(i));
            } else {
                self.place(i);
            }
            i = next;
        }
    }

    /// The earliest instant the wheel needs attention: never later than
    /// any scheduled entry, possibly up to one block-span early for
    /// entries still parked at coarse levels.
    pub fn next_expiry(&self) -> Option<u64> {
        let mut best: Option<u64> = None;
        let mut i = self.imminent.head;
        while i != NIL {
            let e = &self.arena[i as usize];
            best = Some(best.map_or(e.at, |b| b.min(e.at)));
            i = e.next;
        }
        for (lvl, &occupied) in self.occupied.iter().enumerate() {
            if occupied == 0 {
                continue;
            }
            let shift = SLOT_BITS * lvl as u32;
            let cur_high = self.now_tick >> shift;
            let cur_slot = (cur_high & 63) as u32;
            // Distance 1..=64 to the first occupied slot cyclically after
            // the current one — the next block boundary with entries.
            let rot = occupied.rotate_right((cur_slot + 1) & 63);
            let d = u64::from(rot.trailing_zeros()) + 1;
            let cand = ((cur_high + d) << shift) << TICK_SHIFT;
            best = Some(best.map_or(cand, |b| b.min(cand)));
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    fn drain(w: &mut TimerWheel<u32>, now: u64) -> Vec<u32> {
        let mut out = Vec::new();
        w.advance(now, &mut out);
        out
    }

    /// Drives the wheel the way the stack does — wake at `next_expiry`,
    /// pop, repeat — and returns (pop_time, token) pairs.
    fn run_to(w: &mut TimerWheel<u32>, end: u64) -> Vec<(u64, u32)> {
        let mut pops = Vec::new();
        let mut now = 0;
        while let Some(next) = w.next_expiry() {
            if next > end {
                break;
            }
            assert!(next >= now, "next_expiry must not go backwards");
            now = next;
            let mut out = Vec::new();
            w.advance(now, &mut out);
            for t in out {
                pops.push((now, t));
            }
        }
        pops
    }

    #[test]
    fn pops_at_or_after_deadline_never_late_past_wake() {
        let mut w = TimerWheel::new();
        // Deadlines across all levels: 3 ms, 40 ms, 250 ms, 7 s, 130 s.
        let deadlines = [3 * MS, 40 * MS, 250 * MS, 7_000 * MS, 130_000 * MS];
        for (i, &d) in deadlines.iter().enumerate() {
            w.schedule(d, i as u32);
        }
        let pops = run_to(&mut w, 200_000 * MS);
        assert_eq!(pops.len(), deadlines.len());
        for (popped_at, tok) in pops {
            let want = deadlines[tok as usize];
            assert!(popped_at >= want, "token {tok} popped early: {popped_at} < {want}");
            // Driven at next_expiry granularity the pop is exact: the
            // conservative wake lands at/before the deadline and the
            // imminent list carries the precise time.
            assert_eq!(popped_at, want, "token {tok} popped late");
        }
        assert!(w.is_empty());
    }

    #[test]
    fn next_expiry_is_conservative() {
        let mut w = TimerWheel::new();
        w.schedule(41 * MS + 12345, 7);
        let e = w.next_expiry().expect("scheduled");
        assert!(e <= 41 * MS + 12345);
        // Within one level-0 tick.
        assert!(41 * MS + 12345 - e < (1 << TICK_SHIFT));
    }

    #[test]
    fn time_jump_pops_everything_due() {
        let mut w = TimerWheel::new();
        w.schedule(40 * MS, 1);
        w.schedule(200 * MS, 2);
        w.schedule(61_000 * MS, 3);
        // One giant leap (the TIME_WAIT pattern in tests: now += 61 s).
        let out = drain(&mut w, 61_000 * MS);
        assert_eq!(out, vec![1, 2, 3]);
        assert!(w.is_empty());
        assert_eq!(w.next_expiry(), None);
    }

    #[test]
    fn same_slot_order_is_insertion_order() {
        let mut w = TimerWheel::new();
        w.schedule(10 * MS + 5, 1);
        w.schedule(10 * MS + 1, 2); // earlier time, later insert, same tick
        let out = drain(&mut w, 11 * MS);
        assert_eq!(out, vec![1, 2], "same-slot entries pop in insertion order");
    }

    #[test]
    fn past_deadlines_pop_immediately() {
        let mut w = TimerWheel::new();
        let _ = drain(&mut w, 500 * MS); // move the wheel forward
        w.schedule(100 * MS, 9); // already past
        assert_eq!(w.next_expiry(), Some(100 * MS));
        let out = drain(&mut w, 500 * MS);
        assert_eq!(out, vec![9]);
    }

    #[test]
    fn beyond_horizon_parks_and_still_pops() {
        let mut w = TimerWheel::new();
        let far = 20 * 3600 * 1000 * MS; // 20 h, beyond the top level span
        w.schedule(far, 42);
        assert!(w.next_expiry().expect("parked") <= far);
        let pops = run_to(&mut w, far + MS);
        assert_eq!(pops, vec![(far, 42)]);
    }

    #[test]
    fn stale_tokens_are_the_callers_problem() {
        // Lazy cancellation: two entries for one token both pop.
        let mut w = TimerWheel::new();
        w.schedule(5 * MS, 1);
        w.schedule(9 * MS, 1);
        assert_eq!(w.len(), 2);
        let out = drain(&mut w, 10 * MS);
        assert_eq!(out, vec![1, 1]);
    }
}

//! Differential property test of the timer wheel's representation.
//!
//! [`tcpstack::twheel::TimerWheel`] keeps its entries in one arena with
//! intrusive per-slot lists. The wheel it replaced — one pre-sized `Vec`
//! per slot — lives on here, test-only, as the oracle: for any program
//! of `schedule`/`advance` calls the two must pop the same tokens in the
//! same order and report the same `next_expiry()` and `len()` after
//! every step. Pop order reaches the wire (it is the order sockets are
//! polled in), so this equality is what lets the frame digests pinned
//! in `sttcp/tests/determinism.rs` hold across the change.

use proptest::prelude::*;
use tcpstack::twheel::TimerWheel;

/// The `Vec<Vec<Entry>>` wheel, verbatim from before the arena.
mod oracle {
    const TICK_SHIFT: u32 = 20; // 2^20 ns ≈ 1.05 ms per tick
    const SLOT_BITS: u32 = 6;
    const SLOTS: usize = 64;
    const LEVELS: usize = 4;

    #[derive(Debug, Clone, Copy)]
    struct Entry<T> {
        /// Precise expiry, nanoseconds of virtual time.
        at: u64,
        token: T,
    }

    #[derive(Debug)]
    struct Level<T> {
        /// Bit i set ⇔ `slots[i]` is non-empty.
        occupied: u64,
        slots: Vec<Vec<Entry<T>>>,
    }

    impl<T> Level<T> {
        fn new() -> Self {
            // Small initial capacity per slot keeps the steady-state hot path
            // allocation-free (the zero-alloc guard test runs over this).
            Level { occupied: 0, slots: (0..SLOTS).map(|_| Vec::with_capacity(8)).collect() }
        }
    }

    /// A four-level hierarchical timer wheel. See the module docs.
    #[derive(Debug)]
    pub struct VecWheel<T> {
        levels: Vec<Level<T>>,
        /// Entries due within the current tick, carrying precise times so
        /// `next_expiry` converges to the exact deadline.
        imminent: Vec<Entry<T>>,
        /// Cascade staging buffer (kept for capacity reuse).
        scratch: Vec<Entry<T>>,
        now_tick: u64,
        len: usize,
    }

    impl<T: Copy> Default for VecWheel<T> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<T: Copy> VecWheel<T> {
        /// An empty wheel positioned at virtual time zero.
        pub fn new() -> Self {
            VecWheel {
                levels: (0..LEVELS).map(|_| Level::new()).collect(),
                imminent: Vec::with_capacity(16),
                scratch: Vec::with_capacity(64),
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
            self.place(Entry { at: at_ns, token });
        }

        fn place(&mut self, e: Entry<T>) {
            let at_tick = e.at >> TICK_SHIFT;
            if at_tick <= self.now_tick {
                // Due now or within the current tick: precise side list.
                self.imminent.push(e);
                return;
            }
            for (lvl, level) in self.levels.iter_mut().enumerate() {
                let shift = SLOT_BITS * lvl as u32;
                let high_delta = (at_tick >> shift) - (self.now_tick >> shift);
                if high_delta <= 63 {
                    let slot = ((at_tick >> shift) & 63) as usize;
                    level.slots[slot].push(e);
                    level.occupied |= 1 << slot;
                    return;
                }
            }
            // Beyond the top-level horizon (~4.9 h out): park in the farthest
            // top-level slot; it cascades inward when that block is reached.
            let shift = SLOT_BITS * (LEVELS - 1) as u32;
            let slot = (((self.now_tick >> shift) + 63) & 63) as usize;
            let top = self.levels.last_mut().expect("LEVELS > 0");
            top.slots[slot].push(e);
            top.occupied |= 1 << slot;
        }

        /// Advances the wheel to `now_ns`, pushing every token whose entry
        /// time has passed onto `expired` (in deterministic order). Entries
        /// whose blocks are reached but whose precise time is still in the
        /// future cascade toward finer levels.
        pub fn advance(&mut self, now_ns: u64, expired: &mut Vec<T>) {
            if !self.imminent.is_empty() {
                let len = &mut self.len;
                self.imminent.retain(|e| {
                    if e.at <= now_ns {
                        expired.push(e.token);
                        *len -= 1;
                        false
                    } else {
                        true
                    }
                });
            }
            let target = now_ns >> TICK_SHIFT;
            if target <= self.now_tick {
                return;
            }
            let old = self.now_tick;
            self.now_tick = target;
            debug_assert!(self.scratch.is_empty());
            let mut batch = std::mem::take(&mut self.scratch);
            for (lvl, level) in self.levels.iter_mut().enumerate() {
                let shift = SLOT_BITS * lvl as u32;
                let old_high = old >> shift;
                let new_high = target >> shift;
                if old_high == new_high {
                    break; // higher levels unchanged too
                }
                if level.occupied == 0 {
                    continue;
                }
                if new_high - old_high >= 64 {
                    // Jump past the whole level: drain every occupied slot.
                    let mut occ = level.occupied;
                    while occ != 0 {
                        let s = occ.trailing_zeros() as usize;
                        occ &= occ - 1;
                        batch.append(&mut level.slots[s]);
                    }
                    level.occupied = 0;
                } else {
                    for h in (old_high + 1)..=new_high {
                        let s = (h & 63) as usize;
                        if level.occupied & (1 << s) != 0 {
                            batch.append(&mut level.slots[s]);
                            level.occupied &= !(1u64 << s);
                        }
                    }
                }
            }
            for e in batch.drain(..) {
                if e.at <= now_ns {
                    expired.push(e.token);
                    self.len -= 1;
                } else {
                    self.place(e);
                }
            }
            self.scratch = batch;
        }

        /// The earliest instant the wheel needs attention: never later than
        /// any scheduled entry, possibly up to one block-span early for
        /// entries still parked at coarse levels.
        pub fn next_expiry(&self) -> Option<u64> {
            let mut best: Option<u64> = self.imminent.iter().map(|e| e.at).min();
            for (lvl, level) in self.levels.iter().enumerate() {
                if level.occupied == 0 {
                    continue;
                }
                let shift = SLOT_BITS * lvl as u32;
                let cur_high = self.now_tick >> shift;
                let cur_slot = (cur_high & 63) as u32;
                // Distance 1..=64 to the first occupied slot cyclically after
                // the current one — the next block boundary with entries.
                let rot = level.occupied.rotate_right((cur_slot + 1) & 63);
                let d = u64::from(rot.trailing_zeros()) + 1;
                let cand = ((cur_high + d) << shift) << TICK_SHIFT;
                best = Some(best.map_or(cand, |b| b.min(cand)));
            }
            best
        }
    }
}

use oracle::VecWheel;

/// One call into both wheels. Magnitudes are `frac % 2^span` ns, so a
/// program mixes same-tick, every level, and beyond-horizon (> 2^44 ns)
/// distances.
#[derive(Debug, Clone)]
enum Step {
    /// `schedule(now + delta)`.
    Ahead { span: u32, frac: u64 },
    /// `schedule(now - delta)`: a deadline already past.
    Behind { span: u32, frac: u64 },
    /// `advance(now + delta)`.
    Advance { span: u32, frac: u64 },
    /// `advance(next_expiry())`, the way the stack drives it.
    AdvanceToExpiry,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..47u32, any::<u64>()).prop_map(|(span, frac)| Step::Ahead { span, frac }),
        (0..47u32, any::<u64>()).prop_map(|(span, frac)| Step::Ahead { span, frac }),
        (0..30u32, any::<u64>()).prop_map(|(span, frac)| Step::Ahead { span, frac }),
        (0..47u32, any::<u64>()).prop_map(|(span, frac)| Step::Behind { span, frac }),
        (0..47u32, any::<u64>()).prop_map(|(span, frac)| Step::Advance { span, frac }),
        (0..30u32, any::<u64>()).prop_map(|(span, frac)| Step::Advance { span, frac }),
        Just(Step::AdvanceToExpiry),
        Just(Step::AdvanceToExpiry),
    ]
}

fn delta(span: u32, frac: u64) -> u64 {
    frac % (1u64 << span)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 300 })]

    #[test]
    fn arena_wheel_pops_what_the_vec_wheel_popped(
        steps in proptest::collection::vec(step_strategy(), 1..200),
    ) {
        let mut arena: TimerWheel<u32> = TimerWheel::new();
        let mut vecs: VecWheel<u32> = VecWheel::new();
        let mut now = 0u64;
        let mut token = 0u32;
        let (mut popped, mut expected) = (Vec::new(), Vec::new());
        for (n, step) in steps.iter().enumerate() {
            match *step {
                Step::Ahead { span, frac } | Step::Behind { span, frac } => {
                    let d = delta(span, frac);
                    let at = match step {
                        Step::Ahead { .. } => now + d,
                        _ => now.saturating_sub(d),
                    };
                    arena.schedule(at, token);
                    vecs.schedule(at, token);
                    token += 1;
                }
                Step::Advance { .. } | Step::AdvanceToExpiry => {
                    now = match *step {
                        Step::Advance { span, frac } => now + delta(span, frac),
                        _ => vecs.next_expiry().map_or(now, |t| t.max(now)),
                    };
                    popped.clear();
                    expected.clear();
                    arena.advance(now, &mut popped);
                    vecs.advance(now, &mut expected);
                    prop_assert_eq!(&popped, &expected, "step {}: {:?} at {} ns", n, step, now);
                }
            }
            prop_assert_eq!(arena.next_expiry(), vecs.next_expiry(), "step {}: {:?}", n, step);
            prop_assert_eq!(arena.len(), vecs.len(), "step {}: {:?}", n, step);
        }
        // Drain: everything scheduled pops, in the same order, and the
        // arena hands every entry back.
        popped.clear();
        expected.clear();
        arena.advance(u64::MAX, &mut popped);
        vecs.advance(u64::MAX, &mut expected);
        prop_assert_eq!(&popped, &expected);
        prop_assert!(arena.is_empty() && vecs.is_empty() && arena.next_expiry().is_none());
    }
}

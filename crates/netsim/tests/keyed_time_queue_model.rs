//! Model test of [`netsim::TimeQueue`]'s keyed form (a node's one wake,
//! a socket's one deadline), mixed with plain pushes as the simulator
//! mixes them.
//!
//! The model is a `Vec` kept sorted by `(time, sequence)`, the sequence
//! counting every push and every set: setting a key removes its entry
//! and inserts it anew, clearing removes it. For any program of pushes,
//! sets (earlier, later, same instant), clears, pops and `pop_due`
//! sweeps the queue must hand out the same items at the same times in
//! the same order, `peek_time()` must be the model's head exactly, and
//! `deadline(key)` must say when the model has the key.

use netsim::{SimTime, TimeQueue};
use proptest::prelude::*;

/// What a queue entry carries: `(key, label)`, `key` `None` for a push.
type Item = (Option<usize>, u32);

const KEYS: usize = 6;

#[derive(Debug, Clone)]
enum Step {
    /// `push(now + delta)`.
    Push { span: u32, frac: u64 },
    /// `set(key, now ± delta)`: schedules the key or moves it.
    Set { key: usize, span: u32, frac: u64, behind: bool },
    /// `clear(key)`.
    Clear { key: usize },
    /// Sweep `pop_due(now + delta)`.
    Advance { span: u32, frac: u64 },
    /// One unconditional `pop()`.
    Pop,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..40u32, any::<u64>()).prop_map(|(span, frac)| Step::Push { span, frac }),
        (0..3u32, any::<u64>()).prop_map(|(span, frac)| Step::Push { span, frac }),
        (0..KEYS, 0..40u32, any::<u64>(), any::<bool>())
            .prop_map(|(key, span, frac, behind)| Step::Set { key, span, frac, behind }),
        (0..KEYS, 0..3u32, any::<u64>(), any::<bool>())
            .prop_map(|(key, span, frac, behind)| Step::Set { key, span, frac, behind }),
        (0..KEYS, 0..3u32, any::<u64>(), any::<bool>())
            .prop_map(|(key, span, frac, behind)| Step::Set { key, span, frac, behind }),
        (0..KEYS).prop_map(|key| Step::Clear { key }),
        (0..40u32, any::<u64>()).prop_map(|(span, frac)| Step::Advance { span, frac }),
        (0..3u32, any::<u64>()).prop_map(|(span, frac)| Step::Advance { span, frac }),
        Just(Step::Pop),
    ]
}

fn delta(span: u32, frac: u64) -> u64 {
    frac % (1u64 << span)
}

/// The model: `(at, seq, item)`, sorted by `(at, seq)`.
#[derive(Default)]
struct Model {
    entries: Vec<(SimTime, u64, Item)>,
    next_seq: u64,
}

impl Model {
    fn insert(&mut self, at: SimTime, item: Item) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let i = self.entries.partition_point(|&(t, s, _)| (t, s) < (at, seq));
        self.entries.insert(i, (at, seq, item));
    }

    fn remove_key(&mut self, key: usize) {
        self.entries.retain(|&(_, _, (k, _))| k != Some(key));
    }

    fn deadline(&self, key: usize) -> Option<SimTime> {
        self.entries.iter().find(|&&(_, _, (k, _))| k == Some(key)).map(|&(t, ..)| t)
    }

    fn pop(&mut self) -> Option<(SimTime, Item)> {
        (!self.entries.is_empty()).then(|| {
            let (at, _, item) = self.entries.remove(0);
            (at, item)
        })
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 300 })]

    #[test]
    fn keyed_queue_pops_what_a_sorted_vec_of_moved_entries_would(
        steps in proptest::collection::vec(step_strategy(), 1..250),
    ) {
        let mut queue: TimeQueue<Item> = TimeQueue::new();
        let mut model = Model::default();
        let mut now = 0u64;
        for (n, step) in steps.iter().enumerate() {
            let label = n as u32;
            match *step {
                Step::Push { span, frac } => {
                    let at = SimTime::from_nanos(now + delta(span, frac));
                    queue.push(at, (None, label));
                    model.insert(at, (None, label));
                }
                Step::Set { key, span, frac, behind } => {
                    let d = delta(span, frac);
                    let at = SimTime::from_nanos(if behind { now.saturating_sub(d) } else { now + d });
                    queue.set(key, at, (Some(key), label));
                    model.remove_key(key);
                    model.insert(at, (Some(key), label));
                }
                Step::Clear { key } => {
                    queue.clear(key);
                    model.remove_key(key);
                }
                Step::Advance { span, frac } => {
                    now += delta(span, frac);
                    let t = SimTime::from_nanos(now);
                    let popped: Vec<_> = std::iter::from_fn(|| queue.pop_due(t)).collect();
                    let mut expected = Vec::new();
                    while model.entries.first().is_some_and(|&(at, ..)| at <= t) {
                        expected.extend(model.pop());
                    }
                    prop_assert_eq!(&popped, &expected, "step {}: {:?} at {} ns", n, step, now);
                }
                Step::Pop => {
                    prop_assert_eq!(queue.pop(), model.pop(), "step {}", n);
                }
            }
            let head = model.entries.first().map(|&(t, ..)| t);
            prop_assert_eq!(queue.peek_time(), head, "step {}: {:?}", n, step);
            prop_assert_eq!(queue.len(), model.entries.len(), "step {}: {:?}", n, step);
            for key in 0..KEYS {
                prop_assert_eq!(queue.deadline(key), model.deadline(key), "step {} key {}", n, key);
            }
        }
        // Drain: everything scheduled comes out, in the model's order.
        let popped: Vec<_> = std::iter::from_fn(|| queue.pop()).collect();
        let expected: Vec<_> = std::iter::from_fn(|| model.pop()).collect();
        prop_assert_eq!(&popped, &expected);
        prop_assert!(queue.is_empty() && queue.peek_time().is_none());
    }
}

//! Model test of [`netsim::TimeQueue`], the one time-ordered structure
//! (the simulator's events, every stack's connection deadlines).
//!
//! The model is a `Vec` kept stably sorted by time: an entry goes in
//! after every entry that is not later than it, so equal times keep
//! insertion order. For any program of pushes and `pop_due` sweeps the
//! queue must hand out the same items at the same times in the same
//! order, and `peek_time()` must be the model's head exactly — pop
//! order is the order sockets are polled in, so it reaches the wire.

use netsim::{SimTime, TimeQueue};
use proptest::prelude::*;

/// One call into queue and model. Magnitudes are `frac % 2^span` ns, so
/// a program mixes same-instant ties with deadlines hours apart.
#[derive(Debug, Clone)]
enum Step {
    /// `push(now + delta)`.
    Ahead { span: u32, frac: u64 },
    /// `push(now - delta)`: a deadline already past.
    Behind { span: u32, frac: u64 },
    /// Sweep `pop_due(now + delta)`.
    Advance { span: u32, frac: u64 },
    /// Sweep `pop_due(peek_time())`, the way the stack is driven.
    AdvanceToHead,
    /// One unconditional `pop()`, the way the simulator is driven.
    Pop,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..47u32, any::<u64>()).prop_map(|(span, frac)| Step::Ahead { span, frac }),
        (0..4u32, any::<u64>()).prop_map(|(span, frac)| Step::Ahead { span, frac }),
        (0..4u32, any::<u64>()).prop_map(|(span, frac)| Step::Ahead { span, frac }),
        (0..47u32, any::<u64>()).prop_map(|(span, frac)| Step::Behind { span, frac }),
        (0..47u32, any::<u64>()).prop_map(|(span, frac)| Step::Advance { span, frac }),
        (0..4u32, any::<u64>()).prop_map(|(span, frac)| Step::Advance { span, frac }),
        Just(Step::AdvanceToHead),
        Just(Step::Pop),
    ]
}

fn delta(span: u32, frac: u64) -> u64 {
    frac % (1u64 << span)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 300 })]

    #[test]
    fn queue_pops_what_a_stably_sorted_vec_would(
        steps in proptest::collection::vec(step_strategy(), 1..200),
    ) {
        let mut queue: TimeQueue<u32> = TimeQueue::new();
        let mut model: Vec<(SimTime, u32)> = Vec::new();
        let mut now = 0u64;
        let mut token = 0u32;
        for (n, step) in steps.iter().enumerate() {
            match *step {
                Step::Ahead { span, frac } | Step::Behind { span, frac } => {
                    let d = delta(span, frac);
                    let at = SimTime::from_nanos(match step {
                        Step::Ahead { .. } => now + d,
                        _ => now.saturating_sub(d),
                    });
                    queue.push(at, token);
                    model.insert(model.partition_point(|&(t, _)| t <= at), (at, token));
                    token += 1;
                }
                Step::Advance { .. } | Step::AdvanceToHead => {
                    now = match *step {
                        Step::Advance { span, frac } => now + delta(span, frac),
                        _ => model.first().map_or(now, |&(t, _)| t.as_nanos().max(now)),
                    };
                    let t = SimTime::from_nanos(now);
                    let popped: Vec<_> = std::iter::from_fn(|| queue.pop_due(t)).collect();
                    let due = model.partition_point(|&(at, _)| at <= t);
                    let expected: Vec<_> = model.drain(..due).collect();
                    prop_assert_eq!(&popped, &expected, "step {}: {:?} at {} ns", n, step, now);
                }
                Step::Pop => {
                    let expected = (!model.is_empty()).then(|| model.remove(0));
                    prop_assert_eq!(queue.pop(), expected, "step {}", n);
                }
            }
            prop_assert_eq!(queue.peek_time(), model.first().map(|&(t, _)| t), "step {}", n);
            prop_assert_eq!(queue.len(), model.len(), "step {}: {:?}", n, step);
        }
        // Drain: everything pushed comes out, in the model's order.
        let popped: Vec<_> = std::iter::from_fn(|| queue.pop_due(SimTime::MAX)).collect();
        prop_assert_eq!(&popped, &model);
        prop_assert!(queue.is_empty() && queue.peek_time().is_none());
    }
}

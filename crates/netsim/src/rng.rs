//! A tiny deterministic PRNG for loss models.
//!
//! The simulator cannot use a global or time-seeded generator — runs must
//! replay bit-identically. SplitMix64 (Steele et al., "Fast splittable
//! pseudorandom number generators") is small, fast, and passes BigCrush
//! for this use; we do not need cryptographic strength to decide whether
//! a frame is dropped.
//!
//! A simulation does not share one generator: every place that draws
//! (each direction of each link, each node's ingress rules) owns a
//! stream named by a stable id, from `SplitMix64::stream`, so traffic
//! in one place never moves the dice rolled in another.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// A `HashMap` hashed with fixed keys. `std`'s default `RandomState`
/// draws its keys per process, so the order a map is *walked* in differs
/// from run to run; anything sent, polled or released in that order
/// breaks bit-for-bit replay. Simulation code builds its maps from this
/// alias (`DetHashMap::default()`): same SipHash, same order every run.
/// What the random keys buy — no attacker can craft colliding keys — a
/// simulator that generates its own traffic does not need.
pub type DetHashMap<K, V> = HashMap<K, V, BuildHasherDefault<DefaultHasher>>;

/// SplitMix64 PRNG state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

/// SplitMix64's increment: the state walks one cycle of 2^64 values in
/// steps of this odd constant.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's output function: a bijection that scatters neighbouring
/// inputs across the whole 64-bit range.
const fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SplitMix64 {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The stream `id` of the simulation seeded with `seed`: the one
    /// constructor behind every generator a [`crate::Simulator`] draws
    /// from. Equal `(seed, id)` pairs yield equal streams.
    ///
    /// Every SplitMix64 generator walks the same cycle; a seed only picks
    /// where it starts. Seeding with `seed ^ id` (or `seed + id`) would
    /// start neighbouring ids at neighbouring points, and two starts that
    /// differ by a multiple of the increment draw one sequence, shifted.
    /// Running the pair through the finalizer scatters the starts across
    /// the cycle instead.
    pub(crate) const fn stream(seed: u64, id: u64) -> Self {
        // `id + GAMMA`: the finalizer maps zero to zero.
        SplitMix64::new(finalize(seed ^ finalize(id.wrapping_add(GAMMA))))
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        finalize(self.state)
    }

    /// A float uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high-quality mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `[0, bound)` via rejection-free multiply-shift.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Returns true with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            // Consume a draw anyway so changing p does not shift the
            // stream consumed by later decisions.
            let _ = self.next_u64();
            return false;
        }
        self.next_f64() < p
    }
}

/// The stable id of the stream a link direction draws its loss and
/// jitter from: link `link`, transmitted by end `end` (0 = A→B).
pub(crate) const fn link_stream_id(link: usize, end: usize) -> u64 {
    2 * link as u64 + end as u64
}

/// The stable id of the stream node `node`'s ingress rules draw from.
/// Node ids count down from `u64::MAX`, link ids up from zero, so the
/// two spaces never meet.
pub(crate) const fn node_stream_id(node: usize) -> u64 {
    !(node as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vector() {
        // Published SplitMix64 test vector for seed 1234567.
        let mut r = SplitMix64::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = SplitMix64::new(99);
        let mut b = SplitMix64::new(99);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn floats_in_unit_interval() {
        let mut r = SplitMix64::new(42);
        for _ in 0..10_000 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn next_below_in_range_and_roughly_uniform() {
        let mut r = SplitMix64::new(7);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[r.next_below(10) as usize] += 1;
        }
        for c in counts {
            assert!((8_000..12_000).contains(&c), "bucket count {c} far from uniform");
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SplitMix64::new(11);
        for _ in 0..100 {
            assert!(!r.chance(0.0));
            assert!(r.chance(1.0));
        }
    }

    #[test]
    fn chance_zero_still_advances_stream() {
        let mut a = SplitMix64::new(5);
        let mut b = SplitMix64::new(5);
        let _ = a.chance(0.0);
        let _ = b.chance(0.5);
        // Both consumed exactly one draw.
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        SplitMix64::new(1).next_below(0);
    }

    #[test]
    fn a_simulations_streams_share_no_value() {
        // Both directions of links 0..=255 and the ingress streams of
        // nodes 0..=255: 768 streams, none of which may repeat a value of
        // another (or of itself) in its first 4 096 draws. A stream that
        // is a shifted copy of another would.
        const DRAWS: usize = 4096;
        let seed = 0xD15C_0B01;
        let ids =
            (0..=255).flat_map(|i| [link_stream_id(i, 0), link_stream_id(i, 1), node_stream_id(i)]);
        let mut seen: Vec<u64> = ids
            .flat_map(|id| {
                let mut rng = SplitMix64::stream(seed, id);
                (0..DRAWS).map(move |_| rng.next_u64())
            })
            .collect();
        assert_eq!(seen.len(), 768 * DRAWS);
        seen.sort_unstable();
        let repeats = seen.windows(2).filter(|w| w[0] == w[1]).count();
        assert_eq!(repeats, 0);
    }

    #[test]
    fn seeds_one_increment_apart_draw_unrelated_streams() {
        // `SplitMix64::new(seed + GAMMA)` is `new(seed)` one draw ahead;
        // the streams of the two seeds must not be.
        let mut a = SplitMix64::stream(7, 0);
        let mut b = SplitMix64::stream(7u64.wrapping_add(GAMMA), 0);
        let a: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let b: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        assert!(a.iter().all(|v| !b.contains(v)));
    }
}

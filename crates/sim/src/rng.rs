//! Deterministic random number generation for reproducible simulations.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Stateless 64-bit avalanche (the SplitMix64 finalizer).
///
/// Unlike [`SimRng`], which carries a stream position, `mix64` is a pure
/// function: the same input always hashes to the same output, no matter
/// how many other callers hashed in between. That makes it the right
/// primitive for *order-independent* pseudo-randomness — e.g. deciding
/// per-message fault outcomes from `(seed, timestamp, address)` so the
/// decision does not depend on the order messages are processed in.
///
/// ```
/// use sim_core::mix64;
/// assert_eq!(mix64(1), mix64(1));
/// assert_ne!(mix64(1), mix64(2));
/// // Adjacent inputs avalanche to unrelated outputs.
/// assert_ne!(mix64(1) >> 32, mix64(2) >> 32);
/// ```
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded random source shared by workload generators and jitter models.
///
/// Wraps [`rand::rngs::StdRng`] so every experiment in the repository can
/// be replayed bit-for-bit from a `u64` seed.
///
/// ```
/// use sim_core::SimRng;
/// let mut a = SimRng::new(7);
/// let mut b = SimRng::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
}

impl SimRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.gen()
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        self.inner.gen_range(0..bound)
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        self.inner.gen_range(lo..hi)
    }

    /// Bernoulli trial with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.inner.gen::<f64>() < p
    }

    /// A sample from an approximately normal distribution with the given
    /// mean and standard deviation (sum of uniforms; adequate for latency
    /// jitter, no tails beyond ±6σ needed).
    pub fn normal(&mut self, mean: f64, stddev: f64) -> f64 {
        // Irwin–Hall with n=12 gives variance 1 and mean 6.
        let s: f64 = (0..12).map(|_| self.inner.gen::<f64>()).sum();
        mean + (s - 6.0) * stddev
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_matches_splitmix64_reference() {
        // Reference values from the canonical SplitMix64 stream seeded
        // at 0: the n-th output equals mix64(n * GOLDEN) shifted by the
        // increment, which collapses to mix64(0) for the first draw.
        assert_eq!(mix64(0), 0xE220_A839_7B1D_CDAF);
        // Pure function: replays exactly, in any order.
        let forward: Vec<u64> = (0..64).map(mix64).collect();
        let backward: Vec<u64> = (0..64).rev().map(mix64).collect();
        assert_eq!(forward, backward.into_iter().rev().collect::<Vec<_>>());
    }

    #[test]
    fn mix64_low_bits_are_usable_for_moduli() {
        // Sanity: residues mod small primes are roughly uniform, so
        // `mix64(x) % period` is a sound fault-sampling predicate.
        let hits = (0..10_000).filter(|&i| mix64(i).is_multiple_of(7)).count();
        assert!((1_200..1_700).contains(&hits), "skewed residues: {hits}");
    }

    #[test]
    fn deterministic_streams() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        let va: Vec<u64> = (0..32).map(|_| a.below(1000)).collect();
        let vb: Vec<u64> = (0..32).map(|_| b.below(1000)).collect();
        assert_eq!(va, vb);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let va: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SimRng::new(3);
        for _ in 0..1000 {
            assert!(r.below(17) < 17);
        }
    }

    #[test]
    fn normal_is_centered() {
        let mut r = SimRng::new(4);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.normal(100.0, 10.0)).sum::<f64>() / n as f64;
        assert!((mean - 100.0).abs() < 0.5, "mean drifted: {mean}");
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(6);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }
}

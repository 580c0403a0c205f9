//! Physical addresses and address ranges.

use std::fmt;
use std::ops::{Add, Sub};

/// Size of one cacheline in bytes (x86 and CXL both use 64 B).
pub const CACHELINE_BYTES: u64 = 64;

/// A physical memory address.
///
/// A newtype so that physical addresses, virtual addresses and plain sizes
/// cannot be mixed up across the OS and coherence layers.
///
/// ```
/// use simcxl_mem::PhysAddr;
/// let a = PhysAddr::new(0x1234);
/// assert_eq!(a.line().raw(), 0x1200);
/// assert!(!a.is_line_aligned());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(u64);

impl PhysAddr {
    /// Creates an address from its raw value.
    pub const fn new(raw: u64) -> Self {
        PhysAddr(raw)
    }

    /// The raw 64-bit value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The address rounded down to its cacheline base.
    pub const fn line(self) -> PhysAddr {
        PhysAddr(self.0 & !(CACHELINE_BYTES - 1))
    }

    /// Byte offset within the cacheline.
    pub(crate) const fn line_offset(self) -> u64 {
        self.0 & (CACHELINE_BYTES - 1)
    }

    /// Whether the address is cacheline-aligned.
    pub const fn is_line_aligned(self) -> bool {
        self.line_offset() == 0
    }

    /// The address rounded down to a `page_size` boundary.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `page_size` is not a power of two.
    pub fn page(self, page_size: u64) -> PhysAddr {
        debug_assert!(page_size.is_power_of_two());
        PhysAddr(self.0 & !(page_size - 1))
    }
}

impl Add<u64> for PhysAddr {
    type Output = PhysAddr;
    fn add(self, rhs: u64) -> PhysAddr {
        PhysAddr(self.0 + rhs)
    }
}

impl Sub<PhysAddr> for PhysAddr {
    type Output = u64;
    fn sub(self, rhs: PhysAddr) -> u64 {
        self.0 - rhs.0
    }
}

impl From<u64> for PhysAddr {
    fn from(raw: u64) -> Self {
        PhysAddr(raw)
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

/// A half-open physical address range `[base, base + size)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AddrRange {
    base: PhysAddr,
    size: u64,
}

impl AddrRange {
    /// Creates a range.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or the range would overflow.
    pub fn new(base: PhysAddr, size: u64) -> Self {
        assert!(size > 0, "empty address range");
        assert!(
            base.raw().checked_add(size).is_some(),
            "address range overflows"
        );
        AddrRange { base, size }
    }

    /// Range start.
    pub const fn base(self) -> PhysAddr {
        self.base
    }

    /// Range size in bytes.
    pub const fn size(self) -> u64 {
        self.size
    }

    /// One past the last address.
    pub(crate) fn end(self) -> PhysAddr {
        self.base + self.size
    }

    /// Whether `addr` falls inside the range.
    pub fn contains(self, addr: PhysAddr) -> bool {
        addr >= self.base && addr.raw() < self.base.raw() + self.size
    }

    /// Whether two ranges share any address.
    pub fn overlaps(self, other: AddrRange) -> bool {
        self.base.raw() < other.end().raw() && other.base.raw() < self.end().raw()
    }
}

impl fmt::Display for AddrRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.base, self.end())
    }
}

/// Power-of-two address interleaving: `index = (addr / stride) % ways`,
/// computed as a shift and a mask (the same trick the DRAM mapper uses
/// for its channel/bank split).
///
/// Shared by the DRAM-style mappers and the coherence layer's multi-home
/// [`Topology`](https://docs.rs/simcxl-coherence) so both sides agree on
/// which slice of the address space a component owns.
///
/// ```
/// use simcxl_mem::{Interleave, PhysAddr};
/// let il = Interleave::new(4, 4096);
/// assert_eq!(il.index_of(PhysAddr::new(0)), 0);
/// assert_eq!(il.index_of(PhysAddr::new(4096)), 1);
/// assert_eq!(il.index_of(PhysAddr::new(4 * 4096)), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interleave {
    shift: u32,
    mask: u64,
}

impl Interleave {
    /// Interleaves across `ways` targets with the given byte `stride`.
    ///
    /// # Panics
    ///
    /// Panics unless `ways` and `stride` are both powers of two and
    /// `stride` is at least one cacheline.
    pub fn new(ways: usize, stride: u64) -> Self {
        assert!(ways.is_power_of_two(), "interleave ways must be pow2");
        assert!(stride.is_power_of_two(), "interleave stride must be pow2");
        assert!(
            stride >= CACHELINE_BYTES,
            "interleave stride below one cacheline splits lines"
        );
        Interleave {
            shift: stride.trailing_zeros(),
            mask: ways as u64 - 1,
        }
    }

    /// The trivial single-target interleave (every address maps to 0).
    pub const fn single() -> Self {
        // Mask 0 maps every address to target 0, whatever the shift.
        Interleave { shift: 0, mask: 0 }
    }

    /// Number of interleave targets.
    pub fn ways(&self) -> usize {
        self.mask as usize + 1
    }

    /// Which target owns `addr`; always `< ways()`.
    pub fn index_of(&self, addr: PhysAddr) -> usize {
        ((addr.raw() >> self.shift) & self.mask) as usize
    }
}

/// Weighted (capacity-proportional) address interleaving: the address
/// space is cut into `stride`-byte stripes and consecutive stripes are
/// dealt to targets according to an integer weight vector — a target
/// with weight `w` owns `w` of every `sum(weights)` stripes, spread as
/// evenly as the weights allow (stride-scheduling apportionment, not
/// `w` consecutive stripes in a row).
///
/// This is the skewed-pool generalisation of [`Interleave`]: unequal
/// host-DRAM and CXL-expander pools want stripes proportional to their
/// capacities, and the coherence layer's weighted
/// [`Topology`](https://docs.rs/simcxl-coherence) shares this exact
/// mapper so directory homing and memory striping agree.
///
/// Lookup is O(1): the weight vector is expanded once into a repeating
/// stripe-pattern table of length `sum(weights)` (after dividing out
/// the gcd), and `index_of` is a shift, a modulo (a mask when the
/// period is a power of two — the pow2 fast path of [`Interleave`] is
/// preserved) and one table load.
///
/// ```
/// use simcxl_mem::{PhysAddr, WeightedInterleave};
/// // A 4:2:1:1 split over 4 KiB stripes: target 0 owns half the space.
/// let wi = WeightedInterleave::new(&[4, 2, 1, 1], 4096);
/// assert_eq!(wi.ways(), 4);
/// // The repeating pattern of 4 + 2 + 1 + 1 stripes spreads each
/// // target evenly:
/// let pat: Vec<usize> = (0..8).map(|s| wi.index_of(PhysAddr::new(s * 4096))).collect();
/// assert_eq!(pat, [0, 1, 0, 2, 3, 0, 1, 0]);
/// // Stripe 8 wraps back to the pattern start.
/// assert_eq!(wi.index_of(PhysAddr::new(8 * 4096)), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeightedInterleave {
    shift: u32,
    /// Stripe-slot -> target table; one slot per (gcd-reduced) weight
    /// unit, so the table length is the repeat period.
    pattern: Box<[u32]>,
    /// `period - 1` when the period is a power of two (mask fast path).
    mask: u64,
    pow2: bool,
    /// The gcd-reduced weight vector (`weights[i]` slots per period
    /// belong to target `i`).
    weights: Box<[u64]>,
}

impl WeightedInterleave {
    /// Longest stripe pattern `new` accepts; weights are gcd-reduced
    /// first, so hitting this means genuinely incommensurate weights.
    pub(crate) const MAX_PERIOD: u64 = 1 << 16;

    /// Interleaves across `weights.len()` targets with the given byte
    /// `stride`, giving target `i` a `weights[i] / sum(weights)` share
    /// of the stripes. Weights are normalised by their gcd, so
    /// `[2, 2]` and `[1, 1]` describe the same mapping.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or contains a zero, if `stride` is
    /// not a power of two of at least one cacheline, or if the reduced
    /// weights sum beyond `MAX_PERIOD`.
    pub fn new(weights: &[u64], stride: u64) -> Self {
        assert!(!weights.is_empty(), "weighted interleave needs targets");
        assert!(
            weights.iter().all(|&w| w > 0),
            "zero-weight interleave target owns no addresses"
        );
        assert!(stride.is_power_of_two(), "interleave stride must be pow2");
        assert!(
            stride >= CACHELINE_BYTES,
            "interleave stride below one cacheline splits lines"
        );
        let g = weights.iter().copied().fold(0, gcd);
        let w: Vec<u64> = weights.iter().map(|&x| x / g).collect();
        let period: u64 = w.iter().sum();
        assert!(
            period <= Self::MAX_PERIOD,
            "weighted interleave pattern of {period} stripes exceeds {}",
            Self::MAX_PERIOD
        );
        // Stride scheduling: slot k goes to the target with the largest
        // outstanding proportional claim w[i]*(k+1) - assigned[i]*period
        // (ties to the lowest index). Each target ends with exactly w[i]
        // slots, spread as evenly as the weights allow; equal weights
        // degenerate to plain round-robin.
        let mut assigned = vec![0u64; w.len()];
        let mut pattern = Vec::with_capacity(period as usize);
        for k in 0..period as i128 {
            let mut best = 0;
            let mut best_score = i128::MIN;
            for (i, (&wi, &ai)) in w.iter().zip(&assigned).enumerate() {
                let score = wi as i128 * (k + 1) - ai as i128 * period as i128;
                if score > best_score {
                    best = i;
                    best_score = score;
                }
            }
            assigned[best] += 1;
            pattern.push(best as u32);
        }
        debug_assert_eq!(assigned, w, "apportionment must match the weights");
        let pow2 = period.is_power_of_two();
        WeightedInterleave {
            shift: stride.trailing_zeros(),
            pattern: pattern.into_boxed_slice(),
            mask: if pow2 { period - 1 } else { 0 },
            pow2,
            weights: w.into_boxed_slice(),
        }
    }

    /// Number of interleave targets.
    pub fn ways(&self) -> usize {
        self.weights.len()
    }

    /// The gcd-reduced weight vector.
    pub fn weights(&self) -> &[u64] {
        &self.weights
    }

    /// Whether every target has equal weight (the pattern is plain
    /// round-robin, equivalent to an unweighted interleave).
    pub fn is_uniform(&self) -> bool {
        self.weights.iter().all(|&w| w == 1)
    }

    /// Which target owns `addr`; always `< ways()`.
    #[inline]
    pub fn index_of(&self, addr: PhysAddr) -> usize {
        let stripe = addr.raw() >> self.shift;
        let slot = if self.pow2 {
            stripe & self.mask
        } else {
            stripe % self.pattern.len() as u64
        };
        self.pattern[slot as usize] as usize
    }
}

/// Greatest common divisor (Euclid); `gcd(0, x) == x`, so it folds over
/// a slice starting from `0`. Shared by [`WeightedInterleave`]'s weight
/// normalisation and the coherence layer's capacity-derived topology.
///
/// ```
/// use simcxl_mem::gcd;
/// assert_eq!([4u64, 2, 6].iter().copied().fold(0, gcd), 2);
/// ```
pub fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_math() {
        let a = PhysAddr::new(0x1fff);
        assert_eq!(a.line(), PhysAddr::new(0x1fc0));
        assert_eq!(a.line_offset(), 0x3f);
        assert!(!a.is_line_aligned());
        assert!(a.line().is_line_aligned());
    }

    #[test]
    fn page_math() {
        let a = PhysAddr::new(0x12345);
        assert_eq!(a.page(4096), PhysAddr::new(0x12000));
        assert_eq!(a.page(2 * 1024 * 1024), PhysAddr::new(0x0));
    }

    #[test]
    fn range_contains_and_overlaps() {
        let r = AddrRange::new(PhysAddr::new(0x1000), 0x1000);
        assert!(r.contains(PhysAddr::new(0x1000)));
        assert!(r.contains(PhysAddr::new(0x1fff)));
        assert!(!r.contains(PhysAddr::new(0x2000)));
        let s = AddrRange::new(PhysAddr::new(0x1800), 0x1000);
        assert!(r.overlaps(s));
        let t = AddrRange::new(PhysAddr::new(0x2000), 0x1000);
        assert!(!r.overlaps(t));
    }

    #[test]
    #[should_panic]
    fn empty_range_rejected() {
        let _ = AddrRange::new(PhysAddr::new(0), 0);
    }

    #[test]
    fn interleave_matches_div_mod() {
        let il = Interleave::new(8, 256);
        for addr in [0u64, 64, 255, 256, 4096, 12345 * 64, u64::MAX - 63] {
            assert_eq!(
                il.index_of(PhysAddr::new(addr)),
                ((addr / 256) % 8) as usize,
                "mismatch at {addr:#x}"
            );
        }
        assert_eq!(il.ways(), 8);
        assert_eq!(1 << il.shift, 256);
    }

    #[test]
    fn interleave_single_is_constant_zero() {
        let il = Interleave::single();
        assert_eq!(il.ways(), 1);
        assert_eq!(il.index_of(PhysAddr::new(u64::MAX)), 0);
    }

    #[test]
    #[should_panic(expected = "pow2")]
    fn interleave_rejects_non_pow2_ways() {
        let _ = Interleave::new(3, 64);
    }

    #[test]
    #[should_panic(expected = "cacheline")]
    fn interleave_rejects_sub_line_stride() {
        let _ = Interleave::new(2, 32);
    }

    #[test]
    fn weighted_matches_div_mod_pattern_reference() {
        let wi = WeightedInterleave::new(&[4, 2, 1, 1], 256);
        assert_eq!(wi.pattern.len(), 8);
        let pattern = [0usize, 1, 0, 2, 3, 0, 1, 0];
        for addr in [0u64, 64, 255, 256, 4096, 12345 * 64, u64::MAX - 63] {
            let stripe = addr / 256;
            assert_eq!(
                wi.index_of(PhysAddr::new(addr)),
                pattern[(stripe % 8) as usize],
                "mismatch at {addr:#x}"
            );
        }
        // Each target owns exactly its weight's worth of slots.
        for (i, &w) in wi.weights().iter().enumerate() {
            assert_eq!(pattern.iter().filter(|&&p| p == i).count() as u64, w);
        }
    }

    #[test]
    fn weighted_equal_weights_degenerate_to_interleave() {
        // Any uniform weight vector reduces to [1, 1, ..] and reproduces
        // the pow2 interleave index for every address.
        for ways in [1usize, 2, 4, 8] {
            let il = Interleave::new(ways, 4096);
            let wi = WeightedInterleave::new(&vec![3u64; ways], 4096);
            assert!(wi.is_uniform());
            assert_eq!(wi.pattern.len(), ways);
            for addr in [0u64, 4095, 4096, 9 * 4096 + 17, u64::MAX] {
                assert_eq!(
                    wi.index_of(PhysAddr::new(addr)),
                    il.index_of(PhysAddr::new(addr)),
                    "mismatch at {addr:#x} for {ways} ways"
                );
            }
        }
    }

    #[test]
    fn weighted_gcd_normalises() {
        let a = WeightedInterleave::new(&[2, 4, 2], 64);
        let b = WeightedInterleave::new(&[1, 2, 1], 64);
        assert_eq!(a, b);
        assert_eq!(a.weights(), &[1, 2, 1]);
        assert_eq!(a.pattern.len(), 4);
    }

    #[test]
    fn weighted_non_pow2_period_uses_modulo_path() {
        // Weights [2, 1]: period 3, pattern [0, 1, 0].
        let wi = WeightedInterleave::new(&[2, 1], 64);
        assert_eq!(wi.pattern.len(), 3);
        let seq: Vec<usize> = (0..6).map(|s| wi.index_of(PhysAddr::new(s * 64))).collect();
        assert_eq!(seq, [0, 1, 0, 0, 1, 0]);
    }

    #[test]
    fn weighted_heavy_target_slots_are_spread() {
        // The 4-weight target of 4:2:1:1 must alternate (slots 0,2,4,6),
        // never clump 4-in-a-row — the apportionment property the load
        // balancer relies on.
        let wi = WeightedInterleave::new(&[4, 2, 1, 1], 64);
        let pat: Vec<usize> = (0..8).map(|s| wi.index_of(PhysAddr::new(s * 64))).collect();
        for w in pat.windows(2) {
            assert!(w[0] != w[1] || w[0] != 0, "heavy target clumped: {pat:?}");
        }
    }

    #[test]
    #[should_panic(expected = "zero-weight")]
    fn weighted_rejects_zero_weight() {
        let _ = WeightedInterleave::new(&[1, 0], 64);
    }

    #[test]
    #[should_panic(expected = "needs targets")]
    fn weighted_rejects_empty_weights() {
        let _ = WeightedInterleave::new(&[], 64);
    }

    #[test]
    #[should_panic(expected = "cacheline")]
    fn weighted_rejects_sub_line_stride() {
        let _ = WeightedInterleave::new(&[1, 1], 32);
    }

    #[test]
    fn addr_arithmetic() {
        let a = PhysAddr::new(100);
        assert_eq!((a + 28).raw(), 128);
        assert_eq!(PhysAddr::new(128) - a, 28);
    }
}

//! Fast non-cryptographic hashing for simulator-internal maps.
//!
//! `std`'s default SipHash-1-3 is DoS-resistant but costs tens of cycles
//! per lookup — measurable in maps the event loop hits on every message
//! (directory entries, MSHRs, request tables). This module vendors the
//! multiply-rotate "Fx" hash used by rustc (no external dependency): a
//! single multiply and rotate per word, O(len/8) per key.
//!
//! The multiply only carries entropy upward: a key's trailing zero bits
//! stay zero in the product. The simulator's hottest keys are line
//! addresses (low 6 bits zero) and 8-byte word addresses (low 3 bits
//! zero), and std's `HashMap` starts each probe at the hash's **low**
//! bits (`hash & bucket_mask`), so the raw product would let only 1
//! bucket in 64 (or 1 in 8) start a probe, and probes would walk long
//! clustered runs. [`FxHasher::finish`] therefore rotates the product
//! left by 26, bringing its well-mixed high bits down into the bucket
//! index, as rustc-hash 2.x does for the same reason.
//!
//! **Use only on trusted keys.** The hash is trivially seed-free, so
//! adversarial key sets can force collisions; every key in this workspace
//! is simulator-generated (addresses, request ids), never external input.
//!
//! ```
//! use sim_core::fxhash::FxHashMap;
//! let mut m: FxHashMap<u64, &str> = FxHashMap::default();
//! m.insert(0x1000, "line");
//! assert_eq!(m.get(&0x1000), Some(&"line"));
//! ```

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// A `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// Multiplicative constant: 2^64 / φ, the same odd constant rustc uses;
/// spreads consecutive integers (our typical keys) across the whole range.
const K: u64 = 0x517c_c1b7_2722_0a95;

/// The rustc-style Fx hasher: `hash = (hash.rotate_left(5) ^ word) * K`
/// per 8-byte word.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    /// The product rotated left by 26: its high bits, which every key
    /// bit feeds, become the low bits a table takes its bucket from.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_ne_bytes(chunk.try_into().expect("8 bytes")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_ne_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(v: T) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(hash_of(0xdead_beefu64), hash_of(0xdead_beefu64));
        assert_eq!(hash_of("simcxl"), hash_of("simcxl"));
    }

    #[test]
    fn distinguishes_nearby_keys() {
        // Cacheline addresses differ in low bits; the hash must not
        // collapse them onto the same buckets.
        let hashes: std::collections::HashSet<u64> =
            (0..1024u64).map(|i| hash_of(i * 64)).collect();
        assert_eq!(hashes.len(), 1024);
    }

    /// Distinct values among the low 12 bits of the hashes of `n` keys
    /// spaced `stride` apart: the bucket index of a 4,096-bucket table.
    fn low_bucket_spread(n: u64, stride: u64) -> usize {
        (0..n)
            .map(|i| hash_of(i * stride) & 0xfff)
            .collect::<std::collections::HashSet<u64>>()
            .len()
    }

    #[test]
    fn line_aligned_keys_spread_over_low_bits() {
        // Without the rotation in `finish` the 6 zero bits of a line
        // address stay zero in the hash: exactly 64 distinct buckets.
        let spread = low_bucket_spread(4096, 64);
        assert!(
            spread >= 2000,
            "4,096 line keys hit {spread} of 4,096 buckets"
        );
    }

    #[test]
    fn word_aligned_keys_spread_over_low_bits() {
        // `FuncMem` keys are 8-byte word addresses: 512 distinct buckets
        // without the rotation, 1,776 with it. A multiplicative hash of
        // evenly spaced keys spreads by an amount that depends on the
        // stride. Rotating by 26 (as rustc-hash 2.x does) spreads well
        // across the strides and table sizes the simulator uses, and
        // this stride is its weakest case.
        let spread = low_bucket_spread(4096, 8);
        assert!(
            spread >= 1500,
            "4,096 word keys hit {spread} of 4,096 buckets"
        );
    }

    #[test]
    fn tail_bytes_affect_hash() {
        assert_ne!(hash_of([1u8, 2, 3]), hash_of([1u8, 2, 4]));
        assert_ne!(hash_of([1u8, 2, 3]), hash_of([1u8, 2, 3, 0]));
    }

    #[test]
    fn map_and_set_aliases_work() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        let mut s: FxHashSet<u64> = FxHashSet::default();
        for i in 0..100 {
            m.insert(i, i * 2);
            s.insert(i);
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m[&21], 42);
        assert!(s.contains(&99));
        assert!(!s.contains(&100));
    }
}

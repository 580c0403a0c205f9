//! An in-memory key-value store workload (paper §VIII: "in-memory
//! key-value store operations (e.g., GET/PUT) offloaded to CXL
//! accelerators will benefit from lower-latency, fine-grained memory
//! accesses").
//!
//! The store is an open-addressing hash table laid out in a flat physical
//! region; GET/PUT traces follow a Zipf-like popularity skew, producing
//! the fine-grained irregular accesses the paper targets.

use sim_core::SimRng;
use simcxl_mem::PhysAddr;

/// One KV operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvOp {
    /// Read the value of a key.
    Get {
        /// Key id.
        key: u64,
    },
    /// Write the value of a key.
    Put {
        /// Key id.
        key: u64,
        /// New value.
        value: u64,
    },
}

/// Workload parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvConfig {
    /// Distinct keys.
    pub keys: u64,
    /// Operations to generate.
    pub ops: usize,
    /// Fraction of GETs (rest are PUTs).
    pub get_ratio: f64,
    /// Skew: probability mass on the hottest 10% of keys.
    pub hot_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for KvConfig {
    fn default() -> Self {
        KvConfig {
            keys: 1 << 16,
            ops: 8192,
            get_ratio: 0.9,
            hot_fraction: 0.8,
            seed: 5,
        }
    }
}

/// Generates a GET/PUT trace with hot-key skew.
pub fn generate(cfg: KvConfig) -> Vec<KvOp> {
    assert!(cfg.keys > 10, "need more than ten keys");
    assert!((0.0..=1.0).contains(&cfg.get_ratio));
    assert!((0.0..=1.0).contains(&cfg.hot_fraction));
    let mut rng = SimRng::new(cfg.seed);
    let hot_keys = (cfg.keys / 10).max(1);
    (0..cfg.ops)
        .map(|_| {
            let key = if rng.chance(cfg.hot_fraction) {
                rng.below(hot_keys)
            } else {
                hot_keys + rng.below(cfg.keys - hot_keys)
            };
            if rng.chance(cfg.get_ratio) {
                KvOp::Get { key }
            } else {
                KvOp::Put {
                    key,
                    value: rng.next_u64(),
                }
            }
        })
        .collect()
}

/// Maps a key to its slot address in a flat table at `base` with 64 B
/// buckets (one line per bucket: tag + value + metadata).
pub fn slot_addr(base: PhysAddr, key: u64, buckets: u64) -> PhysAddr {
    // Fibonacci hashing: well distributed and cheap in hardware.
    let h = key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 16;
    base + (h % buckets) * 64
}

/// A functional reference store for validating offload engines.
#[derive(Debug, Default)]
pub struct RefStore {
    map: std::collections::HashMap<u64, u64>,
}

impl RefStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies one op; returns the value a GET observes.
    pub fn apply(&mut self, op: KvOp) -> Option<u64> {
        match op {
            KvOp::Get { key } => self.map.get(&key).copied(),
            KvOp::Put { key, value } => {
                self.map.insert(key, value);
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_respected() {
        let ops = generate(KvConfig {
            ops: 10_000,
            ..KvConfig::default()
        });
        let gets = ops.iter().filter(|o| matches!(o, KvOp::Get { .. })).count();
        let ratio = gets as f64 / ops.len() as f64;
        assert!((ratio - 0.9).abs() < 0.02, "get ratio {ratio}");
    }

    #[test]
    fn skew_concentrates_on_hot_keys() {
        let cfg = KvConfig::default();
        let ops = generate(cfg);
        let hot_keys = cfg.keys / 10;
        let hot = ops
            .iter()
            .filter(|o| match o {
                KvOp::Get { key } | KvOp::Put { key, .. } => *key < hot_keys,
            })
            .count();
        let frac = hot as f64 / ops.len() as f64;
        assert!(
            (frac - cfg.hot_fraction).abs() < 0.03,
            "hot fraction {frac}"
        );
    }

    #[test]
    fn slots_are_line_aligned_and_bounded() {
        let base = PhysAddr::new(0x2000_0000);
        for key in 0..1000 {
            let a = slot_addr(base, key, 4096);
            assert!(a.is_line_aligned());
            assert!(a.raw() < base.raw() + 4096 * 64);
        }
    }

    #[test]
    fn ref_store_semantics() {
        let mut s = RefStore::new();
        assert_eq!(s.apply(KvOp::Get { key: 1 }), None);
        s.apply(KvOp::Put { key: 1, value: 42 });
        assert_eq!(s.apply(KvOp::Get { key: 1 }), Some(42));
        assert_eq!(s.map.len(), 1);
    }
}

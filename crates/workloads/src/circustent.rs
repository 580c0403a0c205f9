//! The CircusTent atomic-memory-operation patterns.
//!
//! CircusTent \[41\] measures atomic-operation throughput under six access
//! patterns. The paper offloads them as remote atomic operations (RAOs)
//! to the NIC (Fig. 17). The patterns are defined by their index
//! recurrences over a shared array of 8-byte elements:
//!
//! * **RAND** — uniformly random element per op.
//! * **STRIDE1** — sequential elements (seven of every eight ops land in
//!   an already-fetched 64 B line).
//! * **CENTRAL** — every op targets element 0 (a lock/sequencer hotspot).
//! * **SCATTER** — sequential index-array read plus a random-target AMO.
//! * **GATHER** — random-source AMO plus a sequential-destination AMO.
//! * **SG** — random source and random destination per op.

use sim_core::SimRng;
use simcxl_coherence::AtomicKind;
use simcxl_mem::PhysAddr;

/// One remote atomic operation in a generated stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaoOp {
    /// Target address (8-byte aligned).
    pub addr: PhysAddr,
    /// Atomic kind.
    pub kind: AtomicKind,
    /// Operand (addend / compare value).
    pub operand: u64,
}

/// The six patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CtPattern {
    /// Uniformly random targets.
    Rand,
    /// Sequential 8-byte elements.
    Stride1,
    /// Single hotspot element.
    Central,
    /// Scatter: sequential index read + random target update.
    Scatter,
    /// Gather: random source + sequential destination.
    Gather,
    /// Scatter-gather: random source + random destination.
    Sg,
}

impl CtPattern {
    /// All patterns in the paper's Fig. 17 order.
    pub fn all() -> [CtPattern; 6] {
        [
            CtPattern::Rand,
            CtPattern::Stride1,
            CtPattern::Central,
            CtPattern::Sg,
            CtPattern::Scatter,
            CtPattern::Gather,
        ]
    }

    /// Display label matching the paper.
    pub fn label(self) -> &'static str {
        match self {
            CtPattern::Rand => "RAND",
            CtPattern::Stride1 => "STRIDE1",
            CtPattern::Central => "CENTRAL",
            CtPattern::Scatter => "SCATTER",
            CtPattern::Gather => "GATHER",
            CtPattern::Sg => "SG",
        }
    }
}

/// Generation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtConfig {
    /// Number of atomic operations to generate.
    pub ops: usize,
    /// Base physical address of the shared array.
    pub base: PhysAddr,
    /// Shared-array footprint in bytes (power of two recommended).
    pub footprint: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CtConfig {
    fn default() -> Self {
        CtConfig {
            ops: 4096,
            base: PhysAddr::new(0x1000_0000),
            footprint: 16 << 20,
            seed: 1,
        }
    }
}

/// Generates the RAO stream for `pattern`.
pub fn generate(pattern: CtPattern, cfg: CtConfig) -> Vec<RaoOp> {
    assert!(cfg.ops > 0, "empty op stream");
    assert!(cfg.footprint >= 64, "footprint too small");
    let elems = cfg.footprint / 8;
    let mut rng = SimRng::new(cfg.seed);
    let rand_elem = |rng: &mut SimRng| rng.below(elems);
    let faa = |addr: u64| RaoOp {
        addr: PhysAddr::new(addr),
        kind: AtomicKind::FetchAdd,
        operand: 1,
    };
    let mut ops = Vec::with_capacity(cfg.ops);
    match pattern {
        CtPattern::Rand => {
            for _ in 0..cfg.ops {
                ops.push(faa(cfg.base.raw() + rand_elem(&mut rng) * 8));
            }
        }
        CtPattern::Stride1 => {
            for i in 0..cfg.ops as u64 {
                ops.push(faa(cfg.base.raw() + (i % elems) * 8));
            }
        }
        CtPattern::Central => {
            for _ in 0..cfg.ops {
                ops.push(faa(cfg.base.raw()));
            }
        }
        CtPattern::Scatter => {
            // Index array occupies the first half (read sequentially, so
            // line-local), targets land in the second half (random).
            let half = elems / 2;
            for i in 0..cfg.ops as u64 {
                if i % 2 == 0 {
                    ops.push(faa(cfg.base.raw() + (i / 2 % half) * 8));
                } else {
                    ops.push(faa(cfg.base.raw() + (half + rng.below(half)) * 8));
                }
            }
        }
        CtPattern::Gather => {
            let half = elems / 2;
            for i in 0..cfg.ops as u64 {
                if i % 2 == 0 {
                    ops.push(faa(cfg.base.raw() + (half + rng.below(half)) * 8));
                } else {
                    ops.push(faa(cfg.base.raw() + (i / 2 % half) * 8));
                }
            }
        }
        CtPattern::Sg => {
            let half = elems / 2;
            for i in 0..cfg.ops as u64 {
                // Two of every three ops are random (src + dst), one is
                // the sequential index-array access.
                if i % 3 == 0 {
                    ops.push(faa(cfg.base.raw() + (i / 3 % half) * 8));
                } else {
                    ops.push(faa(cfg.base.raw() + rng.below(elems) * 8));
                }
            }
        }
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fraction of ops whose 64 B line was touched by one of the previous
    /// `window` ops (a proxy for HMC hit rate; diagnostic).
    fn line_locality(ops: &[RaoOp], window: usize) -> f64 {
        let mut hits = 0usize;
        for (i, op) in ops.iter().enumerate() {
            let line = op.addr.line();
            let lo = i.saturating_sub(window);
            if ops[lo..i].iter().any(|p| p.addr.line() == line) {
                hits += 1;
            }
        }
        hits as f64 / ops.len() as f64
    }

    fn cfg() -> CtConfig {
        CtConfig {
            ops: 2048,
            ..CtConfig::default()
        }
    }

    #[test]
    fn all_targets_in_footprint() {
        for p in CtPattern::all() {
            for op in generate(p, cfg()) {
                assert!(op.addr >= cfg().base);
                assert!(op.addr.raw() < cfg().base.raw() + cfg().footprint);
                assert_eq!(op.addr.raw() % 8, 0, "{p:?} misaligned");
            }
        }
    }

    #[test]
    fn central_hits_one_line() {
        let ops = generate(CtPattern::Central, cfg());
        assert!(ops.iter().all(|o| o.addr == cfg().base));
        assert!(line_locality(&ops, 64) > 0.99);
    }

    #[test]
    fn stride1_is_line_local() {
        let ops = generate(CtPattern::Stride1, cfg());
        let loc = line_locality(&ops, 8);
        // 7 of 8 ops reuse the line.
        assert!((loc - 0.875).abs() < 0.01, "stride locality {loc}");
    }

    #[test]
    fn rand_has_low_locality() {
        let ops = generate(CtPattern::Rand, cfg());
        assert!(line_locality(&ops, 64) < 0.01);
    }

    #[test]
    fn locality_ordering_matches_paper() {
        let l = |p| line_locality(&generate(p, cfg()), 64);
        let rand = l(CtPattern::Rand);
        let scatter = l(CtPattern::Scatter);
        let stride = l(CtPattern::Stride1);
        let central = l(CtPattern::Central);
        assert!(central > stride, "central {central} vs stride {stride}");
        assert!(stride > scatter, "stride {stride} vs scatter {scatter}");
        assert!(scatter > rand, "scatter {scatter} vs rand {rand}");
    }

    #[test]
    fn deterministic_given_seed() {
        assert_eq!(
            generate(CtPattern::Sg, cfg()),
            generate(CtPattern::Sg, cfg())
        );
        let other = CtConfig { seed: 99, ..cfg() };
        assert_ne!(
            generate(CtPattern::Sg, cfg()),
            generate(CtPattern::Sg, other)
        );
    }
}

//! The load/store-unit calibration microbenchmark.
//!
//! Paper §VI-A3: "we implemented a load/store unit (LSU) on the CXL-FPGA
//! and in SimCXL to generate host memory requests with configurable
//! access patterns." The latency tests issue 32 sequential 64 B loads
//! repeated 1000 times; the bandwidth tests issue 2048 requests.

use sim_core::SimRng;
use simcxl_mem::{PhysAddr, CACHELINE_BYTES};

/// Load or store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LsuOp {
    /// 64 B load.
    Load,
    /// 64 B store.
    Store,
}

/// One generated request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LsuRequest {
    /// Target address (line-aligned).
    pub addr: PhysAddr,
    /// Operation.
    pub op: LsuOp,
}

/// Access patterns the LSU supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LsuPattern {
    /// `count` sequential lines starting at the base.
    Sequential {
        /// Number of requests.
        count: usize,
    },
    /// `count` requests cycling over a window of `lines` lines
    /// (window < cache size keeps everything cache-resident).
    Cyclic {
        /// Number of requests.
        count: usize,
        /// Lines in the window.
        lines: u64,
    },
    /// `count` uniformly random lines within `footprint` bytes.
    Random {
        /// Number of requests.
        count: usize,
        /// Footprint in bytes.
        footprint: u64,
        /// RNG seed.
        seed: u64,
    },
}

/// Generates a request stream at `base` with the given operation.
pub(crate) fn generate(base: PhysAddr, op: LsuOp, pattern: LsuPattern) -> Vec<LsuRequest> {
    match pattern {
        LsuPattern::Sequential { count } => (0..count as u64)
            .map(|i| LsuRequest {
                addr: base + i * CACHELINE_BYTES,
                op,
            })
            .collect(),
        LsuPattern::Cyclic { count, lines } => {
            assert!(lines > 0, "empty window");
            (0..count as u64)
                .map(|i| LsuRequest {
                    addr: base + (i % lines) * CACHELINE_BYTES,
                    op,
                })
                .collect()
        }
        LsuPattern::Random {
            count,
            footprint,
            seed,
        } => {
            let lines = footprint / CACHELINE_BYTES;
            assert!(lines > 0, "footprint too small");
            let mut rng = SimRng::new(seed);
            (0..count)
                .map(|_| LsuRequest {
                    addr: base + rng.below(lines) * CACHELINE_BYTES,
                    op,
                })
                .collect()
        }
    }
}

/// The paper's latency-test stream: 32 sequential 64 B loads.
pub fn latency_burst(base: PhysAddr) -> Vec<LsuRequest> {
    generate(base, LsuOp::Load, LsuPattern::Sequential { count: 32 })
}

/// The paper's bandwidth-test stream: 2048 loads (128 KB).
pub fn bandwidth_burst(base: PhysAddr) -> Vec<LsuRequest> {
    generate(base, LsuOp::Load, LsuPattern::Sequential { count: 2048 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_addresses_step_by_line() {
        let reqs = generate(
            PhysAddr::new(0x1000),
            LsuOp::Load,
            LsuPattern::Sequential { count: 4 },
        );
        let addrs: Vec<u64> = reqs.iter().map(|r| r.addr.raw()).collect();
        assert_eq!(addrs, vec![0x1000, 0x1040, 0x1080, 0x10c0]);
    }

    #[test]
    fn cyclic_wraps() {
        let reqs = generate(
            PhysAddr::new(0),
            LsuOp::Store,
            LsuPattern::Cyclic { count: 5, lines: 2 },
        );
        let addrs: Vec<u64> = reqs.iter().map(|r| r.addr.raw()).collect();
        assert_eq!(addrs, vec![0, 64, 0, 64, 0]);
        assert!(reqs.iter().all(|r| r.op == LsuOp::Store));
    }

    #[test]
    fn random_within_footprint() {
        let reqs = generate(
            PhysAddr::new(0x4000),
            LsuOp::Load,
            LsuPattern::Random {
                count: 1000,
                footprint: 1 << 16,
                seed: 3,
            },
        );
        for r in &reqs {
            assert!(r.addr.raw() >= 0x4000 && r.addr.raw() < 0x4000 + (1 << 16));
            assert!(r.addr.is_line_aligned());
        }
    }

    #[test]
    fn paper_bursts_have_paper_sizes() {
        assert_eq!(latency_burst(PhysAddr::new(0)).len(), 32);
        let bw = bandwidth_burst(PhysAddr::new(0));
        assert_eq!(bw.len(), 2048);
        // 2048 lines = 128 KB, the paper's convergence point.
        assert_eq!(bw.len() as u64 * CACHELINE_BYTES, 128 * 1024);
    }
}

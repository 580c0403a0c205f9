//! Remote atomic operation (RAO) offload engines (paper §V-A, Fig. 8/9).

use sim_core::Tick;
use simcxl_coherence::prelude::*;
use simcxl_pcie::{DmaConfig, DmaEngine};
use simcxl_workloads::circustent::RaoOp;

/// Outcome of running an RAO stream through a NIC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RaoResult {
    /// Completion time of the last operation.
    pub total: Tick,
    /// Operations executed.
    pub ops: usize,
}

impl RaoResult {
    /// Throughput in million operations per second.
    pub fn mops(&self) -> f64 {
        self.ops as f64 / self.total.as_secs_f64() / 1e6
    }
}

/// The PCIe-NIC RAO design (paper §V-A1): each RAO executes as an
/// indivisible DMA read + modify + DMA write, and — because PCIe's
/// relaxed ordering permits a later read to pass an earlier write — the
/// write must be acknowledged before the next RAO to the same engine
/// proceeds (Fig. 8a).
#[derive(Debug)]
pub struct PcieRaoNic {
    dma: DmaEngine,
    rx_overhead: Tick,
}

impl PcieRaoNic {
    /// Creates the NIC over the given DMA timing.
    pub fn new(dma: DmaConfig) -> Self {
        PcieRaoNic {
            dma: DmaEngine::new(dma),
            rx_overhead: Tick::from_ns(20),
        }
    }

    /// Executes `ops` back-to-back (an always-backlogged RX queue, the
    /// saturation regime CircusTent measures).
    pub fn run(&mut self, ops: &[RaoOp]) -> RaoResult {
        assert!(!ops.is_empty(), "empty RAO stream");
        self.dma.reset();
        let mut now = Tick::ZERO;
        for _op in ops {
            now = self.dma.ordered_rmw(now + self.rx_overhead, 64);
        }
        RaoResult {
            total: now,
            ops: ops.len(),
        }
    }
}

/// The CXL-NIC RAO design (paper §V-A2, Fig. 9): RAO PEs parse requests
/// from the RX buffer and execute read-modify-write against the HMC via
/// the DCOH; hits are serviced in-cache with the line locked, misses
/// fetch the line coherently from the host.
#[derive(Debug)]
pub struct CxlRaoNic {
    engine: ProtocolEngine,
    hmc: AgentId,
    rx_overhead: Tick,
    /// Outstanding-op window (number of RAO PEs).
    pes: usize,
}

impl CxlRaoNic {
    /// Creates the NIC with an HMC of the given configuration and the
    /// default host configuration.
    pub fn new(hmc_cfg: CacheConfig, home_cfg: HomeConfig, pes: usize) -> Self {
        assert!(pes > 0, "need at least one PE");
        let mut engine = ProtocolEngine::builder().home(home_cfg).build();
        let hmc = engine.add_cache(hmc_cfg);
        CxlRaoNic {
            engine,
            hmc,
            rx_overhead: Tick::from_ns(20),
            pes,
        }
    }

    /// Read access to the protocol engine (statistics, verification).
    pub fn engine(&self) -> &ProtocolEngine {
        &self.engine
    }

    /// The HMC's agent id within [`engine`](Self::engine).
    pub fn hmc(&self) -> AgentId {
        self.hmc
    }

    /// Mutable access (seeding functional memory in tests).
    pub fn engine_mut(&mut self) -> &mut ProtocolEngine {
        &mut self.engine
    }

    /// Executes `ops` with up to `pes` outstanding operations.
    ///
    /// CircusTent's single-stream semantics order all ops; PEs only
    /// overlap *independent* lines, so a window of `pes` requests is in
    /// flight at once and conflicting lines serialize in the HMC/home.
    pub fn run(&mut self, ops: &[RaoOp]) -> RaoResult {
        assert!(!ops.is_empty(), "empty RAO stream");
        let n = ops.len();
        let mut issued = 0usize;
        let mut done = 0usize;
        let mut now = Tick::ZERO;
        let mut comps = Vec::new();
        while done < n {
            while issued - done < self.pes && issued < n {
                let op = ops[issued];
                now = now.max(self.engine.now()) + self.rx_overhead;
                self.engine.issue(
                    self.hmc,
                    MemOp::Rmw {
                        kind: op.kind,
                        operand: op.operand,
                        operand2: 0,
                    },
                    op.addr,
                    now,
                );
                issued += 1;
            }
            if !self.engine.run_next(&mut comps) {
                break;
            }
            done += comps.len();
            now = now.max(self.engine.now());
        }
        let comps = self.engine.run_to_quiescence();
        done += comps.len();
        assert_eq!(done, n, "lost completions");
        RaoResult {
            total: self.engine.now(),
            ops: n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcxl_workloads::circustent::{self, CtConfig, CtPattern};

    fn cxl_nic() -> CxlRaoNic {
        CxlRaoNic::new(CacheConfig::hmc_128k(), HomeConfig::default(), 1)
    }

    fn ct(pattern: CtPattern, ops: usize) -> Vec<RaoOp> {
        circustent::generate(
            pattern,
            CtConfig {
                ops,
                ..CtConfig::default()
            },
        )
    }

    #[test]
    fn pcie_rao_throughput_is_dma_bound() {
        let mut nic = PcieRaoNic::new(DmaConfig::fpga_400mhz());
        let r = nic.run(&ct(CtPattern::Central, 64));
        // Each RMW costs two ordered DMA transfers: several µs per op.
        let per_op = r.total / 64;
        assert!(per_op > Tick::from_us(3), "per-op {per_op}");
        assert!(per_op < Tick::from_us(8), "per-op {per_op}");
    }

    #[test]
    fn cxl_central_hits_in_hmc() {
        let mut nic = cxl_nic();
        let r = nic.run(&ct(CtPattern::Central, 256));
        let stats = nic.engine().cache_stats(nic.hmc());
        assert!(stats.hits >= 255, "central should hit after the first op");
        let per_op = r.total / 256;
        assert!(per_op < Tick::from_ns(200), "per-op {per_op}");
    }

    #[test]
    fn cxl_functional_sum_is_exact() {
        let mut nic = cxl_nic();
        let ops = ct(CtPattern::Central, 500);
        nic.run(&ops);
        let total = nic
            .engine_mut()
            .func_mem()
            .read_u64(CtConfig::default().base);
        assert_eq!(total, 500, "all FAAs must land exactly once");
    }

    #[test]
    fn cxl_beats_pcie_on_every_pattern() {
        for pattern in CtPattern::all() {
            let ops = ct(pattern, 256);
            let mut pcie = PcieRaoNic::new(DmaConfig::fpga_400mhz());
            let p = pcie.run(&ops);
            let mut cxl = cxl_nic();
            let c = cxl.run(&ops);
            let speedup = c.mops() / p.mops();
            assert!(speedup > 3.0, "{pattern:?} speedup only {speedup:.1}x");
        }
    }

    #[test]
    fn speedup_ordering_matches_fig17() {
        let mut speedups = std::collections::HashMap::new();
        for pattern in CtPattern::all() {
            let ops = ct(pattern, 512);
            let mut pcie = PcieRaoNic::new(DmaConfig::fpga_400mhz());
            let p = pcie.run(&ops);
            let mut cxl = cxl_nic();
            let c = cxl.run(&ops);
            speedups.insert(pattern, c.mops() / p.mops());
        }
        let s = |p| speedups[&p];
        assert!(s(CtPattern::Central) > s(CtPattern::Stride1));
        assert!(s(CtPattern::Stride1) > s(CtPattern::Scatter));
        assert!(s(CtPattern::Scatter) > s(CtPattern::Rand));
        assert!(s(CtPattern::Gather) > s(CtPattern::Rand));
        assert!(s(CtPattern::Sg) > s(CtPattern::Rand));
    }

    #[test]
    fn more_pes_do_not_hurt_central() {
        let ops = ct(CtPattern::Central, 256);
        let mut one = cxl_nic();
        let r1 = one.run(&ops);
        let mut four = CxlRaoNic::new(CacheConfig::hmc_128k(), HomeConfig::default(), 4);
        let r4 = four.run(&ops);
        // All ops conflict on one line, so extra PEs cannot slow it by
        // much (lock serialization), and the sum must stay exact.
        assert!(r4.total < r1.total * 2);
        assert_eq!(
            four.engine_mut()
                .func_mem()
                .read_u64(CtConfig::default().base),
            256
        );
    }
}

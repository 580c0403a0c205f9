//! Hardware-calibrated device profiles (paper Table I and §VI-A2/A4).
//!
//! Two design points are calibrated: the 400 MHz CXL/PCIe FPGA testbed
//! (Intel Agilex + Samsung expander, the paper's ground truth) and the
//! 1.5 GHz ASIC projection obtained by frequency-scaling measured clock
//! cycles. `reference` carries the paper's measured values, which the
//! calibration harness compares against simulation to compute the MAPE
//! the paper reports (3%).

use sim_core::{LinkConfig, Tick};
use simcxl_coherence::{CacheConfig, HomeConfig};
use simcxl_pcie::DmaConfig;

/// A calibrated device/interconnect design point.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Human-readable name used in reports.
    pub name: &'static str,
    /// HMC / CXL.cache configuration for the accelerator.
    pub hmc: CacheConfig,
    /// Host-side home-agent configuration.
    pub home: HomeConfig,
    /// DMA engine configuration for the PCIe baseline.
    pub dma: DmaConfig,
}

impl DeviceProfile {
    /// The 400 MHz CXL-FPGA / PCIe-FPGA testbed point.
    pub fn fpga_400mhz() -> Self {
        DeviceProfile {
            name: "FPGA@400MHz",
            hmc: CacheConfig {
                size_bytes: 128 * 1024,
                ways: 4,
                issue_latency: Tick::from_ps(57_500),
                lookup_latency: Tick::from_ps(57_500),
                accept_gap: Tick::from_ps(2_553),
                link: LinkConfig::with_gbps(Tick::from_ns(200), 25.6),
                rmw_lock: Tick::from_ns(5),
            },
            home: HomeConfig {
                lookup_latency: Tick::from_ns(60),
                refill_latency: Tick::from_ns(15),
                serve_gap: Tick::from_ps(4_250),
                mem_link: LinkConfig::with_gbps(Tick::from_ns(15), 70.4),
                mem_front_latency: Tick::from_ns(45),
            },
            dma: DmaConfig::fpga_400mhz(),
        }
    }

    /// The 1.5 GHz ASIC projection.
    pub fn asic_1500mhz() -> Self {
        DeviceProfile {
            name: "ASIC@1.5GHz",
            hmc: CacheConfig {
                size_bytes: 128 * 1024,
                ways: 4,
                issue_latency: Tick::from_ps(5_000),
                lookup_latency: Tick::from_ps(5_000),
                accept_gap: Tick::from_ps(709),
                link: LinkConfig::with_gbps(Tick::from_ps(78_000), 90.3),
                rmw_lock: Tick::from_ns(2),
            },
            home: HomeConfig {
                lookup_latency: Tick::from_ns(50),
                refill_latency: Tick::from_ns(4),
                serve_gap: Tick::from_ps(1_240),
                mem_link: LinkConfig::with_gbps(Tick::from_ns(4), 70.4),
                mem_front_latency: Tick::from_ns(22),
            },
            dma: DmaConfig::asic_1500mhz(),
        }
    }
}

/// The paper's measured values (Figs. 12–16), used as the hardware
/// ground truth for calibration.
pub mod reference {
    /// Fig. 13 median load latencies at 400 MHz, in ns:
    /// `(hmc_hit, llc_hit, mem_hit, dma_64b)`.
    pub const FIG13_FPGA_NS: (f64, f64, f64, f64) = (115.0, 575.6, 688.3, 2_170.0);
    /// Fig. 13 at 1.5 GHz.
    pub const FIG13_ASIC_NS: (f64, f64, f64, f64) = (10.0, 217.0, 260.0, 1_170.0);
    /// Fig. 15 bandwidths at 400 MHz, GB/s: `(hmc, llc, mem, dma_64b)`.
    pub const FIG15_FPGA_GBPS: (f64, f64, f64, f64) = (25.07, 14.10, 13.49, 0.92);
    /// Fig. 15 at 1.5 GHz.
    pub const FIG15_ASIC_GBPS: (f64, f64, f64, f64) = (90.22, 47.41, 46.10, 1.82);
    /// Fig. 12 per-NUMA-node median CXL.cache load latency, ns,
    /// nodes 0–7 (remote socket 0–3, local socket 4–7).
    pub const FIG12_NODE_MEDIANS_NS: [f64; 8] =
        [758.0, 761.0, 770.0, 776.0, 710.0, 708.0, 693.0, 688.0];
    /// Fig. 16: DMA bandwidth at 256 KB messages, GB/s (FPGA).
    pub const FIG16_DMA_256K_GBPS: f64 = 22.9;
    /// §VI-C2 headline: CXL.cache vs DMA bandwidth ratio at 64 B.
    pub const HEADLINE_BW_RATIO: f64 = 14.4;
    /// §VI-B3 headline: CXL.cache latency reduction vs DMA at 64 B.
    pub const HEADLINE_LATENCY_REDUCTION: f64 = 0.68;
    /// The paper's reported mean absolute percentage error.
    pub const PAPER_MAPE_PERCENT: f64 = 3.0;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_are_distinct_and_sane() {
        let fpga = DeviceProfile::fpga_400mhz();
        let asic = DeviceProfile::asic_1500mhz();
        assert_ne!(fpga, asic);
        assert!(asic.hmc.issue_latency < fpga.hmc.issue_latency);
        assert!(asic.hmc.accept_gap < fpga.hmc.accept_gap);
        assert_eq!(fpga.hmc.size_bytes, 128 * 1024);
        assert_eq!(fpga.hmc.ways, 4);
    }

    #[test]
    fn reference_tables_are_ordered() {
        let (hmc, llc, mem, dma) = reference::FIG13_FPGA_NS;
        assert!(hmc < llc && llc < mem && mem < dma);
        let (hmc, llc, mem, dma) = reference::FIG15_FPGA_GBPS;
        assert!(hmc > llc && llc > mem && mem > dma);
    }
}

//! Configuration of agents and engine timing.
//!
//! Defaults correspond to the paper's CXL-FPGA testbed at 400 MHz; the
//! `cohet` crate's calibrated profiles adjust them for the FPGA and ASIC
//! configurations of Table I / Fig. 13.

use sim_core::{LinkConfig, Tick};

/// Configuration of one peer cache (`crate::cache::CacheAgent`).
#[derive(Debug, Clone, PartialEq)]
pub struct CacheConfig {
    /// Capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Requester-to-cache issue latency (LSU pipeline in front of the
    /// cache; for a CXL device this is the on-chip path to the HMC).
    pub issue_latency: Tick,
    /// Tag + data access latency on a hit.
    pub lookup_latency: Tick,
    /// Minimum spacing between request acceptances (pipelining limit);
    /// sets the peak local-hit bandwidth.
    pub accept_gap: Tick,
    /// Link from this cache to the home agent (request direction). For a
    /// CPU L1 this is the on-chip fabric; for an HMC it is the CXL/PCIe
    /// flex-bus traversal.
    pub link: LinkConfig,
    /// How long an atomic holds the line locked against snoops.
    pub rmw_lock: Tick,
}

impl CacheConfig {
    /// A CPU-side L1 peer cache (on-chip, fast path to LLC).
    pub fn cpu_l1() -> Self {
        CacheConfig {
            size_bytes: 48 * 1024,
            ways: 12,
            issue_latency: Tick::from_ns(1),
            lookup_latency: Tick::from_ns(1),
            accept_gap: Tick::from_ps(500),
            link: LinkConfig::with_gbps(Tick::from_ns(8), 64.0),
            rmw_lock: Tick::from_ns(2),
        }
    }

    /// The paper's device HMC: 128 KB, 4-way, behind the CXL flex bus at
    /// 400 MHz (FPGA calibration point).
    pub fn hmc_128k() -> Self {
        CacheConfig {
            size_bytes: 128 * 1024,
            ways: 4,
            issue_latency: Tick::from_ps(57_500),
            lookup_latency: Tick::from_ps(57_500),
            accept_gap: Tick::from_ps(2_553),
            link: LinkConfig::with_gbps(Tick::from_ns(200), 25.6),
            rmw_lock: Tick::from_ns(5),
        }
    }
}

/// Configuration of the home agent (shared LLC + directory).
#[derive(Debug, Clone, PartialEq)]
pub struct HomeConfig {
    /// LLC lookup latency (directory embedded in line metadata).
    pub lookup_latency: Tick,
    /// Data-response (refill) processing latency: memory data, snoop
    /// responses and write-pulled data enter through a dedicated port.
    pub refill_latency: Tick,
    /// Per-request occupancy of the home pipeline; models the
    /// coherence-check bubbles the paper blames for LLC/mem-hit bandwidth
    /// degradation (§VI-C1).
    pub serve_gap: Tick,
    /// Link from the home agent to the memory agent.
    pub mem_link: LinkConfig,
    /// Fixed memory-controller front latency added to every fetch.
    pub mem_front_latency: Tick,
}

impl Default for HomeConfig {
    fn default() -> Self {
        HomeConfig {
            lookup_latency: Tick::from_ns(60),
            refill_latency: Tick::from_ns(15),
            serve_gap: Tick::from_ps(2_000),
            mem_link: LinkConfig::with_gbps(Tick::from_ns(20), 70.4),
            mem_front_latency: Tick::from_ns(55),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_reasonable() {
        let l1 = CacheConfig::cpu_l1();
        let hmc = CacheConfig::hmc_128k();
        assert!(l1.link.latency < hmc.link.latency);
        assert_eq!(hmc.size_bytes, 128 * 1024);
        assert_eq!(hmc.ways, 4);
    }
}

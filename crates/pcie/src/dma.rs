//! The descriptor-based DMA engine.
//!
//! Captures the two DMA properties the paper measures: a large fixed
//! per-transfer setup cost (descriptor fetch, doorbell, engine start)
//! that dominates small messages (Fig. 14), and pipelined descriptor
//! processing whose per-descriptor gap bounds small-message throughput
//! while TLP framing overhead bounds bulk throughput (Fig. 16).

use crate::link::{PcieLink, PcieLinkConfig};
use sim_core::Tick;

/// Configuration of a [`DmaEngine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DmaConfig {
    /// Underlying link (latency + TLP framing). The link's raw bandwidth
    /// should be set to the *engine datapath* rate when the device, not
    /// the slot, is the bottleneck (25.6 GB/s for the 400 MHz FPGA).
    pub link: PcieLinkConfig,
    /// Fixed per-transfer setup: doorbell, descriptor fetch, engine start.
    pub setup_latency: Tick,
    /// Minimum spacing between descriptor launches (pipelining limit).
    pub desc_gap: Tick,
    /// Device-side modify time used by [`DmaEngine::ordered_rmw`].
    pub modify_latency: Tick,
}

impl DmaConfig {
    /// Calibrated to the paper's PCIe-FPGA at 400 MHz: DMA@64 B latency
    /// ≈ 2.17 µs and bandwidth 0.92 GB/s, rising to ≈ 22.9 GB/s at 256 KB.
    pub fn fpga_400mhz() -> Self {
        DmaConfig {
            link: PcieLinkConfig {
                latency: Tick::from_ns(240),
                ..PcieLinkConfig::gen5_x16()
            }
            .with_engine_gbps(25.6),
            setup_latency: Tick::from_ns(1_920),
            desc_gap: Tick::from_ps(69_600),
            modify_latency: Tick::from_ns(10),
        }
    }

    /// Calibrated to the paper's PCIe-ASIC at 1.5 GHz: DMA@64 B latency
    /// ≈ 1.17 µs and bandwidth 1.82 GB/s.
    pub fn asic_1500mhz() -> Self {
        DmaConfig {
            link: PcieLinkConfig {
                latency: Tick::from_ns(160),
                ..PcieLinkConfig::gen5_x16()
            }
            .with_engine_gbps(50.0),
            setup_latency: Tick::from_ns(980),
            desc_gap: Tick::from_ps(35_200),
            modify_latency: Tick::from_ns(3),
        }
    }
}

impl PcieLinkConfig {
    /// Caps the link's serialization rate at the device datapath rate
    /// (GB/s); used when the endpoint, not the slot, bounds throughput.
    pub(crate) fn with_engine_gbps(mut self, gbps: f64) -> Self {
        assert!(gbps > 0.0, "engine rate must be positive");
        self.engine_bytes_per_sec = Some(gbps * 1e9);
        self
    }
}

/// A DMA engine bound to one link.
///
/// ```
/// use simcxl_pcie::{DmaConfig, DmaEngine};
/// use sim_core::Tick;
///
/// let mut dma = DmaEngine::new(DmaConfig::fpga_400mhz());
/// let done = dma.transfer(Tick::ZERO, 64);
/// // Small transfers pay the full setup cost: ~2.2 µs.
/// assert!(done > Tick::from_us(2));
/// ```
#[derive(Debug, Clone)]
pub struct DmaEngine {
    cfg: DmaConfig,
    link: PcieLink,
    engine_free: Tick,
    ordered_free: Tick,
}

impl DmaEngine {
    /// Creates an idle engine.
    pub fn new(cfg: DmaConfig) -> Self {
        let link = PcieLink::new(cfg.link);
        DmaEngine {
            cfg,
            link,
            engine_free: Tick::ZERO,
            ordered_free: Tick::ZERO,
        }
    }

    /// Launches one transfer of `bytes`; returns its completion time.
    /// Back-to-back transfers pipeline, separated by the descriptor gap
    /// and link serialization.
    pub fn transfer(&mut self, now: Tick, bytes: u64) -> Tick {
        assert!(bytes > 0, "empty DMA transfer");
        let start = now.max(self.engine_free);
        self.engine_free = start + self.cfg.desc_gap;
        self.link.send(start + self.cfg.setup_latency, bytes)
    }

    /// Unloaded latency of a single transfer (closed form; used by the
    /// Fig. 14 sweep).
    pub fn unloaded_latency(&self, bytes: u64) -> Tick {
        let ser = sim_core::LinkConfig {
            latency: Tick::ZERO,
            bytes_per_sec: self.cfg.link.raw_bytes_per_sec(),
        }
        .serialize_time(self.cfg.link.wire_bytes(bytes));
        self.cfg.setup_latency + ser + self.cfg.link.latency
    }

    /// An ordered read-modify-write for PCIe RAO offloading
    /// (paper §V-A1): DMA read, modify, DMA write, then wait for the
    /// write acknowledgment before the next ordered op may start, to
    /// avoid RAW hazards under PCIe's relaxed ordering.
    pub fn ordered_rmw(&mut self, now: Tick, bytes: u64) -> Tick {
        let start = now.max(self.ordered_free);
        let read_done = self.transfer(start, bytes);
        let write_done = self.transfer(read_done + self.cfg.modify_latency, bytes);
        // The ack must return before the next RMW to the same engine.
        let ack = write_done + self.cfg.link.latency;
        self.ordered_free = ack;
        ack
    }

    /// Sustained bandwidth (bytes/s) streaming `count` transfers of
    /// `bytes` each, starting from idle.
    pub fn stream_bandwidth(&mut self, bytes: u64, count: u64) -> f64 {
        assert!(count > 0, "empty stream");
        let mut last = Tick::ZERO;
        for _ in 0..count {
            last = self.transfer(Tick::ZERO, bytes);
        }
        (bytes * count) as f64 / last.as_secs_f64()
    }

    /// Resets the engine and its link to idle.
    pub fn reset(&mut self) {
        self.link.reset();
        self.engine_free = Tick::ZERO;
        self.ordered_free = Tick::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_transfer_latency_near_calibration() {
        let mut dma = DmaEngine::new(DmaConfig::fpga_400mhz());
        let done = dma.transfer(Tick::ZERO, 64);
        let ns = done.as_ns_f64();
        assert!(
            (ns - 2170.0).abs() / 2170.0 < 0.05,
            "64 B DMA latency {ns} ns"
        );
    }

    #[test]
    fn latency_flat_below_8k_then_grows() {
        let dma = DmaEngine::new(DmaConfig::fpga_400mhz());
        let l64 = dma.unloaded_latency(64).as_us_f64();
        let l8k = dma.unloaded_latency(8 * 1024).as_us_f64();
        let l256k = dma.unloaded_latency(256 * 1024).as_us_f64();
        assert!(l8k < l64 * 1.3, "8 KB not roughly flat: {l8k} vs {l64}");
        assert!(l256k > l64 * 4.0, "256 KB should be transfer-dominated");
    }

    #[test]
    fn small_message_bandwidth_near_calibration() {
        let mut dma = DmaEngine::new(DmaConfig::fpga_400mhz());
        let bw = dma.stream_bandwidth(64, 2048) / 1e9;
        assert!(
            (bw - 0.92).abs() / 0.92 < 0.05,
            "64 B DMA bandwidth {bw} GB/s"
        );
    }

    #[test]
    fn bulk_bandwidth_near_calibration() {
        let mut dma = DmaEngine::new(DmaConfig::fpga_400mhz());
        let bw = dma.stream_bandwidth(256 * 1024, 64) / 1e9;
        assert!(
            (bw - 22.9).abs() / 22.9 < 0.08,
            "256 KB DMA bandwidth {bw} GB/s"
        );
    }

    #[test]
    fn ordered_rmw_serializes() {
        let mut dma = DmaEngine::new(DmaConfig::fpga_400mhz());
        let a = dma.ordered_rmw(Tick::ZERO, 64);
        let b = dma.ordered_rmw(Tick::ZERO, 64);
        assert!(
            b >= a * 2 - Tick::from_ns(1),
            "RMWs must not overlap: {a} {b}"
        );
        // Each RMW costs two transfers plus the ack wait: well over 4 µs.
        assert!(a > Tick::from_us(4), "per-RMW cost {a}");
    }

    #[test]
    fn asic_profile_is_faster() {
        let mut fpga = DmaEngine::new(DmaConfig::fpga_400mhz());
        let mut asic = DmaEngine::new(DmaConfig::asic_1500mhz());
        let f = fpga.transfer(Tick::ZERO, 64);
        let a = asic.transfer(Tick::ZERO, 64);
        assert!(a < f);
        let ns = a.as_ns_f64();
        assert!(
            (ns - 1170.0).abs() / 1170.0 < 0.06,
            "ASIC 64 B latency {ns}"
        );
    }

    #[test]
    fn reset_restores_idle() {
        let mut dma = DmaEngine::new(DmaConfig::fpga_400mhz());
        dma.transfer(Tick::ZERO, 4096);
        dma.reset();
        let done = dma.transfer(Tick::ZERO, 64);
        assert!(done < Tick::from_us(3));
    }

    #[test]
    #[should_panic]
    fn zero_byte_transfer_rejected() {
        let mut dma = DmaEngine::new(DmaConfig::fpga_400mhz());
        let _ = dma.transfer(Tick::ZERO, 0);
    }
}

//! PCIe link and TLP (transaction-layer packet) accounting.

use sim_core::{Link, LinkConfig, Tick};

/// PCIe generation (per-lane raw rate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PcieGen {
    /// 8 GT/s, 128b/130b encoding.
    Gen3,
    /// 16 GT/s.
    Gen4,
    /// 32 GT/s (the paper's testbed: PCIe 5.0).
    Gen5,
}

impl PcieGen {
    /// Raw per-lane rate in GT/s.
    pub(crate) fn gt_per_sec(self) -> f64 {
        match self {
            PcieGen::Gen3 => 8.0,
            PcieGen::Gen4 => 16.0,
            PcieGen::Gen5 => 32.0,
        }
    }

    /// Effective per-lane payload bytes/s after 128b/130b encoding.
    pub(crate) fn lane_bytes_per_sec(self) -> f64 {
        self.gt_per_sec() * 1e9 / 8.0 * (128.0 / 130.0)
    }
}

/// Configuration of a [`PcieLink`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcieLinkConfig {
    /// Link generation.
    pub gen: PcieGen,
    /// Lane count (×1/×4/×8/×16).
    pub lanes: u32,
    /// One-way propagation latency (PHY + retimers + switch hops).
    pub latency: Tick,
    /// Maximum TLP payload in bytes.
    pub max_payload: u64,
    /// Per-TLP header/framing/DLLP overhead in bytes.
    pub tlp_overhead: u64,
    /// Optional endpoint datapath rate (bytes/s) overriding the slot
    /// rate when the device, not the link, bounds throughput.
    pub engine_bytes_per_sec: Option<f64>,
}

impl PcieLinkConfig {
    /// The paper's testbed slot: Gen5 ×16.
    pub(crate) fn gen5_x16() -> Self {
        PcieLinkConfig {
            gen: PcieGen::Gen5,
            lanes: 16,
            latency: Tick::from_ns(200),
            max_payload: 512,
            tlp_overhead: 60,
            engine_bytes_per_sec: None,
        }
    }

    /// Gen5 ×8 (the paper's memory-expander slot).
    pub fn gen5_x8() -> Self {
        PcieLinkConfig {
            lanes: 8,
            ..Self::gen5_x16()
        }
    }

    /// Raw link bandwidth in bytes/s (the slot rate, or the endpoint
    /// datapath rate when that is the bottleneck).
    pub(crate) fn raw_bytes_per_sec(&self) -> f64 {
        let slot = self.gen.lane_bytes_per_sec() * self.lanes as f64;
        match self.engine_bytes_per_sec {
            Some(engine) => engine.min(slot),
            None => slot,
        }
    }

    /// Number of TLPs needed for `bytes` of payload.
    pub(crate) fn tlp_count(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.max_payload).max(1)
    }

    /// Total wire bytes (payload + per-TLP overhead) for `bytes`.
    pub(crate) fn wire_bytes(&self, bytes: u64) -> u64 {
        bytes + self.tlp_count(bytes) * self.tlp_overhead
    }
}

/// A PCIe link: serialization at raw bandwidth over TLP wire bytes plus
/// propagation latency.
///
/// ```
/// use simcxl_pcie::{PcieLink, PcieLinkConfig};
/// use sim_core::Tick;
///
/// let config = PcieLinkConfig::gen5_x8();
/// let mut link = PcieLink::new(config);
/// let arrival = link.send(Tick::ZERO, 64);
/// assert!(arrival > config.latency); // plus serialization
/// ```
#[derive(Debug, Clone)]
pub struct PcieLink {
    config: PcieLinkConfig,
    inner: Link,
}

impl PcieLink {
    /// Creates an idle link.
    pub fn new(config: PcieLinkConfig) -> Self {
        let inner = Link::new(LinkConfig {
            latency: config.latency,
            bytes_per_sec: config.raw_bytes_per_sec(),
        });
        PcieLink { config, inner }
    }

    /// Sends a `bytes`-payload message; returns arrival at the far end.
    pub fn send(&mut self, now: Tick, bytes: u64) -> Tick {
        self.inner.send(now, self.config.wire_bytes(bytes))
    }

    /// Sends a `bytes`-payload message that is nak'd and replayed
    /// `retries` times before it gets through; returns arrival at the
    /// far end. Each failed attempt occupies the channel for its full
    /// serialization (the wire bytes really crossed — the CRC check
    /// failed at the receiver) and the sender backs off exponentially
    /// (`backoff`, `2·backoff`, `4·backoff`, …) before re-arming, so a
    /// degraded link both inflates latency and burns bandwidth.
    pub fn send_with_retries(
        &mut self,
        now: Tick,
        bytes: u64,
        retries: u32,
        backoff: Tick,
    ) -> Tick {
        let mut at = now;
        for attempt in 0..retries {
            // The failed attempt serializes fully; its "arrival" is when
            // the nak comes back and the replay may start.
            at = self.inner.send(at, self.config.wire_bytes(bytes));
            at += backoff * (1u64 << attempt.min(31));
        }
        self.inner.send(at, self.config.wire_bytes(bytes))
    }

    /// Resets occupancy and counters.
    pub(crate) fn reset(&mut self) {
        self.inner.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen5_x16_raw_bandwidth() {
        let c = PcieLinkConfig::gen5_x16();
        let bw = c.raw_bytes_per_sec() / 1e9;
        assert!((bw - 63.0).abs() < 1.0, "unexpected raw bw {bw}");
    }

    #[test]
    fn tlp_segmentation() {
        let c = PcieLinkConfig::gen5_x16();
        assert_eq!(c.tlp_count(64), 1);
        assert_eq!(c.tlp_count(512), 1);
        assert_eq!(c.tlp_count(513), 2);
        assert_eq!(c.tlp_count(4096), 8);
        assert_eq!(c.wire_bytes(64), 124);
        assert_eq!(c.wire_bytes(1024), 1024 + 120);
    }

    #[test]
    fn send_includes_latency_and_serialization() {
        let mut l = PcieLink::new(PcieLinkConfig::gen5_x16());
        let a1 = l.send(Tick::ZERO, 4096);
        let a2 = l.send(Tick::ZERO, 4096);
        assert!(a2 > a1);
        assert!(a1 > l.config.latency);
    }

    #[test]
    fn retries_inflate_latency_and_wire_bytes() {
        let clean = {
            let mut l = PcieLink::new(PcieLinkConfig::gen5_x16());
            (l.send(Tick::ZERO, 4096), l.inner.bytes_sent())
        };
        let mut l = PcieLink::new(PcieLinkConfig::gen5_x16());
        let a = l.send_with_retries(Tick::ZERO, 4096, 2, Tick::from_ns(100));
        // Three serializations + 100ns + 200ns of backoff.
        assert!(a >= clean.0 + Tick::from_ns(300));
        assert_eq!(l.inner.bytes_sent(), 3 * clean.1);
        // Zero retries degenerates to a plain send.
        let mut l2 = PcieLink::new(PcieLinkConfig::gen5_x16());
        assert_eq!(
            l2.send_with_retries(Tick::ZERO, 4096, 0, Tick::from_ns(100)),
            clean.0
        );
    }

    #[test]
    fn fewer_lanes_slower() {
        let mut x16 = PcieLink::new(PcieLinkConfig::gen5_x16());
        let mut x8 = PcieLink::new(PcieLinkConfig::gen5_x8());
        let a16 = x16.send(Tick::ZERO, 1 << 20);
        let a8 = x8.send(Tick::ZERO, 1 << 20);
        assert!(a8 > a16);
    }
}

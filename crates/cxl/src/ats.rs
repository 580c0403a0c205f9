//! Address translation service: device-side ATC plus host IOMMU costs.
//!
//! Paper §III-C1: "When an XPU thread accesses a virtual address, it
//! first looks up the mapping in its device-side address translation
//! cache (ATC), analogous to the host TLB. Upon an ATC miss, the request
//! is forwarded to the CPU-side IOMMU, which performs a page-table walk
//! to resolve the physical address."

use sim_core::Tick;
use std::collections::HashMap;

/// Configuration of a device [`Atc`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AtcConfig {
    /// Number of cached translations.
    pub entries: usize,
    /// Page size translations cover.
    pub page_size: u64,
    /// Hit lookup latency.
    pub hit_latency: Tick,
}

impl Default for AtcConfig {
    fn default() -> Self {
        AtcConfig {
            entries: 64,
            page_size: 4096,
            hit_latency: Tick::from_ns(2),
        }
    }
}

/// Host IOMMU walk costs paid on ATC misses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IommuConfig {
    /// Device-to-IOMMU request round trip over the link.
    pub link_round_trip: Tick,
    /// Page-table walk cost (4-level walk; prior CCIX studies report
    /// substantial miss penalties, paper §VIII).
    pub walk_latency: Tick,
}

impl Default for IommuConfig {
    fn default() -> Self {
        IommuConfig {
            link_round_trip: Tick::from_ns(400),
            walk_latency: Tick::from_ns(260),
        }
    }
}

/// Result of one device-side translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TranslationOutcome {
    /// Served by the ATC.
    Hit {
        /// Physical page base.
        ppn: u64,
    },
    /// Required an IOMMU walk (already installed in the ATC).
    Miss {
        /// Physical page base.
        ppn: u64,
    },
}

/// The device-side address translation cache.
///
/// Translations are resolved through a caller-supplied lookup (the OS
/// page table); the ATC only caches and accounts time.
#[derive(Debug)]
pub struct Atc {
    cfg: AtcConfig,
    iommu: IommuConfig,
    entries: HashMap<u64, u64>,
    order: Vec<u64>,
    hits: u64,
    misses: u64,
}

impl Atc {
    /// Creates an empty ATC.
    pub fn new(cfg: AtcConfig, iommu: IommuConfig) -> Self {
        Atc {
            cfg,
            iommu,
            entries: HashMap::new(),
            order: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    fn vpn(&self, va: u64) -> u64 {
        va / self.cfg.page_size
    }

    /// Translates `va`, resolving misses through `walk` (which maps a
    /// virtual page number to a physical page base). Returns the outcome
    /// and the time translation finished.
    pub fn translate(
        &mut self,
        now: Tick,
        va: u64,
        walk: impl FnOnce(u64) -> u64,
    ) -> (TranslationOutcome, Tick) {
        let vpn = self.vpn(va);
        if let Some(&ppn) = self.entries.get(&vpn) {
            self.hits += 1;
            // Refresh LRU position.
            if let Some(pos) = self.order.iter().position(|&v| v == vpn) {
                self.order.remove(pos);
            }
            self.order.push(vpn);
            return (TranslationOutcome::Hit { ppn }, now + self.cfg.hit_latency);
        }
        self.misses += 1;
        let ppn = walk(vpn);
        if self.entries.len() >= self.cfg.entries {
            let victim = self.order.remove(0);
            self.entries.remove(&victim);
        }
        self.entries.insert(vpn, ppn);
        self.order.push(vpn);
        let done =
            now + self.cfg.hit_latency + self.iommu.link_round_trip + self.iommu.walk_latency;
        (TranslationOutcome::Miss { ppn }, done)
    }

    /// Hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atc() -> Atc {
        Atc::new(
            AtcConfig {
                entries: 4,
                ..AtcConfig::default()
            },
            IommuConfig::default(),
        )
    }

    #[test]
    fn miss_then_hit() {
        let mut a = atc();
        let (o1, t1) = a.translate(Tick::ZERO, 0x1234, |vpn| vpn * 4096 + (1 << 30));
        assert!(matches!(o1, TranslationOutcome::Miss { ppn } if ppn == 4096 + (1 << 30)));
        let (o2, t2) = a.translate(t1, 0x1567, |_| unreachable!("should hit"));
        assert!(matches!(o2, TranslationOutcome::Hit { .. }));
        assert!(t2 - t1 < t1, "hit should be much cheaper than miss");
        assert_eq!(a.hits(), 1);
        assert_eq!(a.misses(), 1);
    }

    #[test]
    fn capacity_evicts_lru() {
        let mut a = atc();
        for page in 0..4u64 {
            a.translate(Tick::ZERO, page * 4096, |v| v);
        }
        // Touch page 0 so page 1 is LRU.
        a.translate(Tick::ZERO, 0, |_| unreachable!());
        a.translate(Tick::ZERO, 4 * 4096, |v| v); // evicts page 1
        assert_eq!(a.entries.len(), 4);
        let (o, _) = a.translate(Tick::ZERO, 4096, |v| v); // page 1 misses
        assert!(matches!(o, TranslationOutcome::Miss { .. }));
        let (o, _) = a.translate(Tick::ZERO, 0, |_| unreachable!());
        assert!(matches!(o, TranslationOutcome::Hit { .. }));
    }
}

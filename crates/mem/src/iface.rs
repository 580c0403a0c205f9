//! The unified memory interface: SimCXL's address-range router.
//!
//! Paper §IV-B3: "We developed a dedicated memory interface module for
//! organizing the unified memory ... This module routes memory access
//! requests from the shared LLC to either the host memory or the device
//! memory based on address ranges configured by the BIOS."

use crate::addr::{AddrRange, PhysAddr};
use crate::dram::DramModel;
use sim_core::Tick;
use std::fmt;

/// Identifies one memory behind the [`MemoryInterface`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MemoryId(pub usize);

impl fmt::Display for MemoryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mem{}", self.0)
    }
}

struct Region {
    range: AddrRange,
    model: DramModel,
    /// Extra fixed latency in front of the device (e.g. a CXL link for
    /// device-attached memory exposed through CXL.mem).
    front_latency: Tick,
}

/// Routes physical accesses to the memory claiming the address range and
/// accounts timing through that memory's DRAM model.
///
/// ```
/// use simcxl_mem::{AddrRange, DramConfig, DramKind, MemoryInterface, PhysAddr};
/// use sim_core::Tick;
///
/// let mut mi = MemoryInterface::new();
/// mi.add_memory(
///     AddrRange::new(PhysAddr::new(0), 1 << 30),
///     DramConfig::preset(DramKind::Ddr5_4400),
///     Tick::ZERO,
/// );
/// let done = mi.read(Tick::ZERO, PhysAddr::new(0x1000), 64).unwrap();
/// assert!(done > Tick::ZERO);
/// // No memory claims the address: a bus error.
/// assert_eq!(mi.read(Tick::ZERO, PhysAddr::new(1 << 31), 64), None);
/// ```
pub struct MemoryInterface {
    regions: Vec<Region>,
}

impl MemoryInterface {
    /// Creates an interface with no memories attached.
    pub fn new() -> Self {
        MemoryInterface {
            regions: Vec::new(),
        }
    }

    /// Attaches a memory claiming `range`, with `front_latency` added to
    /// every access (zero for host-local DRAM; the CXL/PCIe hop for
    /// device-attached memory).
    ///
    /// # Panics
    ///
    /// Panics if `range` overlaps a previously attached memory.
    pub fn add_memory(
        &mut self,
        range: AddrRange,
        config: crate::DramConfig,
        front_latency: Tick,
    ) -> MemoryId {
        for r in &self.regions {
            assert!(
                !r.range.overlaps(range),
                "range {range} overlaps existing {}",
                r.range
            );
        }
        self.regions.push(Region {
            range,
            model: DramModel::new(config),
            front_latency,
        });
        MemoryId(self.regions.len() - 1)
    }

    /// Which memory services `addr`, if any.
    pub(crate) fn route(&self, addr: PhysAddr) -> Option<MemoryId> {
        self.regions
            .iter()
            .position(|r| r.range.contains(addr))
            .map(MemoryId)
    }

    /// Reads `bytes` at `addr`; returns completion time, or `None` if no
    /// memory claims the address (a bus error in a real system).
    pub fn read(&mut self, now: Tick, addr: PhysAddr, bytes: u64) -> Option<Tick> {
        let idx = self.route(addr)?.0;
        let r = &mut self.regions[idx];
        Some(r.model.read(now + r.front_latency, addr, bytes) + r.front_latency)
    }

    /// Writes `bytes` at `addr`; returns completion time, or `None` if no
    /// memory claims the address.
    pub fn write(&mut self, now: Tick, addr: PhysAddr, bytes: u64) -> Option<Tick> {
        let idx = self.route(addr)?.0;
        let r = &mut self.regions[idx];
        Some(r.model.write(now + r.front_latency, addr, bytes) + r.front_latency)
    }

    /// Access the DRAM model behind `id` (for statistics).
    pub fn memory(&self, id: MemoryId) -> &DramModel {
        &self.regions[id.0].model
    }

    /// Resets all attached memories to idle.
    pub fn reset(&mut self) {
        for r in &mut self.regions {
            r.model.reset();
        }
    }
}

impl Default for MemoryInterface {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for MemoryInterface {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemoryInterface")
            .field(
                "regions",
                &self
                    .regions
                    .iter()
                    .map(|r| (r.range, r.front_latency))
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DramConfig, DramKind};

    fn iface() -> (MemoryInterface, MemoryId, MemoryId) {
        let mut mi = MemoryInterface::new();
        let host = mi.add_memory(
            AddrRange::new(PhysAddr::new(0), 1 << 30),
            DramConfig::preset(DramKind::Ddr5_4400),
            Tick::ZERO,
        );
        let dev = mi.add_memory(
            AddrRange::new(PhysAddr::new(1 << 30), 1 << 30),
            DramConfig::preset(DramKind::Ddr5_4400),
            Tick::from_ns(150),
        );
        (mi, host, dev)
    }

    #[test]
    fn routes_by_range() {
        let (mi, host, dev) = iface();
        assert_eq!(mi.route(PhysAddr::new(0)), Some(host));
        assert_eq!(mi.route(PhysAddr::new((1 << 30) + 5)), Some(dev));
        assert_eq!(mi.route(PhysAddr::new(1 << 31)), None);
    }

    #[test]
    fn device_memory_pays_front_latency() {
        let (mut mi, _, _) = iface();
        let host_done = mi.read(Tick::ZERO, PhysAddr::new(0x100), 64).unwrap();
        let dev_done = mi
            .read(Tick::ZERO, PhysAddr::new((1 << 30) + 0x100), 64)
            .unwrap();
        assert!(dev_done >= host_done + Tick::from_ns(300) - Tick::from_ns(1));
    }

    #[test]
    fn unclaimed_address_is_none() {
        let (mut mi, _, _) = iface();
        assert_eq!(mi.read(Tick::ZERO, PhysAddr::new(1 << 40), 64), None);
        assert_eq!(mi.write(Tick::ZERO, PhysAddr::new(1 << 40), 64), None);
    }

    #[test]
    #[should_panic]
    fn overlap_rejected() {
        let (mut mi, _, _) = iface();
        mi.add_memory(
            AddrRange::new(PhysAddr::new(0x1000), 0x1000),
            DramConfig::preset(DramKind::Ddr4_3200),
            Tick::ZERO,
        );
    }

    #[test]
    fn stats_visible_through_memory() {
        let (mut mi, host, _) = iface();
        mi.read(Tick::ZERO, PhysAddr::new(0), 64);
        mi.write(Tick::ZERO, PhysAddr::new(64), 64);
        assert_eq!(mi.memory(host).reads(), 1);
        mi.reset();
        assert_eq!(mi.memory(host).reads(), 0);
    }
}

//! The per-process OS view: `malloc`/`free`, demand paging with
//! first-touch placement, and unified CPU/XPU access.
//!
//! Paper §III-C2: "A malloc call allocates a page-table entry without
//! assigning a physical frame, allowing memory overcommitment. On an
//! XPU's first access to a given virtual address, an ATC miss triggers an
//! IOMMU translation request. The kernel then updates the page-table
//! entry to point to XPU physical memory."

use crate::hmm::{Hmm, HmmCost};
use crate::numa::{NodeId, NumaTopology};
use crate::page_table::{PageTable, Pte, PAGE_SIZE};
use crate::vma::{AddressSpace, Prot, VirtAddr};
use simcxl_mem::PhysAddr;
use std::collections::HashMap;
use std::fmt;

/// Who performed an access (determines first-touch placement).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Accessor {
    /// A CPU thread bound to a node.
    Cpu(NodeId),
    /// An XPU thread bound to a node.
    Xpu(NodeId),
}

impl Accessor {
    /// The NUMA node the accessor prefers.
    pub(crate) fn node(self) -> NodeId {
        match self {
            Accessor::Cpu(n) | Accessor::Xpu(n) => n,
        }
    }
}

/// Read or write access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Load.
    Read,
    /// Store.
    Write,
}

/// OS-level errors surfaced to the application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OsError {
    /// Access outside any VMA.
    Segfault(VirtAddr),
    /// Write to a read-only mapping.
    ProtectionViolation(VirtAddr),
    /// No frame available anywhere in the system.
    OutOfMemory,
    /// `free` of a pointer `malloc` never returned.
    InvalidFree(VirtAddr),
}

impl fmt::Display for OsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OsError::Segfault(va) => write!(f, "segmentation fault at {va}"),
            OsError::ProtectionViolation(va) => write!(f, "write to read-only page at {va}"),
            OsError::OutOfMemory => f.write_str("out of memory"),
            OsError::InvalidFree(va) => write!(f, "invalid free of {va}"),
        }
    }
}

impl std::error::Error for OsError {}

/// Outcome of a resolved access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resolved {
    /// Physical address after translation.
    pub pa: PhysAddr,
    /// Whether this access took a first-touch fault.
    pub faulted: bool,
    /// Node the backing frame lives on.
    pub node: NodeId,
}

/// Per-process fault statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcessStats {
    /// First-touch (demand-zero) faults.
    pub minor_faults: u64,
    /// Accesses resolved without a fault.
    pub resolved: u64,
}

/// A simulated process with a unified CPU/XPU address space.
///
/// ```
/// use cohet_os::{NumaTopology, Process, Accessor, AccessKind, NodeId};
/// use simcxl_mem::{AddrRange, PhysAddr};
///
/// let mut topo = NumaTopology::new(4096);
/// topo.add_node(AddrRange::new(PhysAddr::new(0), 1 << 20));
/// let mut p = Process::new(topo);
/// let buf = p.malloc(8192).unwrap();
/// let r = p.access(Accessor::Cpu(NodeId(0)), buf, AccessKind::Write).unwrap();
/// assert!(r.faulted); // first touch
/// let r2 = p.access(Accessor::Cpu(NodeId(0)), buf, AccessKind::Read).unwrap();
/// assert!(!r2.faulted);
/// ```
pub struct Process {
    aspace: AddressSpace,
    table: PageTable,
    topo: NumaTopology,
    hmm: Hmm,
    allocations: HashMap<u64, u64>,
    stats: ProcessStats,
}

impl Process {
    /// Creates a process over `topo` with default HMM costs.
    pub fn new(topo: NumaTopology) -> Self {
        Process {
            aspace: AddressSpace::new(PAGE_SIZE, VirtAddr::new(0x7f00_0000_0000)),
            table: PageTable::new(),
            topo,
            hmm: Hmm::new(HmmCost::default()),
            allocations: HashMap::new(),
            stats: ProcessStats::default(),
        }
    }

    /// The HMM notifier chain (device drivers register here).
    pub fn hmm_mut(&mut self) -> &mut Hmm {
        &mut self.hmm
    }

    /// The NUMA topology.
    #[cfg(test)]
    pub(crate) fn topology(&self) -> &NumaTopology {
        &self.topo
    }

    /// The unified page table, mutably (migration).
    pub(crate) fn parts_mut(&mut self) -> (&mut PageTable, &mut NumaTopology, &mut Hmm) {
        (&mut self.table, &mut self.topo, &mut self.hmm)
    }

    /// Statistics so far.
    pub fn stats(&self) -> ProcessStats {
        self.stats
    }

    /// `malloc`: reserves virtual space without physical frames
    /// (overcommit); frames appear on first touch.
    ///
    /// # Errors
    ///
    /// Never fails in this model (virtual space is plentiful); returns
    /// `Result` to keep the libc-like contract.
    pub fn malloc(&mut self, len: u64) -> Result<VirtAddr, OsError> {
        assert!(len > 0, "malloc(0)");
        let vma = self.aspace.mmap(len, Prot::ReadWrite);
        self.allocations.insert(vma.start.raw(), vma.len);
        Ok(vma.start)
    }

    /// `free`: unmaps the allocation and returns its frames.
    ///
    /// # Errors
    ///
    /// [`OsError::InvalidFree`] if `ptr` was not returned by
    /// [`malloc`](Self::malloc).
    pub fn free(&mut self, ptr: VirtAddr) -> Result<(), OsError> {
        let len = self
            .allocations
            .remove(&ptr.raw())
            .ok_or(OsError::InvalidFree(ptr))?;
        self.aspace.munmap(ptr);
        let mut va = ptr;
        while va < ptr + len {
            if let Some(pte) = self.table.unmap(va) {
                self.topo.node_mut(pte.node).free_frame(pte.frame);
            }
            va = va + PAGE_SIZE;
        }
        Ok(())
    }

    /// Resolves one access, faulting in a frame on first touch
    /// (first-touch placement on the accessor's node, falling back to
    /// other nodes when full).
    ///
    /// # Errors
    ///
    /// [`OsError::Segfault`] outside any VMA,
    /// [`OsError::ProtectionViolation`] for writes to read-only VMAs,
    /// [`OsError::OutOfMemory`] when no node has frames.
    pub fn access(
        &mut self,
        who: Accessor,
        va: VirtAddr,
        kind: AccessKind,
    ) -> Result<Resolved, OsError> {
        let vma = *self.aspace.find(va).ok_or(OsError::Segfault(va))?;
        if kind == AccessKind::Write && vma.prot == Prot::Read {
            return Err(OsError::ProtectionViolation(va));
        }
        if let Some(pte) = self.table.walk_mut(va) {
            pte.accesses += 1;
            self.stats.resolved += 1;
            return Ok(Resolved {
                pa: pte.frame + va.page_offset(PAGE_SIZE),
                faulted: false,
                node: pte.node,
            });
        }
        // First touch: allocate on the accessor's node.
        let (node, frame) = self
            .topo
            .alloc_frame(who.node())
            .ok_or(OsError::OutOfMemory)?;
        self.table.map(
            va.page(PAGE_SIZE),
            Pte {
                frame,
                writable: vma.prot == Prot::ReadWrite,
                node,
                accesses: 1,
            },
        );
        self.stats.minor_faults += 1;
        Ok(Resolved {
            pa: frame + va.page_offset(PAGE_SIZE),
            faulted: true,
            node,
        })
    }

    /// Translates without faulting (IOMMU walk on behalf of a device
    /// ATC miss). Returns `None` for unmapped pages.
    pub fn translate(&self, va: VirtAddr) -> Option<PhysAddr> {
        self.table.translate(va)
    }
}

impl fmt::Debug for Process {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Process")
            .field("vmas", &self.aspace.len())
            .field("mapped_pages", &self.table.mapped_pages())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcxl_mem::AddrRange;

    fn process() -> Process {
        let mut topo = NumaTopology::new(PAGE_SIZE);
        topo.add_node(AddrRange::new(PhysAddr::new(0), 1 << 20));
        topo.add_node(AddrRange::new(PhysAddr::new(1 << 30), 1 << 20));
        Process::new(topo)
    }

    #[test]
    fn malloc_is_lazy() {
        let mut p = process();
        let ptr = p.malloc(1 << 16).unwrap();
        assert_eq!(p.table.mapped_pages(), 0, "no frames before touch");
        assert_eq!(p.allocations.values().sum::<u64>(), 1 << 16);
        let r = p
            .access(Accessor::Cpu(NodeId(0)), ptr, AccessKind::Write)
            .unwrap();
        assert!(r.faulted);
        assert_eq!(p.table.mapped_pages(), 1, "only the touched page");
    }

    #[test]
    fn first_touch_places_on_accessor_node() {
        let mut p = process();
        let ptr = p.malloc(8192).unwrap();
        let cpu = p
            .access(Accessor::Cpu(NodeId(0)), ptr, AccessKind::Write)
            .unwrap();
        let xpu = p
            .access(Accessor::Xpu(NodeId(1)), ptr + 4096, AccessKind::Write)
            .unwrap();
        assert_eq!(cpu.node, NodeId(0));
        assert_eq!(xpu.node, NodeId(1));
    }

    #[test]
    fn overcommit_beyond_physical_memory() {
        let mut p = process();
        // Reserve 1 GB of virtual space against 2 MB of physical memory.
        let ptr = p.malloc(1 << 30).unwrap();
        assert_eq!(p.allocations.values().sum::<u64>(), 1 << 30);
        // Touch only a little of it: fine.
        for i in 0..16 {
            p.access(
                Accessor::Cpu(NodeId(0)),
                ptr + i * PAGE_SIZE,
                AccessKind::Write,
            )
            .unwrap();
        }
        assert_eq!(p.stats().minor_faults, 16);
    }

    #[test]
    fn oom_when_all_nodes_full() {
        let mut topo = NumaTopology::new(PAGE_SIZE);
        topo.add_node(AddrRange::new(PhysAddr::new(0), 8192));
        let mut p = Process::new(topo);
        let ptr = p.malloc(1 << 20).unwrap();
        p.access(Accessor::Cpu(NodeId(0)), ptr, AccessKind::Write)
            .unwrap();
        p.access(Accessor::Cpu(NodeId(0)), ptr + 4096, AccessKind::Write)
            .unwrap();
        let e = p
            .access(Accessor::Cpu(NodeId(0)), ptr + 8192, AccessKind::Write)
            .unwrap_err();
        assert_eq!(e, OsError::OutOfMemory);
    }

    #[test]
    fn segfault_and_protection() {
        let mut p = process();
        let e = p
            .access(
                Accessor::Cpu(NodeId(0)),
                VirtAddr::new(0x10),
                AccessKind::Read,
            )
            .unwrap_err();
        assert!(matches!(e, OsError::Segfault(_)));
        let ro = p.aspace.mmap(4096, Prot::Read).start;
        let e = p
            .access(Accessor::Cpu(NodeId(0)), ro, AccessKind::Write)
            .unwrap_err();
        assert!(matches!(e, OsError::ProtectionViolation(_)));
        // Reads are fine.
        assert!(p
            .access(Accessor::Cpu(NodeId(0)), ro, AccessKind::Read)
            .is_ok());
    }

    #[test]
    fn free_returns_frames() {
        let mut p = process();
        let ptr = p.malloc(8 * PAGE_SIZE).unwrap();
        for i in 0..8 {
            p.access(
                Accessor::Cpu(NodeId(0)),
                ptr + i * PAGE_SIZE,
                AccessKind::Write,
            )
            .unwrap();
        }
        let used = p.topology().node(NodeId(0)).frames_in_use();
        assert_eq!(used, 8);
        p.free(ptr).unwrap();
        assert_eq!(p.topology().node(NodeId(0)).frames_in_use(), 0);
        assert!(matches!(p.free(ptr), Err(OsError::InvalidFree(_))));
    }

    #[test]
    fn translate_matches_access() {
        let mut p = process();
        let ptr = p.malloc(4096).unwrap();
        assert_eq!(p.translate(ptr), None);
        let r = p
            .access(Accessor::Xpu(NodeId(1)), ptr + 40, AccessKind::Write)
            .unwrap();
        assert_eq!(p.translate(ptr + 40), Some(r.pa));
    }
}

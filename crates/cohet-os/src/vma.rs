//! Virtual addresses and VMA (virtual memory area) management.

use std::collections::BTreeMap;
use std::fmt;

/// A virtual address, distinct from [`simcxl_mem::PhysAddr`] at the type
/// level so translations cannot be skipped accidentally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtAddr(u64);

impl VirtAddr {
    /// Creates a virtual address.
    pub const fn new(raw: u64) -> Self {
        VirtAddr(raw)
    }

    /// Raw value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Rounds down to a `page_size` boundary.
    pub fn page(self, page_size: u64) -> VirtAddr {
        VirtAddr(self.0 & !(page_size - 1))
    }

    /// Byte offset within the page.
    pub(crate) fn page_offset(self, page_size: u64) -> u64 {
        self.0 & (page_size - 1)
    }
}

impl std::ops::Add<u64> for VirtAddr {
    type Output = VirtAddr;
    fn add(self, rhs: u64) -> VirtAddr {
        VirtAddr(self.0 + rhs)
    }
}

impl std::ops::Sub<VirtAddr> for VirtAddr {
    type Output = u64;
    fn sub(self, rhs: VirtAddr) -> u64 {
        self.0 - rhs.0
    }
}

impl fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// Access protections of a VMA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Prot {
    /// Read-only mapping.
    Read,
    /// Read-write mapping.
    ReadWrite,
}

/// One mapped region of the virtual address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vma {
    /// First byte of the region.
    pub start: VirtAddr,
    /// Region length in bytes (page-aligned).
    pub len: u64,
    /// Protections.
    pub prot: Prot,
}

impl Vma {
    /// Whether `va` falls inside the region.
    pub(crate) fn contains(&self, va: VirtAddr) -> bool {
        va >= self.start && va.raw() < self.start.raw() + self.len
    }
}

/// A process's virtual address-space layout: a set of non-overlapping
/// VMAs plus a simple top-down `mmap` allocator.
#[derive(Debug)]
pub(crate) struct AddressSpace {
    vmas: BTreeMap<u64, Vma>,
    page_size: u64,
    next_mmap: u64,
}

impl AddressSpace {
    /// Creates an empty layout whose anonymous mappings grow upward from
    /// `mmap_base`.
    pub(crate) fn new(page_size: u64, mmap_base: VirtAddr) -> Self {
        assert!(page_size.is_power_of_two());
        AddressSpace {
            vmas: BTreeMap::new(),
            page_size,
            next_mmap: mmap_base.raw(),
        }
    }

    /// Maps `len` bytes (rounded up to pages) at an OS-chosen address.
    pub(crate) fn mmap(&mut self, len: u64, prot: Prot) -> Vma {
        assert!(len > 0, "empty mapping");
        let len = len.div_ceil(self.page_size) * self.page_size;
        let start = VirtAddr::new(self.next_mmap);
        self.next_mmap += len;
        let vma = Vma { start, len, prot };
        self.vmas.insert(start.raw(), vma);
        vma
    }

    /// Unmaps the VMA starting exactly at `start`; returns it.
    pub(crate) fn munmap(&mut self, start: VirtAddr) -> Option<Vma> {
        self.vmas.remove(&start.raw())
    }

    /// Finds the VMA containing `va`.
    pub(crate) fn find(&self, va: VirtAddr) -> Option<&Vma> {
        self.vmas
            .range(..=va.raw())
            .next_back()
            .map(|(_, v)| v)
            .filter(|v| v.contains(va))
    }

    /// Number of live VMAs.
    pub(crate) fn len(&self) -> usize {
        self.vmas.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aspace() -> AddressSpace {
        AddressSpace::new(4096, VirtAddr::new(0x7f00_0000_0000))
    }

    #[test]
    fn mmap_rounds_to_pages() {
        let mut a = aspace();
        let v = a.mmap(100, Prot::ReadWrite);
        assert_eq!(v.len, 4096);
        let w = a.mmap(4097, Prot::Read);
        assert_eq!(w.len, 8192);
        assert_eq!(w.start, v.start + v.len);
    }

    #[test]
    fn find_locates_containing_vma() {
        let mut a = aspace();
        let v = a.mmap(8192, Prot::ReadWrite);
        assert_eq!(a.find(v.start + 5000), Some(&v));
        assert_eq!(a.find(v.start + 8192), None);
        assert_eq!(a.find(VirtAddr::new(0)), None);
    }

    #[test]
    fn munmap_removes() {
        let mut a = aspace();
        let v = a.mmap(4096, Prot::ReadWrite);
        assert_eq!(a.munmap(v.start), Some(v));
        assert!(a.find(v.start).is_none());
        assert!(a.vmas.is_empty());
    }

    #[test]
    fn mappings_do_not_overlap() {
        let mut a = aspace();
        let regions: Vec<Vma> = (0..16).map(|_| a.mmap(12_288, Prot::ReadWrite)).collect();
        for (i, r) in regions.iter().enumerate() {
            for s in &regions[i + 1..] {
                assert!(r.start + r.len <= s.start || s.start + s.len <= r.start);
            }
        }
        assert_eq!(a.len(), 16);
    }

    #[test]
    fn virt_addr_page_math() {
        let va = VirtAddr::new(0x12345);
        assert_eq!(va.page(4096), VirtAddr::new(0x12000));
        assert_eq!(va.page_offset(4096), 0x345);
    }
}

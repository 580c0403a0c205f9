//! A 4-level x86-style radix page table shared by CPU and XPU threads.
//!
//! Paper §III-C1: "the address translation service (ATS) lets CPUs and
//! XPUs share a single per-process page table". The table is a real
//! 4-level radix tree (9 bits per level, 4 KiB pages) so walk costs and
//! intermediate-node allocation are faithful.

use crate::numa::NodeId;
use crate::vma::VirtAddr;
use simcxl_mem::PhysAddr;

/// Base page size.
pub const PAGE_SIZE: u64 = 4096;
const LEVELS: usize = 4;
const FANOUT: usize = 512;

/// A leaf page-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pte {
    /// Physical frame base.
    pub frame: PhysAddr,
    /// Whether writes are permitted.
    pub writable: bool,
    /// NUMA node owning the frame.
    pub node: NodeId,
    /// Soft access counter (drives the adaptive migration policy).
    pub accesses: u64,
}

#[derive(Debug)]
enum Node {
    Interior(Box<[Option<Node>; FANOUT]>),
    Leaf(Pte),
}

fn empty_interior() -> Node {
    Node::Interior(Box::new([const { None }; FANOUT]))
}

/// The unified per-process page table.
///
/// ```
/// use cohet_os::{PageTable, Pte, NodeId, VirtAddr, PAGE_SIZE};
/// use simcxl_mem::PhysAddr;
///
/// let mut pt = PageTable::new();
/// let va = VirtAddr::new(0x7000_0000_1000);
/// pt.map(va, Pte { frame: PhysAddr::new(0x8000), writable: true, node: NodeId(0), accesses: 0 });
/// let (pte, levels) = pt.walk(va + 123).unwrap();
/// assert_eq!(pte.frame, PhysAddr::new(0x8000));
/// assert_eq!(levels, 4);
/// ```
#[derive(Debug)]
pub struct PageTable {
    root: Node,
    mapped: u64,
}

fn indices(va: VirtAddr) -> [usize; LEVELS] {
    let vpn = va.raw() / PAGE_SIZE;
    [
        ((vpn >> 27) & 0x1ff) as usize,
        ((vpn >> 18) & 0x1ff) as usize,
        ((vpn >> 9) & 0x1ff) as usize,
        (vpn & 0x1ff) as usize,
    ]
}

impl PageTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        PageTable {
            root: empty_interior(),
            mapped: 0,
        }
    }

    /// Number of mapped pages.
    pub fn mapped_pages(&self) -> u64 {
        self.mapped
    }

    /// Installs (or replaces) the translation for the page containing
    /// `va`. Returns the previous entry, if any.
    pub fn map(&mut self, va: VirtAddr, pte: Pte) -> Option<Pte> {
        let idx = indices(va);
        let mut node = &mut self.root;
        for &i in idx.iter().take(LEVELS - 1) {
            let Node::Interior(slots) = node else {
                unreachable!("leaf above level 4")
            };
            node = slots[i].get_or_insert_with(empty_interior);
        }
        let Node::Interior(slots) = node else {
            unreachable!()
        };
        let slot = &mut slots[idx[LEVELS - 1]];
        let prev = match slot.take() {
            Some(Node::Leaf(p)) => Some(p),
            Some(other) => panic!("interior node at leaf level: {other:?}"),
            None => None,
        };
        *slot = Some(Node::Leaf(pte));
        if prev.is_none() {
            self.mapped += 1;
        }
        prev
    }

    /// Removes the translation for the page containing `va`.
    pub fn unmap(&mut self, va: VirtAddr) -> Option<Pte> {
        let idx = indices(va);
        let mut node = &mut self.root;
        for &i in idx.iter().take(LEVELS - 1) {
            let Node::Interior(slots) = node else {
                unreachable!()
            };
            node = slots[i].as_mut()?;
        }
        let Node::Interior(slots) = node else {
            unreachable!()
        };
        match slots[idx[LEVELS - 1]].take() {
            Some(Node::Leaf(p)) => {
                self.mapped -= 1;
                Some(p)
            }
            Some(other) => panic!("interior node at leaf level: {other:?}"),
            None => None,
        }
    }

    /// Walks the table for `va`; returns the entry and the number of
    /// levels touched (always 4 on success — the radix is not collapsed).
    pub fn walk(&self, va: VirtAddr) -> Option<(&Pte, usize)> {
        let idx = indices(va);
        let mut node = &self.root;
        let mut levels = 0;
        for &i in idx.iter().take(LEVELS - 1) {
            levels += 1;
            let Node::Interior(slots) = node else {
                unreachable!()
            };
            node = slots[i].as_ref()?;
        }
        levels += 1;
        let Node::Interior(slots) = node else {
            unreachable!()
        };
        match slots[idx[LEVELS - 1]].as_ref()? {
            Node::Leaf(p) => Some((p, levels)),
            other => panic!("interior node at leaf level: {other:?}"),
        }
    }

    /// Mutable walk (access counting, migration updates).
    pub(crate) fn walk_mut(&mut self, va: VirtAddr) -> Option<&mut Pte> {
        let idx = indices(va);
        let mut node = &mut self.root;
        for &i in idx.iter().take(LEVELS - 1) {
            let Node::Interior(slots) = node else {
                unreachable!()
            };
            node = slots[i].as_mut()?;
        }
        let Node::Interior(slots) = node else {
            unreachable!()
        };
        match slots[idx[LEVELS - 1]].as_mut()? {
            Node::Leaf(p) => Some(p),
            other => panic!("interior node at leaf level: {other:?}"),
        }
    }

    /// Translates an arbitrary virtual address to its physical address.
    pub(crate) fn translate(&self, va: VirtAddr) -> Option<PhysAddr> {
        let (pte, _) = self.walk(va)?;
        Some(pte.frame + va.page_offset(PAGE_SIZE))
    }
}

impl Default for PageTable {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pte(frame: u64) -> Pte {
        Pte {
            frame: PhysAddr::new(frame),
            writable: true,
            node: NodeId(0),
            accesses: 0,
        }
    }

    #[test]
    fn map_walk_unmap() {
        let mut pt = PageTable::new();
        let va = VirtAddr::new(0x5555_5555_5000);
        assert!(pt.walk(va).is_none());
        assert!(pt.map(va, pte(0x1000)).is_none());
        assert_eq!(pt.mapped_pages(), 1);
        let (p, levels) = pt.walk(va).unwrap();
        assert_eq!(p.frame, PhysAddr::new(0x1000));
        assert_eq!(levels, 4);
        assert_eq!(pt.unmap(va).unwrap().frame, PhysAddr::new(0x1000));
        assert!(pt.walk(va).is_none());
        assert_eq!(pt.mapped_pages(), 0);
    }

    #[test]
    fn translate_adds_offset() {
        let mut pt = PageTable::new();
        let va = VirtAddr::new(0x4000_0000);
        pt.map(va, pte(0x9000));
        assert_eq!(pt.translate(va + 0x123), Some(PhysAddr::new(0x9123)));
        assert_eq!(pt.translate(va + 0x1000), None); // next page unmapped
    }

    #[test]
    fn remap_returns_previous() {
        let mut pt = PageTable::new();
        let va = VirtAddr::new(0x1000);
        pt.map(va, pte(0xa000));
        let prev = pt.map(va, pte(0xb000)).unwrap();
        assert_eq!(prev.frame, PhysAddr::new(0xa000));
        assert_eq!(pt.mapped_pages(), 1);
    }

    #[test]
    fn distinct_pages_do_not_collide() {
        let mut pt = PageTable::new();
        // Addresses chosen to differ at every radix level.
        let vas = [
            0x0000_0000_0000u64,
            0x0000_0000_1000,
            0x0000_0020_0000,
            0x0000_4000_0000,
            0x0080_0000_0000,
        ];
        for (i, &raw) in vas.iter().enumerate() {
            pt.map(VirtAddr::new(raw), pte((i as u64 + 1) * 0x1000));
        }
        assert_eq!(pt.mapped_pages(), vas.len() as u64);
        for (i, &raw) in vas.iter().enumerate() {
            let (p, _) = pt.walk(VirtAddr::new(raw)).unwrap();
            assert_eq!(p.frame, PhysAddr::new((i as u64 + 1) * 0x1000));
        }
    }

    #[test]
    fn walk_mut_updates_counters() {
        let mut pt = PageTable::new();
        let va = VirtAddr::new(0x2000);
        pt.map(va, pte(0xc000));
        pt.walk_mut(va).unwrap().accesses += 5;
        assert_eq!(pt.walk(va).unwrap().0.accesses, 5);
    }
}

//! NUMA nodes and frame allocation.
//!
//! Paper §III-C2: "the Linux kernel recognizes CPUs and XPUs as separate
//! NUMA nodes" and the modified `numa_init` "initializes the host and
//! device memory as distinct NUMA nodes based on their types, and binds
//! them to the corresponding CPU or XPU"; CXL expanders appear as
//! CPU-less nodes. The topology records only each node's range: the
//! role of a node (host, XPU or expander memory) is known to whoever
//! registers it, and placement never consults it — a full preferred
//! node falls back to any node with free frames.

use simcxl_mem::{AddrRange, PhysAddr};
use std::fmt;

/// Identifies one NUMA node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// One NUMA node: a frame allocator over its range.
#[derive(Debug)]
pub struct NumaNode {
    id: NodeId,
    range: AddrRange,
    next_frame: u64,
    free_list: Vec<PhysAddr>,
    page_size: u64,
}

impl NumaNode {
    fn new(id: NodeId, range: AddrRange, page_size: u64) -> Self {
        assert_eq!(range.base().raw() % page_size, 0, "unaligned node base");
        NumaNode {
            id,
            range,
            next_frame: 0,
            free_list: Vec::new(),
            page_size,
        }
    }

    /// Allocates one frame; `None` when the node is full.
    pub(crate) fn alloc_frame(&mut self) -> Option<PhysAddr> {
        if let Some(f) = self.free_list.pop() {
            return Some(f);
        }
        let offset = self.next_frame * self.page_size;
        if offset + self.page_size > self.range.size() {
            return None;
        }
        self.next_frame += 1;
        Some(self.range.base() + offset)
    }

    /// Returns a frame to the node.
    ///
    /// # Panics
    ///
    /// Panics if the frame does not belong to this node.
    pub(crate) fn free_frame(&mut self, frame: PhysAddr) {
        assert!(self.range.contains(frame), "{frame} not in {}", self.id);
        self.free_list.push(frame);
    }

    /// Frames currently handed out.
    #[cfg(test)]
    pub(crate) fn frames_in_use(&self) -> u64 {
        self.next_frame - self.free_list.len() as u64
    }

    /// Total frames the node can hold.
    #[cfg(test)]
    pub(crate) fn capacity_frames(&self) -> u64 {
        self.range.size() / self.page_size
    }
}

/// The system's set of NUMA nodes.
#[derive(Debug)]
pub struct NumaTopology {
    nodes: Vec<NumaNode>,
    page_size: u64,
}

impl NumaTopology {
    /// Creates an empty topology with the given page size.
    pub fn new(page_size: u64) -> Self {
        assert!(page_size.is_power_of_two());
        NumaTopology {
            nodes: Vec::new(),
            page_size,
        }
    }

    /// Registers a node owning `range`; ranges must not overlap.
    pub fn add_node(&mut self, range: AddrRange) -> NodeId {
        for n in &self.nodes {
            assert!(!n.range.overlaps(range), "node ranges overlap");
        }
        let id = NodeId(self.nodes.len());
        self.nodes.push(NumaNode::new(id, range, self.page_size));
        id
    }

    /// The node owning a physical address.
    #[cfg(test)]
    pub(crate) fn node_of(&self, addr: PhysAddr) -> Option<NodeId> {
        self.nodes
            .iter()
            .find(|n| n.range.contains(addr))
            .map(|n| n.id)
    }

    /// Access a node.
    #[cfg(test)]
    pub(crate) fn node(&self, id: NodeId) -> &NumaNode {
        &self.nodes[id.0]
    }

    /// Access a node mutably.
    pub(crate) fn node_mut(&mut self, id: NodeId) -> &mut NumaNode {
        &mut self.nodes[id.0]
    }

    /// Allocates a frame on `preferred`, falling back to any node with
    /// free frames (the kernel's fallback zone list).
    pub(crate) fn alloc_frame(&mut self, preferred: NodeId) -> Option<(NodeId, PhysAddr)> {
        if let Some(f) = self.nodes[preferred.0].alloc_frame() {
            return Some((preferred, f));
        }
        for n in &mut self.nodes {
            if let Some(f) = n.alloc_frame() {
                return Some((n.id, f));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> NumaTopology {
        let mut t = NumaTopology::new(4096);
        t.add_node(AddrRange::new(PhysAddr::new(0), 1 << 20));
        t.add_node(AddrRange::new(PhysAddr::new(1 << 30), 1 << 20));
        t
    }

    #[test]
    fn frames_come_from_their_node() {
        let mut t = topo();
        let (n0, f0) = t.alloc_frame(NodeId(0)).unwrap();
        let (n1, f1) = t.alloc_frame(NodeId(1)).unwrap();
        assert_eq!(n0, NodeId(0));
        assert_eq!(n1, NodeId(1));
        assert_eq!(t.node_of(f0), Some(NodeId(0)));
        assert_eq!(t.node_of(f1), Some(NodeId(1)));
        assert_ne!(f0, f1);
    }

    #[test]
    fn free_list_reuses_frames() {
        let mut t = topo();
        let (_, f) = t.alloc_frame(NodeId(0)).unwrap();
        t.node_mut(NodeId(0)).free_frame(f);
        let (_, g) = t.alloc_frame(NodeId(0)).unwrap();
        assert_eq!(f, g);
        assert_eq!(t.node(NodeId(0)).frames_in_use(), 1);
    }

    #[test]
    fn exhaustion_falls_back() {
        let mut t = NumaTopology::new(4096);
        let a = t.add_node(AddrRange::new(PhysAddr::new(0), 8192));
        let _b = t.add_node(AddrRange::new(PhysAddr::new(1 << 20), 1 << 20));
        // Drain node a (2 frames), then further allocations spill.
        assert!(t.alloc_frame(a).is_some());
        assert!(t.alloc_frame(a).is_some());
        let (spill, _) = t.alloc_frame(a).unwrap();
        assert_ne!(spill, a);
    }

    #[test]
    fn capacity_accounting() {
        let t = topo();
        assert_eq!(t.node(NodeId(0)).capacity_frames(), 256);
        assert_eq!(t.node(NodeId(0)).frames_in_use(), 0);
        assert_eq!(t.nodes.len(), 2);
    }

    #[test]
    #[should_panic]
    fn foreign_frame_free_panics() {
        let mut t = topo();
        t.node_mut(NodeId(0)).free_frame(PhysAddr::new(1 << 30));
    }
}

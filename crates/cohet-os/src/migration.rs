//! Page migration between NUMA nodes, with an adaptive policy.
//!
//! The migration sequence follows paper §III-C2: HMM blocks device
//! translation, updates the PTE, invalidates device ATCs, and resumes.
//! The access-counting policy implements the "adaptive page migration"
//! the paper leaves as a performance optimization for future work.

use crate::numa::NodeId;
use crate::page_table::PAGE_SIZE;
use crate::process::{OsError, Process};
use crate::vma::VirtAddr;
use sim_core::fxhash::FxHashMap;
use sim_core::Tick;

/// Cost model for one page migration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationCost {
    /// Copy bandwidth between nodes in GB/s.
    pub copy_gbps: f64,
    /// Fixed kernel overhead per migration.
    pub overhead: Tick,
}

impl Default for MigrationCost {
    fn default() -> Self {
        MigrationCost {
            copy_gbps: 20.0,
            overhead: Tick::from_us(1),
        }
    }
}

/// Migrates the page containing `va` to `dst`; returns the total cost
/// (kernel overhead + HMM handshake + page copy).
///
/// # Errors
///
/// [`OsError::Segfault`] if the page is unmapped, [`OsError::OutOfMemory`]
/// if `dst` and all fallbacks are full.
pub fn migrate_page(
    p: &mut Process,
    va: VirtAddr,
    dst: NodeId,
    cost: MigrationCost,
) -> Result<Tick, OsError> {
    let va = va.page(PAGE_SIZE);
    let (table, topo, hmm) = p.parts_mut();
    let pte = *table
        .walk(va)
        .map(|(p, _)| p)
        .ok_or(OsError::Segfault(va))?;
    if pte.node == dst {
        return Ok(Tick::ZERO);
    }
    let (new_node, new_frame) = topo.alloc_frame(dst).ok_or(OsError::OutOfMemory)?;
    let old_frame = pte.frame;
    let old_node = pte.node;
    let handshake = hmm.update_page(va, || {
        let e = table.walk_mut(va).expect("checked above");
        e.frame = new_frame;
        e.node = new_node;
        e.accesses = 0;
    });
    topo.node_mut(old_node).free_frame(old_frame);
    let copy = Tick::from_ps((PAGE_SIZE as f64 / (cost.copy_gbps * 1e9) * 1e12) as u64);
    Ok(cost.overhead + handshake + copy)
}

/// An access-counting adaptive migration policy: when a remote node's
/// recent access count on a page exceeds `threshold` times the count from
/// the page's home node, recommend migrating there.
#[derive(Debug)]
pub struct AdaptivePolicy {
    counts: FxHashMap<(u64, NodeId), u64>,
    threshold: u64,
}

impl AdaptivePolicy {
    /// Creates a policy with the given dominance threshold (≥ 1).
    pub fn new(threshold: u64) -> Self {
        assert!(threshold >= 1);
        AdaptivePolicy {
            counts: FxHashMap::default(),
            threshold,
        }
    }

    /// Records one access to the page containing `va` from `node`.
    pub fn record(&mut self, va: VirtAddr, node: NodeId) {
        let key = (va.page(PAGE_SIZE).raw(), node);
        *self.counts.entry(key).or_insert(0) += 1;
    }

    /// Whether the page should move from `home`; returns the dominant
    /// remote node if so. Remote nodes with equal counts tie-break to
    /// the lowest [`NodeId`], so the answer never depends on the map's
    /// iteration order.
    pub fn recommend(&self, va: VirtAddr, home: NodeId) -> Option<NodeId> {
        let page = va.page(PAGE_SIZE).raw();
        let home_count = self.counts.get(&(page, home)).copied().unwrap_or(0);
        let mut best: Option<(NodeId, u64)> = None;
        for (&(p, node), &count) in &self.counts {
            if p != page || node == home {
                continue;
            }
            if best.is_none_or(|(n, c)| count > c || (count == c && node < n)) {
                best = Some((node, count));
            }
        }
        let (node, count) = best?;
        (count > home_count.saturating_mul(self.threshold)).then_some(node)
    }

    /// Clears counters for the page containing `va` (after migrating).
    pub fn reset_page(&mut self, va: VirtAddr) {
        let page = va.page(PAGE_SIZE).raw();
        self.counts.retain(|&(p, _), _| p != page);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numa::NumaTopology;
    use crate::process::{AccessKind, Accessor};
    use simcxl_mem::{AddrRange, PhysAddr};

    fn process() -> Process {
        let mut topo = NumaTopology::new(PAGE_SIZE);
        topo.add_node(AddrRange::new(PhysAddr::new(0), 1 << 20));
        topo.add_node(AddrRange::new(PhysAddr::new(1 << 30), 1 << 20));
        Process::new(topo)
    }

    #[test]
    fn migrate_moves_frame_and_preserves_translation() {
        let mut p = process();
        let ptr = p.malloc(4096).unwrap();
        let before = p
            .access(Accessor::Cpu(NodeId(0)), ptr, AccessKind::Write)
            .unwrap();
        assert_eq!(before.node, NodeId(0));
        let cost = migrate_page(&mut p, ptr, NodeId(1), MigrationCost::default()).unwrap();
        assert!(cost > Tick::from_us(1));
        let after = p
            .access(Accessor::Cpu(NodeId(0)), ptr, AccessKind::Read)
            .unwrap();
        assert!(!after.faulted, "migration must not re-fault");
        assert_eq!(after.node, NodeId(1));
        assert_eq!(p.topology().node(NodeId(0)).frames_in_use(), 0);
        assert_eq!(p.topology().node(NodeId(1)).frames_in_use(), 1);
    }

    #[test]
    fn migrate_to_same_node_is_free() {
        let mut p = process();
        let ptr = p.malloc(4096).unwrap();
        p.access(Accessor::Cpu(NodeId(0)), ptr, AccessKind::Write)
            .unwrap();
        let cost = migrate_page(&mut p, ptr, NodeId(0), MigrationCost::default()).unwrap();
        assert_eq!(cost, Tick::ZERO);
    }

    #[test]
    fn migrate_unmapped_page_fails() {
        let mut p = process();
        let ptr = p.malloc(4096).unwrap();
        let e = migrate_page(&mut p, ptr, NodeId(1), MigrationCost::default()).unwrap_err();
        assert!(matches!(e, OsError::Segfault(_)));
    }

    #[test]
    fn migration_triggers_atc_invalidation() {
        let mut p = process();
        let ptr = p.malloc(4096).unwrap();
        p.access(Accessor::Xpu(NodeId(1)), ptr, AccessKind::Write)
            .unwrap();
        struct Probe;
        impl crate::hmm::MmNotifier for Probe {
            fn name(&self) -> &str {
                "probe"
            }
            fn invalidate_page(&mut self, _va: VirtAddr) {}
        }
        p.hmm_mut().register(Box::new(Probe));
        migrate_page(&mut p, ptr, NodeId(0), MigrationCost::default()).unwrap();
        let (_, _, hmm) = p.parts_mut();
        assert_eq!(hmm.invalidations(), 1);
    }

    #[test]
    fn policy_recommends_dominant_remote() {
        let mut pol = AdaptivePolicy::new(2);
        let va = VirtAddr::new(0x4000);
        pol.record(va, NodeId(0));
        for _ in 0..3 {
            pol.record(va + 100, NodeId(1));
        }
        assert_eq!(pol.recommend(va, NodeId(0)), Some(NodeId(1)));
        // Not dominant enough for a different page.
        assert_eq!(pol.recommend(VirtAddr::new(0x8000), NodeId(0)), None);
        pol.reset_page(va);
        assert_eq!(pol.recommend(va, NodeId(0)), None);
    }

    #[test]
    fn policy_breaks_ties_by_lowest_node() {
        // Two remote nodes tie; several pairs, recorded in both orders,
        // so a scan that keeps whichever node the map yields first
        // would pick the higher id in at least one of them.
        for (a, b) in [(1, 2), (2, 1), (3, 9), (9, 3), (5, 4), (7, 8)] {
            let mut pol = AdaptivePolicy::new(2);
            let va = VirtAddr::new(0x4000);
            pol.record(va, NodeId(0));
            for node in [a, b] {
                for _ in 0..3 {
                    pol.record(va, NodeId(node));
                }
            }
            assert_eq!(
                pol.recommend(va, NodeId(0)),
                Some(NodeId(a.min(b))),
                "tie between nodes {a} and {b}"
            );
        }
    }

    #[test]
    fn policy_respects_threshold() {
        let mut pol = AdaptivePolicy::new(4);
        let va = VirtAddr::new(0x4000);
        pol.record(va, NodeId(0));
        for _ in 0..4 {
            pol.record(va, NodeId(1));
        }
        assert_eq!(pol.recommend(va, NodeId(0)), None, "4 !> 1*4");
        pol.record(va, NodeId(1));
        assert_eq!(pol.recommend(va, NodeId(0)), Some(NodeId(1)));
    }
}

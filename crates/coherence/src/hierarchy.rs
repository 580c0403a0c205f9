//! Hierarchical coherence sketch for multi-node supernodes.
//!
//! Paper §VIII (future work): "To mitigate coherence-traffic storms, we
//! plan to explore a hierarchical coherence protocol for small-scale
//! supernodes. Each child node interacts with a local agent for coherence
//! transactions; the local agent consults a global agent only if it lacks
//! the requested replica."
//!
//! This module implements that two-level scheme as a standalone model so
//! the figures suite's `hierarchy` section can quantify how much global
//! traffic the local agents absorb as the supernode scales.

use sim_core::Tick;
use sim_core::{FxHashMap, FxHashSet};
use simcxl_mem::PhysAddr;

/// Identifies a child node inside a supernode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Per-level access costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierarchyCost {
    /// Child-node to local-agent round trip.
    pub local: Tick,
    /// Local-agent to global-agent round trip (paid only on local miss).
    pub global: Tick,
}

impl Default for HierarchyCost {
    fn default() -> Self {
        HierarchyCost {
            local: Tick::from_ns(150),
            global: Tick::from_ns(600),
        }
    }
}

/// Traffic counters for the hierarchy model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// Transactions satisfied by the local agent.
    pub local_hits: u64,
    /// Transactions escalated to the global agent.
    pub global_consults: u64,
    /// Cross-node invalidations issued by the global agent.
    pub invalidations: u64,
}

#[derive(Debug, Default, Clone)]
struct GlobalEntry {
    /// Local agents holding a replica.
    replicas: FxHashSet<NodeId>,
    /// Local agent holding the line exclusively, if any.
    owner: Option<NodeId>,
}

/// A two-level (local agent / global agent) coherence model.
///
/// Functional ownership is tracked exactly; timing is the simple two-hop
/// cost model of [`HierarchyCost`]. Use [`flat_cost`](Self::flat_cost) to
/// compare against a single-level directory over the same trace.
#[derive(Debug)]
pub struct HierarchicalDirectory {
    cost: HierarchyCost,
    /// Per-node local replica sets.
    local: Vec<FxHashSet<u64>>,
    global: FxHashMap<u64, GlobalEntry>,
    stats: HierarchyStats,
}

impl HierarchicalDirectory {
    /// Creates a supernode with `nodes` children and one global agent.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(nodes: usize, cost: HierarchyCost) -> Self {
        assert!(nodes > 0, "supernode needs at least one child");
        HierarchicalDirectory {
            cost,
            local: vec![FxHashSet::default(); nodes],
            global: FxHashMap::default(),
            stats: HierarchyStats::default(),
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> HierarchyStats {
        self.stats
    }

    /// A read by `node`; returns the added latency.
    pub fn read(&mut self, node: NodeId, addr: PhysAddr) -> Tick {
        let key = addr.line().raw();
        if self.local[node.0].contains(&key) {
            let entry = self.global.entry(key).or_default();
            if entry.owner.is_none() || entry.owner == Some(node) {
                self.stats.local_hits += 1;
                return self.cost.local;
            }
        }
        // Local miss (or a remote owner exists): consult the global agent.
        self.stats.global_consults += 1;
        let entry = self.global.entry(key).or_default();
        if let Some(owner) = entry.owner.take() {
            if owner != node {
                // Owner downgrades to a replica.
                entry.replicas.insert(owner);
            }
        }
        entry.replicas.insert(node);
        self.local[node.0].insert(key);
        self.cost.local + self.cost.global
    }

    /// A write by `node`; returns the added latency.
    pub fn write(&mut self, node: NodeId, addr: PhysAddr) -> Tick {
        let key = addr.line().raw();
        let entry = self.global.entry(key).or_default();
        if entry.owner == Some(node) {
            self.stats.local_hits += 1;
            return self.cost.local;
        }
        self.stats.global_consults += 1;
        // Invalidate all other replicas and owners.
        let others = entry.replicas.iter().filter(|&&n| n != node).count()
            + usize::from(entry.owner.is_some() && entry.owner != Some(node));
        self.stats.invalidations += others as u64;
        for n in entry.replicas.drain() {
            if n != node {
                self.local[n.0].remove(&key);
            }
        }
        if let Some(o) = entry.owner {
            if o != node {
                self.local[o.0].remove(&key);
            }
        }
        entry.owner = Some(node);
        self.local[node.0].insert(key);
        self.cost.local + self.cost.global
    }

    /// Cost the same access would pay in a flat (single global directory)
    /// design: every transaction crosses the global fabric.
    pub fn flat_cost(&self) -> Tick {
        self.cost.local + self.cost.global
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir() -> HierarchicalDirectory {
        HierarchicalDirectory::new(4, HierarchyCost::default())
    }

    #[test]
    fn repeated_reads_stay_local() {
        let mut d = dir();
        let a = PhysAddr::new(0x40);
        let first = d.read(NodeId(0), a);
        let second = d.read(NodeId(0), a);
        assert!(second < first);
        assert_eq!(d.stats().local_hits, 1);
        assert_eq!(d.stats().global_consults, 1);
    }

    #[test]
    fn writes_invalidate_replicas() {
        let mut d = dir();
        let a = PhysAddr::new(0x80);
        d.read(NodeId(0), a);
        d.read(NodeId(1), a);
        d.read(NodeId(2), a);
        d.write(NodeId(3), a);
        assert_eq!(d.stats().invalidations, 3);
        // Node 0 must re-consult.
        let lat = d.read(NodeId(0), a);
        assert_eq!(lat, d.flat_cost());
    }

    #[test]
    fn owner_writes_are_local() {
        let mut d = dir();
        let a = PhysAddr::new(0xc0);
        d.write(NodeId(1), a);
        let lat = d.write(NodeId(1), a);
        assert_eq!(lat, HierarchyCost::default().local);
    }

    #[test]
    fn read_after_remote_write_escalates() {
        let mut d = dir();
        let a = PhysAddr::new(0x100);
        d.write(NodeId(0), a);
        let lat = d.read(NodeId(1), a);
        assert_eq!(lat, d.flat_cost());
        // Both now share; subsequent reads local on both.
        assert_eq!(d.read(NodeId(0), a), HierarchyCost::default().local);
        assert_eq!(d.read(NodeId(1), a), HierarchyCost::default().local);
    }

    #[test]
    fn locality_reduces_global_traffic() {
        let mut d = dir();
        // Each node hammers its own line.
        for round in 0..100 {
            for n in 0..4 {
                let a = PhysAddr::new(0x1000 + n as u64 * 64);
                if round == 0 {
                    d.write(NodeId(n), a);
                } else {
                    d.read(NodeId(n), a);
                }
            }
        }
        let s = d.stats();
        assert!(s.local_hits > 90 * 4);
        assert_eq!(s.global_consults, 4);
    }
}

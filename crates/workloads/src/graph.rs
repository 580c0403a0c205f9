//! Graph traversal workloads (paper §VIII: "graph algorithms with
//! fine-grained random-access patterns offloaded to CXL accelerators can
//! benefit from the coherent CXL interconnect").

use sim_core::SimRng;
use simcxl_mem::PhysAddr;

/// A random graph in CSR (compressed sparse row) form.
#[derive(Debug, Clone)]
pub struct CsrGraph {
    offsets: Vec<u32>,
    edges: Vec<u32>,
}

impl CsrGraph {
    /// Generates a uniform random graph with `nodes` vertices and roughly
    /// `degree` out-edges each.
    pub fn random(nodes: u32, degree: u32, seed: u64) -> Self {
        assert!(nodes > 1, "need at least two nodes");
        let mut rng = SimRng::new(seed);
        let mut offsets = Vec::with_capacity(nodes as usize + 1);
        let mut edges = Vec::new();
        offsets.push(0);
        for _ in 0..nodes {
            for _ in 0..degree {
                edges.push(rng.below(nodes as u64) as u32);
            }
            offsets.push(edges.len() as u32);
        }
        CsrGraph { offsets, edges }
    }

    /// Vertex count.
    pub(crate) fn nodes(&self) -> u32 {
        self.offsets.len() as u32 - 1
    }

    /// Out-neighbours of `v`.
    pub(crate) fn neighbours(&self, v: u32) -> &[u32] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.edges[lo..hi]
    }

    /// BFS from `root`; returns the visit order.
    pub(crate) fn bfs(&self, root: u32) -> Vec<u32> {
        let mut seen = vec![false; self.nodes() as usize];
        let mut queue = std::collections::VecDeque::from([root]);
        let mut order = Vec::new();
        seen[root as usize] = true;
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for &n in self.neighbours(v) {
                if !seen[n as usize] {
                    seen[n as usize] = true;
                    queue.push_back(n);
                }
            }
        }
        order
    }

    /// The memory-access address stream a BFS issues against a flat
    /// vertex-data array at `base` (8 B per vertex): one read per visited
    /// vertex plus one read per scanned edge — the fine-grained irregular
    /// pattern the paper highlights.
    pub fn bfs_address_stream(&self, root: u32, base: PhysAddr) -> Vec<PhysAddr> {
        let mut stream = Vec::new();
        for v in self.bfs(root) {
            stream.push(base + v as u64 * 8);
            for &n in self.neighbours(v) {
                stream.push(base + n as u64 * 8);
            }
        }
        stream
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry() {
        let g = CsrGraph::random(100, 4, 9);
        assert_eq!(g.nodes(), 100);
        assert_eq!(g.edges.len(), 400);
        assert_eq!(g.neighbours(0).len(), 4);
    }

    #[test]
    fn bfs_visits_each_vertex_once() {
        let g = CsrGraph::random(200, 8, 10);
        let order = g.bfs(0);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), order.len(), "duplicate visits");
        // A degree-8 random graph on 200 nodes is almost surely connected.
        assert!(
            order.len() > 190,
            "unexpectedly disconnected: {}",
            order.len()
        );
    }

    #[test]
    fn address_stream_is_irregular() {
        let g = CsrGraph::random(512, 4, 11);
        let stream = g.bfs_address_stream(0, PhysAddr::new(0x1000));
        assert!(stream.len() > 512);
        // Measure sequentiality: consecutive addresses in the same line.
        let same_line = stream
            .windows(2)
            .filter(|w| w[0].line() == w[1].line())
            .count();
        let frac = same_line as f64 / stream.len() as f64;
        assert!(frac < 0.3, "stream too regular: {frac}");
    }

    #[test]
    fn deterministic() {
        let a = CsrGraph::random(64, 4, 3).bfs(0);
        let b = CsrGraph::random(64, 4, 3).bfs(0);
        assert_eq!(a, b);
    }
}

//! Intrusive per-line pending lists backed by one generation-tagged slab.
//!
//! Under dense same-line contention the home agent queues every request
//! that hits a busy line and replays the queue when the transaction
//! retires. The original representation — `FxHashMap<u64, VecDeque<..>>`
//! keyed by line — paid a hash probe per enqueue, another per replay
//! iteration, and a heap allocation per contended line. This module
//! replaces it with a single slab of singly-linked nodes shared by every
//! line of a home agent: a [`PendingList`] is three integers embedded
//! directly in the line's busy-transaction entry, enqueue/dequeue are
//! O(1) pointer swings, and freed nodes recycle through an intrusive
//! free list, so steady-state operation performs **zero** allocations
//! and **zero** hash probes no matter how deep the contention gets.
//!
//! Nodes are generation-tagged: every release increments the node's
//! generation, and a list remembers the generation of its head node.
//! A stale list (one that outlived its nodes, or was copied and drained
//! twice) trips a debug assertion instead of silently dequeuing another
//! line's requests. The tags are checked in debug builds (the
//! differential proptests run there); release builds carry only the
//! 4-byte cost.

/// Sentinel index marking "no node" (empty list / end of chain).
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Node<T> {
    item: T,
    next: u32,
    /// Bumped on every release; detects stale [`PendingList`] handles.
    gen: u32,
}

/// A FIFO queue of `T`s living inside a [`PendingSlab`].
///
/// This is a *handle*, not a container: it holds no storage and is
/// meaningless without the slab it was filled from. Embed it in the
/// per-line state (the home agent keeps one inside each busy-transaction
/// entry) and pass it back to the slab to push/pop.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingList {
    head: u32,
    tail: u32,
    len: u32,
    /// Generation of the head node at link time (stale-handle canary).
    head_gen: u32,
}

impl Default for PendingList {
    fn default() -> Self {
        PendingList {
            head: NIL,
            tail: NIL,
            len: 0,
            head_gen: 0,
        }
    }
}

impl PendingList {
    /// Queued element count.
    pub(crate) fn len(&self) -> u32 {
        self.len
    }

    /// Whether the list holds no elements.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The shared node arena: one per home agent (for every pending list of
/// every line it serializes) and one per cache agent (for every MSHR's
/// waiter list).
#[derive(Debug, Default)]
pub(crate) struct PendingSlab<T> {
    nodes: Vec<Node<T>>,
    /// Head of the intrusive free list (chained through `next`).
    free: u32,
    /// Live (enqueued, not yet popped) node count across all lists.
    live: u32,
}

impl<T: Copy> PendingSlab<T> {
    pub(crate) fn new() -> Self {
        PendingSlab {
            nodes: Vec::new(),
            free: NIL,
            live: 0,
        }
    }

    /// Nodes currently enqueued across every list of this slab.
    pub(crate) fn live(&self) -> u32 {
        self.live
    }

    fn alloc(&mut self, item: T) -> u32 {
        self.live += 1;
        if self.free != NIL {
            let idx = self.free;
            let node = &mut self.nodes[idx as usize];
            self.free = node.next;
            node.item = item;
            node.next = NIL;
            idx
        } else {
            assert!(self.nodes.len() < NIL as usize, "pending slab full");
            self.nodes.push(Node {
                item,
                next: NIL,
                gen: 0,
            });
            (self.nodes.len() - 1) as u32
        }
    }

    /// Appends `item` to the back of `list`. O(1), allocation-free once
    /// the slab has warmed up.
    pub(crate) fn push_back(&mut self, list: &mut PendingList, item: T) {
        let idx = self.alloc(item);
        if list.tail == NIL {
            list.head = idx;
            list.head_gen = self.nodes[idx as usize].gen;
        } else {
            self.nodes[list.tail as usize].next = idx;
        }
        list.tail = idx;
        list.len += 1;
    }

    /// Prepends `item` to the front of `list`. O(1), allocation-free
    /// once the slab has warmed up (a requeue right after a
    /// [`pop_front`](Self::pop_front) reuses the node just freed).
    pub(crate) fn push_front(&mut self, list: &mut PendingList, item: T) {
        let idx = self.alloc(item);
        let node = &mut self.nodes[idx as usize];
        node.next = list.head;
        list.head = idx;
        list.head_gen = node.gen;
        if list.tail == NIL {
            list.tail = idx;
        }
        list.len += 1;
    }

    /// The front of `list` without removing it, or `None` when empty.
    pub(crate) fn front(&self, list: &PendingList) -> Option<T> {
        if list.head == NIL {
            return None;
        }
        let node = &self.nodes[list.head as usize];
        debug_assert_eq!(
            node.gen, list.head_gen,
            "stale PendingList handle: head node was recycled"
        );
        Some(node.item)
    }

    /// Removes and returns the front of `list`, or `None` when empty.
    /// O(1); the node returns to the free list under a bumped
    /// generation.
    pub(crate) fn pop_front(&mut self, list: &mut PendingList) -> Option<T> {
        if list.head == NIL {
            return None;
        }
        let idx = list.head;
        let node = &mut self.nodes[idx as usize];
        debug_assert_eq!(
            node.gen, list.head_gen,
            "stale PendingList handle: head node was recycled"
        );
        let item = node.item;
        list.head = node.next;
        node.gen = node.gen.wrapping_add(1);
        node.next = self.free;
        self.free = idx;
        self.live -= 1;
        list.len -= 1;
        if list.head == NIL {
            list.tail = NIL;
            debug_assert_eq!(list.len, 0);
        } else {
            list.head_gen = self.nodes[list.head as usize].gen;
        }
        Some(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_single_list() {
        let mut slab = PendingSlab::new();
        let mut l = PendingList::default();
        for i in 0..10u32 {
            slab.push_back(&mut l, i);
        }
        assert_eq!(l.len(), 10);
        for i in 0..10u32 {
            assert_eq!(slab.front(&l), Some(i));
            assert_eq!(slab.pop_front(&mut l), Some(i));
        }
        assert_eq!(slab.front(&l), None);
        assert_eq!(slab.pop_front(&mut l), None);
        assert!(l.is_empty());
        assert_eq!(slab.live(), 0);
    }

    #[test]
    fn interleaved_lists_stay_disjoint() {
        let mut slab = PendingSlab::new();
        let mut a = PendingList::default();
        let mut b = PendingList::default();
        for i in 0..8u32 {
            slab.push_back(&mut a, i);
            slab.push_back(&mut b, 100 + i);
        }
        for i in 0..8u32 {
            assert_eq!(slab.pop_front(&mut b), Some(100 + i));
            assert_eq!(slab.pop_front(&mut a), Some(i));
        }
        assert_eq!(slab.live(), 0);
    }

    #[test]
    fn nodes_recycle_without_growing() {
        let mut slab = PendingSlab::new();
        let mut l = PendingList::default();
        for round in 0..100u32 {
            for i in 0..4u32 {
                slab.push_back(&mut l, round * 10 + i);
            }
            for i in 0..4u32 {
                assert_eq!(slab.pop_front(&mut l), Some(round * 10 + i));
            }
        }
        // Warmed after the first round: the arena never exceeds the peak
        // concurrent depth.
        assert_eq!(slab.nodes.len(), 4);
    }

    const LINES: usize = 5;

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Differential proptest: a randomized interleaving of enqueues
        /// and replays across a handful of lines — the same shape the
        /// home agent produces under dense same-line contention — must
        /// make the shared slab behave exactly like one independent
        /// `VecDeque` per line. Each step is (line, value, kind); kinds
        /// are biased toward pushes so queues actually get deep, the
        /// push-front kind mirrors a cache MSHR requeueing the op it
        /// just popped, and the drain-all kind mirrors the retire path
        /// replaying a whole queue.
        #[test]
        fn slab_matches_vecdeque_reference_under_contention(
            script in proptest::collection::vec(
                (0usize..LINES, proptest::arbitrary::any::<u32>(), 0u8..9),
                1..400,
            ),
        ) {
            use std::collections::VecDeque;
            let mut slab = PendingSlab::new();
            let mut lists = [PendingList::default(); LINES];
            let mut model: [VecDeque<u32>; LINES] = Default::default();
            for (line, value, kind) in script {
                match kind {
                    0..=4 => {
                        slab.push_back(&mut lists[line], value);
                        model[line].push_back(value);
                    }
                    8 => {
                        slab.push_front(&mut lists[line], value);
                        model[line].push_front(value);
                    }
                    5 | 6 => proptest::prop_assert_eq!(
                        slab.pop_front(&mut lists[line]),
                        model[line].pop_front()
                    ),
                    _ => loop {
                        let (got, want) =
                            (slab.pop_front(&mut lists[line]), model[line].pop_front());
                        proptest::prop_assert_eq!(got, want);
                        if got.is_none() {
                            break;
                        }
                    },
                }
                // Aggregate invariants hold at every step, not just at
                // the end.
                let total: u32 = model.iter().map(|q| q.len() as u32).sum();
                proptest::prop_assert_eq!(slab.live(), total);
                for (l, q) in lists.iter().zip(model.iter()) {
                    proptest::prop_assert_eq!(l.len(), q.len() as u32);
                    proptest::prop_assert_eq!(l.is_empty(), q.is_empty());
                }
            }
            // Final drain: residual FIFO contents match exactly.
            for (l, q) in lists.iter_mut().zip(model.iter_mut()) {
                while let Some(want) = q.pop_front() {
                    proptest::prop_assert_eq!(slab.pop_front(l), Some(want));
                }
                proptest::prop_assert_eq!(slab.pop_front(l), None);
            }
            proptest::prop_assert_eq!(slab.live(), 0);
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale PendingList handle")]
    fn stale_handle_is_detected() {
        let mut slab = PendingSlab::new();
        let mut l = PendingList::default();
        slab.push_back(&mut l, 1u32);
        let stale = l; // copy of the handle
        let mut live = l;
        assert_eq!(slab.pop_front(&mut live), Some(1));
        // Recycle the node under a new generation...
        let mut other = PendingList::default();
        slab.push_back(&mut other, 2u32);
        // ...then drain through the stale copy.
        let mut stale = stale;
        let _ = slab.pop_front(&mut stale);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale PendingList handle")]
    fn stale_handle_after_push_front_is_detected() {
        // A front push re-tags the list with the new head's generation,
        // so the canary must still catch a copy taken afterwards.
        let mut slab = PendingSlab::new();
        let mut live = PendingList::default();
        slab.push_back(&mut live, 1u32);
        slab.push_front(&mut live, 0u32);
        let mut stale = live;
        assert_eq!(slab.pop_front(&mut live), Some(0));
        assert_eq!(slab.pop_front(&mut live), Some(1));
        let mut other = PendingList::default();
        slab.push_back(&mut other, 2u32);
        slab.push_back(&mut other, 3u32);
        let _ = slab.pop_front(&mut stale);
    }
}

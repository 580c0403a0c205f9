//! A stable-order event queue: a timing ring for near events in front of
//! a monotone radix heap for far ones.
//!
//! # Structure
//!
//! A discrete-event simulation never schedules into its own past: every
//! pushed tick is at least `last`, the tick of the last popped event.
//! The queue exploits this monotonicity in two tiers.
//!
//! * **Ring** (a timing wheel, Varghese and Lauck, 1987): 4096 slots of
//!   1024 ps cover ~4.19 µs past `last`. An event goes on the ring iff
//!   `(tick >> 10) - (last >> 10) < 4096`, into slot `(tick >> 10) %
//!   4096`. Since `last` only grows, the ring's events always span fewer
//!   than 4096 consecutive slot numbers starting at `last`'s, so ring
//!   order from `last`'s slot is tick order. Each slot is a circular
//!   singly linked list over one node slab (`u32` indices and a free
//!   list), sorted by tick and FIFO on equal ticks; the slot table keeps
//!   only each list's tail, whose link is the head. A 64-word bitmap of
//!   non-empty slots plus one summary word finds the next non-empty slot.
//! * **Heap** (a monotone radix heap, Ahuja, Mehlhorn, Orlin and Tarjan,
//!   1990): the events that were beyond the ring's horizon when pushed.
//!   An event at the heap's own last popped tick waits in a FIFO; any
//!   other goes to the bucket named by the highest radix digit in which
//!   its tick differs from it (the *level*) and its value in that digit.
//!   Buckets order themselves: everything in a lower level, or in a lower
//!   digit of the same level, is earlier. A far event stays in the heap
//!   until it is popped; nothing moves it onto the ring.
//!
//! Both tiers' minimum ticks are cached; a pop takes the smaller.
//!
//! * `push`, near: O(1) when the tick is at or after its slot's tail,
//!   the common case; otherwise a walk of that slot's list, which holds
//!   at most 1024 distinct ticks.
//! * `push`, far: O(1) — one XOR and a leading-zero count pick the
//!   bucket.
//! * `pop` / [`pop_before`](EventQueue::pop_before), near: O(1) — unlink
//!   the head of the minimum's slot, then at most two bitmap words and
//!   the summary word find the next non-empty slot.
//! * `pop`, far: O(1) amortized — when the heap's FIFO runs dry, its
//!   lowest non-empty bucket is emptied: the heap's last tick moves to
//!   its minimum and its events are re-placed, each into a strictly lower
//!   level, so a far event moves at most once per level over its life.
//! * [`peek_tick`](EventQueue::peek_tick) and a refused `pop_before`:
//!   O(1), from the two cached minima.
//!
//! A push below `last` panics: callers schedule at or after the clock
//! they are dispatching, which is never behind the last popped event.
//!
//! # Determinism
//!
//! Ties on the tick pop in insertion (FIFO) order, with no sequence
//! numbers:
//!
//! * Within the ring, a slot's list appends after every entry at the
//!   same tick.
//! * Within the heap, events at one tick always share a bucket, every
//!   bucket appends, and emptying a bucket re-places its events in order
//!   into buckets that are all empty.
//! * Across the tiers, the heap wins a tie. This is exact: an event at
//!   tick T goes to the heap only while T is beyond the horizon, and the
//!   horizon only grows, so every far push at T comes before every near
//!   push at T.
//!
//! The pop order is therefore byte-identical to a `BinaryHeap` over
//! `(tick, push sequence)` (`crates/sim/tests/calendar_diff.rs` checks
//! this differentially against such a reference heap).

use crate::Tick;
use std::collections::VecDeque;

/// Picoseconds per ring slot, as a shift: 1024 ps. Wider (2–8 ns) slots
/// ran the coherence engine's event stream slower: more ticks share a
/// slot, so more pushes walk its list.
const SLOT_SHIFT: u32 = 10;
/// Ring slots; the horizon is `SLOTS << SLOT_SHIFT` ps (~4.19 µs). A
/// 32K-slot ring's 256 KB slot table ran the scenario workload slower.
const SLOTS: usize = 4096;
/// Words of the non-empty-slot bitmap (at most 64, so one summary word
/// covers them).
const SLOT_WORDS: usize = SLOTS / 64;
/// The end of the free list.
const NIL: u32 = u32::MAX;

/// Bits per radix digit. Wider digits mean fewer re-placements per event
/// but more buckets to keep warm; 5- and 6-bit digits ran the benchmark
/// workloads no faster than 4 bits (16 levels of 16 buckets), which keeps
/// the fewest buckets.
const DIGIT_BITS: u32 = 4;
/// Buckets per level.
const DIGITS: usize = 1 << DIGIT_BITS;
/// Levels needed to cover a 64-bit tick.
const LEVELS: usize = 64usize.div_ceil(DIGIT_BITS as usize);
/// An emptied bucket keeps its buffer up to this many entries; a larger
/// one (a deep upfront batch passing through) is freed, so one burst
/// does not pin its high-water memory for the rest of the run. Keeping
/// more only raised peak memory; keeping less only added allocations.
const KEEP_CAPACITY: usize = 1024;

/// A priority queue of timestamped events with deterministic FIFO tie-break.
///
/// Events pushed at the same [`Tick`] pop in insertion order, which keeps
/// whole-system simulations reproducible run to run. Pushes must not go
/// below the tick of the last popped event. Payloads are `Copy`, so a
/// ring node is copied out on pop and the node reused with no `Option`
/// or tombstone. See the [module docs](self) for the ring-plus-radix-heap
/// structure and complexity.
///
/// ```
/// use sim_core::{EventQueue, Tick};
/// let mut q = EventQueue::new();
/// q.push(Tick::from_ns(1), 'x');
/// q.push(Tick::from_ns(1), 'y');
/// assert_eq!(q.pop(), Some((Tick::from_ns(1), 'x')));
/// assert_eq!(q.pop(), Some((Tick::from_ns(1), 'y')));
/// ```
pub struct EventQueue<E> {
    /// Events within the horizon when pushed.
    ring: Ring<E>,
    /// Events beyond the horizon when pushed.
    heap: RadixHeap<E>,
    /// `heap`'s minimum tick (`u64::MAX` when empty).
    heap_min: u64,
    /// Tick of the last popped event (0 before the first pop).
    last: u64,
    len: usize,
}

impl<E: Copy> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            ring: Ring::new(),
            heap: RadixHeap::new(),
            heap_min: u64::MAX,
            last: 0,
            len: 0,
        }
    }

    /// Schedules `payload` at `tick`.
    ///
    /// # Panics
    ///
    /// If `tick` is earlier than the last popped event's tick.
    pub fn push(&mut self, tick: Tick, payload: E) {
        let tick = tick.as_ps();
        assert!(
            tick >= self.last,
            "event pushed at {tick} ps, before the last popped tick {} ps",
            self.last
        );
        self.len += 1;
        if (tick >> SLOT_SHIFT) - (self.last >> SLOT_SHIFT) < SLOTS as u64 {
            self.ring.push(tick, payload);
        } else {
            self.heap.push(tick, payload);
            self.heap_min = self.heap_min.min(tick);
        }
    }

    /// Pops the earliest event if its tick is `<= bound`.
    fn pop_bounded(&mut self, bound: u64) -> Option<(Tick, E)> {
        // The heap wins ties (see the module docs); `heap_min` reads
        // `u64::MAX` when the heap is empty, so test its length too.
        let (tick, payload) = if self.heap.len != 0 && self.heap_min <= self.ring.min {
            if self.heap_min > bound {
                return None;
            }
            let popped = self.heap.pop();
            self.heap_min = self.heap.min().unwrap_or(u64::MAX);
            popped
        } else {
            if self.len == 0 || self.ring.min > bound {
                return None;
            }
            self.ring.pop()
        };
        self.len -= 1;
        self.last = tick;
        Some((Tick::from_ps(tick), payload))
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(Tick, E)> {
        self.pop_bounded(u64::MAX)
    }

    /// Removes and returns the earliest event if its tick is `<= t`;
    /// otherwise leaves the queue untouched and returns `None`.
    ///
    /// This fuses the peek-then-pop pattern of event loops:
    /// `while let Some((tick, ev)) = q.pop_before(t) { ... }` dispatches
    /// everything up to and including `t`.
    ///
    /// ```
    /// use sim_core::{EventQueue, Tick};
    /// let mut q = EventQueue::new();
    /// q.push(Tick::from_ns(5), 'a');
    /// q.push(Tick::from_ns(9), 'b');
    /// assert_eq!(q.pop_before(Tick::from_ns(7)), Some((Tick::from_ns(5), 'a')));
    /// assert_eq!(q.pop_before(Tick::from_ns(7)), None); // 'b' stays queued
    /// assert_eq!(q.len(), 1);
    /// ```
    pub fn pop_before(&mut self, t: Tick) -> Option<(Tick, E)> {
        self.pop_bounded(t.as_ps())
    }

    /// The timestamp of the earliest pending event, in O(1).
    pub fn peek_tick(&self) -> Option<Tick> {
        // An empty tier's minimum reads `u64::MAX`, which never hides a
        // real minimum of the other.
        (self.len != 0).then(|| Tick::from_ps(self.heap_min.min(self.ring.min)))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<E: Copy> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Copy> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len())
            .field("next_tick", &self.peek_tick())
            .finish()
    }
}

/// A ring event: 32 bytes for a 16-byte payload.
#[derive(Clone, Copy)]
struct Node<E> {
    /// Raw picosecond timestamp.
    tick: u64,
    /// The next node of the slot's list (the tail's is the head), or of
    /// the free list.
    next: u32,
    payload: E,
}

/// The near tier: a timing wheel of sorted slot lists.
struct Ring<E> {
    /// Per slot, the index of its list's tail node, whose `next` is the
    /// head (the list is circular); meaningful only while the slot's bit
    /// is set in `bits`. One index per slot keeps the table at 16 KB: a
    /// `(head, tail)` pair (32 KB) ran the scenario workload slower.
    tails: Box<[u32]>,
    /// Bit `s % 64` of word `s / 64` is set iff slot `s` is non-empty.
    bits: [u64; SLOT_WORDS],
    /// Bit `w` is set iff `bits[w]` is non-zero.
    summary: u64,
    /// Every node, live or free.
    nodes: Vec<Node<E>>,
    /// Head of the free-node list.
    free: u32,
    /// The smallest tick on the ring (`u64::MAX` when empty).
    min: u64,
}

impl<E: Copy> Ring<E> {
    fn new() -> Self {
        Ring {
            tails: vec![0; SLOTS].into_boxed_slice(),
            bits: [0; SLOT_WORDS],
            summary: 0,
            nodes: Vec::new(),
            free: NIL,
            min: u64::MAX,
        }
    }

    /// The slot that files `tick`.
    #[inline]
    fn slot_of(tick: u64) -> usize {
        (tick >> SLOT_SHIFT) as usize % SLOTS
    }

    /// Files an event in its slot's list, after every entry at or before
    /// its tick.
    #[inline]
    fn push(&mut self, tick: u64, payload: E) {
        let node = Node {
            tick,
            next: NIL,
            payload,
        };
        let i = if self.free == NIL {
            let i = u32::try_from(self.nodes.len()).expect("ring nodes fit u32 indices");
            self.nodes.push(node);
            i
        } else {
            let i = self.free;
            self.free = self.nodes[i as usize].next;
            self.nodes[i as usize] = node;
            i
        };
        self.min = self.min.min(tick);
        let s = Self::slot_of(tick);
        let (w, bit) = (s / 64, 1u64 << (s % 64));
        if self.bits[w] & bit == 0 {
            self.bits[w] |= bit;
            self.summary |= 1 << w;
            self.nodes[i as usize].next = i;
            self.tails[s] = i;
            return;
        }
        let tail = self.tails[s] as usize;
        let head = self.nodes[tail].next;
        // Link after `at`: the tail, as the new tail or (every node being
        // later) as the new head, or else the last node at or before
        // `tick`.
        let at = if self.nodes[tail].tick <= tick {
            self.tails[s] = i;
            tail
        } else if tick < self.nodes[head as usize].tick {
            tail
        } else {
            // The tail is later and the head is not, so the walk stops
            // before the tail.
            let mut at = head as usize;
            loop {
                let next = self.nodes[at].next as usize;
                if self.nodes[next].tick > tick {
                    break at;
                }
                at = next;
            }
        };
        self.nodes[i as usize].next = self.nodes[at].next;
        self.nodes[at].next = i;
    }

    /// Unlinks the earliest event (the ring must be non-empty) and moves
    /// `min` to the next one.
    #[inline]
    fn pop(&mut self) -> (u64, E) {
        let s = Self::slot_of(self.min);
        let tail = self.tails[s];
        let i = self.nodes[tail as usize].next;
        let node = self.nodes[i as usize];
        self.nodes[i as usize].next = self.free;
        self.free = i;
        if i != tail {
            self.nodes[tail as usize].next = node.next;
            self.min = self.nodes[node.next as usize].tick;
        } else {
            let w = s / 64;
            self.bits[w] &= !(1 << (s % 64));
            if self.bits[w] == 0 {
                self.summary &= !(1 << w);
            }
            self.min = match self.next_slot(s) {
                Some(s) => {
                    let head = self.nodes[self.tails[s] as usize].next;
                    self.nodes[head as usize].tick
                }
                None => u64::MAX,
            };
        }
        (node.tick, node.payload)
    }

    /// The first non-empty slot at or after `from` in ring order, which
    /// wraps past the last slot to slot 0.
    fn next_slot(&self, from: usize) -> Option<usize> {
        let w = from / 64;
        let here = self.bits[w] & (!0 << (from % 64));
        if here != 0 {
            return Some(w * 64 + here.trailing_zeros() as usize);
        }
        // A later word, else the lowest non-empty word: the wrap-around,
        // which may be `w` itself below `from`.
        let later = self.summary & (!1 << w);
        let w = if later != 0 { later } else { self.summary }.trailing_zeros() as usize;
        (w < SLOT_WORDS).then(|| w * 64 + self.bits[w].trailing_zeros() as usize)
    }
}

/// A far-tier entry.
struct Entry<E> {
    /// Raw picosecond timestamp.
    tick: u64,
    payload: E,
}

struct Bucket<E> {
    /// Smallest tick in `items` (`u64::MAX` when empty).
    min: u64,
    /// Entries in push order.
    items: Vec<Entry<E>>,
}

/// The far tier: a monotone radix heap with FIFO ties.
struct RadixHeap<E> {
    /// Payloads of the events at exactly `last`, in push order.
    now: VecDeque<E>,
    /// `buckets[level * DIGITS + digit]`.
    buckets: Box<[Bucket<E>; LEVELS * DIGITS]>,
    /// Bit `level` is set iff some bucket of that level is non-empty.
    levels: u64,
    /// Per level, bit `digit` is set iff that bucket is non-empty.
    digits: [u64; LEVELS],
    /// Tick of the heap's last popped event (0 before the first pop).
    last: u64,
    len: usize,
}

impl<E> RadixHeap<E> {
    fn new() -> Self {
        RadixHeap {
            now: VecDeque::new(),
            buckets: Box::new(std::array::from_fn(|_| Bucket {
                min: u64::MAX,
                items: Vec::new(),
            })),
            levels: 0,
            digits: [0; LEVELS],
            last: 0,
            len: 0,
        }
    }

    /// Schedules `payload` at `tick`, which must be at least `last`.
    fn push(&mut self, tick: u64, payload: E) {
        self.len += 1;
        self.place(Entry { tick, payload });
    }

    /// Files an entry (tick `>= last`) by its highest digit differing
    /// from `last`.
    #[inline]
    fn place(&mut self, e: Entry<E>) {
        let diff = e.tick ^ self.last;
        if diff == 0 {
            self.now.push_back(e.payload);
            return;
        }
        let level = (u64::BITS - 1 - diff.leading_zeros()) / DIGIT_BITS;
        let digit = (e.tick >> (level * DIGIT_BITS)) as usize & (DIGITS - 1);
        let b = &mut self.buckets[level as usize * DIGITS + digit];
        b.min = b.min.min(e.tick);
        b.items.push(e);
        self.levels |= 1 << level;
        self.digits[level as usize] |= 1 << digit;
    }

    /// Index of the non-empty bucket holding the earliest events.
    fn lowest(&self) -> Option<usize> {
        if self.levels == 0 {
            return None;
        }
        let level = self.levels.trailing_zeros() as usize;
        Some(level * DIGITS + self.digits[level].trailing_zeros() as usize)
    }

    /// Empties bucket `i`, the lowest non-empty one: moves `last` to its
    /// minimum and returns the first event at that tick, re-placing the
    /// rest, in order, below it.
    fn take_lowest(&mut self, i: usize) -> E {
        let (level, digit) = (i / DIGITS, i % DIGITS);
        self.digits[level] &= !(1 << digit);
        if self.digits[level] == 0 {
            self.levels &= !(1 << level);
        }
        let b = &mut self.buckets[i];
        self.last = std::mem::replace(&mut b.min, u64::MAX);
        if b.items.len() == 1 {
            // Most buckets hold one event by the time they are lowest.
            return b.items.pop().expect("one entry").payload;
        }
        let mut items = std::mem::take(&mut b.items);
        for e in items.drain(..) {
            self.place(e);
        }
        if items.capacity() <= KEEP_CAPACITY {
            self.buckets[i].items = items;
        }
        self.now.pop_front().expect("the minimum lands in `now`")
    }

    /// Removes and returns the earliest event (the heap must be
    /// non-empty).
    fn pop(&mut self) -> (u64, E) {
        let payload = match self.now.pop_front() {
            Some(payload) => payload,
            None => {
                let i = self.lowest().expect("a non-empty heap has a bucket");
                self.take_lowest(i)
            }
        };
        self.len -= 1;
        (self.last, payload)
    }

    /// The earliest tick, if any.
    fn min(&self) -> Option<u64> {
        if !self.now.is_empty() {
            return Some(self.last);
        }
        self.lowest().map(|i| self.buckets[i].min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_tick() {
        let mut q = EventQueue::new();
        q.push(Tick::from_ns(30), 3);
        q.push(Tick::from_ns(10), 1);
        q.push(Tick::from_ns(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_on_ties() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Tick::from_ns(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_tick(), None);
        q.push(Tick::from_ns(9), ());
        q.push(Tick::from_ns(4), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_tick(), Some(Tick::from_ns(4)));
        assert_eq!(q.pop(), Some((Tick::from_ns(4), ())));
        assert_eq!((q.len(), q.peek_tick()), (1, Some(Tick::from_ns(9))));
        assert_eq!(q.pop(), Some((Tick::from_ns(9), ())));
        assert!(q.is_empty());
        assert_eq!(q.peek_tick(), None);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(Tick::from_ns(10), 'a');
        q.push(Tick::from_ns(5), 'b');
        assert_eq!(q.pop().unwrap().1, 'b');
        q.push(Tick::from_ns(5), 'c'); // at the last popped tick
        q.push(Tick::from_ns(7), 'd'); // between it and 'a'
        assert_eq!(q.pop().unwrap().1, 'c');
        assert_eq!(q.pop().unwrap().1, 'd');
        assert_eq!(q.pop().unwrap().1, 'a');
    }

    #[test]
    fn far_future_events_overflow_and_return() {
        let mut q = EventQueue::new();
        // Far-future events sit in high levels under a near one.
        q.push(Tick::from_us(500), 'f');
        q.push(Tick::from_us(2_000), 'g');
        q.push(Tick::from_ns(3), 'n');
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((Tick::from_ns(3), 'n')));
        assert_eq!(q.peek_tick(), Some(Tick::from_us(500)));
        assert_eq!(q.pop(), Some((Tick::from_us(500), 'f')));
        assert_eq!(q.pop(), Some((Tick::from_us(2_000), 'g')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn overflow_preserves_fifo_ties() {
        let mut q = EventQueue::new();
        let far = Tick::from_us(100);
        for i in 0..50 {
            q.push(far, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..50).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "event pushed at 1000 ps, before the last popped tick 40000000 ps")]
    fn push_below_last_popped_tick_panics() {
        let mut q = EventQueue::new();
        q.push(Tick::from_us(40), 'a');
        assert_eq!(q.pop().unwrap().1, 'a');
        q.push(Tick::from_ns(1), 'p');
    }

    #[test]
    fn ties_stay_fifo_across_redistributions() {
        // Same-tick events pushed before the bucket holding them is
        // emptied, while it is being drained (into `now`), and while
        // they sit in a lower level after one redistribution.
        let t = Tick::from_ps(0x1234_5678);
        let mut q = EventQueue::new();
        for i in 0..40 {
            q.push(t, i);
        }
        q.push(Tick::from_ps(0x1234_5000), -1); // empties t's bucket first
        assert_eq!(q.pop(), Some((Tick::from_ps(0x1234_5000), -1)));
        for i in 40..80 {
            q.push(t, i); // lands after the re-placed 0..40
        }
        assert_eq!(q.pop(), Some((t, 0)));
        for i in 80..120 {
            q.push(t, i); // straight into `now`, behind the rest
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (1..120).collect::<Vec<_>>());
    }

    #[test]
    fn digit_and_power_of_two_boundaries() {
        // Ticks one either side of every digit boundary, so carries cross
        // radix levels, pushed in reverse and popped in order.
        let mut ticks: Vec<u64> = (1..u64::BITS)
            .flat_map(|b| [(1u64 << b) - 1, 1 << b, (1 << b) + 1])
            .chain([u64::MAX - 1, u64::MAX])
            .collect();
        ticks.dedup();
        let mut q = EventQueue::new();
        for &t in ticks.iter().rev() {
            q.push(Tick::from_ps(t), t);
        }
        for &t in &ticks {
            assert_eq!(q.peek_tick(), Some(Tick::from_ps(t)));
            assert_eq!(q.pop(), Some((Tick::from_ps(t), t)));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn pop_before_bounds_and_preserves() {
        let mut q = EventQueue::new();
        q.push(Tick::from_ns(10), 'a');
        q.push(Tick::from_ns(10), 'b');
        q.push(Tick::from_ns(20), 'c');
        q.push(Tick::from_us(200), 'z'); // a far level
        assert_eq!(q.pop_before(Tick::from_ns(5)), None);
        assert_eq!(
            q.pop_before(Tick::from_ns(10)),
            Some((Tick::from_ns(10), 'a'))
        );
        assert_eq!(
            q.pop_before(Tick::from_ns(10)),
            Some((Tick::from_ns(10), 'b'))
        );
        assert_eq!(q.pop_before(Tick::from_ns(10)), None);
        assert_eq!(q.pop_before(Tick::MAX), Some((Tick::from_ns(20), 'c')));
        assert_eq!(q.pop_before(Tick::from_us(199)), None); // 'z' stays
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_before(Tick::MAX), Some((Tick::from_us(200), 'z')));
        assert!(q.is_empty());
    }

    #[test]
    fn peek_after_refusal_is_exact_across_pushes_and_pops() {
        let mut q = EventQueue::new();
        q.push(Tick::from_ns(10), 'a');
        q.push(Tick::from_us(100), 'z'); // a far level
        assert_eq!(q.pop_before(Tick::from_ns(5)), None);
        assert_eq!(q.peek_tick(), Some(Tick::from_ns(10)));
        q.push(Tick::from_ns(3), 'b'); // earlier than the peeked tick
        assert_eq!(q.peek_tick(), Some(Tick::from_ns(3)));
        assert_eq!(q.pop().unwrap().1, 'b');
        assert_eq!(q.peek_tick(), Some(Tick::from_ns(10)));
        assert_eq!(q.pop().unwrap().1, 'a');
        assert_eq!(q.pop_before(Tick::from_ns(50)), None); // far refusal
        assert_eq!(q.peek_tick(), Some(Tick::from_us(100)));
        assert_eq!(q.pop().unwrap().1, 'z');
        assert_eq!(q.peek_tick(), None);
    }

    #[test]
    fn dense_same_bucket_push_pop_interleave_stays_ordered() {
        // Pushes between and after queued events while their bucket is
        // being drained; the interleave must pop the global (tick, push
        // order) exactly.
        let mut q = EventQueue::new();
        for i in 0..8u64 {
            q.push(Tick::from_ps(1000 + i * 100), i);
        }
        let mut popped = Vec::new();
        popped.push(q.pop().unwrap());
        popped.push(q.pop().unwrap());
        q.push(Tick::from_ps(1150), 100); // between queued events
        q.push(Tick::from_ps(4000), 101); // later
        q.push(Tick::from_ps(1150), 102); // tie with 100: FIFO
        while let Some(e) = q.pop() {
            popped.push(e);
        }
        let ticks: Vec<u64> = popped.iter().map(|(t, _)| t.as_ps()).collect();
        assert!(
            ticks.windows(2).all(|w| w[0] <= w[1]),
            "order broke: {ticks:?}"
        );
        let payloads: Vec<u64> = popped.iter().map(|&(_, e)| e).collect();
        assert_eq!(payloads, vec![0, 1, 100, 102, 2, 3, 4, 5, 6, 7, 101]);
    }

    #[test]
    fn pending_side_respects_bounds_and_peek() {
        let mut q = EventQueue::new();
        q.push(Tick::from_ps(100), 'a');
        assert_eq!(q.pop(), Some((Tick::from_ps(100), 'a')));
        q.push(Tick::from_ps(200), 'b');
        q.push(Tick::from_ps(150), 'c');
        q.push(Tick::from_ps(100), 'd'); // at the last popped tick
        assert_eq!(q.peek_tick(), Some(Tick::from_ps(100)));
        assert_eq!(q.pop_before(Tick::from_ps(99)), None);
        assert_eq!(q.pop(), Some((Tick::from_ps(100), 'd')));
        assert_eq!(q.pop_before(Tick::from_ps(140)), None);
        assert_eq!(q.peek_tick(), Some(Tick::from_ps(150)));
        assert_eq!(
            q.pop_before(Tick::from_ps(175)),
            Some((Tick::from_ps(150), 'c'))
        );
        assert_eq!(q.pop_before(Tick::from_ps(175)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((Tick::from_ps(200), 'b')));
        assert!(q.is_empty());
    }

    #[test]
    fn dense_upfront_batch_drains_in_order() {
        // The stress_upfront driver shape: thousands of ~1 ns-spaced
        // events, pushed upfront and drained while follow-on events keep
        // landing just ahead of the clock.
        let mut q = EventQueue::new();
        for i in 0..4096u64 {
            q.push(Tick::from_ps(i * 1000), i);
        }
        let mut n = 0u64;
        let mut last = 0u64;
        while let Some((t, _)) = q.pop() {
            assert!(t.as_ps() >= last);
            last = t.as_ps();
            n += 1;
            if n.is_multiple_of(3) && n < 2000 {
                q.push(Tick::from_ps(last + 2000), 1_000_000 + n);
            }
        }
        assert_eq!(n, 4096 + 666);
    }

    #[test]
    fn horizon_splits_the_tiers() {
        // `last` mid-slot: the horizon is counted in whole slots from
        // `last`'s slot, not in picoseconds from `last`.
        let last = 5 * 1024 + 700;
        let horizon = (5 + SLOTS as u64) << SLOT_SHIFT;
        let mut q = EventQueue::new();
        q.push(Tick::from_ps(last), 0);
        assert_eq!(q.pop(), Some((Tick::from_ps(last), 0)));
        q.push(Tick::from_ps(horizon), 2); // far
        q.push(Tick::from_ps(horizon - 1), 1); // near: the ring's last slot
        assert_eq!(
            (q.heap.len, q.heap_min, q.ring.min),
            (1, horizon, horizon - 1)
        );
        q.push(Tick::from_ps(horizon - 1), 3);
        assert_eq!(q.pop(), Some((Tick::from_ps(horizon - 1), 1)));
        q.push(Tick::from_ps(horizon), 4); // near now, behind the far tie
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![3, 2, 4]);
        assert_eq!(
            (q.heap.len, q.heap_min, q.ring.min),
            (0, u64::MAX, u64::MAX)
        );
    }

    #[test]
    fn mixed_tiers_interleave_correctly() {
        let mut q = EventQueue::new();
        // Alternate near/far pushes, then drain: order must be global.
        for i in 0..200u64 {
            q.push(Tick::from_ns(i * 777 % 50_000), ('n', i));
            q.push(Tick::from_us(40 + i % 60), ('f', i));
        }
        let mut last = (Tick::ZERO, 0u64);
        let mut n = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last.0, "tick went backwards: {t} after {}", last.0);
            last = (t, 0);
            n += 1;
        }
        assert_eq!(n, 400);
    }
}

//! A stable-order event queue built on a two-tier calendar.
//!
//! # Structure
//!
//! The queue keeps near-future events in a ring of 4096 tick buckets of
//! 2^13 ps ≈ 8.2 ns each (a classic calendar queue) and far-future
//! events — beyond the ring's ~33 µs horizon — in a lazily-sorted
//! overflow stack (descending, minimum at the back; re-sorted adaptively
//! when pushes dirty it). Discrete-event simulations schedule almost
//! exclusively into the near future, so the common case for both `push`
//! and `pop` touches one bucket:
//!
//! * `push`: O(1) amortized — index the bucket by `(tick - epoch) >>
//!   BUCKET_SHIFT` and append (far-future events append to the overflow
//!   stack, paying their share of one adaptive sort when next consulted
//!   — a deep upfront batch sorts once instead of heap-sifting per
//!   event). Pushes into the *already-sorted cursor bucket*
//!   (dense traffic that schedules into the bucket currently being
//!   drained) append to a pending side-stack instead of binary-inserting,
//!   so they stay O(1) instead of O(bucket) memmoves.
//! * `pop` / [`pop_before`](EventQueue::pop_before): O(1) amortized —
//!   each bucket is sorted once when the cursor reaches it, then popped
//!   from the back; the pending side is sorted lazily per push burst and
//!   pops take the `(tick, seq)`-minimum of the two stacks' backs; cursor
//!   advancement over empty buckets is amortized across the events that
//!   crossed them.
//! * [`peek_tick`](EventQueue::peek_tick): O(buckets) worst case (a scan
//!   for the first non-empty bucket); intended for occasional
//!   "when is the next event?" queries, not the dispatch loop — the
//!   dispatch loop should use the fused `pop_before`.
//!
//! # Determinism
//!
//! Events carry a monotonically increasing sequence number; ties on the
//! tick pop in insertion (FIFO) order, byte-identically to the previous
//! `BinaryHeap` implementation (`crates/sim/tests/calendar_diff.rs`
//! proves this differentially against a reference heap).

use crate::Tick;
use std::cmp::Reverse;

/// log2 of the bucket width: 2^13 ps ≈ 8.2 ns per bucket, matching the
/// nanosecond-scale latencies of the coherence/link models.
const BUCKET_SHIFT: u32 = 13;
/// Width of one calendar bucket in picoseconds.
const BUCKET_WIDTH_PS: u64 = 1 << BUCKET_SHIFT;
/// Number of ring buckets (power of two so indexing is a mask); the ring
/// covers `BUCKETS * BUCKET_WIDTH_PS` ≈ 33.6 µs ahead of the cursor.
const BUCKETS: usize = 4096;

struct Entry<E> {
    /// Raw picosecond timestamp (kept unwrapped for hot comparisons).
    tick: u64,
    seq: u64,
    payload: E,
}

impl<E> Entry<E> {
    fn key(&self) -> (u64, u64) {
        (self.tick, self.seq)
    }
}

/// A priority queue of timestamped events with deterministic FIFO tie-break.
///
/// Events pushed at the same [`Tick`] pop in insertion order, which keeps
/// whole-system simulations reproducible run to run. See the [module
/// docs](self) for the calendar-queue structure and complexity.
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
    /// Near-future ring; bucket `(cursor + d) & (BUCKETS-1)` covers ticks
    /// `[epoch + d*W, epoch + (d+1)*W)`. The cursor bucket additionally
    /// absorbs pushes at ticks `< epoch` (the simulated past), which the
    /// per-bucket `(tick, seq)` ordering sequences correctly.
    buckets: Vec<Vec<Entry<E>>>,
    /// Ring index of the bucket starting at `epoch`.
    cursor: usize,
    /// Bucket-aligned tick of the cursor bucket's start.
    epoch: u64,
    /// Whether the cursor bucket is currently sorted (descending by
    /// `(tick, seq)`, so the minimum pops from the back).
    cur_sorted: bool,
    /// Pushes landing in the cursor bucket *after* it was sorted. A
    /// binary-insert into the sorted bucket is O(bucket) per push (the
    /// `Vec::insert` memmove), which dense ~1 ns-spaced batches turn
    /// into quadratic churn; appending here is O(1) and the pending
    /// side is sorted lazily, once per pop burst, so a push/pop
    /// interleave pays O(p log p) for its own batch only. Pops take the
    /// `(tick, seq)`-minimum of the two sorted stacks' backs. Always
    /// empty while the cursor bucket is unsorted, and drained before
    /// the cursor advances.
    cur_pending: Vec<Entry<E>>,
    /// Whether `cur_pending` is currently sorted (same descending order
    /// as the main bucket).
    cur_pending_sorted: bool,
    /// Events in the ring.
    ring_len: usize,
    /// Far-future events (tick beyond the ring horizon at push time),
    /// kept as a lazily-sorted stack (descending by `(tick, seq)`, so
    /// migration pops the minimum from the back with sequential memory
    /// access) instead of a binary heap: a deep upfront batch — the
    /// `stress_upfront` driver queues hundreds of thousands of events
    /// past the ~33 µs ring horizon — costs one adaptive sort instead
    /// of per-event heap sifts over a cache-hostile array. Pushes
    /// append and mark the stack dirty; `ensure_overflow_sorted`
    /// re-sorts before the next ordered access (the stable sort detects
    /// the already-sorted prefix, so an append burst costs roughly its
    /// own merge, not a full re-sort).
    overflow: Vec<Entry<E>>,
    overflow_sorted: bool,
    next_seq: u64,
    /// Exact tick of the earliest queued event, when known. Set when a
    /// bounded pop refuses (it just located that event), min-merged on
    /// push, invalidated by any successful pop. Lets a driver call
    /// [`peek_tick`](Self::peek_tick) right after a bounded run without
    /// paying the bucket scan.
    next_hint: Option<u64>,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        let mut buckets = Vec::with_capacity(BUCKETS);
        buckets.resize_with(BUCKETS, Vec::new);
        EventQueue {
            buckets,
            cursor: 0,
            epoch: 0,
            cur_sorted: false,
            cur_pending: Vec::new(),
            cur_pending_sorted: false,
            ring_len: 0,
            overflow: Vec::new(),
            overflow_sorted: true,
            next_seq: 0,
            next_hint: None,
        }
    }

    /// Schedules `payload` at `tick`.
    pub fn push(&mut self, tick: Tick, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if let Some(h) = self.next_hint {
            self.next_hint = Some(h.min(tick.as_ps()));
        }
        let entry = Entry {
            tick: tick.as_ps(),
            seq,
            payload,
        };
        if self.in_ring_range(entry.tick) {
            self.ring_insert(entry);
        } else {
            self.overflow.push(entry);
            self.overflow_sorted = false;
        }
    }

    /// Whether a tick falls inside the ring's current horizon. Computed
    /// via bucket distance so `u64::MAX` timestamps ("never") still
    /// resolve instead of saturating past the horizon forever.
    fn in_ring_range(&self, tick: u64) -> bool {
        (tick.saturating_sub(self.epoch) >> BUCKET_SHIFT) < BUCKETS as u64
    }

    /// Inserts an entry whose tick lies below the ring horizon.
    fn ring_insert(&mut self, entry: Entry<E>) {
        // Pushes into the simulated past (tick < epoch) land in the
        // cursor bucket: they must pop before everything else, and the
        // per-bucket ordering puts them first.
        let d = (entry.tick.saturating_sub(self.epoch) >> BUCKET_SHIFT) as usize;
        debug_assert!(d < BUCKETS);
        let idx = (self.cursor + d) & (BUCKETS - 1);
        if idx == self.cursor && self.cur_sorted {
            // The active bucket is already sorted: append to the O(1)
            // pending side instead of memmoving a binary-insert.
            self.cur_pending.push(entry);
            self.cur_pending_sorted = false;
        } else {
            self.buckets[idx].push(entry);
        }
        self.ring_len += 1;
    }

    /// Re-sorts the overflow stack if pushes dirtied it. The stable
    /// sort is adaptive: an already-sorted bulk with an appended burst
    /// costs a scan plus the burst's merge.
    fn ensure_overflow_sorted(&mut self) {
        if !self.overflow_sorted {
            self.overflow.sort_by_key(|e| Reverse(e.key()));
            self.overflow_sorted = true;
        }
    }

    /// Pops far-future events that now fall below the ring horizon.
    fn migrate_overflow(&mut self) {
        if self.overflow.is_empty() {
            return;
        }
        self.ensure_overflow_sorted();
        while let Some(e) = self.overflow.last() {
            if !self.in_ring_range(e.tick) {
                break;
            }
            let e = self.overflow.pop().expect("nonempty");
            self.ring_insert(e);
        }
    }

    /// Advances to the next candidate event; returns `None` when empty.
    /// With `bound`, stops (leaving the event queued) once the earliest
    /// event is later than the bound.
    fn pop_bounded(&mut self, bound: Option<u64>) -> Option<(Tick, E)> {
        loop {
            if self.ring_len == 0 {
                // Ring drained: re-anchor the calendar at the overflow's
                // earliest event and pull the next horizon's worth in.
                debug_assert!(self.cur_pending.is_empty());
                self.ensure_overflow_sorted();
                let min = self.overflow.last()?.tick;
                if bound.is_some_and(|b| min > b) {
                    self.next_hint = Some(min);
                    return None;
                }
                debug_assert!(min >= self.epoch);
                self.epoch = min & !(BUCKET_WIDTH_PS - 1);
                self.cur_sorted = false;
                self.migrate_overflow();
                continue;
            }
            if !self.buckets[self.cursor].is_empty() || !self.cur_pending.is_empty() {
                if !self.cur_sorted {
                    // Pending only accumulates against a sorted bucket,
                    // so a first-touch sort never has a pending side.
                    debug_assert!(self.cur_pending.is_empty());
                    self.buckets[self.cursor].sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
                    self.cur_sorted = true;
                }
                if !self.cur_pending_sorted && !self.cur_pending.is_empty() {
                    self.cur_pending
                        .sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
                    self.cur_pending_sorted = true;
                }
                // Two descending stacks: the earliest event is the
                // smaller of the two backs (ties cannot happen — seqs
                // are unique per queue — but prefer the main bucket
                // deterministically anyway).
                let main = self.buckets[self.cursor].last().map(Entry::key);
                let pend = self.cur_pending.last().map(Entry::key);
                let take_pending = match (main, pend) {
                    (Some(m), Some(p)) => p < m,
                    (None, Some(_)) => true,
                    _ => false,
                };
                let next_tick = match (main, pend) {
                    (Some(m), Some(p)) => m.min(p).0,
                    (Some(m), None) => m.0,
                    (None, Some(p)) => p.0,
                    (None, None) => unreachable!("checked nonempty"),
                };
                if bound.is_some_and(|b| next_tick > b) {
                    self.next_hint = Some(next_tick);
                    return None;
                }
                let e = if take_pending {
                    self.cur_pending.pop().expect("nonempty")
                } else {
                    self.buckets[self.cursor].pop().expect("nonempty")
                };
                self.ring_len -= 1;
                self.next_hint = None;
                return Some((Tick::from_ps(e.tick), e.payload));
            }
            // Cursor bucket empty: advance one bucket. The horizon moves
            // with it, so check the overflow for newly-near events.
            self.cursor = (self.cursor + 1) & (BUCKETS - 1);
            self.epoch += BUCKET_WIDTH_PS;
            self.cur_sorted = false;
            self.migrate_overflow();
        }
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(Tick, E)> {
        self.pop_bounded(None)
    }

    /// Removes and returns the earliest event if its tick is `<= t`;
    /// otherwise leaves the queue untouched and returns `None`.
    ///
    /// This fuses the peek-then-pop pattern of event loops into one
    /// traversal: `while let Some((tick, ev)) = q.pop_before(t) { ... }`
    /// dispatches everything up to and including `t` without re-walking
    /// the queue per event.
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
        self.pop_bounded(Some(t.as_ps()))
    }

    /// The timestamp of the earliest pending event.
    ///
    /// O(1) right after a bounded pop refused (the refusal caches the
    /// tick it stopped at, and pushes keep the cache exact); otherwise
    /// O(buckets) worst case — use [`pop_before`](Self::pop_before) in
    /// dispatch loops instead of peeking then popping.
    pub fn peek_tick(&self) -> Option<Tick> {
        if let Some(h) = self.next_hint {
            debug_assert_eq!(Some(Tick::from_ps(h)), self.peek_tick_scan());
            return Some(Tick::from_ps(h));
        }
        self.peek_tick_scan()
    }

    /// The slow path of [`peek_tick`](Self::peek_tick): scan the ring
    /// for the first non-empty bucket, else peek the overflow stack.
    fn peek_tick_scan(&self) -> Option<Tick> {
        if self.ring_len > 0 {
            for d in 0..BUCKETS {
                let idx = (self.cursor + d) & (BUCKETS - 1);
                let mut min = self.buckets[idx].iter().map(Entry::key).min();
                if idx == self.cursor {
                    // The cursor bucket's pending side counts too.
                    min = min
                        .into_iter()
                        .chain(self.cur_pending.iter().map(Entry::key))
                        .min();
                }
                if let Some(min) = min {
                    return Some(Tick::from_ps(min.0));
                }
            }
            unreachable!("ring_len > 0 but all buckets empty");
        }
        // Sorted stack: the minimum is at the back, O(1) like the old
        // heap peek. Only a dirty stack (pushes since the last ordered
        // access, and this is `&self` so no re-sort) needs the scan.
        if self.overflow_sorted {
            return self.overflow.last().map(|e| Tick::from_ps(e.tick));
        }
        self.overflow
            .iter()
            .map(Entry::key)
            .min()
            .map(|k| Tick::from_ps(k.0))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.ring_len + self.overflow.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.cur_pending.clear();
        self.cur_pending_sorted = false;
        self.overflow.clear();
        self.overflow_sorted = true;
        self.ring_len = 0;
        self.cur_sorted = false;
        self.next_hint = None;
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len())
            .field("next_tick", &self.peek_tick())
            .finish()
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
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(Tick::from_ns(10), 'a');
        q.push(Tick::from_ns(5), 'b');
        assert_eq!(q.pop().unwrap().1, 'b');
        q.push(Tick::from_ns(1), 'c');
        assert_eq!(q.pop().unwrap().1, 'c');
        assert_eq!(q.pop().unwrap().1, 'a');
    }

    #[test]
    fn far_future_events_overflow_and_return() {
        let mut q = EventQueue::new();
        // Far beyond the ~33 us ring horizon, plus one near event.
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
    fn push_into_the_past_pops_first() {
        let mut q = EventQueue::new();
        q.push(Tick::from_us(40), 'a');
        assert_eq!(q.pop().unwrap().1, 'a'); // epoch now ~40 us
        q.push(Tick::from_ns(1), 'p'); // far in the popped past
        q.push(Tick::from_us(41), 'b');
        assert_eq!(q.pop().unwrap().1, 'p');
        assert_eq!(q.pop().unwrap().1, 'b');
    }

    #[test]
    fn pop_before_bounds_and_preserves() {
        let mut q = EventQueue::new();
        q.push(Tick::from_ns(10), 'a');
        q.push(Tick::from_ns(10), 'b');
        q.push(Tick::from_ns(20), 'c');
        q.push(Tick::from_us(200), 'z'); // overflow tier
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
        // A bounded-pop refusal caches the next tick; pushes min-merge
        // into it and pops invalidate it. (`peek_tick` cross-checks the
        // cache against the full scan under debug assertions.)
        let mut q = EventQueue::new();
        q.push(Tick::from_ns(10), 'a');
        q.push(Tick::from_us(100), 'z'); // overflow tier
        assert_eq!(q.pop_before(Tick::from_ns(5)), None);
        assert_eq!(q.peek_tick(), Some(Tick::from_ns(10)));
        q.push(Tick::from_ns(3), 'b'); // earlier than the cached tick
        assert_eq!(q.peek_tick(), Some(Tick::from_ns(3)));
        assert_eq!(q.pop().unwrap().1, 'b');
        assert_eq!(q.peek_tick(), Some(Tick::from_ns(10)));
        assert_eq!(q.pop().unwrap().1, 'a');
        assert_eq!(q.pop_before(Tick::from_ns(50)), None); // overflow refusal
        assert_eq!(q.peek_tick(), Some(Tick::from_us(100)));
        assert_eq!(q.pop().unwrap().1, 'z');
        assert_eq!(q.peek_tick(), None);
    }

    #[test]
    fn dense_same_bucket_push_pop_interleave_stays_ordered() {
        // The pending/sorted split: pops from the cursor bucket sort it,
        // then pushes land on the pending side; the interleave must pop
        // the global (tick, seq) order exactly.
        let mut q = EventQueue::new();
        for i in 0..8u64 {
            q.push(Tick::from_ps(1000 + i * 100), i);
        }
        let mut popped = Vec::new();
        // Pop two (sorts the bucket), then push earlier/later events
        // into the same (now sorted) bucket.
        popped.push(q.pop().unwrap());
        popped.push(q.pop().unwrap());
        q.push(Tick::from_ps(1150), 100); // between queued events
        q.push(Tick::from_ps(4000), 101); // later, same bucket
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
        assert_eq!(q.pop(), Some((Tick::from_ps(100), 'a'))); // sorts bucket 0
        q.push(Tick::from_ps(200), 'b'); // pending side of sorted bucket
        q.push(Tick::from_ps(150), 'c');
        assert_eq!(q.peek_tick(), Some(Tick::from_ps(150)));
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
        // landing in the cursor bucket.
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
                // Follow-on work ~2 ns out: same or next bucket.
                q.push(Tick::from_ps(last + 2000), 1_000_000 + n);
            }
        }
        assert_eq!(n, 4096 + 666);
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

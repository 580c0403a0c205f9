//! Differential suite: the [`EventQueue`] (a timing ring in front of a
//! radix heap) must pop in byte-identical order to a reference
//! `BinaryHeap` over `(tick, push sequence)`, under random interleavings
//! of pushes and pops at clustered (same few ticks), near, far-apart and
//! horizon-straddling ticks, and in scripted cases that reach each
//! corner of the ring. Every push honours the queue's contract: no tick
//! below the last popped one.

use proptest::prelude::*;
use sim_core::{EventQueue, Tick};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The reference: a max-heap of `(tick, seq)`-inverted entries with
/// FIFO tie-break.
struct RefEntry {
    tick: Tick,
    seq: u64,
    payload: u64,
}

impl PartialEq for RefEntry {
    fn eq(&self, other: &Self) -> bool {
        self.tick == other.tick && self.seq == other.seq
    }
}
impl Eq for RefEntry {}
impl PartialOrd for RefEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for RefEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .tick
            .cmp(&self.tick)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

#[derive(Default)]
struct RefQueue {
    heap: BinaryHeap<RefEntry>,
    next_seq: u64,
}

impl RefQueue {
    fn push(&mut self, tick: Tick, payload: u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(RefEntry { tick, seq, payload });
    }

    fn pop(&mut self) -> Option<(Tick, u64)> {
        self.heap.pop().map(|e| (e.tick, e.payload))
    }

    fn pop_before(&mut self, t: Tick) -> Option<(Tick, u64)> {
        if self.heap.peek().map(|e| e.tick <= t).unwrap_or(false) {
            self.pop()
        } else {
            None
        }
    }
}

/// One scripted operation against both queues.
#[derive(Debug, Clone, Copy)]
enum Op {
    Push(u64),
    Pop,
    PopBefore(u64),
}

/// Picoseconds per ring slot and ring slots: an event is near (on the
/// ring) iff `(tick >> 10) - (last >> 10) < 4096`.
const SLOT_PS: u64 = 1024;
const SLOTS: u64 = 4096;

/// The first tick beyond the ring's horizon when `last` was last popped.
fn horizon(last: u64) -> u64 {
    (last / SLOT_PS + SLOTS) * SLOT_PS
}

/// Decodes `(sel, a, b)` triples into ops, with every tick at or after
/// `last`, the last popped tick (the queue's contract). Offsets mix the
/// scales a radix level spans: the same or nearly the same tick, a few
/// ns, µs, tens of µs and far-future ms; ticks within a few ring slots
/// either side of the horizon; and ticks one either side of a digit or
/// power-of-two boundary above `last`, where carries cross radix levels.
fn decode(sel: u8, a: u64, b: u64, last: u64) -> Op {
    let tick = match a % 8 {
        0 => last + b % 16,                        // same tick or the lowest digit
        1 => last + b % 8_000,                     // a few ns
        2 => last + b % 2_000_000,                 // µs
        3 => last + b % 40_000_000,                // tens of µs
        4 => last + 1_000_000_000 + b % 1_000_000, // far future
        5 => horizon(last) - 3 * SLOT_PS + b % (6 * SLOT_PS), // either side of the horizon
        _ => {
            let k = 1 + b % 40;
            let boundary = ((last >> k) + 1) << k;
            boundary - 1 + (b >> 8) % 3
        }
    };
    match sel % 4 {
        0 | 1 => Op::Push(tick),
        2 => Op::Pop,
        _ => Op::PopBefore(tick),
    }
}

/// Checks `peek_tick` and `len` of both queues agree.
fn compare_state(i: usize, q: &EventQueue<u64>, reference: &RefQueue) -> Result<(), String> {
    let (qp, rp) = (q.peek_tick(), reference.heap.peek().map(|e| e.tick));
    if qp != rp {
        return Err(format!("op {i}: peek_tick {qp:?} != reference {rp:?}"));
    }
    if q.len() != reference.heap.len() {
        return Err(format!(
            "op {i}: len {} != reference {}",
            q.len(),
            reference.heap.len()
        ));
    }
    Ok(())
}

/// Runs `ops` against both queues; `next_op(last)` yields the next op
/// given the last popped tick, `None` to stop and drain.
fn run_ops(mut next_op: impl FnMut(u64) -> Option<Op>) -> Result<(), String> {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut reference = RefQueue::default();
    let mut payload = 0u64;
    let mut last = 0u64;
    let mut i = 0;
    while let Some(op) = next_op(last) {
        let popped = match op {
            Op::Push(t) => {
                payload += 1;
                q.push(Tick::from_ps(t), payload);
                reference.push(Tick::from_ps(t), payload);
                None
            }
            Op::Pop => {
                let (c, r) = (q.pop(), reference.pop());
                if c != r {
                    return Err(format!("op {i}: pop {c:?} != reference {r:?}"));
                }
                c
            }
            Op::PopBefore(t) => {
                let bound = Tick::from_ps(t);
                let (c, r) = (q.pop_before(bound), reference.pop_before(bound));
                if c != r {
                    return Err(format!("op {i}: pop_before({bound}) {c:?} != {r:?}"));
                }
                c
            }
        };
        if let Some((t, _)) = popped {
            last = t.as_ps();
        }
        compare_state(i, &q, &reference)?;
        i += 1;
    }
    // Drain both fully: the tails must agree too.
    loop {
        let (c, r) = (q.pop(), reference.pop());
        if c != r {
            return Err(format!("drain: {c:?} != {r:?}"));
        }
        if c.is_none() {
            return Ok(());
        }
    }
}

fn run_differential(script: &[(u8, u64, u64)]) -> Result<(), String> {
    let mut script = script.iter();
    run_ops(|last| script.next().map(|&(sel, a, b)| decode(sel, a, b, last)))
}

/// Runs a fixed script of ops against both queues.
fn run_script(ops: &[Op]) {
    let mut ops = ops.iter().copied();
    if let Err(e) = run_ops(|_| ops.next()) {
        panic!("differential mismatch: {e}");
    }
}

/// A far push at T, pops until T is within the horizon, then near pushes
/// at T: the far events pop first, then the near ones, each tier FIFO.
#[test]
fn far_event_beats_later_near_push_at_same_tick() {
    let t = 10_000_000; // 10 µs: far from 0
    let step = 6_000_000; // far from 0 too; brings t within the horizon
    assert!(t >= horizon(0) && t < horizon(step));
    run_script(&[
        Op::Push(t),
        Op::Push(step),
        Op::Push(t),
        Op::Pop, // last = step
        Op::Push(t),
        Op::Push(t),
        Op::PopBefore(t - 1),
        Op::Pop,
        Op::Push(t), // near, at the tick being drained
        Op::Pop,
        Op::Pop,
        Op::Pop,
        Op::Pop,
    ]);
}

/// `last` in the ring's top slots, with later events filed in slots
/// whose index is below `last`'s: pops follow ticks, not slot indices.
#[test]
fn ring_wraps_past_its_last_slot() {
    let base = 4090 * SLOT_PS + 17; // slot index 4090
    let mut ops = vec![Op::Push(base - 4_000_000), Op::Pop, Op::Push(base), Op::Pop];
    for slots_ahead in [4095, 3, 5, 0, 4_000, 6, 4_095, 1, 10] {
        // Slot indices 4089, 4093, 4095, 4090, 3994, 0, 4089, 4091, 4.
        ops.push(Op::Push(
            base + slots_ahead * SLOT_PS - 17 * (slots_ahead % 2),
        ));
    }
    ops.extend([Op::Pop; 4]);
    ops.push(Op::Push(base + 4_095 * SLOT_PS)); // near again after the pops
    ops.push(Op::Push(horizon(base + 6 * SLOT_PS))); // far: beyond the new horizon
    run_script(&ops);
}

/// Descending and repeated ticks filed into one slot: each push walks to
/// its place, after any earlier push at the same tick.
#[test]
fn descending_ticks_within_one_slot() {
    let base = 7 * SLOT_PS;
    let mut ops: Vec<Op> = (0..SLOT_PS)
        .rev()
        .step_by(93)
        .flat_map(|d| [Op::Push(base + d), Op::Push(base + d / 2)])
        .collect();
    ops.extend([Op::Push(base), Op::Push(base + SLOT_PS - 1)]);
    ops.extend([Op::Pop; 5]);
    ops.extend([
        Op::Push(base + 500),
        Op::Push(base + 499),
        Op::Push(base + 500),
    ]);
    run_script(&ops);
}

/// `u64::MAX` on both tiers: pushed far while `last` is 0, and again
/// near once `last` is within the horizon of it; the far one pops first.
#[test]
fn max_tick_on_both_tiers() {
    let close = u64::MAX - 1_000 * SLOT_PS;
    run_script(&[
        Op::Push(u64::MAX),
        Op::Push(close),
        Op::Push(u64::MAX - 1),
        Op::Pop, // last = close: u64::MAX is near now
        Op::Push(u64::MAX),
        Op::Push(u64::MAX - 1),
        Op::PopBefore(u64::MAX - 2),
        Op::Push(u64::MAX),
        Op::PopBefore(u64::MAX - 1),
        Op::PopBefore(u64::MAX - 1),
        Op::PopBefore(u64::MAX - 1),
    ]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random interleaved push/pop/pop_before at every offset scale pops
    /// byte-identically to the reference heap, with equal `peek_tick`
    /// and `len` after every op.
    #[test]
    fn calendar_matches_reference_heap(
        script in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 1..400)
    ) {
        if let Err(e) = run_differential(&script) {
            panic!("differential mismatch: {e}");
        }
    }

    /// Heavy same-tick clustering just ahead of the clock (the engine's
    /// wave pattern): FIFO tie-break order must survive redistribution.
    #[test]
    fn clustered_ties_match_reference(
        ticks in prop::collection::vec(0u64..16, 1..300),
        pops in prop::collection::vec(any::<bool>(), 1..300),
    ) {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut reference = RefQueue::default();
        let mut payload = 0u64;
        let mut last = Tick::ZERO;
        let mut pop_iter = pops.iter().cycle();
        for &t in &ticks {
            let tick = last + Tick::from_ps(t * 500); // many pushes share ticks
            payload += 1;
            q.push(tick, payload);
            reference.push(tick, payload);
            if *pop_iter.next().unwrap() {
                let popped = q.pop();
                prop_assert_eq!(popped, reference.pop());
                last = popped.expect("just pushed").0;
            }
            prop_assert_eq!(q.peek_tick(), reference.heap.peek().map(|e| e.tick));
        }
        loop {
            let (c, r) = (q.pop(), reference.pop());
            prop_assert_eq!(c, r);
            if c.is_none() { break; }
        }
    }
}

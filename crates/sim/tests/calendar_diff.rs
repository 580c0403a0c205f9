//! Differential suite: the radix-heap [`EventQueue`] must pop in
//! byte-identical order to a reference `BinaryHeap` over `(tick, push
//! sequence)`, under random interleavings of pushes and pops at both
//! clustered (same few ticks) and far-apart ticks. Every push honours
//! the queue's contract: no tick below the last popped one.

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

/// Decodes `(sel, a, b)` triples into ops, with every tick at or after
/// `last`, the last popped tick (the queue's contract). Offsets mix the
/// scales a radix level spans: the same or nearly the same tick, a few
/// ns, µs, tens of µs and far-future ms, plus ticks one either side of a
/// digit or power-of-two boundary above `last`, where carries cross
/// radix levels.
fn decode(sel: u8, a: u64, b: u64, last: u64) -> Op {
    let tick = match a % 7 {
        0 => last + b % 16,                        // same tick or the lowest digit
        1 => last + b % 8_000,                     // a few ns
        2 => last + b % 2_000_000,                 // µs
        3 => last + b % 40_000_000,                // tens of µs
        4 => last + 1_000_000_000 + b % 1_000_000, // far future
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

fn run_differential(script: &[(u8, u64, u64)]) -> Result<(), String> {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut reference = RefQueue::default();
    let mut payload = 0u64;
    let mut last = 0u64;
    for (i, &(sel, a, b)) in script.iter().enumerate() {
        let popped = match decode(sel, a, b, last) {
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

//! In-memory object-graph layout of protobuf messages.
//!
//! Serialization offload reads the host-resident message objects
//! field-by-field. The access pattern depends on how the object graph is
//! laid out: a flat message's fields sit contiguously, while nested
//! messages are separate heap allocations reached by pointer chasing —
//! "analogous to pointer chasing, incurring significant cumulative
//! overhead during (de)serialization" (paper §V-B). This module assigns
//! heap addresses to a [`MessageValue`] tree and produces the
//! line-granular read stream the serializer issues.

use protowire::{MessageValue, Value};
use simcxl_mem::{PhysAddr, CACHELINE_BYTES};

/// A simple heap model: bump allocation with pseudo-random placement
/// noise to mimic fragmentation (child allocations rarely end up
/// adjacent to their parent in long-running services).
#[derive(Debug)]
struct Heap {
    base: u64,
    cursor: u64,
    scatter: u64,
}

/// Root messages are slab-allocated in slots of this alignment, so
/// successive responses sit at a regular stride without sharing lines.
const SLOT_ALIGN: u64 = 2 * CACHELINE_BYTES;
/// Nested objects land in a far heap window (fragmented old heap).
const SCATTER_WINDOW: u64 = 256 << 20;

impl Heap {
    /// An allocation adjacent to the previous one (fields and string
    /// payloads created together stay together).
    fn alloc(&mut self, bytes: u64) -> u64 {
        let addr = (self.base + self.cursor + 7) & !7;
        self.cursor = (addr - self.base) + bytes;
        addr
    }

    /// Aligns the cursor up to the next slab slot (new root message).
    fn align_slot(&mut self) {
        self.cursor = self.cursor.div_ceil(SLOT_ALIGN) * SLOT_ALIGN;
    }

    /// A hash-derived cursor for a separately heap-allocated child
    /// object: pointer chasing into a fragmented far window.
    fn scattered_cursor(&mut self) -> u64 {
        self.scatter = self
            .scatter
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (SCATTER_WINDOW + ((self.scatter >> 24) % SCATTER_WINDOW)) & !(CACHELINE_BYTES - 1)
    }
}

/// A persistent heap arena: successive messages allocate consecutively
/// (as in a per-connection response buffer), so stride streams continue
/// across message boundaries while nested objects still scatter.
#[derive(Debug)]
pub(crate) struct StreamArena {
    heap: Heap,
}

impl StreamArena {
    /// Creates an arena at `base` with fragmentation seed `seed`.
    pub(crate) fn new(base: PhysAddr, seed: u64) -> Self {
        StreamArena {
            heap: Heap {
                base: base.raw(),
                cursor: 0,
                scatter: seed | 1,
            },
        }
    }

    /// Lays out one message and replaces `lines` with its line-granular
    /// read stream (the caller's buffer is reused across messages).
    pub(crate) fn stream_into(&mut self, msg: &MessageValue, lines: &mut Vec<PhysAddr>) {
        self.heap.align_slot();
        lines.clear();
        place(msg, &mut self.heap, lines);
    }
}

fn push_span(lines: &mut Vec<PhysAddr>, start: u64, bytes: u64) {
    let first = start & !(CACHELINE_BYTES - 1);
    let last = (start + bytes.max(1) - 1) & !(CACHELINE_BYTES - 1);
    let mut line = first;
    loop {
        lines.push(PhysAddr::new(line));
        if line == last {
            break;
        }
        line += CACHELINE_BYTES;
    }
}

fn place(msg: &MessageValue, heap: &mut Heap, lines: &mut Vec<PhysAddr>) {
    // The node's scalar block: 8 B per field slot (scalars inline;
    // strings and children as pointers).
    let slots = msg.fields.len() as u64;
    let node = heap.alloc(slots * 8);
    push_span(lines, node, slots * 8);
    for (_, v) in &msg.fields {
        match v {
            Value::Str(s) => {
                let a = heap.alloc(s.len() as u64);
                push_span(lines, a, s.len() as u64);
            }
            Value::Bytes(b) => {
                let a = heap.alloc(b.len() as u64);
                push_span(lines, a, b.len() as u64);
            }
            Value::Message(m) => {
                // Pointer chase: the child is its own heap allocation in
                // the fragmented window; its own fields stay contiguous.
                let saved = heap.cursor;
                heap.cursor = heap.scattered_cursor();
                place(m, heap, lines);
                heap.cursor = saved;
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protowire::{genbench, BenchId};

    /// The serializer's read stream over one message: each entry is one
    /// 64 B line fetch, in traversal order.
    fn serialize_read_stream(msg: &MessageValue, base: PhysAddr, seed: u64) -> Vec<PhysAddr> {
        let mut lines = Vec::new();
        StreamArena::new(base, seed).stream_into(msg, &mut lines);
        lines
    }

    /// Fraction of stream entries that repeat or continue the previous
    /// line (+64 B): a cheap sequentiality metric.
    fn sequentiality(stream: &[PhysAddr]) -> f64 {
        if stream.len() < 2 {
            return 1.0;
        }
        let seq = stream
            .windows(2)
            .filter(|w| {
                let d = w[1].raw() as i64 - w[0].raw() as i64;
                (0..=CACHELINE_BYTES as i64).contains(&d)
            })
            .count();
        seq as f64 / (stream.len() - 1) as f64
    }

    fn stream_for(id: BenchId) -> (Vec<PhysAddr>, usize) {
        let w = genbench::generate(id, 3);
        let mut all = Vec::new();
        let mut msgs = 0;
        for (i, m) in w.messages.iter().take(50).enumerate() {
            all.extend(serialize_read_stream(
                m,
                PhysAddr::new((0x1000_0000 + (i as u64)) << 24),
                i as u64,
            ));
            msgs += 1;
        }
        (all, msgs)
    }

    #[test]
    fn stream_is_line_aligned_and_nonempty() {
        let (s, _) = stream_for(BenchId::Bench0);
        assert!(!s.is_empty());
        assert!(s.iter().all(|a| a.is_line_aligned()));
    }

    #[test]
    fn flat_benches_are_more_sequential_than_nested() {
        let (b1, _) = stream_for(BenchId::Bench1);
        let (b2, _) = stream_for(BenchId::Bench2);
        let s1 = sequentiality(&b1);
        let s2 = sequentiality(&b2);
        assert!(
            s1 > s2,
            "flat Bench1 ({s1:.2}) should be more sequential than nested Bench2 ({s2:.2})"
        );
    }

    #[test]
    fn large_strings_dominate_bench5_lines() {
        let w = genbench::generate(BenchId::Bench5, 3);
        let m = &w.messages[0];
        let s = serialize_read_stream(m, PhysAddr::new(0x4000_0000), 1);
        // A multi-KB message covers many lines.
        assert!(s.len() as u64 > m.payload_bytes() / CACHELINE_BYTES / 2);
    }

    #[test]
    fn layout_is_deterministic() {
        let w = genbench::generate(BenchId::Bench3, 3);
        let a = serialize_read_stream(&w.messages[0], PhysAddr::new(0x100000), 9);
        let b = serialize_read_stream(&w.messages[0], PhysAddr::new(0x100000), 9);
        assert_eq!(a, b);
    }
}

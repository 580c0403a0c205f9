//! HyperProtoBench-like workload generation.
//!
//! HyperProtoBench distills Google-fleet protobuf usage into six
//! benchmarks with distinct message shapes. Its sources are not available
//! offline, so each [`BenchId`] encodes the shape properties the paper's
//! analysis depends on (§V-B, §VI-E): Bench1 is dominated by small scalar
//! fields (the best case for fine-grained CXL writes), Bench2 by deep
//! nesting (the worst case for the RPC prefetcher), Bench5 by large
//! string fields (the best case for bulk DMA), with the others mixed.

use crate::schema::{FieldDescriptor, FieldType, MessageDescriptor, MessageRef, Schema};
use crate::value::{MessageValue, Value};
use sim_core::SimRng;

/// The six HyperProtoBench-like benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchId {
    /// Mixed baseline.
    Bench0,
    /// Small scalar fields, shallow.
    Bench1,
    /// Deeply nested submessages (10+ levels).
    Bench2,
    /// Moderate nesting, medium strings.
    Bench3,
    /// Larger mixed messages with bytes blobs.
    Bench4,
    /// Large string fields (KBs).
    Bench5,
}

impl BenchId {
    /// All six in order.
    pub fn all() -> [BenchId; 6] {
        [
            BenchId::Bench0,
            BenchId::Bench1,
            BenchId::Bench2,
            BenchId::Bench3,
            BenchId::Bench4,
            BenchId::Bench5,
        ]
    }

    /// Display label used in figures.
    pub fn label(self) -> &'static str {
        match self {
            BenchId::Bench0 => "Bench0",
            BenchId::Bench1 => "Bench1",
            BenchId::Bench2 => "Bench2",
            BenchId::Bench3 => "Bench3",
            BenchId::Bench4 => "Bench4",
            BenchId::Bench5 => "Bench5",
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Profile {
    /// Scalar fields per message level.
    scalars: u32,
    /// String fields per message level.
    strings: u32,
    /// String length range (lo, hi).
    string_len: (u64, u64),
    /// Nesting depth of the schema.
    depth: u32,
    /// Nested submessages per level.
    children: u32,
    /// Messages in the workload.
    count: u32,
}

fn profile(id: BenchId) -> Profile {
    match id {
        BenchId::Bench0 => Profile {
            scalars: 6,
            strings: 2,
            string_len: (16, 128),
            depth: 3,
            children: 1,
            count: 1800,
        },
        BenchId::Bench1 => Profile {
            scalars: 10,
            strings: 1,
            string_len: (4, 16),
            depth: 1,
            children: 1,
            count: 15000,
        },
        BenchId::Bench2 => Profile {
            scalars: 3,
            strings: 1,
            string_len: (8, 32),
            depth: 12,
            children: 1,
            count: 2000,
        },
        BenchId::Bench3 => Profile {
            scalars: 5,
            strings: 2,
            string_len: (32, 256),
            depth: 4,
            children: 1,
            count: 800,
        },
        BenchId::Bench4 => Profile {
            scalars: 8,
            strings: 3,
            string_len: (64, 512),
            depth: 3,
            children: 2,
            count: 160,
        },
        BenchId::Bench5 => Profile {
            scalars: 2,
            strings: 2,
            string_len: (2048, 8192),
            depth: 2,
            children: 1,
            count: 50,
        },
    }
}

/// A generated workload: schema plus message instances.
#[derive(Debug, Clone)]
pub struct BenchWorkload {
    /// Which benchmark this is.
    pub id: BenchId,
    /// The compiled schema (the NIC's schema table).
    pub schema: Schema,
    /// Message instances.
    pub messages: Vec<MessageValue>,
}

impl BenchWorkload {
    /// Total wire bytes over all messages.
    pub fn total_wire_bytes(&self) -> u64 {
        self.messages
            .iter()
            .map(|m| crate::encode::encoded_len(m) as u64)
            .sum()
    }

    /// Total fields over all messages (nested included).
    pub fn total_fields(&self) -> u64 {
        self.messages.iter().map(MessageValue::total_fields).sum()
    }

    /// Mean message depth.
    pub fn mean_depth(&self) -> f64 {
        self.messages.iter().map(|m| m.depth() as f64).sum::<f64>() / self.messages.len() as f64
    }

    /// Mean wire size per message in bytes.
    pub fn mean_wire_bytes(&self) -> f64 {
        self.total_wire_bytes() as f64 / self.messages.len() as f64
    }
}

fn build_schema(p: Profile) -> Schema {
    let mut messages = Vec::new();
    for level in 0..p.depth {
        let mut fields = Vec::new();
        let mut number = 1;
        for s in 0..p.scalars {
            fields.push(FieldDescriptor {
                number,
                name: format!("scalar{s}"),
                ty: if s % 3 == 0 {
                    FieldType::UInt64
                } else if s % 3 == 1 {
                    FieldType::SInt64
                } else {
                    FieldType::Fixed64
                },
                repeated: false,
            });
            number += 1;
        }
        for s in 0..p.strings {
            fields.push(FieldDescriptor {
                number,
                name: format!("str{s}"),
                ty: FieldType::Str,
                repeated: false,
            });
            number += 1;
        }
        if level + 1 < p.depth {
            fields.push(FieldDescriptor {
                number,
                name: "child".into(),
                ty: FieldType::Message(MessageRef(level as usize + 1)),
                repeated: p.children > 1,
            });
        }
        messages.push(MessageDescriptor {
            name: format!("L{level}"),
            fields,
        });
    }
    Schema::new(messages, MessageRef(0))
}

fn build_message(p: Profile, level: u32, rng: &mut SimRng) -> MessageValue {
    let children = if level + 1 < p.depth { p.children } else { 0 };
    let mut m = MessageValue {
        fields: Vec::with_capacity((p.scalars + p.strings + children) as usize),
    };
    let mut number = 1;
    for s in 0..p.scalars {
        let v = rng.below(1 << 20);
        let value = if s % 3 == 0 {
            Value::UInt64(v)
        } else if s % 3 == 1 {
            Value::SInt64(v as i64 - (1 << 19))
        } else {
            Value::Fixed64(v)
        };
        m.push(number, value);
        number += 1;
    }
    for _ in 0..p.strings {
        let len = rng.range(p.string_len.0, p.string_len.1 + 1) as usize;
        let mut s = String::with_capacity(len);
        s.extend((0..len).map(|_| char::from(b'a' + (rng.below(26) as u8))));
        m.push(number, Value::Str(s));
        number += 1;
    }
    for _ in 0..children {
        m.push(number, Value::Message(build_message(p, level + 1, rng)));
    }
    m
}

/// The seed of every workload Fig. 18 times. `all_benches_round_trip`
/// checks the wire encoding of exactly these messages, which is what
/// lets the RPC models take wire lengths from `encoded_len`.
pub const FIG18_SEED: u64 = 7;

/// Generates the workload for `id` from `seed` (deterministic).
pub fn generate(id: BenchId, seed: u64) -> BenchWorkload {
    let p = profile(id);
    let schema = build_schema(p);
    let mut rng = SimRng::new(seed ^ (id as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let messages = (0..p.count)
        .map(|_| build_message(p, 0, &mut rng))
        .collect();
    BenchWorkload {
        id,
        schema,
        messages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encoded_len;
    use crate::{decode, encode};

    /// Every message Fig. 18 times ([`FIG18_SEED`], all six benches at
    /// full size) conforms, survives an encode/decode round trip, and
    /// encodes to exactly `encoded_len` bytes.
    #[test]
    fn all_benches_round_trip() {
        for id in BenchId::all() {
            let w = generate(id, FIG18_SEED);
            for (i, m) in w.messages.iter().enumerate() {
                assert!(
                    m.conforms(&w.schema, w.schema.root()),
                    "{id:?} message {i} nonconforming"
                );
                let bytes = encode(&w.schema, m);
                assert_eq!(bytes.len(), encoded_len(m), "{id:?} message {i} length");
                let back = decode(&w.schema, &bytes).expect("decodes");
                assert_eq!(*m, back, "{id:?} message {i} round trip");
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(BenchId::Bench3, 11);
        let b = generate(BenchId::Bench3, 11);
        assert_eq!(a.messages, b.messages);
        let c = generate(BenchId::Bench3, 12);
        assert_ne!(a.messages, c.messages);
    }

    #[test]
    fn bench1_is_small_fields() {
        let w = generate(BenchId::Bench1, 7);
        assert!(
            w.mean_wire_bytes() < 250.0,
            "Bench1 messages should be small"
        );
        let per_field = w.total_wire_bytes() as f64 / w.total_fields() as f64;
        assert!(
            per_field < 16.0,
            "Bench1 fields should be tiny: {per_field}"
        );
    }

    #[test]
    fn bench2_is_deeply_nested() {
        let w = generate(BenchId::Bench2, 7);
        assert!(w.mean_depth() >= 10.0, "Bench2 depth {}", w.mean_depth());
        for other in [BenchId::Bench0, BenchId::Bench1, BenchId::Bench5] {
            assert!(generate(other, 7).mean_depth() < 5.0);
        }
    }

    #[test]
    fn bench5_is_large_strings() {
        let w = generate(BenchId::Bench5, 7);
        assert!(
            w.mean_wire_bytes() > 4000.0,
            "Bench5 should be KB-scale: {}",
            w.mean_wire_bytes()
        );
        let per_field = w.total_wire_bytes() as f64 / w.total_fields() as f64;
        assert!(
            per_field > 500.0,
            "Bench5 fields should be big: {per_field}"
        );
    }

    #[test]
    fn workloads_have_comparable_total_bytes() {
        // Total work per bench should be the same order of magnitude so
        // the Fig. 18 bars are comparable.
        let totals: Vec<u64> = BenchId::all()
            .iter()
            .map(|&id| generate(id, 7).total_wire_bytes())
            .collect();
        let min = *totals.iter().min().unwrap() as f64;
        let max = *totals.iter().max().unwrap() as f64;
        assert!(max / min < 2.0, "totals too spread: {totals:?}");
    }
}

//! Dynamic message values (the "in-memory C++ objects" of the paper's
//! schema-table description).

use crate::schema::{FieldType, MessageRef, Schema};

/// A dynamically-typed field value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// Signed varint.
    SInt64(i64),
    /// Unsigned varint.
    UInt64(u64),
    /// 8-byte fixed.
    Fixed64(u64),
    /// 4-byte fixed.
    Fixed32(u32),
    /// Boolean.
    Bool(bool),
    /// UTF-8 text.
    Str(String),
    /// Opaque bytes.
    Bytes(Vec<u8>),
    /// Nested message.
    Message(MessageValue),
}

impl Value {
    /// Whether the value matches a field type of `ty`.
    pub(crate) fn matches(&self, ty: FieldType) -> bool {
        matches!(
            (self, ty),
            (Value::SInt64(_), FieldType::SInt64)
                | (Value::UInt64(_), FieldType::UInt64)
                | (Value::Fixed64(_), FieldType::Fixed64)
                | (Value::Fixed32(_), FieldType::Fixed32)
                | (Value::Bool(_), FieldType::Bool)
                | (Value::Str(_), FieldType::Str)
                | (Value::Bytes(_), FieldType::Bytes)
                | (Value::Message(_), FieldType::Message(_))
        )
    }

    /// In-memory payload size in bytes (drives copy-cost models).
    pub(crate) fn payload_bytes(&self) -> u64 {
        match self {
            Value::SInt64(_) | Value::UInt64(_) | Value::Fixed64(_) => 8,
            Value::Fixed32(_) => 4,
            Value::Bool(_) => 1,
            Value::Str(s) => s.len() as u64,
            Value::Bytes(b) => b.len() as u64,
            Value::Message(m) => m.payload_bytes(),
        }
    }
}

/// A message instance: `(field_number, value)` pairs in encode order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MessageValue {
    /// Set fields in wire order; repeated fields appear multiple times.
    pub fields: Vec<(u32, Value)>,
}

impl MessageValue {
    /// Creates an empty message.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a field.
    pub fn push(&mut self, number: u32, value: Value) -> &mut Self {
        self.fields.push((number, value));
        self
    }

    /// First value of field `number`.
    pub fn get(&self, number: u32) -> Option<&Value> {
        self.fields
            .iter()
            .find(|(n, _)| *n == number)
            .map(|(_, v)| v)
    }

    /// Total number of fields, counting nested messages recursively.
    pub fn total_fields(&self) -> u64 {
        self.fields
            .iter()
            .map(|(_, v)| match v {
                Value::Message(m) => 1 + m.total_fields(),
                _ => 1,
            })
            .sum()
    }

    /// Maximum nesting depth of this instance.
    pub(crate) fn depth(&self) -> usize {
        1 + self
            .fields
            .iter()
            .filter_map(|(_, v)| match v {
                Value::Message(m) => Some(m.depth()),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// Sum of payload bytes over all fields (recursively).
    pub fn payload_bytes(&self) -> u64 {
        self.fields.iter().map(|(_, v)| v.payload_bytes()).sum()
    }

    /// Checks the instance against a schema type.
    pub(crate) fn conforms(&self, schema: &Schema, r: MessageRef) -> bool {
        let desc = schema.message(r);
        self.fields.iter().all(|(n, v)| {
            desc.field(*n).is_some_and(|f| {
                v.matches(f.ty)
                    && match (v, f.ty) {
                        (Value::Message(m), FieldType::Message(nested)) => {
                            m.conforms(schema, nested)
                        }
                        _ => true,
                    }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MessageValue {
        let mut inner = MessageValue::new();
        inner.push(1, Value::UInt64(5));
        let mut m = MessageValue::new();
        m.push(1, Value::Str("hello".into()))
            .push(2, Value::Message(inner))
            .push(3, Value::Bool(true));
        m
    }

    #[test]
    fn counting() {
        let m = sample();
        assert_eq!(m.total_fields(), 4);
        assert_eq!(m.depth(), 2);
        assert_eq!(m.payload_bytes(), 5 + 8 + 1);
    }

    #[test]
    fn get_finds_first() {
        let m = sample();
        assert_eq!(m.get(3), Some(&Value::Bool(true)));
        assert_eq!(m.get(9), None);
    }

    #[test]
    fn type_matching() {
        assert!(Value::UInt64(1).matches(FieldType::UInt64));
        assert!(!Value::UInt64(1).matches(FieldType::SInt64));
        assert!(Value::Str("x".into()).matches(FieldType::Str));
        assert!(Value::Message(MessageValue::new()).matches(FieldType::Message(MessageRef(0))));
    }

    #[test]
    fn deep_nesting_depth() {
        let mut m = MessageValue::new();
        for _ in 0..10 {
            let mut outer = MessageValue::new();
            outer.push(1, Value::Message(m));
            m = outer;
        }
        assert_eq!(m.depth(), 11);
    }
}

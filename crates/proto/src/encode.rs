//! Wire-format encoding (serialization).

use crate::schema::Schema;
use crate::value::{MessageValue, Value};
use crate::wire::{put_tag, put_varint, zigzag, WireType};

/// Serializes `msg` against `schema`'s root type.
///
/// # Panics
///
/// Panics if the message does not conform to the schema (the
/// generator always produces conforming messages).
pub fn encode(schema: &Schema, msg: &MessageValue) -> Vec<u8> {
    debug_assert!(
        msg.conforms(schema, schema.root()),
        "non-conforming message"
    );
    let mut buf = Vec::new();
    encode_into(msg, &mut buf);
    buf
}

fn encode_into(msg: &MessageValue, buf: &mut Vec<u8>) {
    for (number, value) in &msg.fields {
        match value {
            Value::SInt64(v) => {
                put_tag(buf, *number, WireType::Varint);
                put_varint(buf, zigzag(*v));
            }
            Value::UInt64(v) => {
                put_tag(buf, *number, WireType::Varint);
                put_varint(buf, *v);
            }
            Value::Bool(v) => {
                put_tag(buf, *number, WireType::Varint);
                put_varint(buf, u64::from(*v));
            }
            Value::Fixed64(v) => {
                put_tag(buf, *number, WireType::Fixed64);
                buf.extend_from_slice(&v.to_le_bytes());
            }
            Value::Fixed32(v) => {
                put_tag(buf, *number, WireType::Fixed32);
                buf.extend_from_slice(&v.to_le_bytes());
            }
            Value::Str(s) => {
                put_tag(buf, *number, WireType::LengthDelimited);
                put_varint(buf, s.len() as u64);
                buf.extend_from_slice(s.as_bytes());
            }
            Value::Bytes(b) => {
                put_tag(buf, *number, WireType::LengthDelimited);
                put_varint(buf, b.len() as u64);
                buf.extend_from_slice(b);
            }
            Value::Message(m) => {
                put_tag(buf, *number, WireType::LengthDelimited);
                let mut inner = Vec::new();
                encode_into(m, &mut inner);
                put_varint(buf, inner.len() as u64);
                buf.extend_from_slice(&inner);
            }
        }
    }
}

/// Encoded size without producing the bytes (pre-serialization sizing,
/// as the RpcNIC DSA gather path needs).
pub fn encoded_len(msg: &MessageValue) -> usize {
    use crate::wire::varint_len;
    let mut n = 0;
    for (number, value) in &msg.fields {
        n += varint_len((*number as u64) << 3);
        n += match value {
            Value::SInt64(v) => varint_len(zigzag(*v)),
            Value::UInt64(v) => varint_len(*v),
            Value::Bool(_) => 1,
            Value::Fixed64(_) => 8,
            Value::Fixed32(_) => 4,
            Value::Str(s) => varint_len(s.len() as u64) + s.len(),
            Value::Bytes(b) => varint_len(b.len() as u64) + b.len(),
            Value::Message(m) => {
                let inner = encoded_len(m);
                varint_len(inner as u64) + inner
            }
        };
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{FieldDescriptor, FieldType, MessageDescriptor, MessageRef};

    fn schema() -> Schema {
        let inner = MessageDescriptor {
            name: "Inner".into(),
            fields: vec![FieldDescriptor {
                number: 1,
                name: "v".into(),
                ty: FieldType::UInt64,
                repeated: false,
            }],
        };
        let root = MessageDescriptor {
            name: "Root".into(),
            fields: vec![
                FieldDescriptor {
                    number: 1,
                    name: "id".into(),
                    ty: FieldType::UInt64,
                    repeated: false,
                },
                FieldDescriptor {
                    number: 2,
                    name: "name".into(),
                    ty: FieldType::Str,
                    repeated: false,
                },
                FieldDescriptor {
                    number: 3,
                    name: "inner".into(),
                    ty: FieldType::Message(MessageRef(1)),
                    repeated: false,
                },
            ],
        };
        Schema::new(vec![root, inner], MessageRef(0))
    }

    #[test]
    fn known_encoding() {
        let s = schema();
        let mut m = MessageValue::new();
        m.push(1, Value::UInt64(150));
        let bytes = encode(&s, &m);
        // field 1 varint: tag 0x08, varint 150 = 0x96 0x01 (protobuf docs example).
        assert_eq!(bytes, vec![0x08, 0x96, 0x01]);
    }

    #[test]
    fn string_encoding() {
        let s = schema();
        let mut m = MessageValue::new();
        m.push(2, Value::Str("testing".into()));
        let bytes = encode(&s, &m);
        assert_eq!(bytes[0], 0x12); // field 2, wire type 2
        assert_eq!(bytes[1], 7);
        assert_eq!(&bytes[2..], b"testing");
    }

    #[test]
    fn nested_encoding_length_prefixed() {
        let s = schema();
        let mut inner = MessageValue::new();
        inner.push(1, Value::UInt64(3));
        let mut m = MessageValue::new();
        m.push(3, Value::Message(inner));
        let bytes = encode(&s, &m);
        assert_eq!(bytes[0], 0x1a); // field 3, wire type 2
        assert_eq!(bytes[1], 2); // inner is two bytes: 0x08 0x03
        assert_eq!(&bytes[2..], &[0x08, 0x03]);
    }

    #[test]
    fn encoded_len_matches_encode() {
        let s = schema();
        let mut inner = MessageValue::new();
        inner.push(1, Value::UInt64(u64::MAX));
        let mut m = MessageValue::new();
        m.push(1, Value::UInt64(7))
            .push(2, Value::Str("abcdef".into()))
            .push(3, Value::Message(inner));
        assert_eq!(encoded_len(&m), encode(&s, &m).len());
    }
}

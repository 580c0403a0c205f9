//! Message schemas: the compiled form of a `.proto` file.
//!
//! The paper's NIC designs keep "message structure metadata in a schema
//! table, which guides message fields to decode in in-memory C++ objects
//! or encode them into binary sequences" (§V-B1). [`Schema`] is that
//! table.

use std::fmt;

/// Index of a message type within a [`Schema`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MessageRef(pub usize);

/// Protobuf field types (subset covering HyperProtoBench usage).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FieldType {
    /// Varint signed (zigzag).
    SInt64,
    /// Varint unsigned.
    UInt64,
    /// 8-byte fixed.
    Fixed64,
    /// 4-byte fixed.
    Fixed32,
    /// Varint boolean.
    Bool,
    /// Length-delimited UTF-8 text.
    Str,
    /// Length-delimited opaque bytes.
    Bytes,
    /// Length-delimited nested message.
    Message(MessageRef),
}

impl FieldType {
    /// Whether the type is length-delimited on the wire.
    pub(crate) fn is_length_delimited(self) -> bool {
        matches!(
            self,
            FieldType::Str | FieldType::Bytes | FieldType::Message(_)
        )
    }
}

/// One field of a message type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDescriptor {
    /// Field number (unique within the message).
    pub number: u32,
    /// Field name (diagnostics only).
    pub name: String,
    /// Field type.
    pub ty: FieldType,
    /// Whether the field may repeat.
    pub repeated: bool,
}

/// One message type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MessageDescriptor {
    /// Type name.
    pub name: String,
    /// Fields in declaration order.
    pub fields: Vec<FieldDescriptor>,
}

impl MessageDescriptor {
    /// Finds a field by number.
    pub(crate) fn field(&self, number: u32) -> Option<&FieldDescriptor> {
        self.fields.iter().find(|f| f.number == number)
    }
}

/// A compiled schema: message types plus the root type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    messages: Vec<MessageDescriptor>,
    root: MessageRef,
}

impl Schema {
    /// Builds a schema.
    ///
    /// # Panics
    ///
    /// Panics if `root` or any `Message` field reference is out of range,
    /// or a message has duplicate field numbers.
    pub fn new(messages: Vec<MessageDescriptor>, root: MessageRef) -> Self {
        assert!(root.0 < messages.len(), "root out of range");
        for m in &messages {
            for (i, f) in m.fields.iter().enumerate() {
                if let FieldType::Message(r) = f.ty {
                    assert!(r.0 < messages.len(), "dangling message ref in {}", m.name);
                }
                for g in &m.fields[i + 1..] {
                    assert_ne!(
                        f.number, g.number,
                        "duplicate field {} in {}",
                        f.number, m.name
                    );
                }
            }
        }
        Schema { messages, root }
    }

    /// The root message type.
    pub(crate) fn root(&self) -> MessageRef {
        self.root
    }

    /// Resolves a message reference.
    pub(crate) fn message(&self, r: MessageRef) -> &MessageDescriptor {
        &self.messages[r.0]
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for m in &self.messages {
            writeln!(f, "message {} {{", m.name)?;
            for fd in &m.fields {
                writeln!(
                    f,
                    "  {}{:?} {} = {};",
                    if fd.repeated { "repeated " } else { "" },
                    fd.ty,
                    fd.name,
                    fd.number
                )?;
            }
            writeln!(f, "}}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic]
    fn duplicate_field_numbers_rejected() {
        let m = MessageDescriptor {
            name: "Bad".into(),
            fields: vec![
                FieldDescriptor {
                    number: 1,
                    name: "a".into(),
                    ty: FieldType::Bool,
                    repeated: false,
                },
                FieldDescriptor {
                    number: 1,
                    name: "b".into(),
                    ty: FieldType::Bool,
                    repeated: false,
                },
            ],
        };
        let _ = Schema::new(vec![m], MessageRef(0));
    }

    #[test]
    fn length_delimited_classification() {
        assert!(FieldType::Str.is_length_delimited());
        assert!(FieldType::Bytes.is_length_delimited());
        assert!(FieldType::Message(MessageRef(0)).is_length_delimited());
        assert!(!FieldType::UInt64.is_length_delimited());
        assert!(!FieldType::Fixed32.is_length_delimited());
    }
}

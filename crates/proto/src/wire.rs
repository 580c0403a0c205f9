//! Low-level protobuf wire primitives: varints, zigzag, tags.

/// Wire types from the protobuf encoding spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum WireType {
    /// Varint-encoded scalar.
    Varint = 0,
    /// Little-endian 8-byte scalar.
    Fixed64 = 1,
    /// Length-delimited: strings, bytes, nested messages.
    LengthDelimited = 2,
    /// Little-endian 4-byte scalar.
    Fixed32 = 5,
}

impl WireType {
    /// Decodes the low three bits of a tag.
    pub(crate) fn from_bits(bits: u64) -> Option<WireType> {
        match bits {
            0 => Some(WireType::Varint),
            1 => Some(WireType::Fixed64),
            2 => Some(WireType::LengthDelimited),
            5 => Some(WireType::Fixed32),
            _ => None,
        }
    }
}

/// Appends a base-128 varint.
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Reads a varint; returns `(value, bytes_consumed)`.
pub fn get_varint(buf: &[u8]) -> Option<(u64, usize)> {
    let mut v = 0u64;
    for (i, &b) in buf.iter().enumerate().take(10) {
        v |= ((b & 0x7f) as u64) << (7 * i);
        if b & 0x80 == 0 {
            return Some((v, i + 1));
        }
    }
    None
}

/// Zigzag-encodes a signed integer (sint32/sint64).
pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Reverses [`zigzag`].
pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Encodes a field tag.
pub(crate) fn put_tag(buf: &mut Vec<u8>, field: u32, wt: WireType) {
    put_varint(buf, ((field as u64) << 3) | wt as u64);
}

/// Decodes a field tag; returns `(field, wire_type, bytes_consumed)`.
pub(crate) fn get_tag(buf: &[u8]) -> Option<(u32, WireType, usize)> {
    let (raw, n) = get_varint(buf)?;
    let wt = WireType::from_bits(raw & 7)?;
    Some(((raw >> 3) as u32, wt, n))
}

/// Size in bytes of a varint encoding of `v`.
pub(crate) fn varint_len(v: u64) -> usize {
    if v == 0 {
        1
    } else {
        (64 - v.leading_zeros() as usize).div_ceil(7)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trip() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v), "length mismatch for {v}");
            let (back, n) = get_varint(&buf).unwrap();
            assert_eq!(back, v);
            assert_eq!(n, buf.len());
        }
    }

    #[test]
    fn varint_known_encodings() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 300);
        assert_eq!(buf, vec![0xac, 0x02]);
    }

    #[test]
    fn truncated_varint_fails() {
        assert_eq!(get_varint(&[0x80]), None);
        assert_eq!(get_varint(&[]), None);
    }

    #[test]
    fn zigzag_round_trip() {
        for v in [0i64, -1, 1, -2, 2, i64::MIN, i64::MAX, -123_456_789] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn tag_round_trip() {
        let mut buf = Vec::new();
        put_tag(&mut buf, 15, WireType::LengthDelimited);
        let (f, wt, n) = get_tag(&buf).unwrap();
        assert_eq!((f, wt, n), (15, WireType::LengthDelimited, 1));
        let mut buf = Vec::new();
        put_tag(&mut buf, 1000, WireType::Varint);
        let (f, wt, _) = get_tag(&buf).unwrap();
        assert_eq!((f, wt), (1000, WireType::Varint));
    }

    #[test]
    fn bad_wire_type_rejected() {
        // Tag with wire type 3 (deprecated group start).
        assert_eq!(get_tag(&[0x0b]), None);
    }
}

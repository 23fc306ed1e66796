//! The wire encoding — a compact, self-describing stand-in for Clarens'
//! XML-RPC payloads.
//!
//! Every value encodes to a tagged, length-prefixed byte string via the
//! `bytes` crate. The byte counts feed `simnet`'s transfer model, so the
//! encoding is honest about size even though no socket is involved.

use crate::{ClarensError, Result};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// How many lists deep a decoded value may nest. What mediators send nests
/// a handful of levels (a batch of replies, each `[[columns, rows], stats,
/// spans]`); the limit keeps a hostile payload from recursing the decoder
/// off its thread's stack.
const MAX_NESTING: usize = 64;

/// The most slots a decoder reserves up front for one list or grid; a
/// longer one grows as its items arrive.
const MAX_RESERVE: usize = 1 << 12;

/// Slots to reserve for `n` items of at least `min_bytes` each: no more
/// than the bytes left in `buf` could hold, whatever count the payload
/// claims.
fn reserve(n: usize, min_bytes: usize, buf: &Bytes) -> usize {
    n.min(buf.remaining() / min_bytes).min(MAX_RESERVE)
}

/// A wire value: the parameter/result vocabulary of the RPC layer.
#[derive(Debug, Clone, PartialEq)]
pub enum WireValue {
    /// No value.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// A list of values.
    List(Vec<WireValue>),
    /// A 2-D grid of strings — the paper's "single 2-D vector" result form.
    Grid(Vec<Vec<String>>),
}

impl WireValue {
    /// Encode to bytes.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        self.write(&mut buf);
        buf.freeze()
    }

    fn write(&self, buf: &mut BytesMut) {
        match self {
            WireValue::Null => buf.put_u8(b'n'),
            WireValue::Bool(b) => {
                buf.put_u8(b'b');
                buf.put_u8(u8::from(*b));
            }
            WireValue::Int(i) => {
                buf.put_u8(b'i');
                buf.put_i64(*i);
            }
            WireValue::Float(x) => {
                buf.put_u8(b'f');
                buf.put_f64(*x);
            }
            WireValue::Str(s) => {
                buf.put_u8(b's');
                buf.put_u32(s.len() as u32);
                buf.put_slice(s.as_bytes());
            }
            WireValue::List(items) => {
                buf.put_u8(b'l');
                buf.put_u32(items.len() as u32);
                for item in items {
                    item.write(buf);
                }
            }
            WireValue::Grid(rows) => {
                buf.put_u8(b'g');
                buf.put_u32(rows.len() as u32);
                for row in rows {
                    buf.put_u32(row.len() as u32);
                    for cell in row {
                        buf.put_u32(cell.len() as u32);
                        buf.put_slice(cell.as_bytes());
                    }
                }
            }
        }
    }

    /// Decode from bytes (must consume the buffer exactly). Whatever it
    /// accepts re-encodes to the same bytes; anything else — truncated,
    /// trailing, nested more than 64 lists deep, a bool byte other than 0
    /// or 1 — is a [`ClarensError::Codec`].
    pub fn decode(mut data: Bytes) -> Result<WireValue> {
        let v = Self::read(&mut data, 0)?;
        if data.has_remaining() {
            return Err(ClarensError::Codec("trailing bytes".into()));
        }
        Ok(v)
    }

    /// Read one value that sits inside `depth` lists.
    fn read(buf: &mut Bytes, depth: usize) -> Result<WireValue> {
        let short = || ClarensError::Codec("truncated value".into());
        if !buf.has_remaining() {
            return Err(short());
        }
        match buf.get_u8() {
            b'n' => Ok(WireValue::Null),
            b'b' => {
                if buf.remaining() < 1 {
                    return Err(short());
                }
                match buf.get_u8() {
                    0 => Ok(WireValue::Bool(false)),
                    1 => Ok(WireValue::Bool(true)),
                    other => Err(ClarensError::Codec(format!("bool byte 0x{other:02x}"))),
                }
            }
            b'i' => {
                if buf.remaining() < 8 {
                    return Err(short());
                }
                Ok(WireValue::Int(buf.get_i64()))
            }
            b'f' => {
                if buf.remaining() < 8 {
                    return Err(short());
                }
                Ok(WireValue::Float(buf.get_f64()))
            }
            b's' => Ok(WireValue::Str(read_string(buf)?)),
            b'l' => {
                if depth == MAX_NESTING {
                    let msg = format!("lists nested more than {MAX_NESTING} deep");
                    return Err(ClarensError::Codec(msg));
                }
                if buf.remaining() < 4 {
                    return Err(short());
                }
                let n = buf.get_u32() as usize;
                // Each item is at least its tag byte.
                let mut items = Vec::with_capacity(reserve(n, 1, buf));
                for _ in 0..n {
                    items.push(Self::read(buf, depth + 1)?);
                }
                Ok(WireValue::List(items))
            }
            b'g' => {
                if buf.remaining() < 4 {
                    return Err(short());
                }
                // Each row is at least its cell count, each cell its length.
                let nrows = buf.get_u32() as usize;
                let mut rows = Vec::with_capacity(reserve(nrows, 4, buf));
                for _ in 0..nrows {
                    if buf.remaining() < 4 {
                        return Err(short());
                    }
                    let ncols = buf.get_u32() as usize;
                    let mut row = Vec::with_capacity(reserve(ncols, 4, buf));
                    for _ in 0..ncols {
                        row.push(read_string(buf)?);
                    }
                    rows.push(row);
                }
                Ok(WireValue::Grid(rows))
            }
            other => Err(ClarensError::Codec(format!("unknown tag 0x{other:02x}"))),
        }
    }

    /// Encoded size in bytes — what crosses the simulated wire — counted
    /// from the value, nothing encoded: a tag byte, a 4-byte count or
    /// length per list, grid, row, string and cell, 8 bytes per number.
    pub fn wire_size(&self) -> usize {
        match self {
            WireValue::Null => 1,
            WireValue::Bool(_) => 2,
            WireValue::Int(_) | WireValue::Float(_) => 9,
            WireValue::Str(s) => 5 + s.len(),
            WireValue::List(items) => 5 + items.iter().map(WireValue::wire_size).sum::<usize>(),
            WireValue::Grid(rows) => {
                let row = |r: &Vec<String>| 4 + r.iter().map(|c| 4 + c.len()).sum::<usize>();
                5 + rows.iter().map(row).sum::<usize>()
            }
        }
    }

    /// Convenience accessor: string content.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            WireValue::Str(s) => Ok(s),
            other => Err(ClarensError::BadParams(format!(
                "expected string, got {other:?}"
            ))),
        }
    }

    /// Convenience accessor: integer content.
    pub fn as_int(&self) -> Result<i64> {
        match self {
            WireValue::Int(i) => Ok(*i),
            other => Err(ClarensError::BadParams(format!(
                "expected int, got {other:?}"
            ))),
        }
    }

    /// Convenience accessor: grid content.
    pub fn as_grid(&self) -> Result<&Vec<Vec<String>>> {
        match self {
            WireValue::Grid(g) => Ok(g),
            other => Err(ClarensError::BadParams(format!(
                "expected grid, got {other:?}"
            ))),
        }
    }
}

fn read_string(buf: &mut Bytes) -> Result<String> {
    if buf.remaining() < 4 {
        return Err(ClarensError::Codec("truncated string length".into()));
    }
    let len = buf.get_u32() as usize;
    if buf.remaining() < len {
        return Err(ClarensError::Codec("truncated string body".into()));
    }
    let bytes = buf.copy_to_bytes(len);
    String::from_utf8(bytes.to_vec())
        .map_err(|_| ClarensError::Codec("invalid UTF-8 in string".into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: WireValue) {
        let encoded = v.encode();
        let decoded = WireValue::decode(encoded).unwrap();
        assert_eq!(v, decoded);
    }

    #[test]
    fn scalars_round_trip() {
        round_trip(WireValue::Null);
        round_trip(WireValue::Bool(true));
        round_trip(WireValue::Int(-42));
        round_trip(WireValue::Float(2.5));
        round_trip(WireValue::Str("μ-tuple".into()));
    }

    #[test]
    fn nested_structures_round_trip() {
        round_trip(WireValue::List(vec![
            WireValue::Int(1),
            WireValue::List(vec![WireValue::Str("x".into()), WireValue::Null]),
        ]));
        round_trip(WireValue::Grid(vec![
            vec!["e_id".into(), "energy".into()],
            vec!["1".into(), "10.5".into()],
            vec![],
        ]));
    }

    #[test]
    fn truncated_input_rejected() {
        let enc = WireValue::Str("hello".into()).encode();
        for cut in [0, 1, 3, enc.len() - 1] {
            let sliced = enc.slice(0..cut);
            assert!(WireValue::decode(sliced).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut enc = WireValue::Int(1).encode().to_vec();
        enc.push(0);
        assert!(WireValue::decode(Bytes::from(enc)).is_err());
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(WireValue::decode(Bytes::from_static(b"zxy")).is_err());
    }

    /// `depth` one-item lists around a null.
    fn nested(depth: usize) -> Vec<u8> {
        let mut bytes = b"l\0\0\0\x01".repeat(depth);
        bytes.push(b'n');
        bytes
    }

    #[test]
    fn nesting_is_limited_with_a_typed_error() {
        let deepest = WireValue::decode(Bytes::from(nested(MAX_NESTING))).expect("at the limit");
        assert_eq!(deepest.encode()[..], nested(MAX_NESTING)[..]);
        for depth in [MAX_NESTING + 1, 20_000, 200_000] {
            match WireValue::decode(Bytes::from(nested(depth))) {
                Err(ClarensError::Codec(msg)) => assert!(msg.contains("nested"), "{msg}"),
                other => panic!("{depth} deep: {other:?}"),
            }
        }
    }

    #[test]
    fn a_bool_is_one_byte_of_0_or_1() {
        for (byte, want) in [(0, Some(false)), (1, Some(true)), (2, None), (0xff, None)] {
            let got = WireValue::decode(Bytes::from(vec![b'b', byte])).ok();
            assert_eq!(got, want.map(WireValue::Bool), "byte {byte}");
        }
    }

    #[test]
    fn a_claimed_count_reserves_no_more_than_the_bytes_left_could_hold() {
        let buf = Bytes::from_static(b"0123456789");
        assert_eq!(reserve(u32::MAX as usize, 1, &buf), 10);
        assert_eq!(reserve(u32::MAX as usize, 4, &buf), 2);
        assert_eq!(reserve(3, 1, &buf), 3);
        let big = Bytes::from(vec![0; 1 << 20]);
        assert_eq!(reserve(u32::MAX as usize, 1, &big), MAX_RESERVE);
    }

    #[test]
    fn wire_size_grows_with_payload() {
        let small = WireValue::Grid(vec![vec!["a".into()]]);
        let big = WireValue::Grid(vec![vec!["a".repeat(1000)]; 10]);
        assert!(big.wire_size() > small.wire_size() * 100);
    }

    #[test]
    fn accessors() {
        assert_eq!(WireValue::Str("x".into()).as_str().unwrap(), "x");
        assert_eq!(WireValue::Int(7).as_int().unwrap(), 7);
        assert!(WireValue::Null.as_grid().is_err());
        assert!(WireValue::Int(7).as_str().is_err());
    }
}

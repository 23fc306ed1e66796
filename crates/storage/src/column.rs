//! Column-major storage primitives: typed value chunks with null bitmaps
//! and dictionary-encoded strings.
//!
//! A [`ColumnChunk`] holds one column of a table in a dense, typed vector
//! (`Vec<i64>` / `Vec<f64>` / dictionary codes / …) plus a [`Bitmap`] of
//! null positions. The row-oriented [`crate::Table`] API is a façade over
//! these chunks; the vectorized executor in `gridfed-sqlkit` borrows them
//! directly and runs tight per-column loops over selection vectors.
//!
//! Invariants:
//! - A chunk stores exactly one [`DataType`]; values are schema-checked
//!   before they reach `push`, so `Int` chunks only ever see `Int`/`Null`
//!   (the schema widens `Int`→`Float` for `Float` columns on write).
//! - Null positions carry an arbitrary placeholder in the data vector
//!   (0 / 0.0 / dictionary code 0); readers must consult the null bitmap
//!   before trusting the data slot.
//! - String chunks are dictionary-encoded: the data vector holds `u32`
//!   codes into a shared, append-only dictionary. Deleting rows never
//!   shrinks the dictionary; `gather` (compaction) re-interns into a fresh
//!   one.

use crate::row::Row;
use crate::value::{DataType, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// A bit-packed bitmap over row positions. Used both for per-column null
/// masks (bit set = NULL) and for table-level tombstones (bit set =
/// deleted).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
    ones: usize,
}

impl Bitmap {
    /// An empty bitmap.
    pub fn new() -> Self {
        Self::default()
    }

    /// A bitmap of `len` zero bits.
    pub fn zeros(len: usize) -> Self {
        Bitmap {
            words: vec![0; len.div_ceil(64)],
            len,
            ones: 0,
        }
    }

    /// Number of positions tracked.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no positions are tracked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append one bit.
    pub fn push(&mut self, bit: bool) {
        let word = self.len / 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if bit {
            self.words[word] |= 1 << (self.len % 64);
            self.ones += 1;
        }
        self.len += 1;
    }

    /// Bit at `pos` (false when out of range).
    pub fn get(&self, pos: usize) -> bool {
        if pos >= self.len {
            return false;
        }
        self.words[pos / 64] >> (pos % 64) & 1 == 1
    }

    /// Set the bit at `pos` to 1. `pos` must be in range.
    pub fn set(&mut self, pos: usize) {
        assert!(pos < self.len, "bitmap position {pos} out of range");
        let mask = 1u64 << (pos % 64);
        if self.words[pos / 64] & mask == 0 {
            self.words[pos / 64] |= mask;
            self.ones += 1;
        }
    }

    /// Clear the bit at `pos`. `pos` must be in range.
    pub fn unset(&mut self, pos: usize) {
        assert!(pos < self.len, "bitmap position {pos} out of range");
        let mask = 1u64 << (pos % 64);
        if self.words[pos / 64] & mask != 0 {
            self.words[pos / 64] &= !mask;
            self.ones -= 1;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.ones
    }

    /// True if any bit is set — lets readers skip per-row null checks on
    /// columns that are entirely non-NULL.
    pub fn any(&self) -> bool {
        self.ones > 0
    }

    /// Drop all positions.
    pub fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
        self.ones = 0;
    }
}

/// Append-only string dictionary shared by one [`ColumnChunk::Str`] chunk.
///
/// Behind an `Arc` so gathers (join outputs, compaction inputs) share the
/// dictionary without copying the strings.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StrDict {
    strings: Vec<String>,
    lookup: HashMap<String, u32>,
}

impl StrDict {
    /// Intern `s`, returning its code (existing or freshly assigned).
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&c) = self.lookup.get(s) {
            return c;
        }
        let c = u32::try_from(self.strings.len()).expect("dictionary overflow");
        self.strings.push(s.to_string());
        self.lookup.insert(s.to_string(), c);
        c
    }

    /// The string behind `code`.
    pub fn get(&self, code: u32) -> &str {
        &self.strings[code as usize]
    }

    /// Code of `s`, if it has ever been interned.
    pub fn code_of(&self, s: &str) -> Option<u32> {
        self.lookup.get(s).copied()
    }

    /// All interned strings, in code order.
    pub fn strings(&self) -> &[String] {
        &self.strings
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

/// One table column stored as a typed, dense chunk plus a null bitmap.
#[derive(Debug, Clone)]
pub enum ColumnChunk {
    /// 64-bit integers.
    Int {
        /// Dense values (placeholder 0 at null positions).
        data: Vec<i64>,
        /// Null positions.
        nulls: Bitmap,
    },
    /// 64-bit floats.
    Float {
        /// Dense values (placeholder 0.0 at null positions).
        data: Vec<f64>,
        /// Null positions.
        nulls: Bitmap,
    },
    /// Booleans.
    Bool {
        /// Dense values (placeholder false at null positions).
        data: Vec<bool>,
        /// Null positions.
        nulls: Bitmap,
    },
    /// Dictionary-encoded strings: `codes[i]` indexes into `dict`.
    Str {
        /// Dictionary codes (placeholder 0 at null positions).
        codes: Vec<u32>,
        /// Shared append-only dictionary.
        dict: Arc<StrDict>,
        /// Null positions.
        nulls: Bitmap,
    },
    /// Raw byte strings (no dictionary; BLOB columns are rare and opaque).
    Bytes {
        /// Dense values (placeholder empty at null positions).
        data: Vec<Vec<u8>>,
        /// Null positions.
        nulls: Bitmap,
    },
}

impl ColumnChunk {
    /// An empty chunk for a column of `dt`.
    pub fn for_type(dt: DataType) -> Self {
        match dt {
            DataType::Int => ColumnChunk::Int {
                data: Vec::new(),
                nulls: Bitmap::new(),
            },
            DataType::Float => ColumnChunk::Float {
                data: Vec::new(),
                nulls: Bitmap::new(),
            },
            DataType::Bool => ColumnChunk::Bool {
                data: Vec::new(),
                nulls: Bitmap::new(),
            },
            DataType::Text => ColumnChunk::Str {
                codes: Vec::new(),
                dict: Arc::new(StrDict::default()),
                nulls: Bitmap::new(),
            },
            DataType::Bytes => ColumnChunk::Bytes {
                data: Vec::new(),
                nulls: Bitmap::new(),
            },
        }
    }

    /// The declared type this chunk stores.
    pub fn data_type(&self) -> DataType {
        match self {
            ColumnChunk::Int { .. } => DataType::Int,
            ColumnChunk::Float { .. } => DataType::Float,
            ColumnChunk::Bool { .. } => DataType::Bool,
            ColumnChunk::Str { .. } => DataType::Text,
            ColumnChunk::Bytes { .. } => DataType::Bytes,
        }
    }

    /// Number of physical positions (tombstoned rows included).
    pub fn len(&self) -> usize {
        match self {
            ColumnChunk::Int { data, .. } => data.len(),
            ColumnChunk::Float { data, .. } => data.len(),
            ColumnChunk::Bool { data, .. } => data.len(),
            ColumnChunk::Str { codes, .. } => codes.len(),
            ColumnChunk::Bytes { data, .. } => data.len(),
        }
    }

    /// True if the chunk holds no positions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append a schema-checked value. Panics on a type mismatch — callers
    /// (the table write path) validate against the schema first.
    pub fn push(&mut self, v: &Value) {
        match (self, v) {
            (ColumnChunk::Int { data, nulls }, Value::Int(i)) => {
                data.push(*i);
                nulls.push(false);
            }
            (ColumnChunk::Int { data, nulls }, Value::Null) => {
                data.push(0);
                nulls.push(true);
            }
            (ColumnChunk::Float { data, nulls }, Value::Float(f)) => {
                data.push(*f);
                nulls.push(false);
            }
            (ColumnChunk::Float { data, nulls }, Value::Null) => {
                data.push(0.0);
                nulls.push(true);
            }
            (ColumnChunk::Bool { data, nulls }, Value::Bool(b)) => {
                data.push(*b);
                nulls.push(false);
            }
            (ColumnChunk::Bool { data, nulls }, Value::Null) => {
                data.push(false);
                nulls.push(true);
            }
            (ColumnChunk::Str { codes, dict, nulls }, Value::Text(s)) => {
                codes.push(Arc::make_mut(dict).intern(s));
                nulls.push(false);
            }
            (ColumnChunk::Str { codes, nulls, .. }, Value::Null) => {
                codes.push(0);
                nulls.push(true);
            }
            (ColumnChunk::Bytes { data, nulls }, Value::Bytes(b)) => {
                data.push(b.clone());
                nulls.push(false);
            }
            (ColumnChunk::Bytes { data, nulls }, Value::Null) => {
                data.push(Vec::new());
                nulls.push(true);
            }
            (chunk, v) => panic!(
                "type mismatch: {:?} pushed into {} chunk",
                v,
                chunk.data_type().name()
            ),
        }
    }

    /// Overwrite the value at `pos` with a schema-checked value (the
    /// in-place update path). Panics on a type mismatch or an out-of-range
    /// position, like [`ColumnChunk::push`].
    pub fn set(&mut self, pos: usize, v: &Value) {
        let nulls = match (&mut *self, v) {
            (ColumnChunk::Int { data, nulls }, Value::Int(i)) => {
                data[pos] = *i;
                nulls
            }
            (ColumnChunk::Float { data, nulls }, Value::Float(f)) => {
                data[pos] = *f;
                nulls
            }
            (ColumnChunk::Bool { data, nulls }, Value::Bool(b)) => {
                data[pos] = *b;
                nulls
            }
            (ColumnChunk::Str { codes, dict, nulls }, Value::Text(s)) => {
                codes[pos] = Arc::make_mut(dict).intern(s);
                nulls
            }
            (ColumnChunk::Bytes { data, nulls }, Value::Bytes(b)) => {
                data[pos] = b.clone();
                nulls
            }
            (
                ColumnChunk::Int { nulls, .. }
                | ColumnChunk::Float { nulls, .. }
                | ColumnChunk::Bool { nulls, .. }
                | ColumnChunk::Str { nulls, .. }
                | ColumnChunk::Bytes { nulls, .. },
                Value::Null,
            ) => {
                nulls.set(pos);
                return;
            }
            (chunk, v) => panic!(
                "type mismatch: {:?} set in {} chunk",
                v,
                chunk.data_type().name()
            ),
        };
        nulls.unset(pos);
    }

    /// The chunk's null positions.
    pub fn nulls(&self) -> &Bitmap {
        match self {
            ColumnChunk::Int { nulls, .. }
            | ColumnChunk::Float { nulls, .. }
            | ColumnChunk::Bool { nulls, .. }
            | ColumnChunk::Str { nulls, .. }
            | ColumnChunk::Bytes { nulls, .. } => nulls,
        }
    }

    /// True if the value at `pos` is NULL.
    pub fn is_null(&self, pos: usize) -> bool {
        self.nulls().get(pos)
    }

    /// Materialize the value at `pos` (the row-API compatibility path).
    pub fn value_at(&self, pos: usize) -> Value {
        match self {
            ColumnChunk::Int { data, nulls } => {
                if nulls.get(pos) {
                    Value::Null
                } else {
                    Value::Int(data[pos])
                }
            }
            ColumnChunk::Float { data, nulls } => {
                if nulls.get(pos) {
                    Value::Null
                } else {
                    Value::Float(data[pos])
                }
            }
            ColumnChunk::Bool { data, nulls } => {
                if nulls.get(pos) {
                    Value::Null
                } else {
                    Value::Bool(data[pos])
                }
            }
            ColumnChunk::Str { codes, dict, nulls } => {
                if nulls.get(pos) {
                    Value::Null
                } else {
                    Value::Text(dict.get(codes[pos]).to_string())
                }
            }
            ColumnChunk::Bytes { data, nulls } => {
                if nulls.get(pos) {
                    Value::Null
                } else {
                    Value::Bytes(data[pos].clone())
                }
            }
        }
    }

    /// Column-major row materialization: write the value at
    /// `positions[i]` into `rows[i]` at column `slot`, for every `i`. The
    /// chunk variant is matched once for the whole column, and the null
    /// bitmap is not consulted when the column holds no NULL. `rows` is as
    /// long as `positions` and every row already has a `slot`.
    pub fn fill_rows(&self, positions: &[u32], rows: &mut [Row], slot: usize) {
        fn fill(
            positions: &[u32],
            rows: &mut [Row],
            slot: usize,
            nulls: &Bitmap,
            value: impl Fn(usize) -> Value,
        ) {
            debug_assert_eq!(positions.len(), rows.len());
            if nulls.any() {
                for (row, &p) in rows.iter_mut().zip(positions) {
                    let p = p as usize;
                    row.values_mut()[slot] = if nulls.get(p) { Value::Null } else { value(p) };
                }
            } else {
                for (row, &p) in rows.iter_mut().zip(positions) {
                    row.values_mut()[slot] = value(p as usize);
                }
            }
        }
        match self {
            ColumnChunk::Int { data, nulls } => {
                fill(positions, rows, slot, nulls, |p| Value::Int(data[p]))
            }
            ColumnChunk::Float { data, nulls } => {
                fill(positions, rows, slot, nulls, |p| Value::Float(data[p]))
            }
            ColumnChunk::Bool { data, nulls } => {
                fill(positions, rows, slot, nulls, |p| Value::Bool(data[p]))
            }
            ColumnChunk::Str { codes, dict, nulls } => fill(positions, rows, slot, nulls, |p| {
                Value::Text(dict.get(codes[p]).to_string())
            }),
            ColumnChunk::Bytes { data, nulls } => fill(positions, rows, slot, nulls, |p| {
                Value::Bytes(data[p].clone())
            }),
        }
    }

    /// Borrow the string at `pos` without materializing a [`Value`]
    /// (`None` for NULL or non-string chunks).
    pub fn str_at(&self, pos: usize) -> Option<&str> {
        match self {
            ColumnChunk::Str { codes, dict, nulls } if !nulls.get(pos) => {
                Some(dict.get(codes[pos]))
            }
            _ => None,
        }
    }

    /// Typed view of an `Int` chunk: `(data, nulls)`.
    pub fn as_int(&self) -> Option<(&[i64], &Bitmap)> {
        match self {
            ColumnChunk::Int { data, nulls } => Some((data, nulls)),
            _ => None,
        }
    }

    /// Typed view of a dictionary-encoded string chunk:
    /// `(codes, dictionary, nulls)`.
    pub fn as_str(&self) -> Option<(&[u32], &StrDict, &Bitmap)> {
        match self {
            ColumnChunk::Str { codes, dict, nulls } => Some((codes, dict, nulls)),
            _ => None,
        }
    }

    /// Gather `positions` into a new chunk (join outputs, compaction).
    /// String chunks share the dictionary via `Arc` — no string copies.
    pub fn gather(&self, positions: &[u32]) -> ColumnChunk {
        match self {
            ColumnChunk::Int { data, nulls } => {
                let mut out = Vec::with_capacity(positions.len());
                let mut on = Bitmap::new();
                for &p in positions {
                    out.push(data[p as usize]);
                    on.push(nulls.get(p as usize));
                }
                ColumnChunk::Int {
                    data: out,
                    nulls: on,
                }
            }
            ColumnChunk::Float { data, nulls } => {
                let mut out = Vec::with_capacity(positions.len());
                let mut on = Bitmap::new();
                for &p in positions {
                    out.push(data[p as usize]);
                    on.push(nulls.get(p as usize));
                }
                ColumnChunk::Float {
                    data: out,
                    nulls: on,
                }
            }
            ColumnChunk::Bool { data, nulls } => {
                let mut out = Vec::with_capacity(positions.len());
                let mut on = Bitmap::new();
                for &p in positions {
                    out.push(data[p as usize]);
                    on.push(nulls.get(p as usize));
                }
                ColumnChunk::Bool {
                    data: out,
                    nulls: on,
                }
            }
            ColumnChunk::Str { codes, dict, nulls } => {
                let mut out = Vec::with_capacity(positions.len());
                let mut on = Bitmap::new();
                for &p in positions {
                    out.push(codes[p as usize]);
                    on.push(nulls.get(p as usize));
                }
                ColumnChunk::Str {
                    codes: out,
                    dict: Arc::clone(dict),
                    nulls: on,
                }
            }
            ColumnChunk::Bytes { data, nulls } => {
                let mut out = Vec::with_capacity(positions.len());
                let mut on = Bitmap::new();
                for &p in positions {
                    out.push(data[p as usize].clone());
                    on.push(nulls.get(p as usize));
                }
                ColumnChunk::Bytes {
                    data: out,
                    nulls: on,
                }
            }
        }
    }

    /// Gather with optional positions: `None` produces a NULL slot. Used
    /// for the unmatched side of LEFT OUTER joins.
    pub fn gather_opt(&self, positions: &[Option<u32>]) -> ColumnChunk {
        let mut out = Self::for_type(self.data_type());
        // Share the dictionary instead of re-interning through `push`.
        if let (ColumnChunk::Str { dict: od, .. }, ColumnChunk::Str { codes, dict, nulls }) =
            (self, &mut out)
        {
            *dict = Arc::clone(od);
            let (src_codes, _, src_nulls) = self.as_str().expect("str chunk");
            for p in positions {
                match p {
                    Some(p) if !src_nulls.get(*p as usize) => {
                        codes.push(src_codes[*p as usize]);
                        nulls.push(false);
                    }
                    _ => {
                        codes.push(0);
                        nulls.push(true);
                    }
                }
            }
            return out;
        }
        for p in positions {
            match p {
                Some(p) => out.push(&self.value_at(*p as usize)),
                None => out.push(&Value::Null),
            }
        }
        out
    }

    /// Reset the chunk to empty (dictionaries are dropped too, so a
    /// truncated table does not pin dead strings).
    pub fn clear(&mut self) {
        *self = Self::for_type(self.data_type());
    }

    /// Approximate wire size of the value at `pos`, matching
    /// [`Value::wire_size`] without materializing strings.
    pub fn wire_size_at(&self, pos: usize) -> usize {
        match self {
            ColumnChunk::Str { codes, dict, nulls } if !nulls.get(pos) => {
                Value::Text(String::new()).wire_size() + dict.get(codes[pos]).len()
            }
            _ => self.value_at(pos).wire_size(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_push_set_get() {
        let mut b = Bitmap::new();
        for i in 0..130 {
            b.push(i % 3 == 0);
        }
        assert_eq!(b.len(), 130);
        assert!(b.get(0) && b.get(129));
        assert!(!b.get(1));
        assert_eq!(b.count_ones(), 44);
        b.set(1);
        assert!(b.get(1));
        assert_eq!(b.count_ones(), 45);
        // idempotent set
        b.set(1);
        assert_eq!(b.count_ones(), 45);
        // out-of-range reads are false, not panics
        assert!(!b.get(10_000));
    }

    #[test]
    fn int_chunk_round_trips_values_and_nulls() {
        let mut c = ColumnChunk::for_type(DataType::Int);
        c.push(&Value::Int(7));
        c.push(&Value::Null);
        c.push(&Value::Int(-3));
        assert_eq!(c.len(), 3);
        assert_eq!(c.value_at(0), Value::Int(7));
        assert_eq!(c.value_at(1), Value::Null);
        assert_eq!(c.value_at(2), Value::Int(-3));
        assert!(c.is_null(1) && !c.is_null(2));
        let (data, nulls) = c.as_int().unwrap();
        assert_eq!(data, &[7, 0, -3]);
        assert!(nulls.get(1));
    }

    #[test]
    fn str_chunk_dictionary_encodes() {
        let mut c = ColumnChunk::for_type(DataType::Text);
        for s in ["barrel", "endcap", "barrel", "barrel"] {
            c.push(&Value::Text(s.into()));
        }
        c.push(&Value::Null);
        let (codes, dict, nulls) = c.as_str().unwrap();
        assert_eq!(dict.len(), 2, "two distinct strings");
        assert_eq!(codes[0], codes[2]);
        assert_ne!(codes[0], codes[1]);
        assert!(nulls.get(4));
        assert_eq!(c.value_at(3), Value::Text("barrel".into()));
        assert_eq!(c.str_at(1), Some("endcap"));
        assert_eq!(c.str_at(4), None);
        assert_eq!(dict.code_of("endcap"), Some(codes[1]));
        assert_eq!(dict.code_of("nope"), None);
    }

    #[test]
    fn gather_and_gather_opt() {
        let mut c = ColumnChunk::for_type(DataType::Text);
        for s in ["a", "b", "c"] {
            c.push(&Value::Text(s.into()));
        }
        let g = c.gather(&[2, 0]);
        assert_eq!(g.value_at(0), Value::Text("c".into()));
        assert_eq!(g.value_at(1), Value::Text("a".into()));
        let go = c.gather_opt(&[Some(1), None]);
        assert_eq!(go.value_at(0), Value::Text("b".into()));
        assert_eq!(go.value_at(1), Value::Null);

        let mut f = ColumnChunk::for_type(DataType::Float);
        f.push(&Value::Float(1.5));
        f.push(&Value::Null);
        let gf = f.gather_opt(&[None, Some(0), Some(1)]);
        assert_eq!(gf.value_at(0), Value::Null);
        assert_eq!(gf.value_at(1), Value::Float(1.5));
        assert_eq!(gf.value_at(2), Value::Null);
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn push_rejects_wrong_type() {
        let mut c = ColumnChunk::for_type(DataType::Int);
        c.push(&Value::Text("no".into()));
    }
}

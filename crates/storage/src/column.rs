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
/// deleted). Words are only held up to the last one a bit was ever set in:
/// the bits past them are zero, so a mask with no NULL allocates nothing.
#[derive(Debug, Clone, Default, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
    ones: usize,
}

impl PartialEq for Bitmap {
    fn eq(&self, other: &Bitmap) -> bool {
        let word = |b: &Bitmap, i: usize| b.words.get(i).copied().unwrap_or(0);
        let words = self.words.len().max(other.words.len());
        self.len == other.len
            && self.ones == other.ones
            && (0..words).all(|i| word(self, i) == word(other, i))
    }
}

impl Bitmap {
    /// An empty bitmap.
    pub fn new() -> Self {
        Self::default()
    }

    /// A bitmap of `len` zero bits.
    pub fn zeros(len: usize) -> Self {
        Bitmap {
            words: Vec::new(),
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
        self.len += 1;
        if bit {
            self.set(self.len - 1);
        }
    }

    /// Bit at `pos` (false when out of range).
    pub fn get(&self, pos: usize) -> bool {
        pos < self.len
            && self
                .words
                .get(pos / 64)
                .is_some_and(|w| w >> (pos % 64) & 1 == 1)
    }

    /// Set the bit at `pos` to 1. `pos` must be in range.
    pub fn set(&mut self, pos: usize) {
        assert!(pos < self.len, "bitmap position {pos} out of range");
        if pos / 64 >= self.words.len() {
            self.words.resize(pos / 64 + 1, 0);
        }
        let mask = 1u64 << (pos % 64);
        if self.words[pos / 64] & mask == 0 {
            self.words[pos / 64] |= mask;
            self.ones += 1;
        }
    }

    /// Clear the bit at `pos`. `pos` must be in range.
    pub fn unset(&mut self, pos: usize) {
        assert!(pos < self.len, "bitmap position {pos} out of range");
        if self.get(pos) {
            self.words[pos / 64] &= !(1u64 << (pos % 64));
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
    // A dictionary holds at most one string per row of its chunk, and row
    // positions are `u32` (`index::position`).
    #[allow(clippy::expect_used)]
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
#[derive(Debug, Clone, PartialEq)]
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
    #[allow(clippy::panic)]
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
    #[allow(clippy::panic)]
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
    /// String chunks share the dictionary via `Arc` — no string copies. A
    /// chunk holding no NULL copies its data in one typed loop and never
    /// reads or pushes a null bit.
    pub fn gather(&self, positions: &[u32]) -> ColumnChunk {
        if self.nulls().any() {
            return self.gather_slots(positions.iter().map(|&p| Some(p)));
        }
        fn dense<T: Clone>(data: &[T], positions: &[u32]) -> Vec<T> {
            positions
                .iter()
                .map(|&p| data[p as usize].clone())
                .collect()
        }
        let nulls = Bitmap::zeros(positions.len());
        match self {
            ColumnChunk::Int { data, .. } => ColumnChunk::Int {
                data: dense(data, positions),
                nulls,
            },
            ColumnChunk::Float { data, .. } => ColumnChunk::Float {
                data: dense(data, positions),
                nulls,
            },
            ColumnChunk::Bool { data, .. } => ColumnChunk::Bool {
                data: dense(data, positions),
                nulls,
            },
            ColumnChunk::Str { codes, dict, .. } => ColumnChunk::Str {
                codes: dense(codes, positions),
                dict: Arc::clone(dict),
                nulls,
            },
            ColumnChunk::Bytes { data, .. } => ColumnChunk::Bytes {
                data: dense(data, positions),
                nulls,
            },
        }
    }

    /// Gather with optional positions: `None` produces a NULL slot. Used
    /// for the unmatched side of LEFT OUTER joins.
    pub fn gather_opt(&self, positions: &[Option<u32>]) -> ColumnChunk {
        self.gather_slots(positions.iter().copied())
    }

    /// The one typed gather loop: per slot the source value and null bit,
    /// or for `None` a NULL over the type's placeholder.
    fn gather_slots(&self, slots: impl ExactSizeIterator<Item = Option<u32>>) -> ColumnChunk {
        fn typed<T: Clone>(
            data: &[T],
            nulls: &Bitmap,
            slots: impl ExactSizeIterator<Item = Option<u32>>,
            pad: T,
        ) -> (Vec<T>, Bitmap) {
            let mut out = Vec::with_capacity(slots.len());
            let mut on = Bitmap::new();
            for slot in slots {
                match slot {
                    Some(p) => {
                        out.push(data[p as usize].clone());
                        on.push(nulls.get(p as usize));
                    }
                    None => {
                        out.push(pad.clone());
                        on.push(true);
                    }
                }
            }
            (out, on)
        }
        match self {
            ColumnChunk::Int { data, nulls } => {
                let (data, nulls) = typed(data, nulls, slots, 0);
                ColumnChunk::Int { data, nulls }
            }
            ColumnChunk::Float { data, nulls } => {
                let (data, nulls) = typed(data, nulls, slots, 0.0);
                ColumnChunk::Float { data, nulls }
            }
            ColumnChunk::Bool { data, nulls } => {
                let (data, nulls) = typed(data, nulls, slots, false);
                ColumnChunk::Bool { data, nulls }
            }
            ColumnChunk::Str { codes, dict, nulls } => {
                let (codes, nulls) = typed(codes, nulls, slots, 0);
                ColumnChunk::Str {
                    codes,
                    dict: Arc::clone(dict),
                    nulls,
                }
            }
            ColumnChunk::Bytes { data, nulls } => {
                let (data, nulls) = typed(data, nulls, slots, Vec::new());
                ColumnChunk::Bytes { data, nulls }
            }
        }
    }

    /// Reset the chunk to empty (dictionaries are dropped too, so a
    /// truncated table does not pin dead strings).
    pub fn clear(&mut self) {
        *self = Self::for_type(self.data_type());
    }

    /// Exact wire size of every position's value: the sum of
    /// [`Value::wire_size`] over `value_at(0..len)`.
    pub fn wire_size(&self) -> usize {
        self.wire_size_over(0..self.len())
    }

    /// The sum of [`Value::wire_size`] over `value_at(p)` for every `p` of
    /// `positions`, repeats included — how an answer is sized from the
    /// columns it is built from.
    pub fn wire_size_of(&self, positions: &[u32]) -> usize {
        self.wire_size_over(positions.iter().map(|&p| p as usize))
    }

    /// [`ColumnChunk::wire_size_of`] without building a value: NULLs are
    /// counted off the bitmap (not read when the chunk holds none), INT,
    /// FLOAT and BOOL values have one size each, and only TEXT and BYTES
    /// read their cells.
    fn wire_size_over(&self, at: impl ExactSizeIterator<Item = usize> + Clone) -> usize {
        let bits = self.nulls();
        let nulls = if bits.any() {
            at.clone().filter(|&p| bits.get(p)).count()
        } else {
            0
        };
        let values = at.len() - nulls;
        let payload =
            |len: &dyn Fn(usize) -> usize| -> usize { at.filter(|&p| !bits.get(p)).map(len).sum() };
        let cells = match self {
            ColumnChunk::Int { .. } => values * Value::Int(0).wire_size(),
            ColumnChunk::Float { .. } => values * Value::Float(0.0).wire_size(),
            ColumnChunk::Bool { .. } => values * Value::Bool(false).wire_size(),
            ColumnChunk::Str { codes, dict, .. } => {
                values * Value::Text(String::new()).wire_size()
                    + payload(&|p| dict.get(codes[p]).len())
            }
            ColumnChunk::Bytes { data, .. } => {
                values * Value::Bytes(Vec::new()).wire_size() + payload(&|p| 2 * data[p].len())
            }
        };
        cells + nulls * Value::Null.wire_size()
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

    /// `gather_opt` as it was: one `value_at` + `push` per slot.
    fn gather_opt_by_values(c: &ColumnChunk, positions: &[Option<u32>]) -> ColumnChunk {
        let mut out = ColumnChunk::for_type(c.data_type());
        for p in positions {
            out.push(&p.map_or(Value::Null, |p| c.value_at(p as usize)));
        }
        out
    }

    #[test]
    fn typed_gather_opt_matches_the_value_by_value_gather() {
        let columns: [(DataType, Vec<Value>); 5] = [
            (
                DataType::Int,
                vec![Value::Int(7), Value::Int(-3), Value::Int(i64::MAX)],
            ),
            (
                DataType::Float,
                vec![Value::Float(1.5), Value::Float(-0.0), Value::Float(9.0)],
            ),
            (
                DataType::Bool,
                vec![Value::Bool(true), Value::Bool(false), Value::Bool(true)],
            ),
            (DataType::Text, vec!["b".into(), "a".into(), "b".into()]),
            (
                DataType::Bytes,
                vec![
                    Value::Bytes(vec![1, 2]),
                    Value::Bytes(vec![]),
                    Value::Bytes(vec![9]),
                ],
            ),
        ];
        let positions = [Some(2), None, Some(0), Some(1), None, Some(2), Some(0)];
        for (data_type, values) in columns {
            for with_nulls in [false, true] {
                let mut c = ColumnChunk::for_type(data_type);
                for (i, v) in values.iter().enumerate() {
                    c.push(if with_nulls && i == 1 {
                        &Value::Null
                    } else {
                        v
                    });
                }
                let (typed, by_values) = (
                    c.gather_opt(&positions),
                    gather_opt_by_values(&c, &positions),
                );
                assert_eq!(typed.len(), positions.len());
                assert_eq!(
                    typed.nulls(),
                    by_values.nulls(),
                    "{data_type:?}, nulls {with_nulls}"
                );
                for p in 0..positions.len() {
                    assert_eq!(
                        typed.value_at(p),
                        by_values.value_at(p),
                        "{data_type:?} slot {p}"
                    );
                }
                if let (Some((_, dict, _)), Some((_, own, _))) = (c.as_str(), typed.as_str()) {
                    assert!(
                        std::ptr::eq(dict, own),
                        "the dictionary is shared, not copied"
                    );
                }
                // No padding: the plain gather, slot for slot.
                let plain: Vec<u32> = positions.iter().flatten().copied().collect();
                let all: Vec<Option<u32>> = plain.iter().map(|&p| Some(p)).collect();
                let gathered = c.gather(&plain);
                assert_eq!(gathered.nulls(), c.gather_opt(&all).nulls());
                for (slot, &p) in plain.iter().enumerate() {
                    assert_eq!(gathered.value_at(slot), c.value_at(p as usize));
                }
            }
        }
    }

    /// A chunk of class `class % 5` (INT, FLOAT, BOOL, TEXT, BYTES) holding
    /// one value per cell: a cell of 12 or more is NULL, any other a value
    /// drawn from it — TEXT and BYTES include the empty value.
    fn chunk_of(class: usize, cells: &[u8]) -> ColumnChunk {
        let data_type = [
            DataType::Int,
            DataType::Float,
            DataType::Bool,
            DataType::Text,
            DataType::Bytes,
        ][class % 5];
        let mut c = ColumnChunk::for_type(data_type);
        for &cell in cells {
            c.push(&match ((cell < 12).then_some(cell), data_type) {
                (None, _) => Value::Null,
                (Some(n), DataType::Int) => Value::Int(i64::from(n) - 100),
                (Some(n), DataType::Float) => Value::Float(f64::from(n) / 3.0),
                (Some(n), DataType::Bool) => Value::Bool(n % 2 == 0),
                (Some(n), DataType::Text) => Value::Text("é".repeat(usize::from(n % 4))),
                (Some(n), _) => Value::Bytes(vec![n; usize::from(n % 3)]),
            });
        }
        c
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The typed gather equals the slot-by-slot one on every class, with
        /// and without NULLs: same values, same null bits, the dictionary
        /// shared.
        #[test]
        fn gather_equals_the_slot_by_slot_gather(
            class in 0usize..5,
            cells in proptest::collection::vec(0u8..15, 1..40),
            picks in proptest::collection::vec(0usize..1000, 0..60),
            null_free in proptest::prelude::any::<bool>(),
        ) {
            let cells: Vec<u8> = if null_free {
                cells.iter().map(|&c| c % 12).collect()
            } else {
                cells
            };
            let c = chunk_of(class, &cells);
            let positions: Vec<u32> = picks.iter().map(|&p| (p % cells.len()) as u32).collect();
            let typed = c.gather(&positions);
            let by_slots = c.gather_slots(positions.iter().map(|&p| Some(p)));
            proptest::prop_assert_eq!(&typed, &by_slots);
            proptest::prop_assert_eq!(typed.nulls().any(), by_slots.nulls().any());
            if let (Some((_, dict, _)), Some((_, own, _))) = (c.as_str(), typed.as_str()) {
                proptest::prop_assert!(std::ptr::eq(dict, own));
            }
        }

        /// A chunk's wire size is the sum of its values' — NULLs, empty TEXT
        /// and empty BYTES included.
        #[test]
        fn chunk_wire_size_is_the_sum_of_its_values(
            class in 0usize..5,
            cells in proptest::collection::vec(0u8..16, 0..40),
        ) {
            let c = chunk_of(class, &cells);
            let by_values: usize = (0..c.len()).map(|p| c.value_at(p).wire_size()).sum();
            proptest::prop_assert_eq!(c.wire_size(), by_values);
        }
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn push_rejects_wrong_type() {
        let mut c = ColumnChunk::for_type(DataType::Int);
        c.push(&Value::Text("no".into()));
    }
}

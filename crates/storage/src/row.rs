//! Rows: fixed-arity tuples of [`Value`]s.

use crate::value::Value;
use std::fmt;

/// How many values a row holds in place, with no heap allocation of its
/// own: the widths of the answers a Fig-6 join or a Table-1 statement
/// returns (2–4 columns).
const INLINE_VALUES: usize = 4;

/// Rows [`Row::filled_in_blocks`] fills before it starts the next block.
const FILL_BLOCK: usize = 64;

/// A single row. Rows are plain owned tuples; the engine copies on read so
/// scans never borrow the table lock across middleware calls.
///
/// A row of at most four values that is built in place
/// ([`Row::nulls`], `collect`, [`Row::concat`], [`Row::project`]) keeps
/// them inline; a wider one, or one handed a vector ([`Row::new`]), keeps
/// that vector. The two are one type: every method, `==` and `Debug` see
/// the values alone.
#[derive(Clone)]
pub struct Row {
    repr: Repr,
}

#[derive(Clone)]
enum Repr {
    /// `len` values in place; the slots past `len` hold NULL.
    Inline {
        len: u8,
        values: [Value; INLINE_VALUES],
    },
    /// The values in a vector of their own.
    Heap(Vec<Value>),
}

impl Row {
    /// Build a row from values, adopting the vector as it is.
    pub fn new(values: Vec<Value>) -> Self {
        Row {
            repr: Repr::Heap(values),
        }
    }

    /// A row of `width` NULLs for the caller to fill through
    /// [`Row::values_mut`] — inline when `width` fits. Inlined into the
    /// caller, so a row is written where it is put, tag by tag: no
    /// 128-byte template is copied and no built row is moved.
    #[inline]
    pub fn nulls(width: usize) -> Self {
        let repr = if width <= INLINE_VALUES {
            Repr::Inline {
                len: width as u8,
                values: [Value::Null, Value::Null, Value::Null, Value::Null],
            }
        } else {
            Repr::Heap(vec![Value::Null; width])
        };
        Row { repr }
    }

    /// One row of `width` NULLs per entry of `positions`, filled by `fill`
    /// a block of 64 rows at a time: `fill` gets the block's
    /// positions and its rows, and writes them column by column — so the
    /// rows one column pass writes are still in cache for the next, however
    /// many there are in all.
    pub fn filled_in_blocks(
        positions: &[u32],
        width: usize,
        mut fill: impl FnMut(&[u32], &mut [Row]),
    ) -> Vec<Row> {
        let mut rows = Vec::with_capacity(positions.len());
        for block in positions.chunks(FILL_BLOCK) {
            let at = rows.len();
            rows.extend(block.iter().map(|_| Row::nulls(width)));
            fill(block, &mut rows[at..]);
        }
        rows
    }

    /// The row's values, in schema order.
    pub fn values(&self) -> &[Value] {
        match &self.repr {
            Repr::Inline { len, values } => &values[..usize::from(*len)],
            Repr::Heap(values) => values,
        }
    }

    /// The row's values, writable in place; the arity is fixed.
    pub fn values_mut(&mut self) -> &mut [Value] {
        match &mut self.repr {
            Repr::Inline { len, values } => &mut values[..usize::from(*len)],
            Repr::Heap(values) => values,
        }
    }

    /// Value at a column position.
    pub fn get(&self, idx: usize) -> Option<&Value> {
        self.values().get(idx)
    }

    /// Number of values.
    pub fn arity(&self) -> usize {
        self.values().len()
    }

    /// Consume the row, yielding its values.
    pub fn into_values(self) -> Vec<Value> {
        match self.repr {
            Repr::Inline { len, values } => values.into_iter().take(usize::from(len)).collect(),
            Repr::Heap(values) => values,
        }
    }

    /// Drop every value from position `len` on (no-op when the row is no
    /// wider) — how a sort strips its trailing key columns in place.
    pub fn truncate(&mut self, len: usize) {
        match &mut self.repr {
            Repr::Inline { len: n, values } => {
                if len < usize::from(*n) {
                    values[len..].fill(Value::Null);
                    // `len` is below an inline width, so it fits.
                    *n = len as u8;
                }
            }
            Repr::Heap(values) => values.truncate(len),
        }
    }

    /// Concatenate two rows (join output).
    pub fn concat(&self, other: &Row) -> Row {
        let (a, b) = (self.values(), other.values());
        let mut row = Row::nulls(a.len() + b.len());
        let (head, tail) = row.values_mut().split_at_mut(a.len());
        head.clone_from_slice(a);
        tail.clone_from_slice(b);
        row
    }

    /// Project a subset of values by position; out-of-range positions yield
    /// NULL (the SQL layer validates positions before calling this).
    pub fn project(&self, indices: &[usize]) -> Row {
        let from = self.values();
        let mut row = Row::nulls(indices.len());
        for (slot, &i) in row.values_mut().iter_mut().zip(indices) {
            if let Some(v) = from.get(i) {
                *slot = v.clone();
            }
        }
        row
    }

    /// Serialized size in bytes of the row's values (sum of exact value
    /// wire sizes, excluding the row's own list framing), used by the
    /// virtual-time transfer model.
    pub fn wire_size(&self) -> usize {
        self.values().iter().map(Value::wire_size).sum()
    }

    /// Render the row as a tab-separated line — the staging-file format used
    /// by the ETL pipeline ("data streaming" in the paper).
    pub fn to_staging_line(&self) -> String {
        let mut s = String::new();
        for (i, v) in self.values().iter().enumerate() {
            if i > 0 {
                s.push('\t');
            }
            // Escape characters that would corrupt the line-oriented format.
            let rendered = v.render();
            if rendered.contains(['\t', '\n', '\\']) {
                for ch in rendered.chars() {
                    match ch {
                        '\t' => s.push_str("\\t"),
                        '\n' => s.push_str("\\n"),
                        '\\' => s.push_str("\\\\"),
                        c => s.push(c),
                    }
                }
            } else {
                s.push_str(&rendered);
            }
        }
        s
    }
}

impl Default for Row {
    fn default() -> Self {
        Row::nulls(0)
    }
}

impl PartialEq for Row {
    fn eq(&self, other: &Row) -> bool {
        self.values() == other.values()
    }
}

impl fmt::Debug for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Row")
            .field("values", &self.values())
            .finish()
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row::new(values)
    }
}

/// Inline while the values fit, moved into a vector at the first that does
/// not.
impl FromIterator<Value> for Row {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        let mut iter = iter.into_iter();
        if iter.size_hint().0 > INLINE_VALUES {
            return Row::new(iter.collect());
        }
        let mut values = [Value::Null, Value::Null, Value::Null, Value::Null];
        let mut len = 0;
        for v in iter.by_ref() {
            if len == INLINE_VALUES {
                let (lo, hi) = iter.size_hint();
                let mut spilled = Vec::with_capacity(INLINE_VALUES + 1 + hi.unwrap_or(lo));
                spilled.extend(values);
                spilled.push(v);
                spilled.extend(iter);
                return Row::new(spilled);
            }
            values[len] = v;
            len += 1;
        }
        Row {
            // At most `INLINE_VALUES`.
            repr: Repr::Inline {
                len: len as u8,
                values,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concat_preserves_order() {
        let a = Row::new(vec![Value::Int(1), Value::Int(2)]);
        let b = Row::new(vec![Value::Int(3)]);
        assert_eq!(
            a.concat(&b).values(),
            &[Value::Int(1), Value::Int(2), Value::Int(3)]
        );
    }

    #[test]
    fn project_fills_null_out_of_range() {
        let r = Row::new(vec![Value::Int(1), "x".into()]);
        let p = r.project(&[1, 5]);
        assert_eq!(p.values(), &[Value::Text("x".into()), Value::Null]);
    }

    #[test]
    fn staging_line_is_tab_separated_and_escaped() {
        let r = Row::new(vec![Value::Int(1), Value::Text("a\tb".into())]);
        assert_eq!(r.to_staging_line(), "1\ta\\tb");
        let r = Row::new(vec![Value::Text("p\\q".into())]);
        assert_eq!(r.to_staging_line(), "p\\\\q");
    }

    #[test]
    fn wire_size_sums_values() {
        let r = Row::new(vec![Value::Int(1), Value::Text("abcd".into())]);
        assert_eq!(r.wire_size(), 9 + 9);
    }

    /// Four 24-byte values and the tag: a `Vec<Row>` of built rows costs
    /// this much per row, and nothing more on the heap for a narrow row.
    #[test]
    fn a_row_is_four_values_and_a_tag_wide() {
        assert_eq!(std::mem::size_of::<Value>(), 32);
        assert_eq!(std::mem::size_of::<Row>(), 136);
    }

    #[test]
    fn built_rows_stay_inline_up_to_the_inline_width() {
        let inline = |r: &Row| matches!(r.repr, Repr::Inline { .. });
        let vals = |n: i64| (0..n).map(Value::Int).collect::<Vec<_>>();
        for n in 0..=6 {
            let fits = n as usize <= INLINE_VALUES;
            let collected: Row = vals(n).into_iter().collect();
            assert_eq!(inline(&collected), fits, "collect of {n}");
            assert_eq!(inline(&Row::nulls(n as usize)), fits, "nulls of {n}");
            assert!(!inline(&Row::new(vals(n))), "new adopts its vector");
            assert_eq!(collected, Row::new(vals(n)));
        }
        let mut r: Row = vals(4).into_iter().collect();
        r.truncate(2);
        assert_eq!(r.values(), &vals(2)[..]);
        assert_eq!(r, Row::new(vals(2)));
        r.truncate(3);
        assert_eq!(r.arity(), 2);
    }
}

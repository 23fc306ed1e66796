//! Rows: fixed-arity tuples of [`Value`]s.

use crate::value::Value;

/// A single row. Rows are plain owned tuples; the engine copies on read so
/// scans never borrow the table lock across middleware calls.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Row {
    values: Vec<Value>,
}

impl Row {
    /// Build a row from values.
    pub fn new(values: Vec<Value>) -> Self {
        Row { values }
    }

    /// The row's values, in schema order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The row's values, writable in place; the arity is fixed.
    pub fn values_mut(&mut self) -> &mut [Value] {
        &mut self.values
    }

    /// Value at a column position.
    pub fn get(&self, idx: usize) -> Option<&Value> {
        self.values.get(idx)
    }

    /// Number of values.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Consume the row, yielding its values.
    pub fn into_values(self) -> Vec<Value> {
        self.values
    }

    /// Concatenate two rows (join output).
    pub fn concat(&self, other: &Row) -> Row {
        let mut values = Vec::with_capacity(self.values.len() + other.values.len());
        values.extend_from_slice(&self.values);
        values.extend_from_slice(&other.values);
        Row { values }
    }

    /// Project a subset of values by position; out-of-range positions yield
    /// NULL (the SQL layer validates positions before calling this).
    pub fn project(&self, indices: &[usize]) -> Row {
        Row {
            values: indices
                .iter()
                .map(|&i| self.values.get(i).cloned().unwrap_or(Value::Null))
                .collect(),
        }
    }

    /// Serialized size in bytes of the row's values (sum of exact value
    /// wire sizes, excluding the row's own list framing), used by the
    /// virtual-time transfer model.
    pub fn wire_size(&self) -> usize {
        self.values.iter().map(Value::wire_size).sum()
    }

    /// Render the row as a tab-separated line — the staging-file format used
    /// by the ETL pipeline ("data streaming" in the paper).
    pub fn to_staging_line(&self) -> String {
        let mut s = String::new();
        for (i, v) in self.values.iter().enumerate() {
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

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row::new(values)
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
}

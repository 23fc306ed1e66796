//! Result sets: the "single 2-D vector" the paper's service returns, and
//! the typed columns a backend hands the mediator a sub-query's answer in.

use crate::error::SqlError;
use gridfed_storage::{Bitmap, ColumnChunk, DataType, Row, StorageError, StrDict, Value};
use std::fmt;
use std::sync::Arc;

/// A query result: column names plus rows.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResultSet {
    /// Output column names, in order.
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Row>,
}

impl ResultSet {
    /// An empty result with the given column names.
    pub fn empty(columns: Vec<String>) -> Self {
        ResultSet {
            columns,
            rows: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Position of a column by case-insensitive name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.eq_ignore_ascii_case(name))
    }

    /// Values of one column across all rows (clones).
    pub fn column_values(&self, name: &str) -> Option<Vec<Value>> {
        let idx = self.column_index(name)?;
        Some(
            self.rows
                .iter()
                .map(|r| r.get(idx).cloned().unwrap_or(Value::Null))
                .collect(),
        )
    }

    /// The paper's wire format: a plain 2-D vector of rendered strings
    /// (header row first), as returned to Clarens clients.
    pub fn to_vector(&self) -> Vec<Vec<String>> {
        let mut out = Vec::with_capacity(self.rows.len() + 1);
        out.push(self.columns.clone());
        for row in &self.rows {
            out.push(row.values().iter().map(Value::render).collect());
        }
        out
    }

    /// Approximate serialized size in bytes (headers + values), used by the
    /// virtual-time transfer model.
    pub fn wire_size(&self) -> usize {
        Self::framed(&self.columns, self.rows.iter().map(Row::wire_size).sum())
    }

    /// The wire size of an answer with `columns` whose values' sizes sum to
    /// `values`.
    pub fn framed(columns: &[String], values: usize) -> usize {
        columns.iter().map(|c| c.len() + 4).sum::<usize>() + values
    }

    /// Append another result set's rows; arity and column names must match.
    pub fn append(&mut self, mut other: ResultSet) -> Result<(), String> {
        if self.columns.len() != other.columns.len() {
            return Err(format!(
                "cannot merge result sets of arity {} and {}",
                self.columns.len(),
                other.columns.len()
            ));
        }
        self.rows.append(&mut other.rows);
        Ok(())
    }
}

/// A sub-query's answer as a local backend hands it to the mediator
/// ([`crate::exec::execute_plan_columns`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnSet {
    /// Output column names, in order.
    pub columns: Vec<String>,
    /// The answer's values.
    pub cells: Cells,
}

/// The values of a [`ColumnSet`].
#[derive(Debug, Clone, PartialEq)]
pub enum Cells {
    /// A plain column list's answer: one chunk per column, each as long as
    /// the answer and typed as [`stage_rows`] types rows, which the mediator
    /// adopts as its staging table without building a row.
    Chunks(Vec<ColumnChunk>),
    /// Any other root's rows, built as [`crate::exec::execute_plan`] builds
    /// them; the mediator stages them as it stages rows that crossed a wire.
    Rows(Vec<Row>),
}

impl ColumnSet {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match &self.cells {
            Cells::Chunks(chunks) => chunks.first().map_or(0, ColumnChunk::len),
            Cells::Rows(rows) => rows.len(),
        }
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// [`ResultSet::wire_size`] of the same answer.
    pub fn wire_size(&self) -> usize {
        let values = match &self.cells {
            Cells::Chunks(chunks) => chunks.iter().map(ColumnChunk::wire_size).sum(),
            Cells::Rows(rows) => rows.iter().map(Row::wire_size).sum(),
        };
        ResultSet::framed(&self.columns, values)
    }
}

/// The one rows → columns routine: how the mediator stages rows — a peer's
/// reply, or a local answer that is not a plain column list — and the
/// typing [`stage_chunk`] keeps. One typed chunk per column. A column's type is its first
/// non-NULL value's — INT widened to FLOAT where the column also holds a
/// FLOAT, FLOAT where it holds no value — and a TEXT column's dictionary
/// holds its strings in first-appearance order. A row without one cell per
/// column is `ArityMismatch`; a column mixing other classes is
/// `TypeMismatch`.
pub fn stage_rows(columns: &[String], rows: &[Row]) -> Result<Vec<ColumnChunk>, SqlError> {
    let mut types: Vec<Option<DataType>> = vec![None; columns.len()];
    let mismatch = |c: usize, expected: DataType, got: DataType| {
        SqlError::Storage(StorageError::TypeMismatch {
            column: columns[c].clone(),
            expected: expected.to_string(),
            got: got.to_string(),
        })
    };
    for row in rows {
        if row.arity() != columns.len() {
            return Err(StorageError::ArityMismatch {
                expected: columns.len(),
                got: row.arity(),
            }
            .into());
        }
        for (c, v) in row.values().iter().enumerate() {
            let Some(vt) = v.data_type() else { continue };
            match types[c] {
                None => types[c] = Some(vt),
                Some(DataType::Int) if vt == DataType::Float => types[c] = Some(DataType::Float),
                Some(DataType::Float) if vt == DataType::Int => {}
                Some(t) if t == vt => {}
                Some(t) => return Err(mismatch(c, t, vt)),
            }
        }
    }
    types
        .into_iter()
        .enumerate()
        .map(|(c, ty)| {
            let ty = ty.unwrap_or(DataType::Float);
            // Inferred from these same cells, so every one fits.
            stage_column(rows, c, ty).ok_or_else(|| mismatch(c, ty, ty))
        })
        .collect()
}

/// Column `c` of `rows` as one chunk of type `ty`, or `None` where a cell
/// holds another class (an INT cell of a FLOAT column is widened). One
/// typed loop per column, the chunk's vectors sized once.
fn stage_column(rows: &[Row], c: usize, ty: DataType) -> Option<ColumnChunk> {
    /// Data vector and null bitmap of one column; `cell` yields `None` for
    /// a value of another class.
    fn typed<T: Default>(
        rows: &[Row],
        c: usize,
        mut cell: impl FnMut(&Value) -> Option<T>,
    ) -> Option<(Vec<T>, Bitmap)> {
        let mut data = Vec::with_capacity(rows.len());
        let mut nulls = Bitmap::zeros(rows.len());
        for (i, row) in rows.iter().enumerate() {
            let v = &row.values()[c];
            if v.is_null() {
                nulls.set(i);
                data.push(T::default());
            } else {
                data.push(cell(v)?);
            }
        }
        Some((data, nulls))
    }
    Some(match ty {
        DataType::Int => {
            let (data, nulls) = typed(rows, c, |v| match v {
                Value::Int(i) => Some(*i),
                _ => None,
            })?;
            ColumnChunk::Int { data, nulls }
        }
        DataType::Float => {
            let (data, nulls) = typed(rows, c, |v| match v {
                Value::Float(x) => Some(*x),
                Value::Int(i) => Some(*i as f64),
                _ => None,
            })?;
            ColumnChunk::Float { data, nulls }
        }
        DataType::Bool => {
            let (data, nulls) = typed(rows, c, |v| match v {
                Value::Bool(b) => Some(*b),
                _ => None,
            })?;
            ColumnChunk::Bool { data, nulls }
        }
        DataType::Text => {
            let mut dict = StrDict::default();
            let (codes, nulls) = typed(rows, c, |v| match v {
                Value::Text(s) => Some(dict.intern(s)),
                _ => None,
            })?;
            ColumnChunk::Str {
                codes,
                dict: Arc::new(dict),
                nulls,
            }
        }
        DataType::Bytes => {
            let (data, nulls) = typed(rows, c, |v| match v {
                Value::Bytes(b) => Some(b.clone()),
                _ => None,
            })?;
            ColumnChunk::Bytes { data, nulls }
        }
    })
}

/// Column `chunk` at the positions `sel`, as [`stage_rows`] would stage the
/// same values: INT, FLOAT, BOOL and BYTES gathered as they are; TEXT
/// re-coded into a dictionary of only the strings it holds, in
/// first-appearance order, which shares nothing with the source's; and a
/// column with no value selected — all NULL, or no row — FLOAT.
pub fn stage_chunk(chunk: &ColumnChunk, sel: &[u32]) -> ColumnChunk {
    let nulls = chunk.nulls();
    if sel.iter().all(|&p| nulls.get(p as usize)) {
        let mut all = Bitmap::zeros(sel.len());
        (0..sel.len()).for_each(|p| all.set(p));
        return ColumnChunk::Float {
            data: vec![0.0; sel.len()],
            nulls: all,
        };
    }
    let ColumnChunk::Str { codes, dict, nulls } = chunk else {
        return chunk.gather(sel);
    };
    let mut own = StrDict::default();
    let mut out = Vec::with_capacity(sel.len());
    let mut out_nulls = Bitmap::zeros(sel.len());
    for (i, &p) in sel.iter().enumerate() {
        let p = p as usize;
        if nulls.get(p) {
            out_nulls.set(i);
            out.push(0);
        } else {
            out.push(own.intern(dict.get(codes[p])));
        }
    }
    ColumnChunk::Str {
        codes: out,
        dict: Arc::new(own),
        nulls: out_nulls,
    }
}

impl fmt::Display for ResultSet {
    /// Renders an aligned text table — what the JAS-plugin substitute and
    /// the examples print.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let grid = self.to_vector();
        let widths: Vec<usize> = (0..self.columns.len())
            .map(|c| {
                grid.iter()
                    .map(|r| r.get(c).map_or(0, String::len))
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        for (i, row) in grid.iter().enumerate() {
            for (c, cell) in row.iter().enumerate() {
                if c > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{cell:<width$}", width = widths[c])?;
            }
            writeln!(f)?;
            if i == 0 {
                let total: usize =
                    widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
                writeln!(f, "{}", "-".repeat(total))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A column of `values` (one class plus NULLs) as a stored chunk.
    fn stored(data_type: DataType, values: &[Value]) -> ColumnChunk {
        let mut c = ColumnChunk::for_type(data_type);
        values.iter().for_each(|v| c.push(v));
        c
    }

    #[test]
    fn a_staged_chunk_is_its_values_staged_as_rows() {
        let text = |s: &str| Value::Text(s.into());
        // A TEXT column whose dictionary holds strings the selection never
        // reads, in an order the selection does not follow.
        let mut pool: Vec<Value> = (0..40).map(|i| text(&format!("s{i}"))).collect();
        pool.extend([text("b"), Value::Null, text("a"), text("b"), text("")]);
        let columns = [
            (DataType::Text, pool),
            (
                DataType::Int,
                vec![Value::Int(3), Value::Null, Value::Int(-1)],
            ),
            (
                DataType::Float,
                vec![Value::Null, Value::Float(-0.0), Value::Float(f64::NAN)],
            ),
            (DataType::Bool, vec![Value::Bool(true), Value::Null]),
            (DataType::Bytes, vec![Value::Bytes(vec![]), Value::Null]),
        ];
        for (data_type, values) in columns {
            let chunk = stored(data_type, &values);
            let n = values.len() as u32;
            // Every row twice, a strided subset in reverse, all NULL, none,
            // and repeats out of order.
            let selections: Vec<Vec<u32>> = vec![
                (0..n).chain(0..n).collect(),
                (0..n).rev().step_by(3).collect(),
                (0..n).filter(|&p| values[p as usize].is_null()).collect(),
                Vec::new(),
                vec![n - 1, 0, n - 1],
            ];
            for sel in selections {
                let rows: Vec<Row> = sel
                    .iter()
                    .map(|&p| Row::new(vec![values[p as usize].clone()]))
                    .collect();
                let by_rows = stage_rows(&["c".into()], &rows).unwrap().remove(0);
                let staged = stage_chunk(&chunk, &sel);
                let debug = |c: &ColumnChunk| {
                    format!(
                        "{:?}",
                        (0..c.len()).map(|p| c.value_at(p)).collect::<Vec<_>>()
                    )
                };
                assert_eq!(
                    staged.data_type(),
                    by_rows.data_type(),
                    "{data_type:?} {sel:?}"
                );
                assert_eq!(staged.nulls(), by_rows.nulls(), "{data_type:?} {sel:?}");
                assert_eq!(debug(&staged), debug(&by_rows), "{data_type:?} {sel:?}");
                if let (Some((_, a, _)), Some((_, b, _))) = (staged.as_str(), by_rows.as_str()) {
                    assert_eq!(a.strings(), b.strings(), "only its own strings, in order");
                }
                // Sized as the same answer's rows.
                let columns = vec!["c".to_string()];
                let set = ColumnSet {
                    columns: columns.clone(),
                    cells: Cells::Chunks(vec![staged]),
                };
                let answer = ResultSet { columns, rows };
                assert_eq!(set.len(), answer.len());
                assert_eq!(set.wire_size(), answer.wire_size(), "{data_type:?} {sel:?}");
            }
        }
    }

    #[test]
    fn rows_are_staged_by_class_or_refused() {
        // A column mixing classes, which only an expression produces.
        assert!(matches!(
            stage_rows(
                &["c".into()],
                &[
                    Row::new(vec![Value::Int(1)]),
                    Row::new(vec![Value::Bool(true)])
                ]
            ),
            Err(SqlError::Storage(StorageError::TypeMismatch { .. }))
        ));
        // A ragged row.
        assert!(matches!(
            stage_rows(&["c".into()], &[Row::new(Vec::new())]),
            Err(SqlError::Storage(StorageError::ArityMismatch {
                expected: 1,
                got: 0
            }))
        ));
        // INT widened where a FLOAT follows.
        let widened = stage_rows(
            &["c".into()],
            &[
                Row::new(vec![Value::Int(2)]),
                Row::new(vec![Value::Float(0.5)]),
            ],
        )
        .unwrap();
        assert_eq!(widened[0].value_at(0), Value::Float(2.0));
        // An answer of rows is sized as its rows.
        let rows = vec![
            Row::new(vec![Value::Int(1)]),
            Row::new(vec![Value::Text("x".into())]),
        ];
        let set = ColumnSet {
            columns: vec!["c".into()],
            cells: Cells::Rows(rows.clone()),
        };
        let answer = ResultSet {
            columns: vec!["c".into()],
            rows,
        };
        assert_eq!((set.len(), set.wire_size()), (2, answer.wire_size()));
    }

    fn rs() -> ResultSet {
        ResultSet {
            columns: vec!["id".into(), "energy".into()],
            rows: vec![
                Row::new(vec![Value::Int(1), Value::Float(10.5)]),
                Row::new(vec![Value::Int(2), Value::Null]),
            ],
        }
    }

    #[test]
    fn vector_form_has_header_row() {
        let v = rs().to_vector();
        assert_eq!(v.len(), 3);
        assert_eq!(v[0], vec!["id", "energy"]);
        assert_eq!(v[2], vec!["2", "NULL"]);
    }

    #[test]
    fn column_access_is_case_insensitive() {
        let r = rs();
        assert_eq!(r.column_index("ENERGY"), Some(1));
        let vals = r.column_values("Id").unwrap();
        assert_eq!(vals, vec![Value::Int(1), Value::Int(2)]);
        assert!(r.column_values("nope").is_none());
    }

    #[test]
    fn append_checks_arity() {
        let mut a = rs();
        let b = rs();
        a.append(b).unwrap();
        assert_eq!(a.len(), 4);
        let bad = ResultSet::empty(vec!["x".into()]);
        assert!(a.append(bad).is_err());
    }

    #[test]
    fn display_renders_all_rows() {
        let text = rs().to_string();
        assert!(text.contains("id"));
        assert!(text.contains("10.5"));
        assert!(text.lines().count() >= 4);
    }
}

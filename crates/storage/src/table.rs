//! Tables stored column-major behind a row-compatible API.
//!
//! Since the columnar refactor, a table's body is one typed
//! [`ColumnChunk`] per column (see [`crate::column`]) plus a tombstone
//! [`Bitmap`]. Every row-oriented entry point (`insert`, `scan`, `rows`,
//! `lookup`, `delete_where`) still works unchanged — rows are materialized
//! from the chunks on demand — while the vectorized executor borrows the
//! chunks directly via [`Table::chunks`] and skips row materialization
//! entirely until its output boundary. A producer that already holds typed
//! columns skips the row API in the other direction too:
//! [`Table::from_columns`] adopts them after validating their shape.

use crate::column::{Bitmap, ColumnChunk};
use crate::error::StorageError;
use crate::index::OrderedIndex;
use crate::row::Row;
use crate::schema::Schema;
use crate::value::Value;
use crate::Result;
use std::collections::HashMap;

/// Rows [`Table::scan`] materializes at a time.
const SCAN_WINDOW: usize = 1024;

/// A table: a schema, typed column chunks, and zero or more single-column
/// indexes.
///
/// Deleted rows leave tombstones (a set bit in the tombstone bitmap) so
/// index positions stay stable; `compact` rebuilds the chunks when
/// tombstones accumulate.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    columns: Vec<ColumnChunk>,
    /// Physical row slots, tombstones included. Tracked separately from the
    /// chunks so zero-column tables still count rows.
    physical: usize,
    /// Bit set = row slot is deleted.
    tombs: Bitmap,
    live: usize,
    /// column position -> index
    indexes: HashMap<usize, OrderedIndex>,
}

impl Table {
    /// Create an empty table. UNIQUE columns automatically get an index so
    /// uniqueness checks are O(log n).
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        let columns = schema
            .columns()
            .iter()
            .map(|c| ColumnChunk::for_type(c.data_type))
            .collect();
        let mut t = Table {
            name: name.into(),
            schema,
            columns,
            physical: 0,
            tombs: Bitmap::new(),
            live: 0,
            indexes: HashMap::new(),
        };
        let unique_cols: Vec<usize> = t
            .schema
            .columns()
            .iter()
            .enumerate()
            .filter(|(_, c)| c.unique)
            .map(|(i, _)| i)
            .collect();
        for i in unique_cols {
            t.indexes.insert(i, OrderedIndex::new());
        }
        t
    }

    /// Adopt already-built column chunks as a table — no row is
    /// materialized, checked or copied. Validated instead: one chunk per
    /// schema column, each of its column's type and all of one length, no
    /// NULL in a NOT NULL column. A schema with a UNIQUE column is refused:
    /// this constructor builds no index and verifies no uniqueness, and a
    /// table that silently lacked either would break [`Table::insert`].
    /// The chunks' own consistency (a null bitmap as long as its data,
    /// codes inside their dictionary) is the builder's, as it is for every
    /// chunk a gather produces.
    pub fn from_columns(
        name: impl Into<String>,
        schema: Schema,
        chunks: Vec<ColumnChunk>,
    ) -> Result<Self> {
        if chunks.len() != schema.arity() {
            return Err(StorageError::ArityMismatch {
                expected: schema.arity(),
                got: chunks.len(),
            });
        }
        let rows = chunks.first().map_or(0, ColumnChunk::len);
        for (col, chunk) in schema.columns().iter().zip(&chunks) {
            if col.unique {
                return Err(StorageError::Invalid(format!(
                    "from_columns builds no index: column `{}` is UNIQUE",
                    col.name
                )));
            }
            if chunk.data_type() != col.data_type {
                return Err(StorageError::TypeMismatch {
                    column: col.name.clone(),
                    expected: col.data_type.name().to_string(),
                    got: chunk.data_type().name().to_string(),
                });
            }
            if chunk.len() != rows {
                return Err(StorageError::Invalid(format!(
                    "column `{}` holds {} rows, `{}` holds {rows}",
                    col.name,
                    chunk.len(),
                    schema.columns()[0].name
                )));
            }
            if !col.nullable && chunk.nulls().any() {
                return Err(StorageError::NullViolation(col.name.clone()));
            }
        }
        Ok(Table {
            name: name.into(),
            schema,
            columns: chunks,
            physical: rows,
            tombs: Bitmap::zeros(rows),
            live: rows,
            indexes: HashMap::new(),
        })
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename the table. Only the catalog (`Database::rename_table` /
    /// `replace_table`) calls this, keeping the map key and the table's own
    /// notion of its name in sync.
    pub(crate) fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// The table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if the table holds no live rows.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The typed column chunks, one per schema column. Positions run over
    /// the *physical* row space — check [`Table::is_live`] (or
    /// [`Table::has_tombstones`] first) before trusting a slot.
    pub fn chunks(&self) -> &[ColumnChunk] {
        &self.columns
    }

    /// Number of physical row slots, tombstones included.
    pub fn physical_len(&self) -> usize {
        self.physical
    }

    /// True if any row slot is tombstoned (`len() < physical_len()`).
    pub fn has_tombstones(&self) -> bool {
        self.live != self.physical
    }

    /// True if the row slot at `pos` holds a live (non-deleted) row.
    pub fn is_live(&self, pos: usize) -> bool {
        pos < self.physical && !self.tombs.get(pos)
    }

    /// Physical positions of the live rows, ascending — the selection
    /// vector of a full scan.
    pub fn live_positions(&self) -> Vec<u32> {
        let physical = u32::try_from(self.physical).expect("row position fits u32");
        if self.has_tombstones() {
            (0..physical)
                .filter(|&p| !self.tombs.get(p as usize))
                .collect()
        } else {
            (0..physical).collect()
        }
    }

    /// Materialize the live row at physical position `pos` (`None` for
    /// tombstoned or out-of-range slots).
    pub fn row_at(&self, pos: usize) -> Option<Row> {
        if !self.is_live(pos) {
            return None;
        }
        Some(Row::new(
            self.columns.iter().map(|c| c.value_at(pos)).collect(),
        ))
    }

    /// Create an ordered index on `column`, built directly from the column
    /// chunk — no row materialization. Existing rows are indexed
    /// immediately. Idempotent.
    pub fn create_index(&mut self, column: &str) -> Result<()> {
        let col = self
            .schema
            .index_of(column)
            .ok_or_else(|| StorageError::NoSuchColumn(column.to_string()))?;
        if self.indexes.contains_key(&col) {
            return Ok(());
        }
        self.indexes.insert(col, self.build_index(col));
        Ok(())
    }

    /// Build an index over the chunk at `col` from live positions only.
    fn build_index(&self, col: usize) -> OrderedIndex {
        let mut ix = OrderedIndex::new();
        let chunk = &self.columns[col];
        for pos in 0..self.physical {
            if !self.tombs.get(pos) {
                ix.insert(chunk.value_at(pos), pos);
            }
        }
        ix
    }

    /// True if `column` has an index.
    pub fn has_index(&self, column: &str) -> bool {
        self.schema
            .index_of(column)
            .is_some_and(|c| self.indexes.contains_key(&c))
    }

    /// Insert a row, enforcing schema types, NOT NULL, and UNIQUE.
    pub fn insert(&mut self, values: Vec<Value>) -> Result<usize> {
        let values = self.schema.check_row(values)?;
        // Uniqueness: every unique column has an index by construction.
        for (col_pos, col) in self.schema.columns().iter().enumerate() {
            if col.unique && !values[col_pos].is_null() {
                let ix = &self.indexes[&col_pos];
                if ix.contains(&values[col_pos]) {
                    return Err(StorageError::UniqueViolation {
                        column: col.name.clone(),
                        value: values[col_pos].render(),
                    });
                }
            }
        }
        let pos = self.physical;
        for (col_pos, ix) in self.indexes.iter_mut() {
            ix.insert(values[*col_pos].clone(), pos);
        }
        for (chunk, v) in self.columns.iter_mut().zip(&values) {
            chunk.push(v);
        }
        self.tombs.push(false);
        self.physical += 1;
        self.live += 1;
        Ok(pos)
    }

    /// Insert many rows; stops at the first error, reporting how many rows
    /// were inserted before it.
    pub fn insert_many(&mut self, rows: Vec<Vec<Value>>) -> Result<usize> {
        let mut n = 0;
        for r in rows {
            self.insert(r)?;
            n += 1;
        }
        Ok(n)
    }

    /// Overwrite the live row at physical position `pos` in place, with
    /// the same schema, NOT NULL and UNIQUE enforcement as
    /// [`Table::insert`]. The row keeps its position, so scans see it
    /// where it was; nothing is touched on error.
    pub fn update_at(&mut self, pos: usize, values: Vec<Value>) -> Result<()> {
        if !self.is_live(pos) {
            return Err(StorageError::Invalid(format!(
                "no live row at position {pos} of `{}`",
                self.name
            )));
        }
        let values = self.schema.check_row(values)?;
        for (col_pos, col) in self.schema.columns().iter().enumerate() {
            if col.unique
                && !values[col_pos].is_null()
                && self.indexes[&col_pos]
                    .get(&values[col_pos])
                    .iter()
                    .any(|&p| p != pos)
            {
                return Err(StorageError::UniqueViolation {
                    column: col.name.clone(),
                    value: values[col_pos].render(),
                });
            }
        }
        for (col_pos, ix) in self.indexes.iter_mut() {
            let old = self.columns[*col_pos].value_at(pos);
            if old != values[*col_pos] {
                ix.remove(&old, pos);
                ix.insert(values[*col_pos].clone(), pos);
            }
        }
        for (chunk, v) in self.columns.iter_mut().zip(&values) {
            chunk.set(pos, v);
        }
        Ok(())
    }

    /// Delete all rows matching `pred`; returns the number deleted.
    pub fn delete_where(&mut self, pred: impl Fn(&Row) -> bool) -> usize {
        let mut deleted = 0;
        for pos in 0..self.physical {
            let matches = self.row_at(pos).is_some_and(|r| pred(&r));
            if matches {
                for (col_pos, ix) in self.indexes.iter_mut() {
                    ix.remove(&self.columns[*col_pos].value_at(pos), pos);
                }
                self.tombs.set(pos);
                self.live -= 1;
                deleted += 1;
            }
        }
        deleted
    }

    /// Remove all rows (keeps schema and index definitions).
    pub fn truncate(&mut self) {
        for c in &mut self.columns {
            c.clear();
        }
        self.tombs.clear();
        self.physical = 0;
        self.live = 0;
        for ix in self.indexes.values_mut() {
            *ix = OrderedIndex::new();
        }
    }

    /// Iterate live rows, materialized a window of [`SCAN_WINDOW`] rows at
    /// a time — a caller that folds the rows away never holds the whole
    /// table as rows.
    pub fn scan(&self) -> impl Iterator<Item = Row> + '_ {
        let live = self.live_positions();
        (0..live.len())
            .step_by(SCAN_WINDOW)
            .flat_map(move |at| self.rows_at(&live[at..live.len().min(at + SCAN_WINDOW)]))
    }

    /// All live rows as a vector.
    pub fn rows(&self) -> Vec<Row> {
        self.rows_at(&self.live_positions())
    }

    /// The rows at `positions`, materialized column-major: rows are sized
    /// first, then each chunk writes its column into all of them
    /// ([`ColumnChunk::fill_rows`]).
    fn rows_at(&self, positions: &[u32]) -> Vec<Row> {
        let arity = self.columns.len();
        let mut rows: Vec<Row> = (0..positions.len())
            .map(|_| Row::new(vec![Value::Null; arity]))
            .collect();
        for (slot, chunk) in self.columns.iter().enumerate() {
            chunk.fill_rows(positions, &mut rows, slot);
        }
        rows
    }

    /// Rows whose `column` equals `value`, via index when available,
    /// falling back to a full scan otherwise.
    pub fn lookup(&self, column: &str, value: &Value) -> Result<Vec<Row>> {
        Ok(self
            .positions_of(column, value)?
            .into_iter()
            .filter_map(|p| self.row_at(p))
            .collect())
    }

    /// Physical positions of the live rows whose `column` equals `value`
    /// — what [`Table::update_at`] addresses. Via index when available,
    /// falling back to a scan of that one column otherwise.
    pub fn positions_of(&self, column: &str, value: &Value) -> Result<Vec<usize>> {
        let col = self
            .schema
            .index_of(column)
            .ok_or_else(|| StorageError::NoSuchColumn(column.to_string()))?;
        if let Some(ix) = self.indexes.get(&col) {
            Ok(ix.get(value).to_vec())
        } else {
            let chunk = &self.columns[col];
            Ok((0..self.physical)
                .filter(|&p| !self.tombs.get(p) && chunk.value_at(p).sql_eq(value))
                .collect())
        }
    }

    /// Rows whose `column` falls within `[lo, hi]`, via index when
    /// available. Requires an index (the SQL layer decides the fallback).
    pub fn range_lookup(
        &self,
        column: &str,
        lo: Option<&Value>,
        hi: Option<&Value>,
    ) -> Result<Vec<Row>> {
        let col = self
            .schema
            .index_of(column)
            .ok_or_else(|| StorageError::NoSuchColumn(column.to_string()))?;
        let ix = self
            .indexes
            .get(&col)
            .ok_or_else(|| StorageError::NoIndex(column.to_string()))?;
        Ok(ix
            .range(lo, hi)
            .iter()
            .filter_map(|&p| self.row_at(p))
            .collect())
    }

    /// Rebuild the chunks dropping tombstones; indexes are rebuilt from the
    /// compacted chunks.
    pub fn compact(&mut self) {
        let keep = self.live_positions();
        self.columns = self.columns.iter().map(|c| c.gather(&keep)).collect();
        self.physical = keep.len();
        self.live = keep.len();
        self.tombs = Bitmap::zeros(keep.len());
        let cols: Vec<usize> = self.indexes.keys().copied().collect();
        for col in cols {
            let ix = self.build_index(col);
            self.indexes.insert(col, ix);
        }
    }

    /// Approximate wire size of all live rows — what a full dump of this
    /// table would cost to transfer.
    pub fn wire_size(&self) -> usize {
        (0..self.physical)
            .filter(|&p| !self.tombs.get(p))
            .map(|p| {
                self.columns
                    .iter()
                    .map(|c| c.wire_size_at(p))
                    .sum::<usize>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::value::DataType;

    fn events_table() -> Table {
        let schema = Schema::new(vec![
            ColumnDef::new("e_id", DataType::Int).primary_key(),
            ColumnDef::new("energy", DataType::Float),
            ColumnDef::new("detector", DataType::Text),
        ])
        .unwrap();
        Table::new("events", schema)
    }

    #[test]
    fn insert_and_scan() {
        let mut t = events_table();
        t.insert(vec![Value::Int(1), Value::Float(10.5), "ecal".into()])
            .unwrap();
        t.insert(vec![Value::Int(2), Value::Float(20.0), "hcal".into()])
            .unwrap();
        assert_eq!(t.len(), 2);
        let rows = t.rows();
        assert_eq!(rows[0].values()[2], Value::Text("ecal".into()));
    }

    #[test]
    fn primary_key_uniqueness_enforced() {
        let mut t = events_table();
        t.insert(vec![Value::Int(1), Value::Null, Value::Null])
            .unwrap();
        let err = t
            .insert(vec![Value::Int(1), Value::Null, Value::Null])
            .unwrap_err();
        assert!(matches!(err, StorageError::UniqueViolation { .. }));
    }

    #[test]
    fn indexed_lookup_matches_scan() {
        let mut t = events_table();
        for i in 0..100 {
            t.insert(vec![
                Value::Int(i),
                Value::Float(f64::from(i as i32) * 0.5),
                if i % 2 == 0 { "ecal" } else { "hcal" }.into(),
            ])
            .unwrap();
        }
        t.create_index("detector").unwrap();
        let by_index = t.lookup("detector", &"ecal".into()).unwrap();
        assert_eq!(by_index.len(), 50);
        // unindexed column still works via scan
        let by_scan = t.lookup("energy", &Value::Float(2.5)).unwrap();
        assert_eq!(by_scan.len(), 1);
        assert_eq!(by_scan[0].values()[0], Value::Int(5));
    }

    /// Satellite regression: an index built over a dictionary-encoded
    /// string chunk (directly from codes, no row materialization) must
    /// agree with a full scan — including after deletes and with NULLs
    /// interleaved.
    #[test]
    fn string_index_agrees_with_full_scan_on_dictionary_column() {
        let mut t = events_table();
        let regions = ["barrel", "endcap", "forward"];
        for i in 0..60 {
            let det = if i % 7 == 0 {
                Value::Null
            } else {
                Value::Text(regions[i as usize % 3].into())
            };
            t.insert(vec![Value::Int(i), Value::Null, det]).unwrap();
        }
        // Delete some rows BEFORE building the index so the chunk walk
        // must honor tombstones.
        t.delete_where(|r| matches!(r.values()[0], Value::Int(i) if i % 10 == 4));
        t.create_index("detector").unwrap();
        for needle in ["barrel", "endcap", "forward", "absent"] {
            let via_index = t.lookup("detector", &needle.into()).unwrap();
            let via_scan: Vec<Row> = t
                .scan()
                .filter(|r| r.values()[2].sql_eq(&needle.into()))
                .collect();
            assert_eq!(via_index, via_scan, "lookup(`{needle}`) diverged");
        }
        // Deletes after the index is built stay consistent too.
        t.delete_where(|r| matches!(&r.values()[2], Value::Text(s) if s == "endcap"));
        assert!(t.lookup("detector", &"endcap".into()).unwrap().is_empty());
        let barrel = t.lookup("detector", &"barrel".into()).unwrap();
        let by_scan: Vec<Row> = t
            .scan()
            .filter(|r| r.values()[2].sql_eq(&"barrel".into()))
            .collect();
        assert_eq!(barrel, by_scan);
    }

    #[test]
    fn range_lookup_requires_index() {
        let mut t = events_table();
        for i in 0..10 {
            t.insert(vec![Value::Int(i), Value::Null, Value::Null])
                .unwrap();
        }
        // e_id is unique → auto-indexed
        let hits = t
            .range_lookup("e_id", Some(&Value::Int(3)), Some(&Value::Int(5)))
            .unwrap();
        assert_eq!(hits.len(), 3);
        assert!(matches!(
            t.range_lookup("energy", None, None),
            Err(StorageError::NoIndex(_))
        ));
    }

    #[test]
    fn delete_updates_len_and_indexes() {
        let mut t = events_table();
        for i in 0..10 {
            t.insert(vec![Value::Int(i), Value::Null, "d".into()])
                .unwrap();
        }
        let n = t.delete_where(|r| matches!(r.values()[0], Value::Int(i) if i < 4));
        assert_eq!(n, 4);
        assert_eq!(t.len(), 6);
        assert!(t.lookup("e_id", &Value::Int(2)).unwrap().is_empty());
        // deleted key can be reinserted
        t.insert(vec![Value::Int(2), Value::Null, Value::Null])
            .unwrap();
        assert_eq!(t.len(), 7);
    }

    #[test]
    fn update_at_overwrites_in_place_and_keeps_indexes_in_sync() {
        let mut t = events_table();
        for i in 0..5 {
            t.insert(vec![Value::Int(i), Value::Float(1.0), "ecal".into()])
                .unwrap();
        }
        let pos = t.positions_of("e_id", &Value::Int(3)).unwrap();
        assert_eq!(pos, vec![3]);
        // Same key, new payload (INT widens into the FLOAT column, a NULL
        // lands in the dictionary column): the row stays where it was.
        t.update_at(3, vec![Value::Int(3), Value::Int(7), Value::Null])
            .unwrap();
        assert_eq!(
            t.rows()[3].values(),
            &[Value::Int(3), Value::Float(7.0), Value::Null]
        );
        // ... and back from NULL to a value not yet in the dictionary.
        t.update_at(3, vec![Value::Int(3), Value::Null, "hcal".into()])
            .unwrap();
        assert_eq!(
            t.rows()[3].values(),
            &[Value::Int(3), Value::Null, Value::Text("hcal".into())]
        );
        // Changing the key moves the index entry.
        t.update_at(3, vec![Value::Int(30), Value::Null, Value::Null])
            .unwrap();
        assert!(t.positions_of("e_id", &Value::Int(3)).unwrap().is_empty());
        assert_eq!(t.positions_of("e_id", &Value::Int(30)).unwrap(), vec![3]);
        assert_eq!(t.len(), 5);
        // Unindexed columns are found by a column scan.
        assert_eq!(
            t.positions_of("detector", &"ecal".into()).unwrap(),
            vec![0, 1, 2, 4]
        );
    }

    #[test]
    fn update_at_rejects_bad_rows_without_touching_the_table() {
        let mut t = events_table();
        for i in 0..3 {
            t.insert(vec![Value::Int(i), Value::Null, Value::Null])
                .unwrap();
        }
        let before = t.rows();
        assert!(matches!(
            t.update_at(1, vec![Value::Int(2), Value::Null, Value::Null]),
            Err(StorageError::UniqueViolation { .. })
        ));
        assert!(matches!(
            t.update_at(1, vec!["x".into(), Value::Null, Value::Null]),
            Err(StorageError::TypeMismatch { .. })
        ));
        assert!(matches!(
            t.update_at(9, vec![Value::Int(9), Value::Null, Value::Null]),
            Err(StorageError::Invalid(_))
        ));
        t.delete_where(|r| matches!(r.values()[0], Value::Int(0)));
        assert!(t
            .update_at(0, vec![Value::Int(0), Value::Null, Value::Null])
            .is_err());
        assert_eq!(t.rows(), before[1..]);
    }

    #[test]
    fn compact_preserves_content() {
        let mut t = events_table();
        for i in 0..10 {
            t.insert(vec![Value::Int(i), Value::Null, Value::Null])
                .unwrap();
        }
        t.delete_where(|r| matches!(r.values()[0], Value::Int(i) if i % 2 == 0));
        t.compact();
        assert_eq!(t.len(), 5);
        assert_eq!(t.physical_len(), 5);
        assert!(!t.has_tombstones());
        assert_eq!(t.lookup("e_id", &Value::Int(3)).unwrap().len(), 1);
        assert_eq!(t.lookup("e_id", &Value::Int(4)).unwrap().len(), 0);
    }

    #[test]
    fn truncate_empties_but_keeps_indexes() {
        let mut t = events_table();
        t.insert(vec![Value::Int(1), Value::Null, Value::Null])
            .unwrap();
        t.truncate();
        assert!(t.is_empty());
        assert!(t.has_index("e_id"));
        t.insert(vec![Value::Int(1), Value::Null, Value::Null])
            .unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn nulls_do_not_violate_unique() {
        let schema = Schema::new(vec![ColumnDef::new("k", DataType::Int).unique()]).unwrap();
        let mut t = Table::new("t", schema);
        t.insert(vec![Value::Null]).unwrap();
        t.insert(vec![Value::Null]).unwrap();
        assert_eq!(t.len(), 2);
    }

    fn int_chunk(vals: &[Option<i64>]) -> ColumnChunk {
        let mut c = ColumnChunk::for_type(DataType::Int);
        for v in vals {
            c.push(&v.map_or(Value::Null, Value::Int));
        }
        c
    }

    fn text_chunk(vals: &[&str]) -> ColumnChunk {
        let mut c = ColumnChunk::for_type(DataType::Text);
        for v in vals {
            c.push(&Value::Text((*v).into()));
        }
        c
    }

    fn staging_schema() -> Schema {
        Schema::new(vec![
            ColumnDef::new("k", DataType::Int),
            ColumnDef::new("tag", DataType::Text),
        ])
        .unwrap()
    }

    #[test]
    fn from_columns_adopts_chunks_as_a_live_table() {
        let chunks = vec![
            int_chunk(&[Some(1), None, Some(3)]),
            text_chunk(&["a", "b", "a"]),
        ];
        let mut t = Table::from_columns("staged", staging_schema(), chunks).unwrap();
        assert_eq!((t.len(), t.physical_len()), (3, 3));
        assert!(!t.has_tombstones());
        assert_eq!(
            t.rows()[1].values(),
            &[Value::Null, Value::Text("b".into())]
        );
        // An adopted table is a table: it takes inserts and deletes.
        t.insert(vec![Value::Int(4), "c".into()]).unwrap();
        assert_eq!(t.delete_where(|r| r.values()[0].is_null()), 1);
        assert_eq!(t.live_positions(), vec![0, 2, 3]);
        assert_eq!(t.lookup("tag", &"a".into()).unwrap().len(), 2);
        // No columns, no rows.
        let empty = Table::from_columns("e", Schema::default(), Vec::new()).unwrap();
        assert_eq!((empty.len(), empty.rows().len()), (0, 0));
    }

    #[test]
    fn from_columns_rejects_what_it_cannot_vouch_for() {
        let ints = || int_chunk(&[Some(1), Some(2)]);
        // Arity: one chunk per schema column.
        assert!(matches!(
            Table::from_columns("t", staging_schema(), vec![ints()]),
            Err(StorageError::ArityMismatch {
                expected: 2,
                got: 1
            })
        ));
        // Chunk type = column type.
        assert!(matches!(
            Table::from_columns("t", staging_schema(), vec![ints(), ints()]),
            Err(StorageError::TypeMismatch { .. })
        ));
        // Ragged lengths.
        assert!(matches!(
            Table::from_columns("t", staging_schema(), vec![ints(), text_chunk(&["a"])]),
            Err(StorageError::Invalid(_))
        ));
        // UNIQUE needs an index and a uniqueness check this path never runs.
        let keyed = Schema::new(vec![ColumnDef::new("k", DataType::Int).unique()]).unwrap();
        assert!(matches!(
            Table::from_columns("t", keyed, vec![ints()]),
            Err(StorageError::Invalid(_))
        ));
        // NOT NULL is checked against the chunk's bitmap.
        let strict = Schema::new(vec![ColumnDef::new("k", DataType::Int).not_null()]).unwrap();
        assert!(Table::from_columns("t", strict.clone(), vec![ints()]).is_ok());
        assert!(matches!(
            Table::from_columns("t", strict, vec![int_chunk(&[Some(1), None])]),
            Err(StorageError::NullViolation(_))
        ));
    }

    #[test]
    fn rows_and_scan_fill_column_major_over_tombstones_and_nulls() {
        let mut t = events_table();
        for i in 0..7 {
            let energy = if i % 3 == 0 {
                Value::Null
            } else {
                Value::Float(i as f64)
            };
            let det = if i % 2 == 0 {
                Value::Null
            } else {
                Value::Text(format!("d{}", i % 3))
            };
            t.insert(vec![Value::Int(i), energy, det]).unwrap();
        }
        t.delete_where(|r| matches!(r.values()[0], Value::Int(1 | 4)));
        let by_slot: Vec<Row> = (0..t.physical_len()).filter_map(|p| t.row_at(p)).collect();
        assert_eq!(by_slot.len(), 5);
        assert_eq!(t.rows(), by_slot);
        assert_eq!(t.scan().collect::<Vec<_>>(), by_slot);
    }

    #[test]
    fn chunks_expose_columnar_view_with_tombstones() {
        let mut t = events_table();
        for i in 0..6 {
            t.insert(vec![
                Value::Int(i),
                Value::Float(i as f64 * 0.5),
                "ecal".into(),
            ])
            .unwrap();
        }
        t.delete_where(|r| matches!(r.values()[0], Value::Int(2)));
        assert_eq!(t.physical_len(), 6);
        assert!(t.has_tombstones());
        assert!(!t.is_live(2) && t.is_live(3));
        let (ids, nulls) = t.chunks()[0].as_int().unwrap();
        assert_eq!(ids, &[0, 1, 2, 3, 4, 5], "physical slots keep deleted data");
        assert!(!nulls.any());
        // row-API view skips the tombstone
        assert_eq!(t.rows().len(), 5);
        assert!(t.row_at(2).is_none());
        assert_eq!(t.row_at(3).unwrap().values()[0], Value::Int(3));
    }
}

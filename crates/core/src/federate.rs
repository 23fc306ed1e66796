//! Partial-result integration: the mediator-side join.
//!
//! After the sub-queries return, "the data retrieved through each of the
//! sub-queries is finally merged into a single 2-D vector, and returned to
//! the client" (§4.6). Integration turns each partial into a staging table
//! of typed column chunks, never a row cloned or inserted: a local
//! backend's answer to a plain column list arrives as gathered chunks
//! ([`Partial::from_columns`]) and is adopted as it is; rows — a peer's
//! reply, a monitor export, a [`Partial::from_result`], a local answer to
//! any other root — are staged where they arrive by the one rows → columns
//! routine ([`stage_rows`]). It then runs the
//! *residual* logical plan over the staging database with the `sqlkit`
//! plan executor — cross-database joins, residual predicates,
//! aggregation, ordering, and limits all fall out of the same engine that
//! powers the backends. The residual plan's scans are blanked (no filters,
//! no projection) because the backends already applied the pushed-down
//! work; what remains is exactly the mediator's share.

use crate::decompose;
use crate::error::CoreError;
use crate::Result;
use gridfed_obs::NodeContribution;
use gridfed_sqlkit::ast::{ColumnRef, ScalarFunc};
use gridfed_sqlkit::bloom::BloomFilter;
use gridfed_sqlkit::exec::{execute_plan_metered, DatabaseProvider, ProviderCatalog};
use gridfed_sqlkit::plan::LogicalPlan;
use gridfed_sqlkit::result::stage_rows;
use gridfed_sqlkit::{Cells, ColumnSet, ExecMetrics, Expr, ResultSet, SqlError};
use gridfed_storage::{ColumnChunk, ColumnDef, Database, Row, Schema, StorageError, Table, Value};

/// One fetched partial result: the table name it answers for, its column
/// names, and its values — as typed column chunks when a local backend
/// answered a sub-query ([`Partial::from_columns`]), as rows when they
/// crossed a wire or answer a whole statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Partial {
    /// Table name as spelled in the client query.
    pub table: String,
    /// Column names of the partial.
    pub columns: Vec<String>,
    /// Typed rows; empty when the partial holds columns.
    pub rows: Vec<Row>,
    /// A local answer's chunks, one per column, typed as staging types rows:
    /// staging adopts them as they are.
    chunks: Option<Vec<ColumnChunk>>,
}

impl Partial {
    /// A partial of rows.
    pub fn new(table: impl Into<String>, columns: Vec<String>, rows: Vec<Row>) -> Partial {
        Partial {
            table: table.into(),
            columns,
            rows,
            chunks: None,
        }
    }

    /// Build from a [`ResultSet`].
    pub fn from_result(table: impl Into<String>, rs: ResultSet) -> Partial {
        Partial::new(table, rs.columns, rs.rows)
    }

    /// Build from a backend's [`ColumnSet`]: its chunks, or its rows.
    pub fn from_columns(table: impl Into<String>, cs: ColumnSet) -> Partial {
        let (rows, chunks) = match cs.cells {
            Cells::Chunks(chunks) => (Vec::new(), Some(chunks)),
            Cells::Rows(rows) => (rows, None),
        };
        Partial {
            table: table.into(),
            columns: cs.columns,
            rows,
            chunks,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match &self.chunks {
            Some(chunks) => chunks.first().map_or(0, ColumnChunk::len),
            None => self.rows.len(),
        }
    }

    /// True if the partial has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// [`Partial::wire_size`] from the `ResultSet::wire_size` of the same
    /// answer, which the caller has already paid for: the two encodings
    /// hold the same values and differ by framing only.
    pub(crate) fn framed_size(&self, answer_size: usize) -> usize {
        let size = answer_size + self.framing();
        debug_assert_eq!(size, self.wire_size());
        size
    }

    /// What [`Partial::wire_size`] adds to the `ResultSet::wire_size` of
    /// the same answer.
    pub(crate) fn framing(&self) -> usize {
        15 + self.columns.len() + 5 * self.len()
    }

    /// Exact wire size of the partial as the Clarens codec encodes it
    /// (`result_to_wire(..).encode().len()`): the outer two-element list,
    /// the column-name list, and one list per row. Keeping this identical
    /// to the transfer encoding means `bytes_fetched` and `bytes_saved`
    /// measure the same quantity.
    pub fn wire_size(&self) -> usize {
        let columns: usize = self.columns.iter().map(|c| 5 + c.len()).sum();
        let values: usize = match &self.chunks {
            Some(chunks) => chunks.iter().map(ColumnChunk::wire_size).sum(),
            None => self.rows.iter().map(Row::wire_size).sum(),
        };
        5 + (5 + columns) + (5 + 5 * self.len() + values)
    }

    /// The chunks of this partial's staging table: `chunks` — its own,
    /// taken or cloned by the caller — or its rows, staged by
    /// [`stage_rows`].
    fn staged(&self, chunks: Option<Vec<ColumnChunk>>) -> Result<Vec<ColumnChunk>> {
        if let Some(chunks) = chunks {
            return Ok(chunks);
        }
        let chunks = stage_rows(&self.columns, &self.rows).map_err(|e| match e {
            SqlError::Storage(StorageError::TypeMismatch {
                column,
                expected,
                got,
            }) => CoreError::Internal(format!(
                "partial `{}` column `{column}` mixes {expected} and {got}",
                self.table
            )),
            e => e.into(),
        })?;
        if self.columns.is_empty() && !self.rows.is_empty() {
            // Columns carry the row count; the decomposer never ships a
            // sub-query without one, so this is a malformed peer reply.
            return Err(CoreError::Internal(format!(
                "partial `{}` has {} rows and no columns",
                self.table,
                self.rows.len()
            )));
        }
        Ok(chunks)
    }
}

/// A partial's staging table: `chunks` under the partial's `table` name and
/// `columns`.
fn staging_table(table: String, columns: Vec<String>, chunks: Vec<ColumnChunk>) -> Result<Table> {
    let defs = columns.into_iter().zip(&chunks);
    let schema = Schema::new(
        defs.map(|(name, c)| ColumnDef::new(name, c.data_type()))
            .collect(),
    )?;
    Ok(Table::from_columns(table, schema, chunks)?)
}

/// Distinct, non-NULL, sorted join keys of `column` in a fetched partial —
/// the key set a semi-join reduction ships to the big side's source.
/// `None` when the partial has no such column (the caller then falls back
/// to full scatter for that reduction).
pub fn reduction_keys(partial: &Partial, column: &str) -> Option<Vec<Value>> {
    let idx = partial
        .columns
        .iter()
        .position(|c| c.eq_ignore_ascii_case(column))?;
    let mut keys: Vec<Value> = match &partial.chunks {
        Some(chunks) => {
            let c = chunks.get(idx)?;
            (0..c.len())
                .filter(|&p| !c.is_null(p))
                .map(|p| c.value_at(p))
                .collect()
        }
        None => partial
            .rows
            .iter()
            .filter_map(|row| {
                let v = row.values().get(idx)?;
                (!v.is_null()).then(|| v.clone())
            })
            .collect(),
    };
    keys.sort_by(|a, b| a.index_cmp(b));
    keys.dedup_by(|a, b| a.sql_cmp(b) == Some(std::cmp::Ordering::Equal));
    Some(keys)
}

/// Whether a key round-trips exactly through a rendered SQL literal: only
/// such keys may ship as an IN-list (bloom filters carry their keys as
/// hashed bits, so they have no such constraint).
fn literal_exact(v: &Value) -> bool {
    match v {
        Value::Int(_) | Value::Text(_) | Value::Bool(_) => true,
        Value::Float(x) => x.is_finite(),
        Value::Null | Value::Bytes(_) => false,
    }
}

/// The membership predicate a reduction injects into the big side's
/// sub-query: a sorted `IN`-list when the key set is small and every key
/// renders exactly, a fixed-seed [`BloomFilter`] probe otherwise. An empty
/// key set becomes `col IN (NULL)` — NULL for every row, so the backend
/// returns zero rows (an inner join against an empty side is empty).
pub fn reduction_predicate(column: &str, keys: &[Value]) -> Expr {
    let col = Expr::Column(ColumnRef {
        qualifier: None,
        column: column.to_string(),
    });
    if keys.is_empty() {
        return Expr::InList {
            expr: Box::new(col),
            list: vec![Expr::Literal(Value::Null)],
            negated: false,
        };
    }
    if keys.len() <= decompose::IN_LIST_MAX_KEYS && keys.iter().all(literal_exact) {
        return Expr::InList {
            expr: Box::new(col),
            list: keys.iter().map(|k| Expr::Literal(k.clone())).collect(),
            negated: false,
        };
    }
    let mut filter = BloomFilter::with_capacity(keys.len());
    for k in keys {
        filter.insert(k);
    }
    Expr::Func {
        func: ScalarFunc::BloomHas,
        args: vec![col, Expr::Literal(Value::Text(filter.to_hex()))],
    }
}

/// Integrate partials by executing the residual `plan` over them.
pub fn integrate(plan: &LogicalPlan, partials: &[Partial]) -> Result<ResultSet> {
    integrate_metered(plan, partials).map(|(rs, _)| rs)
}

/// The in-memory staging database the residual plan runs over: one table
/// per partial ([`staging_table`]), a local answer's chunks adopted whole
/// and rows staged as typed chunks — no row cloned, checked or inserted.
/// Partials the caller still holds lend their chunks as clones; the query
/// route hands its partials over ([`stage_owned`]).
fn stage(partials: &[Partial]) -> Result<Database> {
    staging(partials.iter().map(|p| {
        let chunks = p.staged(p.chunks.clone())?;
        staging_table(p.table.clone(), p.columns.clone(), chunks)
    }))
}

/// [`stage`] of partials handed over: their chunks and names move into the
/// staging tables.
pub(crate) fn stage_owned(partials: Vec<Partial>) -> Result<Database> {
    staging(partials.into_iter().map(|mut p| {
        let chunks = p.chunks.take();
        let chunks = p.staged(chunks)?;
        staging_table(p.table, p.columns, chunks)
    }))
}

fn staging(tables: impl Iterator<Item = Result<Table>>) -> Result<Database> {
    let mut staging = Database::new("mediator_staging");
    for table in tables {
        staging.add_table(table?)?;
    }
    Ok(staging)
}

/// [`integrate`], additionally reporting the executor's accounting so the
/// service can fold it into `QueryStats`.
pub fn integrate_metered(
    plan: &LogicalPlan,
    partials: &[Partial],
) -> Result<(ResultSet, ExecMetrics)> {
    let staging = stage(partials)?;
    execute_plan_metered(plan, &DatabaseProvider(&staging)).map_err(CoreError::from)
}

/// Flatten a [`PlanProfile`] into one [`NodeContribution`] per visited node,
/// in the form the statement-profile store aggregates across executions:
/// the label `node:<kind>#<dfs index>` (e.g. `node:hash_join#0`) is derived
/// from the plan *shape*, so re-executions of the same fingerprint attribute
/// time to the same node keys. Time is inclusive wall time (children
/// included); fused nodes report zero (their cost lives in the parent, and
/// the annotation says so).
fn flatten_profile(
    plan: &LogicalPlan,
    profile: &gridfed_sqlkit::analyze::PlanProfile,
    index: &mut usize,
    out: &mut Vec<NodeContribution>,
) {
    let here = *index;
    *index += 1;
    if let Some(node) = profile.get(plan) {
        out.push(NodeContribution {
            node: format!("node:{}#{here}", plan.kind_name()),
            us: if node.fused {
                0
            } else {
                (node.nanos / 1_000) as u64
            },
            rows: node.rows,
        });
    }
    for child in plan.children() {
        flatten_profile(child, profile, index, out);
    }
}

/// [`integrate_metered`] with `EXPLAIN ANALYZE` profiling: also returns
/// the residual tree annotated per node with row estimates (from the
/// staged partials' real cardinalities) and actual rows/loops/time, plus
/// the same actuals flattened into [`NodeContribution`]s for the statement
/// profile store.
pub fn integrate_analyzed(
    plan: &LogicalPlan,
    partials: &[Partial],
) -> Result<(ResultSet, ExecMetrics, String, Vec<NodeContribution>)> {
    run_analyzed(plan, &stage(partials)?)
}

/// The residual `plan` over a staging database with `EXPLAIN ANALYZE`
/// profiling ([`integrate_analyzed`]).
pub(crate) fn run_analyzed(
    plan: &LogicalPlan,
    staging: &Database,
) -> Result<(ResultSet, ExecMetrics, String, Vec<NodeContribution>)> {
    let provider = DatabaseProvider(staging);
    let (rs, metrics, profile) =
        gridfed_sqlkit::analyze::execute_plan_analyzed(plan, &provider).map_err(CoreError::from)?;
    let catalog = ProviderCatalog(&provider);
    let annotated = gridfed_sqlkit::analyze::annotate(plan, Some(&catalog), Some(&profile));
    let mut actuals = Vec::new();
    flatten_profile(plan, &profile, &mut 0, &mut actuals);
    Ok((rs, metrics, annotated, actuals))
}

/// Compact one-line rendering of a plan's operator tree, e.g.
/// `project(filter(scan))` — the "plan shape" half of the statement
/// fingerprint.
pub fn plan_shape(plan: &LogicalPlan) -> String {
    fn write(plan: &LogicalPlan, out: &mut String) {
        out.push_str(plan.kind_name());
        let children = plan.children();
        for (i, child) in children.iter().enumerate() {
            out.push(if i == 0 { '(' } else { ',' });
            write(child, out);
        }
        if !children.is_empty() {
            out.push(')');
        }
    }
    // Room for a two-table join's shape: rendered in one allocation.
    let mut out = String::with_capacity(64);
    write(plan, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridfed_sqlkit::parser::parse_select;
    use gridfed_sqlkit::plan::build_plan;

    fn events_partial() -> Partial {
        Partial::new(
            "events",
            vec!["e_id".into(), "run_id".into(), "energy".into()],
            vec![
                Row::new(vec![Value::Int(1), Value::Int(10), Value::Float(5.0)]),
                Row::new(vec![Value::Int(2), Value::Int(10), Value::Float(50.0)]),
                Row::new(vec![Value::Int(3), Value::Int(20), Value::Float(70.0)]),
            ],
        )
    }

    fn runs_partial() -> Partial {
        Partial::new(
            "runs",
            vec!["run_id".into(), "detector".into()],
            vec![
                Row::new(vec![Value::Int(10), Value::Text("ecal".into())]),
                Row::new(vec![Value::Int(20), Value::Text("hcal".into())]),
            ],
        )
    }

    #[test]
    fn cross_partial_join() {
        let stmt = parse_select(
            "SELECT e.e_id, r.detector FROM events e JOIN runs r ON e.run_id = r.run_id \
             WHERE e.energy > 10.0 ORDER BY e.e_id",
        )
        .unwrap();
        let rs = integrate(&build_plan(&stmt), &[events_partial(), runs_partial()]).unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.rows[0].values()[1], Value::Text("ecal".into()));
        assert_eq!(rs.rows[1].values()[1], Value::Text("hcal".into()));
    }

    #[test]
    fn residual_aggregation() {
        let stmt = parse_select(
            "SELECT r.detector, COUNT(*) AS n FROM events e JOIN runs r \
             ON e.run_id = r.run_id GROUP BY r.detector ORDER BY r.detector",
        )
        .unwrap();
        let rs = integrate(&build_plan(&stmt), &[events_partial(), runs_partial()]).unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.rows[0].values()[1], Value::Int(2));
    }

    #[test]
    fn all_null_column_defaults_to_float() {
        let p = Partial::new("t", vec!["a".into()], vec![Row::new(vec![Value::Null])]);
        let stmt = parse_select("SELECT a FROM t").unwrap();
        let rs = integrate(&build_plan(&stmt), &[p]).unwrap();
        assert_eq!(rs.len(), 1);
        assert!(rs.rows[0].values()[0].is_null());
    }

    #[test]
    fn mixed_numeric_column_widens() {
        let p = Partial::new(
            "t",
            vec!["a".into()],
            vec![
                Row::new(vec![Value::Int(1)]),
                Row::new(vec![Value::Float(2.5)]),
            ],
        );
        let stmt = parse_select("SELECT a FROM t ORDER BY a").unwrap();
        let rs = integrate(&build_plan(&stmt), &[p]).unwrap();
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn incompatible_types_rejected() {
        let p = Partial::new(
            "t",
            vec!["a".into()],
            vec![
                Row::new(vec![Value::Int(1)]),
                Row::new(vec![Value::Text("x".into())]),
            ],
        );
        let stmt = parse_select("SELECT a FROM t").unwrap();
        assert!(matches!(
            integrate(&build_plan(&stmt), &[p]),
            Err(CoreError::Internal(_))
        ));
    }

    #[test]
    fn malformed_partials_are_typed_errors_not_panics() {
        let stmt = parse_select("SELECT * FROM t").unwrap();
        let plan = build_plan(&stmt);
        let partial = |columns: &[&str], rows: Vec<Vec<Value>>| {
            Partial::new(
                "t",
                columns.iter().map(|c| c.to_string()).collect(),
                rows.into_iter().map(Row::new).collect(),
            )
        };
        // A row longer than the column list, and a shorter one.
        for cells in [vec![Value::Int(1), Value::Int(2)], Vec::new()] {
            let p = partial(&["a"], vec![vec![Value::Int(0)], cells]);
            assert!(matches!(
                integrate(&plan, &[p]),
                Err(CoreError::Sql(gridfed_sqlkit::SqlError::Storage(
                    StorageError::ArityMismatch { expected: 1, .. }
                )))
            ));
        }
        // Rows without columns have nowhere to be counted.
        let p = partial(&[], vec![Vec::new(), Vec::new()]);
        assert!(matches!(
            integrate(&plan, &[p]),
            Err(CoreError::Internal(_))
        ));
        // No columns and no rows is an empty table.
        let rs = integrate(&plan, &[partial(&[], Vec::new())]).unwrap();
        assert!(rs.columns.is_empty() && rs.rows.is_empty());
        // The same table name twice.
        let p = partial(&["a"], vec![vec![Value::Int(0)]]);
        assert!(integrate(&plan, &[p.clone(), p]).is_err());
    }

    /// The staging this module had before it built columns: a table filled
    /// row by row through `insert` — kept as the reference `stage` is
    /// compared against.
    fn integrate_by_insert(plan: &LogicalPlan, partials: &[Partial]) -> Result<ResultSet> {
        let mut staging = Database::new("reference_staging");
        for p in partials {
            // Types as staging infers them.
            let chunks = p.staged(None)?;
            let schema = staging_table(p.table.clone(), p.columns.clone(), chunks)?;
            let schema = schema.schema().clone();
            let table = staging.create_table(p.table.clone(), schema)?;
            for row in &p.rows {
                table.insert(row.values().to_vec())?;
            }
        }
        gridfed_sqlkit::exec::execute_plan(plan, &DatabaseProvider(&staging))
            .map_err(CoreError::from)
    }

    /// A cell of value class `class % 6`: NULL, INT, FLOAT, TEXT, BOOL, BYTES.
    fn cell(class: usize, n: i64) -> Value {
        match class % 6 {
            0 => Value::Null,
            1 => Value::Int(n),
            2 => Value::Float(n as f64 + 0.5),
            3 => Value::Text(format!("s{}", n % 3)),
            4 => Value::Bool(n % 2 == 0),
            _ => Value::Bytes(vec![n as u8; (n % 3) as usize]),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Whatever a peer sends as a partial — any cell classes, NULLs,
        /// all-NULL columns, INT/FLOAT mixes, ragged rows, no rows, no
        /// columns — integration answers exactly as the insert-built
        /// staging did, or returns a typed error where that did; it never
        /// panics.
        #[test]
        fn staging_equals_row_inserts_on_arbitrary_partials(
            n_cols in 0usize..4,
            col_classes in proptest::collection::vec(0usize..6, 3),
            rows in proptest::collection::vec(
                (proptest::collection::vec((0usize..12, 0i64..6), 4), 0usize..8),
                0..9,
            ),
            hostile in 0usize..3,
        ) {
            let rows: Vec<Row> = rows
                .iter()
                .map(|(cells, len_roll)| {
                    // A hostile case makes one row in eight ragged.
                    let len = match (hostile, len_roll) {
                        (0, 0) => n_cols + 1,
                        (0, 1) => n_cols.saturating_sub(1),
                        _ => n_cols,
                    };
                    Row::new(
                        cells[..len]
                            .iter()
                            .enumerate()
                            .map(|(c, &(roll, n))| match (roll, col_classes[c % 3]) {
                                // Mostly the column's own class (class 0:
                                // an all-NULL column), some NULLs, INTs
                                // in a FLOAT column (widened), and in a
                                // hostile case any class at all.
                                (7 | 8, _) => Value::Null,
                                (9 | 10, 2) => Value::Int(n),
                                (11, _) if hostile == 1 => cell(n as usize, n),
                                (_, class) => cell(class, n),
                            })
                            .collect(),
                    )
                })
                .collect();
            let columns = (0..n_cols).map(|c| format!("c{c}")).collect();
            let partial = Partial::new("t", columns, rows);
            let mut queries = vec!["SELECT * FROM t", "SELECT COUNT(*) FROM t"];
            if n_cols > 0 {
                queries.extend([
                    "SELECT c0 FROM t ORDER BY c0",
                    "SELECT c0, COUNT(*) AS n FROM t GROUP BY c0 ORDER BY c0",
                    "SELECT a.c0, b.c0 FROM t a JOIN t b ON a.c0 = b.c0",
                ]);
            }
            for sql in queries {
                let plan = build_plan(&parse_select(sql).unwrap());
                let staged = integrate(&plan, std::slice::from_ref(&partial));
                let inserted = integrate_by_insert(&plan, std::slice::from_ref(&partial));
                match (staged, inserted) {
                    (Ok(a), Ok(b)) => proptest::prop_assert_eq!(a, b, "`{}` over {:?}", sql, partial),
                    (Err(_), Err(_)) => {}
                    // The one refusal the insert path did not make: rows
                    // that no column can count.
                    (Err(e), Ok(_)) => proptest::prop_assert!(
                        n_cols == 0 && !partial.rows.is_empty(),
                        "`{}` over {:?}: staging refused with {}", sql, partial, e
                    ),
                    (Ok(a), Err(e)) => proptest::prop_assert!(
                        false,
                        "`{}` over {:?}: staging answered {:?}, inserts refused with {}",
                        sql, partial, a, e
                    ),
                }
            }
        }
    }

    #[test]
    fn plan_shape_and_analyzed_actuals_are_shape_stable() {
        let stmt =
            parse_select("SELECT e_id FROM events WHERE energy > 10.0 ORDER BY e_id").unwrap();
        let plan = build_plan(&stmt);
        let shape = plan_shape(&plan);
        assert!(shape.contains("scan"), "shape={shape}");
        assert!(shape.contains('('), "nested operators render as a tree");
        let (rs, _, annotated, actuals) = integrate_analyzed(&plan, &[events_partial()]).unwrap();
        assert_eq!(rs.len(), 2);
        assert!(annotated.contains("(act"), "{annotated}");
        assert!(!actuals.is_empty());
        // Same query again: identical node labels (shape-stable keys).
        let (_, _, _, again) = integrate_analyzed(&plan, &[events_partial()]).unwrap();
        let labels: Vec<&str> = actuals.iter().map(|a| a.node.as_str()).collect();
        let labels2: Vec<&str> = again.iter().map(|a| a.node.as_str()).collect();
        assert_eq!(labels, labels2);
        assert!(
            labels.iter().any(|l| l.starts_with("node:scan#")),
            "{labels:?}"
        );
    }

    #[test]
    fn self_join_over_one_partial() {
        let stmt = parse_select(
            "SELECT a.e_id, b.e_id FROM events a JOIN events b ON a.run_id = b.run_id \
             WHERE a.e_id < b.e_id",
        )
        .unwrap();
        let rs = integrate(&build_plan(&stmt), &[events_partial()]).unwrap();
        assert_eq!(rs.len(), 1); // (1,2) within run 10
    }

    #[test]
    fn partial_wire_size_matches_the_encoded_transfer() {
        // `bytes_fetched` (and therefore `bytes_saved`) must measure the
        // same bytes the Clarens codec actually puts on the wire, across
        // every value type — including NULLs and Bytes (which cross
        // rendered as a hex string).
        let p = Partial::new(
            "t",
            vec![
                "id".into(),
                "name".into(),
                "x".into(),
                "ok".into(),
                "raw".into(),
            ],
            vec![
                Row::new(vec![
                    Value::Int(7),
                    Value::Text("aliquippa".into()),
                    Value::Float(1.25),
                    Value::Bool(true),
                    Value::Bytes(vec![0xde, 0xad, 0xbe]),
                ]),
                Row::new(vec![
                    Value::Null,
                    Value::Text(String::new()),
                    Value::Null,
                    Value::Bool(false),
                    Value::Bytes(Vec::new()),
                ]),
            ],
        );
        let rs = ResultSet {
            columns: p.columns.clone(),
            rows: p.rows.clone(),
        };
        let encoded = crate::service::result_to_wire(&rs).encode();
        assert_eq!(p.wire_size(), encoded.len());
        // The staged form — the same answer as typed columns — sizes the
        // same bytes, and from the answer's own size.
        let staged = as_columns(p.clone());
        assert!(staged.rows.is_empty() && staged.chunks.is_some());
        assert_eq!(staged.wire_size(), encoded.len());
        assert_eq!(staged.framed_size(rs.wire_size()), encoded.len());

        // Degenerate shapes stay exact too.
        let empty = Partial::new("t", vec!["only".into()], Vec::new());
        let rs = ResultSet {
            columns: empty.columns.clone(),
            rows: Vec::new(),
        };
        let encoded = crate::service::result_to_wire(&rs).encode().len();
        assert_eq!(empty.wire_size(), encoded);
        assert_eq!(as_columns(empty).wire_size(), encoded);
    }

    /// `p` as a local backend hands it over: its rows staged as typed
    /// columns.
    fn as_columns(p: Partial) -> Partial {
        let cells = Cells::Chunks(stage_rows(&p.columns, &p.rows).unwrap());
        let columns = p.columns;
        Partial::from_columns(p.table, ColumnSet { columns, cells })
    }

    /// A partial of typed columns stages, sizes and yields its keys as the
    /// same answer's rows do.
    #[test]
    fn a_staged_partial_integrates_as_its_rows() {
        let stmt = parse_select(
            "SELECT e.e_id, r.detector FROM events e JOIN runs r ON e.run_id = r.run_id \
             ORDER BY e.e_id",
        )
        .unwrap();
        let plan = build_plan(&stmt);
        let rows = [events_partial(), runs_partial()];
        let columns = rows.clone().map(as_columns);
        assert_eq!(
            integrate(&plan, &rows).unwrap(),
            integrate(&plan, &columns).unwrap()
        );
        let owned = stage_owned(columns.to_vec()).unwrap();
        assert_eq!(
            gridfed_sqlkit::exec::execute_plan(&plan, &DatabaseProvider(&owned)).unwrap(),
            integrate(&plan, &rows).unwrap()
        );
        for (r, c) in rows.iter().zip(&columns) {
            assert_eq!((r.len(), r.wire_size()), (c.len(), c.wire_size()));
            for column in &r.columns {
                assert_eq!(reduction_keys(r, column), reduction_keys(c, column));
            }
        }
    }

    #[test]
    fn reduction_keys_are_distinct_sorted_and_null_free() {
        let p = Partial::new(
            "runs",
            vec!["run_id".into(), "site".into()],
            vec![
                Row::new(vec![Value::Int(30), Value::Text("a".into())]),
                Row::new(vec![Value::Int(10), Value::Text("b".into())]),
                Row::new(vec![Value::Null, Value::Text("c".into())]),
                Row::new(vec![Value::Int(30), Value::Text("d".into())]),
            ],
        );
        // Case-insensitive column lookup; NULLs dropped; duplicates folded.
        let keys = reduction_keys(&p, "RUN_ID").unwrap();
        assert_eq!(keys, vec![Value::Int(10), Value::Int(30)]);
        assert!(reduction_keys(&p, "no_such_column").is_none());
        // The same answer as typed columns.
        let staged = as_columns(p);
        assert_eq!(reduction_keys(&staged, "run_id").unwrap(), keys);
        assert!(reduction_keys(&staged, "no_such_column").is_none());
    }

    #[test]
    fn reduction_predicate_picks_in_list_bloom_or_empty_guard() {
        use gridfed_sqlkit::render::render_expr_neutral;

        // Empty key set: a predicate that evaluates NULL (zero rows) but
        // still parses at the remote end.
        let none = render_expr_neutral(&reduction_predicate("k", &[]));
        assert!(none.contains("IN (NULL)"), "{none}");

        // Small exact keys: a sorted IN-list.
        let small = render_expr_neutral(&reduction_predicate("k", &[Value::Int(1), Value::Int(5)]));
        assert!(small.contains("IN (1, 5)"), "{small}");

        // Above the IN-list cap: a bloom probe carrying the hex payload.
        let many: Vec<Value> = (0..200).map(Value::Int).collect();
        let big = render_expr_neutral(&reduction_predicate("k", &many));
        assert!(big.contains("BLOOM_HAS("), "{big}");

        // Non-exact literals (a non-finite float) force the bloom form
        // even for tiny key sets.
        let odd = render_expr_neutral(&reduction_predicate("k", &[Value::Float(f64::INFINITY)]));
        assert!(odd.contains("BLOOM_HAS("), "{odd}");
    }
}

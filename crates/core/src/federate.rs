//! Partial-result integration: the mediator-side join.
//!
//! After the sub-queries return, "the data retrieved through each of the
//! sub-queries is finally merged into a single 2-D vector, and returned to
//! the client" (§4.6). Integration turns each partial into a staging table
//! — typed column chunks built straight from the partial's borrowed rows
//! and adopted whole, never a row cloned or inserted — and runs the
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
use gridfed_sqlkit::{ExecMetrics, Expr, ResultSet};
use gridfed_storage::{
    normalize_ident, Bitmap, ColumnChunk, ColumnDef, DataType, Database, Row, Schema, StorageError,
    StrDict, Table, Value,
};
use std::sync::Arc;

/// One fetched partial result: the table name it answers for, plus rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Partial {
    /// Table name as spelled in the client query.
    pub table: String,
    /// Column names of the partial.
    pub columns: Vec<String>,
    /// Typed rows.
    pub rows: Vec<Row>,
}

impl Partial {
    /// Build from a [`ResultSet`].
    pub fn from_result(table: impl Into<String>, rs: ResultSet) -> Partial {
        Partial {
            table: table.into(),
            columns: rs.columns,
            rows: rs.rows,
        }
    }

    /// [`Partial::from_result`] with the partial's [`Partial::wire_size`],
    /// derived from the `ResultSet::wire_size` the caller has already paid
    /// its walk over every value for: the two encodings hold the same
    /// values and differ by framing only.
    pub(crate) fn from_sized_result(
        table: impl Into<String>,
        rs: ResultSet,
        rs_wire_size: usize,
    ) -> (Partial, usize) {
        let size = rs_wire_size + 15 + rs.columns.len() + 5 * rs.rows.len();
        let partial = Partial::from_result(table, rs);
        debug_assert_eq!(size, partial.wire_size());
        (partial, size)
    }

    /// Exact wire size of the partial as the Clarens codec encodes it
    /// (`result_to_wire(..).encode().len()`): the outer two-element list,
    /// the column-name list, and one list per row. Keeping this identical
    /// to the transfer encoding means `bytes_fetched` and `bytes_saved`
    /// measure the same quantity.
    pub fn wire_size(&self) -> usize {
        let columns: usize = self.columns.iter().map(|c| 5 + c.len()).sum();
        let rows: usize = self.rows.iter().map(|r| 5 + r.wire_size()).sum();
        5 + (5 + columns) + (5 + rows)
    }
}

/// Distinct, non-NULL, sorted join keys of `column` in a fetched partial —
/// the key set a semi-join reduction ships to the big side's source.
/// `None` when the partial has no such column (the caller then falls back
/// to full scatter for that reduction).
pub fn reduction_keys(partial: &Partial, column: &str) -> Option<Vec<Value>> {
    let want = normalize_ident(column);
    let idx = partial
        .columns
        .iter()
        .position(|c| normalize_ident(c) == want)?;
    let mut keys: Vec<Value> = partial
        .rows
        .iter()
        .filter_map(|row| {
            let v = row.values().get(idx)?;
            (!v.is_null()).then(|| v.clone())
        })
        .collect();
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

/// Infer a permissive (all-nullable) schema for a partial: column type =
/// first non-null value's type, FLOAT as the numeric fallback; INT columns
/// are widened to FLOAT if any value is FLOAT. Every row is checked to have
/// one cell per column, so staging may index a row by column.
fn infer_schema(partial: &Partial) -> Result<Schema> {
    let mut types: Vec<Option<DataType>> = vec![None; partial.columns.len()];
    for row in &partial.rows {
        if row.arity() != partial.columns.len() {
            return Err(StorageError::ArityMismatch {
                expected: partial.columns.len(),
                got: row.arity(),
            }
            .into());
        }
        for (i, v) in row.values().iter().enumerate() {
            let Some(vt) = v.data_type() else { continue };
            match types[i] {
                None => types[i] = Some(vt),
                Some(DataType::Int) if vt == DataType::Float => types[i] = Some(DataType::Float),
                Some(DataType::Float) if vt == DataType::Int => {}
                Some(t) if t == vt => {}
                Some(t) => {
                    return Err(CoreError::Internal(format!(
                        "partial `{}` column `{}` mixes {t} and {vt}",
                        partial.table, partial.columns[i]
                    )))
                }
            }
        }
    }
    let cols = partial
        .columns
        .iter()
        .zip(&types)
        .map(|(name, ty)| ColumnDef::new(name.clone(), ty.unwrap_or(DataType::Float)))
        .collect();
    Schema::new(cols).map_err(CoreError::from)
}

/// Integrate partials by executing the residual `plan` over them.
pub fn integrate(plan: &LogicalPlan, partials: &[Partial]) -> Result<ResultSet> {
    integrate_metered(plan, partials).map(|(rs, _)| rs)
}

/// Load partials into the in-memory staging database the residual plan
/// runs over: each partial becomes a table of typed column chunks built
/// straight from its borrowed rows ([`stage_column`]) and adopted whole by
/// [`Table::from_columns`] — no row is cloned, checked or inserted.
fn stage(partials: &[Partial]) -> Result<Database> {
    let mut staging = Database::new("mediator_staging");
    for p in partials {
        let schema = infer_schema(p)?;
        if schema.arity() == 0 && !p.rows.is_empty() {
            // Columns carry the row count; the decomposer never ships a
            // sub-query without one, so this is a malformed peer reply.
            return Err(CoreError::Internal(format!(
                "partial `{}` has {} rows and no columns",
                p.table,
                p.rows.len()
            )));
        }
        let chunks = schema
            .columns()
            .iter()
            .enumerate()
            .map(|(c, col)| stage_column(p, c, col.data_type))
            .collect::<Result<Vec<_>>>()?;
        staging.add_table(Table::from_columns(p.table.clone(), schema, chunks)?)?;
    }
    Ok(staging)
}

/// Column `c` of a partial as one chunk of type `ty` — the type
/// [`infer_schema`] derived from these same cells, so an INT cell lands in
/// a FLOAT column exactly where inference widened it and no other class
/// mismatch is reachable; one that were would be a typed error, not the
/// panic of [`ColumnChunk::push`].
fn stage_column(p: &Partial, c: usize, ty: DataType) -> Result<ColumnChunk> {
    /// Data vector and null bitmap of one column; `cell` yields `None` for
    /// a value of another class.
    fn typed<T: Default>(
        p: &Partial,
        c: usize,
        mut cell: impl FnMut(&Value) -> Option<T>,
    ) -> Result<(Vec<T>, Bitmap)> {
        let mut data = Vec::with_capacity(p.rows.len());
        let mut nulls = Bitmap::zeros(p.rows.len());
        for (i, row) in p.rows.iter().enumerate() {
            let v = &row.values()[c];
            if v.is_null() {
                nulls.set(i);
                data.push(T::default());
            } else {
                data.push(cell(v).ok_or_else(|| {
                    CoreError::Internal(format!(
                        "partial `{}` column `{}` holds {v:?} outside its inferred type",
                        p.table, p.columns[c]
                    ))
                })?);
            }
        }
        Ok((data, nulls))
    }
    Ok(match ty {
        DataType::Int => {
            let (data, nulls) = typed(p, c, |v| match v {
                Value::Int(i) => Some(*i),
                _ => None,
            })?;
            ColumnChunk::Int { data, nulls }
        }
        DataType::Float => {
            let (data, nulls) = typed(p, c, |v| match v {
                Value::Float(x) => Some(*x),
                Value::Int(i) => Some(*i as f64),
                _ => None,
            })?;
            ColumnChunk::Float { data, nulls }
        }
        DataType::Bool => {
            let (data, nulls) = typed(p, c, |v| match v {
                Value::Bool(b) => Some(*b),
                _ => None,
            })?;
            ColumnChunk::Bool { data, nulls }
        }
        DataType::Text => {
            let mut dict = StrDict::default();
            let (codes, nulls) = typed(p, c, |v| match v {
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
            let (data, nulls) = typed(p, c, |v| match v {
                Value::Bytes(b) => Some(b.clone()),
                _ => None,
            })?;
            ColumnChunk::Bytes { data, nulls }
        }
    })
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
    let staging = stage(partials)?;
    let provider = DatabaseProvider(&staging);
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
    let children = plan.children();
    if children.is_empty() {
        plan.kind_name().to_string()
    } else {
        let inner: Vec<String> = children.iter().map(|c| plan_shape(c)).collect();
        format!("{}({})", plan.kind_name(), inner.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridfed_sqlkit::parser::parse_select;
    use gridfed_sqlkit::plan::build_plan;

    fn events_partial() -> Partial {
        Partial {
            table: "events".into(),
            columns: vec!["e_id".into(), "run_id".into(), "energy".into()],
            rows: vec![
                Row::new(vec![Value::Int(1), Value::Int(10), Value::Float(5.0)]),
                Row::new(vec![Value::Int(2), Value::Int(10), Value::Float(50.0)]),
                Row::new(vec![Value::Int(3), Value::Int(20), Value::Float(70.0)]),
            ],
        }
    }

    fn runs_partial() -> Partial {
        Partial {
            table: "runs".into(),
            columns: vec!["run_id".into(), "detector".into()],
            rows: vec![
                Row::new(vec![Value::Int(10), Value::Text("ecal".into())]),
                Row::new(vec![Value::Int(20), Value::Text("hcal".into())]),
            ],
        }
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
        let p = Partial {
            table: "t".into(),
            columns: vec!["a".into()],
            rows: vec![Row::new(vec![Value::Null])],
        };
        let stmt = parse_select("SELECT a FROM t").unwrap();
        let rs = integrate(&build_plan(&stmt), &[p]).unwrap();
        assert_eq!(rs.len(), 1);
        assert!(rs.rows[0].values()[0].is_null());
    }

    #[test]
    fn mixed_numeric_column_widens() {
        let p = Partial {
            table: "t".into(),
            columns: vec!["a".into()],
            rows: vec![
                Row::new(vec![Value::Int(1)]),
                Row::new(vec![Value::Float(2.5)]),
            ],
        };
        let stmt = parse_select("SELECT a FROM t ORDER BY a").unwrap();
        let rs = integrate(&build_plan(&stmt), &[p]).unwrap();
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn incompatible_types_rejected() {
        let p = Partial {
            table: "t".into(),
            columns: vec!["a".into()],
            rows: vec![
                Row::new(vec![Value::Int(1)]),
                Row::new(vec![Value::Text("x".into())]),
            ],
        };
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
        let partial = |columns: &[&str], rows: Vec<Vec<Value>>| Partial {
            table: "t".into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: rows.into_iter().map(Row::new).collect(),
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
            let table = staging.create_table(p.table.clone(), infer_schema(p)?)?;
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
            let partial = Partial {
                table: "t".into(),
                columns: (0..n_cols).map(|c| format!("c{c}")).collect(),
                rows: rows
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
                    .collect(),
            };
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
        let p = Partial {
            table: "t".into(),
            columns: vec![
                "id".into(),
                "name".into(),
                "x".into(),
                "ok".into(),
                "raw".into(),
            ],
            rows: vec![
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
        };
        let rs = ResultSet {
            columns: p.columns.clone(),
            rows: p.rows.clone(),
        };
        let encoded = crate::service::result_to_wire(&rs).encode();
        assert_eq!(p.wire_size(), encoded.len());

        // Degenerate shapes stay exact too.
        let empty = Partial {
            table: "t".into(),
            columns: vec!["only".into()],
            rows: Vec::new(),
        };
        let rs = ResultSet {
            columns: empty.columns.clone(),
            rows: Vec::new(),
        };
        assert_eq!(
            empty.wire_size(),
            crate::service::result_to_wire(&rs).encode().len()
        );
    }

    #[test]
    fn reduction_keys_are_distinct_sorted_and_null_free() {
        let p = Partial {
            table: "runs".into(),
            columns: vec!["run_id".into(), "site".into()],
            rows: vec![
                Row::new(vec![Value::Int(30), Value::Text("a".into())]),
                Row::new(vec![Value::Int(10), Value::Text("b".into())]),
                Row::new(vec![Value::Null, Value::Text("c".into())]),
                Row::new(vec![Value::Int(30), Value::Text("d".into())]),
            ],
        };
        // Case-insensitive column lookup; NULLs dropped; duplicates folded.
        let keys = reduction_keys(&p, "RUN_ID").unwrap();
        assert_eq!(keys, vec![Value::Int(10), Value::Int(30)]);
        assert!(reduction_keys(&p, "no_such_column").is_none());
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

//! Retained grouped aggregation: a `GROUP BY` whose accumulators outlive
//! one execution.
//!
//! [`crate::exec`] evaluates an aggregate query by bucketing the whole
//! input and running one [`AggState`] per group. For a materialized view
//! that only ever *grows* by appended rows this is wasted work: the
//! accumulators are streaming, so keeping them and feeding each new row
//! once yields the same values as re-reading everything. A
//! [`RetainedAggregate`] is that kept state, built from the executor's own
//! pieces — [`compile_group`] lowers the select list, [`compile_order_keys`]
//! the ORDER BY, [`KeyValue`] decides group membership, [`AggState`]
//! accumulates, [`GroupExpr::eval`] projects and [`cmp_sort_keys`] orders —
//! so folding rows in scan order is bit-identical to executing the
//! statement over those rows.
//!
//! Only one statement shape folds (everything else keeps going through the
//! executor): a single table, no WHERE / HAVING / DISTINCT / LIMIT, a
//! non-empty `GROUP BY` of bare columns, a select list of those columns and
//! non-DISTINCT `COUNT`/`SUM`/`AVG`/`MIN`/`MAX` over `*` or a bare column,
//! and an ORDER BY (if any) over grouping columns. For that shape the
//! output schema is known statically, output rows never disappear, and a
//! row's sort position never depends on its aggregates.

use crate::ast::{AggFunc, SelectItem, SelectStmt};
use crate::compile::{
    compile, compile_group, CompiledAggregate, CompiledExpr, GroupExpr, KeyValue,
};
use crate::error::SqlError;
use crate::exec::{cmp_sort_keys, compile_order_keys, item_name, SortKeyPlan};
use crate::expr::{AggState, Bindings};
use crate::keys::Chains;
use crate::Result;
use gridfed_storage::{ColumnDef, DataType, Schema, Value};
use std::cmp::Ordering;
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hash, Hasher};

/// One group: its grouping-column values (from the group's first row) and
/// one accumulator per compiled aggregate.
#[derive(Debug, Clone)]
struct Group {
    key: Vec<Value>,
    states: Vec<AggState>,
    dirty: bool,
}

/// Output rows a fold changed, by output position (ascending). Positions
/// at or past the length the output had before are new rows.
pub type ChangedRows = Vec<(usize, Vec<Value>)>;

/// The kept state of one foldable aggregate statement; see the module
/// docs for the shape and the equivalence it maintains.
#[derive(Debug, Clone)]
pub struct RetainedAggregate {
    schema: Schema,
    arity: usize,
    group_cols: Vec<usize>,
    aggs: Vec<CompiledAggregate>,
    items: Vec<GroupExpr>,
    /// Per ORDER BY key: index into `group_cols` and direction.
    sort: Vec<(usize, bool)>,
    hasher: RandomState,
    /// Key hash → the groups with that hash.
    index: Chains,
    /// Groups in first-occurrence order (the executor's bucketing order).
    groups: Vec<Group>,
    /// Output order: group ids, stably sorted by the ORDER BY keys.
    order: Vec<usize>,
    /// Inverse of `order`: output position per group id.
    position: Vec<usize>,
    dirty: Vec<usize>,
    /// A new group sorted before an existing one since the last
    /// [`RetainedAggregate::take_changes`]: existing rows shifted.
    shifted: bool,
}

impl RetainedAggregate {
    /// Compile `stmt` for folding over rows laid out like `input` (the
    /// schema of its one table), or `None` when the statement is not of
    /// the foldable shape. Name-resolution errors surface as they would
    /// from the executor.
    pub fn compile(stmt: &SelectStmt, input: &Schema) -> Result<Option<RetainedAggregate>> {
        if stmt.distinct
            || !stmt.joins.is_empty()
            || stmt.where_clause.is_some()
            || stmt.having.is_some()
            || stmt.limit.is_some()
            || stmt.group_by.is_empty()
        {
            return Ok(None);
        }
        let bindings = Bindings::for_table(stmt.from.binding(), &input.names());
        let mut group_cols = Vec::with_capacity(stmt.group_by.len());
        for g in &stmt.group_by {
            match compile(g, &bindings)? {
                CompiledExpr::Column(c) => group_cols.push(c),
                _ => return Ok(None),
            }
        }

        let mut aggs: Vec<CompiledAggregate> = Vec::new();
        let mut items = Vec::with_capacity(stmt.items.len());
        let mut columns = Vec::with_capacity(stmt.items.len());
        for item in &stmt.items {
            let SelectItem::Expr { expr, .. } = item else {
                return Ok(None);
            };
            let ge = compile_group(expr, &bindings, &mut aggs)?;
            let data_type = match &ge {
                GroupExpr::Row(CompiledExpr::Column(c)) if group_cols.contains(c) => {
                    input.columns()[*c].data_type
                }
                GroupExpr::Agg(slot) => match agg_type(&aggs[*slot], input) {
                    Some(t) => t,
                    None => return Ok(None),
                },
                _ => return Ok(None),
            };
            columns.push(ColumnDef::new(item_name(item), data_type));
            items.push(ge);
        }
        let Ok(schema) = Schema::new(columns) else {
            return Ok(None); // duplicate output names cannot be a table
        };

        let names = schema.names();
        let out_columns: Vec<&str> = names.iter().map(String::as_str).collect();
        let mut sort = Vec::with_capacity(stmt.order_by.len());
        let plans = compile_order_keys(&stmt.order_by, &bindings, &out_columns)?;
        for (plan, item) in plans.iter().zip(&stmt.order_by) {
            let col = match plan {
                SortKeyPlan::Output(p) => match &items[*p] {
                    GroupExpr::Row(CompiledExpr::Column(c)) => *c,
                    _ => return Ok(None),
                },
                SortKeyPlan::Input(CompiledExpr::Column(c)) => *c,
                SortKeyPlan::Input(_) => return Ok(None),
            };
            match group_cols.iter().position(|&g| g == col) {
                Some(k) => sort.push((k, item.ascending)),
                None => return Ok(None),
            }
        }

        Ok(Some(RetainedAggregate {
            schema,
            arity: input.arity(),
            group_cols,
            aggs,
            items,
            sort,
            hasher: RandomState::new(),
            index: Chains::hashed(),
            groups: Vec::new(),
            order: Vec::new(),
            position: Vec::new(),
            dirty: Vec::new(),
            shifted: false,
        }))
    }

    /// Schema of the output rows: grouping columns keep their input type,
    /// `COUNT` is INT, `AVG` is FLOAT, `SUM`/`MIN`/`MAX` take their
    /// argument's type; every column is nullable.
    pub fn output_schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of groups (= output rows) folded so far.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// True when no row has been folded.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Forget every folded row.
    pub fn clear(&mut self) {
        self.index = Chains::hashed();
        self.groups.clear();
        self.order.clear();
        self.position.clear();
        self.dirty.clear();
        self.shifted = false;
    }

    /// Fold one input row (schema column order). An `Err` (an aggregate
    /// over a value of the wrong type) leaves the state half-updated: the
    /// caller must [`RetainedAggregate::clear`] it.
    pub fn fold(&mut self, row: &[Value]) -> Result<()> {
        let mut h = self.hasher.build_hasher();
        for &c in &self.group_cols {
            KeyValue::of(&row[c]).hash(&mut h);
        }
        let hash = h.finish();
        let hit = self.index.find(hash, |g| {
            self.group_cols
                .iter()
                .zip(&self.groups[g as usize].key)
                .all(|(&c, k)| KeyValue::of(&row[c]) == KeyValue::of(k))
        });
        let g = match hit.map(|g| g as usize) {
            Some(g) => g,
            None => self.open_group(hash, row),
        };
        let group = &mut self.groups[g];
        for (agg, state) in self.aggs.iter().zip(&mut group.states) {
            state.update(match &agg.arg {
                None => None,
                Some(CompiledExpr::Column(c)) => Some(&row[*c]),
                Some(_) => {
                    return Err(SqlError::Unsupported(
                        "a retained aggregate over an expression".into(),
                    ))
                }
            })?;
        }
        if !group.dirty {
            group.dirty = true;
            self.dirty.push(g);
        }
        Ok(())
    }

    /// Start a group for `row`'s key and place it in the output order: a
    /// stable sort puts it after every group it does not sort before.
    fn open_group(&mut self, hash: u64, row: &[Value]) -> usize {
        let g = self.groups.len();
        self.groups.push(Group {
            key: self.group_cols.iter().map(|&c| row[c].clone()).collect(),
            states: self
                .aggs
                .iter()
                .map(|a| AggState::new(a.func, a.distinct))
                .collect(),
            dirty: false,
        });
        self.index.link(hash, g as u32);
        let key = &self.groups[g].key;
        let at = self.order.partition_point(|&o| {
            let other = &self.groups[o].key;
            cmp_sort_keys(
                self.sort
                    .iter()
                    .map(|&(k, asc)| (other[k].index_cmp(&key[k]), asc)),
            ) != Ordering::Greater
        });
        // Inserting before the end shifts rows; `take_changes` then
        // rebuilds `position` from `order`.
        self.shifted |= at < self.order.len();
        self.order.insert(at, g);
        self.position.push(at);
        g
    }

    /// The output row of group `g`, projected exactly as the executor
    /// projects a group: finished aggregates plus the group's first row.
    fn row_of(&self, g: usize) -> Result<Vec<Value>> {
        let group = &self.groups[g];
        let agg_values: Vec<Value> = group
            .states
            .iter()
            .map(AggState::finish)
            .collect::<Result<_>>()?;
        let mut first_row = vec![Value::Null; self.arity];
        for (&c, k) in self.group_cols.iter().zip(&group.key) {
            first_row[c] = k.clone();
        }
        self.items
            .iter()
            .map(|ge| ge.eval(&agg_values, Some(&first_row)))
            .collect()
    }

    /// Every output row, in output order — what executing the statement
    /// over all folded rows returns.
    pub fn rows(&self) -> Result<Vec<Vec<Value>>> {
        self.order.iter().map(|&g| self.row_of(g)).collect()
    }

    /// The output rows changed since the last call (or since
    /// [`RetainedAggregate::clear`]), and forget them. `None` when a new
    /// group landed before an existing one: positions shifted, so the
    /// caller must take [`RetainedAggregate::rows`] instead.
    pub fn take_changes(&mut self) -> Result<Option<ChangedRows>> {
        let dirty = std::mem::take(&mut self.dirty);
        for &g in &dirty {
            self.groups[g].dirty = false;
        }
        if std::mem::take(&mut self.shifted) {
            for (pos, &g) in self.order.iter().enumerate() {
                self.position[g] = pos;
            }
            return Ok(None);
        }
        let mut changed = dirty
            .into_iter()
            .map(|g| Ok((self.position[g], self.row_of(g)?)))
            .collect::<Result<ChangedRows>>()?;
        changed.sort_unstable_by_key(|(pos, _)| *pos);
        Ok(Some(changed))
    }
}

/// Static result type of a foldable aggregate, `None` when the aggregate
/// does not fold (DISTINCT, a computed argument, SUM/AVG of a non-number).
fn agg_type(agg: &CompiledAggregate, input: &Schema) -> Option<DataType> {
    if agg.distinct {
        return None;
    }
    let arg = match &agg.arg {
        None => None,
        Some(CompiledExpr::Column(c)) => Some(input.columns()[*c].data_type),
        Some(_) => return None,
    };
    let numeric = matches!(arg, Some(DataType::Int | DataType::Float));
    match agg.func {
        AggFunc::Count => Some(DataType::Int),
        AggFunc::Avg if numeric => Some(DataType::Float),
        AggFunc::Sum if numeric => arg,
        AggFunc::Min | AggFunc::Max => arg,
        AggFunc::Avg | AggFunc::Sum => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute_select, DatabaseProvider};
    use crate::parser::parse_select;
    use gridfed_storage::Database;

    fn input() -> Schema {
        Schema::new(vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("run", DataType::Int),
            ColumnDef::new("det", DataType::Text),
            ColumnDef::new("v", DataType::Float),
            ColumnDef::new("n", DataType::Int),
        ])
        .unwrap()
    }

    fn row(id: i64) -> Vec<Value> {
        let det = ["ecal", "hcal", "muon"][(id % 3) as usize];
        vec![
            Value::Int(id),
            Value::Int((id * 7) % 5),
            if id % 11 == 0 {
                Value::Null
            } else {
                Value::Text(det.into())
            },
            if id % 4 == 0 {
                Value::Null
            } else {
                Value::Float(0.1 * id as f64)
            },
            Value::Int(id % 9),
        ]
    }

    const FOLDABLE: &[&str] = &[
        "SELECT run, COUNT(*) AS c, AVG(v) AS a FROM t GROUP BY run ORDER BY run",
        "SELECT run, det, SUM(v) AS s, MIN(v) AS lo, MAX(n) AS hi FROM t GROUP BY run, det",
        "SELECT det, COUNT(v) AS c, SUM(n) AS s FROM t GROUP BY det ORDER BY det DESC",
        "SELECT x.det AS d, AVG(x.n) AS a FROM t x GROUP BY x.det ORDER BY d",
        "SELECT run, det, COUNT(*) AS c FROM t GROUP BY det, run ORDER BY run DESC",
    ];

    /// Folding rows one at a time equals executing the statement over the
    /// same rows — values, order and column types — after every prefix,
    /// and `take_changes` patches the previous output into the next.
    #[test]
    fn fold_equals_execute_after_every_row() {
        for sql in FOLDABLE {
            let stmt = parse_select(sql).unwrap();
            let mut agg = RetainedAggregate::compile(&stmt, &input())
                .unwrap()
                .unwrap_or_else(|| panic!("`{sql}` should fold"));
            let mut db = Database::new("d");
            db.create_table("t", input()).unwrap();
            let mut patched: Vec<Vec<Value>> = Vec::new();
            for id in 0..60 {
                db.table_mut("t").unwrap().insert(row(id)).unwrap();
                agg.fold(&row(id)).unwrap();
                let expect = execute_select(&stmt, &DatabaseProvider(&db)).unwrap();
                let rows: Vec<Vec<Value>> =
                    expect.rows.iter().map(|r| r.values().to_vec()).collect();
                assert_eq!(agg.rows().unwrap(), rows, "`{sql}` after {id}");
                assert_eq!(agg.output_schema().names(), expect.columns);
                for r in &rows {
                    // Every value fits the static schema as is (no INT
                    // silently widened into a FLOAT column).
                    assert_eq!(&agg.output_schema().check_row(r.clone()).unwrap(), r);
                }
                match agg.take_changes().unwrap() {
                    None => patched = rows,
                    Some(changes) => {
                        for (pos, values) in changes {
                            if pos < patched.len() {
                                patched[pos] = values;
                            } else {
                                assert_eq!(pos, patched.len(), "appends are dense");
                                patched.push(values);
                            }
                        }
                        assert_eq!(patched, rows, "`{sql}` patched after {id}");
                    }
                }
            }
            assert_eq!(agg.len(), patched.len());
            assert!(agg.take_changes().unwrap().unwrap().is_empty());
            agg.clear();
            assert!(agg.is_empty() && agg.rows().unwrap().is_empty());
        }
    }

    /// The fold shares [`AggState`] with the executor, so an INT sum past
    /// 2^53 is exact in both and one past `i64::MAX` is the same error.
    #[test]
    fn int_sums_fold_exactly_as_the_executor_computes_them() {
        let stmt =
            parse_select("SELECT det, SUM(n) AS s, AVG(n) AS a FROM t GROUP BY det").unwrap();
        let mut agg = RetainedAggregate::compile(&stmt, &input())
            .unwrap()
            .unwrap();
        let mut db = Database::new("d");
        db.create_table("t", input()).unwrap();
        let mut feed = |id: i64, n: i64, agg: &mut RetainedAggregate| {
            let row = vec![
                Value::Int(id),
                Value::Int(0),
                Value::Text("ecal".into()),
                Value::Null,
                Value::Int(n),
            ];
            db.table_mut("t").unwrap().insert(row.clone()).unwrap();
            agg.fold(&row).unwrap();
            execute_select(&stmt, &DatabaseProvider(&db))
                .map(|rs| {
                    rs.rows
                        .iter()
                        .map(|r| r.values().to_vec())
                        .collect::<Vec<_>>()
                })
                .map_err(|e| e.to_string())
        };
        let big = 9_007_199_254_740_993i64; // 2^53 + 1
        feed(0, big, &mut agg).unwrap();
        let executed = feed(1, 2, &mut agg).unwrap();
        assert_eq!(executed[0][1], Value::Int(big + 2));
        assert_eq!(agg.rows().unwrap(), executed);
        let executed = feed(2, i64::MAX, &mut agg);
        let folded = agg.rows().map_err(|e| e.to_string());
        assert!(executed.as_ref().unwrap_err().contains("SUM overflows INT"));
        assert_eq!(folded, executed);
    }

    /// Group keys `f64` cannot tell apart — 2^53 and 2^53 + 1, `i64::MIN`
    /// and `i64::MIN + 1` — fold into as many groups as the executor makes.
    #[test]
    fn ints_past_f64_fold_into_the_executors_groups() {
        let stmt =
            parse_select("SELECT run, COUNT(*) AS c FROM t GROUP BY run ORDER BY run").unwrap();
        let mut agg = RetainedAggregate::compile(&stmt, &input())
            .unwrap()
            .unwrap();
        let mut db = Database::new("d");
        db.create_table("t", input()).unwrap();
        let keys = [1 << 53, (1 << 53) + 1, i64::MIN, i64::MIN + 1, 1 << 53];
        for (id, run) in (0..).zip(keys) {
            let mut r = row(id);
            r[1] = Value::Int(run);
            db.table_mut("t").unwrap().insert(r.clone()).unwrap();
            agg.fold(&r).unwrap();
        }
        let expect = execute_select(&stmt, &DatabaseProvider(&db)).unwrap();
        let rows: Vec<Vec<Value>> = expect.rows.iter().map(|r| r.values().to_vec()).collect();
        assert_eq!(rows.len(), 4);
        assert_eq!(agg.rows().unwrap(), rows);
    }

    #[test]
    fn output_schema_is_static() {
        let stmt = parse_select(
            "SELECT run, det, COUNT(*) AS c, AVG(n) AS a, SUM(n) AS si, SUM(v) AS sf, \
             MIN(det) AS lo FROM t GROUP BY run, det",
        )
        .unwrap();
        let agg = RetainedAggregate::compile(&stmt, &input())
            .unwrap()
            .unwrap();
        let types: Vec<DataType> = agg
            .output_schema()
            .columns()
            .iter()
            .map(|c| c.data_type)
            .collect();
        assert_eq!(
            types,
            [
                DataType::Int,
                DataType::Text,
                DataType::Int,
                DataType::Float,
                DataType::Int,
                DataType::Float,
                DataType::Text
            ]
        );
    }

    #[test]
    fn other_shapes_do_not_fold() {
        for sql in [
            "SELECT COUNT(*) FROM t",
            "SELECT run, COUNT(*) FROM t WHERE v > 1 GROUP BY run",
            "SELECT run, COUNT(*) AS c FROM t GROUP BY run HAVING COUNT(*) > 1",
            "SELECT run, COUNT(*) AS c FROM t GROUP BY run ORDER BY c",
            "SELECT run, COUNT(*) AS c FROM t GROUP BY run LIMIT 3",
            "SELECT run + 1, COUNT(*) FROM t GROUP BY run + 1",
            "SELECT det, COUNT(*) FROM t GROUP BY run",
            "SELECT run, COUNT(DISTINCT det) FROM t GROUP BY run",
            "SELECT run, SUM(v) / COUNT(*) FROM t GROUP BY run",
            "SELECT run, SUM(det) FROM t GROUP BY run",
            "SELECT run, AVG(v * 2) FROM t GROUP BY run",
            "SELECT DISTINCT run, COUNT(*) FROM t GROUP BY run",
            "SELECT a.run, COUNT(*) FROM t a JOIN t b ON a.id = b.id GROUP BY a.run",
            "SELECT run, COUNT(*) AS run FROM t GROUP BY run",
            "SELECT * FROM t",
        ] {
            let stmt = parse_select(sql).unwrap();
            assert!(
                RetainedAggregate::compile(&stmt, &input())
                    .unwrap()
                    .is_none(),
                "`{sql}` must not fold"
            );
        }
        // Unknown names fail exactly as they would in the executor.
        let stmt = parse_select("SELECT nope, COUNT(*) FROM t GROUP BY nope").unwrap();
        assert!(RetainedAggregate::compile(&stmt, &input()).is_err());
    }
}

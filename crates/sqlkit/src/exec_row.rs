//! Row-at-a-time reference interpreter.
//!
//! This module preserves the pre-columnar executor exactly as it behaved
//! before `exec` was rewritten around selection vectors and column chunks.
//! It exists for two reasons:
//!
//! 1. **Differential testing** — the property suite runs every generated
//!    query through both engines and requires identical results *and*
//!    identical errors; any divergence is a vectorization bug by definition.
//! 2. **Benchmark baseline** — the `columnar` Criterion bench measures the
//!    batch executor's speedup against this interpreter on the same plans.
//!
//! It shares the plan shape, compilation layer, and the result-shaping
//! helpers (`sort_strip_fused`, `expand_items`, `compile_order_keys`,
//! `append_group_sort_keys`) with [`crate::exec`], so the only thing that
//! differs is the row-major evaluation strategy: whole rows are cloned out
//! of the provider and filtered, joined, and aggregated one at a time. It
//! performs no profiling and reports no batch metrics — it predates both.

use crate::ast::{Expr, JoinKind, SelectItem};
use crate::compile::{compile, compile_group, CompiledAggregate, CompiledExpr, KeyValue};
use crate::error::SqlError;
use crate::exec::{
    append_group_sort_keys, compile_order_keys, equi_join_keys, expand_items, item_name,
    sort_strip_fused, timed_compile, DatabaseProvider, ExecMetrics, ItemPlan, SortKeyPlan,
};
use crate::expr::{AggState, Bindings};
use crate::plan::LogicalPlan;
use crate::result::ResultSet;
use crate::Result;
use gridfed_storage::{Row, Value};
use std::collections::HashMap;

/// An intermediate row-major relation: resolved bindings plus owned rows.
struct Relation {
    bindings: Bindings,
    rows: Vec<Row>,
}

/// Interpret a logical plan row by row — the reference semantics the
/// vectorized [`crate::exec::execute_plan`] must agree with, on values and
/// on errors.
pub fn execute_plan_rowwise(
    plan: &LogicalPlan,
    provider: &DatabaseProvider<'_>,
) -> Result<ResultSet> {
    let mut metrics = ExecMetrics::default();
    execute_node(plan, provider, &mut metrics)
}

fn execute_node(
    plan: &LogicalPlan,
    provider: &DatabaseProvider<'_>,
    m: &mut ExecMetrics,
) -> Result<ResultSet> {
    match plan {
        LogicalPlan::Project { input, items, keys } => {
            let rel = eval_relational(input, provider, m)?;
            let (plans, key_plans) = timed_compile(m, || {
                let plans = expand_items(items, &rel.bindings)?;
                let columns: Vec<&str> = plans.iter().map(|(n, _)| n.as_str()).collect();
                let key_plans = compile_order_keys(keys, &rel.bindings, &columns)?;
                Ok((plans, key_plans))
            })?;
            let columns: Vec<String> = plans.iter().map(|(n, _)| n.clone()).collect();
            let mut rows = Vec::with_capacity(rel.rows.len());
            for row in &rel.rows {
                let mut values = Vec::with_capacity(plans.len() + keys.len());
                for (_, plan) in &plans {
                    match plan {
                        ItemPlan::Position(p) => values.push(row.values()[*p].clone()),
                        ItemPlan::Expr(e) => values.push(e.eval(row.values())?),
                    }
                }
                for kp in &key_plans {
                    let key = match kp {
                        SortKeyPlan::Output(p) => values[*p].clone(),
                        SortKeyPlan::Input(e) => e.eval(row.values())?,
                    };
                    values.push(key);
                }
                rows.push(Row::new(values));
            }
            Ok(ResultSet { columns, rows })
        }
        LogicalPlan::Aggregate {
            input,
            items,
            group_by,
            having,
            keys,
        } => {
            let rel = eval_relational(input, provider, m)?;
            aggregate_node(&rel, items, group_by, having.as_ref(), keys, m)
        }
        LogicalPlan::Sort { input, ascending } => {
            let mut rs = execute_node(input, provider, m)?;
            let k = ascending.len();
            rs.rows.sort_by(|a, b| {
                let (av, bv) = (a.values(), b.values());
                let w = av.len() - k;
                for (i, asc) in ascending.iter().enumerate() {
                    let ord = av[w + i].index_cmp(&bv[w + i]);
                    let ord = if *asc { ord } else { ord.reverse() };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            Ok(rs)
        }
        LogicalPlan::Strip { input, drop } => {
            if let LogicalPlan::Sort {
                input: sort_input,
                ascending,
            } = input.as_ref()
            {
                if *drop == ascending.len() && *drop > 0 {
                    let rs = execute_node(sort_input, provider, m)?;
                    return Ok(sort_strip_fused(rs, ascending, None));
                }
            }
            let mut rs = execute_node(input, provider, m)?;
            rs.rows = rs
                .rows
                .into_iter()
                .map(|r| {
                    let mut values = r.into_values();
                    values.truncate(values.len() - drop);
                    Row::new(values)
                })
                .collect();
            Ok(rs)
        }
        LogicalPlan::Distinct { input } => {
            let mut rs = execute_node(input, provider, m)?;
            let mut seen = std::collections::HashSet::new();
            let keep: Vec<bool> = rs
                .rows
                .iter()
                .map(|r| seen.insert(KeyValue::row_key(r.values())))
                .collect();
            drop(seen);
            let mut it = keep.into_iter();
            rs.rows.retain(|_| it.next().expect("mask covers rows"));
            Ok(rs)
        }
        LogicalPlan::Limit { input, limit } => {
            if let LogicalPlan::Strip {
                input: strip_input,
                drop,
            } = input.as_ref()
            {
                if let LogicalPlan::Sort {
                    input: sort_input,
                    ascending,
                } = strip_input.as_ref()
                {
                    if *drop == ascending.len() && *drop > 0 {
                        let rs = execute_node(sort_input, provider, m)?;
                        return Ok(sort_strip_fused(rs, ascending, Some(*limit as usize)));
                    }
                }
            }
            let mut rs = execute_node(input, provider, m)?;
            rs.rows.truncate(*limit as usize);
            Ok(rs)
        }
        relational => {
            let rel = eval_relational(relational, provider, m)?;
            let columns = (0..rel.bindings.arity())
                .map(|i| rel.bindings.name_at(i).expect("pos in range").to_string())
                .collect();
            Ok(ResultSet {
                columns,
                rows: rel.rows,
            })
        }
    }
}

fn eval_relational(
    plan: &LogicalPlan,
    provider: &DatabaseProvider<'_>,
    m: &mut ExecMetrics,
) -> Result<Relation> {
    match plan {
        LogicalPlan::Scan {
            table,
            binding,
            projection,
            filters,
        } => {
            let stored = provider.table(table)?;
            let names = stored.schema().names();
            let bindings = Bindings::for_table(binding, &names);
            let compiled: Vec<CompiledExpr> = timed_compile(m, || {
                filters.iter().map(|f| compile(f, &bindings)).collect()
            })?;
            let mut rows = stored.rows();
            // All pushed filters apply in one pass over the full-width row,
            // short-circuiting per row in pushdown order.
            if !compiled.is_empty() {
                let mut kept = Vec::with_capacity(rows.len());
                'row: for row in rows {
                    for f in &compiled {
                        if !f.eval_predicate(row.values())? {
                            continue 'row;
                        }
                    }
                    kept.push(row);
                }
                rows = kept;
            }
            match projection {
                Some(cols) => {
                    let mut positions = Vec::with_capacity(cols.len());
                    let mut kept_names = Vec::with_capacity(cols.len());
                    for c in cols {
                        let pos = names
                            .iter()
                            .position(|n| n.eq_ignore_ascii_case(c))
                            .ok_or_else(|| SqlError::UnknownColumn(c.clone()))?;
                        positions.push(pos);
                        kept_names.push(names[pos].clone());
                    }
                    let rows = rows
                        .into_iter()
                        .map(|r| {
                            Row::new(positions.iter().map(|&p| r.values()[p].clone()).collect())
                        })
                        .collect();
                    Ok(Relation {
                        bindings: Bindings::for_table(binding, &kept_names),
                        rows,
                    })
                }
                None => Ok(Relation { bindings, rows }),
            }
        }
        LogicalPlan::Filter { input, predicate } => {
            let mut rel = eval_relational(input, provider, m)?;
            let compiled = timed_compile(m, || compile(predicate, &rel.bindings))?;
            let mut kept = Vec::with_capacity(rel.rows.len());
            for row in rel.rows {
                if compiled.eval_predicate(row.values())? {
                    kept.push(row);
                }
            }
            rel.rows = kept;
            Ok(rel)
        }
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
        } => {
            let l = eval_relational(left, provider, m)?;
            let r = eval_relational(right, provider, m)?;
            join_relations(l, r, *kind, on.as_ref(), m)
        }
        other => Err(SqlError::Unsupported(format!(
            "nested result-shaping node in relational position: {other}"
        ))),
    }
}

fn join_relations(
    left: Relation,
    right: Relation,
    kind: JoinKind,
    on: Option<&Expr>,
    m: &mut ExecMetrics,
) -> Result<Relation> {
    let bindings = left.bindings.concat(&right.bindings);
    let right_arity = right.bindings.arity();
    let mut rows = Vec::new();

    // Hash join on a simple column equality.
    if kind != JoinKind::Cross {
        if let Some(on_expr) = on {
            if let Some((lk, rk)) = equi_join_keys(on_expr, &left.bindings, &right.bindings) {
                let mut table: HashMap<KeyValue<'_>, Vec<&Row>> = HashMap::new();
                for r in &right.rows {
                    if let Some(k) = KeyValue::of(&r.values()[rk]) {
                        table.entry(k).or_default().push(r);
                    }
                }
                for l in &left.rows {
                    let mut matched = false;
                    if let Some(k) = KeyValue::of(&l.values()[lk]) {
                        if let Some(matches) = table.get(&k) {
                            for r in matches {
                                rows.push(l.concat(r));
                                matched = true;
                            }
                        }
                    }
                    if !matched && kind == JoinKind::LeftOuter {
                        rows.push(l.concat(&Row::new(vec![Value::Null; right_arity])));
                    }
                }
                return Ok(Relation { bindings, rows });
            }
        }
    }

    // General nested loop over a reusable scratch buffer.
    let compiled_on = match on {
        Some(cond) => Some(timed_compile(m, || compile(cond, &bindings))?),
        None => None,
    };
    let mut scratch: Vec<Value> = Vec::with_capacity(bindings.arity());
    for l in &left.rows {
        let mut matched = false;
        for r in &right.rows {
            scratch.clear();
            scratch.extend_from_slice(l.values());
            scratch.extend_from_slice(r.values());
            let keep = match &compiled_on {
                Some(cond) => cond.eval_predicate(&scratch)?,
                None => true,
            };
            if keep {
                rows.push(Row::new(std::mem::take(&mut scratch)));
                scratch.reserve(bindings.arity());
                matched = true;
            }
        }
        if !matched && kind == JoinKind::LeftOuter {
            rows.push(l.concat(&Row::new(vec![Value::Null; right_arity])));
        }
    }
    Ok(Relation { bindings, rows })
}

fn aggregate_node(
    rel: &Relation,
    items: &[SelectItem],
    group_by: &[Expr],
    having: Option<&Expr>,
    keys: &[crate::ast::OrderItem],
    m: &mut ExecMetrics,
) -> Result<ResultSet> {
    for item in items {
        if matches!(
            item,
            SelectItem::Wildcard | SelectItem::QualifiedWildcard(_)
        ) {
            return Err(SqlError::Unsupported(
                "wildcard projection in aggregate query".into(),
            ));
        }
    }
    let columns: Vec<String> = items.iter().map(item_name).collect();

    let (group_keys, aggs, item_exprs, having_expr, sort_plans) = timed_compile(m, || {
        let group_keys: Vec<CompiledExpr> = group_by
            .iter()
            .map(|g| compile(g, &rel.bindings))
            .collect::<Result<_>>()?;
        let mut aggs: Vec<CompiledAggregate> = Vec::new();
        let mut item_exprs = Vec::with_capacity(items.len());
        for item in items {
            let expr = match item {
                SelectItem::Expr { expr, .. } => expr,
                _ => unreachable!("wildcards rejected above"),
            };
            item_exprs.push(compile_group(expr, &rel.bindings, &mut aggs)?);
        }
        let having_expr = match having {
            Some(h) => Some(compile_group(h, &rel.bindings, &mut aggs)?),
            None => None,
        };
        let out_cols: Vec<&str> = columns.iter().map(|s| s.as_str()).collect();
        let sort_plans = compile_order_keys(keys, &rel.bindings, &out_cols).ok();
        Ok((group_keys, aggs, item_exprs, having_expr, sort_plans))
    })?;

    // Evaluate all grouping keys first, then bucket rows by the borrowed key
    // form. NULL keys pool together, per GROUP BY rules.
    let mut row_keys: Vec<Vec<Value>> = Vec::with_capacity(rel.rows.len());
    for row in &rel.rows {
        let mut kv = Vec::with_capacity(group_keys.len());
        for g in &group_keys {
            kv.push(g.eval(row.values())?);
        }
        row_keys.push(kv);
    }
    let mut groups: Vec<Vec<&Row>> = Vec::new();
    {
        let mut index: HashMap<Vec<Option<KeyValue<'_>>>, usize> = HashMap::new();
        for (row, kv) in rel.rows.iter().zip(&row_keys) {
            let key = KeyValue::row_key(kv);
            match index.get(&key) {
                Some(&i) => groups[i].push(row),
                None => {
                    index.insert(key, groups.len());
                    groups.push(vec![row]);
                }
            }
        }
    }
    if groups.is_empty() && group_by.is_empty() {
        groups.push(Vec::new());
    }

    let mut having_slots = Vec::new();
    if let Some(h) = &having_expr {
        h.agg_slots(&mut having_slots);
    }

    let mut out = Vec::with_capacity(groups.len());
    for rows in &groups {
        let first_row = rows.first().map(|r| r.values());
        let mut agg_values = vec![Value::Null; aggs.len()];
        let mut computed = vec![false; aggs.len()];
        if let Some(h) = &having_expr {
            for &slot in &having_slots {
                agg_values[slot] = compute_aggregate(&aggs[slot], rows)?;
                computed[slot] = true;
            }
            let verdict = h.eval(&agg_values, first_row)?;
            let keep = match verdict {
                Value::Bool(b) => b,
                Value::Int(i) => i != 0,
                Value::Null => false,
                other => {
                    return Err(SqlError::Eval(format!(
                        "HAVING must be boolean, got {}",
                        other.render()
                    )))
                }
            };
            if !keep {
                continue;
            }
        }
        for (slot, agg) in aggs.iter().enumerate() {
            if !computed[slot] {
                agg_values[slot] = compute_aggregate(agg, rows)?;
            }
        }
        let mut values = Vec::with_capacity(items.len() + keys.len());
        for ge in &item_exprs {
            values.push(ge.eval(&agg_values, first_row)?);
        }
        append_group_sort_keys(&mut values, &sort_plans, first_row, keys.len());
        out.push(Row::new(values));
    }
    Ok(ResultSet { columns, rows: out })
}

fn compute_aggregate(agg: &CompiledAggregate, rows: &[&Row]) -> Result<Value> {
    let mut state = AggState::new(agg.func, agg.distinct);
    for row in rows {
        match &agg.arg {
            None => state.update(None)?,
            Some(a) => {
                let v = a.eval(row.values())?;
                state.update(Some(&v))?;
            }
        }
    }
    state.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{DatabaseProvider, ProviderCatalog};
    use crate::optimize::optimize;
    use crate::parser::parse_select;
    use crate::plan::build_plan;
    use gridfed_storage::{ColumnDef, DataType, Database, Schema};

    fn db() -> Database {
        let mut db = Database::new("ref");
        let t = db
            .create_table(
                "samples",
                Schema::new(vec![
                    ColumnDef::new("id", DataType::Int).primary_key(),
                    ColumnDef::new("tag", DataType::Text),
                    ColumnDef::new("x", DataType::Float),
                ])
                .unwrap(),
            )
            .unwrap();
        for (id, tag, x) in [(1, "a", 1.5), (2, "b", 2.5), (3, "a", 3.5)] {
            t.insert(vec![Value::Int(id), tag.into(), Value::Float(x)])
                .unwrap();
        }
        db
    }

    fn both(sql: &str) -> (Result<ResultSet>, Result<ResultSet>) {
        let d = db();
        let provider = DatabaseProvider(&d);
        let plan = optimize(
            build_plan(&parse_select(sql).unwrap()),
            &ProviderCatalog(&provider),
        );
        (
            crate::exec::execute_plan(&plan, &provider),
            execute_plan_rowwise(&plan, &provider),
        )
    }

    #[test]
    fn rowwise_matches_vectorized_on_shapes() {
        for sql in [
            "SELECT * FROM samples",
            "SELECT id FROM samples WHERE x > 2.0",
            "SELECT tag, COUNT(*) AS n FROM samples GROUP BY tag ORDER BY tag",
            "SELECT DISTINCT tag FROM samples ORDER BY tag",
            "SELECT a.id, b.id FROM samples a JOIN samples b ON a.tag = b.tag WHERE a.id < b.id",
            "SELECT id FROM samples ORDER BY x DESC LIMIT 2",
        ] {
            let (v, r) = both(sql);
            let (v, r) = (v.unwrap(), r.unwrap());
            assert_eq!(v.columns, r.columns, "{sql}");
            assert_eq!(v.rows, r.rows, "{sql}");
        }
    }

    #[test]
    fn rowwise_matches_vectorized_on_errors() {
        let (v, r) = both("SELECT id FROM samples WHERE tag + 1 > 0");
        let (ve, re) = (v.unwrap_err(), r.unwrap_err());
        assert_eq!(ve.to_string(), re.to_string());
    }
}

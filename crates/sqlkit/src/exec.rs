//! Single-context SELECT execution — vectorized.
//!
//! `SELECT` execution is plan-driven: the statement is lowered to a
//! [`LogicalPlan`], optimized against the provider's schemas and statistics,
//! and the optimized plan is interpreted node by node against a
//! [`DatabaseProvider`]: a backend's local [`Database`], or the mediator's
//! staging of already-fetched partial results. Joins use a hash join
//! when the `ON` condition is a simple column equality, falling back to a
//! nested loop otherwise.
//!
//! The relational portion of a plan (Scan/Filter/Join) runs **columnar**:
//! scans borrow typed column chunks straight out of storage, predicates refine a selection vector through the
//! kernels in [`crate::batch`], and joins gather column indexes. Rows are
//! materialized only at the Project / Aggregate / bare-root boundary — late
//! materialization — and there each value is built once: a select item that
//! names a column is a *position* (as every column of `*` is), rows are sized
//! up front and each positional column is written into all of them by one
//! typed loop over its chunk; only expression items and input sort keys then
//! run row by row over a scratch row, which keeps the first error the
//! row-major one. The two result-shaping nodes work on the selection too, and
//! build a row only for what is returned: GROUP BY assigns positions to
//! groups straight off the key columns ([`assign_groups`]) and aggregates
//! typed chunks in place; ORDER BY — with or without LIMIT — over a select
//! list of positions orders the selection by comparing in the chunks
//! ([`order_selection`]) and builds the rows that survive. The row-at-a-time
//! interpreter this replaced survives as
//! [`crate::exec_row::execute_plan_rowwise`], the differential-testing
//! reference; the two must agree on values *and* errors.
//!
//! Every per-row expression site — scan filters, Filter predicates, Project
//! items, join ON conditions, aggregate inputs, HAVING, and sort keys — is
//! lowered once per node through [`crate::compile`], so steady-state row
//! processing does no name resolution and no string comparison. The time
//! spent in that lowering is accumulated in [`ExecMetrics`] for the
//! mediator's compile/eval cost split, alongside batch and row counters for
//! the monitoring surface.
//!
//! When the installed [`crate::par::ExecConfig`] asks for more than one
//! worker, the big per-row loops go **morsel-parallel**: scan/filter
//! refinement, hash-join build/probe, key evaluation, group assignment and
//! per-group computation, and output materialization each split the
//! selection vector into morsels executed on a scoped worker pool, merging
//! results in morsel order and reducing deferred per-row errors by global
//! minimum position — so parallel execution is value- and
//! error-order-identical to the sequential pass (see `crate::par`).

use crate::ast::{DeleteStmt, Expr, JoinKind, OrderItem, SelectItem, SelectStmt, UpdateStmt};
use crate::batch::{apply_filter, n_batches, take_first_error, ColData, ColRelation, ValRef};
use crate::compile::{
    canonical_f64_bits, compile, compile_group, CompiledAggregate, CompiledExpr, KeyValue,
};
use crate::error::SqlError;
use crate::expr::{AggState, Bindings};
use crate::optimize::{optimize, PlanCatalog};
use crate::par::{self, ExecConfig};
use crate::plan::{build_plan, LogicalPlan};
use crate::render::render_expr_neutral;
use crate::result::ResultSet;
use crate::Result;
use gridfed_storage::{Bitmap, ColumnChunk, Database, Row, Schema, Table, Value};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Wall-clock and batch accounting for one plan execution.
#[derive(Debug, Default, Clone, Copy)]
pub struct ExecMetrics {
    /// Total time spent lowering expressions to [`CompiledExpr`] form.
    pub compile: Duration,
    /// Batch windows (configured size, default 1024 rows) processed across
    /// all vectorized operators.
    pub batches: u64,
    /// Rows entering scans (live storage positions before any filter).
    pub rows_scanned: u64,
    /// Rows surviving scan filters and `Filter` nodes.
    pub rows_selected: u64,
    /// Rows materialized from columns into output `Vec<Value>` form (the
    /// late-materialization boundary).
    pub rows_materialized: u64,
    /// Parallel work items (morsels, hash partitions, gather columns,
    /// aggregate groups) dispatched to the worker pool. Zero when every
    /// operator ran sequentially.
    pub morsels: u64,
    /// Widest worker pool any parallel operator in this plan actually used.
    /// Zero when execution was entirely sequential.
    pub workers: u64,
}

impl ExecMetrics {
    /// Fraction of scanned rows that survived predicate evaluation, in
    /// `[0, 1]`; `1.0` when nothing was scanned.
    pub fn selectivity(&self) -> f64 {
        if self.rows_scanned == 0 {
            1.0
        } else {
            self.rows_selected as f64 / self.rows_scanned as f64
        }
    }
}

/// Run `f` and charge its wall time to the compile bucket.
pub(crate) fn timed_compile<T>(m: &mut ExecMetrics, f: impl FnOnce() -> Result<T>) -> Result<T> {
    let t0 = Instant::now();
    let out = f();
    m.compile += t0.elapsed();
    out
}

/// The executor's table source: a local storage [`Database`] — a backend's
/// own, or the mediator's staging of already-fetched partial results.
pub struct DatabaseProvider<'a>(pub &'a Database);

impl<'a> DatabaseProvider<'a> {
    /// The named table, borrowed for as long as the database.
    pub(crate) fn table(&self, name: &str) -> Result<&'a Table> {
        self.0
            .table(name)
            .map_err(|_| SqlError::UnknownTable(name.to_string()))
    }
}

/// [`PlanCatalog`] view of a [`DatabaseProvider`], so the optimizer can see
/// the same schemas and statistics the executor will run against.
pub struct ProviderCatalog<'a>(pub &'a DatabaseProvider<'a>);

impl PlanCatalog for ProviderCatalog<'_> {
    fn columns(&self, table: &str) -> Option<Vec<String>> {
        self.0.table(table).ok().map(|t| t.schema().names())
    }

    fn row_count(&self, table: &str) -> Option<u64> {
        self.0.table(table).ok().map(|t| t.len() as u64)
    }
}

/// Execute a SELECT against a provider: lower to a plan, optimize, run.
pub fn execute_select(stmt: &SelectStmt, provider: &DatabaseProvider<'_>) -> Result<ResultSet> {
    let plan = optimize(build_plan(stmt), &ProviderCatalog(provider));
    execute_plan(&plan, provider)
}

/// Interpret a logical plan against a provider.
///
/// Plans produced by [`build_plan`] carry ORDER BY keys as hidden trailing
/// columns: `Project`/`Aggregate` emit them, `Sort` orders on them
/// positionally, and `Strip` drops them before `Distinct`/`Limit` see the
/// rows — except that a `Project` of positions under a fused `Strip { Sort }`
/// is ordered before its rows exist and never emits them
/// ([`project_node`]). Running an *unoptimized* plan is the naive reference
/// interpretation; both paths go through this function, so there is no
/// separate direct-AST interpreter.
pub fn execute_plan(plan: &LogicalPlan, provider: &DatabaseProvider<'_>) -> Result<ResultSet> {
    execute_plan_metered(plan, provider).map(|(rs, _)| rs)
}

/// [`execute_plan`], also returning the compile-time and batch accounting.
pub fn execute_plan_metered(
    plan: &LogicalPlan,
    provider: &DatabaseProvider<'_>,
) -> Result<(ResultSet, ExecMetrics)> {
    let mut metrics = ExecMetrics::default();
    let rs = execute_node(plan, provider, &mut metrics)?;
    Ok((rs, metrics))
}

/// The `EXPLAIN ANALYZE` profiling hook. When profiling is off (the common
/// case) this is one thread-local flag read; when on, the node records its
/// output rows, inclusive wall time, and inclusive batch windows.
fn profiled<T>(
    plan: &LogicalPlan,
    m: &mut ExecMetrics,
    rows: impl Fn(&T) -> usize,
    run: impl FnOnce(&mut ExecMetrics) -> Result<T>,
) -> Result<T> {
    if !crate::analyze::profiling() {
        return run(m);
    }
    let t0 = Instant::now();
    let b0 = m.batches;
    let out = run(m);
    let elapsed = t0.elapsed();
    if let Ok(v) = &out {
        crate::analyze::record(plan, rows(v) as u64, elapsed, m.batches - b0);
    }
    out
}

/// Node dispatcher. Result-shaping nodes are profiled here; relational
/// nodes (Scan/Filter/Join) are recorded by [`eval_relational`] instead, so
/// every node is profiled exactly once.
fn execute_node(
    plan: &LogicalPlan,
    provider: &DatabaseProvider<'_>,
    m: &mut ExecMetrics,
) -> Result<ResultSet> {
    if matches!(
        plan,
        LogicalPlan::Scan { .. } | LogicalPlan::Filter { .. } | LogicalPlan::Join { .. }
    ) {
        return execute_node_inner(plan, provider, m);
    }
    profiled(
        plan,
        m,
        |rs: &ResultSet| rs.rows.len(),
        |m| execute_node_inner(plan, provider, m),
    )
}

fn execute_node_inner(
    plan: &LogicalPlan,
    provider: &DatabaseProvider<'_>,
    m: &mut ExecMetrics,
) -> Result<ResultSet> {
    match plan {
        LogicalPlan::Project { input, items, keys } => {
            project_node(input, items, keys, None, provider, m).map(|(rs, _)| rs)
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
            rs.rows
                .sort_by(|a, b| cmp_trailing_keys(a.values(), b.values(), ascending));
            Ok(rs)
        }
        LogicalPlan::Strip { input, drop } => {
            // Fused fast path: `Strip { Sort }` where the stripped suffix is
            // exactly the sort keys (the shape `build_plan` always emits).
            if let LogicalPlan::Sort {
                input: sort_input,
                ascending,
            } = input.as_ref()
            {
                if *drop == ascending.len() && *drop > 0 {
                    if crate::analyze::profiling() {
                        crate::analyze::record_fused(input);
                    }
                    return execute_sorted(sort_input, ascending, None, provider, m);
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
            // Order-preserving dedup on the non-allocating key form (numeric
            // INT/FLOAT equality folds together, as in SQL DISTINCT).
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
            // Fused fast path: `Limit { Strip { Sort } }` becomes a top-k
            // selection instead of sorting all n rows.
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
                        if crate::analyze::profiling() {
                            crate::analyze::record_fused(input);
                            crate::analyze::record_fused(strip_input);
                        }
                        let limit = Some(*limit as usize);
                        return execute_sorted(sort_input, ascending, limit, provider, m);
                    }
                }
            }
            let mut rs = execute_node(input, provider, m)?;
            rs.rows.truncate(*limit as usize);
            Ok(rs)
        }
        relational => {
            // A bare Scan/Filter/Join tree (e.g. a federated residual whose
            // projection already happened remotely): every column, by
            // position, for every selected row.
            let rel = eval_relational(relational, provider, m)?;
            let plans: Vec<(String, ItemPlan)> = (0..rel.bindings.arity())
                .map(|i| {
                    let name = rel.bindings.name_at(i).expect("pos in range").to_string();
                    (name, ItemPlan::Position(i))
                })
                .collect();
            let rows = materialize(&rel, &rel.sel, &plans, &[], m)?;
            let columns = plans.into_iter().map(|(n, _)| n).collect();
            Ok(ResultSet { columns, rows })
        }
    }
}

/// The ORDER BY comparison: per key, in key order, how the left row's key
/// compares with the right's under the total `index_cmp` order, and the
/// key's direction. The one definition `Sort`, both fused sorts and
/// [`crate::fold`] order by; a lazy iterator compares only as far as the
/// first key that differs.
pub(crate) fn cmp_sort_keys(keys: impl Iterator<Item = (Ordering, bool)>) -> Ordering {
    for (ord, asc) in keys {
        let ord = if asc { ord } else { ord.reverse() };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// [`cmp_sort_keys`] over two rows whose last `ascending.len()` columns are
/// their hidden sort keys.
fn cmp_trailing_keys(a: &[Value], b: &[Value], ascending: &[bool]) -> Ordering {
    let w = a.len() - ascending.len();
    cmp_sort_keys(
        ascending
            .iter()
            .enumerate()
            .map(|(i, asc)| (a[w + i].index_cmp(&b[w + i]), *asc)),
    )
}

/// A fused `Strip { Sort { input } }`, optionally under a `Limit`. A
/// `Project` is handed the order, so it can shape its selection before it
/// builds a row ([`project_node`]); rows that arrive unordered — an
/// `Aggregate`'s, or a `Project`'s whose select list has an expression —
/// are sorted and stripped here.
fn execute_sorted(
    input: &LogicalPlan,
    ascending: &[bool],
    limit: Option<usize>,
    provider: &DatabaseProvider<'_>,
    m: &mut ExecMetrics,
) -> Result<ResultSet> {
    let (rs, ordered) = match input {
        LogicalPlan::Project {
            input: rel_input,
            items,
            keys,
        } => profiled(
            input,
            m,
            |(rs, _): &(ResultSet, bool)| rs.rows.len(),
            |m| {
                let order = Some((ascending, limit));
                project_node(rel_input, items, keys, order, provider, m)
            },
        )?,
        other => (execute_node(other, provider, m)?, false),
    };
    Ok(if ordered {
        rs
    } else {
        sort_strip_fused(rs, ascending, limit)
    })
}

/// Execute a `Project` node, under the `(ascending, limit)` of a fused
/// `Strip { Sort }` above it when there is one. Returns the rows and whether
/// they are already in that order, limited, without hidden key columns.
///
/// They are when every select item is a position: nothing in such a row can
/// fail to build, so the order is settled on the selection
/// ([`order_selection`]) and only the rows returned are built. A select list
/// with an expression builds every row with its hidden keys, as without an
/// order — an expression that errors on a row the LIMIT would drop must
/// still surface — and leaves the sorting to the caller.
fn project_node(
    input: &LogicalPlan,
    items: &[SelectItem],
    keys: &[OrderItem],
    order: Option<(&[bool], Option<usize>)>,
    provider: &DatabaseProvider<'_>,
    m: &mut ExecMetrics,
) -> Result<(ResultSet, bool)> {
    let rel = eval_relational(input, provider, m)?;
    let (plans, key_plans) = timed_compile(m, || {
        let plans = expand_items(items, &rel.bindings)?;
        let columns: Vec<&str> = plans.iter().map(|(n, _)| n.as_str()).collect();
        let key_plans = compile_order_keys(keys, &rel.bindings, &columns)?;
        Ok((plans, key_plans))
    })?;
    let columns: Vec<String> = plans.iter().map(|(n, _)| n.clone()).collect();
    let positional = plans
        .iter()
        .all(|(_, plan)| matches!(plan, ItemPlan::Position(_)));
    let (rows, ordered) = match order {
        Some((ascending, limit)) if positional => {
            debug_assert_eq!(ascending.len(), key_plans.len());
            let sel = order_selection(&rel, &plans, &key_plans, ascending, limit, m)?;
            (materialize(&rel, &sel, &plans, &[], m)?, true)
        }
        _ => (materialize(&rel, &rel.sel, &plans, &key_plans, m)?, false),
    };
    Ok((ResultSet { columns, rows }, ordered))
}

/// A sort key as a column. The two classes most keys have, over a chunk that
/// holds no NULL, compare as plain slices; the rest go through [`ValRef`].
enum SortCol<'a> {
    Ints(&'a [i64]),
    Floats(&'a [f64]),
    Any(&'a ColData<'a>),
}

impl<'a> SortCol<'a> {
    fn of(col: &'a ColData<'a>) -> SortCol<'a> {
        match col.chunk() {
            Some(ColumnChunk::Int { data, nulls }) if !nulls.any() => SortCol::Ints(data),
            Some(ColumnChunk::Float { data, nulls }) if !nulls.any() => SortCol::Floats(data),
            _ => SortCol::Any(col),
        }
    }

    /// [`ValRef::index_cmp`] of the entries at `x` and `y`.
    fn index_cmp(&self, x: usize, y: usize) -> Ordering {
        match self {
            SortCol::Ints(data) => data[x].cmp(&data[y]),
            SortCol::Floats(data) => ValRef::Float(data[x]).index_cmp(&ValRef::Float(data[y])),
            SortCol::Any(col) => col.val_ref(x).index_cmp(&col.val_ref(y)),
        }
    }
}

/// The selected positions of `rel` in ORDER BY order — the first `limit` of
/// them under a LIMIT — for a select list of positions. Ties keep selection
/// order, which is what the decorated sort over built rows yields.
///
/// Sort keys are columns. A key that names a column (an output item, or an
/// input column) is compared where it lies, in its chunk, through
/// [`ValRef::index_cmp`]; a computed key is evaluated once per selected row
/// into a value column ([`eval_key_columns`]: row-major, so a key that
/// errors raises what building every row would have raised). The indices
/// into the selection are what [`top_k_sorted`] orders.
fn order_selection(
    rel: &ColRelation<'_>,
    plans: &[(String, ItemPlan)],
    key_plans: &[SortKeyPlan],
    ascending: &[bool],
    limit: Option<usize>,
    m: &mut ExecMetrics,
) -> Result<Vec<u32>> {
    let column_of = |kp: &SortKeyPlan| match kp {
        SortKeyPlan::Output(q) => match &plans[*q].1 {
            ItemPlan::Position(c) => Some(*c),
            ItemPlan::Expr(_) => unreachable!("ordered projections are positional"),
        },
        SortKeyPlan::Input(CompiledExpr::Column(c)) => Some(*c),
        SortKeyPlan::Input(_) => None,
    };
    let exprs: Vec<&CompiledExpr> = key_plans
        .iter()
        .filter_map(|kp| match kp {
            SortKeyPlan::Input(e) if !matches!(e, CompiledExpr::Column(_)) => Some(e),
            _ => None,
        })
        .collect();
    let computed = eval_key_columns(rel, &exprs, m)?;
    // Per key: its column, and whether entry `i` belongs to `rel.sel[i]`
    // (a computed column) or to position `i` (a column of the relation).
    let mut next_computed = computed.iter();
    let cols: Vec<(SortCol<'_>, bool)> = key_plans
        .iter()
        .map(|kp| match column_of(kp) {
            Some(c) => (SortCol::of(&rel.cols[c]), false),
            None => {
                let col = next_computed.next().expect("one column per key");
                (SortCol::of(col), true)
            }
        })
        .collect();
    let sel = &rel.sel;
    // Total: equal keys fall back to the selection index.
    let cmp = |a: u32, b: u32| {
        cmp_sort_keys(cols.iter().zip(ascending).map(|((col, dense), &asc)| {
            let (x, y) = if *dense {
                (a as usize, b as usize)
            } else {
                (sel[a as usize] as usize, sel[b as usize] as usize)
            };
            (col.index_cmp(x, y), asc)
        }))
        .then(a.cmp(&b))
    };
    let mut order: Vec<u32> = (0..sel.len() as u32).collect();
    top_k_sorted(&mut order, limit, |&a, &b| cmp(a, b));
    for i in &mut order {
        *i = sel[*i as usize];
    }
    Ok(order)
}

/// Sort `items` by the total order `cmp` and keep the first `limit` of
/// them: under a LIMIT a selection puts the `limit` best in front, and only
/// those are fully sorted. The one top-k of the executor — over indices into
/// a selection ([`order_selection`]) and over built rows
/// ([`sort_strip_fused`]). A selection is linear whatever order the input
/// arrives in; a bounded heap is quicker on shuffled keys but pays `log k`
/// per item on input sorted against the order — "newest first" over a table
/// appended oldest first.
fn top_k_sorted<T>(items: &mut Vec<T>, limit: Option<usize>, cmp: impl Fn(&T, &T) -> Ordering) {
    if let Some(k) = limit {
        if k == 0 {
            items.clear();
        } else if k < items.len() {
            items.select_nth_unstable_by(k - 1, &cmp);
            items.truncate(k);
        }
    }
    items.sort_unstable_by(&cmp);
}

/// Decorate-sort-undecorate for a fused `Strip { Sort }` (optionally under a
/// `Limit`) over rows that are already built — an `Aggregate`'s groups, a
/// `Project` with expression items, everything in the row-at-a-time
/// reference: rows arrive with `ascending.len()` trailing key columns and
/// leave sorted and stripped. Rows are decorated with their input index as
/// the final tiebreaker, which makes the unstable sort (and the top-k
/// selection under a LIMIT) reproduce stable-sort output exactly.
pub(crate) fn sort_strip_fused(
    mut rs: ResultSet,
    ascending: &[bool],
    limit: Option<usize>,
) -> ResultSet {
    let mut decorated: Vec<(usize, Row)> = rs.rows.into_iter().enumerate().collect();
    top_k_sorted(&mut decorated, limit, |a, b| {
        cmp_trailing_keys(a.1.values(), b.1.values(), ascending).then(a.0.cmp(&b.0))
    });
    rs.rows = decorated
        .into_iter()
        .map(|(_, r)| {
            let mut values = r.into_values();
            values.truncate(values.len() - ascending.len());
            Row::new(values)
        })
        .collect();
    rs
}

/// Evaluate the relational (Scan/Filter/Join) portion of a plan into
/// columnar form, recording the profile of every relational node when
/// `EXPLAIN ANALYZE` is active.
fn eval_relational<'p>(
    plan: &LogicalPlan,
    provider: &DatabaseProvider<'p>,
    m: &mut ExecMetrics,
) -> Result<ColRelation<'p>> {
    profiled(
        plan,
        m,
        |rel: &ColRelation<'p>| rel.sel.len(),
        |m| eval_relational_inner(plan, provider, m),
    )
}

fn eval_relational_inner<'p>(
    plan: &LogicalPlan,
    provider: &DatabaseProvider<'p>,
    m: &mut ExecMetrics,
) -> Result<ColRelation<'p>> {
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
            // Storage chunks are borrowed, never copied.
            let cols: Vec<ColData<'p>> = stored.chunks().iter().map(ColData::Chunk).collect();
            let mut sel = stored.live_positions();
            m.rows_scanned += sel.len() as u64;
            m.batches += n_batches(sel.len());
            // Pushed-down predicates run over the full-width relation,
            // before the scan's own projection narrows it, refining the
            // selection vector per filter in pushdown order. Errors are
            // deferred per row and resolved to the row-major first error.
            let arity = names.len();
            let mut errors = Vec::new();
            let cfg = par::current_exec_config();
            if !compiled.is_empty() && par::should_parallelize(&cfg, sel.len()) {
                par_apply_filters(&cfg, &compiled, &cols, arity, &mut sel, &mut errors, m);
            } else {
                for f in &compiled {
                    apply_filter(f, &cols, arity, &mut sel, &mut errors, &mut m.batches);
                }
            }
            take_first_error(errors)?;
            m.rows_selected += sel.len() as u64;
            match projection {
                Some(wanted) => {
                    let mut positions = Vec::with_capacity(wanted.len());
                    let mut kept_names = Vec::with_capacity(wanted.len());
                    for c in wanted {
                        let pos = names
                            .iter()
                            .position(|n| n.eq_ignore_ascii_case(c))
                            .ok_or_else(|| SqlError::UnknownColumn(c.clone()))?;
                        positions.push(pos);
                        kept_names.push(names[pos].clone());
                    }
                    // Narrowing drops whole columns; no row data moves.
                    let mut taken: Vec<Option<ColData<'p>>> = cols.into_iter().map(Some).collect();
                    let cols = positions
                        .iter()
                        .map(|&p| taken[p].take().expect("projection columns are distinct"))
                        .collect();
                    Ok(ColRelation {
                        bindings: Bindings::for_table(binding, &kept_names),
                        cols,
                        sel,
                    })
                }
                None => Ok(ColRelation {
                    bindings,
                    cols,
                    sel,
                }),
            }
        }
        LogicalPlan::Filter { input, predicate } => {
            let mut rel = eval_relational(input, provider, m)?;
            let compiled = timed_compile(m, || compile(predicate, &rel.bindings))?;
            let arity = rel.bindings.arity();
            let mut errors = Vec::new();
            let cfg = par::current_exec_config();
            if par::should_parallelize(&cfg, rel.sel.len()) {
                par_apply_filters(
                    &cfg,
                    std::slice::from_ref(&compiled),
                    &rel.cols,
                    arity,
                    &mut rel.sel,
                    &mut errors,
                    m,
                );
            } else {
                apply_filter(
                    &compiled,
                    &rel.cols,
                    arity,
                    &mut rel.sel,
                    &mut errors,
                    &mut m.batches,
                );
            }
            take_first_error(errors)?;
            m.rows_selected += rel.sel.len() as u64;
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

/// Execute an UPDATE against a mutable database, returning the number of
/// rows changed.
///
/// Semantics match the 2005 backends' autocommit mode: the statement is
/// validated up front (predicate, assignment types, uniqueness of the
/// post-image) and then applied atomically by rebuilding the table.
pub fn execute_update(stmt: &UpdateStmt, db: &mut Database) -> Result<usize> {
    let table = db
        .table_mut(&stmt.table)
        .map_err(|_| SqlError::UnknownTable(stmt.table.clone()))?;
    let schema = table.schema().clone();
    let bindings = Bindings::for_table(&stmt.table, &schema.names());

    // Resolve assignment targets and compile their expressions once.
    let mut targets = Vec::with_capacity(stmt.assignments.len());
    for (col, expr) in &stmt.assignments {
        let idx = schema
            .index_of(col)
            .ok_or_else(|| SqlError::UnknownColumn(col.clone()))?;
        targets.push((idx, compile(expr, &bindings)?));
    }
    let predicate = match &stmt.where_clause {
        Some(pred) => Some(compile(pred, &bindings)?),
        None => None,
    };

    // Build the post-image, validating every row before touching the table.
    let snapshot = table.rows();
    let mut new_rows = Vec::with_capacity(snapshot.len());
    let mut changed = 0usize;
    for row in &snapshot {
        let matches = match &predicate {
            Some(pred) => pred.eval_predicate(row.values())?,
            None => true,
        };
        if matches {
            let mut values = row.values().to_vec();
            for (idx, expr) in &targets {
                values[*idx] = expr.eval(row.values())?;
            }
            new_rows.push(schema.check_row(values)?);
            changed += 1;
        } else {
            new_rows.push(row.values().to_vec());
        }
    }
    check_unique_post_image(&schema, &new_rows)?;

    table.truncate();
    for values in new_rows {
        table.insert(values)?;
    }
    Ok(changed)
}

/// Execute a DELETE against a mutable database, returning the number of
/// rows removed. Validation-first, like [`execute_update`].
pub fn execute_delete(stmt: &DeleteStmt, db: &mut Database) -> Result<usize> {
    let table = db
        .table_mut(&stmt.table)
        .map_err(|_| SqlError::UnknownTable(stmt.table.clone()))?;
    let schema = table.schema().clone();
    let bindings = Bindings::for_table(&stmt.table, &schema.names());
    let predicate = match &stmt.where_clause {
        Some(pred) => Some(compile(pred, &bindings)?),
        None => None,
    };
    let snapshot = table.rows();
    let mut keep = Vec::with_capacity(snapshot.len());
    let mut removed = 0usize;
    for row in &snapshot {
        let matches = match &predicate {
            Some(pred) => pred.eval_predicate(row.values())?,
            None => true,
        };
        if matches {
            removed += 1;
        } else {
            keep.push(row.values().to_vec());
        }
    }
    table.truncate();
    for values in keep {
        table.insert(values)?;
    }
    Ok(removed)
}

/// Reject a rebuilt table image that would violate a UNIQUE column.
pub(crate) fn check_unique_post_image(schema: &Schema, rows: &[Vec<Value>]) -> Result<()> {
    for (idx, col) in schema.columns().iter().enumerate() {
        if !col.unique {
            continue;
        }
        let mut seen = std::collections::HashSet::new();
        for values in rows {
            if let Some(k) = KeyValue::of(&values[idx]) {
                if !seen.insert(k) {
                    return Err(SqlError::Storage(
                        gridfed_storage::StorageError::UniqueViolation {
                            column: col.name.clone(),
                            value: values[idx].render(),
                        },
                    ));
                }
            }
        }
    }
    Ok(())
}

/// If `on` is `left_col = right_col` with one side bound to each input,
/// return the two positions for a hash join.
pub(crate) fn equi_join_keys(
    on: &Expr,
    left: &Bindings,
    right: &Bindings,
) -> Option<(usize, usize)> {
    if let Expr::Binary {
        left: l,
        op: crate::ast::BinaryOp::Eq,
        right: r,
    } = on
    {
        if let (Expr::Column(a), Expr::Column(b)) = (l.as_ref(), r.as_ref()) {
            if let (Ok(la), Ok(rb)) = (left.resolve(a), right.resolve(b)) {
                return Some((la, rb));
            }
            if let (Ok(lb), Ok(ra)) = (left.resolve(b), right.resolve(a)) {
                return Some((lb, ra));
            }
        }
    }
    None
}

/// Record a parallel dispatch in the metrics: `n` work items on the pool.
fn note_parallel(m: &mut ExecMetrics, cfg: &ExecConfig, n: usize) {
    m.morsels += n as u64;
    m.workers = m.workers.max(cfg.workers.min(n) as u64);
}

/// Apply all `filters` to `sel` morsel-parallel: each morsel refines its
/// own slice of the selection through the full filter chain, and the
/// refined slices concatenate in morsel order (positions stay ascending,
/// exactly the sequential refinement). The set of `(filter, row)`
/// evaluations is identical to the sequential pass — a later filter only
/// ever sees rows that survived the earlier ones in the same morsel — so
/// the deferred `(position, error)` records are the same set, and
/// [`take_first_error`]'s minimum-position reduction reports exactly the
/// row-major first error the interpreter would.
fn par_apply_filters(
    cfg: &ExecConfig,
    filters: &[CompiledExpr],
    cols: &[ColData<'_>],
    arity: usize,
    sel: &mut Vec<u32>,
    errors: &mut Vec<(u32, SqlError)>,
    m: &mut ExecMetrics,
) {
    let chunks = par::morsels(cfg, sel);
    note_parallel(m, cfg, chunks.len());
    let results = par::parallel_map(cfg, chunks, |_, chunk| {
        let mut local_sel = chunk.to_vec();
        let mut local_errors = Vec::new();
        let mut local_batches = 0u64;
        for f in filters {
            apply_filter(
                f,
                cols,
                arity,
                &mut local_sel,
                &mut local_errors,
                &mut local_batches,
            );
        }
        (local_sel, local_errors, local_batches)
    });
    let mut merged = Vec::with_capacity(sel.len());
    for (local_sel, local_errors, local_batches) in results {
        merged.extend(local_sel);
        errors.extend(local_errors);
        m.batches += local_batches;
    }
    *sel = merged;
}

/// The column positions `exprs` read, ascending and distinct — what a
/// scratch row must hold before any of them is evaluated.
fn referenced_positions<'e>(
    exprs: impl IntoIterator<Item = &'e CompiledExpr>,
    arity: usize,
) -> Vec<usize> {
    let mut needed = Vec::new();
    for e in exprs {
        e.collect_positions(&mut needed);
    }
    needed.sort_unstable();
    needed.dedup();
    needed.retain(|&p| p < arity);
    needed
}

/// Late materialization — the one place the executor turns columns into
/// rows, for a `Project` node and for a bare relational root alike: one row
/// per entry of `sel`, which is `rel`'s selection or what ORDER BY … LIMIT
/// left of it. Under a parallel config each morsel of `sel` builds its own
/// rows; morsel-order concatenation keeps output order, and the first `Err`
/// in morsel order is the error of the earliest failing row (earlier
/// morsels completed without one) — the same abort the sequential pass
/// performs. Charges one pass over the relation's whole selection.
fn materialize(
    rel: &ColRelation<'_>,
    sel: &[u32],
    plans: &[(String, ItemPlan)],
    key_plans: &[SortKeyPlan],
    m: &mut ExecMetrics,
) -> Result<Vec<Row>> {
    // Only expression items and input sort keys read a scratch row, and
    // only the columns they reference are gathered into it.
    let item_exprs = plans.iter().filter_map(|(_, plan)| match plan {
        ItemPlan::Expr(e) => Some(e),
        ItemPlan::Position(_) => None,
    });
    let key_exprs = key_plans.iter().filter_map(|kp| match kp {
        SortKeyPlan::Input(e) => Some(e),
        SortKeyPlan::Output(_) => None,
    });
    let needed = referenced_positions(item_exprs.chain(key_exprs), rel.bindings.arity());
    let cfg = par::current_exec_config();
    let rows = if par::should_parallelize(&cfg, sel.len()) {
        let chunks = par::morsels(&cfg, sel);
        note_parallel(m, &cfg, chunks.len());
        let results = par::parallel_map(&cfg, chunks, |_, chunk| {
            build_rows(rel, chunk, plans, key_plans, &needed)
        });
        let mut out = Vec::with_capacity(sel.len());
        for r in results {
            out.extend(r?);
        }
        out
    } else {
        build_rows(rel, sel, plans, key_plans, &needed)?
    };
    m.rows_materialized += rows.len() as u64;
    m.batches += n_batches(rel.sel.len());
    Ok(rows)
}

/// Evaluate `exprs` once per selected row of `rel` into one value column
/// each, entry `i` belonging to `rel.sel[i]` — how a computed GROUP BY or
/// ORDER BY key becomes a column like any other. Row-major, so the error
/// raised is the first failing row's first failing expression; under a
/// parallel config each morsel evaluates its own rows and the first `Err`
/// in morsel order is that same error.
fn eval_key_columns(
    rel: &ColRelation<'_>,
    exprs: &[&CompiledExpr],
    m: &mut ExecMetrics,
) -> Result<Vec<ColData<'static>>> {
    if exprs.is_empty() {
        return Ok(Vec::new());
    }
    let arity = rel.bindings.arity();
    let needed = referenced_positions(exprs.iter().copied(), arity);
    let eval_rows = |sel: &[u32]| -> Result<Vec<Vec<Value>>> {
        let mut scratch = vec![Value::Null; arity];
        let mut cols: Vec<Vec<Value>> = exprs
            .iter()
            .map(|_| Vec::with_capacity(sel.len()))
            .collect();
        for &s in sel {
            for &c in &needed {
                scratch[c] = rel.cols[c].value_at(s as usize);
            }
            for (col, e) in cols.iter_mut().zip(exprs) {
                col.push(e.eval(&scratch)?);
            }
        }
        Ok(cols)
    };
    let cfg = par::current_exec_config();
    let cols = if par::should_parallelize(&cfg, rel.sel.len()) {
        let chunks = par::morsels(&cfg, &rel.sel);
        note_parallel(m, &cfg, chunks.len());
        let mut cols: Vec<Vec<Value>> = exprs
            .iter()
            .map(|_| Vec::with_capacity(rel.sel.len()))
            .collect();
        for part in par::parallel_map(&cfg, chunks, |_, chunk| eval_rows(chunk)) {
            for (col, values) in cols.iter_mut().zip(part?) {
                col.extend(values);
            }
        }
        cols
    } else {
        eval_rows(&rel.sel)?
    };
    Ok(cols.into_iter().map(ColData::Values).collect())
}

/// Build the output rows of the selected positions `sel`, each value once.
///
/// Column-major first: rows are sized up front and every positional item
/// is written by one typed loop over its column ([`ColData::fill_rows`]) —
/// copying a column cannot fail. Then, only if the plan has them,
/// expression items and sort keys run row-major over the scratch row, so
/// the first error raised is the first failing row's first failing item,
/// as in the row-at-a-time reference.
fn build_rows(
    rel: &ColRelation<'_>,
    sel: &[u32],
    plans: &[(String, ItemPlan)],
    key_plans: &[SortKeyPlan],
    needed: &[usize],
) -> Result<Vec<Row>> {
    let width = plans.len() + key_plans.len();
    let mut rows: Vec<Row> = (0..sel.len())
        .map(|_| Row::new(vec![Value::Null; width]))
        .collect();
    let mut positional = true;
    for (slot, (_, plan)) in plans.iter().enumerate() {
        match plan {
            ItemPlan::Position(q) => rel.cols[*q].fill_rows(sel, &mut rows, slot),
            ItemPlan::Expr(_) => positional = false,
        }
    }
    if positional && key_plans.is_empty() {
        return Ok(rows);
    }
    let mut scratch = vec![Value::Null; rel.bindings.arity()];
    for (row, &s) in rows.iter_mut().zip(sel) {
        for &c in needed {
            scratch[c] = rel.cols[c].value_at(s as usize);
        }
        let values = row.values_mut();
        for (slot, (_, plan)) in plans.iter().enumerate() {
            if let ItemPlan::Expr(e) = plan {
                values[slot] = e.eval(&scratch)?;
            }
        }
        for (k, kp) in key_plans.iter().enumerate() {
            values[plans.len() + k] = match kp {
                SortKeyPlan::Output(q) => values[*q].clone(),
                SortKeyPlan::Input(e) => e.eval(&scratch)?,
            };
        }
    }
    Ok(rows)
}

/// Deterministic partition assignment for the parallel hash-join build: a
/// fixed-seed `DefaultHasher`, so the same key lands in the same partition
/// regardless of thread scheduling or process hash randomization. Equal
/// [`KeyValue`]s hash equal (numeric INT/FLOAT folding included), so a
/// probe key always finds the partition its matches were built into.
fn partition_of(k: &KeyValue<'_>, parts: usize) -> usize {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    k.hash(&mut h);
    (h.finish() as usize) % parts.max(1)
}

/// Hash join with a partition-parallel build and a morsel-parallel probe.
///
/// Build: each build-side morsel scatters its non-NULL keys into
/// `cfg.workers` partitions by [`partition_of`]; each partition then folds
/// its per-morsel slices **in morsel order**, so every key's match list
/// stays in `right.sel` order — bucket iteration during the probe emits
/// matches exactly as the sequential single-map build would. Probe: each
/// probe-side morsel emits its own `(left, right)` index pairs;
/// concatenating in morsel order reproduces the sequential probe order, so
/// the joined output is byte-identical to the single-threaded join.
fn par_hash_join(
    cfg: &ExecConfig,
    left: &ColRelation<'_>,
    right: &ColRelation<'_>,
    lk: usize,
    rk: usize,
    kind: JoinKind,
    m: &mut ExecMetrics,
) -> (Vec<u32>, Vec<Option<u32>>) {
    let parts = cfg.workers.max(1);
    let partitions: Vec<HashMap<KeyValue<'_>, Vec<u32>>> =
        if par::should_parallelize(cfg, right.sel.len()) {
            let chunks = par::morsels(cfg, &right.sel);
            note_parallel(m, cfg, chunks.len());
            let scattered: Vec<Vec<Vec<u32>>> = par::parallel_map(cfg, chunks, |_, chunk| {
                let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); parts];
                for &rp in chunk {
                    if let Some(k) = right.cols[rk].key_at(rp as usize) {
                        buckets[partition_of(&k, parts)].push(rp);
                    }
                }
                buckets
            });
            note_parallel(m, cfg, parts);
            par::parallel_map(cfg, (0..parts).collect(), |_, pi| {
                let mut map: HashMap<KeyValue<'_>, Vec<u32>> = HashMap::new();
                for morsel in &scattered {
                    for &rp in &morsel[pi] {
                        let k = right.cols[rk]
                            .key_at(rp as usize)
                            .expect("scattered keys are non-null");
                        map.entry(k).or_default().push(rp);
                    }
                }
                map
            })
        } else {
            let mut map: HashMap<KeyValue<'_>, Vec<u32>> = HashMap::new();
            for &rp in &right.sel {
                if let Some(k) = right.cols[rk].key_at(rp as usize) {
                    map.entry(k).or_default().push(rp);
                }
            }
            vec![map]
        };
    let single = partitions.len() == 1;
    let chunks = par::morsels(cfg, &left.sel);
    note_parallel(m, cfg, chunks.len());
    let probed = par::parallel_map(cfg, chunks, |_, chunk| {
        let mut l: Vec<u32> = Vec::new();
        let mut r: Vec<Option<u32>> = Vec::new();
        for &lp in chunk {
            let mut matched = false;
            if let Some(k) = left.cols[lk].key_at(lp as usize) {
                let map = if single {
                    &partitions[0]
                } else {
                    &partitions[partition_of(&k, parts)]
                };
                if let Some(ms) = map.get(&k) {
                    for &rp in ms {
                        l.push(lp);
                        r.push(Some(rp));
                        matched = true;
                    }
                }
            }
            if !matched && kind == JoinKind::LeftOuter {
                l.push(lp);
                r.push(None);
            }
        }
        (l, r)
    });
    let mut lidx = Vec::new();
    let mut ridx = Vec::new();
    for (l, r) in probed {
        lidx.extend(l);
        ridx.extend(r);
    }
    (lidx, ridx)
}

/// Join two columnar relations. The hash path builds and probes on chunk
/// values directly (dictionary strings are borrowed, never copied), collects
/// matching index pairs, and gathers output columns once — string columns in
/// the output share their source dictionary via `Arc`.
fn join_relations<'p>(
    left: ColRelation<'p>,
    right: ColRelation<'p>,
    kind: JoinKind,
    on: Option<&Expr>,
    m: &mut ExecMetrics,
) -> Result<ColRelation<'p>> {
    let bindings = left.bindings.concat(&right.bindings);
    let left_arity = left.bindings.arity();
    let right_arity = right.bindings.arity();
    let mut lidx: Vec<u32> = Vec::new();
    let mut ridx: Vec<Option<u32>> = Vec::new();
    let mut joined = false;

    // Fast path: hash join on a simple column equality, build/probe keyed on
    // the borrowed, allocation-free `KeyValue` form.
    if kind != JoinKind::Cross {
        if let Some(on_expr) = on {
            if let Some((lk, rk)) = equi_join_keys(on_expr, &left.bindings, &right.bindings) {
                let cfg = par::current_exec_config();
                if par::should_parallelize(&cfg, left.sel.len()) {
                    (lidx, ridx) = par_hash_join(&cfg, &left, &right, lk, rk, kind, m);
                } else {
                    let mut table: HashMap<KeyValue<'_>, Vec<u32>> = HashMap::new();
                    for &rp in &right.sel {
                        if let Some(k) = right.cols[rk].key_at(rp as usize) {
                            table.entry(k).or_default().push(rp);
                        }
                    }
                    for &lp in &left.sel {
                        let mut matched = false;
                        if let Some(k) = left.cols[lk].key_at(lp as usize) {
                            if let Some(ms) = table.get(&k) {
                                for &rp in ms {
                                    lidx.push(lp);
                                    ridx.push(Some(rp));
                                    matched = true;
                                }
                            }
                        }
                        if !matched && kind == JoinKind::LeftOuter {
                            lidx.push(lp);
                            ridx.push(None);
                        }
                    }
                }
                joined = true;
            }
        }
    }

    // General nested loop; the ON condition compiles once against the
    // concatenated layout and evaluates over a reusable scratch row, staging
    // only index pairs — output columns are still gathered, not copied
    // pairwise.
    if !joined {
        let compiled_on = match on {
            Some(cond) => Some(timed_compile(m, || compile(cond, &bindings))?),
            None => None,
        };
        let mut scratch = vec![Value::Null; left_arity + right_arity];
        for &lp in &left.sel {
            for (c, col) in left.cols.iter().enumerate() {
                scratch[c] = col.value_at(lp as usize);
            }
            let mut matched = false;
            for &rp in &right.sel {
                for (c, col) in right.cols.iter().enumerate() {
                    scratch[left_arity + c] = col.value_at(rp as usize);
                }
                let keep = match &compiled_on {
                    Some(cond) => cond.eval_predicate(&scratch)?,
                    None => true,
                };
                if keep {
                    lidx.push(lp);
                    ridx.push(Some(rp));
                    matched = true;
                }
            }
            if !matched && kind == JoinKind::LeftOuter {
                lidx.push(lp);
                ridx.push(None);
            }
        }
    }

    m.batches += n_batches(left.sel.len()) + n_batches(right.sel.len());
    let cfg = par::current_exec_config();
    let n_cols = left.cols.len() + right.cols.len();
    let cols: Vec<ColData<'p>> = if par::should_parallelize(&cfg, lidx.len()) && n_cols > 1 {
        // Gather output columns in parallel — each column's gather is
        // independent, and item-order collection keeps column order.
        let n_left = left.cols.len();
        note_parallel(m, &cfg, n_cols);
        par::parallel_map(&cfg, (0..n_cols).collect(), |_, i| {
            if i < n_left {
                left.cols[i].gather(&lidx)
            } else {
                right.cols[i - n_left].gather_opt(&ridx)
            }
        })
    } else {
        let mut cols = Vec::with_capacity(n_cols);
        for c in &left.cols {
            cols.push(c.gather(&lidx));
        }
        for c in &right.cols {
            cols.push(c.gather_opt(&ridx));
        }
        cols
    };
    let sel = (0..lidx.len() as u32).collect();
    Ok(ColRelation {
        bindings,
        cols,
        sel,
    })
}

/// Output column name for a select item.
pub(crate) fn item_name(item: &SelectItem) -> String {
    match item {
        SelectItem::Wildcard => "*".into(),
        SelectItem::QualifiedWildcard(q) => format!("{q}.*"),
        SelectItem::Expr { expr, alias } => match alias {
            Some(a) => a.clone(),
            None => match expr {
                Expr::Column(c) => c.column.clone(),
                other => render_expr_neutral(other),
            },
        },
    }
}

/// Expand wildcards into concrete (name, position) pairs.
pub(crate) fn expand_items(
    items: &[SelectItem],
    bindings: &Bindings,
) -> Result<Vec<(String, ItemPlan)>> {
    let mut out = Vec::new();
    for item in items {
        match item {
            SelectItem::Wildcard => {
                for pos in 0..bindings.arity() {
                    out.push((
                        bindings.name_at(pos).expect("pos in range").to_string(),
                        ItemPlan::Position(pos),
                    ));
                }
            }
            SelectItem::QualifiedWildcard(q) => {
                let positions = bindings.positions_of_qualifier(q);
                if positions.is_empty() {
                    return Err(SqlError::UnknownTable(q.clone()));
                }
                for pos in positions {
                    out.push((
                        bindings.name_at(pos).expect("pos in range").to_string(),
                        ItemPlan::Position(pos),
                    ));
                }
            }
            SelectItem::Expr { expr, .. } => {
                // A named column is a position like a wildcard's: it is
                // copied out of its chunk, never evaluated.
                let plan = match compile(expr, bindings)? {
                    CompiledExpr::Column(pos) => ItemPlan::Position(pos),
                    compiled => ItemPlan::Expr(compiled),
                };
                out.push((item_name(item), plan));
            }
        }
    }
    Ok(out)
}

/// How to produce one projection output value.
pub(crate) enum ItemPlan {
    /// Copy the input column at this position.
    Position(usize),
    /// Evaluate a compiled expression over the input row — never a bare
    /// [`CompiledExpr::Column`], which [`expand_items`] lowers to `Position`.
    Expr(CompiledExpr),
}

/// How to produce one ORDER BY sort key per output row.
pub(crate) enum SortKeyPlan {
    /// Copy an already-computed output value (alias / output-column match).
    Output(usize),
    /// Evaluate a compiled expression over the input row.
    Input(CompiledExpr),
}

/// Compile ORDER BY sort keys. Each key expression is resolved first against
/// the output columns (so `ORDER BY alias` works), then against the input
/// bindings.
pub(crate) fn compile_order_keys(
    order_by: &[OrderItem],
    bindings: &Bindings,
    out_columns: &[&str],
) -> Result<Vec<SortKeyPlan>> {
    let mut plans = Vec::with_capacity(order_by.len());
    for item in order_by {
        if let Expr::Column(c) = &item.expr {
            if c.qualifier.is_none() {
                if let Some(pos) = out_columns
                    .iter()
                    .position(|n| n.eq_ignore_ascii_case(&c.column))
                {
                    plans.push(SortKeyPlan::Output(pos));
                    continue;
                }
            }
        }
        plans.push(SortKeyPlan::Input(compile(&item.expr, bindings)?));
    }
    Ok(plans)
}

/// Group id of a group not opened yet.
const NO_GROUP: u32 = u32::MAX;

/// Assign each selected position to a group: returns the group id of every
/// entry of `sel`, and per group the position that opened it. Groups are
/// numbered in first-occurrence order; NULL keys pool in one group. Nothing
/// is allocated per row — keys are read where they lie, by [`ColData::key_at`]
/// semantics:
///
/// - a lone dictionary `Str` chunk through a dense code → group table (one
///   string, one code);
/// - a lone INT or FLOAT chunk through a map on the canonical `f64` bits
///   [`KeyValue::num`] folds, so `1` and `1.0`, `0.0` and `-0.0`, and every
///   NaN group as they do under `KeyValue` equality;
/// - anything else — several keys, a BOOL / BYTES chunk, a value column —
///   by hashing the columns' `key_at` and confirming against the position
///   that opened the candidate group, column by column.
///
/// The one grouping routine: the sequential arm runs it over the whole
/// selection, the parallel arm over every morsel and once more over the
/// morsels' group openers to merge them.
pub(crate) fn assign_groups(keys: &[&ColData<'_>], sel: &[u32]) -> (Vec<u32>, Vec<u32>) {
    use std::hash::{BuildHasher, Hash, Hasher};
    let mut ids: Vec<u32> = Vec::with_capacity(sel.len());
    let mut openers: Vec<u32> = Vec::new();
    // The group in `slot`, opened at `p` if this is its first row.
    fn group_in(slot: &mut u32, p: u32, openers: &mut Vec<u32>) -> u32 {
        if *slot == NO_GROUP {
            *slot = openers.len() as u32;
            openers.push(p);
        }
        *slot
    }
    // Group by 64 bits that identify a non-NULL key.
    fn by_bits(
        sel: &[u32],
        nulls: &Bitmap,
        bits: impl Fn(usize) -> u64,
        ids: &mut Vec<u32>,
        openers: &mut Vec<u32>,
    ) {
        let mut groups: HashMap<u64, u32> = HashMap::new();
        let mut null_group = NO_GROUP;
        // A run of one key — a fact table appended run by run — looks its
        // group up once.
        let mut run = (0u64, NO_GROUP);
        for &p in sel {
            if nulls.get(p as usize) {
                ids.push(group_in(&mut null_group, p, openers));
                continue;
            }
            let b = bits(p as usize);
            if run.1 == NO_GROUP || run.0 != b {
                let slot = groups.entry(b).or_insert(NO_GROUP);
                run = (b, group_in(slot, p, openers));
            }
            ids.push(run.1);
        }
    }
    let lone_chunk = match keys {
        [key] => key.chunk(),
        _ => None,
    };
    match lone_chunk {
        Some(ColumnChunk::Str { codes, dict, nulls }) => {
            // One slot per dictionary code, and a last one for NULL.
            let mut table = vec![NO_GROUP; dict.len() + 1];
            for &p in sel {
                let slot = if nulls.get(p as usize) {
                    dict.len()
                } else {
                    codes[p as usize] as usize
                };
                ids.push(group_in(&mut table[slot], p, &mut openers));
            }
        }
        Some(ColumnChunk::Int { data, nulls }) => {
            let bits = |p: usize| canonical_f64_bits(data[p] as f64);
            by_bits(sel, nulls, bits, &mut ids, &mut openers);
        }
        Some(ColumnChunk::Float { data, nulls }) => {
            let bits = |p: usize| canonical_f64_bits(data[p]);
            by_bits(sel, nulls, bits, &mut ids, &mut openers);
        }
        _ if keys.is_empty() => {
            openers.extend(sel.first());
            ids.resize(sel.len(), 0);
        }
        _ => {
            // Key hash → the newest group with that hash; `older[g]` chains
            // to the previous one, for the day two keys share 64 bits.
            let hasher = std::collections::hash_map::RandomState::new();
            let mut newest: HashMap<u64, u32> = HashMap::new();
            let mut older: Vec<u32> = Vec::new();
            for &p in sel {
                let mut h = hasher.build_hasher();
                for key in keys {
                    key.key_at(p as usize).hash(&mut h);
                }
                let hash = h.finish();
                let same_key = |g: u32| {
                    let opener = openers[g as usize] as usize;
                    keys.iter()
                        .all(|key| key.key_at(p as usize) == key.key_at(opener))
                };
                let mut g = newest.get(&hash).copied().unwrap_or(NO_GROUP);
                while g != NO_GROUP && !same_key(g) {
                    g = older[g as usize];
                }
                if g == NO_GROUP {
                    g = openers.len() as u32;
                    openers.push(p);
                    older.push(newest.insert(hash, g).unwrap_or(NO_GROUP));
                }
                ids.push(g);
            }
        }
    }
    (ids, openers)
}

/// [`assign_groups`] under the installed config. Morsel-parallel: every
/// morsel groups its own slice, then the morsels' openers — in morsel order,
/// so still in first-occurrence order — are grouped once more, which maps
/// each morsel-local group to its global id. Group numbering is therefore
/// first occurrence in `sel` order, exactly the sequential assignment.
fn assign_groups_par(keys: &[&ColData<'_>], sel: &[u32], m: &mut ExecMetrics) -> (Vec<u32>, usize) {
    let cfg = par::current_exec_config();
    if !par::should_parallelize(&cfg, sel.len()) {
        let (ids, openers) = assign_groups(keys, sel);
        return (ids, openers.len());
    }
    let chunks = par::morsels(&cfg, sel);
    note_parallel(m, &cfg, chunks.len());
    let locals = par::parallel_map(&cfg, chunks, |_, chunk| assign_groups(keys, chunk));
    let local_openers: Vec<u32> = locals
        .iter()
        .flat_map(|(_, openers)| openers.iter().copied())
        .collect();
    let (global_of, openers) = assign_groups(keys, &local_openers);
    let mut ids = Vec::with_capacity(sel.len());
    let mut base = 0;
    for (local_ids, local_openers) in &locals {
        ids.extend(local_ids.iter().map(|&g| global_of[base + g as usize]));
        base += local_openers.len();
    }
    (ids, openers.len())
}

/// A selection split into groups: group `g` is
/// `positions[bounds[g]..bounds[g + 1]]`, in selection order.
struct Grouping {
    positions: Vec<u32>,
    bounds: Vec<usize>,
}

impl Grouping {
    /// Scatter `sel` by the group id of each entry (a counting sort: stable,
    /// two allocations whatever the number of groups).
    fn new(sel: &[u32], ids: &[u32], n_groups: usize) -> Grouping {
        let mut bounds = vec![0usize; n_groups + 1];
        for &g in ids {
            bounds[g as usize + 1] += 1;
        }
        for g in 0..n_groups {
            bounds[g + 1] += bounds[g];
        }
        let mut next = bounds.clone();
        let mut positions = vec![0u32; sel.len()];
        for (&p, &g) in sel.iter().zip(ids) {
            positions[next[g as usize]] = p;
            next[g as usize] += 1;
        }
        Grouping { positions, bounds }
    }

    fn len(&self) -> usize {
        self.bounds.len() - 1
    }

    fn group(&self, g: usize) -> &[u32] {
        &self.positions[self.bounds[g]..self.bounds[g + 1]]
    }
}

/// Execute an `Aggregate` plan node over a columnar relation: assign the
/// selected positions to groups straight off the key columns
/// ([`assign_groups`]; a computed key is first evaluated into a column,
/// row-major, so a key that errors raises the first failing row's error),
/// then evaluate group by group — HAVING's aggregates, its verdict, the
/// remaining aggregates, the projected values, the hidden sort keys — so a
/// group HAVING drops never surfaces an error from its projection.
///
/// Compile-once throughout; an aggregate over a bare INT or FLOAT column
/// runs a typed loop over its chunk, other bare columns stream values
/// without a scratch row.
fn aggregate_node(
    rel: &ColRelation<'_>,
    items: &[SelectItem],
    group_by: &[Expr],
    having: Option<&Expr>,
    keys: &[OrderItem],
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
        // A sort key that fails to compile degrades every group's keys to
        // NULL, matching the interpreter's per-group error fallback.
        let out_cols: Vec<&str> = columns.iter().map(|s| s.as_str()).collect();
        let sort_plans = compile_order_keys(keys, &rel.bindings, &out_cols).ok();
        Ok((group_keys, aggs, item_exprs, having_expr, sort_plans))
    })?;

    // Key columns and the positions that index them: the relation's own
    // columns at the selected positions, or — when any key is computed —
    // one evaluated column per key, entry `i` for `rel.sel[i]`.
    let arity = rel.bindings.arity();
    let cfg = par::current_exec_config();
    let bare_keys: Option<Vec<&ColData<'_>>> = group_keys
        .iter()
        .map(|g| match g {
            CompiledExpr::Column(c) => Some(&rel.cols[*c]),
            _ => None,
        })
        .collect();
    let (ids, n_groups) = match bare_keys {
        Some(keys) => assign_groups_par(&keys, &rel.sel, m),
        None => {
            let exprs: Vec<&CompiledExpr> = group_keys.iter().collect();
            let computed = eval_key_columns(rel, &exprs, m)?;
            let keys: Vec<&ColData<'_>> = computed.iter().collect();
            let indexes: Vec<u32> = (0..rel.sel.len() as u32).collect();
            assign_groups_par(&keys, &indexes, m)
        }
    };
    // A global aggregate over zero rows still yields one output row.
    let n_groups = if group_by.is_empty() { 1 } else { n_groups };
    let groups = Grouping::new(&rel.sel, &ids, n_groups);

    // Column positions each aggregate's argument reads, precomputed.
    let agg_needs: Vec<Vec<usize>> = aggs
        .iter()
        .map(|a| referenced_positions(a.arg.as_ref(), arity))
        .collect();

    // Aggregate slots HAVING reads: computed for every group; the remaining
    // slots only for groups HAVING keeps (the interpreter's evaluation
    // order, so errors in filtered-out projections never surface).
    let mut having_slots = Vec::new();
    if let Some(h) = &having_expr {
        h.agg_slots(&mut having_slots);
    }

    // One group's full evaluation: gather its first row, compute HAVING's
    // aggregate slots and verdict (unknown-is-false), then the remaining
    // slots and the projected values. `Ok(None)` is a HAVING-filtered
    // group. Shared by the sequential loop and the parallel per-group map.
    let n_keys = keys.len();
    let group_row = |positions: &[u32],
                     scratch: &mut Vec<Value>,
                     first_scratch: &mut Vec<Value>|
     -> Result<Option<Row>> {
        let first_row: Option<&[Value]> = match positions.first() {
            Some(&s) => {
                for (c, col) in rel.cols.iter().enumerate() {
                    first_scratch[c] = col.value_at(s as usize);
                }
                Some(first_scratch.as_slice())
            }
            None => None,
        };
        let mut agg_values = vec![Value::Null; aggs.len()];
        let mut computed = vec![false; aggs.len()];
        // HAVING: filter whole groups; the predicate may mix aggregates
        // and grouping expressions, with SQL's unknown-is-false rule.
        if let Some(h) = &having_expr {
            for &slot in &having_slots {
                agg_values[slot] =
                    compute_aggregate(&aggs[slot], positions, rel, &agg_needs[slot], scratch)?;
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
                return Ok(None);
            }
        }
        for (slot, agg) in aggs.iter().enumerate() {
            if !computed[slot] {
                agg_values[slot] =
                    compute_aggregate(agg, positions, rel, &agg_needs[slot], scratch)?;
            }
        }
        let mut values = Vec::with_capacity(item_exprs.len() + n_keys);
        for ge in &item_exprs {
            values.push(ge.eval(&agg_values, first_row)?);
        }
        append_group_sort_keys(&mut values, &sort_plans, first_row, n_keys);
        Ok(Some(Row::new(values)))
    };

    let mut out = Vec::with_capacity(groups.len());
    if par::should_parallelize(&cfg, rel.sel.len()) && groups.len() > 1 {
        // Groups are independent — compute them in parallel with
        // per-worker scratch rows, then fold results in group insertion
        // order: output order is unchanged and the first `Err` in group
        // order is the error the sequential loop would have stopped at.
        note_parallel(m, &cfg, groups.len());
        let computed = par::parallel_map(&cfg, (0..groups.len()).collect(), |_, gi| {
            let mut scratch = vec![Value::Null; arity];
            let mut first_scratch = vec![Value::Null; arity];
            group_row(groups.group(gi), &mut scratch, &mut first_scratch)
        });
        for r in computed {
            if let Some(row) = r? {
                out.push(row);
            }
        }
    } else {
        let mut scratch = vec![Value::Null; arity];
        let mut first_scratch = vec![Value::Null; arity];
        for g in 0..groups.len() {
            if let Some(row) = group_row(groups.group(g), &mut scratch, &mut first_scratch)? {
                out.push(row);
            }
        }
    }
    m.rows_materialized += out.len() as u64;
    m.batches += n_batches(rel.sel.len()) * (1 + aggs.len() as u64);
    Ok(ResultSet { columns, rows: out })
}

/// Run one compiled aggregate over a group's selected positions. `COUNT(*)`
/// is the group's size; a non-DISTINCT bare INT or FLOAT column runs
/// [`AggState`]'s typed loop over its chunk (the same arithmetic in the same
/// position order as one `update` per value, so float sums are bit-identical
/// to the reference and to a retained fold); any other bare column streams
/// its values; anything else gathers the referenced columns into the
/// scratch row first.
fn compute_aggregate(
    agg: &CompiledAggregate,
    positions: &[u32],
    rel: &ColRelation<'_>,
    needed: &[usize],
    scratch: &mut [Value],
) -> Result<Value> {
    let mut state = AggState::new(agg.func, agg.distinct);
    match &agg.arg {
        None => state.count_rows(positions.len()),
        Some(CompiledExpr::Column(c)) => match rel.cols[*c].chunk() {
            Some(ColumnChunk::Int { data, nulls }) if !agg.distinct => {
                state = AggState::over_ints(agg.func, data, nulls, positions);
            }
            Some(ColumnChunk::Float { data, nulls }) if !agg.distinct => {
                state = AggState::over_floats(agg.func, data, nulls, positions);
            }
            _ => {
                for &s in positions {
                    let v = rel.cols[*c].value_at(s as usize);
                    state.update(Some(&v))?;
                }
            }
        },
        Some(e) => {
            for &s in positions {
                for &c in needed {
                    scratch[c] = rel.cols[c].value_at(s as usize);
                }
                let v = e.eval(scratch)?;
                state.update(Some(&v))?;
            }
        }
    }
    state.finish()
}

/// Append a group's hidden sort-key columns to `values`. Any evaluation
/// failure (or an earlier compile failure, `plans == None`) degrades that
/// group's keys to NULL, preserving the interpreter's fallback.
pub(crate) fn append_group_sort_keys(
    values: &mut Vec<Value>,
    plans: &Option<Vec<SortKeyPlan>>,
    first_row: Option<&[Value]>,
    n_keys: usize,
) {
    if let Some(plans) = plans {
        let start = values.len();
        let mut ok = true;
        for kp in plans {
            let key = match kp {
                SortKeyPlan::Output(p) => Ok(values[*p].clone()),
                // The interpreter evaluated sort keys against the group's
                // first row, or an empty row for an empty global group.
                SortKeyPlan::Input(e) => e.eval(first_row.unwrap_or(&[])),
            };
            match key {
                Ok(k) => values.push(k),
                Err(_) => {
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            return;
        }
        values.truncate(start);
    }
    values.extend(std::iter::repeat_n(Value::Null, n_keys));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_select;
    use gridfed_storage::{ColumnDef, DataType};

    fn db() -> Database {
        let mut db = Database::new("mart");
        let events = Schema::new(vec![
            ColumnDef::new("e_id", DataType::Int).primary_key(),
            ColumnDef::new("det_id", DataType::Int),
            ColumnDef::new("energy", DataType::Float),
        ])
        .unwrap();
        let t = db.create_table("events", events).unwrap();
        for (id, det, en) in [
            (1, 10, 5.0),
            (2, 10, 15.0),
            (3, 20, 25.0),
            (4, 20, 35.0),
            (5, 30, 45.0),
        ] {
            t.insert(vec![Value::Int(id), Value::Int(det), Value::Float(en)])
                .unwrap();
        }
        let dets = Schema::new(vec![
            ColumnDef::new("det_id", DataType::Int).primary_key(),
            ColumnDef::new("name", DataType::Text),
        ])
        .unwrap();
        let t = db.create_table("detectors", dets).unwrap();
        for (id, name) in [(10, "ecal"), (20, "hcal")] {
            t.insert(vec![Value::Int(id), name.into()]).unwrap();
        }
        db
    }

    fn run(sql: &str) -> ResultSet {
        let stmt = parse_select(sql).unwrap();
        execute_select(&stmt, &DatabaseProvider(&db())).unwrap()
    }

    #[test]
    fn select_star() {
        let r = run("SELECT * FROM events");
        assert_eq!(r.columns, vec!["e_id", "det_id", "energy"]);
        assert_eq!(r.len(), 5);
    }

    #[test]
    fn where_filter_and_projection() {
        let r = run("SELECT e_id FROM events WHERE energy > 20.0");
        assert_eq!(r.len(), 3);
        assert_eq!(r.columns, vec!["e_id"]);
    }

    #[test]
    fn computed_projection_with_alias() {
        let r = run("SELECT e_id, energy * 2 AS double_e FROM events WHERE e_id = 1");
        assert_eq!(r.columns[1], "double_e");
        assert_eq!(r.rows[0].values()[1], Value::Float(10.0));
    }

    #[test]
    fn inner_join_hash_path() {
        let r = run(
            "SELECT e.e_id, d.name FROM events e JOIN detectors d ON e.det_id = d.det_id \
             ORDER BY e.e_id",
        );
        assert_eq!(r.len(), 4); // det 30 has no match
        assert_eq!(r.rows[0].values()[1], Value::Text("ecal".into()));
    }

    #[test]
    fn left_join_pads_nulls() {
        let r = run(
            "SELECT e.e_id, d.name FROM events e LEFT JOIN detectors d ON e.det_id = d.det_id \
             ORDER BY e.e_id",
        );
        assert_eq!(r.len(), 5);
        assert!(r.rows[4].values()[1].is_null());
    }

    #[test]
    fn comma_join_with_where_equality() {
        let r = run(
            "SELECT e.e_id FROM events e, detectors d WHERE e.det_id = d.det_id AND d.name = 'hcal'",
        );
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn join_on_general_condition_uses_nested_loop() {
        let r = run("SELECT e.e_id FROM events e JOIN detectors d ON e.det_id < d.det_id");
        // det_id 10 < 20 (ids 1,2); plus everything < nothing else
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn group_by_with_aggregates() {
        let r = run(
            "SELECT det_id, COUNT(*) AS n, AVG(energy) AS avg_e FROM events \
             GROUP BY det_id ORDER BY det_id",
        );
        assert_eq!(r.len(), 3);
        assert_eq!(
            r.rows[0].values(),
            &[Value::Int(10), Value::Int(2), Value::Float(10.0)]
        );
    }

    #[test]
    fn global_aggregate_without_group_by() {
        let r = run("SELECT COUNT(*), SUM(energy), MIN(energy), MAX(energy) FROM events");
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows[0].values()[0], Value::Int(5));
        assert_eq!(r.rows[0].values()[3], Value::Float(45.0));
    }

    #[test]
    fn global_aggregate_over_empty_input() {
        let r = run("SELECT COUNT(*) FROM events WHERE e_id > 100");
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows[0].values()[0], Value::Int(0));
    }

    #[test]
    fn aggregate_arithmetic() {
        let r = run("SELECT MAX(energy) - MIN(energy) AS span FROM events");
        assert_eq!(r.rows[0].values()[0], Value::Float(40.0));
    }

    #[test]
    fn having_filters_groups() {
        let r = run("SELECT det_id, COUNT(*) AS n FROM events GROUP BY det_id \
             HAVING COUNT(*) > 1 ORDER BY det_id");
        assert_eq!(r.len(), 2); // det 30 has a single event
        let r = run(
            "SELECT det_id, AVG(energy) AS avg_e FROM events GROUP BY det_id \
             HAVING AVG(energy) BETWEEN 5.0 AND 31.0 ORDER BY det_id",
        );
        assert_eq!(r.len(), 2);
        // HAVING mixing a grouping column and an aggregate.
        let r = run("SELECT det_id FROM events GROUP BY det_id \
             HAVING det_id > 10 AND COUNT(*) = 2");
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows[0].values()[0], Value::Int(20));
    }

    #[test]
    fn order_by_desc_and_limit() {
        let r = run("SELECT e_id FROM events ORDER BY energy DESC LIMIT 2");
        assert_eq!(r.len(), 2);
        assert_eq!(r.rows[0].values()[0], Value::Int(5));
        assert_eq!(r.rows[1].values()[0], Value::Int(4));
    }

    #[test]
    fn order_by_output_alias() {
        let r = run("SELECT e_id, energy * -1 AS neg FROM events ORDER BY neg");
        assert_eq!(r.rows[0].values()[0], Value::Int(5));
    }

    #[test]
    fn update_changes_matching_rows() {
        let mut d = db();
        let stmt = match crate::parser::parse(
            "UPDATE events SET energy = energy * 2, detector = 'boosted' WHERE det_id = 10",
        )
        .unwrap()
        {
            crate::ast::Statement::Update(u) => u,
            _ => panic!(),
        };
        // `detector` is not a column of events; expect unknown column
        assert!(matches!(
            execute_update(&stmt, &mut d),
            Err(SqlError::UnknownColumn(_))
        ));
        let stmt =
            match crate::parser::parse("UPDATE events SET energy = energy * 2 WHERE det_id = 10")
                .unwrap()
            {
                crate::ast::Statement::Update(u) => u,
                _ => panic!(),
            };
        let n = execute_update(&stmt, &mut d).unwrap();
        assert_eq!(n, 2);
        let r = execute_select(
            &parse_select("SELECT energy FROM events WHERE e_id = 1").unwrap(),
            &DatabaseProvider(&d),
        )
        .unwrap();
        assert_eq!(r.rows[0].values()[0], Value::Float(10.0));
        // unaffected row unchanged
        let r = execute_select(
            &parse_select("SELECT energy FROM events WHERE e_id = 5").unwrap(),
            &DatabaseProvider(&d),
        )
        .unwrap();
        assert_eq!(r.rows[0].values()[0], Value::Float(45.0));
    }

    #[test]
    fn update_rejecting_duplicate_keys_leaves_table_intact() {
        let mut d = db();
        let stmt = match crate::parser::parse("UPDATE events SET e_id = 1").unwrap() {
            crate::ast::Statement::Update(u) => u,
            _ => panic!(),
        };
        assert!(matches!(
            execute_update(&stmt, &mut d),
            Err(SqlError::Storage(
                gridfed_storage::StorageError::UniqueViolation { .. }
            ))
        ));
        // validation-first: nothing was modified
        let r = execute_select(
            &parse_select("SELECT COUNT(*) FROM events").unwrap(),
            &DatabaseProvider(&d),
        )
        .unwrap();
        assert_eq!(r.rows[0].values()[0], Value::Int(5));
    }

    #[test]
    fn delete_removes_matching_rows() {
        let mut d = db();
        let stmt = match crate::parser::parse("DELETE FROM events WHERE energy > 20.0").unwrap() {
            crate::ast::Statement::Delete(del) => del,
            _ => panic!(),
        };
        assert_eq!(execute_delete(&stmt, &mut d).unwrap(), 3);
        let r = execute_select(
            &parse_select("SELECT COUNT(*) FROM events").unwrap(),
            &DatabaseProvider(&d),
        )
        .unwrap();
        assert_eq!(r.rows[0].values()[0], Value::Int(2));
        // unfiltered delete empties the table
        let all = match crate::parser::parse("DELETE FROM events").unwrap() {
            crate::ast::Statement::Delete(del) => del,
            _ => panic!(),
        };
        assert_eq!(execute_delete(&all, &mut d).unwrap(), 2);
    }

    #[test]
    fn scalar_functions_in_queries() {
        let r = run("SELECT e_id, ROUND(energy) AS e FROM events WHERE e_id = 1");
        assert_eq!(r.rows[0].values()[1], Value::Float(5.0));
        let r = run("SELECT COUNT(*) FROM events WHERE ABS(energy - 25.0) < 0.5");
        assert_eq!(r.rows[0].values()[0], Value::Int(1));
    }

    #[test]
    fn distinct_dedupes_rows() {
        let r = run("SELECT DISTINCT det_id FROM events ORDER BY det_id");
        assert_eq!(r.len(), 3);
        assert_eq!(r.rows[0].values()[0], Value::Int(10));
        // DISTINCT respects multi-column combinations.
        let r = run("SELECT DISTINCT det_id, e_id FROM events");
        assert_eq!(r.len(), 5);
        // LIMIT applies after dedup.
        let r = run("SELECT DISTINCT det_id FROM events ORDER BY det_id LIMIT 2");
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn qualified_wildcard() {
        let r = run("SELECT d.* FROM events e JOIN detectors d ON e.det_id = d.det_id LIMIT 1");
        assert_eq!(r.columns, vec!["det_id", "name"]);
    }

    #[test]
    fn unknown_table_and_column_errors() {
        let stmt = parse_select("SELECT x FROM missing").unwrap();
        assert!(matches!(
            execute_select(&stmt, &DatabaseProvider(&db())),
            Err(SqlError::UnknownTable(_))
        ));
        let stmt = parse_select("SELECT missing_col FROM events").unwrap();
        assert!(matches!(
            execute_select(&stmt, &DatabaseProvider(&db())),
            Err(SqlError::UnknownColumn(_))
        ));
    }

    #[test]
    fn ambiguous_column_in_join() {
        let stmt =
            parse_select("SELECT det_id FROM events e JOIN detectors d ON e.det_id = d.det_id")
                .unwrap();
        assert!(matches!(
            execute_select(&stmt, &DatabaseProvider(&db())),
            Err(SqlError::AmbiguousColumn(_))
        ));
    }

    #[test]
    fn in_and_between_filters() {
        let r = run("SELECT e_id FROM events WHERE e_id IN (1, 3, 99)");
        assert_eq!(r.len(), 2);
        let r = run("SELECT e_id FROM events WHERE energy BETWEEN 10.0 AND 30.0");
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn self_join_with_aliases() {
        let r = run(
            "SELECT a.e_id, b.e_id FROM events a JOIN events b ON a.det_id = b.det_id \
             WHERE a.e_id < b.e_id",
        );
        // pairs within det 10: (1,2); det 20: (3,4)
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn a_named_select_item_is_a_position_never_a_column_expression() {
        let stmt =
            parse_select("SELECT e_id, e.energy AS en, e.*, det_id + 0 AS d, energy FROM events e")
                .unwrap();
        let bindings = Bindings::for_table("e", &["e_id".into(), "det_id".into(), "energy".into()]);
        let plans = expand_items(&stmt.items, &bindings).unwrap();
        let positions: Vec<Option<usize>> = plans
            .iter()
            .map(|(_, plan)| match plan {
                ItemPlan::Position(p) => Some(*p),
                ItemPlan::Expr(CompiledExpr::Column(_)) => {
                    panic!("a bare column reached ItemPlan::Expr")
                }
                ItemPlan::Expr(_) => None,
            })
            .collect();
        let expected = [Some(0), Some(2), Some(0), Some(1), Some(2), None, Some(2)];
        assert_eq!(positions, expected);
        let names: Vec<&str> = plans.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            ["e_id", "en", "e_id", "det_id", "energy", "d", "energy"]
        );
    }

    #[test]
    fn expression_items_and_hidden_keys_fill_around_copied_columns() {
        // Positions are written column-major, expressions and sort keys
        // row-major afterwards: every slot still lands where its item is.
        let r = run(
            "SELECT energy * 2 AS e2, e_id, det_id + 1 AS d1, e_id FROM events \
             WHERE e_id IN (2, 5) ORDER BY energy DESC",
        );
        assert_eq!(r.columns, vec!["e2", "e_id", "d1", "e_id"]);
        assert_eq!(
            r.rows[0].values(),
            &[
                Value::Float(90.0),
                Value::Int(5),
                Value::Int(31),
                Value::Int(5)
            ]
        );
        assert_eq!(
            r.rows[1].values(),
            &[
                Value::Float(30.0),
                Value::Int(2),
                Value::Int(11),
                Value::Int(2)
            ]
        );
    }

    #[test]
    fn metrics_count_batches_and_selectivity() {
        let d = db();
        let stmt = parse_select("SELECT e_id FROM events WHERE energy > 20.0").unwrap();
        let plan = optimize(build_plan(&stmt), &ProviderCatalog(&DatabaseProvider(&d)));
        let (rs, m) = execute_plan_metered(&plan, &DatabaseProvider(&d)).unwrap();
        assert_eq!(rs.len(), 3);
        assert_eq!(m.rows_scanned, 5);
        assert_eq!(m.rows_selected, 3);
        assert_eq!(m.rows_materialized, 3);
        assert!(m.batches >= 2, "scan + filter batches, got {}", m.batches);
        assert!((m.selectivity() - 0.6).abs() < 1e-9);
    }

    /// ORDER BY … LIMIT k over named columns shapes the selection: the scan
    /// and the filter do the same work with and without the LIMIT, and only
    /// the k rows returned are ever built.
    #[test]
    fn order_by_limit_builds_only_the_rows_it_returns() {
        let d = par_db();
        let provider = DatabaseProvider(&d);
        let metered = |sql: &str| {
            let plan = optimize(
                build_plan(&parse_select(sql).unwrap()),
                &ProviderCatalog(&provider),
            );
            execute_plan_metered(&plan, &provider).unwrap()
        };
        let sql = "SELECT e_id, energy FROM events WHERE det_id <> 2 ORDER BY energy DESC, e_id";
        let (all, all_m) = metered(sql);
        assert_eq!(all_m.rows_materialized, all.len() as u64);
        for k in [0usize, 1, 7, 100, 1000] {
            let (top, top_m) = metered(&format!("{sql} LIMIT {k}"));
            let kept = k.min(all.len());
            assert_eq!(top.rows, all.rows[..kept], "LIMIT {k}");
            assert_eq!(top_m.rows_materialized, kept as u64, "LIMIT {k}");
            assert_eq!(top_m.batches, all_m.batches, "LIMIT {k}");
            assert_eq!(top_m.rows_scanned, all_m.rows_scanned, "LIMIT {k}");
            assert_eq!(top_m.rows_selected, all_m.rows_selected, "LIMIT {k}");
        }
        // A select list with an expression still builds every row: the
        // expression could fail on a row the LIMIT drops.
        let (_, expr_m) =
            metered("SELECT e_id, energy * 2.0 AS e2 FROM events ORDER BY e2 LIMIT 3");
        assert_eq!(expr_m.rows_materialized, 200);
    }

    /// The typed routes of [`assign_groups`] (dictionary codes, canonical
    /// numeric bits) number groups exactly as the hashed route does over
    /// the same keys held as plain values; `0.0`/`-0.0`, NaNs and NULLs
    /// each pool in one group.
    #[test]
    fn typed_grouping_routes_agree_with_the_hashed_route() {
        use gridfed_storage::DataType;
        let columns: [(DataType, Vec<Value>); 3] = [
            (
                DataType::Int,
                [3, 3, 1, 3, 1, 7, 7, 7, 3]
                    .iter()
                    .map(|&i| if i == 1 { Value::Null } else { Value::Int(i) })
                    .collect(),
            ),
            (
                DataType::Float,
                [0.0, -0.0, f64::NAN, 2.5, -f64::NAN, 0.0, 2.5]
                    .iter()
                    .map(|&x| Value::Float(x))
                    .chain([Value::Null, Value::Null])
                    .collect(),
            ),
            (
                DataType::Text,
                [
                    "ecal", "hcal", "ecal", "", "muon", "hcal", "", "ecal", "muon",
                ]
                .iter()
                .map(|&t| if t.is_empty() { Value::Null } else { t.into() })
                .collect(),
            ),
        ];
        let sel: Vec<u32> = vec![8, 0, 1, 2, 3, 4, 5, 6, 7, 2];
        for (data_type, values) in &columns {
            let mut chunk = ColumnChunk::for_type(*data_type);
            values.iter().for_each(|v| chunk.push(v));
            let typed = ColData::Owned(chunk);
            let plain = ColData::Values(values.clone());
            let expect = assign_groups(&[&plain], &sel);
            assert_eq!(assign_groups(&[&typed], &sel), expect, "{data_type:?}");
            // A selection that starts late and misses most keys.
            let few = [4, 0];
            assert_eq!(
                assign_groups(&[&typed], &few),
                assign_groups(&[&plain], &few)
            );
            // A second key that never splits a group leaves the numbering
            // alone, through the hashed route over the typed chunk.
            let constant = ColData::Values(vec![Value::Bool(true); values.len()]);
            assert_eq!(assign_groups(&[&typed, &constant], &sel), expect);
            let ids = &expect.0;
            assert_eq!(ids[0], 0, "groups are numbered by first occurrence");
            assert_eq!(ids[3], ids[9], "position 2 twice is one group");
        }
        let floats = ColData::Values(columns[1].1.clone());
        let (ids, openers) = assign_groups(&[&floats], &[0, 1, 2, 4, 7, 8]);
        assert_eq!(ids, [0, 0, 1, 1, 2, 2]);
        assert_eq!(openers, [0, 2, 7]);
        // No key: one group when there is a row, none otherwise.
        assert_eq!(assign_groups(&[], &[5, 6]), (vec![0, 0], vec![5]));
        assert_eq!(assign_groups(&[], &[]), (vec![], vec![]));
    }

    /// A config that forces many tiny morsels, so even unit-test-sized
    /// tables exercise the worker pool and morsel-order merges.
    fn par_cfg() -> crate::par::ExecConfig {
        let mut cfg = crate::par::ExecConfig::with_workers(4);
        cfg.morsel_rows = 7;
        cfg
    }

    /// A few hundred rows, with a dimension table — big enough that every
    /// parallel operator splits into multiple morsels under [`par_cfg`].
    fn par_db() -> Database {
        let mut db = Database::new("par_mart");
        let events = Schema::new(vec![
            ColumnDef::new("e_id", DataType::Int).primary_key(),
            ColumnDef::new("det_id", DataType::Int),
            ColumnDef::new("tag_id", DataType::Int),
            ColumnDef::new("energy", DataType::Float),
        ])
        .unwrap();
        let t = db.create_table("events", events).unwrap();
        for i in 0..200i64 {
            t.insert(vec![
                Value::Int(i),
                Value::Int(i % 6),
                Value::Int(i % 11),
                Value::Float((i % 37) as f64 * 1.5),
            ])
            .unwrap();
        }
        let dets = Schema::new(vec![
            ColumnDef::new("det_id", DataType::Int).primary_key(),
            ColumnDef::new("name", DataType::Text),
        ])
        .unwrap();
        let t = db.create_table("detectors", dets).unwrap();
        for (id, name) in [(0, "ecal"), (1, "hcal"), (2, "muon"), (4, "trk")] {
            t.insert(vec![Value::Int(id), name.into()]).unwrap();
        }
        db
    }

    #[test]
    fn parallel_execution_matches_sequential_on_every_shape() {
        let d = par_db();
        let provider = DatabaseProvider(&d);
        for sql in [
            "SELECT e_id, energy FROM events",
            "SELECT e_id FROM events WHERE energy > 10.0 AND det_id <> 2 AND tag_id IN (1, 3, 5)",
            "SELECT e.e_id, d.name FROM events e JOIN detectors d ON e.det_id = d.det_id \
             WHERE e.energy > 5.0 ORDER BY e.e_id",
            "SELECT e.e_id, d.name FROM events e LEFT JOIN detectors d ON e.det_id = d.det_id \
             ORDER BY e.e_id LIMIT 50",
            "SELECT det_id, COUNT(*) AS n, AVG(energy) AS avg_e, MAX(energy) AS max_e \
             FROM events GROUP BY det_id HAVING COUNT(*) > 10 ORDER BY det_id",
            "SELECT COUNT(*), SUM(energy), MIN(energy) FROM events WHERE tag_id < 9",
            "SELECT DISTINCT det_id FROM events ORDER BY det_id",
            "SELECT e_id, energy * 2.0 + det_id AS score FROM events ORDER BY score DESC LIMIT 20",
        ] {
            let stmt = parse_select(sql).unwrap();
            let plan = optimize(build_plan(&stmt), &ProviderCatalog(&provider));
            let (seq, seq_m) = execute_plan_metered(&plan, &provider).unwrap();
            let (par, par_m) =
                crate::par::with_exec_config(par_cfg(), || execute_plan_metered(&plan, &provider))
                    .unwrap();
            assert_eq!(seq.columns, par.columns, "{sql}");
            assert_eq!(seq.rows, par.rows, "{sql}");
            assert_eq!(seq_m.rows_scanned, par_m.rows_scanned, "{sql}");
            assert_eq!(seq_m.rows_selected, par_m.rows_selected, "{sql}");
            assert_eq!(seq_m.rows_materialized, par_m.rows_materialized, "{sql}");
            assert_eq!(seq_m.workers, 0, "{sql}");
            assert!(par_m.workers > 1, "{sql}: workers {}", par_m.workers);
            assert!(par_m.morsels > 1, "{sql}: morsels {}", par_m.morsels);
        }
    }

    #[test]
    fn parallel_error_is_the_row_major_first_error() {
        // `energy LIKE 'x%'` errors on every row with the row's value in
        // the message, so sequential and parallel runs must report the
        // *identical* error — the one for the first selected row — even
        // though every morsel produced its own candidates.
        let d = par_db();
        let provider = DatabaseProvider(&d);
        for sql in [
            "SELECT e_id FROM events WHERE energy LIKE 'x%'",
            "SELECT e_id FROM events WHERE e_id > 150 AND energy LIKE 'x%'",
            "SELECT energy LIKE 'x%' FROM events",
            "SELECT det_id, COUNT(*) FROM events GROUP BY det_id HAVING MAX(energy) LIKE 'x%'",
        ] {
            let stmt = parse_select(sql).unwrap();
            let plan = optimize(build_plan(&stmt), &ProviderCatalog(&provider));
            let seq = execute_plan(&plan, &provider).unwrap_err();
            let par = crate::par::with_exec_config(par_cfg(), || execute_plan(&plan, &provider))
                .unwrap_err();
            assert_eq!(seq.to_string(), par.to_string(), "{sql}");
        }
    }

    #[test]
    fn batch_window_is_configurable_per_query() {
        let d = db();
        let stmt = parse_select("SELECT e_id FROM events WHERE energy > 20.0").unwrap();
        let plan = optimize(build_plan(&stmt), &ProviderCatalog(&DatabaseProvider(&d)));
        let (_, wide) = execute_plan_metered(&plan, &DatabaseProvider(&d)).unwrap();
        let cfg = crate::par::ExecConfig {
            batch_rows: 2,
            ..Default::default()
        };
        let (_, narrow) = crate::par::with_exec_config(cfg, || {
            execute_plan_metered(&plan, &DatabaseProvider(&d))
        })
        .unwrap();
        assert!(
            narrow.batches > wide.batches,
            "2-row windows must count more batches: {} vs {}",
            narrow.batches,
            wide.batches
        );
    }

    #[test]
    fn scan_survives_tombstones() {
        let mut d = db();
        d.table_mut("events")
            .unwrap()
            .delete_where(|r| r.values()[0] == Value::Int(3));
        let r = execute_select(
            &parse_select("SELECT e_id FROM events WHERE energy > 20.0 ORDER BY e_id").unwrap(),
            &DatabaseProvider(&d),
        )
        .unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.rows[0].values()[0], Value::Int(4));
    }
}

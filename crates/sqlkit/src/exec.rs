//! Single-context SELECT execution — vectorized.
//!
//! `SELECT` execution is plan-driven: the statement is lowered to a
//! [`LogicalPlan`], optimized against the provider's schemas and statistics,
//! lowered once more to a [`Lowered`] plan against the columns of the
//! provider's tables, and that plan is run node by node against a
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
//! ([`order_selection`]) and builds the rows that survive. This is the
//! crate's one executor. The differential suites check it against the
//! row-at-a-time reference interpreter in `gridfed-reference`, a dev-only
//! crate that shares none of its code; the two must agree on values *and*
//! errors.
//!
//! Every per-row expression site — scan filters, Filter predicates, Project
//! items, join ON conditions, aggregate inputs, HAVING, and sort keys — is
//! compiled through [`crate::compile`] when the plan is lowered, so a run
//! does no name resolution and no string comparison, and a plan kept
//! lowered (a vendor server's prepared statement, the mediator's residual)
//! compiles nothing at all. The time a run spends lowering is accumulated
//! in [`ExecMetrics`], alongside batch and row counters for the monitoring
//! surface.
//!
//! When the installed [`crate::par::ExecConfig`] asks for more than one
//! worker, the big per-row loops go **morsel-parallel**: scan/filter
//! refinement, hash-join build/probe, key evaluation, group assignment and
//! per-group computation, and output materialization each split the
//! selection vector into morsels executed on a scoped worker pool, merging
//! results in morsel order and reducing deferred per-row errors by global
//! minimum position — so parallel execution is value- and
//! error-order-identical to the sequential pass (see `crate::par`).

use crate::ast::{
    BinaryOp, DeleteStmt, Expr, JoinKind, OrderItem, SelectItem, SelectStmt, UpdateStmt,
};
use crate::batch::{
    apply_filter, compile_kernel, n_batches, take_first_error, ColData, ColRelation, ValRef,
};
use crate::compile::{
    canonical_f64_bits, compile, compile_group, CompiledAggregate, CompiledExpr, GroupExpr,
    KeyValue,
};
use crate::error::SqlError;
use crate::expr::{AggState, Bindings, PassColumn, PassNeeds};
use crate::keys::{group_runs, key_runs, non_null, note_fallbacks, Chains, Groups, KeyIndex};
use crate::optimize::{optimize, PlanCatalog};
use crate::par::{self, ExecConfig};
use crate::plan::{build_plan, LogicalPlan};
use crate::render::render_expr_neutral;
use crate::result::{stage_chunk, Cells, ColumnSet, ResultSet};
use crate::Result;
use gridfed_storage::{
    Bitmap, ColumnChunk, DataType, Database, KeySelection, Row, Schema, StrDict, Table, Value,
};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::ops::Bound;
use std::time::{Duration, Instant};

/// Wall-clock and batch accounting for one plan execution.
#[derive(Debug, Default, Clone, Copy)]
pub struct ExecMetrics {
    /// Time spent lowering the plan ([`Lowered`]) for this run: zero when a
    /// kept lowering ran.
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
    /// Parallel work items (morsels, gather columns, aggregate groups)
    /// dispatched to the worker pool. Zero when every operator ran sequentially.
    pub morsels: u64,
    /// Widest worker pool any parallel operator in this plan actually used.
    /// Zero when execution was entirely sequential.
    pub workers: u64,
    /// [`ResultSet::wire_size`] of the answer, summed per column where its
    /// rows were built.
    pub answer_size: usize,
    /// Join and GROUP BY nodes whose keys spanned too wide for an array, so
    /// that a [`KeyIndex`] fell back to its hashed arm.
    pub hashed_indexes: u64,
    /// GROUP BY nodes whose key came back after another key, so that every
    /// entry keeps its group's id ([`Groups`]).
    pub groups_came_back: u64,
    /// Rows the last materialization built, and their values' wire size.
    built: Option<(usize, usize)>,
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

/// Lower a logical plan against a provider ([`Lowered`]) and run it.
///
/// Plans produced by [`build_plan`] carry ORDER BY keys as hidden trailing
/// columns: `Project`/`Aggregate` emit them, `Sort` orders on them
/// positionally, and `Strip` drops them before `Distinct`/`Limit` see the
/// rows — except that a `Project` of positions under a fused `Strip { Sort }`
/// is ordered before its rows exist and never emits them
/// ([`project_node`]). An *unoptimized* plan runs here too; the
/// crate has no separate direct-AST interpreter.
pub fn execute_plan(plan: &LogicalPlan, provider: &DatabaseProvider<'_>) -> Result<ResultSet> {
    execute_plan_metered(plan, provider).map(|(rs, _)| rs)
}

/// [`execute_plan`], also returning the compile-time and batch accounting.
pub fn execute_plan_metered(
    plan: &LogicalPlan,
    provider: &DatabaseProvider<'_>,
) -> Result<(ResultSet, ExecMetrics)> {
    run_plan(plan, None, provider)
}

/// [`execute_plan_metered`] for a plan kept beside its lowering: `kept`
/// runs while its scans' tables have the column names it was lowered
/// against, and `plan` is lowered afresh for a run where they have not.
pub fn execute_lowered(
    plan: &LogicalPlan,
    kept: &Lowered,
    provider: &DatabaseProvider<'_>,
) -> Result<(ResultSet, ExecMetrics)> {
    run_plan(plan, Some(kept), provider)
}

fn run_plan(
    plan: &LogicalPlan,
    kept: Option<&Lowered>,
    provider: &DatabaseProvider<'_>,
) -> Result<(ResultSet, ExecMetrics)> {
    let mut m = ExecMetrics::default();
    let rs = execute_node(plan, 0, &Run::of(plan, kept, provider, &mut m), &mut m)?;
    // The root's built rows, unless a node above them dropped some: sorting
    // moves rows and stripping drops hidden keys, which were never sized.
    m.answer_size = match m.built {
        Some((rows, values)) if rows == rs.rows.len() => ResultSet::framed(&rs.columns, values),
        _ => rs.wire_size(),
    };
    Ok((rs, m))
}

/// [`execute_lowered`] for a sub-query whose answer the mediator stages.
/// A `Project` that only names columns — every sub-query the decomposer
/// ships — gathers each from its chunk over the selection ([`stage_chunk`])
/// and builds no row; any other root answers its rows, built as
/// [`execute_plan`] builds them.
pub fn execute_lowered_columns(
    plan: &LogicalPlan,
    kept: &Lowered,
    provider: &DatabaseProvider<'_>,
) -> Result<ColumnSet> {
    let m = &mut ExecMetrics::default();
    let run = &Run::of(plan, Some(kept), provider, m);
    if let (LogicalPlan::Project { input, keys, .. }, Site::Project(items)) = (plan, run.site(0)) {
        if keys.is_empty() {
            let rel = eval_relational(input, 1, run, m)?;
            let items = raise(items)?;
            // Chunks carry the row count, so a list of no column answers
            // rows.
            let plans = &items.plans;
            let cells = if !plans.is_empty() && plans.iter().all(|p| p.chunk(&rel).is_some()) {
                let staged = plans
                    .iter()
                    .filter_map(|p| p.chunk(&rel))
                    .map(|c| stage_chunk(c, &rel.sel));
                Cells::Chunks(staged.collect())
            } else {
                Cells::Rows(materialize(&rel, &rel.sel, plans, &[], m)?)
            };
            let columns = items.names.clone();
            return Ok(ColumnSet { columns, cells });
        }
    }
    let rs = execute_node(plan, 0, run, m)?;
    Ok(ColumnSet {
        columns: rs.columns,
        cells: Cells::Rows(rs.rows),
    })
}

/// What a plan runs against: the provider's tables, and the plan's
/// lowering.
struct Run<'a, 'p> {
    provider: &'a DatabaseProvider<'p>,
    lowered: Cow<'a, Lowered>,
}

impl<'a, 'p> Run<'a, 'p> {
    /// `kept` when it fits `provider`'s tables, otherwise `plan` lowered
    /// against them now, the time it took charged to `m`. The one check of a
    /// kept lowering, wherever tests run: it is the lowering `plan` gets now.
    fn of(
        plan: &LogicalPlan,
        kept: Option<&'a Lowered>,
        provider: &'a DatabaseProvider<'p>,
        m: &mut ExecMetrics,
    ) -> Run<'a, 'p> {
        let lowered = match kept.filter(|k| k.fits(provider)) {
            Some(kept) => {
                debug_assert_eq!(*kept, Lowered::of(plan, provider), "stale lowering");
                Cow::Borrowed(kept)
            }
            None => {
                let t0 = Instant::now();
                let fresh = Lowered::of(plan, provider);
                m.compile += t0.elapsed();
                Cow::Owned(fresh)
            }
        };
        Run { provider, lowered }
    }

    /// What node `at` (in pre-order) was lowered to.
    fn site(&self, at: usize) -> &Site {
        self.lowered.sites.get(at).unwrap_or(&Site::Shaping)
    }
}

/// What lowering produced for one compile site, or the error compiling it
/// raised — kept, and raised where the run reaches the site ([`raise`]), so
/// a lowered plan fails where and as interpreting the plan did: after the
/// rows below the site have raised theirs.
type Lowering<T> = std::result::Result<T, SqlError>;

/// The value of a compile site, or its error.
fn raise<T>(site: &Lowering<T>) -> Result<&T> {
    site.as_ref().map_err(SqlError::clone)
}

/// The error of a plan node run with a lowering that is not its plan's.
fn not_lowered(node: &LogicalPlan) -> SqlError {
    SqlError::Unsupported(format!("{} node not lowered", node.kind_name()))
}

/// A [`LogicalPlan`] lowered against the column names of its scans'
/// tables: per node, in pre-order, everything a run of it would compile —
/// scan filters, `Filter` predicates, join keys and conditions, select
/// items with their output names, group keys, aggregates, HAVING and sort
/// keys — so a run compiles nothing. Kept beside a plan that runs many
/// times (a vendor server's prepared statement, the mediator's residual
/// plan), it is used while those tables have those column names
/// ([`Lowered::fits`]); a plan run once is lowered and run on the same path
/// ([`execute_plan`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Lowered {
    /// Per plan node, in pre-order.
    sites: Vec<Site>,
    /// Per scan, in plan order, its table: the column names it was lowered
    /// against are its site's bindings (none: there was no such table).
    tables: Vec<String>,
}

/// What one plan node runs with.
#[derive(Debug, Clone, PartialEq)]
enum Site {
    /// Nothing compiled: a sort, strip, distinct or limit.
    Shaping,
    /// Every column of the table under the scan's binding (none when there
    /// is no such table), its filters, and the positions a narrowing scan
    /// keeps with their bindings.
    Scan(Bindings, Lowering<Vec<CompiledExpr>>, Lowering<Narrowed>),
    Filter(Lowering<CompiledExpr>),
    /// The output layout (the left's bindings, then the right's), how it
    /// pairs rows, and the index of its right input.
    Join(Bindings, Lowering<JoinOn>, usize),
    Project(Lowering<Items>),
    Aggregate(Lowering<AggregatePlan>),
}

/// The positions and bindings a scan narrows to, if it does.
type Narrowed = Option<(Vec<usize>, Bindings)>;

/// How a join pairs rows.
#[derive(Debug, Clone, PartialEq)]
enum JoinOn {
    /// [`hash_join`] on these left and right positions.
    Keys(usize, usize),
    /// A nested loop over this condition, or every pair.
    Loop(Option<CompiledExpr>),
}

/// A select list lowered: output names, how to produce each value, and
/// the hidden sort keys that follow them.
#[derive(Debug, Clone, PartialEq)]
struct Items {
    names: Vec<String>,
    plans: Vec<ItemPlan>,
    keys: Vec<SortKeyPlan>,
}

#[derive(Debug, Clone, PartialEq)]
struct AggregatePlan {
    names: Vec<String>,
    group_keys: Vec<CompiledExpr>,
    aggs: Vec<CompiledAggregate>,
    items: Vec<GroupExpr>,
    having: Option<GroupExpr>,
    /// `None` when a sort key failed to compile: every group's keys are
    /// NULL, as for a key whose evaluation fails.
    sort: Option<Vec<SortKeyPlan>>,
}

impl Lowered {
    /// Lower `plan` against the column names `columns` gives for each table
    /// (`None`: no such table).
    pub fn new(plan: &LogicalPlan, columns: impl Fn(&str) -> Option<Vec<String>>) -> Lowered {
        let mut lowered = Lowered {
            sites: Vec::new(),
            tables: Vec::new(),
        };
        let _ = lowered.lower(plan, &columns);
        lowered
    }

    /// Lower `plan` against the tables of `provider`.
    pub fn of(plan: &LogicalPlan, provider: &DatabaseProvider<'_>) -> Lowered {
        Lowered::new(plan, |t| Some(provider.table(t).ok()?.schema().names()))
    }

    /// Whether every scanned table of `provider` has the column names this
    /// was lowered against (and every table that was missing still is).
    pub fn fits(&self, provider: &DatabaseProvider<'_>) -> bool {
        let scans = self.sites.iter().filter_map(|site| match site {
            Site::Scan(full, ..) => Some(full),
            _ => None,
        });
        self.tables
            .iter()
            .zip(scans)
            .all(|(table, full)| match provider.table(table) {
                Ok(t) => table_names(t).eq(full.names()),
                Err(_) => full.arity() == 0,
            })
    }

    /// Its compiled scan filters and `Filter` predicates, in pre-order:
    /// their literals (a [`CompiledExpr::Literal`], a comparison's
    /// `literal`) are the slots a statement's literals can bind into.
    pub fn filters_mut(&mut self) -> impl Iterator<Item = &mut CompiledExpr> {
        self.sites.iter_mut().flat_map(|site| match site {
            Site::Scan(_, Ok(filters), _) => filters.iter_mut().collect(),
            Site::Filter(Ok(predicate)) => vec![predicate],
            _ => Vec::new(),
        })
    }

    /// Lower the subtree `plan`, appending its sites in pre-order; the
    /// layout of its rows when it is a relation.
    fn lower(
        &mut self,
        plan: &LogicalPlan,
        columns: &dyn Fn(&str) -> Option<Vec<String>>,
    ) -> Lowering<Bindings> {
        let at = self.sites.len();
        self.sites.push(Site::Shaping);
        // Never read where a node is not a relation: running it as one
        // fails before any site above it is reached.
        let no_layout = || Err(SqlError::Unsupported(String::new()));
        let (site, out) = match plan {
            LogicalPlan::Scan {
                table,
                binding,
                projection,
                filters,
            } => {
                let names = columns(table);
                let full = Bindings::for_table(binding, names.as_deref().unwrap_or_default());
                let missing = || SqlError::UnknownTable(table.clone());
                let (filters, projected) = match &names {
                    Some(_) => (
                        filters.iter().map(|f| compile(f, &full)).collect(),
                        projection.as_deref().map(|w| narrow(&full, w)).transpose(),
                    ),
                    None => (Err(missing()), Err(missing())),
                };
                let out = raise(&projected).map(|p| p.as_ref().map_or(&full, |(_, b)| b).clone());
                self.tables.push(table.clone());
                (Site::Scan(full, filters, projected), out)
            }
            LogicalPlan::Filter { input, predicate } => {
                let input = self.lower(input, columns);
                let compiled = input.as_ref().map_err(SqlError::clone);
                (
                    Site::Filter(compiled.and_then(|b| compile(predicate, b))),
                    input,
                )
            }
            LogicalPlan::Join {
                left,
                right,
                kind,
                on,
            } => {
                let left = self.lower(left, columns);
                let right_at = self.sites.len();
                let right = self.lower(right, columns);
                let joined = left.and_then(|l| {
                    let r = right?;
                    let bindings = l.concat(&r);
                    let keys = on
                        .as_ref()
                        .filter(|_| *kind != JoinKind::Cross)
                        .and_then(|on| equi_join_keys(on, &l, &r));
                    let how = match keys {
                        Some((lk, rk)) => Ok(JoinOn::Keys(lk, rk)),
                        // The ON condition compiles against the
                        // concatenated layout.
                        None => on
                            .as_ref()
                            .map(|cond| compile(cond, &bindings))
                            .transpose()
                            .map(JoinOn::Loop),
                    };
                    Ok((bindings, how))
                });
                let (bindings, on) = joined.unwrap_or_else(|e| (Bindings::default(), Err(e)));
                let out = raise(&on).map(|_| bindings.clone());
                (Site::Join(bindings, on, right_at), out)
            }
            LogicalPlan::Project { input, items, keys } => {
                let items = self.lower(input, columns).and_then(|b| {
                    let (names, plans) = expand_items(items, &b)?;
                    let out_cols: Vec<&str> = names.iter().map(String::as_str).collect();
                    let keys = compile_order_keys(keys, &b, &out_cols)?;
                    Ok(Items { names, plans, keys })
                });
                (Site::Project(items), no_layout())
            }
            LogicalPlan::Aggregate {
                input,
                items,
                group_by,
                having,
                keys,
            } => {
                let input = self.lower(input, columns);
                let having = having.as_ref();
                let lowered =
                    input.and_then(|b| lower_aggregate(&b, items, group_by, having, keys));
                (Site::Aggregate(lowered), no_layout())
            }
            shaping => {
                for child in shaping.children() {
                    let _ = self.lower(child, columns);
                }
                (Site::Shaping, no_layout())
            }
        };
        self.sites[at] = site;
        out
    }
}

/// The positions of `wanted` in `full` (each the first column of that name,
/// case-insensitively), and their bindings.
fn narrow(full: &Bindings, wanted: &[String]) -> Result<(Vec<usize>, Bindings)> {
    let positions = wanted
        .iter()
        .map(|c| {
            full.names()
                .position(|n| n.eq_ignore_ascii_case(c))
                .ok_or_else(|| SqlError::UnknownColumn(c.clone()))
        })
        .collect::<Result<Vec<usize>>>()?;
    let bindings = full.select(&positions);
    Ok((positions, bindings))
}

/// A stored table's column names.
fn table_names(stored: &Table) -> impl Iterator<Item = &str> {
    stored.schema().columns().iter().map(|c| c.name.as_str())
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

/// Node dispatcher: `plan` is node `at` of the plan `run` lowered, in
/// pre-order. Result-shaping nodes are profiled here; relational nodes
/// (Scan/Filter/Join) are recorded by [`eval_relational`] instead, so every
/// node is profiled exactly once.
fn execute_node(
    plan: &LogicalPlan,
    at: usize,
    run: &Run<'_, '_>,
    m: &mut ExecMetrics,
) -> Result<ResultSet> {
    if matches!(
        plan,
        LogicalPlan::Scan { .. } | LogicalPlan::Filter { .. } | LogicalPlan::Join { .. }
    ) {
        return execute_node_inner(plan, at, run, m);
    }
    profiled(
        plan,
        m,
        |rs: &ResultSet| rs.rows.len(),
        |m| execute_node_inner(plan, at, run, m),
    )
}

fn execute_node_inner(
    plan: &LogicalPlan,
    at: usize,
    run: &Run<'_, '_>,
    m: &mut ExecMetrics,
) -> Result<ResultSet> {
    match plan {
        LogicalPlan::Project { .. } => project_node(plan, at, &[], None, run, m).map(|(rs, _)| rs),
        LogicalPlan::Aggregate {
            input,
            group_by,
            keys,
            ..
        } => {
            let Site::Aggregate(lowered) = run.site(at) else {
                return Err(not_lowered(plan));
            };
            let rel = eval_relational(input, at + 1, run, m)?;
            aggregate_node(&rel, raise(lowered)?, group_by.is_empty(), keys.len(), m)
        }
        LogicalPlan::Sort { input, ascending } => {
            let mut rs = execute_node(input, at + 1, run, m)?;
            rs.rows
                .sort_by(|a, b| cmp_trailing_keys(a.values(), b.values(), ascending));
            Ok(rs)
        }
        LogicalPlan::Strip { input, drop } => {
            if let Some((sort_input, ascending)) = fused_sort(plan) {
                return execute_sorted(sort_input, at + 2, ascending, None, run, m);
            }
            let mut rs = execute_node(input, at + 1, run, m)?;
            for r in &mut rs.rows {
                r.truncate(r.arity() - drop);
            }
            Ok(rs)
        }
        LogicalPlan::Distinct { input } => {
            let mut rs = execute_node(input, at + 1, run, m)?;
            rs.rows = distinct_rows(std::mem::take(&mut rs.rows));
            Ok(rs)
        }
        LogicalPlan::Limit { input, limit } => {
            // `Limit { Strip { Sort } }` becomes a top-k selection instead of
            // sorting all n rows; `Limit { Project }` builds only its rows.
            let limit = *limit as usize;
            if let Some((sort_input, ascending)) = fused_sort(input) {
                if crate::analyze::profiling() {
                    crate::analyze::record_fused(input);
                }
                return execute_sorted(sort_input, at + 3, ascending, Some(limit), run, m);
            }
            if let LogicalPlan::Project { .. } = input.as_ref() {
                return execute_sorted(input, at + 1, &[], Some(limit), run, m);
            }
            let mut rs = execute_node(input, at + 1, run, m)?;
            rs.rows.truncate(limit);
            Ok(rs)
        }
        relational => {
            // A bare Scan/Filter/Join tree (e.g. a federated residual whose
            // projection already happened remotely): every column, by
            // position, for every selected row.
            let rel = eval_relational(relational, at, run, m)?;
            let plans: Vec<ItemPlan> = (0..rel.bindings.arity()).map(ItemPlan::Position).collect();
            let rows = materialize(&rel, &rel.sel, &plans, &[], m)?;
            let columns = rel.bindings.names().map(str::to_string).collect();
            Ok(ResultSet { columns, rows })
        }
    }
}

/// The input and keys of a `Strip { Sort }` whose stripped suffix is exactly
/// the sort keys (the shape `build_plan` always emits), which
/// [`execute_sorted`] runs fused; `EXPLAIN ANALYZE` marks the `Sort` so.
fn fused_sort(strip: &LogicalPlan) -> Option<(&LogicalPlan, &[bool])> {
    let LogicalPlan::Strip { input: sort, drop } = strip else {
        return None;
    };
    match sort.as_ref() {
        LogicalPlan::Sort { input, ascending } if *drop == ascending.len() && *drop > 0 => {
            if crate::analyze::profiling() {
                crate::analyze::record_fused(sort);
            }
            Some((input, ascending))
        }
        _ => None,
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

/// A fused `Strip { Sort { input } }`, optionally under a `Limit` — or,
/// with no `ascending` keys, a bare `Limit { Project }` — where `input` is
/// node `at`. A `Project` is handed the order and the limit, so it can
/// shape its selection before it builds a row ([`project_node`]); rows that
/// arrive unshaped — an `Aggregate`'s, or a `Project`'s whose select list
/// has an expression — are sorted, stripped and limited here.
fn execute_sorted(
    input: &LogicalPlan,
    at: usize,
    ascending: &[bool],
    limit: Option<usize>,
    run: &Run<'_, '_>,
    m: &mut ExecMetrics,
) -> Result<ResultSet> {
    let (mut rs, shaped) = match input {
        LogicalPlan::Project { .. } => profiled(
            input,
            m,
            |(rs, _): &(ResultSet, bool)| rs.rows.len(),
            |m| project_node(input, at, ascending, limit, run, m),
        )?,
        other => (execute_node(other, at, run, m)?, false),
    };
    Ok(match (shaped, limit) {
        (true, _) => rs,
        (false, Some(n)) if ascending.is_empty() => {
            rs.rows.truncate(n);
            rs
        }
        (false, _) => sort_strip_fused(rs, ascending, limit),
    })
}

/// Execute the `Project` node `plan`, node `at`, under the `ascending` keys
/// of a fused `Strip { Sort }` and the `limit` above it, if any. Returns the
/// rows and whether they are already in that order, limited, without hidden
/// keys.
///
/// They are when every select item is a position: nothing in such a row can
/// fail to build, so the order is settled on the selection
/// ([`order_selection`]), a bare LIMIT takes the selection's first rows, and
/// only the rows returned are built. A select list with an expression builds
/// every row with its hidden keys, as without an order or a limit — an
/// expression that errors on a row the LIMIT would drop must still surface
/// — and leaves the sorting and the limit to the caller.
fn project_node(
    plan: &LogicalPlan,
    at: usize,
    ascending: &[bool],
    limit: Option<usize>,
    run: &Run<'_, '_>,
    m: &mut ExecMetrics,
) -> Result<(ResultSet, bool)> {
    let (LogicalPlan::Project { input, .. }, Site::Project(items)) = (plan, run.site(at)) else {
        return Err(not_lowered(plan));
    };
    let rel = eval_relational(input, at + 1, run, m)?;
    let Items { names, plans, keys } = raise(items)?;
    let positional = plans
        .iter()
        .all(|plan| matches!(plan, ItemPlan::Position(_)));
    let (rows, shaped) = match (positional, limit) {
        (true, _) if !ascending.is_empty() => {
            debug_assert_eq!(ascending.len(), keys.len());
            let sel = order_selection(&rel, plans, keys, ascending, limit, m)?;
            (materialize(&rel, &sel, plans, &[], m)?, true)
        }
        (true, Some(n)) if keys.is_empty() => {
            let sel = &rel.sel[..n.min(rel.sel.len())];
            (materialize(&rel, sel, plans, &[], m)?, true)
        }
        _ => (materialize(&rel, &rel.sel, plans, keys, m)?, false),
    };
    let columns = names.clone();
    Ok((ResultSet { columns, rows }, shaped))
}

/// A sort key as a column. The two classes most keys have, over a chunk that
/// holds no NULL, compare as plain slices — and their [`sort_prefix`] is
/// exact; the rest go through [`ValRef`].
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
/// input column) is read in its chunk; a computed key is evaluated once per
/// selected row into a value column ([`eval_key_columns`]: row-major, so a
/// key that errors raises what building every row would have raised).
/// [`top_k_sorted`] orders `(`[`sort_prefix`]`, selection index)` pairs as
/// they stream, the prefix its bar: one integer compare, unless the
/// prefixes tie — then each key's `index_cmp` (from the second when the
/// first's prefix is exact), then the index.
fn order_selection(
    rel: &ColRelation<'_>,
    plans: &[ItemPlan],
    key_plans: &[SortKeyPlan],
    ascending: &[bool],
    limit: Option<usize>,
    m: &mut ExecMetrics,
) -> Result<Vec<u32>> {
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
    let mut next_computed = computed.iter().map(|col| (col, true));
    let cols: Vec<(SortCol<'_>, bool)> = key_plans
        .iter()
        .map(|kp| match kp {
            SortKeyPlan::Output(q) => match plans.get(*q) {
                Some(ItemPlan::Position(c)) => Some((&rel.cols[*c], false)),
                _ => None,
            },
            SortKeyPlan::Input(CompiledExpr::Column(c)) => Some((&rel.cols[*c], false)),
            SortKeyPlan::Input(_) => next_computed.next(),
        })
        .map(|col| col.map(|(col, dense)| (SortCol::of(col), dense)))
        .collect::<Option<_>>()
        .ok_or_else(|| SqlError::Unsupported("ORDER BY key is not a column".into()))?;
    let (Some((first, dense)), Some(&asc)) = (cols.first(), ascending.first()) else {
        return Err(SqlError::Unsupported("ORDER BY without a key".into()));
    };
    let sel = &rel.sel;
    let skip = usize::from(!matches!(first, SortCol::Any(_)));
    let exact = |a: u32, b: u32| {
        let keys = cols.iter().zip(ascending).skip(skip);
        cmp_sort_keys(keys.map(|((col, dense), &asc)| {
            let (x, y) = if *dense {
                (a as usize, b as usize)
            } else {
                (sel[a as usize] as usize, sel[b as usize] as usize)
            };
            (col.index_cmp(x, y), asc)
        }))
        .then(a.cmp(&b))
    };
    let prefixes = sort_prefix(first, sel, *dense, asc);
    let cmp = |a: &(u64, u32), b: &(u64, u32)| a.0.cmp(&b.0).then_with(|| exact(a.1, b.1));
    let order = top_k_sorted(prefixes, limit, |a| a.0, cmp);
    Ok(order.into_iter().map(|(_, i)| sel[i as usize]).collect())
}

/// `(prefix, i)` per entry `i` of `sel` (at `i` in a `dense` column): a
/// `u64` in the key's [`ValRef::index_cmp`] order, coarsened. NULL is `0`,
/// INT flips the sign bit, FLOAT is made monotone (`-0.0` as `0.0`, NaN
/// `u64::MAX`), TEXT is its first 8 bytes, big-endian, zero-padded; the
/// rest is `1` (a value column's classes may mix); DESC is the bitwise NOT.
fn sort_prefix<'a>(
    col: &'a SortCol<'_>,
    sel: &'a [u32],
    dense: bool,
    asc: bool,
) -> impl Iterator<Item = (u64, u32)> + 'a {
    let float = |x: f64| {
        let bits = (x + 0.0).to_bits(); // `-0.0 + 0.0` is `0.0`
        match bits >> 63 {
            _ if x.is_nan() => u64::MAX,
            0 => bits | 1 << 63,
            _ => !bits,
        }
    };
    let key = move |p: usize| match col {
        SortCol::Ints(data) => data[p] as u64 ^ 1 << 63,
        SortCol::Floats(data) => float(data[p]),
        SortCol::Any(col) => match (col.val_ref(p), col.chunk().is_some()) {
            (ValRef::Null, _) => 0,
            (ValRef::Int(i), true) => i as u64 ^ 1 << 63,
            (ValRef::Float(x), true) => float(x),
            (ValRef::Str(s), true) => {
                (s.bytes().chain([0; 8]).take(8)).fold(0, |k, b| k << 8 | u64::from(b))
            }
            _ => 1,
        },
    };
    let flip = if asc { 0 } else { u64::MAX };
    let at = move |i: u32| (if dense { i } else { sel[i as usize] }) as usize;
    (0..sel.len() as u32).map(move |i| (key(at(i)) ^ flip, i))
}

/// The first `limit` of `items` in the total order `cmp`, sorted: the one
/// top-k of the executor, over indices into a selection
/// ([`order_selection`]) and over built rows ([`sort_strip_fused`]). It
/// holds at most `2k` items; a full buffer keeps its `k` best and raises
/// the bar to the `k`-th's `bar`, a `u64` that never falls along `cmp`, so
/// an item past the bar is dropped uncompared (one at the bar is compared:
/// ties keep their order). Linear in any input order, where a bounded heap
/// pays `log k` per item on input sorted against the order.
fn top_k_sorted<T>(
    items: impl Iterator<Item = T>,
    limit: Option<usize>,
    bar: impl Fn(&T) -> u64,
    cmp: impl Fn(&T, &T) -> Ordering,
) -> Vec<T> {
    let (k, mut past) = (limit.unwrap_or(usize::MAX), u64::MAX);
    if k == 0 {
        return Vec::new();
    }
    let mut kept = Vec::with_capacity(items.size_hint().0.min(k.saturating_mul(2)));
    let best = |kept: &mut Vec<T>| {
        kept.select_nth_unstable_by(k - 1, &cmp);
        kept.truncate(k);
    };
    for item in items {
        if bar(&item) > past {
            continue;
        }
        kept.push(item);
        if kept.len() == k.saturating_mul(2) {
            best(&mut kept);
            past = bar(&kept[k - 1]);
        }
    }
    if k < kept.len() {
        best(&mut kept);
    }
    kept.sort_unstable_by(&cmp);
    kept
}

/// Decorate-sort-undecorate for a fused `Strip { Sort }` (optionally under a
/// `Limit`) over rows that are already built — an `Aggregate`'s groups, a
/// `Project` with expression items: rows arrive with `ascending.len()` trailing key columns and
/// leave sorted and stripped. Rows are decorated with their input index as
/// the final tiebreaker, which makes the unstable sort (and the top-k
/// selection under a LIMIT) reproduce stable-sort output exactly.
fn sort_strip_fused(mut rs: ResultSet, ascending: &[bool], limit: Option<usize>) -> ResultSet {
    let rows = std::mem::take(&mut rs.rows).into_iter().enumerate();
    let decorated = top_k_sorted(
        rows,
        limit,
        |_| 0,
        |a, b| cmp_trailing_keys(a.1.values(), b.1.values(), ascending).then(a.0.cmp(&b.0)),
    );
    rs.rows = decorated
        .into_iter()
        .map(|(_, mut r)| {
            r.truncate(r.arity() - ascending.len());
            r
        })
        .collect();
    rs
}

/// Evaluate the relational (Scan/Filter/Join) portion of a plan, node `at`,
/// into columnar form, recording the profile of every relational node when
/// `EXPLAIN ANALYZE` is active.
fn eval_relational<'p>(
    plan: &LogicalPlan,
    at: usize,
    run: &Run<'_, 'p>,
    m: &mut ExecMetrics,
) -> Result<ColRelation<'p>> {
    profiled(
        plan,
        m,
        |rel: &ColRelation<'p>| rel.sel.len(),
        |m| eval_relational_inner(plan, at, run, m),
    )
}

fn eval_relational_inner<'p>(
    plan: &LogicalPlan,
    at: usize,
    run: &Run<'_, 'p>,
    m: &mut ExecMetrics,
) -> Result<ColRelation<'p>> {
    match (plan, run.site(at)) {
        (LogicalPlan::Scan { table, .. }, Site::Scan(full, filters, projected)) => {
            let stored = run.provider.table(table)?;
            let filters = raise(filters)?;
            // Storage chunks are borrowed, never copied.
            let cols: Vec<ColData<'p>> = stored.chunks().iter().map(ColData::Chunk).collect();
            let mut sel =
                index_seed(stored, filters, &cols).unwrap_or_else(|| stored.live_positions());
            m.rows_scanned += sel.len() as u64;
            m.batches += n_batches(sel.len());
            // Pushed-down predicates run over the full-width relation,
            // before the scan's own projection narrows it, refining the
            // selection vector per filter in pushdown order. Errors are
            // deferred per row and resolved to the row-major first error.
            let arity = full.arity();
            let mut errors = Vec::new();
            let cfg = par::current_exec_config();
            if !filters.is_empty() && par::should_parallelize(&cfg, sel.len()) {
                par_apply_filters(&cfg, filters, &cols, arity, &mut sel, &mut errors, m);
            } else {
                for f in filters {
                    apply_filter(f, &cols, arity, &mut sel, &mut errors, &mut m.batches);
                }
            }
            take_first_error(errors)?;
            m.rows_selected += sel.len() as u64;
            // A projection naming a column the table lacks fails here, once
            // the filters have run, as it always did.
            match raise(projected)? {
                Some((positions, kept)) => {
                    // Narrowing drops whole columns; no row data moves, and
                    // the full width's vector holds the narrow one.
                    let (chunks, mut cols) = (stored.chunks(), cols);
                    cols.clear();
                    cols.extend(positions.iter().map(|&p| ColData::Chunk(&chunks[p])));
                    Ok(ColRelation {
                        bindings: kept.clone(),
                        cols,
                        sel,
                    })
                }
                None => Ok(ColRelation {
                    bindings: full.clone(),
                    cols,
                    sel,
                }),
            }
        }
        (LogicalPlan::Filter { input, .. }, Site::Filter(predicate)) => {
            let mut rel = eval_relational(input, at + 1, run, m)?;
            let predicate = raise(predicate)?;
            let arity = rel.bindings.arity();
            let mut errors = Vec::new();
            let cfg = par::current_exec_config();
            if par::should_parallelize(&cfg, rel.sel.len()) {
                let filters = std::slice::from_ref(predicate);
                par_apply_filters(
                    &cfg,
                    filters,
                    &rel.cols,
                    arity,
                    &mut rel.sel,
                    &mut errors,
                    m,
                );
            } else {
                let (cols, sel) = (&rel.cols, &mut rel.sel);
                apply_filter(predicate, cols, arity, sel, &mut errors, &mut m.batches);
            }
            take_first_error(errors)?;
            m.rows_selected += rel.sel.len() as u64;
            Ok(rel)
        }
        (
            LogicalPlan::Join {
                left, right, kind, ..
            },
            Site::Join(bindings, on, right_at),
        ) => {
            let l = eval_relational(left, at + 1, run, m)?;
            let r = eval_relational(right, *right_at, run, m)?;
            join_relations(l, r, *kind, bindings, on, m)
        }
        (LogicalPlan::Scan { .. } | LogicalPlan::Filter { .. } | LogicalPlan::Join { .. }, _) => {
            Err(not_lowered(plan))
        }
        (other, _) => Err(SqlError::Unsupported(format!(
            "nested result-shaping node in relational position: {other}"
        ))),
    }
}

/// A key-seeded scan reads at most this share (one part in so many) of its
/// table's live rows from the index; a wider key range scans every row.
const SEED_SHARE: usize = 8;

/// The selection a scan's index answers: the ascending live positions whose
/// key passes the first filter [`key_selection`] recognises — a superset of
/// the rows the filters keep, every one of which still runs over it. Only
/// infallible filters ([`compile_kernel`]) may come before that one: a row
/// the seed drops then raises no error a full scan would. `None`, for a scan
/// of every live row, when no filter qualifies or when more than a
/// [`SEED_SHARE`]th of the live rows would be read.
///
/// Never inlined: inlined into the scan arm it cost `analytic_scan`, which
/// it never seeds, 3.7 % of its queries per second (6 pairs at 12 s).
#[inline(never)]
fn index_seed(stored: &Table, filters: &[CompiledExpr], cols: &[ColData<'_>]) -> Option<Vec<u32>> {
    for (at, f) in filters.iter().enumerate() {
        let mut keys = Vec::new();
        let Some(selection) = key_selection(stored, f, &mut keys) else {
            continue;
        };
        if !filters[..at]
            .iter()
            .all(|g| compile_kernel(g, cols).is_some())
        {
            return None;
        }
        return stored
            .positions(selection, stored.len() / SEED_SHARE)
            .ok()
            .flatten();
    }
    None
}

/// `f` as a selection an ordered index answers exactly: `col op lit` for the
/// comparisons other than `<>`, `col BETWEEN lit AND lit`, or `col IN (lit,
/// …)`, on an indexed INT or TEXT column, every literal non-NULL and of the
/// column's class (an `IN` list's NULLs, which never match, aside; its other
/// items are copied into `keys`). Anything else — a FLOAT column, a FLOAT
/// literal against an INT column, a negation — is answered by a full scan.
fn key_selection<'a>(
    stored: &'a Table,
    f: &'a CompiledExpr,
    keys: &'a mut Vec<Value>,
) -> Option<KeySelection<'a>> {
    let indexed = |pos: usize| {
        let def = stored.schema().columns().get(pos)?;
        let keyed = matches!(def.data_type, DataType::Int | DataType::Text);
        (keyed && stored.has_index(&def.name)).then_some(def)
    };
    let range = |pos: usize, lo: Bound<&'a Value>, hi: Bound<&'a Value>| {
        let def = indexed(pos)?;
        let of_class = |bound| match bound {
            Bound::Included(v) | Bound::Excluded(v) => Value::data_type(v) == Some(def.data_type),
            Bound::Unbounded => true,
        };
        (of_class(lo) && of_class(hi)).then_some(KeySelection::Range {
            column: &def.name,
            lo,
            hi,
        })
    };
    match f {
        CompiledExpr::CmpColumnLiteral {
            pos,
            op,
            literal: v,
        } => match op {
            BinaryOp::Eq => range(*pos, Bound::Included(v), Bound::Included(v)),
            BinaryOp::Lt => range(*pos, Bound::Unbounded, Bound::Excluded(v)),
            BinaryOp::LtEq => range(*pos, Bound::Unbounded, Bound::Included(v)),
            BinaryOp::Gt => range(*pos, Bound::Excluded(v), Bound::Unbounded),
            BinaryOp::GtEq => range(*pos, Bound::Included(v), Bound::Unbounded),
            _ => None,
        },
        CompiledExpr::Between {
            expr,
            lo,
            hi,
            negated: false,
        } => match (expr.as_ref(), lo.as_ref(), hi.as_ref()) {
            (CompiledExpr::Column(pos), CompiledExpr::Literal(lo), CompiledExpr::Literal(hi)) => {
                range(*pos, Bound::Included(lo), Bound::Included(hi))
            }
            _ => None,
        },
        CompiledExpr::InList {
            expr,
            list,
            negated: false,
            ..
        } => {
            let CompiledExpr::Column(pos) = expr.as_ref() else {
                return None;
            };
            let def = indexed(*pos)?;
            for item in list {
                match item {
                    CompiledExpr::Literal(v) if v.is_null() => {}
                    CompiledExpr::Literal(v) if v.data_type() == Some(def.data_type) => {
                        keys.push(v.clone())
                    }
                    _ => return None,
                }
            }
            Some(KeySelection::In {
                column: &def.name,
                keys,
            })
        }
        _ => None,
    }
}

/// `rows` with every row equal to an earlier one dropped, in order: a row's
/// key hash finds the kept rows it may equal, each confirmed key by key
/// (INT and FLOAT fold together and NULLs pool, as in GROUP BY).
fn distinct_rows(rows: Vec<Row>) -> Vec<Row> {
    fn keys(r: &Row) -> impl Iterator<Item = Option<KeyValue<'_>>> {
        r.values().iter().map(KeyValue::of)
    }
    let hasher = std::collections::hash_map::RandomState::new();
    let (mut chains, mut kept) = (Chains::hashed(), Vec::new());
    for row in rows {
        let mut h = hasher.build_hasher();
        keys(&row).for_each(|k| k.hash(&mut h));
        let hash = h.finish();
        if chains
            .find(hash, |i| keys(&kept[i as usize]).eq(keys(&row)))
            .is_none()
        {
            chains.link(hash, kept.len() as u32);
            kept.push(row);
        }
    }
    kept
}

/// Execute an UPDATE against a mutable database, returning the number of
/// rows changed.
///
/// Semantics match the 2005 backends' autocommit mode: the statement is
/// validated up front (predicate, assignment types, uniqueness of the
/// post-image) and then applied atomically by rebuilding the table.
pub fn execute_update(stmt: &UpdateStmt, db: &mut Database) -> Result<usize> {
    rewrite_where(db, &stmt.table, &stmt.where_clause, |schema, bindings| {
        // Resolve assignment targets and compile their expressions once.
        let mut targets = Vec::with_capacity(stmt.assignments.len());
        for (col, expr) in &stmt.assignments {
            let idx = schema
                .index_of(col)
                .ok_or_else(|| SqlError::UnknownColumn(col.clone()))?;
            targets.push((idx, compile(expr, bindings)?));
        }
        Ok(move |schema: &Schema, row: &[Value]| {
            let mut values = row.to_vec();
            for (idx, expr) in &targets {
                values[*idx] = expr.eval(row)?;
            }
            Ok(Some(schema.check_row(values)?))
        })
    })
}

/// Execute a DELETE against a mutable database, returning the number of
/// rows removed. Validation-first, like [`execute_update`].
pub fn execute_delete(stmt: &DeleteStmt, db: &mut Database) -> Result<usize> {
    rewrite_where(db, &stmt.table, &stmt.where_clause, |_, _| {
        Ok(|_: &Schema, _: &[Value]| Ok(None))
    })
}

/// UPDATE's and DELETE's one body: open `name`, build the row edit
/// (`prepare`, before the WHERE compiles), then map every row the WHERE
/// matches through it (`None` drops the row) over a snapshot, validating
/// the whole post-image before the table is rebuilt from it. Returns the
/// number of rows matched.
fn rewrite_where<E>(
    db: &mut Database,
    name: &str,
    where_clause: &Option<Expr>,
    prepare: impl FnOnce(&Schema, &Bindings) -> Result<E>,
) -> Result<usize>
where
    E: FnMut(&Schema, &[Value]) -> Result<Option<Vec<Value>>>,
{
    let table = db
        .table_mut(name)
        .map_err(|_| SqlError::UnknownTable(name.to_string()))?;
    let schema = table.schema().clone();
    let bindings = Bindings::for_table(name, &schema.names());
    let mut edit = prepare(&schema, &bindings)?;
    let predicate = match where_clause {
        Some(pred) => Some(compile(pred, &bindings)?),
        None => None,
    };
    let snapshot = table.rows();
    let mut image = Vec::with_capacity(snapshot.len());
    let mut matched = 0usize;
    for row in &snapshot {
        let matches = match &predicate {
            Some(pred) => pred.eval_predicate(row.values())?,
            None => true,
        };
        if matches {
            image.extend(edit(&schema, row.values())?);
            matched += 1;
        } else {
            image.push(row.values().to_vec());
        }
    }
    check_unique_post_image(&schema, &image)?;
    table.truncate();
    for values in image {
        table.insert(values)?;
    }
    Ok(matched)
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
            if let (Ok(Some(la)), Ok(Some(rb))) = (left.position(a), right.position(b)) {
                return Some((la, rb));
            }
            if let (Ok(Some(lb)), Ok(Some(ra))) = (left.position(b), right.position(a)) {
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
/// row-major first error a row-at-a-time pass would.
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
    plans: &[ItemPlan],
    key_plans: &[SortKeyPlan],
    m: &mut ExecMetrics,
) -> Result<Vec<Row>> {
    // Only expression items and input sort keys read a scratch row, and
    // only the columns they reference are gathered into it.
    let item_exprs = plans.iter().filter_map(|plan| match plan {
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
    let values = plans
        .iter()
        .enumerate()
        .map(|(slot, plan)| match plan.chunk(rel) {
            Some(c) => c.wire_size_of(sel),
            None => rows.iter().map(|r| r.values()[slot].wire_size()).sum(),
        });
    m.built = Some((rows.len(), values.sum()));
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
/// Column-major first: a block of rows at a time is sized and every
/// positional item is written into it by one typed loop over its column
/// ([`Row::filled_in_blocks`], [`ColData::fill_rows`]) — copying a column
/// cannot fail. Then, only if the plan has them,
/// expression items and sort keys run row-major over the scratch row, so
/// the first error raised is the first failing row's first failing item,
/// as in the row-at-a-time reference.
fn build_rows(
    rel: &ColRelation<'_>,
    sel: &[u32],
    plans: &[ItemPlan],
    key_plans: &[SortKeyPlan],
    needed: &[usize],
) -> Result<Vec<Row>> {
    let width = plans.len() + key_plans.len();
    let mut rows = Row::filled_in_blocks(sel, width, |block, rows| {
        for (slot, plan) in plans.iter().enumerate() {
            if let ItemPlan::Position(q) = plan {
                rel.cols[*q].fill_rows(block, rows, slot);
            }
        }
    });
    let positional = plans.iter().all(|p| matches!(p, ItemPlan::Position(_)));
    if positional && key_plans.is_empty() {
        return Ok(rows);
    }
    let mut scratch = vec![Value::Null; rel.bindings.arity()];
    for (row, &s) in rows.iter_mut().zip(sel) {
        for &c in needed {
            scratch[c] = rel.cols[c].value_at(s as usize);
        }
        let values = row.values_mut();
        for (slot, plan) in plans.iter().enumerate() {
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

/// The right position that pads a LEFT OUTER miss.
const NO_ROW: u32 = u32::MAX;

/// An exact key: an INT's bits, a TEXT's dictionary code.
fn raw(c: &ColumnChunk) -> impl Fn(usize) -> Option<u64> + Sync + '_ {
    move |p| match c {
        ColumnChunk::Int { data, nulls } if !nulls.get(p) => Some(data[p] as u64),
        ColumnChunk::Str { codes, nulls, .. } if !nulls.get(p) => Some(u64::from(codes[p])),
        _ => None,
    }
}

/// An INT or FLOAT key as `=` meets a FLOAT: canonical `f64` bits; NaN has none.
fn widened(c: &ColumnChunk) -> impl Fn(usize) -> Option<u64> + Sync + '_ {
    move |p| {
        let x = match c {
            ColumnChunk::Int { data, nulls } if !nulls.get(p) => data[p] as f64,
            ColumnChunk::Float { data, nulls } if !nulls.get(p) => data[p],
            _ => return None,
        };
        (!x.is_nan()).then(|| canonical_f64_bits(x))
    }
}

/// A probe-side TEXT key of `from` as a code of `to` (`u64::MAX`: absent).
/// A dictionary no longer than the `probed` rows is translated up front, a
/// longer one (shared with rows filtered away) code by code as rows ask.
fn translated<'a>(
    (codes, dict, nulls): (&'a [u32], &'a StrDict, &'a Bitmap),
    to: &'a StrDict,
    probed: usize,
) -> impl Fn(usize) -> Option<u64> + Sync + 'a {
    let code = move |c: u32| to.code_of(dict.get(c)).map_or(u64::MAX, u64::from);
    let table: Option<Vec<u64>> =
        (dict.len() <= probed).then(|| (0..dict.len() as u32).map(code).collect());
    move |p| {
        let c = codes[p];
        (!nulls.get(p)).then(|| table.as_ref().map_or_else(|| code(c), |t| t[c as usize]))
    }
}

/// A folded [`KeyValue`]'s hash: equal wherever `=` holds, and where the
/// fold alone meets (an INT past 2^53 and its `f64`, NaN and NaN).
fn folded<'a>(col: &'a ColData<'_>) -> impl Fn(usize) -> Option<u64> + Sync + 'a {
    let h = BuildHasherDefault::<std::collections::hash_map::DefaultHasher>::default();
    move |p| col.key_at(p).map(|k| h.hash_one(k.widened()))
}

/// The hash equi-join `left.cols[lk] = right.cols[rk]`, the one hash-join
/// routine: index pairs in probe order, a row's matches in `right.sel`
/// order, a pair exactly where `=` ([`ValRef::sql_eq`]) holds — NULL and
/// NaN match nothing. Keys are read off the chunks by class:
///
/// - INT ⋈ INT: the integers, never through `f64`;
/// - INT or FLOAT on each side, not both INT: canonical `f64` bits;
/// - dictionary TEXT on both sides: build-side codes, the probe side's
///   translated through the build side's dictionary ([`translated`]);
/// - anything else (BOOL, BYTES, a value column that may mix INT and FLOAT,
///   classes `=` never pairs): a folded [`KeyValue`]'s hash, every
///   candidate confirmed by `sql_eq`.
fn hash_join(
    left: &ColRelation<'_>,
    right: &ColRelation<'_>,
    lk: usize,
    rk: usize,
    outer: bool,
    m: &mut ExecMetrics,
) -> (Vec<u32>, Vec<u32>) {
    use ColumnChunk::{Float, Int, Str};
    let (lc, rc) = (&left.cols[lk], &right.cols[rk]);
    let any = |_: u32, _: u32| true;
    match (lc.chunk(), rc.chunk()) {
        (Some(l @ Int { .. }), Some(r @ Int { .. })) => {
            chained(left, right, outer, m, raw(r), raw(l), any)
        }
        (Some(l @ (Int { .. } | Float { .. })), Some(r @ (Int { .. } | Float { .. }))) => {
            chained(left, right, outer, m, widened(r), widened(l), any)
        }
        (Some(Str { codes, dict, nulls }), Some(r @ Str { dict: to, .. })) => {
            let lkey = translated((codes, dict, nulls), to, left.sel.len());
            chained(left, right, outer, m, raw(r), lkey, any)
        }
        _ => {
            let same = |lp: u32, rp: u32| lc.val_ref(lp as usize).sql_eq(&rc.val_ref(rp as usize));
            chained(left, right, outer, m, folded(rc), folded(lc), same)
        }
    }
}

/// [`hash_join`] for one key class: `rkey` reads a build key, `lkey` a
/// probe key, `same` confirms a candidate. One build, a [`Chains`] over
/// `right.sel`'s entries; past one morsel the probe runs on the pool, and
/// concatenating the morsels' pairs in morsel order gives the sequential
/// pairs.
fn chained(
    left: &ColRelation<'_>,
    right: &ColRelation<'_>,
    outer: bool,
    m: &mut ExecMetrics,
    rkey: impl Fn(usize) -> Option<u64>,
    lkey: impl Fn(usize) -> Option<u64> + Sync,
    same: impl Fn(u32, u32) -> bool + Sync,
) -> (Vec<u32>, Vec<u32>) {
    let (rows, mut hashed) = (&right.sel, false);
    let keys = rows.iter().filter_map(|&rp| rkey(rp as usize));
    let mut chains = Chains::new(KeyIndex::new(keys, rows.len(), &mut hashed));
    note_fallbacks(m, hashed, None);
    // Backwards, so that every chain runs forwards.
    for (i, &rp) in rows.iter().enumerate().rev() {
        if let Some(k) = rkey(rp as usize) {
            chains.link(k, i as u32);
        }
    }
    // The left positions `probe` in order, one lookup per run of equal
    // keys; `same` confirms each candidate and `outer` pads a miss.
    let probe = |probe: &[u32]| {
        let mut lidx = Vec::with_capacity(probe.len());
        let mut ridx = Vec::with_capacity(probe.len());
        for (k, run) in key_runs(probe, &lkey) {
            let head = k.map_or(0, |k| chains.heads.get(k));
            for &lp in &probe[run] {
                let mut matched = false;
                for rp in chains.walk(head).map(|i| rows[i as usize]) {
                    if same(lp, rp) {
                        lidx.push(lp);
                        ridx.push(rp);
                        matched = true;
                    }
                }
                if outer && !matched {
                    lidx.push(lp);
                    ridx.push(NO_ROW);
                }
            }
        }
        (lidx, ridx)
    };
    let cfg = par::current_exec_config();
    if !par::should_parallelize(&cfg, left.sel.len()) {
        return probe(&left.sel);
    }
    let chunks = par::morsels(&cfg, &left.sel);
    note_parallel(m, &cfg, chunks.len());
    let probed = par::parallel_map(&cfg, chunks, |_, chunk| probe(chunk));
    let (lidx, ridx): (Vec<Vec<u32>>, Vec<Vec<u32>>) = probed.into_iter().unzip();
    (lidx.concat(), ridx.concat())
}

/// Join two columnar relations: [`hash_join`] on a simple column equality,
/// a nested loop over the compiled `ON` otherwise. Either way only `u32`
/// index pairs are collected, and each output column is gathered once
/// (string columns share their source dictionary via `Arc`); a LEFT OUTER
/// join's right side alone goes through `Option`, `None` for its padding.
fn join_relations<'p>(
    left: ColRelation<'p>,
    right: ColRelation<'p>,
    kind: JoinKind,
    bindings: &Bindings,
    on: &Lowering<JoinOn>,
    m: &mut ExecMetrics,
) -> Result<ColRelation<'p>> {
    let outer = kind == JoinKind::LeftOuter;
    let (lidx, ridx) = match raise(on)? {
        JoinOn::Keys(lk, rk) => hash_join(&left, &right, *lk, *rk, outer, m),
        JoinOn::Loop(compiled_on) => {
            // The ON condition evaluates over a reusable scratch row.
            let left_arity = left.bindings.arity();
            let mut scratch = vec![Value::Null; bindings.arity()];
            let (mut lidx, mut ridx) = (Vec::new(), Vec::new());
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
                        ridx.push(rp);
                        matched = true;
                    }
                }
                if outer && !matched {
                    lidx.push(lp);
                    ridx.push(NO_ROW);
                }
            }
            (lidx, ridx)
        }
    };

    m.batches += n_batches(left.sel.len()) + n_batches(right.sel.len());
    let padded: Option<Vec<Option<u32>>> =
        outer.then(|| ridx.iter().map(|&r| (r != NO_ROW).then_some(r)).collect());
    // One gather per output column; past one morsel of pairs they run on the
    // pool, and item-order collection keeps column order.
    let mut cfg = par::current_exec_config();
    let n_left = left.cols.len();
    let n_cols = n_left + right.cols.len();
    if par::should_parallelize(&cfg, lidx.len()) && n_cols > 1 {
        note_parallel(m, &cfg, n_cols);
    } else {
        cfg.workers = 1;
    }
    let cols = par::parallel_map(&cfg, (0..n_cols).collect(), |_, i| {
        match (i.checked_sub(n_left), &padded) {
            (None, _) => left.cols[i].gather(&lidx),
            (Some(j), None) => right.cols[j].gather(&ridx),
            (Some(j), Some(padded)) => right.cols[j].gather_opt(padded),
        }
    });
    let sel = (0..lidx.len() as u32).collect();
    Ok(ColRelation {
        bindings: bindings.clone(),
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

/// A select list's output names and item plans, wildcards expanded.
fn expand_items(items: &[SelectItem], bindings: &Bindings) -> Result<(Vec<String>, Vec<ItemPlan>)> {
    let (mut names, mut plans) = (Vec::new(), Vec::new());
    for item in items {
        let positions = match item {
            SelectItem::Wildcard => (0..bindings.arity()).collect(),
            SelectItem::QualifiedWildcard(q) => {
                let positions = bindings.positions_of_qualifier(q);
                if positions.is_empty() {
                    return Err(SqlError::UnknownTable(q.clone()));
                }
                positions
            }
            SelectItem::Expr { expr, .. } => {
                // A named column is a position like a wildcard's: it is
                // copied out of its chunk, never evaluated.
                plans.push(match compile(expr, bindings)? {
                    CompiledExpr::Column(pos) => ItemPlan::Position(pos),
                    compiled => ItemPlan::Expr(compiled),
                });
                names.push(item_name(item));
                continue;
            }
        };
        for pos in positions {
            names.extend(bindings.name_at(pos).map(str::to_string));
            plans.push(ItemPlan::Position(pos));
        }
    }
    Ok((names, plans))
}

/// How to produce one projection output value.
#[derive(Debug, Clone, PartialEq)]
enum ItemPlan {
    /// Copy the input column at this position.
    Position(usize),
    /// Evaluate a compiled expression over the input row — never a bare
    /// [`CompiledExpr::Column`], which [`expand_items`] lowers to `Position`.
    Expr(CompiledExpr),
}

impl ItemPlan {
    /// The typed chunk a positional item copies out of `rel`, if it has one.
    fn chunk<'r>(&self, rel: &'r ColRelation<'_>) -> Option<&'r ColumnChunk> {
        match self {
            ItemPlan::Position(q) => rel.cols[*q].chunk(),
            ItemPlan::Expr(_) => None,
        }
    }
}

/// How to produce one ORDER BY sort key per output row.
#[derive(Debug, Clone, PartialEq)]
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

/// Assign each selected position to a group ([`Groups`]): groups are
/// numbered in first-occurrence order; NULL keys pool in one group. Nothing
/// is allocated per row — keys are read where they lie, by
/// [`ColData::key_at`] semantics:
///
/// - a lone dictionary `Str` chunk by its codes, a lone INT chunk by its
///   raw `i64`s, a lone FLOAT chunk by the canonical `f64` bits
///   [`KeyValue`] folds (so `0.0` and `-0.0`, and every NaN, group as they
///   do under `KeyValue` equality, and INTs an `f64` cannot tell apart stay
///   apart), one run of a key at a time ([`group_runs`]);
/// - anything else — several keys, a BOOL / BYTES chunk, a value column —
///   by hashing the columns' `key_at` into [`Chains`] and confirming
///   against the position that opened the candidate group, column by
///   column.
///
/// The one grouping routine: the sequential arm runs it over the whole
/// selection, the parallel arm over every morsel and once more over the
/// morsels' group openers to merge them. An index built on the hashed arm
/// sets `hashed`.
pub(crate) fn assign_groups(keys: &[&ColData<'_>], sel: &[u32], hashed: &mut bool) -> Groups {
    let lone_chunk = match keys {
        [key] => key.chunk(),
        _ => None,
    };
    let mut groups = Groups::default();
    match lone_chunk {
        Some(ColumnChunk::Str { codes, nulls, .. }) => {
            return group_runs(sel, non_null(nulls, |p| u64::from(codes[p])), hashed);
        }
        Some(ColumnChunk::Int { data, nulls }) => {
            return group_runs(sel, non_null(nulls, |p| data[p] as u64), hashed);
        }
        Some(ColumnChunk::Float { data, nulls }) => {
            let bits = |p| canonical_f64_bits(data[p]);
            return group_runs(sel, non_null(nulls, bits), hashed);
        }
        _ if keys.is_empty() => {
            if let Some(&p) = sel.first() {
                groups.openers.push(p);
                groups.starts.push(0);
            }
        }
        _ => {
            // Key hash → the groups with that hash, for the day two keys
            // share 64 bits.
            let hasher = std::collections::hash_map::RandomState::new();
            let mut chains = Chains::hashed();
            for (i, &p) in sel.iter().enumerate() {
                let mut h = hasher.build_hasher();
                for key in keys {
                    key.key_at(p as usize).hash(&mut h);
                }
                let hash = h.finish();
                let same_key = |g: u32| {
                    let opener = groups.openers[g as usize] as usize;
                    keys.iter()
                        .all(|key| key.key_at(p as usize) == key.key_at(opener))
                };
                match chains.find(hash, same_key) {
                    Some(g) => groups.push(i, i + 1, g),
                    None => chains.link(hash, groups.place(&mut 0, i, i + 1, p)),
                }
            }
        }
    }
    groups
}

/// [`assign_groups`] under the installed config. Morsel-parallel: every
/// morsel groups its own slice, then the morsels' openers — in morsel order,
/// so still in first-occurrence order — are grouped once more, which maps
/// each morsel-local group to its global id. Group numbering is therefore
/// first occurrence in `sel` order, exactly the sequential assignment.
fn assign_groups_par(keys: &[&ColData<'_>], sel: &[u32], m: &mut ExecMetrics) -> Groups {
    let (cfg, mut hashed) = (par::current_exec_config(), false);
    if !par::should_parallelize(&cfg, sel.len()) {
        let groups = assign_groups(keys, sel, &mut hashed);
        note_fallbacks(m, hashed, Some(&groups));
        return groups;
    }
    let chunks = par::morsels(&cfg, sel);
    note_parallel(m, &cfg, chunks.len());
    let lens: Vec<usize> = chunks.iter().map(|chunk| chunk.len()).collect();
    let locals = par::parallel_map(&cfg, chunks, |_, chunk| {
        let mut hashed = false;
        (assign_groups(keys, chunk, &mut hashed), hashed)
    });
    let local_openers: Vec<u32> = locals
        .iter()
        .flat_map(|(local, _)| local.openers.iter().copied())
        .collect();
    hashed = locals.iter().any(|(_, hashed)| *hashed);
    let merged = assign_groups(keys, &local_openers, &mut hashed);
    let mut global_of = Vec::with_capacity(local_openers.len());
    merged.for_each(local_openers.len(), |g| global_of.push(g));
    let mut groups = Groups {
        openers: merged.openers,
        ..Groups::default()
    };
    let (mut i, mut base) = (0, 0);
    for ((local, _), len) in locals.iter().zip(lens) {
        local.for_each(len, |g| {
            groups.push(i, i + 1, global_of[base + g as usize]);
            i += 1;
        });
        base += local.openers.len();
    }
    note_fallbacks(m, hashed, Some(&groups));
    groups
}

/// Execute an `Aggregate` plan node over a columnar relation: assign the
/// selected positions to groups straight off the key columns
/// ([`assign_groups`]; a computed key is first evaluated into a column,
/// row-major, so a key that errors raises the first failing row's error),
/// then evaluate group by group — HAVING's aggregates, its verdict, the
/// remaining aggregates, the projected values, the hidden sort keys — so a
/// group HAVING drops never surfaces an error from its projection.
///
/// Compile-once throughout; the non-DISTINCT aggregates over one bare INT
/// or FLOAT column share one typed pass over its chunk per group, other
/// bare columns stream values without a scratch row.
fn aggregate_node(
    rel: &ColRelation<'_>,
    plan: &AggregatePlan,
    global: bool,
    n_keys: usize,
    m: &mut ExecMetrics,
) -> Result<ResultSet> {
    let AggregatePlan {
        names,
        group_keys,
        aggs,
        items: item_exprs,
        having: having_expr,
        sort: sort_plans,
    } = plan;

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
    let assigned = match bare_keys {
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
    let n_groups = if global { 1 } else { assigned.openers.len() };
    let (grouped, bounds) = assigned.split(&rel.sel, n_groups);
    let group = |g: usize| &grouped[bounds[g]..bounds[g + 1]];

    // Column positions each aggregate's argument reads, precomputed; and
    // those of a group's first row that the items, HAVING and the sort keys
    // read, the only ones it is filled with.
    let agg_needs: Vec<Vec<usize>> = aggs
        .iter()
        .map(|a| referenced_positions(a.arg.as_ref(), arity))
        .collect();
    let mut row_exprs = Vec::new();
    for e in item_exprs.iter().chain(having_expr) {
        e.row_exprs(&mut row_exprs);
    }
    row_exprs.extend(sort_plans.iter().flatten().filter_map(|kp| match kp {
        SortKeyPlan::Input(e) => Some(e),
        SortKeyPlan::Output(_) => None,
    }));
    let first_needs = referenced_positions(row_exprs, arity);

    // Aggregate slots HAVING reads: computed for every group; the remaining
    // slots only for groups HAVING keeps (so errors in filtered-out
    // projections never surface).
    let mut having_slots = Vec::new();
    if let Some(h) = &having_expr {
        h.agg_slots(&mut having_slots);
    }

    // The non-DISTINCT aggregates over one bare INT or FLOAT column are a
    // family that shares one pass over a group's positions, kept under its
    // first slot, the lead: each such slot's lead and column, and at the
    // lead what the family's pass must gather.
    let mut fused: Vec<Option<(usize, PassColumn<'_>, PassNeeds)>> = vec![None; aggs.len()];
    for (slot, agg) in aggs.iter().enumerate() {
        let column = match agg.arg {
            Some(CompiledExpr::Column(c)) if !agg.distinct => rel.cols[c].chunk(),
            _ => None,
        };
        let Some(column) = column.and_then(PassColumn::of) else {
            continue;
        };
        let lead = (0..slot)
            .find(|&l| fused[l].is_some() && aggs[l].arg == agg.arg)
            .unwrap_or(slot);
        fused[slot] = Some((lead, column, PassNeeds::default()));
        if let Some((.., needs)) = &mut fused[lead] {
            *needs = needs.with(agg.func);
        }
    }

    // What evaluating a group writes — an argument's scratch row, the first
    // row, the aggregate values, the family passes (by lead slot) —
    // allocated once per node (once per group on the pool).
    type Scratch = (Vec<Value>, Vec<Value>, Vec<Value>, Vec<Option<AggState>>);
    let nulls = |n| vec![Value::Null; n];
    let scratch = || -> Scratch {
        let passes = vec![None; aggs.len()];
        (nulls(arity), nulls(arity), nulls(aggs.len()), passes)
    };

    // One slot's value over a group: a fused slot finishes from its
    // family's pass, made the first time one of the family is asked for
    // (so each slot still finishes at its own turn, and the first error is
    // the one slot order gives); any other is computed alone.
    let slot_value = |slot: usize,
                      positions: &[u32],
                      scratch: &mut [Value],
                      passes: &mut [Option<AggState>]|
     -> Result<Value> {
        let Some((lead, column, _)) = fused[slot] else {
            return compute_aggregate(&aggs[slot], positions, rel, &agg_needs[slot], scratch);
        };
        let pass = passes[lead].get_or_insert_with(|| {
            let needs = fused[lead].map_or(PassNeeds::default(), |(.., needs)| needs);
            AggState::over(needs, column, positions)
        });
        pass.finish_as(aggs[slot].func)
    };

    // One group's full evaluation: gather its first row, compute HAVING's
    // aggregate slots and verdict (unknown-is-false), then the remaining
    // slots and the projected values. `Ok(None)` is a HAVING-filtered
    // group. Shared by the sequential loop and the parallel per-group map.
    let group_row = |positions: &[u32], s: &mut Scratch| -> Result<Option<Row>> {
        let (scratch, first, agg_values, passes) = s;
        passes.fill(None);
        let first_row: Option<&[Value]> = match positions.first() {
            Some(&p) => {
                for &c in &first_needs {
                    first[c] = rel.cols[c].value_at(p as usize);
                }
                Some(first.as_slice())
            }
            None => None,
        };
        // HAVING: filter whole groups; the predicate may mix aggregates
        // and grouping expressions, with SQL's unknown-is-false rule.
        if let Some(h) = &having_expr {
            for &slot in &having_slots {
                agg_values[slot] = slot_value(slot, positions, scratch, passes)?;
            }
            let verdict = h.eval(agg_values, first_row)?;
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
        for (slot, value) in agg_values.iter_mut().enumerate() {
            if !having_slots.contains(&slot) {
                *value = slot_value(slot, positions, scratch, passes)?;
            }
        }
        let mut row = Row::nulls(item_exprs.len() + n_keys);
        let (items, keys) = row.values_mut().split_at_mut(item_exprs.len());
        for (slot, ge) in items.iter_mut().zip(item_exprs) {
            *slot = ge.eval(agg_values, first_row)?;
        }
        fill_group_sort_keys(items, keys, sort_plans, first_row);
        Ok(Some(row))
    };

    let mut out = Vec::with_capacity(n_groups);
    if par::should_parallelize(&cfg, rel.sel.len()) && n_groups > 1 {
        // Groups are independent — compute them in parallel, then fold
        // results in group insertion order: output order is unchanged and
        // the first `Err` in group order is the error the sequential loop
        // would have stopped at.
        note_parallel(m, &cfg, n_groups);
        let computed = par::parallel_map(&cfg, (0..n_groups).collect(), |_, g| {
            group_row(group(g), &mut scratch())
        });
        for r in computed {
            if let Some(row) = r? {
                out.push(row);
            }
        }
    } else {
        let mut s = scratch();
        for g in 0..n_groups {
            if let Some(row) = group_row(group(g), &mut s)? {
                out.push(row);
            }
        }
    }
    m.rows_materialized += out.len() as u64;
    m.batches += n_batches(rel.sel.len()) * (1 + aggs.len() as u64);
    let columns = names.clone();
    Ok(ResultSet { columns, rows: out })
}

/// Lower an `Aggregate`'s expressions over its input's `bindings`: group
/// keys, each distinct aggregate call once (shared by the items and
/// HAVING), the items and HAVING over those slots, and the sort keys.
fn lower_aggregate(
    bindings: &Bindings,
    items: &[SelectItem],
    group_by: &[Expr],
    having: Option<&Expr>,
    keys: &[OrderItem],
) -> Result<AggregatePlan> {
    let exprs = items.iter().map(|item| match item {
        SelectItem::Expr { expr, .. } => Ok(expr),
        _ => Err(SqlError::Unsupported(
            "wildcard projection in aggregate query".into(),
        )),
    });
    let exprs = exprs.collect::<Result<Vec<_>>>()?;
    let names: Vec<String> = items.iter().map(item_name).collect();
    let group_keys = group_by
        .iter()
        .map(|g| compile(g, bindings))
        .collect::<Result<_>>()?;
    let mut aggs = Vec::new();
    let items = exprs
        .into_iter()
        .map(|e| compile_group(e, bindings, &mut aggs))
        .collect::<Result<_>>()?;
    let having = having
        .map(|h| compile_group(h, bindings, &mut aggs))
        .transpose()?;
    // A sort key that fails to compile degrades every group's keys to
    // NULL, as a failing key evaluation does for its own group.
    let out_cols: Vec<&str> = names.iter().map(String::as_str).collect();
    let sort = compile_order_keys(keys, bindings, &out_cols).ok();
    Ok(AggregatePlan {
        names,
        group_keys,
        aggs,
        items,
        having,
        sort,
    })
}

/// Run one compiled aggregate over a group's selected positions, other than
/// a non-DISTINCT one over a bare INT or FLOAT column (those share a typed
/// pass per column, [`AggState::over`]). `COUNT(*)` is the group's size;
/// anything else gathers the referenced columns into the scratch row first,
/// and a bare column's value moves out of it uncopied.
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
        Some(e) => {
            for &s in positions {
                for &c in needed {
                    scratch[c] = rel.cols[c].value_at(s as usize);
                }
                let v = match e {
                    CompiledExpr::Column(c) => std::mem::replace(&mut scratch[*c], Value::Null),
                    e => e.eval(scratch)?,
                };
                state.update(Some(&v))?;
            }
        }
    }
    state.finish()
}

/// Write a group's hidden sort-key columns into `keys`, which follow its
/// projected `items` in the row and start NULL. Any evaluation failure (or
/// an earlier compile failure, `plans == None`) degrades that group's keys
/// to NULL.
fn fill_group_sort_keys(
    items: &[Value],
    keys: &mut [Value],
    plans: &Option<Vec<SortKeyPlan>>,
    first_row: Option<&[Value]>,
) {
    let Some(plans) = plans else {
        return;
    };
    for (k, kp) in plans.iter().enumerate().take(keys.len()) {
        let key = match kp {
            SortKeyPlan::Output(p) => Ok(items[*p].clone()),
            // Sort keys read the group's first row, or an empty row for
            // an empty global group.
            SortKeyPlan::Input(e) => e.eval(first_row.unwrap_or(&[])),
        };
        match key {
            Ok(v) => keys[k] = v,
            Err(_) => {
                keys.fill(Value::Null);
                return;
            }
        }
    }
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
    fn a_kept_lowering_runs_only_over_the_columns_it_was_lowered_against() {
        let d = db();
        let provider = DatabaseProvider(&d);
        let sql = "SELECT e.e_id, d.name FROM events e JOIN detectors d \
                   ON e.det_id = d.det_id WHERE e.energy > 10.0 ORDER BY e.e_id";
        let plan = optimize(
            build_plan(&parse_select(sql).unwrap()),
            &ProviderCatalog(&provider),
        );
        let (fresh, m) = execute_plan_metered(&plan, &provider).unwrap();
        assert_eq!(fresh.rows.len(), 3);
        assert!(m.compile > Duration::ZERO, "a plan run once is lowered");
        let kept = Lowered::of(&plan, &provider);
        assert_eq!(kept.tables.len(), 2, "both scans are keyed");
        let (rs, m) = execute_lowered(&plan, &kept, &provider).unwrap();
        assert_eq!((rs, m.compile), (fresh.clone(), Duration::ZERO));
        // A lowering over other columns than the tables have now is never
        // run: the plan is lowered again, and the answer is not shuffled.
        let stale = Lowered::new(&plan, |t| {
            let mut names = d.table(t).ok()?.schema().names();
            names.reverse();
            Some(names)
        });
        assert!(!stale.fits(&provider));
        let (rs, m) = execute_lowered(&plan, &stale, &provider).unwrap();
        assert_eq!(rs, fresh);
        assert!(m.compile > Duration::ZERO);
    }

    #[test]
    fn compile_errors_surface_where_the_run_reaches_them() {
        // The filter's per-row error comes before the projection's
        // missing column, as when every site compiled as it was reached.
        let d = db();
        let provider = DatabaseProvider(&d);
        let stmt = parse_select("SELECT nope FROM events WHERE 1 / (e_id - 3) > 0").unwrap();
        let plan = build_plan(&stmt);
        let err = execute_plan(&plan, &provider).unwrap_err();
        assert!(matches!(err, SqlError::Eval(_)), "{err}");
        let kept = Lowered::of(&plan, &provider);
        assert_eq!(execute_lowered(&plan, &kept, &provider).unwrap_err(), err);
        let stmt = parse_select("SELECT nope FROM events WHERE e_id > 0").unwrap();
        let err = execute_plan(&build_plan(&stmt), &provider).unwrap_err();
        assert_eq!(err, SqlError::UnknownColumn("nope".into()));
    }

    #[test]
    fn filter_literals_are_slots_of_the_lowered_plan() {
        let d = db();
        let provider = DatabaseProvider(&d);
        let stmt =
            parse_select("SELECT e_id FROM events WHERE e_id > 1 AND energy < 40.0").unwrap();
        let plan = optimize(build_plan(&stmt), &ProviderCatalog(&provider));
        let mut lowered = Lowered::of(&plan, &provider);
        let mut slots = Vec::new();
        for f in lowered.filters_mut() {
            match f {
                CompiledExpr::CmpColumnLiteral { literal, .. } => slots.push(literal),
                other => panic!("not a comparison with a literal: {other:?}"),
            }
        }
        let seen: Vec<Value> = slots.iter().map(|v| (**v).clone()).collect();
        assert_eq!(seen, vec![Value::Int(1), Value::Float(40.0)]);
        for slot in slots {
            *slot = Value::Null;
        }
        assert_ne!(
            lowered,
            Lowered::of(&plan, &provider),
            "the slots are the plan's"
        );
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

    /// A UNIQUE post-image keys INTs exactly, as the index inserts are
    /// checked against does: keys `f64` cannot tell apart are distinct,
    /// a true duplicate is still refused.
    #[test]
    fn update_post_image_keeps_ints_past_f64_apart() {
        let mut d = db();
        let t = d.table_mut("events").unwrap();
        for id in [1 << 53, (1 << 53) + 1, i64::MIN, i64::MIN + 1] {
            t.insert(vec![Value::Int(id), Value::Int(10), Value::Float(1.0)])
                .unwrap();
        }
        let update = |sql: &str| match crate::parser::parse(sql).unwrap() {
            crate::ast::Statement::Update(u) => u,
            _ => panic!(),
        };
        let n = execute_update(&update("UPDATE events SET energy = 2.0"), &mut d).unwrap();
        assert_eq!(n, 9);
        let sql = "UPDATE events SET e_id = 9007199254740992 WHERE e_id = 1";
        assert!(matches!(
            execute_update(&update(sql), &mut d),
            Err(SqlError::Storage(
                gridfed_storage::StorageError::UniqueViolation { .. }
            ))
        ));
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
        let (names, plans) = expand_items(&stmt.items, &bindings).unwrap();
        let positions: Vec<Option<usize>> = plans
            .iter()
            .map(|plan| match plan {
                ItemPlan::Position(p) => Some(*p),
                ItemPlan::Expr(CompiledExpr::Column(_)) => {
                    panic!("a bare column reached ItemPlan::Expr")
                }
                ItemPlan::Expr(_) => None,
            })
            .collect();
        let expected = [Some(0), Some(2), Some(0), Some(1), Some(2), None, Some(2)];
        assert_eq!(positions, expected);
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

    /// A bare LIMIT over a select list of columns builds the selection's
    /// first `n` rows only; with an expression item it builds every row,
    /// whose error a dropped row must still raise.
    #[test]
    fn bare_limit_builds_only_the_rows_it_returns() {
        let d = par_db();
        let provider = DatabaseProvider(&d);
        let metered = |sql: &str| {
            let plan = optimize(
                build_plan(&parse_select(sql).unwrap()),
                &ProviderCatalog(&provider),
            );
            execute_plan_metered(&plan, &provider)
        };
        let sql = "SELECT e_id, energy, e_id FROM events WHERE det_id <> 2";
        let (all, all_m) = metered(sql).unwrap();
        for n in [0usize, 1, 7, 1000] {
            let (top, top_m) = metered(&format!("{sql} LIMIT {n}")).unwrap();
            let kept = n.min(all.len());
            assert_eq!(top.rows, all.rows[..kept], "LIMIT {n}");
            assert_eq!(top_m.rows_materialized, kept as u64, "LIMIT {n}");
            assert_eq!(top_m.rows_selected, all_m.rows_selected, "LIMIT {n}");
        }
        let expr = "SELECT e_id, energy * 2.0 AS e2 FROM events";
        let (every, _) = metered(expr).unwrap();
        let (top, expr_m) = metered(&format!("{expr} LIMIT 3")).unwrap();
        assert_eq!(top.rows, every.rows[..3]);
        assert_eq!(expr_m.rows_materialized, 200);
        let err = metered("SELECT e_id, det_id / (det_id - 1) AS q FROM events LIMIT 1");
        assert!(err.is_err(), "a dropped row's error surfaces: {err:?}");
    }

    /// A column list answers its chunks, every other root the rows
    /// [`execute_plan`] builds, and a list of no column — whose chunks could
    /// not carry the row count — rows too.
    #[test]
    fn column_answers_are_chunks_only_for_a_column_list() {
        let mut d = par_db();
        let t = d
            .create_table("bare", Schema::new(Vec::new()).unwrap())
            .unwrap();
        t.insert(Vec::new()).unwrap();
        t.insert(Vec::new()).unwrap();
        let provider = DatabaseProvider(&d);
        for (sql, chunked) in [
            ("SELECT e_id, energy FROM events WHERE det_id <> 2", true),
            ("SELECT e_id, energy * 2.0 AS e2 FROM events", false),
            (
                "SELECT det_id, COUNT(*) AS n FROM events GROUP BY det_id",
                false,
            ),
            ("SELECT e_id FROM events ORDER BY e_id DESC LIMIT 3", false),
            ("SELECT * FROM bare", false),
        ] {
            let plan = optimize(
                build_plan(&parse_select(sql).unwrap()),
                &ProviderCatalog(&provider),
            );
            let rs = execute_plan(&plan, &provider).unwrap();
            let cs =
                execute_lowered_columns(&plan, &Lowered::of(&plan, &provider), &provider).unwrap();
            assert_eq!((cs.len(), &cs.columns), (rs.len(), &rs.columns), "{sql}");
            match cs.cells {
                Cells::Chunks(chunks) => {
                    assert!(chunked, "{sql}");
                    assert_eq!(chunks.len(), rs.columns.len(), "{sql}");
                }
                Cells::Rows(rows) => assert!(!chunked && rows == rs.rows, "{sql}"),
            }
        }
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
            let expect = assign_groups(&[&plain], &sel, &mut false);
            assert_eq!(
                assign_groups(&[&typed], &sel, &mut false),
                expect,
                "{data_type:?}"
            );
            // A selection that starts late and misses most keys.
            let few = [4, 0];
            assert_eq!(
                assign_groups(&[&typed], &few, &mut false),
                assign_groups(&[&plain], &few, &mut false)
            );
            // A second key that never splits a group leaves the numbering
            // alone, through the hashed route over the typed chunk.
            let constant = ColData::Values(vec![Value::Bool(true); values.len()]);
            assert_eq!(
                assign_groups(&[&typed, &constant], &sel, &mut false),
                expect
            );
            let ids = ids_of(&expect, sel.len());
            assert_eq!(ids[0], 0, "groups are numbered by first occurrence");
            assert_eq!(ids[3], ids[9], "position 2 twice is one group");
        }
        let floats = ColData::Values(columns[1].1.clone());
        let groups = assign_groups(&[&floats], &[0, 1, 2, 4, 7, 8], &mut false);
        assert_eq!(ids_of(&groups, 6), [0, 0, 1, 1, 2, 2]);
        assert_eq!(groups.openers, [0, 2, 7]);
        assert!(groups.ids.is_empty(), "runs keep no id per row");
        // No key: one group when there is a row, none otherwise.
        let groups = assign_groups(&[], &[5, 6], &mut false);
        assert_eq!((ids_of(&groups, 2), groups.openers), (vec![0, 0], vec![5]));
        assert_eq!(assign_groups(&[], &[], &mut false), Groups::default());
    }

    fn ids_of(groups: &Groups, len: usize) -> Vec<u32> {
        let mut ids = Vec::new();
        groups.for_each(len, |g| ids.push(g));
        ids
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

    /// What `=` pairs: every `(l, r)` of the selections in order, `sql_eq`
    /// over the key columns, a miss padded with `NO_ROW` when `outer`.
    fn nested_pairs(l: &ColRelation<'_>, r: &ColRelation<'_>, outer: bool) -> (Vec<u32>, Vec<u32>) {
        let (mut lidx, mut ridx) = (Vec::new(), Vec::new());
        for &lp in &l.sel {
            let before = lidx.len();
            for &rp in &r.sel {
                if l.cols[0]
                    .val_ref(lp as usize)
                    .sql_eq(&r.cols[0].val_ref(rp as usize))
                {
                    lidx.push(lp);
                    ridx.push(rp);
                }
            }
            if outer && lidx.len() == before {
                lidx.push(lp);
                ridx.push(NO_ROW);
            }
        }
        (lidx, ridx)
    }

    #[test]
    fn hash_join_pairs_exactly_what_sql_equality_pairs() {
        let big = 1i64 << 53;
        let ints: Vec<Value> = [0, 1, big - 1, big, big + 1, -big - 1, -big, 1, 1, big + 1]
            .iter()
            .map(|&i| Value::Int(i))
            .chain([Value::Null])
            .collect();
        let floats: Vec<Value> = [0.0, -0.0, f64::NAN, 1.0, big as f64, -(big as f64), 2.5]
            .iter()
            .map(|&x| Value::Float(x))
            .chain([Value::Null, Value::Float(1.0)])
            .collect();
        let texts = |words: &[&str]| -> Vec<Value> {
            let word = |w: &&str| {
                if w.is_empty() {
                    Value::Null
                } else {
                    (*w).into()
                }
            };
            words.iter().map(word).collect()
        };
        let (left_texts, right_texts) = (
            texts(&["ecal", "hcal", "ecal", "", "muon", "ecal", "ecal", "hcal"]),
            texts(&["muon", "", "hcal", "trk", "ecal", "hcal"]),
        );
        let mixed: Vec<Value> = vec![
            Value::Int(big + 1),
            Value::Float(big as f64),
            Value::Int(big),
            Value::Float(f64::NAN),
            Value::Text("ecal".into()),
            Value::Bool(true),
            Value::Null,
            Value::Int(0),
            Value::Float(-0.0),
        ];
        let bools = vec![
            Value::Bool(true),
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
        ];
        let chunk = |data_type: DataType, values: &[Value]| {
            let mut c = ColumnChunk::for_type(data_type);
            values.iter().for_each(|v| c.push(v));
            ColData::Owned(c)
        };
        let columns: Vec<(&str, ColData<'static>)> = vec![
            ("int", chunk(DataType::Int, &ints)),
            ("float", chunk(DataType::Float, &floats)),
            ("left text", chunk(DataType::Text, &left_texts)),
            ("right text", chunk(DataType::Text, &right_texts)),
            ("bool", chunk(DataType::Bool, &bools)),
            ("int values", ColData::Values(ints.clone())),
            ("float values", ColData::Values(floats.clone())),
            ("text values", ColData::Values(left_texts.clone())),
            ("mixed values", ColData::Values(mixed)),
        ];
        fn relation<'a>(col: &'a ColData<'static>, skip: usize) -> ColRelation<'a> {
            let (view, n) = match (col, col.chunk()) {
                (ColData::Values(v), _) => (ColData::Values(v.clone()), v.len()),
                (_, chunk) => {
                    let c = chunk.expect("a chunk");
                    (ColData::Chunk(c), c.len())
                }
            };
            ColRelation {
                bindings: Bindings::for_table("t", &["k".to_string()]),
                cols: vec![view],
                // Every row twice over would break `sel`'s order; a gap
                // stands for a tombstone instead.
                sel: (0..n as u32)
                    .filter(|p| skip == 0 || p % skip as u32 != 1)
                    .collect(),
            }
        }
        let mut sequential = ExecConfig::with_workers(1);
        sequential.morsel_rows = 2;
        let mut three = ExecConfig::with_workers(3);
        three.morsel_rows = 2;
        let mut four = ExecConfig::with_workers(4);
        four.morsel_rows = 3;
        for (lname, lcol) in &columns {
            for (rname, rcol) in &columns {
                for (lskip, rskip) in [(0, 0), (3, 0), (0, 4)] {
                    let (l, r) = (relation(lcol, lskip), relation(rcol, rskip));
                    for outer in [false, true] {
                        let expect = nested_pairs(&l, &r, outer);
                        for cfg in [&sequential, &three, &four] {
                            let got = crate::par::with_exec_config(cfg.clone(), || {
                                hash_join(&l, &r, 0, 0, outer, &mut ExecMetrics::default())
                            });
                            assert_eq!(
                                got, expect,
                                "{lname} = {rname}, outer {outer}, skip {lskip}/{rskip}, \
                                 {} workers",
                                cfg.workers
                            );
                        }
                    }
                }
            }
        }
        // An empty side pairs nothing, and pads every probe row.
        let (l, mut r) = (relation(&columns[0].1, 0), relation(&columns[0].1, 0));
        r.sel.clear();
        let (lidx, ridx) = hash_join(&l, &r, 0, 0, true, &mut ExecMetrics::default());
        assert_eq!(
            (lidx, ridx.iter().all(|&p| p == NO_ROW)),
            (l.sel.clone(), true)
        );
        assert_eq!(
            hash_join(&r, &l, 0, 0, false, &mut ExecMetrics::default()),
            (vec![], vec![])
        );
    }
}

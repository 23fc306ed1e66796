//! Query decomposition: from one federated SELECT to per-table sub-queries.
//!
//! The Data Access Layer "processes the queries for data sent by the
//! clients containing joins of different tables from different databases
//! (data marts), and divides them into sub-queries, which are then
//! distributed on to the underlying databases" (§4.5). This module is that
//! division: it decides where each table lives, which WHERE conjuncts can
//! be pushed down to each backend, and which columns each sub-query must
//! fetch so the mediator can finish the join.

use crate::error::CoreError;
use crate::Result;
use gridfed_sqlkit::ast::{BinaryOp, ColumnRef, Expr, JoinKind, SelectItem, SelectStmt, TableRef};
use gridfed_sqlkit::estimate_rows;
use gridfed_sqlkit::optimize::{optimize, PlanCatalog};
use gridfed_sqlkit::plan::{build_plan, LogicalPlan};
use gridfed_storage::normalize_ident;
use gridfed_xspec::dict::TableLocation;
use std::collections::{BTreeMap, BTreeSet};

/// Largest estimated key set a semi-join reduction will ship. Above this
/// the keys themselves are the blowup, so the branch full-scatters.
pub const REDUCTION_MAX_KEYS: u64 = 100_000;

/// A reduction must shrink the target by at least this factor (estimated)
/// to pay for the extra scatter wave. Targets with no estimate are assumed
/// big (that is exactly when a stale or absent count must not block the
/// fix for the blowup).
pub const REDUCTION_MIN_RATIO: u64 = 4;

/// At or below this many distinct keys a reduction ships as a sorted
/// IN-list; above it, as a fixed-seed bloom filter. The executor re-decides
/// from the *actual* distinct-key count; the planner's choice (from the
/// estimate) is what EXPLAIN prints.
pub const IN_LIST_MAX_KEYS: usize = 64;

/// Where a logical table lives, from this service's point of view.
#[derive(Debug, Clone, PartialEq)]
pub enum Home {
    /// Registered locally; fetch through POOL-RAL or JDBC.
    Local(TableLocation),
    /// Hosted by a remote Clarens server (found via RLS).
    Remote {
        /// URL of the remote JClarens server.
        server_url: String,
    },
}

/// Resolves logical table names to homes. Implemented by the service
/// (dictionary first, RLS fallback); tests provide stubs.
pub trait TableResolver {
    /// Resolve one logical table (replica already chosen).
    fn resolve(&self, logical: &str) -> Result<Home>;
    /// Column names of a logical table, when known locally (used for
    /// predicate push-down and column pruning; `None` disables both).
    fn columns_of(&self, logical: &str) -> Option<Vec<String>>;
    /// Data version of the chosen replica, when the table has version
    /// bookkeeping (versioned mart). `None` for unversioned tables —
    /// EXPLAIN annotates versioned fetches with `[data vN]`.
    fn version_of(&self, _logical: &str) -> Option<u64> {
        None
    }
    /// *Live* row count of the chosen replica, when something has measured
    /// it since registration (mart refresh, WAL apply, RLS publication).
    /// `None` falls back to the registration-time XSpec hint.
    fn row_count_of(&self, _logical: &str) -> Option<u64> {
        None
    }
}

/// A semi-join reduction attached to a fetch task: before this task's
/// branch is dispatched, the mediator collects the distinct `source_column`
/// join keys from the already-fetched `source_table` partial and injects a
/// membership predicate on `target_column` into the sub-query, so the big
/// side is filtered at its source instead of shipped whole.
#[derive(Debug, Clone, PartialEq)]
pub struct Reduction {
    /// Normalized name of the (estimated small) table supplying the keys.
    pub source_table: String,
    /// Join-key column on the source table.
    pub source_column: String,
    /// Join-key column on the reduced table, as spelled in the query.
    pub target_column: String,
    /// Estimated distinct keys the reduction ships (the source branch's
    /// output estimate) — what the planner sized the strategy from.
    pub est_keys: u64,
}

impl Reduction {
    /// Plan-time strategy label (`in-list` or `bloom`) for EXPLAIN.
    pub fn strategy(&self) -> &'static str {
        if self.est_keys <= IN_LIST_MAX_KEYS as u64 {
            "in-list"
        } else {
            "bloom"
        }
    }
}

/// One per-table fetch task.
#[derive(Debug, Clone, PartialEq)]
pub struct TableTask {
    /// Table name as spelled in the query (the key for integration).
    pub table: String,
    /// Where to fetch from.
    pub home: Home,
    /// The single-table sub-query to run at the backend.
    pub subquery: SelectStmt,
    /// Data version of the chosen replica (versioned marts only).
    pub version: Option<u64>,
    /// Estimated rows this fetch returns (live row count through the
    /// pushed-filter selectivity model); `None` when the table has no
    /// statistics. Printed per branch by EXPLAIN.
    pub est_rows: Option<u64>,
    /// Depth of the reduction chain under this task's branch: 0 for a
    /// branch that reads no other branch's keys, one past its deepest
    /// source otherwise. EXPLAIN prints it; dispatch does not read it — a
    /// branch starts once the branches its reductions read have finished
    /// (`scatter::group_branches` derives those from `reductions`). Always
    /// 0 when `reductions` is empty.
    pub wave: usize,
    /// Semi-join reductions to inject before dispatching this task.
    pub reductions: Vec<Reduction>,
}

/// The decomposed plan.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryPlan {
    /// Every table lives in one local database: push the whole statement.
    SingleDatabase {
        /// The single local database.
        location: TableLocation,
        /// The statement to execute.
        stmt: SelectStmt,
    },
    /// Every table lives on one remote server: forward the whole
    /// statement there.
    ForwardAll {
        /// Remote Clarens server URL.
        server_url: String,
        /// The statement to execute.
        stmt: SelectStmt,
    },
    /// The general case: fetch per-table partials, integrate locally.
    Federated {
        /// Per-table fetch tasks, derived from the optimized plan's scans.
        tasks: Vec<TableTask>,
        /// The optimized plan: each `Scan` shows exactly the predicates and
        /// column list its sub-query pushes to the backend.
        optimized: LogicalPlan,
        /// The residual plan the mediator runs over the fetched partials:
        /// the optimized plan with every scan's pushed work blanked out
        /// (the backends already did it).
        residual: LogicalPlan,
    },
}

impl QueryPlan {
    /// Whether this plan is distributed in Table 1's sense (data pulled
    /// from more than one database).
    pub fn distributed(&self) -> bool {
        matches!(self, QueryPlan::Federated { .. })
    }
}

/// [`PlanCatalog`] over a [`TableResolver`]: schemas come from the data
/// dictionary, cardinalities from the XSpec row-count hints of locally
/// resolved tables — the statistics feeding the optimizer's join ordering.
struct ResolverCatalog<'a>(&'a dyn TableResolver);

impl PlanCatalog for ResolverCatalog<'_> {
    fn columns(&self, table: &str) -> Option<Vec<String>> {
        self.0.columns_of(&normalize_ident(table))
    }

    fn row_count(&self, table: &str) -> Option<u64> {
        let key = normalize_ident(table);
        // Live counts first: registration-time XSpec hints freeze the
        // moment the table is registered, and a mart that was empty then
        // may hold millions of rows now.
        if let Some(live) = self.0.row_count_of(&key) {
            return Some(live);
        }
        match self.0.resolve(&key) {
            Ok(Home::Local(loc)) => Some(loc.row_count as u64),
            _ => None,
        }
    }
}

/// Build the optimized logical plan for a statement, as the federation sees
/// it (schemas and statistics drawn from the resolver). Shared by the
/// decomposer and `EXPLAIN`.
pub fn optimized_plan(stmt: &SelectStmt, resolver: &dyn TableResolver) -> LogicalPlan {
    optimize(build_plan(stmt), &ResolverCatalog(resolver))
}

/// Decompose a SELECT against a resolver.
pub fn plan(stmt: &SelectStmt, resolver: &dyn TableResolver) -> Result<QueryPlan> {
    // Unique tables in syntactic order, with their bindings.
    let mut tables: Vec<String> = Vec::new();
    let mut bindings_of: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for tref in stmt.table_refs() {
        let key = normalize_ident(&tref.name);
        if !tables.contains(&key) {
            tables.push(key.clone());
        }
        bindings_of
            .entry(key)
            .or_default()
            .push(normalize_ident(tref.binding()));
    }

    let mut homes: BTreeMap<String, Home> = BTreeMap::new();
    for t in &tables {
        homes.insert(t.clone(), resolver.resolve(t)?);
    }

    // All-local, one database → push everything.
    let local_dbs: BTreeSet<&str> = homes
        .values()
        .filter_map(|h| match h {
            Home::Local(loc) => Some(loc.database.as_str()),
            Home::Remote { .. } => None,
        })
        .collect();
    let remote_servers: BTreeSet<&str> = homes
        .values()
        .filter_map(|h| match h {
            Home::Remote { server_url } => Some(server_url.as_str()),
            Home::Local(_) => None,
        })
        .collect();

    let local = homes.values().find_map(|h| match h {
        Home::Local(loc) => Some(loc),
        Home::Remote { .. } => None,
    });
    match (local, local_dbs.len(), remote_servers.first()) {
        (Some(location), 1, None) => {
            return Ok(QueryPlan::SingleDatabase {
                location: location.clone(),
                stmt: stmt.clone(),
            });
        }
        (None, _, Some(server_url)) if remote_servers.len() == 1 => {
            return Ok(QueryPlan::ForwardAll {
                server_url: server_url.to_string(),
                stmt: stmt.clone(),
            });
        }
        _ => {}
    }

    // General federation. Lower the statement to the plan IR and optimize:
    // predicate pushdown and projection pruning decide — per Scan node —
    // what each backend sub-query filters and fetches.
    let optimized = optimized_plan(stmt, resolver);

    // Retract pushdown where federation cannot honor it: a table bound
    // more than once shares one fetch (an alias-qualified filter must not
    // constrain the other binding), and a table with an unknown schema is
    // fetched raw (we cannot verify the backend has the column).
    let retract: BTreeSet<String> = tables
        .iter()
        .filter(|t| bindings_of[*t].len() > 1 || resolver.columns_of(t).is_none())
        .cloned()
        .collect();
    let optimized = retract_scan_pushdown(optimized, &retract);

    // One fetch task per unique table, mirroring its Scan node exactly.
    let scans = optimized.scans();
    let mut tasks = Vec::with_capacity(tables.len());
    for t in &tables {
        // Every table was resolved above, and every FROM table has a scan.
        let home = homes.remove(t);
        let scan = scans.iter().find_map(|s| match s {
            LogicalPlan::Scan {
                table,
                projection,
                filters,
                ..
            } if normalize_ident(table) == *t => Some((projection, filters)),
            _ => None,
        });
        let (Some(home), Some((projection, filters))) = (home, scan) else {
            return Err(CoreError::TableNotFound(t.clone()));
        };
        let items = match projection {
            Some(cols) => cols.iter().map(|c| SelectItem::col(c)).collect(),
            None => vec![SelectItem::Wildcard],
        };
        let mut subquery = SelectStmt {
            // DISTINCT is applied at the mediator after integration; the
            // per-table fetches stay plain so join multiplicities survive.
            distinct: false,
            items,
            from: TableRef::new(t.clone()),
            joins: Vec::new(),
            // The backend sub-query has a single unaliased FROM, so the
            // pushed conjuncts lose their qualifiers.
            where_clause: Expr::conjoin(filters.iter().map(strip_qualifiers).collect()),
            group_by: Vec::new(),
            having: None,
            order_by: Vec::new(),
            limit: None,
        };
        // LIMIT push-down: sound only for a single-table, non-aggregate,
        // unordered query (result is a plain filtered subset).
        if tables.len() == 1
            && stmt.order_by.is_empty()
            && stmt.group_by.is_empty()
            && !stmt.is_aggregate()
        {
            subquery.limit = stmt.limit;
        }
        tasks.push(TableTask {
            table: t.clone(),
            home,
            subquery,
            version: resolver.version_of(t),
            est_rows: None,
            wave: 0,
            reductions: Vec::new(),
        });
    }
    plan_reductions(stmt, resolver, &optimized, &bindings_of, &mut tasks);
    let residual = residual_plan(&optimized);
    Ok(QueryPlan::Federated {
        tasks,
        optimized,
        residual,
    })
}

/// Branch identity for scatter purposes: tasks sharing a local database or
/// a remote server travel (and are costed) together.
fn branch_key(home: &Home) -> String {
    match home {
        Home::Local(loc) => format!("db:{}", loc.database),
        Home::Remote { server_url } => format!("srv:{server_url}"),
    }
}

/// The cost-based reduction pass: estimate each branch's output from live
/// statistics, order branches small-to-big, and for every cross-branch
/// inner-join equality chain a semi-join reduction from the smaller side
/// into the bigger side's sub-query. Tasks the model cannot estimate or
/// cannot profitably reduce keep the full-scatter shape (`wave` 0, no
/// reductions) — the planner only ever *adds* filters, so a wrong estimate
/// costs bytes, never correctness.
fn plan_reductions(
    stmt: &SelectStmt,
    resolver: &dyn TableResolver,
    optimized: &LogicalPlan,
    bindings_of: &BTreeMap<String, Vec<String>>,
    tasks: &mut [TableTask],
) {
    // Per-task output estimate: the scan's row count through the pushed
    // filters, exactly as the optimizer and EXPLAIN estimate it.
    let catalog = ResolverCatalog(resolver);
    let scans = optimized.scans();
    for task in tasks.iter_mut() {
        let scan = scans.iter().find(
            |s| matches!(s, LogicalPlan::Scan { table, .. } if normalize_ident(table) == task.table),
        );
        task.est_rows = scan.and_then(|s| estimate_rows(s, &catalog));
    }
    if tasks.len() < 2 {
        return;
    }

    // Scatter order: branches sorted by estimated output ascending, with
    // unknown estimates last (they are assumed big). Reductions only flow
    // from earlier to later branches, which makes the dependency graph
    // acyclic by construction.
    let mut branch_est: BTreeMap<String, Option<u64>> = BTreeMap::new();
    for task in tasks.iter() {
        let slot = branch_est.entry(branch_key(&task.home)).or_insert(Some(0));
        *slot = match (*slot, task.est_rows) {
            (Some(total), Some(est)) => Some(total.saturating_add(est)),
            _ => None,
        };
    }
    let mut order: Vec<(&String, &Option<u64>)> = branch_est.iter().collect();
    order.sort_by_key(|(name, est)| (est.is_none(), est.unwrap_or(u64::MAX), (*name).clone()));
    let rank: BTreeMap<&String, usize> = order
        .iter()
        .enumerate()
        .map(|(i, (name, _))| (*name, i))
        .collect();

    // Join-key edges: equality conjuncts of INNER joins whose two sides
    // resolve (via their bindings) to tables in different branches.
    let mut binding_table: BTreeMap<String, String> = BTreeMap::new();
    for tref in stmt.table_refs() {
        binding_table.insert(normalize_ident(tref.binding()), normalize_ident(&tref.name));
    }
    let mut edges: Vec<(String, String, String, String)> = Vec::new();
    collect_inner_join_edges(optimized, &binding_table, &mut edges);

    for (ta, ca, tb, cb) in edges {
        let Some(ia) = tasks.iter().position(|t| t.table == ta) else {
            continue;
        };
        let Some(ib) = tasks.iter().position(|t| t.table == tb) else {
            continue;
        };
        let ba = branch_key(&tasks[ia].home);
        let bb = branch_key(&tasks[ib].home);
        if ba == bb {
            continue; // no wire crossing to save
        }
        // The earlier-scattered (smaller) branch supplies the keys.
        let (src, s_col, tgt, t_col) = if rank[&ba] < rank[&bb] {
            (ia, ca, ib, cb)
        } else {
            (ib, cb, ia, ca)
        };
        // Fall back to full scatter when the model cannot see a profit:
        // no source estimate, a key set too big to ship, or a target not
        // meaningfully bigger than the keys that would reduce it.
        let Some(src_est) = tasks[src].est_rows else {
            continue;
        };
        if src_est > REDUCTION_MAX_KEYS {
            continue;
        }
        if let Some(tgt_est) = tasks[tgt].est_rows {
            if src_est.saturating_mul(REDUCTION_MIN_RATIO) > tgt_est {
                continue;
            }
        }
        // A twice-bound target shares one fetch between its bindings; a
        // predicate derived from one binding's join must not starve the
        // other, so such targets stay unreduced.
        if bindings_of.get(&tasks[tgt].table).map(Vec::len) > Some(1) {
            continue;
        }
        // When the target schema is known locally, the key column must be
        // in it. Unknown schemas (remote servers) are trusted to have the
        // join column the query itself asserts.
        if let Some(cols) = resolver.columns_of(&tasks[tgt].table) {
            let t_key = normalize_ident(&t_col);
            if !cols.iter().any(|c| normalize_ident(c) == t_key) {
                continue;
            }
        }
        let red = Reduction {
            source_table: tasks[src].table.clone(),
            source_column: s_col,
            target_column: t_col,
            est_keys: src_est,
        };
        if !tasks[tgt].reductions.contains(&red) {
            tasks[tgt].reductions.push(red);
        }
    }

    // Waves, at branch granularity: one past the deepest branch that feeds
    // any of its tasks' reductions (what EXPLAIN prints). Computed in rank
    // order, so every source wave is already final.
    let mut branch_wave: BTreeMap<String, usize> = BTreeMap::new();
    for (name, _) in order {
        let mut wave = 0;
        for task in tasks.iter().filter(|t| &branch_key(&t.home) == name) {
            for red in &task.reductions {
                // A reduction's source is a task of a branch ranked earlier.
                let source = tasks.iter().find(|t| t.table == red.source_table);
                let source_wave = source.and_then(|t| branch_wave.get(&branch_key(&t.home)));
                wave = wave.max(source_wave.map_or(0, |w| w + 1));
            }
        }
        branch_wave.insert(name.clone(), wave);
    }
    for task in tasks.iter_mut() {
        task.wave = branch_wave[&branch_key(&task.home)];
    }
}

/// Collect `a.x = b.y` conjuncts from INNER-join conditions, resolved
/// through `binding_table` to `(table_a, col_a, table_b, col_b)` — only
/// where the two sides are different tables.
fn collect_inner_join_edges(
    plan: &LogicalPlan,
    binding_table: &BTreeMap<String, String>,
    out: &mut Vec<(String, String, String, String)>,
) {
    if let LogicalPlan::Join {
        kind: JoinKind::Inner,
        on: Some(on),
        ..
    } = plan
    {
        push_equality_conjuncts(on, binding_table, out);
    }
    for child in plan.children() {
        collect_inner_join_edges(child, binding_table, out);
    }
}

fn push_equality_conjuncts(
    expr: &Expr,
    binding_table: &BTreeMap<String, String>,
    out: &mut Vec<(String, String, String, String)>,
) {
    match expr {
        Expr::Binary {
            left,
            op: BinaryOp::And,
            right,
        } => {
            push_equality_conjuncts(left, binding_table, out);
            push_equality_conjuncts(right, binding_table, out);
        }
        Expr::Binary {
            left,
            op: BinaryOp::Eq,
            right,
        } => {
            if let (Expr::Column(l), Expr::Column(r)) = (&**left, &**right) {
                let (Some(lq), Some(rq)) = (&l.qualifier, &r.qualifier) else {
                    return; // unqualified: ownership is ambiguous
                };
                let (Some(lt), Some(rt)) = (
                    binding_table.get(&normalize_ident(lq)),
                    binding_table.get(&normalize_ident(rq)),
                ) else {
                    return;
                };
                if lt != rt {
                    out.push((lt.clone(), l.column.clone(), rt.clone(), r.column.clone()));
                }
            }
        }
        _ => {}
    }
}

/// Undo pushdown and pruning on the scans of the named tables: their
/// filters move back into the residual WHERE and their column lists widen
/// to `*`. Used where a per-scan decision cannot be honored by a shared or
/// schema-blind fetch.
fn retract_scan_pushdown(plan: LogicalPlan, tables: &BTreeSet<String>) -> LogicalPlan {
    if tables.is_empty() {
        return plan;
    }
    match plan {
        LogicalPlan::Project { input, items, keys } => LogicalPlan::Project {
            input: Box::new(retract_relational(*input, tables)),
            items,
            keys,
        },
        LogicalPlan::Aggregate {
            input,
            items,
            group_by,
            having,
            keys,
        } => LogicalPlan::Aggregate {
            input: Box::new(retract_relational(*input, tables)),
            items,
            group_by,
            having,
            keys,
        },
        LogicalPlan::Sort { input, ascending } => LogicalPlan::Sort {
            input: Box::new(retract_scan_pushdown(*input, tables)),
            ascending,
        },
        LogicalPlan::Strip { input, drop } => LogicalPlan::Strip {
            input: Box::new(retract_scan_pushdown(*input, tables)),
            drop,
        },
        LogicalPlan::Distinct { input } => LogicalPlan::Distinct {
            input: Box::new(retract_scan_pushdown(*input, tables)),
        },
        LogicalPlan::Limit { input, limit } => LogicalPlan::Limit {
            input: Box::new(retract_scan_pushdown(*input, tables)),
            limit,
        },
        relational => retract_relational(relational, tables),
    }
}

/// Strip the named scans inside a relational subtree and re-conjoin their
/// pulled filters above it. Pulling a pushed conjunct back up is always
/// sound: pushdown only ever moved it down from there.
fn retract_relational(plan: LogicalPlan, tables: &BTreeSet<String>) -> LogicalPlan {
    let mut pulled = Vec::new();
    let plan = strip_scans(plan, tables, &mut pulled);
    match Expr::conjoin(pulled) {
        Some(extra) => match plan {
            LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
                input,
                predicate: Expr::binary(predicate, BinaryOp::And, extra),
            },
            other => LogicalPlan::Filter {
                input: Box::new(other),
                predicate: extra,
            },
        },
        None => plan,
    }
}

fn strip_scans(
    plan: LogicalPlan,
    tables: &BTreeSet<String>,
    pulled: &mut Vec<Expr>,
) -> LogicalPlan {
    match plan {
        LogicalPlan::Scan {
            table,
            binding,
            projection,
            mut filters,
        } => {
            if tables.contains(&normalize_ident(&table)) {
                pulled.append(&mut filters);
                LogicalPlan::Scan {
                    table,
                    binding,
                    projection: None,
                    filters,
                }
            } else {
                LogicalPlan::Scan {
                    table,
                    binding,
                    projection,
                    filters,
                }
            }
        }
        LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
            input: Box::new(strip_scans(*input, tables, pulled)),
            predicate,
        },
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
        } => LogicalPlan::Join {
            left: Box::new(strip_scans(*left, tables, pulled)),
            right: Box::new(strip_scans(*right, tables, pulled)),
            kind,
            on,
        },
        other => other,
    }
}

/// The mediator's residual plan: the optimized plan with every scan's
/// pushed filters and projection blanked out — the backends have already
/// applied them, so the scan just reads the staged partial (keyed by the
/// normalized table name) as-is.
fn residual_plan(optimized: &LogicalPlan) -> LogicalPlan {
    fn blank(plan: &LogicalPlan) -> LogicalPlan {
        match plan {
            LogicalPlan::Scan { table, binding, .. } => LogicalPlan::Scan {
                table: normalize_ident(table),
                binding: binding.clone(),
                projection: None,
                filters: Vec::new(),
            },
            LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
                input: Box::new(blank(input)),
                predicate: predicate.clone(),
            },
            LogicalPlan::Join {
                left,
                right,
                kind,
                on,
            } => LogicalPlan::Join {
                left: Box::new(blank(left)),
                right: Box::new(blank(right)),
                kind: *kind,
                on: on.clone(),
            },
            LogicalPlan::Project { input, items, keys } => LogicalPlan::Project {
                input: Box::new(blank(input)),
                items: items.clone(),
                keys: keys.clone(),
            },
            LogicalPlan::Aggregate {
                input,
                items,
                group_by,
                having,
                keys,
            } => LogicalPlan::Aggregate {
                input: Box::new(blank(input)),
                items: items.clone(),
                group_by: group_by.clone(),
                having: having.clone(),
                keys: keys.clone(),
            },
            LogicalPlan::Sort { input, ascending } => LogicalPlan::Sort {
                input: Box::new(blank(input)),
                ascending: ascending.clone(),
            },
            LogicalPlan::Strip { input, drop } => LogicalPlan::Strip {
                input: Box::new(blank(input)),
                drop: *drop,
            },
            LogicalPlan::Distinct { input } => LogicalPlan::Distinct {
                input: Box::new(blank(input)),
            },
            LogicalPlan::Limit { input, limit } => LogicalPlan::Limit {
                input: Box::new(blank(input)),
                limit: *limit,
            },
        }
    }
    blank(optimized)
}

/// Rewrite an expression with all column qualifiers removed (the backend
/// sub-query has a single unaliased FROM).
fn strip_qualifiers(expr: &Expr) -> Expr {
    match expr {
        Expr::Column(c) => Expr::Column(ColumnRef {
            qualifier: None,
            column: c.column.clone(),
        }),
        Expr::Literal(v) => Expr::Literal(v.clone()),
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(strip_qualifiers(expr)),
        },
        Expr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(strip_qualifiers(left)),
            op: *op,
            right: Box::new(strip_qualifiers(right)),
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(strip_qualifiers(expr)),
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(strip_qualifiers(expr)),
            list: list.iter().map(strip_qualifiers).collect(),
            negated: *negated,
        },
        Expr::Between {
            expr,
            lo,
            hi,
            negated,
        } => Expr::Between {
            expr: Box::new(strip_qualifiers(expr)),
            lo: Box::new(strip_qualifiers(lo)),
            hi: Box::new(strip_qualifiers(hi)),
            negated: *negated,
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: Box::new(strip_qualifiers(expr)),
            pattern: pattern.clone(),
            negated: *negated,
        },
        Expr::Func { func, args } => Expr::Func {
            func: *func,
            args: args.iter().map(strip_qualifiers).collect(),
        },
        Expr::Aggregate {
            func,
            arg,
            distinct,
        } => Expr::Aggregate {
            func: *func,
            arg: arg.as_ref().map(|a| Box::new(strip_qualifiers(a))),
            distinct: *distinct,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CoreError;
    use gridfed_sqlkit::parser::parse_select;
    use gridfed_sqlkit::render::{render_select, NeutralStyle};

    struct StubResolver {
        homes: BTreeMap<String, Home>,
        cols: BTreeMap<String, Vec<String>>,
        rows: BTreeMap<String, u64>,
    }

    fn local(db: &str) -> Home {
        local_counted(db, 100)
    }

    fn local_counted(db: &str, row_count: usize) -> Home {
        Home::Local(TableLocation {
            database: db.into(),
            physical_table: "x".into(),
            url: format!("mysql://grid:grid@h:3306/{db}"),
            driver: "mysql".into(),
            vendor: "MySQL".into(),
            row_count,
        })
    }

    impl TableResolver for StubResolver {
        fn resolve(&self, logical: &str) -> Result<Home> {
            self.homes
                .get(logical)
                .cloned()
                .ok_or_else(|| CoreError::TableNotFound(logical.to_string()))
        }
        fn columns_of(&self, logical: &str) -> Option<Vec<String>> {
            self.cols.get(logical).cloned()
        }
        fn row_count_of(&self, logical: &str) -> Option<u64> {
            self.rows.get(logical).copied()
        }
    }

    fn resolver() -> StubResolver {
        let mut homes = BTreeMap::new();
        homes.insert("events".to_string(), local("mart1"));
        homes.insert("runs".to_string(), local("mart2"));
        homes.insert(
            "conditions".to_string(),
            Home::Remote {
                server_url: "clarens://远/das".into(),
            },
        );
        let mut cols = BTreeMap::new();
        cols.insert(
            "events".to_string(),
            vec!["e_id".into(), "run_id".into(), "energy".into()],
        );
        cols.insert("runs".to_string(), vec!["run_id".into(), "detector".into()]);
        StubResolver {
            homes,
            cols,
            rows: BTreeMap::new(),
        }
    }

    #[test]
    fn same_database_pushes_whole_statement() {
        let mut r = resolver();
        r.homes.insert("runs".to_string(), local("mart1"));
        let stmt =
            parse_select("SELECT e.e_id FROM events e JOIN runs r ON e.run_id = r.run_id").unwrap();
        match plan(&stmt, &r).unwrap() {
            QueryPlan::SingleDatabase { location, .. } => assert_eq!(location.database, "mart1"),
            other => panic!("expected single-database plan, got {other:?}"),
        }
    }

    #[test]
    fn all_remote_single_server_forwards() {
        let r = resolver();
        let stmt = parse_select("SELECT * FROM conditions WHERE temp > 5").unwrap();
        match plan(&stmt, &r).unwrap() {
            QueryPlan::ForwardAll { server_url, .. } => {
                assert!(server_url.contains("das"));
            }
            other => panic!("expected forward-all, got {other:?}"),
        }
    }

    #[test]
    fn cross_database_join_federates_with_pushdown() {
        let r = resolver();
        let stmt = parse_select(
            "SELECT e.e_id, r.detector FROM events e JOIN runs r ON e.run_id = r.run_id \
             WHERE e.energy > 50.0 AND r.detector = 'ecal'",
        )
        .unwrap();
        let plan = plan(&stmt, &r).unwrap();
        assert!(plan.distributed());
        let QueryPlan::Federated { tasks, .. } = plan else {
            panic!("expected federated");
        };
        assert_eq!(tasks.len(), 2);
        let ev = tasks.iter().find(|t| t.table == "events").unwrap();
        let sql = render_select(&ev.subquery, &NeutralStyle);
        assert!(sql.contains("energy"), "pushed filter: {sql}");
        assert!(
            !sql.contains("detector"),
            "foreign filter not pushed: {sql}"
        );
        let ru = tasks.iter().find(|t| t.table == "runs").unwrap();
        let sql = render_select(&ru.subquery, &NeutralStyle);
        assert!(sql.contains("'ecal'"), "runs filter pushed: {sql}");
    }

    #[test]
    fn column_pruning_fetches_only_needed() {
        let r = resolver();
        let stmt =
            parse_select("SELECT e.e_id FROM events e JOIN runs r ON e.run_id = r.run_id").unwrap();
        let QueryPlan::Federated { tasks, .. } = plan(&stmt, &r).unwrap() else {
            panic!()
        };
        let ev = tasks.iter().find(|t| t.table == "events").unwrap();
        let sql = render_select(&ev.subquery, &NeutralStyle);
        assert!(sql.contains("e_id") && sql.contains("run_id"));
        assert!(!sql.contains("energy"), "unused column pruned: {sql}");
    }

    #[test]
    fn wildcard_disables_pruning() {
        let r = resolver();
        let stmt =
            parse_select("SELECT * FROM events e JOIN runs r ON e.run_id = r.run_id").unwrap();
        let QueryPlan::Federated { tasks, .. } = plan(&stmt, &r).unwrap() else {
            panic!()
        };
        for task in &tasks {
            assert_eq!(task.subquery.items, vec![SelectItem::Wildcard]);
        }
    }

    #[test]
    fn self_join_disables_pushdown() {
        let mut r = resolver();
        // put runs remote so the query federates while events is bound twice
        r.homes.insert("events".to_string(), local("mart1"));
        let stmt = parse_select(
            "SELECT a.e_id FROM events a JOIN events b ON a.run_id = b.run_id \
             JOIN runs r ON a.run_id = r.run_id WHERE a.energy > 1.0",
        )
        .unwrap();
        let QueryPlan::Federated { tasks, .. } = plan(&stmt, &r).unwrap() else {
            panic!()
        };
        let ev = tasks.iter().find(|t| t.table == "events").unwrap();
        assert!(
            ev.subquery.where_clause.is_none(),
            "self-join must not push"
        );
        // and only one task for the twice-bound table
        assert_eq!(tasks.iter().filter(|t| t.table == "events").count(), 1);
    }

    #[test]
    fn limit_pushed_only_for_simple_single_table() {
        // single table, remote + local mix impossible with one table; use a
        // federated single-table case by making the table remote and one
        // local… simplest: two tables to prevent, one to allow.
        let mut r = resolver();
        r.homes.insert(
            "events".to_string(),
            Home::Remote {
                server_url: "clarens://a/das".into(),
            },
        );
        r.homes.insert("runs".to_string(), local("mart2"));
        // Single remote table + single local table → federated, no push.
        let stmt =
            parse_select("SELECT e.e_id FROM events e JOIN runs r ON e.run_id = r.run_id LIMIT 5")
                .unwrap();
        let QueryPlan::Federated { tasks, .. } = plan(&stmt, &r).unwrap() else {
            panic!()
        };
        assert!(tasks.iter().all(|t| t.subquery.limit.is_none()));
    }

    #[test]
    fn reduction_flows_from_small_branch_to_big() {
        let mut r = resolver();
        r.rows.insert("events".to_string(), 1_000_000);
        r.rows.insert("runs".to_string(), 100);
        let stmt = parse_select(
            "SELECT e.e_id, r.detector FROM events e JOIN runs r ON e.run_id = r.run_id",
        )
        .unwrap();
        let QueryPlan::Federated { tasks, .. } = plan(&stmt, &r).unwrap() else {
            panic!("expected federated");
        };
        let ev = tasks.iter().find(|t| t.table == "events").unwrap();
        let ru = tasks.iter().find(|t| t.table == "runs").unwrap();
        assert_eq!(ev.est_rows, Some(1_000_000));
        assert_eq!(ru.est_rows, Some(100));
        assert!(ru.reductions.is_empty() && ru.wave == 0, "small side leads");
        assert_eq!(ev.wave, 1, "big side waits for the keys");
        assert_eq!(
            ev.reductions,
            vec![Reduction {
                source_table: "runs".into(),
                source_column: "run_id".into(),
                target_column: "run_id".into(),
                est_keys: 100,
            }]
        );
        assert_eq!(
            ev.reductions[0].strategy(),
            "bloom",
            "100 keys > IN-list cap"
        );
    }

    #[test]
    fn small_key_estimate_plans_an_in_list() {
        let mut r = resolver();
        r.rows.insert("events".to_string(), 1_000_000);
        r.rows.insert("runs".to_string(), 10);
        let stmt =
            parse_select("SELECT e.e_id FROM events e JOIN runs r ON e.run_id = r.run_id").unwrap();
        let QueryPlan::Federated { tasks, .. } = plan(&stmt, &r).unwrap() else {
            panic!()
        };
        let ev = tasks.iter().find(|t| t.table == "events").unwrap();
        assert_eq!(ev.reductions[0].strategy(), "in-list");
    }

    #[test]
    fn comparable_sides_keep_full_scatter() {
        // Both branches estimate 100 rows: shipping one side's keys cannot
        // shrink the other 4×, so the cost model keeps the plain scatter.
        let r = resolver();
        let stmt =
            parse_select("SELECT e.e_id FROM events e JOIN runs r ON e.run_id = r.run_id").unwrap();
        let QueryPlan::Federated { tasks, .. } = plan(&stmt, &r).unwrap() else {
            panic!()
        };
        assert!(tasks.iter().all(|t| t.reductions.is_empty() && t.wave == 0));
    }

    #[test]
    fn oversized_key_set_keeps_full_scatter() {
        let mut r = resolver();
        r.rows
            .insert("events".to_string(), REDUCTION_MAX_KEYS * 100);
        r.rows.insert("runs".to_string(), REDUCTION_MAX_KEYS + 1);
        let stmt =
            parse_select("SELECT e.e_id FROM events e JOIN runs r ON e.run_id = r.run_id").unwrap();
        let QueryPlan::Federated { tasks, .. } = plan(&stmt, &r).unwrap() else {
            panic!()
        };
        assert!(tasks.iter().all(|t| t.reductions.is_empty()));
    }

    #[test]
    fn stale_registration_count_no_longer_drives_the_plan() {
        // Regression for the stale-cardinality bug: `events` was registered
        // empty (XSpec hint 0) and then 10k rows were loaded. The live count
        // must win, so `events` is the BIG side receiving the reduction —
        // the frozen hint would have shipped 10k keys in the wrong
        // direction.
        let mut r = resolver();
        r.homes
            .insert("events".to_string(), local_counted("mart1", 0));
        r.rows.insert("events".to_string(), 10_000);
        let stmt =
            parse_select("SELECT e.e_id FROM events e JOIN runs r ON e.run_id = r.run_id").unwrap();
        let QueryPlan::Federated { tasks, .. } = plan(&stmt, &r).unwrap() else {
            panic!()
        };
        let ev = tasks.iter().find(|t| t.table == "events").unwrap();
        let ru = tasks.iter().find(|t| t.table == "runs").unwrap();
        assert_eq!(ev.est_rows, Some(10_000), "live count supersedes XSpec");
        assert_eq!(ev.reductions.len(), 1, "big side is reduced");
        assert_eq!(ev.reductions[0].source_table, "runs");
        assert!(ru.reductions.is_empty());
    }

    #[test]
    fn unknown_remote_estimate_is_assumed_big() {
        // `conditions` lives on a remote server with no published row
        // count: it is assumed big, and the known-small local side reduces
        // it — the join asserts the key column exists there.
        let mut r = resolver();
        r.rows.insert("runs".to_string(), 100);
        let stmt =
            parse_select("SELECT r.detector FROM runs r JOIN conditions c ON r.run_id = c.run_id")
                .unwrap();
        let QueryPlan::Federated { tasks, .. } = plan(&stmt, &r).unwrap() else {
            panic!()
        };
        let cond = tasks.iter().find(|t| t.table == "conditions").unwrap();
        assert_eq!(cond.est_rows, None);
        assert_eq!(cond.wave, 1);
        assert_eq!(cond.reductions.len(), 1);
        assert_eq!(cond.reductions[0].source_table, "runs");
        assert_eq!(cond.reductions[0].target_column, "run_id");
    }

    #[test]
    fn reductions_chain_along_the_scatter_order() {
        // runs (10) → events (10k) → conditions (unknown): two waves of
        // reduction chained along ascending estimated size.
        let mut r = resolver();
        r.rows.insert("events".to_string(), 10_000);
        r.rows.insert("runs".to_string(), 10);
        let stmt = parse_select(
            "SELECT e.e_id FROM events e JOIN runs r ON e.run_id = r.run_id \
             JOIN conditions c ON e.e_id = c.e_id",
        )
        .unwrap();
        let QueryPlan::Federated { tasks, .. } = plan(&stmt, &r).unwrap() else {
            panic!()
        };
        let ru = tasks.iter().find(|t| t.table == "runs").unwrap();
        let ev = tasks.iter().find(|t| t.table == "events").unwrap();
        let cond = tasks.iter().find(|t| t.table == "conditions").unwrap();
        assert_eq!((ru.wave, ev.wave, cond.wave), (0, 1, 2));
        assert_eq!(ev.reductions[0].source_table, "runs");
        assert_eq!(cond.reductions[0].source_table, "events");
    }

    #[test]
    fn twice_bound_target_is_never_reduced() {
        // A shared fetch serves both bindings of `events`; a key filter
        // derived from one binding's join would starve the other.
        let mut r = resolver();
        r.rows.insert("events".to_string(), 1_000_000);
        r.rows.insert("runs".to_string(), 10);
        let stmt = parse_select(
            "SELECT a.e_id FROM events a JOIN events b ON a.run_id = b.run_id \
             JOIN runs r ON a.run_id = r.run_id",
        )
        .unwrap();
        let QueryPlan::Federated { tasks, .. } = plan(&stmt, &r).unwrap() else {
            panic!()
        };
        let ev = tasks.iter().find(|t| t.table == "events").unwrap();
        assert!(ev.reductions.is_empty());
    }

    #[test]
    fn unknown_table_errors() {
        let r = resolver();
        let stmt = parse_select("SELECT * FROM ghosts").unwrap();
        assert!(matches!(plan(&stmt, &r), Err(CoreError::TableNotFound(_))));
    }

    #[test]
    fn unknown_schema_falls_back_to_wildcard_no_pushdown() {
        let r = resolver();
        let stmt = parse_select(
            "SELECT c.temp FROM conditions c JOIN runs r ON c.run_id = r.run_id \
             WHERE c.temp > 1.0",
        )
        .unwrap();
        let QueryPlan::Federated { tasks, .. } = plan(&stmt, &r).unwrap() else {
            panic!()
        };
        let cond = tasks.iter().find(|t| t.table == "conditions").unwrap();
        assert_eq!(cond.subquery.items, vec![SelectItem::Wildcard]);
        assert!(cond.subquery.where_clause.is_none());
    }
}

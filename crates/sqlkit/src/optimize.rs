//! Rule-based optimizer over the logical plan IR.
//!
//! Four passes, each independently switchable through [`PassSet`] (the
//! benchmark harness runs them disabled to measure their effect):
//!
//! 1. **Constant folding** — fully-constant subexpressions become literals;
//!    `AND`/`OR` with a literal boolean side simplify.
//! 2. **Predicate pushdown** — WHERE conjuncts attributable to a single scan
//!    move into that [`LogicalPlan::Scan`]'s `filters`, stopping at the
//!    null-supplying side of outer joins.
//! 3. **Join reordering** — chains of three or more INNER-joined scans are
//!    greedily reordered by estimated cardinality (fed by
//!    [`PlanCatalog::row_count`]), preferring joins connected by a predicate
//!    over cross products.
//! 4. **Projection pruning** — each scan's emitted columns shrink to the set
//!    the rest of the plan references.
//!
//! Schema and cardinality knowledge comes from a [`PlanCatalog`]; passes
//! degrade gracefully (skip, never guess) when the catalog draws a blank.

use crate::ast::{BinaryOp, ColumnRef, Expr, JoinKind, SelectItem};
use crate::compile::compile;
use crate::expr::Bindings;
use crate::plan::LogicalPlan;
use gridfed_storage::Value;
use std::collections::{HashMap, HashSet};

/// Schema and statistics oracle for the optimizer.
pub trait PlanCatalog {
    /// Column names of a table, in schema order, if known.
    fn columns(&self, table: &str) -> Option<Vec<String>>;
    /// Estimated (or exact) row count of a table, if known.
    fn row_count(&self, table: &str) -> Option<u64>;
}

/// A catalog that knows nothing: pushdown still works for single-table
/// queries, pruning and join reordering stand down.
pub struct NoCatalog;

impl PlanCatalog for NoCatalog {
    fn columns(&self, _table: &str) -> Option<Vec<String>> {
        None
    }
    fn row_count(&self, _table: &str) -> Option<u64> {
        None
    }
}

/// Which optimizer passes run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassSet {
    /// Fold constant subexpressions.
    pub fold_constants: bool,
    /// Push WHERE conjuncts into scans.
    pub pushdown_predicates: bool,
    /// Reorder inner-join chains by cardinality.
    pub reorder_joins: bool,
    /// Prune unused scan columns.
    pub prune_projections: bool,
}

impl PassSet {
    /// Every pass enabled.
    pub const ALL: PassSet = PassSet {
        fold_constants: true,
        pushdown_predicates: true,
        reorder_joins: true,
        prune_projections: true,
    };

    /// Every pass disabled (the naive interpretation baseline).
    pub const NONE: PassSet = PassSet {
        fold_constants: false,
        pushdown_predicates: false,
        reorder_joins: false,
        prune_projections: false,
    };
}

impl Default for PassSet {
    fn default() -> Self {
        PassSet::ALL
    }
}

/// Run the full pass pipeline.
pub fn optimize(plan: LogicalPlan, catalog: &dyn PlanCatalog) -> LogicalPlan {
    optimize_with(plan, catalog, PassSet::ALL)
}

/// Run the selected passes, in pipeline order.
pub fn optimize_with(
    mut plan: LogicalPlan,
    catalog: &dyn PlanCatalog,
    passes: PassSet,
) -> LogicalPlan {
    if passes.fold_constants {
        plan = fold_plan(plan);
    }
    if passes.pushdown_predicates {
        plan = pushdown_plan(plan, catalog);
    }
    if passes.reorder_joins {
        plan = reorder_plan(plan, catalog);
    }
    if passes.prune_projections {
        plan = prune_plan(plan, catalog);
    }
    plan
}

// ---------------------------------------------------------------------------
// Pass 1: constant folding
// ---------------------------------------------------------------------------

fn fold_plan(plan: LogicalPlan) -> LogicalPlan {
    map_exprs(plan, &fold_expr)
}

/// Apply `f` to every expression the plan holds, recursing into children.
fn map_exprs(plan: LogicalPlan, f: &dyn Fn(Expr) -> Expr) -> LogicalPlan {
    match plan {
        LogicalPlan::Scan {
            table,
            binding,
            projection,
            filters,
        } => LogicalPlan::Scan {
            table,
            binding,
            projection,
            filters: filters.into_iter().map(f).collect(),
        },
        LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
            input: Box::new(map_exprs(*input, f)),
            predicate: f(predicate),
        },
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
        } => LogicalPlan::Join {
            left: Box::new(map_exprs(*left, f)),
            right: Box::new(map_exprs(*right, f)),
            kind,
            on: on.map(f),
        },
        LogicalPlan::Project { input, items, keys } => LogicalPlan::Project {
            input: Box::new(map_exprs(*input, f)),
            items: items.into_iter().map(|it| map_item(it, f)).collect(),
            keys: keys
                .into_iter()
                .map(|mut k| {
                    k.expr = f(k.expr);
                    k
                })
                .collect(),
        },
        LogicalPlan::Aggregate {
            input,
            items,
            group_by,
            having,
            keys,
        } => LogicalPlan::Aggregate {
            input: Box::new(map_exprs(*input, f)),
            items: items.into_iter().map(|it| map_item(it, f)).collect(),
            group_by: group_by.into_iter().map(f).collect(),
            having: having.map(f),
            keys: keys
                .into_iter()
                .map(|mut k| {
                    k.expr = f(k.expr);
                    k
                })
                .collect(),
        },
        LogicalPlan::Sort { input, ascending } => LogicalPlan::Sort {
            input: Box::new(map_exprs(*input, f)),
            ascending,
        },
        LogicalPlan::Strip { input, drop } => LogicalPlan::Strip {
            input: Box::new(map_exprs(*input, f)),
            drop,
        },
        LogicalPlan::Distinct { input } => LogicalPlan::Distinct {
            input: Box::new(map_exprs(*input, f)),
        },
        LogicalPlan::Limit { input, limit } => LogicalPlan::Limit {
            input: Box::new(map_exprs(*input, f)),
            limit,
        },
    }
}

fn map_item(item: SelectItem, f: &dyn Fn(Expr) -> Expr) -> SelectItem {
    match item {
        SelectItem::Expr { expr, alias } => SelectItem::Expr {
            expr: f(expr),
            alias,
        },
        other => other,
    }
}

/// Fold one expression bottom-up. A node whose children are all literals is
/// evaluated on the spot (evaluation errors leave it unfolded, preserving
/// runtime error behaviour); `AND`/`OR` with one literal boolean side
/// simplify by three-valued-logic identities.
pub fn fold_expr(expr: Expr) -> Expr {
    let expr = match expr {
        Expr::Unary { op, expr } => Expr::Unary {
            op,
            expr: Box::new(fold_expr(*expr)),
        },
        Expr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(fold_expr(*left)),
            op,
            right: Box::new(fold_expr(*right)),
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(fold_expr(*expr)),
            negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(fold_expr(*expr)),
            list: list.into_iter().map(fold_expr).collect(),
            negated,
        },
        Expr::Between {
            expr,
            lo,
            hi,
            negated,
        } => Expr::Between {
            expr: Box::new(fold_expr(*expr)),
            lo: Box::new(fold_expr(*lo)),
            hi: Box::new(fold_expr(*hi)),
            negated,
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: Box::new(fold_expr(*expr)),
            pattern,
            negated,
        },
        Expr::Func { func, args } => Expr::Func {
            func,
            args: args.into_iter().map(fold_expr).collect(),
        },
        Expr::Aggregate {
            func,
            arg,
            distinct,
        } => Expr::Aggregate {
            func,
            arg: arg.map(|a| Box::new(fold_expr(*a))),
            distinct,
        },
        leaf @ (Expr::Literal(_) | Expr::Column(_)) => leaf,
    };

    // Boolean identities on a literal side (sound under 3VL).
    if let Expr::Binary { left, op, right } = &expr {
        let fold_and_or = |lit: &Expr, other: &Expr| -> Option<Expr> {
            if let Expr::Literal(Value::Bool(b)) = lit {
                return Some(match (op, b) {
                    (BinaryOp::And, true) | (BinaryOp::Or, false) => other.clone(),
                    (BinaryOp::And, false) => Expr::Literal(Value::Bool(false)),
                    (BinaryOp::Or, true) => Expr::Literal(Value::Bool(true)),
                    _ => return None,
                });
            }
            None
        };
        if matches!(op, BinaryOp::And | BinaryOp::Or) {
            if let Some(simplified) = fold_and_or(left, right).or_else(|| fold_and_or(right, left))
            {
                return simplified;
            }
        }
    }

    if all_children_literal(&expr) && !matches!(expr, Expr::Literal(_) | Expr::Aggregate { .. }) {
        // Folded by the evaluator queries run on; an error leaves the node
        // for execution to raise.
        if let Ok(v) = compile(&expr, &Bindings::default()).and_then(|c| c.eval(&[])) {
            return Expr::Literal(v);
        }
    }
    expr
}

fn all_children_literal(expr: &Expr) -> bool {
    match expr {
        Expr::Literal(_) => true,
        Expr::Column(_) | Expr::Aggregate { .. } => false,
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Like { expr, .. } => {
            matches!(expr.as_ref(), Expr::Literal(_))
        }
        Expr::Binary { left, right, .. } => {
            matches!(left.as_ref(), Expr::Literal(_)) && matches!(right.as_ref(), Expr::Literal(_))
        }
        Expr::Between { expr, lo, hi, .. } => {
            matches!(expr.as_ref(), Expr::Literal(_))
                && matches!(lo.as_ref(), Expr::Literal(_))
                && matches!(hi.as_ref(), Expr::Literal(_))
        }
        Expr::InList { expr, list, .. } => {
            matches!(expr.as_ref(), Expr::Literal(_))
                && list.iter().all(|e| matches!(e, Expr::Literal(_)))
        }
        Expr::Func { args, .. } => args.iter().all(|e| matches!(e, Expr::Literal(_))),
    }
}

// ---------------------------------------------------------------------------
// Scan attribution: deciding which scan a column (or predicate) belongs to
// ---------------------------------------------------------------------------

/// What the optimizer knows about one scan leaf.
#[derive(Debug, Clone)]
struct ScanInfo {
    binding: String,
    columns: Option<Vec<String>>,
}

fn scan_infos(plan: &LogicalPlan, catalog: &dyn PlanCatalog) -> Vec<ScanInfo> {
    plan.scans()
        .into_iter()
        .filter_map(|s| scan_info(s, catalog))
        .collect()
}

/// What a column reference can be attributed by: a scan's binding and, when
/// the catalog knows them, its columns. `None` for any other node.
fn scan_info(plan: &LogicalPlan, catalog: &dyn PlanCatalog) -> Option<ScanInfo> {
    let LogicalPlan::Scan { table, binding, .. } = plan else {
        return None;
    };
    Some(ScanInfo {
        binding: binding.clone(),
        columns: catalog.columns(table),
    })
}

/// Index of the scan a column reference belongs to, or `None` when the
/// reference cannot be attributed with certainty.
fn attribute_column(cref: &ColumnRef, scans: &[ScanInfo]) -> Option<usize> {
    if let Some(q) = &cref.qualifier {
        return scans.iter().position(|s| s.binding.eq_ignore_ascii_case(q));
    }
    if scans.len() == 1 {
        // Single table: every unqualified column is its, known schema or not.
        return Some(0);
    }
    // Multi-table: need full schema knowledge to attribute safely.
    if scans.iter().any(|s| s.columns.is_none()) {
        return None;
    }
    let mut owner = None;
    for (i, s) in scans.iter().enumerate() {
        let cols = s.columns.as_deref().unwrap_or_default();
        if cols.iter().any(|c| c.eq_ignore_ascii_case(&cref.column)) {
            if owner.is_some() {
                return None; // ambiguous
            }
            owner = Some(i);
        }
    }
    owner
}

/// Index of the single scan owning every column in `expr`, if one exists.
fn owner_scan(expr: &Expr, scans: &[ScanInfo]) -> Option<usize> {
    let mut cols = Vec::new();
    expr.collect_columns(&mut cols);
    if cols.is_empty() || expr.contains_aggregate() {
        return None;
    }
    let mut owner = None;
    for c in cols {
        let at = attribute_column(c, scans)?;
        match owner {
            None => owner = Some(at),
            Some(prev) if prev == at => {}
            Some(_) => return None,
        }
    }
    owner
}

// ---------------------------------------------------------------------------
// Pass 2: predicate pushdown
// ---------------------------------------------------------------------------

fn pushdown_plan(plan: LogicalPlan, catalog: &dyn PlanCatalog) -> LogicalPlan {
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            let scans = scan_infos(&input, catalog);
            // A division can raise on a row the join would drop: over a join,
            // a WHERE that divides stays where the statement puts it.
            let mut divides = |e: &Expr| matches!(e, Expr::Binary { op, .. } if op.divides());
            if scans.len() > 1 && predicate.any(&mut divides) {
                return LogicalPlan::Filter { input, predicate };
            }
            let conjuncts: Vec<Expr> = predicate.conjuncts().into_iter().cloned().collect();
            let mut residual = Vec::new();
            let mut routed: Vec<(usize, Expr)> = Vec::new();
            for c in conjuncts {
                match owner_scan(&c, &scans) {
                    Some(i) => routed.push((i, c)),
                    None => residual.push(c),
                }
            }
            let mut rejected = Vec::new();
            let input = route_into(*input, &scans, &mut routed, &mut rejected, false);
            residual.extend(rejected.into_iter().map(|(_, c)| c));
            debug_assert!(routed.is_empty(), "all routed conjuncts consumed");
            match Expr::conjoin(residual) {
                Some(predicate) => LogicalPlan::Filter {
                    input: Box::new(input),
                    predicate,
                },
                None => input,
            }
        }
        other => rebuild_children(other, &|child| pushdown_plan(child, catalog)),
    }
}

/// Walk the join tree delivering routed conjuncts to their scans. Conjuncts
/// whose scan sits below the null-supplying (right) side of a LEFT OUTER
/// join are rejected back to the residual filter: filtering that side before
/// the join would change which rows get null-extended.
fn route_into(
    plan: LogicalPlan,
    scans: &[ScanInfo],
    routed: &mut Vec<(usize, Expr)>,
    rejected: &mut Vec<(usize, Expr)>,
    null_supplying: bool,
) -> LogicalPlan {
    match plan {
        LogicalPlan::Scan {
            table,
            binding,
            projection,
            mut filters,
        } => {
            let me = scans
                .iter()
                .position(|s| s.binding.eq_ignore_ascii_case(&binding));
            let mut keep = Vec::new();
            for (i, c) in routed.drain(..) {
                if Some(i) == me {
                    if null_supplying {
                        rejected.push((i, c));
                    } else {
                        filters.push(c);
                    }
                } else {
                    keep.push((i, c));
                }
            }
            *routed = keep;
            LogicalPlan::Scan {
                table,
                binding,
                projection,
                filters,
            }
        }
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
        } => {
            let left = route_into(*left, scans, routed, rejected, null_supplying);
            let right_null = null_supplying || kind == JoinKind::LeftOuter;
            let right = route_into(*right, scans, routed, rejected, right_null);
            LogicalPlan::Join {
                left: Box::new(left),
                right: Box::new(right),
                kind,
                on,
            }
        }
        // Any other node shape below a WHERE filter is left untouched;
        // conjuncts aimed past it bounce back to the residual.
        other => {
            rejected.append(routed);
            other
        }
    }
}

fn rebuild_children(plan: LogicalPlan, f: &dyn Fn(LogicalPlan) -> LogicalPlan) -> LogicalPlan {
    match plan {
        leaf @ LogicalPlan::Scan { .. } => leaf,
        LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
            input: Box::new(f(*input)),
            predicate,
        },
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
        } => LogicalPlan::Join {
            left: Box::new(f(*left)),
            right: Box::new(f(*right)),
            kind,
            on,
        },
        LogicalPlan::Project { input, items, keys } => LogicalPlan::Project {
            input: Box::new(f(*input)),
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
            input: Box::new(f(*input)),
            items,
            group_by,
            having,
            keys,
        },
        LogicalPlan::Sort { input, ascending } => LogicalPlan::Sort {
            input: Box::new(f(*input)),
            ascending,
        },
        LogicalPlan::Strip { input, drop } => LogicalPlan::Strip {
            input: Box::new(f(*input)),
            drop,
        },
        LogicalPlan::Distinct { input } => LogicalPlan::Distinct {
            input: Box::new(f(*input)),
        },
        LogicalPlan::Limit { input, limit } => LogicalPlan::Limit {
            input: Box::new(f(*input)),
            limit,
        },
    }
}

// ---------------------------------------------------------------------------
// Pass 3: cardinality-based join reordering
// ---------------------------------------------------------------------------

fn reorder_plan(plan: LogicalPlan, catalog: &dyn PlanCatalog) -> LogicalPlan {
    match plan {
        LogicalPlan::Project { input, items, keys } => {
            let before: Vec<String> = binding_order(&input);
            let input = reorder_subtree(*input, catalog);
            let after: Vec<String> = binding_order(&input);
            // `SELECT *` expands in scan order; if reordering changed that
            // order, pin the original through qualified wildcards.
            let items =
                if before != after && items.iter().any(|i| matches!(i, SelectItem::Wildcard)) {
                    items
                        .into_iter()
                        .flat_map(|item| match item {
                            SelectItem::Wildcard => before
                                .iter()
                                .map(|b| SelectItem::QualifiedWildcard(b.clone()))
                                .collect::<Vec<_>>(),
                            other => vec![other],
                        })
                        .collect()
                } else {
                    items
                };
            LogicalPlan::Project {
                input: Box::new(input),
                items,
                keys,
            }
        }
        LogicalPlan::Aggregate {
            input,
            items,
            group_by,
            having,
            keys,
        } => LogicalPlan::Aggregate {
            input: Box::new(reorder_subtree(*input, catalog)),
            items,
            group_by,
            having,
            keys,
        },
        other => rebuild_children(other, &|child| reorder_plan(child, catalog)),
    }
}

fn binding_order(plan: &LogicalPlan) -> Vec<String> {
    let binding = |s: &LogicalPlan| match s {
        LogicalPlan::Scan { binding, .. } => Some(binding.clone()),
        _ => None,
    };
    plan.scans().into_iter().filter_map(binding).collect()
}

fn reorder_subtree(plan: LogicalPlan, catalog: &dyn PlanCatalog) -> LogicalPlan {
    match plan {
        LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
            input: Box::new(reorder_subtree(*input, catalog)),
            predicate,
        },
        join @ LogicalPlan::Join { .. } => try_reorder_chain(join, catalog),
        other => other,
    }
}

/// Flatten a left-deep chain of INNER joins over plain scans; reorder the
/// scans greedily by estimated cardinality, preferring predicate-connected
/// joins; rebuild left-deep. Chains under three relations, non-inner joins,
/// non-scan leaves, or missing statistics leave the plan untouched.
fn try_reorder_chain(join: LogicalPlan, catalog: &dyn PlanCatalog) -> LogicalPlan {
    let mut leaves = Vec::new();
    let mut conditions = Vec::new();
    if !flatten_inner(&join, &mut leaves, &mut conditions) || leaves.len() < 3 {
        return join;
    }

    // Cost model: table cardinality from the catalog, quartered per pushed
    // filter. Any unknown leaf aborts the pass.
    let mut estimates = Vec::with_capacity(leaves.len());
    for leaf in &leaves {
        let LogicalPlan::Scan { table, filters, .. } = leaf else {
            return join;
        };
        let Some(rows) = catalog.row_count(table) else {
            return join;
        };
        let est = (rows >> (2 * filters.len().min(16) as u32)).max(1);
        estimates.push(est);
    }

    // Every leaf is a scan (checked above).
    let scans: Vec<ScanInfo> = leaves
        .iter()
        .filter_map(|l| scan_info(l, catalog))
        .collect();

    // Which leaves each condition touches; unattributable conditions abort.
    let mut cond_sets: Vec<(Expr, HashSet<usize>)> = Vec::new();
    for cond in &conditions {
        let mut cols = Vec::new();
        cond.collect_columns(&mut cols);
        let mut touched = HashSet::new();
        for c in cols {
            match attribute_column(c, &scans) {
                Some(i) => {
                    touched.insert(i);
                }
                None => return join,
            }
        }
        cond_sets.push((cond.clone(), touched));
    }

    // Greedy order: smallest leaf first, then the smallest leaf connected to
    // the chosen set by some condition; fall back to smallest overall.
    let n = leaves.len();
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut remaining: Vec<usize> = (0..n).collect();
    remaining.sort_by_key(|&i| (estimates[i], i));
    order.push(remaining.remove(0));
    while !remaining.is_empty() {
        let connected = |cand: usize| {
            cond_sets.iter().any(|(_, set)| {
                set.contains(&cand) && set.iter().any(|i| order.contains(i)) && set.len() > 1
            })
        };
        let pos = remaining
            .iter()
            .position(|&cand| connected(cand))
            .unwrap_or(0);
        order.push(remaining.remove(pos));
    }

    if order.iter().copied().eq(0..n) {
        return join; // already optimal under this model
    }

    // Rebuild left-deep, attaching each condition to the first join where
    // all its leaves are available.
    let mut built: Vec<Option<LogicalPlan>> = leaves.into_iter().map(Some).collect();
    // `order` is a permutation of the leaves: each is taken once.
    let mut in_order = order.iter().filter_map(|&i| Some((i, built[i].take()?)));
    let Some((first, mut tree)) = in_order.next() else {
        return join;
    };
    let mut available: HashSet<usize> = HashSet::from([first]);
    let mut unplaced = cond_sets;
    for (next, leaf) in in_order {
        available.insert(next);
        let (here, later): (Vec<_>, Vec<_>) = unplaced
            .into_iter()
            .partition(|(_, set)| set.iter().all(|i| available.contains(i)));
        unplaced = later;
        tree = LogicalPlan::Join {
            left: Box::new(tree),
            right: Box::new(leaf),
            kind: JoinKind::Inner,
            on: Expr::conjoin(here.into_iter().map(|(c, _)| c).collect()),
        };
    }
    debug_assert!(unplaced.is_empty(), "every condition placed");
    tree
}

/// Collect leaves and ON conjuncts of a left-deep inner-join chain.
/// Returns false if any join in the chain is not INNER.
fn flatten_inner(plan: &LogicalPlan, leaves: &mut Vec<LogicalPlan>, conds: &mut Vec<Expr>) -> bool {
    match plan {
        LogicalPlan::Join {
            left,
            right,
            kind: JoinKind::Inner,
            on,
        } => {
            if !flatten_inner(left, leaves, conds) {
                return false;
            }
            leaves.push((**right).clone());
            if let Some(cond) = on {
                conds.extend(cond.conjuncts().into_iter().cloned());
            }
            true
        }
        LogicalPlan::Join { .. } => false,
        other => {
            leaves.push(other.clone());
            true
        }
    }
}

// ---------------------------------------------------------------------------
// Pass 4: projection pruning
// ---------------------------------------------------------------------------

/// Column requirement for one scan.
#[derive(Debug, Clone)]
enum Need {
    All,
    Cols(HashSet<String>),
}

impl Need {
    fn add(&mut self, col: &str) {
        if let Need::Cols(set) = self {
            set.insert(col.to_ascii_lowercase());
        }
    }
}

fn prune_plan(plan: LogicalPlan, catalog: &dyn PlanCatalog) -> LogicalPlan {
    match plan {
        LogicalPlan::Project { input, items, keys } => {
            let input = prune_under(*input, &items, keys.iter().map(|k| &k.expr), catalog);
            LogicalPlan::Project {
                input: Box::new(input),
                items,
                keys,
            }
        }
        LogicalPlan::Aggregate {
            input,
            items,
            group_by,
            having,
            keys,
        } => {
            let exprs = group_by
                .iter()
                .chain(&having)
                .chain(keys.iter().map(|k| &k.expr));
            let input = prune_under(*input, &items, exprs, catalog);
            LogicalPlan::Aggregate {
                input: Box::new(input),
                items,
                group_by,
                having,
                keys,
            }
        }
        other => rebuild_children(other, &|child| prune_plan(child, catalog)),
    }
}

/// The scans below a `Project` or `Aggregate` narrowed to the columns its
/// `items` and its other expressions (sort keys, GROUP BY, HAVING) read: a
/// wildcard needs every column of every scan, `t.*` every column of `t`.
fn prune_under<'a>(
    input: LogicalPlan,
    items: &[SelectItem],
    exprs: impl Iterator<Item = &'a Expr>,
    catalog: &dyn PlanCatalog,
) -> LogicalPlan {
    let scans = scan_infos(&input, catalog);
    let mut needs: HashMap<String, Need> = scans
        .iter()
        .map(|s| (s.binding.to_ascii_lowercase(), Need::Cols(HashSet::new())))
        .collect();
    for item in items {
        match item {
            SelectItem::Wildcard => {
                for need in needs.values_mut() {
                    *need = Need::All;
                }
            }
            SelectItem::QualifiedWildcard(q) => {
                if let Some(need) = needs.get_mut(&q.to_ascii_lowercase()) {
                    *need = Need::All;
                }
            }
            SelectItem::Expr { expr, .. } => require_expr(expr, &scans, &mut needs),
        }
    }
    for e in exprs {
        require_expr(e, &scans, &mut needs);
    }
    collect_and_apply(input, &scans, &mut needs, catalog)
}

/// Record every column `expr` references. Unattributable references widen
/// every scan to `All` (never guess).
fn require_expr(expr: &Expr, scans: &[ScanInfo], needs: &mut HashMap<String, Need>) {
    let mut cols = Vec::new();
    expr.collect_columns(&mut cols);
    for c in cols {
        match attribute_column(c, scans) {
            Some(i) => {
                if let Some(need) = needs.get_mut(&scans[i].binding.to_ascii_lowercase()) {
                    need.add(&c.column);
                }
            }
            None => {
                for need in needs.values_mut() {
                    *need = Need::All;
                }
                return;
            }
        }
    }
}

/// First collect requirements from residual filters and join conditions
/// below the projection, then rewrite each scan's column list.
fn collect_and_apply(
    plan: LogicalPlan,
    scans: &[ScanInfo],
    needs: &mut HashMap<String, Need>,
    catalog: &dyn PlanCatalog,
) -> LogicalPlan {
    collect_below(&plan, scans, needs);
    apply_projection(plan, needs, catalog)
}

fn collect_below(plan: &LogicalPlan, scans: &[ScanInfo], needs: &mut HashMap<String, Need>) {
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            require_expr(predicate, scans, needs);
            collect_below(input, scans, needs);
        }
        LogicalPlan::Join {
            left, right, on, ..
        } => {
            if let Some(cond) = on {
                require_expr(cond, scans, needs);
            }
            collect_below(left, scans, needs);
            collect_below(right, scans, needs);
        }
        // Scan filters run before projection inside the node; they impose
        // no requirement on the emitted columns.
        LogicalPlan::Scan { .. } => {}
        other => {
            // Unexpected shapes below a projection: require everything.
            for need in needs.values_mut() {
                *need = Need::All;
            }
            for child in other.children() {
                collect_below(child, scans, needs);
            }
        }
    }
}

fn apply_projection(
    plan: LogicalPlan,
    needs: &HashMap<String, Need>,
    catalog: &dyn PlanCatalog,
) -> LogicalPlan {
    match plan {
        LogicalPlan::Scan {
            table,
            binding,
            projection,
            filters,
        } => {
            let projection = match needs.get(&binding.to_ascii_lowercase()) {
                Some(Need::Cols(set)) => match catalog.columns(&table) {
                    Some(schema_cols) => {
                        let kept: Vec<String> = schema_cols
                            .iter()
                            .filter(|c| set.contains(&c.to_ascii_lowercase()))
                            .cloned()
                            .collect();
                        if kept.len() == schema_cols.len() {
                            None // nothing pruned
                        } else if kept.is_empty() {
                            // Keep one column so the scan still counts rows
                            // (e.g. `SELECT COUNT(*)`).
                            schema_cols.first().map(|c| vec![c.clone()])
                        } else {
                            Some(kept)
                        }
                    }
                    None => projection,
                },
                _ => projection,
            };
            LogicalPlan::Scan {
                table,
                binding,
                projection,
                filters,
            }
        }
        other => rebuild_children(other, &|child| apply_projection(child, needs, catalog)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_select;
    use crate::plan::build_plan;

    struct FixedCatalog;

    impl PlanCatalog for FixedCatalog {
        fn columns(&self, table: &str) -> Option<Vec<String>> {
            match table {
                "events" => Some(vec![
                    "e_id".into(),
                    "det_id".into(),
                    "run".into(),
                    "energy".into(),
                ]),
                "dets" => Some(vec!["det_id".into(), "region".into()]),
                "runs" => Some(vec!["run".into(), "quality".into()]),
                _ => None,
            }
        }
        fn row_count(&self, table: &str) -> Option<u64> {
            match table {
                "events" => Some(100_000),
                "dets" => Some(40),
                "runs" => Some(500),
                _ => None,
            }
        }
    }

    fn scan_of<'p>(plan: &'p LogicalPlan, want: &str) -> &'p LogicalPlan {
        plan.scans()
            .into_iter()
            .find(|s| matches!(s, LogicalPlan::Scan { table, .. } if table == want))
            .unwrap_or_else(|| panic!("no scan of {want}"))
    }

    #[test]
    fn constant_folding_collapses_arithmetic() {
        let stmt = parse_select("SELECT e_id FROM events WHERE energy > 10 * 2 + 5").unwrap();
        let plan = optimize_with(
            build_plan(&stmt),
            &NoCatalog,
            PassSet {
                fold_constants: true,
                ..PassSet::NONE
            },
        );
        let text = plan.to_string();
        assert!(text.contains(r#"("energy" > 25)"#), "{text}");
    }

    #[test]
    fn pushdown_moves_single_table_conjuncts_into_scans() {
        let stmt = parse_select(
            "SELECT e.e_id FROM events e JOIN dets d ON e.det_id = d.det_id \
             WHERE e.energy > 10 AND d.region = 'barrel' AND e.e_id = d.det_id",
        )
        .unwrap();
        let plan = optimize_with(
            build_plan(&stmt),
            &FixedCatalog,
            PassSet {
                pushdown_predicates: true,
                ..PassSet::NONE
            },
        );
        match scan_of(&plan, "events") {
            LogicalPlan::Scan { filters, .. } => assert_eq!(filters.len(), 1),
            _ => unreachable!(),
        }
        match scan_of(&plan, "dets") {
            LogicalPlan::Scan { filters, .. } => assert_eq!(filters.len(), 1),
            _ => unreachable!(),
        }
        // The cross-table conjunct stays in a residual filter.
        let text = plan.to_string();
        assert!(
            text.contains(r#"Filter ("e"."e_id" = "d"."det_id")"#),
            "{text}"
        );
    }

    #[test]
    fn a_dividing_where_stays_above_a_join() {
        // Pushed, `10 / (e.e_id - 7)` would run on events no detector
        // matches; above the join it sees only the joined rows.
        let pushed = |sql: &str| {
            let passes = PassSet {
                pushdown_predicates: true,
                ..PassSet::NONE
            };
            let plan = optimize_with(
                build_plan(&parse_select(sql).unwrap()),
                &FixedCatalog,
                passes,
            );
            match scan_of(&plan, "events") {
                LogicalPlan::Scan { filters, .. } => filters.len(),
                _ => unreachable!(),
            }
        };
        let join = "SELECT e.e_id FROM events e JOIN dets d ON e.det_id = d.det_id WHERE";
        assert_eq!(
            pushed(&format!("{join} e.energy > 10 AND 10 / (e.e_id - 7) > 0")),
            0
        );
        assert_eq!(
            pushed(&format!("{join} e.energy > 10 AND e.e_id % 2 = 0")),
            0
        );
        assert_eq!(
            pushed(&format!("{join} e.energy > 10 AND e.e_id * 2 > 0")),
            2
        );
        // Over one table the scan's filter sees the rows the WHERE would.
        assert_eq!(
            pushed("SELECT e_id FROM events WHERE 10 / (e_id - 7) > 0"),
            1
        );
    }

    #[test]
    fn pushdown_respects_left_outer_null_side() {
        let stmt = parse_select(
            "SELECT e.e_id FROM events e LEFT JOIN dets d ON e.det_id = d.det_id \
             WHERE d.region = 'barrel' AND e.energy > 5",
        )
        .unwrap();
        let plan = optimize_with(
            build_plan(&stmt),
            &FixedCatalog,
            PassSet {
                pushdown_predicates: true,
                ..PassSet::NONE
            },
        );
        // Left-side conjunct pushes; right-side conjunct must stay above.
        match scan_of(&plan, "events") {
            LogicalPlan::Scan { filters, .. } => assert_eq!(filters.len(), 1),
            _ => unreachable!(),
        }
        match scan_of(&plan, "dets") {
            LogicalPlan::Scan { filters, .. } => assert!(filters.is_empty()),
            _ => unreachable!(),
        }
        let text = plan.to_string();
        assert!(
            text.contains(r#"Filter ("d"."region" = 'barrel')"#),
            "{text}"
        );
    }

    #[test]
    fn pruning_narrows_scan_columns() {
        let stmt = parse_select(
            "SELECT e.energy FROM events e JOIN dets d ON e.det_id = d.det_id \
             WHERE d.region = 'barrel'",
        )
        .unwrap();
        let plan = optimize_with(
            build_plan(&stmt),
            &FixedCatalog,
            PassSet {
                prune_projections: true,
                ..PassSet::NONE
            },
        );
        match scan_of(&plan, "events") {
            LogicalPlan::Scan { projection, .. } => {
                assert_eq!(
                    projection.as_deref(),
                    Some(&["det_id".to_string(), "energy".to_string()][..])
                );
            }
            _ => unreachable!(),
        }
        match scan_of(&plan, "dets") {
            // Both of dets' columns are referenced: no pruning recorded.
            LogicalPlan::Scan { projection, .. } => assert_eq!(projection.as_deref(), None),
            _ => unreachable!(),
        }
    }

    #[test]
    fn a_qualified_wildcard_under_group_by_errors_pruned_or_not() {
        use crate::exec::{execute_plan, DatabaseProvider, ProviderCatalog};
        use gridfed_storage::{ColumnDef, DataType, Database, Schema, Value};
        let mut db = Database::new("t");
        for (name, cols) in [
            ("events", &["e_id", "det_id"][..]),
            ("dets", &["det_id", "region"]),
        ] {
            let defs = cols
                .iter()
                .map(|c| ColumnDef::new(*c, DataType::Int))
                .collect();
            let table = db.create_table(name, Schema::new(defs).unwrap()).unwrap();
            table.insert(vec![Value::Int(1); cols.len()]).unwrap();
        }
        let stmt = parse_select(
            "SELECT d.*, COUNT(*) AS n FROM events e JOIN dets d ON e.det_id = d.det_id \
             GROUP BY d.region",
        )
        .unwrap();
        let provider = DatabaseProvider(&db);
        let pruned = PassSet {
            prune_projections: true,
            ..PassSet::NONE
        };
        for set in [PassSet::NONE, pruned] {
            let plan = optimize_with(build_plan(&stmt), &ProviderCatalog(&provider), set);
            assert!(execute_plan(&plan, &provider).is_err(), "{plan}");
        }
    }

    #[test]
    fn join_reorder_starts_from_smallest_table() {
        let stmt = parse_select(
            "SELECT e.energy FROM events e \
             JOIN dets d ON e.det_id = d.det_id \
             JOIN runs r ON e.run = r.run",
        )
        .unwrap();
        let plan = optimize_with(
            build_plan(&stmt),
            &FixedCatalog,
            PassSet {
                reorder_joins: true,
                ..PassSet::NONE
            },
        );
        let order: Vec<&str> = plan
            .scans()
            .iter()
            .map(|s| match s {
                LogicalPlan::Scan { table, .. } => table.as_str(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec!["dets", "events", "runs"]);
    }

    #[test]
    fn join_reorder_pins_wildcard_expansion_order() {
        let stmt = parse_select(
            "SELECT * FROM events e \
             JOIN dets d ON e.det_id = d.det_id \
             JOIN runs r ON e.run = r.run",
        )
        .unwrap();
        let plan = optimize_with(
            build_plan(&stmt),
            &FixedCatalog,
            PassSet {
                reorder_joins: true,
                ..PassSet::NONE
            },
        );
        match &plan {
            LogicalPlan::Project { items, .. } => {
                let quals: Vec<&str> = items
                    .iter()
                    .map(|i| match i {
                        SelectItem::QualifiedWildcard(q) => q.as_str(),
                        other => panic!("expected qualified wildcard, got {other:?}"),
                    })
                    .collect();
                assert_eq!(quals, vec!["e", "d", "r"]);
            }
            other => panic!("expected Project at root, got {other:?}"),
        }
    }
}

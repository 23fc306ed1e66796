//! `EXPLAIN ANALYZE`: per-node execution profiles next to estimates.
//!
//! The executor is instrumented at two choke points (`execute_node` and
//! `eval_relational` in [`crate::exec`]); when profiling is active each
//! visited plan node records its output row count, visit count, and
//! inclusive wall time into a thread-local [`PlanProfile`], keyed by node
//! address. Nodes bypassed by the fused `Strip{Sort}` / `Limit{Strip{Sort}}`
//! fast paths are recorded as *fused* so the annotated tree stays honest
//! about which operators actually ran. When profiling is off, the hook is a
//! single thread-local flag read per node — the hot path is untouched.
//!
//! Row *estimates* use the same catalog statistics the optimizer sees, with
//! deliberately simple, deterministic selectivity heuristics (a conjunct
//! keeps a third of its input, DISTINCT halves, an equi-join yields the
//! larger input). They are printed next to actuals precisely so an operator
//! can spot where the planner's guess diverged from reality.

use crate::ast::{JoinKind, SelectStmt};
use crate::exec::{execute_plan_metered, DatabaseProvider, ExecMetrics, ProviderCatalog};
use crate::optimize::{optimize, PlanCatalog};
use crate::plan::{build_plan, LogicalPlan};
use crate::result::ResultSet;
use crate::Result;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Duration;

/// Actuals recorded for one plan node.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NodeProfile {
    /// Times the node was visited (one per plan execution here, but kept
    /// explicit so repeated executions against one profile accumulate).
    pub loops: u64,
    /// Total output rows across all loops.
    pub rows: u64,
    /// Inclusive wall time (children included), summed across loops.
    pub nanos: u128,
    /// Inclusive 1024-row batch windows (children included) processed by
    /// the vectorized executor across loops; 0 for pure row-shaping nodes.
    pub batches: u64,
    /// Node was skipped by a fused fast path; rows/time live in the parent.
    pub fused: bool,
}

impl NodeProfile {
    /// Mean output rows per visit.
    pub fn rows_per_loop(&self) -> u64 {
        self.rows.checked_div(self.loops).unwrap_or(0)
    }
}

/// Actuals for every visited node of one (or more) plan executions.
#[derive(Debug, Default, Clone)]
pub struct PlanProfile {
    nodes: HashMap<usize, NodeProfile>,
}

fn key(plan: &LogicalPlan) -> usize {
    plan as *const LogicalPlan as usize
}

impl PlanProfile {
    /// The recorded actuals for `plan`, if it was visited.
    pub fn get(&self, plan: &LogicalPlan) -> Option<NodeProfile> {
        self.nodes.get(&key(plan)).copied()
    }

    /// Number of profiled nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether any node was profiled.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static PROFILE: RefCell<PlanProfile> = RefCell::new(PlanProfile::default());
}

/// Is profiling on for this thread? The executor's only overhead when off.
#[inline]
pub(crate) fn profiling() -> bool {
    ACTIVE.with(|a| a.get())
}

/// Record a visited node's output.
pub(crate) fn record(plan: &LogicalPlan, rows: u64, elapsed: Duration, batches: u64) {
    PROFILE.with(|p| {
        let mut p = p.borrow_mut();
        let e = p.nodes.entry(key(plan)).or_default();
        e.loops += 1;
        e.rows += rows;
        e.nanos += elapsed.as_nanos();
        e.batches += batches;
    });
}

/// Record a node bypassed by a fused fast path.
pub(crate) fn record_fused(plan: &LogicalPlan) {
    PROFILE.with(|p| {
        p.borrow_mut().nodes.entry(key(plan)).or_default().fused = true;
    });
}

/// Execute `plan`, additionally returning the per-node actuals.
///
/// Profiling state is thread-local and not reentrant: one analyzed
/// execution at a time per thread.
pub fn execute_plan_analyzed(
    plan: &LogicalPlan,
    provider: &DatabaseProvider<'_>,
) -> Result<(ResultSet, ExecMetrics, PlanProfile)> {
    PROFILE.with(|p| *p.borrow_mut() = PlanProfile::default());
    ACTIVE.with(|a| a.set(true));
    let out = execute_plan_metered(plan, provider);
    ACTIVE.with(|a| a.set(false));
    let profile = PROFILE.with(|p| std::mem::take(&mut *p.borrow_mut()));
    let (rs, metrics) = out?;
    Ok((rs, metrics, profile))
}

/// Deterministic output-cardinality estimate for a plan node, from the
/// catalog's row counts. `None` when the catalog has no statistics for
/// some underlying table.
pub fn estimate_rows(plan: &LogicalPlan, catalog: &dyn PlanCatalog) -> Option<u64> {
    match plan {
        LogicalPlan::Scan { table, filters, .. } => {
            let mut rows = catalog.row_count(table)?;
            for _ in filters {
                rows = (rows / 3).max(1);
            }
            Some(rows)
        }
        LogicalPlan::Filter { input, .. } => Some((estimate_rows(input, catalog)? / 3).max(1)),
        LogicalPlan::Join {
            left, right, kind, ..
        } => {
            let l = estimate_rows(left, catalog)?;
            let r = estimate_rows(right, catalog)?;
            Some(match kind {
                JoinKind::Cross => l.saturating_mul(r),
                JoinKind::LeftOuter | JoinKind::Inner => l.max(r),
            })
        }
        LogicalPlan::Project { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Strip { input, .. } => estimate_rows(input, catalog),
        LogicalPlan::Aggregate {
            input, group_by, ..
        } => {
            let rows = estimate_rows(input, catalog)?;
            Some(if group_by.is_empty() {
                1
            } else {
                (rows / 4).max(1)
            })
        }
        LogicalPlan::Distinct { input } => Some((estimate_rows(input, catalog)? / 2).max(1)),
        LogicalPlan::Limit { input, limit } => Some(estimate_rows(input, catalog)?.min(*limit)),
    }
}

fn fmt_time(nanos: u128) -> String {
    let us = nanos as f64 / 1_000.0;
    if us >= 1_000.0 {
        format!("{:.2}ms", us / 1_000.0)
    } else {
        format!("{us:.1}us")
    }
}

/// Physical operator label: the vectorized executor runs Scan/Filter/Join
/// columnar and Aggregate over selection vectors, so EXPLAIN surfaces them
/// with a `Batch` prefix; the logical [`LogicalPlan::node_label`] form is
/// unchanged for plan-IR rendering and the decomposer.
fn physical_label(plan: &LogicalPlan) -> String {
    let label = plan.node_label();
    match plan {
        LogicalPlan::Scan { .. }
        | LogicalPlan::Filter { .. }
        | LogicalPlan::Join { .. }
        | LogicalPlan::Aggregate { .. } => format!("Batch{label}"),
        _ => label,
    }
}

fn annotate_node(
    plan: &LogicalPlan,
    catalog: Option<&dyn PlanCatalog>,
    profile: Option<&PlanProfile>,
    indent: usize,
    out: &mut String,
) {
    let _ = write!(out, "{}{}", "  ".repeat(indent), physical_label(plan));
    if let Some(cat) = catalog {
        match estimate_rows(plan, cat) {
            Some(est) => {
                let _ = write!(out, "  (est rows={est})");
            }
            None => out.push_str("  (est rows=?)"),
        }
    }
    if let Some(prof) = profile {
        match prof.get(plan) {
            Some(p) if p.fused => out.push_str("  (act: fused into parent)"),
            Some(p) => {
                let _ = write!(
                    out,
                    "  (act rows={} loops={} time={}",
                    p.rows_per_loop(),
                    p.loops,
                    fmt_time(p.nanos)
                );
                if p.batches > 0 {
                    let _ = write!(out, " batches={}", p.batches);
                }
                out.push(')');
            }
            None => out.push_str("  (act: not executed)"),
        }
    }
    out.push('\n');
    for child in plan.children() {
        annotate_node(child, catalog, profile, indent + 1, out);
    }
}

/// Render `plan` with estimates (when a catalog is given) and actuals
/// (when a profile is given) on every line.
pub fn annotate(
    plan: &LogicalPlan,
    catalog: Option<&dyn PlanCatalog>,
    profile: Option<&PlanProfile>,
) -> String {
    let mut out = String::new();
    annotate_node(plan, catalog, profile, 0, &mut out);
    out
}

/// `EXPLAIN` for a SELECT at the engine level: the logical plan and the
/// optimized plan with row estimates.
pub fn explain_select(stmt: &SelectStmt, catalog: &dyn PlanCatalog) -> String {
    let logical = build_plan(stmt);
    let optimized = optimize(logical.clone(), catalog);
    let mut out = String::from("logical plan:\n");
    logical.render_tree(1, &mut out);
    out.push_str("optimized plan:\n");
    let annotated = annotate(&optimized, Some(catalog), None);
    for line in annotated.lines() {
        out.push_str("  ");
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// `EXPLAIN ANALYZE` for a SELECT at the engine level: optimize, execute,
/// and render the optimized tree with estimates *and* actuals per node.
pub fn explain_analyze_select(
    stmt: &SelectStmt,
    provider: &DatabaseProvider<'_>,
) -> Result<String> {
    let catalog = ProviderCatalog(provider);
    let plan = optimize(build_plan(stmt), &catalog);
    let (rs, metrics, profile) = execute_plan_analyzed(&plan, provider)?;
    let mut out = String::from("analyzed plan:\n");
    let annotated = annotate(&plan, Some(&catalog), Some(&profile));
    for line in annotated.lines() {
        out.push_str("  ");
        out.push_str(line);
        out.push('\n');
    }
    let _ = writeln!(
        out,
        "rows returned: {}  (expression compile: {})",
        rs.len(),
        fmt_time(metrics.compile.as_nanos())
    );
    let _ = writeln!(
        out,
        "batches: {}  rows scanned: {}  selected: {}  materialized: {}  selectivity: {:.3}",
        metrics.batches,
        metrics.rows_scanned,
        metrics.rows_selected,
        metrics.rows_materialized,
        metrics.selectivity()
    );
    if metrics.workers > 1 {
        let _ = writeln!(
            out,
            "parallel: workers={}  morsels={}",
            metrics.workers, metrics.morsels
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::DatabaseProvider;
    use crate::parser::parse_select;
    use gridfed_storage::{ColumnDef, DataType, Database, Schema, Value};

    fn db() -> Database {
        let mut db = Database::new("t");
        let schema = Schema::new(vec![
            ColumnDef::new("id", DataType::Int).primary_key(),
            ColumnDef::new("det", DataType::Int),
            ColumnDef::new("energy", DataType::Float),
        ])
        .unwrap();
        let t = db.create_table("events", schema).unwrap();
        for i in 0..30 {
            t.insert(vec![
                Value::Int(i),
                Value::Int(i % 3),
                Value::Float(i as f64),
            ])
            .unwrap();
        }
        let schema = Schema::new(vec![
            ColumnDef::new("det", DataType::Int).primary_key(),
            ColumnDef::new("region", DataType::Text),
        ])
        .unwrap();
        let t = db.create_table("dets", schema).unwrap();
        for (d, r) in [(0, "barrel"), (1, "endcap"), (2, "barrel")] {
            t.insert(vec![Value::Int(d), Value::Text(r.into())])
                .unwrap();
        }
        db
    }

    #[test]
    fn profile_records_rows_and_loops() {
        let db = db();
        let provider = DatabaseProvider(&db);
        let stmt = parse_select("SELECT id FROM events WHERE energy > 9.5").unwrap();
        let catalog = ProviderCatalog(&provider);
        let plan = optimize(build_plan(&stmt), &catalog);
        let (rs, _m, profile) = execute_plan_analyzed(&plan, &provider).unwrap();
        assert_eq!(rs.len(), 20);
        let root = profile.get(&plan).expect("root profiled");
        assert_eq!(root.loops, 1);
        assert_eq!(root.rows, 20);
        assert!(!profile.is_empty());
    }

    #[test]
    fn profiling_is_off_outside_analyzed_runs() {
        let db = db();
        let provider = DatabaseProvider(&db);
        let stmt = parse_select("SELECT id FROM events").unwrap();
        let plan = build_plan(&stmt);
        // A plain execution must not leak state into the next profile.
        crate::exec::execute_plan(&plan, &provider).unwrap();
        let (_, _, profile) = execute_plan_analyzed(&plan, &provider).unwrap();
        let root = profile.get(&plan).unwrap();
        assert_eq!(root.loops, 1, "only the analyzed run is profiled");
    }

    #[test]
    fn fused_sort_is_reported() {
        let db = db();
        let provider = DatabaseProvider(&db);
        let stmt = parse_select("SELECT id FROM events ORDER BY energy DESC LIMIT 3").unwrap();
        let plan = build_plan(&stmt);
        let text = explain_analyze_select(&stmt, &provider).unwrap();
        assert!(text.contains("fused into parent"), "{text}");
        assert!(text.contains("act rows=3"), "{text}");
        drop(plan);
    }

    #[test]
    fn estimates_appear_next_to_actuals() {
        let db = db();
        let provider = DatabaseProvider(&db);
        let stmt = parse_select(
            "SELECT e.id, d.region FROM events e JOIN dets d ON e.det = d.det \
             WHERE d.region = 'barrel'",
        )
        .unwrap();
        let text = explain_analyze_select(&stmt, &provider).unwrap();
        assert!(text.contains("est rows="), "{text}");
        assert!(text.contains("act rows="), "{text}");
        assert!(text.contains("time="), "{text}");
        assert!(text.contains("rows returned: 20"), "{text}");
    }

    #[test]
    fn analyze_footer_reports_parallelism_only_when_used() {
        let db = db();
        let provider = DatabaseProvider(&db);
        let stmt = parse_select("SELECT id FROM events").unwrap();
        let seq = explain_analyze_select(&stmt, &provider).unwrap();
        assert!(!seq.contains("parallel:"), "{seq}");
        let mut cfg = crate::par::ExecConfig::with_workers(3);
        cfg.morsel_rows = 8;
        let par =
            crate::par::with_exec_config(cfg, || explain_analyze_select(&stmt, &provider).unwrap());
        assert!(par.contains("parallel: workers="), "{par}");
        assert!(par.contains("morsels="), "{par}");
    }

    #[test]
    fn explain_renders_both_layers_with_estimates() {
        let db = db();
        let provider = DatabaseProvider(&db);
        let catalog = ProviderCatalog(&provider);
        let stmt = parse_select("SELECT id FROM events WHERE energy > 9.5").unwrap();
        let text = explain_select(&stmt, &catalog);
        assert!(text.starts_with("logical plan:\n"), "{text}");
        assert!(text.contains("optimized plan:\n"), "{text}");
        assert!(text.contains("(est rows="), "{text}");
    }
}

//! EXPLAIN rendering: the four-layer description of how a statement would
//! execute, and what `EXPLAIN ANALYZE` appends after executing it. Text
//! only — resolving, planning and running the statement are the service's.

use crate::cache::{lower, ResolvedTables};
use crate::config::Live;
use crate::decompose::{self, Home, QueryPlan};
use crate::scatter;
use crate::service::DataAccessService;
use crate::session::Route;
use crate::stats::QueryStats;
use gridfed_sqlkit::ast::SelectStmt;
use gridfed_sqlkit::plan::build_plan;
use gridfed_sqlkit::render::{render_select, NeutralStyle};
use gridfed_sqlkit::ResultSet;
use gridfed_storage::{normalize_ident, Row, Value};
use gridfed_vendors::VendorKind;

/// Describe `plan` — `stmt` decomposed over `resolved` at `das`, which took
/// `rls_lookups` catalog round trips: which tables resolve where, what gets
/// pushed down, which sub-queries would be dispatched and how they would be
/// supervised.
pub(crate) fn plan_text(
    das: &DataAccessService,
    live: &Live,
    stmt: &SelectStmt,
    resolved: &ResolvedTables,
    plan: QueryPlan,
    rls_lookups: usize,
) -> String {
    let mut out = String::new();

    // Layer 1: the logical plan lowered straight from the AST.
    out.push_str("logical plan:\n");
    build_plan(stmt).render_tree(1, &mut out);

    // Layer 2: the optimized plan — folded constants, predicates pushed
    // into scans, joins reordered by cardinality, projections pruned.
    // For the federated shape this is the post-retraction plan whose
    // Scan nodes mirror the dispatched sub-queries exactly.
    out.push_str("optimized plan:\n");
    match &plan {
        QueryPlan::Federated { optimized, .. } => optimized.render_tree(1, &mut out),
        _ => decompose::optimized_plan(stmt, resolved).render_tree(1, &mut out),
    }

    // Layer 3: federated placement — where each scan's sub-query runs.
    let now_us = das.clock.now().as_micros();
    match &plan {
        QueryPlan::SingleDatabase { location, .. } => {
            // The attempt asks the session the same question.
            let route = VendorKind::from_scheme(&location.driver).map_or(Route::Fresh, |v| {
                das.session
                    .route(live.config.connections, v, &location.url, true)
            });
            out.push_str(&format!(
                "plan: SINGLE DATABASE
  push entire statement to `{}` ({}) via {}
",
                location.database,
                location.vendor,
                route.describe()
            ));
            for tref in stmt.table_refs() {
                let key = normalize_ident(&tref.name);
                let v = das.replicas.version(&key, &location.database);
                if v > 0 {
                    let note =
                        das.replicas
                            .data_note(Some(v), &key, Some(&location.database), now_us);
                    out.push_str(&format!("  table `{key}`{note}\n"));
                }
            }
        }
        QueryPlan::ForwardAll { server_url, .. } => {
            out.push_str(&format!(
                "plan: FORWARD ALL
  forward entire statement to remote server {server_url}
"
            ));
        }
        QueryPlan::Federated {
            tasks, residual, ..
        } => {
            out.push_str(&format!(
                "plan: FEDERATED ({} sub-queries)
",
                tasks.len()
            ));
            for task in tasks {
                let sub = render_select(&task.subquery, &NeutralStyle);
                // Cardinality estimate driving the scatter plan —
                // absent when the table has no statistics.
                let est = task
                    .est_rows
                    .map(|n| format!(" [est {n} rows]"))
                    .unwrap_or_default();
                let key = normalize_ident(&task.table);
                match &task.home {
                    Home::Local(loc) => {
                        let ver =
                            das.replicas
                                .data_note(task.version, &key, Some(&loc.database), now_us);
                        out.push_str(&format!(
                            "  fetch `{}` from `{}` ({}){ver}{est}: {sub}
",
                            task.table, loc.database, loc.vendor
                        ));
                    }
                    Home::Remote { server_url } => {
                        let ver = das.replicas.data_note(task.version, &key, None, now_us);
                        out.push_str(&format!(
                            "  fetch `{}` via RLS from {server_url}{ver}{est}: {sub}
",
                            task.table
                        ));
                    }
                }
                // Semi-join reductions chosen by the cost model: this
                // fetch waits for its source's partial, then ships the
                // key set into the sub-query before dispatching.
                for red in &task.reductions {
                    out.push_str(&format!(
                        "    reduce `{}` by keys of `{}`.`{}` [{}, est {} keys, wave {}]
",
                        red.target_column,
                        red.source_table,
                        red.source_column,
                        red.strategy(),
                        red.est_keys,
                        task.wave
                    ));
                }
            }
            out.push_str(
                "  integrate at mediator: cross-database joins, residual predicates, aggregation, ORDER BY, LIMIT
",
            );
            out.push_str("residual plan (mediator side):\n");
            residual.render_tree(1, &mut out);
        }
    }
    if rls_lookups > 0 {
        out.push_str(&format!("  ({rls_lookups} RLS lookups required)\n"));
    }

    // Layer 4: resilience placement — only when any knob is on. The
    // branch list is the dispatch's own, in gather order.
    let cfg = &live.config.resilience;
    if cfg.enabled() {
        out.push_str(&format!(
            "resilience: retries={} backoff={}..{} deadline={} hedge={} breaker={} degradation={:?} failover={}
",
            cfg.max_retries,
            cfg.base_backoff,
            cfg.max_backoff,
            cfg.branch_deadline
                .map_or_else(|| "none".to_string(), |d| d.to_string()),
            cfg.hedge_after
                .map_or_else(|| "none".to_string(), |h| h.to_string()),
            if cfg.breaker_threshold == 0 {
                "off".to_string()
            } else {
                format!(
                    "{} fails/{} cooldown",
                    cfg.breaker_threshold, cfg.breaker_cooldown
                )
            },
            cfg.degradation,
            if cfg.failover { "on" } else { "off" },
        ));
        for b in scatter::group_branches(lower(plan).0) {
            // What one attempt of a remote branch sends over a kept channel
            // (`remote_branch_attempt`): the unit the supervisor retries.
            let calls = match (&b.database, b.tasks.len()) {
                (None, n) if n > 1 && live.config.connections.keeps() => {
                    format!(" [{n} sub-queries in 1 call]")
                }
                _ => String::new(),
            };
            out.push_str(&format!(
                "  supervise {} -> `{}`{calls} [breaker: {}]
",
                b.label,
                b.target,
                das.resilience().breaker_state(&b.target)
            ));
        }
    }
    out
}

/// What `EXPLAIN ANALYZE` appends to [`plan_text`] once the statement ran:
/// actual rows, the virtual-time breakdown, resilience events, and (on the
/// federated path) the residual plan `annotated` per node with estimated
/// vs actual rows, loops, and time.
pub(crate) fn push_analysis(text: &mut String, stats: &QueryStats, annotated: Option<&str>) {
    let bd = stats.breakdown;
    text.push_str("analyze:\n");
    text.push_str(&format!(
        "  actual rows returned: {}  (rows fetched: {}, bytes fetched: {})\n",
        stats.rows_returned, stats.rows_fetched, stats.bytes_fetched
    ));
    if stats.reductions_shipped > 0 {
        // Estimated vs actual bytes moved under semi-join
        // reduction: what full scatter was estimated to fetch vs
        // what the reduced branches actually transferred.
        text.push_str(&format!(
            "  reductions shipped: {}  (est bytes saved: {}, est full-scatter bytes: {})\n",
            stats.reductions_shipped,
            stats.bytes_saved,
            stats.bytes_fetched + stats.bytes_saved
        ));
    }
    text.push_str(&format!(
        "  virtual time: {} (plan={} rls={} connect={} execute={} integrate={} serialize={} resilience={})\n",
        bd.total(), bd.plan, bd.rls, bd.connect, bd.execute,
        bd.integrate, bd.serialize, bd.resilience
    ));
    if stats.retries + stats.failovers + stats.hedges + stats.breaker_rejections > 0 {
        text.push_str(&format!(
            "  resilience events: retries={} failovers={} hedges={} breaker_rejections={}\n",
            stats.retries, stats.failovers, stats.hedges, stats.breaker_rejections
        ));
    }
    if let Some(annotated) = annotated {
        text.push_str("analyzed residual plan (mediator side):\n");
        for line in annotated.lines() {
            text.push_str("  ");
            text.push_str(line);
            text.push('\n');
        }
    }
}

/// The rendering as a one-column result set, one row per line.
pub(crate) fn text_result(text: &str) -> ResultSet {
    let line = |l: &str| Row::new(vec![Value::Text(l.to_string())]);
    ResultSet {
        columns: vec!["plan".into()],
        rows: text.lines().map(line).collect(),
    }
}

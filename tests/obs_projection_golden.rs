//! Projection-equivalence golden: everything an operator can read about a
//! scripted session — every `gridfed_monitor.*` table of every mediator and
//! the span tree of every retained trace — compared byte for byte with the
//! file recorded at the commit *before* the per-query record replaced the
//! four separate recordings (spans, metrics, history, profiles).
//!
//! The script runs on one seeded 3-mediator grid with profiling on, a
//! slow-query threshold and one SLO: Table-1 rows 1/2/3 and a Fig-6 join, a
//! result-cache hit, two statements that error, a crash window that forces a
//! retry, a failover, a branch dropped under the Partial policy, and an
//! ingest + `pump_replication` cycle. Dispatch is sequential: two hops that
//! run at once read the grid's shared virtual clock in thread order, so the
//! `started_us` of a hop's trace is a race under parallel dispatch. The grid
//! is pinned to `ConnectionPolicy::PerQuery`, the arm the file was recorded
//! on: what a mediator's session adds to these surfaces has a golden of its
//! own (`tests/session.rs`).
//!
//! The one wall-clock quantity on these surfaces — the `us` of a residual
//! plan node in `statement_nodes` — is masked, and because a profile lists
//! its nodes slowest first, that table's rows are dumped sorted. Regenerate with
//! `UPDATE_GOLDEN=1 cargo test --test obs_projection_golden`, at the parent
//! commit only: the file is the oracle, not a snapshot of current behaviour.
//! (Regenerated twice since, each time for one fix alone: at 1902722 plus
//! the one-file fix that keeps a quoted identifier's name in a statement
//! profile — a forwarded `SELECT * FROM "run_conditions"` and `…
//! "detector_summary"` used to share the fingerprint of `select * from ?`;
//! and for drawing each branch span from the branch's own virtual start,
//! where every branch used to start with the scatter. The script dispatches
//! sequentially, so no virtual number moved with it: every line that
//! changed differs only in `start_us`, on a branch that waits for another's
//! keys or on a span inside one.)

mod common;

use common::check_golden;
use gridfed::core::grid::GridQuery;
use gridfed::core::service::{ConnectionPolicy, DEFAULT_CACHE_CAPACITY};
use gridfed::core::{CoreError, DispatchMode};
use gridfed::obs::{ObsConfig, SloObjective};
use gridfed::prelude::*;
use std::fmt::Write as _;

const MONITOR_TABLES: [&str; 11] = [
    "queries",
    "spans",
    "metrics",
    "servers",
    "marts",
    "replication",
    "statements",
    "statement_nodes",
    "metrics_history",
    "slo",
    "slow_queries",
];

fn table1(row: usize, k: u64) -> String {
    match row {
        0 => format!("SELECT e_id, energy FROM ntuple_events WHERE e_id < {k}"),
        1 => format!(
            "SELECT e.e_id, s.n_meas FROM ntuple_events e \
             JOIN run_summary s ON e.run_id = s.run_id WHERE e.e_id < {k}"
        ),
        _ => format!(
            "SELECT e.e_id, s.n_meas, c.avg_weight, d.mean_value \
             FROM ntuple_events e \
             JOIN run_summary s ON e.run_id = s.run_id \
             JOIN run_conditions c ON s.run_id = c.run_id \
             JOIN detector_summary d ON c.detector = d.detector \
             WHERE e.e_id < {k}"
        ),
    }
}

const FIG6: &str = "SELECT e.e_id, e.energy, s.avg_value FROM ntuple_events e \
     JOIN run_summary s ON e.run_id = s.run_id WHERE e.e_id < 51";

fn secs(s: f64) -> Cost {
    Cost::from_secs_f64(s)
}

fn build() -> Grid {
    GridBuilder::new()
        .with_seed(1805)
        .with_mediators(3)
        .with_dispatch(DispatchMode::Sequential)
        .with_connection_policy(ConnectionPolicy::PerQuery)
        .replicate_events(true)
        .with_replication(ReplicationConfig::default())
        .with_obs_config(ObsConfig {
            profiling: true,
            slow_query_threshold_us: 400_000,
            ..ObsConfig::default()
        })
        .with_slo(SloObjective {
            tenant: "default".into(),
            latency_threshold_us: 500_000,
            objective: 0.9,
            window_us: 5_000_000,
        })
        .with_resilience(ResilienceConfig {
            max_retries: 4,
            base_backoff: Cost::from_millis(25),
            max_backoff: Cost::from_millis(100),
            ..ResilienceConfig::standard()
        })
        .with_fault_plan(
            FaultPlan::new(5)
                // Short outage: a retry rides it out.
                .crash("mart_mysql", secs(100.0), Some(secs(100.04)))
                // Long outage: retries exhaust, the branch fails over.
                .crash("mart_mysql", secs(200.0), Some(secs(205.0)))
                // No replica of run_summary: Partial drops the branch.
                .crash("mart_mssql", secs(300.0), Some(secs(305.0))),
        )
        .build()
        .expect("grid")
}

/// The scripted session. Every step's outcome is appended to `out`, so a
/// change in what a statement answers shows up in the golden too.
fn run_script(g: &Grid, out: &mut String) {
    fn note(out: &mut String, what: &str, outcome: Result<GridQuery, CoreError>) {
        match outcome {
            Ok(q) => {
                let _ = writeln!(
                    out,
                    "{what}: {} rows, {} us, retries={} failovers={} dropped={} cache_hit={}",
                    q.result.len(),
                    q.service_cost.as_micros(),
                    q.stats.retries,
                    q.stats.failovers,
                    q.stats.branches_dropped.len(),
                    q.stats.cache_hit
                );
            }
            Err(e) => {
                let _ = writeln!(out, "{what}: error: {e}");
            }
        }
    }
    let clock = g.fault_plan.as_ref().expect("fault plan installed");

    // Table-1 rows 1/2/3 and a Fig-6 join, twice (the second pass reuses
    // the cached plans), one tenant besides the default.
    for pass in 0..2 {
        for row in 0..3 {
            note(
                out,
                &format!("table1 row {} pass {pass}", row + 1),
                g.query(&table1(row, 12)),
            );
        }
        note(out, &format!("fig6 pass {pass}"), g.query(FIG6));
    }
    note(out, "atlas row 2", g.query_as("atlas", &table1(1, 17)));
    // Each of the other mediators answers a statement of its own.
    for i in 1..3 {
        let t = g.service(i).query(&table1(0, 9 + i as u64));
        let _ = writeln!(
            out,
            "mediator {i} row 1: {:?}",
            t.map(|t| t.value.result.len()).map_err(|e| e.to_string())
        );
    }

    // A result-cache hit.
    g.service(0)
        .reconfigure(|c| c.result_cache = Some(DEFAULT_CACHE_CAPACITY));
    note(out, "cache miss", g.query(&table1(1, 14)));
    note(out, "cache hit", g.query(&table1(1, 14)));
    g.service(0).reconfigure(|c| c.result_cache = None);

    // Statements that error: before planning, and at a backend.
    note(out, "unknown table", g.query("SELECT x FROM no_such_table"));
    note(
        out,
        "unknown column",
        g.query("SELECT nope FROM ntuple_events"),
    );

    // A crash window a retry rides out.
    clock.set_now(secs(100.0));
    note(out, "retry", g.query(&table1(0, 12)));
    // A crash window that outlasts the retries: failover.
    clock.set_now(secs(200.0));
    note(out, "failover", g.query(&table1(1, 12)));
    // A dropped branch under the Partial policy.
    g.service(0).reconfigure(|c| {
        c.resilience = ResilienceConfig {
            max_retries: 1,
            degradation: DegradationPolicy::Partial,
            ..ResilienceConfig::standard()
        }
    });
    clock.set_now(secs(300.0));
    note(out, "partial", g.query(&table1(1, 12)));
    g.service(0)
        .reconfigure(|c| c.resilience = ResilienceConfig::standard());

    // Ingest: new events upstream, swept into the warehouse, log-shipped
    // to the marts.
    clock.set_now(secs(400.0));
    let first = g.extend_sources(20).expect("extend");
    let etl = g.run_incremental_etl().expect("etl");
    let _ = writeln!(
        out,
        "ingest: first new event {first}, {} etl reports",
        etl.len()
    );
    let mut polls = 0;
    while !g.replication_caught_up() && polls < 64 {
        let reports = g.pump_replication();
        let _ = writeln!(
            out,
            "pump {polls}: {:?}",
            reports
                .iter()
                .map(|r| (r.records, r.rows))
                .collect::<Vec<_>>()
        );
        polls += 1;
    }
    // A second batch reaches the marts by refresh: each stream caught up
    // at once, with no pump cycle.
    g.extend_sources(10).expect("extend");
    g.run_incremental_etl().expect("etl");
    let refreshed = g.refresh_marts().expect("refresh");
    let _ = writeln!(
        out,
        "refresh: {:?}",
        refreshed
            .iter()
            .map(|r| (r.mart.as_str(), &r.refreshed, r.rows))
            .collect::<Vec<_>>()
    );
    note(
        out,
        "count after ingest",
        g.query("SELECT COUNT(*) FROM ntuple_events"),
    );
    note(out, "table1 row 3 after ingest", g.query(&table1(2, 12)));
}

/// Every monitor table as every mediator answers it, then every ring
/// entry's span tree.
fn dump(g: &Grid, out: &mut String) {
    for (i, das) in g.services.iter().enumerate() {
        for table in MONITOR_TABLES {
            let _ = writeln!(out, "== mediator {i} gridfed_monitor.{table}");
            let answer = das
                .query(&format!("SELECT * FROM gridfed_monitor.{table}"))
                .expect("monitor query");
            let rs = &answer.value.result;
            let _ = writeln!(out, "{}", rs.columns.join(" | "));
            let node_col = rs.columns.iter().position(|c| c == "node");
            let us_col = rs.columns.iter().position(|c| c == "us");
            let mut lines = Vec::new();
            for row in &rs.rows {
                let wall_clock = table == "statement_nodes"
                    && node_col.is_some_and(|c| row.values()[c].render().starts_with("node:"));
                let cells: Vec<String> = row
                    .values()
                    .iter()
                    .enumerate()
                    .map(|(c, v)| {
                        if wall_clock && Some(c) == us_col {
                            "*".to_string()
                        } else {
                            v.render()
                        }
                    })
                    .collect();
                lines.push(cells.join(" | "));
            }
            if table == "statement_nodes" {
                lines.sort();
            }
            for line in lines {
                let _ = writeln!(out, "{line}");
            }
        }
    }
    for (i, das) in g.services.iter().enumerate() {
        let obs = das.observability();
        for (ring, traces) in [
            ("traces", obs.traces.snapshot()),
            ("slow_queries", obs.slow_queries.snapshot()),
        ] {
            let _ = writeln!(out, "== mediator {i} ring {ring}: {} entries", traces.len());
            for t in traces {
                let _ = writeln!(
                    out,
                    "-- trace {} origin={:?} started_us={} duration_us={} status={:?} rows={} \
                     cache_hit={} distributed={} degraded={} retries={} failovers={}\n   sql={:?} server={:?}",
                    t.trace_id,
                    t.origin,
                    t.started_us,
                    t.duration_us,
                    &*t.status,
                    t.rows_returned,
                    t.cache_hit,
                    t.distributed,
                    t.degraded,
                    t.retries,
                    t.failovers,
                    &*t.sql,
                    &*t.server,
                );
                t.check_composition(5)
                    .unwrap_or_else(|e| panic!("{e}\n{}", t.render_tree()));
                for span in t.spans() {
                    let _ = writeln!(out, "{span:?}");
                }
            }
        }
    }
}

#[test]
fn every_observability_surface_matches_the_parent_commit() {
    let g = build();
    let mut got = String::new();
    run_script(&g, &mut got);
    dump(&g, &mut got);
    check_golden("obs_projection.txt", &got);
}

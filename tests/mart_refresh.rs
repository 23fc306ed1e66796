//! Incremental, staleness-aware mart refresh through the full stack:
//! source extension → incremental ETL → versioned mart refresh → RLS
//! freshness → placement → cache invalidation → EXPLAIN/monitor surface.

use gridfed::core::grid::{standard_views, GridBuilder};
use gridfed::core::placement::ReplicaPolicy;
use gridfed::core::service::DEFAULT_CACHE_CAPACITY;
use gridfed::prelude::*;
use gridfed::warehouse::{refresh_mart, RefreshKind, TransportMode};

const COUNT_SQL: &str = "SELECT COUNT(*) AS n FROM ntuple_events";

fn count_of(result: &ResultSet) -> i64 {
    match result.rows[0].values()[0] {
        Value::Int(n) => n,
        ref other => panic!("expected integer count, got {other:?}"),
    }
}

/// Tentpole acceptance: a refresh cycle moves only the delta, bumps the
/// data version monotonically, and a second cycle with nothing new
/// upstream skips without moving bytes.
#[test]
fn incremental_refresh_cycle_moves_only_the_delta() {
    let grid = GridBuilder::new()
        .with_seed(41)
        .source("tier1.cern", VendorKind::Oracle, 60)
        .source("tier2.caltech", VendorKind::MySql, 60)
        .build()
        .expect("grid");
    let nvar = grid.spec.nvar();
    let full_etl_rows: usize = grid.etl_reports.iter().map(|r| r.rows).sum();
    assert_eq!(full_etl_rows, 120 * nvar, "seed ETL moved everything");

    grid.extend_sources(20).expect("extend");
    let etl = grid.run_incremental_etl().expect("incremental ETL");
    let delta_rows: usize = etl.iter().map(|r| r.rows).sum();
    assert_eq!(delta_rows, 20 * nvar, "ETL moved only the new events");

    let reports = grid.refresh_marts().expect("refresh");
    let events = reports
        .iter()
        .find(|r| r.table == "ntuple_events")
        .expect("events mart refreshed");
    assert_eq!(events.kind, RefreshKind::Incremental);
    assert_eq!(events.rows, 20, "one pivot row per new event");
    assert_eq!(events.version, 2, "materialize was v1, refresh is v2");
    let full = grid
        .mart_reports
        .iter()
        .find(|r| r.table == "ntuple_events")
        .expect("seed report");
    assert!(
        events.bytes < full.bytes / 2,
        "delta refresh ({} B) should move far less than the full build ({} B)",
        events.bytes,
        full.bytes
    );
    // Aggregate SQL views have no incremental maintenance rule: stale
    // means a full (still shadow-swapped) rebuild, version bumped.
    let summary = reports
        .iter()
        .find(|r| r.table == "run_summary")
        .expect("summary mart refreshed");
    assert_eq!(summary.kind, RefreshKind::Full);
    assert_eq!(summary.version, 2);

    // The refreshed snapshot is complete and queryable.
    let out = grid.query(COUNT_SQL).expect("count");
    assert_eq!(count_of(&out.result), 140);
    assert_eq!(out.stats.versions.len(), 1);
    assert_eq!(out.stats.versions[0].version, 2);

    // Nothing new upstream: every mart skips, versions unchanged.
    for r in grid.refresh_marts().expect("second refresh") {
        assert_eq!(r.kind, RefreshKind::Skipped, "{} refreshed twice", r.table);
        assert_eq!(r.rows, 0);
        assert_eq!(r.bytes, 0);
    }
}

/// Regression (satellite 2): a cached result must not survive a refresh
/// that changed the data it was computed from. Before version-checked
/// entries, only dictionary changes invalidated the cache, so this query
/// returned the stale pre-refresh count forever.
#[test]
fn refresh_invalidates_exactly_the_stale_cache_entries() {
    let grid = GridBuilder::new()
        .with_seed(42)
        .source("tier1.cern", VendorKind::Oracle, 50)
        .source("tier2.caltech", VendorKind::MySql, 50)
        .build()
        .expect("grid");
    let das = grid.service(0);
    das.reconfigure(|c| c.result_cache = Some(DEFAULT_CACHE_CAPACITY));

    let first = grid.query(COUNT_SQL).expect("first");
    assert_eq!(count_of(&first.result), 100);
    assert!(!first.stats.cache_hit);
    let repeat = grid.query(COUNT_SQL).expect("repeat");
    assert!(repeat.stats.cache_hit, "second run served from cache");
    assert_eq!(count_of(&repeat.result), 100);

    // A query over a table the refresh does NOT stale stays cached.
    let other = "SELECT detector, mean_value FROM detector_summary ORDER BY detector";
    let other_first = grid.query(other).expect("other first");
    assert!(!other_first.stats.cache_hit);

    grid.extend_sources(10).expect("extend");
    grid.run_incremental_etl().expect("etl");
    let reports = grid.refresh_marts().expect("refresh");
    assert!(reports.iter().any(|r| r.kind == RefreshKind::Incremental));

    let fresh = grid.query(COUNT_SQL).expect("after refresh");
    assert!(
        !fresh.stats.cache_hit,
        "version check must drop the stale entry"
    );
    assert_eq!(count_of(&fresh.result), 110, "new rows are visible");
    let again = grid.query(COUNT_SQL).expect("re-cached");
    assert!(again.stats.cache_hit, "fresh result is cached again");
    assert_eq!(count_of(&again.result), 110);
}

/// Versions flow to the RLS freshness registry and into placement: under
/// [`ReplicaPolicy::Freshest`] a query routes to the replica whose data
/// version is higher, even though an equally close stale replica exists.
#[test]
fn freshest_policy_routes_to_the_newer_replica() {
    let grid = GridBuilder::new()
        .with_seed(43)
        .single_server()
        .replicate_events(true)
        .with_policy(ReplicaPolicy::Freshest)
        .build()
        .expect("grid");
    let das = grid.service(0);
    assert_eq!(
        das.dictionary_snapshot()
            .resolve_table("ntuple_events")
            .len(),
        2,
        "two replicas registered with one mediator"
    );
    // Registration seeded v1 freshness for both replicas.
    let published = grid.rls.freshness("ntuple_events").value;
    assert_eq!(published.len(), 1, "one mediator hosts both replicas");
    assert_eq!(published[0].1.version, 1);
    assert_eq!(grid.rls.version_skew("ntuple_events"), 0);

    // Advance upstream, then refresh ONLY the mart_oracle replica, so the
    // two replicas now disagree on version.
    grid.extend_sources(15).expect("extend");
    grid.run_incremental_etl().expect("etl");
    let views = standard_views(&grid.spec);
    let wconn = grid.warehouse.connect("grid", "grid").expect("wconn").value;
    let oracle = grid
        .marts
        .iter()
        .find(|m| m.db_name() == "mart_oracle")
        .expect("oracle mart");
    let mconn = oracle.connect("grid", "grid").expect("mconn").value;
    let now_us = das.clock().now().as_micros();
    let report = refresh_mart(
        &views[0],
        &wconn,
        &mconn,
        &grid.topology,
        TransportMode::Staged,
        now_us,
    )
    .expect("partial refresh");
    assert_eq!(report.kind, RefreshKind::Incremental);
    assert_eq!(report.version, 2);
    das.note_mart_refresh(oracle.db_name(), &report, now_us);

    // Placement prefers the fresher replica: the query sees the new rows
    // the stale replica does not have, and records the version it read.
    let out = grid.query(COUNT_SQL).expect("count");
    assert_eq!(count_of(&out.result), grid.spec.events as i64 + 15);
    assert_eq!(out.stats.versions.len(), 1);
    assert_eq!(out.stats.versions[0].version, 2);
    assert_eq!(
        out.stats.versions[0].database.as_deref(),
        Some("mart_oracle")
    );
}

/// EXPLAIN annotates placement with the chosen replica's data version,
/// and the `gridfed_monitor.marts` table exposes versions, refresh times,
/// and federation-wide skew relationally.
#[test]
fn explain_and_monitor_surface_report_versions() {
    let grid = GridBuilder::new()
        .with_seed(44)
        .with_observability(true)
        .build()
        .expect("grid");
    let das = grid.service(0);

    let explain = |sql: &str| {
        let out = grid.query(sql).expect("explain");
        out.result
            .rows
            .iter()
            .flat_map(|r| r.values().iter().map(|v| format!("{v}")))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let single = explain("EXPLAIN SELECT e_id FROM ntuple_events WHERE e_id < 5");
    assert!(
        single.contains("[data v1]"),
        "single-database plan annotates the version:\n{single}"
    );
    let federated = explain(
        "EXPLAIN SELECT e.e_id, s.n_meas FROM ntuple_events e \
         JOIN run_summary s ON e.run_id = s.run_id WHERE e.e_id < 5",
    );
    assert!(
        federated.contains("fetch `ntuple_events`") && federated.contains("[data v1]"),
        "federated plan annotates each versioned fetch:\n{federated}"
    );

    grid.extend_sources(10).expect("extend");
    grid.run_incremental_etl().expect("etl");
    grid.refresh_marts().expect("refresh");

    let after = explain("EXPLAIN SELECT e_id FROM ntuple_events WHERE e_id < 5");
    assert!(
        after.contains("[data v2]"),
        "refresh bumps the advertised version:\n{after}"
    );

    // Relational freshness surface (R-GMA style): one row per replica.
    let marts = das
        .query(
            "SELECT table_name, version, skew FROM gridfed_monitor.marts \
             WHERE table_name = 'ntuple_events'",
        )
        .expect("monitor query")
        .value;
    assert_eq!(marts.result.rows.len(), 1);
    assert_eq!(marts.result.rows[0].values()[1], Value::Int(2));
    assert_eq!(marts.result.rows[0].values()[2], Value::Int(0), "no skew");

    // Refresh metrics and spans were recorded by the owning mediator.
    let obs = das.observability();
    let refreshed: u64 = obs.metrics.counter("mart_refreshes", das.url());
    assert!(refreshed >= 1, "refresh counter incremented");
    let trace = obs
        .traces
        .snapshot()
        .into_iter()
        .find(|t| t.sql.starts_with("REFRESH MART"))
        .expect("refresh trace recorded");
    assert!(trace.sql.contains("ntuple_events") || trace.sql.contains("run_summary"));
    let root = trace
        .spans()
        .iter()
        .find(|s| s.parent.is_none())
        .expect("root span");
    assert_eq!(root.kind, gridfed::obs::SpanKind::Refresh);
}

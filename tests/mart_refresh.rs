//! Mart refresh through the full stack: source extension → incremental
//! ETL → a refresh, which catches each mart's replication stream up to the
//! WAL head → RLS freshness → placement → cache invalidation →
//! EXPLAIN/monitor surface.

mod common;

use common::two_sources;
use gridfed::core::grid::{GridBuilder, GridQuery};
use gridfed::core::placement::ReplicaPolicy;
use gridfed::core::service::DEFAULT_CACHE_CAPACITY;
use gridfed::core::stats::QueryStats;
use gridfed::prelude::*;
use gridfed::warehouse::ReplBatchReport;

const COUNT_SQL: &str = "SELECT COUNT(*) AS n FROM ntuple_events";

/// What the refresh reported in `reports` did to `table`, with the version
/// it left: `"incremental"` when the view absorbed the WAL batch,
/// `"full"` when a rebuild from the live warehouse rewrote it.
fn refreshed_as(reports: &[ReplBatchReport], table: &str) -> Option<(&'static str, u64)> {
    reports.iter().rev().find_map(|r| {
        let (_, version) = r.refreshed.iter().rev().find(|(t, _)| t == table)?;
        let kind = if r.rebuilt.iter().any(|t| t == table) {
            "full"
        } else {
            "incremental"
        };
        Some((kind, *version))
    })
}

fn count_of(result: &ResultSet) -> i64 {
    match result.rows[0].values()[0] {
        Value::Int(n) => n,
        ref other => panic!("expected integer count, got {other:?}"),
    }
}

/// A refresh cycle moves only the delta — the WAL records the ingest
/// appended — bumps the data version monotonically, and a second cycle with
/// nothing new upstream skips without moving bytes.
#[test]
fn incremental_refresh_cycle_moves_only_the_delta() {
    let grid = two_sources(41, 60).build().expect("grid");
    let nvar = grid.spec.nvar();
    let full_etl_rows: usize = grid.etl_reports.iter().map(|r| r.rows).sum();
    assert_eq!(full_etl_rows, 120 * nvar, "seed ETL moved everything");

    grid.extend_sources(20).expect("extend");
    let etl = grid.run_incremental_etl().expect("incremental ETL");
    let delta_rows: usize = etl.iter().map(|r| r.rows).sum();
    assert_eq!(delta_rows, 20 * nvar, "ETL moved only the new events");

    // The log starts after materialization: it holds the ingest alone.
    let logged: usize = grid.warehouse.with_db(|db| {
        let records = db.wal_records_since(0, usize::MAX).expect("log");
        records.iter().map(|r| r.op.wire_size()).sum()
    });
    assert!(logged > 0);
    let reports = grid.refresh_marts().expect("refresh");
    let mart = |name: &str| -> Vec<&ReplBatchReport> {
        reports.iter().filter(|r| r.mart == name).collect()
    };
    let events = mart("mart_mysql");
    assert_eq!(
        refreshed_as(&reports, "ntuple_events"),
        Some(("incremental", 2)),
        "materialize was v1, refresh is v2"
    );
    assert_eq!(
        events.iter().map(|r| r.rows).sum::<usize>(),
        20,
        "one pivot row per new event"
    );
    assert_eq!(
        events.iter().map(|r| r.bytes).sum::<usize>(),
        logged,
        "a refresh ships exactly the records the ingest logged"
    );
    // The aggregate's stream has not filled its accumulators yet: its
    // first catch-up is a full (still shadow-swapped) rebuild.
    assert_eq!(mart("mart_mssql").len(), 1);
    assert_eq!(refreshed_as(&reports, "run_summary"), Some(("full", 2)));

    // The refreshed snapshot is complete and queryable.
    let out = grid.query(COUNT_SQL).expect("count");
    assert_eq!(count_of(&out.result), 140);
    assert_eq!(out.stats.versions.len(), 1);
    assert_eq!(out.stats.versions[0].version, 2);

    // Nothing new upstream: every mart skips, versions unchanged.
    for r in grid.refresh_marts().expect("second refresh") {
        assert!(r.refreshed.is_empty(), "{} refreshed twice", r.mart);
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
    let grid = two_sources(42, 50).build().expect("grid");
    let das = grid.service(0);
    das.reconfigure(|c| c.result_cache = Some(DEFAULT_CACHE_CAPACITY));

    let first = grid.query(COUNT_SQL).expect("first");
    assert_eq!(count_of(&first.result), 100);
    assert!(!first.stats.cache_hit);
    let repeat = grid.query(COUNT_SQL).expect("repeat");
    assert!(repeat.stats.cache_hit, "second run served from cache");
    assert_eq!(count_of(&repeat.result), 100);

    // The refresh below moves every mart view, this one too: its cached
    // answer is read at version 1 and is not served after the refresh.
    let other = "SELECT detector, mean_value FROM detector_summary ORDER BY detector";
    let other_first = grid.query(other).expect("other first");
    assert!(!other_first.stats.cache_hit);
    assert_eq!(versions_of(&other_first.stats), [1]);
    assert!(grid.query(other).expect("other repeat").stats.cache_hit);

    grid.extend_sources(10).expect("extend");
    grid.run_incremental_etl().expect("etl");
    let reports = grid.refresh_marts().expect("refresh");
    assert_eq!(
        refreshed_as(&reports, "ntuple_events").map(|r| r.0),
        Some("incremental")
    );

    let fresh = grid.query(COUNT_SQL).expect("after refresh");
    assert!(
        !fresh.stats.cache_hit,
        "version check must drop the stale entry"
    );
    assert_eq!(count_of(&fresh.result), 110, "new rows are visible");
    let again = grid.query(COUNT_SQL).expect("re-cached");
    assert!(again.stats.cache_hit, "fresh result is cached again");
    assert_eq!(count_of(&again.result), 110);

    let other_after = grid.query(other).expect("other after refresh");
    assert!(!other_after.stats.cache_hit, "detector_summary moved too");
    assert_eq!(versions_of(&other_after.stats), [2]);
}

fn versions_of(stats: &QueryStats) -> Vec<u64> {
    stats.versions.iter().map(|v| v.version).collect()
}

/// A cached answer over a table with no data version of its own — the
/// marts' refresh metadata — is dropped by a refresh too. Its version reads
/// 0 before and after, so the result cache's version check passes it: only
/// the whole-cache invalidation at an applied replication batch keeps it
/// fresh.
#[test]
fn refresh_drops_a_cached_answer_over_unversioned_mart_metadata() {
    let grid = two_sources(42, 50).build().expect("grid");
    grid.service(0)
        .reconfigure(|c| c.result_cache = Some(DEFAULT_CACHE_CAPACITY));
    let sql = "SELECT * FROM gridfed_mart_meta";
    // (version, refreshed_us, hwm, row_count) of the ntuple_events row.
    let events_row = |out: &GridQuery| -> Vec<Value> {
        let row = out
            .result
            .rows
            .iter()
            .find(|r| r.values()[0] == Value::Text("ntuple_events".into()));
        row.unwrap_or_else(|| panic!("no ntuple_events row in {:?}", out.result.rows))
            .values()[1..]
            .to_vec()
    };
    let ints = |v: [i64; 4]| v.map(Value::Int).to_vec();

    let first = grid.query(sql).expect("first");
    assert!(!first.stats.cache_hit);
    assert_eq!(versions_of(&first.stats), [0], "no version bookkeeping");
    assert_eq!(events_row(&first), ints([1, 0, 699, 100]));
    assert!(grid.query(sql).expect("repeat").stats.cache_hit);

    grid.extend_sources(10).expect("extend");
    grid.run_incremental_etl().expect("etl");
    grid.refresh_marts().expect("refresh");

    let fresh = grid.query(sql).expect("after refresh");
    assert!(!fresh.stats.cache_hit, "re-executed, not served stale");
    assert_eq!(versions_of(&fresh.stats), [0], "the version did not move");
    assert_eq!(events_row(&fresh), ints([2, 9365, 769, 110]));
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
    // mart_oracle's stream holds `run_conditions` before its accumulators
    // are filled, so its first catch-up rebuilds every view it holds.
    let reports = grid.refresh_mart("mart_oracle").expect("partial refresh");
    assert_eq!(refreshed_as(&reports, "ntuple_events"), Some(("full", 2)));

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

    // Replication metrics and spans were recorded by the owning mediator.
    let obs = das.observability();
    assert!(obs.metrics.counter("repl_polls", "mart_mysql") >= 1);
    assert_eq!(obs.metrics.counter("wal_rows_applied", "mart_mysql"), 10);
    let trace = obs
        .traces
        .snapshot()
        .into_iter()
        .find(|t| t.sql.starts_with("REPLICATE"))
        .expect("replication trace recorded");
    assert!(trace.sql.contains("mart_mysql") || trace.sql.contains("mart_mssql"));
    let root = trace
        .spans()
        .iter()
        .find(|s| s.parent.is_none())
        .expect("root span");
    assert_eq!(root.kind, gridfed::obs::SpanKind::Replicate);
}

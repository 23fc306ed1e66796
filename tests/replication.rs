//! WAL-based continuous replication, end to end: log-shipped marts stay
//! fresh without periodic rebuilds, measured lag reaches routing, stats,
//! EXPLAIN, and the monitor surface, and `BoundedStaleness` routing is a
//! guarantee — in-bound replica or typed error, never silently stale data.

use gridfed::core::grid::{GridBuilder, ReplicationConfig};
use gridfed::core::{CoreError, ReplicaPolicy};
use gridfed::prelude::*;

fn repl_grid(policy: ReplicaPolicy, plan: Option<FaultPlan>) -> Grid {
    let mut b = GridBuilder::new()
        .with_seed(11)
        .source("tier1.cern", VendorKind::Oracle, 60)
        .source("tier2.caltech", VendorKind::MySql, 60)
        .single_server()
        .replicate_events(true)
        .with_policy(policy)
        .with_observability(true)
        .with_replication(ReplicationConfig::default());
    if let Some(plan) = plan {
        b = b.with_fault_plan(plan);
    }
    b.build().expect("replication grid builds")
}

#[test]
fn new_facts_stream_continuously_into_every_mart() {
    let g = repl_grid(ReplicaPolicy::Freshest, None);
    assert!(g.replication_enabled());
    assert!(
        g.replication_caught_up(),
        "streams subscribe at the materialization head"
    );

    // New upstream events flow source -> warehouse (incremental ETL,
    // WAL-logged) -> marts (log shipping), with no mart refresh call.
    let first = g.extend_sources(8).expect("extend");
    g.run_incremental_etl().expect("incremental ETL");
    assert!(!g.replication_caught_up(), "warehouse logged new facts");
    let reports = g.pump_replication_for(6);
    assert!(g.replication_caught_up(), "streams converge");
    assert!(
        reports.iter().any(|r| r.records > 0),
        "at least one batch moved records"
    );

    let out = g
        .query(&format!(
            "SELECT e_id FROM ntuple_events WHERE e_id >= {first} ORDER BY e_id"
        ))
        .expect("query replicated rows");
    assert_eq!(out.result.len(), 8, "all new events replicated");

    // The SQL aggregate views replicated too (folded from the log).
    let runs = g
        .query("SELECT run_id, n_meas FROM run_summary WHERE run_id = 0")
        .expect("aggregate view query");
    assert_eq!(runs.result.len(), 1);

    // Steady-state staleness: caught-up replicas are at most one poll
    // interval old — strictly below any periodic refresh cadence.
    for (mart, lag) in g.replication_lag() {
        assert_eq!(lag.lsn_delta(), 0, "{mart} caught up");
    }
}

#[test]
fn lag_reaches_stats_explain_and_monitor_surface() {
    let g = repl_grid(ReplicaPolicy::Freshest, None);
    g.extend_sources(4).expect("extend");
    g.run_incremental_etl().expect("incremental ETL");
    g.pump_replication_for(4);

    // QueryStats carry the worst measured replica lag the query read.
    let out = g
        .query("SELECT e_id FROM ntuple_events WHERE e_id < 5 ORDER BY e_id")
        .expect("query");
    assert_eq!(out.stats.repl_lag_lsn, 0, "caught-up replica has no lag");

    // EXPLAIN annotates log-shipped tables with measured lag.
    let plan = g
        .service(0)
        .explain("SELECT e_id FROM ntuple_events WHERE e_id < 5")
        .expect("explain");
    assert!(
        plan.contains("[lag ") && plan.contains(" lsn,"),
        "EXPLAIN shows replication lag:\n{plan}"
    );

    // gridfed_monitor.replication: one row per log-shipped replica.
    let mon = g
        .query(
            "SELECT table_name, database, lag_lsn FROM gridfed_monitor.replication \
             ORDER BY table_name, database",
        )
        .expect("monitor query");
    assert!(
        mon.result.len() >= 5,
        "five log-shipped view replicas tracked, got {:?}",
        mon.result.rows
    );

    // Replicate traces and wal metrics landed in the monitor tables.
    let traces = g
        .query("SELECT sql FROM gridfed_monitor.queries")
        .expect("traces");
    assert!(
        traces
            .result
            .rows
            .iter()
            .any(|r| format!("{:?}", r.values()[0]).contains("REPLICATE")),
        "a REPLICATE trace was recorded"
    );
    let spans = g
        .query("SELECT kind FROM gridfed_monitor.spans WHERE kind = 'replicate'")
        .expect("spans");
    assert!(!spans.result.is_empty(), "replicate spans recorded");
    let metrics = g
        .query("SELECT family, value FROM gridfed_monitor.metrics WHERE family = 'wal_records_applied'")
        .expect("metrics");
    assert!(!metrics.result.is_empty(), "wal apply metrics recorded");
}

#[test]
fn bounded_staleness_fails_over_to_the_fresh_replica() {
    // mart_oracle (the second `ntuple_events` replica) is crashed, so its
    // stream stalls and the replica ages; mart_mysql keeps replicating.
    let plan = FaultPlan::new(7).crash("mart_oracle", Cost::ZERO, None);
    let g = repl_grid(ReplicaPolicy::BoundedStaleness(120_000), Some(plan));
    g.extend_sources(4).expect("extend");
    g.run_incremental_etl().expect("incremental ETL");
    g.pump_replication_for(8); // 8 * 50 ms: mart_oracle ages ~400 ms

    let out = g
        .query("SELECT e_id FROM ntuple_events WHERE e_id < 5 ORDER BY e_id")
        .expect("bounded query fails over");
    assert_eq!(out.result.len(), 5);
    assert_eq!(
        out.stats.versions[0].database.as_deref(),
        Some("mart_mysql"),
        "routed to the in-bound replica"
    );
}

#[test]
fn bounded_staleness_is_a_guarantee_not_a_preference() {
    // Partition the warehouse from the (single) mart host: every stream
    // stalls, every replica ages, and a bounded query must fail typed —
    // then succeed again once the partition heals and streams catch up.
    let heal_at = Cost::from_millis(300);
    let plan = FaultPlan::new(9).partition("tier0.cern", "node1", Cost::ZERO, Some(heal_at));
    let g = repl_grid(ReplicaPolicy::BoundedStaleness(150_000), Some(plan));
    g.extend_sources(4).expect("extend");
    g.run_incremental_etl().expect("incremental ETL");

    // Five stalled polls age every replica past the 150 ms bound.
    g.pump_replication_for(5);
    assert!(
        !g.replication_caught_up(),
        "partitioned streams owe records"
    );
    let err = g
        .query("SELECT e_id FROM ntuple_events WHERE e_id < 5")
        .expect_err("no replica within bound");
    match err {
        CoreError::StalenessBoundExceeded {
            table,
            bound_us,
            best_age_us,
        } => {
            assert_eq!(table, "ntuple_events");
            assert_eq!(bound_us, 150_000);
            assert!(best_age_us > bound_us, "freshest on offer is over bound");
        }
        other => panic!("expected StalenessBoundExceeded, got {other:?}"),
    }

    // EXPLAIN resolves under the same policy, so planning errors typed
    // too — the bound guards every path that would read the replica.
    assert!(matches!(
        g.service(0)
            .explain("SELECT e_id FROM ntuple_events WHERE e_id < 5"),
        Err(CoreError::StalenessBoundExceeded { .. })
    ));

    // Heal: clock is already past the window after the stalled pumps.
    let caught_up = (0..10).any(|_| {
        g.pump_replication();
        g.replication_caught_up()
    });
    assert!(caught_up, "streams converge after the partition heals");
    let out = g
        .query("SELECT e_id FROM ntuple_events WHERE e_id < 5 ORDER BY e_id")
        .expect("bounded query succeeds once back in bound");
    assert_eq!(out.result.len(), 5);
}

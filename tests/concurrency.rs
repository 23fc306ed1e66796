//! Concurrency integration: many clients hammering one grid at once.
//!
//! The paper's service is a shared web service; parallel analysis clients
//! are its normal load. These tests check that concurrent queries (and
//! concurrent queries racing schema changes) never corrupt results.

mod common;

use common::two_sources;
use gridfed::core::grid::GridBuilder;
use gridfed::core::{AdmissionConfig, CoreError};
use gridfed::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

#[test]
fn parallel_clients_get_identical_answers() {
    let grid = Arc::new(two_sources(71, 150).build().expect("grid builds"));
    let sql = "SELECT e.e_id, e.energy, s.n_meas FROM ntuple_events e \
               JOIN run_summary s ON e.run_id = s.run_id \
               WHERE e.energy > 10.0 ORDER BY e.e_id";
    let reference = grid.query(sql).expect("reference").result;

    let handles: Vec<_> = (0..8)
        .map(|_| {
            let grid = Arc::clone(&grid);
            let sql = sql.to_string();
            thread::spawn(move || {
                let mut results = Vec::new();
                for _ in 0..5 {
                    results.push(grid.query(&sql).expect("concurrent query").result);
                }
                results
            })
        })
        .collect();
    for h in handles {
        for result in h.join().expect("thread") {
            assert_eq!(result, reference);
        }
    }
}

#[test]
fn queries_race_schema_refreshes_safely() {
    let grid = Arc::new(GridBuilder::new().with_seed(72).build().expect("grid"));
    let das = Arc::clone(grid.service(0));

    let reader = {
        let grid = Arc::clone(&grid);
        thread::spawn(move || {
            for _ in 0..20 {
                let out = grid
                    .query("SELECT e_id FROM ntuple_events WHERE e_id < 10")
                    .expect("query during refresh churn");
                assert_eq!(out.result.len(), 10);
            }
        })
    };
    let refresher = thread::spawn(move || {
        for _ in 0..10 {
            let changed = das.refresh_schemas().expect("refresh").value;
            assert!(changed.is_empty(), "nothing actually changed");
        }
    });
    reader.join().expect("reader");
    refresher.join().expect("refresher");
}

#[test]
fn mixed_query_shapes_in_parallel() {
    let grid = Arc::new(GridBuilder::new().with_seed(73).build().expect("grid"));
    let queries = [
        "SELECT e_id FROM ntuple_events WHERE e_id < 5",
        "SELECT detector, COUNT(*) AS n FROM ntuple_events GROUP BY detector ORDER BY detector",
        "SELECT e.e_id, s.n_meas FROM ntuple_events e \
         JOIN run_summary s ON e.run_id = s.run_id WHERE e.e_id < 5",
        "SELECT detector, mean_value FROM detector_summary ORDER BY detector",
    ];
    let handles: Vec<_> = queries
        .iter()
        .map(|sql| {
            let grid = Arc::clone(&grid);
            let sql = sql.to_string();
            thread::spawn(move || {
                for _ in 0..5 {
                    let out = grid.query(&sql).expect("parallel shape");
                    assert!(!out.result.columns.is_empty());
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("thread");
    }
}

/// Readers racing incremental mart refreshes must only ever observe
/// complete snapshots: either the pre-refresh row set or the post-refresh
/// one, never a missing table or a half-built snapshot. Before the
/// shadow-build + atomic-swap refresh, the drop→create→insert window made
/// both failure modes routine under load.
#[test]
fn queries_observe_only_complete_snapshots_during_refresh() {
    let grid = Arc::new(two_sources(74, 60).build().expect("grid"));
    const INITIAL: i64 = 120;
    const STEP: i64 = 10;
    const CYCLES: i64 = 5;

    let writer = {
        let grid = Arc::clone(&grid);
        thread::spawn(move || {
            for _ in 0..CYCLES {
                grid.extend_sources(STEP as usize).expect("extend");
                grid.run_incremental_etl().expect("etl");
                let reports = grid.refresh_marts().expect("refresh");
                assert!(reports
                    .iter()
                    .any(|r| r.mart == "mart_mysql" && r.rows == STEP as usize));
            }
        })
    };

    let readers: Vec<_> = (0..4)
        .map(|_| {
            let grid = Arc::clone(&grid);
            thread::spawn(move || {
                for _ in 0..30 {
                    let out = grid
                        .query("SELECT COUNT(*) AS n FROM ntuple_events")
                        .expect("query during refresh churn");
                    let n = match out.result.rows[0].values()[0] {
                        Value::Int(n) => n,
                        ref v => panic!("count came back as {v:?}"),
                    };
                    // Every observed count is exactly one full snapshot:
                    // the initial build or the state after k refreshes.
                    assert!(
                        (INITIAL..=INITIAL + CYCLES * STEP).contains(&n)
                            && (n - INITIAL) % STEP == 0,
                        "partial snapshot observed: {n} rows"
                    );
                }
            })
        })
        .collect();

    for h in readers {
        h.join().expect("reader");
    }
    writer.join().expect("writer");

    let final_count = grid
        .query("SELECT COUNT(*) AS n FROM ntuple_events")
        .expect("final count");
    assert_eq!(
        final_count.result.rows[0].values()[0],
        Value::Int(INITIAL + CYCLES * STEP)
    );
}

/// The PR 7 hammer: the intra-query worker pool, the admission front door,
/// and shadow-table mart refreshes all running at once. Multiple tenants
/// fire mixed query shapes through a 3-slot admission queue while a writer
/// churns refresh cycles; every observed count must still be a complete
/// snapshot (morsel workers must never see a half-swapped table), every
/// parallel answer must match the row set an exact snapshot implies, and
/// queue overflow must surface as the typed `AdmissionFull` — never a
/// wrong answer or a silent drop.
#[test]
fn hammer_worker_pool_admission_and_refresh_churn() {
    let grid = Arc::new(
        two_sources(75, 60)
            .with_parallelism(4)
            .with_morsel_rows(16)
            .with_admission(AdmissionConfig {
                slots: 3,
                queue_limit: 4,
            })
            .build()
            .expect("grid"),
    );
    const INITIAL: i64 = 120;
    const STEP: i64 = 10;
    const CYCLES: i64 = 5;

    let writer = {
        let grid = Arc::clone(&grid);
        thread::spawn(move || {
            for _ in 0..CYCLES {
                grid.extend_sources(STEP as usize).expect("extend");
                grid.run_incremental_etl().expect("etl");
                grid.refresh_marts().expect("refresh");
            }
        })
    };

    let rejections = Arc::new(AtomicU64::new(0));
    let widest = Arc::new(AtomicU64::new(0));
    let readers: Vec<_> = (0..6)
        .map(|i| {
            let grid = Arc::clone(&grid);
            let rejections = Arc::clone(&rejections);
            let widest = Arc::clone(&widest);
            // Two tenants interleave, exercising the fair rotation.
            let tenant = if i % 2 == 0 { "cms" } else { "atlas" };
            thread::spawn(move || {
                for round in 0..25 {
                    let sql = match round % 3 {
                        0 => "SELECT COUNT(*) AS n FROM ntuple_events",
                        1 => {
                            "SELECT e.run_id, COUNT(*) AS n FROM ntuple_events e \
                             JOIN run_summary s ON e.run_id = s.run_id \
                             GROUP BY e.run_id ORDER BY e.run_id"
                        }
                        _ => {
                            "SELECT e.e_id FROM ntuple_events e \
                             JOIN run_summary s ON e.run_id = s.run_id \
                             ORDER BY e.e_id"
                        }
                    };
                    let out = match grid.query_as(tenant, sql) {
                        Ok(out) => out,
                        Err(CoreError::AdmissionFull { queued, limit, .. }) => {
                            // Backpressure is a legitimate outcome under
                            // this load — typed, bounded, and retryable.
                            assert!(queued >= limit, "refused below the bound");
                            rejections.fetch_add(1, Ordering::Relaxed);
                            continue;
                        }
                        Err(e) => panic!("hammer query failed: {e}"),
                    };
                    widest.fetch_max(out.stats.exec_workers, Ordering::Relaxed);
                    // Whatever the shape, the rows must describe one
                    // complete snapshot: a count (or join cardinality)
                    // of exactly `INITIAL + k*STEP` events.
                    let n = match round % 3 {
                        0 => match out.result.rows[0].values()[0] {
                            Value::Int(n) => n,
                            ref v => panic!("count came back as {v:?}"),
                        },
                        1 => out
                            .result
                            .rows
                            .iter()
                            .map(|r| match r.values()[1] {
                                Value::Int(n) => n,
                                ref v => panic!("group count came back as {v:?}"),
                            })
                            .sum(),
                        _ => out.result.rows.len() as i64,
                    };
                    assert!(
                        (INITIAL..=INITIAL + CYCLES * STEP).contains(&n)
                            && (n - INITIAL) % STEP == 0,
                        "torn snapshot under the worker pool: {n} rows via `{sql}`"
                    );
                }
            })
        })
        .collect();

    for h in readers {
        h.join().expect("reader");
    }
    writer.join().expect("writer");

    assert!(
        widest.load(Ordering::Relaxed) > 1,
        "the hammer never actually engaged the worker pool"
    );
    // Rejections are allowed but the queue must drain: a fresh query after
    // the storm is admitted immediately.
    let after = grid
        .query_as("cms", "SELECT COUNT(*) AS n FROM ntuple_events")
        .expect("post-storm query");
    assert_eq!(after.stats.queue_depth, 0, "queue drained");
    assert_eq!(
        after.result.rows[0].values()[0],
        Value::Int(INITIAL + CYCLES * STEP)
    );
}

/// Planned statements are shared between clients and re-planned the moment
/// the dictionary moves. Eight clients hammer sixteen statements through
/// the admission front door while a ninth thread plugs the mart behind half
/// of them out and in again: every outcome is the exact answer or the typed
/// `TableNotFound` of the unplugged window — never the answer of a plan for
/// a dictionary that is gone, never a deadlock between the plan cache, the
/// dictionary and the version map (the test ends).
#[test]
fn planned_statements_survive_dictionary_churn_under_admission() {
    let grid = Arc::new(
        GridBuilder::new()
            .with_seed(76)
            .with_admission(AdmissionConfig {
                slots: 4,
                queue_limit: 16,
            })
            .build()
            .expect("grid"),
    );
    // Eight statements over the mart that stays, eight that also need the
    // one that comes and goes.
    let statements: Arc<Vec<String>> = Arc::new(
        (3..11)
            .flat_map(|k| {
                [
                    format!("SELECT e_id, energy FROM ntuple_events WHERE e_id < {k}"),
                    format!(
                        "SELECT e.e_id, s.n_meas FROM ntuple_events e \
                         JOIN run_summary s ON e.run_id = s.run_id WHERE e.e_id < {k}"
                    ),
                ]
            })
            .collect(),
    );
    let expected: Arc<Vec<ResultSet>> = Arc::new(
        statements
            .iter()
            .map(|sql| grid.query(sql).expect("reference").result)
            .collect(),
    );

    let start = Arc::new(std::sync::Barrier::new(9));
    let clients_done = Arc::new(AtomicU64::new(0));
    let clients: Vec<_> = (0..8)
        .map(|i| {
            let (grid, statements, expected) = (
                Arc::clone(&grid),
                Arc::clone(&statements),
                Arc::clone(&expected),
            );
            let (start, clients_done) = (Arc::clone(&start), Arc::clone(&clients_done));
            thread::spawn(move || {
                start.wait();
                let mut refused = 0u64;
                for round in 0..12 {
                    for at in 0..statements.len() {
                        // Each client walks the statements from its own
                        // offset, so all sixteen are in flight at once.
                        let at = (at + 2 * i + round) % statements.len();
                        match grid.query_as("cms", &statements[at]) {
                            Ok(out) => assert_eq!(out.result, expected[at], "{}", statements[at]),
                            Err(CoreError::TableNotFound(table)) => {
                                assert_eq!(table, "run_summary");
                                assert!(statements[at].contains("run_summary"));
                                refused += 1;
                            }
                            Err(e) => panic!("`{}` failed untyped: {e}", statements[at]),
                        }
                    }
                }
                clients_done.fetch_add(1, Ordering::SeqCst);
                refused
            })
        })
        .collect();
    let churn = {
        let (grid, start, clients_done) = (
            Arc::clone(&grid),
            Arc::clone(&start),
            Arc::clone(&clients_done),
        );
        thread::spawn(move || {
            let das = grid.service(0);
            let url = gridfed::core::grid::mart_url(&grid.marts[1]);
            start.wait();
            let mut cycles = 0u64;
            // At least a few cycles even if the clients win every race.
            while cycles < 4 || clients_done.load(Ordering::SeqCst) < 8 {
                assert!(das.unregister_database("mart_mssql"));
                das.register_database(&url).expect("plug back in");
                cycles += 1;
            }
            cycles
        })
    };
    for client in clients {
        client.join().expect("client");
    }
    assert!(churn.join().expect("churn") >= 4);

    // Plugged back in: every statement is exact again, and nothing is
    // left holding an admission slot.
    for (sql, want) in statements.iter().zip(expected.iter()) {
        let out = grid.query_as("cms", sql).expect("after the churn");
        assert_eq!(&out.result, want, "{sql}");
        assert_eq!(out.stats.queue_depth, 0, "queue drained");
    }
}

/// A failed branch's supervision time belongs to the query that ran it.
/// With one mart down for the whole run, four clients repeat a statement
/// that needs it (and fails after three backoffs) beside four repeating one
/// that does not: every failed trace carries the term the statement accrues
/// run alone — none lost to, none picked up from, a neighbour finishing in
/// between — and the shared clock advanced by exactly what the traces say.
#[test]
fn failed_queries_keep_their_supervision_time_beside_succeeding_ones() {
    let grid = Arc::new(
        GridBuilder::new()
            .with_seed(77)
            .with_observability(true)
            .with_resilience(ResilienceConfig {
                max_retries: 3,
                base_backoff: Cost::from_millis(25),
                max_backoff: Cost::from_millis(100),
                breaker_threshold: 0,
                failover: false,
                ..ResilienceConfig::standard()
            })
            .with_fault_plan(FaultPlan::new(5).crash("mart_mssql", Cost::ZERO, None))
            .build()
            .expect("grid"),
    );
    let failing = "SELECT e.e_id, s.n_meas FROM ntuple_events e \
                   JOIN run_summary s ON e.run_id = s.run_id WHERE e.e_id < 5";
    let succeeding = "SELECT e_id FROM ntuple_events WHERE e_id < 5";
    let das = grid.service(0);
    let traces = || das.observability().traces.snapshot();

    // The statement run alone.
    assert!(matches!(
        grid.query(failing),
        Err(CoreError::BranchUnavailable { .. })
    ));
    let alone = traces()[0].record.as_ref().expect("recorded").resilience;
    assert!(alone > Cost::from_millis(50), "three backoffs: {alone}");

    let clock = das.clock();
    let before = clock.now().as_micros();
    let clients: Vec<_> = (0..8)
        .map(|i| {
            let grid = Arc::clone(&grid);
            thread::spawn(move || {
                for _ in 0..10 {
                    match grid.query(if i % 2 == 0 { failing } else { succeeding }) {
                        Ok(out) => assert_eq!((i % 2, out.result.len()), (1, 5)),
                        Err(e) => assert!(
                            i % 2 == 0 && matches!(e, CoreError::BranchUnavailable { .. }),
                            "client {i}: {e:?}"
                        ),
                    }
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client thread");
    }

    let after = &traces()[1..];
    assert_eq!(after.len(), 80, "the ring kept every query");
    let failed: Vec<Cost> = after
        .iter()
        .filter_map(|t| t.record.as_ref())
        .filter(|r| r.error.is_some())
        .map(|r| r.resilience)
        .collect();
    assert_eq!(failed, vec![alone; 40]);
    assert_eq!(
        clock.now().as_micros() - before,
        after.iter().map(|t| t.duration_us).sum::<u64>()
    );
}

//! End-to-end integration: the full paper pipeline from normalized sources
//! through the warehouse and marts to federated query answers, checked
//! against ground truth computed independently.

use gridfed::core::grid::GridBuilder;
use gridfed::core::service::ConnectionPolicy;
use gridfed::prelude::*;

fn grid() -> Grid {
    GridBuilder::new()
        .with_seed(99)
        .source("tier1.cern", VendorKind::Oracle, 120)
        .source("tier2.caltech", VendorKind::MySql, 120)
        .build()
        .expect("grid builds")
}

#[test]
fn every_source_row_reaches_the_warehouse() {
    let g = grid();
    let source_rows: usize = g
        .sources
        .iter()
        .map(|s| s.with_db(|db| db.table("measurements").map(|t| t.len()).unwrap_or(0)))
        .sum();
    let fact_rows = g
        .warehouse
        .with_db(|db| db.table("fact_measurements").expect("fact table").len());
    assert_eq!(source_rows, fact_rows);
    assert_eq!(fact_rows, g.spec.measurement_rows());
}

#[test]
fn mart_pivot_preserves_every_event_and_value() {
    let g = grid();
    // Ground truth: measurements straight out of the sources.
    let mut truth: Vec<(i64, i64, f64)> = Vec::new(); // (e_id, var_id, value)
    for s in &g.sources {
        s.with_db(|db| {
            for row in db.table("measurements").expect("measurements").rows() {
                let v = row.values();
                if let (Value::Int(e), Value::Int(var), Value::Float(x)) = (&v[1], &v[2], &v[3]) {
                    truth.push((*e, *var, *x));
                }
            }
        });
    }
    assert_eq!(truth.len(), g.spec.measurement_rows());

    // The pivoted mart must contain exactly these values at
    // (event row, variable column).
    let out = g
        .query("SELECT * FROM ntuple_events ORDER BY e_id")
        .expect("mart dump");
    assert_eq!(out.result.len(), g.spec.events);
    let energy_col = out.result.column_index("energy").expect("energy col");
    for (e_id, var_id, value) in truth {
        if var_id != 0 {
            continue; // energy is variable 0 in the physics spec
        }
        let row = &out.result.rows[e_id as usize];
        assert_eq!(row.values()[0], Value::Int(e_id));
        match &row.values()[energy_col] {
            Value::Float(x) => assert!((x - value).abs() < 1e-9, "event {e_id}"),
            other => panic!("expected float energy, got {other:?}"),
        }
    }
}

#[test]
fn federated_join_matches_manual_join() {
    let g = grid();
    let out = g
        .query(
            "SELECT e.e_id, e.run_id, s.n_meas FROM ntuple_events e \
             JOIN run_summary s ON e.run_id = s.run_id ORDER BY e.e_id",
        )
        .expect("federated join");
    assert_eq!(out.result.len(), g.spec.events, "1:1 join keeps all events");

    // n_meas per run, computed from the warehouse directly.
    let per_run = g.warehouse.with_db(|db| {
        let mut counts = std::collections::HashMap::new();
        for row in db.table("fact_measurements").expect("fact").rows() {
            if let Value::Int(run) = row.values()[2] {
                *counts.entry(run).or_insert(0i64) += 1;
            }
        }
        counts
    });
    for row in &out.result.rows {
        let (run, n) = (&row.values()[1], &row.values()[2]);
        if let (Value::Int(run), Value::Int(n)) = (run, n) {
            assert_eq!(per_run[run], *n, "run {run}");
        } else {
            panic!("unexpected types in join output");
        }
    }
}

#[test]
fn federated_aggregate_matches_ground_truth() {
    let g = grid();
    let out = g
        .query("SELECT COUNT(*) AS n, AVG(energy) AS mean_e FROM ntuple_events")
        .expect("aggregate");
    let n = match out.result.rows[0].values()[0] {
        Value::Int(n) => n,
        ref other => panic!("count type {other:?}"),
    };
    assert_eq!(n as usize, g.spec.events);

    // Mean energy from the mart contents directly.
    let truth = g.marts[0].with_db(|db| {
        let t = db.table("ntuple_events").expect("mart table");
        let idx = t.schema().index_of("energy").expect("energy");
        let vals: Vec<f64> = t
            .rows()
            .iter()
            .filter_map(|r| match r.values()[idx] {
                Value::Float(x) => Some(x),
                _ => None,
            })
            .collect();
        vals.iter().sum::<f64>() / vals.len() as f64
    });
    match out.result.rows[0].values()[1] {
        Value::Float(mean) => assert!((mean - truth).abs() < 1e-9),
        ref other => panic!("avg type {other:?}"),
    }
}

#[test]
fn rpc_vector_matches_direct_result() {
    let g = grid();
    let sql = "SELECT e_id, detector FROM ntuple_events WHERE e_id < 7 ORDER BY e_id";
    let direct = g.query(sql).expect("direct");
    let (vector, _) = g.query_rpc(sql).expect("rpc");
    assert_eq!(vector.len(), direct.result.len() + 1);
    assert_eq!(vector[0], direct.result.columns);
    for (vrow, drow) in vector[1..].iter().zip(&direct.result.rows) {
        let rendered: Vec<String> = drow.values().iter().map(Value::render).collect();
        assert_eq!(*vrow, rendered);
    }
}

#[test]
fn four_table_two_server_query_is_consistent() {
    let g = grid();
    let out = g
        .query(
            "SELECT e.e_id, s.n_meas, c.avg_weight, d.mean_value \
             FROM ntuple_events e \
             JOIN run_summary s ON e.run_id = s.run_id \
             JOIN run_conditions c ON s.run_id = c.run_id \
             JOIN detector_summary d ON c.detector = d.detector \
             ORDER BY e.e_id",
        )
        .expect("four-table query");
    // every event appears exactly once (each run has one detector row in
    // run_conditions and one in detector_summary)
    assert_eq!(out.result.len(), g.spec.events);
    assert_eq!(out.stats.servers, 2);
    assert!(out.stats.remote_forwards >= 2);
    // no NULLs anywhere: all joins matched
    for row in &out.result.rows {
        assert!(row.values().iter().all(|v| !v.is_null()));
    }
}

#[test]
fn deterministic_rebuild_produces_identical_answers() {
    let a = grid();
    let b = grid();
    let sql = "SELECT e_id, energy FROM ntuple_events WHERE energy > 30.0 ORDER BY e_id";
    let ra = a.query(sql).expect("a");
    let rb = b.query(sql).expect("b");
    assert_eq!(ra.result, rb.result);
    assert_eq!(
        ra.response_time, rb.response_time,
        "virtual time is deterministic"
    );
}

/// Every plan shape runs through one scatter; what a query is charged and
/// counted must not depend on that. The literals are what the three
/// separate dispatch routes reported at the commit before they were merged
/// (default grid, seed 31, in this order — the forward-all statement pays
/// node1's one login to node2, so row 3 after it does not). A repeat runs
/// the plan kept from the first pass, and must report the same again —
/// less that one login, which no later statement pays.
#[test]
fn every_plan_shape_reports_the_stats_it_always_did() {
    // The paper's arm: every distributed query connects and asks the RLS.
    let g = GridBuilder::new()
        .with_seed(31)
        .with_connection_policy(ConnectionPolicy::PerQuery)
        .build()
        .expect("grid");
    // (sql, subqueries, distributed, connections_opened, pooled_hits,
    //  remote_forwards, rls_lookups, rows_fetched, bytes_fetched,
    //  breakdown in µs [plan, rls, connect, execute, integrate, serialize,
    //  resilience], response_time in µs)
    let cases = [
        // Table-1 row 1: SINGLE DATABASE over POOL-RAL.
        (
            "SELECT e_id, energy FROM ntuple_events WHERE e_id < 20",
            (1, false, 0, 1, 0, 0, 20, 495),
            [4000, 0, 0, 7970, 0, 1200, 0],
            27222,
        ),
        // FORWARD ALL: only node2 hosts detector_summary.
        (
            "SELECT detector, mean_value FROM detector_summary",
            (1, false, 0, 1, 1, 1, 4, 138),
            [4000, 26020, 121408, 38943, 0, 240, 0],
            204635,
        ),
        // Table-1 row 3: FEDERATED, four tables on two servers.
        (
            ROW3_SQL,
            (4, true, 2, 2, 2, 2, 32, 994),
            [4000, 52039, 412000, 89497, 1280, 1200, 0],
            574124,
        ),
    ];
    const LOGIN_US: u64 = 121_408;
    for (pass, (sql, counts, mut breakdown_us, mut response_us)) in
        (0..3).flat_map(|pass| cases.map(|case| (pass, case)))
    {
        if pass > 0 && breakdown_us[2] == LOGIN_US {
            breakdown_us[2] -= LOGIN_US;
            response_us -= LOGIN_US;
        }
        assert_stats(&g, sql, counts, breakdown_us, response_us);
    }

    // The default arm: the first occurrence pays for what the session then
    // keeps — the peer login, the one handshake POOL cannot hold
    // (`mart_mssql`, 225 ms), one RLS answer per remote table — and every
    // later one pays for none of it. Same sub-queries, rows and bytes; the
    // per-table fetch from `mart_mysql` now goes through POOL-RAL too (one
    // more pooled hit, one more JNI call: 120 µs of `execute`), and row 3's
    // two sub-queries for node2 travel in one call — still two
    // `remote_forwards`, one forward + Clarens request/response + round
    // trip (32 010 µs of `execute`) fewer.
    let g = GridBuilder::new().with_seed(31).build().expect("grid");
    let first = [
        (cases[0].1, cases[0].2, cases[0].3),
        (cases[1].1, cases[1].2, cases[1].3),
        (
            (4, true, 1, 3, 2, 1, 32, 994),
            [4000, 26019, 225000, 57607, 1280, 1200, 0],
            329214,
        ),
    ];
    let later = [
        first[0],
        (
            (1, false, 0, 1, 1, 0, 4, 138),
            [4000, 0, 0, 38943, 0, 240, 0],
            57207,
        ),
        (
            (4, true, 0, 4, 2, 0, 32, 994),
            [4000, 0, 0, 57607, 1280, 1200, 0],
            78195,
        ),
    ];
    for pass in 0..3 {
        let expected = if pass == 0 { first } else { later };
        for ((sql, ..), (counts, breakdown_us, response_us)) in cases.iter().zip(expected) {
            assert_stats(&g, sql, counts, breakdown_us, response_us);
        }
    }
}

const ROW3_SQL: &str = "SELECT e.e_id, s.n_meas, c.avg_weight, d.mean_value \
     FROM ntuple_events e \
     JOIN run_summary s ON e.run_id = s.run_id \
     JOIN run_conditions c ON s.run_id = c.run_id \
     JOIN detector_summary d ON c.detector = d.detector \
     WHERE e.e_id < 20";

type Counts = (usize, bool, usize, usize, usize, usize, usize, usize);

/// Ask `sql` once and compare its counters, the seven phases of its virtual
/// breakdown and its response time.
fn assert_stats(g: &Grid, sql: &str, counts: Counts, breakdown_us: [u64; 7], response_us: u64) {
    let out = g.query(sql).expect(sql);
    let s = &out.stats;
    assert_eq!(
        (
            s.subqueries,
            s.distributed,
            s.connections_opened,
            s.pooled_hits,
            s.remote_forwards,
            s.rls_lookups,
            s.rows_fetched,
            s.bytes_fetched,
        ),
        counts,
        "{sql}"
    );
    let b = &s.breakdown;
    let phases = [
        b.plan,
        b.rls,
        b.connect,
        b.execute,
        b.integrate,
        b.serialize,
        b.resilience,
    ];
    assert_eq!(phases.map(|c| c.as_micros()), breakdown_us, "{sql}");
    assert_eq!(out.response_time.as_micros(), response_us, "{sql}");
}

//! Federation-semantics integration tests: the mediator's decompose →
//! scatter → integrate pipeline must be *observationally equivalent* to
//! running the same SQL against one database holding all the tables — the
//! grid's merged database, answered by `gridfed-reference` (`tests/common`).

mod common;

use common::{assert_promise, two_sources, Merged};
use gridfed::core::grid::GridBuilder;
use gridfed::core::service::{ConnectionPolicy, DispatchMode};
use gridfed::prelude::*;
use gridfed::storage::{ColumnDef, DataType, Schema};

fn grid() -> Grid {
    two_sources(1234, 80).build().expect("grid builds")
}

/// Run `sql` on the grid: a complete answer, the reference's over the
/// merged database (ORDER BY makes the comparison exact).
fn assert_equivalent(g: &Grid, oracle: &Merged, sql: &str) {
    let federated = g.query(sql).expect("federated query");
    assert!(!federated.stats.is_degraded(), "{sql}: degraded");
    assert_promise(sql, sql, Ok((&federated.result, &federated.stats)), oracle);
}

#[test]
fn single_table_queries_are_equivalent() {
    let g = grid();
    let oracle = Merged::of(&g);
    for sql in [
        "SELECT e_id, energy FROM ntuple_events ORDER BY e_id",
        "SELECT e_id FROM ntuple_events WHERE energy BETWEEN 10.0 AND 60.0 ORDER BY e_id",
        "SELECT detector, COUNT(*) AS n FROM ntuple_events GROUP BY detector ORDER BY detector",
        "SELECT e_id FROM ntuple_events WHERE detector LIKE 'e%' ORDER BY e_id",
        "SELECT e_id FROM ntuple_events WHERE detector IN ('ecal', 'muon') ORDER BY e_id LIMIT 10",
        "SELECT DISTINCT detector FROM ntuple_events ORDER BY detector",
        "SELECT DISTINCT run_id, detector FROM ntuple_events ORDER BY run_id",
    ] {
        assert_equivalent(&g, &oracle, sql);
    }
}

#[test]
fn cross_database_joins_are_equivalent() {
    let g = grid();
    let oracle = Merged::of(&g);
    for sql in [
        "SELECT e.e_id, s.n_meas FROM ntuple_events e \
         JOIN run_summary s ON e.run_id = s.run_id ORDER BY e.e_id",
        "SELECT e.e_id, s.avg_value FROM ntuple_events e \
         JOIN run_summary s ON e.run_id = s.run_id \
         WHERE e.energy > 20.0 AND s.n_meas > 0 ORDER BY e.e_id",
        "SELECT s.run_id, COUNT(*) AS n FROM ntuple_events e \
         JOIN run_summary s ON e.run_id = s.run_id \
         GROUP BY s.run_id ORDER BY s.run_id",
        "SELECT DISTINCT e.detector, s.n_meas FROM ntuple_events e \
         JOIN run_summary s ON e.run_id = s.run_id ORDER BY e.detector",
        "SELECT e.run_id, COUNT(*) AS n FROM ntuple_events e \
         JOIN run_summary s ON e.run_id = s.run_id \
         GROUP BY e.run_id HAVING COUNT(*) > 10 ORDER BY e.run_id",
    ] {
        assert_equivalent(&g, &oracle, sql);
    }
}

#[test]
fn cross_server_joins_are_equivalent() {
    let g = grid();
    let oracle = Merged::of(&g);
    assert_equivalent(
        &g,
        &oracle,
        "SELECT e.e_id, c.avg_weight, d.mean_value FROM ntuple_events e \
         JOIN run_conditions c ON e.run_id = c.run_id \
         JOIN detector_summary d ON c.detector = d.detector \
         WHERE e.e_id < 40 ORDER BY e.e_id",
    );
}

#[test]
fn dispatch_mode_does_not_change_answers() {
    let par = GridBuilder::new().with_seed(5).build().expect("grid");
    let seq = GridBuilder::new()
        .with_seed(5)
        .with_dispatch(DispatchMode::Sequential)
        .build()
        .expect("grid");
    let sql = "SELECT e.e_id, s.n_meas FROM ntuple_events e \
               JOIN run_summary s ON e.run_id = s.run_id ORDER BY e.e_id";
    let a = par.query(sql).expect("parallel").result;
    let b = seq.query(sql).expect("sequential").result;
    assert_eq!(a, b);
}

#[test]
fn connection_policy_does_not_change_answers_only_cost() {
    let fresh = GridBuilder::new()
        .with_seed(6)
        .with_connection_policy(ConnectionPolicy::PerQuery)
        .build()
        .expect("grid");
    let pooled = GridBuilder::new()
        .with_seed(6)
        .with_connection_policy(ConnectionPolicy::Session)
        .build()
        .expect("grid");
    let sql = "SELECT e.e_id, s.n_meas FROM ntuple_events e \
               JOIN run_summary s ON e.run_id = s.run_id ORDER BY e.e_id";
    let a = fresh.query(sql).expect("fresh");
    let b = pooled.query(sql).expect("pooled");
    assert_eq!(a.result, b.result);
    assert!(
        b.response_time < a.response_time,
        "pooled ({}) must beat fresh ({})",
        b.response_time,
        a.response_time
    );
    assert!(b.stats.pooled_hits > 0);
}

#[test]
fn replication_with_policies_yields_same_rows() {
    let sql = "SELECT e_id, energy FROM ntuple_events WHERE e_id < 30 ORDER BY e_id";
    let first = GridBuilder::new()
        .with_seed(7)
        .replicate_events(true)
        .build()
        .expect("grid");
    let closest = GridBuilder::new()
        .with_seed(7)
        .replicate_events(true)
        .with_policy(ReplicaPolicy::Closest)
        .build()
        .expect("grid");
    let a = first.query(sql).expect("first").result;
    let b = closest.query(sql).expect("closest").result;
    assert_eq!(a, b, "replica choice must not change query answers");
}

use gridfed::core::ReplicaPolicy;

#[test]
fn wan_changes_cost_not_answers() {
    let sql = "SELECT e.e_id, s.n_meas, c.avg_weight, d.mean_value \
               FROM ntuple_events e \
               JOIN run_summary s ON e.run_id = s.run_id \
               JOIN run_conditions c ON s.run_id = c.run_id \
               JOIN detector_summary d ON c.detector = d.detector \
               WHERE e.e_id < 10 ORDER BY e.e_id";
    let lan = GridBuilder::new().with_seed(8).build().expect("grid");
    let wan = GridBuilder::new()
        .with_seed(8)
        .with_wan(true)
        .build()
        .expect("grid");
    let a = lan.query(sql).expect("lan");
    let b = wan.query(sql).expect("wan");
    assert_eq!(a.result, b.result);
    assert!(
        b.response_time > a.response_time,
        "WAN ({}) must exceed LAN ({})",
        b.response_time,
        a.response_time
    );
}

/// `=` across two databases: each side's one-row table is fetched, staged
/// at the mediator, and joined there — the join pairs exactly what `=`
/// pairs. The INT pair is one `f64` apart from nothing, the NaN pair a
/// value apart from nothing; neither may match.
#[test]
fn a_cross_database_join_pairs_what_equality_pairs() {
    let g = grid();
    let cases = [
        (
            DataType::Int,
            Value::Int(9007199254740993),
            Value::Int(1 << 53),
            0,
        ),
        (
            DataType::Float,
            Value::Float(f64::NAN),
            Value::Float(f64::NAN),
            0,
        ),
        (DataType::Float, Value::Float(-0.0), Value::Float(0.0), 1),
        (DataType::Int, Value::Int(1 << 53), Value::Int(1 << 53), 1),
    ];
    for (i, (data_type, a_k, b_k, pairs)) in cases.into_iter().enumerate() {
        let (a, b) = (format!("eq_a{i}"), format!("eq_b{i}"));
        // Two marts behind one mediator: two databases, two partials.
        for (mart, name, k) in [(&g.marts[0], &a, a_k), (&g.marts[1], &b, b_k)] {
            mart.with_db_mut(|db| {
                let schema = Schema::new(vec![ColumnDef::new("k", data_type)])?;
                db.create_table(name.clone(), schema)?.insert(vec![k])
            })
            .expect("a one-row table");
        }
        for das in &g.services {
            das.refresh_schemas().expect("schemas refresh");
        }
        let sql = format!("SELECT x.k, y.k FROM {a} x JOIN {b} y ON x.k = y.k");
        let answer = g.query(&sql).expect("the join answers");
        assert_eq!(answer.result.rows.len(), pairs, "{sql}");
        assert_eq!(
            answer.stats.databases, 2,
            "{sql} joins across two databases"
        );
    }
}

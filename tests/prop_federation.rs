//! The federation's central correctness property, tested with random data:
//! a query decomposed across heterogeneous databases answers exactly like
//! the same query against one database holding all the tables — answered
//! there by the reference interpreter (`gridfed-reference`), not by the
//! engine the federation runs on.

mod common;

use common::{copy_tables, dedup_by_key};
use gridfed::clarens::Directory;
use gridfed::core::service::DataAccessService;
use gridfed::prelude::*;
use gridfed::rls::RlsServer;
use gridfed::simnet::topology::Topology;
use gridfed::sqlkit::build_plan;
use gridfed::sqlkit::exec::DatabaseProvider;
use gridfed::sqlkit::parser::parse_select;
use gridfed::storage::Database;
use gridfed::vendors::{DriverRegistry, SimServer};
use proptest::prelude::*;
use std::sync::Arc;

/// A randomly generated two-table federation: `events(id, run, x)` in a
/// MySQL mart, `runs(run, w)` in an MS-SQL mart.
struct Fed {
    das: DataAccessService,
    merged: Database,
}

fn build_fed(events: &[(i64, i64, f64)], runs: &[(i64, f64)]) -> Fed {
    let registry = Arc::new(DriverRegistry::with_standard_drivers());
    let topology = Arc::new(Topology::lan());
    let directory = Directory::new();
    let rls = RlsServer::new("rls");

    let m1 = SimServer::new(VendorKind::MySql, "n1", "m1");
    m1.with_db_mut(|db| {
        let schema = Schema::new(vec![
            ColumnDef::new("id", DataType::Int).primary_key(),
            ColumnDef::new("run", DataType::Int),
            ColumnDef::new("x", DataType::Float),
        ])
        .expect("schema");
        let t = db.create_table("events", schema).expect("table");
        for (id, run, x) in events {
            t.insert(vec![Value::Int(*id), Value::Int(*run), Value::Float(*x)])
                .expect("insert");
        }
    });
    let m2 = SimServer::new(VendorKind::MsSql, "n1", "m2");
    m2.with_db_mut(|db| {
        let schema = Schema::new(vec![
            ColumnDef::new("run", DataType::Int).primary_key(),
            ColumnDef::new("w", DataType::Float),
        ])
        .expect("schema");
        let t = db.create_table("runs", schema).expect("table");
        for (run, w) in runs {
            t.insert(vec![Value::Int(*run), Value::Float(*w)])
                .expect("insert");
        }
    });
    registry.register_server(Arc::clone(&m1));
    registry.register_server(Arc::clone(&m2));

    let das = DataAccessService::new(
        "clarens://n1:8443/das",
        "n1",
        Arc::clone(&registry),
        directory,
        topology,
        Some(rls),
    );
    das.register_database("mysql://grid:grid@n1:3306/m1")
        .expect("register m1");
    das.register_database("mssql://n1:1433;database=m2;user=grid;password=grid")
        .expect("register m2");

    // The consolidated database: every table of both marts.
    let mut merged = Database::new("merged");
    m1.with_db(|db| copy_tables(db, &mut merged));
    m2.with_db(|db| copy_tables(db, &mut merged));
    Fed { das, merged }
}

proptest! {
    // Each case builds a federation; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Federated execution ≡ consolidated execution, over random data and
    /// a sweep of query shapes.
    #[test]
    fn federated_equals_consolidated(
        raw_events in prop::collection::vec((0i64..40, 0i64..6, -100.0f64..100.0), 0..40),
        raw_runs in prop::collection::vec((0i64..6, 0.0f64..10.0), 0..6),
        threshold in -100.0f64..100.0,
    ) {
        let events = dedup_by_key(&raw_events, |(id, _, _)| *id);
        let runs = dedup_by_key(&raw_runs, |(run, _)| *run);
        let fed = build_fed(&events, &runs);

        let queries = [
            format!("SELECT id, x FROM events WHERE x > {threshold} ORDER BY id"),
            "SELECT e.id, r.w FROM events e JOIN runs r ON e.run = r.run ORDER BY e.id".to_string(),
            format!(
                "SELECT e.id FROM events e JOIN runs r ON e.run = r.run \
                 WHERE e.x > {threshold} AND r.w >= 0.0 ORDER BY e.id"
            ),
            "SELECT e.run, COUNT(*) AS n FROM events e JOIN runs r ON e.run = r.run \
             GROUP BY e.run ORDER BY e.run".to_string(),
            "SELECT e.id, r.w FROM events e LEFT JOIN runs r ON e.run = r.run ORDER BY e.id"
                .to_string(),
        ];
        for sql in &queries {
            let federated = fed
                .das
                .query(sql)
                .unwrap_or_else(|e| panic!("federated `{sql}` failed: {e}"))
                .value
                .result;
            let stmt = parse_select(sql).expect("parses");
            let local = gridfed_reference::execute(&build_plan(&stmt), &DatabaseProvider(&fed.merged))
                .expect("local");
            prop_assert_eq!(&federated.rows, &local.rows, "mismatch for `{}`", sql);
        }
    }
}

//! Differential property test for the optimizer: the engine executing the
//! *optimized* plan must return exactly what the reference interpreter
//! (`gridfed-reference`, which shares no execution code with the engine)
//! returns for the naive, unoptimized plan — for every pass individually
//! and for the full pipeline. This is the guarantee that constant folding,
//! predicate pushdown, join reordering, and projection pruning are pure
//! performance transforms, never semantic ones.

mod common;

use common::dedup_by_key;
use gridfed::sqlkit::exec::{execute_plan, DatabaseProvider, ProviderCatalog};
use gridfed::sqlkit::parser::parse_select;
use gridfed::sqlkit::{build_plan, optimize_with, PassSet};
use gridfed::storage::{ColumnDef, DataType, Database, Schema, Value};
use proptest::prelude::*;

/// Build a three-table analysis database shaped like the paper's Table-1
/// queries: a big fact table and two small dimension tables.
fn build_db(
    events: &[(i64, i64, i64, f64)],
    runs: &[(i64, f64)],
    dets: &[(i64, &str)],
) -> Database {
    let mut db = Database::new("diff");
    let schema = Schema::new(vec![
        ColumnDef::new("id", DataType::Int).primary_key(),
        ColumnDef::new("run", DataType::Int),
        ColumnDef::new("det", DataType::Int),
        ColumnDef::new("energy", DataType::Float),
    ])
    .expect("schema");
    let t = db.create_table("events", schema).expect("table");
    for (id, run, det, energy) in events {
        t.insert(vec![
            Value::Int(*id),
            Value::Int(*run),
            Value::Int(*det),
            Value::Float(*energy),
        ])
        .expect("insert");
    }
    let schema = Schema::new(vec![
        ColumnDef::new("run", DataType::Int).primary_key(),
        ColumnDef::new("lumi", DataType::Float),
    ])
    .expect("schema");
    let t = db.create_table("runs", schema).expect("table");
    for (run, lumi) in runs {
        t.insert(vec![Value::Int(*run), Value::Float(*lumi)])
            .expect("insert");
    }
    let schema = Schema::new(vec![
        ColumnDef::new("det", DataType::Int).primary_key(),
        ColumnDef::new("region", DataType::Text),
    ])
    .expect("schema");
    let t = db.create_table("dets", schema).expect("table");
    for (det, region) in dets {
        t.insert(vec![Value::Int(*det), Value::Text((*region).into())])
            .expect("insert");
    }
    db
}

/// Sorted textual fingerprint of a result set, so queries without a total
/// ORDER BY compare as multisets.
fn fingerprint(rs: &gridfed::sqlkit::ResultSet) -> (Vec<String>, Vec<String>) {
    let mut rows: Vec<String> = rs
        .rows
        .iter()
        .map(|r| format!("{:?}", r.values()))
        .collect();
    rows.sort();
    (rs.columns.clone(), rows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For a sweep of Table-1-shaped queries over random data, each
    /// optimizer pass — alone and all together — run on the engine
    /// preserves the reference's answer to the naive plan exactly.
    #[test]
    fn optimized_plan_matches_naive_interpretation(
        raw_events in prop::collection::vec(
            (0i64..60, 0i64..8, 0i64..4, -50.0f64..50.0), 0..50),
        raw_runs in prop::collection::vec((0i64..8, 0.0f64..10.0), 0..8),
        raw_dets in prop::collection::vec((0i64..4, 0usize..2), 0..4),
        threshold in -50.0f64..50.0,
    ) {
        let events = dedup_by_key(&raw_events, |(id, _, _, _)| *id);
        let runs = dedup_by_key(&raw_runs, |(run, _)| *run);
        let regions = ["barrel", "endcap"];
        let dets: Vec<(i64, &str)> = dedup_by_key(&raw_dets, |(d, _)| *d)
            .into_iter()
            .map(|(d, r)| (d, regions[r]))
            .collect();
        let db = build_db(&events, &runs, &dets);
        let provider = DatabaseProvider(&db);
        let catalog = ProviderCatalog(&provider);

        let queries = [
            // Constant folding: arithmetic and boolean identities to fold.
            format!("SELECT id, energy FROM events WHERE energy > {threshold} + 2.0 * 1.5"),
            // Pushdown: one conjunct per table plus a cross-table residual.
            format!(
                "SELECT e.id, r.lumi FROM events e JOIN runs r ON e.run = r.run \
                 WHERE e.energy > {threshold} AND r.lumi >= 1.0 AND e.id < r.run + 100"
            ),
            // Pruning: narrow projection over a wide join.
            "SELECT e.energy FROM events e JOIN dets d ON e.det = d.det \
             WHERE d.region = 'barrel'".to_string(),
            // Reordering: a three-table inner chain (dims much smaller).
            format!(
                "SELECT e.id, r.lumi, d.region FROM events e \
                 JOIN runs r ON e.run = r.run JOIN dets d ON e.det = d.det \
                 WHERE e.energy > {threshold}"
            ),
            // Wildcard through a reorderable join: expansion order pinned.
            "SELECT * FROM events e JOIN runs r ON e.run = r.run \
             JOIN dets d ON e.det = d.det".to_string(),
            // LEFT JOIN: pushdown must respect the null-supplying side.
            format!(
                "SELECT e.id, d.region FROM events e LEFT JOIN dets d ON e.det = d.det \
                 WHERE e.energy > {threshold}"
            ),
            // Aggregation with HAVING above pushed scans.
            format!(
                "SELECT e.run, COUNT(*) AS n, AVG(e.energy) AS avg_e FROM events e \
                 JOIN runs r ON e.run = r.run WHERE e.energy > {threshold} \
                 GROUP BY e.run HAVING COUNT(*) > 1 ORDER BY e.run"
            ),
            // DISTINCT + ORDER BY + LIMIT over a totally ordered key.
            "SELECT DISTINCT e.det FROM events e JOIN dets d ON e.det = d.det \
             ORDER BY e.det LIMIT 2".to_string(),
        ];

        let passes: [(&str, PassSet); 5] = [
            ("all", PassSet::ALL),
            ("fold", PassSet { fold_constants: true, ..PassSet::NONE }),
            ("pushdown", PassSet { pushdown_predicates: true, ..PassSet::NONE }),
            ("reorder", PassSet { reorder_joins: true, ..PassSet::NONE }),
            ("prune", PassSet { prune_projections: true, ..PassSet::NONE }),
        ];

        for sql in &queries {
            let stmt = parse_select(sql).expect("parses");
            let naive_plan = build_plan(&stmt);
            let naive = gridfed_reference::execute(&naive_plan, &provider)
                .unwrap_or_else(|e| panic!("naive `{sql}` failed: {e}"));
            let expected = fingerprint(&naive);
            for (name, set) in &passes {
                let optimized = optimize_with(naive_plan.clone(), &catalog, *set);
                let got = execute_plan(&optimized, &provider)
                    .unwrap_or_else(|e| panic!("{name} `{sql}` failed: {e}"));
                prop_assert_eq!(
                    &fingerprint(&got), &expected,
                    "pass `{}` changed the answer for `{}`", name, sql
                );
            }
        }
    }
}

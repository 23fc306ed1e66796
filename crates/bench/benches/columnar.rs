//! Columnar executor bench (`columnar`): the vectorized batch executor,
//! sequential and on a 4-worker morsel pool, on the four relational shapes
//! it targets — a plain projection scan, a filter-heavy scan, a
//! fact-to-dimension hash join, and a GROUP BY aggregation — at 10k and
//! 100k fact rows. `BENCH_columnar.json` at the repo root is the historical
//! record, taken while the crate still shipped a row-at-a-time interpreter
//! to race against; the reference interpreter the differential suites use
//! now (`gridfed-reference`) is slow on purpose, so it is not a baseline.

use criterion::{criterion_group, criterion_main, Criterion};
use gridfed_sqlkit::exec::{execute_plan, DatabaseProvider, ProviderCatalog};
use gridfed_sqlkit::parser::parse_select;
use gridfed_sqlkit::plan::LogicalPlan;
use gridfed_sqlkit::{build_plan, optimize, with_exec_config, ExecConfig};
use gridfed_storage::{ColumnDef, DataType, Database, Schema, Value};
use std::hint::black_box;

/// Plain scan: narrow projection, no predicate — measures late
/// materialization against whole-row cloning.
const SCAN: &str = "SELECT e_id, energy FROM ntuple_events";

/// Filter-heavy scan: four typed conjuncts plus an IN list, ~6% selective —
/// the headline workload for the typed kernel loops.
const FILTER_SCAN: &str = "SELECT e_id, energy FROM ntuple_events \
     WHERE energy > 100.0 AND energy < 600.0 AND run_id >= 2 \
     AND det_id <> 3 AND tag_id IN (1, 2, 3, 4, 5)";

/// Hash join to a dimension with a dictionary-encoded string predicate.
const JOIN: &str = "SELECT e.e_id, d.region FROM ntuple_events e \
     JOIN detector_summary d ON e.det_id = d.det_id \
     WHERE e.energy > 15.0 AND d.region = 'barrel'";

/// GROUP BY aggregation: chunk-streamed aggregate arguments.
const GROUP_BY: &str = "SELECT run_id, COUNT(*) AS n, AVG(energy) AS avg_e, MAX(energy) AS max_e \
     FROM ntuple_events GROUP BY run_id HAVING COUNT(*) > 10 ORDER BY run_id";

/// perfbench's `analytic_scan` mart layout at a parameterized fact-table size.
fn bench_db(rows: i64) -> Database {
    let mut db = Database::new("columnar");
    let schema = Schema::new(vec![
        ColumnDef::new("e_id", DataType::Int).primary_key(),
        ColumnDef::new("run_id", DataType::Int),
        ColumnDef::new("det_id", DataType::Int),
        ColumnDef::new("tag_id", DataType::Int),
        ColumnDef::new("energy", DataType::Float),
    ])
    .unwrap();
    let t = db.create_table("ntuple_events", schema).unwrap();
    for i in 0..rows {
        t.insert(vec![
            Value::Int(i),
            Value::Int(i % 16),
            Value::Int(i % 6),
            Value::Int(i % 10),
            Value::Float((i % 997) as f64 * 0.7),
        ])
        .unwrap();
    }
    let schema = Schema::new(vec![
        ColumnDef::new("det_id", DataType::Int).primary_key(),
        ColumnDef::new("region", DataType::Text),
    ])
    .unwrap();
    let t = db.create_table("detector_summary", schema).unwrap();
    for i in 0..6i64 {
        t.insert(vec![
            Value::Int(i),
            Value::Text(if i % 2 == 0 {
                "barrel".into()
            } else {
                "endcap".into()
            }),
        ])
        .unwrap();
    }
    db
}

fn columnar(c: &mut Criterion) {
    for rows in [10_000i64, 100_000] {
        let db = bench_db(rows);
        let provider = DatabaseProvider(&db);
        let catalog = ProviderCatalog(&provider);
        let scale = if rows == 10_000 { "10k" } else { "100k" };

        let group_name = format!("columnar_{scale}");
        let mut g = c.benchmark_group(&group_name);
        g.sample_size(20);
        for (shape, sql) in [
            ("scan", SCAN),
            ("filter_scan", FILTER_SCAN),
            ("join", JOIN),
            ("group_by", GROUP_BY),
        ] {
            let stmt = parse_select(sql).unwrap();
            let plan: LogicalPlan = optimize(build_plan(&stmt), &catalog);
            g.bench_function(&format!("{shape}/batch"), |b| {
                b.iter(|| execute_plan(black_box(&plan), &provider).unwrap())
            });
            // Same plan, same batch executor, a 4-worker morsel pool: the
            // delta over `/batch` is pure intra-query parallelism.
            let par_cfg = ExecConfig::with_workers(4);
            g.bench_function(&format!("{shape}/batch_par4"), |b| {
                b.iter(|| {
                    with_exec_config(par_cfg.clone(), || {
                        execute_plan(black_box(&plan), &provider).unwrap()
                    })
                })
            });
        }
        g.finish();
    }
}

criterion_group!(benches, columnar);
criterion_main!(benches);

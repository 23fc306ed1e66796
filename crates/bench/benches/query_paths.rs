//! Criterion benchmarks of the three Table-1 query paths through the full
//! middleware stack (real wall-clock time of the mediator's work, complementing
//! the deterministic virtual-time numbers of `table1_query_response`), plus
//! the `ablation_dispatch` wall-time comparison: the parallel path really
//! does scatter across threads — the dispatching thread runs one branch of
//! each wave and `std::thread::scope` helpers run the rest.

use criterion::{criterion_group, criterion_main, Criterion};
use gridfed_bench::small_grid;
use gridfed_core::grid::GridBuilder;
use gridfed_core::service::{ConnectionPolicy, DispatchMode};
use gridfed_vendors::VendorKind;
use std::hint::black_box;

const LOCAL: &str = "SELECT e_id, energy FROM ntuple_events WHERE e_id < 20";
const TWO_DB: &str = "SELECT e.e_id, s.n_meas FROM ntuple_events e \
     JOIN run_summary s ON e.run_id = s.run_id WHERE e.e_id < 20";
const FOUR_TABLE: &str = "SELECT e.e_id, s.n_meas, c.avg_weight, d.mean_value \
     FROM ntuple_events e \
     JOIN run_summary s ON e.run_id = s.run_id \
     JOIN run_conditions c ON s.run_id = c.run_id \
     JOIN detector_summary d ON c.detector = d.detector \
     WHERE e.e_id < 20";

fn table1_paths(c: &mut Criterion) {
    let grid = small_grid();
    let mut g = c.benchmark_group("query_paths");
    g.sample_size(20);
    g.bench_function("local_pool_fast_path", |b| {
        b.iter(|| grid.query(black_box(LOCAL)).unwrap())
    });
    g.bench_function("distributed_two_db", |b| {
        b.iter(|| grid.query(black_box(TWO_DB)).unwrap())
    });
    g.bench_function("two_servers_four_tables", |b| {
        b.iter(|| grid.query(black_box(FOUR_TABLE)).unwrap())
    });
    g.bench_function("rpc_round_trip", |b| {
        b.iter(|| grid.query_rpc(black_box(LOCAL)).unwrap())
    });
    g.finish();
}

fn ablation_dispatch(c: &mut Criterion) {
    let mk = |mode: DispatchMode| {
        GridBuilder::new()
            .with_seed(11)
            .single_server()
            .with_dispatch(mode)
            .with_connection_policy(ConnectionPolicy::Session)
            .source("tier1.cern", VendorKind::Oracle, 150)
            .source("tier2.caltech", VendorKind::MySql, 150)
            .build()
            .expect("grid")
    };
    let parallel = mk(DispatchMode::Parallel);
    let sequential = mk(DispatchMode::Sequential);
    let mut g = c.benchmark_group("ablation_dispatch");
    g.sample_size(20);
    g.bench_function("parallel_scatter", |b| {
        b.iter(|| parallel.query(black_box(FOUR_TABLE)).unwrap())
    });
    g.bench_function("sequential_loop", |b| {
        b.iter(|| sequential.query(black_box(FOUR_TABLE)).unwrap())
    });
    g.finish();
}

criterion_group!(benches, table1_paths, ablation_dispatch);
criterion_main!(benches);

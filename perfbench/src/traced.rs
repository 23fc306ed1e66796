//! The traced pass: per-layer metrics for one workload.
//!
//! End-to-end metrics are measured with tracing off (`workload.rs`). This
//! pass runs fewer rounds, and each round issues the operation list three
//! times between two kernel runs: through `Grid::query` as configured,
//! through `Grid::query` with the observability gate flipped, and through
//! the layer replay (`replay.rs`), whose answers must equal the first
//! pass's. Running the three back to back keeps machine drift out of
//! their differences (`core.glue_us`, `obs.tracing_overhead_pct`,
//! `harness.trace_overhead_pct`). A last few rounds then run with the CPU
//! pin lifted (`pin.rs`): the one reading in which branches can overlap.

use crate::calib;
use crate::metrics::MetricSet;
use crate::ops::{op_list, Workload, LIVE_EVENTS_PER_CYCLE};
use crate::pin;
use crate::replay::{self_times, span_json, ExecWork, Layer, Replayer, Span};
use crate::stats::{median, summarise_round};
use crate::workload::{builder, ingest_cycle, run_round, thread_wake_us, timed_build, warm_up};
use gridfed_clarens::Directory;
use gridfed_core::grid::{mart_url, standard_views, Grid};
use gridfed_core::service::DataAccessService;
use gridfed_ntuple::spec::NtupleSpec;
use gridfed_ntuple::NtupleGenerator;
use gridfed_rls::RlsServer;
use gridfed_simnet::cost::Cost;
use gridfed_simnet::topology::Topology;
use gridfed_vendors::{DriverRegistry, SimServer, VendorKind};
use gridfed_warehouse::etl::{EtlPipeline, TransportMode};
use gridfed_warehouse::marts::materialize_into_mart;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Traced rounds whose spans are written to the trace file (all rounds
/// feed the metrics; the file is a sample, to keep it a few MB).
const ROUNDS_IN_TRACE_FILE: usize = 2;

/// Set-up replays per run; the step times are their medians.
const SETUP_REPLAYS: usize = 3;

/// What the traced pass hands back.
#[derive(Debug)]
pub struct Traced {
    /// Every per-layer metric.
    pub metrics: MetricSet,
    /// Operations attempted (warm-up, three passes per round, cycles,
    /// unpinned rounds).
    pub attempted: usize,
    /// Errors, wrong answers, replay mismatches, failed cycles.
    pub failed: usize,
}

/// The grid-assembly steps replayed through their public functions, ms:
/// `[generate, ETL load, materialise, register]` — where `setup_s` goes.
fn setup_steps(workload: Workload) -> [f64; 4] {
    let n = workload.events_per_source();
    let spec = NtupleSpec::physics("ntuple", 2 * n);
    let registry = Arc::new(DriverRegistry::with_standard_drivers());
    let mut topology = Topology::lan();
    for node in ["tier0.cern", "node1", "node2", "rls.cern"] {
        topology.add_node(node);
    }
    let topology = Arc::new(topology);
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;

    let t = Instant::now();
    let sources: Vec<Arc<SimServer>> = [
        ("tier1.cern", VendorKind::Oracle),
        ("tier2.caltech", VendorKind::MySql),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, (name, vendor))| {
        let server = SimServer::new(vendor, name, "ntuples");
        server
            .with_db_mut(|db| {
                NtupleGenerator::new(spec.clone(), 2005 + i as u64).populate_source_range(
                    db,
                    i * n,
                    (i + 1) * n,
                )
            })
            .expect("source slice generates");
        registry.register_server(Arc::clone(&server));
        server
    })
    .collect();
    let generate = ms(t);

    let t = Instant::now();
    let warehouse = SimServer::new(VendorKind::Oracle, "tier0.cern", "warehouse");
    registry.register_server(Arc::clone(&warehouse));
    if workload == Workload::LiveGrid {
        warehouse.with_db_mut(|db| db.enable_wal());
    }
    let wconn = warehouse.connect("grid", "grid").expect("login").value;
    for src in &sources {
        let sconn = src.connect("grid", "grid").expect("login").value;
        EtlPipeline::paper()
            .run_batch(&sconn, &wconn, None)
            .expect("ETL batch loads");
    }
    let etl = ms(t);

    let t = Instant::now();
    let views = standard_views(&spec);
    let marts: Vec<Arc<SimServer>> = [
        ("mart_mysql", VendorKind::MySql, "node1"),
        ("mart_mssql", VendorKind::MsSql, "node1"),
        ("mart_oracle", VendorKind::Oracle, "node2"),
        ("mart_sqlite", VendorKind::Sqlite, "node2"),
    ]
    .into_iter()
    .zip(&views)
    .map(|((name, vendor, host), view)| {
        let mart = SimServer::new(vendor, host, name);
        registry.register_server(Arc::clone(&mart));
        let mconn = mart.connect("grid", "grid").expect("login").value;
        materialize_into_mart(view, &wconn, &mconn, &topology, TransportMode::Staged)
            .expect("view materialises");
        mart
    })
    .collect();
    let materialize = ms(t);

    let t = Instant::now();
    let directory = Directory::new();
    let rls = RlsServer::new("rls.cern");
    let mut tables = 0;
    for (url, host) in [
        ("clarens://node1:8443/das", "node1"),
        ("clarens://node2:8443/das", "node2"),
    ] {
        let das = DataAccessService::new(
            url,
            host,
            Arc::clone(&registry),
            Arc::clone(&directory),
            Arc::clone(&topology),
            Some(Arc::clone(&rls)),
        );
        for mart in marts.iter().filter(|m| m.host() == host) {
            das.register_database(&mart_url(mart))
                .expect("mart registers");
        }
        tables += das.local_tables().len();
    }
    let register = ms(t);
    assert!(tables >= 4, "the replayed assembly registered every view");
    [generate, etl, materialize, register]
}

fn set_observability(grid: &Grid, on: bool) {
    for das in &grid.services {
        das.observability().set_enabled(on);
    }
}

/// Per-round figures, already scaled to reference speed.
#[derive(Default)]
struct Rounds {
    default_us: Vec<f64>,
    p95_us: Vec<f64>,
    flipped_us: Vec<f64>,
    replay_us: Vec<f64>,
    layer_us: Vec<[f64; Layer::COUNT]>,
    wake_us: Vec<f64>,
    raw_qps: Vec<f64>,
    unpinned_qps: Vec<f64>,
    unpinned_wake_us: Vec<f64>,
    // live_grid ingest, one entry per cycle
    ingest_ms: Vec<f64>,
    etl_ms: Vec<f64>,
    poll_ms: Vec<f64>,
    insert_rows_per_s: Vec<f64>,
    note_us: Vec<f64>,
}

fn med(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        median(&mut xs.to_vec())
    }
}

/// Run the traced pass and, when `trace_file` is given, write the sampled
/// spans there as JSON lines.
pub fn run_traced(
    workload: Workload,
    seed: u64,
    rounds: usize,
    trace_file: Option<&Path>,
) -> Traced {
    let mut kernel = calib::kernel_ms();
    let mut kernels = vec![kernel];
    let (grid, raw_setup_s, _) = timed_build(workload, &mut kernel);
    let ops = op_list(workload, seed);
    let warm = warm_up(&grid, &ops);
    let expected = &warm.expected;
    let mut failed = warm.failed;
    let mut attempted = ops.distinct.len();
    let n_ops = ops.order.len() as f64;
    let obs_default = workload == Workload::LiveGrid;
    let base_events = 2 * workload.events_per_source();

    let mut replayer = Replayer::new(&grid).expect("the harness can see every mart");
    let mut kept_spans: Vec<Span> = Vec::new();
    let mut r = Rounds::default();
    let mut work = ExecWork::default();
    let mut rows_returned = 0u64;
    let mut seen_traces = vec![0u64; grid.services.len()];
    // Sums over every answer of the default pass.
    let mut counters = [0f64; 7];
    let mut virt = [0f64; 7];
    let mut answered = 0usize;
    // live_grid sums over cycles
    let (mut polls, mut rows_applied, mut source_rows, mut wal_records) = (0, 0, 0, 0u64);
    let (mut virt_etl, mut virt_repl) = (0.0, 0.0);

    kernel = calib::kernel_ms();
    for round in 0..rounds {
        let cycle = (workload == Workload::LiveGrid).then(|| {
            let events = base_events + LIVE_EVENTS_PER_CYCLE * (round + 1);
            let c = ingest_cycle(&grid, events, &mut seen_traces);
            // Replay the mediators' bookkeeping for the batches that
            // carried data: `note_replication` is idempotent for a batch
            // it has already seen.
            let t = Instant::now();
            for report in &c.reports {
                let mart = grid
                    .marts
                    .iter()
                    .find(|m| m.db_name() == report.mart)
                    .expect("a report names its mart");
                let das = grid
                    .services
                    .iter()
                    .find(|s| s.host() == mart.host())
                    .expect("every mart has a mediator");
                let tables: Vec<String> = report.refreshed.iter().map(|(t, _)| t.clone()).collect();
                let now_us = das.clock().now().as_micros();
                das.note_replication(&report.mart, &tables, report, Cost::ZERO, now_us);
            }
            (c, t.elapsed().as_nanos() as u64)
        });

        let mut a = run_round(&grid, &ops, expected, true);
        set_observability(&grid, !obs_default);
        let b = run_round(&grid, &ops, expected, false);
        set_observability(&grid, obs_default);

        let t = Instant::now();
        let mut mismatches = 0;
        for (&i, answer) in ops.order.iter().zip(&a.answers) {
            match (replayer.replay(&ops.distinct[i].sql, &mut work), answer) {
                (Ok(rs), Some(ans)) if rs == ans.result => rows_returned += rs.len() as u64,
                _ => mismatches += 1,
            }
        }
        let replay_ns = t.elapsed().as_nanos() as u64;
        let spans = replayer.tracer.take();
        let own = self_times(&spans);
        if round < ROUNDS_IN_TRACE_FILE {
            kept_spans.extend(spans);
        }
        let wake = thread_wake_us();
        let after = calib::kernel_ms();
        let scale = calib::scale(kernel, after);
        kernels.push(after);
        kernel = after;

        let per_op_us = |ns: u64| ns as f64 / 1e3 / n_ops * scale;
        let default_ns: u64 = a.latencies_ns.iter().sum();
        r.default_us.push(per_op_us(default_ns));
        r.p95_us
            .push(summarise_round(&mut a.latencies_ns, default_ns).p95_us * scale);
        r.flipped_us.push(per_op_us(b.latencies_ns.iter().sum()));
        r.replay_us.push(per_op_us(replay_ns));
        r.layer_us.push(own.map(per_op_us));
        r.wake_us.push(wake * scale);
        r.raw_qps.push(n_ops / (default_ns as f64 / 1e9));
        if let Some((c, note_ns)) = &cycle {
            let ms = |ns: u64| ns as f64 / 1e6 * scale;
            r.ingest_ms.push(ms(c.total_ns));
            r.etl_ms.push(ms(c.etl_ns));
            r.poll_ms.push(ms(c.pump_ns) / c.polls.max(1) as f64);
            r.insert_rows_per_s
                .push(c.source_rows as f64 / (c.extend_ns as f64 / 1e9) / scale);
            r.note_us
                .push(*note_ns as f64 / 1e3 / c.reports.len().max(1) as f64 * scale);
            polls += c.polls;
            rows_applied += c.rows_applied;
            source_rows += c.source_rows;
            wal_records += c.wal_records;
            virt_etl += c.virt_etl_ms;
            virt_repl += c.virt_repl_ms;
            attempted += 1;
            failed += usize::from(!c.ok);
        }
        for ans in a.answers.drain(..).flatten() {
            let s = &ans.stats;
            for (sum, v) in counters.iter_mut().zip([
                s.subqueries,
                s.remote_forwards,
                s.connections_opened,
                s.pooled_hits,
                s.rls_lookups,
                s.reductions_shipped,
                s.bytes_saved,
            ]) {
                *sum += v as f64;
            }
            let bd = &s.breakdown;
            for (sum, c) in virt.iter_mut().zip([
                bd.plan,
                bd.rls,
                bd.connect,
                bd.execute,
                bd.integrate,
                bd.serialize,
                bd.resilience,
            ]) {
                *sum += c.as_millis_f64();
            }
            answered += 1;
        }
        attempted += 3 * ops.order.len();
        failed += a.failed + b.failed + mismatches;
    }

    // The same list with the pin lifted: branch threads may run on another
    // CPU, as they would for a user of the grid. After the traced rounds,
    // not among them, so that no pinned pass starts on caches another CPU
    // holds; half as many rounds, the reading being ungated.
    pin::unpinned(|| {
        for _ in 0..(rounds / 2).max(2) {
            let c = run_round(&grid, &ops, expected, false);
            let wake = thread_wake_us();
            let after = calib::kernel_ms();
            let scale = calib::scale(kernel, after);
            kernel = after;
            let busy_s = c.latencies_ns.iter().sum::<u64>() as f64 / 1e9;
            r.unpinned_qps.push(n_ops / busy_s / scale);
            r.unpinned_wake_us.push(wake * scale);
            attempted += ops.order.len();
            failed += c.failed;
        }
    });
    drop(grid);
    let fresh = builder(workload).build().expect("the workload grid builds");
    failed += warm.mismatches_against_oracle(&fresh, &ops);
    drop(fresh);

    // Set-up steps, each replay bracketed by the kernel.
    let mut steps: [Vec<f64>; 4] = Default::default();
    for _ in 0..SETUP_REPLAYS {
        let raw = setup_steps(workload);
        let after = calib::kernel_ms();
        let scale = calib::scale(kernel, after);
        kernel = after;
        for (xs, ms) in steps.iter_mut().zip(raw) {
            xs.push(ms * scale);
        }
    }

    let layer = |l: Layer| {
        med(&r
            .layer_us
            .iter()
            .map(|own| own[l as usize])
            .collect::<Vec<_>>())
    };
    let on_path: f64 = Layer::ALL
        .into_iter()
        .filter(|l| l.on_path())
        .map(layer)
        .sum();
    let default_us = med(&r.default_us);
    let flipped_us = med(&r.flipped_us);
    let (obs_on_us, obs_off_us) = if obs_default {
        (default_us, flipped_us)
    } else {
        (flipped_us, default_us)
    };
    let per_query = |x: f64| x / answered.max(1) as f64;
    let cycles = r.ingest_ms.len().max(1) as f64;

    let mut m = MetricSet::per_layer();
    m.set("sqlkit.parse_us", layer(Layer::SqlParse));
    m.set("sqlkit.optimize_us", layer(Layer::SqlOptimize));
    m.set("sqlkit.exec_us", layer(Layer::SqlExec));
    m.set(
        "sqlkit.rows_scanned_per_row_returned",
        work.rows_scanned as f64 / rows_returned.max(1) as f64,
    );
    m.set("sqlkit.batches_per_query", per_query(work.batches as f64));
    m.set(
        "sqlkit.rows_materialized_per_query",
        per_query(work.rows_materialized as f64),
    );
    m.set("core.decompose_us", layer(Layer::CoreDecompose));
    m.set("core.reduce_us", layer(Layer::CoreReduce));
    m.set("core.integrate_us", layer(Layer::CoreIntegrate));
    m.set("core.result_to_wire_us", layer(Layer::CoreWire));
    m.set("core.query_p95_us", med(&r.p95_us));
    m.set("core.glue_us", default_us - on_path);
    m.set("core.replayed_share_pct", 100.0 * on_path / default_us);
    for (name, sum) in [
        "core.subqueries_per_query",
        "core.remote_forwards_per_query",
        "core.connections_opened_per_query",
        "core.pooled_hits_per_query",
        "core.rls_lookups_per_query",
        "core.reductions_shipped_per_query",
        "core.bytes_saved_per_query",
    ]
    .into_iter()
    .zip(counters)
    {
        m.set(name, per_query(sum));
    }
    for (name, sum) in [
        "core.virt_plan_ms",
        "core.virt_rls_ms",
        "core.virt_connect_ms",
        "core.virt_execute_ms",
        "core.virt_integrate_ms",
        "core.virt_serialize_ms",
        "core.virt_resilience_ms",
    ]
    .into_iter()
    .zip(virt)
    {
        m.set(name, per_query(sum));
    }
    m.set("core.note_replication_us", med(&r.note_us));
    m.set("rls.lookup_us", layer(Layer::RlsLookup));
    m.set("clarens.encode_us", layer(Layer::ClarensEncode));
    m.set("clarens.decode_us", layer(Layer::ClarensDecode));
    m.set(
        "clarens.wire_bytes_per_query",
        per_query(work.wire_bytes as f64),
    );
    m.set("vendors.connect_us", layer(Layer::VendorsConnect));
    m.set("vendors.query_us", layer(Layer::VendorsQuery));
    m.set("poolral.execute_us", layer(Layer::PoolralExecute));
    m.set("storage.insert_rows_per_s", med(&r.insert_rows_per_s));
    m.set("storage.wal_records_per_cycle", wal_records as f64 / cycles);
    m.set("warehouse.ingest_cycle_ms", med(&r.ingest_ms));
    m.set(
        "warehouse.freshness_virtual_ms",
        (virt_etl + virt_repl) / cycles,
    );
    m.set("warehouse.etl_ms", med(&r.etl_ms));
    m.set("warehouse.repl_poll_ms", med(&r.poll_ms));
    m.set("warehouse.polls_per_cycle", polls as f64 / cycles);
    m.set(
        "warehouse.rows_applied_per_cycle",
        rows_applied as f64 / cycles,
    );
    m.set(
        "warehouse.rows_applied_per_source_row",
        rows_applied as f64 / (source_rows as f64).max(1.0),
    );
    m.set("warehouse.virt_etl_ms", virt_etl / cycles);
    m.set("warehouse.virt_repl_ms", virt_repl / cycles);
    m.set(
        "obs.tracing_overhead_pct",
        100.0 * (obs_on_us - obs_off_us) / obs_off_us,
    );
    for (name, xs) in [
        "ntuple.generate_ms",
        "warehouse.etl_load_ms",
        "warehouse.materialize_ms",
        "xspec.register_ms",
    ]
    .into_iter()
    .zip(&steps)
    {
        m.set(name, med(xs));
    }
    m.set("harness.calib_ms", med(&kernels));
    m.set("harness.thread_wake_us", med(&r.wake_us));
    m.set("harness.unpinned_queries_per_s", med(&r.unpinned_qps));
    m.set("harness.unpinned_thread_wake_us", med(&r.unpinned_wake_us));
    m.set("harness.raw_queries_per_s", med(&r.raw_qps));
    m.set("harness.raw_setup_s", raw_setup_s);
    m.set(
        "harness.trace_overhead_pct",
        100.0 * (med(&r.replay_us) - default_us) / default_us,
    );
    m.set("harness.rounds", rounds as f64);
    m.set("harness.samples", (rounds * ops.order.len()) as f64);
    m.set("harness.failed_share", failed as f64 / attempted as f64);

    if let Some(path) = trace_file {
        if let Err(e) = write_trace(path, &kept_spans) {
            eprintln!("perf: cannot write {}: {e}", path.display());
        }
    }
    Traced {
        metrics: m,
        attempted,
        failed,
    }
}

fn write_trace(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(out, "{}", span_json(s))?;
    }
    out.flush()
}

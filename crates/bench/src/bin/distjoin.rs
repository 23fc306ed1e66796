//! Distributed-join scatter cost: full scatter vs semi-join reduction.
//!
//! The paper's Table 1 shows the core defect of naive federation: the
//! 2-server distributed join runs >10x slower than non-distributed
//! execution. §5.2 attributes it to per-query connection setup plus
//! moving every candidate row to the integrating server. This bench
//! isolates the second term — the one cost-based scatter planning
//! (semi-join / bloom reduction, DESIGN.md §4.14) governs — at two data
//! scales, then re-runs the Table-1 row-3 join against a non-distributed
//! baseline (all four views materialized into one database) to show
//! where the blowup went and what remains.
//!
//! Run: `cargo run -p gridfed-bench --bin distjoin`

use gridfed_bench::{ratio, render_table};
use gridfed_core::grid::{mart_url, standard_views, Grid, GridBuilder};
use gridfed_core::service::{ConnectionPolicy, DataAccessService};
use gridfed_vendors::{SimServer, VendorKind};
use gridfed_warehouse::etl::TransportMode;
use gridfed_warehouse::marts::materialize_into_mart;
use std::sync::Arc;
use std::time::Instant;

/// Selective shape: the filter lands on the small local side
/// (`run_summary`), so the reduction ships only the surviving run keys
/// to the `ntuple_events` source instead of scattering the full table.
const SELECTIVE: &str = "SELECT e.e_id, s.n_meas FROM ntuple_events e \
     JOIN run_summary s ON e.run_id = s.run_id WHERE s.run_id < 1 \
     ORDER BY e.e_id";

/// The paper's two-server, four-table join (Table 1 row 3) with the
/// same selective small-side filter.
const TWO_SERVER: &str = "SELECT e.e_id, s.n_meas, c.avg_weight, d.mean_value \
     FROM ntuple_events e \
     JOIN run_summary s ON e.run_id = s.run_id \
     JOIN run_conditions c ON s.run_id = c.run_id \
     JOIN detector_summary d ON c.detector = d.detector \
     WHERE s.run_id < 1 ORDER BY e.e_id";

struct Sample {
    wall_ms: f64,
    virt_ms: f64,
    bytes: usize,
    saved: usize,
    reductions: usize,
    rows: usize,
}

fn run(grid: &Grid, sql: &str, distjoin: bool) -> Sample {
    for s in &grid.services {
        s.reconfigure(|c| c.distjoin = distjoin);
    }
    let start = Instant::now();
    let out = grid.query(sql).expect("bench query succeeds");
    Sample {
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        virt_ms: out.response_time.as_millis_f64(),
        bytes: out.stats.bytes_fetched,
        saved: out.stats.bytes_saved,
        reductions: out.stats.reductions_shipped,
        rows: out.result.rows.len(),
    }
}

fn grid_at(scale: usize, policy: ConnectionPolicy) -> Grid {
    GridBuilder::new()
        .with_seed(2005)
        .source("tier1.cern", VendorKind::Oracle, scale)
        .source("tier2.caltech", VendorKind::MySql, scale)
        .with_connection_policy(policy)
        .build()
        .expect("bench grid builds")
}

/// Service-side virtual cost of `sql` on `das`, with the planner toggle
/// applied to the whole grid first.
fn service_ms(grid: &Grid, sql: &str, distjoin: bool) -> (f64, f64, f64, f64, f64) {
    for s in &grid.services {
        s.reconfigure(|c| c.distjoin = distjoin);
    }
    let out = grid.services[0].query(sql).expect("service query").value;
    let bd = &out.stats.breakdown;
    (
        bd.total().as_millis_f64(),
        bd.connect.as_millis_f64(),
        bd.rls.as_millis_f64(),
        bd.execute.as_millis_f64(),
        bd.integrate.as_millis_f64(),
    )
}

fn main() {
    // ---- Part 1: bytes moved, full scatter vs reduced, two scales ----
    let mut rows = Vec::new();
    for scale in [300usize, 1300] {
        let grid = grid_at(scale, ConnectionPolicy::PerQuery);
        for (label, sql) in [
            ("selective 2-db", SELECTIVE),
            ("2-server 4-table", TWO_SERVER),
        ] {
            let full = run(&grid, sql, false);
            let reduced = run(&grid, sql, true);
            assert_eq!(full.rows, reduced.rows, "plans must agree on the answer");
            assert_eq!(full.reductions, 0, "toggle must force full scatter");
            assert!(
                reduced.reductions >= 1,
                "reduced plan must ship a reduction"
            );
            assert!(
                reduced.virt_ms < full.virt_ms,
                "reduction must not slow the {label} shape down"
            );
            assert!(
                full.bytes as f64 >= 5.0 * reduced.bytes as f64,
                "{label} must cut bytes moved by >=5x (full {} vs reduced {})",
                full.bytes,
                reduced.bytes
            );
            rows.push(vec![
                scale.to_string(),
                label.to_string(),
                format!("{:.1}", full.virt_ms),
                format!("{:.1}", reduced.virt_ms),
                full.bytes.to_string(),
                reduced.bytes.to_string(),
                ratio(full.bytes as f64, reduced.bytes as f64),
                reduced.reductions.to_string(),
                reduced.saved.to_string(),
                format!("{:.1}/{:.1}", full.wall_ms, reduced.wall_ms),
            ]);
        }
    }

    println!("Distributed join — full scatter vs semi-join reduction (per-query connections)\n");
    println!(
        "{}",
        render_table(
            &[
                "scale",
                "shape",
                "full ms",
                "reduced ms",
                "full bytes",
                "reduced bytes",
                "bytes ratio",
                "reductions",
                "est saved",
                "wall ms f/r",
            ],
            &rows,
        )
    );

    // ---- Part 2: the Table-1 row-3 blowup vs non-distributed ----
    // Non-distributed baseline: every view materialized into a single
    // database, the whole join pushed there as one statement.
    let per = grid_at(1300, ConnectionPolicy::PerQuery);
    let kept = grid_at(1300, ConnectionPolicy::Session);
    let all = SimServer::new(VendorKind::Oracle, "node1", "mart_all");
    kept.registry.register_server(Arc::clone(&all));
    let wconn = kept
        .warehouse
        .connect("grid", "grid")
        .expect("warehouse")
        .value;
    let aconn = all.connect("grid", "grid").expect("mart_all").value;
    for v in standard_views(&kept.spec) {
        materialize_into_mart(&v, &wconn, &aconn, &kept.topology, TransportMode::Direct)
            .expect("baseline materializes");
    }
    let baseline = DataAccessService::new(
        "http://node1:8888/clarens/baseline",
        "node1",
        Arc::clone(&kept.registry),
        Arc::clone(&kept.directory),
        Arc::clone(&kept.topology),
        None,
    );
    baseline
        .register_database(&mart_url(&all))
        .expect("baseline registers");
    let central = baseline.query(TWO_SERVER).expect("baseline query").value;
    let central_ms = central.stats.breakdown.total().as_millis_f64();

    let full_pq = service_ms(&per, TWO_SERVER, false);
    let red_pq = service_ms(&per, TWO_SERVER, true);
    // The first statement on a mediator's session pays for what the session
    // then keeps (the MS-SQL handshake, the peer login, two RLS answers);
    // the measured runs are the steady state.
    service_ms(&kept, TWO_SERVER, true);
    let full_kept = service_ms(&kept, TWO_SERVER, false);
    let red_kept = service_ms(&kept, TWO_SERVER, true);

    let fmt = |name: &str, s: (f64, f64, f64, f64, f64)| -> Vec<String> {
        vec![
            name.to_string(),
            format!("{:.1}", s.0),
            format!("{:.1}", s.1),
            format!("{:.1}", s.2),
            format!("{:.1}", s.3),
            format!("{:.1}", s.4),
            ratio(s.0, central_ms),
        ]
    };
    println!("Table-1 row 3 (2-server, 4-table join) vs non-distributed, scale 1300\n");
    println!(
        "{}",
        render_table(
            &[
                "config",
                "virtual ms",
                "connect",
                "rls",
                "execute",
                "integrate",
                "vs central"
            ],
            &[
                vec![
                    "non-distributed (single DB)".into(),
                    format!("{central_ms:.1}"),
                    "0.0".into(),
                    "0.0".into(),
                    format!("{:.1}", central.stats.breakdown.execute.as_millis_f64()),
                    "0.0".into(),
                    "1.00x".into(),
                ],
                fmt("full scatter, per-query conn", full_pq),
                fmt("reduced, per-query conn", red_pq),
                fmt("full scatter, session", full_kept),
                fmt("reduced, session", red_kept),
            ],
        )
    );

    // The paper's defect, reproduced: naive federation pays >10x.
    assert!(
        full_pq.0 >= 10.0 * central_ms,
        "full scatter must reproduce the Table-1 blowup (>10x non-distributed)"
    );
    // The fix: scatter reduction + the mediator's session cut the join's
    // virtual response by at least 2x relative to the naive shape.
    assert!(
        full_pq.0 >= 2.0 * red_kept.0,
        "reduction + session must halve the 2-server join \
         (full {:.1} ms vs reduced {:.1} ms)",
        full_pq.0,
        red_kept.0
    );
    // The scatter-planner term itself — mediator integration — lands
    // within 2x of the non-distributed engine's whole execution.
    assert!(
        red_kept.4 <= 2.0 * central.stats.breakdown.execute.as_millis_f64(),
        "reduced integration cost must be within 2x of the \
         non-distributed engine's execute time"
    );
    println!(
        "Blowup: full scatter pays {} of non-distributed; reduction brings the per-query\n\
         arm to {} ({:.1} ms), of which {:.0} ms are handshakes and {:.0} ms RLS round trips\n\
         the scatter planner cannot touch — the mediator's session can: with both, the\n\
         join runs in {:.1} ms ({}), connect {:.0} ms, rls {:.0} ms, and the data-movement\n\
         term itself (integrate, {:.1} ms) sits within 2x of the non-distributed engine's\n\
         entire execution ({:.1} ms).",
        ratio(full_pq.0, central_ms),
        ratio(red_pq.0, central_ms),
        red_pq.0,
        red_pq.1,
        red_pq.2,
        red_kept.0,
        ratio(red_kept.0, central_ms),
        red_kept.1,
        red_kept.2,
        red_kept.4,
        central.stats.breakdown.execute.as_millis_f64(),
    );
}

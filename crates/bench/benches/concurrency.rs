//! Concurrency bench (`concurrency`): saturation curve for the admission
//! front door + morsel worker pool. An open-loop client fleet offers
//! queries at a fixed rate (zipfian tenant mix, mixed Table-1/Fig-6 query
//! shapes) against one mediator configured with a 4-worker morsel pool and
//! a bounded admission queue. Each load point reports achieved throughput,
//! latency percentiles measured from the *scheduled* send time (so queue
//! buildup counts against p99, as it does for a real client), and the
//! admission-rejection count. Offered rates are set relative to a measured
//! sequential capacity estimate so the sweep brackets the saturation knee
//! on any machine. Recorded in `BENCH_concurrency.json` at the repo root.
//!
//! Not a sample/iter harness, which cannot express an open-loop sweep or
//! percentiles: this bench drives its own measurement. It honours `--test`
//! (one tiny smoke sweep) so `make bench-smoke` covers it.

use gridfed_core::grid::{Grid, GridBuilder};
use gridfed_core::{AdmissionConfig, CoreError};
use gridfed_vendors::VendorKind;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Mixed shapes in the spirit of the paper's Table 1 / Fig. 6 workloads:
/// a selective event scan, a federated fact-to-summary join, a grouped
/// physics aggregate, and a small dimension lookup.
const SHAPES: &[&str] = &[
    "SELECT e_id, energy FROM ntuple_events WHERE energy > 50.0 AND e_id < 400",
    "SELECT e.e_id, s.n_meas FROM ntuple_events e \
     JOIN run_summary s ON e.run_id = s.run_id WHERE e.energy > 20.0",
    "SELECT detector, COUNT(*) AS n, AVG(energy) AS avg_e FROM ntuple_events \
     GROUP BY detector ORDER BY detector",
    "SELECT detector, mean_value FROM detector_summary ORDER BY detector",
];

/// Zipf(s=1) weights over the virtual-organisation tenants: rank r gets
/// weight 1/r, so `cms` dominates and the tail trickles — the skew the
/// per-tenant fair dequeue exists for.
const TENANTS: &[&str] = &[
    "cms", "atlas", "cdf", "d0", "babar", "ligo", "sdss", "belle",
];

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn zipf_tenant(state: &mut u64) -> &'static str {
    let total: f64 = (1..=TENANTS.len()).map(|r| 1.0 / r as f64).sum();
    let mut x = (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64 * total;
    for (i, t) in TENANTS.iter().enumerate() {
        x -= 1.0 / (i + 1) as f64;
        if x <= 0.0 {
            return t;
        }
    }
    TENANTS[TENANTS.len() - 1]
}

fn build_grid() -> Grid {
    GridBuilder::new()
        .with_seed(77)
        .source("tier1.cern", VendorKind::Oracle, 400)
        .source("tier2.caltech", VendorKind::MySql, 400)
        .with_parallelism(4)
        .with_morsel_rows(64)
        .with_admission(AdmissionConfig {
            slots: 4,
            queue_limit: 8,
        })
        .build()
        .expect("bench grid")
}

struct LoadPointResult {
    offered_qps: f64,
    achieved_qps: f64,
    completed: usize,
    rejected: usize,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
}

/// Drive `total` queries at `offered_qps` from `clients` open-loop threads:
/// query k is *scheduled* at `start + k/rate`; a thread that falls behind
/// fires immediately, so backlog shows up as latency, exactly as it would
/// for a paced external client.
fn run_load_point(
    grid: &Arc<Grid>,
    offered_qps: f64,
    total: usize,
    clients: usize,
) -> LoadPointResult {
    let next = AtomicUsize::new(0);
    let rejected = AtomicU64::new(0);
    let interval = Duration::from_secs_f64(1.0 / offered_qps);
    let start = Instant::now() + Duration::from_millis(5);
    let mut latencies_ns: Vec<u64> = Vec::with_capacity(total);

    thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let grid = Arc::clone(grid);
                let next = &next;
                let rejected = &rejected;
                scope.spawn(move || {
                    let mut rng = 0x5EED_0000 + c as u64;
                    let mut lats = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= total {
                            return lats;
                        }
                        let scheduled = start + interval.mul_f64(k as f64);
                        let now = Instant::now();
                        if scheduled > now {
                            thread::sleep(scheduled - now);
                        }
                        let tenant = zipf_tenant(&mut rng);
                        let sql = SHAPES[(splitmix(&mut rng) % SHAPES.len() as u64) as usize];
                        match grid.query_as(tenant, sql) {
                            Ok(out) => {
                                assert!(!out.result.columns.is_empty());
                                lats.push(scheduled.elapsed().as_nanos() as u64);
                            }
                            Err(CoreError::AdmissionFull { .. }) => {
                                rejected.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) => panic!("bench query failed: {e}"),
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            latencies_ns.extend(h.join().expect("client thread"));
        }
    });
    let elapsed = start.elapsed().as_secs_f64();

    latencies_ns.sort_unstable();
    let pct = |p: f64| -> f64 {
        if latencies_ns.is_empty() {
            return 0.0;
        }
        let idx = ((latencies_ns.len() as f64 * p).ceil() as usize).min(latencies_ns.len()) - 1;
        latencies_ns[idx] as f64 / 1e6
    };
    LoadPointResult {
        offered_qps,
        achieved_qps: latencies_ns.len() as f64 / elapsed,
        completed: latencies_ns.len(),
        rejected: rejected.load(Ordering::Relaxed) as usize,
        p50_ms: pct(0.50),
        p95_ms: pct(0.95),
        p99_ms: pct(0.99),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let grid = Arc::new(build_grid());

    // Capacity estimate: mean sequential latency over the shape mix gives
    // a service rate; with 4 admission slots the closed-loop ceiling is
    // roughly 4x that. Offered points bracket it from well under to well
    // over, so the curve shows both the flat region and the knee.
    let calib_n = if smoke { 4 } else { 100 };
    let mut rng = 0xCA11Bu64;
    let t0 = Instant::now();
    for i in 0..calib_n {
        let tenant = zipf_tenant(&mut rng);
        grid.query_as(tenant, SHAPES[i % SHAPES.len()])
            .expect("calibration query");
    }
    let mean_s = t0.elapsed().as_secs_f64() / calib_n as f64;
    let capacity = 4.0 / mean_s;
    println!(
        "concurrency: sequential mean {:.3} ms -> est. capacity {:.0} qps (4 slots)",
        mean_s * 1e3,
        capacity
    );

    // More clients than `slots + queue_limit` so the overload points
    // actually hit the admission bound: past saturation the queue stays
    // at its cap, excess arrivals are refused (typed, counted below), and
    // the p99 of *admitted* queries is bounded by queue depth x service
    // time instead of drifting with the backlog.
    let (total, clients) = if smoke { (16, 4) } else { (600, 24) };
    // Discarded warmup point: pre-spawns the client fleet and touches
    // every query path once so cold-start cost doesn't pollute the first
    // measured point's tail.
    run_load_point(&grid, capacity * 0.25, if smoke { 4 } else { 64 }, clients);

    let fractions = [0.05, 0.1, 0.25, 0.5, 1.0, 2.0];
    println!(
        "{:>12} {:>12} {:>10} {:>9} {:>9} {:>9} {:>9}",
        "offered_qps", "achieved_qps", "completed", "rejected", "p50_ms", "p95_ms", "p99_ms"
    );
    for f in fractions {
        let r = run_load_point(&grid, capacity * f, total, clients);
        println!(
            "{:>12.0} {:>12.0} {:>10} {:>9} {:>9.2} {:>9.2} {:>9.2}",
            r.offered_qps, r.achieved_qps, r.completed, r.rejected, r.p50_ms, r.p95_ms, r.p99_ms
        );
        if smoke {
            break;
        }
    }
    if smoke {
        println!("test concurrency/sweep ... ok");
    }
}

//! Differential property suite for cost-based semi-join reduction
//! (DESIGN.md §4.14).
//!
//! A reduced plan must be observably identical to the full scatter it
//! replaces: same values, same order, same first error. Under injected
//! transient faults a reduced query may fail or degrade exactly like a
//! full scatter would, but any complete (non-degraded) answer it returns
//! must equal the fault-free ground truth — a dropped reduction source
//! degrades that join to full scatter, never to a wrong answer.

use gridfed_core::grid::{Grid, GridBuilder};
use gridfed_core::resilience::{DegradationPolicy, ResilienceConfig};
use gridfed_faults::FaultPlan;
use gridfed_simnet::cost::Cost;
use gridfed_vendors::VendorKind;

/// Deterministic splitmix64 — no external RNG crates in the test.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn small_grid() -> Grid {
    GridBuilder::new()
        .with_seed(7)
        .source("tier1.cern", VendorKind::Oracle, 60)
        .source("tier2.caltech", VendorKind::MySql, 60)
        .build()
        .expect("grid builds")
}

/// One random query over the standard mart catalog, spanning the join
/// shapes the planner reduces (small→big local, remote source, chains)
/// and the ones it must leave alone (comparable sides, same-branch
/// joins, outer joins, planner errors).
fn case_sql(rng: &mut Rng) -> String {
    let k = 1 + rng.below(12);
    let e = 5 + rng.below(80);
    let det = ["ecal", "hcal", "tracker", "muon"][rng.below(4) as usize];
    match rng.below(8) {
        // Selective small side: the shape reduction exists for.
        0 => format!(
            "SELECT e.e_id, s.n_meas FROM ntuple_events e \
             JOIN run_summary s ON e.run_id = s.run_id \
             WHERE s.run_id < {k} ORDER BY e.e_id"
        ),
        // Filter on the big side: comparable estimates, full scatter.
        1 => format!(
            "SELECT e.e_id, e.energy FROM ntuple_events e \
             JOIN run_summary s ON e.run_id = s.run_id \
             WHERE e.e_id < {e} ORDER BY e.e_id"
        ),
        // Remote small side (run_conditions lives on server 2).
        2 => format!(
            "SELECT e.e_id, c.avg_weight FROM ntuple_events e \
             JOIN run_conditions c ON e.run_id = c.run_id \
             WHERE c.detector = '{det}' ORDER BY e.e_id"
        ),
        // Three-way chain along the scatter order.
        3 => format!(
            "SELECT e.e_id, s.n_meas, c.avg_weight FROM ntuple_events e \
             JOIN run_summary s ON e.run_id = s.run_id \
             JOIN run_conditions c ON s.run_id = c.run_id \
             WHERE s.run_id < {k} ORDER BY e.e_id"
        ),
        // Same-branch join (both tables on server 2): no reduction edge.
        4 => format!(
            "SELECT c.run_id, d.mean_value FROM run_conditions c \
             JOIN detector_summary d ON c.detector = d.detector \
             WHERE c.run_id < {k} ORDER BY c.run_id"
        ),
        // Aggregation above a reduced join.
        5 => format!(
            "SELECT s.run_id, COUNT(*) AS n FROM ntuple_events e \
             JOIN run_summary s ON e.run_id = s.run_id \
             WHERE s.run_id < {k} GROUP BY s.run_id ORDER BY s.run_id"
        ),
        // Outer join: never reduced, must stay identical.
        6 => format!(
            "SELECT e.e_id, s.n_meas FROM ntuple_events e \
             LEFT JOIN run_summary s ON e.run_id = s.run_id \
             WHERE e.e_id < {e} ORDER BY e.e_id"
        ),
        // Planner error: first-error identity on the failure path.
        _ => format!(
            "SELECT e.e_id, e.no_such_column FROM ntuple_events e \
             JOIN run_summary s ON e.run_id = s.run_id WHERE s.run_id < {k}"
        ),
    }
}

/// 256 seeded cases, no faults: the reduced plan and the full scatter
/// must agree on values, row order, and (for the error template) the
/// error text.
#[test]
fn reduced_plans_match_full_scatter_on_256_cases() {
    let g = small_grid();
    let mut rng = Rng(0x5eed_d157);
    let mut reductions_seen = 0usize;
    for case in 0..256 {
        let sql = case_sql(&mut rng);
        for s in &g.services {
            s.reconfigure(|c| c.distjoin = true);
        }
        let reduced = g.query(&sql);
        for s in &g.services {
            s.reconfigure(|c| c.distjoin = false);
        }
        let full = g.query(&sql);
        match (reduced, full) {
            (Ok(r), Ok(f)) => {
                assert_eq!(
                    r.result, f.result,
                    "case {case}: reduced result diverged for {sql}"
                );
                assert_eq!(f.stats.reductions_shipped, 0, "case {case}: toggle leaked");
                reductions_seen += r.stats.reductions_shipped;
            }
            (Err(r), Err(f)) => {
                assert_eq!(
                    r.to_string(),
                    f.to_string(),
                    "case {case}: first error diverged for {sql}"
                );
            }
            (r, f) => panic!(
                "case {case}: outcome diverged for {sql}: reduced ok={} full ok={}",
                r.is_ok(),
                f.is_ok()
            ),
        }
    }
    assert!(
        reductions_seen >= 32,
        "the suite must actually exercise reductions, saw {reductions_seen}"
    );
}

/// Seeded transient faults with retries and Partial degradation: every
/// complete (non-degraded) answer the reduced grid produces must equal
/// the fault-free full-scatter ground truth. Failed or degraded queries
/// are legitimate fault outcomes — wrong complete answers are not.
#[test]
fn faulted_reductions_degrade_to_full_scatter_never_wrong_answers() {
    let truth = small_grid();
    for s in &truth.services {
        s.reconfigure(|c| c.distjoin = false);
    }
    let faulted = GridBuilder::new()
        .with_seed(7)
        .source("tier1.cern", VendorKind::Oracle, 60)
        .source("tier2.caltech", VendorKind::MySql, 60)
        .with_fault_plan(FaultPlan::new(4242).transient("*", 0.08))
        .with_resilience(ResilienceConfig {
            max_retries: 1,
            base_backoff: Cost::from_millis(5),
            degradation: DegradationPolicy::Partial,
            ..ResilienceConfig::default()
        })
        .build()
        .expect("faulted grid builds");

    let mut rng = Rng(0xfa017);
    let (mut compared, mut degraded, mut failed) = (0usize, 0usize, 0usize);
    for case in 0..64 {
        let sql = case_sql(&mut rng);
        match faulted.query(&sql) {
            Ok(out) if out.stats.branches_dropped.is_empty() => {
                let base = truth
                    .query(&sql)
                    .unwrap_or_else(|e| panic!("case {case}: ground truth failed: {e}"));
                assert_eq!(
                    out.result, base.result,
                    "case {case}: complete answer under faults diverged for {sql}"
                );
                compared += 1;
            }
            Ok(_) => degraded += 1,
            Err(_) => failed += 1,
        }
    }
    assert!(
        compared > 0,
        "no complete answers compared (degraded={degraded}, failed={failed})"
    );
}

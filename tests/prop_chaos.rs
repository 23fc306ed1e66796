//! Chaos property test: under randomly seeded fault plans (crashes,
//! transients, slow links, partitions, RLS staleness) a query must return
//! either (a) the exact fault-free answer, (b) a typed availability error,
//! or (c) an honestly annotated partial result — never a silently wrong
//! answer. The invariant is checked under both connection policies, and
//! twice per grid: the second pass runs on whatever the first left open —
//! kept connections, peer channels and RLS leases that the faults may have
//! invalidated since.

use gridfed::core::grid::GridBuilder;
use gridfed::core::service::ConnectionPolicy;
use gridfed::core::CoreError;
use gridfed::prelude::*;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::OnceLock;

/// Deterministic queries (unique ORDER BY keys) spanning the three plan
/// shapes: single-database, multi-mart federated join, remote forward.
const QUERIES: &[&str] = &[
    "SELECT e_id, detector FROM ntuple_events WHERE e_id < 20 ORDER BY e_id",
    "SELECT e.e_id, s.n_meas FROM ntuple_events e \
     JOIN run_summary s ON e.run_id = s.run_id \
     WHERE e.e_id < 40 ORDER BY e.e_id",
    "SELECT detector, mean_value FROM detector_summary ORDER BY detector",
];

/// Fault-free reference answers, computed once against an identical grid.
fn references() -> &'static Vec<ResultSet> {
    static REFS: OnceLock<Vec<ResultSet>> = OnceLock::new();
    REFS.get_or_init(|| {
        let g = GridBuilder::new()
            .with_seed(31)
            .replicate_events(true)
            .build()
            .expect("reference grid");
        QUERIES
            .iter()
            .map(|sql| g.query(sql).expect("fault-free reference").result)
            .collect()
    })
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn frac(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// A random-but-reproducible fault plan: every ingredient is derived from
/// the case seed, so any failing case replays exactly.
fn random_plan(seed: u64) -> FaultPlan {
    let mut s = seed;
    let mut plan = FaultPlan::new(seed);
    let targets = [
        "mart_mysql",
        "mart_mssql",
        "mart_oracle",
        "mart_sqlite",
        "clarens://node2:8443/das",
    ];
    if frac(&mut s) < 0.8 {
        plan = plan.transient("*", frac(&mut s) * 0.35);
    }
    if frac(&mut s) < 0.6 {
        let target = targets[(splitmix(&mut s) % targets.len() as u64) as usize];
        let until = if frac(&mut s) < 0.5 {
            None
        } else {
            Some(Cost::from_millis(1 + splitmix(&mut s) % 400))
        };
        plan = plan.crash(target, Cost::ZERO, until);
    }
    if frac(&mut s) < 0.4 {
        let target = targets[(splitmix(&mut s) % 4) as usize];
        plan = plan.slow(target, 1.0 + frac(&mut s) * 40.0, Cost::ZERO, None);
    }
    if frac(&mut s) < 0.25 {
        plan = plan.partition(
            "node1",
            "node2",
            Cost::ZERO,
            Some(Cost::from_millis(1 + splitmix(&mut s) % 300)),
        );
    }
    if frac(&mut s) < 0.2 {
        plan = plan.rls_stale(Cost::ZERO, Some(Cost::from_millis(splitmix(&mut s) % 500)));
    }
    plan
}

/// Random resilience knobs: retries, degradation policy, hedging,
/// deadlines — all derived from the case seed.
fn random_config(seed: u64) -> ResilienceConfig {
    let mut s = seed ^ 0xDEAD_BEEF_DEAD_BEEF;
    let mut cfg = ResilienceConfig::standard();
    cfg.max_retries = 1 + (splitmix(&mut s) % 6) as u32;
    if frac(&mut s) < 0.3 {
        cfg.degradation = DegradationPolicy::Partial;
    }
    if frac(&mut s) < 0.25 {
        cfg.hedge_after = Some(Cost::from_millis(1 + splitmix(&mut s) % 30));
    }
    if frac(&mut s) < 0.2 {
        cfg.branch_deadline = Some(Cost::from_millis(20 + splitmix(&mut s) % 300));
    }
    cfg
}

/// The invariant on one grid built under `policy`: every query, asked
/// twice, is exact, typed, or annotated.
fn check_arm(seed: u64, policy: ConnectionPolicy) -> Result<(), TestCaseError> {
    let refs = references();
    // The chaos grid runs the parallel executor (small morsels so the
    // little test relations actually split across workers); the
    // reference grid stayed sequential, so any thread-placement
    // dependence in values, errors, or virtual-time fault windows
    // shows up as a divergence here.
    let g = GridBuilder::new()
        .with_seed(31)
        .replicate_events(true)
        .with_parallelism(3)
        .with_morsel_rows(16)
        .with_connection_policy(policy)
        .with_resilience(random_config(seed))
        .with_fault_plan(random_plan(seed))
        .build()
        .expect("grid under chaos");

    for (sql, reference) in QUERIES.iter().zip(refs).chain(QUERIES.iter().zip(refs)) {
        match g.query(sql) {
            Ok(out) if !out.stats.is_degraded() => {
                // (a) A non-degraded success must be the exact
                // fault-free answer, whatever retries/failovers/hedges
                // it took to get there.
                prop_assert_eq!(
                    &out.result,
                    reference,
                    "seed {} query {:?}: recovered answer must match",
                    seed,
                    sql
                );
            }
            Ok(out) => {
                // (c) A degraded success must say which branches were
                // dropped, and (our residuals being monotone: filters,
                // inner joins, projections) every row it does return
                // must appear in the fault-free answer.
                prop_assert!(
                    !out.stats.branches_dropped.is_empty(),
                    "seed {}: degraded result without dropped branches",
                    seed
                );
                prop_assert_eq!(&out.result.columns, &reference.columns);
                for row in &out.result.rows {
                    prop_assert!(
                        reference.rows.contains(row),
                        "seed {} query {:?}: degraded row {:?} not in reference",
                        seed,
                        sql,
                        row
                    );
                }
            }
            Err(e) => {
                // (b) Failures must be typed availability errors; a
                // parse/planner/internal error here means the fault
                // injection corrupted the query path itself.
                prop_assert!(
                    !matches!(
                        e,
                        CoreError::Sql(_) | CoreError::Internal(_) | CoreError::BranchPanic { .. }
                    ),
                    "seed {} query {:?}: unexpected error class {:?}",
                    seed,
                    sql,
                    e
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn chaos_never_silently_wrong(seed in any::<u64>()) {
        for policy in [ConnectionPolicy::PerQuery, ConnectionPolicy::Session] {
            check_arm(seed, policy)?;
        }
    }
}

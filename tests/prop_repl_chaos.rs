//! Replication chaos property: under randomly seeded bounded-window
//! faults (warehouse↔mart partitions, mart crashes, slow links) the
//! log-shipped replicas must (a) converge to the warehouse state once the
//! faults clear, and (b) while faulted, `BoundedStaleness` routing must
//! never return data older than its bound — it fails over to an in-bound
//! replica or errors typed, never silently serves stale rows. Both hold
//! under either connection policy: a mediator's session reads replica row
//! counts and answers queries over connections it keeps through the faults.

use gridfed::core::grid::{GridBuilder, ReplicationConfig};
use gridfed::core::service::ConnectionPolicy;
use gridfed::core::{CoreError, ReplicaPolicy};
use gridfed::prelude::*;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::OnceLock;

/// Pre-extension events (60 + 60 sources); extensions append past this.
const BASE_EVENTS: usize = 120;
const EXTRA_EVENTS: usize = 6;

/// A query whose answer is identical at every replication state: these
/// events exist from materialization time, so any lag-legal replica
/// agrees on them.
const STABLE_QUERY: &str = "SELECT e_id, detector FROM ntuple_events \
                            WHERE e_id < 20 ORDER BY e_id";

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

/// Random bounded-window faults on the replication paths: every window
/// closes by 600 ms of virtual time, so convergence is always reachable.
fn random_plan(seed: u64) -> FaultPlan {
    let mut s = seed;
    let mut plan = FaultPlan::new(seed);
    if frac(&mut s) < 0.7 {
        plan = plan.partition(
            "tier0.cern",
            "node1",
            Cost::from_millis(splitmix(&mut s) % 100),
            Some(Cost::from_millis(100 + splitmix(&mut s) % 500)),
        );
    }
    if frac(&mut s) < 0.5 {
        let marts = ["mart_mysql", "mart_oracle", "mart_sqlite"];
        let target = marts[(splitmix(&mut s) % marts.len() as u64) as usize];
        plan = plan.crash(
            target,
            Cost::ZERO,
            Some(Cost::from_millis(1 + splitmix(&mut s) % 500)),
        );
    }
    if frac(&mut s) < 0.4 {
        plan = plan.slow(
            "tier0.cern",
            1.0 + frac(&mut s) * 30.0,
            Cost::ZERO,
            Some(Cost::from_millis(splitmix(&mut s) % 600)),
        );
    }
    plan
}

fn build_grid(policy: ReplicaPolicy, plan: Option<FaultPlan>, keep: ConnectionPolicy) -> Grid {
    let mut b = GridBuilder::new()
        .with_seed(31)
        .with_connection_policy(keep)
        .source("tier1.cern", VendorKind::Oracle, 60)
        .source("tier2.caltech", VendorKind::MySql, 60)
        .single_server()
        .replicate_events(true)
        .with_policy(policy)
        .with_replication(ReplicationConfig::default());
    if let Some(plan) = plan {
        b = b.with_fault_plan(plan);
    }
    b.build().expect("grid builds")
}

/// The fault-free converged answers: the stable query and the count of
/// replicated post-extension events.
fn references() -> &'static (ResultSet, ResultSet) {
    static REFS: OnceLock<(ResultSet, ResultSet)> = OnceLock::new();
    REFS.get_or_init(|| {
        let g = build_grid(ReplicaPolicy::Freshest, None, ConnectionPolicy::default());
        g.extend_sources(EXTRA_EVENTS).expect("extend");
        g.run_incremental_etl().expect("etl");
        g.pump_replication_for(4);
        assert!(g.replication_caught_up(), "fault-free reference converges");
        let stable = g.query(STABLE_QUERY).expect("stable reference").result;
        let extended = g
            .query(&format!(
                "SELECT e_id FROM ntuple_events WHERE e_id >= {BASE_EVENTS} ORDER BY e_id"
            ))
            .expect("extended reference")
            .result;
        (stable, extended)
    })
}

/// Both halves of the property on one grid built under `keep`.
fn check_arm(seed: u64, keep: ConnectionPolicy) -> Result<(), TestCaseError> {
    let (stable_ref, extended_ref) = references();
    // Bound between 100 ms and 400 ms of virtual time.
    let bound_us = 100_000 + (seed % 4) * 100_000;
    let g = build_grid(
        ReplicaPolicy::BoundedStaleness(bound_us),
        Some(random_plan(seed)),
        keep,
    );
    g.extend_sources(EXTRA_EVENTS).expect("extend");
    g.run_incremental_etl().expect("etl");

    // Pump through the fault windows, probing the bound as we go.
    for cycle in 0..12 {
        g.pump_replication();
        match g.query(STABLE_QUERY) {
            Ok(out) => {
                // (b) A success under BoundedStaleness must have read
                // a replica within the bound, and — these events
                // predating every fault — the exact reference rows.
                prop_assert!(
                    out.stats.repl_age_us <= bound_us,
                    "seed {seed} cycle {cycle}: served age {} over bound {bound_us}",
                    out.stats.repl_age_us
                );
                prop_assert_eq!(
                    &out.result,
                    stable_ref,
                    "seed {} cycle {}: wrong rows",
                    seed,
                    cycle
                );
            }
            Err(e) => {
                // Typed staleness/availability errors only.
                prop_assert!(
                    !matches!(
                        e,
                        CoreError::Sql(_) | CoreError::Internal(_) | CoreError::BranchPanic { .. }
                    ),
                    "seed {seed} cycle {cycle}: unexpected error class {e:?}"
                );
            }
        }
    }

    // (a) Every fault window closes by 600 ms; each pump advances
    // 50 ms, so well within 30 more cycles all streams converge.
    let mut converged = false;
    for _ in 0..30 {
        g.pump_replication();
        if g.replication_caught_up() {
            converged = true;
            break;
        }
    }
    prop_assert!(converged, "seed {seed}: streams never converged");

    // Converged replicas hold the warehouse state: the stable slice
    // and every post-extension event, via bounded routing.
    let out = g.query(STABLE_QUERY).expect("converged stable query");
    prop_assert_eq!(&out.result, stable_ref);
    prop_assert!(out.stats.repl_age_us <= bound_us);
    let ext = g
        .query(&format!(
            "SELECT e_id FROM ntuple_events WHERE e_id >= {BASE_EVENTS} ORDER BY e_id"
        ))
        .expect("converged extended query");
    prop_assert_eq!(
        &ext.result,
        extended_ref,
        "seed {}: replicated extension rows diverge",
        seed
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn replicas_converge_and_staleness_bounds_hold(seed in any::<u64>()) {
        for keep in [ConnectionPolicy::PerQuery, ConnectionPolicy::Session] {
            check_arm(seed, keep)?;
        }
    }
}

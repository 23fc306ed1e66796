//! Whole-grid deterministic simulation. One seeded schedule drives one
//! replicated two-mediator grid with every fault and knob on at once:
//! query-path faults (transients, crashed marts or mediators, slow
//! servers, partitions, RLS staleness) beside replication faults (a
//! partitioned or slow warehouse, crashed marts), random resilience knobs
//! and replica policies, and a schedule that interleaves statements sent
//! to either mediator with ETL sweeps, replication pumps, mart refreshes
//! and reconfigurations (result cache, reduction planning).
//!
//! After every step the promise is checked: a statement over rows that
//! predate every extension gets the exact fault-free answer, a typed
//! availability error, or an annotated partial whose rows are all in the
//! answer; a success under `BoundedStaleness` never read past its bound.
//! Every fault window closes by 600 ms of virtual time, so the streams must
//! then converge, and both mediators answer every statement exactly.
//!
//! The seeds are a plain range: a failure names its seed, arm and step,
//! and replays bit for bit.

use gridfed::core::service::{ConnectionPolicy, DEFAULT_CACHE_CAPACITY};
use gridfed::core::CoreError;
use gridfed::prelude::*;
use gridfed::simnet::cost::Timed;
use std::sync::OnceLock;

/// Seeds that found bugs, replayed first: 1, an ETL sweep hit by a
/// transient fault failed with an internal error; 2, a mediator the RLS
/// expired during a partition stayed unfound after it healed.
const REGRESSION_SEEDS: &[u64] = &[1, 2];
const SEEDS: std::ops::Range<u64> = 0..256;
const STEPS: usize = 12;
/// Pre-extension events (60 + 60 sources); extensions append past this.
const BASE_EVENTS: usize = 120;
const EXTRA_EVENTS: usize = 6;
const MAX_EXTENSIONS: usize = 3;
/// Every fault window closes by then (virtual ms).
const WINDOWS_CLOSE_MS: u64 = 600;
/// `ResilienceConfig::standard`'s 500-ms breaker cooldown in 50-ms pumps:
/// pumped through after the windows close, so no breaker a fault opened
/// still refuses.
const COOLDOWN_PUMPS: usize = 10;

/// Statements whose answer no extension moves (extensions add run-0
/// events; every statement reads only pre-extension events or runs > 0),
/// spanning the plan shapes: one database, a multi-mart join, a forward
/// to the other mediator from node1 (`run_conditions` lives on node2), a
/// join whose selective small side ships a reduction, and an aggregate.
const STABLE: &[&str] = &[
    "SELECT e_id, detector FROM ntuple_events WHERE e_id < 20 ORDER BY e_id",
    "SELECT e.e_id, s.n_meas FROM ntuple_events e JOIN run_summary s ON e.run_id = s.run_id \
     WHERE e.e_id < 40 AND s.run_id > 0 ORDER BY e.e_id",
    "SELECT run_id, detector, avg_weight FROM run_conditions WHERE run_id > 0 \
     ORDER BY run_id, detector",
    "SELECT e.e_id, s.n_meas FROM ntuple_events e JOIN run_summary s ON e.run_id = s.run_id \
     WHERE s.run_id > 0 AND s.run_id < 2 ORDER BY e.e_id",
    "SELECT detector, COUNT(*) AS n, MAX(energy) AS top FROM ntuple_events \
     WHERE e_id < 120 GROUP BY detector ORDER BY detector",
];

/// Statements over what the extensions add: while replication lags any
/// prefix of the events may be visible; once converged, all of them.
const EXTENDED: &[&str] = &[
    "SELECT e_id FROM ntuple_events WHERE e_id >= 120 ORDER BY e_id",
    "SELECT run_id, n_meas FROM run_summary WHERE run_id = 0",
];

struct References {
    stable: Vec<ResultSet>,
    /// `extended[k]`: the answers once `k` extensions have replicated.
    extended: Vec<Vec<ResultSet>>,
}

fn builder() -> GridBuilder {
    GridBuilder::new()
        .with_seed(31)
        .source("tier1.cern", VendorKind::Oracle, BASE_EVENTS / 2)
        .source("tier2.caltech", VendorKind::MySql, BASE_EVENTS / 2)
        .replicate_events(true)
}

/// Extend the sources and sweep them into the warehouse.
fn extend(g: &Grid) -> gridfed::core::Result<()> {
    g.extend_sources(EXTRA_EVENTS)?;
    g.run_incremental_etl().map(drop)
}

/// Fault-free answers, computed once on a sequential grid built the same
/// way (so thread placement in the simulated grids shows as a divergence).
fn references() -> &'static References {
    static REFS: OnceLock<References> = OnceLock::new();
    REFS.get_or_init(|| {
        let g = builder().build().expect("reference grid");
        let ask = |sql: &&str| g.query(sql).expect("fault-free reference").result;
        let stable: Vec<ResultSet> = STABLE.iter().map(ask).collect();
        let mut extended = vec![EXTENDED.iter().map(ask).collect()];
        for k in 1..=MAX_EXTENSIONS {
            extend(&g).expect("fault-free extension");
            g.pump_replication_for(4);
            assert!(g.replication_caught_up(), "fault-free reference converges");
            assert_eq!(STABLE.iter().map(ask).collect::<Vec<_>>(), stable);
            let answers: Vec<ResultSet> = EXTENDED.iter().map(ask).collect();
            // The same library answers both sides: pin what replication
            // must have delivered, so a stream that loses records fails.
            let ids = BASE_EVENTS..BASE_EVENTS + k * EXTRA_EVENTS;
            let added = ids.map(|e| Row::new(vec![Value::Int(e as i64)]));
            assert!(added.eq(answers[0].rows.iter().cloned()), "{k} extensions");
            extended.push(answers);
        }
        References { stable, extended }
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

fn pick<T: Copy>(state: &mut u64, from: &[T]) -> T {
    from[(splitmix(state) % from.len() as u64) as usize]
}

/// The end of a fault window, by `WINDOWS_CLOSE_MS` at the latest.
fn until(state: &mut u64) -> Option<Cost> {
    Some(Cost::from_millis(1 + splitmix(state) % WINDOWS_CLOSE_MS))
}

const MARTS: [&str; 4] = ["mart_mysql", "mart_mssql", "mart_oracle", "mart_sqlite"];

/// One of the marts, or `other`, alike likely.
fn mart_or(state: &mut u64, other: &'static str) -> &'static str {
    let i = (splitmix(state) % (MARTS.len() as u64 + 1)) as usize;
    MARTS.get(i).copied().unwrap_or(other)
}

/// One plan of query-path and replication-path faults, all windows open
/// from the start (a partition from up to 100 ms) and closed by 600 ms.
fn random_plan(seed: u64) -> FaultPlan {
    let mut s = seed;
    let mut plan = FaultPlan::new(seed);
    if frac(&mut s) < 0.8 {
        let rate = frac(&mut s) * 0.35;
        plan = plan.transient_during("*", rate, Cost::ZERO, until(&mut s));
    }
    if frac(&mut s) < 0.6 {
        let target = mart_or(&mut s, "clarens://node2:8443/das");
        plan = plan.crash(target, Cost::ZERO, until(&mut s));
    }
    if frac(&mut s) < 0.5 {
        let target = mart_or(&mut s, "tier0.cern");
        let factor = 1.0 + frac(&mut s) * 40.0;
        plan = plan.slow(target, factor, Cost::ZERO, until(&mut s));
    }
    if frac(&mut s) < 0.5 {
        let (a, b) = pick(&mut s, &[("node1", "node2"), ("tier0.cern", "node1")]);
        let from = Cost::from_millis(splitmix(&mut s) % 100);
        plan = plan.partition(a, b, from, until(&mut s));
    }
    if frac(&mut s) < 0.2 {
        plan = plan.rls_stale(Cost::ZERO, until(&mut s));
    }
    plan
}

/// Random resilience knobs: retries, degradation policy, hedging,
/// deadlines.
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

fn random_policy(seed: u64) -> ReplicaPolicy {
    match seed % 7 {
        0 => ReplicaPolicy::First,
        1 => ReplicaPolicy::Closest,
        2 => ReplicaPolicy::Freshest,
        n => ReplicaPolicy::BoundedStaleness((n - 2) * 100_000),
    }
}

/// The promise for one answer. `exact` asks for the reference itself on
/// a complete success; otherwise (a lagging statement over extensions) its
/// rows need only be in the reference.
fn check(
    at: &str,
    got: gridfed::core::Result<Timed<QueryOutcome>>,
    reference: &ResultSet,
    exact: bool,
    bound_us: Option<u64>,
) {
    match got {
        Ok(t) => {
            let out = t.value;
            if let Some(bound_us) = bound_us {
                let age = out.stats.repl_age_us;
                assert!(
                    age <= bound_us,
                    "{at}: served age {age} µs over bound {bound_us}"
                );
            }
            if exact && !out.stats.is_degraded() {
                assert_eq!(&out.result, reference, "{at}: complete answer must match");
                return;
            }
            assert_eq!(out.result.columns, reference.columns, "{at}: columns");
            for row in &out.result.rows {
                assert!(
                    reference.rows.contains(row),
                    "{at}: row {row:?} not in reference"
                );
            }
        }
        Err(e) => assert!(typed(&e), "{at}: unexpected error class {e:?}"),
    }
}

/// A typed availability error: not a parse, planner or internal one, which
/// would mean the faults corrupted the query path itself.
fn typed(e: &CoreError) -> bool {
    !matches!(
        e,
        CoreError::Sql(_) | CoreError::Internal(_) | CoreError::BranchPanic { .. }
    )
}

/// One seed's schedule on one grid built under `keep`.
fn simulate(seed: u64, keep: ConnectionPolicy) {
    let refs = references();
    let policy = random_policy(seed);
    let bound_us = match policy {
        ReplicaPolicy::BoundedStaleness(bound) => Some(bound),
        _ => None,
    };
    let g = builder()
        .with_parallelism(3)
        .with_morsel_rows(16)
        .with_connection_policy(keep)
        .with_policy(policy)
        .with_resilience(random_config(seed))
        .with_fault_plan(random_plan(seed))
        .build()
        .expect("grid under faults");
    let clock = g.service(0).clock();
    let in_window = || clock.now() < Cost::from_millis(WINDOWS_CLOSE_MS);
    let mut s = seed ^ 0x5EED_5EED_5EED_5EED;
    let mut extensions = 0;
    // Statement `i` (past the stable ones: the extended one) on `das`.
    let ask = |at: &str, das: &DataAccessService, i: usize, extensions: usize| {
        let at = format!("{at} on {}", das.url());
        match STABLE.get(i) {
            Some(sql) => check(&at, das.query(sql), &refs.stable[i], true, bound_us),
            None => {
                let got = das.query(EXTENDED[0]);
                check(&at, got, &refs.extended[extensions][0], false, bound_us);
            }
        }
    };
    // The schedule opens with every stable statement on both mediators
    // while every window is still open; then the seed draws each step.
    for (step, i) in (0..STABLE.len()).flat_map(|i| [i, i]).enumerate() {
        ask(
            &format!("seed {seed} {keep:?} {policy:?} opening {step}"),
            g.service(step % 2),
            i,
            0,
        );
    }
    for step in 0..STEPS {
        let at = format!("seed {seed} {keep:?} {policy:?} step {step}");
        match splitmix(&mut s) % 10 {
            0..=4 => {
                let das = g.service(pick(&mut s, &[0, 1]));
                ask(
                    &at,
                    das,
                    (splitmix(&mut s) % (STABLE.len() + 1) as u64) as usize,
                    extensions,
                );
            }
            5 if extensions < MAX_EXTENSIONS => {
                if let Err(e) = extend(&g) {
                    assert!(in_window() && typed(&e), "{at}: ETL failed: {e:?}");
                }
                extensions += 1;
            }
            5 | 6 => drop(g.pump_replication()),
            7 => {
                if let Err(e) = g.refresh_mart(pick(&mut s, &MARTS)) {
                    assert!(in_window() && typed(&e), "{at}: refresh failed: {e:?}");
                }
            }
            _ => {
                let cache = splitmix(&mut s)
                    .is_multiple_of(2)
                    .then_some(DEFAULT_CACHE_CAPACITY);
                let distjoin = splitmix(&mut s).is_multiple_of(2);
                g.service(pick(&mut s, &[0, 1])).reconfigure(|c| {
                    c.result_cache = cache;
                    c.distjoin = distjoin;
                });
            }
        }
    }

    // Convergence: past the last window and the breaker cooldown, one
    // more sweep for whatever a faulted one missed, then the streams
    // catch up within 30 cycles of the windows closing.
    let at = format!("seed {seed} {keep:?} {policy:?} converged");
    while in_window() {
        g.pump_replication();
    }
    g.pump_replication_for(COOLDOWN_PUMPS);
    let swept = g.run_incremental_etl();
    swept.unwrap_or_else(|e| panic!("{at}: ETL after every window: {e}"));
    g.pump_replication_for(20);
    assert!(g.replication_caught_up(), "{at}: streams never converged");
    // A deadline shorter than a fault-free branch drops it honestly (a
    // PerQuery connect alone can take longer); convergence is read without.
    for das in &g.services {
        das.reconfigure(|c| c.resilience.branch_deadline = None);
    }
    let all = STABLE.iter().zip(&refs.stable);
    for (sql, reference) in all.chain(EXTENDED.iter().zip(&refs.extended[extensions])) {
        for das in &g.services {
            let at = format!("{at} on {}: {sql}", das.url());
            // Each read follows a heartbeat, so a bound is met by the
            // replica's freshness, not by how long the last read took.
            g.pump_replication();
            let out = das.query(sql).unwrap_or_else(|e| panic!("{at}: {e}")).value;
            assert_eq!(&out.result, reference, "{at}");
            let age = out.stats.repl_age_us;
            assert!(
                bound_us.is_none_or(|b| age <= b),
                "{at}: served age {age} µs"
            );
        }
    }
}

fn run(keep: ConnectionPolicy) {
    for seed in REGRESSION_SEEDS.iter().copied().chain(SEEDS) {
        simulate(seed, keep);
    }
}

#[test]
fn per_query_grid_is_exact_typed_or_annotated() {
    run(ConnectionPolicy::PerQuery);
}

#[test]
fn session_grid_is_exact_typed_or_annotated() {
    run(ConnectionPolicy::Session);
}

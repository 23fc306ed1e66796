//! The planner's row-count statistic on a replicated grid (DESIGN.md §4.4,
//! "Plan once"): WAL apply moves it to the live count only once the two
//! differ by more than a tenth of the statistic, so the ingest cycles of a
//! live grid keep every cached federated plan, a load past the drift
//! re-plans each of them once, and a mart registered empty is planned from
//! the count the WAL filled it with.

mod common;

use common::two_sources;
use gridfed::prelude::*;

/// Federated statements over `ntuple_events` (each fetches it as a
/// sub-query), and one the mart that hosts it answers whole.
const FEDERATED: [&str; 4] = [
    "SELECT e.e_id, s.n_meas FROM ntuple_events e JOIN run_summary s ON e.run_id = s.run_id",
    "SELECT e.e_id, s.n_meas FROM ntuple_events e \
     JOIN run_summary s ON e.run_id = s.run_id WHERE e.e_id < 12",
    "SELECT e.e_id, s.n_meas, c.avg_weight, d.mean_value \
     FROM ntuple_events e \
     JOIN run_summary s ON e.run_id = s.run_id \
     JOIN run_conditions c ON s.run_id = c.run_id \
     JOIN detector_summary d ON c.detector = d.detector \
     WHERE e.e_id < 12",
    "SELECT e.e_id, e.energy, s.avg_value FROM ntuple_events e \
     JOIN run_summary s ON e.run_id = s.run_id WHERE e.e_id < 51",
];
const WHOLE: &str = "SELECT e_id, energy FROM ntuple_events WHERE e_id < 9";

fn grid(events_per_source: usize) -> Grid {
    two_sources(35, events_per_source)
        .with_observability(true)
        .with_replication(ReplicationConfig::default())
        .build()
        .expect("replicated grid builds")
}

/// New events upstream, swept into the warehouse and log-shipped to the
/// marts until every stream has caught up.
fn ingest(g: &Grid, events: usize) {
    g.extend_sources(events).expect("extend");
    g.run_incremental_etl().expect("incremental ETL");
    for _ in 0..64 {
        if g.replication_caught_up() {
            return;
        }
        g.pump_replication();
    }
    panic!("replication did not catch up");
}

/// Rows of the mart replica of `ntuple_events` (the grid keeps one).
fn live_events(g: &Grid) -> u64 {
    let rows = g
        .marts
        .iter()
        .find_map(|m| m.with_db(|db| db.table("ntuple_events").ok().map(|t| t.len())));
    rows.expect("a mart hosts ntuple_events") as u64
}

/// The rows EXPLAIN estimates the fetch of `ntuple_events` at, for the
/// first statement (no filter on it: the estimate is the statistic).
fn estimated_events(g: &Grid) -> u64 {
    let text = g.service(0).explain(FEDERATED[0]).expect("explain");
    let fetch = text
        .lines()
        .find(|l| l.trim_start().starts_with("fetch `ntuple_events`"))
        .unwrap_or_else(|| panic!("no fetch of ntuple_events in\n{text}"));
    let est = fetch.split("[est ").nth(1).expect("an estimate");
    est.split(' ').next().unwrap().parse().expect("a count")
}

/// A plan-cache counter of the front mediator.
fn counter(g: &Grid, family: &str) -> u64 {
    let das = g.service(0);
    das.observability().metrics.counter(family, das.url())
}

fn ask_all(g: &Grid) -> Vec<ResultSet> {
    let statements = FEDERATED.iter().chain([&WHOLE]);
    statements
        .map(|sql| g.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}")).result)
        .collect()
}

#[test]
fn ingest_under_the_drift_keeps_plans_and_a_load_past_it_replans_each_once() {
    let (a, fresh) = (grid(200), grid(200));
    let registered = live_events(&a);
    assert_eq!(registered, 400);
    assert_eq!(estimated_events(&a), registered);
    ask_all(&a);
    let misses = counter(&a, "plan_cache_misses");
    assert_eq!(misses, FEDERATED.len() as u64 + 1);
    assert_eq!(counter(&a, "plan_cache_replans"), 0);

    // (a) Five cycles of four events: 20 rows, within a tenth of 400.
    let mut answers = Vec::new();
    for cycle in 0..5 {
        ingest(&a, 4);
        ingest(&fresh, 4);
        answers = ask_all(&a);
        let at = format!("cycle {cycle}");
        assert_eq!(counter(&a, "plan_cache_replans"), 0, "{at}: re-planned");
        assert_eq!(counter(&a, "plan_cache_misses"), misses, "{at}");
    }
    assert_eq!(live_events(&a), registered + 20);
    assert_eq!(
        estimated_events(&a),
        registered,
        "planned from the statistic"
    );
    // The twin asks every statement for the first time now: the same answers.
    assert_eq!(answers, ask_all(&fresh));
    assert_eq!(counter(&fresh, "plan_cache_misses"), misses);

    // (b) Sixty more: 80 rows past the statistic, which moves, and every
    // federated plan re-plans once — the whole-statement one never.
    ingest(&a, 60);
    assert_eq!(estimated_events(&a), registered + 80);
    ask_all(&a);
    let replans = counter(&a, "plan_cache_replans");
    assert_eq!(replans, FEDERATED.len() as u64);
    let hits = counter(&a, "plan_cache_hits");
    ask_all(&a);
    assert_eq!(counter(&a, "plan_cache_replans"), replans);
    assert_eq!(
        counter(&a, "plan_cache_hits"),
        hits + FEDERATED.len() as u64 + 1
    );
}

#[test]
fn a_mart_registered_empty_is_planned_from_the_count_the_wal_loaded() {
    let g = grid(0);
    assert_eq!(live_events(&g), 0);
    assert_eq!(estimated_events(&g), 0);
    ingest(&g, 30);
    assert_eq!(live_events(&g), 30);
    assert_eq!(estimated_events(&g), 30);
}

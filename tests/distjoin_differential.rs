//! Differential property suite for cost-based semi-join reduction
//! (DESIGN.md §4.14).
//!
//! A reduced plan and the full scatter it replaces each answer as
//! `gridfed-reference` does over the grid's merged database
//! (`tests/common`): same values, same sort order, an error only where the
//! reference raises one. Under injected transient faults a reduced query
//! may fail or degrade, but a complete answer is still the reference's and
//! a degraded one a subset of it — a dropped reduction source degrades that
//! join to full scatter, never to a wrong answer.
//!
//! At the paper's scale, the reduction must also pay: it ships at least
//! one reduction, moves at least 5x fewer bytes and answers sooner, and
//! with the mediator's session it at least halves the Table-1 row-3 join
//! that full scatter runs at 10x a non-distributed baseline.
//!
//! On both properties every answered query's `execute + resilience` is
//! also recomputed from outside: from its trace's per-branch costs and the
//! dependencies its EXPLAIN prints, it is the critical path through them,
//! and never more than the per-wave sum a barrier per wave used to charge.

mod common;

use common::{answer_of, assert_promise, two_sources, Merged, Rng};
use gridfed_core::grid::{mart_url, standard_views, Grid, GridQuery};
use gridfed_core::resilience::{DegradationPolicy, ResilienceConfig};
use gridfed_core::service::{ConnectionPolicy, DataAccessService};
use gridfed_faults::FaultPlan;
use gridfed_simnet::cost::Cost;
use gridfed_vendors::{SimServer, VendorKind};
use gridfed_warehouse::etl::TransportMode;
use gridfed_warehouse::marts::materialize_into_mart;
use std::collections::BTreeMap;
use std::sync::Arc;

fn small_grid() -> Grid {
    two_sources(7, 60)
        .with_observability(true)
        .build()
        .expect("grid builds")
}

/// One branch of a plan: the depth it waits to (its planner wave) and the
/// branches whose keys its fetches read.
#[derive(Default)]
struct PlannedBranch {
    wave: u64,
    after: Vec<String>,
}

/// Fill in, for the branches of `sql`'s plan (keyed by the label a trace
/// gives them), the waves and dependencies EXPLAIN prints: each `fetch`
/// line names a table's home, each `reduce … by keys of …` line under it a
/// source table and the fetch's wave. A whole-statement plan has neither.
fn explain_dependencies(g: &Grid, sql: &str, plan: &mut BTreeMap<String, PlannedBranch>) {
    let text = g
        .service(0)
        .explain(sql)
        .expect("an answered query explains");
    let mut home_of: BTreeMap<String, String> = BTreeMap::new();
    let mut reads: Vec<(String, String, u64)> = Vec::new();
    let mut fetching = String::new();
    let ticked = |s: &str| s.split('`').nth(1).expect("a `name`").to_string();
    for line in text.lines() {
        if let Some(fetch) = line.strip_prefix("  fetch ") {
            fetching = ticked(fetch);
            let label = match fetch.split_once(" via RLS from ") {
                Some((_, at)) => format!("remote server `{}`", at.split(' ').next().expect("url")),
                None => format!(
                    "database `{}`",
                    ticked(fetch.split_once(" from ").expect("from").1)
                ),
            };
            home_of.insert(fetching.clone(), label);
        } else if let Some(reduce) = line.strip_prefix("    reduce ") {
            let source = ticked(reduce.split_once(" by keys of ").expect("a source").1);
            let wave = reduce.rsplit("wave ").next().expect("a wave");
            let wave = wave.trim_end_matches(']').parse().expect("a wave number");
            reads.push((fetching.clone(), source, wave));
        }
    }
    for (table, source, wave) in reads {
        let b = plan.get_mut(&home_of[&table]).expect("a traced branch");
        b.wave = b.wave.max(wave);
        b.after.push(home_of[&source].clone());
    }
}

/// `(critical path, per-wave sum)` in µs of the query `g` answered last,
/// recomputed from its trace's branches (work + supervision each) and its
/// plan's dependencies — none when reduction is off.
fn recomputed_paths(g: &Grid, sql: &str, reduce: bool) -> (u64, u64) {
    let trace = g
        .service(0)
        .observability()
        .traces
        .latest()
        .expect("traced");
    let record = trace.record.as_ref().expect("a query record");
    let own: BTreeMap<String, u64> = record
        .branches
        .iter()
        .map(|b| (b.label.to_string(), (b.exec + b.resilience).as_micros()))
        .collect();
    let mut plan: BTreeMap<String, PlannedBranch> = own
        .keys()
        .map(|label| (label.clone(), PlannedBranch::default()))
        .collect();
    if reduce {
        explain_dependencies(g, sql, &mut plan);
    }
    fn finish(
        label: &str,
        plan: &BTreeMap<String, PlannedBranch>,
        own: &BTreeMap<String, u64>,
    ) -> u64 {
        let ready = plan[label].after.iter().map(|s| finish(s, plan, own)).max();
        ready.unwrap_or(0) + own[label]
    }
    let critical = plan
        .keys()
        .map(|l| finish(l, &plan, &own))
        .max()
        .unwrap_or(0);
    let mut slowest: BTreeMap<u64, u64> = BTreeMap::new();
    for (label, b) in &plan {
        let at = slowest.entry(b.wave).or_default();
        *at = (*at).max(own[label]);
    }
    (critical, slowest.values().sum())
}

/// The critical-path identity and the per-wave bound on one answered query;
/// whether the bound was strict (a branch overlapped a wave it used to wait
/// out).
fn assert_composes(g: &Grid, sql: &str, reduce: bool, out: &GridQuery, case: usize) -> bool {
    let bd = &out.stats.breakdown;
    let charged = (bd.execute + bd.resilience).as_micros();
    let (critical, per_wave) = recomputed_paths(g, sql, reduce);
    assert_eq!(charged, critical, "case {case}: critical path of {sql}");
    assert!(
        charged <= per_wave,
        "case {case}: {charged} > per-wave {per_wave} for {sql}"
    );
    charged < per_wave
}

/// One random query over the standard mart catalog, spanning the join
/// shapes the planner reduces (small→big local, remote source, chains, a
/// chain beside an unreduced remote branch)
/// and the ones it must leave alone (comparable sides, same-branch
/// joins, outer joins, planner errors).
fn case_sql(rng: &mut Rng) -> String {
    let k = 1 + rng.below(12);
    let e = 5 + rng.below(80);
    let det = rng.pick(&["ecal", "hcal", "tracker", "muon"]);
    match rng.below(9) {
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
        // Table-1 row 3: a reduced chain beside an independent remote
        // branch, which the reduced fetch no longer waits for.
        7 => format!(
            "SELECT e.e_id, s.n_meas, c.avg_weight, d.mean_value FROM ntuple_events e \
             JOIN run_summary s ON e.run_id = s.run_id \
             JOIN run_conditions c ON s.run_id = c.run_id \
             JOIN detector_summary d ON c.detector = d.detector \
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
/// both fail or neither does, and each answers as the reference does over
/// the merged database, values, sort order and errors.
#[test]
fn reduced_plans_match_full_scatter_on_256_cases() {
    let g = small_grid();
    let merged = Merged::of(&g);
    let mut rng = Rng(0x5eed_d157);
    let (mut reductions_seen, mut overlapped) = (0usize, 0usize);
    for case in 0..256 {
        let sql = case_sql(&mut rng);
        let mut answered = Vec::new();
        for reduce in [true, false] {
            set_distjoin(&g, reduce);
            let got = g.query(&sql);
            let at = format!("case {case} (reduce {reduce})");
            assert_promise(&at, &sql, answer_of(&got), &merged);
            answered.push(got.is_ok());
            let Ok(out) = &got else { continue };
            let strict = assert_composes(&g, &sql, reduce, out, case);
            if reduce {
                overlapped += usize::from(strict);
                reductions_seen += out.stats.reductions_shipped;
            } else {
                assert_eq!(out.stats.reductions_shipped, 0, "{at}: toggle leaked");
            }
        }
        assert_eq!(
            answered[0], answered[1],
            "case {case}: one plan failed: {sql}"
        );
    }
    assert!(
        reductions_seen >= 32,
        "the suite must actually exercise reductions, saw {reductions_seen}"
    );
    // Row 3's shape: the reduced fetch overlaps the remote branch.
    assert!(
        overlapped >= 8,
        "only {overlapped} reduced plans finished before their per-wave sum"
    );
}

/// Seeded transient faults with retries and Partial degradation: every
/// answer of the reduced grid keeps the promise — a complete answer is the
/// reference's over the merged database, a degraded one a subset of it, an
/// error a typed one. A dropped reduction source degrades that join to full
/// scatter, never to a wrong answer.
#[test]
fn faulted_reductions_degrade_to_full_scatter_never_wrong_answers() {
    let faulted = two_sources(7, 60)
        .with_fault_plan(FaultPlan::new(4242).transient("*", 0.08))
        .with_resilience(ResilienceConfig {
            max_retries: 1,
            base_backoff: Cost::from_millis(5),
            degradation: DegradationPolicy::Partial,
            ..ResilienceConfig::default()
        })
        .with_observability(true)
        .build()
        .expect("faulted grid builds");
    let merged = Merged::of(&faulted);

    let mut rng = Rng(0xfa017);
    let (mut compared, mut degraded, mut failed) = (0usize, 0usize, 0usize);
    for case in 0..64 {
        let sql = case_sql(&mut rng);
        let answer = faulted.query(&sql);
        let at = format!("case {case}");
        assert_promise(&at, &sql, answer_of(&answer), &merged);
        match &answer {
            Ok(out) => {
                assert_composes(&faulted, &sql, true, out, case);
                match out.stats.is_degraded() {
                    true => degraded += 1,
                    false => compared += 1,
                }
            }
            Err(_) => failed += 1,
        }
    }
    assert!(
        compared > 0,
        "no complete answers compared (degraded={degraded}, failed={failed})"
    );
}

/// Selective shape: the filter lands on the small local side
/// (`run_summary`), so the reduction ships only the surviving run keys to
/// the `ntuple_events` source instead of scattering the full table.
const SELECTIVE: &str = "SELECT e.e_id, s.n_meas FROM ntuple_events e \
     JOIN run_summary s ON e.run_id = s.run_id WHERE s.run_id < 1 \
     ORDER BY e.e_id";

/// The paper's two-server, four-table join (Table 1 row 3) with the same
/// selective small-side filter.
const TWO_SERVER: &str = "SELECT e.e_id, s.n_meas, c.avg_weight, d.mean_value \
     FROM ntuple_events e \
     JOIN run_summary s ON e.run_id = s.run_id \
     JOIN run_conditions c ON s.run_id = c.run_id \
     JOIN detector_summary d ON c.detector = d.detector \
     WHERE s.run_id < 1 ORDER BY e.e_id";

fn paper_grid(scale: usize, policy: ConnectionPolicy) -> Grid {
    two_sources(2005, scale)
        .with_connection_policy(policy)
        .build()
        .expect("paper grid builds")
}

fn set_distjoin(g: &Grid, on: bool) {
    for s in &g.services {
        s.reconfigure(|c| c.distjoin = on);
    }
}

/// Server 1's virtual `(total, integrate)` in ms for `sql`, with reduction
/// planning switched to `reduce` on the whole grid first.
fn service_ms(g: &Grid, sql: &str, reduce: bool) -> (f64, f64) {
    set_distjoin(g, reduce);
    let out = g.services[0].query(sql).expect("service query").value;
    let bd = &out.stats.breakdown;
    (bd.total().as_millis_f64(), bd.integrate.as_millis_f64())
}

/// Reduction against full scatter at 300 and 1 300 events per source, on
/// both shapes: the same answer, fewer bytes, less virtual time. Then the
/// Table-1 row-3 join against one database holding all four views: full
/// scatter reproduces the paper's >10x blowup, and reduction plus the
/// mediator's session at least halves it, integrating within 2x of the
/// central engine's whole execution.
#[test]
fn reduction_pays_at_paper_scale_and_undoes_the_table1_blowup() {
    for scale in [300, 1300] {
        let g = paper_grid(scale, ConnectionPolicy::PerQuery);
        let merged = Merged::of(&g);
        for (label, sql) in [
            ("selective 2-db", SELECTIVE),
            ("2-server 4-table", TWO_SERVER),
        ] {
            set_distjoin(&g, false);
            let full = g.query(sql).expect("full scatter answers");
            set_distjoin(&g, true);
            let reduced = g.query(sql).expect("reduced plan answers");
            let at = format!("{label} at scale {scale}");
            for q in [&full, &reduced] {
                assert_promise(&at, sql, Ok((&q.result, &q.stats)), &merged);
            }
            assert_eq!(full.stats.reductions_shipped, 0, "{at}: toggle leaked");
            assert!(
                reduced.stats.reductions_shipped >= 1,
                "{at}: no reduction shipped"
            );
            assert!(
                reduced.response_time < full.response_time,
                "{at}: reduction slowed the query ({} vs {})",
                reduced.response_time,
                full.response_time
            );
            assert!(
                full.stats.bytes_fetched as f64 >= 5.0 * reduced.stats.bytes_fetched as f64,
                "{at}: bytes moved cut less than 5x (full {} vs reduced {})",
                full.stats.bytes_fetched,
                reduced.stats.bytes_fetched
            );
        }
    }

    // Non-distributed baseline: every view materialized into one database,
    // the whole join pushed there as one statement.
    let per = paper_grid(1300, ConnectionPolicy::PerQuery);
    let kept = paper_grid(1300, ConnectionPolicy::Session);
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
    let central_execute_ms = central.stats.breakdown.execute.as_millis_f64();

    let (full_pq, _) = service_ms(&per, TWO_SERVER, false);
    // The first statement on a session pays for what the session then
    // keeps; the measured run is the steady state.
    service_ms(&kept, TWO_SERVER, true);
    let (reduced_kept, reduced_integrate) = service_ms(&kept, TWO_SERVER, true);

    assert!(
        full_pq >= 10.0 * central_ms,
        "full scatter {full_pq:.1} ms is not the Table-1 blowup over {central_ms:.1} ms"
    );
    assert!(
        full_pq >= 2.0 * reduced_kept,
        "reduction + session must halve the join (full {full_pq:.1} ms, reduced {reduced_kept:.1} ms)"
    );
    assert!(
        reduced_integrate <= 2.0 * central_execute_ms,
        "reduced integration {reduced_integrate:.1} ms is past 2x the central execute \
         {central_execute_ms:.1} ms"
    );
}

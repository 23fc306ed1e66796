//! A reused plan is the plan: cached ≡ never-seen, step by step.
//!
//! The mediator plans a statement once and afterwards goes straight from
//! its text to the scatter, re-planning only when an answer of the resolver
//! it was planned from has moved (DESIGN.md §4.4, "Plan once"). This suite
//! drives **two identically built grids** through one seeded schedule of
//! Table-1 / Fig-6 / analytic statements interleaved with every event that
//! can move a resolver answer — databases registered and unregistered,
//! schemas changed and refreshed, ingest followed by mart refresh or WAL
//! replication (row counts and versions move), freshness published to the
//! RLS, a crashed mart whose aging replica forces the other one to be
//! chosen, semi-join reduction switched off and on.
//!
//! Grid `a` is sent each statement verbatim, so from the second time on it
//! runs the cached plan. Grid `b` is sent the same statement with the
//! letters of `SELECT` and `FROM` in a case pattern it has never used
//! before: the same length, the same tokens to the parser, a different
//! cache key — so `b`'s mediator parses and plans every one of them from
//! scratch. After every step each answer keeps the promise against
//! `gridfed-reference` over the merged database of the grid as it then is
//! (`tests/common`), both grids fail or neither does, and the two agree on
//! every deterministic `QueryStats` field: all counts,
//! `versions`, `plan_shape`, the seven `breakdown` terms, the service cost
//! and the client's `response_time` — all but one, by exactly one amount.
//! Planning is priced as done (DESIGN.md §4.3): where `a` ran a kept plan
//! its `plan` term is 0, where it planned (the first time, or a re-plan)
//! it is the full `sql_parse + plan_decompose` that `b` always pays, and
//! its two costs are lower by exactly what `plan` is. With observability on
//! the plan-cache counters say which of the two happened, and must agree.
//! Virtual time drives replication age, crash windows and replica choice:
//! after each step `a`'s clocks are behind `b`'s by exactly the planning
//! `a` did not do (a failed query's included) and are moved up to them, so
//! the rest of the schedule runs on equal time.
//!
//! The other half of the claim — the plan that ran equals
//! `decompose::plan` called fresh on the same resolver answers — is
//! asserted inside the mediator on every reuse in builds with debug
//! assertions, which is how `cargo test` builds this suite: every hit on
//! `a`, and every hit of a forwarded sub-query on either grid's peer.

mod common;

use common::{assert_promise, two_sources, Merged, Rng};
use gridfed::core::grid::mart_url;
use gridfed::core::stats::QueryStats;
use gridfed::core::CoreError;
use gridfed::faults::VirtualClock;
use gridfed::prelude::*;
use gridfed::rls::TableFreshness;
use gridfed::simnet::params::CostParams;
use std::collections::HashMap;
use std::sync::Arc;

const SEEDS_PER_GRID: u64 = 64;
const STEPS: usize = 28;

/// The statement pool: every plan shape (single database, forward-all,
/// federated with and without reductions), a table bound twice, a
/// wildcard, a comment that ends in a newline, a table with no statistics
/// but its registration-time row count, a table nobody hosts, two
/// statements the MS-SQL mart receives as one text (it prints no `LIMIT`),
/// which its prepared plans must still tell apart, and a chain of three
/// scans at that mart, which it orders by row counts that `calib`'s
/// growth moves past `run_summary`'s.
fn statements(k: u64) -> Vec<String> {
    vec![
        format!("SELECT e_id, energy FROM ntuple_events WHERE e_id < {k}"),
        format!(
            "SELECT e.e_id, s.n_meas FROM ntuple_events e \
             JOIN run_summary s ON e.run_id = s.run_id WHERE e.e_id < {k}"
        ),
        format!(
            "SELECT e.e_id, s.n_meas, c.avg_weight, d.mean_value \
             FROM ntuple_events e \
             JOIN run_summary s ON e.run_id = s.run_id \
             JOIN run_conditions c ON s.run_id = c.run_id \
             JOIN detector_summary d ON c.detector = d.detector \
             WHERE e.e_id < {k}"
        ),
        format!(
            "SELECT e.e_id, e.energy, s.avg_value FROM ntuple_events e \
             JOIN run_summary s ON e.run_id = s.run_id WHERE e.e_id < {}",
            3 * k
        ),
        "SELECT run_id, COUNT(*) AS n, AVG(energy) AS avg_e, MAX(energy) AS max_e \
         FROM ntuple_events WHERE nhits > 4 \
         GROUP BY run_id HAVING COUNT(*) > 1 ORDER BY run_id"
            .to_string(),
        "SELECT detector, mean_value FROM detector_summary ORDER BY detector".to_string(),
        "SELECT e.e_id, s.n_meas, c.avg_weight FROM ntuple_events e \
         JOIN run_summary s ON e.run_id = s.run_id \
         JOIN run_conditions c ON s.run_id = c.run_id \
         WHERE e.energy > 60.25 AND c.detector <> 'muon'"
            .to_string(),
        format!(
            "SELECT a.e_id, s.n_meas, b.energy FROM ntuple_events a \
             JOIN run_summary s ON a.run_id = s.run_id \
             JOIN ntuple_events b ON b.e_id = a.e_id WHERE a.e_id < {k}"
        ),
        "SELECT * FROM run_summary s JOIN run_conditions c ON s.run_id = c.run_id \
         WHERE s.run_id < 3"
            .to_string(),
        format!("SELECT e_id FROM ntuple_events WHERE e_id < {k} -- c1\n AND e_id < 2"),
        "SELECT c.id, r.avg_weight FROM calib c JOIN run_conditions r ON c.id = r.run_id"
            .to_string(),
        "SELECT x FROM no_such_table".to_string(),
        format!(
            "SELECT run_id, n_meas FROM run_summary ORDER BY run_id LIMIT {}",
            k % 3 + 1
        ),
        format!(
            "SELECT run_id, n_meas FROM run_summary ORDER BY run_id LIMIT {}",
            k % 3 + 4
        ),
        "SELECT a.id, s.n_meas FROM calib a JOIN run_summary s ON a.id = s.run_id \
         JOIN calib b ON b.id = s.run_id"
            .to_string(),
    ]
}

/// `sql` with the ten letters of its `SELECT` and first ` FROM ` cased by
/// the bits of `n`: the same statement under a key nobody has used.
fn recased(sql: &str, n: usize) -> String {
    assert!(n < 1024, "out of fresh spellings");
    let from = sql.find(" FROM ").expect("statement has a FROM") + 1;
    let letters: Vec<usize> = (0..6).chain(from..from + 4).collect();
    let mut bytes = sql.as_bytes().to_vec();
    for (bit, at) in letters.into_iter().enumerate() {
        if n >> bit & 1 == 1 {
            bytes[at] = bytes[at].to_ascii_lowercase();
        }
    }
    String::from_utf8(bytes).expect("ASCII letters only changed case")
}

/// What a client can observe of one query besides its answer.
type Observed = Result<(QueryStats, Cost, Cost), CoreError>;

/// What the mediator charges for planning a statement: parse + decompose.
fn planning() -> Cost {
    let p = CostParams::paper_2005();
    p.sql_parse + p.plan_decompose
}

/// How far `a`'s clock for `mediator` fell behind `b`'s on the query just
/// asked — the planning `a` did not redo — after which every clock of `a`
/// reads what its twin on `b` reads again. No other clock may have moved
/// apart.
fn catch_up(a: &Grid, b: &Grid, mediator: usize) -> Cost {
    let mut clocks: Vec<(Arc<VirtualClock>, Arc<VirtualClock>)> = Vec::new();
    for m in 0..a.services.len() {
        let (ca, cb) = (a.service(m).clock(), b.service(m).clock());
        if !clocks.iter().any(|(c, _)| Arc::ptr_eq(c, &ca)) {
            clocks.push((ca, cb));
        }
    }
    let asked = a.service(mediator).clock();
    let mut behind = Cost::ZERO;
    for (ca, cb) in clocks {
        let lag = cb.now().saturating_sub(ca.now());
        assert!(ca.now() <= cb.now(), "the cached grid is never ahead");
        if Arc::ptr_eq(&ca, &asked) {
            behind = lag;
        } else {
            assert_eq!(lag, Cost::ZERO, "only the asked mediator planned less");
        }
        ca.advance(lag);
    }
    behind
}

/// One query to `mediator`, its answer held to the promise over `merged`.
fn observe(g: &Grid, mediator: usize, sql: &str, at: &str, merged: &Merged) -> Observed {
    let seen = if mediator == 0 {
        g.query(sql)
            .map(|q| (q.result, q.stats, q.service_cost, q.response_time))
    } else {
        let t = g.service(mediator).query(sql);
        t.map(|t| (t.value.result, t.value.stats, t.cost, t.cost))
    };
    assert_promise(at, sql, seen.as_ref().map(|(r, s, ..)| (r, s)), merged);
    seen.map(|(_, stats, cost, time)| (stats, cost, time))
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    /// The paper's two mediators, marts refreshed in batches.
    Batch,
    /// The same with observability on: `plan_shape` and the counters.
    Observed,
    /// Log-shipped marts, observability on (perfbench's `live_grid`).
    Replicated,
    /// One mediator, two log-shipped replicas of `ntuple_events` routed by
    /// bounded staleness, and a crash window on the preferred one.
    CrashedReplica,
}

fn build(kind: Kind, seed: u64, crash: (Cost, Cost)) -> Grid {
    let b = two_sources(seed, 40);
    let b = match kind {
        Kind::Batch => b,
        Kind::Observed => b.with_observability(true),
        Kind::Replicated => b
            .with_observability(true)
            .with_replication(ReplicationConfig::default()),
        Kind::CrashedReplica => b
            .single_server()
            .replicate_events(true)
            .with_policy(ReplicaPolicy::BoundedStaleness(120_000))
            .with_replication(ReplicationConfig::default())
            .with_fault_plan(FaultPlan::new(seed).crash("mart_mysql", crash.0, Some(crash.1))),
    };
    let g = b.build().expect("grid builds");
    // `calib` has no mart metadata, so the planner sizes it by the row
    // count its mart's XSpec recorded at registration — an answer that
    // changes with nothing but the dictionary.
    let schema = Schema::new(vec![ColumnDef::new("id", DataType::Int)]).expect("schema");
    g.marts[1]
        .with_db_mut(|db| db.create_table("calib", schema).map(|_| ()))
        .expect("calib");
    grow_calib(&g, 3);
    g
}

/// Append `rows` rows to `calib` and have the front mediator register its
/// mart anew — the only way its recorded row count moves.
fn grow_calib(g: &Grid, rows: i64) {
    let mart = &g.marts[1];
    mart.with_db_mut(|db| {
        let calib = db.table_mut("calib")?;
        let first = calib.len() as i64;
        calib.insert_many(
            (first..first + rows)
                .map(|id| vec![Value::Int(id)])
                .collect(),
        )
    })
    .expect("calib grows");
    g.service(0).unregister_database(mart.db_name());
    g.service(0)
        .register_database(&mart_url(mart))
        .expect("the mart registers");
}

/// One event that can move a resolver answer, applied to one grid. Both
/// grids get the same `(event, arg)`; what it does depends only on the
/// grid's own state, which the schedule has kept identical.
fn apply(g: &Grid, kind: Kind, event: u64, arg: u64) {
    let front = g.service(0);
    match event {
        // Plug a mart out of, or into, the front mediator's dictionary.
        0 => {
            let mart = &g.marts[(arg % 4) as usize];
            if front.databases().iter().any(|d| d == mart.db_name()) {
                assert!(front.unregister_database(mart.db_name()));
            } else {
                // Typed error while the mart is crashed; the same on both.
                let _ = front.register_database(&mart_url(mart));
            }
        }
        // A mart's schema changes underneath every mediator.
        1 => {
            let mart = &g.marts[(arg % 4) as usize];
            let schema = Schema::new(vec![ColumnDef::new("id", DataType::Int)]).expect("schema");
            let name = format!("extra_{}", mart.with_db(|db| db.table_names().len()));
            mart.with_db_mut(|db| db.create_table(name, schema).map(|_| ()))
                .expect("new table");
            for das in &g.services {
                // A crashed mart cannot be introspected: typed, and the
                // same on both grids.
                let _ = das.refresh_schemas();
            }
        }
        // New facts reach the marts: row counts and versions move.
        2 => {
            g.extend_sources(1 + (arg % 5) as usize).expect("extend");
            g.run_incremental_etl().expect("incremental ETL");
            if kind == Kind::Batch || kind == Kind::Observed {
                g.refresh_marts().expect("refresh");
            } else {
                g.pump_replication_for(1 + (arg % 3) as usize);
            }
        }
        // Someone publishes new freshness for a table of the far mediator.
        3 => {
            let table = ["detector_summary", "run_conditions"][(arg % 2) as usize];
            let url = g.service(g.services.len() - 1).url().to_string();
            let published = g.rls.freshness(table).value;
            let newest = published.iter().map(|(_, f)| f.version).max().unwrap_or(0);
            let fresh = TableFreshness {
                version: newest + 1,
                rows: 1 + arg % 4000,
                ..TableFreshness::default()
            };
            g.rls.publish_freshness(&url, &[(table.to_string(), fresh)]);
        }
        // Semi-join reduction off, or back on.
        4 => front.reconfigure(|c| c.distjoin = arg & 1 == 0),
        // A table known only by its registration-time statistics grows.
        5 => grow_calib(g, 1 + (arg % 40) as i64),
        // Time passes: replicas age or catch up, crash windows open and close.
        _ => {
            if kind == Kind::Batch || kind == Kind::Observed {
                front.clock().advance(Cost::from_millis(50 * (1 + arg % 8)));
            } else {
                g.pump_replication_for(1 + (arg % 6) as usize);
            }
        }
    }
}

fn run(kind: Kind, seed: u64) {
    let mut rng = Rng(seed ^ 0x706c_616e);
    let crash_from = Cost::from_millis(300 + rng.next() % 2500);
    let crash = (
        crash_from,
        crash_from + Cost::from_millis(800 + rng.next() % 3000),
    );
    let a = build(kind, seed, crash);
    let b = build(kind, seed, crash);
    let mut merged = Merged::of(&b);
    let pool = statements(4 + rng.next() % 12);
    let counted = kind == Kind::Observed || kind == Kind::Replicated;
    let mut asked: HashMap<(usize, usize), usize> = HashMap::new();
    let mut ask = |step: usize, mediator: usize, at: usize, merged: &Merged| {
        let sql = &pool[at];
        let times = asked.entry((mediator, at)).or_default();
        if kind == Kind::CrashedReplica {
            // Keep the healthy replicas inside the staleness bound, so the
            // crashed one ageing out of it is what decides the routing.
            a.pump_replication();
            b.pump_replication();
        }
        let counter = |family| plan_counter(&a, mediator, family);
        let (hits, planned) = (counter("plan_cache_hits"), counter("plan_cache_misses"));
        let replans = counter("plan_cache_replans");
        let first = *times == 0;
        *times += 1;
        let at = format!("seed {seed} step {step}: mediator {mediator}, ask {times} of {sql}");
        let seen = observe(&a, mediator, sql, &at, merged);
        let hit = counter("plan_cache_hits") > hits;
        let planned =
            counter("plan_cache_misses") > planned || counter("plan_cache_replans") > replans;
        let fresh = observe(&b, mediator, &recased(sql, *times - 1), &at, merged);
        let behind = catch_up(&a, &b, mediator);
        match (seen, fresh) {
            (Ok(mut seen), Ok(fresh)) => {
                assert_eq!(fresh.0.breakdown.plan, planning(), "{at}");
                let kept = seen.0.breakdown.plan == Cost::ZERO;
                if !kept {
                    assert_eq!(seen.0.breakdown.plan, planning(), "{at}");
                }
                assert!(
                    !(first && kept),
                    "{at}: a statement never seen ran a kept plan"
                );
                if counted {
                    assert_eq!((hit, planned), (kept, !kept), "{at}");
                }
                let saved = if kept { planning() } else { Cost::ZERO };
                assert_eq!(behind, saved, "{at}");
                seen.0.breakdown.plan += saved;
                seen.1 += saved;
                seen.2 += saved;
                assert_eq!(seen, fresh, "{at}");
            }
            (seen, fresh) => {
                assert!(seen.is_err() && fresh.is_err(), "{at}");
                // A failing statement was planned by both, or reused by `a`
                // (then failing to resolve: not parsed; or failing in the
                // scatter: neither parsed nor planned).
                let p = CostParams::paper_2005();
                assert!(
                    [Cost::ZERO, p.sql_parse, planning()].contains(&behind),
                    "{at}: behind by {behind}"
                );
                if counted {
                    assert!(!planned || behind == Cost::ZERO, "{at}");
                    assert!(!hit || behind == planning(), "{at}");
                }
            }
        }
    };
    for step in 0..STEPS {
        let mediators = a.services.len();
        if rng.below(3) == 0 {
            let (event, arg) = (rng.next() % 7, rng.next());
            apply(&a, kind, event, arg);
            apply(&b, kind, event, arg);
            // A mart plugged in or out, a new table, new facts, a grown
            // `calib`: what the grid serves moved.
            if matches!(event, 0 | 1 | 2 | 5) {
                merged = Merged::of(&b);
            }
            // Whatever moved, every shape is asked about it.
            for at in 0..pool.len() {
                ask(step, 0, at, &merged);
            }
        } else {
            let mediator = if rng.below(4) == 0 {
                rng.below(mediators)
            } else {
                0
            };
            ask(step, mediator, rng.below(pool.len()), &merged);
        }
    }
    if counted {
        // The schedule did exercise reuse, and `b`'s front never could.
        let counter = |g: &Grid, family| plan_counter(g, 0, family);
        assert!(counter(&a, "plan_cache_hits") > 0, "seed {seed}: no reuse");
        assert!(
            counter(&b, "plan_cache_misses") > counter(&a, "plan_cache_misses"),
            "seed {seed}: the fresh grid did not plan more"
        );
    }
}

/// A plan-cache counter of mediator `m` (0 while observability is off).
fn plan_counter(g: &Grid, m: usize, family: &str) -> u64 {
    let das = g.service(m);
    das.observability().metrics.counter(family, das.url())
}

fn run_seeds(kind: Kind, first: u64) {
    for seed in first..first + SEEDS_PER_GRID {
        run(kind, seed);
    }
}

#[test]
fn batch_refreshed_grid_cached_equals_fresh() {
    run_seeds(Kind::Batch, 1_000);
}

#[test]
fn observed_grid_cached_equals_fresh() {
    run_seeds(Kind::Observed, 2_000);
}

#[test]
fn replicated_grid_cached_equals_fresh() {
    run_seeds(Kind::Replicated, 3_000);
}

#[test]
fn crashed_replica_grid_cached_equals_fresh() {
    run_seeds(Kind::CrashedReplica, 4_000);
}

#[test]
fn a_recased_statement_is_the_same_statement_under_another_key() {
    let sql = "SELECT e_id FROM ntuple_events WHERE e_id < 3";
    assert_eq!(recased(sql, 0), sql);
    assert_eq!(
        recased(sql, 0b10_0000_0101),
        "sElECT e_id FROm ntuple_events WHERE e_id < 3"
    );
    let g = build(Kind::Batch, 1, (Cost::ZERO, Cost::ZERO));
    let merged = Merged::of(&g);
    let spelled: Vec<_> = (0..3)
        .map(|n| observe(&g, 0, &recased(sql, n), "recased", &merged))
        .collect();
    assert!(spelled[0].is_ok());
    assert_eq!(spelled[0], spelled[1]);
    assert_eq!(spelled[0], spelled[2]);
}

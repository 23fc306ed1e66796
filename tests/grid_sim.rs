//! Whole-grid deterministic simulation. One seeded schedule drives one
//! replicated grid of two or three mediators with every fault and knob on
//! at once: query-path and replication faults (transients, crashes, slow
//! servers, partitions, RLS staleness), resilience knobs, replica policies,
//! stream batch limits and observability. It interleaves literal-varied
//! statements to any mediator with ETL sweeps, pumps, mart refreshes,
//! EXPLAINs, monitor queries and reconfigurations (result cache, reduction
//! planning, connections), under fault windows drawn over the virtual time
//! a schedule takes.
//!
//! After every step: an answer is exact against `gridfed-reference` over
//! the merged database of a fault-free grid built alike (`tests/common`), a
//! typed error, or an annotated partial within it; a bounded read keeps its
//! bound and a refusal
//! names the table, the bound and an older age; a traced record composes;
//! a refreshed mart, and every mart once the streams catch up, equals its
//! views bit for bit; no mart version goes down, nor moves without news.
//! Once the windows close the streams converge, and every mediator answers
//! exactly, with no lag, and shows that lag in EXPLAIN and the monitor.
//! A failure names its seed, arm and step, and replays bit for bit.

mod common;

use common::{assert_promise, assert_subset, bits, two_sources, Merged, Rng};
use gridfed::core::grid::standard_views;
use gridfed::core::service::ConnectionPolicy::{self, PerQuery, Session};
use gridfed::core::service::DEFAULT_CACHE_CAPACITY;
use gridfed::core::CoreError;
use gridfed::prelude::*;
use gridfed::simnet::cost::Timed;
use gridfed::warehouse::{evaluate_view, read_all_mart_meta};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Seeds that found bugs, replayed first: 1, an ETL sweep hit by a
/// transient fault failed with an internal error; 2, a mediator the RLS
/// expired during a partition stayed unfound after it healed; 8, a failed
/// query was charged less than a branch it gathered ran.
const REGRESSION_SEEDS: &[u64] = &[1, 2, 8];
const SEEDS: std::ops::Range<u64> = 0..256;
const STEPS: usize = 12;
/// Pre-extension events (60 + 60 sources); extensions append past this.
const BASE_EVENTS: usize = 120;
const EXTRA_EVENTS: usize = 6;
const MAX_EXTENSIONS: usize = 3;
/// The virtual span fault windows are drawn over (ms): the drawn steps of
/// a schedule end by about 1 000 ms in the median, 2 600 at the p90.
const SPAN_MS: u64 = 2_000;
/// `ResilienceConfig::standard`'s 500-ms breaker cooldown in 50-ms pumps:
/// pumped through after the windows close, so no breaker a fault opened
/// still refuses.
const COOLDOWN_PUMPS: usize = 10;
/// The widest `{k}` a literal-varied statement is drawn with.
const WIDEST: usize = 40;

/// Statements whose answer no extension moves (extensions add run-0
/// events; every statement reads only pre-extension events or runs > 0),
/// spanning the plan shapes: one database, a multi-mart join, a forward
/// to another mediator from node1 (`run_conditions` lives on node2), a
/// join whose selective small side ships a reduction, and an aggregate.
/// `{k}` is drawn from `0..=WIDEST`: the answer is the widest one's rows
/// whose first column is below `k`.
const STABLE: &[&str] = &[
    "SELECT e_id, detector FROM ntuple_events WHERE e_id < {k} ORDER BY e_id",
    "SELECT e.e_id, s.n_meas FROM ntuple_events e JOIN run_summary s ON e.run_id = s.run_id \
     WHERE e.e_id < {k} AND s.run_id > 0 ORDER BY e.e_id",
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

const MARTS: [&str; 4] = ["mart_mysql", "mart_mssql", "mart_oracle", "mart_sqlite"];
/// What a crash may hit besides a mart: the mediators past node1.
const PEERS: [&str; 2] = ["clarens://node2:8443/das", "clarens://node3:8443/das"];
/// What a partition may cut, by pairs: the first two on any grid.
const CUTS: [(&str, &str); 4] = [
    ("node1", "node2"),
    ("tier0.cern", "node1"),
    ("node1", "node3"),
    ("tier0.cern", "node3"),
];

/// Stable statement `i` with literal `k`.
fn stable(i: usize, k: usize) -> String {
    STABLE[i].replace("{k}", &k.to_string())
}

fn builder() -> GridBuilder {
    two_sources(31, BASE_EVENTS / 2).replicate_events(true)
}

/// Extend the sources by `EXTRA_EVENTS` in `sweeps` slices, each swept
/// into the warehouse (one WAL record a stream may need a poll of its own
/// for); the first sweep's failure, if one failed.
fn extend(g: &Grid, sweeps: usize) -> gridfed::core::Result<()> {
    let mut swept = Ok(());
    for _ in 0..sweeps {
        g.extend_sources(EXTRA_EVENTS / sweeps)?;
        swept = swept.and(g.run_incremental_etl().map(drop));
    }
    swept
}

/// The merged database of a grid built the same way, fault-free, once `k`
/// extensions were swept into its warehouse: `references()[k]`.
fn references() -> &'static [Merged] {
    static REFS: OnceLock<Vec<Merged>> = OnceLock::new();
    REFS.get_or_init(|| {
        let g = builder().build().expect("reference grid");
        let mut merged = vec![Merged::of(&g)];
        for _ in 0..MAX_EXTENSIONS {
            extend(&g, 1).expect("fault-free extension");
            merged.push(Merged::of(&g));
        }
        merged
    })
}

/// One of the marts, or one of `others`, alike likely.
fn mart_or(s: &mut Rng, others: &[&'static str]) -> &'static str {
    let i = s.below(MARTS.len() + others.len());
    MARTS.get(i).unwrap_or_else(|| &others[i - MARTS.len()])
}

/// The windows a fault plan opens, `(from, until)` in virtual ms.
#[derive(Default)]
struct Windows(Vec<(u64, u64)>);

impl Windows {
    fn open(&self, now: Cost) -> bool {
        let ms = now.as_micros() / 1_000;
        self.0.iter().any(|&(from, until)| from <= ms && ms < until)
    }

    /// A window that opens in the span's first eighth (a tenth of the
    /// schedules end by 250 ms) and stays open for up to the whole span.
    fn draw(&mut self, s: &mut Rng) -> (Cost, Option<Cost>) {
        let from = s.next() % (SPAN_MS / 8);
        let until = from + 1 + s.next() % SPAN_MS;
        self.0.push((from, until));
        (Cost::from_millis(from), Some(Cost::from_millis(until)))
    }
}

/// One plan of query-path and replication-path faults on a grid of
/// `mediators`, and the windows it opens.
fn random_faults(seed: u64, mediators: usize) -> (FaultPlan, Windows) {
    let mut s = Rng(seed);
    let mut plan = FaultPlan::new(seed);
    let mut w = Windows::default();
    if s.frac() < 0.8 {
        let rate = s.frac() * 0.35;
        let (from, until) = w.draw(&mut s);
        plan = plan.transient_during("*", rate, from, until);
    }
    if s.frac() < 0.6 {
        let target = mart_or(&mut s, &PEERS[..mediators - 1]);
        let (from, until) = w.draw(&mut s);
        plan = plan.crash(target, from, until);
    }
    if s.frac() < 0.5 {
        let target = mart_or(&mut s, &["tier0.cern"]);
        let factor = 1.0 + s.frac() * 40.0;
        let (from, until) = w.draw(&mut s);
        plan = plan.slow(target, factor, from, until);
    }
    if s.frac() < 0.5 {
        let (a, b) = s.pick(&CUTS[..2 * (mediators - 1)]);
        let (from, until) = w.draw(&mut s);
        plan = plan.partition(a, b, from, until);
    }
    if s.frac() < 0.2 {
        let (from, until) = w.draw(&mut s);
        plan = plan.rls_stale(from, until);
    }
    (plan, w)
}

/// Random resilience knobs: retries, degradation policy, hedging,
/// deadlines.
fn random_config(seed: u64) -> ResilienceConfig {
    let mut s = Rng(seed ^ 0xDEAD_BEEF_DEAD_BEEF);
    let mut cfg = ResilienceConfig::standard();
    cfg.max_retries = 1 + (s.next() % 6) as u32;
    if s.frac() < 0.3 {
        cfg.degradation = DegradationPolicy::Partial;
    }
    if s.frac() < 0.25 {
        cfg.hedge_after = Some(Cost::from_millis(1 + s.next() % 30));
    }
    if s.frac() < 0.2 {
        cfg.branch_deadline = Some(Cost::from_millis(20 + s.next() % 300));
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

/// An ingest error that is not a parse, planner or internal one, which
/// would mean the faults corrupted the ingest path itself.
fn typed(e: &CoreError) -> bool {
    !matches!(
        e,
        CoreError::Sql(_) | CoreError::Internal(_) | CoreError::BranchPanic { .. }
    )
}

/// A query or planning error keeps the promise over `merged`, but for a
/// table no live RLS entry names (the RLS expires a mediator it cannot
/// reach): that table is hosted by no known server, which the merged
/// database cannot say. A refusal to read past a bound names a table of
/// `sql`, the grid's `bound`, and a freshest replica older than it.
fn check_error(at: &str, e: &CoreError, sql: &str, merged: &Merged, bound: Option<u64>) {
    if !matches!(e, CoreError::TableNotFound(_)) {
        assert_promise(at, sql, Err(e), merged);
    }
    if let CoreError::StalenessBoundExceeded {
        table,
        bound_us,
        best_age_us,
    } = e
    {
        assert!(bound == Some(*bound_us), "{at}: refused under {bound_us}");
        assert!(sql.contains(table.as_str()), "{at}: refused `{table}`");
        assert!(best_age_us > bound_us, "{at}: freshest {best_age_us} µs");
    }
}

/// The promise for `das`'s answer to `sql` over `merged`, when `exact`
/// (else rows all in it: a lagging statement over extensions); a bound
/// kept; and the latest trace composes, a failed query's charge covering
/// every branch it gathered.
fn check(
    at: &str,
    das: &DataAccessService,
    sql: &str,
    merged: &Merged,
    exact: bool,
    bound: Option<u64>,
) -> gridfed::core::Result<Timed<QueryOutcome>> {
    let got = das.query(sql);
    if let Some(t) = das.observability().traces.latest() {
        let composed = t.check_composition(5);
        composed.unwrap_or_else(|e| panic!("{at}: {e}\n{}", t.render_tree()));
        if let Some(r) = t.record.as_ref().filter(|r| r.error.is_some()) {
            let charged = r.connect + r.execute + r.resilience;
            for b in &r.branches {
                let end = b.start + b.connect + b.exec + b.resilience;
                assert!(end <= charged, "{at}: `{}` ends past {charged:?}", b.label);
            }
        }
    }
    let Ok(out) = got.as_ref().map(|t| &t.value) else {
        check_error(at, got.as_ref().unwrap_err(), sql, merged, bound);
        return got;
    };
    let age = out.stats.repl_age_us;
    assert!(bound.is_none_or(|b| age <= b), "{at}: served age {age} µs");
    match exact {
        true => assert_promise(at, sql, Ok((&out.result, &out.stats)), merged),
        false => assert_subset(at, sql, &out.result, merged),
    }
    got
}

/// Whether every stream (or `mart`'s) has acknowledged the warehouse's WAL
/// head, read without a fault draw.
fn caught_up(g: &Grid, mart: Option<&str>) -> bool {
    let head = g.warehouse.with_db(|db| db.wal_head_lsn());
    let lag = g.replication_lag();
    let mut streams = lag.iter().filter(|(m, _)| mart.is_none_or(|o| m == o));
    streams.all(|(_, lag)| lag.applied_lsn >= head)
}

/// Every mart table's data version, keyed by `(mart, table)`.
fn versions(g: &Grid) -> BTreeMap<(String, String), u64> {
    let mut out = BTreeMap::new();
    for mart in &g.marts {
        for meta in mart.with_db(read_all_mart_meta) {
            out.insert((mart.db_name().to_string(), meta.table), meta.version);
        }
    }
    out
}

/// Every table of `only` (or of every mart) equals its view over the live
/// warehouse, bit for bit. The test's connection draws from the fault plan
/// like a client's; no plan crashes the warehouse, so a transient retries.
fn check_marts(at: &str, g: &Grid, only: Option<&str>) {
    let connect = (0..64).find_map(|_| g.warehouse.connect("grid", "grid").ok());
    let wconn = connect.expect("the warehouse is never down").value;
    let marts = || {
        g.marts
            .iter()
            .filter(|m| only.is_none_or(|o| m.db_name() == o))
    };
    for view in standard_views(&g.spec) {
        let expect = bits(&evaluate_view(&view, &wconn).expect("view evaluates").rows);
        for mart in marts() {
            if let Some(rows) = mart.with_db(|db| db.table(view.name()).ok().map(|t| t.rows())) {
                let table = format!("`{}`.`{}`", mart.db_name(), view.name());
                assert!(bits(&rows) == expect, "{at}: {table} differs from its view");
            }
        }
    }
}

/// A monitor query on `das` answers: complete, or annotated with the
/// peers it dropped, each another mediator of the grid.
fn monitor(at: &str, g: &Grid, das: &DataAccessService) -> QueryOutcome {
    let sql = "SELECT table_name, database, lag_lsn FROM gridfed_monitor.replication";
    let got = das.query(sql);
    let out = got.unwrap_or_else(|e| panic!("{at}: {e:?}")).value;
    for drop in &out.stats.branches_dropped {
        let peer = g.services.iter().find(|p| drop.branch.contains(p.url()));
        let named = peer.is_some_and(|p| p.url() != das.url());
        assert!(named, "{at}: monitor dropped {drop:?}");
    }
    out
}

/// One seed's schedule on one grid built under `keep`: the drawn steps,
/// and how many began inside a fault window.
fn simulate(seed: u64, keep: ConnectionPolicy) -> (usize, usize) {
    let refs = references();
    let policy = random_policy(seed);
    let bound = match policy {
        ReplicaPolicy::BoundedStaleness(bound) => Some(bound),
        _ => None,
    };
    let mut knobs = Rng(seed ^ 0x6B6E_6F62);
    let mediators = 2 + knobs.below(2);
    let batch_limit = 1 + knobs.below(4);
    let (plan, windows) = random_faults(seed, mediators);
    let g = builder()
        .with_mediators(mediators)
        .with_parallelism(3)
        .with_morsel_rows(16)
        .with_observability(true)
        .with_replication(ReplicationConfig {
            batch_limit,
            ..ReplicationConfig::default()
        })
        .with_connection_policy(keep)
        .with_policy(policy)
        .with_resilience(random_config(seed))
        .with_fault_plan(plan)
        .build()
        .expect("grid under faults");
    let arm = format!("seed {seed} {keep:?} {policy:?} {mediators} mediators batch {batch_limit}");
    // One stream per mart, each subscribed at its mart's materialized head.
    assert_eq!(g.replication_lag().len(), MARTS.len(), "{arm}: streams");
    assert!(caught_up(&g, None), "{arm}: streams subscribe at the head");

    let clock = g.service(0).clock();
    let open = || windows.open(clock.now());
    let mut s = Rng(seed ^ 0x5EED_5EED_5EED_5EED);
    let (mut extensions, mut faulted) = (0, 0);
    let mut seen = versions(&g);
    let mut settled = |at: &str, g: &Grid| {
        let now = versions(g);
        let down = now.iter().find(|(k, v)| seen.get(*k) > Some(*v));
        assert!(down.is_none(), "{at}: a version went down: {down:?}");
        seen = now;
    };
    for step in 0..STEPS {
        faulted += usize::from(open());
        let das = g.service(s.below(mediators));
        let at = format!("{arm} step {step} on {}", das.url());
        match s.next() % 12 {
            0..=4 => {
                let (i, k) = (s.below(STABLE.len() + 1), s.below(WIDEST + 1));
                let sql = match i < STABLE.len() {
                    true => stable(i, k),
                    false => EXTENDED[0].into(),
                };
                let got = check(&at, das, &sql, &refs[extensions], i < STABLE.len(), bound);
                // Planning refuses to read past the bound too.
                if let Err(CoreError::StalenessBoundExceeded { .. }) = got {
                    let plan = das.explain(&sql);
                    let refused = matches!(plan, Err(CoreError::StalenessBoundExceeded { .. }));
                    assert!(refused, "{at}: EXPLAIN after a refusal: {plan:?}");
                }
            }
            5 if extensions < MAX_EXTENSIONS => {
                match extend(&g, s.pick(&[1, 2, 3, 6])) {
                    Ok(()) => assert!(!caught_up(&g, None), "{at}: a sweep logged nothing"),
                    Err(e) => assert!(open() && typed(&e), "{at}: ETL failed: {e:?}"),
                }
                extensions += 1;
            }
            5 | 6 => {
                g.pump_replication();
                if caught_up(&g, None) {
                    check_marts(&at, &g, None);
                }
            }
            7 => {
                let mart = s.pick(&MARTS);
                let (owed, before) = (!caught_up(&g, Some(mart)), versions(&g));
                match g.refresh_mart(mart) {
                    Ok(_) => check_marts(&at, &g, Some(mart)),
                    Err(e) => assert!(open() && typed(&e), "{at}: refresh failed: {e:?}"),
                }
                assert!(owed || versions(&g) == before, "{at}: {mart} moved");
            }
            8 => {
                let i = s.below(STABLE.len());
                let sql = stable(i, s.below(WIDEST + 1));
                if let Err(e) = das.explain(&sql) {
                    let merged = &refs[extensions];
                    check_error(&format!("{at}: EXPLAIN"), &e, &sql, merged, bound);
                }
            }
            9 => drop(monitor(&at, &g, das)),
            _ => {
                let (cache, distjoin) = (s.below(2) == 0, s.below(2) == 0);
                let connections = s.pick(&[PerQuery, Session]);
                das.reconfigure(|c| {
                    c.result_cache = cache.then_some(DEFAULT_CACHE_CAPACITY);
                    c.distjoin = distjoin;
                    c.connections = connections;
                });
            }
        }
        settled(&at, &g);
    }

    // Convergence: past the last window and the breaker cooldown, one
    // more sweep for whatever a faulted one missed, then the streams
    // catch up within 30 cycles of the windows closing.
    let at = format!("{arm} converged");
    let last = windows.0.iter().map(|w| w.1).max().unwrap_or(0);
    while clock.now() < Cost::from_millis(last) {
        g.pump_replication();
    }
    g.pump_replication_for(COOLDOWN_PUMPS);
    let swept = g.run_incremental_etl();
    swept.unwrap_or_else(|e| panic!("{at}: ETL after every window: {e}"));
    g.pump_replication_for(20);
    assert!(g.replication_caught_up(), "{at}: streams never converged");
    check_marts(&at, &g, None);
    settled(&at, &g);
    // A deadline shorter than a fault-free branch drops it honestly (a
    // PerQuery connect alone can take longer); convergence is read without.
    for das in &g.services {
        das.reconfigure(|c| c.resilience.branch_deadline = None);
    }
    let widest = (0..STABLE.len()).map(|i| stable(i, WIDEST));
    for sql in widest.chain(EXTENDED.iter().map(|sql| sql.to_string())) {
        for das in &g.services {
            let at = format!("{at} on {}: {sql}", das.url());
            // Each read follows a heartbeat, so a bound is met by the
            // replica's freshness, not by how long the last read took.
            g.pump_replication();
            let got = check(&at, das, &sql, &refs[extensions], true, bound);
            let out = got.unwrap_or_else(|e| panic!("{at}: {e}")).value;
            assert!(!out.stats.is_degraded(), "{at}: {:?}", out.stats);
            assert_eq!(out.stats.repl_lag_lsn, 0, "{at}: lag after convergence");
        }
    }
    // The lag reaches EXPLAIN (on a mediator whose own replica it reads)
    // and the monitor tables, where every replica is caught up.
    let explained = g.services.iter().map(|das| {
        g.pump_replication();
        let plan = das.explain(&stable(0, WIDEST));
        plan.unwrap_or_else(|e| panic!("{at}: EXPLAIN: {e}"))
    });
    let plans: Vec<String> = explained.collect();
    let lag = |p: &String| p.contains("[lag ") && p.contains(" lsn,");
    assert!(plans.iter().any(lag), "{at}: no lag in {plans:#?}");
    for das in &g.services {
        let out = monitor(&at, &g, das);
        let (rows, dropped) = (&out.result.rows, &out.stats.branches_dropped);
        assert!(dropped.is_empty(), "{at}: {dropped:?}");
        assert!(rows.len() >= 5, "{at}: five replicas, got {rows:?}");
        let lagging = rows.iter().find(|r| r.values()[2] != Value::Int(0));
        assert!(lagging.is_none(), "{at}: {lagging:?}");
    }
    // Every stream subscribed at the head of an empty log, so once caught up
    // with a record logged it applied records, and the monitor shows it.
    if g.warehouse.with_db(|db| db.wal_head_lsn()) > 0 {
        let rows = |sql: &str| g.service(0).query(sql).map(|t| t.value.result.rows.len());
        let spans = rows("SELECT kind FROM gridfed_monitor.spans WHERE kind = 'replicate'");
        assert!(spans.is_ok_and(|n| n > 0), "{at}: no replicate span");
        let metrics =
            rows("SELECT value FROM gridfed_monitor.metrics WHERE family = 'wal_records_applied'");
        assert!(metrics.is_ok_and(|n| n > 0), "{at}: no wal_records_applied");
    }
    (STEPS, faulted)
}

fn run(keep: ConnectionPolicy) {
    let (mut steps, mut faulted, mut runs, mut unfaulted) = (0, 0, 0, 0);
    for seed in REGRESSION_SEEDS.iter().copied().chain(SEEDS) {
        let (drawn, inside) = simulate(seed, keep);
        (steps, faulted, runs) = (steps + drawn, faulted + inside, runs + 1);
        unfaulted += usize::from(inside == 0);
    }
    println!(
        "{keep:?}: {faulted} of {steps} drawn steps began inside a fault window; \
         {unfaulted} of {runs} runs had none"
    );
    assert!(2 * faulted >= steps, "{keep:?}: too few steps faulted");
    assert!(10 * unfaulted < runs, "{keep:?}: too many runs unfaulted");
}

#[test]
fn per_query_grid_is_exact_typed_or_annotated() {
    run(PerQuery);
}

#[test]
fn session_grid_is_exact_typed_or_annotated() {
    run(Session);
}

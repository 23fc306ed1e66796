//! Grids, answer checking and the untraced (end-to-end) pass.
//!
//! Load model: closed loop, one client thread, no think time — the paper's
//! own measurement (one analysis client waiting on its reply). Every grid
//! is the builder's default (2 mediators, parallel dispatch, a fresh
//! connection per query, result cache off, one executor worker);
//! `live_grid` adds replication and leaves observability on.

use crate::calib;
use crate::mem;
use crate::ops::{op_list, OpList, Shape, Workload, LIVE_EVENTS_PER_CYCLE, TABLE1_PAPER};
use crate::stats::{median, median_of_rounds, summarise_round, RoundSummary};
use gridfed_core::grid::{Grid, GridBuilder, GridQuery, ReplicationConfig};
use gridfed_sqlkit::exec::{execute_select, DatabaseProvider};
use gridfed_sqlkit::parser::parse_select;
use gridfed_sqlkit::ResultSet;
use gridfed_storage::{Database, Value};
use gridfed_vendors::VendorKind;
use gridfed_warehouse::marts::MART_META_TABLE;
use gridfed_warehouse::ReplBatchReport;
use std::time::Instant;

/// Fresh `GridBuilder::build()` calls per run; `setup_s` is their median.
/// About 1.5-2.5 s of building either way: the small grids build in 60 ms
/// and need the larger sample to hold a median steady.
fn setup_builds(workload: Workload) -> usize {
    match workload {
        Workload::AnalyticScan => 9,
        _ => 25,
    }
}

/// Replication polls after which an ingest cycle that has not caught up
/// counts as failed.
const MAX_POLLS: usize = 64;

/// The builder of a workload's grid.
pub fn builder(workload: Workload) -> GridBuilder {
    let n = workload.events_per_source();
    let b = GridBuilder::new()
        .with_seed(2005)
        .source("tier1.cern", VendorKind::Oracle, n)
        .source("tier2.caltech", VendorKind::MySql, n);
    match workload {
        Workload::LiveGrid => b
            .with_replication(ReplicationConfig::default())
            .with_observability(true),
        _ => b,
    }
}

/// One `GridBuilder::build()` (generate, ETL, materialise, register,
/// login) bracketed by the kernel: `(grid, raw seconds, reference-speed
/// seconds)`. `kernel_before` is the previous kernel run and is replaced
/// by the one taken after the build.
pub fn timed_build(workload: Workload, kernel_before: &mut f64) -> (Grid, f64, f64) {
    let t = Instant::now();
    let grid = builder(workload).build().expect("the workload grid builds");
    let raw = t.elapsed().as_secs_f64();
    let after = calib::kernel_ms();
    let norm = raw * calib::scale(*kernel_before, after);
    *kernel_before = after;
    (grid, raw, norm)
}

/// Every mart table copied into one database: the single-database oracle
/// that federated answers are compared against.
fn merged_database(grid: &Grid) -> Database {
    let mut merged = Database::new("oracle");
    for mart in &grid.marts {
        mart.with_db(|db| {
            for name in db.table_names() {
                if name == MART_META_TABLE {
                    continue;
                }
                let table = db.table(&name).expect("listed table exists");
                let copy = merged
                    .create_table(name.clone(), table.schema().clone())
                    .expect("mart table names are unique across marts");
                copy.insert_many(table.rows().into_iter().map(|r| r.into_values()).collect())
                    .expect("copied rows fit their own schema");
            }
        });
    }
    merged
}

/// An answer reduced to what the oracle comparison needs: its column names
/// and an FNV-1a hash of its rows rendered to text (sorted first unless the
/// statement fixes an order). Kept in place of the rows so that the
/// comparison, which needs a second copy of every mart, can wait until
/// `peak_rss_mb` has been read.
#[derive(Debug, Clone, PartialEq)]
struct Digest {
    columns: Vec<String>,
    rows: usize,
    hash: u64,
}

fn digest(rs: &ResultSet, ordered: bool) -> Digest {
    let mut rows: Vec<Vec<String>> = rs.to_vector().into_iter().skip(1).collect();
    if !ordered {
        rows.sort();
    }
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |byte: u8| hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
    for row in &rows {
        for cell in row {
            cell.bytes().for_each(&mut eat);
            eat(0x1f); // cell separator: ("ab","c") must differ from ("a","bc")
        }
        eat(0x1e);
    }
    Digest {
        columns: rs.columns.clone(),
        rows: rows.len(),
        hash,
    }
}

/// What every answer of one distinct statement must look like.
#[derive(Debug, Clone)]
pub struct Expected {
    shape: Shape,
    rows: usize,
}

impl Expected {
    /// Whether a mediator answer passes the per-operation check: the
    /// verified row count, and for Table-1 shapes the paper row's
    /// (servers, distributed, tables).
    pub fn accepts(&self, out: &GridQuery) -> bool {
        if out.result.len() != self.rows {
            return false;
        }
        match self.shape {
            Shape::Table1(row) => {
                let (servers, distributed, tables) = TABLE1_PAPER[row];
                out.stats.servers == servers
                    && out.stats.distributed == distributed
                    && out.stats.tables == tables
            }
            Shape::Fig6(n) => out.result.len() == n,
            Shape::Analytic(_) => true,
        }
    }
}

/// The first answer of every distinct statement, taken before the rounds:
/// the per-operation expectations, and the digests that
/// [`WarmUp::mismatches_against_oracle`] settles afterwards.
#[derive(Debug)]
pub struct WarmUp {
    /// Per distinct statement, what every later answer must look like.
    pub expected: Vec<Expected>,
    /// Statements whose first answer was an error or failed its shape check.
    pub failed: usize,
    digests: Vec<Option<Digest>>,
}

fn is_ordered(sql: &str) -> bool {
    !parse_select(sql)
        .expect("generated SQL parses")
        .order_by
        .is_empty()
}

/// Run every distinct statement once through the mediator (remote sessions
/// log in, lazy state fills) and keep a digest of each answer.
pub fn warm_up(grid: &Grid, ops: &OpList) -> WarmUp {
    let mut w = WarmUp {
        expected: Vec::with_capacity(ops.distinct.len()),
        failed: 0,
        digests: Vec::with_capacity(ops.distinct.len()),
    };
    for s in &ops.distinct {
        let out = grid.query(&s.sql).ok();
        let e = Expected {
            shape: s.shape,
            // An error leaves a count no answer has, so every later
            // operation of the statement fails too.
            rows: out.as_ref().map_or(usize::MAX, |o| o.result.len()),
        };
        let digest = out
            .filter(|o| e.accepts(o))
            .map(|o| digest(&o.result, is_ordered(&s.sql)));
        if digest.is_none() {
            eprintln!("perf: no acceptable answer for: {}", s.sql);
            w.failed += 1;
        }
        w.expected.push(e);
        w.digests.push(digest);
    }
    w
}

impl WarmUp {
    /// Compare every warm-up answer — columns and rows, in order when the
    /// statement has an ORDER BY — with `execute_select` over a single
    /// database holding a copy of every mart table of `fresh`, a grid
    /// built like the measured one and not yet written to (builds are
    /// deterministic). Returns the number of statements that differ.
    /// Called after `peak_rss_mb` is read, so the copy is not in it.
    pub fn mismatches_against_oracle(&self, fresh: &Grid, ops: &OpList) -> usize {
        let oracle_db = merged_database(fresh);
        let mut wrong = 0;
        for (s, got) in ops.distinct.iter().zip(&self.digests) {
            let Some(got) = got else {
                continue; // already counted by `warm_up`
            };
            let stmt = parse_select(&s.sql).expect("generated SQL parses");
            let oracle = execute_select(&stmt, &DatabaseProvider(&oracle_db))
                .expect("generated SQL runs on the oracle");
            if *got != digest(&oracle, !stmt.order_by.is_empty()) {
                eprintln!("perf: wrong answer for: {}", s.sql);
                wrong += 1;
            }
        }
        wrong
    }
}

/// An empty scoped spawn + join, microseconds (median of five): what the
/// default scatter path pays per branch per wave before any work happens.
pub fn thread_wake_us() -> f64 {
    let mut us = [0.0; 5];
    for slot in &mut us {
        let t = Instant::now();
        std::thread::scope(|s| {
            s.spawn(|| ()).join().expect("an empty thread cannot panic");
        });
        *slot = t.elapsed().as_secs_f64() * 1e6;
    }
    median(&mut us)
}

/// Wall-clock and virtual cost of one `live_grid` ingest cycle, step by
/// step. Timing the steps costs four clock reads, so the untraced pass
/// uses the same code and only reads `total_ns`.
#[derive(Debug, Clone, Default)]
pub struct IngestCycle {
    /// `extend_sources`: rows into the source database.
    pub extend_ns: u64,
    /// Source rows inserted (events + measurements).
    pub source_rows: usize,
    /// `run_incremental_etl`.
    pub etl_ns: u64,
    /// All `pump_replication` calls of the cycle.
    pub pump_ns: u64,
    /// extend + ETL + pump-to-caught-up.
    pub total_ns: u64,
    /// Polls until every stream had caught up.
    pub polls: usize,
    /// Rows the marts applied from the WAL.
    pub rows_applied: usize,
    /// WAL records the warehouse logged.
    pub wal_records: u64,
    /// Virtual ms of the ETL sweep (sum over sources).
    pub virt_etl_ms: f64,
    /// Virtual ms of replication: polls x interval + slowest apply.
    pub virt_repl_ms: f64,
    /// The polls' reports that carried WAL records.
    pub reports: Vec<ReplBatchReport>,
    /// Whether the marts caught up within `MAX_POLLS` and the mediator
    /// then counted exactly the expected events.
    pub ok: bool,
}

fn wal_head(grid: &Grid) -> u64 {
    grid.warehouse.with_db(|db| db.wal_head_lsn())
}

/// Newest replication-apply cost (virtual us) recorded by any mediator
/// since trace id `after`: the mediators keep it only in their
/// `REPLICATE` traces.
fn slowest_apply_us(grid: &Grid, after: &mut [u64]) -> u64 {
    let mut slowest = 0;
    for (das, seen) in grid.services.iter().zip(after.iter_mut()) {
        for t in das.observability().traces.snapshot() {
            if t.trace_id > *seen {
                *seen = t.trace_id;
                if t.sql.starts_with("REPLICATE") {
                    slowest = slowest.max(t.duration_us);
                }
            }
        }
    }
    slowest
}

/// One ingest cycle: append 20 events upstream, sweep them into the
/// warehouse, pump the WAL streams until every mart has them, then ask
/// the mediator how many events it sees.
pub fn ingest_cycle(grid: &Grid, expected_events: usize, seen_traces: &mut [u64]) -> IngestCycle {
    let mut c = IngestCycle::default();
    let head_before = wal_head(grid);
    let source_rows_before = grid.sources[0].with_db(|db| db.total_rows());
    let t0 = Instant::now();
    let extended = grid.extend_sources(LIVE_EVENTS_PER_CYCLE).is_ok();
    let t1 = Instant::now();
    let etl = grid.run_incremental_etl();
    let t2 = Instant::now();
    let mut caught_up = false;
    while c.polls < MAX_POLLS && !caught_up {
        let reports = grid.pump_replication();
        c.rows_applied += reports.iter().map(|r| r.rows).sum::<usize>();
        c.reports
            .extend(reports.into_iter().filter(|r| r.records > 0));
        c.polls += 1;
        caught_up = grid.replication_caught_up();
    }
    let t3 = Instant::now();
    c.extend_ns = (t1 - t0).as_nanos() as u64;
    c.etl_ns = (t2 - t1).as_nanos() as u64;
    c.pump_ns = (t3 - t2).as_nanos() as u64;
    c.total_ns = (t3 - t0).as_nanos() as u64;
    c.source_rows = grid.sources[0].with_db(|db| db.total_rows()) - source_rows_before;
    c.wal_records = wal_head(grid) - head_before;
    c.virt_etl_ms = etl
        .as_ref()
        .map(|reports| reports.iter().map(|r| r.total().as_millis_f64()).sum())
        .unwrap_or(0.0);
    let interval_ms = ReplicationConfig::default().poll_interval.as_millis_f64();
    c.virt_repl_ms =
        c.polls as f64 * interval_ms + slowest_apply_us(grid, seen_traces) as f64 / 1e3;
    let counted = grid
        .query("SELECT COUNT(*) FROM ntuple_events")
        .ok()
        .and_then(|out| out.result.rows.first()?.get(0).cloned());
    c.ok =
        extended && etl.is_ok() && caught_up && counted == Some(Value::Int(expected_events as i64));
    c
}

/// One round of operations through `Grid::query`: per-op latencies (ns),
/// the answers' virtual ms and fetched bytes, and how many failed.
#[derive(Debug, Default)]
pub struct RoundOps {
    /// Per-operation wall time, nanoseconds, in issue order.
    pub latencies_ns: Vec<u64>,
    /// Sum of `GridQuery::response_time`, ms.
    pub virtual_ms: f64,
    /// Sum of `QueryStats::bytes_fetched`.
    pub bytes_fetched: usize,
    /// Errors plus wrong answers.
    pub failed: usize,
    /// The answers, kept only when the caller asks (the traced pass
    /// compares its replay against them).
    pub answers: Vec<Option<GridQuery>>,
}

/// Issue one round. Checking happens outside the timed region.
pub fn run_round(grid: &Grid, ops: &OpList, expected: &[Expected], keep: bool) -> RoundOps {
    let mut r = RoundOps {
        latencies_ns: Vec::with_capacity(ops.order.len()),
        ..RoundOps::default()
    };
    for &i in &ops.order {
        let sql = ops.distinct[i].sql.as_str();
        let t = Instant::now();
        let out = grid.query(sql);
        r.latencies_ns.push(t.elapsed().as_nanos() as u64);
        match out {
            Ok(out) if expected[i].accepts(&out) => {
                r.virtual_ms += out.response_time.as_millis_f64();
                r.bytes_fetched += out.stats.bytes_fetched;
                if keep {
                    r.answers.push(Some(out));
                }
            }
            _ => {
                r.failed += 1;
                if keep {
                    r.answers.push(None);
                }
            }
        }
    }
    r
}

/// The end-to-end pass's results.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    /// Reference-speed median over rounds.
    pub norm: RoundSummary,
    /// Median of the reference-speed build times, seconds.
    pub setup_s: f64,
    /// Mean `GridQuery::response_time`, virtual ms.
    pub virtual_ms_per_query: f64,
    /// Mean `QueryStats::bytes_fetched`, KiB.
    pub wire_kb_per_query: f64,
    /// `VmHWM` of the serving phase (`mem.rs`), MiB.
    pub peak_rss_mb: f64,
    /// Operations attempted (warm-up, rounds, ingest cycles).
    pub attempted: usize,
    /// Errors + wrong answers + failed cycles.
    pub failed: usize,
    /// Rounds measured.
    pub rounds: usize,
    /// Median kernel time, ms: how fast the box was.
    pub calib_ms: f64,
    /// Median empty spawn + join, raw us: which wake-up regime the run saw.
    pub thread_wake_us: f64,
    /// Raw wall time of the rounds, kernel runs included, seconds.
    pub measured_s: f64,
}

/// The untraced pass: build, warm up, `rounds` fixed-work rounds each
/// bracketed by the kernel, then — once `peak_rss_mb` is read — the
/// remaining set-up builds and the oracle comparison.
pub fn run_untraced(workload: Workload, seed: u64, rounds: usize) -> EndToEnd {
    let mut kernel = calib::kernel_ms();
    let mut kernels = vec![kernel];
    let mut setups = Vec::with_capacity(setup_builds(workload));
    let (grid, _, first) = timed_build(workload, &mut kernel);
    setups.push(first);

    let ops = op_list(workload, seed);
    let warm = warm_up(&grid, &ops);
    let mut failed = warm.failed;
    let mut attempted = ops.distinct.len();

    let base_events = 2 * workload.events_per_source();
    let mut seen_traces = vec![0u64; grid.services.len()];
    let mut summaries = Vec::with_capacity(rounds);
    let mut scales = Vec::with_capacity(rounds);
    let mut wakes = Vec::with_capacity(rounds);
    let (mut virtual_ms, mut bytes, mut answered) = (0.0, 0usize, 0usize);
    mem::start_serving_phase();
    kernel = calib::kernel_ms();
    let started = Instant::now();
    for round in 0..rounds {
        let mut busy_ns = 0;
        if workload == Workload::LiveGrid {
            let events = base_events + LIVE_EVENTS_PER_CYCLE * (round + 1);
            let cycle = ingest_cycle(&grid, events, &mut seen_traces);
            busy_ns += cycle.total_ns;
            attempted += 1;
            failed += usize::from(!cycle.ok);
        }
        let mut r = run_round(&grid, &ops, &warm.expected, false);
        wakes.push(thread_wake_us());
        let after = calib::kernel_ms();
        busy_ns += r.latencies_ns.iter().sum::<u64>();
        summaries.push(summarise_round(&mut r.latencies_ns, busy_ns));
        scales.push(calib::scale(kernel, after));
        kernels.push(after);
        kernel = after;
        virtual_ms += r.virtual_ms;
        bytes += r.bytes_fetched;
        attempted += ops.order.len();
        answered += ops.order.len() - r.failed;
        failed += r.failed;
    }
    let measured_s = started.elapsed().as_secs_f64();
    let peak_rss_mb = mem::peak_rss_mb();
    drop(grid);

    let mut fresh = None;
    while setups.len() < setup_builds(workload) {
        let (grid, _, norm) = timed_build(workload, &mut kernel);
        setups.push(norm);
        kernels.push(kernel);
        fresh = Some(grid);
    }
    let fresh = fresh.expect("more than one set-up build per run");
    failed += warm.mismatches_against_oracle(&fresh, &ops);

    let answered = answered.max(1) as f64;
    EndToEnd {
        norm: median_of_rounds(&summaries, &scales),
        setup_s: median(&mut setups),
        virtual_ms_per_query: virtual_ms / answered,
        wire_kb_per_query: bytes as f64 / 1024.0 / answered,
        peak_rss_mb,
        attempted,
        failed,
        rounds,
        calib_ms: median(&mut kernels),
        thread_wake_us: median(&mut wakes),
        measured_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridfed_storage::Row;

    fn result(rows: &[(i64, &str)]) -> ResultSet {
        ResultSet {
            columns: vec!["id".into(), "tag".into()],
            rows: rows
                .iter()
                .map(|(id, tag)| Row::new(vec![Value::Int(*id), Value::Text((*tag).into())]))
                .collect(),
        }
    }

    #[test]
    fn digest_ignores_row_order_only_when_the_statement_fixes_none() {
        let a = result(&[(1, "x"), (2, "y")]);
        let swapped = result(&[(2, "y"), (1, "x")]);
        assert_eq!(digest(&a, false), digest(&swapped, false));
        assert_ne!(digest(&a, true), digest(&swapped, true));
    }

    #[test]
    fn digest_sees_a_changed_cell_a_missing_row_and_a_moved_cell_boundary() {
        let a = digest(&result(&[(1, "ab"), (2, "c")]), false);
        assert_ne!(a, digest(&result(&[(1, "ab"), (2, "d")]), false));
        assert_ne!(a, digest(&result(&[(1, "ab")]), false));
        assert_ne!(
            digest(&result(&[(1, "1")]), false).hash,
            digest(&result(&[(11, "")]), false).hash
        );
        let mut renamed = result(&[(1, "ab"), (2, "c")]);
        renamed.columns[1] = "label".into();
        assert_ne!(a, digest(&renamed, false));
    }
}

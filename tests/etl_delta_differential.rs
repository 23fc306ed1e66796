//! Keyed extraction ≡ whole-table extraction, sweep by sweep.
//!
//! The ETL reads a source through four `Connection::extract` calls: `runs`
//! and `variables` whole, `measurements` whole (`run_batch`) or above the
//! warehouse's high-water mark (`run_incremental`), and last the `events`
//! the kept measurements reference. This suite drives two identically built
//! worlds — one or two sources and a WAL-logged warehouse each, under the
//! same fault plan — through seeded schedules of source mutations:
//!
//! - whole-event appends, and events whose measurements arrive in two
//!   sweeps;
//! - appends with an `m_id` at or below the high-water mark (skipped for
//!   ever), and one measurement keyed `i64::MAX`;
//! - dangling `e_id` / `var_id` / `run_id` references inside the delta and
//!   below the high-water mark, and later repairs of them;
//! - `delete_where` on measurements and on events;
//! - empty deltas, and a second full `run_batch` over a loaded warehouse;
//! - transient and crash windows on the sources.
//!
//! After every sweep the keyed world must equal a reference world whose
//! sweep reads every source table whole — one fault-checked read per
//! table, four per source — and keeps what the rule keeps (an `m_id` above
//! the high-water mark found by scanning the fact table, or an `e_id` in the
//! batch's range). The two must give the same report or the same typed
//! error, and leave the same fact table (values, float bits, physical
//! order), the same WAL records and the same fault counters.

mod common;

use common::{bits, Rng};
use gridfed::ntuple::schema as nschema;
use gridfed::prelude::*;
use gridfed::simnet::disk::DiskProfile;
use gridfed::simnet::params::CostParams;
use gridfed::simnet::topology::Topology;
use gridfed::vendors::{Connection, SimServer, VendorError};
use gridfed::warehouse::{EtlPipeline, EtlReport, TransportMode, WarehouseError};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Seeded schedules run.
const SEEDS: u64 = 160;

fn int(v: &Value) -> i64 {
    match v {
        Value::Int(i) => *i,
        other => panic!("non-INT key {other:?}"),
    }
}

#[derive(Debug, Clone, Copy)]
enum Sweep {
    Batch(Option<(i64, i64)>),
    Incremental,
}

/// One source mutation, applied alike to both worlds.
#[derive(Debug, Clone)]
enum Op {
    Insert(&'static str, Vec<Vec<Value>>),
    /// Delete the rows of a table whose key is `rem` modulo `modulus`.
    Delete(&'static str, i64, i64),
}

struct World {
    sources: Vec<Arc<SimServer>>,
    sconns: Vec<Connection>,
    wh: Arc<SimServer>,
    wconn: Connection,
}

impl World {
    fn new(n_sources: usize) -> World {
        let sources: Vec<_> = (0..n_sources)
            .map(|i| {
                let s = SimServer::new(VendorKind::MySql, format!("t{}", i + 1), format!("src{i}"));
                s.with_db_mut(|db| {
                    for (table, schema) in [
                        ("runs", nschema::runs_schema()),
                        ("variables", nschema::variables_schema()),
                        ("events", nschema::events_schema()),
                        ("measurements", nschema::measurements_schema()),
                    ] {
                        db.create_table(table, schema).expect("create");
                    }
                });
                s
            })
            .collect();
        let sconns = sources
            .iter()
            .map(|s| s.connect("grid", "grid").expect("login").value)
            .collect();
        let wh = SimServer::new(VendorKind::Oracle, "t0", "warehouse");
        wh.with_db_mut(|db| db.enable_wal());
        let wconn = wh.connect("grid", "grid").expect("login").value;
        World {
            sources,
            sconns,
            wh,
            wconn,
        }
    }

    fn apply(&self, source: usize, op: &Op) -> String {
        self.sources[source].with_db_mut(|db| match op {
            Op::Insert(table, rows) => {
                format!(
                    "{:?}",
                    db.table_mut(table).unwrap().insert_many(rows.clone())
                )
            }
            Op::Delete(table, modulus, rem) => {
                let n = db
                    .table_mut(table)
                    .unwrap()
                    .delete_where(|r| int(&r.values()[0]).rem_euclid(*modulus) == *rem);
                n.to_string()
            }
        })
    }

    fn fact(&self) -> (usize, Vec<Row>) {
        self.wh.with_db(|db| {
            db.table(nschema::FACT_TABLE)
                .map_or((0, Vec::new()), |t| (t.physical_len(), t.rows()))
        })
    }
}

/// The keyed sweep under test.
fn keyed(
    mode: TransportMode,
    w: &World,
    i: usize,
    sweep: Sweep,
) -> Result<EtlReport, WarehouseError> {
    let pipeline = EtlPipeline::paper().with_mode(mode);
    match sweep {
        Sweep::Batch(range) => pipeline.run_batch(&w.sconns[i], &w.wconn, range),
        Sweep::Incremental => pipeline.run_incremental(&w.sconns[i], &w.wconn),
    }
}

/// The largest `m_id` of the fact table, by a scan of its rows.
fn scanned_hwm(wh: &SimServer) -> Option<i64> {
    wh.with_db(|db| {
        let fact = db.table(nschema::FACT_TABLE).ok()?;
        fact.rows().iter().map(|r| int(&r.values()[0])).max()
    })
}

/// The whole-table sweep: every source table read whole through its own
/// fault-checked call, then filtered by the rule.
fn reference(
    mode: TransportMode,
    w: &World,
    i: usize,
    sweep: Sweep,
) -> Result<EtlReport, WarehouseError> {
    EtlPipeline::paper().prepare_warehouse(&w.wconn)?;
    let keep: Box<dyn Fn(i64, i64) -> bool> = match sweep {
        Sweep::Batch(range) => Box::new(move |_, e| match range {
            Some((lo, hi)) => e >= lo && e < hi,
            None => true,
        }),
        Sweep::Incremental => {
            let hwm = scanned_hwm(&w.wh).unwrap_or(-1);
            Box::new(move |m, _| m > hwm)
        }
    };
    let src = &w.sources[i];
    let read = |table: &str| -> Result<Vec<Row>, WarehouseError> {
        src.fault_probe()?;
        Ok(src
            .with_db(|db| db.table(table).map(Table::rows))
            .map_err(VendorError::from)?)
    };
    let runs = read("runs")?;
    let variables = read("variables")?;
    let events = read("events")?;
    let measurements = read("measurements")?;

    let detector: HashMap<i64, Value> = runs
        .iter()
        .map(|r| (int(&r.values()[0]), r.values()[1].clone()))
        .collect();
    let variable: HashMap<i64, (Value, Value)> = variables
        .iter()
        .map(|v| {
            let v = v.values();
            (int(&v[0]), (v[1].clone(), v[2].clone()))
        })
        .collect();
    let event: HashMap<i64, (i64, Value)> = events
        .iter()
        .map(|e| {
            let e = e.values();
            (int(&e[0]), (int(&e[1]), e[2].clone()))
        })
        .collect();
    let dangling = |what: &str, id: i64| WarehouseError::Pipeline(format!("dangling {what} {id}"));
    let mut fact = Vec::new();
    for m in &measurements {
        let m = m.values();
        let (m_id, e_id, var_id) = (int(&m[0]), int(&m[1]), int(&m[2]));
        if !keep(m_id, e_id) {
            continue;
        }
        let (run_id, weight) = event
            .get(&e_id)
            .cloned()
            .ok_or_else(|| dangling("e_id", e_id))?;
        let det = detector
            .get(&run_id)
            .cloned()
            .ok_or_else(|| dangling("run_id", run_id))?;
        let (name, unit) = variable
            .get(&var_id)
            .cloned()
            .ok_or_else(|| dangling("var_id", var_id))?;
        fact.push(vec![
            Value::Int(m_id),
            Value::Int(e_id),
            Value::Int(run_id),
            det,
            name,
            unit,
            m[3].clone(),
            weight,
        ]);
    }

    let rows = fact.len();
    let bytes: usize = fact.iter().map(|r| Row::new(r.clone()).wire_size()).sum();
    let p = CostParams::paper_2005();
    let disk = DiskProfile::ide_2005();
    let mut extract_cost = p.etl_stream_setup + p.etl_extract_per_row.scale(rows as f64);
    let link = Topology::lan().transfer(src.host(), w.wh.host(), bytes);
    let mut load_cost = p.etl_stream_setup + link + p.etl_load_per_row.scale(rows as f64);
    if mode == TransportMode::Staged {
        extract_cost += disk.write_file(bytes);
        load_cost += disk.read_file(bytes);
    }
    w.wconn.insert_rows(nschema::FACT_TABLE, fact)?;
    Ok(EtlReport {
        rows,
        bytes,
        extract_cost,
        load_cost,
        overlapped: mode == TransportMode::Direct,
    })
}

/// What the schedules reached, summed over every seed.
#[derive(Debug, Default)]
struct Reached {
    moved: usize,
    empty: usize,
    dangling: HashSet<&'static str>,
    transient: usize,
    unavailable: usize,
    duplicate: usize,
    skipped_low: usize,
    max_key: usize,
}

impl Reached {
    fn note(&mut self, outcome: &Result<EtlReport, WarehouseError>) {
        match outcome {
            Ok(r) if r.rows > 0 => self.moved += 1,
            Ok(_) => self.empty += 1,
            Err(WarehouseError::Pipeline(m)) => {
                for what in ["e_id", "var_id", "run_id"] {
                    if m.starts_with(&format!("dangling {what} ")) {
                        self.dangling.insert(what);
                    }
                }
            }
            Err(WarehouseError::Vendor(VendorError::Transient { .. })) => self.transient += 1,
            Err(WarehouseError::Vendor(VendorError::Unavailable { .. })) => self.unavailable += 1,
            Err(WarehouseError::Vendor(VendorError::Storage(
                gridfed::storage::StorageError::UniqueViolation { .. },
            ))) => self.duplicate += 1,
            Err(e) => panic!("unexpected error {e}"),
        }
    }
}

/// The schedule's generator: ids handed out so far, the measurements held
/// back for a later step, and the `m_id`s skipped on the way (appended
/// later, below the high-water mark).
struct Gen {
    s: Rng,
    nvar: i64,
    runs: i64,
    next_e: i64,
    next_m: i64,
    gaps: Vec<i64>,
    pending: Vec<(usize, Vec<Value>)>,
}

impl Gen {
    fn value(&mut self) -> Value {
        match self.s.below(40) {
            0 => Value::Float(-0.0),
            _ => Value::Float((self.s.below(20_000) as f64 - 10_000.0) / 7.0),
        }
    }

    fn m_id(&mut self) -> i64 {
        if self.s.below(6) == 0 {
            for _ in 0..1 + self.s.below(3) {
                self.gaps.push(self.next_m);
                self.next_m += 1;
            }
        }
        self.next_m += 1;
        self.next_m - 1
    }

    /// `n` new events at `source` with all their measurements; with
    /// `split`, half of the last event's measurements are held back.
    fn events(&mut self, source: usize, n: usize, split: bool, run: Option<i64>) -> Vec<Op> {
        let (mut events, mut measurements) = (Vec::new(), Vec::new());
        for k in 0..n {
            let e_id = self.next_e;
            self.next_e += 1;
            let run_id = run.unwrap_or_else(|| self.s.below(self.runs as usize) as i64);
            let weight = Value::Float(0.5 + self.s.below(1000) as f64 / 1000.0);
            events.push(vec![Value::Int(e_id), Value::Int(run_id), weight]);
            for var_id in 0..self.nvar {
                let row = vec![
                    Value::Int(self.m_id()),
                    Value::Int(e_id),
                    Value::Int(var_id),
                    self.value(),
                ];
                if split && k + 1 == n && var_id % 2 == 1 {
                    self.pending.push((source, row));
                } else {
                    measurements.push(row);
                }
            }
        }
        vec![
            Op::Insert("events", events),
            Op::Insert("measurements", measurements),
        ]
    }

    fn measurement(&mut self, m_id: i64, e_id: i64, var_id: i64) -> Op {
        let value = self.value();
        Op::Insert(
            "measurements",
            vec![vec![
                Value::Int(m_id),
                Value::Int(e_id),
                Value::Int(var_id),
                value,
            ]],
        )
    }
}

/// Inserts that give every dangling reference at a source its target.
fn repairs(src: &SimServer) -> Vec<Op> {
    src.with_db(|db| {
        let keys = |table: &str, col: usize| -> Vec<i64> {
            db.table(table)
                .unwrap()
                .rows()
                .iter()
                .map(|r| int(&r.values()[col]))
                .collect()
        };
        let missing = |wanted: Vec<i64>, have: Vec<i64>| -> Vec<i64> {
            let have: HashSet<i64> = have.into_iter().collect();
            let mut out: Vec<i64> = wanted.into_iter().filter(|k| !have.contains(k)).collect();
            out.sort_unstable();
            out.dedup();
            out
        };
        let runs = missing(keys("events", 1), keys("runs", 0));
        let vars = missing(keys("measurements", 2), keys("variables", 0));
        let events = missing(keys("measurements", 1), keys("events", 0));
        vec![
            Op::Insert(
                "runs",
                runs.into_iter()
                    .map(|r| vec![Value::Int(r), "late".into(), Value::Int(r * 60)])
                    .collect(),
            ),
            Op::Insert(
                "variables",
                vars.into_iter()
                    .map(|v| vec![Value::Int(v), format!("var_{v}").into(), "GeV".into()])
                    .collect(),
            ),
            Op::Insert(
                "events",
                events
                    .into_iter()
                    .map(|e| vec![Value::Int(e), Value::Int(0), Value::Float(1.0)])
                    .collect(),
            ),
        ]
    })
}

fn plan_for(seed: u64, n_sources: usize, steps: u64) -> FaultPlan {
    let mut s = Rng(seed ^ 0xFA17);
    let mut plan = FaultPlan::new(seed);
    if s.below(2) == 0 {
        let rate = [0.05, 0.2, 0.5][s.below(3)];
        plan = plan.transient("src0", rate);
    }
    if s.below(2) == 0 {
        let target = format!("src{}", s.below(n_sources));
        let from = s.next() % (steps * 10);
        let until = from + 1 + s.next() % 40;
        plan = plan.crash(
            target,
            Cost::from_millis(from),
            Some(Cost::from_millis(until)),
        );
    }
    if n_sources > 1 && s.below(3) == 0 {
        let from = s.next() % (steps * 10);
        plan = plan.transient_during(
            "t2",
            0.3,
            Cost::from_millis(from),
            Some(Cost::from_millis(from + 30)),
        );
    }
    plan
}

fn run_seed(seed: u64, reached: &mut Reached) {
    let mut s = Rng(seed);
    let n_sources = 1 + s.below(2);
    let mode = if s.below(2) == 0 {
        TransportMode::Staged
    } else {
        TransportMode::Direct
    };
    let steps = 8 + s.next() % 12;
    let allow_max = s.below(4) == 0;
    let mut gen = Gen {
        s: Rng(s.next()),
        nvar: 2 + s.below(4) as i64,
        runs: 1 + s.below(4) as i64,
        next_e: 0,
        next_m: 0,
        gaps: Vec::new(),
        pending: Vec::new(),
    };
    let (a, b) = (World::new(n_sources), World::new(n_sources));
    let (plan_a, plan_b) = (
        Arc::new(plan_for(seed, n_sources, steps)),
        Arc::new(plan_for(seed, n_sources, steps)),
    );

    // Dimensions and a first slice of events at every source.
    for source in 0..n_sources {
        let mut ops = vec![
            Op::Insert(
                "runs",
                (0..gen.runs)
                    .map(|r| vec![Value::Int(r), format!("det{r}").into(), Value::Int(r)])
                    .collect(),
            ),
            Op::Insert(
                "variables",
                (0..gen.nvar)
                    .map(|v| vec![Value::Int(v), format!("var_{v}").into(), "GeV".into()])
                    .collect(),
            ),
        ];
        let n = 2 + gen.s.below(10);
        ops.extend(gen.events(source, n, false, None));
        for op in &ops {
            assert_eq!(a.apply(source, op), b.apply(source, op), "seed {seed}");
        }
    }
    for (w, plan) in [(&a, &plan_a), (&b, &plan_b)] {
        for src in &w.sources {
            src.set_fault_plan(Arc::clone(plan));
        }
    }

    for step in 0..steps {
        for plan in [&plan_a, &plan_b] {
            plan.set_now(Cost::from_millis(step * 10));
        }
        // ---- Mutate the sources, alike in both worlds. ----
        let mut ops: Vec<(usize, Op)> = Vec::new();
        for _ in 0..gen.s.below(3) {
            let source = gen.s.below(n_sources);
            let hwm = scanned_hwm(&a.wh).unwrap_or(-1);
            match gen.s.below(100) {
                0..=34 => {
                    let n = 1 + gen.s.below(3);
                    let split = gen.s.below(3) == 0;
                    let dangling_run = (gen.s.below(12) == 0).then_some(1_000);
                    let ops_now = gen.events(source, n, split, dangling_run);
                    ops.extend(ops_now.into_iter().map(|op| (source, op)));
                }
                35..=44 => {
                    for (source, row) in std::mem::take(&mut gen.pending) {
                        ops.push((source, Op::Insert("measurements", vec![row])));
                    }
                }
                45..=54 => {
                    // A skipped m_id, preferably at or below the hwm; its
                    // event is known, or not.
                    let at = gen
                        .gaps
                        .iter()
                        .position(|&m| m <= hwm)
                        .or((!gen.gaps.is_empty()).then_some(0));
                    if let Some(at) = at {
                        let m_id = gen.gaps.remove(at);
                        let e_id = if gen.s.below(3) == 0 {
                            50_000 + m_id
                        } else {
                            gen.s.below(gen.next_e.max(1) as usize) as i64
                        };
                        let var_id = gen.s.below(gen.nvar as usize) as i64;
                        ops.push((source, gen.measurement(m_id, e_id, var_id)));
                        if m_id <= hwm {
                            reached.skipped_low += 1;
                        }
                    }
                }
                55..=62 => {
                    // A fresh measurement referencing an absent event or
                    // variable.
                    let m_id = gen.m_id();
                    let op = if gen.s.below(2) == 0 {
                        gen.measurement(m_id, 90_000 + m_id, 0)
                    } else {
                        let e_id = gen.next_e.max(1) - 1;
                        gen.measurement(m_id, e_id, gen.nvar + 3)
                    };
                    ops.push((source, op));
                }
                63..=74 => {
                    ops.extend(
                        repairs(&a.sources[source])
                            .into_iter()
                            .map(|op| (source, op)),
                    );
                }
                75..=82 => {
                    let modulus = 3 + gen.s.below(5) as i64;
                    let rem = gen.s.below(modulus as usize) as i64;
                    ops.push((source, Op::Delete("measurements", modulus, rem)));
                }
                83..=87 => {
                    let modulus = 4 + gen.s.below(5) as i64;
                    let rem = gen.s.below(modulus as usize) as i64;
                    ops.push((source, Op::Delete("events", modulus, rem)));
                }
                88..=91 if allow_max => {
                    let e_id = gen.next_e.max(1) - 1;
                    ops.push((source, gen.measurement(i64::MAX, e_id, 0)));
                    reached.max_key += 1;
                }
                _ => {} // nothing new: an empty delta
            }
        }
        for (source, op) in &ops {
            assert_eq!(
                a.apply(*source, op),
                b.apply(*source, op),
                "seed {seed} step {step}: {op:?}"
            );
        }

        // ---- Sweep every source, the keyed way and the reference way. ----
        let sweep = if step == 0 {
            Sweep::Batch(match gen.s.below(3) {
                0 => None,
                _ => {
                    let lo = gen.s.below(4) as i64;
                    Some((lo, lo + 1 + gen.s.below(8) as i64))
                }
            })
        } else if gen.s.below(12) == 0 {
            Sweep::Batch(None)
        } else {
            Sweep::Incremental
        };
        for source in 0..n_sources {
            let got = keyed(mode, &a, source, sweep);
            let want = reference(mode, &b, source, sweep);
            let at = format!("seed {seed} step {step} source {source} {sweep:?}");
            assert_eq!(got, want, "{at}: outcome");
            reached.note(&got);
            let (fact_a, fact_b) = (a.fact(), b.fact());
            assert_eq!(fact_a.0, fact_b.0, "{at}: physical fact rows");
            assert!(bits(&fact_a.1) == bits(&fact_b.1), "{at}: fact table");
            let wal = |w: &World| w.wh.with_db(|db| db.wal_records_since(0, usize::MAX));
            assert_eq!(wal(&a), wal(&b), "{at}: WAL");
            assert_eq!(plan_a.stats(), plan_b.stats(), "{at}: fault draws");
            assert_eq!(
                gridfed::warehouse::fact_high_water_mark(&a.wconn),
                scanned_hwm(&a.wh),
                "{at}: high-water mark"
            );
        }
    }
}

#[test]
fn keyed_sweeps_equal_whole_table_sweeps() {
    let mut reached = Reached::default();
    for seed in 0..SEEDS {
        run_seed(seed, &mut reached);
    }
    // The schedules reach every outcome they are meant to.
    assert!(reached.moved > 0 && reached.empty > 0, "{reached:?}");
    assert_eq!(reached.dangling.len(), 3, "{reached:?}");
    assert!(
        reached.transient > 0 && reached.unavailable > 0,
        "{reached:?}"
    );
    assert!(reached.duplicate > 0, "{reached:?}");
    assert!(
        reached.skipped_low > 0 && reached.max_key > 0,
        "{reached:?}"
    );
}

/// The delta is read through the index: a sweep that moves nothing reads no
/// measurement, yet still makes its four fault-checked calls.
#[test]
fn an_empty_delta_still_makes_four_checked_calls() {
    let w = World::new(1);
    let mut gen = Gen {
        s: Rng(1),
        nvar: 2,
        runs: 1,
        next_e: 0,
        next_m: 0,
        gaps: Vec::new(),
        pending: Vec::new(),
    };
    w.apply(
        0,
        &Op::Insert("runs", vec![vec![Value::Int(0), "d".into(), Value::Int(0)]]),
    );
    w.apply(
        0,
        &Op::Insert(
            "variables",
            (0..2)
                .map(|v| vec![Value::Int(v), "v".into(), "u".into()])
                .collect(),
        ),
    );
    for op in gen.events(0, 3, false, None) {
        w.apply(0, &op);
    }
    let pipeline = EtlPipeline::paper();
    assert_eq!(
        pipeline
            .run_incremental(&w.sconns[0], &w.wconn)
            .unwrap()
            .rows,
        6
    );
    // Every check fails: the four calls of one sweep are four draws.
    let plan = Arc::new(FaultPlan::new(3).transient("src0", 1.0));
    w.sources[0].set_fault_plan(Arc::clone(&plan));
    for sweeps in 1..=3 {
        assert!(matches!(
            pipeline.run_incremental(&w.sconns[0], &w.wconn),
            Err(WarehouseError::Vendor(VendorError::Transient { .. }))
        ));
        assert_eq!(
            plan.stats().transients,
            sweeps,
            "a failed call ends the sweep"
        );
    }
    // A slow rule counts every checked call it matches.
    let counting = Arc::new(FaultPlan::new(3).slow("src0", 2.0, Cost::ZERO, None));
    w.sources[0].set_fault_plan(Arc::clone(&counting));
    let idle = pipeline.run_incremental(&w.sconns[0], &w.wconn).unwrap();
    assert_eq!(idle.rows, 0);
    assert_eq!(counting.stats().slow_ops, 4);
}

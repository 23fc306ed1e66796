//! Fold ≡ recompute, as of the acknowledged LSN.
//!
//! A replication stream maintains its mart's views by folding each WAL
//! batch into them. This suite drives one stream through seeded schedules
//! — random ingest sizes (whole events, and events whose measurements
//! arrive in two sweeps), `batch_limit` anywhere in 1..=256, partition and
//! crash windows, and a mid-stream `UPDATE` (sometimes a `DELETE` too),
//! which the log carries as a table snapshot — and after **every**
//! successful poll rebuilds the warehouse *as of the LSN the stream just
//! acknowledged* by replaying the log prefix into a second database. Each
//! mart table must equal its view evaluated there, bit for bit: values,
//! row order, column types. The meta version and high-water mark of every
//! table must only move forward, and failed polls must fail typed and
//! consume nothing.
//!
//! The one view that does not fold (it has a WHERE) is recomputed from the
//! live warehouse and may run ahead of the acknowledged LSN, so it is
//! compared only when the stream has caught up.
//!
//! The seeded schedules poll at every step, so they rarely leave a mutation
//! beyond a capped batch; two directed cases pin that down at
//! `batch_limit` 1 — before the stream's first poll, and once its
//! accumulators are filled.

mod common;

use common::{bits, Rng};
use gridfed::core::grid::standard_views;
use gridfed::ntuple::{NtupleGenerator, NtupleSpec};
use gridfed::prelude::*;
use gridfed::simnet::topology::Topology;
use gridfed::sqlkit::parser::parse_select;
use gridfed::storage::apply_wal_record;
use gridfed::vendors::{Connection, SimServer};
use gridfed::warehouse::{
    evaluate_view, materialize_into_mart, read_mart_meta, wal_head, EtlPipeline, ReplBatchReport,
    ReplicationStream, TransportMode, ViewDef, WarehouseError,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::HashMap;
use std::sync::Arc;

/// The views one mart holds: the four standard ones, two more foldable
/// shapes (no ORDER BY with ever more groups; a descending order, where new
/// groups land in front of every existing row), and one that does not fold.
fn views(spec: &NtupleSpec) -> (Vec<ViewDef>, usize) {
    let sql = |name: &str, text: &str| ViewDef::Sql {
        name: name.into(),
        query: parse_select(text).expect("view SQL parses"),
    };
    let mut views = standard_views(spec);
    views.push(sql(
        "event_counts",
        "SELECT e_id, COUNT(*) AS n, SUM(value) AS total FROM fact_measurements GROUP BY e_id",
    ));
    views.push(sql(
        "newest_first",
        "SELECT e_id, run_id, MIN(value) AS lo, MAX(m_id) AS last FROM fact_measurements \
         GROUP BY e_id, run_id ORDER BY e_id DESC",
    ));
    views.push(sql(
        "positive_by_detector",
        "SELECT detector, COUNT(*) AS n FROM fact_measurements WHERE value > 0 \
         GROUP BY detector ORDER BY detector",
    ));
    let unfolded = views.len() - 1;
    (views, unfolded)
}

/// One warehouse with its source, one mart, and the stream between them.
struct Rig {
    spec: NtupleSpec,
    src: Arc<SimServer>,
    sconn: Connection,
    wh: Arc<SimServer>,
    wconn: Connection,
    mart: Arc<SimServer>,
    /// The warehouse replayed from its own log, up to `oracle_lsn`.
    oracle: Arc<SimServer>,
    oracle_lsn: u64,
    next_event: usize,
}

impl Rig {
    fn new(nvar: usize, base_events: usize) -> Rig {
        let spec = NtupleSpec::with_nvar("nt", base_events, nvar);
        let src = SimServer::new(VendorKind::MySql, "t2", "src");
        src.with_db_mut(|db| {
            NtupleGenerator::new(spec.clone(), 1)
                .populate_source_range(db, 0, base_events)
                .expect("source populates");
        });
        let wh = SimServer::new(VendorKind::Oracle, "t0", "warehouse");
        wh.with_db_mut(|db| db.enable_wal());
        let sconn = src.connect("grid", "grid").expect("login").value;
        let wconn = wh.connect("grid", "grid").expect("login").value;
        let rig = Rig {
            spec,
            src,
            sconn,
            wh,
            wconn,
            mart: SimServer::new(VendorKind::MySql, "mart", "m"),
            oracle: SimServer::new(VendorKind::Oracle, "oracle", "o"),
            oracle_lsn: 0,
            next_event: base_events,
        };
        rig.etl();
        rig
    }

    fn etl(&self) {
        EtlPipeline::paper()
            .run_incremental(&self.sconn, &self.wconn)
            .expect("incremental ETL");
    }

    /// Append `events` new events; with `split`, the last one's measurements
    /// reach the warehouse in two sweeps.
    fn ingest(&mut self, events: usize, split: bool) {
        let first = self.next_event;
        self.next_event += events;
        let mut rows =
            NtupleGenerator::new(self.spec.clone(), first as u64).measurement_batch(first, events);
        let late = if split {
            rows.split_off(rows.len() - self.spec.nvar() / 2)
        } else {
            Vec::new()
        };
        self.src.with_db_mut(|db| {
            let t = db.table_mut("events").expect("events table");
            for e in first..first + events {
                t.insert(vec![Value::Int(e as i64), Value::Int(0), Value::Float(1.0)])
                    .expect("new event");
            }
            let m = db.table_mut("measurements").expect("measurements table");
            m.insert_many(rows).expect("new measurements");
        });
        self.etl();
        if !late.is_empty() {
            self.src.with_db_mut(|db| {
                let m = db.table_mut("measurements").expect("measurements table");
                m.insert_many(late).expect("late measurements");
            });
            self.etl();
        }
    }

    /// Bring the oracle to the warehouse's state as of `lsn`.
    fn oracle_at(&mut self, lsn: u64) -> Connection {
        assert!(lsn >= self.oracle_lsn, "acknowledged LSNs never go back");
        let n = (lsn - self.oracle_lsn) as usize;
        let records = self
            .wh
            .with_db(|db| db.wal_records_since(self.oracle_lsn, n))
            .expect("this test never checkpoints");
        self.oracle.with_db_mut(|db| {
            for rec in &records {
                apply_wal_record(db, rec).expect("the log replays");
            }
        });
        self.oracle_lsn = lsn;
        self.oracle.connect("grid", "grid").expect("login").value
    }
}

/// A stream over a freshly materialized mart, plus what the checks carry
/// from poll to poll.
struct Follower {
    stream: ReplicationStream,
    views: Vec<ViewDef>,
    /// Index of the view that does not fold.
    unfolded: usize,
    batch_limit: usize,
    schemas: Vec<Schema>,
    /// Last seen `(version, hwm)` per mart table.
    metas: HashMap<String, (u64, i64)>,
}

impl Follower {
    /// Materialize every view into the rig's mart and subscribe at the head.
    fn subscribe(rig: &Rig, topo: &Topology, batch_limit: usize) -> Follower {
        let (views, unfolded) = views(&rig.spec);
        let mconn = rig.mart.connect("grid", "grid").expect("login").value;
        for v in &views {
            materialize_into_mart(v, &rig.wconn, &mconn, topo, TransportMode::Direct)
                .expect("materializes");
        }
        let table_schema = |v: &ViewDef| {
            rig.mart
                .with_db(|db| db.table(v.name()).expect("materialized").schema().clone())
        };
        let schemas = views.iter().map(table_schema).collect();
        let head = wal_head(&rig.wconn);
        let stream = ReplicationStream::subscribe(rig.wconn.clone(), mconn, views.clone(), head, 0)
            .with_batch_limit(batch_limit);
        Follower {
            stream,
            views,
            unfolded,
            batch_limit,
            schemas,
            metas: HashMap::new(),
        }
    }

    /// After a successful poll that reported `report`: every mart table
    /// equals its view over the warehouse as of the acknowledged LSN, keeps
    /// its schema, and moved its version and high-water mark only forward.
    /// Returns whether the stream has caught up with the log. `at` labels
    /// failures.
    fn check(
        &mut self,
        rig: &mut Rig,
        report: &ReplBatchReport,
        at: &str,
    ) -> Result<bool, TestCaseError> {
        let acked = self.stream.acked_lsn();
        let limit = self.batch_limit;
        prop_assert_eq!(report.lag.applied_lsn, acked);
        let caught_up = acked == wal_head(&rig.wconn);
        let oracle = rig.oracle_at(acked);
        for (i, (view, schema)) in self.views.iter().zip(&self.schemas).enumerate() {
            let name = view.name();
            let (rows, now_schema, meta) = rig.mart.with_db(|db| {
                let t = db.table(name).expect("mart table");
                (
                    t.rows(),
                    t.schema().clone(),
                    read_mart_meta(db, name).expect("meta row"),
                )
            });
            prop_assert_eq!(&now_schema, schema, "{}: `{}` changed schema", at, name);
            for row in &rows {
                for (v, col) in row.values().iter().zip(schema.columns()) {
                    prop_assert!(
                        v.is_null() || v.data_type() == Some(col.data_type),
                        "{at}: `{name}`.{} holds {v:?}",
                        col.name
                    );
                }
            }
            if i != self.unfolded || caught_up {
                let expect = evaluate_view(view, &oracle).expect("view over the oracle");
                prop_assert!(
                    bits(&rows) == bits(&expect.rows),
                    "{at} (limit {limit}, lsn {acked}): `{name}` diverged\n mart   {rows:?}\n oracle {:?}",
                    expect.rows
                );
                prop_assert_eq!(meta.rows, rows.len());
            }
            // Versions and high-water marks only move forward, and a
            // version moves exactly when the poll says so.
            let bumped = report.refreshed.iter().filter(|(t, _)| t == name).count();
            let before = self
                .metas
                .insert(name.to_string(), (meta.version, meta.hwm));
            let (v0, h0) = before.unwrap_or((1, i64::MIN));
            prop_assert_eq!(
                meta.version,
                v0 + bumped as u64,
                "{}: `{}` version",
                at,
                name
            );
            prop_assert!(meta.hwm >= h0, "{at}: `{name}` hwm went back");
            if bumped > 0 {
                let newest = report.refreshed.iter().rev().find(|(t, _)| t == name);
                prop_assert_eq!(newest.map(|(_, v)| *v), Some(meta.version));
            }
        }
        Ok(caught_up)
    }

    /// Poll a fault-free link until the stream is caught up, checking after
    /// every poll. Returns the number of polls that shipped records.
    fn drain(
        &mut self,
        rig: &mut Rig,
        topo: &Topology,
        what: &str,
    ) -> Result<usize, TestCaseError> {
        for poll in 0.. {
            prop_assert!(poll < 10_000, "{what}: never converged");
            let report = self
                .stream
                .poll(topo, poll as u64 * 1_000)
                .expect("no faults planned")
                .value;
            let caught_up = self.check(rig, &report, &format!("{what}, poll {poll}"))?;
            if caught_up && report.records == 0 {
                return Ok(poll);
            }
        }
        unreachable!()
    }
}

/// Five new events, then a DELETE that the log carries as a snapshot
/// record: the mutation sits beyond every capped batch before it.
fn ingest_then_delete(rig: &mut Rig) {
    rig.ingest(5, false);
    let deleted = rig
        .wconn
        .execute("DELETE FROM \"fact_measurements\" WHERE \"e_id\" = 3")
        .expect("delete")
        .value;
    assert!(deleted > 0);
}

/// The warehouse is mutated before the stream's first poll, which ships one
/// record: the views must not blend the post-mutation warehouse with
/// pre-mutation log rows.
#[test]
fn mutation_ahead_of_the_first_capped_poll_is_not_blended_in() {
    let mut rig = Rig::new(3, 20);
    let topo = Topology::lan();
    let mut f = Follower::subscribe(&rig, &topo, 1);
    ingest_then_delete(&mut rig);
    let polls = f.drain(&mut rig, &topo, "first poll").unwrap();
    assert!(polls >= 1);
}

/// The same with the accumulators already filled: each one-record poll
/// leaves the views as of that record, the snapshot record rebuilds them.
#[test]
fn mutation_ahead_of_a_capped_poll_is_not_blended_into_filled_folds() {
    let mut rig = Rig::new(3, 20);
    let topo = Topology::lan();
    let mut f = Follower::subscribe(&rig, &topo, 1);
    rig.ingest(4, true);
    f.drain(&mut rig, &topo, "filling").unwrap();
    let scanned = f.stream.fact_rows_scanned();
    ingest_then_delete(&mut rig);
    let polls = f.drain(&mut rig, &topo, "after the delete").unwrap();
    assert!(polls >= 2, "the insert and the snapshot shipped apart");
    assert!(
        f.stream.fact_rows_scanned() > scanned,
        "the snapshot rebuilt"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_poll_leaves_each_view_as_of_the_acked_lsn(seed in any::<u64>()) {
        let mut s = Rng(seed);
        let mut rig = Rig::new(2 + s.below(3), 10 + s.below(40));
        let topo = Topology::lan();
        let batch_limit = 1 + s.below(256);
        let mut f = Follower::subscribe(&rig, &topo, batch_limit);

        // Fault windows over the schedule's 10 ms steps.
        let steps = 10 + s.next() % 10;
        let mut plan = FaultPlan::new(seed);
        if s.below(2) == 0 {
            let from = s.next() % (steps * 10);
            plan = plan.partition(
                "t0", "mart",
                Cost::from_millis(from),
                Some(Cost::from_millis(from + 1 + s.next() % 60)),
            );
        }
        if s.below(2) == 0 {
            let from = s.next() % (steps * 10);
            plan = plan.crash(
                "m",
                Cost::from_millis(from),
                Some(Cost::from_millis(from + 1 + s.next() % 60)),
            );
        }
        let plan = Arc::new(plan);
        topo.set_conditions(Arc::clone(&plan) as _);
        rig.mart.set_fault_plan(Arc::clone(&plan));
        let mutate_at = s.next() % steps;

        let mut step = 0;
        loop {
            let now = Cost::from_millis(step * 10);
            plan.set_now(now);
            // Every window opens within the schedule and lasts at most
            // 60 ms: past that the schedule only drains to convergence.
            let healed = step >= steps + 6;
            if step < steps {
                if s.below(4) != 0 {
                    let events = 1 + s.below(12);
                    rig.ingest(events, s.below(3) == 0);
                }
                if step == mutate_at {
                    let changed = rig.wconn
                        .execute("UPDATE \"fact_measurements\" SET \"weight\" = 2.5 WHERE \"e_id\" < 7")
                        .expect("update")
                        .value;
                    prop_assert!(changed > 0);
                    if s.below(2) == 0 {
                        rig.wconn
                            .execute("DELETE FROM \"fact_measurements\" WHERE \"e_id\" = 3")
                            .expect("delete");
                    }
                }
            }

            let acked_before = f.stream.acked_lsn();
            match f.stream.poll(&topo, now.as_micros()) {
                Err(e) => {
                    prop_assert!(
                        matches!(e, WarehouseError::Unreachable { .. } | WarehouseError::Vendor(_)),
                        "seed {seed} step {step}: untyped failure {e:?}"
                    );
                    prop_assert!(!healed, "seed {seed}: failed after the faults healed: {e:?}");
                    prop_assert_eq!(f.stream.acked_lsn(), acked_before, "a failed poll consumed records");
                }
                Ok(t) => {
                    prop_assert!(f.stream.acked_lsn() >= acked_before);
                    let caught_up = f.check(&mut rig, &t.value, &format!("seed {seed} step {step}"))?;
                    if healed && caught_up && t.value.records == 0 {
                        break;
                    }
                }
            }
            step += 1;
            prop_assert!(step < steps + 4_000, "seed {seed}: never converged");
        }
        prop_assert_eq!(rig.oracle_lsn, wal_head(&rig.wconn));
    }
}

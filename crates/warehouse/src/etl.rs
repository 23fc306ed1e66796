//! Stage 1: ETL from normalized sources into the star-schema warehouse.
//!
//! A sweep extracts only what it will move. Each source answers exactly
//! four [`Connection::extract`] calls, in this order: `runs` and
//! `variables` whole (tens of rows), `measurements` as a selection — every
//! row for [`EtlPipeline::run_batch`], the rows with `m_id` above the
//! warehouse's high-water mark for [`EtlPipeline::run_incremental`] — and
//! last the `events` the kept measurements reference, by `e_id`. The keyed
//! reads are answered from the sources' primary-key indexes and return
//! rows in physical order, the order a whole-table read yields them, so
//! the fact rows, their order and every error are those of a sweep that
//! read every source table whole and filtered afterwards. The four calls
//! are made even when the delta is empty: each is fault-checked, so a
//! fault plan's draws, and which sweep fails with which error, do not
//! depend on how much moved. The [`EtlReport`] is priced on the fact rows
//! alone, so no virtual number depends on how much was read.

use crate::{Result, WarehouseError};
use gridfed_ntuple::schema as nschema;
use gridfed_simnet::cost::Cost;
use gridfed_simnet::disk::DiskProfile;
use gridfed_simnet::params::CostParams;
use gridfed_simnet::topology::Topology;
use gridfed_storage::{Database, KeySelection, Row, Value};
use gridfed_vendors::Connection;
use std::collections::HashMap;
use std::ops::Bound;

/// How extracted data travels to the destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportMode {
    /// The paper's prototype: extract into a temporary staging file, then
    /// load from that file ("data streaming" with a temp-file detour).
    Staged,
    /// The paper's future-work improvement: stream directly from the
    /// extraction cursor into the destination.
    Direct,
}

/// Outcome of one ETL batch.
#[derive(Debug, Clone, PartialEq)]
pub struct EtlReport {
    /// Fact rows produced.
    pub rows: usize,
    /// Payload size moved, in bytes (the x-axis of Figures 4/5).
    pub bytes: usize,
    /// Virtual time of the extraction phase (lower curve of Figure 4).
    pub extract_cost: Cost,
    /// Virtual time of the loading phase (upper curve of Figure 4).
    pub load_cost: Cost,
    /// Whether extraction and loading overlapped (direct streaming): the
    /// staging file forces the two phases to run back-to-back, which is
    /// exactly why the paper calls it "a performance bottleneck".
    pub overlapped: bool,
}

impl EtlReport {
    /// Total virtual time of the batch: phases sum when staged; when
    /// streaming directly they run concurrently, so the total is their
    /// `par` (max) — each phase already carries its own stream-setup cost.
    pub fn total(&self) -> Cost {
        if self.overlapped {
            self.extract_cost.par(self.load_cost)
        } else {
            self.extract_cost + self.load_cost
        }
    }

    /// Payload in kB, matching the paper's axes.
    pub fn kilobytes(&self) -> f64 {
        self.bytes as f64 / 1000.0
    }
}

/// The Stage-1 pipeline: source database(s) → warehouse fact table.
pub struct EtlPipeline {
    params: CostParams,
    disk: DiskProfile,
    topology: Topology,
    mode: TransportMode,
}

impl EtlPipeline {
    /// Pipeline with the paper-2005 calibration and staged transport.
    pub fn paper() -> EtlPipeline {
        EtlPipeline {
            params: CostParams::paper_2005(),
            disk: DiskProfile::ide_2005(),
            topology: Topology::lan(),
            mode: TransportMode::Staged,
        }
    }

    /// Override the transport mode (ablation hook).
    pub fn with_mode(mut self, mode: TransportMode) -> Self {
        self.mode = mode;
        self
    }

    /// Ensure the warehouse has the fact table.
    pub fn prepare_warehouse(&self, warehouse: &Connection) -> Result<()> {
        let exists = warehouse
            .server()
            .with_db(|db| db.has_table(nschema::FACT_TABLE));
        if !exists {
            warehouse.server().with_db_mut(|db| {
                db.create_table(nschema::FACT_TABLE, nschema::fact_schema())
                    .map(|_| ())
            })?;
        }
        Ok(())
    }

    /// Run one ETL batch: extract every normalized row from `source`,
    /// transform to denormalized fact rows, transport (staged or direct),
    /// and load into the warehouse fact table.
    ///
    /// `event_range` optionally restricts extraction to events with
    /// `e_id` in `[lo, hi)` so callers can size batches (the figure
    /// harness sweeps payload sizes this way).
    pub fn run_batch(
        &self,
        source: &Connection,
        warehouse: &Connection,
        event_range: Option<(i64, i64)>,
    ) -> Result<EtlReport> {
        self.run_filtered(source, warehouse, KeySelection::All, |e_id| {
            event_range.is_none_or(|(lo, hi)| e_id >= lo && e_id < hi)
        })
    }

    /// Incremental ("delta") load — the streaming refinement of the
    /// paper's batch ETL: only measurements beyond the warehouse's current
    /// high-water mark (max `m_id`) are extracted and loaded, so running
    /// it twice moves nothing the second time.
    pub fn run_incremental(
        &self,
        source: &Connection,
        warehouse: &Connection,
    ) -> Result<EtlReport> {
        let hwm = Value::Int(fact_high_water_mark(warehouse).unwrap_or(-1));
        let delta = KeySelection::Range {
            column: "m_id",
            lo: Bound::Excluded(&hwm),
            hi: Bound::Unbounded,
        };
        self.run_filtered(source, warehouse, delta, |_| true)
    }

    /// Shared core: extract the `measurements` selection and what it
    /// references, transform the measurements whose `e_id` passes `keep`,
    /// cost, and load.
    fn run_filtered(
        &self,
        source: &Connection,
        warehouse: &Connection,
        measurements: KeySelection,
        keep: impl Fn(i64) -> bool,
    ) -> Result<EtlReport> {
        self.prepare_warehouse(warehouse)?;

        // ---- Extract: four calls, whatever the delta holds. ----
        let runs = source.extract("runs", KeySelection::All)?.value;
        let variables = source.extract("variables", KeySelection::All)?.value;
        let measurements = source.extract("measurements", measurements)?.value;
        let mut e_ids: Vec<Value> = measurements
            .iter()
            .filter(|m| matches!(m.values()[1], Value::Int(e) if keep(e)))
            .map(|m| m.values()[1].clone())
            .collect();
        e_ids.dedup();
        let referenced = KeySelection::In {
            column: "e_id",
            keys: &e_ids,
        };
        let events = source.extract("events", referenced)?.value;

        // ---- Transform: denormalize into fact rows. ----
        let fact_rows = transform_to_fact(&runs, &variables, &events, &measurements, &keep)?;
        let rows = fact_rows.len();
        let bytes: usize = fact_rows
            .iter()
            .flat_map(|r| r.iter().map(Value::wire_size))
            .sum();

        // ---- Cost model (Figure 4). ----
        // Extraction: open the source stream, read + transform per row,
        // then (staged mode) write the temp file.
        let p = &self.params;
        let mut extract_cost = p.etl_stream_setup + p.etl_extract_per_row.scale(rows as f64);
        // Loading: (staged mode) read the temp file back, move the payload
        // across the source→warehouse link, insert per row.
        let link_cost =
            self.topology
                .transfer(source.server().host(), warehouse.server().host(), bytes);
        let mut load_cost = p.etl_stream_setup + link_cost + p.etl_load_per_row.scale(rows as f64);
        if self.mode == TransportMode::Staged {
            extract_cost += self.disk.write_file(bytes);
            load_cost += self.disk.read_file(bytes);
        }

        // ---- Load: the real data movement. ----
        warehouse.insert_rows(nschema::FACT_TABLE, fact_rows)?;

        Ok(EtlReport {
            rows,
            bytes,
            extract_cost,
            load_cost,
            overlapped: self.mode == TransportMode::Direct,
        })
    }
}

/// The warehouse's high-water mark: the max `m_id` already in the fact
/// table, or `None` when the fact table is absent or empty. Both the
/// incremental ETL and the incremental mart refresh key off this value —
/// anything at or below it has already been propagated.
pub fn fact_high_water_mark(warehouse: &Connection) -> Option<i64> {
    warehouse.server().with_db(fact_high_water_mark_in)
}

/// [`fact_high_water_mark`] inside a storage-lock section the caller
/// holds: the largest key of the fact table's `m_id` primary-key index,
/// read without touching a row.
pub(crate) fn fact_high_water_mark_in(db: &Database) -> Option<i64> {
    let fact = db.table(nschema::FACT_TABLE).ok()?;
    match fact.index("m_id").ok()?.max_key()? {
        Value::Int(m_id) => Some(*m_id),
        _ => None,
    }
}

/// Join the normalized tables into denormalized fact rows
/// `(m_id, e_id, run_id, detector, var_name, unit, value, weight)`.
fn transform_to_fact(
    runs: &[Row],
    variables: &[Row],
    events: &[Row],
    measurements: &[Row],
    keep: &impl Fn(i64) -> bool,
) -> Result<Vec<Vec<Value>>> {
    let int_of = |v: &Value, what: &str| -> Result<i64> {
        match v {
            Value::Int(i) => Ok(*i),
            other => Err(WarehouseError::Pipeline(format!(
                "expected INT for {what}, got {}",
                other.render()
            ))),
        }
    };

    // runs: run_id → detector
    let mut run_det: HashMap<i64, Value> = HashMap::with_capacity(runs.len());
    for r in runs {
        run_det.insert(int_of(&r.values()[0], "run_id")?, r.values()[1].clone());
    }
    // variables: var_id → (name, unit)
    let mut var_info: HashMap<i64, (Value, Value)> = HashMap::with_capacity(variables.len());
    for v in variables {
        var_info.insert(
            int_of(&v.values()[0], "var_id")?,
            (v.values()[1].clone(), v.values()[2].clone()),
        );
    }
    // events: e_id → (run_id, weight)
    let mut event_info: HashMap<i64, (i64, Value)> = HashMap::with_capacity(events.len());
    for e in events {
        event_info.insert(
            int_of(&e.values()[0], "e_id")?,
            (int_of(&e.values()[1], "run_id")?, e.values()[2].clone()),
        );
    }

    let mut fact = Vec::new();
    for m in measurements {
        let m_id = int_of(&m.values()[0], "m_id")?;
        let e_id = int_of(&m.values()[1], "e_id")?;
        if !keep(e_id) {
            continue;
        }
        let var_id = int_of(&m.values()[2], "var_id")?;
        let value = m.values()[3].clone();
        let (run_id, weight) = event_info
            .get(&e_id)
            .cloned()
            .ok_or_else(|| WarehouseError::Pipeline(format!("dangling e_id {e_id}")))?;
        let detector = run_det
            .get(&run_id)
            .cloned()
            .ok_or_else(|| WarehouseError::Pipeline(format!("dangling run_id {run_id}")))?;
        let (var_name, unit) = var_info
            .get(&var_id)
            .cloned()
            .ok_or_else(|| WarehouseError::Pipeline(format!("dangling var_id {var_id}")))?;
        fact.push(vec![
            Value::Int(m_id),
            Value::Int(e_id),
            Value::Int(run_id),
            detector,
            var_name,
            unit,
            value,
            weight,
        ]);
    }
    Ok(fact)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridfed_ntuple::{NtupleGenerator, NtupleSpec};
    use gridfed_vendors::{SimServer, VendorKind};
    use std::sync::Arc;

    fn source_server(spec: &NtupleSpec, seed: u64) -> Arc<SimServer> {
        let server = SimServer::new(VendorKind::MySql, "tier2.caltech", "ntuples");
        server.with_db_mut(|db| {
            NtupleGenerator::new(spec.clone(), seed)
                .populate_source(db)
                .unwrap();
        });
        server
    }

    fn warehouse_server() -> Arc<SimServer> {
        SimServer::new(VendorKind::Oracle, "tier0.cern", "warehouse")
    }

    #[test]
    fn etl_moves_all_measurements() {
        let spec = NtupleSpec::tiny();
        let src = source_server(&spec, 11);
        let wh = warehouse_server();
        let sconn = src.connect("grid", "grid").unwrap().value;
        let wconn = wh.connect("grid", "grid").unwrap().value;
        let report = EtlPipeline::paper()
            .run_batch(&sconn, &wconn, None)
            .unwrap();
        assert_eq!(report.rows, spec.measurement_rows());
        assert_eq!(
            wh.with_db(|db| db.table(nschema::FACT_TABLE).unwrap().len()),
            spec.measurement_rows()
        );
        assert!(report.bytes > 0);
        assert!(report.extract_cost > Cost::ZERO);
        assert!(
            report.load_cost > report.extract_cost,
            "load dominates (Fig 4 shape)"
        );
    }

    #[test]
    fn fact_rows_are_denormalized() {
        let spec = NtupleSpec::tiny();
        let src = source_server(&spec, 5);
        let wh = warehouse_server();
        let sconn = src.connect("grid", "grid").unwrap().value;
        let wconn = wh.connect("grid", "grid").unwrap().value;
        EtlPipeline::paper()
            .run_batch(&sconn, &wconn, None)
            .unwrap();
        wh.with_db(|db| {
            let fact = db.table(nschema::FACT_TABLE).unwrap();
            let row = &fact.rows()[0];
            // detector and unit are folded in as text
            assert!(matches!(row.values()[3], Value::Text(_)));
            assert!(matches!(row.values()[5], Value::Text(_)));
        });
    }

    #[test]
    fn event_range_limits_batch() {
        let spec = NtupleSpec::tiny();
        let src = source_server(&spec, 5);
        let wh = warehouse_server();
        let sconn = src.connect("grid", "grid").unwrap().value;
        let wconn = wh.connect("grid", "grid").unwrap().value;
        let report = EtlPipeline::paper()
            .run_batch(&sconn, &wconn, Some((0, 10)))
            .unwrap();
        assert_eq!(report.rows, 10 * spec.nvar());
    }

    #[test]
    fn staged_mode_costs_more_than_direct() {
        let spec = NtupleSpec::tiny();
        let src = source_server(&spec, 5);
        let sconn = src.connect("grid", "grid").unwrap().value;

        let wh1 = warehouse_server();
        let staged = EtlPipeline::paper()
            .run_batch(&sconn, &wh1.connect("grid", "grid").unwrap().value, None)
            .unwrap();
        let wh2 = warehouse_server();
        let direct = EtlPipeline::paper()
            .with_mode(TransportMode::Direct)
            .run_batch(&sconn, &wh2.connect("grid", "grid").unwrap().value, None)
            .unwrap();
        assert_eq!(staged.rows, direct.rows);
        assert!(
            staged.total() > direct.total(),
            "staging file is the bottleneck"
        );
    }

    #[test]
    fn cost_scales_with_payload() {
        let spec = NtupleSpec::with_nvar("s", 200, 5);
        let src = source_server(&spec, 5);
        let sconn = src.connect("grid", "grid").unwrap().value;
        let wh = warehouse_server();
        let wconn = wh.connect("grid", "grid").unwrap().value;
        let pipeline = EtlPipeline::paper();
        let small = pipeline.run_batch(&sconn, &wconn, Some((0, 20))).unwrap();
        let big = pipeline.run_batch(&sconn, &wconn, Some((20, 200))).unwrap();
        assert!(big.bytes > small.bytes);
        assert!(big.total() > small.total());
    }

    #[test]
    fn incremental_load_moves_only_the_delta() {
        let spec = NtupleSpec::with_nvar("inc", 100, 4);
        // First slice of the source.
        let src = SimServer::new(VendorKind::MySql, "t2", "src");
        src.with_db_mut(|db| {
            NtupleGenerator::new(spec.clone(), 1)
                .populate_source_range(db, 0, 60)
                .unwrap();
        });
        let wh = warehouse_server();
        let sconn = src.connect("grid", "grid").unwrap().value;
        let wconn = wh.connect("grid", "grid").unwrap().value;
        let pipeline = EtlPipeline::paper();

        let first = pipeline.run_incremental(&sconn, &wconn).unwrap();
        assert_eq!(first.rows, 60 * spec.nvar());

        // Re-running with no new source data moves nothing.
        let idle = pipeline.run_incremental(&sconn, &wconn).unwrap();
        assert_eq!(idle.rows, 0);

        // New events appear at the source; only they are moved.
        src.with_db_mut(|db| {
            let mut gen = NtupleGenerator::new(spec.clone(), 1);
            let batch = gen.measurement_batch(60, 40);
            let events = db.table_mut("events").unwrap();
            for e in 60..100 {
                events
                    .insert(vec![Value::Int(e as i64), Value::Int(0), Value::Float(1.0)])
                    .unwrap();
            }
            db.table_mut("measurements")
                .unwrap()
                .insert_many(batch)
                .unwrap();
        });
        let delta = pipeline.run_incremental(&sconn, &wconn).unwrap();
        assert_eq!(delta.rows, 40 * spec.nvar());
        assert_eq!(
            wh.with_db(|db| db.table(nschema::FACT_TABLE).unwrap().len()),
            100 * spec.nvar()
        );
        // Incremental delta is cheaper than an actual full reload of the
        // same (now 100-event) source into a fresh warehouse.
        let fresh = warehouse_server();
        let full = pipeline
            .run_batch(&sconn, &fresh.connect("grid", "grid").unwrap().value, None)
            .unwrap();
        assert_eq!(full.rows, 100 * spec.nvar());
        assert!(delta.bytes < full.bytes);
        assert!(delta.total() < full.total());
    }

    #[test]
    fn high_water_mark_from_the_index_equals_a_scan_of_the_column() {
        let scan = |db: &Database| {
            let fact = db.table(nschema::FACT_TABLE).ok()?;
            let m_id = fact.schema().index_of("m_id").unwrap();
            fact.rows()
                .iter()
                .filter_map(|r| match r.values()[m_id] {
                    Value::Int(m) => Some(m),
                    _ => None,
                })
                .max()
        };
        let wh = warehouse_server();
        let check = || wh.with_db(|db| assert_eq!(fact_high_water_mark_in(db), scan(db)));
        check(); // no fact table
        let wconn = wh.connect("grid", "grid").unwrap().value;
        EtlPipeline::paper().prepare_warehouse(&wconn).unwrap();
        check(); // empty
        let row = |m: i64| {
            vec![
                Value::Int(m),
                Value::Int(0),
                Value::Int(0),
                "d".into(),
                "v".into(),
                "u".into(),
                Value::Float(0.5),
                Value::Float(1.0),
            ]
        };
        // Keys out of physical order, negatives included.
        wconn
            .insert_rows(nschema::FACT_TABLE, [7, -3, 12, 4].map(row).to_vec())
            .unwrap();
        check();
        assert_eq!(fact_high_water_mark(&wconn), Some(12));
        // Tombstone the maximum, then everything.
        let delete = |pred: fn(i64) -> bool| {
            wh.with_db_mut(|db| {
                db.table_mut(nschema::FACT_TABLE)
                    .unwrap()
                    .delete_where(|r| matches!(r.values()[0], Value::Int(m) if pred(m)))
            })
        };
        assert_eq!(delete(|m| m == 12), 1);
        check();
        assert_eq!(fact_high_water_mark(&wconn), Some(7));
        assert_eq!(delete(|_| true), 3);
        check();
        assert_eq!(fact_high_water_mark(&wconn), None);
        wconn
            .insert_rows(nschema::FACT_TABLE, vec![row(-8)])
            .unwrap();
        check();
        wh.with_db_mut(|db| db.drop_table(nschema::FACT_TABLE))
            .unwrap();
        check();
        assert_eq!(fact_high_water_mark(&wconn), None);
    }

    #[test]
    fn dangling_references_are_pipeline_errors() {
        let wh = warehouse_server();
        let src = SimServer::new(VendorKind::MySql, "bad", "src");
        src.with_db_mut(|db| {
            db.create_table("runs", nschema::runs_schema()).unwrap();
            db.create_table("variables", nschema::variables_schema())
                .unwrap();
            db.create_table("events", nschema::events_schema()).unwrap();
            db.create_table("measurements", nschema::measurements_schema())
                .unwrap();
            // measurement referencing nonexistent event
            db.table_mut("measurements")
                .unwrap()
                .insert(vec![
                    Value::Int(0),
                    Value::Int(99),
                    Value::Int(0),
                    Value::Float(1.0),
                ])
                .unwrap();
        });
        let sconn = src.connect("grid", "grid").unwrap().value;
        let wconn = wh.connect("grid", "grid").unwrap().value;
        let err = EtlPipeline::paper()
            .run_batch(&sconn, &wconn, None)
            .unwrap_err();
        assert!(matches!(err, WarehouseError::Pipeline(_)));
    }
}

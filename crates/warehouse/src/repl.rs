//! WAL-based replication: the one way a materialized mart is kept current.
//!
//! A [`ReplicationStream`] subscribes a mart to the warehouse's write-ahead
//! log (see `gridfed_storage::wal`), pulls record batches past its last
//! acknowledged LSN over the simnet link, and replays them into the mart's
//! views — bumping the data versions of `crate::marts` per applied batch,
//! and reporting its replication lag (LSN delta plus virtual-time age) so
//! the mediator can route on measured staleness
//! (`ReplicaPolicy::BoundedStaleness`). A grid polls its streams on a
//! schedule (`Grid::pump_replication`), and a mart refresh
//! (`Grid::refresh_marts`) is the same polls run until each stream has
//! caught up with the WAL head it read: there is no second writer.
//!
//! Replay is view-aware, and its rule is that **a view is a fold over fact
//! rows**: marts hold *materialized views*, not raw warehouse tables, so a
//! batch of fact-table `Insert` records is folded into each view and only
//! the rows the batch changed are written — the work of a poll is
//! proportional to the batch, not to the warehouse or the mart.
//!
//! - A pivot view pivots the batch through the same core as `pivot_fact`
//!   and upserts the result into the live table by event id, filtered on
//!   the mart's recorded high-water mark.
//! - An aggregate SQL view of the foldable shape (see
//!   [`gridfed_sqlkit::fold`]: one table, `GROUP BY` bare columns,
//!   COUNT/SUM/AVG/MIN/MAX) keeps its accumulators in the stream, feeds
//!   them the batch's rows above the mart's high-water mark, in log order,
//!   and patches the changed groups in place. Log order is scan order, so
//!   the table stays bit-identical to a recompute. The accumulators are
//!   filled by the rebuild below and trusted only while the mart table is
//!   still the version they wrote.
//! - Any other SQL view is re-evaluated over the live warehouse when a
//!   batch touches one of its tables (it may therefore run ahead of the
//!   acknowledged LSN until the stream catches up).
//!
//! What the log cannot express as appended fact rows — a `Snapshot` or
//! catalog record on the fact table, a view the mart does not hold yet, a
//! folded table someone else has written since (or that this stream has
//! not built yet), or a log already truncated past the stream's position —
//! sends the whole stream through one **rebuild**: every view is evaluated
//! over the live warehouse in a single read section together with the WAL
//! head (a folded view by folding every fact row, which is what fills its
//! accumulators), swapped in, and the stream acknowledges that head. The
//! accumulators therefore only ever hold the rows of the log up to the
//! acknowledged LSN, never a later state of the warehouse. Either way each
//! mart table equals its view over the warehouse *as of the acknowledged
//! LSN*, and the views of one mart never disagree about which LSN that is.
//!
//! Because batches ride simnet links and both endpoints consult their
//! fault plans, `gridfed-faults` partitions, crash windows, and slow links
//! apply directly: a partitioned stream returns
//! [`WarehouseError::Unreachable`] and catches up from its acked LSN when
//! the link heals.

use crate::etl::fact_high_water_mark_in;
use crate::marts::{patch_mart_table, read_mart_meta, swap_in_shadow, MartMeta};
use crate::views::{evaluate_view_in, pivot_rows, FactColumns, ViewDef};
use crate::{Result, WarehouseError};
use gridfed_ntuple::schema as nschema;
use gridfed_simnet::cost::Timed;
use gridfed_simnet::params::CostParams;
use gridfed_simnet::topology::Topology;
use gridfed_sqlkit::{ResultSet, RetainedAggregate};
use gridfed_storage::{
    normalize_ident, Database, Row, StorageError, Table, Value, WalOp, WalRecord,
};
use gridfed_vendors::{Connection, VendorError};

/// Default cap on records pulled per poll (keeps single polls bounded so
/// catch-up after a long partition is paced, not one giant batch).
pub const DEFAULT_BATCH_LIMIT: usize = 256;

/// One subscriber's replication lag at an instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplLag {
    /// Last LSN applied (and acknowledged) by the replica.
    pub applied_lsn: u64,
    /// The warehouse head LSN as of the replica's last successful poll.
    pub head_lsn: u64,
    /// Virtual time (µs) the replica last *verified* it was fully caught
    /// up (applied == head). Staleness age is measured from here, so a
    /// partitioned replica ages even when the warehouse is idle — the
    /// replica cannot distinguish "idle" from "unreachable".
    pub fresh_as_of_us: u64,
}

impl ReplLag {
    /// Records known shipped but not yet applied.
    pub fn lsn_delta(&self) -> u64 {
        self.head_lsn.saturating_sub(self.applied_lsn)
    }

    /// Virtual-time age of the replica's data: how long since it last
    /// verified it matched the warehouse head.
    pub fn age_us(&self, now_us: u64) -> u64 {
        now_us.saturating_sub(self.fresh_as_of_us)
    }
}

/// What one poll applied.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplBatchReport {
    /// Mart database name.
    pub mart: String,
    /// WAL records shipped this poll.
    pub records: usize,
    /// Mart rows written this poll (changed or appended; every row of a
    /// view that was rebuilt).
    pub rows: usize,
    /// Wire bytes shipped over the link.
    pub bytes: usize,
    /// `(mart table, new data version)` for every view this batch bumped.
    pub refreshed: Vec<(String, u64)>,
    /// The mart tables of `refreshed` that a rebuild from the live
    /// warehouse rewrote, rather than the batch's rows.
    pub rebuilt: Vec<String>,
    /// Lag after this poll.
    pub lag: ReplLag,
}

/// What replay did to one view: mart table, new data version, rows written,
/// and whether a rebuild from the live warehouse wrote it.
type Applied = (String, u64, usize, bool);

/// A fact-table row carried by the batch, with its `m_id`.
type FactInsert<'a> = (i64, &'a [Value]);

/// The retained aggregation behind one foldable SQL view.
#[derive(Debug)]
struct ViewFold {
    agg: RetainedAggregate,
    /// Data version of the mart table the accumulators describe: the one
    /// this fold wrote last. 0 — no table has it — until a rebuild fills
    /// them, and while a write is in flight.
    version: u64,
}

/// A continuous log-shipping subscription: one mart replica following one
/// warehouse database's WAL.
#[derive(Debug)]
pub struct ReplicationStream {
    warehouse: Connection,
    mart: Connection,
    views: Vec<ViewDef>,
    /// Aligned with `views`: fold state of the views that fold.
    folds: Vec<Option<ViewFold>>,
    acked_lsn: u64,
    last_head_lsn: u64,
    fresh_as_of_us: u64,
    batch_limit: usize,
    /// Offsets of the fact-table columns in the rows the log carries.
    fact: FactColumns,
    fact_rows_scanned: u64,
}

impl ReplicationStream {
    /// Subscribe `mart` to the warehouse's WAL, replaying everything past
    /// `start_lsn`. A mart seeded by a full materialization subscribes at
    /// the head LSN its snapshot covers; a cold replica subscribes at 0
    /// and is built by its first non-empty poll. Which views fold is
    /// decided here, from their definitions.
    pub fn subscribe(
        warehouse: Connection,
        mart: Connection,
        views: Vec<ViewDef>,
        start_lsn: u64,
        now_us: u64,
    ) -> ReplicationStream {
        let fact = nschema::fact_schema();
        let folds = views
            .iter()
            .map(|v| v.fold_over(&fact).map(|agg| ViewFold { agg, version: 0 }))
            .collect();
        #[allow(clippy::expect_used)] // the static fact schema names every column
        let fact = FactColumns::resolve(&fact).expect("the static fact schema has every column");
        ReplicationStream {
            warehouse,
            mart,
            views,
            folds,
            acked_lsn: start_lsn,
            last_head_lsn: start_lsn,
            fresh_as_of_us: now_us,
            batch_limit: DEFAULT_BATCH_LIMIT,
            fact,
            fact_rows_scanned: 0,
        }
    }

    /// Cap records per poll (default [`DEFAULT_BATCH_LIMIT`]).
    pub fn with_batch_limit(mut self, limit: usize) -> ReplicationStream {
        self.batch_limit = limit.max(1);
        self
    }

    /// The replica connection.
    pub fn mart(&self) -> &Connection {
        &self.mart
    }

    /// The upstream connection.
    pub fn warehouse(&self) -> &Connection {
        &self.warehouse
    }

    /// Views this stream maintains on the replica.
    pub fn views(&self) -> &[ViewDef] {
        &self.views
    }

    /// Last LSN applied and acknowledged.
    pub fn acked_lsn(&self) -> u64 {
        self.acked_lsn
    }

    /// Warehouse fact-table rows this stream has read *outside the log*
    /// since it subscribed, i.e. rebuilding views. Replaying insert-only
    /// batches leaves it unchanged — that is what makes a poll cost the
    /// batch, not the table.
    pub fn fact_rows_scanned(&self) -> u64 {
        self.fact_rows_scanned
    }

    /// Lag as of the last successful poll.
    pub fn lag(&self) -> ReplLag {
        ReplLag {
            applied_lsn: self.acked_lsn,
            head_lsn: self.last_head_lsn.max(self.acked_lsn),
            fresh_as_of_us: self.fresh_as_of_us,
        }
    }

    /// One replication round: pull the WAL suffix past the acked LSN over
    /// the simnet link, replay it into the mart's materialized views, ack.
    /// An empty batch is a heartbeat — it still re-verifies freshness, so
    /// a caught-up replica polled every Δ µs has staleness age ≤ Δ.
    ///
    /// Fails typed when the link is partitioned
    /// ([`WarehouseError::Unreachable`]) or either endpoint's fault plan
    /// says it is down (`WarehouseError::Vendor`); the acked LSN is
    /// untouched on failure, so the next poll resumes exactly where this
    /// one left off.
    pub fn poll(&mut self, topology: &Topology, now_us: u64) -> Result<Timed<ReplBatchReport>> {
        let wh_host = self.warehouse.server().host().to_string();
        let mart_host = self.mart.server().host().to_string();
        if !topology.reachable(&wh_host, &mart_host) {
            return Err(WarehouseError::Unreachable {
                from: wh_host,
                to: mart_host,
            });
        }
        // The replica must be up to apply; probing first means a crashed
        // mart stalls replay without consuming the batch.
        let mart_slow = self.mart.server().fault_probe()?;
        let params = CostParams::paper_2005();
        // A checkpoint may have truncated the log past this stream (it was
        // not among the subscribers the checkpoint waited for): the records
        // it owes are gone, so it rebuilds from the live warehouse instead.
        let (records, head_lsn, mut cost, truncated) =
            match self.warehouse.pull_wal(self.acked_lsn, self.batch_limit) {
                Ok(t) => (t.value.records, t.value.head_lsn, t.cost, false),
                Err(VendorError::Storage(StorageError::WalTruncated { .. })) => {
                    (Vec::new(), self.acked_lsn, params.per_subquery, true)
                }
                Err(e) => return Err(e.into()),
            };

        let bytes: usize = records.iter().map(|r| r.op.wire_size()).sum();
        // Request + ack round trip, plus the payload transfer.
        cost += topology.transfer(&wh_host, &mart_host, bytes.max(64));

        let mut applied: Vec<Applied> = Vec::new();
        if truncated || !records.is_empty() {
            let replayed = !truncated && self.replay(&records, now_us, &mut applied)?;
            self.acked_lsn = match records.last() {
                Some(last) if replayed => last.lsn,
                // What a part-way replay wrote stays in the report: those
                // versions were bumped, then bumped again by the rebuild.
                _ => {
                    let all: Vec<usize> = (0..self.views.len()).collect();
                    self.rebuild(&all, now_us, &mut applied)?
                }
            };
        }
        for (_, _, rows, _) in &applied {
            cost += params
                .mart_load_per_row
                .scale(*rows as f64)
                .scale(mart_slow)
                + params.per_subquery; // version flip
        }

        self.last_head_lsn = head_lsn.max(self.acked_lsn);
        if self.acked_lsn >= head_lsn {
            self.fresh_as_of_us = now_us;
        }

        Ok(Timed::new(
            ReplBatchReport {
                mart: self.mart.server().db_name().to_string(),
                records: records.len(),
                rows: applied.iter().map(|(_, _, rows, _)| rows).sum(),
                bytes,
                rebuilt: applied
                    .iter()
                    .filter(|a| a.3)
                    .map(|a| a.0.clone())
                    .collect(),
                refreshed: applied.into_iter().map(|(t, v, _, _)| (t, v)).collect(),
                lag: self.lag(),
            },
            cost,
        ))
    }

    /// Fold a batch into every view. `false` — with the views possibly
    /// part-written, which the rebuild that must follow overwrites — when
    /// the batch is more than appended fact rows: a snapshot or catalog
    /// record on the fact table, a view the mart does not hold yet, a
    /// folded table that is not the version its accumulators describe, or
    /// a delta that does not extend a pivot table in event order.
    fn replay(
        &mut self,
        records: &[WalRecord],
        now_us: u64,
        applied: &mut Vec<Applied>,
    ) -> Result<bool> {
        let mut inserts: Vec<FactInsert<'_>> = Vec::new();
        for r in records {
            match &r.op {
                WalOp::Insert { table, rows } if table == nschema::FACT_TABLE => {
                    for row in rows {
                        inserts.push((self.fact.m_id_of(row)?, row));
                    }
                }
                op if op.table() == nschema::FACT_TABLE => return Ok(false),
                _ => {}
            }
        }
        let metas: Vec<Option<MartMeta>> = self.mart.server().with_db(|db| {
            let meta =
                |v: &ViewDef| read_mart_meta(db, v.name()).filter(|_| db.has_table(v.name()));
            self.views.iter().map(meta).collect()
        });

        // SQL views that do not fold are re-evaluated when the batch
        // touched one of their tables.
        let mut stale = Vec::new();
        let views = self.views.iter().zip(&mut self.folds).zip(metas);
        for (i, ((view, fold), meta)) in views.enumerate() {
            let replayed = match (view, fold, meta) {
                (ViewDef::Sql { query, .. }, None, _) => {
                    let tables = query.table_refs();
                    let touched = |r: &WalRecord| {
                        tables
                            .iter()
                            .any(|t| normalize_ident(&t.name) == r.op.table())
                    };
                    if records.iter().any(touched) {
                        stale.push(i);
                    }
                    continue;
                }
                _ if inserts.is_empty() => continue,
                (_, _, None) => return Ok(false),
                (ViewDef::Pivot { name, spec }, _, Some(meta)) => {
                    let delta =
                        pivot_rows(spec, &self.fact, meta.hwm, inserts.iter().map(|i| i.1))?;
                    let rows = delta.rows.len();
                    if rows == 0 {
                        continue; // a replayed or overlapping batch
                    }
                    let hwm = inserts.iter().map(|i| i.0).fold(meta.hwm, i64::max);
                    match upsert_pivot_delta(&self.mart, name, delta.rows, hwm, now_us)? {
                        Some(version) => Some((name.clone(), version, rows, false)),
                        None => return Ok(false),
                    }
                }
                // Not filled yet, or the table was written by someone else
                // (a re-materialization) since.
                (_, Some(fold), Some(meta)) if fold.version != meta.version => return Ok(false),
                (ViewDef::Sql { .. }, Some(fold), Some(meta)) => {
                    fold.replay(&self.mart, &meta, &inserts, now_us)?
                }
            };
            applied.extend(replayed);
        }
        if !stale.is_empty() {
            self.rebuild(&stale, now_us, applied)?;
        }
        Ok(true)
    }

    /// Rebuild the views at `which` from the live warehouse: evaluate them
    /// in one read section together with the WAL head, so they describe one
    /// state of the warehouse, then swap each in. A folded view is
    /// evaluated by refilling its accumulators, which then describe the
    /// table swapped in. Returns that head — the LSN the rebuilt tables are
    /// exactly as of.
    fn rebuild(&mut self, which: &[usize], now_us: u64, applied: &mut Vec<Applied>) -> Result<u64> {
        let (views, folds) = (&self.views, &mut self.folds);
        let (head, hwm, fact_rows, results) = self.warehouse.server().with_db(|db| {
            let results = which
                .iter()
                .map(|&i| match &mut folds[i] {
                    Some(fold) => fold.refill(db),
                    None => evaluate_view_in(&views[i], db),
                })
                .collect::<Result<Vec<_>>>()?;
            let fact_rows = db.table(nschema::FACT_TABLE).map_or(0, |t| t.len());
            let hwm = fact_high_water_mark_in(db).unwrap_or(-1);
            Ok::<_, WarehouseError>((db.wal_head_lsn(), hwm, fact_rows, results))
        })?;
        self.fact_rows_scanned += (fact_rows * which.len()) as u64;
        for (&i, result) in which.iter().zip(results) {
            let view = &views[i];
            let schema = view.output_schema(&self.warehouse, &result)?;
            let rows = result.rows.len();
            let values = result.rows.into_iter().map(Row::into_values).collect();
            let version = swap_in_shadow(&self.mart, view.name(), schema, values, hwm, now_us)?;
            applied.push((view.name().to_string(), version, rows, true));
            if let Some(fold) = &mut self.folds[i] {
                fold.version = version;
            }
        }
        Ok(head)
    }
}

impl ViewFold {
    /// Fold the batch's fact rows above the table's high-water mark and
    /// write the groups they changed into the view's mart table — in place,
    /// or as a whole table when a new group sorts before an existing row.
    /// `meta` is the table's metadata row, at the version the accumulators
    /// describe.
    fn replay(
        &mut self,
        mart: &Connection,
        meta: &MartMeta,
        inserts: &[FactInsert<'_>],
        now_us: u64,
    ) -> Result<Option<Applied>> {
        let table = meta.table.as_str();
        let fresh = || inserts.iter().filter(|i| i.0 > meta.hwm);
        let Some(new_hwm) = fresh().map(|i| i.0).max() else {
            return Ok(None); // a replayed or overlapping batch
        };
        // Until the write lands the accumulators are ahead of the table; an
        // error leaves it so, and the next poll rebuilds.
        self.version = 0;
        let held = self.agg.len();
        for &(_, row) in fresh() {
            self.agg.fold(row)?;
        }
        let mut patched = None;
        if let Some(changes) = self.agg.take_changes()? {
            let rows = changes.len();
            // The positions are only good for the table these accumulators
            // describe: `held` dense rows.
            let plan = |t: &Table| {
                Ok((t.physical_len() == held && !t.has_tombstones()).then_some(changes))
            };
            patched = patch_mart_table(mart, table, new_hwm, now_us, plan)?.map(|v| (v, rows));
        }
        let (version, rows) = match patched {
            Some(done) => done,
            None => {
                let rows = self.agg.rows()?;
                let schema = self.agg.output_schema().clone();
                let n = rows.len();
                (
                    swap_in_shadow(mart, table, schema, rows, new_hwm, now_us)?,
                    n,
                )
            }
        };
        self.version = version;
        Ok(Some((table.to_string(), version, rows, false)))
    }

    /// Refill the accumulators with every fact row of `db`, in scan order,
    /// and return the view's rows — what executing it over `db` returns.
    /// The caller records the version of the table it writes them to.
    fn refill(&mut self, db: &Database) -> Result<ResultSet> {
        self.version = 0;
        self.agg.clear();
        let fact = db.table(nschema::FACT_TABLE)?;
        if fact.schema() != &nschema::fact_schema() {
            return Err(WarehouseError::Pipeline(
                "fact table does not have the warehouse fact schema".into(),
            ));
        }
        fact.try_for_each_row(|vals| self.agg.fold(vals))?;
        // The table about to be written holds all of these groups.
        self.agg.take_changes()?;
        Ok(ResultSet {
            columns: self.agg.output_schema().names(),
            rows: self.agg.rows()?.into_iter().map(Row::new).collect(),
        })
    }
}

/// Upsert a pivoted delta (one row per event, sorted by `e_id`) into the
/// live pivot table: an event the table already holds takes the delta's
/// non-NULL cells — a delta may carry only some of an event's measurements,
/// and must not erase the ones applied before — and a new event is
/// appended. `None` (nothing touched) when a new event's id is not above
/// the table's last, so appending would break the table's `e_id` order.
fn upsert_pivot_delta(
    mart: &Connection,
    table: &str,
    delta: Vec<Row>,
    fact_hwm: i64,
    now_us: u64,
) -> Result<Option<u64>> {
    patch_mart_table(mart, table, fact_hwm, now_us, |t| {
        let e_id_of = |values: &[Value]| match values.first() {
            Some(Value::Int(e)) => Ok(*e),
            other => Err(WarehouseError::Pipeline(format!(
                "non-integer e_id {other:?} in pivoted mart table `{table}`"
            ))),
        };
        let mut last = match (0..t.physical_len()).rev().find_map(|p| t.row_at(p)) {
            Some(row) => Some(e_id_of(row.values())?),
            None => None,
        };
        let (mut updates, mut appends) = (Vec::new(), Vec::new());
        for row in delta {
            let values = row.into_values();
            let e_id = e_id_of(&values)?;
            let held = t.positions_of("e_id", &values[0])?;
            match held.first().and_then(|&pos| Some((pos, t.row_at(pos)?))) {
                Some((pos, live)) => {
                    let mut merged = live.into_values();
                    for (slot, v) in merged.iter_mut().zip(values) {
                        if !v.is_null() {
                            *slot = v;
                        }
                    }
                    updates.push((pos, merged));
                }
                None if last.is_some_and(|l| e_id <= l) => return Ok(None),
                None => {
                    last = Some(e_id);
                    appends.push((t.physical_len() + appends.len(), values));
                }
            }
        }
        updates.sort_unstable_by_key(|(pos, _)| *pos);
        updates.extend(appends);
        Ok(Some(updates))
    })
}

/// Convenience: the warehouse's current WAL head — the LSN a freshly
/// materialized mart subscribes at.
pub fn wal_head(warehouse: &Connection) -> u64 {
    warehouse.server().with_db(|db| db.wal_head_lsn())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::etl::{EtlPipeline, TransportMode};
    use crate::marts::materialize_into_mart;
    use gridfed_ntuple::{NtupleGenerator, NtupleSpec};
    use gridfed_simnet::cost::Cost;
    use gridfed_sqlkit::parser::parse_select;
    use gridfed_vendors::{SimServer, VendorKind};
    use std::sync::Arc;

    /// Source + WAL-enabled warehouse + one mart with a pivot and an
    /// aggregate view materialized, plus a stream subscribed at head.
    fn rig(
        spec: &NtupleSpec,
    ) -> (
        Arc<SimServer>,
        Arc<SimServer>,
        Arc<SimServer>,
        ReplicationStream,
    ) {
        let src = SimServer::new(VendorKind::MySql, "t2", "src");
        src.with_db_mut(|db| {
            NtupleGenerator::new(spec.clone(), 1)
                .populate_source_range(db, 0, spec.events - 20)
                .unwrap();
        });
        let wh = SimServer::new(VendorKind::Oracle, "t0", "warehouse");
        wh.with_db_mut(|db| db.enable_wal());
        let sconn = src.connect("grid", "grid").unwrap().value;
        let wconn = wh.connect("grid", "grid").unwrap().value;
        EtlPipeline::paper()
            .run_incremental(&sconn, &wconn)
            .unwrap();

        let mart = SimServer::new(VendorKind::MySql, "mart", "m");
        let mconn = mart.connect("grid", "grid").unwrap().value;
        let views = vec![
            ViewDef::Pivot {
                name: format!("{}_events", spec.name),
                spec: spec.clone(),
            },
            ViewDef::Sql {
                name: "run_counts".into(),
                query: parse_select(
                    "SELECT run_id, COUNT(*) AS n FROM fact_measurements GROUP BY run_id",
                )
                .unwrap(),
            },
        ];
        for v in &views {
            materialize_into_mart(v, &wconn, &mconn, &Topology::lan(), TransportMode::Direct)
                .unwrap();
        }
        let stream = ReplicationStream::subscribe(
            wconn,
            mconn,
            views,
            wal_head(&wh.connect("grid", "grid").unwrap().value),
            0,
        );
        (src, wh, mart, stream)
    }

    fn extend_source(src: &SimServer, spec: &NtupleSpec, first: usize, extra: usize) {
        src.with_db_mut(|db| {
            let mut gen = NtupleGenerator::new(spec.clone(), 1);
            let batch = gen.measurement_batch(first, extra);
            let events = db.table_mut("events").unwrap();
            for e in first..first + extra {
                events
                    .insert(vec![Value::Int(e as i64), Value::Int(0), Value::Float(1.0)])
                    .unwrap();
            }
            db.table_mut("measurements")
                .unwrap()
                .insert_many(batch)
                .unwrap();
        });
    }

    #[test]
    fn idle_poll_is_a_cheap_heartbeat_that_refreshes_age() {
        let spec = NtupleSpec::with_nvar("hb", 40, 3);
        let (_src, _wh, _mart, mut stream) = rig(&spec);
        let r = stream.poll(&Topology::lan(), 7_000).unwrap();
        assert_eq!(r.value.records, 0);
        assert!(r.value.refreshed.is_empty());
        assert_eq!(r.value.lag.lsn_delta(), 0);
        assert_eq!(r.value.lag.age_us(7_000), 0, "heartbeat re-verified");
        assert_eq!(r.value.lag.age_us(9_500), 2_500);
    }

    #[test]
    fn new_fact_rows_stream_into_the_pivot_view() {
        let spec = NtupleSpec::with_nvar("strm", 60, 4);
        let (src, wh, mart, mut stream) = rig(&spec);
        let pre = mart.with_db(|db| db.table("strm_events").unwrap().len());

        extend_source(&src, &spec, spec.events - 20, 20);
        EtlPipeline::paper()
            .run_incremental(
                &src.connect("grid", "grid").unwrap().value,
                &wh.connect("grid", "grid").unwrap().value,
            )
            .unwrap();

        let r = stream.poll(&Topology::lan(), 10_000).unwrap();
        assert!(r.value.records > 0);
        assert!(r.value.rows > 0);
        assert!(r.cost > Cost::ZERO);
        assert_eq!(r.value.lag.lsn_delta(), 0, "caught up in one poll");
        // The pivot view gained exactly the 20 new events…
        assert_eq!(
            mart.with_db(|db| db.table("strm_events").unwrap().len()),
            pre + 20
        );
        // …and the aggregate SQL view folded the same batch.
        let bumped: Vec<_> = r.value.refreshed.iter().map(|(t, _)| t.clone()).collect();
        assert!(bumped.contains(&"strm_events".to_string()));
        assert!(bumped.contains(&"run_counts".to_string()));
        // Replica pivot matches a fresh warehouse-side pivot exactly.
        let expect = wh
            .with_db(|db| crate::views::pivot_fact(db, &spec))
            .unwrap();
        let got = mart.with_db(|db| db.table("strm_events").unwrap().rows());
        assert_eq!(got.len(), expect.rows.len());
        assert_eq!(got, expect.rows);
        assert_eq!(run_counts(&mart), run_counts_over(&wh));
    }

    /// The aggregate view as the mart holds it / as the warehouse defines it.
    fn run_counts(mart: &SimServer) -> Vec<Row> {
        mart.with_db(|db| db.table("run_counts").unwrap().rows())
    }

    fn run_counts_over(wh: &SimServer) -> Vec<Row> {
        let q = parse_select("SELECT run_id, COUNT(*) AS n FROM fact_measurements GROUP BY run_id")
            .unwrap();
        wh.with_db(|db| gridfed_sqlkit::execute_select(&q, &gridfed_sqlkit::DatabaseProvider(db)))
            .unwrap()
            .rows
    }

    fn ingest(
        src: &Arc<SimServer>,
        wh: &Arc<SimServer>,
        spec: &NtupleSpec,
        first: usize,
        extra: usize,
    ) {
        extend_source(src, spec, first, extra);
        EtlPipeline::paper()
            .run_incremental(
                &src.connect("grid", "grid").unwrap().value,
                &wh.connect("grid", "grid").unwrap().value,
            )
            .unwrap();
    }

    /// The acceptance counter: at a fixed batch size an insert-only poll
    /// touches the same number of rows whatever the tables hold — it never
    /// reads the fact table outside the log, and it writes only the rows
    /// the batch changed.
    #[test]
    fn insert_only_poll_touches_rows_in_proportion_to_the_batch_not_the_tables() {
        let mut written = Vec::new();
        for events in [60, 1_500] {
            let spec = NtupleSpec::with_nvar("sz", events, 3);
            let (src, wh, mart, mut stream) = rig(&spec);
            assert_eq!(stream.fact_rows_scanned(), 0, "subscribing reads nothing");
            // The first batch finds the aggregate's accumulators empty and
            // rebuilds the stream: one pass over the fact table per view.
            ingest(&src, &wh, &spec, events - 20, 10);
            stream.poll(&Topology::lan(), 1_000).unwrap();
            let loaded = stream.fact_rows_scanned();
            assert_eq!(loaded, ((events - 10) * 3 * 2) as u64);

            ingest(&src, &wh, &spec, events - 10, 10);
            let r = stream.poll(&Topology::lan(), 2_000).unwrap().value;
            assert_eq!(
                stream.fact_rows_scanned(),
                loaded,
                "no scan outside the log"
            );
            // 10 new events upserted + the one run they all belong to.
            assert_eq!(r.rows, 10 + 1, "{events} events");
            written.push(r.rows);
            assert_eq!(run_counts(&mart), run_counts_over(&wh));
        }
        assert_eq!(written[0], written[1]);
    }

    /// A folded table rewritten by someone else — here a re-materialization,
    /// at the warehouse head — is no longer the table the accumulators
    /// describe: the stream rebuilds instead of patching it back to an
    /// older state.
    #[test]
    fn folded_table_rewritten_by_a_refresh_is_rebuilt_not_patched_over() {
        let spec = NtupleSpec::with_nvar("fgn", 60, 3);
        let (src, wh, mart, stream) = rig(&spec);
        let mut stream = stream.with_batch_limit(1);
        ingest(&src, &wh, &spec, spec.events - 20, 5);
        stream.poll(&Topology::lan(), 1_000).unwrap(); // fills the fold
        assert_eq!(stream.lag().lsn_delta(), 0);

        ingest(&src, &wh, &spec, spec.events - 15, 5);
        ingest(&src, &wh, &spec, spec.events - 10, 5);
        let refreshed = materialize_into_mart(
            &stream.views()[1],
            stream.warehouse(),
            stream.mart(),
            &Topology::lan(),
            TransportMode::Direct,
        )
        .unwrap();
        let meta = |mart: &SimServer| mart.with_db(|db| read_mart_meta(db, "run_counts").unwrap());
        assert_eq!(meta(&mart).version, refreshed.version);
        let hwm = meta(&mart).hwm;

        // One record's worth of poll: patching would write the state as of
        // that record over the refreshed table and move its hwm back.
        let r = stream.poll(&Topology::lan(), 3_000).unwrap().value;
        assert_eq!(r.lag.lsn_delta(), 0, "rebuilt at the head");
        assert!(meta(&mart).version > refreshed.version);
        assert_eq!(meta(&mart).hwm, hwm);
        assert_eq!(run_counts(&mart), run_counts_over(&wh));
        // Back on the log, and folding again.
        let scanned = stream.fact_rows_scanned();
        ingest(&src, &wh, &spec, spec.events - 5, 5);
        while stream.poll(&Topology::lan(), 4_000).unwrap().value.records > 0 {}
        assert_eq!(stream.fact_rows_scanned(), scanned);
        assert_eq!(run_counts(&mart), run_counts_over(&wh));
    }

    /// A subscriber behind a checkpoint cannot catch up from the log: the
    /// typed truncation error sends it through one rebuild, after which it
    /// is exactly as of the head it acknowledged.
    #[test]
    fn pull_below_a_checkpoint_rebuilds_from_the_live_warehouse() {
        let spec = NtupleSpec::with_nvar("ckpt", 40, 3);
        let (src, wh, mart, mut stream) = rig(&spec);
        ingest(&src, &wh, &spec, spec.events - 20, 10);
        ingest(&src, &wh, &spec, spec.events - 10, 10);
        let head = wh.with_db(|db| db.wal_head_lsn());
        // Someone checkpointed past this stream (it owes two records).
        wh.with_db_mut(|db| db.checkpoint_wal(head - 1));
        assert!(stream.acked_lsn() < head - 1);

        let r = stream.poll(&Topology::lan(), 4_000).unwrap().value;
        assert_eq!(r.records, 0, "nothing could be shipped");
        assert_eq!(r.refreshed.len(), 2, "both views rebuilt");
        assert_eq!(stream.acked_lsn(), head);
        assert_eq!(r.lag.lsn_delta(), 0);
        let expect = wh
            .with_db(|db| crate::views::pivot_fact(db, &spec))
            .unwrap();
        assert_eq!(
            mart.with_db(|db| db.table("ckpt_events").unwrap().rows()),
            expect.rows
        );
        assert_eq!(run_counts(&mart), run_counts_over(&wh));
        // The stream is back on the log: an idle poll is a heartbeat.
        let idle = stream.poll(&Topology::lan(), 5_000).unwrap().value;
        assert!(idle.refreshed.is_empty());
    }

    /// A delta that does not extend the pivot table in event order (here a
    /// late row for an event id below every held one) cannot be appended:
    /// the stream rebuilds and the table stays sorted.
    #[test]
    fn out_of_order_event_rebuilds_instead_of_appending() {
        let spec = NtupleSpec::with_nvar("ooo", 30, 3);
        let (_src, wh, mart, mut stream) = rig(&spec);
        let wconn = wh.connect("grid", "grid").unwrap().value;
        let mut row = wh
            .with_db(|db| db.table("fact_measurements").unwrap().rows()[0].clone())
            .into_values();
        row[0] = Value::Int(1_000_000); // m_id above the high-water mark
        row[1] = Value::Int(-7); // a new event sorting before all others
        wconn.insert_rows("fact_measurements", vec![row]).unwrap();

        let r = stream.poll(&Topology::lan(), 3_000).unwrap().value;
        assert_eq!(r.lag.lsn_delta(), 0);
        let expect = wh
            .with_db(|db| crate::views::pivot_fact(db, &spec))
            .unwrap();
        let got = mart.with_db(|db| db.table("ooo_events").unwrap().rows());
        assert_eq!(got[0].values()[0], Value::Int(-7));
        assert_eq!(got, expect.rows);
        assert_eq!(run_counts(&mart), run_counts_over(&wh));
    }

    #[test]
    fn capped_batches_converge_over_multiple_polls() {
        let spec = NtupleSpec::with_nvar("cap", 50, 5);
        let (src, wh, mart, stream) = rig(&spec);
        let mut stream = stream.with_batch_limit(1);
        extend_source(&src, &spec, spec.events - 20, 20);
        EtlPipeline::paper()
            .run_incremental(
                &src.connect("grid", "grid").unwrap().value,
                &wh.connect("grid", "grid").unwrap().value,
            )
            .unwrap();

        let mut polls = 0;
        loop {
            let r = stream.poll(&Topology::lan(), 1_000 + polls).unwrap();
            polls += 1;
            assert!(polls < 10_000, "stream failed to converge");
            if r.value.lag.lsn_delta() == 0 && r.value.records == 0 {
                break;
            }
        }
        assert_eq!(
            mart.with_db(|db| db.table("cap_events").unwrap().len()),
            spec.events,
            "split batches merged without erasing half-shipped events"
        );
        let expect = wh
            .with_db(|db| crate::views::pivot_fact(db, &spec))
            .unwrap();
        assert_eq!(
            mart.with_db(|db| db.table("cap_events").unwrap().rows()),
            expect.rows
        );
    }

    #[test]
    fn partition_fails_typed_and_stream_catches_up_after_heal() {
        use gridfed_faults::FaultPlan;

        let spec = NtupleSpec::with_nvar("part", 40, 3);
        let (src, wh, mart, mut stream) = rig(&spec);
        let topo = Topology::lan();
        let plan = Arc::new(FaultPlan::new(13).partition(
            "t0",
            "mart",
            Cost::ZERO,
            Some(Cost::from_millis(5)),
        ));
        topo.set_conditions(Arc::clone(&plan) as _);

        extend_source(&src, &spec, spec.events - 20, 20);
        EtlPipeline::paper()
            .run_incremental(
                &src.connect("grid", "grid").unwrap().value,
                &wh.connect("grid", "grid").unwrap().value,
            )
            .unwrap();

        let err = stream.poll(&topo, 5_000).unwrap_err();
        assert!(matches!(err, WarehouseError::Unreachable { .. }));
        // Lag age keeps growing while partitioned.
        assert!(stream.lag().age_us(5_000) >= 5_000);

        plan.set_now(Cost::from_millis(5)); // partition heals
        let r = stream.poll(&topo, 6_000).unwrap();
        assert_eq!(r.value.lag.lsn_delta(), 0);
        assert_eq!(
            mart.with_db(|db| db.table("part_events").unwrap().len()),
            spec.events
        );
        assert_eq!(stream.lag().age_us(6_000), 0);
    }

    #[test]
    fn update_snapshot_records_force_view_recompute() {
        let spec = NtupleSpec::with_nvar("snap", 30, 3);
        let (_src, wh, mart, mut stream) = rig(&spec);
        // An in-place warehouse UPDATE logs a Snapshot record.
        let wconn = wh.connect("grid", "grid").unwrap().value;
        let n = wconn
            .execute("UPDATE \"fact_measurements\" SET \"weight\" = 2.0 WHERE \"run_id\" = 0")
            .unwrap()
            .value;
        assert!(n > 0);
        let r = stream.poll(&Topology::lan(), 3_000).unwrap();
        assert!(r.value.refreshed.iter().any(|(t, _)| t == "snap_events"));
        // Every replicated weight reflects the update.
        mart.with_db(|db| {
            for row in db.table("snap_events").unwrap().scan() {
                assert_eq!(row.values()[3], Value::Float(2.0));
            }
        });
    }

    #[test]
    fn crashed_mart_stalls_replay_without_consuming_the_batch() {
        use gridfed_faults::FaultPlan;

        let spec = NtupleSpec::with_nvar("crash", 30, 3);
        let (src, wh, mart, mut stream) = rig(&spec);
        extend_source(&src, &spec, spec.events - 20, 5);
        EtlPipeline::paper()
            .run_incremental(
                &src.connect("grid", "grid").unwrap().value,
                &wh.connect("grid", "grid").unwrap().value,
            )
            .unwrap();

        let acked = stream.acked_lsn();
        let plan = Arc::new(FaultPlan::new(7).crash("m", Cost::ZERO, Some(Cost::from_millis(10))));
        mart.set_fault_plan(Arc::clone(&plan));
        assert!(matches!(
            stream.poll(&Topology::lan(), 2_000),
            Err(WarehouseError::Vendor(_))
        ));
        assert_eq!(stream.acked_lsn(), acked, "nothing consumed while down");

        plan.set_now(Cost::from_millis(10));
        let r = stream.poll(&Topology::lan(), 12_000).unwrap();
        assert!(r.value.records > 0);
        assert_eq!(r.value.lag.lsn_delta(), 0);
    }
}

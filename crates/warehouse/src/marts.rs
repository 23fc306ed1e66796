//! Stage 2: materializing warehouse views into data marts.
//!
//! "Views are created on the integrated data of the data warehouse, and
//! materialized on a new set of databases, which are made available locally
//! to the applications" (§4.3). Figure 5 measures exactly this stage.
//!
//! [`materialize_into_mart`] is the initial build: evaluate the view, build
//! a **shadow table**, then swap it over the live table in a single
//! storage-lock section. Readers serialized before the swap see the old
//! complete snapshot; readers after it see the new one; nobody ever sees a
//! missing or half-loaded table. Each mart table carries a monotonically
//! increasing **data version** and the warehouse high-water mark (`m_id`)
//! it was built from, persisted in the relational [`MART_META_TABLE`] and
//! flipped atomically with the data swap.
//!
//! After the build a mart is kept current by its replication stream
//! (`crate::repl`), which writes through the same two disciplines —
//! [`swap_in_shadow`] for whole tables and [`patch_mart_table`] for deltas.
//! Both flip data and metadata inside one storage-lock section, after every
//! step that can fail, so a reader sees (old data, old version) or (new
//! data, new version) and an error leaves the mart exactly as it was.

use crate::etl::fact_high_water_mark;
use crate::views::{evaluate_view, ViewDef};
use crate::{Result, WarehouseError};
use gridfed_simnet::cost::Cost;
use gridfed_simnet::disk::DiskProfile;
use gridfed_simnet::params::CostParams;
use gridfed_simnet::topology::Topology;
use gridfed_sqlkit::fold::ChangedRows;
use gridfed_storage::{ColumnDef, DataType, Database, Row, Schema, Table, Value};
use gridfed_vendors::Connection;

use crate::etl::TransportMode;

/// Per-mart relational metadata table: one row per mart table, recording
/// its data version, refresh time, source high-water mark, and row count.
/// Living inside the mart database itself makes freshness queryable
/// through the ordinary SQL surface (and lets a mediator seed its version
/// map when a mart is registered).
pub const MART_META_TABLE: &str = "gridfed_mart_meta";

/// Schema of [`MART_META_TABLE`].
#[allow(clippy::expect_used)] // five distinct static column names always make a schema
pub fn mart_meta_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("table_name", DataType::Text).not_null(),
        ColumnDef::new("version", DataType::Int).not_null(),
        ColumnDef::new("refreshed_us", DataType::Int).not_null(),
        ColumnDef::new("hwm", DataType::Int).not_null(),
        ColumnDef::new("row_count", DataType::Int).not_null(),
    ])
    .expect("static schema is valid")
}

/// One mart table's refresh metadata (a decoded [`MART_META_TABLE`] row).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MartMeta {
    /// Mart table the row describes.
    pub table: String,
    /// Monotonically increasing data version (1 = first materialization).
    pub version: u64,
    /// Virtual time (µs) of the refresh that produced this version.
    pub refreshed_us: u64,
    /// Warehouse fact high-water mark (`max m_id`) this version covers.
    pub hwm: i64,
    /// Live rows in the mart table at this version.
    pub rows: usize,
}

/// Read one table's metadata row, if the meta table and row exist.
pub fn read_mart_meta(db: &Database, table: &str) -> Option<MartMeta> {
    let meta = db.table(MART_META_TABLE).ok()?;
    let wanted = table.to_lowercase();
    meta.scan().find_map(|row| {
        let v = row.values();
        match (&v[0], &v[1], &v[2], &v[3], &v[4]) {
            (
                Value::Text(name),
                Value::Int(ver),
                Value::Int(at),
                Value::Int(hwm),
                Value::Int(n),
            ) if name.to_lowercase() == wanted => Some(MartMeta {
                table: name.clone(),
                version: (*ver).max(0) as u64,
                refreshed_us: (*at).max(0) as u64,
                hwm: *hwm,
                rows: (*n).max(0) as usize,
            }),
            _ => None,
        }
    })
}

/// All metadata rows of a mart database (empty if never materialized into).
pub fn read_all_mart_meta(db: &Database) -> Vec<MartMeta> {
    let Ok(meta) = db.table(MART_META_TABLE) else {
        return Vec::new();
    };
    meta.scan()
        .filter_map(|row| {
            let v = row.values();
            match (&v[0], &v[1], &v[2], &v[3], &v[4]) {
                (
                    Value::Text(name),
                    Value::Int(ver),
                    Value::Int(at),
                    Value::Int(hwm),
                    Value::Int(n),
                ) => Some(MartMeta {
                    table: name.clone(),
                    version: (*ver).max(0) as u64,
                    refreshed_us: (*at).max(0) as u64,
                    hwm: *hwm,
                    rows: (*n).max(0) as usize,
                }),
                _ => None,
            }
        })
        .collect()
}

/// The data version the next write of `table` gets. Called before the data
/// is touched: it also rejects a meta table that is not ours, which is the
/// one way [`write_mart_meta`] could fail after the data already changed.
fn next_version(db: &Database, table: &str) -> Result<u64> {
    if let Ok(meta) = db.table(MART_META_TABLE) {
        if meta.schema() != &mart_meta_schema() {
            return Err(WarehouseError::Pipeline(format!(
                "`{MART_META_TABLE}` does not have the mart metadata schema"
            )));
        }
    }
    Ok(read_mart_meta(db, table).map_or(0, |m| m.version) + 1)
}

/// Upsert one metadata row. Must be called inside the same storage-lock
/// section as the data write, after [`next_version`] vetted the meta table,
/// so data and version flip together.
fn write_mart_meta(db: &mut Database, meta: &MartMeta) -> Result<()> {
    if !db.has_table(MART_META_TABLE) {
        db.create_table(MART_META_TABLE, mart_meta_schema())
            .map_err(WarehouseError::Storage)?;
    }
    let wanted = meta.table.to_lowercase();
    let t = db
        .table_mut(MART_META_TABLE)
        .map_err(WarehouseError::Storage)?;
    t.delete_where(|row| matches!(&row.values()[0], Value::Text(n) if n.to_lowercase() == wanted));
    t.insert(vec![
        Value::Text(meta.table.clone()),
        Value::Int(meta.version as i64),
        Value::Int(meta.refreshed_us as i64),
        Value::Int(meta.hwm),
        Value::Int(meta.rows as i64),
    ])
    .map_err(WarehouseError::Storage)?;
    Ok(())
}

/// Outcome of materializing one view into one mart.
#[derive(Debug, Clone, PartialEq)]
pub struct MartReport {
    /// Mart table created.
    pub table: String,
    /// Rows moved.
    pub rows: usize,
    /// Payload moved, in bytes.
    pub bytes: usize,
    /// View evaluation + staging-write phase (lower curve of Figure 5).
    pub extract_cost: Cost,
    /// Transfer + mart-insert phase (upper curve of Figure 5).
    pub load_cost: Cost,
    /// Whether the phases overlapped (direct streaming).
    pub overlapped: bool,
    /// Data version the mart table holds after the build.
    pub version: u64,
}

impl MartReport {
    /// Total virtual time: phases sum when staged, overlap when direct.
    pub fn total(&self) -> Cost {
        if self.overlapped {
            self.extract_cost.par(self.load_cost)
        } else {
            self.extract_cost + self.load_cost
        }
    }

    /// Payload in kB.
    pub fn kilobytes(&self) -> f64 {
        self.bytes as f64 / 1000.0
    }
}

/// Name of the shadow table a refresh builds before swapping it live.
fn shadow_name(table: &str) -> String {
    format!("__shadow__{table}")
}

/// Materialize `view` from the warehouse into `mart` as table
/// `view.name()`, replacing prior contents via shadow build + atomic
/// swap and bumping the mart's data version. Returns the Figure-5 report.
pub fn materialize_into_mart(
    view: &ViewDef,
    warehouse: &Connection,
    mart: &Connection,
    topology: &Topology,
    mode: TransportMode,
) -> Result<MartReport> {
    let params = CostParams::paper_2005();
    let disk = DiskProfile::ide_2005();

    // ---- Extract: evaluate the view over the warehouse. ----
    let result = evaluate_view(view, warehouse)?;
    let schema = view.output_schema(warehouse, &result)?;
    let fact_hwm = fact_high_water_mark(warehouse).unwrap_or(-1);
    let rows = result.rows.len();
    let bytes: usize = result.rows.iter().map(Row::wire_size).sum();

    let mut extract_cost = params.etl_stream_setup + params.view_extract_per_row.scale(rows as f64);
    let link = topology.transfer(warehouse.server().host(), mart.server().host(), bytes);
    let mut load_cost =
        params.etl_stream_setup + link + params.mart_load_per_row.scale(rows as f64);
    if mode == TransportMode::Staged {
        extract_cost += disk.write_file(bytes);
        load_cost += disk.read_file(bytes);
    }

    let table = view.name().to_string();
    let values: Vec<Vec<Value>> = result.rows.into_iter().map(Row::into_values).collect();
    let version = swap_in_shadow(mart, &table, schema, values, fact_hwm, 0)?;

    Ok(MartReport {
        table,
        rows,
        bytes,
        extract_cost,
        load_cost,
        overlapped: mode == TransportMode::Direct,
        version,
    })
}

/// Patch a live mart table in place and flip its metadata row — the one
/// delta-apply rule of WAL replay. `plan`
/// reads the table and returns the rows to write by physical position,
/// ascending; positions from the table's length on are appends and must be
/// dense. `None` from `plan` means the delta cannot be expressed as a patch
/// of this table: nothing is touched, `None` is returned, and the caller
/// rebuilds. Every row is checked against the schema before the first
/// write. Returns the new data version.
pub(crate) fn patch_mart_table(
    mart: &Connection,
    table: &str,
    fact_hwm: i64,
    now_us: u64,
    plan: impl FnOnce(&Table) -> Result<Option<ChangedRows>>,
) -> Result<Option<u64>> {
    mart.server().with_db_mut(|db| -> Result<Option<u64>> {
        let version = next_version(db, table)?;
        let t = db.table_mut(table)?;
        let Some(changes) = plan(t)? else {
            return Ok(None);
        };
        let len = t.physical_len();
        let mut checked = Vec::with_capacity(changes.len());
        let mut appended = 0;
        for (pos, values) in changes {
            if pos >= len {
                if pos != len + appended {
                    return Err(WarehouseError::Pipeline(format!(
                        "patch of `{table}` appends at {pos}, past row {}",
                        len + appended
                    )));
                }
                appended += 1;
            }
            checked.push((pos, t.schema().check_row(values)?));
        }
        for (pos, values) in checked {
            if pos < len {
                t.update_at(pos, values)?;
            } else {
                t.insert(values)?;
            }
        }
        let rows = t.len();
        write_mart_meta(
            db,
            &MartMeta {
                table: table.to_string(),
                version,
                refreshed_us: now_us,
                hwm: fact_hwm,
                rows,
            },
        )?;
        Ok(Some(version))
    })
}

/// Build the shadow table (readers keep hitting the live one), then in a
/// *single* storage-lock section swap it over the live table, bump the
/// data version, and persist the metadata row. Returns the new version.
/// `pub(crate)` so the replication stream rebuilds views with the same
/// swap discipline.
pub(crate) fn swap_in_shadow(
    mart: &Connection,
    table: &str,
    schema: Schema,
    values: Vec<Vec<Value>>,
    fact_hwm: i64,
    now_us: u64,
) -> Result<u64> {
    let shadow = shadow_name(table);
    let row_count = values.len();

    // Phase 1: build the complete shadow. The live table is untouched, so
    // queries interleaving here still see the old complete snapshot.
    mart.server().with_db_mut(|db| -> Result<()> {
        if db.has_table(&shadow) {
            db.drop_table(&shadow).map_err(WarehouseError::Storage)?;
        }
        let t = db
            .create_table(&shadow, schema)
            .map_err(WarehouseError::Storage)?;
        t.insert_many(values).map_err(WarehouseError::Storage)?;
        Ok(())
    })?;

    // Phase 2: one atomic catalog mutation — swap table and version
    // together, so a reader sees either (old data, old version) or
    // (new data, new version), never a blend. Everything that can fail
    // (a corrupted meta table, a vanished shadow) fails before the swap,
    // leaving the live database exactly as it was — old data, old meta —
    // and the orphaned shadow is dropped so retries start clean.
    mart.server().with_db_mut(|db| -> Result<u64> {
        let promote = (|| -> Result<u64> {
            let version = next_version(db, table)?;
            db.replace_table(&shadow, table)
                .map_err(WarehouseError::Storage)?;
            write_mart_meta(
                db,
                &MartMeta {
                    table: table.to_string(),
                    version,
                    refreshed_us: now_us,
                    hwm: fact_hwm,
                    rows: row_count,
                },
            )?;
            Ok(version)
        })();
        if promote.is_err() {
            let _ = db.drop_table(&shadow);
        }
        promote
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::etl::EtlPipeline;
    use gridfed_ntuple::{NtupleGenerator, NtupleSpec};
    use gridfed_sqlkit::parser::parse_select;
    use gridfed_vendors::{SimServer, VendorKind};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    fn warehouse_with_data(spec: &NtupleSpec) -> Arc<SimServer> {
        let src = SimServer::new(VendorKind::MySql, "t2", "src");
        src.with_db_mut(|db| {
            NtupleGenerator::new(spec.clone(), 3)
                .populate_source(db)
                .unwrap();
        });
        let wh = SimServer::new(VendorKind::Oracle, "t0", "warehouse");
        EtlPipeline::paper()
            .run_batch(
                &src.connect("grid", "grid").unwrap().value,
                &wh.connect("grid", "grid").unwrap().value,
                None,
            )
            .unwrap();
        wh
    }

    #[test]
    fn pivot_view_materializes_into_mart() {
        let spec = NtupleSpec::tiny();
        let wh = warehouse_with_data(&spec);
        let mart = SimServer::new(VendorKind::MsSql, "mart.fnal", "mart1");
        let view = ViewDef::Pivot {
            name: "tiny_events".into(),
            spec: spec.clone(),
        };
        let report = materialize_into_mart(
            &view,
            &wh.connect("grid", "grid").unwrap().value,
            &mart.connect("grid", "grid").unwrap().value,
            &Topology::lan(),
            TransportMode::Staged,
        )
        .unwrap();
        assert_eq!(report.rows, spec.events);
        assert_eq!(report.version, 1);
        assert_eq!(
            mart.with_db(|db| db.table("tiny_events").unwrap().len()),
            spec.events
        );
        assert!(report.load_cost > report.extract_cost, "Fig 5 shape");
        // No shadow debris survives the swap; meta row is live.
        mart.with_db(|db| {
            assert!(!db.has_table(&shadow_name("tiny_events")));
            let meta = read_mart_meta(db, "tiny_events").unwrap();
            assert_eq!(meta.version, 1);
            assert_eq!(meta.rows, spec.events);
        });
    }

    #[test]
    fn rematerialization_replaces_contents_and_bumps_version() {
        let spec = NtupleSpec::tiny();
        let wh = warehouse_with_data(&spec);
        let mart = SimServer::new(VendorKind::Sqlite, "laptop", "local");
        let mconn = mart.connect("grid", "grid").unwrap().value;
        let wconn = wh.connect("grid", "grid").unwrap().value;
        let view = ViewDef::Pivot {
            name: "tiny_events".into(),
            spec: spec.clone(),
        };
        let first = materialize_into_mart(
            &view,
            &wconn,
            &mconn,
            &Topology::lan(),
            TransportMode::Staged,
        )
        .unwrap();
        let second = materialize_into_mart(
            &view,
            &wconn,
            &mconn,
            &Topology::lan(),
            TransportMode::Staged,
        )
        .unwrap();
        assert_eq!(
            mart.with_db(|db| db.table("tiny_events").unwrap().len()),
            spec.events
        );
        assert_eq!(first.version, 1);
        assert_eq!(second.version, 2);
    }

    #[test]
    fn sql_view_materializes_with_inferred_schema() {
        let spec = NtupleSpec::tiny();
        let wh = warehouse_with_data(&spec);
        let mart = SimServer::new(VendorKind::MySql, "mart2", "m");
        let view = ViewDef::Sql {
            name: "run_summary".into(),
            query: parse_select(
                "SELECT run_id, COUNT(*) AS n, AVG(value) AS avg_v \
                 FROM fact_measurements GROUP BY run_id ORDER BY run_id",
            )
            .unwrap(),
        };
        let report = materialize_into_mart(
            &view,
            &wh.connect("grid", "grid").unwrap().value,
            &mart.connect("grid", "grid").unwrap().value,
            &Topology::lan(),
            TransportMode::Direct,
        )
        .unwrap();
        assert_eq!(report.rows, spec.runs);
        mart.with_db(|db| {
            let t = db.table("run_summary").unwrap();
            assert_eq!(t.schema().names(), vec!["run_id", "n", "avg_v"]);
        });
    }

    #[test]
    fn wan_mart_costs_more_than_lan_mart() {
        let spec = NtupleSpec::tiny();
        let wh = warehouse_with_data(&spec);
        let wconn = wh.connect("grid", "grid").unwrap().value;
        let view = ViewDef::Pivot {
            name: "tiny_events".into(),
            spec,
        };
        let lan_mart = SimServer::new(VendorKind::MySql, "near", "m");
        let lan = materialize_into_mart(
            &view,
            &wconn,
            &lan_mart.connect("grid", "grid").unwrap().value,
            &Topology::lan(),
            TransportMode::Staged,
        )
        .unwrap();
        let mut wan_topo = Topology::lan();
        wan_topo.set_link("t0", "far", gridfed_simnet::link::Link::wan());
        let wan_mart = SimServer::new(VendorKind::MySql, "far", "m");
        let wan = materialize_into_mart(
            &view,
            &wconn,
            &wan_mart.connect("grid", "grid").unwrap().value,
            &wan_topo,
            TransportMode::Staged,
        )
        .unwrap();
        assert!(wan.total() > lan.total());
    }

    /// Helper: append `extra` events (run 0) with full measurement rows to
    /// the source, starting at event id `first`.
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

    /// Regression: a view's mart table must not change column types with
    /// the rows it happens to hold. Materialized over an empty fact table
    /// the schema used to be inferred as all-FLOAT, and INT once rows
    /// existed — so counts written into the empty-built table were widened
    /// to floats.
    #[test]
    fn view_over_empty_fact_table_keeps_its_column_types() {
        let spec = NtupleSpec::with_nvar("ty", 20, 3);
        let src = SimServer::new(VendorKind::MySql, "t2", "src");
        src.with_db_mut(|db| {
            NtupleGenerator::new(spec.clone(), 1)
                .populate_source_range(db, 0, 0)
                .unwrap();
        });
        let wh = SimServer::new(VendorKind::Oracle, "t0", "warehouse");
        let sconn = src.connect("grid", "grid").unwrap().value;
        let wconn = wh.connect("grid", "grid").unwrap().value;
        let mart = SimServer::new(VendorKind::MySql, "mart", "m");
        let mconn = mart.connect("grid", "grid").unwrap().value;
        let pipeline = EtlPipeline::paper();
        pipeline.run_incremental(&sconn, &wconn).unwrap();
        let view = ViewDef::Sql {
            name: "run_summary".into(),
            query: parse_select(
                "SELECT run_id, detector, COUNT(*) AS n, AVG(value) AS avg_v, MAX(m_id) AS last \
                 FROM fact_measurements GROUP BY run_id, detector ORDER BY run_id",
            )
            .unwrap(),
        };
        let types = || {
            mart.with_db(|db| {
                let t = db.table("run_summary").unwrap();
                let types: Vec<DataType> =
                    t.schema().columns().iter().map(|c| c.data_type).collect();
                (types, t.rows())
            })
        };
        let materialize = || {
            materialize_into_mart(
                &view,
                &wconn,
                &mconn,
                &Topology::lan(),
                TransportMode::Direct,
            )
            .unwrap()
        };
        assert_eq!(materialize().rows, 0);
        let (empty_types, rows) = types();
        assert!(rows.is_empty());
        assert_eq!(
            empty_types,
            [
                DataType::Int,
                DataType::Text,
                DataType::Int,
                DataType::Float,
                DataType::Int
            ]
        );

        extend_source(&src, &spec, 0, 20);
        pipeline.run_incremental(&sconn, &wconn).unwrap();
        assert!(materialize().rows > 0);
        let (full_types, rows) = types();
        assert_eq!(full_types, empty_types);
        let expect = evaluate_view(&view, &wconn).unwrap();
        assert_eq!(rows, expect.rows, "nothing was coerced on the way in");
    }

    /// Regression: a promotion that fails mid-way (here: the mart's meta
    /// table was corrupted, so persisting the version row errors after the
    /// shadow was built) must neither half-promote nor leave an orphaned
    /// `__shadow__<table>` behind.
    #[test]
    fn failed_promotion_cleans_up_shadow_and_keeps_old_snapshot() {
        let spec = NtupleSpec::tiny();
        let wh = warehouse_with_data(&spec);
        let mart = SimServer::new(VendorKind::MySql, "mart", "m");
        let wconn = wh.connect("grid", "grid").unwrap().value;
        let mconn = mart.connect("grid", "grid").unwrap().value;
        let view = ViewDef::Pivot {
            name: "tiny_events".into(),
            spec: spec.clone(),
        };
        materialize_into_mart(
            &view,
            &wconn,
            &mconn,
            &Topology::lan(),
            TransportMode::Staged,
        )
        .unwrap();

        // Corrupt the meta table: wrong arity makes write_mart_meta fail
        // *after* replace_table in the promotion section.
        mart.with_db_mut(|db| {
            db.drop_table(MART_META_TABLE).unwrap();
            db.create_table(
                MART_META_TABLE,
                Schema::new(vec![ColumnDef::new("x", DataType::Int)]).unwrap(),
            )
            .unwrap();
        });

        let err = materialize_into_mart(
            &view,
            &wconn,
            &mconn,
            &Topology::lan(),
            TransportMode::Staged,
        );
        assert!(err.is_err(), "corrupted meta must fail the refresh");
        mart.with_db(|db| {
            assert!(
                !db.has_table(&shadow_name("tiny_events")),
                "orphaned shadow left behind after failed promotion"
            );
            // The old snapshot is fully intact — promotion rolled back.
            assert_eq!(db.table("tiny_events").unwrap().len(), spec.events);
        });
    }

    /// Regression for the drop→create→insert window: readers hammering the
    /// table during repeated refreshes must always see a complete snapshot
    /// — never a missing table, never a partial row count.
    #[test]
    fn readers_never_observe_missing_or_partial_table_during_refresh() {
        let spec = NtupleSpec::tiny();
        let wh = warehouse_with_data(&spec);
        let mart = SimServer::new(VendorKind::MySql, "mart", "m");
        let wconn = wh.connect("grid", "grid").unwrap().value;
        let mconn = mart.connect("grid", "grid").unwrap().value;
        let view = ViewDef::Pivot {
            name: "tiny_events".into(),
            spec: spec.clone(),
        };
        materialize_into_mart(
            &view,
            &wconn,
            &mconn,
            &Topology::lan(),
            TransportMode::Staged,
        )
        .unwrap();

        let stop = Arc::new(AtomicBool::new(false));
        let expected = spec.events;
        // Each reader reports its first observation, so the refreshes below
        // provably run beside live readers however fast a refresh is.
        let (observed, first_observations) = std::sync::mpsc::channel();
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let mart = Arc::clone(&mart);
                let stop = Arc::clone(&stop);
                let mut observed = Some(observed.clone());
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let seen = mart.with_db(|db| db.table("tiny_events").map(|t| t.len()).ok());
                        match seen {
                            Some(n) => assert_eq!(
                                n, expected,
                                "reader saw a partial snapshot ({n} of {expected} rows)"
                            ),
                            None => panic!("reader saw a missing mart table"),
                        }
                        if let Some(first) = observed.take() {
                            first.send(()).expect("the writer is waiting");
                        }
                    }
                })
            })
            .collect();
        drop(observed);
        for _ in &readers {
            first_observations
                .recv()
                .expect("a reader died before its first observation");
        }

        for _ in 0..30 {
            materialize_into_mart(
                &view,
                &wconn,
                &mconn,
                &Topology::lan(),
                TransportMode::Staged,
            )
            .unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for reader in readers {
            reader.join().unwrap();
        }
        // 1 initial + 30 hammered refreshes.
        mart.with_db(|db| {
            assert_eq!(read_mart_meta(db, "tiny_events").unwrap().version, 31);
        });
    }
}

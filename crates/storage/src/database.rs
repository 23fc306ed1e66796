//! Named databases: a collection of tables plus a queryable catalog.

use crate::error::StorageError;
use crate::schema::Schema;
use crate::table::Table;
use crate::value::Value;
use crate::wal::{Wal, WalOp, WalRecord};
use crate::Result;
use crate::{normalize_ident, normalized};
use std::collections::BTreeMap;

/// A database: named tables behind a case-insensitive catalog.
///
/// `BTreeMap` keyed on the lower-cased name keeps catalog listings in a
/// deterministic order, which the XSpec generator relies on so that two
/// generations of an unchanged schema hash identically.
///
/// With [`Database::enable_wal`] every catalog mutation (and every data
/// mutation routed through [`Database::append_rows`] /
/// [`Database::log_snapshot`]) also appends an LSN-stamped record to the
/// database's write-ahead log — under the same `&mut self` exclusivity as
/// the mutation itself, so the log and the state can never disagree.
#[derive(Debug, Clone, Default)]
pub struct Database {
    name: String,
    tables: BTreeMap<String, Table>,
    wal: Option<Wal>,
}

impl Database {
    /// Create an empty database.
    pub fn new(name: impl Into<String>) -> Self {
        Database {
            name: name.into(),
            tables: BTreeMap::new(),
            wal: None,
        }
    }

    /// Database name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Turn on the write-ahead log. From this point every catalog
    /// mutation appends an LSN-stamped record; idempotent (re-enabling
    /// keeps the existing log).
    pub fn enable_wal(&mut self) {
        if self.wal.is_none() {
            self.wal = Some(Wal::new());
        }
    }

    /// The write-ahead log, when enabled.
    pub fn wal(&self) -> Option<&Wal> {
        self.wal.as_ref()
    }

    /// Highest LSN in the log (0 = WAL disabled or empty).
    pub fn wal_head_lsn(&self) -> u64 {
        self.wal.as_ref().map_or(0, Wal::head_lsn)
    }

    /// Log suffix past `since`, capped at `max` records (empty when the
    /// WAL is disabled); [`StorageError::WalTruncated`] when `since` lies
    /// below a checkpoint.
    pub fn wal_records_since(&self, since: u64, max: usize) -> Result<Vec<WalRecord>> {
        match &self.wal {
            Some(w) => w.records_since(since, max),
            None => Ok(Vec::new()),
        }
    }

    /// Checkpoint: drop log records with `lsn <= upto`, once every
    /// subscriber has acknowledged them (no-op when the WAL is disabled).
    pub fn checkpoint_wal(&mut self, upto: u64) {
        if let Some(w) = &mut self.wal {
            w.truncate_until(upto);
        }
    }

    fn log(&mut self, op: WalOp) {
        if let Some(w) = &mut self.wal {
            w.append(op);
        }
    }

    /// Create a table with the given schema.
    pub fn create_table(&mut self, name: impl Into<String>, schema: Schema) -> Result<&mut Table> {
        let name = name.into();
        let key = normalize_ident(&name);
        if self.tables.contains_key(&key) {
            return Err(StorageError::TableExists(name));
        }
        if self.wal.is_some() {
            self.log(WalOp::CreateTable {
                table: key.clone(),
                schema: schema.clone(),
            });
        }
        Ok(self.tables.entry(key).or_insert(Table::new(name, schema)))
    }

    /// Add an already-built table (see [`Table::from_columns`]) under its
    /// own name. With the WAL on, its rows are logged as one
    /// [`WalOp::Snapshot`], which a replica replays into the same table.
    pub fn add_table(&mut self, table: Table) -> Result<()> {
        let key = normalize_ident(table.name());
        if self.tables.contains_key(&key) {
            return Err(StorageError::TableExists(table.name().to_string()));
        }
        if self.wal.is_some() {
            self.log(WalOp::Snapshot {
                table: key.clone(),
                schema: table.schema().clone(),
                rows: table.scan().map(|r| r.into_values()).collect(),
            });
        }
        self.tables.insert(key, table);
        Ok(())
    }

    /// Drop a table; errors if absent.
    pub fn drop_table(&mut self, name: &str) -> Result<()> {
        let key = normalize_ident(name);
        self.tables
            .remove(&key)
            .ok_or_else(|| StorageError::NoSuchTable(name.to_string()))?;
        self.log(WalOp::DropTable { table: key });
        Ok(())
    }

    /// Bulk-append rows to a table *through the log*: rows that insert
    /// successfully are recorded as one [`WalOp::Insert`] before this
    /// returns (still under the caller's exclusive borrow). Stops at the
    /// first failing row, logging — and reporting — only the rows that
    /// actually landed, so the log matches the state even on error.
    pub fn append_rows(&mut self, table: &str, rows: Vec<Vec<Value>>) -> Result<usize> {
        let key = normalize_ident(table);
        let logging = self.wal.is_some();
        let t = self
            .tables
            .get_mut(&key)
            .ok_or_else(|| StorageError::NoSuchTable(table.to_string()))?;
        let mut landed: Vec<Vec<Value>> = Vec::with_capacity(if logging { rows.len() } else { 0 });
        let mut count = 0usize;
        let mut failed = None;
        for row in rows {
            let keep = if logging { Some(row.clone()) } else { None };
            match t.insert(row) {
                Ok(_) => {
                    count += 1;
                    if let Some(r) = keep {
                        landed.push(r);
                    }
                }
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            }
        }
        if !landed.is_empty() {
            self.log(WalOp::Insert {
                table: key,
                rows: landed,
            });
        }
        match failed {
            Some(e) => Err(e),
            None => Ok(count),
        }
    }

    /// Record the full post-state of `table` in the WAL (no-op when the
    /// WAL is disabled). The in-place mutation paths (UPDATE/DELETE) call
    /// this after mutating, still inside the same lock section.
    pub fn log_snapshot(&mut self, table: &str) -> Result<()> {
        if self.wal.is_none() {
            return Ok(());
        }
        let key = normalize_ident(table);
        let t = self
            .tables
            .get(&key)
            .ok_or_else(|| StorageError::NoSuchTable(table.to_string()))?;
        let schema = t.schema().clone();
        let rows: Vec<Vec<Value>> = t.rows().into_iter().map(|r| r.into_values()).collect();
        self.log(WalOp::Snapshot {
            table: key,
            schema,
            rows,
        });
        Ok(())
    }

    /// Look up a table by case-insensitive name.
    pub fn table(&self, name: &str) -> Result<&Table> {
        self.tables
            .get(&*normalized(name))
            .ok_or_else(|| StorageError::NoSuchTable(name.to_string()))
    }

    /// Mutable table lookup.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        self.tables
            .get_mut(&*normalized(name))
            .ok_or_else(|| StorageError::NoSuchTable(name.to_string()))
    }

    /// True if a table exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(&*normalized(name))
    }

    /// Names of all tables, sorted (original casing preserved).
    pub fn table_names(&self) -> Vec<String> {
        self.tables.values().map(|t| t.name().to_string()).collect()
    }

    /// Rename a table in place; errors if the source is absent or the
    /// destination already exists.
    pub fn rename_table(&mut self, from: &str, to: &str) -> Result<()> {
        let from_key = normalize_ident(from);
        let to_key = normalize_ident(to);
        if from_key != to_key
            && self.tables.contains_key(&to_key)
            && self.tables.contains_key(&from_key)
        {
            return Err(StorageError::TableExists(to.to_string()));
        }
        let Some(mut t) = self.tables.remove(&from_key) else {
            return Err(StorageError::NoSuchTable(from.to_string()));
        };
        t.set_name(to);
        self.tables.insert(to_key.clone(), t);
        self.log(WalOp::RenameTable {
            from: from_key,
            to: to_key,
        });
        Ok(())
    }

    /// Atomically replace `target` with the already-built `shadow` table:
    /// the shadow is renamed over the target in one catalog mutation, so a
    /// reader serialized after this call sees the new contents and one
    /// serialized before it saw the old — never an absent or partial table.
    /// The displaced target (if any) is dropped. Errors if `shadow` is absent.
    pub fn replace_table(&mut self, shadow: &str, target: &str) -> Result<()> {
        let shadow_key = normalize_ident(shadow);
        let target_key = normalize_ident(target);
        let Some(mut t) = self.tables.remove(&shadow_key) else {
            return Err(StorageError::NoSuchTable(shadow.to_string()));
        };
        t.set_name(target);
        self.tables.insert(target_key.clone(), t);
        self.log(WalOp::ReplaceTable {
            shadow: shadow_key,
            target: target_key,
        });
        Ok(())
    }

    /// Number of tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Total live rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(Table::len).sum()
    }

    /// Total approximate wire size of all table contents.
    pub fn wire_size(&self) -> usize {
        self.tables.values().map(Table::wire_size).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::value::{DataType, Value};

    fn schema() -> Schema {
        Schema::new(vec![ColumnDef::new("id", DataType::Int)]).unwrap()
    }

    #[test]
    fn create_lookup_drop() {
        let mut db = Database::new("tier2_mysql");
        db.create_table("Events", schema()).unwrap();
        assert!(db.has_table("events"));
        assert!(db.has_table("EVENTS"));
        assert_eq!(db.table("events").unwrap().name(), "Events");
        db.drop_table("EvEnTs").unwrap();
        assert!(!db.has_table("events"));
        assert!(matches!(
            db.table("events"),
            Err(StorageError::NoSuchTable(_))
        ));
    }

    #[test]
    fn add_table_registers_a_built_table_and_logs_its_rows() {
        let mut built = Table::new("Staged", schema());
        built.insert(vec![Value::Int(7)]).unwrap();
        let mut db = Database::new("d");
        db.enable_wal();
        db.add_table(built.clone()).unwrap();
        assert_eq!(db.table("staged").unwrap().rows(), built.rows());
        assert!(matches!(
            db.add_table(built.clone()),
            Err(StorageError::TableExists(_))
        ));
        // A replica replaying the log ends up with the same table.
        let mut replica = Database::new("r");
        for rec in db.wal_records_since(0, usize::MAX).unwrap() {
            crate::apply_wal_record(&mut replica, &rec).unwrap();
        }
        assert_eq!(replica.table("staged").unwrap().rows(), built.rows());
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut db = Database::new("d");
        db.create_table("t", schema()).unwrap();
        assert!(matches!(
            db.create_table("T", schema()),
            Err(StorageError::TableExists(_))
        ));
    }

    #[test]
    fn rename_table_moves_catalog_entry() {
        let mut db = Database::new("d");
        db.create_table("old", schema()).unwrap();
        db.table_mut("old")
            .unwrap()
            .insert(vec![Value::Int(7)])
            .unwrap();
        db.rename_table("OLD", "NewName").unwrap();
        assert!(!db.has_table("old"));
        assert_eq!(db.table("newname").unwrap().name(), "NewName");
        assert_eq!(db.table("newname").unwrap().len(), 1);
        assert!(matches!(
            db.rename_table("absent", "x"),
            Err(StorageError::NoSuchTable(_))
        ));
        db.create_table("other", schema()).unwrap();
        assert!(matches!(
            db.rename_table("newname", "other"),
            Err(StorageError::TableExists(_))
        ));
    }

    #[test]
    fn replace_table_swaps_shadow_over_target() {
        let mut db = Database::new("d");
        db.create_table("live", schema()).unwrap();
        db.table_mut("live")
            .unwrap()
            .insert(vec![Value::Int(1)])
            .unwrap();
        db.create_table("__shadow__live", schema()).unwrap();
        let s = db.table_mut("__shadow__live").unwrap();
        s.insert(vec![Value::Int(10)]).unwrap();
        s.insert(vec![Value::Int(11)]).unwrap();
        db.replace_table("__shadow__live", "live").unwrap();
        assert!(!db.has_table("__shadow__live"));
        let live = db.table("live").unwrap();
        assert_eq!(live.name(), "live");
        assert_eq!(live.len(), 2);
        // Also works when the target does not exist yet (first build).
        db.create_table("__shadow__fresh", schema()).unwrap();
        db.replace_table("__shadow__fresh", "fresh").unwrap();
        assert!(db.has_table("fresh"));
        assert!(matches!(
            db.replace_table("missing", "live"),
            Err(StorageError::NoSuchTable(_))
        ));
    }

    #[test]
    fn wal_records_every_catalog_and_data_mutation() {
        use crate::wal::WalOp;
        let mut db = Database::new("wh");
        db.create_table("pre_wal", schema()).unwrap();
        db.enable_wal();
        assert_eq!(db.wal_head_lsn(), 0, "enabling starts an empty log");

        db.create_table("t", schema()).unwrap();
        let n = db
            .append_rows("t", vec![vec![Value::Int(1)], vec![Value::Int(2)]])
            .unwrap();
        assert_eq!(n, 2);
        db.rename_table("t", "t2").unwrap();
        db.drop_table("t2").unwrap();
        let records = db.wal_records_since(0, usize::MAX).unwrap();
        assert_eq!(db.wal_head_lsn(), 4);
        assert!(matches!(&records[0].op, WalOp::CreateTable { table, .. } if table == "t"));
        assert!(matches!(&records[1].op, WalOp::Insert { rows, .. } if rows.len() == 2));
        assert!(
            matches!(&records[2].op, WalOp::RenameTable { from, to } if from == "t" && to == "t2")
        );
        assert!(matches!(&records[3].op, WalOp::DropTable { table } if table == "t2"));

        // Unlogged databases behave identically but record nothing.
        let mut plain = Database::new("plain");
        plain.create_table("t", schema()).unwrap();
        assert_eq!(
            plain.append_rows("t", vec![vec![Value::Int(1)]]).unwrap(),
            1
        );
        assert!(plain.wal().is_none());
        assert_eq!(plain.wal_head_lsn(), 0);
    }

    #[test]
    fn checkpoint_bounds_the_log_and_refuses_subscribers_behind_it() {
        let mut db = Database::new("wh");
        db.enable_wal();
        db.create_table("t", schema()).unwrap();
        for i in 0..4 {
            db.append_rows("t", vec![vec![Value::Int(i)]]).unwrap();
        }
        assert_eq!(db.wal().unwrap().len(), 5);
        db.checkpoint_wal(3);
        assert_eq!(db.wal().unwrap().len(), 2);
        assert_eq!(db.wal_head_lsn(), 5, "LSNs keep counting");
        assert_eq!(db.wal_records_since(3, usize::MAX).unwrap()[0].lsn, 4);
        assert!(matches!(
            db.wal_records_since(2, usize::MAX),
            Err(StorageError::WalTruncated {
                since: 2,
                truncated_upto: 3
            })
        ));
        // Without a WAL both calls are no-ops.
        let mut plain = Database::new("plain");
        plain.checkpoint_wal(9);
        assert!(plain.wal_records_since(0, 10).unwrap().is_empty());
    }

    #[test]
    fn append_rows_logs_only_landed_rows_on_failure() {
        use crate::wal::WalOp;
        let uniq = Schema::new(vec![ColumnDef::new("id", DataType::Int).unique()]).unwrap();
        let mut db = Database::new("wh");
        db.enable_wal();
        db.create_table("t", uniq).unwrap();
        let err = db.append_rows(
            "t",
            vec![
                vec![Value::Int(1)],
                vec![Value::Int(1)],
                vec![Value::Int(2)],
            ],
        );
        assert!(err.is_err());
        assert_eq!(db.table("t").unwrap().len(), 1, "stopped at the dup");
        let records = db.wal_records_since(1, usize::MAX).unwrap(); // skip CreateTable
        assert_eq!(records.len(), 1);
        assert!(matches!(&records[0].op, WalOp::Insert { rows, .. } if rows.len() == 1));
    }

    #[test]
    fn catalog_listing_is_sorted_and_counts_rows() {
        let mut db = Database::new("d");
        db.create_table("zeta", schema()).unwrap();
        db.create_table("alpha", schema()).unwrap();
        assert_eq!(db.table_names(), vec!["alpha", "zeta"]);
        db.table_mut("alpha")
            .unwrap()
            .insert(vec![Value::Int(1)])
            .unwrap();
        assert_eq!(db.total_rows(), 1);
        assert_eq!(db.table_count(), 2);
    }
}

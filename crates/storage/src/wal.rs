//! Per-database write-ahead log.
//!
//! When a database has its WAL enabled (the warehouse does; see
//! `Database::enable_wal`), every catalog or data mutation appends one
//! [`WalRecord`] — stamped with a monotonically increasing **log sequence
//! number** — *inside the same lock section as the mutation itself*, so
//! the log is an exact, ordered account of how the database reached its
//! current state. Replaying the full log into an empty database
//! reproduces the live contents bit-for-bit; replaying the suffix past an
//! acknowledged LSN is exactly what a replication stream ships to a
//! replica (see `gridfed-warehouse`'s `repl` module).
//!
//! The record vocabulary is deliberately coarse where it can afford to
//! be: `INSERT`s log the rows themselves (the replication hot path), while
//! `UPDATE`/`DELETE` — cold paths for a warehouse that is append-mostly by
//! construction — log a [`WalOp::Snapshot`] of the table's post-state.

use crate::database::Database;
use crate::error::StorageError;
use crate::schema::Schema;
use crate::value::Value;
use crate::Result;

/// One logged mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// A table was created (schema ops replicate too).
    CreateTable {
        /// Normalized table name.
        table: String,
        /// The schema it was created with.
        schema: Schema,
    },
    /// A table was dropped.
    DropTable {
        /// Normalized table name.
        table: String,
    },
    /// A table was renamed.
    RenameTable {
        /// Normalized source name.
        from: String,
        /// Normalized destination name.
        to: String,
    },
    /// A shadow table was atomically promoted over a live one (the
    /// mart-refresh swap; the displaced target, if any, is dropped).
    ReplaceTable {
        /// Normalized shadow-table name.
        shadow: String,
        /// Normalized target name.
        target: String,
    },
    /// Rows appended to a table (the replication hot path).
    Insert {
        /// Normalized table name.
        table: String,
        /// The appended rows, in insertion order, schema column order.
        rows: Vec<Vec<Value>>,
    },
    /// Full post-state of a table after an in-place mutation
    /// (UPDATE/DELETE): schema plus every live row. Replay drops and
    /// rebuilds the table.
    Snapshot {
        /// Normalized table name.
        table: String,
        /// Schema at snapshot time.
        schema: Schema,
        /// Every live row at snapshot time.
        rows: Vec<Vec<Value>>,
    },
}

impl WalOp {
    /// Approximate wire size of this record's payload — what shipping it
    /// over a simnet link costs.
    pub fn wire_size(&self) -> usize {
        match self {
            WalOp::CreateTable { table, .. } => 64 + table.len(),
            WalOp::DropTable { table } => 16 + table.len(),
            WalOp::RenameTable { from, to } => 16 + from.len() + to.len(),
            WalOp::ReplaceTable { shadow, target } => 16 + shadow.len() + target.len(),
            WalOp::Insert { table, rows } | WalOp::Snapshot { table, rows, .. } => {
                16 + table.len()
                    + rows
                        .iter()
                        .map(|r| r.iter().map(Value::wire_size).sum::<usize>())
                        .sum::<usize>()
            }
        }
    }

    /// Rows this record carries (0 for pure catalog ops).
    pub fn row_count(&self) -> usize {
        match self {
            WalOp::Insert { rows, .. } | WalOp::Snapshot { rows, .. } => rows.len(),
            _ => 0,
        }
    }

    /// Normalized name of the table this record primarily concerns (the
    /// *target* for a replace, the destination for a rename).
    pub fn table(&self) -> &str {
        match self {
            WalOp::CreateTable { table, .. }
            | WalOp::DropTable { table }
            | WalOp::Insert { table, .. }
            | WalOp::Snapshot { table, .. } => table,
            WalOp::RenameTable { to, .. } => to,
            WalOp::ReplaceTable { target, .. } => target,
        }
    }
}

/// One WAL entry: an LSN-stamped [`WalOp`].
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// Log sequence number: 1, 2, 3, … with no gaps.
    pub lsn: u64,
    /// The logged mutation.
    pub op: WalOp,
}

/// The write-ahead log of one database: an ordered, densely LSN-stamped
/// record sequence. `Clone` rides the copy-on-write transaction path of
/// the vendor layer for free — a rolled-back transaction's appends die
/// with its discarded snapshot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Wal {
    records: Vec<WalRecord>,
    /// LSN the next append receives (head + 1). Survives truncation.
    next_lsn: u64,
}

impl Wal {
    /// An empty log; the first append gets LSN 1.
    pub fn new() -> Wal {
        Wal {
            records: Vec::new(),
            next_lsn: 1,
        }
    }

    /// Append one record, returning its LSN.
    pub fn append(&mut self, op: WalOp) -> u64 {
        let lsn = self.next_lsn.max(1);
        self.records.push(WalRecord { lsn, op });
        self.next_lsn = lsn + 1;
        lsn
    }

    /// Highest LSN ever appended (0 = empty log).
    pub fn head_lsn(&self) -> u64 {
        self.next_lsn.max(1) - 1
    }

    /// Records with `lsn > since`, oldest first, at most `max` of them.
    /// This is the pull-replication primitive: a replica asks for
    /// everything past its last acknowledged LSN. A `since` below the
    /// truncated prefix is [`StorageError::WalTruncated`]: the records the
    /// replica still owes are gone, and silently skipping them would leave
    /// it permanently wrong.
    pub fn records_since(&self, since: u64, max: usize) -> Result<Vec<WalRecord>> {
        let truncated_upto = self.truncated_upto();
        if since < truncated_upto {
            return Err(StorageError::WalTruncated {
                since,
                truncated_upto,
            });
        }
        // Records are dense and ordered, so the start is found by offset
        // from the truncation point rather than a scan.
        let skip = (since - truncated_upto) as usize;
        Ok(self.records.iter().skip(skip).take(max).cloned().collect())
    }

    /// Records at or below this LSN have been truncated away (0 = the log
    /// is complete).
    pub fn truncated_upto(&self) -> u64 {
        match self.records.first() {
            Some(r) => r.lsn - 1,
            None => self.head_lsn(),
        }
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Drop records with `lsn <= upto` (checkpoint truncation once every
    /// subscriber has acknowledged them). LSNs keep counting from where
    /// they were.
    pub fn truncate_until(&mut self, upto: u64) {
        let n = self.records.partition_point(|r| r.lsn <= upto);
        self.records.drain(..n);
    }
}

/// Apply one WAL record to a database (replica replay). Uses the plain
/// catalog/table mutators, so replaying into a database that itself has a
/// WAL enabled re-logs the ops — cascading replication, which is
/// deliberate; plain replicas just leave their WAL disabled.
pub fn apply_wal_record(db: &mut Database, rec: &WalRecord) -> Result<()> {
    match &rec.op {
        WalOp::CreateTable { table, schema } => {
            db.create_table(table.clone(), schema.clone())?;
            Ok(())
        }
        WalOp::DropTable { table } => db.drop_table(table),
        WalOp::RenameTable { from, to } => db.rename_table(from, to),
        WalOp::ReplaceTable { shadow, target } => db.replace_table(shadow, target),
        WalOp::Insert { table, rows } => {
            db.table_mut(table)?.insert_many(rows.clone())?;
            Ok(())
        }
        WalOp::Snapshot {
            table,
            schema,
            rows,
        } => {
            if db.has_table(table) {
                db.drop_table(table)?;
            }
            db.create_table(table.clone(), schema.clone())?
                .insert_many(rows.clone())?;
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::value::DataType;

    fn schema() -> Schema {
        Schema::new(vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("tag", DataType::Text),
        ])
        .unwrap()
    }

    #[test]
    fn lsns_are_dense_and_monotonic() {
        let mut wal = Wal::new();
        assert_eq!(wal.head_lsn(), 0);
        for i in 1..=5u64 {
            let lsn = wal.append(WalOp::DropTable {
                table: format!("t{i}"),
            });
            assert_eq!(lsn, i);
        }
        assert_eq!(wal.head_lsn(), 5);
        assert_eq!(wal.len(), 5);
    }

    #[test]
    fn records_since_returns_the_suffix() {
        let mut wal = Wal::new();
        for i in 0..10 {
            wal.append(WalOp::DropTable {
                table: format!("t{i}"),
            });
        }
        let tail = wal.records_since(7, 100).unwrap();
        assert_eq!(tail.len(), 3);
        assert_eq!(tail[0].lsn, 8);
        let capped = wal.records_since(0, 4).unwrap();
        assert_eq!(capped.len(), 4);
        assert_eq!(capped[0].lsn, 1);
        assert!(wal.records_since(10, 100).unwrap().is_empty());
        assert!(wal.records_since(99, 100).unwrap().is_empty());
    }

    #[test]
    fn truncation_keeps_lsn_arithmetic_valid() {
        let mut wal = Wal::new();
        for i in 0..10 {
            wal.append(WalOp::DropTable {
                table: format!("t{i}"),
            });
        }
        wal.truncate_until(6);
        assert_eq!(wal.len(), 4);
        assert_eq!(wal.head_lsn(), 10);
        let tail = wal.records_since(8, 100).unwrap();
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].lsn, 9);
        // Appends keep counting.
        assert_eq!(wal.append(WalOp::DropTable { table: "x".into() }), 11);
    }

    #[test]
    fn pull_below_the_truncated_prefix_is_a_typed_error() {
        let mut wal = Wal::new();
        for i in 0..10 {
            wal.append(WalOp::DropTable {
                table: format!("t{i}"),
            });
        }
        wal.truncate_until(6);
        assert_eq!(wal.truncated_upto(), 6);
        assert_eq!(
            wal.records_since(5, 100),
            Err(StorageError::WalTruncated {
                since: 5,
                truncated_upto: 6
            })
        );
        // Exactly at the truncation point nothing is missing.
        assert_eq!(wal.records_since(6, 100).unwrap()[0].lsn, 7);
        // A fully truncated log still refuses a subscriber that is behind
        // it, and still serves one that is not.
        wal.truncate_until(10);
        assert!(wal.is_empty());
        assert!(wal.records_since(9, 100).is_err());
        assert!(wal.records_since(10, 100).unwrap().is_empty());
    }

    #[test]
    fn full_replay_reproduces_database_state() {
        let mut db = Database::new("primary");
        db.enable_wal();
        db.create_table("events", schema()).unwrap();
        db.append_rows(
            "events",
            vec![
                vec![Value::Int(1), Value::Text("a".into())],
                vec![Value::Int(2), Value::Text("b".into())],
            ],
        )
        .unwrap();
        db.create_table("__shadow__events", schema()).unwrap();
        db.append_rows("__shadow__events", vec![vec![Value::Int(9), Value::Null]])
            .unwrap();
        db.replace_table("__shadow__events", "events").unwrap();
        db.create_table("other", schema()).unwrap();
        db.rename_table("other", "renamed").unwrap();
        db.drop_table("renamed").unwrap();

        let records = db.wal().unwrap().records_since(0, usize::MAX).unwrap();
        let mut replica = Database::new("replica");
        for rec in &records {
            apply_wal_record(&mut replica, rec).unwrap();
        }
        assert_eq!(replica.table_names(), db.table_names());
        assert_eq!(
            replica.table("events").unwrap().rows(),
            db.table("events").unwrap().rows()
        );
    }

    #[test]
    fn snapshot_replay_rebuilds_table() {
        let mut db = Database::new("replica");
        db.create_table("t", schema()).unwrap();
        db.table_mut("t")
            .unwrap()
            .insert(vec![Value::Int(1), Value::Null])
            .unwrap();
        let rec = WalRecord {
            lsn: 1,
            op: WalOp::Snapshot {
                table: "t".into(),
                schema: schema(),
                rows: vec![
                    vec![Value::Int(5), Value::Text("x".into())],
                    vec![Value::Int(6), Value::Null],
                ],
            },
        };
        apply_wal_record(&mut db, &rec).unwrap();
        assert_eq!(db.table("t").unwrap().len(), 2);
    }

    #[test]
    fn wire_size_tracks_payload() {
        let small = WalOp::DropTable { table: "t".into() };
        let big = WalOp::Insert {
            table: "t".into(),
            rows: vec![vec![Value::Int(1), Value::Text("payload".into())]; 100],
        };
        assert!(big.wire_size() > small.wire_size() * 10);
        assert_eq!(big.row_count(), 100);
        assert_eq!(small.row_count(), 0);
    }
}

//! The WAL reader and replayer under hostile input: a typed error or a
//! correct answer, never a panic.
//!
//! A replica hands the log its own acknowledged LSN and a batch cap; both
//! arrive from outside. `Wal::records_since`, `Database::wal_records_since`
//! and `Connection::pull_wal` are driven at `since` ∈ {0, checkpoint − 1,
//! checkpoint, head, head + 1, `u64::MAX`, anything} and `max` up to
//! `usize::MAX`, over logs of random ops with random checkpoints: each call
//! returns exactly the retained records past `since`, at most `max` of
//! them, in a vector no larger than what it returns, or the typed
//! `WalTruncated` when `since` lies below the checkpoint.
//!
//! `apply_wal_record` replays whatever a log carries, so it is fed
//! arbitrary `WalOp`s against a database that may or may not hold their
//! tables: missing tables, duplicate and case-colliding creates, renames
//! and replaces onto themselves, rows of the wrong arity, type or
//! nullability, unique-key collisions (NaN and `-0.0` included), and
//! snapshots over existing tables. Every call must succeed or return a
//! `StorageError`, and leave every table internally consistent.

mod common;

use common::Rng;
use gridfed::prelude::*;
use gridfed::storage::{apply_wal_record, StorageError, Wal, WalOp, WalRecord};
use gridfed::vendors::{SimServer, VendorError};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Cases per property.
const CASES: u64 = 10_000;

/// Table names: a small pool, so ops meet existing tables, absent ones and
/// case-insensitive collisions.
const NAMES: [&str; 4] = ["a", "b", "c", "A"];

fn name(s: &mut Rng) -> String {
    NAMES[s.below(NAMES.len())].to_string()
}

fn value(s: &mut Rng) -> Value {
    match s.below(12) {
        0 => Value::Null,
        1 => Value::Int(i64::MIN),
        2 => Value::Int(i64::MAX),
        3..=5 => Value::Int(s.below(4) as i64),
        6 => Value::Float(f64::NAN),
        7 => Value::Float(-0.0),
        8 => Value::Float(s.below(3) as f64),
        9 => Value::Text(["", "x", "\"q\""][s.below(3)].into()),
        10 => Value::Bool(s.below(2) == 0),
        _ => Value::Bytes(vec![0; s.below(3)]),
    }
}

fn schema(s: &mut Rng) -> Schema {
    let types = [
        DataType::Int,
        DataType::Float,
        DataType::Text,
        DataType::Bool,
        DataType::Bytes,
    ];
    let columns = ["id", "v", "w"][..s.below(4)]
        .iter()
        .map(|c| {
            let mut col = ColumnDef::new(*c, types[s.below(types.len())]);
            if s.below(3) == 0 {
                col = col.unique();
            }
            if s.below(3) == 0 {
                col = col.not_null();
            }
            col
        })
        .collect();
    Schema::new(columns).expect("distinct column names")
}

fn rows(s: &mut Rng, arity: usize) -> Vec<Vec<Value>> {
    (0..s.below(5))
        .map(|_| {
            // Mostly the table's arity, sometimes one off.
            let n = match s.below(6) {
                0 => arity + 1,
                1 => arity.saturating_sub(1),
                _ => arity,
            };
            (0..n).map(|_| value(s)).collect()
        })
        .collect()
}

fn op(s: &mut Rng, db: &Database) -> WalOp {
    let table = name(s);
    let arity = db.table(&table).map_or(2, |t| t.schema().arity());
    match s.below(7) {
        0 => WalOp::CreateTable {
            table,
            schema: schema(s),
        },
        1 => WalOp::DropTable { table },
        2 => WalOp::RenameTable {
            from: table,
            to: name(s),
        },
        3 => WalOp::ReplaceTable {
            shadow: table,
            target: name(s),
        },
        4 => {
            let schema = schema(s);
            let rows = rows(s, schema.arity());
            WalOp::Snapshot {
                table,
                schema,
                rows,
            }
        }
        _ => WalOp::Insert {
            rows: rows(s, arity),
            table,
        },
    }
}

/// Every table's rows, length and unique columns agree with each other.
fn consistent(db: &Database) -> bool {
    db.table_names().iter().all(|n| {
        let t = db.table(n).expect("listed");
        let rows = t.rows();
        rows.len() == t.len()
            && t.schema().columns().iter().enumerate().all(|(c, col)| {
                if !col.unique {
                    return true;
                }
                let keys: Vec<&Value> = rows
                    .iter()
                    .map(|r| &r.values()[c])
                    .filter(|v| !v.is_null())
                    .collect();
                let distinct = keys
                    .iter()
                    .map(|v| format!("{v:?}"))
                    .collect::<HashSet<_>>();
                distinct.len() == keys.len() && t.index(&col.name).is_ok()
            })
    })
}

#[test]
fn apply_wal_record_is_typed_on_arbitrary_ops() {
    let (mut ok, mut refused) = (0, 0);
    for case in 0..CASES {
        let mut s = Rng(case);
        let mut db = Database::new("replica");
        for step in 0..1 + s.below(8) {
            let rec = WalRecord {
                lsn: s.next(),
                op: op(&mut s, &db),
            };
            let applied = catch_unwind(AssertUnwindSafe(|| apply_wal_record(&mut db, &rec)));
            match applied {
                Ok(Ok(())) => ok += 1,
                Ok(Err(_)) => refused += 1,
                Err(_) => panic!("case {case} step {step}: {rec:?} panicked"),
            }
            assert!(consistent(&db), "case {case} step {step}: {rec:?}");
        }
    }
    // Both outcomes are common, so neither half is vacuous.
    assert!(
        ok > CASES as usize && refused > CASES as usize,
        "{ok} / {refused}"
    );
}

/// The calls a subscriber can make, with their expected answer computed
/// from the retained records alone.
fn check_reads(case: u64, s: &mut Rng, db: &Database, server: &Arc<SimServer>) {
    let wal = db.wal().expect("enabled");
    let (checkpoint, head) = (wal.truncated_upto(), wal.head_lsn());
    let retained = wal
        .records_since(checkpoint, usize::MAX)
        .expect("at checkpoint");
    assert_eq!(retained.len(), wal.len());
    let conn = server.connect("grid", "grid").expect("login").value;
    let sinces = [
        0,
        checkpoint.saturating_sub(1),
        checkpoint,
        head,
        head + 1,
        u64::MAX,
        s.next(),
        s.next() % (head + 2),
    ];
    let maxes = [0, 1, s.below(8), usize::MAX];
    for since in sinces {
        for max in maxes {
            let at = format!(
                "case {case}: since {since} max {max} (checkpoint {checkpoint}, head {head})"
            );
            let want: Result<Vec<WalRecord>, StorageError> = if since < checkpoint {
                Err(StorageError::WalTruncated {
                    since,
                    truncated_upto: checkpoint,
                })
            } else {
                Ok(retained
                    .iter()
                    .filter(|r| r.lsn > since)
                    .take(max)
                    .cloned()
                    .collect())
            };
            let got = catch_unwind(|| wal.records_since(since, max))
                .unwrap_or_else(|_| panic!("{at}: records_since panicked"));
            assert_eq!(got, want, "{at}");
            if let Ok(records) = &got {
                assert_eq!(records.capacity(), records.len(), "{at}: allocation");
                assert!(records.windows(2).all(|w| w[1].lsn == w[0].lsn + 1), "{at}");
            }
            assert_eq!(db.wal_records_since(since, max), want, "{at}: database");
            let pulled = conn.pull_wal(since, max).map(|b| b.value);
            match (&pulled, &want) {
                (Ok(batch), Ok(records)) => {
                    assert_eq!(&batch.records, records, "{at}: pull_wal");
                    assert_eq!(batch.head_lsn, head, "{at}: pull_wal head");
                    assert_eq!(
                        batch.records.capacity(),
                        records.len(),
                        "{at}: pull_wal allocation"
                    );
                }
                (Err(VendorError::Storage(e)), Err(w)) => assert_eq!(e, w, "{at}: pull_wal"),
                _ => panic!("{at}: pull_wal gave {pulled:?}"),
            }
        }
    }
}

#[test]
fn wal_reads_are_exact_or_typed_at_every_since_and_max() {
    let mut truncated = 0;
    for case in 0..CASES {
        let mut s = Rng(case ^ 0x5EED);
        let server = SimServer::new(VendorKind::MySql, "h", "warehouse");
        server.with_db_mut(|db| {
            db.enable_wal();
            for _ in 0..s.below(12) {
                let rec = WalRecord {
                    lsn: 0,
                    op: op(&mut s, db),
                };
                let _ = apply_wal_record(db, &rec);
            }
            // A checkpoint anywhere, past the head included.
            if s.below(3) != 0 {
                let upto = s.next() % (db.wal_head_lsn() + 3);
                db.checkpoint_wal(upto);
            }
        });
        let db = server.with_db(Database::clone);
        if db.wal().expect("enabled").truncated_upto() > 0 {
            truncated += 1;
        }
        check_reads(case, &mut s, &db, &server);
    }
    assert!(truncated > CASES / 3, "checkpoints reached: {truncated}");

    // A log of its own, and a database without one.
    let mut wal = Wal::new();
    assert_eq!(wal.records_since(u64::MAX, usize::MAX), Ok(Vec::new()));
    for i in 0..5 {
        wal.append(WalOp::DropTable {
            table: format!("t{i}"),
        });
    }
    wal.truncate_until(u64::MAX);
    assert!(wal.is_empty());
    assert_eq!(wal.truncated_upto(), 5);
    assert!(matches!(
        wal.records_since(4, usize::MAX),
        Err(StorageError::WalTruncated { .. })
    ));
    assert_eq!(wal.records_since(u64::MAX, usize::MAX), Ok(Vec::new()));
    let plain = Database::new("plain");
    assert_eq!(
        plain.wal_records_since(u64::MAX, usize::MAX),
        Ok(Vec::new())
    );
}

//! A prepared plan is the plan: a server's statement cache ≡ planning afresh.
//!
//! Every `SimServer` keeps the plans of the SELECTs it receives, keyed by
//! their text and reused while the statement and every catalog answer the
//! optimizer read for it — each named table's columns, and the row counts
//! it sized a join chain by — are what they were (DESIGN.md §4.4, "Plan
//! once, at the backend too"). This suite drives one
//! server of each vendor through a seeded schedule of the statements the
//! mediator ships — pushed filters, `IN` lists, `BLOOM_HAS` probes,
//! single-database joins of two and three tables, `SELECT *`, `LIMIT`
//! (which the MS-SQL dialect cannot print, so statements that differ only
//! there arrive as one text), aggregates, and statements that fail —
//! through both doors (`query_stmt` with the AST, `query` with the dialect
//! text), interleaved with every event that moves a catalog answer: rows
//! inserted, a table replaced by one of another schema and as many rows,
//! dropped and re-created, renamed away and back, and a crash window. After
//! every statement the server's answer, or its error, must equal
//! `execute_select` — which plans from scratch — on the same database at
//! the same instant.
//!
//! A second test follows a statement whose scan the table's key index
//! seeds (DESIGN.md §4.10, "Key-seeded scans"): it is priced from the live
//! row count, as a full scan of the same table is, and answers with the
//! rows the table holds now through inserts, deletes and a compaction that
//! leave the kept plan as it was.
//!
//! In builds with debug assertions (how `cargo test` builds this suite)
//! every reuse also asserts, inside the server, that the kept plan equals
//! the one planning would produce.

use gridfed_faults::FaultPlan;
use gridfed_sqlkit::ast::SelectStmt;
use gridfed_sqlkit::bloom::BloomFilter;
use gridfed_sqlkit::exec::{execute_select, DatabaseProvider};
use gridfed_sqlkit::parser::parse_select;
use gridfed_sqlkit::render::render_select;
use gridfed_sqlkit::ResultSet;
use gridfed_storage::{ColumnDef, DataType, Database, Schema, Value};
use gridfed_vendors::{Connection, SimServer, VendorError, VendorKind};
use std::sync::Arc;

const SEEDS: u64 = 24;
const STEPS: usize = 30;
const VENDORS: [VendorKind; 4] = [
    VendorKind::Oracle,
    VendorKind::MySql,
    VendorKind::MsSql,
    VendorKind::Sqlite,
];
const TAGS: [&str; 3] = ["ecal", "hcal", "muon"];

/// Deterministic splitmix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn schema(columns: &[(&str, DataType)]) -> Schema {
    Schema::new(
        columns
            .iter()
            .map(|(name, ty)| ColumnDef::new(*name, *ty))
            .collect(),
    )
    .expect("schema")
}

/// An `ev` row: `e_id`, `run_id`, `energy`, `tag`.
fn event(rng: &mut Rng, e_id: i64) -> Vec<Value> {
    vec![
        Value::Int(e_id),
        Value::Int(rng.below(5) as i64),
        Value::Float(rng.below(80) as f64 / 8.0),
        Value::Text(TAGS[rng.below(3) as usize].into()),
    ]
}

/// `ev` (events), `runs` and `det`, a few rows each.
fn server(kind: VendorKind, rng: &mut Rng) -> Arc<SimServer> {
    let server = SimServer::new(kind, "tier2.test", "marts");
    server.with_db_mut(|db| {
        let ev = schema(&[
            ("e_id", DataType::Int),
            ("run_id", DataType::Int),
            ("energy", DataType::Float),
            ("tag", DataType::Text),
        ]);
        let rows = (0..8 + rng.below(12) as i64)
            .map(|id| event(rng, id))
            .collect();
        db.create_table("ev", ev)
            .unwrap()
            .insert_many(rows)
            .unwrap();
        let runs = schema(&[("run_id", DataType::Int), ("n", DataType::Int)]);
        let rows = (0..5)
            .map(|r| vec![Value::Int(r), Value::Int(10 * r)])
            .collect();
        db.create_table("runs", runs)
            .unwrap()
            .insert_many(rows)
            .unwrap();
        let det = schema(&[("tag", DataType::Text), ("w", DataType::Float)]);
        let rows = TAGS
            .iter()
            .map(|t| vec![Value::Text((*t).into()), Value::Float(t.len() as f64)])
            .collect();
        db.create_table("det", det)
            .unwrap()
            .insert_many(rows)
            .unwrap();
    });
    server
}

/// One of the statements the mediator ships, `k` a pushed literal.
fn statement(rng: &mut Rng) -> SelectStmt {
    let k = rng.below(12);
    let sql = match rng.below(13) {
        0 => format!("SELECT e_id, energy FROM ev WHERE e_id < {k}"),
        1 => "SELECT e_id, tag FROM ev WHERE energy > 2.5 AND tag = 'ecal'".to_string(),
        2 => format!("SELECT e_id FROM ev WHERE run_id IN (1, 3, {})", k % 5),
        3 => {
            let mut bloom = BloomFilter::with_capacity(2);
            bloom.insert(&Value::Int(1));
            bloom.insert(&Value::Int((k % 5) as i64));
            format!(
                "SELECT e_id, run_id FROM ev WHERE BLOOM_HAS(run_id, '{}')",
                bloom.to_hex()
            )
        }
        4 => format!(
            "SELECT ev.e_id, runs.n FROM ev JOIN runs ON ev.run_id = runs.run_id \
             WHERE ev.e_id < {k}"
        ),
        // Three tables: the optimizer orders the chain by row counts, and
        // the order shows in the order of the rows.
        5 => "SELECT ev.e_id, runs.n, det.w FROM ev JOIN runs ON ev.run_id = runs.run_id \
              JOIN det ON ev.tag = det.tag"
            .to_string(),
        6 => "SELECT det.tag, ev.e_id, runs.n FROM det JOIN ev ON ev.tag = det.tag \
              JOIN runs ON runs.run_id = ev.run_id WHERE ev.energy > 1.0"
            .to_string(),
        // The columns `*` stands for are the catalog's.
        7 => "SELECT * FROM ev WHERE e_id < 4".to_string(),
        8 => "SELECT * FROM runs".to_string(),
        // MS-SQL prints no LIMIT: three statements, one text.
        9 => format!("SELECT e_id FROM ev ORDER BY e_id DESC LIMIT {}", 1 + k % 3),
        10 => "SELECT tag, COUNT(*) AS n FROM ev GROUP BY tag ORDER BY tag".to_string(),
        11 => "SELECT nope FROM ev".to_string(),
        _ => "SELECT e_id FROM gone WHERE e_id < 3".to_string(),
    };
    parse_select(&sql).expect("the pool parses")
}

/// What is out of the ordinary on a server, and for how many more steps:
/// a crash window, `ev` renamed away.
#[derive(Default)]
struct Windows {
    crashed: usize,
    renamed: usize,
}

impl Windows {
    /// One step passes: a window whose time is up closes.
    fn step(&mut self, server: &SimServer) {
        if self.crashed == 1 {
            server.clear_fault_plan();
        }
        if self.renamed == 1 {
            server.with_db_mut(|db| db.rename_table("gone", "ev").unwrap());
        }
        self.crashed = self.crashed.saturating_sub(1);
        self.renamed = self.renamed.saturating_sub(1);
    }
}

/// One event that moves a catalog answer of `server`'s database.
fn apply(server: &SimServer, rng: &mut Rng, windows: &mut Windows) {
    let arg = rng.below(4) as usize;
    match rng.below(6) {
        // Rows arrive: `ev`'s count moves, or `det`'s and `runs`'.
        0 => server.with_db_mut(|db| {
            let Ok(ev) = db.table_mut("ev") else { return };
            let first = 1_000 + ev.len() as i64;
            let rows = (first..first + 1 + arg as i64)
                .map(|id| event(rng, id))
                .collect();
            let _ = ev.insert_many(rows);
        }),
        1 => server.with_db_mut(|db| {
            let table = ["det", "runs"][arg % 2];
            let Ok(t) = db.table_mut(table) else { return };
            let rows: Vec<Vec<Value>> = (0..1 + arg)
                .map(|i| match table {
                    "det" => vec![Value::Text(TAGS[i % 3].into()), Value::Float(i as f64)],
                    _ => vec![Value::Int(i as i64), Value::Int(7)],
                })
                .collect();
            if t.schema().arity() == 2 {
                let _ = t.insert_many(rows);
            }
        }),
        // `ev` replaced by a table of the same rows under another schema: a
        // column added, the columns reordered, or `tag` renamed.
        2 => server.with_db_mut(|db| {
            let Ok(ev) = db.table("ev") else { return };
            let rows: Vec<Vec<Value>> = ev.rows().into_iter().map(|r| r.into_values()).collect();
            let names = ev.schema().names();
            let types: Vec<DataType> = ev.schema().columns().iter().map(|c| c.data_type).collect();
            let mut columns: Vec<(String, DataType)> = names.into_iter().zip(types).collect();
            let mut rows = rows;
            match arg {
                0 => {
                    columns.push((format!("extra{}", columns.len()), DataType::Int));
                    rows.iter_mut().for_each(|r| r.push(Value::Int(1)));
                }
                1 => {
                    columns.rotate_left(1);
                    rows.iter_mut().for_each(|r| r.rotate_left(1));
                }
                _ => {
                    if let Some(c) = columns.iter_mut().find(|(n, _)| n == "tag" || n == "label") {
                        c.0 = if c.0 == "tag" { "label" } else { "tag" }.to_string();
                    }
                }
            }
            let columns: Vec<(&str, DataType)> =
                columns.iter().map(|(n, t)| (n.as_str(), *t)).collect();
            db.create_table("ev_shadow", schema(&columns))
                .unwrap()
                .insert_many(rows)
                .unwrap();
            db.replace_table("ev_shadow", "ev").unwrap();
        }),
        // `runs` dropped and created again: fewer rows, or a column less.
        3 => server.with_db_mut(|db| {
            let _ = db.drop_table("runs");
            let (columns, rows): (&[(&str, DataType)], usize) = match arg % 2 {
                0 => (&[("run_id", DataType::Int), ("n", DataType::Int)], 1 + arg),
                _ => (&[("run_id", DataType::Int)], 5),
            };
            let rows = (0..rows)
                .map(|r| {
                    let mut row = vec![Value::Int(r as i64)];
                    row.extend((1..columns.len()).map(|_| Value::Int(3 * r as i64)));
                    row
                })
                .collect();
            db.create_table("runs", schema(columns))
                .unwrap()
                .insert_many(rows)
                .unwrap();
        }),
        // `ev` renamed to `gone` for a few steps.
        4 => {
            if windows.renamed == 0 {
                server.with_db_mut(|db| db.rename_table("ev", "gone").unwrap());
                windows.renamed = 1 + arg;
            }
        }
        // A crash window of a few steps.
        _ => {
            if windows.crashed == 0 {
                let plan =
                    FaultPlan::new(rng.next()).crash(server.db_name(), Default::default(), None);
                server.set_fault_plan(Arc::new(plan));
                windows.crashed = 1 + arg;
            }
        }
    }
}

/// What planning afresh answers for `stmt` on `server` now.
fn fresh(server: &SimServer, stmt: &SelectStmt, crashed: bool) -> Result<ResultSet, VendorError> {
    if crashed {
        return Err(VendorError::Unavailable {
            server: server.db_name().to_string(),
        });
    }
    let run = |db: &Database| execute_select(stmt, &DatabaseProvider(db));
    server.with_db(run).map_err(VendorError::Sql)
}

/// Ask `stmt` through one of the two doors; the answer and the answer
/// planning afresh gives for what the server received.
fn ask(
    server: &SimServer,
    conn: &Connection,
    stmt: &SelectStmt,
    as_text: bool,
    crashed: bool,
) -> (
    Result<ResultSet, VendorError>,
    Result<ResultSet, VendorError>,
) {
    if as_text {
        let text = render_select(stmt, &server.dialect().style());
        let received = parse_select(&text).expect("a rendered statement parses");
        let answer = conn.query(&text).map(|t| t.value);
        (answer, fresh(server, &received, crashed))
    } else {
        let answer = conn.query_stmt(stmt).map(|t| t.value);
        (answer, fresh(server, stmt, crashed))
    }
}

#[test]
fn prepared_plans_answer_as_planning_afresh_does() {
    let (mut cases, mut answered, mut failed) = (0usize, 0usize, 0usize);
    for seed in 0..SEEDS {
        for kind in VENDORS {
            let mut rng = Rng(seed ^ 0x7072_6570 ^ (kind as u64) << 32);
            let server = server(kind, &mut rng);
            let conn = server.connect("grid", "grid").expect("connects").value;
            let mut windows = Windows::default();
            for step in 0..STEPS {
                windows.step(&server);
                if rng.below(3) == 0 {
                    apply(&server, &mut rng, &mut windows);
                }
                let crashed = windows.crashed > 0;
                // Each statement twice, through either door: the second
                // time is a reuse unless the first one re-planned.
                let stmt = statement(&mut rng);
                for _ in 0..2 {
                    let as_text = rng.below(2) == 0;
                    let (answer, expected) = ask(&server, &conn, &stmt, as_text, crashed);
                    let at = format!(
                        "seed {seed} {kind:?} step {step} ({}): {}",
                        if as_text { "text" } else { "AST" },
                        render_select(&stmt, &server.dialect().style())
                    );
                    assert_eq!(answer, expected, "{at}");
                    cases += 1;
                    answered += usize::from(answer.is_ok());
                    failed += usize::from(answer.is_err());
                }
            }
        }
    }
    assert!(cases >= 2_000, "{cases}");
    // Both outcomes are exercised.
    assert!(
        answered > cases / 2 && failed > cases / 10,
        "{answered} / {failed}"
    );
}

/// `keyed` of `rows` rows, `e_id` a primary key (and so indexed) or a plain
/// column; a connection to its server.
fn keyed_server(kind: VendorKind, indexed: bool, rows: i64) -> (Arc<SimServer>, Connection) {
    let server = SimServer::new(kind, "tier2.test", "marts");
    server.with_db_mut(|db| {
        let e_id = ColumnDef::new("e_id", DataType::Int);
        let e_id = if indexed { e_id.primary_key() } else { e_id };
        let columns = vec![e_id, ColumnDef::new("run_id", DataType::Int)];
        db.create_table("keyed", Schema::new(columns).expect("schema"))
            .unwrap()
            .insert_many(
                (0..rows)
                    .map(|i| vec![Value::Int(i), Value::Int(i % 7)])
                    .collect(),
            )
            .unwrap();
    });
    let conn = server.connect("grid", "grid").expect("connects").value;
    (server, conn)
}

#[test]
fn key_seeded_statements_cost_the_stamp_and_answer_the_current_rows() {
    let sql = "SELECT e_id, run_id FROM keyed WHERE e_id < 20";
    for kind in VENDORS {
        let twins = [true, false].map(|indexed| keyed_server(kind, indexed, 400));
        for step in 0..8i64 {
            for (server, _) in &twins {
                server.with_db_mut(|db| {
                    let t = db.table_mut("keyed").unwrap();
                    match step % 4 {
                        // A row of the range deleted, one put in: the row
                        // count unchanged.
                        1 => {
                            t.delete_where(|r| r.values()[0] == Value::Int(step));
                            t.insert(vec![Value::Int(-step), Value::Int(0)]).unwrap();
                        }
                        // Rows inserted, in and out of the range.
                        2 => {
                            t.insert(vec![Value::Int(-100 - step), Value::Int(1)])
                                .unwrap();
                            t.insert(vec![Value::Int(500 + step), Value::Int(2)])
                                .unwrap();
                        }
                        // Tombstones dropped: every position moves, the count stays.
                        3 => t.compact(),
                        _ => {}
                    }
                });
            }
            let [seeded, full] = twins.each_ref().map(|(_, conn)| conn.query(sql).unwrap());
            let server = &twins[0].0;
            let (live, expected) = server.with_db(|db| {
                let t = db.table("keyed").unwrap();
                let below =
                    |r: &gridfed_storage::Row| matches!(r.values()[0], Value::Int(e) if e < 20);
                (
                    t.len(),
                    t.rows().into_iter().filter(below).collect::<Vec<_>>(),
                )
            });
            let at = format!("{kind:?} step {step}");
            assert_eq!(seeded.value.rows, expected, "{at}");
            assert_eq!(full.value.rows, expected, "{at}");
            let p = server.params();
            let price = (p.per_subquery
                + p.per_row_scan.scale(live as f64)
                + p.per_row_fetch.scale(expected.len() as f64))
            .scale(kind.perf_multiplier());
            assert_eq!(
                seeded.cost, price,
                "{at}: priced per live row, not per row read"
            );
            assert_eq!(full.cost, price, "{at}");
        }
    }
}

//! The local hand-off, differentially: the mediator answers a federated
//! join as `gridfed-reference` does over the grid's merged database
//! (`tests/common`), and fetches what the row route fetches — each
//! sub-query run through `Connection::query_stmt`, its rows wrapped by
//! `Partial::from_result` and integrated by `federate::integrate_metered`,
//! the route the benchmark's traced replay takes: both answer or both
//! fail, with the same rows fetched and partial bytes, on the POOL route
//! (MySQL mart) and the kept JDBC route (MS-SQL mart) under `Session`, and
//! on fresh connections under `PerQuery`.
//!
//! The two tables hold every value class, NULLs, an all-NULL column and
//! tombstoned rows, and their TEXT columns were filled in different orders,
//! so a TEXT join pairs codes of two unrelated dictionaries.
//!
//! A second property runs sub-queries straight at each backend, the
//! decomposer's plain column lists and shapes it never ships — expression
//! items, aggregates, `DISTINCT`, `ORDER BY … LIMIT`, erroring expressions:
//! the typed columns a server answers for a column list equal its rows
//! staged by the one rows → columns routine, any other shape answers the
//! same rows as `query_stmt`, and a statement fails on both routes only
//! where the reference fails too.

mod common;

use common::{answer_of, assert_promise, bits, two_sources, Merged, Rng};
use gridfed::core::decompose::{self, Home, QueryPlan, TableResolver};
use gridfed::core::federate::{self, Partial};
use gridfed::core::service::ConnectionPolicy;
use gridfed::core::CoreError;
use gridfed::poolral::PoolRal;
use gridfed::prelude::*;
use gridfed::sqlkit::parser::parse_select;
use gridfed::sqlkit::plan::build_plan;
use gridfed::sqlkit::result::{stage_rows, Cells};
use gridfed::storage::ColumnChunk;
use gridfed::vendors::SimServer;
use gridfed::xspec::DataDictionary;
use std::sync::Arc;

const TEXTS: [&str; 7] = ["", "a", "b", "é", "ab", "zz", "q"];
const FLOATS: [f64; 6] = [-0.0, 0.0, 1.5, -2.25, 1e300, f64::NAN];

/// `ho_a` on the MySQL mart, `ho_b` on the MS-SQL mart: `rows` rows each of
/// every class (`k` INT with repeats, `x` FLOAT, `s` TEXT, `b` BOOL, `y`
/// BYTES, `m` INT about a third NULL, `z` INT always NULL), then every row
/// whose `k` is 3 mod 7 deleted. `ho_b`'s strings are drawn from the pool
/// reversed, so the two TEXT dictionaries disagree on every code.
fn add_tables(marts: &[Arc<SimServer>], seed: u64) {
    let mut rng = Rng(seed);
    for (mart, name, rows, reversed) in [
        (&marts[0], "ho_a", 40, false),
        (&marts[1], "ho_b", 25, true),
    ] {
        let mut texts = TEXTS;
        if reversed {
            texts.reverse();
        }
        let cells: Vec<Vec<Value>> = (0..rows)
            .map(|_| {
                let k = Value::Int(rng.below(20) as i64);
                let x = Value::Float(rng.pick(&FLOATS));
                let s = Value::Text(rng.pick(&texts).to_string());
                let b = Value::Bool(rng.below(2) == 0);
                let y = Value::Bytes(vec![7; rng.below(3)]);
                let m = Value::Int(rng.below(9) as i64 - 4);
                let mut row = vec![k, x, s, b, y, m, Value::Null];
                // A sixth of the cells NULL, a third of `m`'s; never `k`.
                for (c, cell) in row.iter_mut().enumerate().skip(1) {
                    if rng.below(if c == 5 { 3 } else { 6 }) == 0 {
                        *cell = Value::Null;
                    }
                }
                row
            })
            .collect();
        mart.with_db_mut(|db| {
            let schema = Schema::new(vec![
                ColumnDef::new("k", DataType::Int),
                ColumnDef::new("x", DataType::Float),
                ColumnDef::new("s", DataType::Text),
                ColumnDef::new("b", DataType::Bool),
                ColumnDef::new("y", DataType::Bytes),
                ColumnDef::new("m", DataType::Int),
                ColumnDef::new("z", DataType::Int),
            ])?;
            let table = db.create_table(name, schema)?;
            for row in cells {
                table.insert(row)?;
            }
            table.delete_where(|row| matches!(row.get(0), Some(Value::Int(k)) if k % 7 == 3));
            Ok::<_, gridfed::storage::StorageError>(())
        })
        .expect("a test table");
    }
}

fn grid(policy: ConnectionPolicy, seed: u64) -> Grid {
    let g = two_sources(seed, 40)
        .with_connection_policy(policy)
        .build()
        .expect("grid builds");
    add_tables(&g.marts, seed);
    for das in &g.services {
        das.refresh_schemas().expect("schemas refresh");
    }
    g
}

/// Client statements: every one joins `ho_a` with `ho_b`, so each is
/// federated across the two marts.
fn statements(rng: &mut Rng) -> Vec<String> {
    let j = |on: &str| format!("FROM ho_a a JOIN ho_b b ON a.{on} = b.{on}");
    let mut out = vec![
        // TEXT keys from two dictionaries, every class fetched.
        format!(
            "SELECT a.k, a.s, a.y, b.x, b.b, b.s {} ORDER BY a.k, b.k",
            j("s")
        ),
        // No ORDER BY: the hash join's own order must match too.
        format!("SELECT a.*, b.y, b.m {}", j("k")),
        format!("SELECT a.x, b.x, a.k {}", j("x")),
        format!("SELECT a.b, b.y, a.s {}", j("b")),
        // All-NULL columns on both sides.
        format!("SELECT a.z, b.z, a.m {}", j("k")),
        // Aggregates and DISTINCT over the join.
        format!(
            "SELECT b.s, COUNT(*) AS n, SUM(a.m) AS t, MAX(a.x) AS mx {} GROUP BY b.s ORDER BY b.s",
            j("k")
        ),
        format!("SELECT DISTINCT a.b, b.s {}", j("k")),
    ];
    for _ in 0..3 {
        let v = rng.below(20) as i64;
        let n = rng.below(12) + 1;
        out.extend([
            // A pushed filter that empties one side (FLOAT staging of
            // columns without a value), or most of it.
            format!("SELECT a.k, a.s, b.s {} WHERE a.k > {}", j("k"), v + 20),
            format!(
                "SELECT a.k, b.x {} WHERE a.k < {v} AND b.m IS NOT NULL",
                j("k")
            ),
            // Expression items and ORDER BY … LIMIT at the mediator.
            format!(
                "SELECT a.k * 2 + b.k AS e, a.s, b.x {} WHERE a.m < {} ORDER BY e, a.s LIMIT {n}",
                j("s"),
                v % 5
            ),
            // A filter that divides, which stays above the join: it errors
            // only where a joined row has k = v, as over one database; and
            // a residual expression that errors at the mediator.
            format!("SELECT a.k, b.k {} WHERE 10 / (a.k - {v}) > 0", j("s")),
            format!("SELECT 100 / (a.m - b.m) AS q, a.k {}", j("k")),
        ]);
    }
    out
}

/// The mediator's dictionary as a resolver, as the benchmark's replay
/// resolves: each table's first location, its registered columns.
struct Dict(DataDictionary);

impl TableResolver for Dict {
    fn resolve(&self, logical: &str) -> gridfed::core::Result<Home> {
        let loc = self.0.resolve_table(logical).into_iter().next();
        loc.map(Home::Local)
            .ok_or_else(|| CoreError::TableNotFound(logical.to_string()))
    }

    fn columns_of(&self, logical: &str) -> Option<Vec<String>> {
        self.0.columns_of(logical).ok()
    }
}

/// What the row route answers for `sql`, with the rows and bytes it
/// fetched; an error as the mediator would report it.
fn row_route(g: &Grid, sql: &str) -> Result<(ResultSet, usize, usize), String> {
    let stmt = parse_select(sql).expect("parses");
    let dict = Dict(g.services[0].dictionary_snapshot());
    let plan = decompose::plan(&stmt, &dict).map_err(|e| e.to_string())?;
    let QueryPlan::Federated {
        mut tasks,
        residual,
        ..
    } = plan
    else {
        panic!("`{sql}` is not federated");
    };
    // The mediator gathers local branches by database name, so its first
    // error is the first in that order.
    let database = |home: &Home| match home {
        Home::Local(loc) => loc.database.clone(),
        Home::Remote { server_url } => panic!("`{sql}` reached {server_url}"),
    };
    tasks.sort_by_key(|t| database(&t.home));
    let (mut partials, mut rows, mut bytes) = (Vec::new(), 0, 0);
    for task in &tasks {
        let Home::Local(loc) = &task.home else {
            unreachable!("sorted above")
        };
        let conn = g.registry.connect(&loc.url).expect("connects").value;
        let answer = conn
            .query_stmt(&task.subquery)
            .map_err(|e| CoreError::from(e).to_string())?;
        let partial = Partial::from_result(task.table.clone(), answer.value);
        rows += partial.rows.len();
        bytes += partial.wire_size();
        partials.push(partial);
    }
    let (rs, _) = federate::integrate_metered(&residual, &partials).map_err(|e| e.to_string())?;
    Ok((rs, rows, bytes))
}

#[test]
fn the_mediator_answers_as_the_row_route_replays() {
    let (mut answered, mut failed) = (0, 0);
    for (policy, seed) in [
        (ConnectionPolicy::Session, 11),
        (ConnectionPolicy::PerQuery, 12),
        (ConnectionPolicy::Session, 13),
        (ConnectionPolicy::PerQuery, 14),
        (ConnectionPolicy::Session, 15),
        (ConnectionPolicy::PerQuery, 16),
    ] {
        let g = grid(policy, seed);
        let merged = Merged::of(&g);
        let mut rng = Rng(seed);
        for sql in statements(&mut rng) {
            let replayed = row_route(&g, &sql);
            for distjoin in [false, true] {
                g.services[0].reconfigure(|c| c.distjoin = distjoin);
                let got = g.query(&sql);
                let at = format!("{policy:?} distjoin {distjoin}: `{sql}`");
                assert_promise(&at, &sql, answer_of(&got), &merged);
                assert_eq!(
                    got.is_ok(),
                    replayed.is_ok(),
                    "{at}: row route {replayed:?}"
                );
                // Reductions fetch less by design; without them the fetch
                // is the row route's, row for row and byte for byte.
                if distjoin {
                    continue;
                }
                let Ok((q, (_, rows, bytes))) = got
                    .as_ref()
                    .map(|q| (q, replayed.as_ref().expect("both answered")))
                else {
                    failed += 1;
                    continue;
                };
                assert_eq!(q.stats.rows_fetched, *rows, "{at}");
                assert_eq!(q.stats.bytes_fetched, *bytes, "{at}");
                answered += 1;
            }
        }
    }
    println!("{answered} statements answered, {failed} failed");
    // The statements reach both outcomes.
    assert!(
        answered > 80 && failed > 5,
        "{answered} answered, {failed} failed"
    );
}

/// Two chunks hold the same column: one type, one length, the same null
/// bits, the same value at every other position (by debug form, so NaN
/// equals NaN), and for TEXT the same dictionary — what a NULL's data slot
/// holds is not part of a column.
fn same_chunk(a: &ColumnChunk, b: &ColumnChunk) -> bool {
    let values = |c: &ColumnChunk| {
        format!(
            "{:?}",
            (0..c.len()).map(|p| c.value_at(p)).collect::<Vec<_>>()
        )
    };
    let dict = |c: &ColumnChunk| c.as_str().map(|(_, d, _)| d.strings().to_vec());
    a.data_type() == b.data_type()
        && a.nulls() == b.nulls()
        && values(a) == values(b)
        && dict(a) == dict(b)
}

/// Sub-query shapes, the decomposer's plain column lists and others,
/// against each backend on every route a sub-query takes: a column list's
/// typed columns (`query_columns`, and POOL-RAL's `execute_columns_on`)
/// equal its rows (`query_stmt`, `execute_on`) staged by `stage_rows` —
/// types, dictionaries, NULLs and values — and any other shape answers the
/// same rows, at the same cost and wire size, or fails with the same error;
/// and each, as a partial, integrates to the same answer with the same
/// size.
#[test]
fn column_answers_equal_their_rows_staged() {
    let g = grid(ConnectionPolicy::Session, 21);
    let merged = Merged::of(&g);
    let mut rng = Rng(21);
    let (mut compared, mut kept_rows, mut failed) = (0, 0, 0);
    for (mart, table) in [(&g.marts[0], "ho_a"), (&g.marts[1], "ho_b")] {
        let conn = mart.connect("grid", "grid").expect("connects").value;
        let pooled = mart.kind().pool_supported();
        for _ in 0..12 {
            let v = rng.below(20) as i64;
            let n = rng.below(30);
            for sql in [
                format!(
                    "SELECT k, x, s, b, y, m, z FROM {table} WHERE m > {}",
                    v % 5 - 3
                ),
                format!("SELECT * FROM {table} WHERE k > {}", v + 10),
                format!("SELECT z, m FROM {table} WHERE m IS NULL"),
                format!("SELECT k * 2 AS e, s, x + k AS f FROM {table}"),
                format!("SELECT COALESCE(m, s) AS c, k FROM {table} WHERE k < {v}"),
                format!(
                    "SELECT s, COUNT(*) AS n, AVG(x) AS ax, MIN(m) AS mn FROM {table} GROUP BY s"
                ),
                format!("SELECT DISTINCT b, s FROM {table}"),
                format!("SELECT k, s, y FROM {table} ORDER BY k DESC, s LIMIT {n}"),
                format!("SELECT 10 / (k - {v}) AS q FROM {table}"),
            ] {
                let stmt = parse_select(&sql).expect("parses");
                let mut routes = vec![(
                    conn.query_stmt(&stmt).map_err(|e| e.to_string()),
                    conn.query_columns(&stmt).map_err(|e| e.to_string()),
                )];
                if pooled {
                    routes.push((
                        PoolRal::execute_on(&conn, &stmt).map_err(|e| e.to_string()),
                        PoolRal::execute_columns_on(&conn, &stmt).map_err(|e| e.to_string()),
                    ));
                }
                for (rows, cols) in routes {
                    let (rows, cols) = match (rows, cols) {
                        (Ok(rows), Ok(cols)) => (rows, cols),
                        (Err(_), Err(_)) => {
                            assert!(
                                merged.answer(&sql).is_err(),
                                "`{sql}` fails, not the reference"
                            );
                            failed += 1;
                            continue;
                        }
                        (rows, cols) => panic!("`{sql}`: rows {rows:?}, columns {cols:?}"),
                    };
                    assert_eq!(rows.cost, cols.cost, "`{sql}`");
                    let (rs, cs) = (rows.value, cols.value);
                    assert_eq!(rs.len(), cs.len(), "`{sql}`");
                    assert_eq!(rs.wire_size(), cs.wire_size(), "`{sql}`");
                    assert_eq!(rs.columns, cs.columns, "`{sql}`");
                    match &cs.cells {
                        Cells::Chunks(chunks) => {
                            let staged = stage_rows(&rs.columns, &rs.rows);
                            let staged = staged.unwrap_or_else(|e| panic!("`{sql}`: {e}"));
                            assert_eq!(staged.len(), chunks.len(), "`{sql}`");
                            for (a, b) in staged.iter().zip(chunks) {
                                assert!(same_chunk(a, b), "`{sql}`:\n{a:?}\n{b:?}");
                            }
                        }
                        Cells::Rows(kept) => {
                            assert_eq!(format!("{:?}", rs.rows), format!("{kept:?}"), "`{sql}`");
                            kept_rows += 1;
                        }
                    }
                    let by_rows = Partial::from_result("t", rs);
                    let by_columns = Partial::from_columns("t", cs);
                    assert_eq!(by_rows.len(), by_columns.len(), "`{sql}`");
                    assert_eq!(by_rows.wire_size(), by_columns.wire_size(), "`{sql}`");
                    let plan = build_plan(&parse_select("SELECT * FROM t").expect("parses"));
                    let integrated =
                        |p: Partial| federate::integrate_metered(&plan, &[p]).map(|(rs, _)| rs);
                    match (integrated(by_rows), integrated(by_columns)) {
                        // The same columns, and the same rows bit for bit.
                        (Ok(a), Ok(b)) => assert_eq!(
                            (&a.columns, bits(&a.rows)),
                            (&b.columns, bits(&b.rows)),
                            "`{sql}`"
                        ),
                        (a, b) => assert!(a.is_err() && b.is_err(), "`{sql}`: {a:?}, {b:?}"),
                    }
                    compared += 1;
                }
            }
        }
    }
    println!("{compared} answers compared ({kept_rows} kept as rows), {failed} failed alike");
    assert!(
        compared > 200 && kept_rows > 5 && failed > 5,
        "{compared} compared, {kept_rows} kept as rows, {failed} failed"
    );
}

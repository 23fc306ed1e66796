//! What the whole-grid suites share: one seeded RNG, the grid's *merged
//! database*, and the one promise every answer is held to.
//!
//! The paper promises a single virtual view: a query over the federation
//! answers as it would against one database holding every table. The merged
//! database is that one database — each standard view a served mart holds,
//! evaluated over the warehouse (SQL views by `gridfed-reference`, the
//! ntuple pivot by `evaluate_view`), plus every table a suite put on a
//! served mart itself — and
//! `gridfed-reference` answers over it, so a bug on a path both arms of a
//! twin suite take still shows.
//!
//! Each suite uses a part of this module, so the unused rest would warn in
//! every one of them: hence the `dead_code` allowance below.
#![allow(dead_code)]

use gridfed::clarens::ClarensError;
use gridfed::core::grid::{standard_views, GridQuery};
use gridfed::core::stats::QueryStats;
use gridfed::core::CoreError;
use gridfed::prelude::*;
use gridfed::sqlkit::ast::{Expr, SelectItem, SelectStmt};
use gridfed::sqlkit::exec::DatabaseProvider;
use gridfed::sqlkit::parser::parse_select;
use gridfed::sqlkit::plan::build_plan;
use gridfed::sqlkit::SqlError;
use gridfed::vendors::{SimServer, VendorError};
use gridfed::warehouse::marts::MART_META_TABLE;
use gridfed::warehouse::{evaluate_view, ViewDef};
use std::collections::HashMap;
use std::sync::Mutex;

/// splitmix64: one fixed stream per seed.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A draw in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A draw in `[0, 1)`.
    pub fn frac(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

/// The grid every whole-grid suite starts from: `seed`, and the paper's two
/// sources (Oracle at CERN, MySQL at Caltech) of `events` events each.
pub fn two_sources(seed: u64, events: usize) -> GridBuilder {
    GridBuilder::new()
        .with_seed(seed)
        .source("tier1.cern", VendorKind::Oracle, events)
        .source("tier2.caltech", VendorKind::MySql, events)
}

/// Rows with each float as its bits, so `Int(1)` and `Float(1.0)` differ,
/// NaN equals NaN and `-0.0` differs from `0.0`.
pub fn bits(rows: &[Row]) -> Vec<Vec<String>> {
    let value = |v: &Value| match v {
        Value::Float(f) => format!("Float({:#x})", f.to_bits()),
        v => format!("{v:?}"),
    };
    let row = |r: &Row| r.values().iter().map(value).collect();
    rows.iter().map(row).collect()
}

/// What the reference answers: rows, or the error it raises.
pub type Reference = Result<ResultSet, SqlError>;

/// One database holding every table a grid serves, and the reference
/// interpreter's answers over it (kept per statement text).
pub struct Merged {
    db: Database,
    answers: Mutex<HashMap<String, Reference>>,
}

impl Merged {
    /// `g`'s merged database as of now: the tables of every mart a mediator
    /// has registered. The warehouse is read through a private copy, so no
    /// fault plan is consulted and no clock moves.
    pub fn of(g: &Grid) -> Merged {
        let warehouse = SimServer::new(VendorKind::Sqlite, "reference", "warehouse");
        warehouse.with_db_mut(|copy| g.warehouse.with_db(|w| copy_tables(w, copy)));
        let wconn = warehouse
            .connect("grid", "grid")
            .expect("a fault-free copy")
            .value;
        let mut views = Database::new("views");
        for view in standard_views(&g.spec) {
            let answer = match &view {
                ViewDef::Sql { query, .. } => warehouse.with_db(|w| {
                    gridfed_reference::execute(&build_plan(query), &DatabaseProvider(w))
                        .expect("a standard view evaluates")
                }),
                ViewDef::Pivot { .. } => evaluate_view(&view, &wconn).expect("the pivot evaluates"),
            };
            let schema = view.output_schema(&wconn, &answer).expect("a view schema");
            let table = views
                .create_table(view.name(), schema)
                .expect("one table per view");
            for row in answer.rows {
                table.insert(row.into_values()).expect("a view row");
            }
        }
        let served: Vec<String> = g.services.iter().flat_map(|s| s.databases()).collect();
        let mut db = Database::new("merged");
        for mart in g
            .marts
            .iter()
            .filter(|m| served.iter().any(|d| d == m.db_name()))
        {
            mart.with_db(|m| {
                for name in m.table_names() {
                    // A view is the warehouse's answer, any other table the mart's.
                    let src = if views.table(&name).is_ok() {
                        &views
                    } else {
                        m
                    };
                    copy_table(src, &name, &mut db);
                }
            });
        }
        Merged {
            db,
            answers: Mutex::new(HashMap::new()),
        }
    }

    /// The reference's answer to `sql`, over the plan as written.
    pub fn answer(&self, sql: &str) -> Reference {
        self.answer_stmt(&parse_select(sql)?)
    }

    /// The reference's answer to `stmt`, kept per statement, so a statement
    /// spelled anew is answered once.
    fn answer_stmt(&self, stmt: &SelectStmt) -> Reference {
        let mut answers = self.answers.lock().expect("not poisoned");
        let answer = answers.entry(format!("{stmt:?}")).or_insert_with(|| {
            gridfed_reference::execute(&build_plan(stmt), &DatabaseProvider(&self.db))
        });
        answer.clone()
    }
}

/// Copy every table of `src` that `dst` does not hold yet (by name), but
/// for a mart's metadata table.
pub fn copy_tables(src: &Database, dst: &mut Database) {
    for name in src.table_names() {
        copy_table(src, &name, dst);
    }
}

/// Copy `src`'s table `name` unless `dst` holds one by that name, or it is
/// a mart's metadata table.
fn copy_table(src: &Database, name: &str, dst: &mut Database) {
    if name == MART_META_TABLE || dst.table(name).is_ok() {
        return;
    }
    let t = src.table(name).expect("listed");
    let copy = dst.create_table(name, t.schema().clone()).expect("create");
    for row in t.rows() {
        copy.insert(row.into_values()).expect("insert");
    }
}

/// A typed availability error: a source, a link or the mediator's own
/// capacity failed, not the statement — here, or reported by a peer (whose
/// errors arrive rendered).
fn availability(e: &CoreError) -> bool {
    const MARKERS: [&str; 6] = [
        "unavailable",
        "transient fault",
        "deadline",
        "circuit breaker open",
        "admission queue full",
        "staleness",
    ];
    match e {
        CoreError::BranchUnavailable { .. }
        | CoreError::DeadlineExceeded { .. }
        | CoreError::CircuitOpen { .. }
        | CoreError::AdmissionFull { .. }
        | CoreError::StalenessBoundExceeded { .. }
        | CoreError::Vendor(VendorError::Unavailable { .. })
        | CoreError::Vendor(VendorError::Transient { .. })
        | CoreError::Vendor(VendorError::ConnectionClosed)
        | CoreError::Rpc(ClarensError::Unavailable(_)) => true,
        CoreError::Rpc(ClarensError::ServiceFault(m)) | CoreError::Pool(m) => {
            MARKERS.iter().any(|k| m.contains(k))
        }
        _ => false,
    }
}

/// A grid's answer (or error) as [`assert_promise`] takes it.
pub fn answer_of(
    got: &Result<GridQuery, CoreError>,
) -> Result<(&ResultSet, &QueryStats), &CoreError> {
    got.as_ref().map(|q| (&q.result, &q.stats))
}

/// The promise for one answer: exact against the reference over `merged`,
/// or a typed availability error, or — annotated as degraded — a subset of
/// it. Refused: `Internal`, `BranchPanic` (or a peer's report of either),
/// and any other error the reference does not raise over the plan as
/// written.
pub fn assert_promise(
    at: &str,
    sql: &str,
    outcome: Result<(&ResultSet, &QueryStats), &CoreError>,
    merged: &Merged,
) {
    match outcome {
        Err(e) => {
            let text = e.to_string();
            let broken = matches!(e, CoreError::Internal(_) | CoreError::BranchPanic { .. })
                || text.contains("panicked")
                || text.contains("internal error");
            assert!(!broken, "{at}: {e:?}");
            let reference = merged.answer(sql);
            assert!(
                availability(e) || reference.is_err(),
                "{at}: {e} where the reference answers {reference:?}"
            );
        }
        Ok((got, stats)) if stats.is_degraded() => assert_subset(at, sql, got, merged),
        Ok((got, _)) => {
            let want = merged.answer(sql);
            let want =
                want.unwrap_or_else(|e| panic!("{at}: answered where the reference raises {e}"));
            if let Some(why) = differs(sql, got, &want, merged) {
                panic!("{at}: {why}\n got {:?}\nwant {:?}", got.rows, want.rows);
            }
        }
    }
}

/// `got` has the reference's columns and each of its rows is one of the
/// reference's: an honest partial answer. A NULL may stand for any value,
/// the columns of a dropped branch an outer join still keeps.
pub fn assert_subset(at: &str, sql: &str, got: &ResultSet, merged: &Merged) {
    let want = merged.answer(sql);
    let want = want.unwrap_or_else(|e| panic!("{at}: answered where the reference raises {e}"));
    assert_eq!(got.columns, want.columns, "{at}: columns");
    let want = bits(&want.rows);
    let null = format!("{:?}", Value::Null);
    let covers =
        |w: &Vec<String>, r: &Vec<String>| w.iter().zip(r).all(|(w, r)| w == r || *r == null);
    let stray = bits(&got.rows)
        .into_iter()
        .find(|r| !want.iter().any(|w| covers(w, r)));
    assert!(stray.is_none(), "{at}: row {stray:?} not in the reference");
}

/// How `got` differs from `want`, the reference's answer to `sql`, bit
/// for bit, if it does. Where `sql` fixes no order, or one with ties, equal
/// sort keys come in the engine's own order: the sort keys (where the select
/// list names them) compare as a sequence and the rows as a multiset. A
/// `LIMIT` cut inside a run of equal keys may keep any of them; under a
/// `LIMIT` that no named sort key orders, as many rows of the answer
/// without the `LIMIT` will do.
fn differs(sql: &str, got: &ResultSet, want: &ResultSet, merged: &Merged) -> Option<&'static str> {
    let stmt = parse_select(sql).ok()?;
    let keys = sort_keys(&stmt);
    let key = |r: &Vec<String>| keys.iter().map(|&c| r[c].clone()).collect::<Vec<_>>();
    let (mut rows, mut wanted) = (bits(&got.rows), bits(&want.rows));
    let in_order = rows.iter().map(key).eq(wanted.iter().map(key));
    let counted = rows.len() == wanted.len();
    let same_rows = if stmt.limit.is_some() && keys.is_empty() {
        let mut unlimited = stmt.clone();
        unlimited.limit = None;
        let all = bits(&merged.answer_stmt(&unlimited).map_or(vec![], |a| a.rows));
        rows.iter().all(|r| all.contains(r))
    } else {
        if let Some(last) = wanted.last().map(key).filter(|_| stmt.limit.is_some()) {
            rows.retain(|r| key(r) != last);
            wanted.retain(|r| key(r) != last);
        }
        rows.sort();
        wanted.sort();
        rows == wanted
    };
    match (got.columns == want.columns, in_order, counted, same_rows) {
        (false, ..) => Some("columns differ"),
        (_, false, ..) => Some("rows out of order"),
        (.., false, _) => Some("row counts differ"),
        (.., false) => Some("rows differ"),
        _ => None,
    }
}

/// The output positions of `stmt`'s ORDER BY keys, when every key is a
/// select item (by expression or alias) before any wildcard; none else.
fn sort_keys(stmt: &SelectStmt) -> Vec<usize> {
    let position = |e: &Expr| {
        stmt.items
            .iter()
            .take_while(|i| matches!(i, SelectItem::Expr { .. }))
            .position(|i| match (i, e) {
                (SelectItem::Expr { expr, .. }, e) if expr == e => true,
                (SelectItem::Expr { alias: Some(a), .. }, Expr::Column(c)) => {
                    c.qualifier.is_none() && c.column.eq_ignore_ascii_case(a)
                }
                _ => false,
            })
    };
    let keys: Option<Vec<usize>> = stmt.order_by.iter().map(|o| position(&o.expr)).collect();
    keys.unwrap_or_default()
}

/// Items with the key of an earlier one dropped.
pub fn dedup_by_key<T: Clone, K: std::hash::Hash + Eq>(
    items: &[T],
    key: impl Fn(&T) -> K,
) -> Vec<T> {
    let mut seen = std::collections::HashSet::new();
    items
        .iter()
        .filter(|it| seen.insert(key(it)))
        .cloned()
        .collect()
}

/// `rendered` equals the golden file `tests/golden/<name>`, or — with
/// `UPDATE_GOLDEN` set — becomes it.
pub fn check_golden(name: &str, rendered: &str) {
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, rendered).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {} ({e})", path.display()));
    let (got, want) = (rendered.lines(), expected.lines());
    let at = got
        .clone()
        .zip(want.clone())
        .take_while(|(g, w)| g == w)
        .count();
    assert!(
        rendered == expected,
        "golden {name} differs at line {}:\n  got:  {:?}\n  want: {:?}\n\
         regenerate with UPDATE_GOLDEN=1",
        at + 1,
        got.clone().nth(at),
        want.clone().nth(at)
    );
}

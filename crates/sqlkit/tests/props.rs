//! Property-based tests for the SQL front-end and executor.

use gridfed_sqlkit::ast::{BinaryOp, Expr, OrderItem, SelectItem, SelectStmt, TableRef};
use gridfed_sqlkit::exec::{
    execute_lowered, execute_plan, execute_select, DatabaseProvider, ProviderCatalog,
};
use gridfed_sqlkit::expr::{like_match_chars, Bindings};
use gridfed_sqlkit::lexer::{cache_key, fingerprint_text, tokenize};
use gridfed_sqlkit::parser::{parse, parse_select, MAX_DEPTH};
use gridfed_sqlkit::render::{render_statement, NeutralStyle};
use gridfed_sqlkit::Lowered;
use gridfed_sqlkit::{build_plan, optimize, with_exec_config, ExecConfig, SqlError, Statement};
use gridfed_storage::{ColumnDef, DataType, Database, Schema, Value};
use gridfed_vendors::{dialect_for, VendorError, VendorKind};
use proptest::prelude::*;

// ---- generators ----

fn arb_ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,8}".prop_filter("avoid keywords", |s| {
        ![
            "select", "from", "where", "and", "or", "not", "in", "is", "null", "like", "between",
            "group", "order", "by", "limit", "join", "on", "as", "asc", "desc", "inner", "left",
            "cross", "true", "false", "values", "insert", "into", "create", "table", "view", "key",
            "count", "sum", "avg", "min", "max",
        ]
        .contains(&s.as_str())
    })
}

fn arb_literal() -> impl Strategy<Value = Expr> {
    prop_oneof![
        any::<i32>().prop_map(|i| Expr::lit(i64::from(i))),
        (-1e6f64..1e6).prop_map(Expr::lit),
        "[a-z ]{0,10}".prop_map(|s| Expr::lit(s.as_str())),
        Just(Expr::Literal(Value::Null)),
        any::<bool>().prop_map(Expr::lit),
    ]
}

fn arb_scalar_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        arb_literal(),
        arb_ident().prop_map(|c| Expr::column(None, &c)),
        (arb_ident(), arb_ident()).prop_map(|(q, c)| Expr::column(Some(&q), &c)),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::binary(a, BinaryOp::Add, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::binary(a, BinaryOp::Mul, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::binary(a, BinaryOp::Eq, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::and(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::binary(a, BinaryOp::Or, b)),
            inner.clone().prop_map(|e| Expr::IsNull {
                expr: Box::new(e),
                negated: false
            }),
            (
                inner.clone(),
                prop::collection::vec(arb_literal(), 1..4),
                any::<bool>()
            )
                .prop_map(|(e, list, negated)| Expr::InList {
                    expr: Box::new(e),
                    list,
                    negated
                }),
            (inner.clone(), "[a-z%_]{0,6}", any::<bool>()).prop_map(|(e, pattern, negated)| {
                Expr::Like {
                    expr: Box::new(e),
                    pattern,
                    negated,
                }
            }),
        ]
    })
}

fn arb_select() -> impl Strategy<Value = SelectStmt> {
    (
        any::<bool>(),
        prop::collection::vec(
            prop_oneof![
                Just(SelectItem::Wildcard),
                (arb_scalar_expr(), proptest::option::of(arb_ident()))
                    .prop_map(|(expr, alias)| SelectItem::Expr { expr, alias }),
            ],
            1..4,
        ),
        arb_ident(),
        proptest::option::of(arb_ident()),
        proptest::option::of(arb_scalar_expr()),
        prop::collection::vec((arb_scalar_expr(), any::<bool>()), 0..2),
        proptest::option::of(0u64..1000),
    )
        .prop_map(
            |(distinct, items, table, alias, where_clause, order, limit)| SelectStmt {
                distinct,
                items,
                from: TableRef { name: table, alias },
                joins: Vec::new(),
                where_clause,
                group_by: Vec::new(),
                having: None,
                order_by: order
                    .into_iter()
                    .map(|(expr, ascending)| OrderItem { expr, ascending })
                    .collect(),
                limit,
            },
        )
}

// ---- properties ----

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The canonical round trip: any AST we can build renders to SQL that
    /// re-parses to exactly the same AST.
    #[test]
    fn render_parse_round_trip(stmt in arb_select()) {
        let sql = render_statement(&Statement::Select(stmt.clone()), &NeutralStyle);
        let reparsed = parse(&sql);
        prop_assert!(reparsed.is_ok(), "failed to re-parse `{sql}`: {reparsed:?}");
        prop_assert_eq!(reparsed.unwrap(), Statement::Select(stmt), "round trip changed `{}`", sql);
    }

    /// The lexer never panics, whatever bytes arrive.
    #[test]
    fn lexer_total(input in "\\PC{0,80}") {
        let _ = gridfed_sqlkit::lexer::tokenize(&input);
    }

    /// The parser never panics on arbitrary token soup.
    #[test]
    fn parser_total(input in "[a-zA-Z0-9_'\",.()*<>=%+-]{0,60}") {
        let _ = parse(&input);
    }

    /// LIKE matching agrees with a simple reference implementation.
    #[test]
    fn like_matches_reference(pattern in "[ab%_]{0,8}", s in "[ab]{0,8}") {
        fn reference(p: &[u8], s: &[u8]) -> bool {
            match (p.first(), s.first()) {
                (None, None) => true,
                (None, Some(_)) => false,
                (Some(b'%'), _) => {
                    reference(&p[1..], s) || (!s.is_empty() && reference(p, &s[1..]))
                }
                (Some(b'_'), Some(_)) => reference(&p[1..], &s[1..]),
                (Some(c), Some(d)) if c == d => reference(&p[1..], &s[1..]),
                _ => false,
            }
        }
        prop_assert_eq!(
            like_match_chars(&pattern.chars().collect::<Vec<_>>(), &s),
            reference(pattern.as_bytes(), s.as_bytes()),
            "pattern={:?} s={:?}", pattern, s
        );
    }
}

// ---- executor properties over random tables ----

fn table_db(rows: &[(i64, f64, bool)]) -> Database {
    let mut db = Database::new("p");
    let schema = Schema::new(vec![
        ColumnDef::new("id", DataType::Int),
        ColumnDef::new("x", DataType::Float),
        ColumnDef::new("flag", DataType::Bool),
    ])
    .expect("schema");
    let t = db.create_table("t", schema).expect("table");
    for (id, x, flag) in rows {
        t.insert(vec![Value::Int(*id), Value::Float(*x), Value::Bool(*flag)])
            .expect("insert");
    }
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every row a WHERE query returns actually satisfies the predicate,
    /// and no satisfying row is dropped.
    #[test]
    fn where_is_sound_and_complete(
        rows in prop::collection::vec((0i64..50, -50.0f64..50.0, any::<bool>()), 0..40),
        threshold in -50.0f64..50.0,
    ) {
        let db = table_db(&rows);
        let sql = format!("SELECT id, x, flag FROM t WHERE x > {threshold}");
        let stmt = parse_select(&sql).expect("parses");
        let result = execute_select(&stmt, &DatabaseProvider(&db)).expect("executes");
        let expected = rows.iter().filter(|(_, x, _)| *x > threshold).count();
        prop_assert_eq!(result.len(), expected);
        let bindings = Bindings::for_table("t", &["id".into(), "x".into(), "flag".into()]);
        let pred = stmt.where_clause.as_ref().expect("where");
        for row in &result.rows {
            prop_assert!(
                gridfed_reference::eval_predicate(pred, row.values(), &bindings).expect("eval")
            );
        }
    }

    /// ORDER BY really sorts; LIMIT really truncates.
    #[test]
    fn order_and_limit(
        rows in prop::collection::vec((0i64..1000, -50.0f64..50.0, any::<bool>()), 0..40),
        limit in 0u64..20,
    ) {
        let db = table_db(&rows);
        let sql = format!("SELECT x FROM t ORDER BY x LIMIT {limit}");
        let stmt = parse_select(&sql).expect("parses");
        let result = execute_select(&stmt, &DatabaseProvider(&db)).expect("executes");
        prop_assert!(result.len() <= limit as usize);
        prop_assert_eq!(result.len(), rows.len().min(limit as usize));
        let xs: Vec<f64> = result
            .rows
            .iter()
            .map(|r| match r.values()[0] {
                Value::Float(x) => x,
                ref other => panic!("{other:?}"),
            })
            .collect();
        prop_assert!(xs.windows(2).all(|w| w[0] <= w[1]), "not sorted: {xs:?}");
        // LIMIT keeps the smallest values.
        let mut all: Vec<f64> = rows.iter().map(|(_, x, _)| *x).collect();
        all.sort_by(f64::total_cmp);
        for (got, want) in xs.iter().zip(all.iter()) {
            prop_assert_eq!(got, want);
        }
    }

    /// COUNT/SUM/AVG agree with direct computation.
    #[test]
    fn aggregates_match_reference(
        rows in prop::collection::vec((0i64..8, -50.0f64..50.0, any::<bool>()), 1..50),
    ) {
        let db = table_db(&rows);
        let stmt = parse_select(
            "SELECT id, COUNT(*) AS n, SUM(x) AS s FROM t GROUP BY id ORDER BY id",
        ).expect("parses");
        let result = execute_select(&stmt, &DatabaseProvider(&db)).expect("executes");
        use std::collections::BTreeMap;
        let mut expect: BTreeMap<i64, (i64, f64)> = BTreeMap::new();
        for (id, x, _) in &rows {
            let e = expect.entry(*id).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += *x;
        }
        prop_assert_eq!(result.len(), expect.len());
        for row in &result.rows {
            let id = match row.values()[0] { Value::Int(i) => i, ref o => panic!("{o:?}") };
            let n = match row.values()[1] { Value::Int(i) => i, ref o => panic!("{o:?}") };
            let s = match row.values()[2] { Value::Float(x) => x, ref o => panic!("{o:?}") };
            let (en, es) = expect[&id];
            prop_assert_eq!(n, en);
            prop_assert!((s - es).abs() < 1e-6);
        }
    }

    /// A self-join on equality has exactly the size of the key-multiplicity
    /// square sum (hash-join correctness).
    #[test]
    fn self_equijoin_cardinality(ids in prop::collection::vec(0i64..10, 0..30)) {
        let rows: Vec<(i64, f64, bool)> = ids.iter().map(|&i| (i, 0.0, false)).collect();
        let db = table_db(&rows);
        let stmt = parse_select(
            "SELECT a.id FROM t a JOIN t b ON a.id = b.id",
        ).expect("parses");
        let result = execute_select(&stmt, &DatabaseProvider(&db)).expect("executes");
        use std::collections::HashMap;
        let mut mult: HashMap<i64, usize> = HashMap::new();
        for id in &ids {
            *mult.entry(*id).or_default() += 1;
        }
        let expected: usize = mult.values().map(|m| m * m).sum();
        prop_assert_eq!(result.len(), expected);
    }
}

// ---- output boundary and IN-lists, vectorized vs row-at-a-time ----

const WORDS: [&str; 4] = ["ecal", "hcal", "muon", "e"];

/// `id` (key), nullable INT `k`, nullable TEXT `tag`; every `kill`-th id is
/// deleted afterwards so the scan runs over tombstones.
fn nullable_db(rows: &[(Option<i64>, Option<usize>)], kill: usize) -> Database {
    let mut db = Database::new("p");
    let schema = Schema::new(vec![
        ColumnDef::new("id", DataType::Int).primary_key(),
        ColumnDef::new("k", DataType::Int),
        ColumnDef::new("tag", DataType::Text),
    ])
    .expect("schema");
    let t = db.create_table("t", schema).expect("table");
    for (id, (k, tag)) in rows.iter().enumerate() {
        t.insert(vec![
            Value::Int(id as i64),
            k.map_or(Value::Null, Value::Int),
            tag.map_or(Value::Null, |w| Value::Text(WORDS[w].into())),
        ])
        .expect("insert");
    }
    if kill > 0 {
        t.delete_where(|r| matches!(r.values()[0], Value::Int(id) if id as usize % kill == 1));
    }
    db
}

/// Select items: named columns (bare, qualified, aliased), `*`, `t.*`, a
/// clean expression, and one that errors on every non-NULL `tag`.
const ITEMS: [&str; 10] = [
    "id",
    "k",
    "tag",
    "t.k",
    "t.tag",
    "k AS kk",
    "*",
    "t.*",
    "k + id AS s",
    "tag + 1 AS boom",
];

/// Sort clauses: none, an alias, an output column, a hidden input
/// expression, a hidden key that errors row by row, and keys with ties and
/// NULLs (equal keys keep scan order).
const ORDERS: [&str; 7] = [
    "",
    " ORDER BY kk, id",
    " ORDER BY tag DESC, id",
    " ORDER BY k * -1, id",
    " ORDER BY tag + 1, id",
    " ORDER BY k",
    " ORDER BY tag DESC, k",
];

/// LIMIT clauses: none, zero, inside the table, past its row count.
const LIMITS: [&str; 4] = ["", " LIMIT 0", " LIMIT 4", " LIMIT 100"];

/// One IN-list body: INT keys and/or words, optionally a NULL, a FLOAT or
/// a word no row holds; `(NULL)` alone when everything else is empty.
fn arb_in_list() -> impl Strategy<Value = String> {
    (
        prop::collection::vec(-1i64..6, 0..5),
        prop::collection::vec(0usize..WORDS.len(), 0..3),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(ints, words, null, float, absent)| {
            let mut items: Vec<String> = ints.iter().map(i64::to_string).collect();
            items.extend(words.iter().map(|&w| format!("'{}'", WORDS[w])));
            if float {
                items.push("2.0".into());
            }
            if absent {
                items.push("'absent'".into());
            }
            if null || items.is_empty() {
                items.push("NULL".into());
            }
            items.join(", ")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random select lists, membership predicates, sort keys and limits: the
    /// vectorized executor returns the reference interpreter's rows, or its
    /// first error — an erroring select item or sort key surfaces even when
    /// the LIMIT would drop its row.
    #[test]
    fn select_lists_and_in_lists_match_the_row_interpreter(
        rows in prop::collection::vec(
            (prop::option::of(-1i64..6), prop::option::of(0usize..WORDS.len())),
            0..40,
        ),
        kill in 0usize..5,
        items in prop::collection::vec(0usize..ITEMS.len(), 1..5),
        column in 0usize..3,
        negated in any::<bool>(),
        list in arb_in_list(),
        order in 0usize..ORDERS.len(),
        limit in 0usize..LIMITS.len(),
    ) {
        let db = nullable_db(&rows, kill);
        let items: Vec<&str> = items.iter().map(|&i| ITEMS[i]).collect();
        let sql = format!(
            "SELECT {} FROM t WHERE {} {}IN ({list}){}{}",
            items.join(", "),
            ["k", "tag", "id"][column],
            if negated { "NOT " } else { "" },
            ORDERS[order],
            LIMITS[limit],
        );
        matches_the_row_interpreter(&db, &sql)?;
    }

    /// Random grouped queries — one or two keys (INT with NULLs, the
    /// dictionary column, a FLOAT column holding both zeros, an expression,
    /// an expression that errors), any three aggregates, an optional HAVING
    /// that may hide an erroring aggregate — over tombstoned tables.
    #[test]
    fn grouped_queries_match_the_row_interpreter(
        rows in measured_rows(),
        kill in 0usize..5,
        keys in prop::collection::vec(0usize..GROUP_KEYS.len(), 0..3),
        aggs in prop::collection::vec(0usize..AGGREGATES.len(), 1..4),
        having in 0usize..HAVINGS.len(),
        ordered in any::<bool>(),
    ) {
        let db = measured_db(&rows, kill);
        let keys: Vec<&str> = keys.iter().map(|&k| GROUP_KEYS[k]).collect();
        let mut items: Vec<String> = keys.iter().map(|k| k.to_string()).collect();
        items.extend(aggs.iter().enumerate().map(|(i, &a)| format!("{} AS a{i}", AGGREGATES[a])));
        let mut sql = format!("SELECT {} FROM t", items.join(", "));
        if !keys.is_empty() {
            // The grammar takes HAVING only after a GROUP BY.
            sql.push_str(&format!(" GROUP BY {}{}", keys.join(", "), HAVINGS[having]));
        }
        if ordered {
            sql.push_str(" ORDER BY a0 DESC");
        }
        matches_the_row_interpreter(&db, &sql)?;
    }

    /// Random DISTINCT select lists over the grouping keys' columns and
    /// expressions, ordered or not.
    #[test]
    fn distinct_queries_match_the_row_interpreter(
        rows in measured_rows(),
        kill in 0usize..5,
        keys in prop::collection::vec(0usize..GROUP_KEYS.len(), 1..3),
        ordered in any::<bool>(),
    ) {
        let db = measured_db(&rows, kill);
        let keys: Vec<&str> = keys.iter().map(|&k| GROUP_KEYS[k]).collect();
        let items: Vec<String> = keys.iter().enumerate().map(|(i, k)| format!("{k} AS d{i}")).collect();
        let mut sql = format!("SELECT DISTINCT {} FROM t", items.join(", "));
        if ordered {
            sql.push_str(" ORDER BY d0 DESC");
        }
        matches_the_row_interpreter(&db, &sql)?;
    }
}

/// One row of [`measured_db`]: `k`, `tag`, `x` and `big`, each nullable.
type MeasuredRow = (Option<i64>, Option<usize>, Option<usize>, Option<usize>);

fn measured_rows() -> impl Strategy<Value = Vec<MeasuredRow>> {
    prop::collection::vec(
        (
            prop::option::of(-1i64..4),
            prop::option::of(0usize..WORDS.len()),
            prop::option::of(0usize..FLOATS.len()),
            prop::option::of(0usize..BIGS.len()),
        ),
        0..40,
    )
}

/// The vectorized executor — sequential, and on three and four workers over
/// tiny morsels — returns the reference interpreter's columns and rows, or
/// its first error.
fn matches_the_row_interpreter(db: &Database, sql: &str) -> Result<(), TestCaseError> {
    let provider = DatabaseProvider(db);
    let stmt = parse_select(sql).expect("parses");
    let plan = optimize(build_plan(&stmt), &ProviderCatalog(&provider));
    let describe = |r: gridfed_sqlkit::Result<gridfed_sqlkit::ResultSet>| {
        r.map(|rs| (rs.columns, rs.rows)).map_err(|e| e.to_string())
    };
    let reference = describe(gridfed_reference::execute(&plan, &provider));
    prop_assert_eq!(
        describe(execute_plan(&plan, &provider)),
        reference.clone(),
        "`{}`",
        sql
    );
    for (workers, morsel_rows) in [(3, 7), (4, 3)] {
        let mut cfg = ExecConfig::with_workers(workers);
        cfg.morsel_rows = morsel_rows;
        let parallel = with_exec_config(cfg, || execute_plan(&plan, &provider));
        prop_assert_eq!(
            describe(parallel),
            reference.clone(),
            "{} workers, `{}`",
            workers,
            sql
        );
    }
    // A kept lowering answers as the plan does; one lowered over other
    // column names than the tables have now is never run.
    let stale = Lowered::new(&plan, |t| {
        let mut names = db.table(t).ok()?.schema().names();
        names.reverse();
        Some(names)
    });
    for kept in [Lowered::of(&plan, &provider), stale] {
        let run = execute_lowered(&plan, &kept, &provider).map(|(rs, _)| rs);
        prop_assert_eq!(describe(run), reference.clone(), "kept, `{}`", sql);
    }
    Ok(())
}

/// Measurements for the FLOAT column: both zeros, an integral value (folds
/// with INT `1` under a COALESCE key), and a few ordinary ones.
const FLOATS: [f64; 6] = [0.0, -0.0, 1.0, 2.5, -7.25, 40.0];

/// INTs an `f64` cannot tell apart: `2^53` and `2^53 + 1`, `i64::MIN` and
/// `i64::MIN + 1` — two groups each, as `=` between INTs says — and `1`,
/// which groups with the FLOAT `1.0` under a COALESCE key.
const BIGS: [i64; 5] = [1 << 53, (1 << 53) + 1, i64::MIN, i64::MIN + 1, 1];

/// `id` (key), nullable INT `k`, nullable TEXT `tag`, nullable FLOAT `x`,
/// nullable INT `big`; every `kill`-th id is deleted afterwards.
fn measured_db(rows: &[MeasuredRow], kill: usize) -> Database {
    let mut db = Database::new("p");
    let schema = Schema::new(vec![
        ColumnDef::new("id", DataType::Int).primary_key(),
        ColumnDef::new("k", DataType::Int),
        ColumnDef::new("tag", DataType::Text),
        ColumnDef::new("x", DataType::Float),
        ColumnDef::new("big", DataType::Int),
    ])
    .expect("schema");
    let t = db.create_table("t", schema).expect("table");
    for (id, (k, tag, x, big)) in rows.iter().enumerate() {
        t.insert(vec![
            Value::Int(id as i64),
            k.map_or(Value::Null, Value::Int),
            tag.map_or(Value::Null, |w| Value::Text(WORDS[w].into())),
            x.map_or(Value::Null, |i| Value::Float(FLOATS[i])),
            big.map_or(Value::Null, |i| Value::Int(BIGS[i])),
        ])
        .expect("insert");
    }
    if kill > 0 {
        t.delete_where(|r| matches!(r.values()[0], Value::Int(id) if id as usize % kill == 1));
    }
    db
}

/// Grouping keys: bare columns of each class, a clean expression, ones that
/// fold INT into FLOAT, one that errors on the first non-NULL `tag`, and
/// the INTs past 2^53 — alone (an INT chunk) and beside FLOATs in a value
/// column.
const GROUP_KEYS: [&str; 8] = [
    "k",
    "tag",
    "x",
    "k * 2",
    "COALESCE(x, k)",
    "tag + 1",
    "big",
    "COALESCE(big, x)",
];

/// Aggregates over each column class; `SUM(tag)` errors on a non-NULL tag.
const AGGREGATES: [&str; 14] = [
    "COUNT(*)",
    "COUNT(k)",
    "COUNT(DISTINCT tag)",
    "COUNT(DISTINCT x)",
    "SUM(k)",
    "SUM(x)",
    "AVG(k)",
    "AVG(x)",
    "MIN(k)",
    "MAX(x)",
    "MIN(tag)",
    "MAX(tag)",
    "SUM(k + id)",
    "SUM(tag)",
];

/// HAVING clauses: none, one that drops every group, ones that keep some.
const HAVINGS: [&str; 5] = [
    "",
    " HAVING COUNT(*) > 1000",
    " HAVING COUNT(*) > 1",
    " HAVING COUNT(tag) = 0",
    " HAVING MAX(x) > 0.5",
];

// ---- hostile input ----

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

    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[self.below(from.len() as u64) as usize]
    }
}

/// What a mediator is sent — Table-1 rows 1–3, a Fig-6 join, an aggregate
/// — and what it ships on: pushed filters, a reduction's `IN` list and
/// `BLOOM_HAS` probe, MS-SQL brackets, a comment.
const REAL: &[&str] = &[
    "SELECT e_id, energy FROM ntuple_events WHERE e_id < 20",
    "SELECT e.e_id, s.n_meas FROM ntuple_events e JOIN run_summary s ON e.run_id = s.run_id \
     WHERE e.e_id < 20",
    "SELECT e.e_id, s.n_meas, c.avg_weight, d.mean_value FROM ntuple_events e \
     JOIN run_summary s ON e.run_id = s.run_id JOIN run_conditions c ON s.run_id = c.run_id \
     JOIN detector_summary d ON c.detector = d.detector WHERE e.e_id < 20",
    "SELECT run_id, COUNT(*) AS n, AVG(energy) AS avg_e FROM ntuple_events \
     WHERE nhits > 4 AND NOT energy BETWEEN -1.5 AND 2e3 GROUP BY run_id \
     HAVING COUNT(*) > 1 ORDER BY run_id DESC LIMIT 10",
    "SELECT \"e_id\", \"run_id\" FROM \"ntuple_events\" WHERE (\"run_id\" IN (1, 2, 3)) -- keys\n",
    "SELECT [e_id] FROM [ntuple_events] WHERE BLOOM_HAS([run_id], '0a1b2c3d') AND tag LIKE 'ec%'",
    "SELECT DISTINCT detector, ABS(mean_value) FROM detector_summary WHERE x IS NOT NULL /* c */",
];

/// Pieces a mutation splices in.
const SPLICE: &[&str] = &[
    "(",
    ")",
    "((",
    "))",
    "NOT ",
    "-",
    "+",
    "*",
    "'",
    "\"",
    "`",
    "[",
    "]",
    "--",
    "/*",
    "*/",
    ",",
    ".",
    " AND ",
    " OR ",
    " IN (",
    " IS ",
    "NULL",
    "1",
    "2.5",
    "1e308",
    "9223372036854775807",
    "ABS(",
    "COUNT(*)",
    "BETWEEN ",
    " JOIN t ON ",
    ";",
    "\u{0}",
    "é",
    " ",
];

/// `sql` changed in one to three places: a byte overwritten, a span cut or
/// repeated, a piece spliced in.
fn mutate(rng: &mut Rng, sql: &str) -> String {
    let mut bytes = sql.as_bytes().to_vec();
    for _ in 0..1 + rng.below(3) {
        let at = rng.below(bytes.len() as u64 + 1) as usize;
        let end = (at + 1 + rng.below(12) as usize).min(bytes.len());
        match rng.below(4) {
            0 if at < bytes.len() => bytes[at] = rng.next() as u8,
            1 => drop(bytes.drain(at..end)),
            2 => {
                let span = bytes[at..end].to_vec();
                bytes.splice(at..at, span).for_each(drop);
            }
            _ => {
                let piece = rng.pick(SPLICE).as_bytes();
                bytes.splice(at..at, piece.iter().copied()).for_each(drop);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// A statement nested `n` deep in one of the shapes that used to take the
/// parser's stack with it — parentheses, `NOT`s, signs (one in 32 of these
/// at least 100 000 deep), calls, a chain of `AND`s, a chain of joins —
/// closed, or cut off.
fn deep(rng: &mut Rng) -> String {
    let shape = rng.below(7);
    let n = match rng.below(32) {
        0 if shape < 4 => 100_000 + rng.below(1_000),
        _ => rng.below(300),
    } as usize;
    let (open, leaf, close) = match shape {
        0 => ("(".repeat(n), "1".to_string(), ")".repeat(n)),
        1 => ("NOT ".repeat(n), "a = 1".to_string(), String::new()),
        2 => ("-".repeat(n), "a".to_string(), String::new()),
        3 => ("- ".repeat(n), "1".to_string(), String::new()),
        4 => ("ABS(".repeat(n), "a".to_string(), ")".repeat(n)),
        5 => (String::new(), "a = 1".to_string(), " AND a = 1".repeat(n)),
        _ => {
            let joins = " JOIN t ON a = b".repeat(n);
            return format!("SELECT a FROM t{joins}");
        }
    };
    let close = &close[..close.len() - rng.below(2) as usize * close.len() / 2];
    format!("SELECT a FROM t WHERE {open}{leaf}{close} = 1")
}

/// Whatever text arrives — arbitrary bytes, statements nested far past the
/// limit, real statements mutated — `parse` gives a typed error or a
/// statement that renders and parses back to itself; `cache_key` gives a
/// key exactly when the text tokenizes, and the key parses exactly as the
/// text does; the fingerprint text and every vendor's dialect check give
/// an answer — the check passes only text that lexes, and fails text that
/// does not with the lexer's own error unless a violation comes first:
/// never a panic, and never a stack overflow (this runs on the test
/// harness's 2 MiB thread).
#[test]
fn hostile_text_parses_exactly_or_is_a_typed_error() {
    let mut rng = Rng(0x5e1ec7);
    let (mut parsed, mut too_deep) = (0, 0);
    for case in 0..12_000 {
        let sql = match case % 4 {
            0 => {
                let bytes: Vec<u8> = (0..rng.below(200)).map(|_| rng.next() as u8).collect();
                String::from_utf8_lossy(&bytes).into_owned()
            }
            1 => deep(&mut rng),
            2 => rng.pick(REAL).to_string(),
            _ => {
                let real = rng.pick(REAL);
                mutate(&mut rng, real)
            }
        };
        let at = format!(
            "case {case}: {:?}",
            sql.chars().take(200).collect::<String>()
        );
        let result = parse(&sql);
        match &result {
            Ok(stmt) => {
                let rendered = render_statement(stmt, &NeutralStyle);
                assert_eq!(parse(&rendered).as_ref(), Ok(stmt), "{at} as {rendered}");
                parsed += 1;
            }
            Err(SqlError::TooDeep { limit, .. }) => {
                assert_eq!(*limit, MAX_DEPTH, "{at}");
                too_deep += 1;
            }
            Err(SqlError::Lex { .. } | SqlError::Parse { .. }) => {}
            Err(other) => panic!("{at}: {other:?}"),
        }
        let lexed = tokenize(&sql);
        let fingerprint = fingerprint_text(&sql);
        match cache_key(&sql) {
            Some(key) => {
                assert!(lexed.is_ok(), "{at}");
                let by_key = parse(&key);
                assert_eq!(by_key.as_ref().ok(), result.as_ref().ok(), "{at}");
                assert_eq!(by_key.is_err(), result.is_err(), "{at}");
                assert_eq!(fingerprint_text(&key), fingerprint, "{at}");
            }
            None => {
                assert!(lexed.is_err(), "{at}");
                assert_eq!(fingerprint, sql, "{at}");
            }
        }
        for vendor in VendorKind::ALL {
            match (dialect_for(vendor).check_text(&sql), &lexed) {
                (Err(VendorError::Sql(e)), Err(lex)) => assert_eq!(&e, lex, "{at}"),
                (Ok(()), Ok(_)) | (Err(VendorError::DialectViolation { .. }), _) => {}
                (other, _) => panic!("{at}: {vendor} gave {other:?}"),
            }
        }
    }
    // Every real statement parses, and so do some mutated ones; more than
    // half of the deep ones are past the limit.
    assert!(parsed > 3_000, "{parsed}");
    assert!(too_deep > 1_500, "{too_deep}");
}

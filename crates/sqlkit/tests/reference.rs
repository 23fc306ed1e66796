//! The engine against the reference interpreter (`gridfed-reference`) on
//! hand-picked cases: query shapes and a first error, join equality at the
//! edges of `=`, and compiled expressions over three-valued logic. The
//! random differentials are `props.rs` here and the workspace's
//! `prop_columnar_differential` / `prop_compile_differential`.

use gridfed_sqlkit::ast::Expr;
use gridfed_sqlkit::compile::{compile, CompiledExpr};
use gridfed_sqlkit::exec::{execute_plan, execute_select, DatabaseProvider, ProviderCatalog};
use gridfed_sqlkit::expr::Bindings;
use gridfed_sqlkit::parser::parse_select;
use gridfed_sqlkit::{build_plan, optimize, ResultSet, SqlError};
use gridfed_storage::{ColumnDef, DataType, Database, Row, Schema, Value};

fn samples() -> Database {
    let mut db = Database::new("ref");
    let t = db
        .create_table(
            "samples",
            Schema::new(vec![
                ColumnDef::new("id", DataType::Int).primary_key(),
                ColumnDef::new("tag", DataType::Text),
                ColumnDef::new("x", DataType::Float),
            ])
            .unwrap(),
        )
        .unwrap();
    for (id, tag, x) in [(1, "a", 1.5), (2, "b", 2.5), (3, "a", 3.5)] {
        t.insert(vec![Value::Int(id), tag.into(), Value::Float(x)])
            .unwrap();
    }
    db
}

/// The optimized plan of `sql` on the engine and on the reference.
fn both(db: &Database, sql: &str) -> [Result<ResultSet, SqlError>; 2] {
    let provider = DatabaseProvider(db);
    let plan = optimize(
        build_plan(&parse_select(sql).unwrap()),
        &ProviderCatalog(&provider),
    );
    [
        execute_plan(&plan, &provider),
        gridfed_reference::execute(&plan, &provider),
    ]
}

#[test]
fn engine_matches_reference_on_shapes() {
    let db = samples();
    for sql in [
        "SELECT * FROM samples",
        "SELECT id FROM samples WHERE x > 2.0",
        "SELECT tag, COUNT(*) AS n FROM samples GROUP BY tag ORDER BY tag",
        "SELECT DISTINCT tag FROM samples ORDER BY tag",
        "SELECT a.id, b.id FROM samples a JOIN samples b ON a.tag = b.tag WHERE a.id < b.id",
        "SELECT id FROM samples ORDER BY x DESC LIMIT 2",
    ] {
        let [engine, reference] = both(&db, sql);
        let (engine, reference) = (engine.unwrap(), reference.unwrap());
        assert_eq!(engine.columns, reference.columns, "{sql}");
        assert_eq!(engine.rows, reference.rows, "{sql}");
    }
}

#[test]
fn engine_matches_reference_on_errors() {
    let db = samples();
    let [engine, reference] = both(&db, "SELECT id FROM samples WHERE tag + 1 > 0");
    assert_eq!(
        engine.unwrap_err().to_string(),
        reference.unwrap_err().to_string()
    );
}

/// `a.k = b.k` over one-row tables `a` and `b` holding `a_k` and `b_k`, on
/// the engine and on the reference.
fn one_row_equi_join(data_type: DataType, a_k: Value, b_k: Value) -> [Vec<Row>; 2] {
    let mut db = Database::new("keys");
    for (name, k) in [("a", a_k), ("b", b_k)] {
        let schema = Schema::new(vec![ColumnDef::new("k", data_type)]).unwrap();
        db.create_table(name, schema)
            .unwrap()
            .insert(vec![k])
            .unwrap();
    }
    let stmt = parse_select("SELECT a.k, b.k FROM a JOIN b ON a.k = b.k").unwrap();
    let provider = DatabaseProvider(&db);
    let plan = optimize(build_plan(&stmt), &ProviderCatalog(&provider));
    [
        execute_select(&stmt, &provider).unwrap().rows,
        gridfed_reference::execute(&plan, &provider).unwrap().rows,
    ]
}

#[test]
fn join_equality_is_sql_equality() {
    // 2^53 + 1 and 2^53 are one `f64`, two integers.
    let [engine, reference] = one_row_equi_join(
        DataType::Int,
        Value::Int(9007199254740993),
        Value::Int(1 << 53),
    );
    assert!(engine.is_empty() && reference.is_empty(), "{engine:?}");
    // NaN equals nothing, itself included.
    let nan = Value::Float(f64::NAN);
    let [engine, reference] = one_row_equi_join(DataType::Float, nan.clone(), nan);
    assert!(engine.is_empty() && reference.is_empty(), "{engine:?}");
    // -0.0 = 0.0.
    let [engine, reference] =
        one_row_equi_join(DataType::Float, Value::Float(-0.0), Value::Float(0.0));
    assert_eq!((engine.len(), reference.len()), (1, 1));
}

fn t() -> Bindings {
    Bindings::for_table("t", &["a".into(), "b".into(), "c".into()])
}

fn where_of(sql_where: &str) -> Expr {
    parse_select(&format!("SELECT * FROM t WHERE {sql_where}"))
        .unwrap()
        .where_clause
        .unwrap()
}

#[test]
fn erroring_constant_stays_unfolded_and_errors_per_row() {
    let ce = compile(&where_of("a = 1 / 0"), &t()).unwrap();
    assert!(!matches!(ce, CompiledExpr::Literal(_)));
    let err = ce.eval(&[Value::Int(1), Value::Null, Value::Null]);
    assert!(matches!(err, Err(SqlError::Eval(_))));
    // ...but short-circuit still skips it, exactly like the reference.
    let guarded = where_of("a = a OR a = 1 / 0");
    let row = [Value::Int(1), Value::Null, Value::Null];
    assert_eq!(
        compile(&guarded, &t()).unwrap().eval(&row).unwrap(),
        gridfed_reference::eval(&guarded, &row, &t()).unwrap()
    );
}

#[test]
fn compiled_matches_reference_on_3vl_shapes() {
    let bd = t();
    let rows: [&[Value]; 3] = [
        &[Value::Int(5), Value::Null, Value::Text("ecal".into())],
        &[Value::Int(0), Value::Float(2.5), Value::Text("x".into())],
        &[Value::Null, Value::Null, Value::Null],
    ];
    for w in [
        "a > 3 AND b > 3",
        "a > 3 OR b > 3",
        "NOT b > 3",
        "a IN (1, 5, NULL)",
        "a NOT IN (1, NULL)",
        "a BETWEEN 0 AND 5",
        "c LIKE 'e%'",
        "c IS NOT NULL",
        "COALESCE(a, b, 9) = 9",
        "ABS(a) + LENGTH(c) > 2",
    ] {
        let e = where_of(w);
        let ce = compile(&e, &bd).unwrap();
        for row in rows {
            match (gridfed_reference::eval(&e, row, &bd), ce.eval(row)) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "value mismatch on `{w}`"),
                (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
                (a, b) => panic!("divergence on `{w}`: {a:?} vs {b:?}"),
            }
        }
    }
}

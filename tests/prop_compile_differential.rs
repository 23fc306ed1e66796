//! Differential property tests for the compiled-expression executor: for
//! any expression the compiler accepts, `CompiledExpr::eval` over a row
//! must agree with the interpreted `expr::eval` — same values *and* same
//! errors. Compile-time rejections (unknown/ambiguous columns, aggregates
//! outside aggregation) must correspond to expressions the interpreter
//! also refuses to evaluate.
//!
//! Coverage comes from two directions: the expressions embedded in the
//! eight Table-1-shaped queries of `prop_plan_differential` (projections,
//! join ON conditions, WHERE/HAVING, GROUP BY, ORDER BY keys), and fully
//! random expression trees rendered to SQL and re-parsed. The grouped and
//! ordered shapes `prop_columnar_differential` runs end to end contribute
//! their keys, HAVING predicates and sort keys here.

use gridfed::sqlkit::ast::{Expr, SelectItem};
use gridfed::sqlkit::compile::compile;
use gridfed::sqlkit::expr::{self, Bindings};
use gridfed::sqlkit::parser::parse_select;
use gridfed::storage::Value;
use proptest::prelude::*;

/// Bindings for the three-table join layout `events e, runs r, dets d`
/// that all eight query shapes resolve against.
fn join_bindings() -> Bindings {
    let cols = |names: &[&str]| -> Vec<String> { names.iter().map(|s| s.to_string()).collect() };
    Bindings::for_table("e", &cols(&["id", "run", "det", "energy"]))
        .concat(&Bindings::for_table("r", &cols(&["run", "lumi"])))
        .concat(&Bindings::for_table("d", &cols(&["det", "region"])))
}

/// Build one 8-cell row for [`join_bindings`], nulling out the columns
/// whose bit is set in `null_mask` so three-valued logic gets exercised.
#[allow(clippy::too_many_arguments)]
fn build_row(
    id: i64,
    run: i64,
    det: i64,
    energy: f64,
    r_run: i64,
    lumi: f64,
    region: &str,
    null_mask: usize,
) -> Vec<Value> {
    let cells = vec![
        Value::Int(id),
        Value::Int(run),
        Value::Int(det),
        Value::Float(energy),
        Value::Int(r_run),
        Value::Float(lumi),
        Value::Int(det),
        Value::Text(region.to_string()),
    ];
    cells
        .into_iter()
        .enumerate()
        .map(|(i, v)| {
            if null_mask & (1 << i) != 0 {
                Value::Null
            } else {
                v
            }
        })
        .collect()
}

/// Every expression a SELECT statement carries: projected items, join ON
/// conditions, WHERE, GROUP BY, HAVING, ORDER BY keys.
fn exprs_of(sql: &str) -> Vec<Expr> {
    let stmt = parse_select(sql).unwrap_or_else(|e| panic!("`{sql}` must parse: {e}"));
    let mut out = Vec::new();
    for item in &stmt.items {
        if let SelectItem::Expr { expr, .. } = item {
            out.push(expr.clone());
        }
    }
    for join in &stmt.joins {
        out.extend(join.on.iter().cloned());
    }
    out.extend(stmt.where_clause.iter().cloned());
    out.extend(stmt.group_by.iter().cloned());
    out.extend(stmt.having.iter().cloned());
    out.extend(stmt.order_by.iter().map(|o| o.expr.clone()));
    out
}

/// True if any node of the tree is one compilation rejects up front: a
/// column that does not resolve against the bindings, or an aggregate
/// call. The interpreter only trips over these when evaluation actually
/// reaches the node (short-circuit can skip it), so these are the *only*
/// shapes where compile-time and row-time error behaviour may differ.
fn has_compile_time_error(expr: &Expr, bindings: &Bindings) -> bool {
    let sub = |e: &Expr| has_compile_time_error(e, bindings);
    match expr {
        Expr::Literal(_) => false,
        Expr::Column(cref) => bindings.resolve(cref).is_err(),
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Like { expr, .. } => sub(expr),
        Expr::Binary { left, right, .. } => sub(left) || sub(right),
        Expr::InList { expr, list, .. } => sub(expr) || list.iter().any(sub),
        Expr::Between { expr, lo, hi, .. } => sub(expr) || sub(lo) || sub(hi),
        Expr::Func { args, .. } => args.iter().any(sub),
        Expr::Aggregate { .. } => true,
    }
}

/// The differential check itself. Compiled evaluation must reproduce the
/// interpreter bit-for-bit: equal `Ok` values, equal `Err` variants, for
/// both value and predicate forms. When compilation is rejected, the
/// expression must contain a genuine binding error or stray aggregate —
/// the class of errors the compiler deliberately hoists to compile time
/// (the interpreter may dodge them via short-circuit on a given row).
fn check(expr: &Expr, bindings: &Bindings, row: &[Value]) -> Result<(), TestCaseError> {
    match compile(expr, bindings) {
        Ok(compiled) => {
            prop_assert_eq!(
                compiled.eval(row),
                expr::eval(expr, row, bindings),
                "value disagreement for {:?} on {:?}",
                expr,
                row
            );
            prop_assert_eq!(
                compiled.eval_predicate(row),
                expr::eval_predicate(expr, row, bindings),
                "predicate disagreement for {:?} on {:?}",
                expr,
                row
            );
        }
        Err(_) => {
            prop_assert!(
                has_compile_time_error(expr, bindings),
                "compile rejected {:?} without a binding error or aggregate",
                expr
            );
        }
    }
    Ok(())
}

/// SQL fragments for random expression trees: leaves are columns of the
/// join layout (mixed qualified/unqualified), literals of every type, and
/// NULL.
fn leaf_sql() -> BoxedStrategy<String> {
    prop_oneof![
        Just("id".to_string()),
        Just("e.run".to_string()),
        Just("e.det".to_string()),
        Just("energy".to_string()),
        Just("r.run".to_string()),
        Just("lumi".to_string()),
        Just("d.region".to_string()),
        // Unqualified `run`/`det` are ambiguous across e/r/d: these must
        // fail identically in both evaluators.
        Just("run".to_string()),
        Just("det".to_string()),
        Just("nosuch".to_string()),
        Just("NULL".to_string()),
        Just("TRUE".to_string()),
        Just("FALSE".to_string()),
        (-100i64..100).prop_map(|i| i.to_string()),
        (-50.0f64..50.0).prop_map(|x| format!("{x:.3}")),
        Just("'barrel'".to_string()),
        Just("'endcap'".to_string()),
        Just("0".to_string()),
    ]
    .boxed()
}

/// Random expression SQL: arithmetic, comparisons, 3VL connectives,
/// IS NULL, BETWEEN, IN lists, LIKE, and scalar functions over the leaves.
fn expr_sql() -> BoxedStrategy<String> {
    leaf_sql().prop_recursive(3, 32, 3, |inner| {
        prop_oneof![
            (inner.clone(), 0usize..5, inner.clone()).prop_map(|(a, op, b)| {
                let op = ["+", "-", "*", "/", "%"][op];
                format!("({a} {op} {b})")
            }),
            (inner.clone(), 0usize..6, inner.clone()).prop_map(|(a, op, b)| {
                let op = ["=", "<>", "<", "<=", ">", ">="][op];
                format!("({a} {op} {b})")
            }),
            (inner.clone(), 0usize..2, inner.clone()).prop_map(|(a, op, b)| {
                let op = ["AND", "OR"][op];
                format!("({a} {op} {b})")
            }),
            inner.clone().prop_map(|a| format!("(NOT {a})")),
            inner.clone().prop_map(|a| format!("(-{a})")),
            (inner.clone(), 0usize..2)
                .prop_map(|(a, neg)| { format!("({a} IS {}NULL)", ["", "NOT "][neg]) }),
            (inner.clone(), inner.clone(), inner.clone())
                .prop_map(|(a, lo, hi)| format!("({a} BETWEEN {lo} AND {hi})")),
            (inner.clone(), -5i64..5, 0usize..2).prop_map(|(a, n, neg)| {
                format!("({a} {}IN ({n}, {}, 'barrel'))", ["", "NOT "][neg], n + 1)
            }),
            // Membership lists as a reduction ships them and as it does not:
            // a NULL item, a FLOAT among INTs, the empty-reduction guard
            // `IN (NULL)`, text items beside a string no row holds.
            (inner.clone(), -5i64..5, 0usize..5, 0usize..2).prop_map(|(a, n, list, neg)| {
                let list = [
                    format!("{n}, NULL, {}", n + 2),
                    format!("{n}, {}.0, {}", n + 1, n + 3),
                    "NULL".to_string(),
                    "'barrel', 'absent'".to_string(),
                    "'endcap', NULL".to_string(),
                ][list]
                    .clone();
                format!("({a} {}IN ({list}))", ["", "NOT "][neg])
            }),
            (inner.clone(), 0usize..3).prop_map(|(a, p)| {
                let pat = ["'bar%'", "'%cap'", "'b_rrel'"][p];
                format!("({a} LIKE {pat})")
            }),
            inner.clone().prop_map(|a| format!("ABS({a})")),
            inner.clone().prop_map(|a| format!("LENGTH({a})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("COALESCE({a}, {b})")),
            inner.clone().prop_map(|a| format!("UPPER({a})")),
        ]
        .boxed()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every expression of the eight Table-1 query shapes evaluates
    /// identically under compilation and interpretation.
    #[test]
    fn compiled_matches_interpreted_on_table1_shapes(
        e in (0i64..60, 0i64..8, 0i64..4, -50.0f64..50.0),
        rd in (0i64..8, 0.0f64..10.0, 0usize..2),
        null_mask in 0usize..256,
        threshold in -50.0f64..50.0,
    ) {
        let (id, run, det, energy) = e;
        let (r_run, lumi, region) = rd;
        let row = build_row(
            id, run, det, energy, r_run, lumi,
            ["barrel", "endcap"][region], null_mask,
        );
        let bindings = join_bindings();

        // The eight query shapes of `prop_plan_differential`, verbatim.
        let queries = [
            format!("SELECT id, energy FROM events WHERE energy > {threshold} + 2.0 * 1.5"),
            format!(
                "SELECT e.id, r.lumi FROM events e JOIN runs r ON e.run = r.run \
                 WHERE e.energy > {threshold} AND r.lumi >= 1.0 AND e.id < r.run + 100"
            ),
            "SELECT e.energy FROM events e JOIN dets d ON e.det = d.det \
             WHERE d.region = 'barrel'".to_string(),
            format!(
                "SELECT e.id, r.lumi, d.region FROM events e \
                 JOIN runs r ON e.run = r.run JOIN dets d ON e.det = d.det \
                 WHERE e.energy > {threshold}"
            ),
            "SELECT * FROM events e JOIN runs r ON e.run = r.run \
             JOIN dets d ON e.det = d.det".to_string(),
            format!(
                "SELECT e.id, d.region FROM events e LEFT JOIN dets d ON e.det = d.det \
                 WHERE e.energy > {threshold}"
            ),
            format!(
                "SELECT e.run, COUNT(*) AS n, AVG(e.energy) AS avg_e FROM events e \
                 JOIN runs r ON e.run = r.run WHERE e.energy > {threshold} \
                 GROUP BY e.run HAVING COUNT(*) > 1 ORDER BY e.run"
            ),
            "SELECT DISTINCT e.det FROM events e JOIN dets d ON e.det = d.det \
             ORDER BY e.det LIMIT 2".to_string(),
        ];

        // Select lists of named columns (twice, aliased, beside an
        // erroring expression), ORDER BY on an alias / an output column /
        // an input expression, and the IN-list forms of the typed kernels.
        let named_and_in_lists = [
            "SELECT d.region, e.id, e.energy, e.id FROM events e".to_string(),
            "SELECT d.region + 1 AS boom, e.id, lumi FROM events e".to_string(),
            "SELECT e.id, lumi, d.region + 1 AS boom FROM events e".to_string(),
            "SELECT e.id, energy AS en, d.region FROM events e \
             ORDER BY en DESC, region, id".to_string(),
            "SELECT e.id, d.region FROM events e ORDER BY energy * -1.0, lumi, d.region + 1"
                .to_string(),
            format!("SELECT id FROM events e WHERE e.run IN ({run}, NULL, {})", run + 1),
            format!("SELECT id FROM events e WHERE e.run NOT IN ({run}, 3) AND e.det NOT IN (1, NULL)"),
            format!("SELECT id FROM events e WHERE e.run IN (1, 2.0, {run}) OR e.det IN (1, 'barrel')"),
            "SELECT id FROM events e WHERE e.run IN (NULL)".to_string(),
            "SELECT id FROM events e WHERE d.region IN ('barrel', 'absent', NULL) \
             OR d.region NOT IN ('endcap') OR d.region NOT IN ('endcap', NULL)".to_string(),
        ];

        // Grouping keys, aggregate arguments, HAVING and sort keys of the
        // shapes the executor buckets and orders straight off the chunks:
        // bare and computed keys, one folding INT into FLOAT, erroring ones.
        let grouping_and_ordering = [
            "SELECT e.run, d.region, COUNT(*) AS n, SUM(e.det) AS s, AVG(energy) AS a, \
             MIN(d.region) AS lo, COUNT(DISTINCT e.det) AS dd FROM events e \
             GROUP BY e.run, d.region HAVING COUNT(*) > 1 AND e.run >= 0 ORDER BY e.run DESC"
                .to_string(),
            "SELECT COUNT(*) FROM events e GROUP BY COALESCE(energy, e.det), e.det * 2 + 1, \
             d.region + 1 HAVING SUM(d.region) > 0".to_string(),
            format!(
                "SELECT e.id, energy FROM events e WHERE energy > {threshold} \
                 ORDER BY energy DESC, e.det, energy * -1.0, d.region + 1 LIMIT 5"
            ),
            "SELECT e.id, d.region + 1 AS boom FROM events e ORDER BY d.region, id LIMIT 1"
                .to_string(),
        ];

        for sql in queries.iter().chain(&named_and_in_lists).chain(&grouping_and_ordering) {
            for expr in exprs_of(sql) {
                check(&expr, &bindings, &row)?;
            }
        }
    }

    /// Random expression trees — including ill-typed, NULL-heavy, and
    /// unresolvable ones — evaluate identically under compilation and
    /// interpretation.
    #[test]
    fn compiled_matches_interpreted_on_random_exprs(
        sql in expr_sql(),
        e in (0i64..60, 0i64..8, 0i64..4, -50.0f64..50.0),
        rd in (0i64..8, 0.0f64..10.0, 0usize..2),
        null_mask in 0usize..256,
    ) {
        let (id, run, det, energy) = e;
        let (r_run, lumi, region) = rd;
        let row = build_row(
            id, run, det, energy, r_run, lumi,
            ["barrel", "endcap"][region], null_mask,
        );
        let bindings = join_bindings();

        let wrapped = format!("SELECT 1 FROM t WHERE {sql}");
        let Ok(stmt) = parse_select(&wrapped) else {
            // A generated fragment the parser rejects carries no
            // differential signal; skip it.
            return Ok(());
        };
        let expr = stmt.where_clause.expect("WHERE present by construction");
        check(&expr, &bindings, &row)?;
    }
}

//! Golden-file tests for EXPLAIN and EXPLAIN ANALYZE over the eight
//! query shapes exercised by the optimizer differential property test, and
//! a ninth — ORDER BY … LIMIT over a plain projection of named columns —
//! where the order is settled on the selection: `Sort` and `Strip` report
//! fused, and the `Project` reports the rows it built, not the rows it read.
//! Actual timings are wall-clock and vary run to run, so `time=…` tokens
//! are normalized to `time=*` before comparison.
//!
//! Regenerate with `UPDATE_GOLDEN=1 cargo test --test golden_explain`.

use gridfed::sqlkit::analyze::{explain_analyze_select, explain_select};
use gridfed::sqlkit::exec::{DatabaseProvider, ProviderCatalog};
use gridfed::sqlkit::parser::parse_select;
use gridfed::storage::{ColumnDef, DataType, Database, Schema, Value};
use std::path::PathBuf;

/// Deterministic three-table dataset shaped like the differential test's:
/// a fact table and two small dimensions.
fn build_db() -> Database {
    let mut db = Database::new("golden");
    let schema = Schema::new(vec![
        ColumnDef::new("id", DataType::Int).primary_key(),
        ColumnDef::new("run", DataType::Int),
        ColumnDef::new("det", DataType::Int),
        ColumnDef::new("energy", DataType::Float),
    ])
    .expect("schema");
    let t = db.create_table("events", schema).expect("table");
    for id in 0i64..20 {
        t.insert(vec![
            Value::Int(id),
            Value::Int(id % 4),
            Value::Int(id % 3),
            Value::Float(id as f64 * 3.7 - 25.0),
        ])
        .expect("insert");
    }
    let schema = Schema::new(vec![
        ColumnDef::new("run", DataType::Int).primary_key(),
        ColumnDef::new("lumi", DataType::Float),
    ])
    .expect("schema");
    let t = db.create_table("runs", schema).expect("table");
    for run in 0i64..4 {
        t.insert(vec![Value::Int(run), Value::Float(run as f64 + 0.5)])
            .expect("insert");
    }
    let schema = Schema::new(vec![
        ColumnDef::new("det", DataType::Int).primary_key(),
        ColumnDef::new("region", DataType::Text),
    ])
    .expect("schema");
    let t = db.create_table("dets", schema).expect("table");
    for (det, region) in [(0, "barrel"), (1, "endcap"), (2, "barrel")] {
        t.insert(vec![Value::Int(det), Value::Text(region.into())])
            .expect("insert");
    }
    db
}

/// The eight shapes from `prop_plan_differential`, with the threshold
/// pinned so plans and row counts are reproducible, then the top-k shape.
fn shapes() -> [String; 9] {
    let threshold = 5.0;
    [
        format!("SELECT id, energy FROM events WHERE energy > {threshold} + 2.0 * 1.5"),
        format!(
            "SELECT e.id, r.lumi FROM events e JOIN runs r ON e.run = r.run \
             WHERE e.energy > {threshold} AND r.lumi >= 1.0 AND e.id < r.run + 100"
        ),
        "SELECT e.energy FROM events e JOIN dets d ON e.det = d.det \
         WHERE d.region = 'barrel'"
            .to_string(),
        format!(
            "SELECT e.id, r.lumi, d.region FROM events e \
             JOIN runs r ON e.run = r.run JOIN dets d ON e.det = d.det \
             WHERE e.energy > {threshold}"
        ),
        "SELECT * FROM events e JOIN runs r ON e.run = r.run \
         JOIN dets d ON e.det = d.det"
            .to_string(),
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
         ORDER BY e.det LIMIT 2"
            .to_string(),
        "SELECT id, energy FROM events WHERE run >= 1 ORDER BY energy DESC, id LIMIT 5".to_string(),
    ]
}

/// Replace run-varying wall-clock tokens (`time=…`, `compile: …`) with `*`.
fn normalize(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        let mut rest = line;
        loop {
            let time = rest.find("time=").map(|p| (p, "time=", "time=*"));
            let compile = rest
                .find("compile: ")
                .map(|p| (p, "compile: ", "compile: *"));
            let Some((pos, token, replacement)) = [time, compile]
                .into_iter()
                .flatten()
                .min_by_key(|(p, _, _)| *p)
            else {
                break;
            };
            out.push_str(&rest[..pos]);
            out.push_str(replacement);
            let after = &rest[pos + token.len()..];
            let end = after
                .find(|c: char| c == ')' || c.is_whitespace())
                .unwrap_or(after.len());
            rest = &after[end..];
        }
        out.push_str(rest);
        out.push('\n');
    }
    out
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check_golden(name: &str, rendered: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("mkdir golden");
        std::fs::write(&path, rendered).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with \
             UPDATE_GOLDEN=1 cargo test --test golden_explain",
            path.display()
        )
    });
    assert_eq!(
        rendered, expected,
        "golden mismatch for {name}; regenerate with \
         UPDATE_GOLDEN=1 cargo test --test golden_explain"
    );
}

#[test]
fn explain_and_analyze_match_goldens_for_all_eight_shapes() {
    let db = build_db();
    let provider = DatabaseProvider(&db);
    let catalog = ProviderCatalog(&provider);
    for (i, sql) in shapes().iter().enumerate() {
        let stmt = parse_select(sql).expect("parses");
        let mut rendered = format!("-- {sql}\n\n== EXPLAIN ==\n");
        rendered.push_str(&explain_select(&stmt, &catalog));
        rendered.push_str("\n== EXPLAIN ANALYZE ==\n");
        let analyzed = explain_analyze_select(&stmt, &provider).expect("analyze");
        rendered.push_str(&normalize(&analyzed));
        check_golden(&format!("shape_{:02}.txt", i + 1), &rendered);
    }
}

/// The actuals in the analyzed rendering are real: the root node's actual
/// row count equals what executing the query returns.
#[test]
fn analyze_actuals_are_consistent_with_execution() {
    let db = build_db();
    let provider = DatabaseProvider(&db);
    for sql in shapes().iter() {
        let stmt = parse_select(sql).expect("parses");
        let analyzed = explain_analyze_select(&stmt, &provider).expect("analyze");
        let plan = gridfed::sqlkit::build_plan(&stmt);
        let rs = gridfed::sqlkit::exec::execute_plan(&plan, &provider).expect("execute");
        assert!(
            analyzed.contains(&format!("rows returned: {}", rs.len())),
            "`{sql}`:\n{analyzed}"
        );
    }
}

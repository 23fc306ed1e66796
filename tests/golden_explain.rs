//! Golden-file tests for EXPLAIN and EXPLAIN ANALYZE over the eight
//! query shapes exercised by the optimizer differential property test, and
//! a ninth — ORDER BY … LIMIT over a plain projection of named columns —
//! where the order is settled on the selection: `Sort` and `Strip` report
//! fused, and the `Project` reports the rows it built, not the rows it read.
//! Two more take the key kernel's fallbacks, each over data built for it:
//! a join whose build keys span too wide for an array (a hashed index) and
//! a GROUP BY whose key comes back after another (ids kept per entry).
//! Actual timings are wall-clock and vary run to run, so `time=…` tokens
//! are normalized to `time=*` before comparison.
//!
//! Regenerate with `UPDATE_GOLDEN=1 cargo test --test golden_explain`.

mod common;

use common::check_golden;
use gridfed::sqlkit::analyze::{explain_analyze_select, explain_select};
use gridfed::sqlkit::exec::{DatabaseProvider, ProviderCatalog};
use gridfed::sqlkit::parser::parse_select;
use gridfed::storage::{ColumnDef, DataType, Database, Schema, Value};

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
    // Keys too far apart for a dense join index.
    let schema = Schema::new(vec![
        ColumnDef::new("key", DataType::Int).primary_key(),
        ColumnDef::new("label", DataType::Text),
    ])
    .expect("schema");
    let t = db.create_table("wide", schema).expect("table");
    for (key, label) in [
        (7, "near"),
        (1 << 40, "far"),
        (-(1 << 40), "below"),
        (0, "zero"),
    ] {
        t.insert(vec![Value::Int(key), Value::Text(label.into())])
            .expect("insert");
    }
    db
}

/// The eight shapes from `prop_plan_differential`, with the threshold
/// pinned so plans and row counts are reproducible, then the top-k shape
/// and the two fallbacks.
fn shapes() -> [String; 11] {
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
        "SELECT e.id, w.label FROM events e JOIN wide w ON e.id = w.key".to_string(),
        "SELECT det, COUNT(*) AS n FROM events GROUP BY det".to_string(),
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

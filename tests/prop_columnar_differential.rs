//! Differential property test for the vectorized executor: for every query
//! shape the engine supports, the columnar batch executor must agree with
//! the retained row-at-a-time reference interpreter on **values and
//! errors** — same rows in the same order, or the same error message. Any
//! divergence is a vectorization bug by definition: selection-vector
//! refinement, null-bitmap handling, dictionary-encoded string predicates,
//! deferred per-row error ordering, and late materialization all sit in the
//! blast radius of this test.
//!
//! The data generator deliberately exercises the columnar machinery: NULLs
//! in every non-key column (null bitmaps), a small string pool with repeats
//! (dictionary encoding), deleted rows (tombstone masks in the scan), and a
//! text column fed into arithmetic (per-row evaluation errors whose *first*
//! occurrence must match between engines).
//!
//! The later shapes aim at the output boundary and at membership tests:
//! select lists of named columns (the same column twice, `t.*` beside a
//! named column, an erroring expression before and after them), ORDER BY
//! on an alias, an output column and a hidden input expression, and
//! IN-lists whose items the generator draws — INT and TEXT columns, a NULL
//! item, `NOT IN`, a FLOAT item among INTs, `IN (NULL)`, a string the
//! dictionary has never seen — each sequentially and on 3- and 4-worker
//! pools.
//!
//! The last block aims at the two result-shaping nodes. Grouping: an INT key
//! with NULLs, the dictionary TEXT key, a FLOAT key that holds `0.0` and
//! `-0.0` (one group), two keys, a key that folds INT into FLOAT, an
//! expression key that errors at the first non-NULL tag; every aggregate
//! over INT, FLOAT and TEXT columns with NULLs, `COUNT(DISTINCT …)`, and an
//! aggregate that errors in groups HAVING drops (hidden) and keeps
//! (surfaces). Ordering under a drawn LIMIT — zero, inside, past the row
//! count: duplicate and NULL keys (ties keep scan order), `DESC` FLOAT then
//! `ASC` INT, a computed key, an erroring key, a FLOAT key that holds NaNs
//! (they sort after every number), and a select-list expression that errors
//! on a row the LIMIT would drop.

use gridfed::sqlkit::exec::{execute_plan, DatabaseProvider, ProviderCatalog};
use gridfed::sqlkit::exec_row::execute_plan_rowwise;
use gridfed::sqlkit::parser::parse_select;
use gridfed::sqlkit::{build_plan, optimize, with_exec_config, ExecConfig};
use gridfed::storage::{ColumnDef, DataType, Database, Schema, Value};
use proptest::prelude::*;

const TAGS: [&str; 5] = ["barrel", "b-tag", "endcap", "fwd", "b"];
const REGIONS: [&str; 3] = ["barrel", "endcap", "forward"];

type EventRow = (i64, Option<i64>, Option<i64>, Option<f64>, Option<usize>);

/// Build the three-table database: a fact table with NULLs and strings,
/// plus two small dimensions. `kill` selects fact rows to delete afterwards
/// so scans run over tombstoned chunks.
fn build_db(
    events: &[EventRow],
    runs: &[(i64, f64)],
    dets: &[(i64, usize)],
    kill: i64,
) -> Database {
    let mut db = Database::new("diff");
    let schema = Schema::new(vec![
        ColumnDef::new("id", DataType::Int).primary_key(),
        ColumnDef::new("run", DataType::Int),
        ColumnDef::new("det", DataType::Int),
        ColumnDef::new("energy", DataType::Float),
        ColumnDef::new("tag", DataType::Text),
    ])
    .expect("schema");
    let t = db.create_table("events", schema).expect("table");
    for (id, run, det, energy, tag) in events {
        t.insert(vec![
            Value::Int(*id),
            run.map_or(Value::Null, Value::Int),
            det.map_or(Value::Null, Value::Int),
            energy.map_or(Value::Null, Value::Float),
            tag.map_or(Value::Null, |i| Value::Text(TAGS[i % TAGS.len()].into())),
        ])
        .expect("insert");
    }
    if kill > 0 {
        t.delete_where(|r| matches!(r.values()[0], Value::Int(id) if id % kill == 0));
    }
    // The events' energies again, every third one a NaN: a sort key only,
    // never projected (result rows are compared by `==`, under which a NaN
    // does not equal itself).
    let schema = Schema::new(vec![
        ColumnDef::new("id", DataType::Int).primary_key(),
        ColumnDef::new("w", DataType::Float),
    ])
    .expect("schema");
    let t = db.create_table("wobbles", schema).expect("table");
    for (id, _, _, energy, _) in events {
        let w = if id % 3 == 0 { Some(f64::NAN) } else { *energy };
        t.insert(vec![Value::Int(*id), w.map_or(Value::Null, Value::Float)])
            .expect("insert");
    }
    let schema = Schema::new(vec![
        ColumnDef::new("run", DataType::Int).primary_key(),
        ColumnDef::new("lumi", DataType::Float),
    ])
    .expect("schema");
    let t = db.create_table("runs", schema).expect("table");
    for (run, lumi) in runs {
        t.insert(vec![Value::Int(*run), Value::Float(*lumi)])
            .expect("insert");
    }
    let schema = Schema::new(vec![
        ColumnDef::new("det", DataType::Int).primary_key(),
        ColumnDef::new("region", DataType::Text),
    ])
    .expect("schema");
    let t = db.create_table("dets", schema).expect("table");
    for (det, region) in dets {
        t.insert(vec![
            Value::Int(*det),
            Value::Text(REGIONS[region % REGIONS.len()].into()),
        ])
        .expect("insert");
    }
    db
}

fn dedup_by_key<T: Clone, K: std::hash::Hash + Eq>(items: &[T], key: impl Fn(&T) -> K) -> Vec<T> {
    let mut seen = std::collections::HashSet::new();
    items
        .iter()
        .filter(|it| seen.insert(key(it)))
        .cloned()
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// All eight supported query shapes, vectorized vs row-at-a-time, on
    /// values and errors, over randomized nullable/tombstoned/string data.
    #[test]
    fn vectorized_executor_matches_row_interpreter(
        raw_events in prop::collection::vec(
            (
                0i64..80,
                prop::option::of(0i64..8),
                prop::option::of(0i64..5),
                // Both zeros on purpose: they are one grouping key and one
                // sort key, whichever sign a row carries.
                prop::option::of(prop_oneof![
                    -50.0f64..50.0,
                    -50.0f64..50.0,
                    -50.0f64..50.0,
                    Just(0.0f64),
                    Just(-0.0f64),
                ]),
                prop::option::of(0usize..TAGS.len()),
            ),
            0..40,
        ),
        raw_runs in prop::collection::vec((0i64..8, 0.0f64..10.0), 0..8),
        raw_dets in prop::collection::vec((0i64..5, 0usize..REGIONS.len()), 0..5),
        threshold in -50.0f64..50.0,
        kill in 0i64..7,
        int_keys in prop::collection::vec(0i64..9, 1..7),
        tag_keys in prop::collection::vec(0usize..TAGS.len() + 2, 1..4),
        limit in 0u64..45,
    ) {
        let events = dedup_by_key(&raw_events, |(id, ..)| *id);
        let runs = dedup_by_key(&raw_runs, |(run, _)| *run);
        let dets = dedup_by_key(&raw_dets, |(d, _)| *d);
        let db = build_db(&events, &runs, &dets, kill);
        let provider = DatabaseProvider(&db);
        let catalog = ProviderCatalog(&provider);

        // Generated IN-list bodies: duplicates and unsorted order on purpose;
        // a tag index past the pool is a string no dictionary holds.
        let ints = int_keys.iter().map(i64::to_string).collect::<Vec<_>>().join(", ");
        let tags = tag_keys
            .iter()
            .map(|&i| format!("'{}'", TAGS.get(i).copied().unwrap_or("absent")))
            .collect::<Vec<_>>()
            .join(", ");

        let shapes = [
            // 1. Scan + computed projection (late materialization).
            format!(
                "SELECT id, energy * 2.0 + 1.0 AS e2, tag FROM events \
                 WHERE energy > {threshold}"
            ),
            // 2. Infallible kernel zoo: comparisons, IN, BETWEEN, LIKE on a
            //    dictionary column, IS NULL, AND/OR 3VL.
            format!(
                "SELECT id, det FROM events WHERE \
                 (energy > {threshold} AND det IN (0, 2, 4)) \
                 OR tag LIKE 'b%' OR (run IS NULL AND id BETWEEN 10 AND 60)"
            ),
            // 3. Fallible predicate: text arithmetic errors row-by-row; the
            //    engines must report the same first error — or agree the
            //    query succeeds when every tag is NULL.
            format!("SELECT id FROM events WHERE tag + 1 > id OR energy > {threshold}"),
            // 4. Hash equi-join with pushed and residual predicates.
            format!(
                "SELECT e.id, r.lumi FROM events e JOIN runs r ON e.run = r.run \
                 WHERE e.energy > {threshold} AND r.lumi >= 1.0"
            ),
            // 5. LEFT JOIN: NULL padding flows through gathered columns.
            "SELECT e.id, d.region FROM events e LEFT JOIN dets d ON e.det = d.det \
             ORDER BY e.id".to_string(),
            // 6. GROUP BY with NULL keys, HAVING, multiple aggregates.
            "SELECT run, COUNT(*) AS n, SUM(energy) AS s, AVG(energy) AS a \
             FROM events GROUP BY run HAVING COUNT(*) > 1 ORDER BY run".to_string(),
            // 7. DISTINCT + ORDER BY + LIMIT (top-k fusion) on a dict column.
            "SELECT DISTINCT tag FROM events ORDER BY tag DESC LIMIT 3".to_string(),
            // 8. Global aggregates over a nested-loop (inequality) join.
            "SELECT COUNT(*) AS n, MIN(e.energy) AS lo, MAX(e.id) AS hi \
             FROM events e JOIN dets d ON e.det < d.det".to_string(),
            // 9. Named select items only: mixed order, one column twice.
            format!("SELECT tag, id, energy, id FROM events WHERE energy > {threshold}"),
            // 10. `t.*` beside named columns, over gathered join columns.
            "SELECT e.*, r.lumi, e.id FROM events e JOIN runs r ON e.run = r.run".to_string(),
            // 11/12. An expression that errors at the first non-NULL tag,
            //     placed before and after the named columns: the same row's
            //     error whichever side the copied columns sit on.
            "SELECT tag + 1 AS boom, id, energy FROM events".to_string(),
            "SELECT id, energy, tag + 1 AS boom FROM events".to_string(),
            // 13. ORDER BY an alias of a named column and an output column.
            "SELECT id, energy AS en, tag FROM events ORDER BY en DESC, tag, id".to_string(),
            // 14. ORDER BY input expressions the select list does not carry
            //     (hidden trailing keys) over named-column items.
            "SELECT id, tag FROM events ORDER BY energy * -1.0, run, id".to_string(),
            // 15. ... and one whose hidden key errors row by row.
            "SELECT id, run FROM events ORDER BY tag + 1, id".to_string(),
            // 16. INT IN-list over a nullable column, with a NULL item.
            format!("SELECT id, run FROM events WHERE run IN ({ints}, NULL)"),
            // 17. NOT IN without and with a NULL item (the latter is never true).
            format!("SELECT id FROM events WHERE det NOT IN ({ints}) AND id IN ({ints}, 41, 60)"),
            format!("SELECT id FROM events WHERE run NOT IN ({ints}, NULL)"),
            // 18. A FLOAT item among INT items; a TEXT item among INT items.
            format!("SELECT id FROM events WHERE run IN ({ints}, 2.0) OR det IN (1, 'barrel')"),
            // 19. The empty-reduction guard.
            "SELECT id FROM events WHERE run IN (NULL)".to_string(),
            // 20. TEXT IN-lists over the dictionary column.
            format!("SELECT id, tag FROM events WHERE tag IN ({tags}, NULL)"),
            format!("SELECT id FROM events WHERE tag NOT IN ({tags})"),
            format!("SELECT id FROM events WHERE tag NOT IN ({tags}, NULL)"),
            // 21. IN-lists below NOT / OR (the per-row kernel path).
            format!(
                "SELECT id FROM events WHERE NOT (run IN ({ints}, NULL)) OR tag IN ({tags})"
            ),
            // 22. Every aggregate over INT and FLOAT columns with NULLs,
            //     grouped by a nullable INT key.
            "SELECT run, COUNT(*) AS n, COUNT(energy) AS c, SUM(det) AS si, AVG(det) AS ai, \
             MIN(det) AS lo, MAX(det) AS hi, SUM(energy) AS sf, AVG(energy) AS af, \
             MIN(energy) AS flo, MAX(energy) AS fhi FROM events GROUP BY run".to_string(),
            // 23. The dictionary TEXT key; MIN/MAX over TEXT; COUNT(DISTINCT).
            "SELECT tag, COUNT(*) AS n, COUNT(DISTINCT run) AS d, MIN(id) AS lo \
             FROM events GROUP BY tag ORDER BY tag".to_string(),
            "SELECT det, MIN(tag) AS lo, MAX(tag) AS hi, COUNT(tag) AS c, \
             COUNT(DISTINCT tag) AS d FROM events GROUP BY det".to_string(),
            // 24. A FLOAT key: `0.0` and `-0.0` are one group, named by
            //     whichever came first.
            "SELECT energy, COUNT(*) AS n, SUM(id) AS s FROM events GROUP BY energy".to_string(),
            // 25. Two keys (INT, TEXT), filtered, with HAVING on an aggregate
            //     the select list does not carry.
            format!(
                "SELECT run, tag, COUNT(*) AS n, MAX(energy) AS hi FROM events \
                 WHERE energy > {threshold} GROUP BY run, tag HAVING MIN(id) < 60 \
                 ORDER BY run DESC, tag"
            ),
            // 26. Expression keys: one folding INT into FLOAT (`1` and `1.0`
            //     group together), one that errors at the first non-NULL tag.
            "SELECT COALESCE(energy, det) AS k, COUNT(*) AS n FROM events \
             GROUP BY COALESCE(energy, det)".to_string(),
            "SELECT det * 2 + 1 AS k, run, AVG(energy) AS a FROM events \
             GROUP BY det * 2 + 1, run".to_string(),
            "SELECT COUNT(*) AS n FROM events GROUP BY tag + 1".to_string(),
            // 27. An aggregate that errors: hidden in groups HAVING drops
            //     (here every group), surfacing from the first group kept.
            "SELECT run, SUM(tag) AS s FROM events GROUP BY run HAVING COUNT(*) > 1000".to_string(),
            "SELECT run, SUM(tag) AS s FROM events GROUP BY run HAVING COUNT(tag) = 0".to_string(),
            "SELECT run, COUNT(*) AS n, SUM(tag) AS s FROM events GROUP BY run \
             HAVING COUNT(*) > 1".to_string(),
            "SELECT det, COUNT(*) AS n FROM events GROUP BY det HAVING SUM(tag) > 0".to_string(),
            // 28. Global aggregates, over the rows and over none.
            format!(
                "SELECT COUNT(*) AS n, COUNT(run) AS c, SUM(run) AS s, AVG(energy) AS a, \
                 MAX(tag) AS t FROM events WHERE energy > {threshold}"
            ),
            "SELECT COUNT(*) AS n, SUM(det) AS s, MIN(energy) AS lo FROM events WHERE id < 0"
                .to_string(),
            // 29. ORDER BY named columns under the drawn LIMIT: duplicate and
            //     NULL keys (ties keep scan order), DESC FLOAT then ASC INT.
            format!("SELECT id, run FROM events ORDER BY run LIMIT {limit}"),
            format!("SELECT id, energy, det FROM events ORDER BY energy DESC, det LIMIT {limit}"),
            format!("SELECT tag, id FROM events ORDER BY tag DESC, run LIMIT {limit}"),
            "SELECT id, energy FROM events ORDER BY energy, id LIMIT 0".to_string(),
            "SELECT id, det FROM events ORDER BY det DESC LIMIT 1000".to_string(),
            format!(
                "SELECT e.id, d.region FROM events e LEFT JOIN dets d ON e.det = d.det \
                 ORDER BY d.region, e.run DESC LIMIT {limit}"
            ),
            // 30. A computed key and an erroring one, with and without LIMIT.
            "SELECT id, tag FROM events ORDER BY energy * -1.0".to_string(),
            format!("SELECT id, tag FROM events ORDER BY energy * -1.0, run LIMIT {limit}"),
            "SELECT id, run FROM events ORDER BY tag + 1".to_string(),
            format!("SELECT id, run FROM events ORDER BY run, tag + 1 LIMIT {limit}"),
            // 31. A select-list expression that errors on every non-NULL tag,
            //     under a LIMIT that keeps only a NULL-tag row when there is
            //     one: the dropped rows' error must still surface.
            "SELECT id, tag + 1 AS boom FROM events ORDER BY tag, id LIMIT 1".to_string(),
            format!("SELECT id, energy * 2.0 AS e2 FROM events ORDER BY det, id LIMIT {limit}"),
            // A FLOAT key that holds NaNs (after every number, ties by
            // position), with and without NULLs beside them, ordered on the
            // selection and — the select list with an expression — as rows.
            format!("SELECT id FROM wobbles ORDER BY w LIMIT {limit}"),
            format!("SELECT id FROM wobbles WHERE w IS NOT NULL ORDER BY w DESC LIMIT {limit}"),
            "SELECT id FROM wobbles ORDER BY w DESC, id DESC".to_string(),
            format!("SELECT id + 0 AS i FROM wobbles ORDER BY w LIMIT {limit}"),
        ];

        // A deliberately awkward parallel config: 3 workers over 7-row
        // morsels, so even these small relations split across the pool and
        // morsel boundaries land mid-relation.
        let mut par_cfg = ExecConfig::with_workers(3);
        par_cfg.morsel_rows = 7;
        let mut par4_cfg = ExecConfig::with_workers(4);
        par4_cfg.morsel_rows = 3;

        for sql in &shapes {
            let stmt = parse_select(sql).expect("parses");
            let plan = optimize(build_plan(&stmt), &catalog);
            let vectorized = execute_plan(&plan, &provider);
            let parallel = with_exec_config(par_cfg.clone(), || execute_plan(&plan, &provider));
            let rowwise = execute_plan_rowwise(&plan, &provider);
            // Four workers over 3-row morsels: rows or the first error, as
            // the reference has them.
            let parallel4 = with_exec_config(par4_cfg.clone(), || execute_plan(&plan, &provider));
            prop_assert_eq!(
                parallel4.as_ref().map(|rs| &rs.rows).map_err(ToString::to_string),
                rowwise.as_ref().map(|rs| &rs.rows).map_err(ToString::to_string),
                "4-worker pass diverged for `{}`", sql
            );
            match (vectorized, rowwise) {
                (Ok(v), Ok(r)) => {
                    prop_assert_eq!(
                        &v.columns, &r.columns,
                        "columns diverged for `{}`", sql
                    );
                    prop_assert_eq!(
                        &v.rows, &r.rows,
                        "rows diverged for `{}`", sql
                    );
                    // The morsel-parallel pass must be byte-identical to the
                    // sequential one: same rows, same order.
                    match &parallel {
                        Ok(p) => {
                            prop_assert_eq!(
                                &p.rows, &r.rows,
                                "parallel rows diverged for `{}`", sql
                            );
                        }
                        Err(p) => {
                            return Err(TestCaseError::fail(format!(
                                "`{sql}`: sequential succeeded, parallel errored: {p}"
                            )));
                        }
                    }
                }
                (Err(v), Err(r)) => {
                    prop_assert_eq!(
                        v.to_string(), r.to_string(),
                        "errors diverged for `{}`", sql
                    );
                    // Per-row errors reduce by global minimum position, so
                    // the parallel pass reports the *same* first error.
                    match &parallel {
                        Err(p) => {
                            prop_assert_eq!(
                                p.to_string(), r.to_string(),
                                "parallel error diverged for `{}`", sql
                            );
                        }
                        Ok(p) => {
                            return Err(TestCaseError::fail(format!(
                                "`{sql}`: sequential errored, parallel returned {} rows",
                                p.rows.len()
                            )));
                        }
                    }
                }
                (Ok(v), Err(r)) => {
                    return Err(TestCaseError::fail(format!(
                        "`{sql}`: vectorized returned {} rows, reference errored: {r}",
                        v.rows.len()
                    )));
                }
                (Err(v), Ok(r)) => {
                    return Err(TestCaseError::fail(format!(
                        "`{sql}`: vectorized errored ({v}), reference returned {} rows",
                        r.rows.len()
                    )));
                }
            }
        }
    }
}

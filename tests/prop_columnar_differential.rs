//! Differential property test for the vectorized executor: for every query
//! shape the engine supports, the columnar batch executor must agree with
//! the row-at-a-time reference interpreter (`gridfed-reference`, a dev-only
//! crate that shares no execution code with the engine) on **values and
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
//! on a row the LIMIT would drop. Then the cases the first key's integer
//! prefix and the contiguous grouping layout must keep: sort keys at
//! `i64::MIN`, `i64::MIN + 1`, `-1`, `0`, `i64::MAX`, `±inf`, `±0.0`,
//! NaN, strings that share or pad to their first 8 bytes, NULL in the
//! first key ASC and DESC, ties on the first key; a table appended run by run
//! (each group one run of rows), a group that comes back after another,
//! a global aggregate; a bare LIMIT over named columns and over an
//! erroring expression. Then a table of a few hundred rows whose first sort
//! key ties across most of them (NULL, NaN and `±0.0` among the values),
//! ordered under limits of 1, around half its rows — where a top-k's buffer
//! starts to fill and keep its best — and past them; and grouping keys
//! drawn run by run, one-row and NULL runs among them, a key coming back
//! after the second run, in the middle or at the last row — their INT keys
//! at `i64::MIN` or `i64::MAX`, spanning just inside, at and just past the
//! widest span a grouping indexes as an array; INT keys at both ends of
//! `i64` coming back; and TEXT keys over a selection shorter than the
//! dictionary it shares.
//!
//! Then the scans whose selection an ordered index seeds. A key conjunct
//! (`=`, `<`, `<=`, `>`, `>=`, `BETWEEN`, `IN` with duplicate and NULL
//! items) on the primary key of a table with tombstones, on a non-unique
//! INT index over NULL keys and duplicates, and on a TEXT index; an INT key
//! against FLOAT literals (`2.5`, and `2^53 + 1`, which no `f64` holds,
//! over keys around 2^53); the key conjunct first before an erroring one,
//! and second after an erroring one (the error must still surface) or
//! after an infallible one; seeded scans under a join, a GROUP BY and an
//! ORDER BY … LIMIT. The reference never consults an index. Last, INTs one
//! `f64` holds several of (2^53 and 2^53 + 1, `i64::MIN` and
//! `i64::MIN + 1`) under GROUP BY and DISTINCT: as many keys as `=`
//! between INTs says, while INT `1` and FLOAT `1.0` stay one.
//!
//! A second property aims at the hash join alone, against the reference's
//! nested loop, which evaluates `ON` — `=` itself — row pair by row pair
//! through the reference's own evaluator. Keys of every
//! class it reads off the chunks: INT around ±2^53 (one `f64`, several
//! integers), FLOAT `0.0`, `-0.0` and NaN, INT against FLOAT, TEXT whose two
//! sides come from different dictionaries, NULL, and classes `=` never
//! pairs. Shapes: duplicate build keys, long and one-row runs of a probe
//! key, LEFT OUTER misses, empty sides, tombstones, a probe selection
//! shorter than its dictionary, an erroring select item over the joined
//! rows; sequentially and on 3- and 4-worker pools whose morsels are small
//! enough to split the probe side. And narrow INT build keys, whose span
//! lies just inside or just outside what a build may index as an array —
//! a few keys, or the fixed floor every index may take — around zero, at
//! both ends of `i64`, just below 2^53 — or holds `i64::MIN` with
//! `i64::MAX`, probed over the span and one past each end.
//!
//! A third property aims at the filter kernels, against the reference's
//! per-row evaluator: every comparison operator over an INT and a FLOAT
//! column against INT and FLOAT literals on either side, at NaN, `±0.0`,
//! `±inf`, `i64::MIN/MAX` and 2^53 + 1 with NULL slots; `<>` over an
//! all-NULL TEXT column; `BLOOM_HAS` over both columns — bare, under `NOT`,
//! inside `OR` and after a conjunct — with a payload of a drawn subset of
//! the keys; and malformed payloads (odd length, non-hex, empty) over empty
//! and non-empty selections. Then `BLOOM_HAS` over keys that arrive in
//! runs, as a mart is loaded — each probed once per run: a run broken by a
//! NULL row, a key that comes back after another run, `0.0` beside `-0.0`
//! (one key) and runs of NaN, bare, under `NOT` and after a conjunct that
//! leaves gaps in the selection; sequentially and on 3- and 4-worker pools.
//!
//! The aggregates over one bare INT or FLOAT column share one pass per
//! group. The main property's shapes 44 and 45 aim at that pass: columns
//! shared between HAVING and non-HAVING slots, with a DISTINCT aggregate of
//! the same column beside them; and an INT `SUM` that overflows in a shared
//! slot next to an item that errors, where the first error must be the one
//! slot order gives and a group HAVING drops must raise none.

mod common;

use common::dedup_by_key;
use gridfed::sqlkit::exec::{execute_plan, DatabaseProvider, ProviderCatalog};
use gridfed::sqlkit::parser::parse_select;
use gridfed::sqlkit::{build_plan, optimize, with_exec_config, ExecConfig};
use gridfed::storage::{ColumnDef, DataType, Database, Schema, Value};
use proptest::prelude::*;

const TAGS: [&str; 5] = ["barrel", "b-tag", "endcap", "fwd", "b"];
const REGIONS: [&str; 3] = ["barrel", "endcap", "forward"];

const BIG: i64 = 1 << 53;

type EventRow = (i64, Option<i64>, Option<i64>, Option<f64>, Option<usize>);

/// INT sort keys at both ends of `i64` and around zero.
const EDGE_INTS: [i64; 5] = [i64::MIN, i64::MIN + 1, -1, 0, i64::MAX];
/// FLOAT sort keys: both infinities, both zeros, a NaN, `±1.5`.
const EDGE_FLOATS: [f64; 7] = [
    f64::NEG_INFINITY,
    -0.0,
    0.0,
    f64::INFINITY,
    f64::NAN,
    1.5,
    -1.5,
];

/// TEXT sort keys that share their first 8 bytes or pad to them: the empty
/// string, embedded NULs, a proper prefix, multi-byte UTF-8.
const EDGE_TEXTS: [&str; 10] = [
    "",
    "\0",
    "a",
    "a\0",
    "ab",
    "abcdefgh",
    "abcdefghi",
    "abcdefgi",
    "é",
    "zz",
];

/// A row of `edges`: an index into each pool, or NULL.
type EdgeRow = (Option<usize>, Option<usize>, Option<usize>);

/// First ORDER BY keys of `ranked`, few so that ties straddle a top-k's bar:
/// INT, FLOAT (NaN and both zeros) and TEXT pools, each drawn with NULL.
const RANK_INTS: [i64; 3] = [-1, 0, 7];
const RANK_FLOATS: [f64; 3] = [f64::NAN, -0.0, 0.0];
const RANK_TEXTS: [&str; 2] = ["ecal", "muon"];

/// A row of `ranked`: an index into each first-key pool or NULL, and a
/// second key that decides ties against selection order.
type RankRow = (Option<usize>, Option<usize>, Option<usize>, i64);

/// Build the three-table database: a fact table with NULLs and strings,
/// plus two small dimensions. `kill` selects fact rows to delete afterwards
/// so scans run over tombstoned chunks.
fn build_db(
    events: &[EventRow],
    runs: &[(i64, f64)],
    dets: &[(i64, usize)],
    edges: &[EdgeRow],
    kill: i64,
    ranked: &[RankRow],
    batches: &[(usize, i64)],
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
    // Non-unique INT and TEXT indexes beside the primary key's, maintained
    // through the inserts and the deletes below.
    t.create_index("run").expect("index");
    t.create_index("tag").expect("index");
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
    // The events again, appended run by run (NULL run first) as a mart is
    // loaded, so every group is one run of rows; then rows 1000–1002 of
    // runs 100, 101, 100: a group that comes back after another one.
    let schema = Schema::new(vec![
        ColumnDef::new("id", DataType::Int).primary_key(),
        ColumnDef::new("run", DataType::Int),
        ColumnDef::new("det", DataType::Int),
        ColumnDef::new("energy", DataType::Float),
    ])
    .expect("schema");
    let t = db.create_table("runlog", schema).expect("table");
    let mut by_run: Vec<EventRow> = events.to_vec();
    by_run.sort_by_key(|(_, run, ..)| *run);
    by_run.extend(
        [100, 101, 100]
            .iter()
            .zip(1000..)
            .map(|(&run, id)| (id, Some(run), None, Some(1.5), None)),
    );
    for (id, run, det, energy, _) in by_run {
        t.insert(vec![
            Value::Int(id),
            run.map_or(Value::Null, Value::Int),
            det.map_or(Value::Null, Value::Int),
            energy.map_or(Value::Null, Value::Float),
        ])
        .expect("insert");
    }
    // Sort keys at the ends of their classes, and NULL.
    let schema = Schema::new(vec![
        ColumnDef::new("id", DataType::Int).primary_key(),
        ColumnDef::new("k", DataType::Int),
        ColumnDef::new("f", DataType::Float),
        ColumnDef::new("s", DataType::Text),
    ])
    .expect("schema");
    let t = db.create_table("edges", schema).expect("table");
    for (id, (k, f, s)) in (0..).zip(edges) {
        t.insert(vec![
            Value::Int(id),
            k.map_or(Value::Null, |i| Value::Int(EDGE_INTS[i])),
            f.map_or(Value::Null, |i| Value::Float(EDGE_FLOATS[i])),
            s.map_or(Value::Null, |i| Value::Text(EDGE_TEXTS[i].into())),
        ])
        .expect("insert");
    }
    // INT keys around 2^53 and at `i64::MIN`, where an `f64` holds one of
    // several integers, among filler keys enough for an index-seeded scan
    // to be taken; a FLOAT `1.0` where `k` is NULL, to group with INT `1`.
    let schema = Schema::new(vec![
        ColumnDef::new("id", DataType::Int).primary_key(),
        ColumnDef::new("k", DataType::Int),
        ColumnDef::new("f", DataType::Float),
    ])
    .expect("schema");
    let t = db.create_table("bigs", schema).expect("table");
    t.create_index("k").expect("index");
    let bigs = [
        Some(BIG - 1),
        Some(BIG),
        Some(BIG + 1),
        Some(BIG + 1),
        None,
        Some(-BIG - 1),
        Some(i64::MIN),
        Some(i64::MIN + 1),
        Some(i64::MIN + 1),
    ];
    let filler = (0..40).map(Some);
    for (id, k) in (0..).zip(bigs.into_iter().chain(filler)) {
        let f = if k.is_none() {
            Value::Float(1.0)
        } else {
            Value::Null
        };
        t.insert(vec![Value::Int(id), k.map_or(Value::Null, Value::Int), f])
            .expect("insert");
    }
    // A few hundred rows to order under a LIMIT, so a top-k's buffer
    // fills and keeps its best many times over.
    let schema = Schema::new(vec![
        ColumnDef::new("id", DataType::Int).primary_key(),
        ColumnDef::new("a", DataType::Int),
        ColumnDef::new("f", DataType::Float),
        ColumnDef::new("s", DataType::Text),
        ColumnDef::new("b", DataType::Int),
    ])
    .expect("schema");
    let t = db.create_table("ranked", schema).expect("table");
    for (id, &(a, f, s, b)) in (0..).zip(ranked) {
        t.insert(vec![
            Value::Int(id),
            a.map_or(Value::Null, |i| Value::Int(RANK_INTS[i])),
            f.map_or(Value::Null, |i| Value::Float(RANK_FLOATS[i])),
            s.map_or(Value::Null, |i| Value::Text(RANK_TEXTS[i].into())),
            Value::Int(b),
        ])
        .expect("insert");
    }
    // Grouping keys that arrive run by run and come back: one key per row
    // (an index into each pool, past it NULL), as INT — drawn by the
    // caller — FLOAT and TEXT.
    let schema = Schema::new(vec![
        ColumnDef::new("id", DataType::Int).primary_key(),
        ColumnDef::new("k", DataType::Int),
        ColumnDef::new("f", DataType::Float),
        ColumnDef::new("t", DataType::Text),
    ])
    .expect("schema");
    let t = db.create_table("batches", schema).expect("table");
    for (id, &(key, int)) in (0..).zip(batches) {
        let known = |pool: usize| (key < pool).then_some(key);
        t.insert(vec![
            Value::Int(id),
            known(5).map_or(Value::Null, |_| Value::Int(int)),
            known(5).map_or(Value::Null, |k| {
                Value::Float([0.0, -0.0, 1.5, 2.5, -1.0][k])
            }),
            known(5).map_or(Value::Null, |k| Value::Text(TAGS[k].into())),
        ])
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
        edges in prop::collection::vec(
            (
                prop::option::of(0usize..EDGE_INTS.len()),
                prop::option::of(0usize..EDGE_FLOATS.len()),
                prop::option::of(0usize..EDGE_TEXTS.len()),
            ),
            0..24,
        ),
        key in -2i64..82,
        span in 0i64..12,
        run_key in -1i64..9,
        tag_key in 0usize..TAGS.len() + 1,
        edge_keys in prop::collection::vec((0usize..EDGE_INTS.len(), -2i64..3), 1..5),
        reach in prop_oneof![Just(65_534i64), Just(65_535), Just(65_536), Just(65_537), 0i64..4],
        ranked in prop::collection::vec(
            (
                prop::option::of(0usize..RANK_INTS.len()),
                prop::option::of(0usize..RANK_FLOATS.len()),
                prop::option::of(0usize..RANK_TEXTS.len()),
                0i64..40,
            ),
            150..400,
        ),
        // Key 5 is NULL.
        key_runs in prop::collection::vec((1usize..4, 0usize..6), 1..16),
        back in 0usize..4,
        // The INT grouping keys' span: 4, or just inside, at and just past
        // the widest an index of `u32` group ids takes as an array (16 384
        // slots); from zero, or from `i64::MIN` or to `i64::MAX`.
        group_reach in prop_oneof![Just(4i64), Just(16_382), Just(16_383), Just(16_384)],
        group_end in 0usize..3,
    ) {
        let events = dedup_by_key(&raw_events, |(id, ..)| *id);
        let runs = dedup_by_key(&raw_runs, |(run, _)| *run);
        let dets = dedup_by_key(&raw_dets, |(d, _)| *d);
        // The runs one key per row; then the first run's key once more:
        // after the second run, in the middle, at the last row, or nowhere
        // but where the drawn keys already come back.
        let mut batches: Vec<usize> = key_runs
            .iter()
            .flat_map(|&(len, key)| std::iter::repeat_n(key, len))
            .collect();
        let first = key_runs[0].1;
        match back {
            1 => batches.insert(key_runs.iter().take(2).map(|r| r.0).sum(), first),
            2 => batches.insert(batches.len() / 2, first),
            3 => batches.push(first),
            _ => {}
        }
        // The INT grouping keys: `base - 2 ..= base + 1`, key 4 at
        // `base - 2 + group_reach` (wrapping).
        let base = [0, i64::MIN + 2, (i64::MAX - group_reach).wrapping_add(2)][group_end];
        let batches: Vec<(usize, i64)> = batches
            .iter()
            .map(|&k| (k, base.wrapping_add(if k == 4 { group_reach } else { k as i64 } - 2)))
            .collect();
        let db = build_db(&events, &runs, &dets, &edges, kill, &ranked, &batches);
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
        let hi = key + span;
        let tag = TAGS.get(tag_key).copied().unwrap_or("absent");
        // Keys at and beside both ends of `i64` (duplicates, negatives), and
        // the drawn INT keys with one more `reach` below the largest: a key
        // span just inside and just past the widest bitmap a list compiles
        // to. `i64::MIN` is folded from an expression, as no literal spells it.
        let int_sql = |k: i64| match k {
            i64::MIN => "(-9223372036854775807 - 1)".to_string(),
            k => k.to_string(),
        };
        let edge_ints = edge_keys
            .iter()
            .map(|&(i, d)| int_sql(EDGE_INTS[i].saturating_add(d)))
            .collect::<Vec<_>>()
            .join(", ");
        let far = int_keys.iter().max().map_or(0, |m| m - reach);

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
            // Group-level AND is eager: its right side errors (a TEXT is no
            // truth) where the left is false.
            "SELECT run, COUNT(*) AS n FROM events GROUP BY run \
             HAVING COUNT(*) > 1000 AND NOT MIN(tag)".to_string(),
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
            // 32. First keys at the ends of their classes, NULL among them,
            //     ASC and DESC under the drawn LIMIT: `i64::MIN` and its
            //     neighbour, `±inf`, `0.0` beside `-0.0` (equal: ties keep
            //     scan order), NaN (after every number, before under DESC),
            //     strings equal in their first 8 bytes, `""` beside NULL.
            format!("SELECT id, k FROM edges ORDER BY k LIMIT {limit}"),
            format!("SELECT id, k FROM edges ORDER BY k DESC LIMIT {limit}"),
            format!("SELECT id FROM edges ORDER BY f LIMIT {limit}"),
            format!("SELECT id FROM edges ORDER BY f DESC LIMIT {limit}"),
            format!("SELECT id, k FROM edges ORDER BY f DESC, k LIMIT {limit}"),
            "SELECT id, k FROM edges ORDER BY f, k DESC".to_string(),
            format!("SELECT id, k FROM edges ORDER BY k, f DESC LIMIT {limit}"),
            format!("SELECT id, s FROM edges ORDER BY s LIMIT {limit}"),
            format!("SELECT id, s FROM edges ORDER BY s DESC, k LIMIT {limit}"),
            // 33. Groups that are runs of the scan (a table appended run by
            //     run, a global aggregate), and a group that comes back.
            "SELECT run, COUNT(*) AS n, SUM(energy) AS s, MIN(det) AS lo FROM runlog \
             WHERE id < 1000 GROUP BY run".to_string(),
            "SELECT run, COUNT(*) AS n, SUM(energy) AS s, MAX(id) AS hi FROM runlog \
             GROUP BY run HAVING COUNT(*) > 1".to_string(),
            "SELECT COUNT(*) AS n, AVG(energy) AS a, MAX(det) AS hi FROM runlog".to_string(),
            // 34. A bare LIMIT: named columns build the first rows only; an
            //     expression still raises the error of a row it drops.
            format!("SELECT tag, id, tag FROM events WHERE energy > {threshold} LIMIT {limit}"),
            format!("SELECT id, tag + 1 AS boom FROM events LIMIT {limit}"),
            // 35. A key conjunct first on the primary key (tombstoned rows):
            //     every index-answerable comparison, the literal on either side.
            format!("SELECT id, run, tag FROM events WHERE id = {key}"),
            format!("SELECT id, energy FROM events WHERE id < {key}"),
            format!("SELECT id, energy FROM events WHERE id <= {key}"),
            format!("SELECT id, energy FROM events WHERE id > {key}"),
            format!("SELECT id, energy FROM events WHERE id >= {key}"),
            format!("SELECT id FROM events WHERE {key} > id"),
            format!("SELECT id, tag FROM events WHERE id BETWEEN {key} AND {hi}"),
            format!("SELECT id FROM events WHERE id BETWEEN {hi} AND {key}"),
            format!("SELECT id FROM events WHERE id NOT BETWEEN {key} AND {hi}"),
            format!("SELECT id, run FROM events WHERE id IN ({key}, {ints}, {key}, NULL)"),
            format!("SELECT id FROM events WHERE id IN (NULL, {hi})"),
            format!("SELECT id FROM events WHERE id NOT IN ({key}, {hi})"),
            format!("SELECT id FROM events WHERE id <> {key}"),
            format!("SELECT id FROM events WHERE id < {key} AND energy > {threshold}"),
            // 36. The same on a non-unique index over NULL keys and duplicates.
            format!("SELECT id, run FROM events WHERE run = {run_key}"),
            format!("SELECT id, run FROM events WHERE run < {run_key}"),
            format!("SELECT id, run FROM events WHERE run <= {run_key} AND det IS NOT NULL"),
            format!("SELECT id, run FROM events WHERE run > {run_key}"),
            format!("SELECT id, run FROM events WHERE run >= {run_key}"),
            format!("SELECT id, run FROM events WHERE run BETWEEN {run_key} AND {run_key}"),
            format!("SELECT id, run FROM events WHERE run IN ({run_key}, {run_key}, NULL)"),
            "SELECT id FROM events WHERE run = NULL".to_string(),
            // 37. A TEXT key, the literal one the dictionary may not hold.
            format!("SELECT id, tag FROM events WHERE tag = '{tag}'"),
            format!("SELECT id, tag FROM events WHERE tag < '{tag}'"),
            format!("SELECT id, tag FROM events WHERE tag >= '{tag}'"),
            format!("SELECT id, tag FROM events WHERE tag BETWEEN 'b' AND '{tag}'"),
            format!("SELECT id, tag FROM events WHERE tag IN ('{tag}', {tags}, NULL)"),
            // 38. An INT key against FLOAT literals: 2.5 lies between two
            //     keys; 2^53 + 1 is no `f64`, so `=` matches 2^53 and 2^53 + 1.
            "SELECT id FROM events WHERE id < 2.5".to_string(),
            "SELECT id FROM events WHERE id = 2.5".to_string(),
            format!("SELECT id FROM events WHERE id BETWEEN 1.5 AND {key}"),
            format!("SELECT id FROM events WHERE id IN (2.0, {key})"),
            "SELECT id, k FROM bigs WHERE k = 9007199254740993.0".to_string(),
            "SELECT id, k FROM bigs WHERE k < 9007199254740993.0".to_string(),
            "SELECT id, k FROM bigs WHERE k >= 9007199254740993.0".to_string(),
            "SELECT id, k FROM bigs WHERE k = 9007199254740993".to_string(),
            "SELECT id, k FROM bigs WHERE k >= 9007199254740992".to_string(),
            "SELECT id, k FROM bigs WHERE k < -9007199254740992".to_string(),
            "SELECT id, k FROM bigs WHERE k IN (9007199254740993, 9007199254740991)".to_string(),
            "SELECT id, k FROM bigs WHERE k IN (9007199254740993.0, 3)".to_string(),
            "SELECT id, k FROM bigs WHERE k = 'b'".to_string(),
            // 39. The key conjunct second, after an erroring one: the division
            //     by zero (or the text arithmetic) must still surface; after an
            //     infallible one it may seed. First, before an erroring one.
            "SELECT id FROM events WHERE 1 / (id - 5) > 0 AND id < 3".to_string(),
            format!("SELECT id FROM events WHERE tag + 1 > 0 AND id < {key}"),
            format!("SELECT id FROM events WHERE run IS NULL AND id < {key}"),
            format!("SELECT id FROM events WHERE energy > {threshold} AND id >= {key}"),
            "SELECT id FROM events WHERE id < 3 AND 1 / (id - 5) > 0".to_string(),
            format!("SELECT id FROM events WHERE id > {key} AND 1 / (id - 5) > 0"),
            format!("SELECT id FROM events WHERE id = {key} AND tag + 1 > 0"),
            // 40. Seeded scans under a join, a GROUP BY, an ORDER BY … LIMIT.
            format!(
                "SELECT e.id, r.lumi FROM events e JOIN runs r ON e.run = r.run \
                 WHERE e.id < {key}"
            ),
            format!("SELECT run, COUNT(*) AS n, SUM(energy) AS s FROM events WHERE id < {key} GROUP BY run"),
            format!(
                "SELECT id, energy FROM events WHERE id >= {key} \
                 ORDER BY energy DESC, id LIMIT {limit}"
            ),
            // 41. INTs one `f64` holds several of — 2^53 and 2^53 + 1,
            //     `i64::MIN` and `i64::MIN + 1` — are as many groups and
            //     DISTINCT values as `=` between INTs says: a lone INT key,
            //     two keys, and a value column where INT `1` and FLOAT `1.0`
            //     are still one group.
            "SELECT k, COUNT(*) AS n, MIN(id) AS lo FROM bigs GROUP BY k".to_string(),
            "SELECT k, id % 2 AS p, COUNT(*) AS n FROM bigs GROUP BY k, id % 2".to_string(),
            "SELECT COUNT(*) AS n, MAX(id) AS hi FROM bigs GROUP BY COALESCE(k, f)".to_string(),
            "SELECT DISTINCT k FROM bigs".to_string(),
            "SELECT DISTINCT k, id % 2 AS p FROM bigs ORDER BY k".to_string(),
            "SELECT COUNT(DISTINCT k) AS d FROM bigs".to_string(),
            // 42. INT IN-lists probed through their compiled key set, over
            //     columns no index seeds: keys at the ends of `i64`, and spans
            //     on both sides of the bitmap's widest; `IN` and `NOT IN`,
            //     each with and without a NULL item.
            format!("SELECT id, k FROM edges WHERE k IN ({edge_ints})"),
            format!("SELECT id, k FROM edges WHERE k IN ({edge_ints}, NULL)"),
            format!("SELECT id, k FROM edges WHERE k NOT IN ({edge_ints})"),
            format!("SELECT id, k FROM edges WHERE k NOT IN (NULL, {edge_ints})"),
            format!("SELECT id, run FROM runlog WHERE run IN ({ints}, {far})"),
            format!("SELECT id, run FROM runlog WHERE run IN ({far}, NULL, {ints})"),
            format!("SELECT id, run FROM runlog WHERE run NOT IN ({ints}, {far})"),
            format!("SELECT id FROM runlog WHERE run NOT IN ({ints}, {far}, NULL)"),
            // 43. Groups that are runs and come back: INT, FLOAT (`0.0` and
            //     `-0.0` one key, so two runs one group), dictionary TEXT, two
            //     keys, and a selection with rows dropped between runs.
            "SELECT k, COUNT(*) AS n, MIN(id) AS lo, MAX(id) AS hi FROM batches GROUP BY k"
                .to_string(),
            "SELECT f, COUNT(*) AS n, SUM(id) AS s FROM batches GROUP BY f".to_string(),
            "SELECT t, COUNT(*) AS n, MIN(id) AS lo FROM batches GROUP BY t HAVING COUNT(*) > 1"
                .to_string(),
            "SELECT k, t, COUNT(*) AS n, MAX(id) AS hi FROM batches GROUP BY k, t".to_string(),
            "SELECT k, COUNT(*) AS n, MIN(id) AS lo FROM batches WHERE id % 3 <> 1 \
             GROUP BY k ORDER BY n DESC, k".to_string(),
            //     INT keys at both ends of `i64`, coming back; TEXT keys over
            //     selections shorter than their dictionary, the scan's and a
            //     join's gathered one.
            "SELECT k, COUNT(*) AS n, MIN(id) AS lo FROM edges GROUP BY k".to_string(),
            "SELECT t, COUNT(*) AS n, MAX(id) AS hi FROM batches WHERE id % 4 = 1 GROUP BY t"
                .to_string(),
            format!("SELECT tag, COUNT(*) AS n, MIN(id) AS lo FROM events WHERE id < {key} GROUP BY tag"),
            "SELECT d.region, COUNT(*) AS n FROM events e JOIN dets d ON e.det = d.det \
             WHERE e.id % 5 = 0 GROUP BY d.region".to_string(),
            // 44. Aggregates sharing an argument column — one pass per
            //     column — across HAVING and non-HAVING slots, a DISTINCT
            //     one beside them, grouped and global.
            format!(
                "SELECT run, MIN(energy) AS lo, COUNT(DISTINCT energy) AS d, \
                 SUM(energy) AS s, AVG(energy) AS a FROM events GROUP BY run \
                 HAVING MAX(energy) > {threshold} ORDER BY run"
            ),
            "SELECT tag, COUNT(det) AS c, SUM(DISTINCT det) AS sd, MAX(det) AS hi, \
             AVG(det) AS a, MIN(run) AS r FROM events GROUP BY tag \
             HAVING MIN(det) >= 1 AND COUNT(det) > 0 AND MAX(run) < 7".to_string(),
            format!(
                "SELECT COUNT(energy) AS c, MIN(energy) AS lo, MAX(energy) AS hi, \
                 SUM(energy) AS s, AVG(energy) AS a, COUNT(DISTINCT energy) AS d, \
                 SUM(det) AS sd, MAX(det) AS hd FROM events WHERE energy > {threshold}"
            ),
            // 45. An INT SUM that overflows in a shared slot, beside an item
            //     that errors (SUM over TEXT): the first error is the one
            //     slot order gives, and a group HAVING drops raises none.
            //     Grouped by an expression: a NaN key would not equal itself.
            "SELECT id % 3 AS g, MAX(k) AS hi, SUM(s) AS boom, SUM(k) AS total \
             FROM edges GROUP BY id % 3".to_string(),
            "SELECT id % 3 AS g, SUM(k) AS total, SUM(s) AS boom, MIN(k) AS lo \
             FROM edges GROUP BY id % 3".to_string(),
            "SELECT id % 3 AS g, SUM(k) AS total, COUNT(*) AS n FROM edges \
             GROUP BY id % 3 HAVING MAX(k) > 0".to_string(),
            "SELECT id % 3 AS g, MIN(k) AS lo, SUM(s) AS boom FROM edges \
             GROUP BY id % 3 HAVING SUM(k) > 0".to_string(),
            "SELECT id % 3 AS g, SUM(DISTINCT k) AS d, AVG(k) AS a, SUM(k) AS t \
             FROM edges GROUP BY id % 3".to_string(),
            "SELECT MAX(k) AS hi, SUM(s) AS boom, SUM(k) AS total FROM edges".to_string(),
        ];
        // 46. ORDER BY … LIMIT over a few hundred rows whose first key ties
        //     across most of them — NULL, NaN, `±0.0` among them, ASC and
        //     DESC — with limits of 1, just below, at and just above half
        //     the rows (below it a top-k's buffer fills and keeps its best),
        //     and past them: named columns (the selection's top-k), an
        //     expression item and an aggregate's groups (built rows').
        let half = ranked.len() / 2;
        let top_k = [1, half - 1, half, half + 1, ranked.len() + 3]
            .into_iter()
            .flat_map(|k| {
                [
                    format!("SELECT id, a FROM ranked ORDER BY a, b LIMIT {k}"),
                    format!("SELECT id, a, b FROM ranked ORDER BY a DESC, b DESC LIMIT {k}"),
                    format!("SELECT id, b FROM ranked ORDER BY f, b LIMIT {k}"),
                    format!("SELECT id FROM ranked ORDER BY f DESC, b LIMIT {k}"),
                    format!("SELECT id, s FROM ranked ORDER BY s DESC, b LIMIT {k}"),
                    format!("SELECT id, a FROM ranked WHERE b > 20 ORDER BY a, b DESC LIMIT {k}"),
                    format!("SELECT id, b + 0 AS c FROM ranked ORDER BY a, b DESC LIMIT {k}"),
                    format!(
                        "SELECT b, COUNT(*) AS n FROM ranked GROUP BY b ORDER BY n DESC, b LIMIT {k}"
                    ),
                ]
            });
        let shapes: Vec<String> = shapes.into_iter().chain(top_k).collect();

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
            let rowwise = gridfed_reference::execute(&plan, &provider);
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

/// INT join keys: ±2^53 ± 1 share an `f64` with a neighbour.
const JOIN_INTS: [i64; 9] = [0, 1, 7, BIG - 1, BIG, BIG + 1, -BIG - 1, -BIG, -BIG + 1];
/// FLOAT join keys: the two zeros, a NaN, 2^53 as an `f64`.
const JOIN_FLOATS: [f64; 7] = [0.0, -0.0, f64::NAN, 1.0, 7.0, BIG as f64, 2.5];
/// Each side's strings: two in common, listed in different orders.
const LEFT_WORDS: [&str; 4] = ["ecal", "hcal", "muon", "trk"];
const RIGHT_WORDS: [&str; 4] = ["pix", "muon", "ecal", "fwd"];

/// One run of a join table: `(rows, INT key, FLOAT key, TEXT key)`, each
/// key an index into its pool or NULL.
type JoinRun = (usize, Option<usize>, Option<usize>, Option<usize>);

/// Table `name` of `runs`, run by run, then every row whose id `kill`
/// divides deleted.
fn join_table(db: &mut Database, name: &str, words: &[&str], runs: &[JoinRun], kill: i64) {
    let schema = Schema::new(vec![
        ColumnDef::new("id", DataType::Int).primary_key(),
        ColumnDef::new("i", DataType::Int),
        ColumnDef::new("f", DataType::Float),
        ColumnDef::new("s", DataType::Text),
    ])
    .expect("schema");
    let t = db.create_table(name, schema).expect("table");
    let mut id = 0;
    for &(rows, i, f, s) in runs {
        for _ in 0..rows {
            id += 1;
            t.insert(vec![
                Value::Int(id),
                i.map_or(Value::Null, |i| Value::Int(JOIN_INTS[i % JOIN_INTS.len()])),
                f.map_or(Value::Null, |f| {
                    Value::Float(JOIN_FLOATS[f % JOIN_FLOATS.len()])
                }),
                s.map_or(Value::Null, |s| Value::Text(words[s % words.len()].into())),
            ])
            .expect("insert");
        }
    }
    if kill > 0 {
        t.delete_where(|r| matches!(r.values()[0], Value::Int(id) if id % kill == 0));
    }
}

/// Where a narrow range of INT join keys starts: around zero, at both ends
/// of `i64`, and just below 2^53, where INT ⋈ INT must not meet in `f64`.
const NARROW_BASES: [i64; 5] = [-3, 0, i64::MIN, i64::MAX - 64, BIG - 2];
/// The narrow tables' FLOAT keys: both zeros (one key) and NaN.
const NARROW_FLOATS: [f64; 3] = [0.0, -0.0, f64::NAN];

/// Table `name(id, k, g)`: INT keys `base + offset` (wrapping), FLOAT keys
/// from their pool, either NULL.
fn narrow_table(db: &mut Database, name: &str, base: i64, rows: &[(Option<i64>, Option<usize>)]) {
    let schema = Schema::new(vec![
        ColumnDef::new("id", DataType::Int).primary_key(),
        ColumnDef::new("k", DataType::Int),
        ColumnDef::new("g", DataType::Float),
    ])
    .expect("schema");
    let t = db.create_table(name, schema).expect("table");
    for (id, &(k, g)) in (0..).zip(rows) {
        t.insert(vec![
            Value::Int(id),
            k.map_or(Value::Null, |k| Value::Int(base.wrapping_add(k))),
            g.map_or(Value::Null, |g| Value::Float(NARROW_FLOATS[g])),
        ])
        .expect("insert");
    }
}

fn join_runs(longest: usize, most: usize) -> impl Strategy<Value = Vec<JoinRun>> {
    let key = || prop::option::of(0usize..9);
    prop::collection::vec((1..=longest, key(), key(), key()), 0..most)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Every hash-join key class and shape, columnar (sequential, 3 and 4
    /// workers) against the reference's nested loop: the same rows in the
    /// same order, or the same first error. Rows compare by their debug
    /// form, so a NaN padded through a LEFT OUTER join equals itself.
    #[test]
    fn hash_join_matches_the_nested_loop_reference(
        left in join_runs(8, 10),
        right in join_runs(3, 10),
        kill_left in 0i64..5,
        kill_right in 0i64..5,
        base in 0usize..NARROW_BASES.len(),
        build in prop::collection::vec(
            (prop::option::of(0i64..1000), prop::option::of(0usize..NARROW_FLOATS.len())),
            1..12,
        ),
        past in 0i64..4,
        floor in any::<bool>(),
        ends in any::<bool>(),
        probe in prop::collection::vec(
            (prop::option::of(-2i64..1000), prop::option::of(0usize..NARROW_FLOATS.len())),
            0..30,
        ),
    ) {
        let mut db = Database::new("joins");
        join_table(&mut db, "l", &LEFT_WORDS, &left, kill_left);
        join_table(&mut db, "r", &RIGHT_WORDS, &right, kill_right);
        // Build keys spanning `reach`: around four slots a row (4n - 2 ..=
        // 4n + 1), inside the floor any index may take, or just inside
        // (16 382, 16 383) or just outside (16 384, 16 385) that floor of
        // 16 384 `u32` slots — duplicates and NULLs between the two ends, or
        // `i64::MIN` and `i64::MAX` at them; probe keys over the span and one
        // past each end.
        let reach = if floor { 16_382 } else { 4 * build.len() as i64 - 2 } + past;
        let last = build.len() - 1;
        let build: Vec<_> = (0..).zip(&build).map(|(i, &(k, g))| match i {
            0 => (Some(0), g),
            i if i == last => (Some(reach), g),
            _ => (k.map(|k| k % (reach + 1)), g),
        }).collect();
        let probe: Vec<_> = [(Some(-1), None), (Some(reach + 1), Some(0))]
            .into_iter()
            .chain(probe.iter().map(|&(k, g)| (k.map(|k| if k < 0 { k } else { k % (reach + 3) }), g)))
            .collect();
        let base = NARROW_BASES[base];
        narrow_table(&mut db, "nl", base, &probe);
        narrow_table(&mut db, "nr", base, &build);
        if ends {
            let t = db.table_mut("nr").expect("table");
            t.delete_where(|r| matches!(r.values()[0], Value::Int(0)));
            t.insert(vec![Value::Int(-1), Value::Int(i64::MIN), Value::Null]).expect("insert");
            t.insert(vec![Value::Int(-2), Value::Int(i64::MAX), Value::Null]).expect("insert");
        }
        let provider = DatabaseProvider(&db);
        let catalog = ProviderCatalog(&provider);
        let shapes = [
            "SELECT l.id, r.id, l.i, r.i FROM l JOIN r ON l.i = r.i",
            "SELECT l.id, r.id FROM l JOIN r ON r.f = l.f",
            "SELECT l.id, r.id, r.f FROM l JOIN r ON l.i = r.f",
            "SELECT l.id, r.id, l.f FROM l JOIN r ON l.f = r.i",
            "SELECT l.id, r.id, r.s FROM l JOIN r ON l.s = r.s",
            "SELECT l.id, r.id FROM l JOIN r ON l.s = r.i",
            "SELECT l.id, r.id, r.i FROM l LEFT JOIN r ON l.i = r.i",
            "SELECT l.id, r.id, r.f FROM l LEFT JOIN r ON l.f = r.f",
            "SELECT l.id, r.id, r.s, r.f FROM l LEFT JOIN r ON l.s = r.s",
            "SELECT l.id, r.id FROM l LEFT JOIN r ON l.i = r.f",
            "SELECT l.id, r.id FROM l, r WHERE l.i = r.i AND r.id > 2",
            // A probe selection shorter than its dictionary.
            "SELECT l.id, r.id, r.s FROM l JOIN r ON l.s = r.s WHERE l.id < 3",
            "SELECT l.id, r.id FROM l LEFT JOIN r ON l.s = r.s WHERE l.id = 2",
            // An item that errors at the first joined row with a tag.
            "SELECT l.id, r.id, l.s + 1 AS boom FROM l JOIN r ON l.i = r.i",
            "SELECT l.id, r.s + 1 AS boom FROM l LEFT JOIN r ON l.f = r.f",
            // Narrow build keys: INT, FLOAT `0.0`/`-0.0`/NaN, INT against
            // FLOAT, LEFT OUTER misses past both ends, a filtered build side.
            "SELECT nl.id, nr.id, nl.k FROM nl JOIN nr ON nl.k = nr.k",
            "SELECT nl.id, nr.id, nr.k FROM nl LEFT JOIN nr ON nl.k = nr.k",
            "SELECT nl.id, nr.id FROM nl JOIN nr ON nl.g = nr.g",
            "SELECT nl.id, nr.id, nr.g FROM nl LEFT JOIN nr ON nl.g = nr.g",
            "SELECT nl.id, nr.id FROM nl LEFT JOIN nr ON nl.k = nr.g",
            "SELECT nl.id, nr.id FROM nl JOIN nr ON nl.g = nr.k",
            "SELECT nl.id, nr.id FROM nl JOIN nr ON nl.k = nr.k WHERE nr.id > 1",
        ];
        let mut three = ExecConfig::with_workers(3);
        three.morsel_rows = 2;
        let mut four = ExecConfig::with_workers(4);
        four.morsel_rows = 3;
        let shown = |r: &Result<gridfed::sqlkit::ResultSet, gridfed::sqlkit::SqlError>| match r {
            Ok(rs) => Ok(format!("{:?} {:?}", rs.columns, rs.rows)),
            Err(e) => Err(e.to_string()),
        };
        for sql in shapes {
            let stmt = parse_select(sql).expect("parses");
            let plan = optimize(build_plan(&stmt), &catalog);
            let reference = shown(&gridfed_reference::execute(&plan, &provider));
            prop_assert_eq!(&shown(&execute_plan(&plan, &provider)), &reference, "{}", sql);
            for cfg in [&three, &four] {
                let parallel = with_exec_config(cfg.clone(), || execute_plan(&plan, &provider));
                prop_assert_eq!(
                    &shown(&parallel), &reference, "{} on {} workers", sql, cfg.workers
                );
            }
        }
    }
}

/// INT filter keys: both ends of `i64`, around zero, 2^53 and 2^53 + 1 (one
/// `f64`, two integers).
const CUT_INTS: [i64; 8] = [i64::MIN, i64::MIN + 1, -1, 0, 1, BIG, BIG + 1, i64::MAX];
/// FLOAT filter keys: a NaN, both zeros, both infinities, 2^53 and the next
/// `f64`, `±1.5`.
const CUT_FLOATS: [f64; 10] = [
    f64::NAN,
    -0.0,
    0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    BIG as f64,
    (BIG + 2) as f64,
    1.5,
    -1.5,
    1.0,
];
/// Literals as SQL text: INT ones, then FLOAT ones — `-0.0`, 2^53 + 1 (no
/// `f64` holds it), `i64::MIN` as an `f64`.
const CUT_INT_LITS: [&str; 7] = [
    "-9223372036854775807",
    "-1",
    "0",
    "1",
    "9007199254740992",
    "9007199254740993",
    "9223372036854775807",
];
const CUT_FLOAT_LITS: [&str; 7] = [
    "-0.0",
    "0.0",
    "1.5",
    "-1.5",
    "9007199254740993.0",
    "-9223372036854775808.0",
    "1.0",
];
const CUT_OPS: [&str; 6] = ["=", "<>", "<", "<=", ">", ">="];

/// `BLOOM_HAS` keys that arrive in runs: INT ones, two of which share an
/// `f64`; FLOAT ones, both zeros (one key) and a NaN among them.
const RUN_INTS: [i64; 4] = [0, 1, BIG, BIG + 1];
const RUN_FLOATS: [f64; 5] = [0.0, -0.0, f64::NAN, 1.5, BIG as f64];

/// One run of `keyruns`: `(rows, key, broken)`, the key an index into both
/// pools (past one, NULL); a broken run has a NULL row in its middle.
type KeyRun = (usize, usize, bool);

fn key_runs() -> impl Strategy<Value = Vec<KeyRun>> {
    prop::collection::vec((1usize..6, 0..RUN_FLOATS.len() + 1, any::<bool>()), 1..10)
}

/// A payload of the keys `mask` picks from `keys`, in a filter sized for
/// `capacity` keys.
fn payload(keys: &[Value], mask: u32, capacity: usize) -> String {
    let mut filter = gridfed::sqlkit::bloom::BloomFilter::with_capacity(capacity);
    for (i, k) in keys.iter().enumerate() {
        if mask & (1 << i) != 0 {
            filter.insert(k);
        }
    }
    filter.to_hex()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The filter kernels against the reference's per-row evaluator, on
    /// rows or the first error: every comparison operator over INT and FLOAT
    /// columns against INT and FLOAT literals (either side), at the keys
    /// where a comparison or a canonical key can go wrong, with NULL slots;
    /// `<>` over an all-NULL TEXT column; `BLOOM_HAS` over INT and FLOAT
    /// columns — bare, under `NOT`, inside `OR` — with a payload of a
    /// subset of the keys, also over keys that arrive in runs; and malformed
    /// payloads over empty and non-empty selections. Sequentially and on 3-
    /// and 4-worker pools.
    #[test]
    fn filter_kernels_match_the_reference(
        rows in prop::collection::vec(
            (
                prop::option::of(0usize..CUT_INTS.len()),
                prop::option::of(0usize..CUT_FLOATS.len()),
            ),
            0..24,
        ),
        lits in prop::collection::vec(0usize..CUT_INT_LITS.len(), CUT_OPS.len() * 4),
        int_mask in any::<u32>(),
        float_mask in any::<u32>(),
        capacity in 1usize..40,
        key_runs in key_runs(),
    ) {
        let mut db = Database::new("cuts");
        let schema = Schema::new(vec![
            ColumnDef::new("id", DataType::Int).primary_key(),
            ColumnDef::new("k", DataType::Int),
            ColumnDef::new("f", DataType::Float),
            ColumnDef::new("t", DataType::Text),
        ])
        .expect("schema");
        let t = db.create_table("cuts", schema).expect("table");
        for (id, (k, f)) in (0..).zip(&rows) {
            t.insert(vec![
                Value::Int(id),
                k.map_or(Value::Null, |i| Value::Int(CUT_INTS[i])),
                f.map_or(Value::Null, |i| Value::Float(CUT_FLOATS[i])),
                Value::Null,
            ])
            .expect("insert");
        }
        // The keys run by run, then the first run's key once more, after
        // another run; a zero alternates its sign inside its run.
        let schema = Schema::new(vec![
            ColumnDef::new("id", DataType::Int).primary_key(),
            ColumnDef::new("k", DataType::Int),
            ColumnDef::new("f", DataType::Float),
        ])
        .expect("schema");
        let t = db.create_table("keyruns", schema).expect("table");
        let back = (1, key_runs[0].1, false);
        let mut id = 0;
        for &(len, key, broken) in key_runs.iter().chain([&back]) {
            for j in 0..len {
                let null = key >= RUN_FLOATS.len() || (broken && j == len / 2);
                let f = match RUN_FLOATS.get(key) {
                    Some(&z) if z == 0.0 && j % 2 == 1 => -z,
                    Some(&f) => f,
                    None => 0.0,
                };
                let (k, f) = if null {
                    (Value::Null, Value::Null)
                } else {
                    (Value::Int(RUN_INTS[key % RUN_INTS.len()]), Value::Float(f))
                };
                t.insert(vec![Value::Int(id), k, f]).expect("insert");
                id += 1;
            }
        }
        let provider = DatabaseProvider(&db);
        let catalog = ProviderCatalog(&provider);

        let mut shapes = Vec::new();
        for (o, op) in CUT_OPS.iter().enumerate() {
            let lit = |combo: usize| lits[o * 4 + combo];
            let (int_lit, float_lit) = (CUT_INT_LITS[lit(0)], CUT_FLOAT_LITS[lit(1)]);
            shapes.push(format!("SELECT id, k FROM cuts WHERE k {op} {int_lit}"));
            shapes.push(format!("SELECT id, k FROM cuts WHERE k {op} {float_lit}"));
            shapes.push(format!("SELECT id FROM cuts WHERE f {op} {}", CUT_FLOAT_LITS[lit(2)]));
            shapes.push(format!("SELECT id FROM cuts WHERE f {op} {}", CUT_INT_LITS[lit(3)]));
            shapes.push(format!("SELECT id FROM cuts WHERE {int_lit} {op} f AND {float_lit} {op} k"));
        }
        shapes.push("SELECT id FROM cuts WHERE t <> 'x'".to_string());

        let int_keys: Vec<Value> = CUT_INTS.iter().copied().map(Value::Int).collect();
        let float_keys: Vec<Value> = CUT_FLOATS.iter().copied().map(Value::Float).collect();
        for (col, hex) in [
            ("k", payload(&int_keys, int_mask, capacity)),
            ("f", payload(&float_keys, float_mask, capacity)),
            // INT keys probed from FLOAT slots: the keys fold as `=` does.
            ("f", payload(&int_keys, int_mask, capacity)),
        ] {
            shapes.push(format!("SELECT id, k FROM cuts WHERE BLOOM_HAS({col}, '{hex}')"));
            shapes.push(format!("SELECT id, k FROM cuts WHERE NOT BLOOM_HAS({col}, '{hex}')"));
            shapes.push(format!("SELECT id FROM cuts WHERE BLOOM_HAS({col}, '{hex}') OR k < 0"));
            shapes.push(format!("SELECT id FROM cuts WHERE k > 0 AND BLOOM_HAS({col}, '{hex}')"));
        }
        // Probed once per run of a key: a verdict must not outlive its run.
        let run_ints: Vec<Value> = RUN_INTS.iter().copied().map(Value::Int).collect();
        let run_floats: Vec<Value> = RUN_FLOATS.iter().copied().map(Value::Float).collect();
        for (col, hex) in [
            ("k", payload(&run_ints, int_mask, capacity)),
            ("f", payload(&run_floats, float_mask, capacity)),
            ("f", payload(&run_ints, int_mask, capacity)),
        ] {
            shapes.push(format!("SELECT id, k FROM keyruns WHERE BLOOM_HAS({col}, '{hex}')"));
            shapes.push(format!("SELECT id FROM keyruns WHERE NOT BLOOM_HAS({col}, '{hex}')"));
            shapes.push(format!(
                "SELECT id, k FROM keyruns WHERE id % 3 <> 1 AND BLOOM_HAS({col}, '{hex}')"
            ));
        }
        for bad in ["abc", "zz", "0g", ""] {
            shapes.push(format!("SELECT id FROM cuts WHERE BLOOM_HAS(k, '{bad}')"));
            shapes.push(format!("SELECT id FROM cuts WHERE NOT BLOOM_HAS(f, '{bad}')"));
            shapes.push(format!("SELECT id FROM cuts WHERE id < 0 AND BLOOM_HAS(k, '{bad}')"));
            shapes.push(format!("SELECT id FROM cuts WHERE BLOOM_HAS(f, '{bad}') OR k IS NULL"));
        }

        let mut three = ExecConfig::with_workers(3);
        three.morsel_rows = 5;
        let mut four = ExecConfig::with_workers(4);
        four.morsel_rows = 3;
        let shown = |r: &Result<gridfed::sqlkit::ResultSet, gridfed::sqlkit::SqlError>| match r {
            Ok(rs) => Ok(format!("{:?} {:?}", rs.columns, rs.rows)),
            Err(e) => Err(e.to_string()),
        };
        for sql in &shapes {
            let stmt = parse_select(sql).expect("parses");
            let plan = optimize(build_plan(&stmt), &catalog);
            let reference = shown(&gridfed_reference::execute(&plan, &provider));
            prop_assert_eq!(&shown(&execute_plan(&plan, &provider)), &reference, "{}", sql);
            for cfg in [&three, &four] {
                let parallel = with_exec_config(cfg.clone(), || execute_plan(&plan, &provider));
                prop_assert_eq!(
                    &shown(&parallel), &reference, "{} on {} workers", sql, cfg.workers
                );
            }
        }
    }
}

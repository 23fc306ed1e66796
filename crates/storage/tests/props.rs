//! Property-based tests for the storage engine's core invariants.

use gridfed_storage::{ColumnChunk, ColumnDef, DataType, KeySelection, Row, Schema, Table, Value};
use proptest::prelude::*;
use std::ops::Bound;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        (-1e12f64..1e12).prop_map(Value::Float),
        "[a-z0-9 ]{0,12}".prop_map(Value::Text),
        any::<bool>().prop_map(Value::Bool),
    ]
}

/// A column type and one value of it or NULL — TEXT multi-byte, BYTES
/// arbitrary — so a list of them is a row a table of those types holds.
fn arb_typed_value() -> impl Strategy<Value = (DataType, Value)> {
    let typed = prop_oneof![
        any::<i64>().prop_map(|i| (DataType::Int, Value::Int(i))),
        (-1e12f64..1e12).prop_map(|f| (DataType::Float, Value::Float(f))),
        "[a-zé中🙂\t\\\\]{0,6}".prop_map(|s| (DataType::Text, Value::Text(s))),
        any::<bool>().prop_map(|b| (DataType::Bool, Value::Bool(b))),
        prop::collection::vec(any::<u8>(), 0..6).prop_map(|b| (DataType::Bytes, Value::Bytes(b))),
    ];
    (typed, any::<bool>()).prop_map(|((t, v), null)| (t, if null { Value::Null } else { v }))
}

/// The same row built every way a row is built: adopting a vector, from
/// it, collected with an exact and with an unknown length, written into
/// a row of NULLs, concatenated from two halves, projected from a wider
/// row, and read back out of a table holding it.
fn every_build(types: &[DataType], vals: &[Value]) -> Vec<(&'static str, Row)> {
    let n = vals.len();
    let mut written = Row::nulls(n);
    written.values_mut().clone_from_slice(vals);
    let (head, tail) = vals.split_at(n / 2);
    let wider: Row = vals.iter().chain(vals).cloned().collect();
    let mut built = vec![
        ("new", Row::new(vals.to_vec())),
        ("from", Row::from(vals.to_vec())),
        ("collect", vals.iter().cloned().collect()),
        (
            "collect unsized",
            vals.iter().filter(|_| true).cloned().collect(),
        ),
        ("nulls", written),
        (
            "concat",
            Row::new(head.to_vec()).concat(&tail.iter().cloned().collect()),
        ),
        ("project", wider.project(&(n..2 * n).collect::<Vec<_>>())),
    ];
    if n > 0 {
        let columns = types
            .iter()
            .enumerate()
            .map(|(i, &t)| ColumnDef::new(format!("c{i}"), t))
            .collect();
        let mut t = Table::new("t", Schema::new(columns).expect("schema"));
        t.insert(vals.to_vec())
            .expect("the values fit their own types");
        let mut rows = t.rows();
        assert_eq!(rows.len(), 1, "a table of one row reads one row");
        built.push(("Table::rows", rows.remove(0)));
        built.push(("Table::scan", t.scan().next().expect("one row")));
        built.push(("Table::row_at", t.row_at(0).expect("live")));
    }
    let clones: Vec<_> = built.iter().map(|(_, r)| ("clone", r.clone())).collect();
    built.extend(clones);
    built
}

fn keyed_table() -> Table {
    let schema = Schema::new(vec![
        ColumnDef::new("id", DataType::Int).primary_key(),
        ColumnDef::new("x", DataType::Float),
        ColumnDef::new("tag", DataType::Text),
    ])
    .expect("schema");
    Table::new("t", schema)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every inserted row is retrievable by key, and len() counts exactly
    /// the successful inserts.
    #[test]
    fn inserted_rows_are_all_retrievable(rows in prop::collection::vec((0i64..500, -100.0f64..100.0), 1..60)) {
        let mut t = keyed_table();
        let mut inserted = std::collections::HashMap::new();
        for (id, x) in rows {
            let res = t.insert(vec![Value::Int(id), Value::Float(x), Value::Text(format!("r{id}"))]);
            match res {
                Ok(_) => { inserted.insert(id, x); }
                Err(_) => prop_assert!(inserted.contains_key(&id), "only duplicates may fail"),
            }
        }
        prop_assert_eq!(t.len(), inserted.len());
        for (id, x) in &inserted {
            let hits = t.lookup("id", &Value::Int(*id)).expect("lookup");
            prop_assert_eq!(hits.len(), 1);
            prop_assert_eq!(hits[0].values()[1].clone(), Value::Float(*x));
        }
    }

    /// Indexed lookup and full-scan lookup agree on every probed value.
    #[test]
    fn index_agrees_with_scan(ids in prop::collection::vec(0i64..60, 1..120), probe in 0i64..60) {
        let schema = Schema::new(vec![ColumnDef::new("k", DataType::Int)]).expect("schema");
        let mut t = Table::new("t", schema);
        for id in &ids {
            t.insert(vec![Value::Int(*id)]).expect("insert");
        }
        let by_scan = t.lookup("k", &Value::Int(probe)).expect("scan");
        t.create_index("k").expect("index");
        let by_index = t.lookup("k", &Value::Int(probe)).expect("index lookup");
        prop_assert_eq!(by_scan.len(), by_index.len());
    }

    /// Range selections return exactly the rows a filter-scan would.
    #[test]
    fn range_selection_matches_filter(ids in prop::collection::vec(0i64..1000, 1..80), lo in 0i64..500, width in 0i64..500) {
        let hi = lo + width;
        let mut t = keyed_table();
        let mut unique = std::collections::HashSet::new();
        for id in ids {
            if unique.insert(id) {
                t.insert(vec![Value::Int(id), Value::Float(0.0), Value::Text(String::new())])
                    .expect("insert unique");
            }
        }
        let (lo_key, hi_key) = (Value::Int(lo), Value::Int(hi));
        let ranged = t
            .select(KeySelection::Range {
                column: "id",
                lo: Bound::Included(&lo_key),
                hi: Bound::Included(&hi_key),
            })
            .expect("range");
        let expected = unique.iter().filter(|&&v| v >= lo && v <= hi).count();
        prop_assert_eq!(ranged.len(), expected);
    }

    /// delete_where removes exactly the matching rows; compaction never
    /// changes visible content.
    #[test]
    fn delete_then_compact_preserves_survivors(ids in prop::collection::vec(0i64..200, 1..80), cut in 0i64..200) {
        let mut t = keyed_table();
        let mut unique = std::collections::HashSet::new();
        for id in ids {
            if unique.insert(id) {
                t.insert(vec![Value::Int(id), Value::Float(0.0), Value::Text(String::new())])
                    .expect("insert");
            }
        }
        let expected_deleted = unique.iter().filter(|&&v| v < cut).count();
        let deleted = t.delete_where(|r| matches!(r.values()[0], Value::Int(v) if v < cut));
        prop_assert_eq!(deleted, expected_deleted);
        let before: Vec<_> = t.rows();
        t.compact();
        let after: Vec<_> = t.rows();
        prop_assert_eq!(before, after);
        prop_assert_eq!(t.len(), unique.len() - expected_deleted);
    }

    /// Coercion result always conforms to the target type (or errs).
    #[test]
    fn coercion_conforms(v in arb_value()) {
        for ty in [DataType::Int, DataType::Float, DataType::Text, DataType::Bool, DataType::Bytes] {
            if let Ok(out) = v.coerce(ty) {
                prop_assert!(out.is_null() || out.conforms_to(ty),
                    "coerce({v:?}, {ty:?}) produced non-conforming {out:?}");
            }
        }
    }

    /// index_cmp is a total order: antisymmetric and transitive on samples.
    #[test]
    fn index_cmp_total_order(a in arb_value(), b in arb_value(), c in arb_value()) {
        use std::cmp::Ordering;
        prop_assert_eq!(a.index_cmp(&b), b.index_cmp(&a).reverse());
        if a.index_cmp(&b) != Ordering::Greater && b.index_cmp(&c) != Ordering::Greater {
            prop_assert_ne!(a.index_cmp(&c), Ordering::Greater,
                "transitivity violated: {:?} {:?} {:?}", a, b, c);
        }
    }

    /// sql_cmp equality implies index_cmp equality for comparable values.
    #[test]
    fn sql_eq_implies_index_eq(a in arb_value(), b in arb_value()) {
        if a.sql_eq(&b) {
            prop_assert_eq!(a.index_cmp(&b), std::cmp::Ordering::Equal);
        }
    }

    /// However a row is built — inline or on the heap — it is the same row:
    /// its values, arity, positions, `==`, wire size, `Debug`, owned values,
    /// writes through `values_mut`, `concat`, `project` and `truncate`.
    #[test]
    fn every_way_of_building_a_row_agrees(
        typed in prop::collection::vec(arb_typed_value(), 0..=8),
        other in prop::collection::vec(arb_value(), 0..=5),
        picks in prop::collection::vec(0usize..11, 0..=6),
        keep in 0usize..10,
    ) {
        let (types, vals): (Vec<DataType>, Vec<Value>) = typed.into_iter().unzip();
        let reference = Row::new(vals.clone());
        let other_row: Row = other.iter().cloned().collect();
        for (how, row) in every_build(&types, &vals) {
            prop_assert_eq!(row.values(), &vals[..], "{} values", how);
            prop_assert_eq!(row.arity(), vals.len(), "{} arity", how);
            for i in 0..=vals.len() {
                prop_assert_eq!(row.get(i), vals.get(i), "{} get({})", how, i);
            }
            prop_assert_eq!(&row, &reference, "{} ==", how);
            prop_assert_eq!(&reference, &row, "{} == from the other side", how);
            prop_assert_eq!(
                row.wire_size(),
                vals.iter().map(Value::wire_size).sum::<usize>(),
                "{} wire size", how
            );
            prop_assert_eq!(format!("{row:?}"), format!("Row {{ values: {vals:?} }}"), "{}", how);
            prop_assert_eq!(format!("{row:#?}"), format!("{reference:#?}"), "{} pretty", how);
            prop_assert_eq!(row.to_staging_line(), reference.to_staging_line(), "{}", how);
            prop_assert_eq!(row.clone().into_values(), vals.clone(), "{} into_values", how);

            let mut written = row.clone();
            for (i, v) in written.values_mut().iter_mut().enumerate() {
                *v = Value::Int(i as i64);
            }
            let ints: Vec<Value> = (0..vals.len() as i64).map(Value::Int).collect();
            prop_assert_eq!(written.values(), &ints[..], "{} values_mut", how);
            prop_assert_eq!(&written, &Row::new(ints.clone()), "{} written ==", how);
            prop_assert_eq!(written != row, ints != vals, "{} != after a write", how);

            let joined = [&vals[..], &other[..]].concat();
            prop_assert_eq!(row.concat(&other_row), Row::new(joined.clone()), "{} concat", how);
            prop_assert_eq!(other_row.concat(&row), Row::new([&other[..], &vals[..]].concat()));
            let picked: Vec<Value> = picks
                .iter()
                .map(|&i| vals.get(i).cloned().unwrap_or(Value::Null))
                .collect();
            prop_assert_eq!(row.project(&picks), Row::new(picked), "{} project", how);

            let mut cut = row.clone();
            cut.truncate(keep);
            prop_assert_eq!(cut.values(), &vals[..keep.min(vals.len())], "{} truncate", how);
            prop_assert_eq!(cut, Row::new(vals[..keep.min(vals.len())].to_vec()));
        }
    }

    /// An answer sized from its columns is sized as its values are: for a
    /// chunk of every type, NULLs among its cells, the wire size of any
    /// selection of its positions — empty, or with repeats — is the sum of
    /// [`Value::wire_size`] over the values at them.
    #[test]
    fn a_selection_is_sized_as_its_values(
        typed in prop::collection::vec(arb_typed_value(), 0..60),
        picks in prop::collection::vec(0usize..1000, 0..24),
    ) {
        for ty in [DataType::Int, DataType::Float, DataType::Text, DataType::Bool, DataType::Bytes] {
            let vals: Vec<Value> = typed.iter().filter(|(t, _)| *t == ty).map(|(_, v)| v.clone()).collect();
            let mut chunk = ColumnChunk::for_type(ty);
            for v in &vals {
                chunk.push(v);
            }
            let positions: Vec<u32> = match vals.len() {
                0 => Vec::new(),
                n => picks.iter().map(|i| (i % n) as u32).collect(),
            };
            let by_values: usize = positions.iter().map(|&p| vals[p as usize].wire_size()).sum();
            prop_assert_eq!(chunk.wire_size_of(&positions), by_values, "{:?} at {:?}", ty, positions);
            let all: Vec<u32> = (0..vals.len() as u32).collect();
            prop_assert_eq!(chunk.wire_size_of(&all), chunk.wire_size(), "{:?}", ty);
            prop_assert_eq!(chunk.wire_size(), vals.iter().map(Value::wire_size).sum::<usize>());
        }
    }

    /// Staging-line rendering never contains raw tabs or newlines.
    #[test]
    fn staging_lines_are_single_line(vals in prop::collection::vec(arb_value(), 1..6)) {
        let row = gridfed_storage::Row::new(vals);
        let line = row.to_staging_line();
        // Escaped sequences are fine; raw control characters are not.
        prop_assert!(!line.contains('\n'));
    }
}

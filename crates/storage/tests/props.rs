//! Property-based tests for the storage engine's core invariants.

use gridfed_storage::{ColumnDef, DataType, KeySelection, Schema, Table, Value};
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

    /// Staging-line rendering never contains raw tabs or newlines.
    #[test]
    fn staging_lines_are_single_line(vals in prop::collection::vec(arb_value(), 1..6)) {
        let row = gridfed_storage::Row::new(vals);
        let line = row.to_staging_line();
        // Escaped sequences are fine; raw control characters are not.
        prop_assert!(!line.contains('\n'));
    }
}

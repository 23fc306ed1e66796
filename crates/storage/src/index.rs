//! Ordered secondary indexes over a single column.
//!
//! Backed by a `BTreeMap` keyed on a total-order wrapper around [`Value`];
//! this is the engine's equivalent of the B-tree indexes the paper's
//! production databases (Oracle/MySQL) maintain on ntuple key columns.

use crate::value::Value;
use std::collections::btree_map::{BTreeMap, Entry};
use std::ops::Bound;

/// Total-order key wrapper so [`Value`] can live in a `BTreeMap`.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexKey(pub Value);

impl Eq for IndexKey {}

impl PartialOrd for IndexKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for IndexKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.index_cmp(&other.0)
    }
}

/// The row positions under one key. Most indexed columns are unique, so
/// the common key has one position, held inline: a `Vec` per key costs
/// every key of every unique index its own heap allocation, scattered
/// through the heap of a table built row by row.
#[derive(Debug, Clone)]
enum Bucket {
    One(usize),
    Many(Vec<usize>),
}

impl Bucket {
    fn as_slice(&self) -> &[usize] {
        match self {
            Bucket::One(pos) => std::slice::from_ref(pos),
            Bucket::Many(positions) => positions,
        }
    }
}

/// An ordered index from column value to row positions.
///
/// Positions are indices into the owning table's row store; the table is
/// responsible for keeping the index in sync on insert/delete.
#[derive(Debug, Clone, Default)]
pub struct OrderedIndex {
    map: BTreeMap<IndexKey, Bucket>,
    len: usize,
}

impl OrderedIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of (value, position) entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Record that `value` occurs at row `pos`.
    pub fn insert(&mut self, value: Value, pos: usize) {
        match self.map.entry(IndexKey(value)) {
            Entry::Vacant(e) => drop(e.insert(Bucket::One(pos))),
            Entry::Occupied(mut e) => match e.get_mut() {
                Bucket::One(first) => {
                    let mut positions = Vec::with_capacity(4);
                    positions.extend([*first, pos]);
                    *e.get_mut() = Bucket::Many(positions);
                }
                Bucket::Many(positions) => positions.push(pos),
            },
        }
        self.len += 1;
    }

    /// Remove the entry for `value` at row `pos`, if present.
    pub fn remove(&mut self, value: &Value, pos: usize) {
        let key = IndexKey(value.clone());
        let emptied = match self.map.get_mut(&key) {
            Some(Bucket::One(p)) if *p == pos => true,
            Some(Bucket::Many(v)) => match v.iter().position(|&p| p == pos) {
                Some(i) => {
                    v.swap_remove(i);
                    v.is_empty()
                }
                None => return,
            },
            _ => return,
        };
        self.len -= 1;
        if emptied {
            self.map.remove(&key);
        }
    }

    /// Row positions whose indexed value equals `value` exactly
    /// (NULL matches NULL here; SQL NULL semantics are applied upstream).
    pub fn get(&self, value: &Value) -> &[usize] {
        self.map
            .get(&IndexKey(value.clone()))
            .map_or(&[], Bucket::as_slice)
    }

    /// True if any row holds `value`.
    pub fn contains(&self, value: &Value) -> bool {
        !self.get(value).is_empty()
    }

    /// Row positions with values in `[lo, hi]` (inclusive bounds; `None`
    /// means unbounded on that side). NULL keys are never returned by range
    /// scans, matching SQL comparison semantics.
    pub fn range(&self, lo: Option<&Value>, hi: Option<&Value>) -> Vec<usize> {
        let lo_bound = match lo {
            Some(v) => Bound::Included(IndexKey(v.clone())),
            // Exclude NULLs, which sort first under index_cmp.
            None => Bound::Excluded(IndexKey(Value::Null)),
        };
        let hi_bound = match hi {
            Some(v) => Bound::Included(IndexKey(v.clone())),
            None => Bound::Unbounded,
        };
        let mut out = Vec::new();
        for (k, positions) in self.map.range((lo_bound, hi_bound)) {
            if k.0.is_null() {
                continue;
            }
            out.extend_from_slice(positions.as_slice());
        }
        out
    }

    /// All row positions in ascending value order (NULLs first).
    pub fn ascending(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.len);
        for positions in self.map.values() {
            out.extend_from_slice(positions.as_slice());
        }
        out
    }

    /// Number of distinct indexed values.
    pub fn distinct(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx(values: &[i64]) -> OrderedIndex {
        let mut ix = OrderedIndex::new();
        for (pos, &v) in values.iter().enumerate() {
            ix.insert(Value::Int(v), pos);
        }
        ix
    }

    #[test]
    fn point_lookup() {
        let ix = idx(&[5, 3, 5, 9]);
        assert_eq!(ix.get(&Value::Int(5)), &[0, 2]);
        assert_eq!(ix.get(&Value::Int(4)), &[] as &[usize]);
        assert!(ix.contains(&Value::Int(9)));
        assert_eq!(ix.len(), 4);
        assert_eq!(ix.distinct(), 3);
    }

    #[test]
    fn range_scan_inclusive() {
        let ix = idx(&[1, 2, 3, 4, 5]);
        let hits = ix.range(Some(&Value::Int(2)), Some(&Value::Int(4)));
        assert_eq!(hits, vec![1, 2, 3]);
        let all = ix.range(None, None);
        assert_eq!(all.len(), 5);
    }

    #[test]
    fn range_scan_skips_nulls() {
        let mut ix = idx(&[1, 2]);
        ix.insert(Value::Null, 7);
        assert_eq!(ix.range(None, None), vec![0, 1]);
        // but NULL is point-addressable
        assert_eq!(ix.get(&Value::Null), &[7]);
    }

    #[test]
    fn remove_keeps_structure_consistent() {
        let mut ix = idx(&[5, 5, 6]);
        ix.remove(&Value::Int(5), 0);
        assert_eq!(ix.get(&Value::Int(5)), &[1]);
        assert_eq!(ix.len(), 2);
        ix.remove(&Value::Int(5), 1);
        assert!(!ix.contains(&Value::Int(5)));
        // removing a missing entry is a no-op
        ix.remove(&Value::Int(5), 1);
        assert_eq!(ix.len(), 1);
        // ... also for a key held once, at another position
        ix.remove(&Value::Int(6), 0);
        assert_eq!(ix.get(&Value::Int(6)), &[2]);
        ix.remove(&Value::Int(6), 2);
        assert!(ix.is_empty());
        assert_eq!(ix.distinct(), 0);
    }

    #[test]
    fn ascending_orders_across_types() {
        let mut ix = OrderedIndex::new();
        ix.insert(Value::Int(2), 0);
        ix.insert(Value::Int(1), 1);
        ix.insert(Value::Float(1.5), 2);
        assert_eq!(ix.ascending(), vec![1, 2, 0]);
    }
}

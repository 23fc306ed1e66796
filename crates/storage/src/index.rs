//! Ordered secondary indexes over a single column.
//!
//! Backed by a `BTreeMap` keyed on a total-order wrapper around [`Value`];
//! this is the engine's equivalent of the B-tree indexes the paper's
//! production databases (Oracle/MySQL) maintain on ntuple key columns.

use crate::value::Value;
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::btree_map::{BTreeMap, Entry};
use std::ops::Bound;

/// Total-order key wrapper so [`Value`] can live in a `BTreeMap`.
#[derive(Debug, Clone, PartialEq)]
struct IndexKey(Value);

/// What a walk searches the map by: a stored [`IndexKey`] or a borrowed
/// [`Value`], so a range bound is never cloned. (A point lookup clones its
/// key and compares `IndexKey`s directly, without the dynamic dispatch.)
trait Key {
    fn value(&self) -> &Value;
}

impl Key for IndexKey {
    fn value(&self) -> &Value {
        &self.0
    }
}

impl Key for Value {
    fn value(&self) -> &Value {
        self
    }
}

impl<'a> Borrow<dyn Key + 'a> for IndexKey {
    fn borrow(&self) -> &(dyn Key + 'a) {
        self
    }
}

impl PartialEq for dyn Key + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for dyn Key + '_ {}

impl PartialOrd for dyn Key + '_ {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for dyn Key + '_ {
    fn cmp(&self, other: &Self) -> Ordering {
        self.value().index_cmp(other.value())
    }
}

impl Eq for IndexKey {}

impl PartialOrd for IndexKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for IndexKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.index_cmp(&other.0)
    }
}

/// The lower bound every walk starts above: NULL keys sort first and never
/// satisfy a comparison.
const NULL: &Value = &Value::Null;

/// A row position as the `u32` selections carry. A table never holds
/// `u32::MAX` row slots: selections, dictionaries and indexes all address
/// rows in 32 bits.
#[allow(clippy::expect_used)]
#[inline]
pub(crate) fn position(p: usize) -> u32 {
    u32::try_from(p).expect("row position fits u32")
}

fn as_key(v: &Value) -> &dyn Key {
    v
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

    /// Push onto `out` the positions of the keys between `lo` and `hi`, in
    /// key order. NULL keys are never returned, matching SQL comparison
    /// semantics. Returns `false`, with `out` part-filled, as soon as `out`
    /// would hold more than `cap` positions: a range of INT keys is first
    /// sized from the index's first and last keys as if the keys between
    /// them were evenly spread, so a range guessed wider than `cap` costs two
    /// descents and no walk; any other range stops walking at `cap`.
    pub fn walk(
        &self,
        lo: Bound<&Value>,
        hi: Bound<&Value>,
        cap: usize,
        out: &mut Vec<u32>,
    ) -> bool {
        let lo = match lo {
            Bound::Included(v) | Bound::Excluded(v) if !v.is_null() => lo,
            _ => Bound::Excluded(NULL),
        };
        // The ranges a `BTreeMap` panics on: start above end, or one key
        // with a bound excluding it.
        let empty = match (lo, hi) {
            (Bound::Included(a), Bound::Included(b)) => a.index_cmp(b).is_gt(),
            (Bound::Included(a) | Bound::Excluded(a), Bound::Included(b) | Bound::Excluded(b)) => {
                a.index_cmp(b).is_ge()
            }
            _ => false,
        };
        if empty {
            return true;
        }
        if cap < self.len {
            let guess = self.spread_guess(lo, hi);
            if out.len() + guess > cap {
                return false;
            }
            out.reserve(guess);
        }
        let range = (lo.map(as_key), hi.map(as_key));
        for positions in self
            .map
            .range::<dyn Key, _>(range)
            .map(|(_, b)| b.as_slice())
        {
            if out.len() + positions.len() > cap {
                return false;
            }
            out.extend(positions.iter().map(|&p| position(p)));
        }
        true
    }

    /// How many entries an INT range holds if the index's non-NULL INT keys
    /// are evenly spread between its first and last key; `0` when a bound or
    /// an end key is not an INT.
    fn spread_guess(&self, lo: Bound<&Value>, hi: Bound<&Value>) -> usize {
        let int = |v: &Value| match v {
            Value::Int(i) => Some(i128::from(*i)),
            _ => None,
        };
        let first = self
            .map
            .range::<dyn Key, _>((Bound::Excluded(as_key(NULL)), Bound::Unbounded))
            .next();
        let last = self.map.last_key_value();
        let (Some(first), Some(last)) = (
            first.and_then(|(k, _)| int(&k.0)),
            last.and_then(|(k, _)| int(&k.0)),
        ) else {
            return 0;
        };
        let from = match lo {
            Bound::Included(v) => int(v),
            Bound::Excluded(v) if v.is_null() => Some(first),
            Bound::Excluded(v) => int(v).map(|i| i + 1),
            Bound::Unbounded => Some(first),
        };
        let to = match hi {
            Bound::Included(v) => int(v),
            Bound::Excluded(v) => int(v).map(|i| i - 1),
            Bound::Unbounded => Some(last),
        };
        let (Some(from), Some(to)) = (from, to) else {
            return 0;
        };
        let width = to.min(last) - from.max(first) + 1;
        if width <= 0 {
            return 0;
        }
        let share = width as f64 / (last - first + 1) as f64;
        (share * self.len as f64) as usize
    }

    /// The largest non-NULL indexed value, or `None` when the index holds
    /// no non-NULL entry — the column's maximum without a scan.
    pub fn max_key(&self) -> Option<&Value> {
        self.map
            .keys()
            .next_back()
            .map(|k| &k.0)
            .filter(|v| !v.is_null())
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

    /// `walk` with no cap, its positions in key order.
    fn walked(ix: &OrderedIndex, lo: Bound<&Value>, hi: Bound<&Value>) -> Vec<u32> {
        let mut out = Vec::new();
        assert!(ix.walk(lo, hi, usize::MAX, &mut out));
        out
    }

    #[test]
    fn walk_honours_inclusive_and_exclusive_bounds() {
        use Bound::{Excluded, Included, Unbounded};
        let ix = idx(&[1, 2, 3, 4, 5]);
        let (two, four) = (Value::Int(2), Value::Int(4));
        assert_eq!(walked(&ix, Included(&two), Included(&four)), [1, 2, 3]);
        assert_eq!(walked(&ix, Excluded(&two), Included(&four)), [2, 3]);
        assert_eq!(walked(&ix, Included(&two), Excluded(&four)), [1, 2]);
        assert_eq!(walked(&ix, Excluded(&two), Excluded(&four)), [2]);
        assert_eq!(walked(&ix, Unbounded, Excluded(&two)), [0]);
        assert_eq!(walked(&ix, Excluded(&four), Unbounded), [4]);
        assert_eq!(walked(&ix, Unbounded, Unbounded).len(), 5);
        // Empty ranges, including the ones a `BTreeMap` would panic on.
        assert!(walked(&ix, Included(&four), Included(&two)).is_empty());
        assert!(walked(&ix, Excluded(&two), Excluded(&two)).is_empty());
        assert!(walked(&ix, Included(&two), Excluded(&two)).is_empty());
        // Keys across classes keep their total order: TEXT after INT.
        let text = Value::Text("a".into());
        assert_eq!(walked(&ix, Included(&four), Included(&text)), [3, 4]);
    }

    #[test]
    fn walk_never_returns_null_keys() {
        use Bound::{Excluded, Included, Unbounded};
        let mut ix = idx(&[1, 2]);
        ix.insert(Value::Null, 7);
        let null = &Value::Null;
        assert_eq!(walked(&ix, Unbounded, Unbounded), [0, 1]);
        assert_eq!(walked(&ix, Included(null), Unbounded), [0, 1]);
        assert_eq!(walked(&ix, Excluded(null), Unbounded), [0, 1]);
        assert!(walked(&ix, Included(null), Included(null)).is_empty());
        assert!(walked(&ix, Unbounded, Excluded(&Value::Int(1))).is_empty());
        // but NULL is point-addressable
        assert_eq!(ix.get(&Value::Null), &[7]);
    }

    #[test]
    fn walk_reports_a_reached_cap() {
        use Bound::{Included, Unbounded};
        // TEXT keys, which are never guessed at, with duplicates: a bucket
        // is taken whole or not at all.
        let mut ix = OrderedIndex::new();
        for (pos, w) in ["c", "a", "c", "b", "c"].into_iter().enumerate() {
            ix.insert(Value::Text(w.into()), pos);
        }
        let mut out = Vec::new();
        assert!(ix.walk(Unbounded, Unbounded, 5, &mut out));
        assert_eq!(out, [1, 3, 0, 2, 4]);
        out.clear();
        assert!(!ix.walk(Unbounded, Unbounded, 4, &mut out));
        assert_eq!(out, [1, 3], "stops before the bucket that crosses the cap");
        // The cap bounds what `out` holds in all, across walks.
        out.clear();
        let [a, b, c] = ["a", "b", "c"].map(|w| Value::Text(w.into()));
        assert!(ix.walk(Included(&a), Included(&b), 3, &mut out));
        assert!(!ix.walk(Included(&c), Included(&c), 3, &mut out));
        assert_eq!(out, [1, 3]);
        // An empty range never reaches a cap, however small.
        out.clear();
        assert!(ix.walk(Included(&Value::Text("d".into())), Unbounded, 0, &mut out));
        assert!(out.is_empty());
    }

    #[test]
    fn walk_gives_up_on_a_wide_int_range_before_walking() {
        use Bound::{Excluded, Included, Unbounded};
        let ix = idx(&(0..1000).collect::<Vec<_>>());
        let mut out = Vec::new();
        // Guessed at 900 of 1000 entries: refused before the first key.
        assert!(!ix.walk(Included(&Value::Int(100)), Unbounded, 125, &mut out));
        assert!(out.is_empty(), "a guessed-wide range is not walked");
        assert!(!ix.walk(Unbounded, Excluded(&Value::Int(951)), 125, &mut out));
        assert!(out.is_empty());
        // Guessed narrow: walked, in key order.
        assert!(ix.walk(Excluded(&Value::Int(989)), Unbounded, 125, &mut out));
        assert_eq!(out, (990..1000).collect::<Vec<u32>>());
        // Bounds past the ends are clamped to them.
        out.clear();
        assert!(ix.walk(Unbounded, Excluded(&Value::Int(-5)), 125, &mut out));
        assert!(ix.walk(
            Included(&Value::Int(i64::MIN)),
            Excluded(&Value::Int(3)),
            125,
            &mut out
        ));
        assert_eq!(out, [0, 1, 2]);
        // Skewed keys the guess misses are still cut at the cap.
        let mut skewed = idx(&(0..200).collect::<Vec<_>>());
        skewed.insert(Value::Int(1_000_000), 200);
        out.clear();
        assert!(!skewed.walk(Unbounded, Excluded(&Value::Int(150)), 125, &mut out));
        assert_eq!(out.len(), 125);
        // TEXT keys: no guess, the walk alone stops at the cap.
        let mut words = OrderedIndex::new();
        for (pos, w) in ["d", "a", "c", "b"].into_iter().enumerate() {
            words.insert(Value::Text(w.into()), pos);
        }
        out.clear();
        assert!(!words.walk(Included(&Value::Text("b".into())), Unbounded, 2, &mut out));
        assert_eq!(out, [3, 2]);
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
    fn max_key_ignores_nulls() {
        let mut ix = OrderedIndex::new();
        assert_eq!(ix.max_key(), None);
        ix.insert(Value::Null, 0);
        assert_eq!(ix.max_key(), None);
        ix.insert(Value::Int(5), 1);
        ix.insert(Value::Int(-2), 2);
        assert_eq!(ix.max_key(), Some(&Value::Int(5)));
        ix.remove(&Value::Int(5), 1);
        assert_eq!(ix.max_key(), Some(&Value::Int(-2)));
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

//! The executor's key kernel: every place that finds an equal key finds it
//! here, over canonical `u64` key bits — an INT's bits, a dictionary code,
//! the canonical `f64` bits [`KeyValue`](crate::compile::KeyValue) folds, or
//! a 64-bit hash of several keys.
//!
//! - [`KeyIndex`]: an array at `key - min` while the keys' span is narrow
//!   (the one bound rule, [`KeyIndex::new`]), a SipHash map past it — keys
//!   a peer sends choose which buckets fill, so the hasher stays keyed. An
//!   `IN` list's key set, the hash join's heads and GROUP BY's group ids
//!   are instances.
//! - [`key_runs`]: the runs of equal keys along a selection. A mart is
//!   loaded run by run, so the `BLOOM_HAS` kernel probes, the join probe
//!   looks up and GROUP BY places once per run.
//! - [`Chains`]: a hash chain, heads in a `KeyIndex<u32>` and one link per
//!   entry: the join's build side, GROUP BY over several keys and a
//!   retained aggregate's groups.
//!
//! [`Groups`] numbers a selection's entries by the group each falls in.
//! Nothing here allocates per row, and what falls back — an index built on
//! the hashed arm, a grouping whose key came back — is counted once per
//! node ([`note_fallbacks`]), never per row.

use crate::exec::ExecMetrics;
use std::borrow::Cow;
use std::collections::HashMap;
use std::ops::Range;

/// Bytes a dense index may take whatever its entries, so that an `IN` set
/// spanning up to 65 536 keys (a reduction ships at most 64) is an array.
const DENSE_FLOOR: u64 = 1 << 16;

/// Bytes per entry a dense index may take past the floor: four `u32` slots.
const DENSE_PER_ENTRY: u64 = 16;

/// Canonical key bits to a value: `V::default()` where no key was stored.
#[derive(Debug, Clone, PartialEq)]
pub enum KeyIndex<V> {
    /// The slot of key `k` at `k - min`, wrapping, so keys at `i64::MIN`
    /// and `i64::MAX` are exact and a key outside the span has no slot.
    Dense(u64, Vec<V>),
    /// Keys whose span is too wide for the bound rule.
    Hashed(HashMap<u64, V>),
}

impl<V: Default + Copy> KeyIndex<V> {
    /// An empty index for `entries` entries keyed by `keys`. The one bound
    /// rule: dense while the slots of the keys' span cost at most
    /// [`DENSE_PER_ENTRY`] bytes per entry, or [`DENSE_FLOOR`] in all, so
    /// memory stays O(entries) plus a constant whatever keys arrive; a
    /// hashed index sets `hashed`.
    pub(crate) fn new(
        keys: impl IntoIterator<Item = u64>,
        entries: usize,
        hashed: &mut bool,
    ) -> Self {
        let span = keys.into_iter().map(|k| k as i64).fold(None, |span, k| {
            Some(span.map_or((k, k), |(lo, hi): (i64, i64)| (lo.min(k), hi.max(k))))
        });
        let Some((lo, hi)) = span else {
            return KeyIndex::Dense(0, Vec::new());
        };
        let slots = hi.abs_diff(lo).saturating_add(1);
        let bytes = slots.saturating_mul(std::mem::size_of::<V>() as u64);
        if bytes <= DENSE_FLOOR.max(DENSE_PER_ENTRY.saturating_mul(entries as u64)) {
            return KeyIndex::Dense(lo as u64, vec![V::default(); slots as usize]);
        }
        *hashed = true;
        KeyIndex::Hashed(HashMap::with_capacity(entries))
    }

    /// The value stored at `k`.
    #[inline]
    pub fn get(&self, k: u64) -> V {
        let slot = match self {
            KeyIndex::Dense(min, slots) => slots.get(k.wrapping_sub(*min) as usize),
            KeyIndex::Hashed(slots) => slots.get(&k),
        };
        slot.copied().unwrap_or_default()
    }

    /// The slot of `k`, which must lie in the span the index was built for.
    #[inline]
    pub(crate) fn slot(&mut self, k: u64) -> &mut V {
        match self {
            KeyIndex::Dense(min, slots) => &mut slots[k.wrapping_sub(*min) as usize],
            KeyIndex::Hashed(slots) => slots.entry(k).or_default(),
        }
    }
}

/// The run of entries from `i` on whose key equals entry `i`'s: that key
/// (`None` for a NULL, or a key that matches nothing) and the run's end.
#[inline]
pub(crate) fn run_at(
    sel: &[u32],
    i: usize,
    key: impl Fn(usize) -> Option<u64>,
) -> (Option<u64>, usize) {
    let k = key(sel[i] as usize);
    let mut end = i + 1;
    while sel.get(end).is_some_and(|&q| key(q as usize) == k) {
        end += 1;
    }
    (k, end)
}

/// Each run of equal keys along `sel` ([`run_at`]), with its entries.
pub(crate) fn key_runs<'s>(
    sel: &'s [u32],
    key: impl Fn(usize) -> Option<u64> + 's,
) -> impl Iterator<Item = (Option<u64>, Range<usize>)> + 's {
    let mut i = 0;
    std::iter::from_fn(move || {
        let start = i;
        (start < sel.len()).then(|| {
            let (k, end) = run_at(sel, start, &key);
            i = end;
            (k, start..end)
        })
    })
}

/// The key bits `bits(p)` of a slot that `nulls` does not mark NULL.
#[inline]
pub(crate) fn non_null<'a>(
    nulls: &'a gridfed_storage::Bitmap,
    bits: impl Fn(usize) -> u64 + 'a,
) -> impl Fn(usize) -> Option<u64> + 'a {
    let any_null = nulls.any();
    move |p| (!(any_null && nulls.get(p))).then(|| bits(p))
}

/// A hash chain over entries `0, 1, …`: per key the entry linked last, per
/// entry the one linked before it on the same key, each held as entry + 1
/// so that 0 ends a chain.
#[derive(Debug, Clone)]
pub(crate) struct Chains {
    pub(crate) heads: KeyIndex<u32>,
    next: Vec<u32>,
}

impl Chains {
    /// Chains whose heads are `heads`, no entry linked yet.
    pub(crate) fn new(heads: KeyIndex<u32>) -> Chains {
        Chains {
            heads,
            next: Vec::new(),
        }
    }

    /// Chains over 64-bit hashes, which span every key: the hashed arm.
    pub(crate) fn hashed() -> Chains {
        Chains::new(KeyIndex::Hashed(HashMap::new()))
    }

    /// Put entry `i` first on `k`'s chain.
    #[inline]
    pub(crate) fn link(&mut self, k: u64, i: u32) {
        if self.next.len() <= i as usize {
            self.next.resize(i as usize + 1, 0);
        }
        self.next[i as usize] = std::mem::replace(self.heads.slot(k), i + 1);
    }

    /// The entries of the chain whose head `heads` holds as `head`.
    #[inline]
    pub(crate) fn walk(&self, head: u32) -> impl Iterator<Item = u32> + '_ {
        std::iter::successors(head.checked_sub(1), |&i| {
            self.next[i as usize].checked_sub(1)
        })
    }

    /// The first entry on `k`'s chain that `same` confirms.
    #[inline]
    pub(crate) fn find(&self, k: u64, same: impl Fn(u32) -> bool) -> Option<u32> {
        let mut i = self.heads.get(k);
        while let Some(e) = i.checked_sub(1) {
            if same(e) {
                return Some(e);
            }
            i = self.next[e as usize];
        }
        None
    }
}

/// A selection's entries in groups numbered by first occurrence: while each
/// group is one run of entries, only where each opens; from the first entry
/// whose key comes back, every entry's group.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct Groups {
    /// Per group, the position that opened it.
    pub(crate) openers: Vec<u32>,
    /// Per group, the entry it opened at; read while `ids` is empty.
    pub(crate) starts: Vec<u32>,
    pub(crate) ids: Vec<u32>,
}

impl Groups {
    /// Entries `i..end`, the first at position `p`, are in the group whose
    /// id + 1 `slot` holds; an empty slot (0) opens one. Returns the id.
    #[inline]
    pub(crate) fn place(&mut self, slot: &mut u32, i: usize, end: usize, p: u32) -> u32 {
        if *slot == 0 {
            self.openers.push(p);
            *slot = self.openers.len() as u32;
        }
        self.push(i, end, *slot - 1);
        *slot - 1
    }

    /// Entries `i..end` are in group `g`, numbered as the groups before it
    /// if new.
    #[inline]
    pub(crate) fn push(&mut self, i: usize, end: usize, g: u32) {
        if self.ids.is_empty() {
            let runs = self.starts.len() as u32;
            if g == runs {
                return self.starts.push(i as u32);
            }
            if g + 1 == runs {
                return;
            }
            let mut ids = Vec::with_capacity(2 * end);
            self.for_each(i, |g| ids.push(g));
            self.ids = ids;
        }
        self.ids.resize(end, g);
    }

    /// The selection split into its `n` groups: group `g` is
    /// `positions[bounds[g]..bounds[g + 1]]`, in selection order. Runs
    /// (first-occurrence numbering over a table appended run by run, or a
    /// global aggregate) borrow `sel` as it is, bounded where each opened;
    /// other groups are scattered by a counting sort (stable, two vectors).
    pub(crate) fn split<'a>(&self, sel: &'a [u32], n: usize) -> (Cow<'a, [u32]>, Vec<usize>) {
        if self.ids.is_empty() {
            let mut bounds: Vec<usize> = self.starts.iter().map(|&s| s as usize).collect();
            bounds.resize(n + 1, sel.len());
            return (Cow::Borrowed(sel), bounds);
        }
        let mut bounds = vec![0; n + 1];
        for &g in &self.ids {
            bounds[g as usize + 1] += 1;
        }
        for g in 0..n {
            bounds[g + 1] += bounds[g];
        }
        let mut next = bounds.clone();
        let mut positions = vec![0u32; sel.len()];
        for (&p, &g) in sel.iter().zip(&self.ids) {
            positions[next[g as usize]] = p;
            next[g as usize] += 1;
        }
        (Cow::Owned(positions), bounds)
    }

    /// `f` of the group of each entry before `end`, in order.
    pub(crate) fn for_each(&self, end: usize, mut f: impl FnMut(u32)) {
        if !self.ids.is_empty() {
            return self.ids[..end].iter().for_each(|&g| f(g));
        }
        let ends = self.starts.iter().skip(1).map(|&s| s as usize).chain([end]);
        for (g, (&start, end)) in (0..).zip(self.starts.iter().zip(ends)) {
            (start as usize..end).for_each(|_| f(g));
        }
    }
}

/// Group `sel` by one key read as canonical bits (`None`, NULL: one group
/// of its own): one walk finds where each run of a key starts
/// ([`key_runs`]), one [`KeyIndex`] over the runs' keys places each run.
pub(crate) fn group_runs(
    sel: &[u32],
    key: impl Fn(usize) -> Option<u64>,
    hashed: &mut bool,
) -> Groups {
    let runs: Vec<u32> = key_runs(sel, &key)
        .map(|(_, run)| run.start as u32)
        .collect();
    let run_key = |r: usize| key(sel[runs[r] as usize] as usize);
    let keys = (0..runs.len()).filter_map(run_key);
    let (mut index, mut null_group) = (KeyIndex::new(keys, runs.len(), hashed), 0);
    let mut groups = Groups {
        openers: Vec::with_capacity(runs.len()),
        starts: Vec::with_capacity(runs.len()),
        ids: Vec::new(),
    };
    for (r, &start) in runs.iter().enumerate() {
        let slot = run_key(r).map_or(&mut null_group, |k| index.slot(k));
        let end = runs.get(r + 1).map_or(sel.len(), |&end| end as usize);
        groups.place(slot, start as usize, end, sel[start as usize]);
    }
    groups
}

/// Count a node's fallbacks into `m`, each once whatever its morsels did:
/// a key index built on the hashed arm (`hashed`), and a grouping whose key
/// came back after another key, so that every entry keeps its group's id.
pub(crate) fn note_fallbacks(m: &mut ExecMetrics, hashed: bool, groups: Option<&Groups>) {
    m.hashed_indexes += u64::from(hashed);
    m.groups_came_back += u64::from(groups.is_some_and(|g| !g.ids.is_empty()));
}

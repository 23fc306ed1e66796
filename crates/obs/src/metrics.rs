//! Lock-cheap metrics: named counters and fixed-bucket latency histograms.
//!
//! Every metric is addressed by a `(family, label)` pair — e.g. family
//! `"branch_latency_us"`, label `"clarens://node2:8443/das"`. Families are
//! program text (`&'static str`); labels are data. Each series is one
//! shared cell. A caller that updates a series on every query holds a
//! handle on its cell ([`CounterSeries`], [`HistogramSeries`]), so an
//! update is one atomic add and one flag load: no lock, no lookup. The
//! by-name path reads a table sorted by the pair under a read lock and
//! binary-searches the *borrowed* pair (no key is built, nothing is
//! allocated). A series is *listed* — exported, snapshotted, read by name —
//! from its first update on, however it was named; the write lock is taken
//! only then. The sorted table of listed keys is immutable and shared: an
//! export or a history snapshot copies values and clones one `Arc`, never
//! the strings, and never sorts. Histograms use fixed logarithmic-ish
//! bucket bounds in microseconds so p50/p95/p99 extraction needs no
//! per-sample storage.

use parking_lot::RwLock;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Upper bounds (inclusive) of the histogram buckets, in microseconds.
/// A final overflow bucket catches everything beyond the last bound.
pub const LATENCY_BOUNDS_US: [u64; 16] = [
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 2_500_000, 5_000_000, 10_000_000,
];

pub(crate) const BUCKETS: usize = LATENCY_BOUNDS_US.len() + 1;

/// The live, atomically updated histogram. Module-private shape, but
/// crate-visible so the statement-profile store can reuse the same
/// fixed-bucket accounting for per-fingerprint latency.
#[derive(Debug, Default)]
pub(crate) struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Histogram {
    pub(crate) fn observe(&self, us: u64) {
        let idx = LATENCY_BOUNDS_US
            .iter()
            .position(|&b| us <= b)
            .unwrap_or(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (out, b) in buckets.iter_mut().zip(&self.buckets) {
            *out = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum_us: self.sum_us.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A point-in-time copy of one histogram.
#[derive(Debug, Clone, Copy)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum_us: u64,
    buckets: [u64; BUCKETS],
}

impl HistogramSnapshot {
    /// Estimate the `q`-quantile (0 < q <= 1) by linear interpolation
    /// inside the bucket holding the target rank.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let lower = if i == 0 { 0 } else { LATENCY_BOUNDS_US[i - 1] };
                let upper = LATENCY_BOUNDS_US
                    .get(i)
                    .copied()
                    .unwrap_or(LATENCY_BOUNDS_US[BUCKETS - 2] * 2);
                let frac = (rank - seen) as f64 / n as f64;
                return lower + ((upper - lower) as f64 * frac) as u64;
            }
            seen += n;
        }
        LATENCY_BOUNDS_US[BUCKETS - 2]
    }

    /// Mean in microseconds.
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }

    /// A snapshot with no observations (the baseline when no history
    /// snapshot covers a window's start).
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot {
            count: 0,
            sum_us: 0,
            buckets: [0; BUCKETS],
        }
    }

    /// Observations at or below `us`, at bucket resolution: a bucket
    /// counts only when its (inclusive) upper bound is <= `us`, so the
    /// answer never over-reports. Thresholds chosen from
    /// [`LATENCY_BOUNDS_US`] are exact; the overflow bucket never counts.
    pub fn count_le(&self, us: u64) -> u64 {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(i, _)| LATENCY_BOUNDS_US.get(*i).is_some_and(|&b| b <= us))
            .map(|(_, n)| *n)
            .sum()
    }

    /// Fraction of observations at or below `us` (1.0 when empty — an
    /// empty window has burned none of its error budget).
    pub fn fraction_le(&self, us: u64) -> f64 {
        if self.count == 0 {
            1.0
        } else {
            self.count_le(us) as f64 / self.count as f64
        }
    }

    /// Bucket-wise saturating difference `self - earlier`: the
    /// observations recorded *after* `earlier` was taken. Histograms only
    /// grow, so with snapshots of the same histogram this is exact; a
    /// mismatched pair degrades to zeros instead of underflowing.
    pub fn saturating_sub(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (i, out) in buckets.iter_mut().enumerate() {
            *out = self.buckets[i].saturating_sub(earlier.buckets[i]);
        }
        HistogramSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum_us: self.sum_us.saturating_sub(earlier.sum_us),
            buckets,
        }
    }
}

/// The name of one series: a metric family and the label of one member.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key {
    pub family: &'static str,
    pub label: Arc<str>,
}

/// One value per series against the sorted key table it belongs to,
/// `values[i]` to `keys[i]`. The registry's live cells are one of these;
/// so is every export and every history snapshot. The key table is
/// replaced, never edited, when a series registers, and shared, not
/// copied: everything read between two registrations holds the same one,
/// so a snapshot costs its values.
#[derive(Debug, Clone)]
pub struct Samples<V> {
    keys: Arc<[Key]>,
    values: Vec<V>,
}

impl<V> Default for Samples<V> {
    fn default() -> Self {
        Samples {
            keys: Arc::new([]),
            values: Vec::new(),
        }
    }
}

impl<V> Samples<V> {
    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// `(key, value)` pairs in `(family, label)` order.
    pub fn iter(&self) -> impl Iterator<Item = (&Key, &V)> {
        self.keys.iter().zip(&self.values)
    }

    /// Position of `(family, label)`, or where it would be inserted.
    /// Compares the borrowed pair: a lookup builds no key.
    fn find(&self, family: &str, label: &str) -> Result<usize, usize> {
        let pair = |k: &Key| (k.family, &*k.label).cmp(&(family, label));
        self.keys.binary_search_by(pair)
    }

    /// The value of one series, if it was registered when this was read.
    pub fn get(&self, family: &str, label: &str) -> Option<&V> {
        self.find(family, label).ok().map(|at| &self.values[at])
    }

    /// Insert `key` at `at`, into a fresh key table.
    fn insert(&mut self, at: usize, key: Key, value: V) {
        let mut keys = self.keys.to_vec();
        keys.insert(at, key);
        self.keys = keys.into();
        self.values.insert(at, value);
    }
}

/// A live value a series holds: a counter or a histogram.
trait CellValue: Default {
    /// Back to the value of a series never updated.
    fn reset(&self);
}

impl CellValue for AtomicU64 {
    fn reset(&self) {
        self.store(0, Ordering::Relaxed);
    }
}

impl CellValue for Histogram {
    fn reset(&self) {
        for b in self.buckets.iter().chain([&self.count, &self.sum_us]) {
            b.reset();
        }
    }
}

/// One series' live cell, shared by the registry and every handle on it.
#[derive(Debug)]
struct Cell<T> {
    key: Key,
    value: T,
    /// Updated since it was named or since the last `clear`: exported.
    /// Set under the write lock with the listed table; read without it
    /// only to skip taking it.
    listed: AtomicBool,
}

/// The cells of one kind: every one ever named — a handle outlives
/// `clear`, so this never shrinks — and the listed ones.
#[derive(Debug)]
struct Cells<T> {
    named: Samples<Arc<Cell<T>>>,
    listed: Samples<Arc<Cell<T>>>,
}

impl<T> Default for Cells<T> {
    fn default() -> Self {
        let (named, listed) = (Samples::default(), Samples::default());
        Cells { named, listed }
    }
}

impl<T: CellValue> Cells<T> {
    /// The cell of `(family, label)`, named now if it never was.
    fn cell(cells: &RwLock<Cells<T>>, family: &'static str, label: &str) -> Arc<Cell<T>> {
        if let Some(cell) = cells.read().named.get(family, label) {
            return Arc::clone(cell);
        }
        let named = &mut cells.write().named;
        let at = named.find(family, label).unwrap_or_else(|at| {
            let key = Key {
                family,
                label: label.into(),
            };
            let (value, listed) = (T::default(), AtomicBool::new(false));
            let cell = Cell {
                key: key.clone(),
                value,
                listed,
            };
            named.insert(at, key, Arc::new(cell));
            at
        });
        Arc::clone(&named.values[at])
    }

    /// Update `cell` with `f`, listing it if this is its first update.
    fn update(cells: &RwLock<Cells<T>>, cell: &Arc<Cell<T>>, f: impl FnOnce(&T)) {
        f(&cell.value);
        if cell.listed.load(Ordering::Relaxed) {
            return;
        }
        let listed = &mut cells.write().listed;
        if !cell.listed.swap(true, Ordering::Relaxed) {
            // An unlisted series has no listed key: `find` says where it goes.
            let key = &cell.key;
            if let Err(at) = listed.find(key.family, &key.label) {
                listed.insert(at, key.clone(), Arc::clone(cell));
            }
        }
    }

    /// Unlist every series and zero its cell; handles stay valid.
    fn clear(&mut self) {
        for cell in &self.named.values {
            cell.value.reset();
            cell.listed.store(false, Ordering::Relaxed);
        }
        self.listed = Samples::default();
    }
}

/// Overwrite `out` with every listed cell's value, reusing its buffer.
fn read_cells<T, V>(cells: &RwLock<Cells<T>>, out: &mut Samples<V>, read: impl Fn(&T) -> V) {
    let cells = cells.read();
    out.keys = Arc::clone(&cells.listed.keys);
    out.values.clear();
    out.values
        .extend(cells.listed.values.iter().map(|c| read(&c.value)));
}

/// A handle on one counter series of one [`MetricsRegistry`]: what a
/// caller that updates the series on every query resolves once. Two
/// handles are equal when they name the same series.
#[derive(Debug, Clone)]
pub struct CounterSeries(Arc<Cell<AtomicU64>>);

/// A handle on one histogram series of one [`MetricsRegistry`].
#[derive(Debug, Clone)]
pub struct HistogramSeries(Arc<Cell<Histogram>>);

impl PartialEq for CounterSeries {
    fn eq(&self, other: &Self) -> bool {
        self.0.key == other.0.key
    }
}

impl PartialEq for HistogramSeries {
    fn eq(&self, other: &Self) -> bool {
        self.0.key == other.0.key
    }
}

/// The process-wide registry of counters and histograms.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RwLock<Cells<AtomicU64>>,
    histograms: RwLock<Cells<Histogram>>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// A handle on the counter `(family, label)`. Naming a series does not
    /// list it: it is exported from its first update on.
    pub fn counter_series(&self, family: &'static str, label: &str) -> CounterSeries {
        CounterSeries(Cells::cell(&self.counters, family, label))
    }

    /// A handle on the histogram `(family, label)`, listed likewise.
    pub fn histogram_series(&self, family: &'static str, label: &str) -> HistogramSeries {
        HistogramSeries(Cells::cell(&self.histograms, family, label))
    }

    /// Add `by` to the counter `(family, label)`.
    pub fn inc(&self, family: &'static str, label: &str, by: u64) {
        self.inc_series(&self.counter_series(family, label), by);
    }

    /// Add `by` to the counter `series` names. `series` must come from
    /// this registry.
    pub fn inc_series(&self, series: &CounterSeries, by: u64) {
        Cells::update(&self.counters, &series.0, |c| {
            c.fetch_add(by, Ordering::Relaxed);
        });
    }

    /// Record a latency observation into the histogram `(family, label)`.
    pub fn observe_us(&self, family: &'static str, label: &str, us: u64) {
        self.observe_series(&self.histogram_series(family, label), us);
    }

    /// Record an observation into the histogram `series` names. `series`
    /// must come from this registry.
    pub fn observe_series(&self, series: &HistogramSeries, us: u64) {
        Cells::update(&self.histograms, &series.0, |h| h.observe(us));
    }

    /// Current value of one counter (0 when never incremented).
    pub fn counter(&self, family: &str, label: &str) -> u64 {
        let cells = self.counters.read();
        let cell = cells.listed.get(family, label);
        cell.map_or(0, |c| c.value.load(Ordering::Relaxed))
    }

    /// Snapshot of one histogram, if it exists.
    pub fn histogram(&self, family: &str, label: &str) -> Option<HistogramSnapshot> {
        let cells = self.histograms.read();
        let cell = cells.listed.get(family, label);
        cell.map(|h| h.value.snapshot())
    }

    /// All counters, in (family, label) order.
    pub fn counters(&self) -> Samples<u64> {
        let mut out = Samples::default();
        read_cells(&self.counters, &mut out, |c| c.load(Ordering::Relaxed));
        out
    }

    /// All histograms, in (family, label) order.
    pub fn histograms(&self) -> Samples<HistogramSnapshot> {
        let mut out = Samples::default();
        read_cells(&self.histograms, &mut out, Histogram::snapshot);
        out
    }

    /// Overwrite both with the registry's current state, reusing their
    /// buffers: how the history ring takes a snapshot into the memory of
    /// the one it evicts.
    pub(crate) fn read_into(
        &self,
        counters: &mut Samples<u64>,
        histograms: &mut Samples<HistogramSnapshot>,
    ) {
        read_cells(&self.counters, counters, |c| c.load(Ordering::Relaxed));
        read_cells(&self.histograms, histograms, Histogram::snapshot);
    }

    /// Drop all recorded metrics: nothing is listed until it is updated
    /// again, and then with only the new updates.
    pub fn clear(&self) {
        self.counters.write().clear();
        self.histograms.write().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_label() {
        let m = MetricsRegistry::new();
        m.inc("queries", "srv-a", 1);
        m.inc("queries", "srv-a", 2);
        m.inc("queries", "srv-b", 5);
        assert_eq!(m.counter("queries", "srv-a"), 3);
        assert_eq!(m.counter("queries", "srv-b"), 5);
        assert_eq!(m.counter("queries", "srv-c"), 0);
        let all = m.counters();
        assert_eq!(all.len(), 2);
        let (first, value) = all.iter().next().unwrap();
        assert_eq!((&*first.label, *value), ("srv-a", 3));
    }

    #[test]
    fn a_series_is_listed_from_its_first_update() {
        let m = MetricsRegistry::new();
        let hits = m.counter_series("hits", "srv-a");
        let lat = m.histogram_series("lat", "srv-a");
        assert!(m.counters().is_empty() && m.histograms().is_empty());
        assert_eq!(m.histogram("lat", "srv-a").map(|h| h.count), None);
        // A handle and the by-name path share one cell.
        assert_eq!(m.counter_series("hits", "srv-a"), hits);
        m.inc("hits", "srv-a", 2);
        m.inc_series(&hits, 3);
        m.observe_series(&lat, 400);
        assert_eq!(m.counter("hits", "srv-a"), 5);
        assert_eq!(m.counters().len(), 1);
        assert_eq!(m.histogram("lat", "srv-a").map(|h| h.count), Some(1));
        // Naming more series lists nothing more.
        m.counter_series("hits", "srv-b");
        assert_eq!(m.counters().len(), 1);
    }

    #[test]
    fn clear_unlists_and_an_old_handle_lists_again_with_its_new_count() {
        let m = MetricsRegistry::new();
        let hits = m.counter_series("hits", "srv-a");
        let lat = m.histogram_series("lat", "srv-a");
        m.inc_series(&hits, 7);
        m.observe_series(&lat, 80_000);
        m.inc("other", "srv-a", 1);
        m.clear();
        assert!(m.counters().is_empty() && m.histograms().is_empty());
        assert_eq!(m.counter("hits", "srv-a"), 0);
        m.inc_series(&hits, 2);
        m.observe_series(&lat, 400);
        let all = m.counters();
        let listed: Vec<_> = all.iter().map(|(k, v)| (k.family, *v)).collect();
        assert_eq!(listed, vec![("hits", 2)]);
        let h = m.histogram("lat", "srv-a").expect("listed again");
        assert_eq!((h.count, h.sum_us), (1, 400));
    }

    #[test]
    fn two_threads_on_one_handle_lose_no_count() {
        let m = MetricsRegistry::new();
        let hits = m.counter_series("hits", "srv-a");
        let lat = m.histogram_series("lat", "srv-a");
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..10_000 {
                        m.inc_series(&hits, 1);
                        m.observe_series(&lat, 1);
                    }
                });
            }
        });
        assert_eq!(m.counter("hits", "srv-a"), 20_000);
        assert_eq!(m.histogram("lat", "srv-a").map(|h| h.count), Some(20_000));
        assert_eq!(m.counters().len(), 1);
    }

    #[test]
    fn histogram_quantiles_bracket_the_data() {
        let m = MetricsRegistry::new();
        // 90 fast observations and 10 slow ones.
        for _ in 0..90 {
            m.observe_us("lat", "x", 400);
        }
        for _ in 0..10 {
            m.observe_us("lat", "x", 80_000);
        }
        let h = m.histogram("lat", "x").unwrap();
        assert_eq!(h.count, 100);
        let p50 = h.quantile_us(0.50);
        let p99 = h.quantile_us(0.99);
        assert!((250..=500).contains(&p50), "p50={p50}");
        assert!((50_000..=100_000).contains(&p99), "p99={p99}");
        assert!(p50 < p99);
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        let m = MetricsRegistry::new();
        m.observe_us("lat", "x", 1);
        let h = m.histogram("lat", "x").unwrap();
        assert!(h.quantile_us(0.99) > 0);
        assert_eq!(m.histogram("lat", "missing").map(|h| h.count), None);
        let empty = HistogramSnapshot {
            count: 0,
            sum_us: 0,
            buckets: [0; BUCKETS],
        };
        assert_eq!(empty.quantile_us(0.5), 0);
    }

    #[test]
    fn snapshot_window_deltas_and_goodness() {
        let m = MetricsRegistry::new();
        for _ in 0..8 {
            m.observe_us("lat", "x", 400);
        }
        let earlier = m.histogram("lat", "x").unwrap();
        for _ in 0..2 {
            m.observe_us("lat", "x", 80_000);
        }
        let now = m.histogram("lat", "x").unwrap();
        assert_eq!(now.count_le(1_000), 8);
        assert!((now.fraction_le(1_000) - 0.8).abs() < 1e-9);
        let delta = now.saturating_sub(&earlier);
        assert_eq!(delta.count, 2);
        assert_eq!(delta.count_le(1_000), 0);
        assert_eq!(delta.count_le(100_000), 2);
        // Empty windows burn no budget; mismatched pairs never underflow.
        assert_eq!(HistogramSnapshot::empty().fraction_le(100), 1.0);
        assert_eq!(earlier.saturating_sub(&now).count, 0);
    }

    #[test]
    fn overflow_bucket_catches_huge_values() {
        let m = MetricsRegistry::new();
        m.observe_us("lat", "x", 60_000_000);
        let h = m.histogram("lat", "x").unwrap();
        assert!(h.quantile_us(0.5) >= LATENCY_BOUNDS_US[BUCKETS - 2]);
    }
}

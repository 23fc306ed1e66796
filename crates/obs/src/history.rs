//! Metrics history and SLO burn tracking.
//!
//! Point-in-time counters answer "how loaded is the grid now?"; operating a
//! database grid needs "how loaded was it, and is a tenant's error budget
//! burning?" ([`MetricsHistory`]) keeps a bounded ring of virtual-clock
//! snapshots of the whole [`MetricsRegistry`], taken at a configurable
//! interval on the query path itself (no background threads — the virtual
//! clock only advances when work happens). A snapshot owns values only (the
//! key tables are the registry's) and, once the ring is full, is taken into
//! the entry it evicts: it allocates nothing. ([`SloTracker`]) evaluates
//! declared per-tenant latency/error objectives against that history:
//! the window's observations are the *delta* between the latest registry
//! state and the snapshot at (now − window), and the burn rate is the
//! fraction of bad events normalized by the budget `1 − objective` — a
//! burn rate above 1.0 means the budget exhausts before the window does.

use crate::metrics::{HistogramSnapshot, MetricsRegistry, Samples};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default number of retained history snapshots.
pub const DEFAULT_HISTORY_CAPACITY: usize = 128;
/// Default virtual-time spacing between snapshots (250ms).
pub const DEFAULT_HISTORY_INTERVAL_US: u64 = 250_000;

/// One ring entry: the full registry state at one virtual instant. It
/// owns its values only — the key tables are the registry's, shared by
/// every snapshot taken until the next series registers.
#[derive(Debug, Clone, Default)]
pub struct HistorySnapshot {
    /// Monotonic snapshot sequence number (never reused, survives eviction).
    pub seq: u64,
    /// Virtual-clock reading when the snapshot was taken.
    pub ts_us: u64,
    pub counters: Samples<u64>,
    pub histograms: Samples<HistogramSnapshot>,
}

impl HistorySnapshot {
    /// Value of one counter in this snapshot (0 if absent).
    pub fn counter(&self, family: &str, label: &str) -> u64 {
        self.counters.get(family, label).copied().unwrap_or(0)
    }

    /// One histogram in this snapshot, if present.
    pub fn histogram(&self, family: &str, label: &str) -> Option<HistogramSnapshot> {
        self.histograms.get(family, label).copied()
    }
}

/// Bounded ring of [`HistorySnapshot`]s, oldest evicted first. A snapshot
/// is decided, read and pushed under the ring's lock, so concurrent
/// queries cannot push two out of order: along the ring `seq` rises and no
/// counter ever falls.
#[derive(Debug)]
pub struct MetricsHistory {
    capacity: usize,
    interval_us: u64,
    next_seq: AtomicU64,
    ring: Mutex<VecDeque<Arc<HistorySnapshot>>>,
}

impl Default for MetricsHistory {
    fn default() -> Self {
        MetricsHistory::new(DEFAULT_HISTORY_CAPACITY, DEFAULT_HISTORY_INTERVAL_US)
    }
}

impl MetricsHistory {
    pub fn new(capacity: usize, interval_us: u64) -> MetricsHistory {
        MetricsHistory {
            capacity: capacity.max(1),
            interval_us: interval_us.max(1),
            next_seq: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// Retained-snapshot cap.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Minimum virtual time between snapshots (at least 1µs).
    pub fn interval_us(&self) -> u64 {
        self.interval_us
    }

    /// Retained snapshot count.
    pub fn len(&self) -> usize {
        self.ring.lock().len()
    }

    /// Whether any snapshot is retained.
    pub fn is_empty(&self) -> bool {
        self.ring.lock().is_empty()
    }

    /// Take a snapshot if at least one interval has elapsed since the
    /// last (or none was ever taken). Returns whether one was taken.
    pub fn maybe_snapshot(&self, now_us: u64, registry: &MetricsRegistry) -> bool {
        let mut ring = self.ring.lock();
        let due = ring
            .back()
            .is_none_or(|last| now_us.saturating_sub(last.ts_us) >= self.interval_us);
        if due {
            self.push(&mut ring, now_us, registry);
        }
        due
    }

    /// Take a snapshot unconditionally.
    pub fn force_snapshot(&self, now_us: u64, registry: &MetricsRegistry) -> Arc<HistorySnapshot> {
        self.push(&mut self.ring.lock(), now_us, registry)
    }

    /// A full ring takes the snapshot into the entry it evicts (unless a
    /// reader still holds that one): in the steady state of a mediator left
    /// running, a snapshot copies values and allocates nothing.
    fn push(
        &self,
        ring: &mut VecDeque<Arc<HistorySnapshot>>,
        now_us: u64,
        registry: &MetricsRegistry,
    ) -> Arc<HistorySnapshot> {
        let mut evicted = None;
        while ring.len() >= self.capacity {
            evicted = ring.pop_front();
        }
        // `make_mut` copies only if a reader still holds the evicted entry.
        let mut snap: Arc<HistorySnapshot> = evicted.unwrap_or_default();
        let fresh = Arc::make_mut(&mut snap);
        fresh.seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        fresh.ts_us = now_us;
        registry.read_into(&mut fresh.counters, &mut fresh.histograms);
        ring.push_back(Arc::clone(&snap));
        snap
    }

    /// All retained snapshots, oldest first.
    pub fn snapshots(&self) -> Vec<Arc<HistorySnapshot>> {
        self.ring.lock().iter().cloned().collect()
    }

    /// The latest retained snapshot taken at or before `ts_us` — the
    /// window baseline for SLO evaluation. `None` when the history does
    /// not reach back that far (callers fall back to a zero baseline).
    pub fn at_or_before(&self, ts_us: u64) -> Option<Arc<HistorySnapshot>> {
        self.ring
            .lock()
            .iter()
            .rev()
            .find(|s| s.ts_us <= ts_us)
            .cloned()
    }

    /// Drop all retained snapshots (sequence numbers keep advancing).
    pub fn clear(&self) {
        self.ring.lock().clear();
    }
}

/// A declared per-tenant service-level objective: at least `objective`
/// of queries in any `window_us` window complete without error in at
/// most `latency_threshold_us` (virtual) microseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct SloObjective {
    pub tenant: String,
    /// Latency goal in microseconds. Pick values on the histogram bucket
    /// bounds ([`crate::metrics::LATENCY_BOUNDS_US`]) for exact counting;
    /// other values count conservatively at bucket resolution.
    pub latency_threshold_us: u64,
    /// Target good fraction in (0, 1), e.g. 0.99.
    pub objective: f64,
    /// Evaluation window in virtual microseconds.
    pub window_us: u64,
}

/// One tenant's evaluated SLO state.
#[derive(Debug, Clone, PartialEq)]
pub struct SloStatus {
    pub tenant: String,
    pub objective: f64,
    pub latency_threshold_us: u64,
    pub window_us: u64,
    /// Virtual time the evaluation window actually starts at (the
    /// baseline snapshot's timestamp, or 0 with no baseline).
    pub window_start_us: u64,
    /// Queries observed in the window (latency observations + errors).
    pub total: u64,
    /// Queries meeting the latency goal.
    pub good: u64,
    /// Queries missing it (slow or failed).
    pub bad: u64,
    /// Failed queries in the window (subset of `bad`).
    pub errors: u64,
    /// `(bad/total) / (1 − objective)`; 1.0 means burning the error
    /// budget exactly as fast as the window replenishes it.
    pub burn_rate: f64,
    pub healthy: bool,
}

/// Declared objectives plus evaluation over a [`MetricsHistory`].
///
/// Evaluation reads the per-tenant metric families the mediator records:
/// `tenant_latency_us` histograms, and `tenant_queries` / `tenant_errors`
/// counters, all labeled by tenant.
#[derive(Debug)]
pub struct SloTracker {
    objectives: Vec<SloObjective>,
}

impl SloTracker {
    /// A tracker of `objectives`, fixed for its life.
    pub fn new(objectives: Vec<SloObjective>) -> SloTracker {
        SloTracker { objectives }
    }

    /// The declared objectives, declaration order.
    pub fn objectives(&self) -> &[SloObjective] {
        &self.objectives
    }

    /// Evaluate every declared objective at virtual time `now_us`. The
    /// window baseline comes from `history`; current state comes from the
    /// live `registry` so the window always extends to *now*.
    pub fn evaluate(
        &self,
        now_us: u64,
        registry: &MetricsRegistry,
        history: &MetricsHistory,
    ) -> Vec<SloStatus> {
        self.objectives
            .iter()
            .map(|o| {
                let baseline = history.at_or_before(now_us.saturating_sub(o.window_us));
                let window_start_us = baseline.as_ref().map(|s| s.ts_us).unwrap_or(0);
                let lat_now = registry
                    .histogram("tenant_latency_us", &o.tenant)
                    .unwrap_or_else(HistogramSnapshot::empty);
                let lat_base = baseline
                    .as_ref()
                    .and_then(|s| s.histogram("tenant_latency_us", &o.tenant))
                    .unwrap_or_else(HistogramSnapshot::empty);
                let lat = lat_now.saturating_sub(&lat_base);
                let errors_now = registry.counter("tenant_errors", &o.tenant);
                let errors_base = baseline
                    .as_ref()
                    .map(|s| s.counter("tenant_errors", &o.tenant))
                    .unwrap_or(0);
                let errors = errors_now.saturating_sub(errors_base);
                // Errors never reach the latency histogram, so the two
                // deltas partition the window's queries.
                let total = lat.count + errors;
                let good = lat.count_le(o.latency_threshold_us);
                let bad = total.saturating_sub(good);
                let budget = (1.0 - o.objective).max(f64::EPSILON);
                let burn_rate = if total == 0 {
                    0.0
                } else {
                    (bad as f64 / total as f64) / budget
                };
                SloStatus {
                    tenant: o.tenant.clone(),
                    objective: o.objective,
                    latency_threshold_us: o.latency_threshold_us,
                    window_us: o.window_us,
                    window_start_us,
                    total,
                    good,
                    bad,
                    errors,
                    burn_rate,
                    healthy: burn_rate <= 1.0,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn history_ring_snapshots_and_evicts_fifo() {
        let m = MetricsRegistry::new();
        let h = MetricsHistory::new(3, 100);
        m.inc("queries", "t", 1);
        assert!(h.maybe_snapshot(0, &m), "first snapshot is always due");
        assert!(!h.maybe_snapshot(50, &m), "within the interval");
        m.inc("queries", "t", 1);
        assert!(h.maybe_snapshot(100, &m));
        assert!(h.maybe_snapshot(250, &m));
        assert!(h.maybe_snapshot(400, &m));
        assert_eq!(h.len(), 3, "capacity bounds the ring");
        let snaps = h.snapshots();
        assert_eq!(snaps[0].seq, 1, "oldest (seq 0) evicted first");
        assert_eq!(snaps[0].counter("queries", "t"), 2);
        assert_eq!(h.at_or_before(260).unwrap().ts_us, 250);
        assert_eq!(h.at_or_before(400).unwrap().ts_us, 400);
        assert!(h.at_or_before(50).is_none(), "history no longer reaches 50");
        // A ring of one keeps only the latest snapshot.
        let h = MetricsHistory::new(1, 100);
        for now_us in [0, 100, 250, 400] {
            assert!(h.maybe_snapshot(now_us, &m));
            assert_eq!(h.len(), 1);
        }
        assert_eq!(h.snapshots()[0].ts_us, 400);
        assert_eq!(h.snapshots()[0].seq, 3, "seq 0..=2 evicted oldest first");
    }

    fn slo(tenant: &str, threshold_us: u64, objective: f64, window_us: u64) -> SloObjective {
        SloObjective {
            tenant: tenant.into(),
            latency_threshold_us: threshold_us,
            objective,
            window_us,
        }
    }

    #[test]
    fn burn_rate_reflects_window_delta_not_lifetime() {
        let m = MetricsRegistry::new();
        let history = MetricsHistory::new(16, 1);
        let tracker = SloTracker::new(vec![slo("cms", 1_000, 0.90, 500)]);
        // Old epoch: 10 slow queries, then a baseline snapshot at t=100.
        for _ in 0..10 {
            m.inc("tenant_queries", "cms", 1);
            m.observe_us("tenant_latency_us", "cms", 80_000);
        }
        history.force_snapshot(100, &m);
        // New epoch: 10 fast queries.
        for _ in 0..10 {
            m.inc("tenant_queries", "cms", 1);
            m.observe_us("tenant_latency_us", "cms", 400);
        }
        let status = &tracker.evaluate(600, &m, &history)[0];
        assert_eq!(status.window_start_us, 100);
        assert_eq!((status.total, status.good, status.bad), (10, 10, 0));
        assert_eq!(status.burn_rate, 0.0);
        assert!(
            status.healthy,
            "old slowness outside the window is forgiven"
        );
        // Without a baseline the whole lifetime counts: 50% bad against a
        // 10% budget burns at 5x.
        history.clear();
        let status = &tracker.evaluate(600, &m, &history)[0];
        assert_eq!((status.total, status.good, status.bad), (20, 10, 10));
        assert!(
            (status.burn_rate - 5.0).abs() < 1e-9,
            "burn {}",
            status.burn_rate
        );
        assert!(!status.healthy);
    }

    #[test]
    fn errors_burn_budget() {
        let m = MetricsRegistry::new();
        let history = MetricsHistory::new(16, 1);
        let tracker = SloTracker::new(vec![
            slo("atlas", 1_000, 0.99, 1_000),
            slo("idle", 1_000, 0.99, 1_000),
        ]);
        for _ in 0..99 {
            m.inc("tenant_queries", "atlas", 1);
            m.observe_us("tenant_latency_us", "atlas", 400);
        }
        m.inc("tenant_queries", "atlas", 1);
        m.inc("tenant_errors", "atlas", 1);
        let statuses = tracker.evaluate(100, &m, &history);
        let status = &statuses[0];
        assert_eq!((status.total, status.errors, status.bad), (100, 1, 1));
        assert!((status.burn_rate - 1.0).abs() < 1e-6, "exactly at budget");
        assert!(status.healthy);
        // A tenant with no traffic is healthy at zero burn.
        let idle = statuses.iter().find(|s| s.tenant == "idle").unwrap();
        assert_eq!(
            (idle.total, idle.burn_rate.to_bits()),
            (0, 0.0f64.to_bits())
        );
        assert!(idle.healthy);
    }
}

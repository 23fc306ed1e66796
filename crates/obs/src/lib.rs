//! `gridfed-obs`: observability for the federation.
//!
//! R-GMA (Cooke et al.) argued that grid monitoring data is itself best
//! exposed *relationally*; this crate provides the stores behind that idea
//! for the 2005 Data Access Service reproduction: a bounded ring of
//! hierarchical query [`Trace`]s, a [`MetricsRegistry`] of counters and
//! latency histograms, a continuous [`StatementProfiles`] store
//! (pg_stat_statements-style fingerprint aggregation), a ring-buffered
//! [`MetricsHistory`] with an [`SloTracker`] evaluating error-budget burn
//! over it, and a threshold-gated slow-query trace log. The service layer
//! projects all of them into the virtual `gridfed_monitor.*` tables so the
//! grid can be inspected — grid-wide — through its own SQL federation.
//!
//! Everything hangs off an [`Observability`] handle with a single atomic
//! on/off gate: when disabled (the default), the query path performs one
//! relaxed load and skips all collection, so the hot path stays unchanged.
//! When enabled, a query writes one [`QueryRecord`] into the trace ring and
//! folds its metric families from it; spans are projected by readers.
//! Statement profiling and plan-node attribution sit behind a second,
//! independent gate ([`Observability::profiling`]) because fingerprinting
//! costs a string normalization per query.

pub mod history;
pub mod metrics;
pub mod profile;
pub mod span;

pub use history::{HistorySnapshot, MetricsHistory, SloObjective, SloStatus, SloTracker};
pub use metrics::{HistogramSnapshot, Key, MetricsRegistry, Samples};
pub use profile::{
    fingerprint, normalize_statement, NodeContribution, StatementExec, StatementProfile,
    StatementProfiles,
};
pub use span::{
    AttemptKind, AttemptRecord, BranchRecord, QueryRecord, Span, SpanKind, Trace, TraceBuilder,
    TraceStore,
};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Default number of traces retained per mediator.
pub const DEFAULT_TRACE_CAPACITY: usize = 256;
/// Default number of slow-query traces retained per mediator.
pub const DEFAULT_SLOW_QUERY_CAPACITY: usize = 64;

/// Retention and gating knobs for one mediator's observability plane.
/// Apply with [`Observability::configure`]; capacities take effect
/// immediately (shrinking evicts oldest/coldest entries now).
#[derive(Debug, Clone, PartialEq)]
pub struct ObsConfig {
    /// Trace-ring retention cap (satellite: bounded trace memory).
    pub trace_capacity: usize,
    /// Top-k cap of the statement profile store.
    pub statement_capacity: usize,
    /// Retained metrics-history snapshots.
    pub history_capacity: usize,
    /// Minimum virtual time between history snapshots.
    pub history_interval_us: u64,
    /// Gate statement fingerprinting + per-plan-node time attribution.
    pub profiling: bool,
    /// Retain full traces of queries slower than this (0 disables the
    /// slow-query log).
    pub slow_query_threshold_us: u64,
    /// Slow-query log retention cap.
    pub slow_query_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> ObsConfig {
        ObsConfig {
            trace_capacity: DEFAULT_TRACE_CAPACITY,
            statement_capacity: profile::DEFAULT_STATEMENT_CAPACITY,
            history_capacity: history::DEFAULT_HISTORY_CAPACITY,
            history_interval_us: history::DEFAULT_HISTORY_INTERVAL_US,
            profiling: false,
            slow_query_threshold_us: 0,
            slow_query_capacity: DEFAULT_SLOW_QUERY_CAPACITY,
        }
    }
}

/// One mediator's observability state: the gate, the trace ring, the
/// metrics registry, and the PR-9 continuous stores (statement profiles,
/// metrics history, SLO tracker, slow-query log).
#[derive(Debug)]
pub struct Observability {
    enabled: AtomicBool,
    profiling: AtomicBool,
    slow_threshold_us: AtomicU64,
    pub traces: TraceStore,
    pub metrics: MetricsRegistry,
    pub statements: StatementProfiles,
    pub history: MetricsHistory,
    pub slo: SloTracker,
    /// Threshold-gated retention: full traces of slow queries only.
    pub slow_queries: TraceStore,
}

impl Observability {
    /// A disabled instance (collection off until [`Observability::set_enabled`]).
    pub fn new() -> Arc<Observability> {
        Arc::new(Observability {
            enabled: AtomicBool::new(false),
            profiling: AtomicBool::new(false),
            slow_threshold_us: AtomicU64::new(0),
            traces: TraceStore::new(DEFAULT_TRACE_CAPACITY),
            metrics: MetricsRegistry::new(),
            statements: StatementProfiles::default(),
            history: MetricsHistory::default(),
            slo: SloTracker::new(),
            slow_queries: TraceStore::new(DEFAULT_SLOW_QUERY_CAPACITY),
        })
    }

    /// Whether collection is on. One relaxed atomic load — this is the
    /// entire overhead of the subsystem when tracing is off.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether statement profiling (fingerprinting + node attribution)
    /// is on. Only consulted when [`Observability::enabled`] already holds.
    pub fn profiling(&self) -> bool {
        self.profiling.load(Ordering::Relaxed)
    }

    pub fn set_profiling(&self, on: bool) {
        self.profiling.store(on, Ordering::Relaxed);
    }

    /// Slow-query threshold in virtual microseconds (0 = log disabled).
    pub fn slow_query_threshold_us(&self) -> u64 {
        self.slow_threshold_us.load(Ordering::Relaxed)
    }

    pub fn set_slow_query_threshold_us(&self, us: u64) {
        self.slow_threshold_us.store(us, Ordering::Relaxed);
    }

    /// Apply a full knob set; retention changes evict immediately.
    pub fn configure(&self, cfg: &ObsConfig) {
        self.traces.set_capacity(cfg.trace_capacity);
        self.statements.set_capacity(cfg.statement_capacity);
        self.history.set_capacity(cfg.history_capacity);
        self.history.set_interval_us(cfg.history_interval_us);
        self.set_profiling(cfg.profiling);
        self.set_slow_query_threshold_us(cfg.slow_query_threshold_us);
        self.slow_queries.set_capacity(cfg.slow_query_capacity);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_defaults_off_and_toggles() {
        let obs = Observability::new();
        assert!(!obs.enabled());
        obs.set_enabled(true);
        assert!(obs.enabled());
        obs.set_enabled(false);
        assert!(!obs.enabled());
        assert!(!obs.profiling());
        assert_eq!(obs.slow_query_threshold_us(), 0);
    }

    #[test]
    fn configure_applies_caps_and_gates_live() {
        let obs = Observability::new();
        obs.configure(&ObsConfig {
            trace_capacity: 7,
            statement_capacity: 5,
            history_capacity: 3,
            history_interval_us: 1_000,
            profiling: true,
            slow_query_threshold_us: 40_000,
            slow_query_capacity: 2,
        });
        assert_eq!(obs.traces.capacity(), 7);
        assert_eq!(obs.statements.capacity(), 5);
        assert_eq!(obs.history.capacity(), 3);
        assert_eq!(obs.history.interval_us(), 1_000);
        assert!(obs.profiling());
        assert_eq!(obs.slow_query_threshold_us(), 40_000);
        assert_eq!(obs.slow_queries.capacity(), 2);
        // Defaults round-trip.
        obs.configure(&ObsConfig::default());
        assert_eq!(obs.traces.capacity(), DEFAULT_TRACE_CAPACITY);
        assert!(!obs.profiling());
    }
}

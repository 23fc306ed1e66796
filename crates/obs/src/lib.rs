// Shipped code answers with a typed error, never a panic; a site that
// cannot fail keeps an `#[allow]` naming its invariant.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]
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
//! Everything hangs off an [`Observability`] handle, built once from an
//! [`ObsConfig`] (capacities, interval, profiling, slow-query threshold,
//! SLOs) and switched by a single atomic on/off gate: when disabled (the
//! default), the query path performs one relaxed load and skips all
//! collection, so the hot path stays unchanged.
//! When enabled, a query writes one [`QueryRecord`] into the trace ring and
//! folds its metric families from it; spans are projected by readers.
//! Statement profiling and plan-node attribution sit behind a second,
//! independent gate fixed at construction ([`ObsConfig::profiling`])
//! because fingerprinting costs a string normalization per query.

pub mod history;
pub mod metrics;
pub mod profile;
pub mod span;

pub use history::{HistorySnapshot, MetricsHistory, SloObjective, SloStatus, SloTracker};
pub use metrics::{
    CounterSeries, HistogramSeries, HistogramSnapshot, Key, MetricsRegistry, Samples,
};
pub use profile::{
    fingerprint, NodeContribution, StatementExec, StatementProfile, StatementProfiles,
};
pub use span::{
    AttemptKind, AttemptRecord, BranchRecord, HopSpans, QueryRecord, Span, SpanKind, Trace,
    TraceBuilder, TraceStore,
};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Default number of traces retained per mediator.
pub const DEFAULT_TRACE_CAPACITY: usize = 256;
/// Default number of slow-query traces retained per mediator.
pub const DEFAULT_SLOW_QUERY_CAPACITY: usize = 64;

/// Retention and gating knobs for one mediator's observability plane,
/// fixed when the mediator is built ([`Observability::new`]).
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
    /// Per-tenant objectives, evaluated as error-budget burn over the
    /// metrics history (one per tenant).
    pub slos: Vec<SloObjective>,
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
            slos: Vec::new(),
        }
    }
}

/// One mediator's observability state: the gate, the trace ring, the
/// metrics registry, and the PR-9 continuous stores (statement profiles,
/// metrics history, SLO tracker, slow-query log).
#[derive(Debug)]
pub struct Observability {
    enabled: AtomicBool,
    profiling: bool,
    slow_threshold_us: u64,
    pub traces: TraceStore,
    pub metrics: MetricsRegistry,
    pub statements: StatementProfiles,
    pub history: MetricsHistory,
    pub slo: SloTracker,
    /// Threshold-gated retention: full traces of slow queries only.
    pub slow_queries: TraceStore,
}

impl Observability {
    /// A disabled instance (collection off until
    /// [`Observability::set_enabled`]) with `config`'s stores and gates.
    pub fn new(config: ObsConfig) -> Arc<Observability> {
        Arc::new(Observability {
            enabled: AtomicBool::new(false),
            profiling: config.profiling,
            slow_threshold_us: config.slow_query_threshold_us,
            traces: TraceStore::new(config.trace_capacity),
            metrics: MetricsRegistry::new(),
            statements: StatementProfiles::new(config.statement_capacity),
            history: MetricsHistory::new(config.history_capacity, config.history_interval_us),
            slo: SloTracker::new(config.slos),
            slow_queries: TraceStore::new(config.slow_query_capacity),
        })
    }

    /// Whether collection is on. One relaxed atomic load — this is the
    /// entire overhead of the subsystem when tracing is off.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The one runtime switch: everything else is fixed at construction.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether statement profiling (fingerprinting + node attribution)
    /// is on. Only consulted when [`Observability::enabled`] already holds.
    pub fn profiling(&self) -> bool {
        self.profiling
    }

    /// Slow-query threshold in virtual microseconds (0 = log disabled).
    pub fn slow_query_threshold_us(&self) -> u64 {
        self.slow_threshold_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_defaults_off_and_toggles() {
        let obs = Observability::new(ObsConfig::default());
        assert!(!obs.enabled());
        obs.set_enabled(true);
        assert!(obs.enabled());
        obs.set_enabled(false);
        assert!(!obs.enabled());
        assert!(!obs.profiling());
        assert_eq!(obs.slow_query_threshold_us(), 0);
        assert_eq!(obs.traces.capacity(), DEFAULT_TRACE_CAPACITY);
    }

    #[test]
    fn new_applies_caps_and_gates() {
        let objective = SloObjective {
            tenant: "cms".into(),
            latency_threshold_us: 1_000,
            objective: 0.99,
            window_us: 1_000,
        };
        let obs = Observability::new(ObsConfig {
            trace_capacity: 7,
            statement_capacity: 5,
            history_capacity: 3,
            history_interval_us: 1_000,
            profiling: true,
            slow_query_threshold_us: 40_000,
            slow_query_capacity: 2,
            slos: vec![objective.clone()],
        });
        assert_eq!(obs.traces.capacity(), 7);
        assert_eq!(obs.statements.capacity(), 5);
        assert_eq!(obs.history.capacity(), 3);
        assert_eq!(obs.history.interval_us(), 1_000);
        assert!(obs.profiling());
        assert_eq!(obs.slow_query_threshold_us(), 40_000);
        assert_eq!(obs.slow_queries.capacity(), 2);
        assert_eq!(obs.slo.objectives(), [objective]);
        assert!(!obs.enabled(), "built off: the gate is the one switch");
    }
}

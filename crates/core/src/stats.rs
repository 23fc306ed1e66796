//! Per-query statistics — the numbers behind Table 1 and Figure 6.

use gridfed_simnet::cost::Cost;

/// Statistics for one query through the Data Access Service.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryStats {
    /// Distinct backend databases touched.
    pub databases: usize,
    /// Distinct Clarens servers involved (1 = purely local).
    pub servers: usize,
    /// Sub-queries dispatched (local + forwarded).
    pub subqueries: usize,
    /// Whether the query was decomposed across databases
    /// (the "Query Distributed (Yes/No)" column of Table 1).
    pub distributed: bool,
    /// Tables referenced by the query (Table 1's last column).
    pub tables: usize,
    /// RLS lookups performed.
    pub rls_lookups: usize,
    /// Sub-queries forwarded to remote Clarens servers.
    pub remote_forwards: usize,
    /// Partial-result rows fetched from backends before integration.
    pub rows_fetched: usize,
    /// Bytes of partial results materialized in mediator memory — the
    /// quantity behind Unity's documented "memory becomes overloaded"
    /// failure mode, and what the mediator's memory guard bounds.
    pub bytes_fetched: usize,
    /// Rows in the final result.
    pub rows_returned: usize,
    /// Estimated bytes of partial results the semi-join reductions kept
    /// off the wire: per reduced branch, the full-scatter estimate (rows ×
    /// observed row width) minus what was actually fetched. An estimate by
    /// construction — the un-reduced fetch never ran.
    pub bytes_saved: usize,
    /// Semi-join reductions (IN-list or bloom) injected into dispatched
    /// sub-queries. Zero for full-scatter plans.
    pub reductions_shipped: usize,
    /// Fresh database connections opened for this query.
    pub connections_opened: usize,
    /// Branch links that were already open: a pooled POOL-RAL handle or a
    /// kept JDBC connection reused.
    pub pooled_hits: usize,
    /// Whether this outcome was served from the mediator's result cache.
    pub cache_hit: bool,
    /// Cached outcomes evicted (LRU) when this query's result was stored.
    pub cache_evictions: usize,
    /// Mediator-side integration time spent compiling residual-plan
    /// expressions (one-shot column binding + literal folding). Measured
    /// wall-clock and mapped onto virtual time; informational only — the
    /// virtual `breakdown.integrate` term already covers integration, so
    /// this split is *not* part of [`CostBreakdown::total`].
    pub compile: Cost,
    /// Mediator-side integration time spent evaluating the compiled
    /// residual plan over fetched rows. Same caveats as `compile`.
    pub eval: Cost,
    /// 1024-row batch windows the vectorized executor processed while
    /// running this query's mediator-side (residual or monitor) plans.
    pub batches: u64,
    /// Rows materialized from columnar form into output rows at the
    /// executor's late-materialization boundary.
    pub rows_materialized: u64,
    /// Fraction of scanned rows that survived predicate evaluation in the
    /// mediator-side executor, in `[0, 1]`; 1.0 when nothing was scanned,
    /// 0.0 until an execution has reported.
    pub selectivity: f64,
    /// Widest worker pool any parallel operator used while executing this
    /// query's mediator-side plans (0 or 1 = sequential execution).
    pub exec_workers: u64,
    /// Parallel work items (morsels, hash partitions, gather columns,
    /// aggregate groups) dispatched to the worker pool.
    pub exec_morsels: u64,
    /// Admission-queue depth observed when this query was enqueued at the
    /// front door (0 = admitted immediately or admission disabled).
    pub queue_depth: u64,
    /// Microseconds this query waited in the admission queue before
    /// execution began (wall-clock: the queue blocks a real thread).
    pub queue_wait_us: u64,
    /// Largest replication LSN lag (warehouse head minus applied) among
    /// the log-shipped replicas this query read. Zero when every replica
    /// was caught up or no replicated table was touched.
    pub repl_lag_lsn: u64,
    /// Largest replication staleness age (virtual µs since the replica
    /// last verified it matched the warehouse) among the replicas this
    /// query read. Zero for caught-up replicas and non-replicated tables.
    pub repl_age_us: u64,
    /// Failed branch attempts that were retried (after backoff).
    pub retries: usize,
    /// Branches re-routed to another replica after retry exhaustion.
    pub failovers: usize,
    /// Hedged duplicate requests whose result was preferred.
    pub hedges: usize,
    /// Circuit breakers tripped open by this query's failures.
    pub breaker_opens: usize,
    /// Branch dispatches refused outright by an open circuit breaker.
    pub breaker_rejections: usize,
    /// Branches dropped under [`DegradationPolicy::Partial`], with the
    /// reason each was dropped. Empty for a complete (non-degraded)
    /// result.
    ///
    /// [`DegradationPolicy::Partial`]: crate::resilience::DegradationPolicy::Partial
    pub branches_dropped: Vec<BranchDrop>,
    /// Compact rendering of the optimized logical plan's operator tree,
    /// e.g. `project(filter(scan))`. Paired with the literal-normalized
    /// SQL it forms the statement-profile fingerprint, so the same text
    /// planned differently profiles separately. Empty when the planner
    /// never ran (e.g. a cache hit recorded before PR 9).
    pub plan_shape: String,
    /// Data versions of the tables this query read, in resolution order.
    /// A mart table carries the monotonically increasing version stamped
    /// by its last refresh; tables with no version bookkeeping (sources,
    /// warehouse, monitor tables) are simply absent. The result cache
    /// validates hits against the *current* versions of the same tables,
    /// so a refresh invalidates exactly the entries it staled.
    pub versions: Vec<TableVersion>,
    /// Virtual-time breakdown.
    pub breakdown: CostBreakdown,
}

impl QueryStats {
    /// Whether the result is honest-but-incomplete (some branches were
    /// dropped under the Partial degradation policy).
    pub fn is_degraded(&self) -> bool {
        !self.branches_dropped.is_empty()
    }

    /// Fold the counters a *remote mediator* reported for its share of a
    /// federated query into this (caller-side) record, so physical work
    /// done behind an RPC hop is not lost at the wire boundary. Only
    /// work counters merge: virtual-time breakdown, cache flags, and
    /// result-size fields describe the caller's own run.
    pub fn absorb_remote(&mut self, remote: &QueryStats) {
        self.connections_opened += remote.connections_opened;
        self.pooled_hits += remote.pooled_hits;
        self.rls_lookups += remote.rls_lookups;
        self.remote_forwards += remote.remote_forwards;
        self.retries += remote.retries;
        self.failovers += remote.failovers;
        self.hedges += remote.hedges;
        self.breaker_opens += remote.breaker_opens;
        self.breaker_rejections += remote.breaker_rejections;
        self.bytes_saved += remote.bytes_saved;
        self.reductions_shipped += remote.reductions_shipped;
        self.batches += remote.batches;
        self.rows_materialized += remote.rows_materialized;
        self.exec_workers = self.exec_workers.max(remote.exec_workers);
        self.exec_morsels += remote.exec_morsels;
        // Lag is a worst-replica measure, so the federated query's lag is
        // the max across every hop that contributed data.
        self.repl_lag_lsn = self.repl_lag_lsn.max(remote.repl_lag_lsn);
        self.repl_age_us = self.repl_age_us.max(remote.repl_age_us);
        // queue_depth / queue_wait_us stay local: admission happens at the
        // client-facing front door, not on mediator-to-mediator hops.
    }
}

/// The data version of one table as observed by one query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableVersion {
    /// Logical table name (lower-cased).
    pub table: String,
    /// Backend database the replica lives in; `None` when the table was
    /// resolved through a remote mediator (the RLS freshness record is
    /// keyed by server, not database).
    pub database: Option<String>,
    /// Data version read (0 = no version bookkeeping for this replica).
    pub version: u64,
}

/// One branch dropped from a degraded (Partial-policy) result.
#[derive(Debug, Clone, PartialEq)]
pub struct BranchDrop {
    /// Human-readable branch label (database or remote server).
    pub branch: String,
    /// Why the branch was dropped (last error after retries/failover).
    pub reason: String,
}

/// Where the virtual time went.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostBreakdown {
    /// Request decode + parse + planning.
    pub plan: Cost,
    /// RLS lookups (catalog + network).
    pub rls: Cost,
    /// Connection establishment (the distribution penalty).
    pub connect: Cost,
    /// Sub-query execution + result transfer (parallel-composed).
    pub execute: Cost,
    /// Cross-database join + merge + residual filtering.
    pub integrate: Cost,
    /// Final serialization to the client.
    pub serialize: Cost,
    /// Resilience overhead: backoff waits, failed attempts, failover
    /// detours, hedge waits — the extra critical-path time beyond the
    /// winning attempts' own execution.
    pub resilience: Cost,
}

impl CostBreakdown {
    /// Total virtual time.
    pub fn total(&self) -> Cost {
        self.plan
            + self.rls
            + self.connect
            + self.execute
            + self.integrate
            + self.serialize
            + self.resilience
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_totals() {
        let b = CostBreakdown {
            plan: Cost::from_millis(2),
            rls: Cost::from_millis(25),
            connect: Cost::from_millis(300),
            execute: Cost::from_millis(40),
            integrate: Cost::from_millis(10),
            serialize: Cost::from_millis(3),
            resilience: Cost::from_millis(20),
        };
        assert_eq!(b.total().as_millis_f64(), 400.0);
    }

    #[test]
    fn degraded_flag_tracks_dropped_branches() {
        let mut s = QueryStats::default();
        assert!(!s.is_degraded());
        s.branches_dropped.push(BranchDrop {
            branch: "database `mart_mssql`".into(),
            reason: "server `mart_mssql` is unavailable".into(),
        });
        assert!(s.is_degraded());
    }

    #[test]
    fn absorb_remote_merges_parallel_and_replication_fields() {
        // The fields PR 7/8 added to the wire codec: parallel-executor
        // counters merge (max workers, summed morsels), replication lag is
        // a worst-replica max, and admission bookkeeping stays local.
        let mut local = QueryStats {
            exec_workers: 2,
            exec_morsels: 3,
            repl_lag_lsn: 1,
            repl_age_us: 500,
            queue_depth: 4,
            queue_wait_us: 250,
            ..QueryStats::default()
        };
        let remote = QueryStats {
            exec_workers: 8,
            exec_morsels: 5,
            repl_lag_lsn: 9,
            repl_age_us: 100,
            queue_depth: 7,
            queue_wait_us: 999,
            retries: 2,
            connections_opened: 1,
            bytes_saved: 4096,
            reductions_shipped: 2,
            ..QueryStats::default()
        };
        local.absorb_remote(&remote);
        assert_eq!(local.exec_workers, 8, "widest pool across hops");
        assert_eq!(local.exec_morsels, 8, "work items sum");
        assert_eq!(local.repl_lag_lsn, 9, "worst replica lag");
        assert_eq!(local.repl_age_us, 500, "worst staleness age");
        assert_eq!(local.queue_depth, 4, "admission stays local");
        assert_eq!(local.queue_wait_us, 250, "admission stays local");
        assert_eq!(local.retries, 2);
        assert_eq!(local.connections_opened, 1);
        assert_eq!(local.bytes_saved, 4096, "reduction savings sum");
        assert_eq!(local.reductions_shipped, 2, "reduction count sums");
    }

    #[test]
    fn default_is_zeroed() {
        let s = QueryStats::default();
        assert_eq!(s.breakdown.total(), Cost::ZERO);
        assert!(!s.distributed);
    }
}

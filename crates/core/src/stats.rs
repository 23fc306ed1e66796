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
    /// done behind an RPC hop is not lost at the wire boundary. Only the
    /// `HOP_COUNTERS` merge, each by its rule: virtual-time breakdown,
    /// cache flags, and result-size fields describe the caller's own run.
    pub fn absorb_remote(&mut self, remote: &QueryStats) {
        for c in &HOP_COUNTERS {
            let (mine, theirs) = ((c.get)(self), (c.get)(remote));
            match c.merge {
                Merge::Sum => (c.set)(self, mine + theirs),
                Merge::Max => (c.set)(self, mine.max(theirs)),
                Merge::Local => {}
            }
        }
    }
}

/// How a caller folds a counter its remote hop reported into its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Merge {
    /// Work done: the hops add up.
    Sum,
    /// A worst-case or widest-pool measure: the largest across hops.
    Max,
    /// Carried and decoded, never merged: admission happens at the
    /// client-facing front door, not on mediator-to-mediator hops.
    Local,
}

/// One counter a `query_federated` hop reports about itself.
pub(crate) struct HopCounter {
    pub(crate) merge: Merge,
    pub(crate) get: fn(&QueryStats) -> u64,
    pub(crate) set: fn(&mut QueryStats, u64),
}

macro_rules! hop_counters {
    ($($field:ident: $merge:ident,)*) => {
        [$(HopCounter {
            merge: Merge::$merge,
            get: |s| s.$field as u64,
            set: |s, n| s.$field = n as _,
        }),*]
    };
}

/// Every counter that crosses a mediator hop, defined once: an entry's
/// index is its position in the stats list of a `query_federated` reply
/// (`crate::wire`), its rule is how [`QueryStats::absorb_remote`] merges it.
/// The list stays positional because reply bytes are priced
/// (`ClarensClient::call`): names on the wire would move virtual time. A new
/// counter is appended — a shorter list from an older peer zero-fills, a
/// longer one from a newer peer is cut off at what this revision knows.
pub(crate) static HOP_COUNTERS: [HopCounter; 19] = hop_counters! {
    connections_opened: Sum,
    pooled_hits: Sum,
    rls_lookups: Sum,
    remote_forwards: Sum,
    retries: Sum,
    failovers: Sum,
    hedges: Sum,
    breaker_opens: Sum,
    breaker_rejections: Sum,
    batches: Sum,
    rows_materialized: Sum,
    exec_workers: Max,
    exec_morsels: Sum,
    queue_depth: Local,
    queue_wait_us: Local,
    repl_lag_lsn: Max,
    repl_age_us: Max,
    bytes_saved: Sum,
    reductions_shipped: Sum,
};

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
    use crate::wire::{stats_to_wire, wire_to_stats};
    use gridfed_clarens::codec::WireValue;

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

    /// `QueryStats` with counter `i` set to `f(i)`.
    fn counters(f: impl Fn(u64) -> u64) -> QueryStats {
        let mut s = QueryStats::default();
        for (i, c) in HOP_COUNTERS.iter().enumerate() {
            (c.set)(&mut s, f(i as u64));
        }
        s
    }

    #[test]
    fn the_table_is_the_wire_order_with_todays_merge_rules() {
        /// `position field rule`: setting the field shows at that position
        /// and nowhere else. Returns how many were pinned.
        macro_rules! pinned {
            ($($pos:literal $field:ident $merge:ident,)*) => {{
                $(
                    let mut s = QueryStats::default();
                    s.$field = 1;
                    let read: Vec<u64> = HOP_COUNTERS.iter().map(|c| (c.get)(&s)).collect();
                    let mut want = vec![0; HOP_COUNTERS.len()];
                    want[$pos] = 1;
                    assert_eq!(read, want, stringify!($field));
                    assert_eq!(HOP_COUNTERS[$pos].merge, Merge::$merge, stringify!($field));
                )*
                [$($pos),*].len()
            }};
        }
        let pinned = pinned! {
            0 connections_opened Sum,
            1 pooled_hits Sum,
            2 rls_lookups Sum,
            3 remote_forwards Sum,
            4 retries Sum,
            5 failovers Sum,
            6 hedges Sum,
            7 breaker_opens Sum,
            8 breaker_rejections Sum,
            9 batches Sum,
            10 rows_materialized Sum,
            11 exec_workers Max,
            12 exec_morsels Sum,
            13 queue_depth Local,
            14 queue_wait_us Local,
            15 repl_lag_lsn Max,
            16 repl_age_us Max,
            17 bytes_saved Sum,
            18 reductions_shipped Sum,
        };
        assert_eq!((pinned, HOP_COUNTERS.len()), (19, 19));
        // The encoder writes position `i` from entry `i`, by field.
        let s = QueryStats {
            connections_opened: 3,
            exec_workers: 4,
            queue_wait_us: 740,
            reductions_shipped: 2,
            ..QueryStats::default()
        };
        let WireValue::List(ints) = stats_to_wire(&s) else {
            panic!("stats encode as a list");
        };
        assert_eq!(ints.len(), 19);
        let at = |i: usize| ints[i].clone();
        assert_eq!(
            (at(0), at(11), at(14), at(18), at(1)),
            (
                WireValue::Int(3),
                WireValue::Int(4),
                WireValue::Int(740),
                WireValue::Int(2),
                WireValue::Int(0)
            )
        );
    }

    #[test]
    fn every_counter_round_trips_and_nothing_else_crosses() {
        let sent = QueryStats {
            rows_returned: 5,
            cache_hit: true,
            ..counters(|i| 7 * (i + 1))
        };
        let back = wire_to_stats(&stats_to_wire(&sent));
        assert_eq!(back, counters(|i| 7 * (i + 1)));
        assert_eq!((back.connections_opened, back.reductions_shipped), (7, 133));
    }

    #[test]
    fn absorb_remote_merges_every_counter_by_its_rule() {
        let mut local = QueryStats {
            rows_fetched: 11,
            ..counters(|i| 100 + i)
        };
        local.absorb_remote(&counters(|i| if i % 2 == 0 { 500 } else { 1 }));
        for (i, c) in HOP_COUNTERS.iter().enumerate() {
            let (mine, theirs) = (100 + i as u64, if i % 2 == 0 { 500 } else { 1 });
            let want = match c.merge {
                Merge::Sum => mine + theirs,
                Merge::Max => mine.max(theirs),
                Merge::Local => mine,
            };
            assert_eq!((c.get)(&local), want, "position {i}");
        }
        assert_eq!(local.rows_fetched, 11, "result sizes are the caller's own");
    }

    #[test]
    fn a_stats_list_of_any_length_decodes() {
        let list = |n: i64| WireValue::List((1..=n).map(WireValue::Int).collect());
        // Every shorter list — each era of peer sent one — zero-fills.
        for n in 0..=19 {
            let want = counters(|i| if i < n as u64 { i + 1 } else { 0 });
            assert_eq!(wire_to_stats(&list(n)), want, "{n} positions");
        }
        // A newer peer's longer list is cut off at what this revision knows.
        assert_eq!(wire_to_stats(&list(25)), counters(|i| i + 1));
        // Not a list, or a position that is not a non-negative int: zero.
        assert_eq!(wire_to_stats(&WireValue::Null), QueryStats::default());
        let odd = WireValue::List(vec![WireValue::Int(-4), WireValue::Str("x".into())]);
        assert_eq!(wire_to_stats(&odd), QueryStats::default());
    }

    #[test]
    fn default_is_zeroed() {
        let s = QueryStats::default();
        assert_eq!(s.breakdown.total(), Cost::ZERO);
        assert!(!s.distributed);
    }
}

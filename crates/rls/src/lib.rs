#![warn(missing_docs)]
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
//! # gridfed-rls
//!
//! The Replica Location Service (paper §4.8): a central catalog mapping
//! table names to the URLs of the (J)Clarens servers hosting them.
//!
//! "Each service instance publishes information about the databases and the
//! tables it is hosting to the central RLS server. This central RLS server
//! is contacted when the data access layer does not find a locally
//! registered table." The RLS is what lets many smaller service instances
//! collectively cover the full database collection instead of one server
//! registering everything — quantified by the `ablation_rls` bench.

use gridfed_faults::FaultPlan;
use gridfed_simnet::cost::Timed;
use gridfed_simnet::params::CostParams;
use gridfed_simnet::topology::Topology;
use parking_lot::RwLock;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// Running statistics of an RLS server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RlsStats {
    /// Total lookups served.
    pub lookups: u64,
    /// Lookups that found at least one server.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Publish calls handled.
    pub publishes: u64,
    /// Unreachability reports received from clients.
    pub unreachable_reports: u64,
    /// Servers unpublished because clients kept reporting them dead.
    pub expirations: u64,
    /// Freshness (data-version) publish calls handled.
    pub freshness_publishes: u64,
}

/// Freshness metadata one mart publishes for one of its tables: the data
/// version its snapshot holds and the virtual time it was refreshed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TableFreshness {
    /// Monotonically increasing data version (0 = never refreshed).
    pub version: u64,
    /// Virtual time (µs) of the refresh that produced this version.
    pub refreshed_us: u64,
    /// Last warehouse WAL LSN the replica applied (0 = not log-shipped).
    pub applied_lsn: u64,
    /// Warehouse WAL head LSN as of the replica's last poll; `head -
    /// applied` is the replica's LSN lag. Zero for non-replicated tables.
    pub head_lsn: u64,
    /// Live row count of the replica at publication time (0 = unknown).
    /// Remote mediators feed this into their distributed cost model to
    /// size semi-join reductions without contacting the replica.
    pub rows: u64,
}

/// The central RLS server.
///
/// ```
/// use gridfed_rls::RlsServer;
///
/// let rls = RlsServer::new("rls.cern");
/// rls.publish("clarens://node1:8443/das", &["events".into()]);
/// let hit = rls.lookup("EVENTS"); // case-insensitive
/// assert_eq!(hit.value, vec!["clarens://node1:8443/das"]);
/// ```
#[derive(Debug)]
pub struct RlsServer {
    /// Topology node the server runs on.
    host: String,
    /// table logical name → hosting server URLs (sorted for determinism).
    mappings: RwLock<BTreeMap<String, BTreeSet<String>>>,
    stats: RwLock<RlsStats>,
    params: CostParams,
    /// server URL → consecutive unreachability reports.
    unreachable_counts: RwLock<HashMap<String, u32>>,
    /// Consecutive reports after which a server is expired.
    expiry_threshold: RwLock<u32>,
    faults: RwLock<Option<Arc<FaultPlan>>>,
    /// table logical name → hosting server URL → freshness metadata.
    freshness: RwLock<BTreeMap<String, BTreeMap<String, TableFreshness>>>,
}

/// Default number of consecutive unreachability reports before the RLS
/// expires a server's mappings (R-GMA-style failure-driven expiry).
pub const DEFAULT_EXPIRY_THRESHOLD: u32 = 3;

impl RlsServer {
    /// Create an RLS server on a topology node.
    pub fn new(host: impl Into<String>) -> Arc<RlsServer> {
        Arc::new(RlsServer {
            host: host.into(),
            mappings: RwLock::new(BTreeMap::new()),
            stats: RwLock::new(RlsStats::default()),
            params: CostParams::paper_2005(),
            unreachable_counts: RwLock::new(HashMap::new()),
            expiry_threshold: RwLock::new(DEFAULT_EXPIRY_THRESHOLD),
            faults: RwLock::new(None),
            freshness: RwLock::new(BTreeMap::new()),
        })
    }

    /// Set how many consecutive unreachability reports expire a server
    /// (minimum 1).
    pub fn set_expiry_threshold(&self, threshold: u32) {
        *self.expiry_threshold.write() = threshold.max(1);
    }

    /// Install a fault plan. During an RLS staleness window the catalog
    /// stops reacting to unreachability reports (the replica catalog lags
    /// reality), modeling the stale-registry hazard grid deployments hit.
    pub fn set_fault_plan(&self, plan: Arc<FaultPlan>) {
        *self.faults.write() = Some(plan);
    }

    /// Report that a client could not reach `server_url`. After the
    /// configured number of *consecutive* reports the RLS expires every
    /// mapping for that server so dead replicas stop being handed out.
    /// Returns whether this report triggered the expiry.
    pub fn report_unreachable(&self, server_url: &str) -> Timed<bool> {
        self.stats.write().unreachable_reports += 1;
        if let Some(plan) = self.faults.read().as_ref() {
            if plan.rls_is_stale() {
                // Stale catalog: the report lands on a lagging snapshot
                // and is lost.
                return Timed::new(false, self.params.rls_lookup);
            }
        }
        let threshold = *self.expiry_threshold.read();
        let count = {
            let mut counts = self.unreachable_counts.write();
            let c = counts.entry(server_url.to_string()).or_insert(0);
            *c += 1;
            *c
        };
        if count >= threshold {
            self.unreachable_counts.write().remove(server_url);
            let removed = self.unpublish_server(server_url);
            let mut stats = self.stats.write();
            if removed.value > 0 {
                stats.expirations += 1;
            }
            Timed::new(removed.value > 0, self.params.rls_lookup + removed.cost)
        } else {
            Timed::new(false, self.params.rls_lookup)
        }
    }

    /// Report that a client reached `server_url` successfully, resetting
    /// its consecutive-failure count (reports must be *consecutive* to
    /// expire a server).
    pub fn report_reachable(&self, server_url: &str) {
        self.unreachable_counts.write().remove(server_url);
    }

    /// The node hosting this RLS.
    pub fn host(&self) -> &str {
        &self.host
    }

    /// Publish: `server_url` hosts each of `tables`. Idempotent.
    pub fn publish(&self, server_url: &str, tables: &[String]) -> Timed<()> {
        let mut map = self.mappings.write();
        for t in tables {
            map.entry(t.to_ascii_lowercase())
                .or_default()
                .insert(server_url.to_string());
        }
        self.stats.write().publishes += 1;
        Timed::new(
            (),
            self.params.rls_publish.scale(tables.len().max(1) as f64),
        )
    }

    /// Publish freshness metadata: `server_url`'s replica of each `(table,
    /// freshness)` pair now holds that data version. Called by a mediator
    /// after every mart refresh (and at registration for the initial
    /// version), so placement can prefer the freshest replica.
    pub fn publish_freshness(
        &self,
        server_url: &str,
        entries: &[(String, TableFreshness)],
    ) -> Timed<()> {
        let mut fresh = self.freshness.write();
        for (table, f) in entries {
            fresh
                .entry(table.to_ascii_lowercase())
                .or_default()
                .insert(server_url.to_string(), *f);
        }
        self.stats.write().freshness_publishes += 1;
        Timed::new(
            (),
            self.params.rls_publish.scale(entries.len().max(1) as f64),
        )
    }

    /// Freshness of every known replica of `table`, sorted by URL.
    /// Replicas that never published freshness are absent — callers treat
    /// them as version 0.
    pub fn freshness(&self, table: &str) -> Timed<Vec<(String, TableFreshness)>> {
        let fresh = self.freshness.read();
        let out: Vec<(String, TableFreshness)> = fresh
            .get(&table.to_ascii_lowercase())
            .map(|per| per.iter().map(|(u, f)| (u.clone(), *f)).collect())
            .unwrap_or_default();
        Timed::new(out, self.params.rls_lookup)
    }

    /// The freshness with the highest version any replica of `table` has
    /// published (the last of equals, in [`RlsServer::freshness`]'s order),
    /// read in place.
    pub fn newest_freshness(&self, table: &str) -> Option<TableFreshness> {
        let fresh = self.freshness.read();
        let per = match fresh.get(table) {
            Some(per) => per,
            None => fresh.get(&table.to_ascii_lowercase())?,
        };
        per.values().copied().max_by_key(|f| f.version)
    }

    /// Version skew of a table across its replicas: max published version
    /// minus min. Zero when all replicas agree (or fewer than two
    /// published). The `gridfed_monitor` surface exposes this per mart
    /// table as the staleness early-warning signal.
    pub fn version_skew(&self, table: &str) -> u64 {
        let fresh = self.freshness.read();
        let Some(per) = fresh.get(&table.to_ascii_lowercase()) else {
            return 0;
        };
        let versions: Vec<u64> = per.values().map(|f| f.version).collect();
        match (versions.iter().max(), versions.iter().min()) {
            (Some(max), Some(min)) => max - min,
            _ => 0,
        }
    }

    /// Remove every mapping for a server (service shutdown).
    pub fn unpublish_server(&self, server_url: &str) -> Timed<usize> {
        let mut map = self.mappings.write();
        let mut removed = 0;
        map.retain(|_, urls| {
            if urls.remove(server_url) {
                removed += 1;
            }
            !urls.is_empty()
        });
        // A dead server's freshness claims must die with its mappings, or
        // version_skew would keep reporting a ghost replica forever.
        let mut fresh = self.freshness.write();
        fresh.retain(|_, per| {
            per.remove(server_url);
            !per.is_empty()
        });
        Timed::new(removed, self.params.rls_publish)
    }

    /// Look up the servers hosting a table. The cost covers the catalog
    /// probe; callers add the network round trip from their own host.
    pub fn lookup(&self, table: &str) -> Timed<Vec<String>> {
        let map = self.mappings.read();
        let urls: Vec<String> = map
            .get(&table.to_ascii_lowercase())
            .map(|s| s.iter().cloned().collect())
            .unwrap_or_default();
        let mut stats = self.stats.write();
        stats.lookups += 1;
        if urls.is_empty() {
            stats.misses += 1;
        } else {
            stats.hits += 1;
        }
        Timed::new(urls, self.params.rls_lookup)
    }

    /// Look up from a caller on `caller_host`: catalog probe plus the
    /// request/response round trip across `topology`.
    pub fn lookup_from(
        &self,
        caller_host: &str,
        topology: &Topology,
        table: &str,
    ) -> Timed<Vec<String>> {
        let t = self.lookup(table);
        let link = topology.link(caller_host, &self.host);
        let wire = link.round_trip(table.len() + 64, 64 + 64 * t.value.len());
        Timed::new(t.value, t.cost + wire)
    }

    /// Bulk lookup: resolve many tables in one catalog visit. One base
    /// lookup cost plus a small per-extra-table increment — cheaper than
    /// N separate round trips (an efficiency refinement of the paper's
    /// per-table lookups; see `lookup_from` for the per-table form).
    pub fn lookup_many(&self, tables: &[String]) -> Timed<Vec<(String, Vec<String>)>> {
        let map = self.mappings.read();
        let mut out = Vec::with_capacity(tables.len());
        let mut stats = self.stats.write();
        for t in tables {
            let urls: Vec<String> = map
                .get(&t.to_ascii_lowercase())
                .map(|s| s.iter().cloned().collect())
                .unwrap_or_default();
            stats.lookups += 1;
            if urls.is_empty() {
                stats.misses += 1;
            } else {
                stats.hits += 1;
            }
            out.push((t.clone(), urls));
        }
        // One probe amortized: base cost + 10% per additional table.
        let cost = self
            .params
            .rls_lookup
            .scale(1.0 + 0.1 * tables.len().saturating_sub(1) as f64);
        Timed::new(out, cost)
    }

    /// All tables currently known, sorted.
    pub fn tables(&self) -> Vec<String> {
        self.mappings.read().keys().cloned().collect()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> RlsStats {
        *self.stats.read()
    }

    /// Every server the catalog knows about, sorted by URL — the data
    /// behind the `gridfed_monitor.servers` virtual table. Servers whose
    /// mappings were expired but that still have an unreachability streak
    /// on record appear with zero tables.
    pub fn server_snapshot(&self) -> Vec<RlsServerInfo> {
        let mappings = self.mappings.read();
        let streaks = self.unreachable_counts.read();
        let mut per: BTreeMap<String, usize> = BTreeMap::new();
        for urls in mappings.values() {
            for url in urls {
                *per.entry(url.clone()).or_default() += 1;
            }
        }
        for url in streaks.keys() {
            per.entry(url.clone()).or_default();
        }
        per.into_iter()
            .map(|(url, tables)| RlsServerInfo {
                unreachable_streak: streaks.get(&url).copied().unwrap_or(0),
                url,
                tables,
            })
            .collect()
    }
}

/// One server's standing in the RLS catalog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RlsServerInfo {
    /// Clarens server URL.
    pub url: String,
    /// Logical tables the catalog currently maps to this server.
    pub tables: usize,
    /// Consecutive unreachability reports (mappings expire at the
    /// configured threshold).
    pub unreachable_streak: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridfed_simnet::cost::Cost;

    #[test]
    fn publish_and_lookup() {
        let rls = RlsServer::new("rls.cern");
        rls.publish("http://clarens1", &["Events".into(), "runs".into()]);
        rls.publish("http://clarens2", &["events".into()]);
        let hit = rls.lookup("EVENTS");
        assert_eq!(hit.value, vec!["http://clarens1", "http://clarens2"]);
        assert!(hit.cost > Cost::ZERO);
        let miss = rls.lookup("nope");
        assert!(miss.value.is_empty());
        let stats = rls.stats();
        assert_eq!(stats.lookups, 2);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn publish_is_idempotent() {
        let rls = RlsServer::new("rls");
        rls.publish("u", &["t".into()]);
        rls.publish("u", &["t".into()]);
        assert_eq!(rls.lookup("t").value.len(), 1);
    }

    #[test]
    fn unpublish_removes_only_that_server() {
        let rls = RlsServer::new("rls");
        rls.publish("a", &["t1".into(), "t2".into()]);
        rls.publish("b", &["t1".into()]);
        let removed = rls.unpublish_server("a").value;
        assert_eq!(removed, 2);
        assert_eq!(rls.lookup("t1").value, vec!["b"]);
        assert!(rls.lookup("t2").value.is_empty());
        assert_eq!(rls.tables(), vec!["t1"]);
    }

    #[test]
    fn lookup_from_adds_network_cost() {
        let rls = RlsServer::new("rls.cern");
        rls.publish("u", &["t".into()]);
        let topo = Topology::lan();
        let local = rls.lookup("t").cost;
        let remote = rls.lookup_from("tier2.caltech", &topo, "t").cost;
        assert!(remote > local);
    }

    #[test]
    fn bulk_lookup_amortizes_cost() {
        let rls = RlsServer::new("rls");
        rls.publish("a", &["t1".into(), "t2".into(), "t3".into()]);
        let names: Vec<String> = vec!["t1".into(), "t2".into(), "missing".into()];
        let bulk = rls.lookup_many(&names);
        assert_eq!(bulk.value.len(), 3);
        assert_eq!(bulk.value[0].1, vec!["a"]);
        assert!(bulk.value[2].1.is_empty());
        // cheaper than three separate probes
        let single = rls.lookup("t1").cost;
        assert!(bulk.cost < single.scale(3.0));
        let stats = rls.stats();
        assert_eq!(stats.lookups, 4);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn failure_reports_expire_a_server() {
        let rls = RlsServer::new("rls");
        rls.publish("dead", &["t1".into(), "t2".into()]);
        rls.publish("alive", &["t1".into()]);
        rls.set_expiry_threshold(3);
        assert!(!rls.report_unreachable("dead").value);
        assert!(!rls.report_unreachable("dead").value);
        assert!(rls.report_unreachable("dead").value);
        assert_eq!(rls.lookup("t1").value, vec!["alive"]);
        assert!(rls.lookup("t2").value.is_empty());
        let stats = rls.stats();
        assert_eq!(stats.unreachable_reports, 3);
        assert_eq!(stats.expirations, 1);
        // further reports about an already-expired server do nothing new
        assert!(!rls.report_unreachable("dead").value);
        assert!(!rls.report_unreachable("dead").value);
        assert!(!rls.report_unreachable("dead").value);
        assert_eq!(rls.stats().expirations, 1);
    }

    #[test]
    fn reachable_report_resets_the_streak() {
        let rls = RlsServer::new("rls");
        rls.publish("flaky", &["t".into()]);
        rls.set_expiry_threshold(2);
        rls.report_unreachable("flaky");
        rls.report_reachable("flaky");
        assert!(!rls.report_unreachable("flaky").value);
        assert_eq!(rls.lookup("t").value, vec!["flaky"], "still published");
        assert!(rls.report_unreachable("flaky").value, "streak completes");
        assert!(rls.lookup("t").value.is_empty());
    }

    #[test]
    fn stale_catalog_suppresses_expiry() {
        use gridfed_faults::FaultPlan;
        use gridfed_simnet::Cost;

        let rls = RlsServer::new("rls");
        rls.publish("dead", &["t".into()]);
        rls.set_expiry_threshold(1);
        let plan = Arc::new(FaultPlan::new(1).rls_stale(Cost::ZERO, Some(Cost::from_millis(5))));
        rls.set_fault_plan(Arc::clone(&plan));
        assert!(!rls.report_unreachable("dead").value);
        assert_eq!(rls.lookup("t").value, vec!["dead"], "stale: not expired");
        plan.set_now(Cost::from_millis(5));
        assert!(rls.report_unreachable("dead").value, "fresh: expiry works");
        assert!(plan.stats().rls_stale_hits >= 1);
    }

    #[test]
    fn freshness_tracks_versions_per_replica() {
        let rls = RlsServer::new("rls");
        rls.publish("a", &["mart_events".into()]);
        rls.publish("b", &["mart_events".into()]);
        rls.publish_freshness(
            "a",
            &[(
                "Mart_Events".into(),
                TableFreshness {
                    version: 3,
                    refreshed_us: 500,
                    ..TableFreshness::default()
                },
            )],
        );
        rls.publish_freshness(
            "b",
            &[(
                "mart_events".into(),
                TableFreshness {
                    version: 1,
                    refreshed_us: 100,
                    ..TableFreshness::default()
                },
            )],
        );
        let fresh = rls.freshness("MART_EVENTS").value;
        assert_eq!(fresh.len(), 2);
        assert_eq!(fresh[0].0, "a");
        assert_eq!(fresh[0].1.version, 3);
        assert_eq!(rls.version_skew("mart_events"), 2);
        assert_eq!(rls.version_skew("unknown"), 0);
        assert_eq!(rls.stats().freshness_publishes, 2);

        // Re-publishing replaces, it does not accumulate.
        rls.publish_freshness(
            "b",
            &[(
                "mart_events".into(),
                TableFreshness {
                    version: 3,
                    refreshed_us: 900,
                    ..TableFreshness::default()
                },
            )],
        );
        assert_eq!(rls.version_skew("mart_events"), 0);
    }

    #[test]
    fn unpublish_drops_freshness_with_mappings() {
        let rls = RlsServer::new("rls");
        rls.publish("dead", &["t".into()]);
        rls.publish_freshness(
            "dead",
            &[(
                "t".into(),
                TableFreshness {
                    version: 9,
                    refreshed_us: 1,
                    ..TableFreshness::default()
                },
            )],
        );
        rls.unpublish_server("dead");
        assert!(rls.freshness("t").value.is_empty());
        assert_eq!(rls.version_skew("t"), 0);
    }

    #[test]
    fn results_are_deterministic_order() {
        let rls = RlsServer::new("rls");
        rls.publish("zeta", &["t".into()]);
        rls.publish("alpha", &["t".into()]);
        assert_eq!(rls.lookup("t").value, vec!["alpha", "zeta"]);
    }
}

//! What the mediator keeps open between queries (DESIGN.md §4.4, "Connect
//! once"): per backend database the parsed connection string and one live
//! authenticated connection, per peer mediator the logged-in Clarens
//! channel, and per remote table a lease on the server URLs the RLS named.
//!
//! Nothing here is ever told it went stale. A kept connection is stamped
//! with the [`DriverRegistry::generation`] it was opened under and reopened
//! when the registry has moved on; a connection or channel that answers
//! with a transport error is dropped *before* the error reaches the
//! supervisor, so the supervised retry reconnects and pays for it; a lease
//! dies at [`LEASE_TTL_US`], or as soon as this mediator itself reports one
//! of its servers unreachable or changes what it publishes.
//!
//! [`ConnectionPolicy::PerQuery`] keeps exactly what the 2005 prototype
//! kept — the POOL-RAL handle a whole-statement branch reads through and
//! the peer login — and calls a peer once per table, as it did; a kept
//! channel carries a wave's sub-queries for that peer in one call. It is
//! the control arm of Table 1 / Figure 6.

use crate::error::CoreError;
use crate::resilience::is_retryable;
use crate::service::ConnectionPolicy;
use crate::Result;
use gridfed_clarens::client::ClarensClient;
use gridfed_clarens::codec::WireValue;
use gridfed_clarens::directory::Directory;
use gridfed_clarens::ClarensError;
use gridfed_obs::Observability;
use gridfed_poolral::{PoolError, PoolRal};
use gridfed_simnet::cost::{Cost, Timed};
use gridfed_simnet::topology::Topology;
use gridfed_sqlkit::ast::SelectStmt;
use gridfed_sqlkit::ResultSet;
use gridfed_vendors::driver::server_address;
use gridfed_vendors::{Connection, ConnectionString, DriverRegistry, VendorKind};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// How long a leased RLS answer is trusted, in virtual µs. One minute: a
/// Table-1 round asks for each remote table several hundred times in that
/// span, and a replica published elsewhere is seen within it. Not a knob —
/// a longer lease only ever delays seeing a *better* server; a dead one
/// ends the lease through `report_unreachable` whatever its age.
pub const LEASE_TTL_US: u64 = 60_000_000;

/// How a local branch reaches its database. Decided in one place
/// ([`Session::route`]) for the attempt and for EXPLAIN alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Route {
    /// Through the database's pooled POOL-RAL handle.
    Pool,
    /// Over the authenticated JDBC connection the session keeps for a
    /// vendor POOL cannot hold.
    Kept,
    /// Over a connection opened for this attempt and dropped after it.
    Fresh,
}

impl Route {
    /// The words EXPLAIN prints for this route.
    pub(crate) fn describe(self) -> &'static str {
        match self {
            Route::Pool => "POOL-RAL (pooled handle)",
            Route::Kept => "Unity/JDBC (kept connection)",
            Route::Fresh => "Unity/JDBC (fresh connection)",
        }
    }
}

/// One backend database as the session knows it.
struct Backend {
    parsed: Arc<ConnectionString>,
    /// Topology node the database runs on.
    host: Arc<str>,
    /// Registry generation the kept connection (or POOL handle) was opened
    /// or first used under.
    generation: u64,
    /// The kept JDBC connection ([`Route::Kept`]; a POOL vendor's lives in
    /// its handle).
    conn: Option<Connection>,
}

/// The server URLs the RLS named for one table, and when.
struct Lease {
    servers: Vec<String>,
    issued_us: u64,
}

/// One mediator's connection state. Each map is locked for a probe or an
/// insert, never across a connect, a login or a statement. What to keep is
/// the caller's to say — the [`ConnectionPolicy`] of the configuration its
/// query runs under — so one query is routed one way from start to end.
pub(crate) struct Session {
    registry: Arc<DriverRegistry>,
    directory: Arc<Directory>,
    topology: Arc<Topology>,
    /// Topology node of the mediator.
    host: String,
    /// Credentials for every backend and peer.
    creds: (String, String),
    pool: PoolRal,
    backends: Mutex<HashMap<String, Backend>>,
    peers: Mutex<HashMap<String, ClarensClient>>,
    leases: Mutex<HashMap<String, Lease>>,
    obs: Arc<Observability>,
}

impl Session {
    pub(crate) fn new(
        registry: Arc<DriverRegistry>,
        directory: Arc<Directory>,
        topology: Arc<Topology>,
        host: String,
        obs: Arc<Observability>,
    ) -> Session {
        Session {
            pool: PoolRal::new(Arc::clone(&registry)),
            registry,
            directory,
            topology,
            host,
            creds: ("grid".to_string(), "grid".to_string()),
            backends: Mutex::new(HashMap::new()),
            peers: Mutex::new(HashMap::new()),
            leases: Mutex::new(HashMap::new()),
            obs,
        }
    }

    /// Count a session event on the monitor surface (the `PerQuery` arm
    /// records exactly what the prototype did: nothing).
    fn note(&self, policy: ConnectionPolicy, family: &'static str, label: &str) {
        if policy.keeps() && self.obs.enabled() {
            self.obs.metrics.inc(family, label, 1);
        }
    }

    // ---- backends ----

    /// Open the POOL-RAL handle of a newly registered POOL-supported
    /// database (a no-op costing one JNI call when it is open already).
    pub(crate) fn open_pool_handle(&self, url: &str) -> Result<Cost> {
        let (user, password) = &self.creds;
        Ok(self.pool.initialize(url, user, password)?.cost)
    }

    /// How a branch on `url` is executed. A whole-statement branch pools
    /// under either policy (the paper's non-distributed path); a per-table
    /// fetch only when the session keeps connections.
    pub(crate) fn route(
        &self,
        policy: ConnectionPolicy,
        vendor: VendorKind,
        url: &str,
        whole: bool,
    ) -> Route {
        match (policy.keeps(), vendor.pool_supported()) {
            (true, true) => Route::Pool,
            (true, false) => Route::Kept,
            (false, true) if whole && self.pool.has_handle(url) => Route::Pool,
            (false, _) => Route::Fresh,
        }
    }

    /// A live connection to the database behind `url`, opened now only if
    /// the route has none open — or none opened under the registry's
    /// current generation.
    pub(crate) fn link<'a>(
        &'a self,
        policy: ConnectionPolicy,
        url: &'a str,
        whole: bool,
    ) -> Result<Link<'a>> {
        let generation = self.registry.generation();
        let (parsed, host, kept) = {
            let mut backends = self.backends.lock();
            if !backends.contains_key(url) {
                let parsed = ConnectionString::parse(url)?;
                let host = server_address(&parsed).0.into();
                let entry = Backend {
                    parsed: Arc::new(parsed),
                    host,
                    generation,
                    conn: None,
                };
                backends.insert(url.to_string(), entry);
            }
            let entry = backends.get_mut(url).expect("present or just inserted");
            if policy.keeps() && entry.generation < generation {
                // A driver was installed or a server re-registered since:
                // what was opened before may not be what a connect yields now.
                entry.generation = generation;
                if entry.conn.take().is_some() | self.pool.close(url) {
                    self.note(policy, "session_evictions", "registry");
                }
            }
            (
                Arc::clone(&entry.parsed),
                Arc::clone(&entry.host),
                entry.conn.clone(),
            )
        };
        let route = self.route(policy, parsed.vendor, url, whole);
        let already = match route {
            Route::Pool => self.pool.handle(url),
            Route::Kept => kept,
            Route::Fresh => None,
        };
        let (conn, connect_cost) = match already {
            Some(conn) => (conn, None),
            None if route == Route::Pool => {
                let cost = self.open_pool_handle(url)?;
                let conn = self.pool.handle(url);
                let conn = conn.ok_or_else(|| PoolError::NoHandle(url.to_string()))?;
                (conn, Some(cost))
            }
            None => {
                let opened = self.registry.connect_parsed(&parsed)?;
                if route == Route::Kept {
                    if let Some(entry) = self.backends.lock().get_mut(url) {
                        entry.conn = Some(opened.value.clone());
                    }
                }
                (opened.value, Some(opened.cost))
            }
        };
        if connect_cost.is_some() && route != Route::Fresh {
            self.note(policy, "session_connects", url);
        }
        Ok(Link {
            session: self,
            policy,
            url,
            host,
            route,
            conn,
            connect_cost,
        })
    }

    /// Forget the database behind `url` — it was unregistered: close its
    /// POOL handle, drop its kept connection and what was parsed from its
    /// URL. Under either policy: a handle to a database the dictionary no
    /// longer knows is a leak.
    pub(crate) fn drop_backend(&self, policy: ConnectionPolicy, url: &str) {
        let kept = self.backends.lock().remove(url).is_some();
        if self.pool.close(url) | kept {
            self.note(policy, "session_evictions", "unregistered");
        }
    }

    /// What the session has open to `url` can no longer be trusted — a
    /// statement on it failed in transport, or the schema behind it
    /// changed: whatever answers next must be a new connection. (The
    /// `PerQuery` arm keeps its whole-statement POOL handle regardless, as
    /// the prototype did.)
    pub(crate) fn evict_backend(&self, policy: ConnectionPolicy, url: &str, cause: &str) {
        if !policy.keeps() {
            return;
        }
        let mut backends = self.backends.lock();
        let kept = backends.get_mut(url).and_then(|entry| entry.conn.take());
        drop(backends);
        if self.pool.close(url) | kept.is_some() {
            self.note(policy, "session_evictions", cause);
        }
    }

    /// The connection policy changed: let go of everything kept under the
    /// old one that the new one would not have — every kept JDBC connection
    /// and every lease. The POOL handles and peer logins stay; both
    /// policies keep those.
    pub(crate) fn let_go(&self) {
        for entry in self.backends.lock().values_mut() {
            entry.conn = None;
        }
        self.drop_leases();
    }

    // ---- peers ----

    /// The logged-in channel to the mediator at `url`, logging in first if
    /// there is none.
    pub(crate) fn peer<'a>(&'a self, policy: ConnectionPolicy, url: &'a str) -> Result<Peer<'a>> {
        let kept = self.peers.lock().get(url).cloned();
        let (client, connect_cost) = match kept {
            Some(client) => (client, Cost::ZERO),
            None => self.login(policy, url)?,
        };
        Ok(Peer {
            session: self,
            policy,
            url,
            client,
            connect_cost,
        })
    }

    fn login(&self, policy: ConnectionPolicy, url: &str) -> Result<(ClarensClient, Cost)> {
        let mut client = ClarensClient::connect(
            &self.directory,
            url,
            Arc::clone(&self.topology),
            self.host.clone(),
        )?;
        let login = client.login(&self.creds.0, &self.creds.1)?;
        self.peers.lock().insert(url.to_string(), client.clone());
        self.note(policy, "session_connects", url);
        Ok((client, login.cost))
    }

    fn drop_peer(&self, policy: ConnectionPolicy, url: &str, cause: &str) {
        if self.peers.lock().remove(url).is_some() {
            self.note(policy, "session_evictions", cause);
        }
    }

    // ---- leases ----

    /// The servers leased for `table`, while the lease is younger than
    /// [`LEASE_TTL_US`] at `now_us`.
    pub(crate) fn leased(
        &self,
        policy: ConnectionPolicy,
        table: &str,
        now_us: u64,
    ) -> Option<Vec<String>> {
        let mut leases = self.leases.lock();
        let lease = leases.get(table)?;
        if now_us.saturating_sub(lease.issued_us) >= LEASE_TTL_US {
            leases.remove(table);
            return None;
        }
        let servers = lease.servers.clone();
        drop(leases);
        self.note(policy, "session_lease_hits", table);
        Some(servers)
    }

    /// Keep what the RLS just answered for `table`. Locations only, and
    /// only an answer that names a server: "nobody hosts it" is asked again
    /// every time, so a table published later is found at once.
    pub(crate) fn lease(
        &self,
        policy: ConnectionPolicy,
        table: &str,
        servers: &[String],
        now_us: u64,
    ) {
        if policy.keeps() && !servers.is_empty() {
            let lease = Lease {
                servers: servers.to_vec(),
                issued_us: now_us,
            };
            self.leases.lock().insert(table.to_string(), lease);
        }
    }

    /// This mediator found `server_url` unreachable: no lease may keep
    /// routing to it.
    pub(crate) fn drop_leases_naming(&self, policy: ConnectionPolicy, server_url: &str) {
        let mut leases = self.leases.lock();
        let before = leases.len();
        leases.retain(|_, lease| !lease.servers.iter().any(|s| s == server_url));
        let dropped = before - leases.len();
        drop(leases);
        if dropped > 0 {
            self.note(policy, "session_evictions", "lease_unreachable");
        }
    }

    /// This mediator changed what it hosts: start the catalog over.
    pub(crate) fn drop_leases(&self) {
        self.leases.lock().clear();
    }
}

/// One branch attempt's way to its database.
pub(crate) struct Link<'a> {
    session: &'a Session,
    policy: ConnectionPolicy,
    url: &'a str,
    /// Topology node the database runs on.
    pub(crate) host: Arc<str>,
    route: Route,
    conn: Connection,
    /// What opening the connection cost, when this link had to.
    pub(crate) connect_cost: Option<Cost>,
}

impl Link<'_> {
    /// The connection itself, for catalog reads.
    pub(crate) fn conn(&self) -> &Connection {
        &self.conn
    }

    /// Run one sub-query: through POOL-RAL (JNI cost and single-database
    /// check included) on a pooled route, on the connection otherwise —
    /// either way on this link's own clone, so an eviction by a concurrent
    /// query cannot pull the connection out from under it. An
    /// error the supervisor would retry costs a kept connection its place:
    /// the retry opens a new one, and is charged for it.
    pub(crate) fn query(&self, stmt: &SelectStmt) -> Result<Timed<ResultSet>> {
        let answer = match self.route {
            Route::Pool => PoolRal::execute_on(&self.conn, stmt).map_err(CoreError::from),
            Route::Kept | Route::Fresh => self.conn.query_stmt(stmt).map_err(CoreError::from),
        };
        if answer.as_ref().is_err_and(is_retryable) {
            self.session
                .evict_backend(self.policy, self.url, "backend_error");
        }
        answer
    }
}

/// One branch attempt's channel to a peer mediator.
pub(crate) struct Peer<'a> {
    session: &'a Session,
    policy: ConnectionPolicy,
    url: &'a str,
    client: ClarensClient,
    /// Login cost charged to this attempt so far (zero on a kept channel).
    pub(crate) connect_cost: Cost,
}

impl Peer<'_> {
    /// Call `das.<method>` on the peer. A peer that no longer knows our
    /// token (it logged us out, or restarted) is logged into again, once,
    /// and sent the same params — a batch of statements whole — again;
    /// under the `Session` policy a transport failure also costs the
    /// channel its place, so the supervised retry logs in afresh. Each
    /// round trip counts toward `session_peer_calls`.
    pub(crate) fn call(&mut self, method: &str, params: &[WireValue]) -> Result<Timed<WireValue>> {
        self.session
            .note(self.policy, "session_peer_calls", self.url);
        match self.client.call("das", method, params) {
            Err(ClarensError::NoSession) => {
                self.session
                    .drop_peer(self.policy, self.url, "peer_no_session");
                let (client, login) = self.session.login(self.policy, self.url)?;
                self.client = client;
                self.connect_cost += login;
                self.session
                    .note(self.policy, "session_peer_calls", self.url);
                Ok(self.client.call("das", method, params)?)
            }
            Err(e @ ClarensError::Unavailable(_)) if self.policy.keeps() => {
                self.session.drop_peer(self.policy, self.url, "peer_error");
                Err(e.into())
            }
            answer => Ok(answer?),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridfed_vendors::SimServer;

    const KEEP: ConnectionPolicy = ConnectionPolicy::Session;
    const PER_QUERY: ConnectionPolicy = ConnectionPolicy::PerQuery;

    fn session() -> (Session, Arc<DriverRegistry>) {
        let registry = Arc::new(DriverRegistry::with_standard_drivers());
        let session = Session::new(
            Arc::clone(&registry),
            Directory::new(),
            Arc::new(Topology::lan()),
            "node1".into(),
            Observability::new(),
        );
        (session, registry)
    }

    fn urls(list: &[&str]) -> Vec<String> {
        list.iter().map(|u| u.to_string()).collect()
    }

    #[test]
    fn a_lease_is_good_for_exactly_its_ttl() {
        let (s, _) = session();
        let issued = 1_234_567;
        s.lease(
            KEEP,
            "events",
            &urls(&["clarens://a", "clarens://b"]),
            issued,
        );
        let last = issued + LEASE_TTL_US - 1;
        assert_eq!(
            s.leased(KEEP, "events", last),
            Some(urls(&["clarens://a", "clarens://b"])),
            "reused one microsecond short of the TTL"
        );
        assert_eq!(
            s.leased(KEEP, "events", last + 1),
            None,
            "asked again at the TTL"
        );
        assert_eq!(
            s.leased(KEEP, "events", issued),
            None,
            "and gone once it ran out"
        );
    }

    #[test]
    fn nothing_is_leased_for_a_table_nobody_hosts_or_under_per_query() {
        let (s, _) = session();
        s.lease(KEEP, "ghosts", &[], 0);
        assert_eq!(s.leased(KEEP, "ghosts", 1), None);
        s.lease(PER_QUERY, "events", &urls(&["clarens://a"]), 0);
        assert_eq!(s.leased(PER_QUERY, "events", 1), None);
    }

    #[test]
    fn an_unreachable_server_ends_exactly_the_leases_naming_it() {
        let (s, _) = session();
        s.lease(KEEP, "t1", &urls(&["clarens://a"]), 0);
        s.lease(KEEP, "t2", &urls(&["clarens://a", "clarens://b"]), 0);
        s.lease(KEEP, "t3", &urls(&["clarens://b"]), 0);
        s.drop_leases_naming(KEEP, "clarens://a");
        assert_eq!(s.leased(KEEP, "t1", 1), None);
        assert_eq!(s.leased(KEEP, "t2", 1), None);
        assert_eq!(s.leased(KEEP, "t3", 1), Some(urls(&["clarens://b"])));
        s.drop_leases();
        assert_eq!(s.leased(KEEP, "t3", 1), None);
    }

    #[test]
    fn a_kept_connection_is_opened_once_and_reopened_when_the_registry_moves() {
        let (s, registry) = session();
        registry.register_server(SimServer::new(VendorKind::MsSql, "h", "m"));
        let url = "mssql://h:1433;database=m;user=grid;password=grid";
        assert_eq!(s.route(KEEP, VendorKind::MsSql, url, false), Route::Kept);
        let first = s.link(KEEP, url, false).expect("opens");
        assert!(first.connect_cost.is_some_and(|c| c > Cost::ZERO));
        assert_eq!(&*first.host, "h");
        assert!(s
            .link(KEEP, url, false)
            .expect("kept")
            .connect_cost
            .is_none());

        // The same address now reaches a new server instance: the kept
        // connection would still answer from the old one.
        let restarted = SimServer::new(VendorKind::MsSql, "h", "m");
        registry.register_server(Arc::clone(&restarted));
        let reopened = s.link(KEEP, url, false).expect("reopens");
        assert!(reopened.connect_cost.is_some());
        assert!(Arc::ptr_eq(reopened.conn().server(), &restarted));
        assert!(s
            .link(KEEP, url, false)
            .expect("kept again")
            .connect_cost
            .is_none());

        s.drop_backend(KEEP, url);
        assert!(s
            .link(KEEP, url, false)
            .expect("from the URL")
            .connect_cost
            .is_some());
    }

    #[test]
    fn an_eviction_does_not_pull_the_connection_from_under_a_link() {
        // Another query's failed statement evicts the shared handle while
        // this link is between two of its sub-queries.
        let (s, registry) = session();
        let server = SimServer::new(VendorKind::MySql, "h", "m");
        let conn = server.connect("grid", "grid").expect("login").value;
        conn.execute("CREATE TABLE t (id INT PRIMARY KEY)")
            .expect("table");
        registry.register_server(server);
        let url = "mysql://grid:grid@h:3306/m";
        let stmt = gridfed_sqlkit::parser::parse_select("SELECT id FROM t").expect("parses");
        let link = s.link(KEEP, url, false).expect("opens the handle");
        assert!(link.query(&stmt).is_ok());
        s.evict_backend(KEEP, url, "backend_error");
        assert!(link.query(&stmt).is_ok(), "the link holds its own clone");
        assert!(s
            .link(KEEP, url, false)
            .expect("reopens")
            .connect_cost
            .is_some());
    }

    #[test]
    fn per_query_pools_whole_statements_only_and_keeps_nothing() {
        let (s, registry) = session();
        registry.register_server(SimServer::new(VendorKind::MySql, "h", "m"));
        let url = "mysql://grid:grid@h:3306/m";
        assert_eq!(
            s.route(PER_QUERY, VendorKind::MySql, url, true),
            Route::Fresh
        );
        s.open_pool_handle(url).expect("handle");
        assert_eq!(
            s.route(PER_QUERY, VendorKind::MySql, url, true),
            Route::Pool
        );
        assert_eq!(
            s.route(PER_QUERY, VendorKind::MySql, url, false),
            Route::Fresh
        );
        assert!(s
            .link(PER_QUERY, url, true)
            .expect("pooled")
            .connect_cost
            .is_none());
        for _ in 0..2 {
            assert!(s
                .link(PER_QUERY, url, false)
                .expect("fresh")
                .connect_cost
                .is_some());
        }
        // The other arm reads per-table fetches through the handle too.
        let (s, registry) = session();
        registry.register_server(SimServer::new(VendorKind::MySql, "h", "m"));
        assert_eq!(s.route(KEEP, VendorKind::MySql, url, false), Route::Pool);
        let opened = s.link(KEEP, url, false).expect("opens the handle");
        assert!(opened.connect_cost.is_some());
        assert!(s
            .link(KEEP, url, false)
            .expect("pooled")
            .connect_cost
            .is_none());
    }
}

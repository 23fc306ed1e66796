//! Driver dispatch: the `DriverManager` of the simulated grid.
//!
//! The Upper-Level XSpec stores, for every federated database, its
//! connection URL and driver name; the Data Access Service resolves those
//! through this registry at query time (and at runtime for plug-in
//! databases).

use crate::connstr::ConnectionString;
use crate::error::VendorError;
use crate::kind::VendorKind;
use crate::server::{Connection, SimServer};
use crate::Result;
use gridfed_simnet::cost::Timed;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A database driver: knows how to turn a connection string into a live
/// connection against the registered servers.
pub trait Driver: Send + Sync {
    /// The vendor this driver serves.
    fn vendor(&self) -> VendorKind;
    /// Open a connection.
    fn connect(
        &self,
        conn: &ConnectionString,
        registry: &DriverRegistry,
    ) -> Result<Timed<Connection>>;
}

/// Default driver implementation, shared by all four vendors: looks the
/// server up by (host, database) and authenticates.
struct VendorDriver {
    vendor: VendorKind,
}

impl Driver for VendorDriver {
    fn vendor(&self) -> VendorKind {
        self.vendor
    }

    fn connect(
        &self,
        conn: &ConnectionString,
        registry: &DriverRegistry,
    ) -> Result<Timed<Connection>> {
        if conn.vendor != self.vendor {
            return Err(VendorError::BadConnectionString {
                vendor: self.vendor.name().to_string(),
                detail: format!("string is for {}", conn.vendor),
            });
        }
        let (host, database) = server_address(conn);
        let server = registry.lookup(&host, &database)?;
        if server.kind() != self.vendor {
            return Err(VendorError::BadConnectionString {
                vendor: self.vendor.name().to_string(),
                detail: format!(
                    "server {host}/{database} is {}, not {}",
                    server.kind(),
                    self.vendor
                ),
            });
        }
        // SQLite files carry no credentials; local file access implies the
        // default account.
        if self.vendor == VendorKind::Sqlite && conn.user.is_empty() {
            return server.connect("grid", "grid");
        }
        server.connect(&conn.user, &conn.password)
    }
}

/// The (host, database) registry address behind a connection string.
///
/// Networked vendors address servers directly; SQLite "connects" to a file
/// whose conventional path is `/{host}/{database}.db` — the file lives on
/// the node that mounts it, which is how the simulation places a
/// disconnected-analysis mart on a laptop node.
pub fn server_address(conn: &ConnectionString) -> (String, String) {
    if conn.vendor != VendorKind::Sqlite {
        return (conn.host.clone(), conn.database.clone());
    }
    let path = conn.database.trim_start_matches('/');
    match path.split_once('/') {
        Some((host, file)) => (host.to_string(), file.trim_end_matches(".db").to_string()),
        None => (
            "localfile".to_string(),
            path.trim_end_matches(".db").to_string(),
        ),
    }
}

/// Registry of drivers and reachable servers.
///
/// Shared (behind `Arc`) by every Clarens server in a simulation so that
/// plug-in registrations are visible grid-wide, like a DNS + DriverManager
/// pair.
pub struct DriverRegistry {
    drivers: RwLock<HashMap<VendorKind, Arc<dyn Driver>>>,
    servers: RwLock<HashMap<(String, String), Arc<SimServer>>>,
    /// Bumped by every `install` and `register_server`: whoever keeps a
    /// connection open stamps it with the generation it was opened under.
    generation: AtomicU64,
}

impl Default for DriverRegistry {
    fn default() -> Self {
        Self::with_standard_drivers()
    }
}

impl DriverRegistry {
    /// An empty registry (no drivers — connections will fail).
    pub fn empty() -> DriverRegistry {
        DriverRegistry {
            drivers: RwLock::new(HashMap::new()),
            servers: RwLock::new(HashMap::new()),
            generation: AtomicU64::new(0),
        }
    }

    /// How many times a driver was installed or a server (re)registered.
    /// A connection opened under an older generation may have come from a
    /// driver, or reach a server instance, this registry no longer hands
    /// out: reopen it rather than trust it.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// A registry with all four vendor drivers installed.
    pub fn with_standard_drivers() -> DriverRegistry {
        let reg = DriverRegistry::empty();
        for vendor in VendorKind::ALL {
            reg.install(Arc::new(VendorDriver { vendor }));
        }
        reg
    }

    /// Install (or replace) a driver.
    pub fn install(&self, driver: Arc<dyn Driver>) {
        self.drivers.write().insert(driver.vendor(), driver);
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// Make a server reachable under its (host, database) address.
    pub fn register_server(&self, server: Arc<SimServer>) {
        self.servers.write().insert(
            (server.host().to_string(), server.db_name().to_string()),
            server,
        );
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// Find a server by address.
    pub fn lookup(&self, host: &str, database: &str) -> Result<Arc<SimServer>> {
        self.servers
            .read()
            .get(&(host.to_string(), database.to_string()))
            .cloned()
            .ok_or_else(|| VendorError::UnknownServer(format!("{host}/{database}")))
    }

    /// All registered servers.
    pub fn servers(&self) -> Vec<Arc<SimServer>> {
        self.servers.read().values().cloned().collect()
    }

    /// Open a connection from a raw connection string: parse, pick the
    /// driver by scheme, dispatch.
    pub fn connect(&self, raw: &str) -> Result<Timed<Connection>> {
        let conn = ConnectionString::parse(raw)?;
        self.connect_parsed(&conn)
    }

    /// Open a connection from an already-parsed string.
    pub fn connect_parsed(&self, conn: &ConnectionString) -> Result<Timed<Connection>> {
        let driver = self
            .drivers
            .read()
            .get(&conn.vendor)
            .cloned()
            .ok_or_else(|| VendorError::NoDriver(conn.vendor.scheme().to_string()))?;
        driver.connect(conn, self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_connect_via_string() {
        let reg = DriverRegistry::with_standard_drivers();
        let server = SimServer::new(VendorKind::MySql, "tier2.caltech", "ntuples");
        server.add_user("cms", "pw");
        reg.register_server(server);
        let conn = reg
            .connect("mysql://cms:pw@tier2.caltech:3306/ntuples")
            .unwrap()
            .value;
        assert_eq!(conn.vendor(), VendorKind::MySql);
    }

    #[test]
    fn unknown_server_fails() {
        let reg = DriverRegistry::with_standard_drivers();
        assert!(matches!(
            reg.connect("mysql://u:p@nowhere:3306/db"),
            Err(VendorError::UnknownServer(_))
        ));
    }

    #[test]
    fn empty_registry_has_no_drivers() {
        let reg = DriverRegistry::empty();
        assert!(matches!(
            reg.connect("mysql://u:p@h:3306/db"),
            Err(VendorError::NoDriver(_))
        ));
    }

    #[test]
    fn vendor_mismatch_detected() {
        let reg = DriverRegistry::with_standard_drivers();
        // Register an Oracle server, then address it with a MySQL URL on
        // the same host/db pair.
        let server = SimServer::new(VendorKind::Oracle, "h", "db");
        reg.register_server(server);
        assert!(matches!(
            reg.connect("mysql://grid:grid@h:3306/db"),
            Err(VendorError::BadConnectionString { .. })
        ));
    }

    #[test]
    fn servers_listing() {
        let reg = DriverRegistry::with_standard_drivers();
        reg.register_server(SimServer::new(VendorKind::Sqlite, "laptop", "a"));
        reg.register_server(SimServer::new(VendorKind::MySql, "t2", "b"));
        assert_eq!(reg.servers().len(), 2);
    }
}

#![warn(missing_docs)]
//! # gridfed-poolral
//!
//! The POOL Relational Abstraction Layer path (paper §4.7).
//!
//! POOL-RAL is CERN's vendor-neutral relational access library (C++). The
//! paper wraps it in JNI for the Java-based JClarens service and routes
//! queries for POOL-supported backends (Oracle, MySQL, SQLite — not MS-SQL)
//! through it. Its defining limitation, kept faithfully here: *"POOL
//! provides access to tables within one database at a time ... and does not
//! allow parallel execution of a query on multiple databases."*
//!
//! The JNI wrapper exposed exactly two methods, mirrored by
//! [`PoolRal::initialize`] and [`PoolRal::execute`]:
//!
//! 1. initialize a service handler for a new database (connection string +
//!    username + password), adding it to a list of open handles;
//! 2. execute (connection string, select fields, table names, WHERE
//!    clause) → a 2-D array of results.
//!
//! Because handles are pooled, repeat queries through POOL-RAL skip the
//! connection-establishment cost — this is why the paper's local
//! single-table query (Table 1, row 1) runs in 38 ms while distributed
//! queries that open fresh connections pay >10× more.

use gridfed_simnet::cost::{Cost, Timed};
use gridfed_sqlkit::ast::SelectStmt;
use gridfed_sqlkit::parser;
use gridfed_sqlkit::{ResultSet, SqlError};
use gridfed_vendors::{Connection, ConnectionString, DriverRegistry, VendorError};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Errors from the POOL-RAL path.
#[derive(Debug, Clone, PartialEq)]
pub enum PoolError {
    /// Backend not supported by the POOL libraries (MS-SQL).
    Unsupported(String),
    /// No handle initialized for this connection string.
    NoHandle(String),
    /// A query referenced tables outside the handle's database — POOL
    /// accesses one database at a time.
    CrossDatabase(String),
    /// Vendor-layer failure.
    Vendor(VendorError),
    /// SQL failure.
    Sql(SqlError),
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::Unsupported(v) => write!(f, "POOL-RAL does not support {v}"),
            PoolError::NoHandle(c) => write!(f, "no POOL handle initialized for `{c}`"),
            PoolError::CrossDatabase(m) => write!(f, "POOL-RAL is single-database: {m}"),
            PoolError::Vendor(e) => write!(f, "vendor error: {e}"),
            PoolError::Sql(e) => write!(f, "SQL error: {e}"),
        }
    }
}

impl std::error::Error for PoolError {}

impl From<VendorError> for PoolError {
    fn from(e: VendorError) -> Self {
        PoolError::Vendor(e)
    }
}
impl From<SqlError> for PoolError {
    fn from(e: SqlError) -> Self {
        PoolError::Sql(e)
    }
}

/// Result alias.
pub type Result<T> = std::result::Result<T, PoolError>;

/// Cost of crossing the Java↔C++ JNI boundary once (call + argument
/// marshalling).
pub const JNI_CALL: Cost = Cost::from_micros(120);
/// Per-cell cost of marshalling the 2-D result array back through JNI.
pub const JNI_PER_CELL: Cost = Cost::from_micros(2);

/// The JNI-wrapped POOL-RAL service.
pub struct PoolRal {
    registry: Arc<DriverRegistry>,
    /// connection string → pooled handle.
    handles: Mutex<HashMap<String, Connection>>,
}

impl PoolRal {
    /// New POOL-RAL service over a driver registry.
    pub fn new(registry: Arc<DriverRegistry>) -> PoolRal {
        PoolRal {
            registry,
            handles: Mutex::new(HashMap::new()),
        }
    }

    /// Number of pooled handles.
    pub fn handle_count(&self) -> usize {
        self.handles.lock().len()
    }

    /// True if a handle exists for this connection string.
    pub fn has_handle(&self, connstr: &str) -> bool {
        self.handles.lock().contains_key(connstr)
    }

    /// The pooled handle's connection (a clone per use), if one is open.
    pub fn handle(&self, connstr: &str) -> Option<Connection> {
        self.handles.lock().get(connstr).cloned()
    }

    /// Drop the handle for this connection string; returns whether one was
    /// open. The next [`PoolRal::initialize`] reconnects.
    pub fn close(&self, connstr: &str) -> bool {
        self.handles.lock().remove(connstr).is_some()
    }

    /// JNI method 1: initialize a service handler for a new database and
    /// add it to the handle list. Re-initializing an existing handle is a
    /// cheap no-op (the handle list is consulted first).
    pub fn initialize(&self, connstr: &str, user: &str, password: &str) -> Result<Timed<()>> {
        if self.has_handle(connstr) {
            return Ok(Timed::new((), JNI_CALL));
        }
        let parsed = ConnectionString::parse(connstr)?;
        if !parsed.vendor.pool_supported() {
            return Err(PoolError::Unsupported(parsed.vendor.name().to_string()));
        }
        // The paper's wrapper takes explicit credentials alongside the
        // connection string; honour them over any embedded ones.
        let mut with_creds = parsed.clone();
        with_creds.user = user.to_string();
        with_creds.password = password.to_string();
        let conn = self.registry.connect_parsed(&with_creds)?;
        self.handles.lock().insert(connstr.to_string(), conn.value);
        Ok(Timed::new((), JNI_CALL + conn.cost))
    }

    /// JNI method 2: execute a query described by (select fields, table
    /// names, WHERE clause) against the database behind `connstr`, and
    /// return a 2-D array of rendered strings.
    pub fn execute(
        &self,
        connstr: &str,
        select_fields: &[String],
        tables: &[String],
        where_clause: &str,
    ) -> Result<Timed<Vec<Vec<String>>>> {
        let timed = self.execute_typed(connstr, select_fields, tables, where_clause)?;
        let cells = timed.value.rows.len() * timed.value.columns.len().max(1);
        let grid = timed.value.to_vector();
        Ok(Timed::new(
            grid,
            timed.cost + JNI_CALL + JNI_PER_CELL.scale(cells as f64),
        ))
    }

    /// Typed variant of [`PoolRal::execute`] used inside the mediator
    /// (skips the string rendering but keeps the JNI call cost).
    pub fn execute_typed(
        &self,
        connstr: &str,
        select_fields: &[String],
        tables: &[String],
        where_clause: &str,
    ) -> Result<Timed<ResultSet>> {
        if tables.is_empty() {
            return Err(PoolError::Sql(SqlError::Unsupported(
                "POOL execute requires at least one table".into(),
            )));
        }
        let conn = self
            .handle(connstr)
            .ok_or_else(|| PoolError::NoHandle(connstr.to_string()))?;

        // Single-database check: every table must exist in the handle's
        // database (POOL cannot reach across databases).
        for t in tables {
            let present = conn.server().with_db(|db| db.has_table(t));
            if !present {
                return Err(PoolError::CrossDatabase(format!(
                    "table `{t}` is not in database `{}`",
                    conn.server().db_name()
                )));
            }
        }

        let stmt = build_select(select_fields, tables, where_clause)?;
        let timed = conn.query_stmt(&stmt)?;
        Ok(Timed::new(timed.value, timed.cost + JNI_CALL))
    }

    /// Execute an already-parsed single-table SELECT through a pooled
    /// handle (the Data Access Service's POOL fast path).
    pub fn execute_stmt(&self, connstr: &str, stmt: &SelectStmt) -> Result<Timed<ResultSet>> {
        let conn = self
            .handle(connstr)
            .ok_or_else(|| PoolError::NoHandle(connstr.to_string()))?;
        PoolRal::execute_on(&conn, stmt)
    }

    /// [`PoolRal::execute_stmt`] on a handle's connection the caller already
    /// holds (the clone [`PoolRal::handle`] gave it): same single-database
    /// check, same JNI call — and unaffected by the handle being closed or
    /// reopened while the caller's statements run.
    pub fn execute_on(conn: &Connection, stmt: &SelectStmt) -> Result<Timed<ResultSet>> {
        if stmt.table_refs().len() > 1 {
            // Multiple tables are fine only if all live in this database.
            for t in stmt.table_refs() {
                if !conn.server().with_db(|db| db.has_table(&t.name)) {
                    return Err(PoolError::CrossDatabase(format!(
                        "table `{}` is not in database `{}`",
                        t.name,
                        conn.server().db_name()
                    )));
                }
            }
        }
        let timed = conn.query_stmt(stmt)?;
        Ok(Timed::new(timed.value, timed.cost + JNI_CALL))
    }
}

/// Assemble a SELECT from the wrapper's (fields, tables, where) triple.
fn build_select(
    select_fields: &[String],
    tables: &[String],
    where_clause: &str,
) -> Result<SelectStmt> {
    let fields = if select_fields.is_empty() {
        "*".to_string()
    } else {
        select_fields.join(", ")
    };
    let mut sql = format!("SELECT {fields} FROM {}", tables.join(", "));
    let trimmed = where_clause.trim();
    if !trimmed.is_empty() {
        sql.push_str(" WHERE ");
        sql.push_str(trimmed);
    }
    Ok(parser::parse_select(&sql)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridfed_vendors::{SimServer, VendorKind};

    fn setup() -> (Arc<DriverRegistry>, String) {
        let registry = Arc::new(DriverRegistry::with_standard_drivers());
        let server = SimServer::new(VendorKind::MySql, "t2", "mart1");
        let conn = server.connect("grid", "grid").unwrap().value;
        conn.execute("CREATE TABLE events (e_id INT PRIMARY KEY, energy FLOAT)")
            .unwrap();
        conn.execute("INSERT INTO events (e_id, energy) VALUES (1, 5.0), (2, 15.0), (3, 25.0)")
            .unwrap();
        registry.register_server(server);
        (registry, "mysql://grid:grid@t2:3306/mart1".to_string())
    }

    #[test]
    fn initialize_then_execute() {
        let (reg, url) = setup();
        let pool = PoolRal::new(reg);
        pool.initialize(&url, "grid", "grid").unwrap();
        assert_eq!(pool.handle_count(), 1);
        let out = pool
            .execute(
                &url,
                &["e_id".into(), "energy".into()],
                &["events".into()],
                "energy > 10.0",
            )
            .unwrap();
        // header + 2 data rows
        assert_eq!(out.value.len(), 3);
        assert_eq!(out.value[0], vec!["e_id", "energy"]);
        assert_eq!(out.value[1], vec!["2", "15.0"]);
    }

    #[test]
    fn execute_without_handle_fails() {
        let (reg, url) = setup();
        let pool = PoolRal::new(reg);
        assert!(matches!(
            pool.execute(&url, &[], &["events".into()], ""),
            Err(PoolError::NoHandle(_))
        ));
    }

    #[test]
    fn reinitialize_is_cheap_noop() {
        let (reg, url) = setup();
        let pool = PoolRal::new(reg);
        let first = pool.initialize(&url, "grid", "grid").unwrap().cost;
        let second = pool.initialize(&url, "grid", "grid").unwrap().cost;
        assert!(second < first, "pooled handle must skip reconnection");
        assert_eq!(pool.handle_count(), 1);
    }

    #[test]
    fn a_closed_handle_is_gone_until_reinitialized() {
        let (reg, url) = setup();
        let pool = PoolRal::new(reg);
        let first = pool.initialize(&url, "grid", "grid").unwrap().cost;
        assert!(pool.handle(&url).is_some());
        assert!(pool.close(&url));
        assert!(!pool.close(&url), "nothing left to close");
        assert!(pool.handle(&url).is_none());
        assert!(matches!(
            pool.execute(&url, &[], &["events".into()], ""),
            Err(PoolError::NoHandle(_))
        ));
        let again = pool.initialize(&url, "grid", "grid").unwrap().cost;
        assert_eq!(again, first, "a reopened handle pays the handshake again");
    }

    #[test]
    fn mssql_unsupported() {
        let reg = Arc::new(DriverRegistry::with_standard_drivers());
        reg.register_server(SimServer::new(VendorKind::MsSql, "h", "m"));
        let pool = PoolRal::new(reg);
        assert!(matches!(
            pool.initialize(
                "mssql://h:1433;database=m;user=grid;password=grid",
                "grid",
                "grid"
            ),
            Err(PoolError::Unsupported(_))
        ));
    }

    #[test]
    fn cross_database_table_rejected() {
        let (reg, url) = setup();
        let pool = PoolRal::new(reg);
        pool.initialize(&url, "grid", "grid").unwrap();
        assert!(matches!(
            pool.execute(&url, &[], &["othertable".into()], ""),
            Err(PoolError::CrossDatabase(_))
        ));
    }

    #[test]
    fn bad_credentials_fail_initialize() {
        let (reg, url) = setup();
        let pool = PoolRal::new(reg);
        assert!(matches!(
            pool.initialize(&url, "grid", "wrong"),
            Err(PoolError::Vendor(VendorError::AuthFailed { .. }))
        ));
    }

    #[test]
    fn empty_fields_means_star_and_empty_where_is_ok() {
        let (reg, url) = setup();
        let pool = PoolRal::new(reg);
        pool.initialize(&url, "grid", "grid").unwrap();
        let out = pool.execute(&url, &[], &["events".into()], "  ").unwrap();
        assert_eq!(out.value.len(), 4);
    }

    #[test]
    fn jni_cost_charged_per_cell() {
        let (reg, url) = setup();
        let pool = PoolRal::new(reg);
        pool.initialize(&url, "grid", "grid").unwrap();
        let narrow = pool
            .execute(&url, &["e_id".into()], &["events".into()], "")
            .unwrap()
            .cost;
        let wide = pool
            .execute(&url, &[], &["events".into()], "")
            .unwrap()
            .cost;
        assert!(wide > narrow, "more cells, more JNI marshalling");
    }
}

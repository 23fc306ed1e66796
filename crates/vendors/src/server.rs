//! Simulated vendor database servers and connections.

use crate::dialect::{dialect_for, Dialect};
use crate::error::VendorError;
use crate::kind::VendorKind;
use crate::Result;
use gridfed_faults::{FaultPlan, Injected};
use gridfed_simnet::cost::Timed;
use gridfed_simnet::params::CostParams;
use gridfed_sqlkit::ast::Statement;
use gridfed_sqlkit::exec::{execute_select, DatabaseProvider};
use gridfed_sqlkit::render::render_select;
use gridfed_sqlkit::ResultSet;
use gridfed_storage::{ColumnDef, Database, Row, Schema, Value, WalRecord};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// Catalog metadata for one table, in the vendor's own vocabulary — what a
/// real driver reads from `ALL_TAB_COLUMNS` / `information_schema`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableInfo {
    /// Name.
    pub name: String,
    /// (column name, vendor type name, nullable, unique)
    pub columns: Vec<(String, String, bool, bool)>,
    /// Live rows at introspection time.
    pub row_count: usize,
}

/// One pull of a server's write-ahead log: the records past the
/// subscriber's acknowledged LSN (possibly capped), plus the head LSN at
/// read time so the subscriber can compute its own lag even when the
/// batch was capped or empty.
#[derive(Debug, Clone, PartialEq)]
pub struct WalBatch {
    /// Records with `lsn > since`, oldest first.
    pub records: Vec<WalRecord>,
    /// The server's highest LSN at read time.
    pub head_lsn: u64,
}

/// A simulated database server: one vendor product hosting one database on
/// one topology node.
#[derive(Debug)]
pub struct SimServer {
    kind: VendorKind,
    host: String,
    db_name: String,
    users: RwLock<HashMap<String, String>>,
    db: RwLock<Database>,
    params: CostParams,
    faults: RwLock<Option<Arc<FaultPlan>>>,
}

impl SimServer {
    /// Create a server with the paper-2005 cost profile and a default
    /// `grid`/`grid` account.
    pub fn new(kind: VendorKind, host: impl Into<String>, db_name: impl Into<String>) -> Arc<Self> {
        let db_name = db_name.into();
        let mut users = HashMap::new();
        users.insert("grid".to_string(), "grid".to_string());
        Arc::new(SimServer {
            kind,
            host: host.into(),
            db_name: db_name.clone(),
            users: RwLock::new(users),
            db: RwLock::new(Database::new(db_name)),
            params: CostParams::paper_2005(),
            faults: RwLock::new(None),
        })
    }

    /// Install a fault plan; every subsequent connect/query/DML consults
    /// it. Matched against the database name, host, and `host/db`.
    pub fn set_fault_plan(&self, plan: Arc<FaultPlan>) {
        *self.faults.write() = Some(plan);
    }

    /// Remove any installed fault plan.
    pub fn clear_fault_plan(&self) {
        *self.faults.write() = None;
    }

    /// Consult the fault plan for one operation: `Err` when the plan says
    /// this operation fails, otherwise the slow factor to apply to its
    /// virtual cost.
    fn fault_check(&self) -> Result<f64> {
        let guard = self.faults.read();
        let Some(plan) = guard.as_ref() else {
            return Ok(1.0);
        };
        let host_db = format!("{}/{}", self.host, self.db_name);
        let check = plan.check_op(&[&self.db_name, &self.host, &host_db]);
        match check.fault {
            Some(Injected::Crash) => Err(VendorError::Unavailable {
                server: self.db_name.clone(),
            }),
            Some(Injected::Transient) => Err(VendorError::Transient {
                server: self.db_name.clone(),
            }),
            None => Ok(check.slow_factor),
        }
    }

    /// Vendor product.
    pub fn kind(&self) -> VendorKind {
        self.kind
    }

    /// Topology node hosting the server.
    pub fn host(&self) -> &str {
        &self.host
    }

    /// Database name.
    pub fn db_name(&self) -> &str {
        &self.db_name
    }

    /// The server's dialect.
    pub fn dialect(&self) -> Dialect {
        dialect_for(self.kind)
    }

    /// Cost model in effect.
    pub fn params(&self) -> &CostParams {
        &self.params
    }

    /// Add a user account.
    pub fn add_user(&self, user: impl Into<String>, password: impl Into<String>) {
        self.users.write().insert(user.into(), password.into());
    }

    /// Open an authenticated connection. Charges the vendor-weighted
    /// connect + auth cost — the dominant term in the paper's >10×
    /// distributed-query penalty.
    pub fn connect(self: &Arc<Self>, user: &str, password: &str) -> Result<Timed<Connection>> {
        let slow = self.fault_check()?;
        let cost = (self.params.db_connect.scale(self.kind.connect_multiplier())
            + self.params.db_auth)
            .scale(slow);
        let ok = self.users.read().get(user).is_some_and(|p| p == password);
        if !ok {
            return Err(VendorError::AuthFailed {
                user: user.to_string(),
            });
        }
        Ok(Timed::new(
            Connection {
                server: Arc::clone(self),
                open: true,
            },
            cost,
        ))
    }

    /// Consult the fault plan exactly as the driver paths do, without
    /// running an operation: `Err` when the server is down for this
    /// instant, otherwise the slow factor in effect. Replication streams
    /// probe this so crash windows stall replay like they stall queries.
    pub fn fault_probe(&self) -> Result<f64> {
        self.fault_check()
    }

    /// Direct read access for tests and in-process tooling (bypasses the
    /// driver path; charges nothing).
    pub fn with_db<R>(&self, f: impl FnOnce(&Database) -> R) -> R {
        f(&self.db.read())
    }

    /// Direct write access for fixtures (bypasses the driver path).
    pub fn with_db_mut<R>(&self, f: impl FnOnce(&mut Database) -> R) -> R {
        f(&mut self.db.write())
    }
}

/// An open, authenticated connection to a [`SimServer`].
#[derive(Debug, Clone)]
pub struct Connection {
    server: Arc<SimServer>,
    open: bool,
}

impl Connection {
    /// The server this connection targets.
    pub fn server(&self) -> &Arc<SimServer> {
        &self.server
    }

    /// Vendor product at the other end.
    pub fn vendor(&self) -> VendorKind {
        self.server.kind
    }

    /// Close the connection; further calls fail.
    pub fn close(&mut self) {
        self.open = false;
    }

    fn check_open(&self) -> Result<()> {
        if self.open {
            Ok(())
        } else {
            Err(VendorError::ConnectionClosed)
        }
    }

    /// Execute a SQL text query. The text must conform to this vendor's
    /// dialect (quoting style, LIMIT availability) or the server rejects it
    /// before parsing — real-driver behaviour the mediator must respect.
    pub fn query(&self, sql: &str) -> Result<Timed<ResultSet>> {
        self.check_open()?;
        let dialect = self.server.dialect();
        dialect.check_text(sql)?;
        let stmt = gridfed_sqlkit::parser::parse(sql)?;
        match stmt {
            Statement::Select(sel) => self.run_select(&sel),
            _ => Err(VendorError::Sql(gridfed_sqlkit::SqlError::Unsupported(
                "query() only accepts SELECT; use execute()".into(),
            ))),
        }
    }

    /// Render a SELECT in this vendor's dialect and execute it. This is the
    /// path the mediator uses for sub-queries: AST in, dialect text on the
    /// wire, result + cost out.
    pub fn query_stmt(&self, stmt: &gridfed_sqlkit::ast::SelectStmt) -> Result<Timed<ResultSet>> {
        self.check_open()?;
        let text = render_select(stmt, &self.server.dialect().style());
        // The rendered text must pass the vendor's own dialect check.
        self.server.dialect().check_text(&text)?;
        let mut timed = self.run_select(stmt)?;
        // MS-SQL has no LIMIT: the renderer omitted it, so a real server
        // would return the full result; emulate by applying the limit
        // client-side and charging for the extra fetched rows.
        if !self.server.dialect().style_supports_limit() {
            if let Some(limit) = stmt.limit {
                let extra = timed.value.rows.len().saturating_sub(limit as usize);
                timed.value.rows.truncate(limit as usize);
                timed.cost += self.server.params.per_row_fetch.scale(extra as f64);
            }
        }
        Ok(timed)
    }

    fn run_select(&self, sel: &gridfed_sqlkit::ast::SelectStmt) -> Result<Timed<ResultSet>> {
        let slow = self.server.fault_check()?;
        let db = self.server.db.read();
        let result = execute_select(sel, &DatabaseProvider(&db))?;
        // Rows examined: sum of the cardinalities of every referenced table
        // (the engine scans; indexes are a mart-local optimization modeled
        // in the ablation bench).
        let scanned: usize = sel
            .table_refs()
            .iter()
            .map(|t| db.table(&t.name).map(|tb| tb.len()).unwrap_or(0))
            .sum();
        let p = &self.server.params;
        let perf = self.server.kind.perf_multiplier();
        let cost = (p.per_subquery
            + p.per_row_scan.scale(scanned as f64)
            + p.per_row_fetch.scale(result.rows.len() as f64))
        .scale(perf)
        .scale(slow);
        Ok(Timed::new(result, cost))
    }

    /// Execute DDL / DML text (CREATE TABLE, INSERT).
    pub fn execute(&self, sql: &str) -> Result<Timed<usize>> {
        self.check_open()?;
        let slow = self.server.fault_check()?;
        self.server.dialect().check_text(sql)?;
        let stmt = gridfed_sqlkit::parser::parse(sql)?;
        let mut db = self.server.db.write();
        let (n, cost) = apply_statement(&mut db, stmt, &self.server.params)?;
        Ok(Timed::new(n, cost.scale(slow)))
    }

    /// Execute several DDL/DML statements **atomically**: either every
    /// statement applies or none does (autocommit off, one commit at the
    /// end — the transactional mode the paper's OLTP warehouse loads
    /// used). Implemented as copy-on-write: the statements run against a
    /// snapshot that replaces the live database only on full success.
    pub fn execute_atomic(&self, sqls: &[&str]) -> Result<Timed<usize>> {
        self.check_open()?;
        self.server.fault_check()?;
        for sql in sqls {
            self.server.dialect().check_text(sql)?;
        }
        let mut db = self.server.db.write();
        let mut snapshot = db.clone();
        let mut affected = 0usize;
        let mut cost = self.server.params.per_subquery; // BEGIN
        for sql in sqls {
            let stmt = gridfed_sqlkit::parser::parse(sql)?;
            let (n, c) = apply_statement(&mut snapshot, stmt, &self.server.params)?;
            affected += n;
            cost += c;
        }
        cost += self.server.params.per_subquery; // COMMIT
        *db = snapshot;
        Ok(Timed::new(affected, cost))
    }

    /// Bulk-insert pre-built rows (the ETL fast path; streaming costs are
    /// charged by the warehouse layer, not here). Routed through
    /// [`Database::append_rows`] so a WAL-enabled database logs the batch
    /// in the same lock section as the insert.
    pub fn insert_rows(&self, table: &str, rows: Vec<Vec<Value>>) -> Result<Timed<usize>> {
        self.check_open()?;
        let mut db = self.server.db.write();
        let n = db.append_rows(table, rows)?;
        Ok(Timed::new(n, self.server.params.per_subquery))
    }

    /// Pull a batch of WAL records past `since` — the log-shipping
    /// primitive a replication stream drives. Fault-checked like any
    /// other driver operation; the per-record fetch cost scales with the
    /// rows the batch carries (network transfer is charged by the caller,
    /// which knows the link). Returns the batch plus the server's current
    /// head LSN so the subscriber can measure its own lag. A `since` below
    /// the log's checkpoint is `VendorError::Storage(WalTruncated)`.
    pub fn pull_wal(&self, since: u64, max: usize) -> Result<Timed<WalBatch>> {
        self.check_open()?;
        let slow = self.server.fault_check()?;
        let db = self.server.db.read();
        let records = db.wal_records_since(since, max)?;
        let head_lsn = db.wal_head_lsn();
        drop(db);
        let carried_rows: usize = records.iter().map(|r| r.op.row_count()).sum();
        let p = &self.server.params;
        let cost = (p.per_subquery + p.per_row_fetch.scale(carried_rows as f64))
            .scale(self.server.kind.perf_multiplier())
            .scale(slow);
        Ok(Timed::new(WalBatch { records, head_lsn }, cost))
    }

    /// Fetch all rows of a table (ETL extraction primitive).
    pub fn dump_table(&self, table: &str) -> Result<Timed<Vec<Row>>> {
        self.check_open()?;
        let slow = self.server.fault_check()?;
        let db = self.server.db.read();
        let t = db.table(table)?;
        let rows = t.rows();
        let cost = self
            .server
            .params
            .per_row_fetch
            .scale(rows.len() as f64)
            .scale(self.server.kind.perf_multiplier())
            .scale(slow);
        Ok(Timed::new(rows, cost))
    }

    /// Introspect the server catalog — table names, vendor-typed columns,
    /// row counts. This is what the XSpec generator consumes.
    pub fn introspect(&self) -> Result<Timed<Vec<TableInfo>>> {
        self.check_open()?;
        let db = self.server.db.read();
        let dialect = self.server.dialect();
        let mut out = Vec::new();
        for name in db.table_names() {
            let t = db.table(&name).expect("listed table exists");
            let columns = t
                .schema()
                .columns()
                .iter()
                .map(|c| {
                    (
                        c.name.clone(),
                        dialect.type_name(c.data_type).to_string(),
                        c.nullable,
                        c.unique,
                    )
                })
                .collect();
            out.push(TableInfo {
                name,
                columns,
                row_count: t.len(),
            });
        }
        let cost = self
            .server
            .params
            .per_subquery
            .scale(out.len().max(1) as f64);
        Ok(Timed::new(out, cost))
    }
}

/// Apply one DDL/DML statement to a database, returning (rows affected,
/// virtual cost). Shared by autocommit `execute` and `execute_atomic`.
fn apply_statement(
    db: &mut Database,
    stmt: Statement,
    p: &CostParams,
) -> Result<(usize, gridfed_simnet::cost::Cost)> {
    match stmt {
        Statement::CreateTable(ct) => {
            let mut cols = Vec::with_capacity(ct.columns.len());
            for c in &ct.columns {
                let mut col = ColumnDef::new(c.name.clone(), c.data_type);
                if c.not_null {
                    col = col.not_null();
                }
                if c.unique {
                    col = col.unique();
                }
                cols.push(col);
            }
            let schema = Schema::new(cols)?;
            db.create_table(ct.name, schema)?;
            Ok((0, p.per_subquery))
        }
        Statement::Insert(ins) => {
            let schema = db.table(&ins.table)?.schema().clone();
            let mut batch = Vec::with_capacity(ins.rows.len());
            for row_exprs in &ins.rows {
                batch.push(reorder_insert_values(&schema, &ins.columns, row_exprs)?);
            }
            // append_rows logs the batch into the database's WAL (when
            // enabled) inside this same lock section.
            let inserted = db.append_rows(&ins.table, batch)?;
            Ok((
                inserted,
                p.per_subquery + p.per_row_fetch.scale(inserted as f64),
            ))
        }
        Statement::Update(u) => {
            let n = gridfed_sqlkit::exec::execute_update(&u, db)?;
            if n > 0 {
                // In-place mutations are the warehouse cold path: log the
                // table's post-state so replicas can rebuild it.
                db.log_snapshot(&u.table)?;
            }
            Ok((n, p.per_subquery + p.per_row_fetch.scale(n as f64)))
        }
        Statement::Delete(d) => {
            let n = gridfed_sqlkit::exec::execute_delete(&d, db)?;
            if n > 0 {
                db.log_snapshot(&d.table)?;
            }
            Ok((n, p.per_subquery + p.per_row_fetch.scale(n as f64)))
        }
        _ => Err(VendorError::Sql(gridfed_sqlkit::SqlError::Unsupported(
            "execute() accepts CREATE TABLE / INSERT / UPDATE / DELETE".into(),
        ))),
    }
}

/// Reorder INSERT values from the statement's column list into schema order,
/// filling unnamed columns with NULL.
fn reorder_insert_values(
    schema: &Schema,
    columns: &[String],
    exprs: &[gridfed_sqlkit::ast::Expr],
) -> Result<Vec<Value>> {
    use gridfed_sqlkit::ast::Expr;
    let literal = |e: &Expr| -> Result<Value> {
        match e {
            Expr::Literal(v) => Ok(v.clone()),
            other => Err(VendorError::Sql(gridfed_sqlkit::SqlError::Unsupported(
                format!("INSERT values must be literals, got {other:?}"),
            ))),
        }
    };
    if columns.is_empty() {
        return exprs.iter().map(literal).collect();
    }
    if columns.len() != exprs.len() {
        return Err(VendorError::Sql(gridfed_sqlkit::SqlError::Unsupported(
            "INSERT column/value count mismatch".into(),
        )));
    }
    let mut values = vec![Value::Null; schema.arity()];
    for (col, e) in columns.iter().zip(exprs) {
        let idx = schema.index_of(col).ok_or_else(|| {
            VendorError::Storage(gridfed_storage::StorageError::NoSuchColumn(col.clone()))
        })?;
        values[idx] = literal(e)?;
    }
    Ok(values)
}

// Small extension so `query_stmt` can ask about LIMIT support without
// re-deriving the style.
impl Dialect {
    /// Whether the dialect's rendering style emits LIMIT.
    pub fn style_supports_limit(&self) -> bool {
        use gridfed_sqlkit::render::SqlStyle;
        self.style().supports_limit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridfed_simnet::cost::Cost;
    use gridfed_sqlkit::parser::parse_select;

    fn fixture(kind: VendorKind) -> Arc<SimServer> {
        let server = SimServer::new(kind, "tier2.test", "ntuples");
        let conn = server.connect("grid", "grid").unwrap().value;
        conn.execute("CREATE TABLE events (e_id INT PRIMARY KEY, energy FLOAT, tag TEXT)")
            .unwrap();
        conn.execute(
            "INSERT INTO events (e_id, energy, tag) VALUES \
             (1, 10.5, 'ecal'), (2, 20.5, 'hcal'), (3, 30.5, 'ecal')",
        )
        .unwrap();
        server
    }

    #[test]
    fn auth_enforced() {
        let server = SimServer::new(VendorKind::MySql, "h", "db");
        assert!(matches!(
            server.connect("grid", "wrong"),
            Err(VendorError::AuthFailed { .. })
        ));
        server.add_user("cms", "pw");
        assert!(server.connect("cms", "pw").is_ok());
    }

    #[test]
    fn connect_cost_varies_by_vendor() {
        let oracle = SimServer::new(VendorKind::Oracle, "h", "d")
            .connect("grid", "grid")
            .unwrap()
            .cost;
        let sqlite = SimServer::new(VendorKind::Sqlite, "h", "d")
            .connect("grid", "grid")
            .unwrap()
            .cost;
        assert!(oracle > sqlite);
        assert!(oracle.as_millis_f64() > 100.0);
    }

    #[test]
    fn query_in_own_dialect_works() {
        let server = fixture(VendorKind::MySql);
        let conn = server.connect("grid", "grid").unwrap().value;
        let r = conn
            .query("SELECT `e_id` FROM `events` WHERE `energy` > 15.0")
            .unwrap();
        assert_eq!(r.value.len(), 2);
        assert!(r.cost > Cost::ZERO);
    }

    #[test]
    fn query_in_foreign_dialect_rejected() {
        let server = fixture(VendorKind::Oracle);
        let conn = server.connect("grid", "grid").unwrap().value;
        assert!(matches!(
            conn.query("SELECT `e_id` FROM events"),
            Err(VendorError::DialectViolation { .. })
        ));
        let server = fixture(VendorKind::MsSql);
        let conn = server.connect("grid", "grid").unwrap().value;
        assert!(conn.query("SELECT e_id FROM events LIMIT 1").is_err());
    }

    #[test]
    fn query_stmt_renders_and_respects_mssql_limit_emulation() {
        let server = fixture(VendorKind::MsSql);
        let conn = server.connect("grid", "grid").unwrap().value;
        let stmt = parse_select("SELECT e_id FROM events ORDER BY e_id LIMIT 2").unwrap();
        let r = conn.query_stmt(&stmt).unwrap();
        assert_eq!(r.value.len(), 2);
        assert_eq!(r.value.rows[0].values()[0], Value::Int(1));
    }

    #[test]
    fn closed_connection_fails() {
        let server = fixture(VendorKind::Sqlite);
        let mut conn = server.connect("grid", "grid").unwrap().value;
        conn.close();
        assert!(matches!(
            conn.query("SELECT e_id FROM events"),
            Err(VendorError::ConnectionClosed)
        ));
    }

    #[test]
    fn introspection_reports_vendor_types() {
        let server = fixture(VendorKind::Oracle);
        let conn = server.connect("grid", "grid").unwrap().value;
        let info = conn.introspect().unwrap().value;
        assert_eq!(info.len(), 1);
        assert_eq!(info[0].name, "events");
        assert_eq!(info[0].row_count, 3);
        let (name, ty, _, unique) = &info[0].columns[0];
        assert_eq!(name, "e_id");
        assert_eq!(ty, "NUMBER(19)");
        assert!(*unique);
        let (_, en_ty, _, _) = &info[0].columns[1];
        assert_eq!(en_ty, "BINARY_DOUBLE");
    }

    #[test]
    fn insert_with_column_reorder_and_null_fill() {
        let server = fixture(VendorKind::MySql);
        let conn = server.connect("grid", "grid").unwrap().value;
        conn.execute("INSERT INTO events (tag, e_id) VALUES ('late', 9)")
            .unwrap();
        let r = conn
            .query("SELECT tag, energy FROM events WHERE e_id = 9")
            .unwrap();
        assert_eq!(r.value.rows[0].values()[0], Value::Text("late".into()));
        assert!(r.value.rows[0].values()[1].is_null());
    }

    #[test]
    fn dump_and_bulk_insert() {
        let server = fixture(VendorKind::MySql);
        let conn = server.connect("grid", "grid").unwrap().value;
        let rows = conn.dump_table("events").unwrap().value;
        assert_eq!(rows.len(), 3);
        let dest = SimServer::new(VendorKind::Sqlite, "laptop", "local");
        let dconn = dest.connect("grid", "grid").unwrap().value;
        dconn
            .execute("CREATE TABLE events (e_id INT, energy FLOAT, tag TEXT)")
            .unwrap();
        let n = dconn
            .insert_rows("events", rows.into_iter().map(Row::into_values).collect())
            .unwrap()
            .value;
        assert_eq!(n, 3);
        assert_eq!(dest.with_db(|db| db.total_rows()), 3);
    }

    #[test]
    fn atomic_batch_is_all_or_nothing() {
        let server = fixture(VendorKind::MySql);
        let conn = server.connect("grid", "grid").unwrap().value;

        // Success: both statements apply.
        let n = conn
            .execute_atomic(&[
                "INSERT INTO `events` (`e_id`, `energy`, `tag`) VALUES (10, 1.0, 'a')",
                "UPDATE `events` SET `tag` = 'batch' WHERE `e_id` = 10",
            ])
            .unwrap()
            .value;
        assert_eq!(n, 2);
        assert_eq!(server.with_db(|db| db.table("events").unwrap().len()), 4);

        // Failure midway: the first INSERT must not survive the second's
        // unique violation.
        let err = conn
            .execute_atomic(&[
                "INSERT INTO `events` (`e_id`, `energy`, `tag`) VALUES (11, 1.0, 'b')",
                "INSERT INTO `events` (`e_id`, `energy`, `tag`) VALUES (1, 1.0, 'dup')",
            ])
            .unwrap_err();
        assert!(matches!(
            err,
            VendorError::Storage(gridfed_storage::StorageError::UniqueViolation { .. })
        ));
        assert_eq!(
            server.with_db(|db| db.table("events").unwrap().len()),
            4,
            "rolled back"
        );
        let r = conn
            .query("SELECT `e_id` FROM `events` WHERE `e_id` = 11")
            .unwrap();
        assert!(r.value.is_empty(), "no partial state leaked");
    }

    #[test]
    fn update_and_delete_through_connection() {
        let server = fixture(VendorKind::MySql);
        let conn = server.connect("grid", "grid").unwrap().value;
        let n = conn
            .execute("UPDATE `events` SET `tag` = 'retagged' WHERE `energy` > 15.0")
            .unwrap()
            .value;
        assert_eq!(n, 2);
        let r = conn
            .query("SELECT `e_id` FROM `events` WHERE `tag` = 'retagged'")
            .unwrap();
        assert_eq!(r.value.len(), 2);
        let n = conn
            .execute("DELETE FROM `events` WHERE `tag` = 'retagged'")
            .unwrap()
            .value;
        assert_eq!(n, 2);
        assert_eq!(server.with_db(|db| db.table("events").unwrap().len()), 1);
        // dialect check still applies to DML
        assert!(conn.execute("DELETE FROM [events]").is_err());
    }

    #[test]
    fn fault_plan_crashes_and_slows_operations() {
        use gridfed_faults::FaultPlan;

        let server = fixture(VendorKind::MySql);
        let conn = server.connect("grid", "grid").unwrap().value;
        let clean_cost = conn.query("SELECT `e_id` FROM `events`").unwrap().cost;

        let plan =
            Arc::new(FaultPlan::new(5).crash("ntuples", Cost::ZERO, Some(Cost::from_millis(10))));
        server.set_fault_plan(Arc::clone(&plan));
        assert!(matches!(
            server.connect("grid", "grid"),
            Err(VendorError::Unavailable { .. })
        ));
        // existing connections hit the same wall
        assert!(matches!(
            conn.query("SELECT `e_id` FROM `events`"),
            Err(VendorError::Unavailable { .. })
        ));
        assert!(conn
            .execute("DELETE FROM `events` WHERE `e_id` = 1")
            .is_err());
        assert!(conn.dump_table("events").is_err());

        // the server restarts when the window closes
        plan.set_now(Cost::from_millis(10));
        assert!(conn.query("SELECT `e_id` FROM `events`").is_ok());
        assert!(plan.stats().crashes >= 4);

        // slow factor inflates cost without failing
        let slow_plan = Arc::new(FaultPlan::new(5).slow("tier2.test", 4.0, Cost::ZERO, None));
        server.set_fault_plan(slow_plan);
        let slowed = conn.query("SELECT `e_id` FROM `events`").unwrap().cost;
        assert_eq!(slowed, clean_cost.scale(4.0));

        server.clear_fault_plan();
        assert_eq!(
            conn.query("SELECT `e_id` FROM `events`").unwrap().cost,
            clean_cost
        );
    }

    #[test]
    fn transient_faults_hit_some_operations() {
        use gridfed_faults::FaultPlan;

        let server = fixture(VendorKind::Sqlite);
        let conn = server.connect("grid", "grid").unwrap().value;
        server.set_fault_plan(Arc::new(FaultPlan::new(11).transient("ntuples", 0.5)));
        let outcomes: Vec<bool> = (0..40)
            .map(|_| conn.query("SELECT e_id FROM events").is_ok())
            .collect();
        assert!(outcomes.iter().any(|ok| *ok), "some operations succeed");
        assert!(outcomes.iter().any(|ok| !*ok), "some operations fail");
    }

    #[test]
    fn driver_paths_feed_the_wal_and_pull_wal_ships_them() {
        let server = SimServer::new(VendorKind::Oracle, "tier0.cern", "warehouse");
        server.with_db_mut(|db| db.enable_wal());
        let conn = server.connect("grid", "grid").unwrap().value;
        conn.execute("CREATE TABLE \"f\" (\"id\" INT PRIMARY KEY, \"v\" FLOAT)")
            .unwrap();
        conn.execute("INSERT INTO \"f\" (\"id\", \"v\") VALUES (1, 0.5), (2, 1.5)")
            .unwrap();
        conn.insert_rows("f", vec![vec![Value::Int(3), Value::Float(2.5)]])
            .unwrap();
        conn.execute("UPDATE \"f\" SET \"v\" = 9.0 WHERE \"id\" = 1")
            .unwrap();
        conn.execute("DELETE FROM \"f\" WHERE \"id\" = 2").unwrap();

        let batch = conn.pull_wal(0, usize::MAX).unwrap().value;
        assert_eq!(batch.head_lsn, 5);
        assert_eq!(batch.records.len(), 5);
        use gridfed_storage::WalOp;
        assert!(matches!(batch.records[0].op, WalOp::CreateTable { .. }));
        assert!(matches!(batch.records[1].op, WalOp::Insert { .. }));
        assert!(matches!(batch.records[2].op, WalOp::Insert { .. }));
        assert!(matches!(batch.records[3].op, WalOp::Snapshot { .. }));
        assert!(matches!(batch.records[4].op, WalOp::Snapshot { .. }));

        // Replaying the batch reproduces the table on a fresh database.
        let mut replica = Database::new("replica");
        for rec in &batch.records {
            gridfed_storage::apply_wal_record(&mut replica, rec).unwrap();
        }
        assert_eq!(
            replica.table("f").unwrap().rows(),
            server.with_db(|db| db.table("f").unwrap().rows())
        );

        // Incremental pull: only the suffix past the acked LSN.
        let tail = conn.pull_wal(3, usize::MAX).unwrap().value;
        assert_eq!(tail.records.len(), 2);
        assert_eq!(tail.records[0].lsn, 4);
        assert_eq!(tail.head_lsn, 5);
    }

    #[test]
    fn rolled_back_transaction_leaves_no_wal_records() {
        let server = SimServer::new(VendorKind::MySql, "h", "warehouse");
        server.with_db_mut(|db| db.enable_wal());
        let conn = server.connect("grid", "grid").unwrap().value;
        conn.execute("CREATE TABLE t (id INT PRIMARY KEY)").unwrap();
        let before = server.with_db(|db| db.wal_head_lsn());
        let err = conn.execute_atomic(&[
            "INSERT INTO `t` (`id`) VALUES (1)",
            "INSERT INTO `t` (`id`) VALUES (1)",
        ]);
        assert!(err.is_err());
        assert_eq!(
            server.with_db(|db| db.wal_head_lsn()),
            before,
            "aborted appends died with the discarded snapshot"
        );
    }

    #[test]
    fn pull_wal_is_fault_checked() {
        use gridfed_faults::FaultPlan;

        let server = SimServer::new(VendorKind::MySql, "h", "warehouse");
        server.with_db_mut(|db| db.enable_wal());
        let conn = server.connect("grid", "grid").unwrap().value;
        conn.execute("CREATE TABLE t (id INT)").unwrap();
        let plan =
            Arc::new(FaultPlan::new(3).crash("warehouse", Cost::ZERO, Some(Cost::from_millis(5))));
        server.set_fault_plan(Arc::clone(&plan));
        assert!(matches!(
            conn.pull_wal(0, 10),
            Err(VendorError::Unavailable { .. })
        ));
        assert!(server.fault_probe().is_err());
        plan.set_now(Cost::from_millis(5));
        assert!(conn.pull_wal(0, 10).is_ok());
        assert!(server.fault_probe().is_ok());
    }

    #[test]
    fn duplicate_key_propagates_unique_violation() {
        let server = fixture(VendorKind::MySql);
        let conn = server.connect("grid", "grid").unwrap().value;
        let err = conn
            .execute("INSERT INTO events (e_id) VALUES (1)")
            .unwrap_err();
        assert!(matches!(
            err,
            VendorError::Storage(gridfed_storage::StorageError::UniqueViolation { .. })
        ));
    }
}

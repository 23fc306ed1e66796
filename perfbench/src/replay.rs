//! The outside-in layer walk of the traced pass.
//!
//! In-program tracing is a later issue, so the spans here are recorded
//! from the benchmark's own files, around calls into each layer's public
//! functions: an operation is *replayed* through parse, RLS lookup,
//! decompose, connect, backend query, wire codec and integration in
//! pipeline order, under one root span, and the replayed answer must equal
//! the one `Grid::query` gave.
//!
//! Two consequences of standing outside, both visible in the trace file:
//!
//! * A layer that runs *inside* a library call (the optimizer inside
//!   `decompose::plan`, the executor inside `Connection::query_stmt`)
//!   cannot be timed in place. It is replayed right after the call, as a
//!   child span of it: the child's interval lies after the parent's, not
//!   within it, and self time is the parent's duration minus its
//!   children's durations.
//! * What the mediator does between layers — spawning a scoped thread per
//!   branch per wave, branch supervision, stats, locking — has no public
//!   entry point and is not replayed. It is reported, never hidden, as
//!   `core.glue_us`: untraced op time minus the replayed on-path time.
//!
//! Spans marked off-path ([`Layer::on_path`]) time work a real wire would
//! do but `Grid::query` does not (decoding the in-memory Clarens value);
//! they are reported and left out of the glue arithmetic.

use gridfed_clarens::WireValue;
use gridfed_core::decompose::{self, Home, QueryPlan, TableResolver, TableTask};
use gridfed_core::federate::{self, Partial};
use gridfed_core::grid::Grid;
use gridfed_core::service::{result_to_wire, wire_to_partial};
use gridfed_poolral::PoolRal;
use gridfed_sqlkit::ast::SelectStmt;
use gridfed_sqlkit::exec::{execute_plan_metered, DatabaseProvider, ProviderCatalog};
use gridfed_sqlkit::parser::parse_select;
use gridfed_sqlkit::render::render_select;
use gridfed_sqlkit::{build_plan, optimize, Expr, NeutralStyle, ResultSet};
use gridfed_storage::normalize_ident;
use gridfed_vendors::driver::server_address;
use gridfed_vendors::{ConnectionString, SimServer};
use gridfed_xspec::dict::DataDictionary;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// The layers a span can belong to (layer = crate, split where one crate
/// has two distinct jobs on the path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// Root span of one replayed operation.
    Op,
    /// `sqlkit::parser::parse_select`.
    SqlParse,
    /// `build_plan` + `optimize`.
    SqlOptimize,
    /// `execute_plan_metered` on a mart database.
    SqlExec,
    /// `RlsServer::lookup_from` + `freshness`.
    RlsLookup,
    /// `decompose::plan`.
    CoreDecompose,
    /// `federate::reduction_keys` + `reduction_predicate`.
    CoreReduce,
    /// `federate::integrate_metered`.
    CoreIntegrate,
    /// `service::result_to_wire` / `wire_to_partial`.
    CoreWire,
    /// `WireValue::encode` (what `wire_size` does on every RPC).
    ClarensEncode,
    /// `WireValue::decode` — off-path, see the module comment.
    ClarensDecode,
    /// `DriverRegistry::connect`.
    VendorsConnect,
    /// `Connection::query_stmt`.
    VendorsQuery,
    /// `PoolRal::execute_stmt`.
    PoolralExecute,
}

impl Layer {
    /// Every layer, in declaration order.
    pub const ALL: [Layer; 14] = [
        Layer::Op,
        Layer::SqlParse,
        Layer::SqlOptimize,
        Layer::SqlExec,
        Layer::RlsLookup,
        Layer::CoreDecompose,
        Layer::CoreReduce,
        Layer::CoreIntegrate,
        Layer::CoreWire,
        Layer::ClarensEncode,
        Layer::ClarensDecode,
        Layer::VendorsConnect,
        Layer::VendorsQuery,
        Layer::PoolralExecute,
    ];

    /// Number of layers (array size for per-layer sums).
    pub const COUNT: usize = Layer::ALL.len();

    /// Span name in the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Op => "op",
            Layer::SqlParse => "sqlkit.parse",
            Layer::SqlOptimize => "sqlkit.optimize",
            Layer::SqlExec => "sqlkit.exec",
            Layer::RlsLookup => "rls.lookup",
            Layer::CoreDecompose => "core.decompose",
            Layer::CoreReduce => "core.reduce",
            Layer::CoreIntegrate => "core.integrate",
            Layer::CoreWire => "core.result_to_wire",
            Layer::ClarensEncode => "clarens.encode",
            Layer::ClarensDecode => "clarens.decode",
            Layer::VendorsConnect => "vendors.connect",
            Layer::VendorsQuery => "vendors.query",
            Layer::PoolralExecute => "poolral.execute",
        }
    }

    /// Whether `Grid::query` does this work (see the module comment).
    pub fn on_path(self) -> bool {
        !matches!(self, Layer::Op | Layer::ClarensDecode)
    }
}

/// One recorded span. `parent` 0 means none; ids start at 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Span id, unique within the run.
    pub id: u32,
    /// The span that caused this one (0 for a root).
    pub parent: u32,
    /// Operation id shared by a root and all its descendants.
    pub op: u32,
    /// Layer (gives the name).
    pub layer: Layer,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    /// Ids handed out before the current buffer (see [`Tracer::clear`]).
    base: u32,
    op: u32,
}

impl Tracer {
    /// An empty tracer; span times count from now.
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            base: 0,
            op: 0,
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span under `parent` (0 opens a new operation).
    pub fn begin(&mut self, layer: Layer, parent: u32) -> u32 {
        if parent == 0 {
            self.op += 1;
        }
        let id = self.base + self.spans.len() as u32 + 1;
        let now = self.now();
        self.spans.push(Span {
            id,
            parent,
            op: self.op,
            layer,
            start_ns: now,
            end_ns: now,
        });
        id
    }

    /// Close span `id`.
    pub fn end(&mut self, id: u32) {
        self.spans[(id - self.base) as usize - 1].end_ns = self.now();
    }

    /// Time `f` as a span of `layer` under `parent`.
    pub fn time<T>(&mut self, layer: Layer, parent: u32, f: impl FnOnce() -> T) -> T {
        let id = self.begin(layer, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Hand the buffered spans over and start an empty buffer; ids and
    /// operation numbers keep counting, so they stay unique in a run.
    pub fn take(&mut self) -> Vec<Span> {
        self.base += self.spans.len() as u32;
        std::mem::take(&mut self.spans)
    }
}

/// Self time per layer (ns): each span's duration minus its children's,
/// floored at zero, summed by layer. Index with `Layer as usize`. `spans`
/// is one [`Tracer::take`]: consecutive ids, parents inside the slice.
pub fn self_times(spans: &[Span]) -> [u64; Layer::COUNT] {
    let first = spans.first().map_or(1, |s| s.id);
    // slot 0 collects the roots' durations (parent 0)
    let slot = |id: u32| {
        if id == 0 {
            0
        } else {
            (id - first) as usize + 1
        }
    };
    let mut children = vec![0u64; spans.len() + 1];
    for s in spans {
        children[slot(s.parent)] += s.end_ns - s.start_ns;
    }
    let mut out = [0u64; Layer::COUNT];
    for s in spans {
        let own = (s.end_ns - s.start_ns).saturating_sub(children[slot(s.id)]);
        out[s.layer as usize] += own;
    }
    out
}

/// One span as a JSON line of the trace file.
pub fn span_json(s: &Span) -> String {
    format!(
        "{{\"op\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"on_path\":{}}}",
        s.op,
        s.id,
        s.parent,
        s.layer.name(),
        s.start_ns,
        s.end_ns,
        s.layer.on_path()
    )
}

/// Executor work counters summed over replayed operations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecWork {
    /// Rows entering scans (backends + residual plan).
    pub rows_scanned: u64,
    /// Batch windows processed.
    pub batches: u64,
    /// Rows materialised at the output boundary.
    pub rows_materialized: u64,
    /// Bytes `WireValue::encode` produced on mediator-to-mediator hops.
    pub wire_bytes: u64,
}

/// What one mediator knows about its tables, rebuilt from outside from
/// its dictionary snapshot plus the RLS — the harness's `TableResolver`.
struct Resolved {
    homes: HashMap<String, Home>,
    cols: HashMap<String, Option<Vec<String>>>,
    rows: HashMap<String, Option<u64>>,
}

impl TableResolver for Resolved {
    fn resolve(&self, logical: &str) -> gridfed_core::Result<Home> {
        self.homes
            .get(logical)
            .cloned()
            .ok_or_else(|| gridfed_core::CoreError::TableNotFound(logical.to_string()))
    }

    fn columns_of(&self, logical: &str) -> Option<Vec<String>> {
        self.cols.get(logical).cloned().flatten()
    }

    fn row_count_of(&self, logical: &str) -> Option<u64> {
        self.rows.get(logical).copied().flatten()
    }
}

/// Replays operations against one grid.
pub struct Replayer<'g> {
    grid: &'g Grid,
    /// Dictionary of each mediator, in `grid.services` order.
    dicts: Vec<DataDictionary>,
    /// Pooled handles for every POOL-supported mart, as each mediator's
    /// own `PoolRal` holds after registration.
    pool: PoolRal,
    /// The recorder.
    pub tracer: Tracer,
}

type Replay<T> = Result<T, String>;

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

impl<'g> Replayer<'g> {
    /// Snapshot the mediators' dictionaries and open the pooled handles.
    pub fn new(grid: &'g Grid) -> Replay<Replayer<'g>> {
        let pool = PoolRal::new(Arc::clone(&grid.registry));
        let dicts: Vec<DataDictionary> = grid
            .services
            .iter()
            .map(|s| s.dictionary_snapshot())
            .collect();
        for dict in &dicts {
            for db in dict.databases() {
                let entry = dict.entry(&db).map_err(err)?;
                if ConnectionString::parse(&entry.url)
                    .map_err(err)?
                    .vendor
                    .pool_supported()
                {
                    pool.initialize(&entry.url, "grid", "grid").map_err(err)?;
                }
            }
        }
        Ok(Replayer {
            grid,
            dicts,
            pool,
            tracer: Tracer::new(),
        })
    }

    /// The database server behind a connection URL.
    fn server(&self, url: &str) -> Replay<Arc<SimServer>> {
        let (host, database) = server_address(&ConnectionString::parse(url).map_err(err)?);
        self.grid.registry.lookup(&host, &database).map_err(err)
    }

    /// Mediator `idx`'s view of the tables of `stmt`: dictionary first,
    /// RLS for the rest (the `rls.lookup` spans).
    fn resolve(&mut self, idx: usize, stmt: &SelectStmt, parent: u32) -> Replay<Resolved> {
        let das = &self.grid.services[idx];
        let mut r = Resolved {
            homes: HashMap::new(),
            cols: HashMap::new(),
            rows: HashMap::new(),
        };
        for tref in stmt.table_refs() {
            let key = normalize_ident(&tref.name);
            if r.homes.contains_key(&key) {
                continue;
            }
            if let Some(loc) = self.dicts[idx].resolve_table(&key).into_iter().next() {
                let live = self
                    .server(&loc.url)?
                    .with_db(|db| db.table(&loc.physical_table).map(|t| t.len() as u64).ok());
                r.cols
                    .insert(key.clone(), self.dicts[idx].columns_of(&key).ok());
                r.rows.insert(key.clone(), live);
                r.homes.insert(key, Home::Local(loc));
                continue;
            }
            let rls = &self.grid.rls;
            let (urls, fresh) = self.tracer.time(Layer::RlsLookup, parent, || {
                let urls = rls.lookup_from(das.host(), &self.grid.topology, &key).value;
                (urls, rls.freshness(&key).value)
            });
            let url = urls
                .into_iter()
                .find(|u| u != das.url())
                .ok_or_else(|| format!("table `{key}` is nowhere"))?;
            let best = fresh.iter().map(|(_, f)| *f).max_by_key(|f| f.version);
            r.cols.insert(key.clone(), None);
            r.rows
                .insert(key.clone(), best.map(|f| f.rows).filter(|n| *n > 0));
            r.homes.insert(key, Home::Remote { server_url: url });
        }
        Ok(r)
    }

    /// What a backend does with a statement, replayed on its database:
    /// the `sqlkit.optimize` and `sqlkit.exec` children of a vendor call.
    fn backend_children(
        &mut self,
        url: &str,
        stmt: &SelectStmt,
        parent: u32,
        work: &mut ExecWork,
    ) -> Replay<()> {
        let server = self.server(url)?;
        server.with_db(|db| {
            let provider = DatabaseProvider(db);
            let plan = self.tracer.time(Layer::SqlOptimize, parent, || {
                optimize(build_plan(stmt), &ProviderCatalog(&provider))
            });
            let (_, m) = self
                .tracer
                .time(Layer::SqlExec, parent, || {
                    execute_plan_metered(&plan, &provider)
                })
                .map_err(err)?;
            work.rows_scanned += m.rows_scanned;
            work.batches += m.batches;
            work.rows_materialized += m.rows_materialized;
            Ok(())
        })
    }

    /// A whole statement against one local database, as the mediator's
    /// single-database fast path runs it: the pooled POOL-RAL handle when
    /// the vendor has one, a fresh connection otherwise.
    fn single(
        &mut self,
        url: &str,
        stmt: &SelectStmt,
        parent: u32,
        work: &mut ExecWork,
    ) -> Replay<ResultSet> {
        if self.pool.has_handle(url) {
            let id = self.tracer.begin(Layer::PoolralExecute, parent);
            let out = self.pool.execute_stmt(url, stmt);
            self.tracer.end(id);
            self.backend_children(url, stmt, id, work)?;
            return Ok(out.map_err(err)?.value);
        }
        let conn = self
            .tracer
            .time(Layer::VendorsConnect, parent, || {
                self.grid.registry.connect(url)
            })
            .map_err(err)?
            .value;
        let id = self.tracer.begin(Layer::VendorsQuery, parent);
        let out = conn.query_stmt(stmt);
        self.tracer.end(id);
        self.backend_children(url, stmt, id, work)?;
        Ok(out.map_err(err)?.value)
    }

    /// One sub-query forwarded to the mediator at `server_url`: what that
    /// mediator does (parse, resolve, decompose, fetch), then the typed
    /// result's trip over the Clarens codec and back into a partial.
    fn remote(
        &mut self,
        server_url: &str,
        table: &str,
        subquery: &SelectStmt,
        parent: u32,
        work: &mut ExecWork,
    ) -> Replay<Partial> {
        let idx = self
            .grid
            .services
            .iter()
            .position(|s| s.url() == server_url)
            .ok_or_else(|| format!("no mediator at `{server_url}`"))?;
        let sql = render_select(subquery, &NeutralStyle);
        let rs = self.mediate(idx, &sql, parent, work)?;
        let wire = self
            .tracer
            .time(Layer::CoreWire, parent, || result_to_wire(&rs));
        let bytes = self
            .tracer
            .time(Layer::ClarensEncode, parent, || wire.encode());
        work.wire_bytes += bytes.len() as u64;
        let decoded = self
            .tracer
            .time(Layer::ClarensDecode, parent, || WireValue::decode(bytes))
            .map_err(err)?;
        self.tracer
            .time(Layer::CoreWire, parent, || wire_to_partial(table, &decoded))
            .map_err(err)
    }

    /// Inject the semi-join reductions planned for `task` from the
    /// partials earlier waves fetched, as `exec_federated` does.
    fn reduce(&mut self, task: &mut TableTask, fetched: &[Partial], parent: u32) {
        if task.reductions.is_empty() {
            return;
        }
        let id = self.tracer.begin(Layer::CoreReduce, parent);
        for red in task.reductions.clone() {
            let keys = fetched
                .iter()
                .find(|p| normalize_ident(&p.table) == red.source_table)
                .and_then(|p| federate::reduction_keys(p, &red.source_column));
            let Some(keys) = keys else { continue };
            let pred = federate::reduction_predicate(&red.target_column, &keys);
            task.subquery.where_clause = Some(match task.subquery.where_clause.take() {
                Some(existing) => Expr::and(existing, pred),
                None => pred,
            });
        }
        self.tracer.end(id);
    }

    /// The general federated path: branches grouped and ordered as the
    /// mediator groups them (local databases by name, then remote servers
    /// by URL), dispatched wave by wave — sequentially here; the
    /// mediator's thread per branch is part of the glue.
    fn federated(
        &mut self,
        tasks: Vec<TableTask>,
        residual: &gridfed_sqlkit::LogicalPlan,
        parent: u32,
        work: &mut ExecWork,
    ) -> Replay<ResultSet> {
        // branch key -> (wave, task indices); `0:` sorts local first.
        let mut branches: BTreeMap<String, (usize, Vec<usize>)> = BTreeMap::new();
        for (i, t) in tasks.iter().enumerate() {
            let key = match &t.home {
                Home::Local(loc) => format!("0:{}", loc.database),
                Home::Remote { server_url } => format!("1:{server_url}"),
            };
            let b = branches.entry(key).or_insert((0, Vec::new()));
            b.0 = b.0.max(t.wave);
            b.1.push(i);
        }
        let max_wave = branches.values().map(|b| b.0).max().unwrap_or(0);
        let mut tasks = tasks;
        let mut by_branch: BTreeMap<&String, Vec<Partial>> = BTreeMap::new();
        let mut fetched: Vec<Partial> = Vec::new();
        for wave in 0..=max_wave {
            let mut wave_partials = Vec::new();
            for (key, (_, idxs)) in branches.iter().filter(|(_, b)| b.0 == wave) {
                let mut partials = Vec::new();
                match tasks[idxs[0]].home.clone() {
                    Home::Local(loc) => {
                        let conn = self
                            .tracer
                            .time(Layer::VendorsConnect, parent, || {
                                self.grid.registry.connect(&loc.url)
                            })
                            .map_err(err)?
                            .value;
                        for &i in idxs {
                            self.reduce(&mut tasks[i], &fetched, parent);
                            let subquery = tasks[i].subquery.clone();
                            let id = self.tracer.begin(Layer::VendorsQuery, parent);
                            let out = conn.query_stmt(&subquery);
                            self.tracer.end(id);
                            self.backend_children(&loc.url, &subquery, id, work)?;
                            partials.push(Partial::from_result(
                                tasks[i].table.clone(),
                                out.map_err(err)?.value,
                            ));
                        }
                    }
                    Home::Remote { server_url } => {
                        for &i in idxs {
                            self.reduce(&mut tasks[i], &fetched, parent);
                            let (table, subquery) =
                                (tasks[i].table.clone(), tasks[i].subquery.clone());
                            partials.push(self.remote(
                                &server_url,
                                &table,
                                &subquery,
                                parent,
                                work,
                            )?);
                        }
                    }
                }
                wave_partials.extend(partials.iter().cloned());
                by_branch.insert(key, partials);
            }
            fetched.extend(wave_partials);
        }
        // Gather in branch order, whatever the wave order was.
        let partials: Vec<Partial> = by_branch.into_values().flatten().collect();
        let (rs, m) = self
            .tracer
            .time(Layer::CoreIntegrate, parent, || {
                federate::integrate_metered(residual, &partials)
            })
            .map_err(err)?;
        work.rows_scanned += m.rows_scanned;
        work.batches += m.batches;
        work.rows_materialized += m.rows_materialized;
        Ok(rs)
    }

    /// What mediator `idx` does with `sql`, layer by layer.
    fn mediate(
        &mut self,
        idx: usize,
        sql: &str,
        parent: u32,
        work: &mut ExecWork,
    ) -> Replay<ResultSet> {
        let stmt = self
            .tracer
            .time(Layer::SqlParse, parent, || parse_select(sql))
            .map_err(err)?;
        let resolved = self.resolve(idx, &stmt, parent)?;
        let id = self.tracer.begin(Layer::CoreDecompose, parent);
        let plan = decompose::plan(&stmt, &resolved);
        self.tracer.end(id);
        match plan.map_err(err)? {
            QueryPlan::SingleDatabase { location, stmt } => {
                self.single(&location.url, &stmt, parent, work)
            }
            QueryPlan::ForwardAll { server_url, stmt } => {
                let p = self.remote(&server_url, "forwarded", &stmt, parent, work)?;
                Ok(ResultSet {
                    columns: p.columns,
                    rows: p.rows,
                })
            }
            QueryPlan::Federated {
                tasks, residual, ..
            } => {
                // Only this arm optimizes inside `decompose::plan`.
                self.tracer.time(Layer::SqlOptimize, id, || {
                    decompose::optimized_plan(&stmt, &resolved)
                });
                self.federated(tasks, &residual, parent, work)
            }
        }
    }

    /// Replay one client operation under a new root span, adding the
    /// executor work it did to `work`.
    pub fn replay(&mut self, sql: &str, work: &mut ExecWork) -> Replay<ResultSet> {
        let root = self.tracer.begin(Layer::Op, 0);
        let out = self.mediate(0, sql, root, work);
        self.tracer.end(root);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, layer: Layer, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            layer,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_children_wherever_they_ran() {
        let spans = [
            span(1, 0, Layer::Op, 0, 100),
            span(2, 1, Layer::VendorsQuery, 10, 50),
            // replayed after its parent, not inside it
            span(3, 2, Layer::SqlExec, 50, 80),
            // a noisy child longer than its parent floors at zero
            span(4, 1, Layer::CoreDecompose, 80, 85),
            span(5, 4, Layer::SqlOptimize, 85, 95),
        ];
        let own = self_times(&spans);
        assert_eq!(own[Layer::VendorsQuery as usize], 10);
        assert_eq!(own[Layer::SqlExec as usize], 30);
        assert_eq!(own[Layer::CoreDecompose as usize], 0);
        assert_eq!(own[Layer::SqlOptimize as usize], 10);
        assert_eq!(own[Layer::Op as usize], 100 - 40 - 5);
    }

    #[test]
    fn tracer_shares_an_op_id_between_a_root_and_its_children() {
        let mut t = Tracer::new();
        let root = t.begin(Layer::Op, 0);
        t.time(Layer::SqlParse, root, || ());
        t.end(root);
        let s = t.take();
        assert_eq!((s[0].op, s[1].op), (1, 1));
        assert_eq!(s[1].parent, s[0].id);
        assert!(s[0].end_ns >= s[1].end_ns);
        // ids and op numbers keep counting across takes
        let root2 = t.begin(Layer::Op, 0);
        t.time(Layer::SqlParse, root2, || ());
        t.end(root2);
        let s2 = t.take();
        assert_eq!((s2[0].id, s2[0].op, s2[1].parent), (3, 2, 3));
        assert_eq!(self_times(&s2)[Layer::Op as usize], {
            let d = |x: &Span| x.end_ns - x.start_ns;
            d(&s2[0]) - d(&s2[1])
        });
    }

    #[test]
    fn span_json_is_one_flat_object() {
        let line = span_json(&span(7, 3, Layer::ClarensDecode, 5, 9));
        assert_eq!(
            line,
            "{\"op\":1,\"id\":7,\"parent\":3,\"name\":\"clarens.decode\",\
             \"start_ns\":5,\"end_ns\":9,\"on_path\":false}"
        );
    }

    #[test]
    fn all_lists_every_layer_at_its_own_index() {
        for (i, l) in Layer::ALL.into_iter().enumerate() {
            assert_eq!(l as usize, i);
        }
        assert_eq!(Layer::PoolralExecute as usize + 1, Layer::COUNT);
    }
}

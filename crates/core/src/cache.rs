//! What the mediator keeps per statement text: the plan cache and its value
//! — everything about a statement that is a pure function of its text and
//! of the resolver's answers (DESIGN.md §4.4, "Plan once"). The LRU under it
//! and the key are [`gridfed_sqlkit::cache`]'s.

use crate::config::Live;
use crate::decompose::{self, Home, QueryPlan, TableResolver, TableTask};
use crate::error::CoreError;
use crate::federate;
use crate::scatter::{self, Branch, Shape};
use crate::Result;
use gridfed_obs::{CounterSeries, HistogramSeries, MetricsRegistry};
use gridfed_sqlkit::ast::SelectStmt;
use gridfed_sqlkit::cache::Lru;
use gridfed_sqlkit::exec::{execute_lowered, DatabaseProvider};
use gridfed_sqlkit::plan::LogicalPlan;
use gridfed_sqlkit::{ExecMetrics, Lowered, ResultSet};
use gridfed_storage::{normalize_ident, Database};
use gridfed_xspec::dict::{DataDictionary, TableLocation};
use std::borrow::Cow;
use std::sync::{Arc, OnceLock};

/// Statements one mediator keeps planned. `table1_fed` issues 90 distinct
/// statements at the front mediator (its peer sees two forwarded texts); an
/// entry is 1.4–3.5 KiB of heap, so a full cache stays under 0.5 MiB. With
/// the marts' prepared plans, a new Table-1 statement keeps 5.8 / 11.3 /
/// 4.3 KiB for rows 1 / 2 / 3 since kept plans keep their lowerings (4.9 /
/// 8.8 / 4.0 while they kept scan bindings; 3.3 / 7.1 / 4.0 before texts
/// and bindings were kept).
pub(crate) const PLAN_CACHE_CAPACITY: usize = 128;

/// Longest normalised statement text the plan cache retains. Longer ones —
/// in practice a forwarded sub-query carrying a bloom-filter hex literal,
/// whose text never repeats — are planned fresh every time.
pub(crate) const PLAN_TEXT_CEILING: usize = 1024;

/// The plan cache: planned statements by normalised text, shared out as
/// `Arc`s so that no lock is held while a query resolves, plans or scatters.
/// Always on, bounded two ways ([`PLAN_CACHE_CAPACITY`] entries, each under
/// [`PLAN_TEXT_CEILING`] bytes of text), and never invalidated: an entry is
/// only used while its stamp holds ([`PlannedStatement::is_current`]).
pub(crate) struct PlanCache(Lru<Arc<PlannedStatement>>);

impl PlanCache {
    pub(crate) fn new() -> PlanCache {
        PlanCache(Lru::new(PLAN_CACHE_CAPACITY))
    }

    pub(crate) fn get(&mut self, key: &str) -> Option<Arc<PlannedStatement>> {
        (key.len() <= PLAN_TEXT_CEILING)
            .then(|| self.0.get(key).cloned())
            .flatten()
    }

    /// Share out `planned`, keeping it as the plan for `key` (in place of
    /// any other) unless the text is over the ceiling. A residual plan holds
    /// none of the literals that were pushed down into the sub-queries, so
    /// statements that differ only in those — `… WHERE e.e_id < 17`, `< 18`
    /// — have equal ones: they are kept once and shared. So is what the
    /// dictionary says of each table, which statements naming it share.
    pub(crate) fn insert(
        &mut self,
        key: &str,
        mut planned: PlannedStatement,
    ) -> Arc<PlannedStatement> {
        if key.len() > PLAN_TEXT_CEILING {
            return Arc::new(planned);
        }
        if let Some(residual) = &mut planned.residual {
            let kept = self.0.values().filter_map(|p| p.residual.as_ref());
            if let Some(same) = kept.into_iter().find(|kept| *kept == residual) {
                *residual = Arc::clone(same);
            }
        }
        for table in &mut planned.tables {
            let kept = self.0.values().flat_map(|p| &p.tables);
            if let Some(same) = kept.map(|k| &k.entry).find(|k| **k == table.entry) {
                table.entry = Arc::clone(same);
            }
        }
        let planned = Arc::new(planned);
        self.0.insert(key.to_string(), Arc::clone(&planned));
        planned
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.0.values().count()
    }
}

/// What the data dictionary says of one table a statement names, at one
/// dictionary epoch: a pure function of the name and the epoch, so a
/// planned statement keeps it, and a query that reuses the plan at that
/// epoch reads it from there instead of the dictionary.
#[derive(Debug, PartialEq)]
pub(crate) struct DictEntry {
    /// The table as the statement first spells it (what a later
    /// `TableNotFound` must name).
    pub(crate) name: String,
    /// Normalised logical name.
    pub(crate) key: Arc<str>,
    /// The locations hosting it; none when it is not registered here (the
    /// RLS is asked per query).
    pub(crate) candidates: Vec<TableLocation>,
    /// Their database names, shared with the versions a query records.
    pub(crate) databases: Vec<Arc<str>>,
    /// Column names, when the table is registered here.
    pub(crate) cols: Option<Vec<String>>,
}

impl DictEntry {
    pub(crate) fn of(dict: &DataDictionary, name: &str) -> DictEntry {
        let key = normalize_ident(name);
        let candidates = dict.resolve_table(&key);
        DictEntry {
            name: name.to_string(),
            databases: candidates
                .iter()
                .map(|c| c.database.as_str().into())
                .collect(),
            candidates,
            cols: dict.columns_of(&key).ok(),
            key: key.into(),
        }
    }
}

/// Where one table of a resolved statement lives.
pub(crate) enum Chosen {
    /// In the entry's candidate at this index (the replica chosen).
    Local(usize),
    /// On the remote server the RLS named.
    Remote(String),
}

/// One table of a resolved statement: the resolver's answers for it.
pub(crate) struct ResolvedTable {
    pub(crate) entry: Arc<DictEntry>,
    pub(crate) home: Chosen,
    /// Data version of the chosen replica; `None` when the table has no
    /// version bookkeeping.
    pub(crate) version: Option<u64>,
    /// Row-count statistic: the chosen replica's for a local table (which
    /// follows the live count only past a tenth's drift,
    /// `replicas::drifted`), the RLS-published one for a remote table.
    /// `None` when nothing has measured the table.
    pub(crate) row_count: Option<u64>,
}

impl ResolvedTable {
    /// The [`Branch::key`] of the branch that fetches it.
    pub(crate) fn home_key(&self) -> (bool, &str) {
        match &self.home {
            Chosen::Local(at) => (false, self.entry.candidates[*at].database.as_str()),
            Chosen::Remote(url) => (true, url.as_str()),
        }
    }
}

/// Pre-resolved tables handed to the decomposer, unique by name, in the
/// statement's syntactic order. A handful per statement: probed linearly.
pub(crate) struct ResolvedTables {
    /// Epoch of the data dictionary the answers were read from.
    pub(crate) epoch: u64,
    pub(crate) tables: Vec<ResolvedTable>,
}

impl ResolvedTables {
    pub(crate) fn get(&self, logical: &str) -> Option<&ResolvedTable> {
        self.tables.iter().find(|t| *t.entry.key == *logical)
    }
}

impl TableResolver for ResolvedTables {
    fn resolve(&self, logical: &str) -> Result<Home> {
        let t = self
            .get(logical)
            .ok_or_else(|| CoreError::TableNotFound(logical.to_string()))?;
        Ok(match &t.home {
            Chosen::Local(at) => Home::Local(t.entry.candidates[*at].clone()),
            Chosen::Remote(url) => Home::Remote {
                server_url: url.clone(),
            },
        })
    }

    fn columns_of(&self, logical: &str) -> Option<Vec<String>> {
        self.get(logical)?.entry.cols.clone()
    }

    fn version_of(&self, logical: &str) -> Option<u64> {
        self.get(logical)?.version
    }

    fn row_count_of(&self, logical: &str) -> Option<u64> {
        self.get(logical)?.row_count
    }
}

/// Lower a plan to what the scatter runs: its sub-queries, and the residual
/// plan that integrates their partials. A single-database or forward-all
/// plan is one whole-statement task with nothing left to integrate.
pub(crate) fn lower(plan: QueryPlan) -> (Vec<TableTask>, Option<LogicalPlan>) {
    let whole_statement = |table: &str, home, subquery| TableTask {
        table: table.to_string(),
        home,
        subquery,
        version: None,
        est_rows: None,
        wave: 0,
        reductions: Vec::new(),
    };
    match plan {
        QueryPlan::SingleDatabase { location, stmt } => {
            let home = Home::Local(location);
            (vec![whole_statement("single", home, stmt)], None)
        }
        QueryPlan::ForwardAll { server_url, stmt } => {
            let home = Home::Remote { server_url };
            (vec![whole_statement("forwarded", home, stmt)], None)
        }
        QueryPlan::Federated {
            tasks, residual, ..
        } => (tasks, Some(residual)),
    }
}

/// What a plan builds at its first run and keeps. It is not part of what
/// the plan is — it follows from the plan and what the run read — so two
/// plans are equal whatever either has kept.
#[derive(Debug)]
pub(crate) struct Kept<T>(OnceLock<T>);

impl<T> Default for Kept<T> {
    fn default() -> Kept<T> {
        Kept(OnceLock::new())
    }
}

impl<T> PartialEq for Kept<T> {
    fn eq(&self, _: &Kept<T>) -> bool {
        true
    }
}

/// The plan integrating a federated statement's partials, and that plan
/// lowered against the columns its first run staged.
#[derive(Debug, PartialEq)]
pub(crate) struct Residual {
    pub(crate) plan: LogicalPlan,
    lowered: Kept<Lowered>,
}

impl Residual {
    /// Integrate the partials staged in `staging`: as the kept lowering
    /// while they have the columns it was lowered against.
    pub(crate) fn run(&self, staging: &Database) -> Result<(ResultSet, ExecMetrics)> {
        let provider = DatabaseProvider(staging);
        let kept = self
            .lowered
            .0
            .get_or_init(|| Lowered::of(&self.plan, &provider));
        execute_lowered(&self.plan, kept, &provider).map_err(CoreError::from)
    }
}

/// The resolver answers one table of a planned statement was planned from.
#[derive(Debug, PartialEq)]
struct TableStamp {
    /// The dictionary's answers, at the plan's epoch.
    entry: Arc<DictEntry>,
    /// The chosen home, as the index of the branch that fetches from it: a
    /// remote server's URL, or a local database's name — which, at one
    /// dictionary epoch, fixes the whole `TableLocation`.
    branch: usize,
    /// Row-count statistic, for a federated plan. (The data version is an
    /// answer too, but only EXPLAIN prints it: nothing kept here reads it.)
    row_count: Option<u64>,
}

/// The observability half of a planned statement: what `stats.plan_shape`
/// and the `plan_nodes` metric family report for it, and the handles of the
/// series a query of it updates. The shape and the node counts are
/// functions of the optimized plan's operator tree alone, which pushdown
/// (columns: the dictionary epoch) shapes and join reordering (row counts)
/// does not — a reordered chain of inner joins is rebuilt left-deep over
/// the same scans. Two shapes are equal when their texts are: the node
/// counts are read off the tree the text spells, and the branch series are
/// named by the branches.
#[derive(Debug)]
pub(crate) struct PlanShape {
    /// [`federate::plan_shape`] of the optimized plan, shared with every
    /// query that runs it.
    pub(crate) shape: Arc<str>,
    /// How many nodes of each kind the optimized plan has, kinds in
    /// pre-order of first appearance, each with its `plan_nodes` series:
    /// one update per kind.
    pub(crate) nodes: Vec<(u64, CounterSeries)>,
    /// Each branch's `branch_latency_us` series, in gather order.
    pub(crate) branch_latency: Vec<HistogramSeries>,
}

impl PartialEq for PlanShape {
    fn eq(&self, other: &PlanShape) -> bool {
        self.shape == other.shape
    }
}

impl PlanShape {
    /// The shape of `optimized`; with `metrics`, its node series, those of
    /// its branches not yet resolved.
    fn of(optimized: &LogicalPlan, metrics: Option<&MetricsRegistry>) -> PlanShape {
        fn kinds(plan: &LogicalPlan, out: &mut Vec<(&'static str, u64)>) {
            match out.iter_mut().find(|(kind, _)| *kind == plan.kind_name()) {
                Some((_, n)) => *n += 1,
                None => out.push((plan.kind_name(), 1)),
            }
            for child in plan.children() {
                kinds(child, out);
            }
        }
        let nodes = metrics.map_or_else(Vec::new, |m| {
            let mut nodes = Vec::new();
            kinds(optimized, &mut nodes);
            let series = |(kind, n)| (n, m.counter_series("plan_nodes", kind));
            nodes.into_iter().map(series).collect()
        });
        PlanShape {
            shape: federate::plan_shape(optimized).into(),
            nodes,
            branch_latency: Vec::new(),
        }
    }
}

/// A statement planned once: `group_branches(lower(decompose::plan(..)))`
/// and the stamp of resolver answers it was computed from. Deliberately
/// compact — neither the parsed statement (a re-plan re-parses the text in
/// hand) nor the optimized plan is kept, and the dictionary's answers are
/// shared with every entry naming the same table.
///
/// The stamp is compared field by field against the answers of *this*
/// query's resolution, never hashed and never invalidated from outside: a
/// plan is reused only when every input `decompose::plan` read for it is
/// equal, so a stale plan cannot run. A whole-statement plan reads nothing
/// but the homes, so versions and row counts moving under it do not re-plan
/// it; a federated plan reads the row-count statistics, which an ingest
/// cycle of a live grid moves only once a table has grown or shrunk by a
/// tenth since they last moved.
#[derive(Debug, PartialEq)]
pub(crate) struct PlannedStatement {
    epoch: u64,
    tables: Vec<TableStamp>,
    /// Table references in the statement, repeats included
    /// (`QueryStats::tables`).
    pub(crate) table_refs: usize,
    /// The scatter's branches, in gather order.
    pub(crate) branches: Vec<Branch>,
    /// The plan integrating their partials; `None` for a whole-statement
    /// plan.
    pub(crate) residual: Option<Arc<Residual>>,
    /// The scatter's shape on the thread budget of its first run.
    scatter: Kept<Shape>,
    /// The series it names are `metrics`' of [`PlannedStatement::plan`].
    pub(crate) shape: Box<PlanShape>,
}

impl PlannedStatement {
    /// Plan `stmt` against `resolved`, its shape's series `metrics`'.
    pub(crate) fn plan(
        stmt: &SelectStmt,
        resolved: &ResolvedTables,
        metrics: &MetricsRegistry,
    ) -> Result<PlannedStatement> {
        PlannedStatement::plan_in(stmt, resolved, Some(metrics))
    }

    /// What [`PlannedStatement::plan`] would produce now, its shape text
    /// only: the debug check of a reused plan, which must not name series.
    #[cfg(debug_assertions)]
    pub(crate) fn replan(stmt: &SelectStmt, resolved: &ResolvedTables) -> Result<PlannedStatement> {
        PlannedStatement::plan_in(stmt, resolved, None)
    }

    fn plan_in(
        stmt: &SelectStmt,
        resolved: &ResolvedTables,
        metrics: Option<&MetricsRegistry>,
    ) -> Result<PlannedStatement> {
        let plan = decompose::plan(stmt, resolved)?;
        let mut shape = Box::new(match &plan {
            QueryPlan::Federated { optimized, .. } => PlanShape::of(optimized, metrics),
            _ => PlanShape::of(&decompose::optimized_plan(stmt, resolved), metrics),
        });
        let (tasks, residual) = lower(plan);
        let residual = residual.map(|plan| {
            let lowered = Kept::default();
            Arc::new(Residual { plan, lowered })
        });
        let whole = residual.is_none();
        let branches = scatter::group_branches(tasks);
        if let Some(m) = metrics {
            let latency = |b: &Branch| m.histogram_series("branch_latency_us", &b.target);
            shape.branch_latency = branches.iter().map(latency).collect();
        }
        let tables = resolved.tables.iter().map(|t| {
            let home = t.home_key();
            // Every home has its branch: the branches are grouped by home.
            let branch = branches.iter().position(|b| b.key() == home);
            let branch = branch.ok_or_else(|| CoreError::TableNotFound(t.entry.name.clone()))?;
            let row_count = t.row_count.filter(|_| !whole);
            Ok(TableStamp {
                entry: Arc::clone(&t.entry),
                branch,
                row_count,
            })
        });
        let tables = tables.collect::<Result<_>>()?;
        Ok(PlannedStatement {
            epoch: resolved.epoch,
            tables,
            table_refs: stmt.table_refs().len(),
            branches,
            residual,
            scatter: Kept::default(),
            shape,
        })
    }

    /// Its scatter's shape under `live`: the one kept from its first run
    /// when that had the same thread budget and reduction switch, otherwise
    /// one built for this run.
    pub(crate) fn scatter_shape(&self, live: &Live) -> Cow<'_, Shape> {
        let (reduce, threads) = (live.config.distjoin, live.threads);
        let of = || Shape::of(&self.branches, reduce, threads);
        let kept = self.scatter.0.get_or_init(of);
        if kept.threads == threads && kept.reduce == reduce {
            debug_assert_eq!(*kept, of(), "a kept scatter shape went stale");
            Cow::Borrowed(kept)
        } else {
            Cow::Owned(of())
        }
    }

    /// The dictionary's answers for the statement's tables, unique, in
    /// syntactic order — what a query served from this entry resolves —
    /// when they were read at dictionary epoch `epoch`.
    pub(crate) fn entries_at(&self, epoch: u64) -> Option<impl Iterator<Item = &Arc<DictEntry>>> {
        (self.epoch == epoch).then(|| self.tables.iter().map(|t| &t.entry))
    }

    /// The statement's tables as first spelled, unique, in syntactic order.
    pub(crate) fn table_names(&self) -> impl Iterator<Item = &str> {
        self.tables.iter().map(|t| t.entry.name.as_str())
    }

    /// Whether the answers this entry was planned from are the answers
    /// `resolved` just gave.
    pub(crate) fn is_current(&self, resolved: &ResolvedTables) -> bool {
        let whole = self.residual.is_none();
        self.epoch == resolved.epoch
            && self.tables.len() == resolved.tables.len()
            && self.tables.iter().zip(&resolved.tables).all(|(was, now)| {
                self.branches[was.branch].key() == now.home_key()
                    && (whole || was.row_count == now.row_count)
            })
    }
}

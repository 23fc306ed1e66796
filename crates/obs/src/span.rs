//! Hierarchical query traces on virtual time.
//!
//! A [`Trace`] is one query's span tree: a root `query` span whose children
//! partition its duration into phases (plan, RLS, scatter, integrate,
//! serialize), with one child span per scatter branch and grandchildren for
//! each retry / failover / hedge attempt. Spans returned by a remote
//! mediator over the Clarens wire are grafted into the caller's tree with
//! the `remote` flag set, so one federated query reads as a single tree no
//! matter how many servers it touched.
//!
//! A query does not build that tree. It writes one [`QueryRecord`] — seven
//! durations, and per branch its costs, its attempts and what its remote
//! hops shipped back (each hop one packed [`HopSpans`] block), the names
//! shared with the cached plan — and the tree is a function of the record
//! ([`Trace::spans`], [`Trace::for_each_span`]), evaluated by whoever
//! reads the trace. The ring retains records; most are evicted unread.
//!
//! All timestamps are offsets (in virtual microseconds) from the trace
//! start; when a fault plan is active these come from the shared
//! `VirtualClock`, otherwise from the same cost algebra accumulated against
//! wall-clock-free virtual time — either way the numbers are deterministic
//! under a fixed seed.

use gridfed_simnet::cost::Cost;
use parking_lot::Mutex;
use std::borrow::Cow;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// What layer of the query path a span describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Root span: the whole query at the mediator.
    Query,
    /// A sequential phase of the mediator pipeline (plan, integrate, ...).
    Phase,
    /// One scatter branch (all work against one physical target).
    Branch,
    /// One physical attempt inside a branch (primary, retry, failover...).
    Attempt,
    /// A remote-mediator hop over the Clarens wire.
    Rpc,
    /// One replication-stream poll: a WAL batch shipped and replayed into
    /// a mart replica (root of a replication trace, not a query).
    Replicate,
}

impl SpanKind {
    /// Stable lowercase name, used on the wire and in `gridfed_monitor.spans`.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Query => "query",
            SpanKind::Phase => "phase",
            SpanKind::Branch => "branch",
            SpanKind::Attempt => "attempt",
            SpanKind::Rpc => "rpc",
            SpanKind::Replicate => "replicate",
        }
    }

    /// Parse a wire name back; unknown kinds decode as `Phase`.
    pub fn parse(s: &str) -> SpanKind {
        match s {
            "query" => SpanKind::Query,
            "branch" => SpanKind::Branch,
            "attempt" => SpanKind::Attempt,
            "rpc" => SpanKind::Rpc,
            "replicate" => SpanKind::Replicate,
            _ => SpanKind::Phase,
        }
    }
}

/// One timed node in a trace. `S` is how it holds its text: owned, for a
/// span that is kept; borrowed, for a span that is only being shown to a
/// reader ([`Trace::for_each_span`], [`HopSpans::iter`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span<S = String> {
    /// Identifier, unique within the trace.
    pub id: u64,
    /// Parent span id; `None` only for the root.
    pub parent: Option<u64>,
    /// Human-readable name ("plan", "database `mart_mysql`", "retry#2"...).
    pub name: S,
    pub kind: SpanKind,
    /// Physical target (server URL or database URL), when one applies.
    pub target: S,
    /// Offset from the trace start, virtual microseconds.
    pub start_us: u64,
    pub duration_us: u64,
    /// Empty for success, otherwise the error rendering.
    pub error: Option<S>,
    /// Span executed on a remote mediator and was stitched in over the wire.
    pub remote: bool,
    /// Direct children compose in parallel (`max`), not sequentially (`sum`).
    pub parallel: bool,
}

impl<S> Span<S> {
    /// End offset in virtual microseconds.
    pub fn end_us(&self) -> u64 {
        self.start_us + self.duration_us
    }

    /// The same span holding its text as `T`.
    pub fn map<'a, T>(&'a self, mut text: impl FnMut(&'a S) -> T) -> Span<T> {
        Span {
            id: self.id,
            parent: self.parent,
            name: text(&self.name),
            kind: self.kind,
            target: text(&self.target),
            start_us: self.start_us,
            duration_us: self.duration_us,
            error: self.error.as_ref().map(&mut text),
            remote: self.remote,
            parallel: self.parallel,
        }
    }
}

/// What kind of physical attempt a branch made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptKind {
    /// First dispatch to the primary target.
    Primary,
    /// A re-dispatch after backoff (primary or failover target).
    Retry,
    /// A dispatch to the failover replica after primary exhaustion.
    Failover,
    /// The hedged duplicate that won the tail-latency race.
    Hedge,
    /// Dispatch refused outright by an open circuit breaker.
    BreakerRejected,
}

impl AttemptKind {
    /// Stable lowercase name (span names, monitor tables).
    pub fn as_str(self) -> &'static str {
        match self {
            AttemptKind::Primary => "primary",
            AttemptKind::Retry => "retry",
            AttemptKind::Failover => "failover",
            AttemptKind::Hedge => "hedge",
            AttemptKind::BreakerRejected => "breaker-rejected",
        }
    }
}

/// One physical attempt on a branch's timeline, in branch-relative virtual
/// time: failed attempts consume their failure penalty + backoff, the
/// winning attempt consumes its connect + execute time.
#[derive(Debug, Clone)]
pub struct AttemptRecord {
    /// What kind of attempt this was.
    pub kind: AttemptKind,
    /// Offset from the branch start.
    pub start: Cost,
    /// Virtual time this attempt occupied on the branch timeline.
    pub duration: Cost,
    /// The error that ended the attempt, `None` for the winner.
    pub error: Option<String>,
}

/// One scatter branch of a [`QueryRecord`].
#[derive(Debug, Clone)]
pub struct BranchRecord {
    /// The branch's name and physical target — the cached plan's strings,
    /// shared with every query that runs the plan.
    pub label: Arc<str>,
    pub target: Arc<str>,
    /// Offset from the scatter's start at which the branch started: when
    /// the branches its reductions read had finished, zero for the rest.
    pub start: Cost,
    /// Winning attempt's connect time.
    pub connect: Cost,
    /// Winning attempt's execute + transfer time.
    pub exec: Cost,
    /// Supervision time: backoff, failed-attempt penalties, hedge waits.
    pub resilience: Cost,
    /// Every physical attempt, moved out of the supervisor's report.
    pub attempts: Vec<AttemptRecord>,
    /// The spans each remote hop shipped back, one packed block per hop.
    pub remote: Vec<HopSpans>,
    /// Why the branch was dropped under the Partial policy.
    pub dropped: Option<String>,
}

/// The spans one remote hop shipped back, packed: every name, target and
/// error in one text buffer, and one fixed-size entry per span. A record
/// keeps its hops in this form, so retaining — and evicting — a hop frees
/// two buffers however many spans it carries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HopSpans {
    text: String,
    entries: Vec<PackedSpan>,
}

/// One span of a [`HopSpans`]: its text is `text[start..ends[0]]` (name),
/// `..ends[1]` (target) and `..ends[2]` (error), each starting where the
/// one before ends and the first where the previous entry's last ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PackedSpan {
    id: u64,
    parent: Option<u64>,
    start_us: u64,
    duration_us: u64,
    ends: [usize; 3],
    kind: SpanKind,
    failed: bool,
    remote: bool,
    parallel: bool,
}

impl HopSpans {
    /// An empty block with room for `spans` spans and `text` bytes of
    /// their names, targets and errors.
    pub fn with_capacity(spans: usize, text: usize) -> HopSpans {
        HopSpans {
            text: String::with_capacity(text),
            entries: Vec::with_capacity(spans),
        }
    }

    /// Append one span, copying its text into the block.
    pub fn push(&mut self, span: Span<&str>) {
        let mut ends = [0; 3];
        for (end, text) in ends.iter_mut().zip([span.name, span.target]) {
            self.text.push_str(text);
            *end = self.text.len();
        }
        self.text.push_str(span.error.unwrap_or(""));
        ends[2] = self.text.len();
        self.entries.push(PackedSpan {
            id: span.id,
            parent: span.parent,
            start_us: span.start_us,
            duration_us: span.duration_us,
            ends,
            kind: span.kind,
            failed: span.error.is_some(),
            remote: span.remote,
            parallel: span.parallel,
        });
    }

    /// How many spans the hop shipped.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The spans in the order they were pushed, text borrowed from the block.
    pub fn iter(&self) -> impl Iterator<Item = Span<&str>> {
        let mut start = 0;
        self.entries.iter().map(move |e| {
            let [name, target, error] = e.ends;
            let (at, text) = (start, &self.text);
            start = error;
            Span {
                id: e.id,
                parent: e.parent,
                name: &text[at..name],
                kind: e.kind,
                target: &text[name..target],
                start_us: e.start_us,
                duration_us: e.duration_us,
                error: e.failed.then(|| &text[target..error]),
                remote: e.remote,
                parallel: e.parallel,
            }
        })
    }
}

/// What a traced query writes about its own execution, once, when it
/// ends: seven durations and one entry per branch. No span is built and no
/// name is copied on the query path — the tree is a function of this
/// ([`Trace::spans`]), evaluated by whoever reads it.
#[derive(Debug, Clone, Default)]
pub struct QueryRecord {
    /// The virtual-time breakdown's terms.
    pub plan: Cost,
    pub rls: Cost,
    pub connect: Cost,
    pub execute: Cost,
    pub integrate: Cost,
    pub serialize: Cost,
    pub resilience: Cost,
    /// Host of the RLS the mediator consults (the `rls` span's target).
    pub rls_host: Option<Arc<str>>,
    /// Widest worker pool the integration used (1 = sequential).
    pub exec_workers: u64,
    /// The error the query failed with.
    pub error: Option<String>,
    /// Scatter branches, in gather order.
    pub branches: Vec<BranchRecord>,
}

/// A completed trace: the header every reader wants, and the span tree —
/// recorded as such for a refresh or replication trace, projected from the
/// [`QueryRecord`] on first read for a query's.
#[derive(Debug, Clone)]
pub struct Trace {
    pub trace_id: u64,
    pub sql: String,
    /// URL of the mediator that ran the query: one string per mediator,
    /// shared by every trace it records.
    pub server: Arc<str>,
    /// Caller's trace id when this query was spawned by a remote mediator.
    pub origin: Option<u64>,
    /// Absolute virtual-clock reading when the query started.
    pub started_us: u64,
    pub duration_us: u64,
    /// "ok" or "error: ...".
    pub status: Cow<'static, str>,
    pub rows_returned: u64,
    pub cache_hit: bool,
    pub distributed: bool,
    pub degraded: bool,
    pub retries: u64,
    pub failovers: u64,
    /// `None` for a trace whose spans were recorded directly.
    pub record: Option<QueryRecord>,
    spans: OnceLock<Vec<Span>>,
}

impl Trace {
    /// The span tree, parents before children. A query's is built on the
    /// first call and kept: a trace nobody inspects never pays for spans.
    pub fn spans(&self) -> &[Span] {
        self.spans.get_or_init(|| {
            let mut spans = Vec::new();
            if let Some(q) = &self.record {
                self.project(q, |s| spans.push(s.map(|text| text.to_string())));
            }
            spans
        })
    }

    /// Hand every span of the tree to `f`, parents before children, with
    /// its text borrowed from the trace wherever it is stored there: no
    /// list is built and nothing is kept. For a reader that re-encodes the
    /// spans at once (the `query_federated` reply).
    pub fn for_each_span<'a>(&'a self, mut f: impl FnMut(Span<Cow<'a, str>>)) {
        match (self.spans.get(), &self.record) {
            (None, Some(record)) => self.project(record, f),
            _ => {
                for span in self.spans() {
                    f(span.map(|text| text.as_str().into()));
                }
            }
        }
    }

    /// The one place a query's span tree is defined. The root's phase
    /// children tile it exactly (plan → rls → scatter → integrate →
    /// serialize sums to the total); the scatter phase and each branch are
    /// parallel-composed, so only containment holds for them. A
    /// result-cache hit is the root and one `cache-hit` phase.
    fn project<'a>(&'a self, q: &'a QueryRecord, emit: impl FnMut(Span<Cow<'a, str>>)) {
        let (server, phase) = (&*self.server, SpanKind::Phase);
        let total = Cost::from_micros(self.duration_us);
        let mut tb = Projection { emitted: 0, emit };
        let error = q.error.as_deref();
        let root = node(None, "query", SpanKind::Query, server, Cost::ZERO, total);
        let root = tb.emit(root.failed(error));
        if self.cache_hit {
            let hit = node(Some(root), "cache-hit", phase, server, Cost::ZERO, total);
            tb.emit(hit);
            return;
        }
        let mut at = Cost::ZERO;
        let plan = node(Some(root), "plan", phase, server, at, q.plan);
        tb.emit(plan);
        at += q.plan;
        if q.rls > Cost::ZERO {
            let rls_host = q.rls_host.as_deref().unwrap_or("");
            let rls = node(Some(root), "rls", phase, rls_host, at, q.rls);
            tb.emit(rls);
            at += q.rls;
        }
        let scatter_dur = q.connect + q.execute + q.resilience;
        if scatter_dur > Cost::ZERO || !q.branches.is_empty() {
            let scatter = node(Some(root), "scatter", phase, server, at, scatter_dur);
            let scatter = tb.emit(scatter.parallel());
            for b in &q.branches {
                let (label, target) = (&*b.label, &*b.target);
                let (bstart, bdur) = (at + b.start, b.connect + b.exec + b.resilience);
                let branch = node(Some(scatter), label, SpanKind::Branch, target, bstart, bdur);
                let branch = tb.emit(branch.parallel().failed(b.dropped.as_deref()));
                for rec in &b.attempts {
                    let (name, start) = (rec.kind.as_str(), bstart + rec.start);
                    let kind = SpanKind::Attempt;
                    let attempt = node(Some(branch), name, kind, target, start, rec.duration);
                    tb.emit(attempt.failed(rec.error.as_deref()));
                }
                // Remote hops: one RPC span per hop, covering the branch's
                // execute window, with the remote mediator's spans grafted
                // underneath (start offsets rebased to this trace).
                for hop in &b.remote {
                    let (name, start) = ("rpc query_federated", bstart + b.connect);
                    let rpc = node(Some(branch), name, SpanKind::Rpc, target, start, b.exec);
                    let rpc = tb.emit(rpc.parallel());
                    tb.graft_remote(rpc, start, hop);
                }
            }
            at += scatter_dur;
        }
        if q.integrate > Cost::ZERO {
            let integrate = node(Some(root), "integrate", phase, server, at, q.integrate);
            // A pool-parallel integration is parallel-composed: mark the
            // phase and give it one contained child per worker, so
            // `check_composition` asserts containment (not tiling) under
            // it, mirroring the scatter phase.
            if q.exec_workers > 1 {
                let integrate = tb.emit(integrate.parallel());
                for w in 0..q.exec_workers {
                    let name = format!("worker-{w}");
                    let worker = node(Some(integrate), name, phase, server, at, q.integrate);
                    tb.emit(worker.parallel());
                }
            } else {
                tb.emit(integrate);
            }
            at += q.integrate;
        }
        if q.serialize > Cost::ZERO {
            let serialize = node(Some(root), "serialize", phase, server, at, q.serialize);
            tb.emit(serialize);
        }
    }

    /// The root span, if the trace recorded any spans at all.
    pub fn root(&self) -> Option<&Span> {
        self.spans().iter().find(|s| s.parent.is_none())
    }

    /// Direct children of `id`, in recording order.
    pub fn children_of(&self, id: u64) -> Vec<&Span> {
        let spans = self.spans().iter();
        spans.filter(|s| s.parent == Some(id)).collect()
    }

    /// Check the timing algebra of the tree: every child lies within its
    /// parent's bounds, and for sequential parents the children exactly
    /// partition the parent's duration (within `tolerance_us`). Parallel
    /// parents only require containment — their duration is the `par`
    /// (max-based) composition of racing children.
    pub fn check_composition(&self, tolerance_us: u64) -> Result<(), String> {
        let Some(root) = self.root() else {
            return Err("trace has no root span".into());
        };
        if root.duration_us.abs_diff(self.duration_us) > tolerance_us {
            return Err(format!(
                "root span {}us != trace duration {}us",
                root.duration_us, self.duration_us
            ));
        }
        for span in self.spans() {
            if let Some(pid) = span.parent {
                let Some(parent) = self.spans().iter().find(|s| s.id == pid) else {
                    return Err(format!("span {} has dangling parent {pid}", span.id));
                };
                if span.start_us + tolerance_us < parent.start_us
                    || span.end_us() > parent.end_us() + tolerance_us
                {
                    return Err(format!(
                        "span {} `{}` [{}, {}] escapes parent {} [{}, {}]",
                        span.id,
                        span.name,
                        span.start_us,
                        span.end_us(),
                        parent.id,
                        parent.start_us,
                        parent.end_us()
                    ));
                }
            }
            let children = self.children_of(span.id);
            if !children.is_empty() && !span.parallel {
                let sum: u64 = children.iter().map(|c| c.duration_us).sum();
                if sum.abs_diff(span.duration_us) > tolerance_us {
                    return Err(format!(
                        "sequential span {} `{}` duration {}us != children sum {}us",
                        span.id, span.name, span.duration_us, sum
                    ));
                }
            }
        }
        Ok(())
    }

    /// Render the span tree as an indented listing.
    pub fn render_tree(&self) -> String {
        let mut out = format!(
            "trace {} on {} — {} ({:.3}ms, {})\n",
            self.trace_id,
            self.server,
            self.sql,
            self.duration_us as f64 / 1_000.0,
            self.status
        );
        if let Some(root) = self.root() {
            self.render_span(root, 0, &mut out);
        }
        out
    }

    fn render_span(&self, span: &Span, depth: usize, out: &mut String) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        let _ = write!(
            out,
            "[{}] {} @{:.3}ms +{:.3}ms",
            span.kind.as_str(),
            span.name,
            span.start_us as f64 / 1_000.0,
            span.duration_us as f64 / 1_000.0
        );
        if !span.target.is_empty() {
            let _ = write!(out, " -> {}", span.target);
        }
        if span.parallel {
            out.push_str(" (parallel)");
        }
        if span.remote {
            out.push_str(" (remote)");
        }
        if let Some(err) = &span.error {
            let _ = write!(out, " (error: {err})");
        }
        out.push('\n');
        for child in self.children_of(span.id) {
            self.render_span(child, depth + 1, out);
        }
    }
}

/// A span not yet given an id: no error, sequential children, local.
fn node<'a>(
    parent: Option<u64>,
    name: impl Into<Cow<'a, str>>,
    kind: SpanKind,
    target: impl Into<Cow<'a, str>>,
    start: Cost,
    duration: Cost,
) -> Span<Cow<'a, str>> {
    Span {
        id: 0,
        parent,
        name: name.into(),
        kind,
        target: target.into(),
        start_us: start.as_micros(),
        duration_us: duration.as_micros(),
        error: None,
        remote: false,
        parallel: false,
    }
}

impl<'a> Span<Cow<'a, str>> {
    fn parallel(self) -> Self {
        Span {
            parallel: true,
            ..self
        }
    }

    fn failed(self, error: Option<&'a str>) -> Self {
        Span {
            error: error.map(Cow::Borrowed),
            ..self
        }
    }
}

/// A projection in progress: numbers each finished span in emission order,
/// from 1, and hands it on.
struct Projection<F> {
    emitted: u64,
    emit: F,
}

impl<'a, F: FnMut(Span<Cow<'a, str>>)> Projection<F> {
    /// Emit `span` under the next id; returns the id, for use as a parent.
    fn emit(&mut self, span: Span<Cow<'a, str>>) -> u64 {
        self.emitted += 1;
        (self.emit)(Span {
            id: self.emitted,
            ..span
        });
        self.emitted
    }

    /// Graft a remote hop's spans under `parent` ([`graft`]).
    fn graft_remote(&mut self, parent: u64, base: Cost, hop: &'a HopSpans) {
        let spans = hop.iter().map(|span| span.map(|text| Cow::Borrowed(*text)));
        graft(parent, base, self.emitted + 1, spans, |span| {
            self.emit(span);
        });
    }
}

/// Graft a remote mediator's span list under `parent`, re-identifying every
/// span into this trace's id space (from `first_id` on, in order), shifting
/// starts so the remote root begins at `base`, and flagging everything as
/// remote. Remote span lists are recorded in parent-before-child order,
/// which the re-identification relies on: a parent not seen yet (or never
/// sent) reads as `parent`.
fn graft<S>(
    parent: u64,
    base: Cost,
    first_id: u64,
    remote: impl IntoIterator<Item = Span<S>>,
    mut push: impl FnMut(Span<S>),
) {
    let mut ids = std::collections::HashMap::new();
    for (id, span) in (first_id..).zip(remote) {
        ids.insert(span.id, id);
        let mapped_parent = span.parent.and_then(|p| ids.get(&p).copied());
        push(Span {
            id,
            parent: Some(mapped_parent.unwrap_or(parent)),
            start_us: span.start_us + base.as_micros(),
            remote: true,
            ..span
        });
    }
}

/// Span-list builder for a refresh or replication trace, which records its
/// few spans directly.
#[derive(Debug)]
pub struct TraceBuilder {
    trace_id: u64,
    /// In recording order; a span's id is its position, counted from 1.
    spans: Vec<Span>,
}

impl TraceBuilder {
    pub fn new(trace_id: u64) -> TraceBuilder {
        let spans = Vec::new();
        TraceBuilder { trace_id, spans }
    }

    /// Record a span; returns its id for use as a parent.
    pub fn span(
        &mut self,
        parent: Option<u64>,
        name: impl Into<String>,
        kind: SpanKind,
        target: impl Into<String>,
        start: Cost,
        duration: Cost,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            name: name.into(),
            kind,
            target: target.into(),
            start_us: start.as_micros(),
            duration_us: duration.as_micros(),
            error: None,
            remote: false,
            parallel: false,
        });
        id
    }

    fn recorded(&mut self, id: u64) -> Option<&mut Span> {
        self.spans.get_mut((id as usize).checked_sub(1)?)
    }

    /// Mark a recorded span's children as racing in parallel.
    pub fn mark_parallel(&mut self, id: u64) {
        if let Some(s) = self.recorded(id) {
            s.parallel = true;
        }
    }

    /// Attach an error rendering to a recorded span.
    pub fn mark_error(&mut self, id: u64, error: impl Into<String>) {
        if let Some(s) = self.recorded(id) {
            s.error = Some(error.into());
        }
    }

    /// Graft a remote mediator's span list under `parent` ([`graft`]).
    pub fn graft_remote(&mut self, parent: u64, base: Cost, remote: &[Span]) {
        let first_id = self.spans.len() as u64 + 1;
        graft(parent, base, first_id, remote.iter().cloned(), |span| {
            self.spans.push(span)
        });
    }

    /// Seal the builder into a [`Trace`] whose spans are the recorded ones;
    /// with none recorded, they are the projection of the `record` the
    /// caller attaches.
    #[allow(clippy::too_many_arguments)]
    pub fn finish(
        self,
        sql: impl Into<String>,
        server: impl Into<Arc<str>>,
        origin: Option<u64>,
        started_us: u64,
        duration: Cost,
        status: impl Into<Cow<'static, str>>,
        rows_returned: u64,
    ) -> Trace {
        Trace {
            trace_id: self.trace_id,
            sql: sql.into(),
            server: server.into(),
            origin,
            started_us,
            duration_us: duration.as_micros(),
            status: status.into(),
            rows_returned,
            cache_hit: false,
            distributed: false,
            degraded: false,
            retries: 0,
            failovers: 0,
            record: None,
            spans: if self.spans.is_empty() {
                OnceLock::new()
            } else {
                self.spans.into()
            },
        }
    }
}

/// Bounded in-memory store of recent traces (a ring: oldest evicted first).
/// The retention cap is fixed when the store is built.
#[derive(Debug)]
pub struct TraceStore {
    next_id: AtomicU64,
    capacity: usize,
    ring: Mutex<VecDeque<Arc<Trace>>>,
}

impl TraceStore {
    pub fn new(capacity: usize) -> TraceStore {
        TraceStore {
            next_id: AtomicU64::new(1),
            capacity: capacity.max(1),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// Allocate the next trace id.
    pub fn next_trace_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// The retention cap.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Record a completed trace, evicting the oldest past capacity.
    /// Returns the stored handle (for callers that export it right away,
    /// e.g. the RPC layer shipping spans back to a remote caller).
    pub fn record(&self, trace: Trace) -> Arc<Trace> {
        let trace = Arc::new(trace);
        self.record_shared(Arc::clone(&trace));
        trace
    }

    /// Record an already-shared trace handle — the slow-query log retains
    /// the same `Arc` the main ring recorded, paying one pointer, not a
    /// deep copy. The id counter is untouched (the trace keeps the id it
    /// was assembled with).
    pub fn record_shared(&self, trace: Arc<Trace>) {
        let mut ring = self.ring.lock();
        while ring.len() >= self.capacity {
            ring.pop_front();
        }
        ring.push_back(trace);
    }

    /// Retained trace count.
    pub fn len(&self) -> usize {
        self.ring.lock().len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.ring.lock().is_empty()
    }

    /// All retained traces, oldest first.
    pub fn snapshot(&self) -> Vec<Arc<Trace>> {
        self.ring.lock().iter().cloned().collect()
    }

    /// The most recent trace.
    pub fn latest(&self) -> Option<Arc<Trace>> {
        self.ring.lock().back().cloned()
    }

    /// Look a retained trace up by id.
    pub fn get(&self, trace_id: u64) -> Option<Arc<Trace>> {
        self.ring
            .lock()
            .iter()
            .find(|t| t.trace_id == trace_id)
            .cloned()
    }

    pub fn clear(&self) {
        self.ring.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Cost {
        Cost::from_millis(n)
    }

    fn sample_trace() -> Trace {
        let mut b = TraceBuilder::new(7);
        let root = b.span(None, "query", SpanKind::Query, "", Cost::ZERO, ms(100));
        b.span(Some(root), "plan", SpanKind::Phase, "", Cost::ZERO, ms(10));
        let scatter = b.span(Some(root), "scatter", SpanKind::Phase, "", ms(10), ms(80));
        b.mark_parallel(scatter);
        b.span(
            Some(scatter),
            "branch a",
            SpanKind::Branch,
            "mysql://a",
            ms(10),
            ms(80),
        );
        b.span(
            Some(scatter),
            "branch b",
            SpanKind::Branch,
            "oracle://b",
            ms(10),
            ms(40),
        );
        b.span(Some(root), "integrate", SpanKind::Phase, "", ms(90), ms(10));
        b.finish("SELECT 1", "clarens://x/das", None, 0, ms(100), "ok", 1)
    }

    #[test]
    fn composition_holds_for_well_formed_tree() {
        sample_trace().check_composition(0).unwrap();
    }

    #[test]
    fn composition_catches_sequential_gap() {
        let mut t = sample_trace();
        // Shrink a sequential child of the root: the sum no longer matches.
        t.spans.get_mut().unwrap()[1].duration_us -= 5_000;
        assert!(t.check_composition(100).is_err());
        assert!(t.check_composition(10_000).is_ok());
    }

    #[test]
    fn composition_catches_escaping_child() {
        let mut t = sample_trace();
        t.spans.get_mut().unwrap()[3].duration_us += 50_000; // branch a now outlives scatter
        assert!(t.check_composition(100).is_err());
    }

    #[test]
    fn graft_rebases_and_flags_remote() {
        let mut remote = TraceBuilder::new(99);
        let r = remote.span(None, "query", SpanKind::Query, "", Cost::ZERO, ms(30));
        remote.span(Some(r), "plan", SpanKind::Phase, "", Cost::ZERO, ms(5));
        let mut hop = HopSpans::default();
        for span in &remote.spans {
            hop.push(span.map(String::as_str));
        }
        assert!(hop
            .iter()
            .eq(remote.spans.iter().map(|s| s.map(String::as_str))));

        let branch = BranchRecord {
            label: "node2".into(),
            target: "clarens://y".into(),
            start: Cost::ZERO,
            connect: ms(20),
            exec: ms(40),
            resilience: Cost::ZERO,
            attempts: Vec::new(),
            remote: vec![hop],
            dropped: None,
        };
        let mut t = TraceBuilder::new(1).finish("SELECT 1", "srv", None, 0, ms(100), "ok", 0);
        t.record = Some(QueryRecord {
            execute: ms(60),
            branches: vec![branch],
            ..QueryRecord::default()
        });
        let rpc = t.spans().iter().find(|s| s.kind == SpanKind::Rpc).unwrap();
        let grafted: Vec<&Span> = t.spans().iter().filter(|s| s.remote).collect();
        assert_eq!(grafted.len(), 2);
        assert_eq!(grafted[0].parent, Some(rpc.id));
        assert_eq!(grafted[0].start_us, 20_000);
        assert_eq!(grafted[1].parent, Some(grafted[0].id));
        // ids re-allocated into the caller's space, no collisions
        let mut ids: Vec<u64> = t.spans().iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), t.spans().len());
    }

    #[test]
    fn store_is_a_bounded_ring() {
        let store = TraceStore::new(2);
        for i in 0..4 {
            let id = store.next_trace_id();
            assert_eq!(id, i + 1);
            let b = TraceBuilder::new(id);
            store.record(b.finish(format!("q{i}"), "srv", None, 0, ms(1), "ok", 0));
        }
        let kept = store.snapshot();
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].sql, "q2");
        assert_eq!(kept[1].sql, "q3");
        assert!(store.get(3).is_some());
        assert!(store.get(1).is_none());
        assert_eq!(store.latest().unwrap().trace_id, 4);
    }

    #[test]
    fn a_small_store_evicts_oldest_first_at_its_cap() {
        let store = TraceStore::new(3);
        assert_eq!(store.capacity(), 3);
        for i in 0..6 {
            let b = TraceBuilder::new(store.next_trace_id());
            store.record(b.finish(format!("q{i}"), "srv", None, 0, ms(1), "ok", 0));
            assert_eq!(
                store.len(),
                (i + 1).min(3),
                "the cap holds from the first record"
            );
        }
        let kept = store.snapshot();
        assert_eq!(
            kept.iter().map(|t| t.sql.as_str()).collect::<Vec<_>>(),
            vec!["q3", "q4", "q5"],
            "FIFO: the oldest traces went first"
        );
        // The cap holds for subsequent records too.
        let b = TraceBuilder::new(store.next_trace_id());
        store.record(b.finish("q6", "srv", None, 0, ms(1), "ok", 0));
        assert_eq!(store.len(), 3);
        assert_eq!(store.latest().unwrap().sql, "q6");
        assert!(store.get(4).is_none(), "q3 went");
        assert!(!store.is_empty());
    }

    #[test]
    fn render_tree_shows_structure() {
        let out = sample_trace().render_tree();
        assert!(out.contains("[query] query"));
        assert!(out.contains("  [phase] plan"));
        assert!(out.contains("(parallel)"));
        assert!(out.contains("-> mysql://a"));
    }
}

//! A kept connection is the connection: `Session` ≡ `PerQuery`, step by step,
//! in everything but what the handshakes and the RLS round trips cost.
//!
//! A mediator keeps its backend connections, its peer channels and its RLS
//! leases between queries (DESIGN.md §4.4, "Connect once"); the 2005
//! prototype opened, authenticated and asked again for every distributed
//! query. This suite drives **two identically built grids**, one under each
//! [`ConnectionPolicy`], through one seeded sequence of statements of all
//! three plan shapes (single database, forward-all, federated — plus
//! statements that fail in the planner, at a backend and behind a peer),
//! sent to either mediator. After every step each grid's answer keeps the
//! promise against `gridfed-reference` over the grid's merged database
//! (`tests/common`): exact, or a typed error the reference shares. The two
//! must agree on
//!
//! - `servers`, `distributed`, `tables` (Table 1's columns), `subqueries`,
//!   `remote_forwards`, `rows_fetched`, `bytes_fetched`, `databases`,
//!   `versions`: same sub-queries, to the same places, same rows, same bytes;
//! - the `integrate`, `serialize` and `resilience` terms of the virtual
//!   breakdown;
//!
//! and differ only where the session saves: `Session` never pays more
//! `connect` or `rls` than `PerQuery`, and from the second time a mediator
//! sees a statement shape it pays **none** — no connection opened, no RLS
//! lookup, by it or by the peer it forwards to. Planning is priced as done:
//! `PerQuery` pays `sql_parse + plan_decompose` on every query, `Session`
//! the same the first time a mediator sees a statement's text and nothing
//! from then on (`plan_P − plan_S`, its plan cache answered). Then, to the
//! microsecond,
//!
//! ```text
//! response_time(Session) = response_time(PerQuery) − connect − rls
//!     − (plan_P − plan_S) + n × JNI_CALL
//!     − Σ over remote branches of (statements − calls)
//!         × (remote_forward + clarens_request + clarens_response + link round trip)
//!     − Σ over forwarded statements the peer has planned before of its planning
//! ```
//!
//! where `n` counts the per-table fetches that now go through POOL-RAL
//! instead of a fresh JDBC connection and lie on the critical path (at most
//! one per newly pooled hit), the next term is what a kept channel saves
//! by carrying a branch's sub-queries for one peer in one `query_federated`
//! call ([`one_call_saves`]; `remote_forwards` still counts statements, so
//! it is among the equalities above), and the last is the planning a peer
//! skips for a statement it answers from its own plan cache
//! ([`peer_planning_saved`]) — except where the handshake saved was the
//! *peer's* ([`handshake_behind_the_peer`]): that one is inside the peer's
//! reply, the caller's `execute` term, and there `Session` is simply
//! faster, by more than the calls and the planning it saved.

mod common;

use common::{assert_promise, two_sources, Merged, Rng};
use gridfed::clarens::codec::WireValue;
use gridfed::clarens::server::Service;
use gridfed::core::service::ConnectionPolicy;
use gridfed::core::stats::QueryStats;
use gridfed::core::CoreError;
use gridfed::poolral::JNI_CALL;
use gridfed::prelude::*;
use gridfed::simnet::params::CostParams;
use gridfed::sqlkit::parser::parse_select;
use gridfed::sqlkit::render::{render_select, NeutralStyle};
use std::collections::{BTreeMap, HashSet};

const SEEDS: u64 = 128;
const STEPS: usize = 40;

/// The statement shapes, `k` a pushed-down literal: Table-1 rows 1/2/3, a
/// Fig-6 join, the forward-all shape from either side, a whole statement on
/// the vendor POOL cannot hold, an aggregate, and four that fail — nowhere
/// hosted, in the planner, at a local backend, behind the peer.
fn statement(shape: usize, k: u64) -> String {
    match shape {
        0 => format!("SELECT e_id, energy FROM ntuple_events WHERE e_id < {k}"),
        1 => format!(
            "SELECT e.e_id, s.n_meas FROM ntuple_events e \
             JOIN run_summary s ON e.run_id = s.run_id WHERE e.e_id < {k}"
        ),
        2 => format!(
            "SELECT e.e_id, s.n_meas, c.avg_weight, d.mean_value \
             FROM ntuple_events e \
             JOIN run_summary s ON e.run_id = s.run_id \
             JOIN run_conditions c ON s.run_id = c.run_id \
             JOIN detector_summary d ON c.detector = d.detector \
             WHERE e.e_id < {k}"
        ),
        3 => format!(
            "SELECT e.e_id, e.energy, s.avg_value FROM ntuple_events e \
             JOIN run_summary s ON e.run_id = s.run_id WHERE e.e_id < {}",
            3 * k
        ),
        4 => "SELECT detector, mean_value FROM detector_summary ORDER BY detector".to_string(),
        5 => format!("SELECT run_id, n_meas FROM run_summary WHERE run_id < {k}"),
        6 => "SELECT c.run_id, c.avg_weight, d.mean_value FROM run_conditions c \
              JOIN detector_summary d ON c.detector = d.detector WHERE c.run_id < 3"
            .to_string(),
        7 => "SELECT run_id, COUNT(*) AS n, AVG(energy) AS avg_e FROM ntuple_events \
              GROUP BY run_id ORDER BY run_id"
            .to_string(),
        8 => "SELECT x FROM no_such_table".to_string(),
        9 => "SELECT e.e_id, s.nope FROM ntuple_events e \
              JOIN run_summary s ON e.run_id = s.run_id"
            .to_string(),
        10 => "SELECT no_such_column FROM run_summary".to_string(),
        _ => "SELECT no_such_column FROM detector_summary".to_string(),
    }
}
const SHAPES: usize = 12;

/// Whether, under `PerQuery`, the *peer* opens a connection to answer its
/// share of the statement — a handshake the caller sees only as part of the
/// peer's reply time (its `execute` term), not of its own `connect`: the
/// front mediator forwarding a join of node2's two marts, the back mediator
/// forwarding anything that reads `run_summary` off `mart_mssql`. Seen from
/// outside: `execute` shrank by more than the calls saved.
fn handshake_behind_the_peer(via: usize, shape: usize) -> bool {
    match via {
        0 => shape == 6,
        _ => matches!(shape, 1 | 2 | 3 | 5),
    }
}

/// What mediator `via` saves on `sql` by sending each peer one call per
/// branch: for a remote branch of `k` statements, `k − 1` forwards, Clarens
/// requests and responses, and the `k` link round trips less the one that
/// carries them all. Worked out from outside the mediator, on `wire` — a
/// third grid built like the two compared, so asking it disturbs neither:
/// the statements are the ones its EXPLAIN prints per remote server, the
/// replies what the peer answers to each, the bytes what `ClarensClient`
/// frames them in (64 + service + method + params out, 32 + value back).
fn one_call_saves(wire: &Grid, via: usize, sql: &str) -> Cost {
    let p = CostParams::paper_2005();
    let mut saved = Cost::ZERO;
    for (url, statements) in forwarded(wire, via, sql) {
        if statements.len() < 2 {
            continue;
        }
        let statements: Vec<WireValue> = statements.into_iter().map(WireValue::Str).collect();
        let peer = wire.servers.iter().position(|s| s.url() == url);
        let peer = peer.expect("a mediator of this grid");
        let link = wire
            .topology
            .link(wire.servers[via].host(), wire.servers[peer].host());
        let round_trip = |statements: WireValue| {
            let params = [statements, WireValue::Null];
            let reply = wire.service(peer).call("query_federated", &params);
            let sent: usize = params.iter().map(WireValue::wire_size).sum();
            let back = reply.expect("the peer answers").value.wire_size();
            link.round_trip(64 + "das".len() + "query_federated".len() + sent, 32 + back)
        };
        let per_call = p.remote_forward + p.clarens_request + p.clarens_response;
        let calls_saved: Cost = statements.iter().skip(1).map(|_| per_call).sum();
        let one_each: Cost = statements.iter().cloned().map(round_trip).sum();
        let in_one = round_trip(WireValue::List(statements));
        saved += calls_saved + one_each.saturating_sub(in_one);
    }
    saved
}

/// The statements mediator `via` forwards for `sql`, by peer URL: the ones
/// its EXPLAIN prints per remote server, on `wire` (see [`one_call_saves`]),
/// or the whole statement, rendered as the mediator ships it, when the plan
/// forwards it all.
fn forwarded(wire: &Grid, via: usize, sql: &str) -> BTreeMap<String, Vec<String>> {
    let mut by_peer: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let Ok(plan) = wire.service(via).explain(sql) else {
        return by_peer;
    };
    for line in plan.lines() {
        let whole = "forward entire statement to remote server ";
        if let Some(url) = line.trim_start().strip_prefix(whole) {
            let stmt = parse_select(sql).expect("the statement planned");
            let sub = render_select(&stmt, &NeutralStyle);
            by_peer.entry(url.into()).or_default().push(sub);
            continue;
        }
        let fetch = line.split_once(" via RLS from ");
        let Some((at, sub)) = fetch.and_then(|(_, rest)| rest.split_once(": ")) else {
            continue;
        };
        let url = at.split(' ').next().expect("a URL");
        by_peer.entry(url.into()).or_default().push(sub.into());
    }
    by_peer
}

/// What the peers of mediator `via` save on `sql` under `Session` by
/// answering statements from their own plan caches: one `sql_parse +
/// plan_decompose` for every forwarded statement its peer has planned
/// before. Nothing in this suite moves what a peer plans from, so that is
/// every statement `planned` (all forwarded so far, by peer) already holds;
/// this one's are added.
fn peer_planning_saved(
    wire: &Grid,
    via: usize,
    sql: &str,
    planned: &mut HashSet<(String, String)>,
) -> Cost {
    let p = CostParams::paper_2005();
    let mut saved = Cost::ZERO;
    for (url, statements) in forwarded(wire, via, sql) {
        for statement in statements {
            if !planned.insert((url.clone(), statement)) {
                saved += p.sql_parse + p.plan_decompose;
            }
        }
    }
    saved
}

fn build(seed: u64, policy: ConnectionPolicy) -> Grid {
    two_sources(seed, 40)
        .with_connection_policy(policy)
        .build()
        .expect("grid builds")
}

/// One query as a client of mediator `via` sees it: answer, stats, and the
/// response time (the service's own cost at the back mediator, which has
/// no client link in the grid), held to the promise over `merged`.
fn ask(
    g: &Grid,
    via: usize,
    sql: &str,
    at: &str,
    merged: &Merged,
) -> Result<(ResultSet, QueryStats, Cost), CoreError> {
    let seen = if via == 0 {
        g.query(sql).map(|q| (q.result, q.stats, q.response_time))
    } else {
        let t = g.service(via).query(sql);
        t.map(|t| (t.value.result, t.value.stats, t.cost))
    };
    assert_promise(at, sql, seen.as_ref().map(|(r, s, _)| (r, s)), merged);
    seen
}

#[test]
fn session_equals_per_query_except_for_what_it_saves() {
    let (mut saved_us, mut warm_steps) = (0u64, 0usize);
    let (mut batched_steps, mut peer_planned_steps) = (0usize, 0usize);
    for seed in 0..SEEDS {
        let per_query = build(seed, ConnectionPolicy::PerQuery);
        let session = build(seed, ConnectionPolicy::Session);
        let wire = build(seed, ConnectionPolicy::Session);
        let merged = Merged::of(&per_query);
        let mut rng = Rng(seed ^ 0x5E55_1014);
        let mut seen = [[false; SHAPES]; 2];
        let (mut asked, mut peer_planned) = (HashSet::new(), HashSet::new());
        for step in 0..STEPS {
            let via = rng.below(2);
            let shape = rng.below(SHAPES);
            let sql = statement(shape, 5 + rng.next() % 12);
            let at = format!("seed {seed} step {step} via {via}: {sql}");
            let p = ask(&per_query, via, &sql, &format!("{at} (PerQuery)"), &merged);
            let s = ask(&session, via, &sql, &format!("{at} (Session)"), &merged);
            let peer_planning = peer_planning_saved(&wire, via, &sql, &mut peer_planned);
            let asked_before = !asked.insert((via, sql.clone()));
            let (Ok((_, p, p_time)), Ok((_, s, s_time))) = (&p, &s) else {
                assert!(p.is_err() && s.is_err(), "{at}: {p:?} vs {s:?}");
                continue;
            };
            let routed = |q: &QueryStats| {
                (
                    (q.servers, q.distributed, q.tables, q.databases),
                    (q.subqueries, q.remote_forwards),
                    (q.rows_fetched, q.bytes_fetched, q.rows_returned),
                    q.versions.clone(),
                )
            };
            assert_eq!(routed(p), routed(s), "{at}");
            let (pb, sb) = (&p.breakdown, &s.breakdown);
            assert_eq!(
                (pb.integrate, pb.serialize, pb.resilience),
                (sb.integrate, sb.serialize, sb.resilience),
                "{at}"
            );
            // A statement this mediator answered before is answered from
            // its plan cache: nothing in this suite moves what it plans from.
            let planning = CostParams::paper_2005();
            assert_eq!(
                pb.plan,
                planning.sql_parse + planning.plan_decompose,
                "{at}"
            );
            let plan_saved = if asked_before { pb.plan } else { Cost::ZERO };
            assert_eq!(sb.plan + plan_saved, pb.plan, "{at}");
            assert!(sb.connect <= pb.connect && sb.rls <= pb.rls, "{at}");
            assert!(s.rls_lookups <= p.rls_lookups, "{at}");
            assert!(s.connections_opened <= p.connections_opened, "{at}");
            // Every link is one or the other, under either policy.
            assert_eq!(
                s.connections_opened + s.pooled_hits,
                p.connections_opened + p.pooled_hits,
                "{at}"
            );
            if !std::mem::replace(&mut seen[via][shape], true) {
                continue;
            }
            // Seen before by this mediator: everything it needs is open.
            assert_eq!((sb.connect, sb.rls), (Cost::ZERO, Cost::ZERO), "{at}");
            assert_eq!((s.connections_opened, s.rls_lookups), (0, 0), "{at}");
            let newly_pooled = (s.pooled_hits - p.pooled_hits) as u64;
            let one_call = one_call_saves(&wire, via, &sql);
            batched_steps += usize::from(one_call > Cost::ZERO);
            peer_planned_steps += usize::from(peer_planning > Cost::ZERO);
            let in_execute = one_call + peer_planning;
            let behind_the_peer = handshake_behind_the_peer(via, shape);
            assert_eq!(
                behind_the_peer,
                pb.execute > sb.execute + in_execute,
                "{at}"
            );
            if behind_the_peer {
                assert!(*s_time + in_execute + plan_saved < *p_time, "{at}");
            } else {
                let jni = (sb.execute + in_execute).as_micros() - pb.execute.as_micros();
                assert_eq!(jni % JNI_CALL.as_micros(), 0, "{at}");
                assert!(jni / JNI_CALL.as_micros() <= newly_pooled, "{at}");
                assert_eq!(
                    (*s_time + in_execute + pb.connect + pb.rls + plan_saved).as_micros(),
                    p_time.as_micros() + jni,
                    "{at}"
                );
            }
            saved_us += p_time.as_micros() - s_time.as_micros();
            warm_steps += 1;
        }
    }
    // The sequences did exercise the warm path, and it did save.
    assert!(warm_steps > SEEDS as usize * STEPS / 4, "{warm_steps}");
    assert!(saved_us / warm_steps as u64 > 50_000, "{saved_us}");
    // Row 3 from either mediator sends its peer two statements.
    assert!(batched_steps > SEEDS as usize, "{batched_steps}");
    // And peers answered forwarded statements from their plan caches.
    assert!(peer_planned_steps > SEEDS as usize, "{peer_planned_steps}");
}

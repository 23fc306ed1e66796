//! What crosses a mediator hop on the Clarens RPC boundary, each form
//! defined once.
//!
//! `query_federated` answers `List([typed result, stats, spans])`: the
//! partial result, the remote mediator's hop counters (folded into the
//! caller's [`QueryStats`] by `absorb_remote` — work behind an RPC hop must
//! not be lost) and its span list (grafted into the caller's trace so a
//! federated query reads as one stitched tree). `monitor_fetch` answers one
//! `[table, columns, rows]` per exported monitor table. Rows travel in one
//! layout — a list of column names beside a list of rows of scalars — which
//! the typed result and the monitor partial both use.
//!
//! The decoders are forward-tolerant: missing hop counters zero-fill, and
//! trailing fields of a span or a monitor partial are ignored, so mediators
//! running different revisions can still talk.

use crate::error::CoreError;
use crate::federate::Partial;
use crate::stats::{QueryStats, HOP_COUNTERS};
use crate::Result;
use gridfed_clarens::codec::WireValue;
use gridfed_clarens::ClarensError;
use gridfed_obs::{Span, SpanKind};
use gridfed_sqlkit::ResultSet;
use gridfed_storage::{Row, Value};

fn bad(msg: impl Into<String>) -> CoreError {
    CoreError::Rpc(ClarensError::BadParams(msg.into()))
}

/// Encode a hop's counters as the integer list [`HOP_COUNTERS`] orders.
pub(crate) fn stats_to_wire(stats: &QueryStats) -> WireValue {
    let ints = HOP_COUNTERS.iter().map(|c| (c.get)(stats) as i64);
    WireValue::List(ints.map(WireValue::Int).collect())
}

/// Decode a hop's counters. A missing or malformed position reads as zero
/// and a position past the table is ignored, so a list from an older or a
/// newer mediator still decodes.
pub(crate) fn wire_to_stats(v: &WireValue) -> QueryStats {
    let mut out = QueryStats::default();
    let WireValue::List(items) = v else {
        return out;
    };
    for (c, item) in HOP_COUNTERS.iter().zip(items) {
        if let WireValue::Int(n) = item {
            (c.set)(&mut out, (*n).max(0) as u64);
        }
    }
    out
}

/// Encode one span as a fixed-order list:
/// `[id, parent (0 = root), name, kind, target, start_us, duration_us,
/// error (Null = none), remote, parallel]`.
fn span_to_wire<S: AsRef<str>>(span: &Span<S>) -> WireValue {
    let text = |s: &S| WireValue::Str(s.as_ref().to_string());
    WireValue::List(vec![
        WireValue::Int(span.id as i64),
        WireValue::Int(span.parent.map_or(0, |p| p as i64)),
        text(&span.name),
        WireValue::Str(span.kind.as_str().to_string()),
        text(&span.target),
        WireValue::Int(span.start_us as i64),
        WireValue::Int(span.duration_us as i64),
        span.error.as_ref().map_or(WireValue::Null, text),
        WireValue::Bool(span.remote),
        WireValue::Bool(span.parallel),
    ])
}

/// Encode a span list (parent-before-child order is preserved, which the
/// caller-side graft relies on).
pub(crate) fn spans_to_wire<S: AsRef<str>>(spans: &[Span<S>]) -> WireValue {
    WireValue::List(spans.iter().map(span_to_wire).collect())
}

fn field_int(items: &[WireValue], i: usize, what: &str) -> Result<u64> {
    match items.get(i) {
        Some(WireValue::Int(n)) => Ok((*n).max(0) as u64),
        _ => Err(bad(format!("span field {i} ({what}) must be an int"))),
    }
}

/// The string at position `i`, moved out of the list (not copied).
fn take_str(items: &mut [WireValue], i: usize) -> Option<String> {
    match std::mem::replace(items.get_mut(i)?, WireValue::Null) {
        WireValue::Str(s) => Some(s),
        _ => None,
    }
}

fn field_bool(items: &[WireValue], i: usize) -> bool {
    matches!(items.get(i), Some(WireValue::Bool(true)))
}

/// Decode one span, taking its text out of `v` rather than copying it: a
/// traced hop's reply is decoded once and then dropped. Trailing fields
/// beyond the known ten are ignored.
fn wire_to_span(v: WireValue) -> Result<Span> {
    let WireValue::List(mut items) = v else {
        return Err(bad("span must be a list"));
    };
    let mut text = |i: usize, what: &str| {
        take_str(&mut items, i)
            .ok_or_else(|| bad(format!("span field {i} ({what}) must be a string")))
    };
    let (name, kind, target) = (text(2, "name")?, text(3, "kind")?, text(4, "target")?);
    let error = take_str(&mut items, 7);
    let parent = field_int(&items, 1, "parent")?;
    Ok(Span {
        id: field_int(&items, 0, "id")?,
        parent: (parent != 0).then_some(parent),
        name,
        kind: SpanKind::parse(&kind),
        target,
        start_us: field_int(&items, 5, "start_us")?,
        duration_us: field_int(&items, 6, "duration_us")?,
        error,
        remote: field_bool(&items, 8),
        parallel: field_bool(&items, 9),
    })
}

/// Decode a span list.
pub(crate) fn wire_to_spans(v: WireValue) -> Result<Vec<Span>> {
    let WireValue::List(items) = v else {
        return Err(bad("spans must be a list"));
    };
    items.into_iter().map(wire_to_span).collect()
}

fn value_to_wire(v: &Value) -> WireValue {
    match v {
        Value::Null => WireValue::Null,
        Value::Int(i) => WireValue::Int(*i),
        Value::Float(x) => WireValue::Float(*x),
        Value::Text(s) => WireValue::Str(s.clone()),
        Value::Bool(b) => WireValue::Bool(*b),
        Value::Bytes(_) => WireValue::Str(v.render()),
    }
}

fn wire_to_value(w: &WireValue) -> Result<Value> {
    Ok(match w {
        WireValue::Null => Value::Null,
        WireValue::Int(i) => Value::Int(*i),
        WireValue::Float(x) => Value::Float(*x),
        WireValue::Str(s) => Value::Text(s.clone()),
        WireValue::Bool(b) => Value::Bool(*b),
        other => return Err(bad(format!("unexpected wire value {other:?}"))),
    })
}

/// Names — columns, tables, databases — as a `List` of `Str`.
pub(crate) fn names_to_wire(names: &[String]) -> WireValue {
    WireValue::List(names.iter().cloned().map(WireValue::Str).collect())
}

/// Decode what [`names_to_wire`] encodes.
pub(crate) fn wire_to_names(wire: &WireValue) -> gridfed_clarens::Result<Vec<String>> {
    let WireValue::List(names) = wire else {
        return Err(ClarensError::BadParams("names must be a list".into()));
    };
    names
        .iter()
        .map(|n| n.as_str().map(str::to_string))
        .collect()
}

/// The one layout rows cross the wire in: the column names beside
/// `List(rows…)`, each row a `List` of scalars.
fn rows_to_wire(columns: &[String], rows: &[Row]) -> [WireValue; 2] {
    let row = |r: &Row| WireValue::List(r.values().iter().map(value_to_wire).collect());
    let rows = WireValue::List(rows.iter().map(row).collect());
    [names_to_wire(columns), rows]
}

/// Decode what [`rows_to_wire`] encodes.
fn wire_to_rows(columns: &WireValue, rows: &WireValue) -> Result<(Vec<String>, Vec<Row>)> {
    let columns = wire_to_names(columns)?;
    let WireValue::List(rows) = rows else {
        return Err(bad("rows must be a list"));
    };
    let mut out = Vec::with_capacity(rows.len());
    for r in rows {
        let WireValue::List(cells) = r else {
            return Err(bad("row must be a list"));
        };
        let cells = cells.iter().map(wire_to_value).collect::<Result<_>>()?;
        out.push(Row::new(cells));
    }
    Ok((columns, out))
}

/// Typed result → wire form: `List([columns, rows])`.
pub fn result_to_wire(rs: &ResultSet) -> WireValue {
    WireValue::List(rows_to_wire(&rs.columns, &rs.rows).into())
}

/// Wire form → a typed partial.
pub fn wire_to_partial(table: &str, wire: &WireValue) -> Result<Partial> {
    let WireValue::List(parts) = wire else {
        return Err(bad("expected typed result list"));
    };
    let [columns, rows] = parts.as_slice() else {
        return Err(bad("typed result must have two parts"));
    };
    let (columns, rows) = wire_to_rows(columns, rows)?;
    Ok(Partial {
        table: table.to_string(),
        columns,
        rows,
    })
}

/// Encode the monitor partials a `monitor_fetch` peer exports:
/// `List([[table, columns, rows], …])`.
pub(crate) fn monitor_partials_to_wire(partials: &[Partial]) -> WireValue {
    let partial = |p: &Partial| {
        let [columns, rows] = rows_to_wire(&p.columns, &p.rows);
        WireValue::List(vec![WireValue::Str(p.table.clone()), columns, rows])
    };
    WireValue::List(partials.iter().map(partial).collect())
}

/// Decode monitor partials from a peer. A newer peer may append fields to a
/// partial: they are ignored. Column-set mismatches are *not* resolved here
/// — the consumer maps columns by name when it merges remote rows into its
/// local monitor tables.
pub(crate) fn wire_to_monitor_partials(v: &WireValue) -> Result<Vec<Partial>> {
    let WireValue::List(items) = v else {
        return Err(bad("monitor partials must be a list"));
    };
    let partial = |item: &WireValue| {
        let WireValue::List(fields) = item else {
            return Err(bad("monitor partial must be a list"));
        };
        let [WireValue::Str(table), columns, rows, ..] = fields.as_slice() else {
            return Err(bad("monitor partial must be [table, columns, rows]"));
        };
        let (columns, rows) = wire_to_rows(columns, rows)?;
        Ok(Partial {
            table: table.clone(),
            columns,
            rows,
        })
    };
    items.iter().map(partial).collect()
}

/// One statement's share of a `query_federated` response.
pub(crate) type FederatedReply = (Partial, QueryStats, Vec<Span>);

/// Decode the response to a `query_federated` call that carried one
/// statement per name in `tables`: the three-part reply itself for one
/// statement, a `List` of them in statement order for several. The count is
/// the caller's — a reply of any other length is refused before a part of
/// it is decoded.
pub(crate) fn decode_federated_many<'a>(
    tables: impl ExactSizeIterator<Item = &'a str>,
    wire: WireValue,
) -> Result<Vec<FederatedReply>> {
    let replies = match (tables.len(), wire) {
        (1, reply) => vec![reply],
        (sent, WireValue::List(replies)) if replies.len() == sent => replies,
        (sent, _) => {
            return Err(bad(format!(
                "query_federated response must be a list of {sent} replies"
            )))
        }
    };
    tables
        .zip(replies)
        .map(|(table, reply)| decode_federated(table, reply))
        .collect()
}

/// Decode one statement's `query_federated` reply: `List([typed result,
/// stats, spans])`.
fn decode_federated(table: &str, wire: WireValue) -> Result<FederatedReply> {
    let WireValue::List(parts) = wire else {
        return Err(bad("query_federated response must be a list"));
    };
    let Ok([result, stats, spans]) = <[WireValue; 3]>::try_from(parts) else {
        return Err(bad("query_federated response must have three parts"));
    };
    Ok((
        wire_to_partial(table, &result)?,
        wire_to_stats(&stats),
        wire_to_spans(spans)?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{Grid, GridBuilder};
    use crate::service::{ConnectionPolicy, DataAccessService};
    use gridfed_clarens::server::Service;
    use gridfed_simnet::cost::Timed;
    use parking_lot::Mutex;
    use std::sync::{Arc, OnceLock};

    #[test]
    fn spans_round_trip() {
        let spans = vec![
            Span {
                id: 1,
                parent: None,
                name: "query".into(),
                kind: SpanKind::Query,
                target: "clarens://node2:8443/das".into(),
                start_us: 0,
                duration_us: 1500,
                error: None,
                remote: false,
                parallel: false,
            },
            Span {
                id: 2,
                parent: Some(1),
                name: "retry".into(),
                kind: SpanKind::Attempt,
                target: "mart_sqlite".into(),
                start_us: 100,
                duration_us: 400,
                error: Some("transient fault".into()),
                remote: false,
                parallel: true,
            },
        ];
        let back = wire_to_spans(spans_to_wire(&spans)).expect("decode");
        assert_eq!(back, spans);
    }

    #[test]
    fn monitor_partials_round_trip_and_tolerate_trailing_fields() {
        let partials = vec![Partial {
            table: "gridfed_monitor.statements".into(),
            columns: vec!["sql".into(), "calls".into(), "server".into()],
            rows: vec![Row::new(vec![
                Value::Text("select ?".into()),
                Value::Int(4),
                Value::Text("clarens://node2:8443/das".into()),
            ])],
        }];
        let back = wire_to_monitor_partials(&monitor_partials_to_wire(&partials)).unwrap();
        assert_eq!(back, partials);

        // A newer peer appending a 4th field per partial still decodes.
        let WireValue::List(mut items) = monitor_partials_to_wire(&partials) else {
            unreachable!()
        };
        let WireValue::List(fields) = &mut items[0] else {
            unreachable!()
        };
        fields.push(WireValue::Str("future metadata".into()));
        let back = wire_to_monitor_partials(&WireValue::List(items)).unwrap();
        assert_eq!(back, partials);
    }

    #[test]
    fn malformed_span_rejected() {
        assert!(wire_to_span(WireValue::Int(3)).is_err());
        assert!(wire_to_spans(WireValue::List(vec![WireValue::List(vec![
            WireValue::Int(1)
        ])]))
        .is_err());
    }

    /// A mixed-type result off a fixed LCG: every scalar class, NULLs in
    /// any column. [`RECORDED_ROWS`] holds its encoding at the commit
    /// before this module existed.
    fn seeded_result(seed: u64) -> ResultSet {
        let mut x = seed;
        let mut next = move || {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            x >> 33
        };
        let rows = (0..5)
            .map(|_| {
                let cells = vec![
                    Value::Int(next() as i64 - (1 << 30)),
                    Value::Float(next() as f64 / 7.0),
                    Value::Text(format!("s{}", next() % 1000)),
                    Value::Bool(next() % 2 == 0),
                    Value::Null,
                    Value::Bytes(vec![next() as u8, next() as u8]),
                ];
                let holed = cells
                    .into_iter()
                    .map(|v| if next() % 5 == 0 { Value::Null } else { v });
                Row::new(holed.collect())
            })
            .collect();
        ResultSet {
            columns: ["i", "f", "t", "b", "n", "y"].map(String::from).to_vec(),
            rows,
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// `[columns, rows]` of `seeded_result(23)` as `service::result_to_wire`
    /// encoded them at d9bdf82, without the outer list's 5-byte header.
    const RECORDED_ROWS: &str = "6c0000000673000000016973000000016673000000017473000000016273000000016e7300000001796c000000056c0000000669ffffffffc1b135c86641a184853b2492496e6e6e73000000063078626338346c0000000669000000003a31b7a066418625b9d800000073000000047339343062016e73000000063078303735326c0000000669ffffffffdef5095e66418747d206db6db773000000047337363662006e73000000063078613339616c0000000669ffffffffd340ae97664190a9bce000000073000000047333383962016e73000000063078373832306c0000000669ffffffffc6643e0366419cd5664edb6db773000000047332373062006e6e";

    #[test]
    fn rows_encode_byte_for_byte_as_before_the_codecs_merged() {
        let rs = seeded_result(23);
        // d9bdf82: `RESULT 6c00000002` + the rows.
        assert_eq!(
            hex(&result_to_wire(&rs).encode()),
            format!("6c00000002{RECORDED_ROWS}")
        );
        // d9bdf82, `obswire::monitor_partials_to_wire` of the same partial
        // twice: a 2-list of `[table, columns, rows]` 3-lists.
        let p = Partial::from_result("gridfed_monitor.mixed", rs);
        let one = format!(
            "6c000000037300000015{}{RECORDED_ROWS}",
            hex(b"gridfed_monitor.mixed")
        );
        assert_eq!(
            hex(&monitor_partials_to_wire(&[p.clone(), p]).encode()),
            format!("6c00000002{one}{one}")
        );
    }

    #[test]
    fn every_malformed_shape_is_a_typed_bad_params() {
        let (int, list) = (WireValue::Int(1), WireValue::List);
        let s = |s: &str| WireValue::Str(s.into());
        let rejected = |r: Result<Vec<Partial>>| {
            assert!(
                matches!(r, Err(CoreError::Rpc(ClarensError::BadParams(_)))),
                "got {r:?}"
            );
        };
        let cols = || list(vec![s("a")]);
        let rows = || list(vec![list(vec![int.clone()])]);
        for typed in [
            int.clone(),                                        // not a list
            list(vec![cols()]),                                 // one part
            list(vec![cols(), rows(), rows()]),                 // three parts
            list(vec![int.clone(), rows()]),                    // columns not a list
            list(vec![list(vec![int.clone()]), rows()]),        // column not a string
            list(vec![cols(), int.clone()]),                    // rows not a list
            list(vec![cols(), list(vec![int.clone()])]),        // row not a list
            list(vec![cols(), list(vec![list(vec![rows()])])]), // cell not a scalar
        ] {
            rejected(wire_to_partial("t", &typed).map(|p| vec![p]));
            // The same shape inside a monitor partial, and inside a reply.
            let WireValue::List(parts) = &typed else {
                continue;
            };
            if parts.len() == 2 {
                let mut fields = vec![s("gridfed_monitor.t")];
                fields.extend(parts.iter().cloned());
                rejected(wire_to_monitor_partials(&list(vec![list(fields)])));
            }
            let reply = list(vec![typed.clone(), list(vec![]), list(vec![])]);
            rejected(decode_federated("t", reply).map(|(p, ..)| vec![p]));
        }
        for monitor in [
            int.clone(),                                         // not a list
            list(vec![int.clone()]),                             // partial not a list
            list(vec![list(vec![])]),                            // no fields
            list(vec![list(vec![s("t"), cols()])]),              // no rows
            list(vec![list(vec![int.clone(), cols(), rows()])]), // table not a string
        ] {
            rejected(wire_to_monitor_partials(&monitor));
        }
        let typed = || list(vec![cols(), rows()]);
        for reply in [
            int.clone(),                                                // not a list
            list(vec![typed(), list(vec![])]),                          // two parts
            list(vec![typed(), list(vec![]), int.clone()]),             // spans not a list
            list(vec![typed(), list(vec![]), list(vec![int.clone()])]), // span not a list
        ] {
            rejected(decode_federated("t", reply).map(|(p, ..)| vec![p]));
        }
        // A stats part of any shape is tolerated, never an error.
        let reply = list(vec![typed(), s("not a list"), list(vec![])]);
        let (_, stats, _) = decode_federated("t", reply).expect("zero-filled");
        assert_eq!(stats, QueryStats::default());
    }

    // ---- the `query_federated` hop: one statement, or a wave's worth ----

    /// The `das` service of a peer, with every `query_federated` call that
    /// reaches it and what it answered kept as `(params, reply)` hex.
    struct Tap {
        das: Arc<DataAccessService>,
        calls: Mutex<Vec<(String, String)>>,
    }

    impl Service for Tap {
        fn name(&self) -> &str {
            "das"
        }

        fn methods(&self) -> Vec<String> {
            self.das.methods()
        }

        fn call(
            &self,
            method: &str,
            params: &[WireValue],
        ) -> gridfed_clarens::Result<Timed<WireValue>> {
            let reply = self.das.call(method, params)?;
            if method == "query_federated" {
                let sent = WireValue::List(params.to_vec()).encode();
                let call = (hex(&sent), hex(&reply.value.encode()));
                self.calls.lock().push(call);
            }
            Ok(reply)
        }
    }

    /// Seed 23's two-mediator grid with node2's `das` tapped.
    fn tapped(policy: ConnectionPolicy) -> (Grid, Arc<Tap>) {
        let grid = GridBuilder::new()
            .with_seed(23)
            .with_connection_policy(policy)
            .build()
            .expect("grid");
        let tap = Arc::new(Tap {
            das: Arc::clone(grid.service(1)),
            calls: Mutex::new(Vec::new()),
        });
        grid.servers[1].register_service(Arc::clone(&tap) as Arc<dyn Service>);
        (grid, tap)
    }

    const ROW3: &str = "SELECT e.e_id, s.n_meas, c.avg_weight, d.mean_value \
         FROM ntuple_events e \
         JOIN run_summary s ON e.run_id = s.run_id \
         JOIN run_conditions c ON s.run_id = c.run_id \
         JOIN detector_summary d ON c.detector = d.detector \
         WHERE e.e_id < 10";

    /// What node1 sent node2 for one forwarded statement at 1902722, on
    /// either arm — `[sql, Null]` — and the typed result of node2's
    /// `[result, stats, spans]` answer.
    const RECORDED_CALL: &str = "6c00000002730000003753454c45435420226465746563746f72222c20226d65616e5f76616c7565222046524f4d20226465746563746f725f73756d6d617279226e";
    const RECORDED_RESULT: &str = "6c000000026c0000000273000000086465746563746f72730000000a6d65616e5f76616c75656c000000046c0000000273000000046563616c66402365ffca858ce16c0000000273000000046863616c6640242650475a0fff6c0000000273000000046d756f6e664021833dd3ac29ac6c000000027300000007747261636b65726640234ff0d440fe25";

    #[test]
    fn a_call_of_one_statement_is_byte_for_byte_what_it_was_on_both_arms() {
        // The rest of the recorded reply: 19 hop counters, all zero but
        // `pooled_hits` (the peer read through its POOL handle), no spans.
        let counters: String = (0..19)
            .map(|i| format!("69{:016x}", u64::from(i == 1)))
            .collect();
        let recorded_reply = format!("6c00000003{RECORDED_RESULT}6c00000013{counters}6c00000000");
        for policy in [ConnectionPolicy::PerQuery, ConnectionPolicy::Session] {
            let (grid, tap) = tapped(policy);
            grid.query("SELECT detector, mean_value FROM detector_summary")
                .expect("forward-all");
            let calls = tap.calls.lock();
            let [(call, reply)] = calls.as_slice() else {
                panic!("{policy:?}: one forward, got {calls:?}");
            };
            assert_eq!(call, RECORDED_CALL, "{policy:?}");
            assert_eq!(*reply, recorded_reply, "{policy:?}");
        }
    }

    #[test]
    fn a_call_of_several_statements_is_answered_with_their_replies_in_order() {
        // Row 3 forwards two statements to node2: the paper's arm in two
        // calls, a kept channel in one — whose params are the two
        // statements as a list, and whose reply is the two replies as one.
        let (per_query, singles) = tapped(ConnectionPolicy::PerQuery);
        let (session, batch) = tapped(ConnectionPolicy::Session);
        let answer = per_query.query(ROW3).expect("two calls").result;
        assert_eq!(session.query(ROW3).expect("one call").result, answer);
        let (singles, batch) = (singles.calls.lock(), batch.calls.lock());
        let ([(sql_a, reply_a), (sql_b, reply_b)], [(sqls, replies)]) =
            (singles.as_slice(), batch.as_slice())
        else {
            panic!("two calls and one, got {singles:?} and {batch:?}");
        };
        // A 2-list header, then the members; `[x, Null]` is `6c00000002 x 6e`.
        let member = |call: &str| call[10..call.len() - 2].to_string();
        let list = |a: &str, b: &str| format!("6c00000002{a}{b}");
        assert_eq!(
            *sqls,
            list(&list(&member(sql_a), &member(sql_b)), "6e"),
            "the statements, in plan order, then the absent trace context"
        );
        assert_eq!(*replies, list(reply_a, reply_b));
    }

    #[test]
    fn a_reply_is_decoded_against_the_count_that_was_sent() {
        let typed = |n: i64| {
            let cols = names_to_wire(&["a".to_string()]);
            let rows = WireValue::List(vec![WireValue::List(vec![WireValue::Int(n)])]);
            WireValue::List(vec![cols, rows])
        };
        let reply = |n: i64| {
            let empty = || WireValue::List(Vec::new());
            WireValue::List(vec![typed(n), empty(), empty()])
        };
        let many = |tables: &[&str], wire| {
            decode_federated_many(tables.iter().copied(), wire)
                .map(|replies| replies.into_iter().map(|(p, ..)| p).collect::<Vec<_>>())
        };
        // One statement: the reply itself, never a list of one.
        let one = many(&["t"], reply(7)).expect("single form");
        assert_eq!(one, vec![wire_to_partial("t", &typed(7)).unwrap()]);
        assert!(many(&["t"], WireValue::List(vec![reply(7)])).is_err());
        // Several: as many replies, each named for its statement, in order.
        let two = many(&["t", "u"], WireValue::List(vec![reply(1), reply(2)])).expect("two");
        let names: Vec<&str> = two.iter().map(|p| p.table.as_str()).collect();
        assert_eq!(names, ["t", "u"]);
        assert_eq!(two[1].rows, wire_to_partial("u", &typed(2)).unwrap().rows);
        for short in [
            reply(1),                                            // the single form
            WireValue::List(vec![reply(1)]),                     // one too few
            WireValue::List(vec![reply(1), reply(2), reply(3)]), // one too many
            WireValue::List(vec![reply(1), WireValue::Int(2)]),  // a part not a reply
            WireValue::Null,
        ] {
            let refused = many(&["t", "u"], short);
            assert!(
                matches!(refused, Err(CoreError::Rpc(ClarensError::BadParams(_)))),
                "got {refused:?}"
            );
        }
    }

    /// Any wire value a peer could send: every scalar, grids, lists nested
    /// four deep — with reply-shaped lists mixed in so the decoders get past
    /// their first check.
    fn arb_wire() -> proptest::strategy::BoxedStrategy<WireValue> {
        use proptest::prelude::*;
        let leaf = prop_oneof![
            Just(WireValue::Null),
            any::<bool>().prop_map(WireValue::Bool),
            any::<i64>().prop_map(WireValue::Int),
            (-1e9f64..1e9).prop_map(WireValue::Float),
            "\\PC{0,12}".prop_map(WireValue::Str),
            Just(WireValue::Str(
                "SELECT detector FROM detector_summary".into()
            )),
            Just(WireValue::Str("SELECT nope FROM detector_summary".into())),
            prop::collection::vec(prop::collection::vec("\\PC{0,4}", 0..3), 0..3)
                .prop_map(WireValue::Grid),
        ];
        leaf.prop_recursive(4, 48, 4, |inner| {
            prop_oneof![
                prop::collection::vec(inner.clone(), 0..5).prop_map(WireValue::List),
                // `[[names], [[cells]…]]`, `[that, stats, spans]`.
                (inner.clone(), inner.clone(), inner).prop_map(|(a, b, c)| {
                    let typed = WireValue::List(vec![
                        WireValue::List(vec![WireValue::Str("a".into()), a.clone()]),
                        WireValue::List(vec![WireValue::List(vec![b.clone(), a])]),
                    ]);
                    WireValue::List(vec![typed, b, WireValue::List(vec![c])])
                }),
            ]
        })
        .boxed()
    }

    /// One mediator pair for every case of the property below.
    fn peer() -> &'static Grid {
        static GRID: OnceLock<Grid> = OnceLock::new();
        GRID.get_or_init(|| GridBuilder::new().with_seed(23).build().expect("grid"))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(10_000))]

        /// Whatever arrives on this hop — as the reply to a call of
        /// `sent` statements, or as the params of `das.query_federated` —
        /// is decoded or refused with a typed error: no panic, and nothing
        /// sized by a count the other side chose (the decoders only ever
        /// walk values the codec already built, against the caller's own
        /// statement count).
        #[test]
        fn hostile_values_on_the_federated_hop_are_typed_errors(
            wire in arb_wire(),
            sent in 1usize..5,
            ctx in arb_wire(),
        ) {
            let typed = |e: &CoreError| matches!(e, CoreError::Rpc(ClarensError::BadParams(_)));
            if let Err(e) = decode_federated("t", wire.clone()) {
                proptest::prop_assert!(typed(&e), "{e:?} for {wire:?}");
            }
            let tables = ["t", "u", "v", "w"];
            match decode_federated_many(tables[..sent].iter().copied(), wire.clone()) {
                Ok(replies) => proptest::prop_assert_eq!(replies.len(), sent),
                Err(e) => proptest::prop_assert!(typed(&e), "{e:?} for {wire:?}"),
            }
            // The same value as a peer's params: a reply per statement, or
            // a typed refusal — `BadParams` for a shape, `ServiceFault` for
            // a statement that does not run.
            let statements = match &wire {
                WireValue::List(members) => members.len(),
                _ => 1,
            };
            match peer().service(1).call("query_federated", &[wire.clone(), ctx]) {
                Ok(reply) => match (&wire, reply.value) {
                    (WireValue::List(_), WireValue::List(replies)) => {
                        proptest::prop_assert!(statements > 0);
                        proptest::prop_assert_eq!(replies.len(), statements);
                    }
                    (one, reply) => {
                        proptest::prop_assert!(one.as_str().is_ok());
                        proptest::prop_assert!(decode_federated("t", reply).is_ok());
                    }
                },
                Err(e) => proptest::prop_assert!(
                    matches!(e, ClarensError::BadParams(_) | ClarensError::ServiceFault(_)),
                    "{e:?} for {wire:?}"
                ),
            }
        }
    }

    #[test]
    fn an_empty_or_mixed_statement_list_is_refused_before_anything_runs() {
        let das = peer().service(1);
        let sql = || WireValue::Str("SELECT detector FROM detector_summary".into());
        let before = das.query("SELECT detector FROM detector_summary").unwrap();
        for params in [
            vec![],
            vec![WireValue::List(vec![])],
            vec![WireValue::List(vec![sql(), WireValue::Int(1)])],
            vec![WireValue::List(vec![WireValue::List(vec![sql()])])],
            vec![WireValue::Int(1)],
        ] {
            let refused = das.call("query_federated", &params);
            assert!(
                matches!(refused, Err(ClarensError::BadParams(_))),
                "{params:?}: {refused:?}"
            );
        }
        // A list of one is a batch of one, answered as a list of one.
        let reply = das.call("query_federated", &[WireValue::List(vec![sql()])]);
        let WireValue::List(replies) = reply.expect("answers").value else {
            panic!("a list of replies");
        };
        let [reply] = <[WireValue; 1]>::try_from(replies).expect("one reply");
        let (partial, ..) = decode_federated("detector_summary", reply).expect("decodes");
        assert_eq!(partial.rows, before.value.result.rows);
    }
}

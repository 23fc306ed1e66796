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

/// Decode a `query_federated` response: `List([typed result, stats,
/// spans])`.
pub(crate) fn decode_federated(
    table: &str,
    wire: WireValue,
) -> Result<(Partial, QueryStats, Vec<Span>)> {
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
}

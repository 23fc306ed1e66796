//! Wire codecs for observability payloads on the Clarens RPC boundary.
//!
//! The `query_federated` mediator-to-mediator method returns
//! `List([typed result, stats, spans])`: the partial result, the remote
//! mediator's work counters (so the caller can fold them into its own
//! [`QueryStats`] via `absorb_remote` — work behind an RPC hop must not be
//! lost), and the remote span list (grafted into the caller's trace so a
//! federated query reads as one stitched tree).
//!
//! Both codecs are forward-tolerant: the stats decoder zero-fills missing
//! counters, and the span decoder accepts (and ignores) trailing fields, so
//! mediators running different revisions can still talk.

use crate::error::CoreError;
use crate::federate::Partial;
use crate::stats::QueryStats;
use crate::Result;
use gridfed_clarens::codec::WireValue;
use gridfed_clarens::ClarensError;
use gridfed_obs::{Span, SpanKind};
use gridfed_storage::Row;

fn bad(msg: &str) -> CoreError {
    CoreError::Rpc(ClarensError::BadParams(msg.to_string()))
}

/// Encode the work counters a caller merges through
/// [`QueryStats::absorb_remote`] as a fixed-order integer list.
pub fn stats_to_wire(stats: &QueryStats) -> WireValue {
    WireValue::List(
        [
            stats.connections_opened,
            stats.pooled_hits,
            stats.rls_lookups,
            stats.remote_forwards,
            stats.retries,
            stats.failovers,
            stats.hedges,
            stats.breaker_opens,
            stats.breaker_rejections,
            stats.batches as usize,
            stats.rows_materialized as usize,
            stats.exec_workers as usize,
            stats.exec_morsels as usize,
            stats.queue_depth as usize,
            stats.queue_wait_us as usize,
            stats.repl_lag_lsn as usize,
            stats.repl_age_us as usize,
            stats.bytes_saved,
            stats.reductions_shipped,
        ]
        .into_iter()
        .map(|n| WireValue::Int(n as i64))
        .collect(),
    )
}

/// Decode remote work counters. Missing or malformed positions read as
/// zero, so a shorter list from an older mediator still decodes.
pub fn wire_to_stats(v: &WireValue) -> QueryStats {
    let mut out = QueryStats::default();
    let WireValue::List(items) = v else {
        return out;
    };
    let get = |i: usize| -> usize {
        match items.get(i) {
            Some(WireValue::Int(n)) => (*n).max(0) as usize,
            _ => 0,
        }
    };
    out.connections_opened = get(0);
    out.pooled_hits = get(1);
    out.rls_lookups = get(2);
    out.remote_forwards = get(3);
    out.retries = get(4);
    out.failovers = get(5);
    out.hedges = get(6);
    out.breaker_opens = get(7);
    out.breaker_rejections = get(8);
    out.batches = get(9) as u64;
    out.rows_materialized = get(10) as u64;
    // Positions 11+ arrived with the parallel executor; a peer predating it
    // sends a shorter list and these zero-fill.
    out.exec_workers = get(11) as u64;
    out.exec_morsels = get(12) as u64;
    out.queue_depth = get(13) as u64;
    out.queue_wait_us = get(14) as u64;
    // Positions 15+ arrived with WAL replication; a peer predating it
    // sends a shorter list and these zero-fill.
    out.repl_lag_lsn = get(15) as u64;
    out.repl_age_us = get(16) as u64;
    // Positions 17+ arrived with semi-join reduction; same zero-fill rule.
    out.bytes_saved = get(17);
    out.reductions_shipped = get(18);
    out
}

/// Encode one span as a fixed-order list:
/// `[id, parent (0 = root), name, kind, target, start_us, duration_us,
/// error (Null = none), remote, parallel]`.
pub fn span_to_wire<S: AsRef<str>>(span: &Span<S>) -> WireValue {
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
pub fn spans_to_wire<S: AsRef<str>>(spans: &[Span<S>]) -> WireValue {
    WireValue::List(spans.iter().map(span_to_wire).collect())
}

fn field_int(items: &[WireValue], i: usize, what: &str) -> Result<u64> {
    match items.get(i) {
        Some(WireValue::Int(n)) => Ok((*n).max(0) as u64),
        _ => Err(bad(&format!("span field {i} ({what}) must be an int"))),
    }
}

fn field_str(items: &[WireValue], i: usize, what: &str) -> Result<String> {
    match items.get(i) {
        Some(WireValue::Str(s)) => Ok(s.clone()),
        _ => Err(bad(&format!("span field {i} ({what}) must be a string"))),
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
pub fn wire_to_span(v: WireValue) -> Result<Span> {
    let WireValue::List(mut items) = v else {
        return Err(bad("span must be a list"));
    };
    let mut text = |i: usize, what: &str| {
        take_str(&mut items, i)
            .ok_or_else(|| bad(&format!("span field {i} ({what}) must be a string")))
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
pub fn wire_to_spans(v: WireValue) -> Result<Vec<Span>> {
    let WireValue::List(items) = v else {
        return Err(bad("spans must be a list"));
    };
    items.into_iter().map(wire_to_span).collect()
}

/// Encode the monitor partials a `monitor_fetch` peer exports:
/// `List([ [table, [columns...], [[cells...]...]] , ... ])`. Each row of a
/// monitor table is plain typed values, so the generic value codec covers
/// it.
pub fn monitor_partials_to_wire(partials: &[Partial]) -> WireValue {
    WireValue::List(
        partials
            .iter()
            .map(|p| {
                WireValue::List(vec![
                    WireValue::Str(p.table.clone()),
                    WireValue::List(p.columns.iter().cloned().map(WireValue::Str).collect()),
                    WireValue::List(
                        p.rows
                            .iter()
                            .map(|r| {
                                WireValue::List(
                                    r.values()
                                        .iter()
                                        .map(crate::service::value_to_wire)
                                        .collect(),
                                )
                            })
                            .collect(),
                    ),
                ])
            })
            .collect(),
    )
}

/// Decode monitor partials from a peer. Forward-tolerant: trailing fields
/// beyond the known three per partial are ignored, so a newer peer can
/// append metadata without breaking this decoder. Column-set mismatches
/// are *not* resolved here — the consumer maps columns by name when it
/// merges remote rows into its local monitor tables.
pub fn wire_to_monitor_partials(v: &WireValue) -> Result<Vec<Partial>> {
    let WireValue::List(items) = v else {
        return Err(bad("monitor partials must be a list"));
    };
    items
        .iter()
        .map(|item| {
            let WireValue::List(fields) = item else {
                return Err(bad("monitor partial must be a list"));
            };
            let table = field_str(fields, 0, "table")?;
            let Some(WireValue::List(cols)) = fields.get(1) else {
                return Err(bad("monitor partial columns must be a list"));
            };
            let columns: Vec<String> = cols
                .iter()
                .map(|c| match c {
                    WireValue::Str(s) => Ok(s.clone()),
                    _ => Err(bad("monitor column name must be a string")),
                })
                .collect::<Result<_>>()?;
            let Some(WireValue::List(rows)) = fields.get(2) else {
                return Err(bad("monitor partial rows must be a list"));
            };
            let rows = rows
                .iter()
                .map(|r| {
                    let WireValue::List(cells) = r else {
                        return Err(bad("monitor row must be a list"));
                    };
                    Ok(Row::new(
                        cells
                            .iter()
                            .map(crate::service::wire_to_value)
                            .collect::<Result<_>>()?,
                    ))
                })
                .collect::<Result<_>>()?;
            Ok(Partial {
                table,
                columns,
                rows,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_round_trip() {
        let s = QueryStats {
            connections_opened: 3,
            pooled_hits: 1,
            rls_lookups: 2,
            remote_forwards: 4,
            retries: 5,
            failovers: 1,
            hedges: 2,
            breaker_opens: 1,
            breaker_rejections: 6,
            batches: 12,
            rows_materialized: 90,
            exec_workers: 4,
            exec_morsels: 25,
            queue_depth: 3,
            queue_wait_us: 740,
            repl_lag_lsn: 17,
            repl_age_us: 52_000,
            bytes_saved: 8_192,
            reductions_shipped: 2,
            ..Default::default()
        };
        let back = wire_to_stats(&stats_to_wire(&s));
        assert_eq!(back.connections_opened, 3);
        assert_eq!(back.pooled_hits, 1);
        assert_eq!(back.rls_lookups, 2);
        assert_eq!(back.remote_forwards, 4);
        assert_eq!(back.retries, 5);
        assert_eq!(back.failovers, 1);
        assert_eq!(back.hedges, 2);
        assert_eq!(back.breaker_opens, 1);
        assert_eq!(back.breaker_rejections, 6);
        assert_eq!(back.batches, 12);
        assert_eq!(back.rows_materialized, 90);
        assert_eq!(back.exec_workers, 4);
        assert_eq!(back.exec_morsels, 25);
        assert_eq!(back.queue_depth, 3);
        assert_eq!(back.queue_wait_us, 740);
        assert_eq!(back.repl_lag_lsn, 17);
        assert_eq!(back.repl_age_us, 52_000);
        assert_eq!(back.bytes_saved, 8_192);
        assert_eq!(back.reductions_shipped, 2);
    }

    #[test]
    fn stats_decode_is_pad_tolerant() {
        let short = WireValue::List(vec![WireValue::Int(7), WireValue::Int(2)]);
        let s = wire_to_stats(&short);
        assert_eq!(s.connections_opened, 7);
        assert_eq!(s.pooled_hits, 2);
        assert_eq!(s.retries, 0);
        assert_eq!(s.exec_workers, 0);
        assert_eq!(s.exec_morsels, 0);
        assert_eq!(s.queue_wait_us, 0);
        assert_eq!(wire_to_stats(&WireValue::Null), QueryStats::default());

        // An 11-position list — exactly what a pre-parallelism peer sends —
        // must decode with the new fields zero-filled.
        let pre_parallel = WireValue::List((0..11).map(|i| WireValue::Int(i + 1)).collect());
        let s = wire_to_stats(&pre_parallel);
        assert_eq!(s.batches, 10);
        assert_eq!(s.rows_materialized, 11);
        assert_eq!(s.exec_workers, 0);
        assert_eq!(s.queue_depth, 0);
        assert_eq!(s.repl_lag_lsn, 0);

        // A 15-position list — what a pre-replication peer sends — must
        // decode with the lag fields zero-filled and everything else kept.
        let pre_repl = WireValue::List((0..15).map(|i| WireValue::Int(i + 1)).collect());
        let s = wire_to_stats(&pre_repl);
        assert_eq!(s.queue_depth, 14);
        assert_eq!(s.queue_wait_us, 15);
        assert_eq!(s.repl_lag_lsn, 0);
        assert_eq!(s.repl_age_us, 0);

        // A 17-position list — a pre-reduction peer — zero-fills the
        // semi-join savings fields and keeps the replication ones.
        let pre_reduction = WireValue::List((0..17).map(|i| WireValue::Int(i + 1)).collect());
        let s = wire_to_stats(&pre_reduction);
        assert_eq!(s.repl_lag_lsn, 16);
        assert_eq!(s.repl_age_us, 17);
        assert_eq!(s.bytes_saved, 0);
        assert_eq!(s.reductions_shipped, 0);
    }

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
        use gridfed_storage::Value;
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

        assert!(wire_to_monitor_partials(&WireValue::Int(1)).is_err());
        assert!(wire_to_monitor_partials(&WireValue::List(vec![WireValue::List(vec![])])).is_err());
    }

    #[test]
    fn malformed_span_rejected() {
        assert!(wire_to_span(WireValue::Int(3)).is_err());
        assert!(wire_to_spans(WireValue::List(vec![WireValue::List(vec![
            WireValue::Int(1)
        ])]))
        .is_err());
    }
}

//! Packed hop spans: what a caller keeps of the span list a remote hop
//! ships back. `core::wire` decodes each hop into one packed block (one
//! text buffer, one fixed-size entry per span) that the query's record
//! holds and the trace projection grafts from. This suite checks it
//! against the owned decode it replaced — one `Span` of `String`s per
//! shipped span, grafted with `TraceBuilder::graft_remote` — written out
//! here as it was:
//!
//! - span lists of 0–64 spans (empty, unicode and long names, errors,
//!   ids out of order and repeated, parents dangling or not yet seen)
//!   project to the same `Trace::spans`, the same `render_tree` and the
//!   same `check_composition` verdict;
//! - whatever arrives in a hop's span part — `core::wire`'s hostile-value
//!   generator, and valid span lists with a field replaced by one of its
//!   values or cut short — decodes exactly as the owned decode does, or is
//!   refused with the same typed `BadParams`: never a panic.

use gridfed::clarens::codec::WireValue;
use gridfed::clarens::ClarensError;
use gridfed::core::service::wire_to_hop_spans;
use gridfed::core::CoreError;
use gridfed::obs::{
    AttemptKind, AttemptRecord, BranchRecord, HopSpans, QueryRecord, Span, SpanKind, Trace,
    TraceBuilder,
};
use gridfed::simnet::cost::Cost;
use proptest::prelude::*;

#[path = "../crates/core/src/wire/arb.rs"]
mod arb;

const SERVER: &str = "clarens://node1:8443/das";
const TARGET: &str = "clarens://node2:8443/das";
const LABEL: &str = "remote server `clarens://node2:8443/das`";
const SQL: &str = "SELECT e_id FROM ntuple_events WHERE e_id < 7";

const KINDS: [SpanKind; 6] = [
    SpanKind::Query,
    SpanKind::Phase,
    SpanKind::Branch,
    SpanKind::Attempt,
    SpanKind::Rpc,
    SpanKind::Replicate,
];

/// Span text: empty, ASCII, multi-byte and astral UTF-8, long.
fn arb_text() -> BoxedStrategy<String> {
    prop_oneof![
        Just(String::new()),
        "\\PC{0,12}",
        Just("database `mart_mysql`".to_string()),
        Just("детектор ✓ 🚀".to_string()),
        Just("λ".repeat(300)),
    ]
    .boxed()
}

/// One span as a peer might ship it: ids and parents drawn from a small
/// range, so they repeat, come out of order, and point at spans that come
/// later or never.
fn arb_span() -> impl Strategy<Value = Span> {
    (
        (0u64..80, prop::option::of(0u64..80), arb_text(), 0usize..6),
        (arb_text(), 0u64..1 << 40, 0u64..1 << 40),
        (prop::option::of(arb_text()), any::<bool>(), any::<bool>()),
    )
        .prop_map(
            |(
                (id, parent, name, kind),
                (target, start_us, duration_us),
                (error, remote, parallel),
            )| {
                Span {
                    id,
                    parent,
                    name,
                    kind: KINDS[kind],
                    target,
                    start_us,
                    duration_us,
                    error,
                    remote,
                    parallel,
                }
            },
        )
}

/// The peer's encoding: `[id, parent (0 = root), name, kind, target,
/// start_us, duration_us, error (Null = none), remote, parallel]`.
fn span_to_wire(span: &Span) -> WireValue {
    let text = |s: &str| WireValue::Str(s.to_string());
    WireValue::List(vec![
        WireValue::Int(span.id as i64),
        WireValue::Int(span.parent.map_or(0, |p| p as i64)),
        text(&span.name),
        text(span.kind.as_str()),
        text(&span.target),
        WireValue::Int(span.start_us as i64),
        WireValue::Int(span.duration_us as i64),
        span.error.as_deref().map_or(WireValue::Null, text),
        WireValue::Bool(span.remote),
        WireValue::Bool(span.parallel),
    ])
}

fn spans_to_wire(spans: &[Span]) -> WireValue {
    WireValue::List(spans.iter().map(span_to_wire).collect())
}

/// The owned decode the packed block replaced, field rule by field rule:
/// text at 2, 3 and 4 required, an error string at 7 optional, ints at 1,
/// 0, 5 and 6 required (a negative one reads as 0), flags at 8 and 9 true
/// only as `Bool(true)`, trailing fields ignored.
fn owned_decode(v: &WireValue) -> Result<Vec<Span>, String> {
    let WireValue::List(items) = v else {
        return Err("spans must be a list".into());
    };
    items.iter().map(owned_span).collect()
}

fn owned_span(v: &WireValue) -> Result<Span, String> {
    let WireValue::List(items) = v else {
        return Err("span must be a list".into());
    };
    let text = |i: usize, what: &str| match items.get(i) {
        Some(WireValue::Str(s)) => Ok(s.clone()),
        _ => Err(format!("span field {i} ({what}) must be a string")),
    };
    let int = |i: usize, what: &str| match items.get(i) {
        Some(WireValue::Int(n)) => Ok((*n).max(0) as u64),
        _ => Err(format!("span field {i} ({what}) must be an int")),
    };
    let flag = |i: usize| matches!(items.get(i), Some(WireValue::Bool(true)));
    let (name, kind, target) = (text(2, "name")?, text(3, "kind")?, text(4, "target")?);
    let error = match items.get(7) {
        Some(WireValue::Str(s)) => Some(s.clone()),
        _ => None,
    };
    let parent = int(1, "parent")?;
    Ok(Span {
        id: int(0, "id")?,
        parent: (parent != 0).then_some(parent),
        name,
        kind: SpanKind::parse(&kind),
        target,
        start_us: int(5, "start_us")?,
        duration_us: int(6, "duration_us")?,
        error,
        remote: flag(8),
        parallel: flag(9),
    })
}

/// The packed decode, its refusal reduced to the `BadParams` message.
fn packed_decode(v: &WireValue) -> Result<HopSpans, String> {
    wire_to_hop_spans(v).map_err(|e| match e {
        CoreError::Rpc(ClarensError::BadParams(msg)) => msg,
        other => panic!("not a typed BadParams: {other:?}"),
    })
}

fn owned_spans(hop: &HopSpans) -> Vec<Span> {
    hop.iter().map(|s| s.map(|text| text.to_string())).collect()
}

/// One branch forwarded to node2, its hops' spans as decoded.
struct Shape {
    plan: Cost,
    connect: Cost,
    exec: Cost,
    integrate: Cost,
    serialize: Cost,
}

impl Shape {
    fn total(&self) -> Cost {
        self.plan + self.connect + self.exec + self.integrate + self.serialize
    }

    /// The trace a query of this shape records, its hops kept packed.
    fn packed(&self, hops: Vec<HopSpans>) -> Trace {
        let branch = BranchRecord {
            label: LABEL.into(),
            target: TARGET.into(),
            start: Cost::ZERO,
            connect: self.connect,
            exec: self.exec,
            resilience: Cost::ZERO,
            attempts: vec![AttemptRecord {
                kind: AttemptKind::Primary,
                start: Cost::ZERO,
                duration: self.connect + self.exec,
                error: None,
            }],
            remote: hops,
            dropped: None,
        };
        let tb = TraceBuilder::new(9);
        let mut trace = tb.finish(SQL, SERVER, None, 0, self.total(), "ok", 3);
        trace.record = Some(QueryRecord {
            plan: self.plan,
            connect: self.connect,
            execute: self.exec,
            integrate: self.integrate,
            serialize: self.serialize,
            exec_workers: 1,
            branches: vec![branch],
            ..QueryRecord::default()
        });
        trace
    }

    /// The same tree built span by span, each hop's owned spans grafted
    /// as they were before the packed block.
    fn owned(&self, hops: &[Vec<Span>]) -> Trace {
        let (phase, total) = (SpanKind::Phase, self.total());
        let scatter_dur = self.connect + self.exec;
        let mut tb = TraceBuilder::new(9);
        let root = tb.span(None, "query", SpanKind::Query, SERVER, Cost::ZERO, total);
        tb.span(Some(root), "plan", phase, SERVER, Cost::ZERO, self.plan);
        let scatter = tb.span(Some(root), "scatter", phase, SERVER, self.plan, scatter_dur);
        tb.mark_parallel(scatter);
        let branch = tb.span(
            Some(scatter),
            LABEL,
            SpanKind::Branch,
            TARGET,
            self.plan,
            scatter_dur,
        );
        tb.mark_parallel(branch);
        let kind = SpanKind::Attempt;
        tb.span(
            Some(branch),
            "primary",
            kind,
            TARGET,
            self.plan,
            scatter_dur,
        );
        let start = self.plan + self.connect;
        for hop in hops {
            let (name, kind) = ("rpc query_federated", SpanKind::Rpc);
            let rpc = tb.span(Some(branch), name, kind, TARGET, start, self.exec);
            tb.mark_parallel(rpc);
            tb.graft_remote(rpc, start, hop);
        }
        let at = self.plan + scatter_dur;
        tb.span(Some(root), "integrate", phase, SERVER, at, self.integrate);
        let at = at + self.integrate;
        tb.span(Some(root), "serialize", phase, SERVER, at, self.serialize);
        tb.finish(SQL, SERVER, None, 0, total, "ok", 3)
    }
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    let us = || (0u64..50_000).prop_map(Cost::from_micros);
    (
        us(),
        us(),
        us(),
        (1u64..5_000).prop_map(Cost::from_micros),
        us(),
    )
        .prop_map(|(plan, connect, exec, integrate, serialize)| Shape {
            plan,
            connect,
            exec,
            integrate,
            serialize,
        })
}

/// A valid span list with one span's field `field` replaced by `with` (or,
/// past the ten fields, the span cut to `field - 10` fields).
fn damaged(spans: &[Span], at: usize, field: usize, with: WireValue) -> WireValue {
    let WireValue::List(mut items) = spans_to_wire(spans) else {
        unreachable!("a span list encodes as a list")
    };
    if let Some(WireValue::List(fields)) = items.get_mut(at % spans.len().max(1)) {
        match field {
            0..10 => fields[field] = with,
            cut => fields.truncate(cut - 10),
        }
    }
    WireValue::List(items)
}

fn same_decode(wire: &WireValue) -> Result<(), TestCaseError> {
    match (packed_decode(wire), owned_decode(wire)) {
        (Ok(packed), Ok(owned)) => {
            prop_assert_eq!(packed.len(), owned.len());
            prop_assert_eq!(owned_spans(&packed), owned);
        }
        (Err(packed), Err(owned)) => prop_assert_eq!(packed, owned),
        (packed, owned) => {
            let packed = packed.map(|hop| owned_spans(&hop));
            prop_assert!(false, "packed {:?} beside owned {:?}", packed, owned);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Up to three hops of 0–64 spans each: the packed record projects the
    /// tree the owned spans graft into — spans, rendering and verdict.
    #[test]
    fn packed_hops_project_as_the_owned_spans_did(
        hops in prop::collection::vec(prop::collection::vec(arb_span(), 0..65), 1..4),
        shape in arb_shape(),
    ) {
        let wires: Vec<WireValue> = hops.iter().map(|spans| spans_to_wire(spans)).collect();
        let packed: Vec<HopSpans> = wires.iter().map(|w| packed_decode(w).expect("valid")).collect();
        let owned: Vec<Vec<Span>> = wires.iter().map(|w| owned_decode(w).expect("valid")).collect();
        let (packed, owned) = (shape.packed(packed), shape.owned(&owned));
        prop_assert_eq!(packed.spans(), owned.spans());
        prop_assert_eq!(packed.render_tree(), owned.render_tree());
        for tolerance_us in [0, 1_000] {
            prop_assert_eq!(
                packed.check_composition(tolerance_us),
                owned.check_composition(tolerance_us)
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4_096))]

    /// Whatever arrives as a hop's span list decodes as the owned decode
    /// did, or is refused with its typed `BadParams` message.
    #[test]
    fn hostile_span_lists_decode_as_before_or_are_typed_errors(
        wire in arb::arb_wire(),
        spans in prop::collection::vec(arb_span(), 0..8),
        at in 0usize..8,
        field in 0usize..20,
        with in arb::arb_wire(),
    ) {
        same_decode(&wire)?;
        same_decode(&WireValue::List(vec![wire.clone()]))?;
        same_decode(&damaged(&spans, at, field, with))?;
    }
}

/// The shapes a hostile list is most likely to take, each once.
#[test]
fn every_malformed_span_shape_is_the_owned_decodes_bad_params() {
    let span = || Span {
        id: 1,
        parent: None,
        name: "query".into(),
        kind: SpanKind::Query,
        target: TARGET.into(),
        start_us: 0,
        duration_us: 10,
        error: Some("fault".into()),
        remote: false,
        parallel: true,
    };
    let mut cases = vec![
        WireValue::Null,
        WireValue::Str("spans".into()),
        WireValue::List(vec![WireValue::Int(3)]),
        WireValue::List(vec![WireValue::List(vec![])]),
    ];
    for field in 0..20 {
        cases.push(damaged(&[span(), span()], 1, field, WireValue::Float(1.5)));
        cases.push(damaged(&[span()], 0, field, WireValue::Int(-4)));
    }
    for wire in &cases {
        let (packed, owned) = (packed_decode(wire), owned_decode(wire));
        match (&packed, &owned) {
            (Ok(p), Ok(o)) => assert_eq!(&owned_spans(p), o, "{wire:?}"),
            (Err(p), Err(o)) => assert_eq!(p, o, "{wire:?}"),
            _ => panic!("{wire:?}: packed {packed:?}, owned {owned:?}"),
        }
    }
    assert!(packed_decode(&cases[2]).is_err());
    assert!(packed_decode(&WireValue::List(Vec::new())).is_ok_and(|hop| hop.is_empty()));
}

//! The hostile-value generator of the `query_federated` hop: what the
//! decoders' properties feed them. Compiled into `core::wire`'s tests and
//! included by path into the workspace's packed-hop-span suite
//! (`tests/hop_spans.rs`), so both draw from one definition.

use gridfed_clarens::codec::WireValue;
use proptest::prelude::*;

/// Any wire value a peer could send: every scalar, grids, lists nested
/// four deep — with reply-shaped lists mixed in so the decoders get past
/// their first check.
pub fn arb_wire() -> BoxedStrategy<WireValue> {
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

//! Property-based tests for the RPC wire codec — the boundary every
//! federated byte crosses must be a faithful round trip and total on junk.

use bytes::Bytes;
use gridfed_clarens::codec::WireValue;
use gridfed_clarens::ClarensError;
use proptest::prelude::*;

fn arb_wire(depth: u32) -> BoxedStrategy<WireValue> {
    let leaf = prop_oneof![
        Just(WireValue::Null),
        any::<bool>().prop_map(WireValue::Bool),
        any::<i64>().prop_map(WireValue::Int),
        (-1e30f64..1e30).prop_map(WireValue::Float),
        "\\PC{0,24}".prop_map(WireValue::Str),
        prop::collection::vec(prop::collection::vec("\\PC{0,8}", 0..4), 0..4)
            .prop_map(WireValue::Grid),
    ];
    leaf.prop_recursive(depth, 32, 4, |inner| {
        prop::collection::vec(inner, 0..4).prop_map(WireValue::List)
    })
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// encode → decode is the identity for every constructible value.
    #[test]
    fn codec_round_trip(v in arb_wire(3)) {
        let encoded = v.encode();
        let decoded = WireValue::decode(encoded).expect("decodes");
        prop_assert_eq!(decoded, v);
    }

    /// Decoding never panics on arbitrary bytes (errors are fine).
    #[test]
    fn decode_total(data in prop::collection::vec(any::<u8>(), 0..200)) {
        let _ = WireValue::decode(Bytes::from(data));
    }

    /// Truncating a valid encoding anywhere yields an error, never a
    /// silent partial value.
    #[test]
    fn truncation_always_detected(v in arb_wire(2), cut_fraction in 0.0f64..1.0) {
        let encoded = v.encode();
        if encoded.len() > 1 {
            let cut = ((encoded.len() - 1) as f64 * cut_fraction) as usize;
            let sliced = encoded.slice(0..cut);
            prop_assert!(WireValue::decode(sliced).is_err(), "cut at {cut} of {}", encoded.len());
        }
    }

    /// wire_size equals the actual encoded length.
    #[test]
    fn wire_size_is_exact(v in arb_wire(3)) {
        prop_assert_eq!(v.wire_size(), v.encode().len());
    }
}

/// Deterministic splitmix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn byte(&mut self) -> u8 {
        self.next() as u8
    }
}

/// A scalar of any kind, floats by any bit pattern.
fn scalar(rng: &mut Rng) -> WireValue {
    match rng.below(6) {
        0 => WireValue::Null,
        1 => WireValue::Bool(rng.below(2) == 1),
        2 => WireValue::Int(rng.next() as i64),
        3 => WireValue::Float(f64::from_bits(rng.next())),
        4 => WireValue::Str(format!("s{}", rng.below(1000))),
        _ => WireValue::Str("μ-tuple ✓".into()),
    }
}

/// What mediators send each other: a `query_federated` reply — `[[columns,
/// rows], stats, spans]` — or a batch of them, or the params of a call.
fn real_value(rng: &mut Rng) -> WireValue {
    let str = |s: &str| WireValue::Str(s.to_string());
    let reply = |rng: &mut Rng| {
        let width = 1 + rng.below(4) as usize;
        let columns = (0..width)
            .map(|c| WireValue::Str(format!("c{c}")))
            .collect();
        let rows = (0..rng.below(6))
            .map(|_| WireValue::List((0..width).map(|_| scalar(rng)).collect()))
            .collect();
        let stats = (0..19)
            .map(|_| WireValue::Int(rng.below(100) as i64))
            .collect();
        let spans = (0..rng.below(3))
            .map(|id| {
                WireValue::List(vec![
                    WireValue::Int(id as i64 + 1),
                    WireValue::Int(id as i64),
                    str("branch"),
                    str("branch"),
                    str("clarens://node2:8443/das"),
                    WireValue::Int(rng.below(100_000) as i64),
                    WireValue::Int(rng.below(100_000) as i64),
                    if rng.below(4) == 0 {
                        str("timeout")
                    } else {
                        WireValue::Null
                    },
                    WireValue::Bool(true),
                    WireValue::Bool(rng.below(2) == 1),
                ])
            })
            .collect();
        WireValue::List(vec![
            WireValue::List(vec![WireValue::List(columns), WireValue::List(rows)]),
            WireValue::List(stats),
            WireValue::List(spans),
        ])
    };
    match rng.below(4) {
        0 => reply(rng),
        1 => WireValue::List((0..2 + rng.below(3)).map(|_| reply(rng)).collect()),
        2 => WireValue::List(vec![str("SELECT e_id FROM ntuple_events"), WireValue::Null]),
        _ => WireValue::Grid(
            (0..rng.below(5))
                .map(|r| (0..rng.below(4)).map(|c| format!("{r}.{c}")).collect())
                .collect(),
        ),
    }
}

/// `bytes` changed in one or a few places: bytes overwritten, a cut, an
/// insertion, a length field set to `u32::MAX`, or a span repeated.
fn mutate(rng: &mut Rng, mut bytes: Vec<u8>) -> Vec<u8> {
    for _ in 0..1 + rng.below(3) {
        let at = rng.below(bytes.len() as u64 + 1) as usize;
        match rng.below(6) {
            0 if at < bytes.len() => bytes[at] = rng.byte(),
            1 => bytes.truncate(at),
            2 => bytes
                .splice(at..at, (0..1 + rng.below(8)).map(|_| rng.byte()))
                .for_each(drop),
            3 => {
                let end = (at + 4).min(bytes.len());
                bytes.splice(at..end, [0xff; 4]).for_each(drop);
            }
            4 => {
                let end = (at + 1 + rng.below(16) as usize).min(bytes.len());
                let span = bytes[at..end].to_vec();
                bytes.splice(at..at, span).for_each(drop);
            }
            _ => {}
        }
    }
    bytes
}

/// Lists nested `depth` deep — a quarter of them at least 100 000 — around
/// a leaf, a grid or nothing, with a few levels claiming other counts.
fn deep(rng: &mut Rng) -> Vec<u8> {
    let depth = match rng.below(4) {
        0 => 100_000 + rng.below(50_000),
        _ => 1 + rng.below(2_000),
    } as usize;
    let mut bytes = b"l\0\0\0\x01".repeat(depth);
    for _ in 0..rng.below(4) {
        let level = rng.below(depth as u64) as usize * 5;
        let count = rng.next() as u32 >> rng.below(32);
        bytes[level + 1..level + 5].copy_from_slice(&count.to_be_bytes());
    }
    match rng.below(3) {
        0 => bytes.push(b'n'),
        1 => bytes.extend_from_slice(b"g\xff\xff\xff\xff\0\0\0\x02"),
        _ => {}
    }
    bytes
}

/// Every input the codec can be handed — arbitrary bytes, lists nested far
/// past the limit, real encodings mutated — decodes to a value that
/// re-encodes to exactly those bytes, or is refused with a typed `Codec`
/// error: never a panic, and never a stack overflow.
#[test]
fn hostile_bytes_decode_exactly_or_are_a_typed_codec_error() {
    let mut rng = Rng(0xc1a7e5);
    let mut decoded = 0;
    for case in 0..12_000 {
        let bytes: Vec<u8> = match case % 4 {
            0 => (0..rng.below(256)).map(|_| rng.byte()).collect(),
            1 => deep(&mut rng),
            2 => real_value(&mut rng).encode().to_vec(),
            _ => {
                let real = real_value(&mut rng).encode().to_vec();
                mutate(&mut rng, real)
            }
        };
        match WireValue::decode(Bytes::from(bytes.clone())) {
            Ok(v) => {
                assert_eq!(v.encode()[..], bytes[..], "case {case}");
                decoded += 1;
            }
            Err(ClarensError::Codec(_)) => {}
            Err(other) => panic!("case {case}: {other:?}"),
        }
    }
    // Every unmutated real encoding decodes, and some mutated ones still do.
    assert!(decoded > 3_000, "{decoded}");
}

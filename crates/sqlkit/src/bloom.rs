//! Fixed-seed bloom filters for semi-join reduction.
//!
//! When the mediator ships a reduction to a big table's source, the filter
//! must be expressible in portable SQL text (remote sub-queries are
//! re-parsed by the receiving mediator) and must hash values exactly the
//! way the mediator's own hash join keys them — otherwise a key the join
//! would match could be filtered out at the source, which would change the
//! answer. Both ends therefore use this module: the same fixed seeds, the
//! same fixed probe count, and the same canonicalization as the join's
//! [`KeyValue::widened`](crate::compile::KeyValue::widened) (INT and FLOAT fold through
//! canonical IEEE-754 bits, every NaN is one key, `-0.0` folds into
//! `0.0`). SQL NULL has no key: inserting it is a no-op and probing it
//! returns `false`, matching how the inner join drops NULL keys.
//!
//! A filter travels as a hex string literal inside a
//! `BLOOM_HAS(col, '<hex>')` predicate, so only false *positives* are
//! possible: a bit pattern can admit an extra row (harmless — the
//! mediator's join discards it) but can never reject a genuine key.

use crate::compile::canonical_f64_bits;
use gridfed_storage::Value;
use std::cell::RefCell;

/// Probes per key. Fixed so every mediator revision computes identical
/// filters from identical key sets.
pub const BLOOM_PROBES: u32 = 4;

/// Bits budgeted per expected key (~2.4% false-positive rate at 4 probes).
const BITS_PER_KEY: usize = 10;

/// Smallest filter ever built, in bits.
const MIN_BITS: usize = 64;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Seeds for the two independent hash streams of the double-hashing
/// scheme. Fixed forever: a filter built by one mediator must probe
/// identically on any other.
const SEED_H1: u64 = 0x9e37_79b9_7f4a_7c15;
const SEED_H2: u64 = 0x517c_c1b7_2722_0a95;

/// A fixed-seed bloom filter over SQL values. `bits.len()` is always a
/// power of two so probes reduce with a mask.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u8>,
}

impl BloomFilter {
    /// A filter sized for `keys` expected distinct keys.
    pub fn with_capacity(keys: usize) -> BloomFilter {
        let bits = (keys.saturating_mul(BITS_PER_KEY))
            .max(MIN_BITS)
            .next_power_of_two();
        BloomFilter {
            bits: vec![0u8; bits / 8],
        }
    }

    /// Number of bits in the filter.
    pub fn bit_len(&self) -> usize {
        self.bits.len() * 8
    }

    /// Insert a value's key. SQL NULL has no key and is skipped.
    pub fn insert(&mut self, v: &Value) {
        let Some((h1, h2)) = hash_pair(v) else {
            return;
        };
        let mask = (self.bit_len() - 1) as u64;
        for i in 0..BLOOM_PROBES as u64 {
            let bit = (h1.wrapping_add(i.wrapping_mul(h2)) & mask) as usize;
            self.bits[bit / 8] |= 1 << (bit % 8);
        }
    }

    /// Whether the value's key may be in the set (`false` is definitive;
    /// NULL probes `false`, matching the join's NULL-key drop).
    pub fn might_contain(&self, v: &Value) -> bool {
        hash_pair(v).is_some_and(|h| self.probe(h))
    }

    /// [`might_contain`](Self::might_contain) for the INT or FLOAT value
    /// whose canonical bits ([`canonical_f64_bits`]) are `bits`, hashed
    /// without building a `Value`: what the `BLOOM_HAS` kernel probes.
    pub(crate) fn might_contain_bits(&self, bits: u64) -> bool {
        self.probe(tagged_pair(b'n', &bits.to_le_bytes()))
    }

    fn probe(&self, (h1, h2): (u64, u64)) -> bool {
        let mask = (self.bit_len() - 1) as u64;
        (0..BLOOM_PROBES as u64).all(|i| {
            let bit = (h1.wrapping_add(i.wrapping_mul(h2)) & mask) as usize;
            self.bits[bit / 8] & (1 << (bit % 8)) != 0
        })
    }

    /// Hex encoding of the bit array — the payload of the SQL literal: two
    /// lower-case digits per byte, high nibble first.
    pub fn to_hex(&self) -> String {
        const DIGITS: &[u8; 16] = b"0123456789abcdef";
        let mut s = String::with_capacity(self.bits.len() * 2);
        for &b in &self.bits {
            s.push(DIGITS[usize::from(b >> 4)] as char);
            s.push(DIGITS[usize::from(b & 0xf)] as char);
        }
        s
    }

    /// Decode a filter from its hex payload. The byte count must be a
    /// power of two (as `with_capacity` always produces).
    pub fn from_hex(hex: &str) -> Result<BloomFilter, String> {
        if hex.is_empty() {
            return Err("bloom payload is empty".to_string());
        }
        if !hex.len().is_multiple_of(2) {
            return Err(format!("bloom payload has odd length {}", hex.len()));
        }
        let mut bits = Vec::with_capacity(hex.len() / 2);
        let raw = hex.as_bytes();
        for pair in raw.chunks(2) {
            let hi = hex_nibble(pair[0])?;
            let lo = hex_nibble(pair[1])?;
            bits.push((hi << 4) | lo);
        }
        if !bits.len().is_power_of_two() {
            return Err(format!(
                "bloom payload must be a power-of-two byte count, got {}",
                bits.len()
            ));
        }
        Ok(BloomFilter { bits })
    }
}

fn hex_nibble(c: u8) -> Result<u8, String> {
    match c {
        b'0'..=b'9' => Ok(c - b'0'),
        b'a'..=b'f' => Ok(c - b'a' + 10),
        b'A'..=b'F' => Ok(c - b'A' + 10),
        other => Err(format!(
            "invalid hex digit {:?} in bloom payload",
            other as char
        )),
    }
}

/// The two double-hashing streams of a value's canonical key, tagged by
/// class; `None` for SQL NULL. INT and FLOAT hash their canonical bits,
/// mirroring the join's [`KeyValue::widened`](crate::compile::KeyValue::widened)
/// equality exactly.
fn hash_pair(v: &Value) -> Option<(u64, u64)> {
    Some(match v {
        Value::Null => return None,
        Value::Int(i) => tagged_pair(b'n', &canonical_f64_bits(*i as f64).to_le_bytes()),
        Value::Float(x) => tagged_pair(b'n', &canonical_f64_bits(*x).to_le_bytes()),
        Value::Text(s) => tagged_pair(b't', s.as_bytes()),
        Value::Bool(b) => tagged_pair(b'b', &[*b as u8]),
        Value::Bytes(b) => tagged_pair(b'y', b),
    })
}

/// `h2` is forced odd so probes cycle the whole (power-of-two) bit space.
fn tagged_pair(tag: u8, bytes: &[u8]) -> (u64, u64) {
    (fnv1a(SEED_H1, tag, bytes), fnv1a(SEED_H2, tag, bytes) | 1)
}

fn fnv1a(seed: u64, tag: u8, bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET ^ seed;
    h = (h ^ tag as u64).wrapping_mul(FNV_PRIME);
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

thread_local! {
    /// One-slot decode cache: `BLOOM_HAS` probes the same literal for every
    /// row of a scan, so the hex payload is decoded once per filter rather
    /// than once per row.
    static PROBE_CACHE: RefCell<Option<(String, BloomFilter)>> = const { RefCell::new(None) };
}

/// Probe a hex-encoded filter with a value, caching the last decoded
/// filter per thread. This is the `BLOOM_HAS` evaluation path.
pub fn probe_hex(hex: &str, v: &Value) -> Result<bool, String> {
    PROBE_CACHE.with(|cache| {
        let mut slot = cache.borrow_mut();
        if let Some((cached_hex, filter)) = slot.as_ref() {
            if cached_hex == hex {
                return Ok(filter.might_contain(v));
            }
        }
        let filter = BloomFilter::from_hex(hex)?;
        let hit = filter.might_contain(v);
        *slot = Some((hex.to_string(), filter));
        Ok(hit)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::with_capacity(100);
        let keys: Vec<Value> = (0..100)
            .map(|i| match i % 4 {
                0 => Value::Int(i),
                1 => Value::Float(i as f64 + 0.5),
                2 => Value::Text(format!("k{i}")),
                _ => Value::Bool(i % 8 == 3),
            })
            .collect();
        for k in &keys {
            f.insert(k);
        }
        for k in &keys {
            assert!(f.might_contain(k), "inserted key missing: {k:?}");
        }
    }

    #[test]
    fn keys_fold_like_the_hash_join() {
        let mut f = BloomFilter::with_capacity(8);
        f.insert(&Value::Int(3));
        assert!(f.might_contain(&Value::Float(3.0)), "INT folds with FLOAT");
        let mut f = BloomFilter::with_capacity(8);
        f.insert(&Value::Float(-0.0));
        assert!(f.might_contain(&Value::Float(0.0)), "-0.0 folds into 0.0");
        let mut f = BloomFilter::with_capacity(8);
        f.insert(&Value::Float(f64::NAN));
        assert!(
            f.might_contain(&Value::Float(-f64::NAN)),
            "all NaNs are one key"
        );
    }

    #[test]
    fn null_has_no_key() {
        let mut f = BloomFilter::with_capacity(8);
        f.insert(&Value::Null);
        assert!(!f.might_contain(&Value::Null));
        assert_eq!(f, BloomFilter::with_capacity(8), "insert was a no-op");
    }

    #[test]
    fn hex_round_trip() {
        let mut f = BloomFilter::with_capacity(50);
        for i in 0..50 {
            f.insert(&Value::Int(i * 7));
        }
        let hex = f.to_hex();
        let back = BloomFilter::from_hex(&hex).expect("decodes");
        assert_eq!(back, f);
        assert!(BloomFilter::from_hex("zz").is_err());
        assert!(BloomFilter::from_hex("abc").is_err(), "odd length");
        assert_eq!(
            BloomFilter::from_hex(""),
            Err("bloom payload is empty".to_string())
        );
        assert!(
            BloomFilter::from_hex("aabbcc").is_err(),
            "3 bytes is not a power of two"
        );
    }

    /// Every byte value encodes as `{:02x}` does and decodes back.
    #[test]
    fn every_byte_value_round_trips_through_hex() {
        let f = BloomFilter {
            bits: (0..=255u8).collect(),
        };
        let hex = f.to_hex();
        let formatted: String = f.bits.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, formatted);
        assert_eq!(BloomFilter::from_hex(&hex), Ok(f));
    }

    #[test]
    fn false_positive_rate_is_modest() {
        let mut f = BloomFilter::with_capacity(1000);
        for i in 0..1000 {
            f.insert(&Value::Int(i));
        }
        let fp = (1000..11_000)
            .filter(|i| f.might_contain(&Value::Int(*i)))
            .count();
        assert!(fp < 800, "false-positive rate too high: {fp}/10000");
    }

    #[test]
    fn probe_hex_matches_direct_probe() {
        let mut f = BloomFilter::with_capacity(16);
        f.insert(&Value::Text("barrel".into()));
        let hex = f.to_hex();
        assert!(probe_hex(&hex, &Value::Text("barrel".into())).unwrap());
        assert!(!probe_hex(&hex, &Value::Null).unwrap());
        assert!(probe_hex("xx", &Value::Int(1)).is_err());
    }

    /// Payloads a peer could put inside `BLOOM_HAS(col, '…')`: hex of every
    /// length and case, hex with a stray character, printable text, any
    /// chars at all (a multi-byte one splits a hex pair), and the payload of
    /// a real filter of every size `with_capacity` builds.
    fn arb_payload() -> BoxedStrategy<String> {
        let real = (0usize..2_000, prop::collection::vec(any::<i64>(), 0..8)).prop_map(
            |(capacity, keys)| {
                let mut f = BloomFilter::with_capacity(capacity);
                keys.iter().for_each(|k| f.insert(&Value::Int(*k)));
                f.to_hex()
            },
        );
        let stray = ("[0-9a-f]{0,16}", "[g-zG-Z \\-_'.]", "[0-9a-f]{0,16}")
            .prop_map(|(head, bad, tail)| head + &bad + &tail);
        let any_chars = prop::collection::vec(any::<u32>(), 0..24).prop_map(|codes| {
            codes
                .into_iter()
                .filter_map(|c| char::from_u32(c % 0x11_0000))
                .collect()
        });
        prop_oneof!["[0-9a-fA-F]{0,70}", stray, "\\PC{0,40}", any_chars, real,].boxed()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10_000))]

        /// Whatever arrives as a payload decodes to a filter or is refused
        /// with a message — never a panic — and `probe_hex` agrees with the
        /// decoder on both, as the kernels' probe by canonical bits agrees
        /// with the probe by value. A filter that decodes is its payload,
        /// lower-cased: it round-trips.
        #[test]
        fn any_payload_is_a_filter_or_a_typed_error(
            hex in arb_payload(),
            probe in any::<i64>(),
        ) {
            let v = Value::Int(probe);
            match BloomFilter::from_hex(&hex) {
                Ok(f) => {
                    prop_assert!(f.bit_len().is_power_of_two() && f.bit_len() >= 8);
                    prop_assert_eq!(f.to_hex(), hex.to_ascii_lowercase());
                    prop_assert_eq!(BloomFilter::from_hex(&f.to_hex()), Ok(f.clone()));
                    prop_assert_eq!(probe_hex(&hex, &v), Ok(f.might_contain(&v)));
                    prop_assert_eq!(
                        f.might_contain_bits(canonical_f64_bits(probe as f64)),
                        f.might_contain(&v)
                    );
                    prop_assert_eq!(probe_hex(&hex, &Value::Null), Ok(false));
                }
                Err(e) => {
                    prop_assert!(!e.is_empty());
                    prop_assert_eq!(probe_hex(&hex, &v), Err(e));
                }
            }
        }

        /// A filter built from keys round-trips through its payload with no
        /// false negatives.
        #[test]
        fn every_built_filter_round_trips(
            keys in prop::collection::vec(any::<i64>(), 0..64),
        ) {
            let mut f = BloomFilter::with_capacity(keys.len());
            keys.iter().for_each(|k| f.insert(&Value::Int(*k)));
            let hex = f.to_hex();
            prop_assert_eq!(BloomFilter::from_hex(&hex), Ok(f));
            for k in &keys {
                prop_assert_eq!(probe_hex(&hex, &Value::Int(*k)), Ok(true));
            }
        }
    }
}

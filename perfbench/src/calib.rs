//! The frozen CPU kernel that reference-speed normalisation rests on.
//!
//! **Editing anything in [`kernel`] — a constant, a loop, the order of the
//! four stages — invalidates every number this benchmark has ever
//! recorded**, because every wall-clock metric is reported as
//! `measured x CALIB_REF_MS / kernel_ms`. If the kernel must change, that is
//! a new benchmark: re-measure [`CALIB_REF_MS`] and every baseline.
//!
//! Why it exists: this box's speed drifts by tens of percent over minutes
//! (hypervisor neighbours), CPU time drifts with it, and there is no PMU.
//! One kernel run (about 3 ms) before and after every round tracks the
//! drift; scaling the round by `CALIB_REF_MS / mean(before, after)` removes
//! most of it (README, "Noise study"). The kernel mixes the kinds of work
//! the mediator path does — compare-and-swap sorting, hashing into a table,
//! integer formatting, small-vector allocation — and deliberately nothing
//! memory-bound, which added nothing in the study.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// This box's median kernel time, fixed once. A kernel run that takes this
/// long leaves a measurement unchanged; a slower machine state scales
/// times down and rates up by the same ratio.
pub const CALIB_REF_MS: f64 = 3.0;

/// Checksum [`kernel`] must return; pinned by a unit test so an accidental
/// edit of the kernel cannot go unnoticed.
pub const KERNEL_CHECKSUM: u64 = 88_059_001_009_395_285;

/// xorshift64*: the generator every seeded choice in the benchmark uses,
/// written out here so that no dependency upgrade can change a sequence.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` (0 is mapped to a fixed non-zero state).
    pub fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// One run of the frozen kernel; returns its checksum. Four passes of the
/// same four stages over different keys.
pub fn kernel() -> u64 {
    let mut rng = Rng::new(0xCA11B);
    let mut sum = 0u64;
    for _ in 0..4 {
        // 1. sort 20 000 pseudo-random u64
        let mut keys: Vec<u64> = (0..20_000).map(|_| rng.next_u64() >> 20).collect();
        keys.sort_unstable();
        sum = sum.wrapping_add(keys[keys.len() / 2]);
        // 2. hash-count them into 1021 buckets
        let mut counts: HashMap<u64, u32> = HashMap::with_capacity(1024);
        for k in &keys {
            *counts.entry(k % 1021).or_insert(0) += 1;
        }
        sum = sum.wrapping_add(u64::from(counts[&7]));
        // 3. format 3 000 integers
        let mut text = String::with_capacity(32 * 1024);
        for k in keys.iter().step_by(6).take(3_000) {
            use std::fmt::Write;
            write!(text, "{k},").expect("writing to a String cannot fail");
        }
        sum = sum.wrapping_add(text.len() as u64);
        // 4. build 2 500 small row vectors
        let rows: Vec<Vec<u64>> = keys
            .chunks(8)
            .map(|c| c.iter().map(|k| k ^ 0x5555).collect())
            .collect();
        sum = sum.wrapping_add(
            rows.iter()
                .map(|r| r[r.len() - 1])
                .fold(0, u64::wrapping_add),
        );
    }
    black_box(sum)
}

/// Time one kernel run, in milliseconds.
pub fn kernel_ms() -> f64 {
    let t = Instant::now();
    let sum = kernel();
    let ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(sum, KERNEL_CHECKSUM, "the frozen kernel was edited");
    ms
}

/// Factor that converts a time measured between two kernel runs into
/// reference-speed units: multiply times by it, divide rates by it.
pub fn scale(before_ms: f64, after_ms: f64) -> f64 {
    CALIB_REF_MS / ((before_ms + after_ms) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_checksum_is_pinned() {
        assert_eq!(kernel(), KERNEL_CHECKSUM);
        assert_eq!(kernel(), kernel(), "the kernel has no hidden state");
    }

    #[test]
    fn scale_is_one_at_reference_speed_and_shrinks_slow_runs() {
        assert_eq!(scale(CALIB_REF_MS, CALIB_REF_MS), 1.0);
        // A machine running at half speed doubles the kernel time, so a
        // 10 ms measurement reads as 5 ms of reference-speed work.
        let s = scale(2.0 * CALIB_REF_MS, 2.0 * CALIB_REF_MS);
        assert!((10.0 * s - 5.0).abs() < 1e-12);
        // The bracket is the mean of the two kernel runs.
        assert!((scale(3.0, 5.0) - CALIB_REF_MS / 4.0).abs() < 1e-12);
    }

    #[test]
    fn rng_is_a_fixed_sequence() {
        let mut a = Rng::new(2005);
        let mut b = Rng::new(2005);
        let xs: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..4).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs[0], Rng::new(2006).next_u64());
        assert!((0..100).all(|_| a.below(30) < 30));
    }
}

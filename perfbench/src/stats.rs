//! Order statistics and the median-of-rounds arithmetic.
//!
//! Every wall-clock metric is a *median over rounds* of a per-round figure
//! (rate, median latency, p95 latency) that was first scaled to reference
//! speed with the kernel runs bracketing that round. Pooled percentiles
//! over a whole run are never reported: in the noise study they swung
//! 15-40 % where the median of per-round p95s held 3-8 %.

/// Median of `xs` (mean of the two middle values for an even count).
/// Sorts in place. Panics on an empty slice — every caller has at least
/// one round.
pub fn median(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in `(0, 100]`) of an ascending slice.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of nothing");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One round of closed-loop operations, reduced to the three figures the
/// end-to-end metrics are medians of. Raw (un-normalised) values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundSummary {
    /// Operations per second of busy time (`busy_ns` = op time plus, on
    /// `live_grid`, the ingest cycle the operations waited behind).
    pub ops_per_s: f64,
    /// Median operation latency, microseconds.
    pub p50_us: f64,
    /// 95th-percentile operation latency, microseconds.
    pub p95_us: f64,
}

/// Summarise one round from its per-op latencies (nanoseconds; sorted in
/// place) and the busy time its rate is charged against.
pub fn summarise_round(latencies_ns: &mut [u64], busy_ns: u64) -> RoundSummary {
    latencies_ns.sort_unstable();
    RoundSummary {
        ops_per_s: latencies_ns.len() as f64 / (busy_ns as f64 / 1e9),
        p50_us: percentile_sorted(latencies_ns, 50.0) as f64 / 1e3,
        p95_us: percentile_sorted(latencies_ns, 95.0) as f64 / 1e3,
    }
}

/// Reference-speed median over rounds: `scale[i]` multiplies round `i`'s
/// times (and divides its rates).
pub fn median_of_rounds(rounds: &[RoundSummary], scales: &[f64]) -> RoundSummary {
    assert_eq!(rounds.len(), scales.len());
    let pick = |f: &dyn Fn(&RoundSummary, f64) -> f64| {
        let mut xs: Vec<f64> = rounds.iter().zip(scales).map(|(r, s)| f(r, *s)).collect();
        median(&mut xs)
    };
    RoundSummary {
        ops_per_s: pick(&|r, s| r.ops_per_s / s),
        p50_us: pick(&|r, s| r.p50_us * s),
        p95_us: pick(&|r, s| r.p95_us * s),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_unsorted() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut [7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<u64> = (1..=200).collect();
        assert_eq!(percentile_sorted(&xs, 50.0), 100);
        // 200 samples leave exactly ten beyond the p95 — the floor the
        // choosing-metrics guide asks of a reported percentile.
        assert_eq!(percentile_sorted(&xs, 95.0), 190);
        assert_eq!(percentile_sorted(&xs, 100.0), 200);
        assert_eq!(percentile_sorted(&[5], 95.0), 5);
    }

    #[test]
    fn round_summary_uses_busy_time_for_the_rate() {
        let mut lat = vec![3_000, 1_000, 2_000, 4_000];
        let r = summarise_round(&mut lat, 20_000);
        assert_eq!(r.ops_per_s, 4.0 / 20e-6);
        assert_eq!(r.p50_us, 2.0);
        assert_eq!(r.p95_us, 4.0);
    }

    #[test]
    fn median_of_rounds_normalises_before_taking_the_median() {
        let r = |q, p| RoundSummary {
            ops_per_s: q,
            p50_us: p,
            p95_us: 2.0 * p,
        };
        // Round 2 ran on a machine at half speed (scale 0.5): its 200 us
        // median is 100 us of reference-speed work and its 500 ops/s is
        // 1000 — identical to round 1 once normalised.
        let rounds = [r(1000.0, 100.0), r(500.0, 200.0), r(900.0, 110.0)];
        let m = median_of_rounds(&rounds, &[1.0, 0.5, 1.0]);
        assert_eq!(m.ops_per_s, 1000.0);
        assert_eq!(m.p50_us, 100.0);
        assert_eq!(m.p95_us, 200.0);
    }
}

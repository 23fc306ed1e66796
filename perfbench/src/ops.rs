//! Workloads and their seeded operation lists.
//!
//! `--seed` drives literals and operation order only; the program under
//! test receives nothing but the generated SQL. Each workload has one
//! fixed-shape list that every round replays, so rounds are comparable,
//! every counter repeats exactly for a seed, and the *composition* of a
//! round (how many of each shape, how many rows requested) is the same for
//! every seed — a seed moves literals by a few units, never the amount of
//! work.

use crate::calib::Rng;

/// The four workloads. Names are fixed: later issues cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table-1 rows 1/2/3 with ~25-row answers: per-query fixed costs
    /// (parse, plan, RLS, connect, thread dispatch) are nearly all of the
    /// time. The mediator-overhead workload.
    Table1Fed,
    /// The Fig-6 two-database join at the paper's twelve row counts
    /// (mean ~1140 rows): bytes dominate — backend materialisation,
    /// staging, the mediator hash join.
    Fig6Wide,
    /// Four executor-bound shapes over a 10 000-event mart: time is spent
    /// inside `sqlkit::exec`; mediator overhead is a small share.
    AnalyticScan,
    /// The Table-1 mix on a replicated, observability-on grid that ingests
    /// 20 events before every round: writes beside reads.
    LiveGrid,
}

/// Events appended per `live_grid` ingest cycle.
pub const LIVE_EVENTS_PER_CYCLE: usize = 20;

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::Table1Fed,
        Workload::Fig6Wide,
        Workload::AnalyticScan,
        Workload::LiveGrid,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1Fed => "table1_fed",
            Workload::Fig6Wide => "fig6_wide",
            Workload::AnalyticScan => "analytic_scan",
            Workload::LiveGrid => "live_grid",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Events held by each of the two source databases.
    pub fn events_per_source(self) -> usize {
        match self {
            Workload::AnalyticScan => 5_000,
            _ => 1_300,
        }
    }

    /// Rounds per second of `--seconds` at reference speed, measured on
    /// the recording box. Work is *fixed* (`rounds x ops`), never
    /// time-boxed: a time box changes what is measured when the machine
    /// slows, and on `live_grid` the cycle cost grows with the data.
    fn rounds_per_second(self) -> f64 {
        match self {
            Workload::Table1Fed => 9.8,
            Workload::Fig6Wide => 5.8,
            Workload::AnalyticScan => 4.2,
            Workload::LiveGrid => 8.5,
        }
    }

    /// Rounds of the untraced pass for a `--seconds` budget.
    pub fn rounds(self, seconds: u64) -> usize {
        ((seconds as f64 * self.rounds_per_second()).round() as usize).max(2)
    }

    /// Rounds of the traced pass: a fifth of the untraced pass's. Each
    /// traced round runs the list three times (default, observability
    /// flipped, layer replay).
    pub fn traced_rounds(self, seconds: u64) -> usize {
        (self.rounds(seconds) / 5).max(2)
    }
}

/// What an operation is, for answer checking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Table-1 row `0..3`: the paper's (servers, distributed, tables).
    Table1(usize),
    /// Fig-6 join that must return exactly this many rows.
    Fig6(usize),
    /// One of the four analytic shapes; checked against the oracle only.
    Analytic(usize),
}

/// Paper Table 1: (Clarens servers, distributed, tables accessed).
pub const TABLE1_PAPER: [(usize, bool, usize); 3] = [(1, false, 1), (1, true, 2), (2, true, 4)];

/// One distinct statement of a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Statement {
    /// The SQL text handed to `Grid::query`.
    pub sql: String,
    /// Its shape.
    pub shape: Shape,
}

/// A workload's operations: the distinct statements and the order a round
/// issues them in (indices into `distinct`).
#[derive(Debug, Clone, PartialEq)]
pub struct OpList {
    /// Distinct statements; each is verified in full against the oracle
    /// once at set-up.
    pub distinct: Vec<Statement>,
    /// One round: indices into `distinct`.
    pub order: Vec<usize>,
}

impl OpList {
    /// The SQL of a round, in issue order.
    #[cfg(test)]
    pub fn sql(&self) -> Vec<&str> {
        self.order
            .iter()
            .map(|&i| self.distinct[i].sql.as_str())
            .collect()
    }

    fn push(&mut self, sql: String, shape: Shape) {
        let idx = match self.distinct.iter().position(|s| s.sql == sql) {
            Some(i) => i,
            None => {
                self.distinct.push(Statement { sql, shape });
                self.distinct.len() - 1
            }
        };
        self.order.push(idx);
    }
}

fn table1_sql(row: usize, k: u64) -> String {
    match row {
        0 => format!("SELECT e_id, energy FROM ntuple_events WHERE e_id < {k}"),
        1 => format!(
            "SELECT e.e_id, s.n_meas FROM ntuple_events e \
             JOIN run_summary s ON e.run_id = s.run_id WHERE e.e_id < {k}"
        ),
        _ => format!(
            "SELECT e.e_id, s.n_meas, c.avg_weight, d.mean_value \
             FROM ntuple_events e \
             JOIN run_summary s ON e.run_id = s.run_id \
             JOIN run_conditions c ON s.run_id = c.run_id \
             JOIN detector_summary d ON c.detector = d.detector \
             WHERE e.e_id < {k}"
        ),
    }
}

/// `variants x copies` variant indices, shuffled by the seed, then up to
/// `max_nudges` of them (the seed decides how many) moved to the next
/// variant. Every seed therefore issues the same multiset of statements up
/// to a few nudges: the seed decides order and the low digits of the
/// counters, never how much work a round is.
fn stratified(rng: &mut Rng, variants: usize, copies: usize, max_nudges: u64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..variants)
        .flat_map(|i| std::iter::repeat_n(i, copies))
        .collect();
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
    for _ in 0..rng.below(max_nudges + 1) {
        let i = rng.below(v.len() as u64) as usize;
        v[i] = (v[i] + 1) % variants;
    }
    v
}

fn empty_list(ops: usize) -> OpList {
    OpList {
        distinct: Vec::new(),
        order: Vec::with_capacity(ops),
    }
}

/// Table-1 mix: rows 1/2/3 in rotation; each row asks `e_id < K` for every
/// K in `[10, 40)` `copies` times.
fn table1_mix(rng: &mut Rng, copies: usize) -> OpList {
    let ks: Vec<Vec<usize>> = (0..3).map(|_| stratified(rng, 30, copies, 3)).collect();
    let mut list = empty_list(90 * copies);
    for i in 0..30 * copies {
        for (row, k) in ks.iter().enumerate() {
            list.push(table1_sql(row, 10 + k[i] as u64), Shape::Table1(row));
        }
    }
    list
}

/// The Fig-6 row counts a round asks for, 17 times each: the paper's
/// twelve (Figure 6's x-axis), and the seventh (901) once more. With twelve equal groups a
/// round's median rank is the boundary between the sixth and seventh
/// group's latency clusters and flips between them from round to round;
/// with 13 x 17 = 221 ops it is rank 111, inside the 34 operations of the
/// 901 group, and the p95 (rank 210) stays inside the 2551 group with
/// eleven samples beyond it.
const FIG6_MIX: [usize; 13] = [
    21, 51, 301, 451, 700, 801, 901, 901, 1701, 1751, 2251, 2451, 2551,
];

/// Fig-6 mix: every [`FIG6_MIX`] entry 17 times, each nudged by 0-3 rows.
fn fig6_mix(rng: &mut Rng) -> OpList {
    let mut list = empty_list(17 * FIG6_MIX.len());
    for i in stratified(rng, FIG6_MIX.len(), 17, 0) {
        let n = FIG6_MIX[i] + rng.below(4) as usize;
        list.push(
            format!(
                "SELECT e.e_id, e.energy, s.avg_value FROM ntuple_events e \
                 JOIN run_summary s ON e.run_id = s.run_id WHERE e.e_id < {n}"
            ),
            Shape::Fig6(n),
        );
    }
    list
}

/// Analytic mix: the four exec-hotpath shapes, 40 operations of each plus
/// 40 more of the GROUP BY, every shape in five threshold variants. The
/// uneven weights keep a round's median and p95 off the boundary between
/// two shapes' latency clusters whichever order the clusters fall in
/// (boundaries lie at multiples of 40; the ranks are 100 and 190) — on a
/// boundary a percentile flips between two shapes from round to round.
fn analytic_mix(rng: &mut Rng) -> OpList {
    const PATTERN: [usize; 5] = [0, 1, 2, 3, 1];
    let variants: Vec<Vec<usize>> = (0..PATTERN.len())
        .map(|_| stratified(rng, 5, 8, 2))
        .collect();
    let mut list = empty_list(200);
    for i in 0..40 {
        for (slot, v) in variants.iter().enumerate() {
            let shape = PATTERN[slot];
            let j = v[i];
            let sql = match shape {
                // multi-conjunct filter scan
                0 => format!(
                    "SELECT e_id, energy FROM ntuple_events \
                     WHERE energy > {lo}.5 AND energy < 90.0 AND run_id >= {run} \
                     AND detector <> 'hcal' AND nhits > {hits}",
                    lo = 20 + j,
                    run = 2 + j % 3,
                    hits = 10 + j % 2,
                ),
                // GROUP BY / HAVING
                1 => format!(
                    "SELECT run_id, COUNT(*) AS n, AVG(energy) AS avg_e, MAX(energy) AS max_e \
                     FROM ntuple_events WHERE nhits > {hits} \
                     GROUP BY run_id HAVING COUNT(*) > {having} ORDER BY run_id",
                    hits = 4 + j,
                    having = 70 + j,
                ),
                // ORDER BY ... LIMIT 100 (total order: ties broken by the key)
                2 => format!(
                    "SELECT e_id, energy FROM ntuple_events WHERE run_id >= {j} \
                     ORDER BY energy DESC, e_id LIMIT 100"
                ),
                // three-table dimension join, one table behind the far mediator
                _ => format!(
                    "SELECT e.e_id, s.n_meas, c.avg_weight FROM ntuple_events e \
                     JOIN run_summary s ON e.run_id = s.run_id \
                     JOIN run_conditions c ON s.run_id = c.run_id \
                     WHERE e.energy > {lo}.25 AND c.detector <> 'muon'",
                    lo = 60 + j,
                ),
            };
            list.push(sql, Shape::Analytic(shape));
        }
    }
    list
}

/// The operation list of `workload` for `seed`.
pub fn op_list(workload: Workload, seed: u64) -> OpList {
    let mut rng = Rng::new(seed);
    match workload {
        Workload::Table1Fed => table1_mix(&mut rng, 7),
        Workload::Fig6Wide => fig6_mix(&mut rng),
        Workload::AnalyticScan => analytic_mix(&mut rng),
        Workload::LiveGrid => table1_mix(&mut rng, 3),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape_counts(list: &OpList) -> Vec<(Shape, usize)> {
        let mut counts: Vec<(Shape, usize)> = Vec::new();
        for &i in &list.order {
            let key = match list.distinct[i].shape {
                // Fig-6 shapes differ only by the seeded nudge: count by
                // the paper row count they derive from.
                Shape::Fig6(n) => Shape::Fig6(*FIG6_MIX.iter().rev().find(|&&p| p <= n).unwrap()),
                other => other,
            };
            match counts.iter_mut().find(|(s, _)| *s == key) {
                Some((_, c)) => *c += 1,
                None => counts.push((key, 1)),
            }
        }
        counts.sort_by_key(|(s, _)| format!("{s:?}"));
        counts
    }

    #[test]
    fn same_seed_same_sql_different_seed_same_shape_counts() {
        for w in Workload::ALL {
            let a = op_list(w, 2005);
            assert_eq!(a, op_list(w, 2005), "{}: a seed fixes the list", w.name());
            let b = op_list(w, 2006);
            assert_ne!(a.sql(), b.sql(), "{}: the seed moves literals", w.name());
            assert_eq!(a.order.len(), b.order.len());
            assert_eq!(shape_counts(&a), shape_counts(&b), "{}", w.name());
        }
    }

    #[test]
    fn every_round_supports_a_p95() {
        for w in Workload::ALL {
            assert!(op_list(w, 1).order.len() >= 200, "{}", w.name());
        }
    }

    #[test]
    fn fig6_requests_stay_inside_the_grid() {
        let total = 2 * Workload::Fig6Wide.events_per_source();
        for s in &op_list(Workload::Fig6Wide, 7).distinct {
            let Shape::Fig6(n) = s.shape else {
                panic!("fig6 list holds only fig6 shapes")
            };
            assert!(n <= total);
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn rounds_scale_with_seconds_and_never_vanish() {
        assert!(Workload::Table1Fed.rounds(20) > Workload::Table1Fed.rounds(10));
        assert_eq!(Workload::AnalyticScan.rounds(0), 2);
        assert!(Workload::Fig6Wide.traced_rounds(1) >= 2);
    }
}

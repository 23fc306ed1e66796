//! `perf` — the one gated benchmark of the gridfed mediator.
//!
//! ```text
//! perf --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
//! perf [--seed N] [--seconds S]                        the suite: every workload, both passes
//! perf --smoke                                         2 rounds per workload, no traced pass
//! perf --self-check                                    two interleaved sets must agree
//! ```
//!
//! A run's last stdout line is one JSON object (`correct`, `attempted`,
//! `failed`, `metrics`). The suite runs each pass of each workload in a
//! child process of its own, so `peak_rss_mb` is per workload, and writes
//! `perf/result.json` and `perf/trace-<workload>.jsonl` next to the build
//! directory's `release/`. README.md explains every metric.

mod calib;
mod json;
mod mem;
mod metrics;
mod ops;
mod pin;
mod replay;
mod stats;
mod traced;
mod workload;

use json::{metrics_object, Json};
use metrics::{MetricSet, END_TO_END, PER_LAYER};
use ops::Workload;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// Default `--seed`.
const DEFAULT_SEED: u64 = 2005;
/// Default `--seconds`; `BENCHMARK.json`'s `run_seconds`.
const DEFAULT_SECONDS: u64 = 24;
/// Rounds per workload under `--smoke`.
const SMOKE_ROUNDS: usize = 2;
/// Runs per set of `--self-check`.
const SELF_CHECK_RUNS: usize = 3;
/// Two sets whose `thread_wake_us` medians differ by this factor ran in
/// different wake-up regimes: their wall-clock rows are unresolved.
const WAKE_REGIME_GAP: f64 = 2.0;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    self_check: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        self_check: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: `{v}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => a.seed = number(value()?)?,
            "--seconds" => a.seconds = number(value()?)?,
            "--trace" => {
                a.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--smoke" => a.smoke = true,
            "--self-check" => a.self_check = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

/// `<build dir>/perf/`: beside the `release/` directory this binary runs
/// from, so it is inside the checkout and already ignored by git.
fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the running binary has a path");
    exe.parent()
        .and_then(|release| release.parent())
        .expect("cargo places binaries two levels below the build directory")
        .join("perf")
}

/// One run of one workload, in this process. Prints human-readable metric
/// lines, then the contract's JSON object as the last line.
fn run_one(workload: Workload, a: &Args) -> bool {
    let cpus_allowed = pin::pin_to_one_cpu();
    let rounds = |full: usize| if a.smoke { SMOKE_ROUNDS } else { full };
    let (metrics, attempted, failed) = if a.trace {
        let rounds = rounds(workload.traced_rounds(a.seconds));
        let file = out_dir().join(format!("trace-{}.jsonl", workload.name()));
        let mut t = traced::run_traced(workload, a.seed, rounds, Some(&file));
        t.metrics.set("harness.cpus_allowed", cpus_allowed as f64);
        (t.metrics, t.attempted, t.failed)
    } else {
        let e = workload::run_untraced(workload, a.seed, rounds(workload.rounds(a.seconds)));
        let mut m = MetricSet::end_to_end();
        m.set("setup_s", e.setup_s);
        m.set("queries_per_s", e.norm.ops_per_s);
        m.set("query_p50_us", e.norm.p50_us);
        m.set("virtual_ms_per_query", e.virtual_ms_per_query);
        m.set("wire_kb_per_query", e.wire_kb_per_query);
        m.set("peak_rss_mb", e.peak_rss_mb);
        println!(
            "note {} rounds in {:.2} s, kernel median {:.3} ms (reference {} ms), {cpus_allowed} cpu allowed, \
             query_p95_us {:.1} (not gated; per layer as core.query_p95_us)",
            e.rounds,
            e.measured_s,
            e.calib_ms,
            calib::CALIB_REF_MS,
            e.norm.p95_us
        );
        println!("health thread_wake_us {:?}", e.thread_wake_us);
        println!("health cpus_allowed {cpus_allowed}");
        (m, e.attempted, e.failed)
    };
    for (name, value, unit) in metrics.iter() {
        println!("metric {name} {value:?} {unit}");
    }
    println!("ops {attempted} {failed}");
    let correct = failed == 0;
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Int(attempted as u64)),
            ("failed", Json::Int(failed as u64)),
            ("metrics", metrics_object(metrics.iter())),
        ])
        .render()
    );
    correct
}

/// What the parent keeps of a child run.
#[derive(Debug, Clone, Default)]
struct ChildRun {
    metrics: Vec<(String, f64, String)>,
    attempted: u64,
    failed: u64,
    /// `health` lines of an untraced run: the wake-up regime it saw.
    thread_wake_us: f64,
    cpus_allowed: u64,
}

/// Run one pass of one workload in a child process and parse its
/// `metric` / `ops` lines.
fn run_child(workload: Workload, a: &Args, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if a.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child, so none outlives this function.
    let out = cmd.output().map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut run = ChildRun::default();
    for line in text.lines() {
        let f: Vec<&str> = line.split(' ').collect();
        let bad = || format!("bad number in `{line}`");
        match f.as_slice() {
            ["metric", name, value, unit] => run.metrics.push((
                name.to_string(),
                value.parse().map_err(|_| bad())?,
                unit.to_string(),
            )),
            ["ops", attempted, failed] => {
                run.attempted = attempted.parse().map_err(|_| bad())?;
                run.failed = failed.parse().map_err(|_| bad())?;
            }
            ["health", "thread_wake_us", v] => run.thread_wake_us = v.parse().map_err(|_| bad())?,
            ["health", "cpus_allowed", v] => run.cpus_allowed = v.parse().map_err(|_| bad())?,
            _ => {}
        }
    }
    if run.attempted == 0 {
        return Err(format!(
            "{} (trace {}) printed no result; exit {:?}",
            workload.name(),
            u8::from(trace),
            out.status.code()
        ));
    }
    Ok(run)
}

fn print_table(title: &str, table: &[(&str, &str)], runs: &[(Workload, ChildRun)]) {
    println!("\n{title}");
    print!("{:<40} {:>7}", "metric", "unit");
    for (w, _) in runs {
        print!(" {:>15}", w.name());
    }
    println!();
    for (i, (name, unit)) in table.iter().enumerate() {
        print!("{name:<40} {unit:>7}");
        for (_, run) in runs {
            print!(" {:>15.4}", run.metrics[i].1);
        }
        println!();
    }
}

/// The suite: every workload's untraced pass, then (unless `--smoke`) its
/// traced pass, each in its own child; one record written at the end.
fn run_suite(a: &Args) -> Result<bool, String> {
    let mut e2e = Vec::new();
    let mut layers = Vec::new();
    for w in Workload::ALL {
        eprintln!("perf: {} ...", w.name());
        e2e.push((w, run_child(w, a, false)?));
        if !a.smoke {
            layers.push((w, run_child(w, a, true)?));
        }
    }
    let names: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    print_table(
        "End-to-end (tracing off; reference-speed medians over rounds)",
        &names,
        &e2e,
    );
    if !layers.is_empty() {
        print_table("Per layer (traced pass)", PER_LAYER, &layers);
    }
    println!();
    let mut ok = true;
    let mut record = Vec::new();
    for (i, (w, run)) in e2e.iter().enumerate() {
        let traced = layers.get(i).map(|(_, r)| r);
        let attempted = run.attempted + traced.map_or(0, |r| r.attempted);
        let failed = run.failed + traced.map_or(0, |r| r.failed);
        let share = failed as f64 / attempted as f64;
        println!(
            "{:<14} failed_share {share} ({failed} of {attempted} operations)",
            w.name()
        );
        ok &= failed == 0;
        let object = |r: &ChildRun| {
            metrics_object(
                r.metrics
                    .iter()
                    .map(|(n, v, u)| (n.as_str(), *v, u.as_str())),
            )
        };
        let mut fields = vec![
            ("attempted", Json::Int(attempted)),
            ("failed", Json::Int(failed)),
            ("failed_share", Json::Num(share)),
            ("end_to_end", object(run)),
        ];
        if let Some(t) = traced {
            fields.push(("per_layer", object(t)));
        }
        record.push((w.name(), Json::obj(fields)));
    }
    let record = Json::obj([
        ("seed", Json::Int(a.seed)),
        ("seconds", Json::Int(a.seconds)),
        ("calib_ref_ms", Json::Num(calib::CALIB_REF_MS)),
        ("workloads", Json::obj(record)),
    ]);
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join("result.json");
    std::fs::write(&path, record.render() + "\n").map_err(|e| e.to_string())?;
    println!("wrote {}", path.display());
    Ok(ok)
}

/// The self-check's verdict on one workload x metric row: the gap between
/// the two set medians, and the sets' median thread wake-ups.
fn verdict(m: &metrics::EndToEnd, gap: f64, wakes: (f64, f64), all_pinned: bool) -> &'static str {
    let (wa, wb) = wakes;
    let regimes_differ = !all_pinned || wa.max(wb) >= WAKE_REGIME_GAP * wa.min(wb);
    if m.times_queries() && regimes_differ {
        "UNRESOLVED"
    } else if gap > m.bound {
        "OVER"
    } else {
        ""
    }
}

/// Two interleaved sets of untraced runs (A B A B ...) of the same code:
/// for every workload x end-to-end metric the two set medians must agree
/// within the metric's bound. Where the two sets saw different thread
/// wake-up regimes (or a run could not pin itself), the query-timing rows
/// are reported as unresolved — the sets differ by something the code
/// under test does not control — and the check fails.
fn self_check(a: &Args) -> Result<bool, String> {
    // (workload, metric) -> values of set A, set B
    let mut values: BTreeMap<(usize, usize), [Vec<f64>; 2]> = BTreeMap::new();
    let mut wakes: [[Vec<f64>; 2]; Workload::ALL.len()] = Default::default();
    let mut all_pinned = true;
    for run in 0..2 * SELF_CHECK_RUNS {
        for (wi, w) in Workload::ALL.into_iter().enumerate() {
            eprintln!(
                "perf: set {} run {} {} ...",
                ["A", "B"][run % 2],
                run / 2 + 1,
                w.name()
            );
            let child = run_child(w, a, false)?;
            if child.failed > 0 {
                return Err(format!("{}: {} operations failed", w.name(), child.failed));
            }
            for (mi, (_, v, _)) in child.metrics.iter().enumerate() {
                values.entry((wi, mi)).or_default()[run % 2].push(*v);
            }
            wakes[wi][run % 2].push(child.thread_wake_us);
            all_pinned &= child.cpus_allowed == 1;
        }
    }
    println!(
        "{:<14} {:<22} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "median A", "median B", "gap %", "bound %"
    );
    let mut ok = true;
    for ((wi, mi), [set_a, set_b]) in &mut values {
        let m = &END_TO_END[*mi];
        let (ma, mb) = (stats::median(set_a), stats::median(set_b));
        let gap = (mb - ma).abs() / ma;
        let [wake_a, wake_b] = &mut wakes[*wi];
        let wakes = (stats::median(wake_a), stats::median(wake_b));
        let verdict = verdict(m, gap, wakes, all_pinned);
        ok &= verdict.is_empty();
        let sep = if verdict.is_empty() { "" } else { "  " };
        println!(
            "{:<14} {:<22} {ma:>14.4} {mb:>14.4} {:>8.2} {:>7.1}{sep}{verdict}",
            Workload::ALL[*wi].name(),
            m.name,
            100.0 * gap,
            100.0 * m.bound
        );
    }
    for (w, [wake_a, wake_b]) in Workload::ALL.iter().zip(&mut wakes) {
        println!(
            "{:<14} thread_wake_us        {:>14.4} {:>14.4}",
            w.name(),
            stats::median(wake_a),
            stats::median(wake_b)
        );
    }
    if !all_pinned {
        println!("a run could not pin itself to one CPU: query-timing rows are unresolved");
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match a.workload {
        Some(w) => Ok(run_one(w, &a)),
        None if a.self_check => self_check(&a),
        None => run_suite(&a),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // Wrong answers are reported in the result (`correct: false`,
        // `failed` > 0); a single run still exits 0 so that the result
        // line is read. The suite and the self-check gate on it.
        Ok(false) if a.workload.is_some() => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_drivers_form() {
        let a = args("--workload fig6_wide --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Some(Workload::Fig6Wide));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, true));
    }

    #[test]
    fn defaults_and_rejections() {
        let a = args("").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (None, DEFAULT_SEED, DEFAULT_SECONDS, false)
        );
        assert!(args("--workload nope").is_err());
        assert!(args("--trace 2").is_err());
        assert!(args("--seed").is_err());
        assert!(args("--seconds x").is_err());
        assert!(args("--frobnicate").is_err());
        assert!(args("--rounds 5").is_err(), "run length is the benchmark's");
        assert!(args("--smoke").unwrap().smoke);
    }

    #[test]
    fn self_check_verdicts() {
        let qps = &END_TO_END[1];
        let rss = END_TO_END.last().unwrap();
        assert!(qps.times_queries() && !rss.times_queries());
        assert_eq!(verdict(qps, 0.02, (15.0, 16.0), true), "");
        assert_eq!(verdict(qps, 0.5, (15.0, 16.0), true), "OVER");
        // A 2x gap in thread wake-ups, or a run that could not pin itself:
        // query timings differ by something the code does not control.
        assert_eq!(verdict(qps, 0.5, (15.0, 90.0), true), "UNRESOLVED");
        assert_eq!(verdict(qps, 0.0, (15.0, 15.0), false), "UNRESOLVED");
        assert_eq!(verdict(rss, 0.0, (15.0, 90.0), false), "");
        assert_eq!(verdict(rss, 0.2, (15.0, 90.0), true), "OVER");
    }
}

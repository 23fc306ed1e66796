//! Caller-runs fan-out for one scatter wave.
//!
//! The thread that dispatches a wave has nothing to do until the wave is
//! gathered, so it runs one of the wave's branches itself; only the other
//! branches get `std::thread::scope` helpers. A wave of n branches still
//! occupies n threads (the same overlap as a thread per branch), and a wave
//! of one branch — every reduction wave of a two-table join — starts none.

use gridfed_faults::VirtualClock;
use gridfed_sqlkit::{current_exec_config, with_exec_config};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Run every job of one wave and return the outcomes in job order. The
/// calling thread runs the **last** job — a choice that depends on the wave
/// alone, never on timing — after starting one scoped helper thread for
/// each of the others.
///
/// A helper starts with none of the caller's thread-local state, so the
/// caller's executor config and virtual-clock offset are re-installed on
/// it: a job's plan executions and fault windows are the same whichever
/// thread it lands on. A job that panics, on the caller or on a helper,
/// becomes `Err(panic message)` in its own slot; the others complete.
pub(crate) fn run_wave<T, F>(mut jobs: Vec<F>) -> Vec<Result<T, String>>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let Some(own) = jobs.pop() else {
        return Vec::new();
    };
    let cfg = current_exec_config();
    let offset = VirtualClock::thread_offset();
    std::thread::scope(|scope| {
        let helpers: Vec<_> = jobs
            .into_iter()
            .map(|job| {
                let cfg = cfg.clone();
                scope.spawn(move || {
                    VirtualClock::install_thread_offset(offset);
                    with_exec_config(cfg, job)
                })
            })
            .collect();
        let own = catch_unwind(AssertUnwindSafe(own));
        helpers
            .into_iter()
            .map(|helper| helper.join())
            .chain([own])
            .map(|outcome| outcome.map_err(|payload| panic_detail(payload.as_ref())))
            .collect()
    })
}

/// Best-effort extraction of a panic payload's message. `panic!` with a
/// string literal yields `&str`; `panic!` with formatting yields `String`;
/// anything else is opaque.
fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridfed_simnet::Cost;
    use gridfed_sqlkit::ExecConfig;
    use std::collections::HashSet;
    use std::sync::Barrier;
    use std::thread::{self, ThreadId};

    /// One job per slot, each reporting the thread it ran on. The barrier
    /// holds every job until all `n` have started, so the jobs provably
    /// occupy `n` threads at once (no helper is reused, none is skipped).
    fn thread_ids(n: usize) -> Vec<ThreadId> {
        let barrier = Barrier::new(n);
        let jobs: Vec<_> = (0..n)
            .map(|_| {
                || {
                    barrier.wait();
                    thread::current().id()
                }
            })
            .collect();
        run_wave(jobs).into_iter().map(Result::unwrap).collect()
    }

    #[test]
    fn a_one_job_wave_runs_on_the_caller_and_starts_no_thread() {
        assert_eq!(thread_ids(1), vec![thread::current().id()]);
    }

    #[test]
    fn n_jobs_use_the_caller_and_n_minus_one_helpers() {
        let me = thread::current().id();
        for n in 1..=5 {
            let ids = thread_ids(n);
            assert_eq!(ids.len(), n);
            // The caller's slot is the last one — whatever the width and
            // however the helpers were scheduled.
            let on_caller: Vec<usize> = (0..n).filter(|&i| ids[i] == me).collect();
            assert_eq!(on_caller, vec![n - 1], "width {n}");
            let others: HashSet<ThreadId> = ids[..n - 1].iter().copied().collect();
            assert_eq!(others.len(), n - 1, "width {n}: one helper per other job");
        }
    }

    #[test]
    fn an_empty_wave_is_empty() {
        let jobs: Vec<fn() -> u8> = Vec::new();
        assert!(run_wave(jobs).is_empty());
    }

    #[test]
    fn a_panic_fails_its_own_slot_only() {
        // Slot 2 is the caller's, slots 0 and 1 are helpers'.
        for bad in 0..3 {
            let jobs: Vec<_> = (0..3)
                .map(|i| {
                    move || {
                        if i == bad {
                            panic!("job {i} blew up");
                        }
                        i
                    }
                })
                .collect();
            let out = run_wave(jobs);
            for (i, outcome) in out.iter().enumerate() {
                if i == bad {
                    assert_eq!(outcome, &Err(format!("job {i} blew up")));
                } else {
                    assert_eq!(outcome, &Ok(i));
                }
            }
        }
    }

    #[test]
    fn helpers_observe_the_callers_exec_config_and_clock_offset() {
        let clock = VirtualClock::new();
        let mut cfg = ExecConfig::with_workers(3);
        cfg.batch_rows = 77;
        let seen = with_exec_config(cfg, || {
            clock.with_offset(Cost::from_millis(40), || {
                let jobs: Vec<_> = (0..3)
                    .map(|_| {
                        || {
                            let cfg = current_exec_config();
                            (cfg.workers, cfg.batch_rows, VirtualClock::thread_offset())
                        }
                    })
                    .collect();
                run_wave(jobs)
            })
        });
        for outcome in seen {
            assert_eq!(outcome, Ok((3, 77, Cost::from_millis(40))));
        }
        // ... and the caller is left as it was found.
        assert_eq!(current_exec_config().workers, 1);
        assert_eq!(VirtualClock::thread_offset(), Cost::ZERO);
    }

    #[test]
    fn a_panic_on_the_caller_restores_its_scoped_state() {
        let clock = VirtualClock::new();
        let job = || {
            with_exec_config(ExecConfig::with_workers(8), || {
                clock.with_offset(Cost::from_millis(9), || panic!("mid-attempt"))
            })
        };
        let out: Vec<Result<(), String>> = run_wave(vec![job]);
        assert_eq!(out, vec![Err("mid-attempt".to_string())]);
        assert_eq!(current_exec_config().workers, 1);
        assert_eq!(VirtualClock::thread_offset(), Cost::ZERO);
    }

    #[test]
    fn panic_detail_extracts_string_payloads() {
        let s: Box<dyn std::any::Any + Send> = Box::new("kaput");
        assert_eq!(panic_detail(s.as_ref()), "kaput");
        let owned: Box<dyn std::any::Any + Send> = Box::new(String::from("kaput 2"));
        assert_eq!(panic_detail(owned.as_ref()), "kaput 2");
        let other: Box<dyn std::any::Any + Send> = Box::new(17u32);
        assert_eq!(panic_detail(other.as_ref()), "non-string panic payload");
    }
}

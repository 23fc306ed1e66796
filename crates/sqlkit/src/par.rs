//! Morsel-driven intra-query parallelism.
//!
//! PR 6's columnar executor made every operator a loop over a selection
//! vector — which makes the parallel decomposition almost mechanical: split
//! the selection vector into *morsels* (fixed-size runs of row positions),
//! hand morsels to a small pool of scoped worker threads, and merge the
//! per-morsel results **in morsel order** so the output is byte-identical
//! to the sequential pass. The shim policy forbids rayon, so the pool is
//! plain `std::thread::scope` with an atomic work index — workers pull the
//! next morsel when they finish their current one (morsel-driven
//! scheduling, not static striping), which keeps skewed morsels from
//! idling the pool.
//!
//! Determinism rules (see DESIGN.md §4.11):
//!
//! - **Values**: every merge concatenates per-morsel results in morsel
//!   order. Selection vectors stay ascending, join output stays in probe
//!   order, group insertion order stays first-occurrence-in-`sel`-order.
//! - **Errors**: per-row errors are deferred as `(position, error)` and
//!   reduced by *global minimum position* after the pool joins — exactly
//!   the row-major first error a row-at-a-time pass reports.
//! - **Virtual time**: worker threads do not inherit the spawner's
//!   [`VirtualClock`](../../gridfed_faults/clock/struct.VirtualClock.html)
//!   thread-local offset. The embedder provides a [`WorkerEnvHook`] that
//!   captures the offset on the spawning thread and re-installs it on each
//!   worker, so fault schedules cannot depend on thread placement.
//!
//! The config travels in a scoped thread-local ([`with_exec_config`])
//! rather than through every executor signature: the mediator installs it
//! once around a query and every nested `execute_plan` call — including
//! re-entrant monitor queries and the scatter's helper threads, which
//! re-install it explicitly — sees the same knobs.

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Default rows per accounting batch window (`ExecMetrics::batches`).
pub const DEFAULT_BATCH_ROWS: usize = 1024;

/// Default rows per parallel morsel, and the row-count threshold below
/// which operators stay sequential (a relation that fits in one morsel is
/// not worth a pool).
pub const DEFAULT_MORSEL_ROWS: usize = 4096;

/// Per-worker environment setup, staged in two hops: the outer closure
/// runs on the **spawning** thread at spawn time (capture thread-local
/// state there — e.g. the virtual-clock offset); the returned closure runs
/// once on the **worker** thread before any morsel (re-install it there).
pub type WorkerEnvHook = Arc<dyn Fn() -> Box<dyn FnOnce() + Send> + Send + Sync>;

/// Execution knobs for one query: pool width, batch accounting window, and
/// morsel granularity. Installed scopewise with [`with_exec_config`];
/// the default (`workers: 1`) is the sequential PR 6 executor, bit for
/// bit.
#[derive(Clone)]
pub struct ExecConfig {
    /// Worker threads per parallel operator. `1` disables the pool.
    pub workers: usize,
    /// Rows per `ExecMetrics::batches` accounting window.
    pub batch_rows: usize,
    /// Rows per morsel; also the sequential-fallback threshold.
    pub morsel_rows: usize,
    /// Environment propagation hook run for each spawned worker.
    pub worker_env: Option<WorkerEnvHook>,
}

impl Default for ExecConfig {
    fn default() -> ExecConfig {
        ExecConfig {
            workers: 1,
            batch_rows: DEFAULT_BATCH_ROWS,
            morsel_rows: DEFAULT_MORSEL_ROWS,
            worker_env: None,
        }
    }
}

impl std::fmt::Debug for ExecConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecConfig")
            .field("workers", &self.workers)
            .field("batch_rows", &self.batch_rows)
            .field("morsel_rows", &self.morsel_rows)
            .field("worker_env", &self.worker_env.is_some())
            .finish()
    }
}

impl ExecConfig {
    /// A config with `workers` threads and default sizing.
    pub fn with_workers(workers: usize) -> ExecConfig {
        ExecConfig {
            workers: workers.max(1),
            ..ExecConfig::default()
        }
    }
}

thread_local! {
    static CONFIG: RefCell<ExecConfig> = RefCell::new(ExecConfig::default());
}

/// Run `f` with `config` installed as this thread's execution config
/// (previous config restored on exit, including on panic). Everything
/// `f` executes through `exec::execute_plan` — filters, joins,
/// aggregation, materialization — uses these knobs.
pub fn with_exec_config<R>(config: ExecConfig, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<ExecConfig>);
    impl Drop for Restore {
        fn drop(&mut self) {
            if let Some(prev) = self.0.take() {
                CONFIG.with(|c| *c.borrow_mut() = prev);
            }
        }
    }
    let prev = CONFIG.with(|c| std::mem::replace(&mut *c.borrow_mut(), config));
    let _restore = Restore(Some(prev));
    f()
}

/// The calling thread's current execution config.
pub fn current_exec_config() -> ExecConfig {
    CONFIG.with(|c| c.borrow().clone())
}

/// Current batch accounting window (cheap accessor for `batch::n_batches`).
pub(crate) fn batch_rows() -> usize {
    CONFIG.with(|c| c.borrow().batch_rows)
}

/// Should an operator over `rows` rows go parallel under `cfg`? One-morsel
/// relations stay sequential: pool setup would dominate.
pub(crate) fn should_parallelize(cfg: &ExecConfig, rows: usize) -> bool {
    cfg.workers > 1 && rows > cfg.morsel_rows
}

/// Map `f` over `items` on a scoped worker pool, returning results in
/// item order. Workers pull the next item via an atomic index (work
/// stealing off one shared queue); with `workers <= 1` or a single item
/// this degenerates to a plain sequential map. The calling thread is
/// worker 0 — it would otherwise sleep until the scope joins — so a pool of
/// `workers` spawns `workers - 1` threads. Worker panics propagate out of
/// the enclosing `thread::scope`.
pub(crate) fn parallel_map<T, R, F>(cfg: &ExecConfig, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let workers = cfg.workers.min(n);
    if workers <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }
    let queue: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let pull = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        // Each index is claimed once, so its morsel is there; a panicking
        // job panics the scope, so no lock is read poisoned.
        let claimed = queue[i]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(item) = claimed {
            let out = f(i, item);
            *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(out);
        }
    };
    // Workers run leaf morsel loops only — pin their config to one worker
    // so nothing nested ever spawns a pool of pools, while batch accounting
    // still uses the query's window.
    let mut worker_cfg = cfg.clone();
    worker_cfg.workers = 1;
    std::thread::scope(|scope| {
        for _ in 1..workers {
            // Stage one of the env hook runs here, on the spawning thread,
            // so it can capture this thread's clock offset. The caller
            // already has its environment, so the hook is for spawned
            // workers only.
            let setup = cfg.worker_env.as_ref().map(|hook| hook());
            let worker_cfg = worker_cfg.clone();
            scope.spawn(move || {
                if let Some(setup) = setup {
                    setup();
                }
                CONFIG.with(|c| *c.borrow_mut() = worker_cfg);
                pull();
            });
        }
        with_exec_config(worker_cfg, pull);
    });
    // Every slot is filled before the scope joins.
    slots
        .into_iter()
        .flat_map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner))
        .collect()
}

/// Split `sel` into morsel-sized chunks. A plain wrapper so call sites
/// share one definition of "morsel".
pub(crate) fn morsels<'a>(cfg: &ExecConfig, sel: &'a [u32]) -> Vec<&'a [u32]> {
    sel.chunks(cfg.morsel_rows.max(1)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sequential_pr6_shape() {
        let cfg = ExecConfig::default();
        assert_eq!(cfg.workers, 1);
        assert_eq!(cfg.batch_rows, DEFAULT_BATCH_ROWS);
        assert_eq!(cfg.morsel_rows, DEFAULT_MORSEL_ROWS);
        assert!(!should_parallelize(&cfg, usize::MAX));
    }

    #[test]
    fn config_scopes_and_restores() {
        assert_eq!(current_exec_config().workers, 1);
        with_exec_config(ExecConfig::with_workers(4), || {
            assert_eq!(current_exec_config().workers, 4);
            with_exec_config(ExecConfig::with_workers(2), || {
                assert_eq!(current_exec_config().workers, 2);
            });
            assert_eq!(current_exec_config().workers, 4);
        });
        assert_eq!(current_exec_config().workers, 1);
    }

    #[test]
    fn config_restored_on_panic() {
        let r = std::panic::catch_unwind(|| {
            with_exec_config(ExecConfig::with_workers(8), || panic!("boom"))
        });
        assert!(r.is_err());
        assert_eq!(current_exec_config().workers, 1);
    }

    #[test]
    fn parallel_map_preserves_item_order() {
        let cfg = ExecConfig::with_workers(4);
        let items: Vec<usize> = (0..100).collect();
        let out = parallel_map(&cfg, items, |i, x| {
            assert_eq!(i, x);
            x * 3
        });
        assert_eq!(out, (0..100).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_runs_env_hook_per_worker() {
        use std::sync::atomic::AtomicUsize;
        let spawned = Arc::new(AtomicUsize::new(0));
        let entered = Arc::new(AtomicUsize::new(0));
        let (s, e) = (Arc::clone(&spawned), Arc::clone(&entered));
        let mut cfg = ExecConfig::with_workers(3);
        cfg.worker_env = Some(Arc::new(move || {
            s.fetch_add(1, Ordering::SeqCst);
            let e = Arc::clone(&e);
            Box::new(move || {
                e.fetch_add(1, Ordering::SeqCst);
            })
        }));
        let out = parallel_map(&cfg, (0..12).collect::<Vec<_>>(), |_, x: i32| x);
        assert_eq!(out.len(), 12);
        // Three workers: the caller (which already has its environment)
        // and two spawned threads, each set up through the hook.
        assert_eq!(spawned.load(Ordering::SeqCst), 2);
        assert_eq!(entered.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn caller_is_a_worker_and_gets_its_config_back() {
        use std::sync::Barrier;
        let me = std::thread::current().id();
        // The barrier holds each of the three items until three workers
        // hold one each, so the caller provably takes part.
        let barrier = Barrier::new(3);
        let ids = with_exec_config(ExecConfig::with_workers(3), || {
            let ids = parallel_map(&current_exec_config(), vec![(); 3], |_, ()| {
                barrier.wait();
                std::thread::current().id()
            });
            assert_eq!(current_exec_config().workers, 3, "restored after the pool");
            ids
        });
        assert_eq!(ids.iter().filter(|&&id| id == me).count(), 1);
        let distinct: std::collections::HashSet<_> = ids.into_iter().collect();
        assert_eq!(distinct.len(), 3);
    }

    #[test]
    fn caller_config_restored_when_its_morsel_panics() {
        with_exec_config(ExecConfig::with_workers(2), || {
            let cfg = current_exec_config();
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                parallel_map(&cfg, vec![(); 4], |_, ()| panic!("morsel"))
            }));
            assert!(r.is_err());
            assert_eq!(current_exec_config().workers, 2);
        });
    }

    #[test]
    fn workers_see_pinned_sequential_config() {
        let cfg = ExecConfig::with_workers(4);
        let widths = parallel_map(&cfg, vec![(); 8], |_, ()| current_exec_config().workers);
        assert!(widths.iter().all(|&w| w == 1), "{widths:?}");
    }

    #[test]
    fn morsels_cover_sel_in_order() {
        let mut cfg = ExecConfig::with_workers(2);
        cfg.morsel_rows = 3;
        let sel: Vec<u32> = (0..10).collect();
        let m = morsels(&cfg, &sel);
        assert_eq!(m.len(), 4);
        let flat: Vec<u32> = m.iter().flat_map(|c| c.iter().copied()).collect();
        assert_eq!(flat, sel);
    }
}

//! Pin the benchmark process to one CPU.
//!
//! The mediator's default scatter path spawns one scoped thread per branch
//! per wave. Unpinned on this 2-vCPU VM, each spawn and each join is a
//! cross-vCPU wake-up, and the latency of those flips between two
//! hypervisor regimes that last minutes and that no CPU kernel tracks:
//! the same `table1_fed` run read 6 600 queries/s with a 130 us median in
//! one and 3 000 queries/s with a 350 us median in the other, with the
//! kernel time unchanged. No regression bound survives a 2.2x flip.
//! Confined to one CPU the branch threads are still spawned, scheduled and
//! joined — the cost stays in `core.glue_us` and `harness.thread_wake_us`
//! — but no wake-up crosses a vCPU, and the slow regime never appeared in
//! any pinned run (README, "Noise study").
//!
//! The price: pinned, branches never overlap, so the gated numbers cannot
//! judge a change whose effect *is* overlap (dispatch mode, a thread pool).
//! The traced pass therefore also takes an ungated reading with the pin
//! lifted ([`unpinned`]): `harness.unpinned_queries_per_s` and
//! `harness.unpinned_thread_wake_us`.

use std::sync::OnceLock;

#[cfg(target_os = "linux")]
mod sys {
    /// 1024 CPUs, the size of glibc's `cpu_set_t`.
    pub const WORDS: usize = 16;

    // std already links libc on Linux; these are its prototypes with
    // `cpu_set_t` spelled as the array of words it is.
    extern "C" {
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
}

/// A CPU set, in the kernel's layout.
#[cfg(target_os = "linux")]
type Mask = [u64; sys::WORDS];
#[cfg(not(target_os = "linux"))]
type Mask = [u64; 0];

/// The CPUs the process was allowed on before it pinned itself, and the
/// one CPU it pinned to. Set once, by a successful [`pin_to_one_cpu`].
static PINNED: OnceLock<(Mask, Mask)> = OnceLock::new();

/// Confine the calling thread (and every thread it spawns afterwards) to
/// `mask`; whether the kernel accepted.
#[cfg(target_os = "linux")]
fn set_affinity(mask: &Mask) -> bool {
    // SAFETY: `mask` is a live buffer of exactly the byte count passed,
    // which sched_setaffinity(2) only reads; pid 0 names the calling
    // thread.
    unsafe { sys::sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) == 0 }
}
#[cfg(not(target_os = "linux"))]
fn set_affinity(_: &Mask) -> bool {
    false
}

/// Restrict this process (the calling thread, before it has spawned any
/// other) to the highest-numbered CPU it is allowed on — interrupts tend
/// to land on CPU 0. Returns how many CPUs the process may run on
/// afterwards: 1 when pinned, more (or 0 when unknown) when the platform
/// refused, in which case the run carries on unpinned and says so through
/// `harness.cpus_allowed`.
pub fn pin_to_one_cpu() -> usize {
    #[cfg(target_os = "linux")]
    {
        if PINNED.get().is_some() {
            return 1;
        }
        let mut allowed: Mask = [0; sys::WORDS];
        // SAFETY: `allowed` is a live, writable buffer of exactly the byte
        // count passed, which is what sched_getaffinity(2) requires of its
        // third argument; pid 0 names the calling thread.
        let got = unsafe {
            sys::sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr())
        };
        if got != 0 {
            return 0;
        }
        let count: usize = allowed.iter().map(|w| w.count_ones() as usize).sum();
        let Some(word) = allowed.iter().rposition(|w| *w != 0) else {
            return 0;
        };
        let mut one: Mask = [0; sys::WORDS];
        one[word] = 1 << (63 - allowed[word].leading_zeros());
        if !set_affinity(&one) {
            return count;
        }
        // A second caller finds the pin in place and returns above.
        let _ = PINNED.set((allowed, one));
        1
    }
    #[cfg(not(target_os = "linux"))]
    {
        0
    }
}

/// Run `f` with the pin lifted — the calling thread and the threads `f`
/// spawns may use every CPU the process started with — and pin again
/// afterwards. Without a pin in place `f` simply runs.
pub fn unpinned<T>(f: impl FnOnce() -> T) -> T {
    let Some((allowed, one)) = PINNED.get() else {
        return f();
    };
    let lifted = set_affinity(allowed);
    let out = f();
    if lifted {
        assert!(
            set_affinity(one),
            "the kernel accepted this one-CPU mask before"
        );
    }
    out
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    fn cpus_of_this_thread() -> usize {
        let mut mask: Mask = [0; sys::WORDS];
        // SAFETY: as in `pin_to_one_cpu`.
        let got =
            unsafe { sys::sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        assert_eq!(got, 0);
        mask.iter().map(|w| w.count_ones() as usize).sum()
    }

    #[test]
    fn pin_confines_spawned_threads_and_unpinned_lifts_it_for_a_call() {
        let before = cpus_of_this_thread();
        assert_eq!(pin_to_one_cpu(), 1);
        assert_eq!(pin_to_one_cpu(), 1, "idempotent");
        // A thread spawned afterwards is confined too.
        let inherited = std::thread::spawn(cpus_of_this_thread).join().unwrap();
        assert_eq!(inherited, 1);
        let (inside, spawned_inside) = unpinned(|| {
            (
                cpus_of_this_thread(),
                std::thread::spawn(cpus_of_this_thread).join().unwrap(),
            )
        });
        assert_eq!((inside, spawned_inside), (before, before));
        assert_eq!(cpus_of_this_thread(), 1, "pinned again");
    }
}

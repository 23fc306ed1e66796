//! `peak_rss_mb`: the resident-set peak of the serving phase.
//!
//! glibc keeps freed memory, so a process's resident set never shrinks on
//! its own: read as it stands, `VmHWM` is the transient peak of
//! `GridBuilder::build()`, and query-time allocations are served from that
//! slack without ever showing. Before the first round the benchmark
//! therefore hands the slack back to the kernel and restarts the peak
//! counter; `VmHWM` after the last round is then the resident grid plus
//! whatever answering queries (and, on `live_grid`, ingesting) needed on
//! top of it.

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    // glibc's malloc.h; std already links libc.
    fn malloc_trim(pad: usize) -> i32;
}

/// Return freed heap pages to the kernel and reset `VmHWM` to the current
/// resident set. Best effort: where either is unavailable the peak simply
/// still includes set-up.
pub fn start_serving_phase() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: malloc_trim takes no pointer and may be called at any time;
    // it only releases pages of chunks the allocator holds as free.
    unsafe {
        malloc_trim(0);
    }
    // "5" resets the peak resident set size (proc(5)); absent before
    // Linux 4.0 and on other systems.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process, MiB (`VmHWM`); 0 where the kernel
/// does not report one.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(all(test, target_os = "linux", target_env = "gnu"))]
mod tests {
    use super::*;

    #[test]
    fn the_peak_restarts_below_a_freed_allocation() {
        let big = vec![1u8; 64 << 20];
        assert!(std::hint::black_box(&big).iter().all(|b| *b == 1));
        let with_big = peak_rss_mb();
        assert!(with_big >= 64.0);
        drop(big);
        start_serving_phase();
        assert!(peak_rss_mb() < with_big - 32.0);
    }
}

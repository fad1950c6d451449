//! What the benchmark reads about its own process and host from
//! `/proc`: CPU time, peak resident memory, the CPUs it may run on.

use std::fs;

/// CPU time the whole process (every thread) has consumed so far, in
/// nanoseconds: `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`. One cheap
/// call with nanosecond resolution, so it can be sampled at every unit
/// boundary inside a pass; `/proc/self/stat`'s utime + stime would tick
/// in 10 ms steps and cost a file read.
pub fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` (libc, which std already links) writes one
    // `struct timespec` through the pointer; `ts` is a live, exclusively
    // borrowed value of that layout on 64-bit Linux (two 64-bit fields).
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always available on Linux"
    );
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

fn status_field(key: &str) -> Option<String> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .map(|v| v.trim().to_string())
}

/// Peak resident set size (`VmHWM`) in MiB; 0 when `/proc` hides it.
pub fn peak_rss_mib() -> f64 {
    status_field("VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The CPUs this process may run on, as the kernel spells them
/// (`"1"` when `run.sh` pinned it, `"0-1"` when it could not).
pub fn allowed_cpus() -> String {
    status_field("Cpus_allowed_list").unwrap_or_else(|| "unknown".into())
}

/// Logical CPUs of the host as this process sees them before pinning
/// (`run.sh` passes `nproc` through `CSAG_BENCH_NPROC`; after pinning
/// `available_parallelism` would say 1).
pub fn nproc() -> usize {
    std::env::var("CSAG_BENCH_NPROC")
        .ok()
        .and_then(|v| v.parse().ok())
        .or_else(|| std::thread::available_parallelism().ok().map(usize::from))
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work_and_rss_is_positive() {
        let before = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        let after = process_cpu_ns();
        assert!(after > before, "cpu time must advance: {before} → {after}");
        assert!(peak_rss_mib() > 0.0);
        assert!(!allowed_cpus().is_empty());
        assert!(nproc() >= 1);
    }
}

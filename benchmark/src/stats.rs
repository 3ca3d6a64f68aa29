//! Order statistics and the process's peak resident set size.

/// Median of `values` (mean of the middle pair for even counts); NaN
/// when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Nearest-rank percentile `q` ∈ (0, 1] of an ascending slice; NaN
/// when empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// `struct rusage` of 64-bit Linux: two `timeval`s, then 14 `long`s
/// starting with `ru_maxrss` (KiB).
#[repr(C)]
struct Rusage {
    times: [i64; 4],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// Hands the free memory of every allocator arena back to the kernel,
/// so memory a discarded set-up copy left behind does not count in the
/// peak resident set size.
pub fn release_free_memory() {
    // SAFETY: glibc's `malloc_trim` only returns unused pages of its own
    // arenas to the kernel; no live allocation is touched.
    unsafe {
        malloc_trim(0);
    }
}

/// Peak resident set size of this process so far, MiB.
pub fn peak_rss_mb() -> f64 {
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the
    // 64-bit Linux layout, which is all `getrusage` writes through the
    // pointer; the call keeps no reference past its return.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    usage.maxrss as f64 / 1024.0
}

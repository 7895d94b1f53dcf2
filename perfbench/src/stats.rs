//! Order statistics shared by every workload, plus the process memory
//! probes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The median of `values` (mean of the middle pair for even lengths).
/// `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let len = sorted.len();
    match len {
        0 => f64::NAN,
        _ if len % 2 == 1 => sorted[len / 2],
        _ => (sorted[len / 2 - 1] + sorted[len / 2]) / 2.0,
    }
}

/// The `q`-quantile of `values` (nearest rank). `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let sorted = sorted(values);
    match sorted.len() {
        0 => f64::NAN,
        len => sorted[((len - 1) as f64 * q).round() as usize],
    }
}

/// The tail estimator: the highest percentile with at least ten samples
/// beyond it. Returns `(value, percentile, samples)`; with fewer than
/// eleven samples no percentile qualifies and the maximum is reported as
/// percentile 100.
pub fn tail(values: &[f64]) -> (f64, f64, usize) {
    let sorted = sorted(values);
    let len = sorted.len();
    if len == 0 {
        return (f64::NAN, 100.0, 0);
    }
    if len < 11 {
        return (sorted[len - 1], 100.0, len);
    }
    let idx = len - 11;
    (sorted[idx], 100.0 * (idx + 1) as f64 / len as f64, len)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The wall time of one call to `f`, in seconds; its result is dropped
/// after the clock stops.
pub fn time_s<T>(f: impl FnOnce() -> T) -> f64 {
    let started = std::time::Instant::now();
    let out = std::hint::black_box(f());
    let secs = started.elapsed().as_secs_f64();
    drop(out);
    secs
}

/// Runs `f` `reps` times and returns the median wall time in seconds plus
/// the last result.
pub fn median_time<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let started = std::time::Instant::now();
        let out = std::hint::black_box(f());
        times.push(started.elapsed().as_secs_f64());
        last = Some(out);
    }
    (median(&times), last.expect("at least one repetition"))
}

/// The process's memory high-water marks so far, in MiB. One invocation
/// runs one workload, so neither carries over between workloads.
#[derive(Clone, Copy)]
pub struct Peaks {
    /// Heap bytes held allocated ([`CountingAlloc`]).
    pub heap_mb: f64,
    /// Resident set (`VmHWM`). Unlike `getrusage`'s `ru_maxrss` it starts
    /// afresh at `exec`, so it never includes the `cargo run` process this
    /// one replaced.
    pub rss_mb: f64,
}

impl Peaks {
    pub fn now() -> Peaks {
        Peaks { heap_mb: PEAK.load(Relaxed) as f64 / (1024.0 * 1024.0), rss_mb: peak_rss_mb() }
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status reports VmHWM in kB");
    kib / 1024.0
}

/// The system allocator (glibc malloc with its default settings, as the
/// program ships), counting the bytes this process holds allocated and
/// their high-water mark.
pub struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`; the counters only
// observe the sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, pct, n) = tail(&v);
        assert_eq!((value, n), (90.0, 100));
        assert!((pct - 90.0).abs() < 1e-9);
        assert_eq!(tail(&[3.0, 1.0]).0, 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}

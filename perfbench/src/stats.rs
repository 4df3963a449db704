//! Small statistics and process-resource helpers.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Median of `xs` (mean of the middle two for even lengths); NaN when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles, by the same exclusive method as Python's
/// `statistics.quantiles(xs, n=4)`. Both equal the sole value when
/// there is one.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (f64::NAN, f64::NAN),
        1 => (v[0], v[0]),
        len => {
            let m = len + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 / 4.0 - j as f64;
                v[j - 1] + (v[j] - v[j - 1]) * delta
            };
            (q(1), q(3))
        }
    }
}

/// Interquartile range of `xs`.
pub fn iqr(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    q3 - q1
}

/// Times `f` repeatedly — at least `min_reps` calls and until `budget`
/// has elapsed — and returns each call's duration in milliseconds. The
/// results go through `black_box` so the work cannot be optimised away.
pub fn time_calls<T>(min_reps: usize, budget: Duration, mut f: impl FnMut() -> T) -> Vec<f64> {
    black_box(f()); // warm-up: first-touch allocations and caches
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_reps || start.elapsed() < budget {
        let t = Instant::now();
        black_box(f());
        out.push(t.elapsed().as_secs_f64() * 1e3);
    }
    out
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// User + system CPU seconds consumed so far by every thread of this
/// process.
pub fn process_cpu_s() -> f64 {
    const RUSAGE_SELF: i32 = 0;
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` of the layout
    // the C library expects; getrusage only writes into it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage failed");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(&ru.utime) + secs(&ru.stime)
}

/// Restricts the calling thread, and every thread it starts after this
/// call, to the lowest-numbered CPU it may run on now. Returns that CPU,
/// or `None` when the affinity mask could not be read or set.
///
/// On a shared virtual machine a vCPU that goes idle and is woken again
/// waits for the host to schedule it, and that wait is the noisiest part
/// of a round made of many thread hand-offs. With every node thread on
/// one CPU, a hand-off is a context switch on a CPU that stays busy.
pub fn pin_to_one_cpu() -> Option<usize> {
    // A `cpu_set_t` of 1024 CPUs, as the C library defines it.
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of `size` bytes; pid 0
    // names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = mask.iter().position(|&w| w != 0)?;
    let cpu = word * 64 + mask[word].trailing_zeros() as usize;
    let mut one = [0u64; 16];
    one[word] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return None;
    }
    Some(cpu)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 3.5));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn process_resources_are_positive() {
        let mut x = 0u64;
        for i in 0..1_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        assert!(x != 1);
        assert!(process_cpu_s() > 0.0);
        assert!(peak_rss_mib() > 0.0);
    }

    #[test]
    fn pinning_leaves_one_cpu() {
        // On its own thread, so the other tests keep every CPU.
        let cpus = std::thread::spawn(|| {
            pin_to_one_cpu().expect("affinity mask");
            std::thread::spawn(|| std::thread::available_parallelism().map_or(0, usize::from))
                .join()
                .unwrap()
        })
        .join()
        .unwrap();
        assert_eq!(cpus, 1);
    }
}

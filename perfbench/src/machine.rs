//! The machine record printed beside every result: cores, threads used,
//! build profile, commit, and a raw CPU calibration probe that bounds any
//! parallel claim on this machine.

use crate::clock::Timer;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit checked out in `repo`, read from its `.git` directory, or
/// "unknown" outside a git checkout.
pub fn commit(repo: &str) -> String {
    let git = format!("{repo}/.git");
    let Ok(head) = std::fs::read_to_string(format!("{git}/HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.into();
    };
    if let Ok(id) = std::fs::read_to_string(format!("{git}/{reference}")) {
        return id.trim().into();
    }
    std::fs::read_to_string(format!("{git}/packed-refs"))
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}

/// A fixed CPU-bound loop with no memory traffic.
fn spin(iters: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

/// Wall time (ms) of the loop on one thread, and of the same loop run on
/// `threads` threads at once. With perfect scaling the two are equal.
pub fn calibrate(threads: usize) -> (f64, f64) {
    const ITERS: u64 = 20_000_000;
    let t = Timer::start();
    std::hint::black_box(spin(std::hint::black_box(ITERS)));
    let one = t.ms();
    let t = Timer::start();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| std::hint::black_box(spin(std::hint::black_box(ITERS))));
        }
    });
    let many = t.ms();
    (one, many)
}

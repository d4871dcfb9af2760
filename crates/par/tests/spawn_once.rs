//! Workers are spawned once: repeated calls reuse them instead of
//! creating threads per call. Kept alone in its own test binary so no other
//! test changes the process thread count while it reads it.

use dtp_par::{par_map_index, with_threads};

/// The `Threads:` line of `/proc/self/status`, or `None` off Linux.
fn process_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| l.strip_prefix("Threads:")).and_then(|v| v.trim().parse().ok())
}

#[test]
fn small_calls_reuse_the_pool_threads() {
    let run = || with_threads(2, || par_map_index("test.spawn_once", 16, |i| i * i));
    assert_eq!(run(), (0..16).map(|i| i * i).collect::<Vec<_>>());
    let Some(before) = process_threads() else { return };
    for _ in 0..10_000 {
        assert_eq!(run()[15], 225);
    }
    let after = process_threads().expect("readable before, so readable now");
    assert_eq!(after, before, "10k calls must not add threads");
}

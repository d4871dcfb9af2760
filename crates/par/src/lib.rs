//! # dtp-par — deterministic data-parallel execution
//!
//! The paper's economic argument is a *compute-cost* argument (Table 4:
//! 8.3 s of TLS feature extraction vs 503 s of packet feature extraction
//! per Svc1 corpus), and the ROADMAP north-star is a pipeline that runs as
//! fast as the hardware allows for millions of sessions. Every hot path in
//! this workspace — per-tree forest fitting, per-fold cross-validation,
//! per-session feature extraction, per-experiment bench fan-out — is an
//! *independent-items* loop, which this crate turns into a work-stealing
//! parallel map over a spawn-once thread pool, with three hard guarantees:
//!
//! 1. **Determinism.** [`par_map`] writes result `i` into slot `i`; output
//!    order never depends on scheduling. Randomized tasks derive their RNG
//!    stream from [`task_seed`]`(base, i)` so tree 17 sees the same stream
//!    whether it runs on one thread or eight — parallel output is bitwise
//!    identical to serial output.
//! 2. **Zero dependencies.** Worker threads spawned once and parked on a
//!    `Condvar` between calls, `Mutex<VecDeque>` deques, nothing else. The
//!    workspace stays air-gapped.
//! 3. **Serial fallback.** `DTP_THREADS=1` (or a single-core host, or a
//!    call from inside a worker — nested parallelism never oversubscribes)
//!    runs the plain serial loop on the caller's thread.
//!
//! The calling thread does worker 0's share, so a call at `k` threads
//! wakes `k - 1` pool workers; the pool grows to the largest `k` ever
//! requested. A call that finds the pool owned by another thread runs
//! serially instead of waiting, and a panicking task is re-raised on the
//! caller once every worker has finished the call.
//!
//! Thread count resolution order: [`with_threads`] scoped override →
//! `DTP_THREADS` env var → `std::thread::available_parallelism()`.
//!
//! The pool is instrumented with `dtp-obs`: every call opens a
//! `par.<label>` span (giving a `span.par.<label>` wall-time histogram per
//! stage), and the counters `par.tasks`, `par.steals`, `par.parallel_calls`
//! and `par.serial_calls` expose scheduler behaviour.

mod pool;

pub use pool::{par_for_each_index, par_map, par_map_index, thread_count, with_threads};

/// Derive the seed for task `index` from a `base` seed (SplitMix64 mix).
///
/// Gives every parallel task an independent, well-separated RNG stream that
/// depends only on `(base, index)` — never on scheduling — which is how
/// [`par_map`] callers keep parallel output bitwise identical to serial:
/// seed per *task*, not per *worker*.
#[must_use]
pub fn task_seed(base: u64, index: u64) -> u64 {
    let mut z = base ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_seeds_are_distinct_and_stable() {
        let a = task_seed(7, 0);
        let b = task_seed(7, 1);
        assert_ne!(a, b);
        assert_eq!(a, task_seed(7, 0), "pure function of (base, index)");
        assert_ne!(task_seed(8, 0), a, "base participates");
        // No short-range collisions over a realistic task count.
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(task_seed(42, i)), "collision at {i}");
        }
    }
}

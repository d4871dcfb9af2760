//! Memory and compute overhead accounting.
//!
//! The paper's practicality argument is quantitative: Svc1 sessions average
//! 27,689 packets vs 19.5 TLS transactions (~1400× fewer records), and
//! extracting features from packet data took 503 s vs 8.3 s for TLS data
//! (~60×). These helpers measure the equivalents in this reproduction.

use std::time::Instant;

/// In-memory footprint of a batch of telemetry records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryFootprint {
    /// Number of records.
    pub records: usize,
    /// Total bytes, assuming densely packed records.
    pub bytes: usize,
}

impl MemoryFootprint {
    /// Footprint of `n` records of type `T`.
    pub fn of_records<T>(n: usize) -> Self {
        Self { records: n, bytes: n * std::mem::size_of::<T>() }
    }
}

/// Wall-clock stopwatch for compute-overhead comparisons.
#[derive(Debug)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Start timing.
    pub fn start() -> Self {
        Self { started: Instant::now() }
    }

    /// Seconds elapsed since start.
    pub fn elapsed_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footprint_scales_with_type_size() {
        let a = MemoryFootprint::of_records::<u64>(100);
        assert_eq!(a.records, 100);
        assert_eq!(a.bytes, 800);
    }

    #[test]
    fn stopwatch_moves_forward() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_s();
        let b = sw.elapsed_s();
        assert!(b >= a);
        assert!(a >= 0.0);
    }
}

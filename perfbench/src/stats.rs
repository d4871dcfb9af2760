//! Order statistics for reporting: medians, quartiles, and latency
//! percentiles with the "enough samples beyond it" rule.

/// Median of `xs` (mean of the two middle values for an even count); NaN
/// when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First quartile, median, third quartile — the same cut points as
/// Python's `statistics.quantiles(xs, n=4)` (the "exclusive" method).
/// Needs at least two values.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(xs);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(out)
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `xs`; NaN when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let s = sorted(xs);
    s[rank(s.len(), p) - 1]
}

/// Samples strictly above the nearest-rank percentile `p` of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// The highest of `candidates` (percentiles, any order) that leaves at
/// least `min_beyond` samples beyond it, or `None` if none does.
pub fn highest_supported_percentile(
    n: usize,
    candidates: &[f64],
    min_beyond: usize,
) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&p| samples_beyond(n, p) >= min_beyond)
        .max_by(f64::total_cmp)
}

/// 1-based nearest rank of percentile `p` among `n` samples. The epsilon
/// keeps `p·n/100` that is integral in exact arithmetic from rounding up.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([7, 1, 3, 5], n=4) == [1.5, 4.0, 6.5]
        assert_eq!(quartiles(&[7.0, 1.0, 3.0, 5.0]), Some([1.5, 4.0, 6.5]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples is rank 990: exactly ten beyond.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        let cands = [50.0, 90.0, 95.0, 99.0, 99.9];
        assert_eq!(highest_supported_percentile(1000, &cands, 10), Some(99.0));
        assert_eq!(highest_supported_percentile(999, &cands, 10), Some(95.0));
        assert_eq!(highest_supported_percentile(10_000, &cands, 10), Some(99.9));
        assert_eq!(highest_supported_percentile(20, &cands, 10), Some(50.0));
        assert_eq!(highest_supported_percentile(19, &cands, 10), None);
        assert_eq!(highest_supported_percentile(0, &cands, 10), None);
    }
}

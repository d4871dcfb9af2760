//! Typed metrics: counters, gauges, log-bucketed histograms, and the
//! thread-safe [`Registry`] that names them.
//!
//! Handles returned by the registry are cheap `Arc`-backed atomics — look
//! them up once (the [`counter!`](crate::counter!) family caches them per
//! call site) and the hot path is a single `fetch_add`. A lookup takes a
//! mutex and should stay off hot paths.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing `u64` metric.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins `f64` metric (stored as bits in an atomic).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Set the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Add `delta` (negative to decrement) atomically — for level gauges
    /// like `stream.sessions_open` that track a population rather than a
    /// sampled value. Lost-update-free via a compare-exchange loop on the
    /// bit pattern.
    pub fn add(&self, delta: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self.0.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }
}

/// Number of histogram buckets.
const BUCKETS: usize = 64;

/// Bucket `i` has upper bound `2^(i - BUCKET_SHIFT)`; bucket 0 therefore
/// absorbs everything ≤ 2⁻³⁰ (including zeros and negatives), and the last
/// bucket is unbounded above (≳ 8.6e9).
const BUCKET_SHIFT: i32 = 30;

/// Upper bound of bucket `i` (the last bucket reports `f64::INFINITY`).
fn bucket_upper(i: usize) -> f64 {
    if i + 1 == BUCKETS {
        f64::INFINITY
    } else {
        ((i as i32 - BUCKET_SHIFT) as f64).exp2()
    }
}

/// Bucket index for a finite observation.
fn bucket_index(v: f64) -> usize {
    if v <= bucket_upper(0) {
        return 0;
    }
    let idx = v.log2().ceil() as i32 + BUCKET_SHIFT;
    idx.clamp(0, (BUCKETS - 1) as i32) as usize
}

#[derive(Debug)]
struct HistogramCore {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    rejected: AtomicU64,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }
}

/// An aggregate read of one histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSnapshot {
    /// Finite observations recorded.
    pub count: u64,
    /// Non-finite observations refused (counted, never recorded).
    pub rejected: u64,
    /// Exact sum of observations.
    pub sum: f64,
    /// Exact minimum (`+inf` when empty).
    pub min: f64,
    /// Exact maximum (`-inf` when empty).
    pub max: f64,
    /// Estimated median (bucket upper bound; ≤ 2× the true value).
    pub p50: f64,
    /// Estimated 95th percentile.
    pub p95: f64,
    /// Estimated 99th percentile.
    pub p99: f64,
}

impl HistogramSnapshot {
    /// Exact mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum / self.count as f64
    }
}

/// A log-bucketed (base-2) distribution metric with exact count/sum/min/max
/// and bucketed quantile estimates.
///
/// Quantiles report the matching bucket's *upper bound*, so an estimate is
/// never below the true quantile and at most 2× above it.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Record one observation. Non-finite values are refused and tallied in
    /// [`HistogramSnapshot::rejected`] instead of poisoning the sum.
    pub fn observe(&self, v: f64) {
        let core = &self.0;
        if !v.is_finite() {
            core.rejected.fetch_add(1, Ordering::Relaxed);
            return;
        }
        core.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
        atomic_f64_update(&core.sum_bits, |s| s + v);
        atomic_f64_update(&core.min_bits, |m| m.min(v));
        atomic_f64_update(&core.max_bits, |m| m.max(v));
    }

    /// Finite observations recorded so far.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Estimate the `q`-quantile (`q` in `[0, 1]`) from the buckets; 0 when
    /// the histogram is empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, b) in self.0.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= target {
                if i + 1 == BUCKETS {
                    // The unbounded bucket has no upper bound; report the
                    // exact maximum instead.
                    return f64::from_bits(self.0.max_bits.load(Ordering::Relaxed));
                }
                return bucket_upper(i);
            }
        }
        f64::from_bits(self.0.max_bits.load(Ordering::Relaxed))
    }

    /// Aggregate read of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            rejected: self.0.rejected.load(Ordering::Relaxed),
            sum: f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed)),
            min: f64::from_bits(self.0.min_bits.load(Ordering::Relaxed)),
            max: f64::from_bits(self.0.max_bits.load(Ordering::Relaxed)),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }
}

/// CAS-loop update of an `f64` stored as bits in an `AtomicU64`.
fn atomic_f64_update(bits: &AtomicU64, f: impl Fn(f64) -> f64) {
    let mut cur = bits.load(Ordering::Relaxed);
    loop {
        let next = f(f64::from_bits(cur)).to_bits();
        match bits.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(now) => cur = now,
        }
    }
}

/// One named metric.
#[derive(Debug, Clone)]
pub enum Metric {
    /// A [`Counter`].
    Counter(Counter),
    /// A [`Gauge`].
    Gauge(Gauge),
    /// A [`Histogram`].
    Histogram(Histogram),
}

/// A point-in-time read of every metric in a registry, grouped by kind and
/// sorted by name.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter values.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram aggregates.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// Thread-safe named-metric registry.
///
/// `counter`/`gauge`/`histogram` are get-or-create: the first call under a
/// name fixes its kind; later calls under the same name return a handle to
/// the same storage. Asking for an existing name *as a different kind* is a
/// wiring bug, but the registry degrades instead of panicking: it returns a
/// detached handle (readable/writable, never exported) and increments the
/// internal `obs.kind_conflicts` counter.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
    kind_conflicts: Counter,
}

impl Registry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        self.get_or_create(name, Metric::Counter, |m| match m {
            Metric::Counter(c) => Some(c.clone()),
            _ => None,
        })
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.get_or_create(name, Metric::Gauge, |m| match m {
            Metric::Gauge(g) => Some(g.clone()),
            _ => None,
        })
    }

    /// Get or create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.get_or_create(name, Metric::Histogram, |m| match m {
            Metric::Histogram(h) => Some(h.clone()),
            _ => None,
        })
    }

    /// The handle stored under `name`, looked up by `&str` so an existing
    /// name allocates nothing; the key is allocated only on insert. A name
    /// held by another kind yields a detached handle.
    fn get_or_create<T: Clone + Default>(
        &self,
        name: &str,
        wrap: fn(T) -> Metric,
        unwrap: fn(&Metric) -> Option<T>,
    ) -> T {
        let mut metrics = self.metrics.lock().expect("metrics mutex");
        if let Some(metric) = metrics.get(name) {
            return unwrap(metric).unwrap_or_else(|| {
                self.kind_conflicts.inc();
                T::default()
            });
        }
        let handle = T::default();
        metrics.insert(name.to_string(), wrap(handle.clone()));
        handle
    }

    /// Kind-mismatch registrations served with detached handles so far.
    pub fn kind_conflicts(&self) -> u64 {
        self.kind_conflicts.get()
    }

    /// Read every metric.
    pub fn snapshot(&self) -> Snapshot {
        let metrics = self.metrics.lock().expect("metrics mutex");
        let mut snap = Snapshot::default();
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(c) => {
                    snap.counters.insert(name.clone(), c.get());
                }
                Metric::Gauge(g) => {
                    snap.gauges.insert(name.clone(), g.get());
                }
                Metric::Histogram(h) => {
                    snap.histograms.insert(name.clone(), h.snapshot());
                }
            }
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_are_powers_of_two() {
        assert_eq!(bucket_upper(BUCKET_SHIFT as usize), 1.0);
        assert_eq!(bucket_upper(BUCKET_SHIFT as usize + 1), 2.0);
        assert!(bucket_upper(BUCKETS - 1).is_infinite());
        // 1.0 sits exactly on its bucket's upper bound.
        assert_eq!(bucket_index(1.0), BUCKET_SHIFT as usize);
        assert_eq!(bucket_index(1.5), BUCKET_SHIFT as usize + 1);
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-3.0), 0);
        assert_eq!(bucket_index(1e300), BUCKETS - 1);
    }

    #[test]
    fn gauge_add_tracks_a_level() {
        let r = Registry::new();
        let g = r.gauge("stream.sessions_open");
        g.add(1.0);
        g.add(1.0);
        g.add(-1.0);
        assert_eq!(g.get(), 1.0);
        // Concurrent increments don't lose updates.
        let g2 = r.gauge("stream.sessions_open");
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        g2.add(1.0);
                    }
                });
            }
        });
        assert_eq!(g.get(), 4001.0);
    }

    #[test]
    fn counter_and_gauge_round_trip() {
        let r = Registry::new();
        let c = r.counter("stage.events");
        c.inc();
        c.add(4);
        assert_eq!(r.counter("stage.events").get(), 5);
        let g = r.gauge("stage.level");
        g.set(2.5);
        assert_eq!(r.gauge("stage.level").get(), 2.5);
    }

    #[test]
    fn kind_conflict_returns_detached_handle() {
        let r = Registry::new();
        r.counter("stage.x");
        let g = r.gauge("stage.x");
        g.set(9.0); // writable, but detached
        assert_eq!(r.kind_conflicts(), 1);
        assert_eq!(r.counter("stage.x").get(), 0, "original counter untouched");
        assert!(!r.snapshot().gauges.contains_key("stage.x"));
    }

    #[test]
    fn histogram_exact_stats() {
        let h = Histogram::default();
        for v in [1.0, 2.0, 3.0, 4.0] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 10.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.mean(), 2.5);
    }

    #[test]
    fn histogram_rejects_non_finite() {
        let h = Histogram::default();
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        h.observe(1.0);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.rejected, 2);
        assert_eq!(s.sum, 1.0);
    }

    #[test]
    fn quantiles_within_bucket_factor() {
        let h = Histogram::default();
        // 100 observations of exactly 1.0: every quantile is exactly 1.0
        // because 1.0 is a bucket upper bound.
        for _ in 0..100 {
            h.observe(1.0);
        }
        assert_eq!(h.quantile(0.5), 1.0);
        assert_eq!(h.quantile(0.99), 1.0);
        // A spread: p50 of {1..=100} is ~50; the bucketed estimate must be
        // within [true, 2*true].
        let h = Histogram::default();
        for i in 1..=100 {
            h.observe(i as f64);
        }
        let p50 = h.quantile(0.5);
        assert!((50.0..=100.0).contains(&p50), "p50 {p50}");
        let p99 = h.quantile(0.99);
        assert!((99.0..=198.0).contains(&p99), "p99 {p99}");
        assert!(h.quantile(1.0) >= 100.0);
    }

    #[test]
    fn quantile_of_empty_is_zero() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0.0);
    }

    #[test]
    fn concurrent_counter_increments_sum() {
        let r = Registry::new();
        let c = r.counter("stage.concurrent");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
    }

    #[test]
    fn concurrent_histogram_count_and_sum() {
        let h = Histogram::default();
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..1_000 {
                        h.observe((t * 1_000 + i) as f64 % 7.0 + 1.0);
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count, 4_000);
        assert!(snap.sum > 0.0 && snap.sum.is_finite());
        assert!(snap.min >= 1.0 && snap.max <= 8.0);
    }

    #[test]
    fn snapshot_sorted_by_name() {
        let r = Registry::new();
        r.counter("b.second");
        r.counter("a.first");
        r.histogram("c.third").observe(1.0);
        let snap = r.snapshot();
        let names: Vec<&String> = snap.counters.keys().collect();
        assert_eq!(names, ["a.first", "b.second"]);
        assert_eq!(snap.histograms.len(), 1);
    }
}

//! Synthetic bandwidth-trace generators.
//!
//! Stand-ins for the public corpora replayed by the paper (§4.1): FCC fixed
//! broadband \[2\], the Norway 3G commute traces \[27\] and the Ghent 4G/LTE
//! traces \[32\]. Each generator produces an autocorrelated log-space process
//! so rates evolve smoothly with occasional regime changes, which is what
//! drives ABR decisions and therefore QoE.
//!
//! [`TraceCorpus::paper_mix`] builds a mixture whose average-bandwidth CDF
//! spans roughly 100 kbps – 100 Mbps (paper Fig. 3a) and whose session
//! durations follow the 0–1 / 1–2 / 2–5 / 5–20 minute mix of Fig. 3b.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rand_distr::{Distribution, LogNormal, Normal};

use crate::trace::BandwidthTrace;

/// The network environment class a trace emulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// Fixed broadband: high, stable rates (FCC MBA-like).
    Broadband,
    /// 3G cellular on the move: low, bursty, with outages (Norway-like).
    Cellular3g,
    /// 4G/LTE: high but volatile, with handover dips (Ghent-like).
    Lte,
}

impl TraceKind {
    /// All kinds, in a stable order.
    pub const ALL: [TraceKind; 3] = [TraceKind::Broadband, TraceKind::Cellular3g, TraceKind::Lte];

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            TraceKind::Broadband => "broadband",
            TraceKind::Cellular3g => "3g",
            TraceKind::Lte => "lte",
        }
    }

    fn params(&self) -> KindParams {
        match self {
            // mu is ln(kbps) of the long-run median; sigma the log-sd of the
            // per-user level; phi the AR(1) coefficient of the within-trace
            // process; eps the innovation log-sd; outage_p the per-sample
            // probability of entering an outage.
            TraceKind::Broadband => KindParams {
                mu: (12_000.0f64).ln(),
                sigma: 0.9,
                phi: 0.98,
                eps: 0.04,
                outage_p: 0.0005,
                outage_len: 2.0,
                floor_kbps: 200.0,
                cap_kbps: 120_000.0,
            },
            TraceKind::Cellular3g => KindParams {
                mu: (1_100.0f64).ln(),
                sigma: 0.8,
                phi: 0.90,
                eps: 0.25,
                outage_p: 0.008,
                outage_len: 14.0,
                floor_kbps: 30.0,
                cap_kbps: 8_000.0,
            },
            TraceKind::Lte => KindParams {
                mu: (18_000.0f64).ln(),
                sigma: 1.0,
                phi: 0.93,
                eps: 0.18,
                outage_p: 0.003,
                outage_len: 7.0,
                floor_kbps: 100.0,
                cap_kbps: 150_000.0,
            },
        }
    }
}

struct KindParams {
    mu: f64,
    sigma: f64,
    phi: f64,
    eps: f64,
    outage_p: f64,
    outage_len: f64,
    floor_kbps: f64,
    cap_kbps: f64,
}

/// Configuration for one synthetic trace.
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Which environment to emulate.
    pub kind: TraceKind,
    /// Trace duration in seconds.
    pub duration_s: f64,
    /// RNG seed; the same seed always yields the same trace.
    pub seed: u64,
}

impl TraceConfig {
    /// Generate the trace at 1 Hz sampling.
    pub fn generate(&self) -> BandwidthTrace {
        let mut p = self.kind.params();
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x9e37_79b9_7f4a_7c15);
        let n = self.duration_s.ceil().max(1.0) as usize;

        // Some cellular traces are commute-style (tunnels, handover chains):
        // the Norway 3G corpus the paper replays is exactly that. A fraction
        // of traces get a much higher outage rate.
        match self.kind {
            TraceKind::Cellular3g => {
                if rng.random_range(0.0..1.0) < 0.30 {
                    p.outage_p *= 3.5;
                }
            }
            TraceKind::Lte => {
                if rng.random_range(0.0..1.0) < 0.20 {
                    p.outage_p *= 3.0;
                }
            }
            TraceKind::Broadband => {}
        }

        // Per-trace (per-"user") level drawn from a log-normal across the
        // population; within the trace an AR(1) process wanders around it.
        let level = LogNormal::new(p.mu, p.sigma)
            .expect("valid log-normal")
            .sample(&mut rng)
            .clamp(p.floor_kbps, p.cap_kbps);
        let log_level = level.ln();
        let innov = Normal::new(0.0, p.eps).expect("valid normal");

        let mut samples = Vec::with_capacity(n);
        let mut x = 0.0f64; // deviation from log_level
        let mut outage_left = 0usize;
        for _ in 0..n {
            if outage_left > 0 {
                outage_left -= 1;
                samples.push(p.floor_kbps * 0.1);
                continue;
            }
            if rng.random_range(0.0..1.0) < p.outage_p {
                // Geometric-ish outage length around outage_len seconds.
                outage_left = 1 + (rng.random_range(0.0..1.0) * 2.0 * p.outage_len) as usize;
                samples.push(p.floor_kbps * 0.1);
                continue;
            }
            x = p.phi * x + innov.sample(&mut rng);
            let kbps = (log_level + x).exp().clamp(p.floor_kbps, p.cap_kbps);
            samples.push(kbps);
        }
        BandwidthTrace::new(samples, 1.0)
    }
}

/// A bandwidth-trace corpus with per-session durations, matching the shape of
/// the paper's Figure 3.
#[derive(Debug, Clone)]
pub struct TraceCorpus {
    entries: Vec<CorpusEntry>,
}

/// One trace plus the session watch duration assigned to it.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// The network environment for this session.
    pub kind: TraceKind,
    /// The generated bandwidth process.
    pub trace: BandwidthTrace,
    /// How long the session is watched, in seconds (10–1200 per the paper).
    pub watch_duration_s: f64,
}

impl TraceCorpus {
    /// Build `n` (trace, duration) pairs with the paper's environment mix and
    /// duration distribution.
    ///
    /// Environment mix: 40% 3G, 35% LTE, 25% broadband — cellular-heavy, as
    /// the paper's motivation is cellular ISPs. Durations follow Fig. 3b:
    /// 0–1 min 30%, 1–2 min 25%, 2–5 min 25%, 5–20 min 20%, clamped to
    /// [10 s, 1200 s].
    pub fn paper_mix(n: usize, seed: u64) -> Self {
        let _span = dtp_obs::span!("generate.trace_corpus");
        dtp_obs::counter!("generate.traces").add(n as u64);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut entries = Vec::with_capacity(n);
        for i in 0..n {
            let r = rng.random_range(0.0..1.0);
            let kind = if r < 0.40 {
                TraceKind::Cellular3g
            } else if r < 0.75 {
                TraceKind::Lte
            } else {
                TraceKind::Broadband
            };
            let watch_duration_s = Self::sample_duration(&mut rng);
            let cfg = TraceConfig {
                kind,
                // Generate a little margin past the watch duration: stalls
                // stretch wall-clock time beyond playback time.
                duration_s: watch_duration_s * 3.0 + 120.0,
                seed: seed
                    .wrapping_mul(0x1000_0001b3)
                    .wrapping_add(i as u64),
            };
            entries.push(CorpusEntry { kind, trace: cfg.generate(), watch_duration_s });
        }
        Self { entries }
    }

    fn sample_duration(rng: &mut StdRng) -> f64 {
        let bucket = rng.random_range(0.0..1.0);
        let (lo, hi) = if bucket < 0.30 {
            (10.0, 60.0)
        } else if bucket < 0.55 {
            (60.0, 120.0)
        } else if bucket < 0.80 {
            (120.0, 300.0)
        } else {
            (300.0, 1200.0)
        };
        rng.random_range(lo..hi)
    }

    /// The corpus entries.
    pub fn entries(&self) -> &[CorpusEntry] {
        &self.entries
    }

    /// Number of sessions in the corpus.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Average-bandwidth of every trace, sorted ascending (Fig. 3a's CDF).
    pub fn average_bandwidth_cdf(&self) -> Vec<f64> {
        let mut avgs: Vec<f64> = self.entries.iter().map(|e| e.trace.average_kbps()).collect();
        avgs.sort_by(|a, b| a.partial_cmp(b).expect("finite averages"));
        avgs
    }

    /// Fraction of sessions in each of the paper's duration buckets
    /// (0–1, 1–2, 2–5, 5–20 minutes) — Fig. 3b.
    pub fn duration_histogram(&self) -> [f64; 4] {
        let mut counts = [0usize; 4];
        for e in &self.entries {
            let m = e.watch_duration_s / 60.0;
            let idx = if m < 1.0 {
                0
            } else if m < 2.0 {
                1
            } else if m < 5.0 {
                2
            } else {
                3
            };
            counts[idx] += 1;
        }
        let n = self.entries.len().max(1) as f64;
        [
            counts[0] as f64 / n,
            counts[1] as f64 / n,
            counts[2] as f64 / n,
            counts[3] as f64 / n,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = TraceConfig { kind: TraceKind::Lte, duration_s: 120.0, seed: 7 };
        assert_eq!(cfg.generate(), cfg.generate());
    }

    #[test]
    fn different_seeds_differ() {
        let a = TraceConfig { kind: TraceKind::Lte, duration_s: 120.0, seed: 1 }.generate();
        let b = TraceConfig { kind: TraceKind::Lte, duration_s: 120.0, seed: 2 }.generate();
        assert_ne!(a, b);
    }

    #[test]
    fn kinds_have_expected_rate_ordering() {
        // Averaged over many seeds, 3G << LTE and 3G << broadband.
        let avg = |kind: TraceKind| -> f64 {
            (0..40)
                .map(|s| {
                    TraceConfig { kind, duration_s: 300.0, seed: s }
                        .generate()
                        .average_kbps()
                })
                .sum::<f64>()
                / 40.0
        };
        let g3 = avg(TraceKind::Cellular3g);
        let lte = avg(TraceKind::Lte);
        let bb = avg(TraceKind::Broadband);
        assert!(g3 < lte / 3.0, "3g={g3} lte={lte}");
        assert!(g3 < bb / 3.0, "3g={g3} bb={bb}");
    }

    #[test]
    fn traces_stay_within_caps() {
        for kind in TraceKind::ALL {
            let t = TraceConfig { kind, duration_s: 600.0, seed: 99 }.generate();
            assert!(t.min_kbps() >= 0.0);
            assert!(t.max_kbps() <= 150_000.0);
        }
    }

    #[test]
    fn corpus_covers_paper_cdf_span() {
        let corpus = TraceCorpus::paper_mix(400, 11);
        let cdf = corpus.average_bandwidth_cdf();
        assert_eq!(cdf.len(), 400);
        // Fig 3a: averages span roughly 1e2..1e5 kbps.
        assert!(cdf[0] < 1_500.0, "lowest avg {}", cdf[0]);
        assert!(*cdf.last().unwrap() > 20_000.0, "highest avg {}", cdf.last().unwrap());
        // Sorted ascending.
        assert!(cdf.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn corpus_duration_mix_matches_target() {
        let corpus = TraceCorpus::paper_mix(2000, 5);
        let h = corpus.duration_histogram();
        assert!((h[0] - 0.30).abs() < 0.05, "{h:?}");
        assert!((h[1] - 0.25).abs() < 0.05, "{h:?}");
        assert!((h[2] - 0.25).abs() < 0.05, "{h:?}");
        assert!((h[3] - 0.20).abs() < 0.05, "{h:?}");
        let total: f64 = h.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn corpus_durations_within_paper_bounds() {
        let corpus = TraceCorpus::paper_mix(500, 3);
        for e in corpus.entries() {
            assert!(e.watch_duration_s >= 10.0 && e.watch_duration_s <= 1200.0);
            // The trace must comfortably cover the watch duration.
            assert!(e.trace.duration_s() >= e.watch_duration_s);
        }
    }
}

//! Property tests for the streaming engine's ordering guarantees and its
//! conduct under hostile input.
//!
//! The ordering contract: any arrival-order perturbation that stays
//! within the reorder window — and never reorders equal-start records —
//! produces exactly the same verdict stream as the in-order replay,
//! because the reorder buffer restores sorted order before anything
//! reaches the detector or the accumulators.
//!
//! The robustness contract: no feed, however malformed or disordered,
//! panics the engine under any configuration corner, and every record is
//! accounted for exactly once.

use std::sync::Arc;

use dtp_core::{DatasetBuilder, QoeEstimator, QoeMetricKind, ServiceId, SessionIdParams};
use dtp_stream::{SessionVerdict, StreamConfig, StreamEngine};
use dtp_telemetry::TlsTransactionRecord;
use proptest::prelude::*;

fn estimator() -> QoeEstimator {
    static MODEL: std::sync::OnceLock<QoeEstimator> = std::sync::OnceLock::new();
    MODEL
        .get_or_init(|| {
            let corpus = DatasetBuilder::new(ServiceId::Svc1).sessions(25).seed(40).build();
            QoeEstimator::train(&corpus, QoeMetricKind::Combined, 0)
        })
        .clone()
}

/// Deterministic synthetic stream: bursts of transactions with varied
/// inter-arrival gaps, all parameters drawn by proptest.
fn arb_stream() -> impl Strategy<Value = Vec<TlsTransactionRecord>> {
    proptest::collection::vec(
        (0.5f64..30.0, 1.0f64..60.0, 100.0f64..5e6, 0u8..6),
        2..60,
    )
    .prop_map(|steps| {
        let mut t = 0.0f64;
        steps
            .into_iter()
            .map(|(gap, dur, bytes, sni)| {
                t += gap;
                TlsTransactionRecord {
                    start_s: t,
                    end_s: t + dur,
                    up_bytes: bytes / 100.0,
                    down_bytes: bytes,
                    sni: Arc::from(format!("server-{sni}")),
                }
            })
            .collect()
    })
}

/// Swap adjacent records (guided by `swaps`) whenever the start gap is
/// strictly inside the reorder window.
fn perturb(
    records: &[TlsTransactionRecord],
    swaps: &[bool],
    window_s: f64,
) -> Vec<TlsTransactionRecord> {
    let mut out = records.to_vec();
    let mut i = 1;
    while i < out.len() {
        let gap = out[i].start_s - out[i - 1].start_s;
        if swaps[i % swaps.len()] && gap > 0.0 && gap < window_s {
            out.swap(i - 1, i);
            i += 2; // leave the moved record in place
        } else {
            i += 1;
        }
    }
    out
}

fn fingerprint(verdicts: &[SessionVerdict]) -> Vec<(String, usize, usize, Vec<u64>, usize)> {
    verdicts
        .iter()
        .map(|v| {
            (
                v.client.to_string(),
                v.ordinal,
                v.transactions,
                v.features.iter().map(|x| x.to_bits()).collect(),
                v.predicted,
            )
        })
        .collect()
}

fn replay(records: &[TlsTransactionRecord], window_s: f64) -> Vec<SessionVerdict> {
    let cfg = StreamConfig {
        reorder_window_s: window_s,
        idle_timeout_s: 1e9,
        micro_batch: 8,
        ..StreamConfig::default()
    };
    let mut eng = StreamEngine::new(estimator(), cfg).expect("valid config");
    let mut out = Vec::new();
    for rec in records {
        out.extend(eng.push("prop-client", rec.clone()));
    }
    out.extend(eng.finish());
    assert_eq!(eng.stats().late_dropped, 0, "perturbation must stay inside the window");
    out
}

/// A value drawn from one of several hostile regimes: NaN, infinite,
/// negative, huge, or (most often) `fallback`.
fn hostile(kind: u8, fallback: f64) -> f64 {
    match kind {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => -fallback.abs() - 1.0,
        3 => 1e300,
        _ => fallback,
    }
}

/// Multi-client feeds of arbitrary records: event time wanders forward and
/// back, and starts, ends and byte counts are sometimes NaN, infinite,
/// negative or huge.
fn arb_hostile_feed() -> impl Strategy<Value = Vec<(u8, TlsTransactionRecord)>> {
    proptest::collection::vec(
        (
            0u8..4,
            -10.0f64..25.0,
            0.0f64..90.0,
            0.0f64..1e7,
            (0u8..60, 0u8..24, 0u8..24, 0u8..24),
            0u8..6,
        ),
        1..150,
    )
    .prop_map(|steps| {
        let mut t = 0.0f64;
        steps
            .into_iter()
            .map(|(client, step, dur, bytes, (start_kind, end_kind, up_kind, down_kind), sni)| {
                t += step;
                let start_s = hostile(start_kind, t);
                let rec = TlsTransactionRecord {
                    start_s,
                    end_s: hostile(end_kind, start_s + dur),
                    up_bytes: hostile(up_kind, bytes / 50.0),
                    down_bytes: hostile(down_kind, bytes),
                    sni: Arc::from(format!("server-{sni}")),
                };
                (client, rec)
            })
            .collect()
    })
}

proptest! {
    /// Within-window shuffles never change the emitted verdict stream.
    #[test]
    fn reorder_window_shuffles_are_invisible(
        records in arb_stream(),
        swaps in proptest::collection::vec(any::<bool>(), 4..16),
        window in 1.0f64..5.0,
    ) {
        let shuffled = perturb(&records, &swaps, window);
        let base = fingerprint(&replay(&records, window));
        let perturbed = fingerprint(&replay(&shuffled, window));
        prop_assert_eq!(base, perturbed);
    }

    /// The engine is a pure function of its input: two identical replays
    /// agree bitwise, including probabilities.
    #[test]
    fn replay_is_deterministic(records in arb_stream()) {
        let a = replay(&records, 2.0);
        let b = replay(&records, 2.0);
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(&x.client, &y.client);
            prop_assert_eq!(x.ordinal, y.ordinal);
            prop_assert_eq!(
                x.probabilities.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
                y.probabilities.iter().map(|p| p.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    /// Hostile feeds never panic the engine, under each configuration
    /// corner: every record is accepted, dropped late or quarantined;
    /// after `finish` the verdicts hold exactly the accepted records; and
    /// every feature and probability is finite.
    #[test]
    fn hostile_feeds_are_accounted_for_and_never_panic(
        feed in arb_hostile_feed(),
        tick_kind in 0u8..6,
    ) {
        let window_s = SessionIdParams::default().window_s;
        let corners = [
            StreamConfig { micro_batch: 1, ..StreamConfig::default() },
            StreamConfig { reorder_window_s: 0.0, ..StreamConfig::default() },
            StreamConfig { idle_timeout_s: window_s, ..StreamConfig::default() },
            StreamConfig { idle_timeout_s: f64::MAX, ..StreamConfig::default() },
        ];
        for cfg in corners {
            let mut eng = StreamEngine::new(estimator(), cfg).expect("valid config");
            let mut verdicts = Vec::new();
            for (k, (client, rec)) in feed.iter().enumerate() {
                if k == feed.len() / 2 {
                    verdicts.extend(eng.advance_watermark(hostile(tick_kind, rec.start_s)));
                }
                verdicts.extend(eng.push(&format!("c{client}"), rec.clone()));
            }
            verdicts.extend(eng.finish());
            let s = *eng.stats();
            prop_assert_eq!(s.records_in, feed.len());
            prop_assert_eq!(
                s.records_in,
                s.accepted + s.late_dropped + eng.ingest_stats().quarantined,
                "{:?}",
                cfg
            );
            let emitted: usize = verdicts.iter().map(|v| v.transactions).sum();
            prop_assert_eq!(emitted, s.accepted, "{:?}", cfg);
            prop_assert_eq!(verdicts.len(), s.sessions_emitted);
            for v in &verdicts {
                prop_assert!(v.features.iter().all(|x| x.is_finite()), "{:?}", v.features);
                prop_assert!(v.probabilities.iter().all(|p| p.is_finite()), "{:?}", v);
            }
        }
    }
}

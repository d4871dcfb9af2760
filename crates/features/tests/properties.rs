//! Property-based tests for feature extraction.

use std::sync::Arc;

use dtp_features::{
    extract_flow_features, extract_packet_features, extract_tls_features, flow_feature_names,
    packet_feature_names, stats, SeriesStats, TlsSessionAccumulator,
};
use dtp_telemetry::{Direction, FlowRecord, PacketCapture, PacketRecord, TlsTransactionRecord};
use proptest::prelude::*;

fn arb_packet() -> impl Strategy<Value = PacketRecord> {
    (
        0.0f64..600.0,
        any::<bool>(),
        66u32..1514,
        any::<bool>(),
        proptest::option::of(1.0f64..500.0),
    )
        .prop_map(|(ts, up, size, retx, rtt)| PacketRecord {
            ts_s: ts,
            dir: if up { Direction::Up } else { Direction::Down },
            size_bytes: size,
            is_retransmission: retx,
            rtt_ms: rtt,
        })
}

fn arb_flow() -> impl Strategy<Value = FlowRecord> {
    (0.0f64..500.0, 0.0f64..300.0, 0.0f64..1e5, 0.0f64..1e8, 0u32..1000, 0u32..50_000).prop_map(
        |(start, dur, up, down, up_p, down_p)| FlowRecord {
            start_s: start,
            end_s: start + dur,
            up_bytes: up,
            down_bytes: down,
            up_packets: up_p,
            down_packets: down_p,
            server_port: 443,
            flow_id: 0,
        },
    )
}

/// A session of at least three TLS transactions with strictly increasing
/// starts (gaps of 1 ms to 60 s), so its start order is unique.
fn arb_session() -> impl Strategy<Value = Vec<TlsTransactionRecord>> {
    proptest::collection::vec((0.001f64..60.0, 0.0f64..300.0, 0.0f64..1e5, 0.0f64..1e8), 3..40)
        .prop_map(|txs| {
            let mut start = 0.0;
            txs.into_iter()
                .enumerate()
                .map(|(i, (gap, dur, up, down))| {
                    start += gap;
                    TlsTransactionRecord {
                        start_s: start,
                        end_s: start + dur,
                        up_bytes: up,
                        down_bytes: down,
                        sni: Arc::from(format!("cdn{}.example", i % 4)),
                    }
                })
                .collect()
        })
}

/// Fisher–Yates shuffle driven by a seeded LCG.
fn shuffled<T: Clone>(xs: &[T], seed: u64) -> Vec<T> {
    let mut out = xs.to_vec();
    let mut state = seed;
    for i in (1..out.len()).rev() {
        state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        out.swap(i, (state >> 33) as usize % (i + 1));
    }
    out
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    /// TLS extraction does not depend on record order: a shuffled session
    /// gives the same feature bits as the sorted one, and both equal a
    /// manual accumulator fold over the sorted records.
    #[test]
    fn tls_features_are_order_independent(session in arb_session(), seed in any::<u64>()) {
        let sorted_bits = bits(&extract_tls_features(&session));
        prop_assert_eq!(&bits(&extract_tls_features(&shuffled(&session, seed))), &sorted_bits);
        let mut acc = TlsSessionAccumulator::new();
        for t in &session {
            acc.push(t);
        }
        prop_assert_eq!(&bits(&acc.features().0), &sorted_bits);
    }


    /// Packet features are always finite and dimensionally stable,
    /// regardless of capture contents or ordering.
    #[test]
    fn packet_features_always_finite(pkts in proptest::collection::vec(arb_packet(), 0..200)) {
        let mut cap = PacketCapture::new();
        for p in pkts {
            cap.push(p);
        }
        cap.sort_by_time();
        let f = extract_packet_features(&cap);
        prop_assert_eq!(f.len(), packet_feature_names().len());
        prop_assert!(f.iter().all(|v| v.is_finite()), "{:?}", f);
    }

    /// Packet byte totals in the features match the capture exactly.
    #[test]
    fn packet_totals_match_capture(pkts in proptest::collection::vec(arb_packet(), 1..200)) {
        let mut cap = PacketCapture::new();
        for p in &pkts {
            cap.push(*p);
        }
        cap.sort_by_time();
        let f = extract_packet_features(&cap);
        let names = packet_feature_names();
        let get = |n: &str| f[names.iter().position(|x| x == n).unwrap()];
        let (up, down) = cap.byte_totals();
        prop_assert_eq!(get("PKT_TOTAL_UP_BYTES"), up as f64);
        prop_assert_eq!(get("PKT_TOTAL_DOWN_BYTES"), down as f64);
        prop_assert_eq!(get("RETX_COUNT"), cap.retransmission_count() as f64);
    }

    /// Flow features: finite, stable, and periodic export conserves volume
    /// features (SDR) for any flow set and interval.
    #[test]
    fn flow_features_finite_and_volume_conserving(
        flows in proptest::collection::vec(arb_flow(), 1..30),
        interval in 5.0f64..120.0,
    ) {
        let whole = extract_flow_features(&flows, None);
        let split = extract_flow_features(&flows, Some(interval));
        prop_assert_eq!(whole.len(), flow_feature_names().len());
        prop_assert!(whole.iter().all(|v| v.is_finite()));
        prop_assert!(split.iter().all(|v| v.is_finite()));
        // Total downlink volume over the whole span is invariant to export
        // granularity: compare SDR_DL * SES_DUR.
        let vol = |f: &[f64]| f[0] * f[2]; // kbps * s
        let a = vol(&whole);
        let b = vol(&split);
        prop_assert!((a - b).abs() <= 1e-6 * (1.0 + a.abs()).max(1.0) * 8.0,
            "volumes differ: {} vs {}", a, b);
    }

    /// The streaming series accumulator reads min/median/max bitwise
    /// equal to the batch statistics kernel after every single push.
    #[test]
    fn series_stats_bitwise_equal_batch(xs in proptest::collection::vec(-1e12f64..1e12, 0..200)) {
        let mut s = SeriesStats::new();
        prop_assert_eq!(s.median().to_bits(), stats::median(&[]).to_bits());
        for i in 0..xs.len() {
            s.push(xs[i]);
            let prefix = &xs[..=i];
            prop_assert_eq!(s.count(), i + 1);
            prop_assert_eq!(s.min().to_bits(), stats::min(prefix).to_bits());
            prop_assert_eq!(s.max().to_bits(), stats::max(prefix).to_bits());
            prop_assert_eq!(s.median().to_bits(), stats::median(prefix).to_bits());
        }
    }
}

//! The paper's 38 TLS-transaction features (Table 1).
//!
//! | Type | Statistic | Features |
//! |---|---|---|
//! | Session level | single value | `SDR_DL`, `SDR_UL`, `SES_DUR`, `TRANS_PER_SEC` |
//! | Transaction statistics | MIN, MED, MAX | `DL_SIZE`, `UL_SIZE`, `DUR`, `TDR`, `D2U`, `IAT` |
//! | Temporal statistics | interval based | `CUM_DL_XXs`, `CUM_UL_XXs` |
//!
//! Interval endpoints: {30, 60, 120, 240, 480, 720, 960, 1200} seconds, each
//! measured from session start, with proportional attribution for
//! transactions partially overlapping an interval (§3). 4 + 18 + 16 = 38.
//!
//! The features themselves are computed in one place,
//! [`TlsSessionAccumulator`](crate::TlsSessionAccumulator); the extractors
//! here fold a session's records into it in start order and read the
//! result, so the batch pipeline is the streaming one run to completion.

use dtp_telemetry::TlsTransactionRecord;

use crate::TlsSessionAccumulator;

/// The paper's temporal interval endpoints, in seconds (§3).
pub const TEMPORAL_INTERVALS_S: [f64; 8] = [30.0, 60.0, 120.0, 240.0, 480.0, 720.0, 960.0, 1200.0];

/// Which subset of Table 1 to extract — the ablation axis of Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureGroup {
    /// Only session-level features (4).
    SessionLevel,
    /// Session-level + transaction statistics (22).
    SessionPlusTransaction,
    /// The full 38-feature set.
    Full,
}

impl FeatureGroup {
    /// All groups in Table 3's order.
    pub const ALL: [FeatureGroup; 3] =
        [FeatureGroup::SessionLevel, FeatureGroup::SessionPlusTransaction, FeatureGroup::Full];

    /// Row label used in Table 3.
    pub fn label(&self) -> &'static str {
        match self {
            FeatureGroup::SessionLevel => "Only Session-level (SL)",
            FeatureGroup::SessionPlusTransaction => "SL + Transaction Stats (TS)",
            FeatureGroup::Full => "SL + TS + Temporal Stats",
        }
    }

    /// Number of features in the group.
    pub fn len(&self) -> usize {
        match self {
            FeatureGroup::SessionLevel => 4,
            FeatureGroup::SessionPlusTransaction => 22,
            FeatureGroup::Full => 38,
        }
    }

    /// Never zero.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The column names this group keeps (prefix of the full set).
    pub fn names(&self) -> Vec<String> {
        tls_feature_names().into_iter().take(self.len()).collect()
    }
}

/// Column names for the full 38-feature vector, in extraction order.
pub fn tls_feature_names() -> Vec<String> {
    let mut names = vec![
        "SDR_DL".to_string(),
        "SDR_UL".to_string(),
        "SES_DUR".to_string(),
        "TRANS_PER_SEC".to_string(),
    ];
    for metric in ["DL_SIZE", "UL_SIZE", "DUR", "TDR", "D2U", "IAT"] {
        for stat in ["MIN", "MED", "MAX"] {
            names.push(format!("{metric}_{stat}"));
        }
    }
    for dir in ["DL", "UL"] {
        for iv in TEMPORAL_INTERVALS_S {
            names.push(format!("CUM_{dir}_{}s", iv as u64));
        }
    }
    names
}

/// Data-quality summary attached to an extracted feature vector.
///
/// Fault-injected or real-world streams can carry inverted times, blanked
/// SNIs, or partial captures; extraction always succeeds, and this records
/// how much repair it took so models can weigh or drop degraded vectors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FeatureQuality {
    /// The session had no transactions at all (vector is all zeros).
    pub empty_input: bool,
    /// Features that came out non-finite and were imputed to 0.0.
    pub imputed: usize,
    /// Input records carrying at least one ingest [`Validity`] flag.
    ///
    /// [`Validity`]: dtp_telemetry::Validity
    pub suspect_records: usize,
}

impl FeatureQuality {
    /// True when extraction needed no repair at all.
    pub fn is_pristine(&self) -> bool {
        *self == FeatureQuality::default()
    }
}

/// Extract the full 38-feature vector from a session's TLS transactions.
///
/// Transactions need not be sorted. An empty slice yields all zeros (a
/// session the proxy never saw). The vector is always finite: non-finite
/// intermediate values are imputed to 0.0 (use
/// [`extract_tls_features_checked`] to observe when that happens).
pub fn extract_tls_features(transactions: &[TlsTransactionRecord]) -> Vec<f64> {
    extract_tls_features_checked(transactions).0
}

/// Checked extraction: the feature vector plus a [`FeatureQuality`] report
/// saying how much imputation the input required.
///
/// This is the streaming [`TlsSessionAccumulator`] run to completion: the
/// records are folded in start order (a slice already nondecreasing in
/// `start_s` as-is, anything else through a stable `total_cmp` sort) and
/// the accumulator's [`features`](TlsSessionAccumulator::features) are
/// returned, so batch and stream cannot disagree.
pub fn extract_tls_features_checked(
    transactions: &[TlsTransactionRecord],
) -> (Vec<f64>, FeatureQuality) {
    let _span = dtp_obs::span!("extract.tls");
    dtp_obs::counter!("extract.tls_records").add(transactions.len() as u64);
    let mut acc = TlsSessionAccumulator::new();
    if transactions.windows(2).all(|w| w[0].start_s <= w[1].start_s) {
        transactions.iter().for_each(|t| acc.push(t));
    } else {
        let mut sorted: Vec<&TlsTransactionRecord> = transactions.iter().collect();
        sorted.sort_by(|a, b| a.start_s.total_cmp(&b.start_s));
        sorted.into_iter().for_each(|t| acc.push(t));
    }
    acc.features()
}

/// Extract the 38-feature vector for every session in a corpus, fanned out
/// over `dtp-par` workers (`DTP_THREADS`). Row `i` is always the features
/// of `sessions[i]`, at any thread count.
pub fn extract_tls_features_batch(sessions: &[Vec<TlsTransactionRecord>]) -> Vec<Vec<f64>> {
    dtp_par::par_map("extract.tls_sessions", sessions, |_, txs| extract_tls_features(txs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn tx(start: f64, end: f64, up: f64, down: f64) -> TlsTransactionRecord {
        TlsTransactionRecord {
            start_s: start,
            end_s: end,
            up_bytes: up,
            down_bytes: down,
            sni: Arc::from("cdn.svc1.example"),
        }
    }

    #[test]
    fn name_count_and_uniqueness() {
        let names = tls_feature_names();
        assert_eq!(names.len(), 38);
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), 38, "names must be unique");
        assert!(names.contains(&"CUM_DL_60s".to_string()));
        assert!(names.contains(&"D2U_MED".to_string()));
    }

    #[test]
    fn vector_length_matches_names() {
        let txs = vec![tx(0.0, 10.0, 1000.0, 1_000_000.0)];
        assert_eq!(extract_tls_features(&txs).len(), 38);
        assert_eq!(extract_tls_features(&[]).len(), 38);
    }

    #[test]
    fn session_level_values() {
        // Two transactions spanning 100 s, 10 MB down, 10 KB up total.
        let txs = vec![
            tx(0.0, 50.0, 5_000.0, 5_000_000.0),
            tx(50.0, 100.0, 5_000.0, 5_000_000.0),
        ];
        let f = extract_tls_features(&txs);
        let names = tls_feature_names();
        let get = |n: &str| f[names.iter().position(|x| x == n).unwrap()];
        assert!((get("SES_DUR") - 100.0).abs() < 1e-9);
        assert!((get("SDR_DL") - 800.0).abs() < 1e-6); // 10 MB over 100 s = 800 kbps
        assert!((get("TRANS_PER_SEC") - 0.02).abs() < 1e-12);
    }

    #[test]
    fn transaction_stats_min_med_max() {
        let txs = vec![
            tx(0.0, 10.0, 100.0, 1_000.0),
            tx(20.0, 40.0, 200.0, 2_000.0),
            tx(50.0, 80.0, 300.0, 6_000.0),
        ];
        let f = extract_tls_features(&txs);
        let names = tls_feature_names();
        let get = |n: &str| f[names.iter().position(|x| x == n).unwrap()];
        assert_eq!(get("DL_SIZE_MIN"), 1_000.0);
        assert_eq!(get("DL_SIZE_MED"), 2_000.0);
        assert_eq!(get("DL_SIZE_MAX"), 6_000.0);
        assert_eq!(get("DUR_MIN"), 10.0);
        assert_eq!(get("DUR_MAX"), 30.0);
        // IAT between starts: 20 and 30.
        assert_eq!(get("IAT_MIN"), 20.0);
        assert_eq!(get("IAT_MAX"), 30.0);
        // D2U = down/up = 10 for every transaction here... except the third (20).
        assert_eq!(get("D2U_MIN"), 10.0);
        assert_eq!(get("D2U_MAX"), 20.0);
    }

    #[test]
    fn temporal_features_attribute_overlap_proportionally() {
        // One transaction from 0..120 s carrying 120 KB: exactly 30 KB falls
        // in the first 30 s, 60 KB in the first 60 s.
        let txs = vec![tx(0.0, 120.0, 1_200.0, 120_000.0)];
        let f = extract_tls_features(&txs);
        let names = tls_feature_names();
        let get = |n: &str| f[names.iter().position(|x| x == n).unwrap()];
        assert!((get("CUM_DL_30s") - 30_000.0).abs() < 1e-6);
        assert!((get("CUM_DL_60s") - 60_000.0).abs() < 1e-6);
        assert!((get("CUM_DL_120s") - 120_000.0).abs() < 1e-6);
        assert!((get("CUM_DL_1200s") - 120_000.0).abs() < 1e-6);
        assert!((get("CUM_UL_30s") - 300.0).abs() < 1e-6);
    }

    #[test]
    fn temporal_features_are_monotone_in_interval() {
        let txs = vec![
            tx(0.0, 45.0, 1_000.0, 500_000.0),
            tx(10.0, 300.0, 9_000.0, 4_000_000.0),
            tx(200.0, 400.0, 2_000.0, 1_000_000.0),
        ];
        let f = extract_tls_features(&txs);
        // CUM_DL columns are indices 22..30, CUM_UL 30..38.
        for w in f[22..30].windows(2) {
            assert!(w[0] <= w[1] + 1e-9, "CUM_DL must be monotone: {w:?}");
        }
        for w in f[30..38].windows(2) {
            assert!(w[0] <= w[1] + 1e-9, "CUM_UL must be monotone: {w:?}");
        }
        // The largest interval captures everything.
        assert!((f[29] - 5_500_000.0).abs() < 1e-6);
    }

    #[test]
    fn unsorted_input_is_handled() {
        let a = vec![
            tx(50.0, 100.0, 10.0, 100.0),
            tx(0.0, 40.0, 10.0, 100.0),
        ];
        let mut b = a.clone();
        b.reverse();
        assert_eq!(extract_tls_features(&a), extract_tls_features(&b));
    }

    #[test]
    fn single_transaction_iat_is_zero() {
        let txs = vec![tx(5.0, 25.0, 100.0, 10_000.0)];
        let f = extract_tls_features(&txs);
        let names = tls_feature_names();
        let get = |n: &str| f[names.iter().position(|x| x == n).unwrap()];
        assert_eq!(get("IAT_MIN"), 0.0);
        assert_eq!(get("IAT_MED"), 0.0);
        assert_eq!(get("IAT_MAX"), 0.0);
    }

    #[test]
    fn feature_groups_are_prefixes() {
        assert_eq!(FeatureGroup::SessionLevel.len(), 4);
        assert_eq!(FeatureGroup::SessionPlusTransaction.len(), 22);
        assert_eq!(FeatureGroup::Full.len(), 38);
        let full = tls_feature_names();
        for g in FeatureGroup::ALL {
            assert_eq!(g.names(), full[..g.len()].to_vec());
        }
    }

    #[test]
    fn hostile_input_never_yields_non_finite_features() {
        // Inverted times, NaN bytes, negative starts — the worst a skewed,
        // corrupted capture can offer.
        let txs = vec![
            tx(50.0, 10.0, 100.0, 1_000.0),
            tx(-5.0, 3.0, f64::NAN, 1_000.0),
            tx(0.0, 0.0, 0.0, f64::INFINITY),
            tx(f64::NAN, 2.0, 1.0, 1.0),
        ];
        let (f, q) = extract_tls_features_checked(&txs);
        assert_eq!(f.len(), 38);
        assert!(f.iter().all(|v| v.is_finite()), "{f:?}");
        assert!(q.imputed > 0, "NaN inputs must be reported as imputations");
        assert_eq!(q.suspect_records, 4);
        assert!(!q.is_pristine());
    }

    #[test]
    fn clean_input_reports_pristine_quality() {
        let txs = vec![tx(0.0, 10.0, 1_000.0, 1_000_000.0)];
        let (f, q) = extract_tls_features_checked(&txs);
        assert!(q.is_pristine(), "{q:?}");
        assert_eq!(f, extract_tls_features(&txs));
        let (_, q_empty) = extract_tls_features_checked(&[]);
        assert!(q_empty.empty_input);
        assert_eq!(q_empty.imputed, 0);
    }

    #[test]
    fn batch_extraction_matches_per_session_calls() {
        let sessions: Vec<Vec<TlsTransactionRecord>> = (0..37)
            .map(|s| {
                (0..=s % 5)
                    .map(|t| {
                        let t0 = (s * 10 + t) as f64;
                        tx(t0, t0 + 5.0, 100.0 + t as f64, 10_000.0 * (t + 1) as f64)
                    })
                    .collect()
            })
            .collect();
        let expect: Vec<Vec<f64>> = sessions.iter().map(|s| extract_tls_features(s)).collect();
        let serial = dtp_par::with_threads(1, || extract_tls_features_batch(&sessions));
        let parallel = dtp_par::with_threads(4, || extract_tls_features_batch(&sessions));
        assert_eq!(serial, expect);
        assert_eq!(parallel, expect);
    }

    #[test]
    fn zero_duration_transaction_counts_in_window() {
        let txs = vec![tx(10.0, 10.0, 50.0, 500.0), tx(0.0, 5.0, 10.0, 100.0)];
        let f = extract_tls_features(&txs);
        let names = tls_feature_names();
        let get = |n: &str| f[names.iter().position(|x| x == n).unwrap()];
        assert!((get("CUM_DL_30s") - 600.0).abs() < 1e-9);
    }
}

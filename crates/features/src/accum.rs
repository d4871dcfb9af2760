//! Streaming feature accumulators — the one implementation of Table 1.
//!
//! A proxy scoring sessions *online* sees one transaction at a time and
//! cannot afford to re-extract 38 features per arrival. This module holds
//! push-based accumulators that maintain the statistics in O(1) per record
//! (plus the raw values each median needs):
//!
//! * [`SeriesStats`] — one per-transaction metric series: running min/max
//!   plus the raw values, whose median is taken on read by
//!   [`crate::stats::median`],
//! * [`TlsSessionAccumulator`] — the full Table 1 feature vector,
//!   maintained incrementally.
//!
//! ## Exactness guarantees
//!
//! The batch extractor ([`crate::extract_tls_features_checked`]) is this
//! accumulator run to completion: it pushes a session's records in start
//! order and returns [`TlsSessionAccumulator::features`]. The streaming
//! engine (`dtp-stream`) pushes the same records in the same order, because
//! its reorder buffer releases them sorted by `start_s`, so batch and
//! stream agree bit for bit by construction. `tests/stream_vs_batch.rs` and
//! the golden fixtures at the workspace root stay as regression guards.

use dtp_telemetry::TlsTransactionRecord;

use crate::{stats, FeatureQuality, TEMPORAL_INTERVALS_S};

/// One per-transaction metric series (DL size, duration, …): running
/// min/max and the observed values, so the median is computed on read by
/// the same [`stats::median`] kernel the batch extractor uses.
#[derive(Debug, Clone)]
pub struct SeriesStats {
    values: Vec<f64>,
    min: f64,
    max: f64,
}

impl SeriesStats {
    /// Empty series.
    pub fn new() -> Self {
        Self { values: Vec::new(), min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Observe one value.
    pub fn push(&mut self, x: f64) {
        self.min = f64::min(self.min, x);
        self.max = f64::max(self.max, x);
        self.values.push(x);
    }

    /// Observations so far.
    pub fn count(&self) -> usize {
        self.values.len()
    }

    /// Running minimum; 0.0 when empty (matching `stats::min`).
    pub fn min(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.min
        }
    }

    /// Running maximum; 0.0 when empty (matching `stats::max`).
    pub fn max(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.max
        }
    }

    /// Exact median of the values so far; 0.0 when empty (it is
    /// `stats::median`).
    pub fn median(&self) -> f64 {
        stats::median(&self.values)
    }
}

impl Default for SeriesStats {
    fn default() -> Self {
        Self::new()
    }
}

/// Incremental Table 1 feature extraction: push TLS transactions in
/// nondecreasing `start_s` order, read the full feature vector at any time.
///
/// [`crate::extract_tls_features_checked`] is this accumulator folded over
/// a session in start order — see the module docs and DESIGN.md §11.
#[derive(Debug, Clone)]
pub struct TlsSessionAccumulator {
    count: usize,
    t0: f64,
    t_end: f64,
    total_dl: f64,
    total_ul: f64,
    dl: SeriesStats,
    ul: SeriesStats,
    dur: SeriesStats,
    tdr: SeriesStats,
    d2u: SeriesStats,
    iat: SeriesStats,
    last_start: f64,
    cum_dl: [f64; TEMPORAL_INTERVALS_S.len()],
    cum_ul: [f64; TEMPORAL_INTERVALS_S.len()],
    suspect_records: usize,
}

impl TlsSessionAccumulator {
    /// Empty accumulator over the paper's interval set
    /// ([`TEMPORAL_INTERVALS_S`]), yielding the 38-vector.
    pub fn new() -> Self {
        Self {
            count: 0,
            t0: f64::INFINITY,
            t_end: f64::NEG_INFINITY,
            total_dl: 0.0,
            total_ul: 0.0,
            dl: SeriesStats::new(),
            ul: SeriesStats::new(),
            dur: SeriesStats::new(),
            tdr: SeriesStats::new(),
            d2u: SeriesStats::new(),
            iat: SeriesStats::new(),
            last_start: f64::NAN,
            cum_dl: [0.0; TEMPORAL_INTERVALS_S.len()],
            cum_ul: [0.0; TEMPORAL_INTERVALS_S.len()],
            suspect_records: 0,
        }
    }

    /// Transactions accumulated so far.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True before the first push.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Length of the feature vector [`TlsSessionAccumulator::features`]
    /// returns.
    pub fn feature_len(&self) -> usize {
        22 + 2 * TEMPORAL_INTERVALS_S.len()
    }

    /// Session start (first transaction's `start_s`); `None` when empty.
    pub fn start_s(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.t0)
        }
    }

    /// Latest transaction end seen; `None` when empty.
    pub fn end_s(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.t_end)
        }
    }

    /// Accumulate one transaction. Records must arrive in nondecreasing
    /// `start_s` order: the temporal features measure from the first
    /// record's start, and IAT is the gap to the previous one. The caller's
    /// reorder buffer (see `dtp-stream`) or sort (the batch extractor)
    /// establishes that.
    pub fn push(&mut self, t: &TlsTransactionRecord) {
        debug_assert!(
            self.count == 0
                || t.start_s >= self.last_start
                || t.start_s.is_nan()
                || self.last_start.is_nan(),
            "records must be pushed in nondecreasing start order"
        );
        if !t.validity().is_clean() {
            self.suspect_records += 1;
        }
        if self.count == 0 {
            self.t0 = t.start_s;
        } else {
            self.t0 = f64::min(self.t0, t.start_s);
            // IAT between consecutive starts.
            self.iat.push(t.start_s - self.last_start);
        }
        self.last_start = t.start_s;
        self.t_end = f64::max(self.t_end, t.end_s);
        self.total_dl += t.down_bytes;
        self.total_ul += t.up_bytes;
        self.dl.push(t.down_bytes);
        self.ul.push(t.up_bytes);
        self.dur.push(t.duration_s());
        self.tdr.push(t.tdr_kbps());
        self.d2u.push(t.d2u_ratio());
        for (k, &iv) in TEMPORAL_INTERVALS_S.iter().enumerate() {
            self.cum_dl[k] += Self::overlap_share(t, self.t0, iv, t.down_bytes);
            self.cum_ul[k] += Self::overlap_share(t, self.t0, iv, t.up_bytes);
        }
        self.count += 1;
    }

    /// One transaction's contribution to a `[t0, t0 + interval]` window:
    /// its bytes, scaled by the share of its duration inside the window
    /// (§3: "we get its share of downlink and uplink data based on the
    /// extent of the overlap").
    fn overlap_share(t: &TlsTransactionRecord, t0: f64, interval_s: f64, b: f64) -> f64 {
        let window_end = t0 + interval_s;
        if b <= 0.0 {
            return 0.0;
        }
        let dur = t.duration_s();
        if dur <= 0.0 {
            // Instantaneous transaction: counts fully if inside.
            return if t.start_s <= window_end { b } else { 0.0 };
        }
        let overlap = (t.end_s.min(window_end) - t.start_s.max(t0)).max(0.0);
        b * overlap / dur
    }

    /// The feature vector and quality report for everything accumulated so
    /// far — callable mid-session for a live estimate, or at close for the
    /// final vector. Non-finite values are imputed to 0.0 and counted in
    /// [`FeatureQuality::imputed`]; an empty accumulator yields all zeros
    /// with `empty_input` set.
    pub fn features(&self) -> (Vec<f64>, FeatureQuality) {
        let mut out = Vec::with_capacity(self.feature_len());
        if self.count == 0 {
            out.resize(self.feature_len(), 0.0);
            return (
                out,
                FeatureQuality { empty_input: true, imputed: 0, suspect_records: 0 },
            );
        }
        let ses_dur = (self.t_end - self.t0).max(1e-9);
        // --- Session level ---
        out.push(self.total_dl * 8.0 / 1000.0 / ses_dur); // SDR_DL (kbps)
        out.push(self.total_ul * 8.0 / 1000.0 / ses_dur); // SDR_UL (kbps)
        out.push(ses_dur); // SES_DUR (s)
        out.push(self.count as f64 / ses_dur); // TRANS_PER_SEC

        // --- Transaction statistics ---
        for series in [&self.dl, &self.ul, &self.dur, &self.tdr, &self.d2u, &self.iat] {
            out.push(series.min());
            out.push(series.median());
            out.push(series.max());
        }

        // --- Temporal statistics ---
        out.extend_from_slice(&self.cum_dl);
        out.extend_from_slice(&self.cum_ul);
        let mut quality = FeatureQuality {
            empty_input: false,
            imputed: 0,
            suspect_records: self.suspect_records,
        };
        for v in &mut out {
            if !v.is_finite() {
                *v = 0.0;
                quality.imputed += 1;
            }
        }
        (out, quality)
    }
}

impl Default for TlsSessionAccumulator {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract_tls_features_checked;
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

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn accumulator_matches_batch_bitwise() {
        let sessions = [
            vec![tx(0.0, 10.0, 1000.0, 1_000_000.0)],
            vec![tx(0.0, 50.0, 5_000.0, 5_000_000.0), tx(50.0, 100.0, 5_000.0, 5_000_000.0)],
            vec![
                tx(0.0, 45.0, 1_000.0, 500_000.0),
                tx(10.0, 300.0, 9_000.0, 4_000_000.0),
                tx(200.0, 400.0, 2_000.0, 1_000_000.0),
            ],
            // Zero-duration and zero-uplink degenerates.
            vec![tx(0.0, 5.0, 0.0, 100.0), tx(10.0, 10.0, 50.0, 500.0)],
            vec![],
        ];
        for txs in &sessions {
            let (batch, bq) = extract_tls_features_checked(txs);
            let mut acc = TlsSessionAccumulator::new();
            for t in txs {
                acc.push(t);
            }
            let (streamed, sq) = acc.features();
            assert_eq!(bits(&streamed), bits(&batch), "{txs:?}");
            assert_eq!(sq, bq);
            assert_eq!(acc.feature_len(), 38);
        }
    }

    #[test]
    fn accumulator_live_reads_are_prefix_exact() {
        // Reading mid-session equals batch extraction over the prefix.
        let txs = [
            tx(0.0, 45.0, 1_000.0, 500_000.0),
            tx(10.0, 300.0, 9_000.0, 4_000_000.0),
            tx(200.0, 400.0, 2_000.0, 1_000_000.0),
        ];
        let mut acc = TlsSessionAccumulator::new();
        for (i, t) in txs.iter().enumerate() {
            acc.push(t);
            let (live, _) = acc.features();
            let (batch, _) = extract_tls_features_checked(&txs[..=i]);
            assert_eq!(bits(&live), bits(&batch), "prefix {}", i + 1);
            assert_eq!(acc.len(), i + 1);
            assert_eq!(acc.start_s(), Some(0.0));
        }
        assert_eq!(acc.end_s(), Some(400.0));
    }

    #[test]
    fn accumulator_reports_suspect_records() {
        let mut acc = TlsSessionAccumulator::new();
        acc.push(&tx(5.0, 4.0, 10.0, 10.0)); // inverted times
        acc.push(&tx(6.0, 8.0, 100.0, 1_000.0));
        let (_, q) = acc.features();
        assert_eq!(q.suspect_records, 1);
        assert!(!q.empty_input);
    }
}

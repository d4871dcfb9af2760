//! Per-client session tracking: reorder buffer → incremental boundary
//! detection → streaming feature accumulation.
//!
//! A [`ClientTracker`] owns everything one client's record stream needs:
//!
//! 1. a **reorder buffer** holding records until the engine watermark
//!    passes them (records may arrive out of order by up to the configured
//!    reorder window in event time; the buffer re-sorts them so the
//!    detector only ever sees a nondecreasing stream),
//! 2. the [`IncrementalSessionDetector`] running the paper's W/N/δ
//!    boundary heuristic with a bounded look-ahead buffer,
//! 3. the open session's [`TlsSessionAccumulator`], maintaining the
//!    38-feature vector incrementally.
//!
//! Closing a session (boundary detected, idle expiry, or final flush)
//! yields a [`ClosedSession`] carrying the finalized feature vector; the
//! engine micro-batches those through the deployed model.

use std::collections::VecDeque;
use std::sync::Arc;

use dtp_core::sessionid::IncrementalSessionDetector;
use dtp_core::SessionIdParams;
use dtp_features::{FeatureQuality, TlsSessionAccumulator};
use dtp_telemetry::TlsTransactionRecord;

/// Why a session was closed and emitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseReason {
    /// The boundary heuristic detected the start of the next session.
    Boundary,
    /// The engine watermark passed the session's last activity by the idle
    /// timeout.
    IdleTimeout,
    /// [`StreamEngine::finish`](crate::StreamEngine::finish) drained the
    /// stream.
    Flush,
}

impl CloseReason {
    /// Stable lowercase label for metrics and JSON artifacts.
    pub fn label(&self) -> &'static str {
        match self {
            CloseReason::Boundary => "boundary",
            CloseReason::IdleTimeout => "idle_timeout",
            CloseReason::Flush => "flush",
        }
    }
}

/// A finalized (not yet scored) session, ready for the model micro-batch.
#[derive(Debug, Clone)]
pub struct ClosedSession {
    /// The client whose stream produced the session.
    pub client: Arc<str>,
    /// 0-based per-client session counter.
    pub ordinal: usize,
    /// First transaction start, seconds.
    pub start_s: f64,
    /// Latest transaction end seen, seconds.
    pub end_s: f64,
    /// Transactions in the session.
    pub transactions: usize,
    /// The 38-feature vector (bitwise-equal to the batch extractor).
    pub features: Vec<f64>,
    /// Extraction quality report.
    pub quality: FeatureQuality,
    /// Why the session closed.
    pub reason: CloseReason,
}

/// One client's streaming state. See the module docs for the record path.
#[derive(Debug)]
pub struct ClientTracker {
    client: Arc<str>,
    /// Records not yet released by the watermark, sorted by `start_s`
    /// (ties keep arrival order, matching the batch splitter's stable
    /// sort).
    reorder: VecDeque<TlsTransactionRecord>,
    detector: IncrementalSessionDetector,
    open: Option<TlsSessionAccumulator>,
    ordinal: usize,
    /// Largest `start_s` accepted from this client (event time).
    last_event_s: f64,
    /// Scratch for detector decisions, reused across drains.
    decided: Vec<(TlsTransactionRecord, bool)>,
}

impl ClientTracker {
    /// Fresh tracker for `client`.
    pub fn new(client: Arc<str>, params: SessionIdParams) -> Self {
        Self {
            client,
            reorder: VecDeque::new(),
            detector: IncrementalSessionDetector::new(params),
            open: None,
            ordinal: 0,
            last_event_s: f64::NEG_INFINITY,
            decided: Vec::new(),
        }
    }

    /// Event time of this client's newest accepted record.
    pub fn last_event_s(&self) -> f64 {
        self.last_event_s
    }

    /// True when a session is currently open.
    pub fn has_open_session(&self) -> bool {
        self.open.is_some()
    }

    /// Records buffered (reorder buffer + detector look-ahead).
    pub fn buffered(&self) -> usize {
        self.reorder.len() + self.detector.pending_len()
    }

    /// Accept one (already sanitized) record into the reorder buffer.
    pub fn offer(&mut self, rec: TlsTransactionRecord) {
        self.last_event_s = self.last_event_s.max(rec.start_s);
        // Sorted insert from the back — streams are mostly in order, so
        // this is O(1) amortized; ties keep arrival order.
        let pos = self
            .reorder
            .iter()
            .rposition(|p| p.start_s <= rec.start_s)
            .map_or(0, |i| i + 1);
        self.reorder.insert(pos, rec);
    }

    /// Release every buffered record at or below `watermark` into the
    /// detector and apply the resulting boundary decisions, appending any
    /// closed sessions to `closed`.
    pub fn drain(&mut self, watermark: f64, closed: &mut Vec<ClosedSession>) {
        self.decided.clear();
        while let Some(rec) = self.reorder.pop_front_if(|r| r.start_s <= watermark) {
            self.detector.push(rec, &mut self.decided);
        }
        let mut decided = std::mem::take(&mut self.decided);
        for (rec, is_new) in &decided {
            self.apply(rec, *is_new, closed);
        }
        decided.clear();
        self.decided = decided;
    }

    /// Close the open session (and force-decide anything still buffered)
    /// because the stream is over for this client — idle expiry or engine
    /// flush.
    pub fn flush(&mut self, reason: CloseReason, closed: &mut Vec<ClosedSession>) {
        // Everything still in the reorder buffer is released regardless of
        // watermark: nothing older can arrive once the client is expired or
        // the engine is finishing.
        while let Some(rec) = self.reorder.pop_front() {
            self.detector.push(rec, &mut self.decided);
        }
        let mut decided = std::mem::take(&mut self.decided);
        decided.extend(self.detector.finish());
        for (rec, is_new) in &decided {
            self.apply(rec, *is_new, closed);
        }
        decided.clear();
        self.decided = decided;
        if let Some(acc) = self.open.take() {
            closed.push(self.finalize(&acc, reason));
            self.ordinal += 1;
        }
    }

    /// Apply one boundary decision to the open session.
    fn apply(&mut self, rec: &TlsTransactionRecord, is_new: bool, closed: &mut Vec<ClosedSession>) {
        if is_new {
            if let Some(acc) = self.open.take() {
                closed.push(self.finalize(&acc, CloseReason::Boundary));
                self.ordinal += 1;
            }
        }
        self.open
            .get_or_insert_with(TlsSessionAccumulator::new)
            .push(rec);
    }

    /// Turn the open accumulator into a [`ClosedSession`].
    fn finalize(&self, acc: &TlsSessionAccumulator, reason: CloseReason) -> ClosedSession {
        let (features, quality) = acc.features();
        ClosedSession {
            client: Arc::clone(&self.client),
            ordinal: self.ordinal,
            start_s: acc.start_s().unwrap_or(0.0),
            end_s: acc.end_s().unwrap_or(0.0),
            transactions: acc.len(),
            features,
            quality,
            reason,
        }
    }
}

#[cfg(test)]
impl ClientTracker {
    /// Test-only view of the detector's look-ahead depth.
    fn detector_pending(&self) -> usize {
        self.detector.pending_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx(start: f64, sni: &str) -> TlsTransactionRecord {
        TlsTransactionRecord {
            start_s: start,
            end_s: start + 20.0,
            up_bytes: 500.0,
            down_bytes: 50_000.0,
            sni: Arc::from(sni),
        }
    }

    fn tracker() -> ClientTracker {
        ClientTracker::new(Arc::from("client-1"), SessionIdParams::default())
    }

    #[test]
    fn boundary_closes_previous_session() {
        let mut t = tracker();
        let mut closed = Vec::new();
        // Session 1 on a/b, then a 3-burst on new servers at t=100.
        for rec in [
            tx(0.0, "a"),
            tx(0.5, "b"),
            tx(50.0, "a"),
            tx(100.0, "c"),
            tx(100.8, "d"),
            tx(101.5, "e"),
        ] {
            t.offer(rec);
        }
        t.drain(f64::INFINITY, &mut closed);
        assert!(closed.is_empty(), "burst window still open at the stream tail");
        t.flush(CloseReason::Flush, &mut closed);
        assert_eq!(closed.len(), 2, "{closed:?}");
        assert_eq!(closed[0].reason, CloseReason::Boundary);
        assert_eq!(closed[0].transactions, 3);
        assert_eq!(closed[0].ordinal, 0);
        assert_eq!(closed[1].reason, CloseReason::Flush);
        assert_eq!(closed[1].transactions, 3);
        assert_eq!(closed[1].ordinal, 1);
        assert!(!t.has_open_session() && t.buffered() == 0);
    }

    #[test]
    fn watermark_holds_back_unstable_records() {
        let mut t = tracker();
        let mut closed = Vec::new();
        t.offer(tx(10.0, "a"));
        t.offer(tx(12.0, "b"));
        t.drain(11.0, &mut closed);
        assert_eq!(t.buffered(), 2, "one fed to detector, one reordering");
        assert_eq!(t.detector_pending(), 1);
        // A record older than the released one but above the watermark
        // still lands in order.
        t.offer(tx(11.0, "c"));
        t.drain(f64::INFINITY, &mut closed);
        t.flush(CloseReason::Flush, &mut closed);
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].transactions, 3);
    }

    #[test]
    fn features_match_batch_extraction() {
        let mut t = tracker();
        let mut closed = Vec::new();
        let recs = vec![tx(0.0, "a"), tx(1.0, "b"), tx(30.0, "a")];
        for r in &recs {
            t.offer(r.clone());
        }
        t.flush(CloseReason::Flush, &mut closed);
        assert_eq!(closed.len(), 1);
        let (batch, q) = dtp_features::extract_tls_features_checked(&recs);
        let got: Vec<u64> = closed[0].features.iter().map(|v| v.to_bits()).collect();
        let want: Vec<u64> = batch.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want);
        assert_eq!(closed[0].quality, q);
        assert_eq!(closed[0].start_s, 0.0);
        assert_eq!(closed[0].end_s, 50.0);
    }

    #[test]
    fn close_reason_labels_are_stable() {
        assert_eq!(CloseReason::Boundary.label(), "boundary");
        assert_eq!(CloseReason::IdleTimeout.label(), "idle_timeout");
        assert_eq!(CloseReason::Flush.label(), "flush");
    }
}

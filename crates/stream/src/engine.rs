//! The push-based inference engine: records in, scored session verdicts
//! out.
//!
//! ```text
//! push(client, record)
//!   └─ sanitize (shared ingest policy)        dtp-telemetry
//!      └─ advance watermark, expire idle      min-heap of (last activity, client)
//!         └─ ClientTracker                    one map entry per client:
//!            │                                reorder → detect → accumulate
//!            └─ ClosedSession                 finalized feature vector
//!               └─ micro-batch scoring        QoeEstimator on dtp-par
//!                  └─ SessionVerdict
//! ```
//!
//! **Watermark semantics.** The engine watermark is
//! `max(start_s seen) − reorder_window_s`, in *event* time. Records at or
//! below the watermark are released (no older record can still arrive
//! within the tolerated disorder); records arriving *under* the watermark
//! are counted late and dropped.
//!
//! **Idle expiry.** A client whose newest `start_s` is more than
//! `idle_timeout_s` under the watermark is flushed with
//! [`CloseReason::IdleTimeout`]. The check runs on every accepted record,
//! before the record is offered, and on every `advance_watermark`; so for
//! an in-order feed a client's session closes by idle exactly where two of
//! its consecutive starts differ by more than
//! `idle_timeout_s + reorder_window_s`.
//!
//! **Determinism.** No output depends on the client map's iteration order:
//! expiry pops clients by (last activity, client key), `advance_watermark`
//! and `finish` walk clients in key order, and scoring order is close
//! order. So the verdict stream is a pure function of the input sequence,
//! at any `DTP_THREADS`. `tests/stream_vs_batch.rs` (workspace root) pins
//! the stronger claim, with expiry off and on: verdicts are *bitwise
//! equal* to the offline
//! `SessionSplitter → extract_tls_features_batch → QoeEstimator` pipeline.

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

use dtp_core::{QoeCategory, QoeEstimator, SessionIdParams, SessionSplitter};
use dtp_telemetry::{sanitize_record, IngestStats, Stopwatch, TlsTransactionRecord};

use crate::tracker::{ClientTracker, CloseReason, ClosedSession};

/// Streaming engine configuration. [`Default`] gives the paper's session
/// parameters, a 3 s reorder window, a 120 s idle timeout, and 64-session
/// scoring micro-batches.
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// Session-boundary heuristic parameters (paper defaults).
    pub session: SessionIdParams,
    /// Tolerated event-time disorder, seconds. Records arriving more than
    /// this much behind the newest record are dropped as late.
    pub reorder_window_s: f64,
    /// Close an open session once the watermark passes its client's last
    /// activity by this much, seconds. Must be at least the session window
    /// `W` (an expiry inside the look-ahead window could contradict a
    /// pending boundary decision).
    pub idle_timeout_s: f64,
    /// Score ready sessions once this many are queued (≥ 1); smaller means
    /// lower latency, larger means better `dtp-par` batching.
    pub micro_batch: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            session: SessionIdParams::default(),
            reorder_window_s: 3.0,
            idle_timeout_s: 120.0,
            micro_batch: 64,
        }
    }
}

/// Why a [`StreamConfig`] was rejected by [`StreamEngine::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamConfigError {
    /// `reorder_window_s` must be finite and non-negative.
    InvalidReorderWindow,
    /// `idle_timeout_s` must be finite and at least the session window `W`.
    InvalidIdleTimeout,
    /// `micro_batch` must be ≥ 1.
    ZeroMicroBatch,
    /// The session parameters failed [`SessionSplitter::try_new`].
    InvalidSessionParams(dtp_core::SessionIdError),
}

impl std::fmt::Display for StreamConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidReorderWindow => write!(f, "reorder window must be finite and >= 0"),
            Self::InvalidIdleTimeout => {
                write!(f, "idle timeout must be finite and >= the session window W")
            }
            Self::ZeroMicroBatch => write!(f, "micro_batch must be >= 1"),
            Self::InvalidSessionParams(e) => write!(f, "session params: {e}"),
        }
    }
}

impl std::error::Error for StreamConfigError {}

/// A scored, emitted session — the engine's output record.
#[derive(Debug, Clone)]
pub struct SessionVerdict {
    /// The client whose stream produced the session.
    pub client: Arc<str>,
    /// 0-based per-client session counter. It restarts at 0 when a client
    /// returns after idle expiry.
    pub ordinal: usize,
    /// First transaction start, seconds (event time).
    pub start_s: f64,
    /// Latest transaction end, seconds (event time).
    pub end_s: f64,
    /// Transactions in the session.
    pub transactions: usize,
    /// The 38-feature vector the model scored.
    pub features: Vec<f64>,
    /// Feature-extraction quality (imputations, suspect records).
    pub quality: dtp_features::FeatureQuality,
    /// Predicted class index (0 = problem class).
    pub predicted: usize,
    /// Predicted class on the quality scale.
    pub category: QoeCategory,
    /// Averaged per-class probabilities from the forest.
    pub probabilities: Vec<f64>,
    /// Why the session closed.
    pub reason: CloseReason,
}

/// Engine-level tallies (the ingest boundary keeps its own
/// [`IngestStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Records offered to [`StreamEngine::push`].
    pub records_in: usize,
    /// Records accepted past the ingest boundary.
    pub accepted: usize,
    /// Records dropped for arriving under the watermark.
    pub late_dropped: usize,
    /// Sessions scored and emitted.
    pub sessions_emitted: usize,
    /// Emitted sessions closed by a detected boundary.
    pub closed_by_boundary: usize,
    /// Emitted sessions closed by idle expiry.
    pub closed_by_idle: usize,
    /// Emitted sessions closed by the final flush.
    pub closed_by_flush: usize,
}

/// The long-running, push-based streaming inference engine. See the module
/// docs for the record path and determinism guarantees.
pub struct StreamEngine {
    cfg: StreamConfig,
    estimator: QoeEstimator,
    clients: HashMap<Arc<str>, ClientTracker>,
    /// One entry per live tracker, pushed when the tracker is created. An
    /// entry's time may be older than its client's last activity (it is
    /// refreshed when popped), never newer.
    idle: BinaryHeap<Reverse<LastActivity>>,
    ready: Vec<ClosedSession>,
    ingest: IngestStats,
    stats: EngineStats,
    /// Largest event time seen (records or explicit watermark advances).
    max_event_s: f64,
}

impl std::fmt::Debug for StreamEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamEngine")
            .field("cfg", &self.cfg)
            .field("open_sessions", &self.open_sessions())
            .field("ready", &self.ready.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl StreamEngine {
    /// Engine scoring with a deployed model.
    ///
    /// # Errors
    /// Rejects invalid configuration (see [`StreamConfigError`]).
    pub fn new(estimator: QoeEstimator, cfg: StreamConfig) -> Result<Self, StreamConfigError> {
        if !cfg.reorder_window_s.is_finite() || cfg.reorder_window_s < 0.0 {
            return Err(StreamConfigError::InvalidReorderWindow);
        }
        SessionSplitter::try_new(cfg.session).map_err(StreamConfigError::InvalidSessionParams)?;
        if !cfg.idle_timeout_s.is_finite() || cfg.idle_timeout_s < cfg.session.window_s {
            return Err(StreamConfigError::InvalidIdleTimeout);
        }
        if cfg.micro_batch == 0 {
            return Err(StreamConfigError::ZeroMicroBatch);
        }
        Ok(Self {
            clients: HashMap::new(),
            idle: BinaryHeap::new(),
            cfg,
            estimator,
            ready: Vec::new(),
            ingest: IngestStats::default(),
            stats: EngineStats::default(),
            max_event_s: f64::NEG_INFINITY,
        })
    }

    /// Engine tallies so far.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Ingest-boundary tallies (same policy and accounting as the batch
    /// [`dtp_telemetry::ProxyLog`]).
    pub fn ingest_stats(&self) -> &IngestStats {
        &self.ingest
    }

    /// The current watermark: newest event time minus the reorder window.
    /// `-inf` before the first record.
    pub fn watermark(&self) -> f64 {
        self.max_event_s - self.cfg.reorder_window_s
    }

    /// Clients with a currently open session.
    pub fn open_sessions(&self) -> usize {
        self.clients.values().filter(|t| t.has_open_session()).count()
    }

    /// Records buffered across all trackers (reorder + look-ahead).
    pub fn buffered_records(&self) -> usize {
        self.clients.values().map(|t| t.buffered()).sum()
    }

    /// Offer one record from `client`. Returns any verdicts whose
    /// micro-batch this push completed (usually empty — emission is
    /// batched; see [`StreamConfig::micro_batch`]).
    pub fn push(&mut self, client: &str, rec: TlsTransactionRecord) -> Vec<SessionVerdict> {
        dtp_obs::counter!("stream.records").inc();
        self.stats.records_in += 1;
        let rec = match sanitize_record(rec) {
            Ok((rec, validity)) => {
                self.ingest.note_accept(validity);
                rec
            }
            Err(e) => {
                self.ingest.note_quarantine(&e);
                dtp_obs::counter!("stream.quarantined").inc();
                return Vec::new();
            }
        };
        if rec.start_s < self.watermark() {
            // Too old to order correctly: past the tolerated disorder.
            self.stats.late_dropped += 1;
            dtp_obs::counter!("stream.late").inc();
            return Vec::new();
        }
        self.stats.accepted += 1;
        self.max_event_s = self.max_event_s.max(rec.start_s);
        self.expire_idle();
        let watermark = self.watermark();

        if !self.clients.contains_key(client) {
            // First record from this client: the only key allocation.
            let key: Arc<str> = Arc::from(client);
            self.idle.push(Reverse(LastActivity(rec.start_s, Arc::clone(&key))));
            self.clients.insert(Arc::clone(&key), ClientTracker::new(key, self.cfg.session));
        }
        let tracker = self.clients.get_mut(client).expect("tracker inserted above");
        let open_before = tracker.has_open_session();
        tracker.offer(rec);
        tracker.drain(watermark, &mut self.ready);
        track_open_delta(open_before, tracker.has_open_session());
        self.score_ready(false)
    }

    /// Advance event time without a record (e.g. a periodic tick from the
    /// capture clock), expiring idle clients and releasing reorder buffers.
    /// Returns any verdicts that became ready.
    pub fn advance_watermark(&mut self, event_time_s: f64) -> Vec<SessionVerdict> {
        self.max_event_s = self.max_event_s.max(event_time_s);
        self.expire_idle();
        let watermark = self.watermark();
        let mut trackers: Vec<_> = self.clients.iter_mut().collect();
        trackers.sort_unstable_by(|a, b| a.0.cmp(b.0));
        for (_, tracker) in trackers {
            let before = tracker.has_open_session();
            tracker.drain(watermark, &mut self.ready);
            track_open_delta(before, tracker.has_open_session());
        }
        self.score_ready(false)
    }

    /// End of stream: flush every tracker, score everything, return the
    /// remaining verdicts. The engine is reusable afterwards (watermark
    /// and per-client state reset; cumulative stats are kept).
    pub fn finish(&mut self) -> Vec<SessionVerdict> {
        let mut trackers: Vec<_> = self.clients.drain().collect();
        trackers.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        for (_, mut tracker) in trackers {
            let before = tracker.has_open_session();
            tracker.flush(CloseReason::Flush, &mut self.ready);
            track_open_delta(before, false);
        }
        self.idle.clear();
        self.max_event_s = f64::NEG_INFINITY;
        self.score_ready(true)
    }

    /// Flush every client whose last activity is more than the idle
    /// timeout under the watermark, earliest first (ties by client key). A
    /// popped entry whose client has been active since goes back in at
    /// that client's real last activity.
    fn expire_idle(&mut self) {
        let watermark = self.watermark();
        let timeout = self.cfg.idle_timeout_s;
        while self.idle.peek().is_some_and(|Reverse(due)| watermark - due.0 > timeout) {
            let Reverse(LastActivity(_, client)) = self.idle.pop().expect("peeked");
            let last = self.clients[&client].last_event_s();
            if watermark - last > timeout {
                let mut tracker = self.clients.remove(&client).expect("entry of a live tracker");
                let before = tracker.has_open_session();
                tracker.flush(CloseReason::IdleTimeout, &mut self.ready);
                track_open_delta(before, false);
            } else {
                self.idle.push(Reverse(LastActivity(last, client)));
            }
        }
    }

    /// Score the ready queue through the deployed model if a micro-batch
    /// is due (or `force`), emitting verdicts in close order.
    fn score_ready(&mut self, force: bool) -> Vec<SessionVerdict> {
        if self.ready.is_empty() || (!force && self.ready.len() < self.cfg.micro_batch) {
            return Vec::new();
        }
        let _span = dtp_obs::span!("stream.emit");
        let sw = Stopwatch::start();
        let mut batch = std::mem::take(&mut self.ready);
        let rows: Vec<Vec<f64>> =
            batch.iter_mut().map(|c| std::mem::take(&mut c.features)).collect();
        // Micro-batch scoring fans out over the dtp-par pool.
        let probas = self.estimator.predict_proba_features_batch(&rows);
        let emit_ms = sw.elapsed_s() * 1e3;
        dtp_obs::histogram!("stream.emit_ms").observe(emit_ms);
        dtp_obs::counter!("stream.sessions_emitted").add(batch.len() as u64);
        let mut out = Vec::with_capacity(batch.len());
        for ((closed, features), probabilities) in batch.into_iter().zip(rows).zip(probas) {
            // First-max argmax: the forest's own predict() convention, so
            // streaming predictions match the batch pipeline bitwise.
            let mut predicted = 0;
            for (i, p) in probabilities.iter().enumerate() {
                if *p > probabilities[predicted] {
                    predicted = i;
                }
            }
            self.stats.sessions_emitted += 1;
            match closed.reason {
                CloseReason::Boundary => self.stats.closed_by_boundary += 1,
                CloseReason::IdleTimeout => self.stats.closed_by_idle += 1,
                CloseReason::Flush => self.stats.closed_by_flush += 1,
            }
            out.push(SessionVerdict {
                client: closed.client,
                ordinal: closed.ordinal,
                start_s: closed.start_s,
                end_s: closed.end_s,
                transactions: closed.transactions,
                features,
                quality: closed.quality,
                predicted,
                category: QoeCategory::from_index(predicted),
                probabilities,
                reason: closed.reason,
            });
        }
        out
    }
}

/// Keep the `stream.sessions_open` gauge in step with one tracker's
/// open-session transition.
fn track_open_delta(before: bool, after: bool) {
    if before != after {
        dtp_obs::gauge!("stream.sessions_open").add(if after { 1.0 } else { -1.0 });
    }
}

/// An idle-heap entry: a client and its last activity (event time), ordered
/// by time, then client key.
#[derive(Debug)]
struct LastActivity(f64, Arc<str>);

impl Ord for LastActivity {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0).then_with(|| self.1.cmp(&other.1))
    }
}

impl PartialOrd for LastActivity {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for LastActivity {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for LastActivity {}

#[cfg(test)]
mod tests {
    use super::*;
    use dtp_core::dataset::DatasetBuilder;
    use dtp_core::label::QoeMetricKind;
    use dtp_core::ServiceId;

    fn tx(start: f64, sni: &str) -> TlsTransactionRecord {
        TlsTransactionRecord {
            start_s: start,
            end_s: start + 20.0,
            up_bytes: 500.0,
            down_bytes: 50_000.0,
            sni: Arc::from(sni),
        }
    }

    fn engine(cfg: StreamConfig) -> StreamEngine {
        let corpus = DatasetBuilder::new(ServiceId::Svc1).sessions(25).seed(40).build();
        let est = QoeEstimator::train(&corpus, QoeMetricKind::Combined, 0);
        StreamEngine::new(est, cfg).expect("valid config")
    }

    #[test]
    fn config_validation_rejects_bad_knobs() {
        let corpus = DatasetBuilder::new(ServiceId::Svc1).sessions(25).seed(40).build();
        let est = QoeEstimator::train(&corpus, QoeMetricKind::Combined, 0);
        let bad = StreamConfig { reorder_window_s: f64::NAN, ..Default::default() };
        assert!(matches!(
            StreamEngine::new(est, bad),
            Err(StreamConfigError::InvalidReorderWindow)
        ));
        let est = QoeEstimator::train(&corpus, QoeMetricKind::Combined, 0);
        let bad = StreamConfig { idle_timeout_s: 1.0, ..Default::default() };
        assert!(matches!(StreamEngine::new(est, bad), Err(StreamConfigError::InvalidIdleTimeout)));
        let est = QoeEstimator::train(&corpus, QoeMetricKind::Combined, 0);
        let bad = StreamConfig { micro_batch: 0, ..Default::default() };
        assert!(matches!(StreamEngine::new(est, bad), Err(StreamConfigError::ZeroMicroBatch)));
    }

    #[test]
    fn single_session_emits_one_verdict_on_finish() {
        let mut eng = engine(StreamConfig::default());
        let mut verdicts = Vec::new();
        for rec in [tx(0.0, "a"), tx(0.6, "b"), tx(40.0, "a")] {
            verdicts.extend(eng.push("alice", rec));
        }
        assert!(verdicts.is_empty(), "session still open");
        assert_eq!(eng.open_sessions() + eng.buffered_records().min(1), 1);
        verdicts.extend(eng.finish());
        assert_eq!(verdicts.len(), 1);
        let v = &verdicts[0];
        assert_eq!(&*v.client, "alice");
        assert_eq!(v.ordinal, 0);
        assert_eq!(v.transactions, 3);
        assert_eq!(v.features.len(), 38);
        assert_eq!(v.probabilities.len(), 3);
        assert!(v.predicted < 3);
        assert_eq!(v.reason, CloseReason::Flush);
        assert_eq!(eng.stats().sessions_emitted, 1);
        assert_eq!(eng.open_sessions(), 0);
    }

    #[test]
    fn clients_are_isolated() {
        let mut eng = engine(StreamConfig { micro_batch: 1, ..Default::default() });
        let mut verdicts = Vec::new();
        // Interleave two clients; each sees one session.
        for i in 0..4 {
            let t = i as f64 * 2.0;
            verdicts.extend(eng.push("alice", tx(t, "a")));
            verdicts.extend(eng.push("bob", tx(t + 0.5, "b")));
        }
        verdicts.extend(eng.finish());
        assert_eq!(verdicts.len(), 2, "{verdicts:?}");
        let mut clients: Vec<&str> = verdicts.iter().map(|v| &*v.client).collect();
        clients.sort_unstable();
        assert_eq!(clients, ["alice", "bob"]);
        for v in &verdicts {
            assert_eq!(v.transactions, 4);
        }
    }

    #[test]
    fn quarantine_and_late_records_are_counted_not_stored() {
        let mut eng = engine(StreamConfig { reorder_window_s: 1.0, ..Default::default() });
        let _ = eng.push("c", tx(f64::NAN, "a"));
        assert_eq!(eng.ingest_stats().quarantined, 1);
        let _ = eng.push("c", tx(100.0, "a"));
        let _ = eng.push("c", tx(10.0, "b")); // 89 s behind: late
        let s = eng.stats();
        assert_eq!(s.late_dropped, 1);
        assert_eq!(s.accepted, 1);
        assert_eq!(s.records_in, 3);
        // The negative-start repair path is shared with ProxyLog: the record
        // is repaired (and counted) at the boundary, then dropped as late.
        let mut rec = tx(99.9, "d");
        rec.start_s = -1.0;
        rec.end_s = 4.0;
        let _ = eng.push("c", rec);
        assert_eq!(eng.ingest_stats().repaired, 1);
        assert_eq!(eng.stats().late_dropped, 2, "repaired to 0.0, late vs watermark 99");
        let _ = eng.finish();
    }

    #[test]
    fn idle_timeout_expires_quiet_clients() {
        let cfg = StreamConfig { idle_timeout_s: 30.0, micro_batch: 1, ..Default::default() };
        let mut eng = engine(cfg);
        let mut verdicts = Vec::new();
        verdicts.extend(eng.push("quiet", tx(0.0, "a")));
        verdicts.extend(eng.push("quiet", tx(1.0, "b")));
        assert!(verdicts.is_empty());
        // Another client's records march event time past the timeout.
        for i in 0..50 {
            verdicts.extend(eng.push("busy", tx(10.0 + f64::from(i), "c")));
        }
        let quiet: Vec<_> = verdicts.iter().filter(|v| &*v.client == "quiet").collect();
        assert_eq!(quiet.len(), 1, "{verdicts:?}");
        assert_eq!(quiet[0].reason, CloseReason::IdleTimeout);
        assert_eq!(quiet[0].transactions, 2);
        verdicts.extend(eng.finish());
        assert!(verdicts.iter().any(|v| &*v.client == "busy"));
    }

    #[test]
    fn advance_watermark_drives_emission_without_records() {
        let cfg = StreamConfig { idle_timeout_s: 20.0, micro_batch: 1, ..Default::default() };
        let mut eng = engine(cfg);
        assert!(eng.push("c", tx(0.0, "a")).is_empty());
        assert!(eng.push("c", tx(1.0, "b")).is_empty());
        let verdicts = eng.advance_watermark(60.0);
        assert_eq!(verdicts.len(), 1, "{verdicts:?}");
        assert_eq!(verdicts[0].reason, CloseReason::IdleTimeout);
        assert_eq!(eng.open_sessions(), 0);
        assert!(eng.finish().is_empty());
    }

    #[test]
    fn micro_batching_defers_then_flushes() {
        let cfg = StreamConfig {
            micro_batch: 4,
            idle_timeout_s: 5.0,
            reorder_window_s: 0.5,
            ..Default::default()
        };
        let mut eng = engine(cfg);
        let mut emitted = 0usize;
        // 6 clients, one short session each, expiring as time marches on.
        for i in 0..6u32 {
            let base = f64::from(i) * 20.0;
            let client = format!("client-{i}");
            emitted += eng.push(&client, tx(base, "a")).len();
            emitted += eng.push(&client, tx(base + 0.4, "b")).len();
        }
        let tail = eng.finish();
        assert_eq!(emitted + tail.len(), 6);
        assert!(emitted >= 4, "micro-batch of 4 must have flushed mid-stream");
        assert_eq!(eng.stats().sessions_emitted, 6);
    }

    #[test]
    fn verdict_order_is_deterministic() {
        let run = || {
            let mut eng = engine(StreamConfig { micro_batch: 2, ..Default::default() });
            let mut out = Vec::new();
            for i in 0..30u32 {
                let t = f64::from(i) * 7.0;
                out.extend(eng.push(&format!("c{}", i % 3), tx(t, &format!("s{}", i % 5))));
            }
            out.extend(eng.finish());
            out.iter()
                .map(|v| (v.client.to_string(), v.ordinal, v.predicted, v.transactions))
                .collect::<Vec<_>>()
        };
        let a = run();
        let b = dtp_par::with_threads(4, run);
        assert_eq!(a, b, "verdict stream must not depend on thread count");
        assert!(!a.is_empty());
    }
}

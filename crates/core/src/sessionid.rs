//! Session identification for back-to-back viewing (Fig. 1 step 2, §4.2).
//!
//! A timeout-based splitter fails on consecutive sessions because "the
//! active TLS transactions do not always end immediately once the player is
//! closed, but timeout after some duration, leading to overlapping
//! transactions" (§2.2). The paper's heuristic instead uses two signals:
//!
//! 1. session starts are bursty — more than one TLS transaction begins
//!    within a short window, and
//! 2. the serving hosts are likely to change across sessions.
//!
//! For each transaction, consider the set of transactions starting within
//! `W` seconds; compute `N` (set size) and `δ` (fraction of the set on
//! servers unseen in the current session). A transaction starts a new
//! session if `N > N_min` and `δ > δ_min`. Paper parameters: `W = 3 s`,
//! `N_min = 2`, `δ_min = 0.5`.

use std::borrow::Borrow;
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

use dtp_ml::ConfusionMatrix;
use dtp_simnet::TraceCorpus;
use dtp_telemetry::TlsTransactionRecord;

use crate::sim::{simulate_session, SessionConfig};
use crate::ServiceId;

/// Heuristic parameters (paper defaults via [`Default`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionIdParams {
    /// Look-ahead window W, seconds.
    pub window_s: f64,
    /// Minimum burst size N_min (strictly exceeded).
    pub n_min: usize,
    /// Minimum new-server fraction δ_min (strictly exceeded).
    pub delta_min: f64,
}

impl Default for SessionIdParams {
    fn default() -> Self {
        Self { window_s: 3.0, n_min: 2, delta_min: 0.5 }
    }
}

/// Why a [`SessionIdParams`] was rejected by [`SessionSplitter::try_new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionIdError {
    /// `window_s` must be finite and strictly positive.
    NonPositiveWindow,
    /// `delta_min` must be a fraction in `[0, 1]`.
    DeltaOutOfRange,
}

impl std::fmt::Display for SessionIdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NonPositiveWindow => write!(f, "window must be finite and positive"),
            Self::DeltaOutOfRange => write!(f, "delta_min must be a fraction in [0, 1]"),
        }
    }
}

impl std::error::Error for SessionIdError {}

/// The session-boundary detector.
#[derive(Debug, Clone, Default)]
pub struct SessionSplitter {
    params: SessionIdParams,
}

impl SessionSplitter {
    /// Detector with validated parameters.
    ///
    /// # Errors
    /// Rejects a non-positive (or non-finite) window and a `delta_min`
    /// outside `[0, 1]`.
    pub fn try_new(params: SessionIdParams) -> Result<Self, SessionIdError> {
        if !params.window_s.is_finite() || params.window_s <= 0.0 {
            return Err(SessionIdError::NonPositiveWindow);
        }
        if !params.delta_min.is_finite() || !(0.0..=1.0).contains(&params.delta_min) {
            return Err(SessionIdError::DeltaOutOfRange);
        }
        Ok(Self { params })
    }

    /// Detector with custom parameters, repairing invalid ones: a
    /// non-positive window falls back to the paper default and `delta_min`
    /// saturates into `[0, 1]`. Use [`SessionSplitter::try_new`] to surface
    /// the problem instead.
    pub fn new(mut params: SessionIdParams) -> Self {
        if !params.window_s.is_finite() || params.window_s <= 0.0 {
            params.window_s = SessionIdParams::default().window_s;
        }
        if !params.delta_min.is_finite() {
            params.delta_min = SessionIdParams::default().delta_min;
        }
        params.delta_min = params.delta_min.clamp(0.0, 1.0);
        Self { params }
    }

    /// The active parameters.
    pub fn params(&self) -> &SessionIdParams {
        &self.params
    }

    /// For each transaction, decide whether it starts a new session.
    ///
    /// This is the [`IncrementalSessionDetector`] run to completion: every
    /// record is pushed in start order, the detector is finished, and each
    /// verdict is mapped back to its record's input position. Input already
    /// nondecreasing in `start_s` is pushed as-is; anything else (e.g. clock
    /// jitter upstream) is pushed in stable `total_cmp` start order.
    pub fn detect(&self, transactions: &[TlsTransactionRecord]) -> Vec<bool> {
        let _span = dtp_obs::span!("split.detect");
        dtp_obs::counter!("split.transactions").add(transactions.len() as u64);
        let mut order: Vec<usize> = (0..transactions.len()).collect();
        if !transactions.windows(2).all(|w| w[0].start_s <= w[1].start_s) {
            order.sort_by(|&a, &b| transactions[a].start_s.total_cmp(&transactions[b].start_s));
        }
        let mut detector = IncrementalSessionDetector::new(self.params);
        let mut decided = Vec::with_capacity(transactions.len());
        for i in order {
            detector.push(AtPosition(i, &transactions[i]), &mut decided);
        }
        decided.extend(detector.finish());
        let mut out = vec![false; transactions.len()];
        for (AtPosition(i, _), is_new) in decided {
            out[i] = is_new;
        }
        out
    }

    /// Split a sorted stream into per-session transaction groups using
    /// [`SessionSplitter::detect`]. The first transaction always opens the
    /// first group.
    pub fn split(&self, transactions: &[TlsTransactionRecord]) -> Vec<Vec<TlsTransactionRecord>> {
        let boundaries = self.detect(transactions);
        let mut out: Vec<Vec<TlsTransactionRecord>> = Vec::new();
        for (t, &is_new) in transactions.iter().zip(&boundaries) {
            if out.is_empty() || is_new {
                out.push(Vec::new());
            }
            out.last_mut().expect("group exists").push(t.clone());
        }
        out
    }
}

/// A record borrowed from the caller's slice, tagged with its position so
/// [`SessionSplitter::detect`] can map verdicts back without cloning.
#[derive(Debug)]
struct AtPosition<'a>(usize, &'a TlsTransactionRecord);

impl Borrow<TlsTransactionRecord> for AtPosition<'_> {
    fn borrow(&self) -> &TlsTransactionRecord {
        self.1
    }
}

/// The paper's boundary heuristic, and its only implementation:
/// transactions are pushed one at a time (nondecreasing `start_s`) and each
/// is decided as soon as its look-ahead window `[t_i, t_i + W]` is provably
/// complete — i.e. once some later transaction starts after `t_i + W`, or
/// the stream is [`finish`](IncrementalSessionDetector::finish)ed.
///
/// Each decision counts the burst (`N`) and the new-server fraction (`δ`)
/// against the running seen-server set of the current session. The
/// streaming engine runs it online; [`SessionSplitter::detect`] runs it to
/// completion over a slice.
///
/// Records are held as `R`: owned records by default (`dtp-stream`), or
/// anything that borrows one, so the batch splitter need not clone.
///
/// Small disorder among *not-yet-decided* transactions is tolerated (they
/// are kept sorted by `start_s`, ties in arrival order); a transaction
/// starting before an already-decided one cannot be re-decided — callers
/// bound disorder with a reorder buffer (see `dtp-stream`) or a sort.
#[derive(Debug, Clone)]
pub struct IncrementalSessionDetector<R = TlsTransactionRecord> {
    params: SessionIdParams,
    pending: VecDeque<R>,
    seen: HashSet<Arc<str>>,
    max_start_seen: f64,
}

impl<R: Borrow<TlsTransactionRecord>> IncrementalSessionDetector<R> {
    /// Detector with custom parameters, repaired exactly like
    /// [`SessionSplitter::new`].
    pub fn new(params: SessionIdParams) -> Self {
        let params = *SessionSplitter::new(params).params();
        Self {
            params,
            pending: VecDeque::new(),
            seen: HashSet::new(),
            max_start_seen: f64::NEG_INFINITY,
        }
    }

    /// The active parameters.
    pub fn params(&self) -> &SessionIdParams {
        &self.params
    }

    /// Transactions buffered awaiting a complete look-ahead window.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Offer the next transaction; appends every now-decidable transaction
    /// to `out` as `(transaction, starts_new_session)`, in start order.
    pub fn push(&mut self, rec: R, out: &mut Vec<(R, bool)>) {
        let start_s = rec.borrow().start_s;
        self.max_start_seen = self.max_start_seen.max(start_s);
        // Sorted insert from the back: ties keep arrival order.
        let pos = self
            .pending
            .iter()
            .rposition(|p| p.borrow().start_s <= start_s)
            .map_or(0, |i| i + 1);
        self.pending.insert(pos, rec);
        while let Some(front) = self.pending.front() {
            if self.max_start_seen <= front.borrow().start_s + self.params.window_s {
                break;
            }
            out.push(self.decide_front());
        }
    }

    /// End of stream: decide everything still pending, in order.
    pub fn finish(&mut self) -> Vec<(R, bool)> {
        let mut out = Vec::with_capacity(self.pending.len());
        while !self.pending.is_empty() {
            out.push(self.decide_front());
        }
        self.seen.clear();
        self.max_start_seen = f64::NEG_INFINITY;
        out
    }

    /// Decide the front pending transaction: a boundary when more than
    /// `N_min` transactions start within `W` of it and more than `δ_min` of
    /// them are on servers unseen in the current session.
    fn decide_front(&mut self) -> (R, bool) {
        let t_i = self.pending.front().expect("pending non-empty").borrow().start_s;
        let mut n = 0usize;
        let mut unseen = 0usize;
        for t in &self.pending {
            let t = t.borrow();
            if t.start_s > t_i + self.params.window_s {
                break;
            }
            n += 1;
            if !self.seen.contains(&t.sni) {
                unseen += 1;
            }
        }
        let delta = if n > 0 { unseen as f64 / n as f64 } else { 0.0 };
        let is_new = n > self.params.n_min && delta > self.params.delta_min;
        if is_new {
            self.seen.clear();
        }
        let f = self.pending.pop_front().expect("pending non-empty");
        self.seen.insert(Arc::clone(&f.borrow().sni));
        (f, is_new)
    }
}

impl<R: Borrow<TlsTransactionRecord>> Default for IncrementalSessionDetector<R> {
    fn default() -> Self {
        Self::new(SessionIdParams::default())
    }
}

/// A merged stream of back-to-back sessions with per-transaction truth.
#[derive(Debug, Clone)]
pub struct BackToBackStream {
    /// All transactions, sorted by start time.
    pub transactions: Vec<TlsTransactionRecord>,
    /// True where the transaction is the first of its session.
    pub truth_new: Vec<bool>,
    /// Number of sessions stitched.
    pub session_count: usize,
}

/// Simulate `n_sessions` consecutive sessions of one service, as the paper's
/// "extreme case" where every session is streamed back-to-back (§4.2).
/// `n_sessions == 0` yields an empty stream.
pub fn stitch_sessions(service: ServiceId, n_sessions: usize, seed: u64) -> BackToBackStream {
    if n_sessions == 0 {
        return BackToBackStream { transactions: Vec::new(), truth_new: Vec::new(), session_count: 0 };
    }
    let traces = TraceCorpus::paper_mix(n_sessions, seed ^ 0x0bac_c000_0001);
    let mut tagged: Vec<(TlsTransactionRecord, bool)> = Vec::new();
    let mut offset = 0.0f64;
    for (i, entry) in traces.entries().iter().enumerate() {
        let cfg = SessionConfig {
            service,
            trace: entry.trace.clone(),
            kind: entry.kind,
            watch_duration_s: entry.watch_duration_s,
            seed: seed.wrapping_mul(0x1_0000_001b_3000 >> 12).wrapping_add(i as u64),
            capture_packets: false,
        };
        let session = simulate_session(&cfg);
        let mut txs = session.telemetry.tls.into_transactions();
        txs.sort_by(|a, b| a.start_s.total_cmp(&b.start_s));
        for (j, mut t) in txs.into_iter().enumerate() {
            t.start_s += offset;
            t.end_s += offset;
            tagged.push((t, j == 0));
        }
        // The next session begins right after this one's player closed
        // (back-to-back), with a small click-through gap.
        offset += session.ground_truth.wall_duration_s.max(1.0) + 0.5;
    }
    tagged.sort_by(|a, b| a.0.start_s.total_cmp(&b.0.start_s));
    let truth_new = tagged.iter().map(|(_, n)| *n).collect();
    let transactions = tagged.into_iter().map(|(t, _)| t).collect();
    BackToBackStream { transactions, truth_new, session_count: n_sessions }
}

/// Evaluate the heuristic on a stitched stream: a 2-class confusion matrix
/// with class 0 = "existing", class 1 = "new" (paper Table 5).
pub fn evaluate_splitter(stream: &BackToBackStream, params: SessionIdParams) -> ConfusionMatrix {
    let splitter = SessionSplitter::new(params);
    let predicted = splitter.detect(&stream.transactions);
    let mut cm = ConfusionMatrix::new(2);
    for (&truth, &pred) in stream.truth_new.iter().zip(&predicted) {
        cm.record(usize::from(truth), usize::from(pred));
    }
    cm
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx(start: f64, sni: &str) -> TlsTransactionRecord {
        TlsTransactionRecord {
            start_s: start,
            end_s: start + 30.0,
            up_bytes: 500.0,
            down_bytes: 50_000.0,
            sni: Arc::from(sni),
        }
    }

    #[test]
    fn burst_of_new_servers_triggers_boundary() {
        // Session 1 on hosts a/b, then at t=100 a burst on hosts c/d/e.
        let stream = vec![
            tx(0.0, "a"),
            tx(0.5, "b"),
            tx(50.0, "a"),
            tx(100.0, "c"),
            tx(100.8, "d"),
            tx(101.5, "e"),
        ];
        let det = SessionSplitter::default().detect(&stream);
        assert!(det[3], "boundary at the burst start: {det:?}");
        assert!(!det[4] && !det[5], "burst tail is not re-flagged");
        assert!(!det[1] && !det[2]);
    }

    #[test]
    fn same_servers_do_not_split() {
        // Mid-session burst on already-seen hosts (e.g. quality switch):
        let stream = vec![
            tx(0.0, "a"),
            tx(0.5, "b"),
            tx(0.9, "c"),
            tx(60.0, "a"),
            tx(60.5, "b"),
            tx(61.0, "c"),
        ];
        let det = SessionSplitter::default().detect(&stream);
        assert!(!det[3] && !det[4] && !det[5], "seen servers must not split: {det:?}");
    }

    #[test]
    fn lone_transaction_never_splits() {
        // Single new-server transaction (CDN redirect) lacks the burst.
        let stream = vec![tx(0.0, "a"), tx(1.0, "b"), tx(2.0, "c"), tx(90.0, "z")];
        let det = SessionSplitter::default().detect(&stream);
        assert!(!det[3], "N=1 cannot exceed N_min=2");
    }

    #[test]
    fn split_groups_transactions() {
        let stream = vec![
            tx(0.0, "a"),
            tx(0.4, "b"),
            tx(0.8, "b2"),
            tx(100.0, "c"),
            tx(100.5, "d"),
            tx(101.0, "e"),
            tx(130.0, "c"),
        ];
        let groups = SessionSplitter::default().split(&stream);
        assert_eq!(groups.len(), 2, "{groups:?}");
        assert_eq!(groups[0].len(), 3);
        assert_eq!(groups[1].len(), 4);
    }

    #[test]
    fn unsorted_input_tolerated() {
        // Same burst as burst_of_new_servers_triggers_boundary, shuffled:
        // the verdicts must match the sorted run, mapped to input positions.
        let sorted = [
            tx(0.0, "a"),
            tx(0.5, "b"),
            tx(50.0, "a"),
            tx(100.0, "c"),
            tx(100.8, "d"),
            tx(101.5, "e"),
        ];
        let shuffled = vec![
            sorted[4].clone(),
            sorted[0].clone(),
            sorted[3].clone(),
            sorted[5].clone(),
            sorted[1].clone(),
            sorted[2].clone(),
        ];
        let det = SessionSplitter::default().detect(&shuffled);
        assert_eq!(det, vec![false, false, true, false, false, false], "{det:?}");
    }

    /// `detect` on `stream` must give each position the verdict its record
    /// gets in a run over the stable start-sorted stream.
    fn assert_verdicts_follow_sorted_run(stream: &[TlsTransactionRecord]) -> Vec<bool> {
        let mut order: Vec<usize> = (0..stream.len()).collect();
        order.sort_by(|&a, &b| stream[a].start_s.total_cmp(&stream[b].start_s));
        let sorted: Vec<TlsTransactionRecord> = order.iter().map(|&i| stream[i].clone()).collect();
        let sorted_verdicts = SessionSplitter::default().detect(&sorted);
        let mut want = vec![false; stream.len()];
        for (pos, &i) in order.iter().enumerate() {
            want[i] = sorted_verdicts[pos];
        }
        let got = SessionSplitter::default().detect(stream);
        assert_eq!(got, want);
        got
    }

    #[test]
    fn tiny_start_inversion_is_sorted_exactly() {
        // `d` starts 1e-10 s before `c` but arrives after it, so `d` opens
        // the three-record burst and must carry the boundary verdict; `c`
        // then sees a burst of two, which does not exceed N_min.
        let stream = vec![
            tx(0.0, "a"),
            tx(0.5, "b"),
            tx(50.0, "a"),
            tx(100.0, "c"),
            tx(100.0 - 1e-10, "d"),
            tx(100.8, "e"),
        ];
        let det = assert_verdicts_follow_sorted_run(&stream);
        assert_eq!(det, vec![false, false, false, false, true, false]);
    }

    #[test]
    fn shuffled_stitched_stream_maps_verdicts_to_positions() {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut stream = stitch_sessions(ServiceId::Svc1, 10, 5).transactions;
        stream.shuffle(&mut rand::rngs::StdRng::seed_from_u64(9));
        let det = assert_verdicts_follow_sorted_run(&stream);
        assert!(det.iter().filter(|&&b| b).count() > 1, "boundaries found");
    }

    #[test]
    fn invalid_params_repaired_or_rejected() {
        let bad = SessionIdParams { window_s: f64::NAN, n_min: 2, delta_min: 7.0 };
        assert_eq!(SessionSplitter::try_new(bad).err(), Some(SessionIdError::NonPositiveWindow));
        let repaired = SessionSplitter::new(bad);
        assert_eq!(repaired.params().window_s, 3.0);
        assert_eq!(repaired.params().delta_min, 1.0);
        assert!(SessionSplitter::try_new(SessionIdParams::default()).is_ok());
    }

    /// Replay a sorted stream through the incremental detector, pushing one
    /// record at a time, and return the per-input boundary verdicts.
    fn incremental_verdicts(
        stream: &[TlsTransactionRecord],
        params: SessionIdParams,
    ) -> Vec<bool> {
        let mut det = IncrementalSessionDetector::new(params);
        let mut decided = Vec::new();
        for t in stream {
            det.push(t.clone(), &mut decided);
        }
        decided.extend(det.finish());
        assert_eq!(decided.len(), stream.len());
        for (got, want) in decided.iter().zip(stream) {
            assert_eq!(&got.0, want, "incremental must preserve stream order");
        }
        decided.into_iter().map(|(_, b)| b).collect()
    }

    #[test]
    fn incremental_matches_batch_on_synthetic_streams() {
        let streams = [
            vec![
                tx(0.0, "a"),
                tx(0.5, "b"),
                tx(50.0, "a"),
                tx(100.0, "c"),
                tx(100.8, "d"),
                tx(101.5, "e"),
            ],
            vec![tx(0.0, "a"), tx(1.0, "b"), tx(2.0, "c"), tx(90.0, "z")],
            vec![
                tx(0.0, "a"),
                tx(0.4, "b"),
                tx(0.8, "b2"),
                tx(100.0, "c"),
                tx(100.5, "d"),
                tx(101.0, "e"),
                tx(130.0, "c"),
            ],
            Vec::new(),
        ];
        for stream in &streams {
            let batch = SessionSplitter::default().detect(stream);
            let inc = incremental_verdicts(stream, SessionIdParams::default());
            assert_eq!(inc, batch, "{stream:?}");
        }
    }

    #[test]
    fn incremental_matches_batch_on_stitched_corpora() {
        for (seed, n) in [(3u64, 8usize), (17, 15), (99, 25)] {
            let stream = stitch_sessions(ServiceId::Svc1, n, seed);
            let batch = SessionSplitter::default().detect(&stream.transactions);
            let inc = incremental_verdicts(&stream.transactions, SessionIdParams::default());
            assert_eq!(inc, batch, "seed {seed} n {n}");
        }
    }

    #[test]
    fn incremental_decides_eagerly_once_window_closes() {
        let mut det = IncrementalSessionDetector::default();
        let mut out = Vec::new();
        det.push(tx(0.0, "a"), &mut out);
        det.push(tx(0.5, "b"), &mut out);
        assert!(out.is_empty(), "window W still open");
        assert_eq!(det.pending_len(), 2);
        // A record past 0.0 + W closes the first window.
        det.push(tx(10.0, "c"), &mut out);
        assert_eq!(out.len(), 2, "both early records decidable: {out:?}");
        assert_eq!(det.pending_len(), 1);
        let rest = det.finish();
        assert_eq!(rest.len(), 1);
        assert_eq!(det.pending_len(), 0);
    }

    #[test]
    fn incremental_tolerates_disorder_among_pending() {
        // b arrives after c but starts earlier; both still pending, so the
        // detector re-sorts and the verdicts match the batch sorted view.
        let sorted =
            vec![tx(0.0, "a"), tx(1.0, "b"), tx(1.5, "c"), tx(40.0, "d"), tx(41.0, "e"), tx(41.5, "f")];
        let batch = SessionSplitter::default().detect(&sorted);
        let mut det = IncrementalSessionDetector::default();
        let mut decided = Vec::new();
        for i in [0usize, 2, 1, 3, 5, 4] {
            det.push(sorted[i].clone(), &mut decided);
        }
        decided.extend(det.finish());
        let got: Vec<bool> = decided.iter().map(|(_, b)| *b).collect();
        assert_eq!(got, batch);
    }

    #[test]
    fn zero_sessions_is_empty_stream() {
        let stream = stitch_sessions(ServiceId::Svc1, 0, 1);
        assert!(stream.transactions.is_empty());
        assert_eq!(stream.session_count, 0);
    }

    #[test]
    fn stitched_stream_has_sane_truth() {
        let stream = stitch_sessions(ServiceId::Svc1, 5, 42);
        assert_eq!(stream.session_count, 5);
        assert_eq!(stream.truth_new.iter().filter(|&&b| b).count(), 5);
        assert!(stream.transactions.len() > 10);
        for w in stream.transactions.windows(2) {
            assert!(w[0].start_s <= w[1].start_s);
        }
    }

    #[test]
    fn heuristic_beats_nothing_on_stitched_sessions() {
        let stream = stitch_sessions(ServiceId::Svc1, 12, 7);
        let cm = evaluate_splitter(&stream, SessionIdParams::default());
        // Recall for "new" (class 1) must beat 0.5; false-split rate on
        // "existing" must stay under 20%.
        assert!(cm.recall(1) > 0.5, "new-session recall {}", cm.recall(1));
        assert!(cm.recall(0) > 0.8, "existing recall {}", cm.recall(0));
    }
}

//! Differential harness: the streaming engine must be indistinguishable
//! from the batch pipeline.
//!
//! Stitched back-to-back corpora are replayed through [`StreamEngine`] and
//! through the offline path (`SessionSplitter::split` →
//! `extract_tls_features_batch` → `QoeEstimator`); session boundaries,
//! feature vectors (bitwise), probabilities (bitwise), and predicted
//! classes must be identical — at one worker thread and at four.
//!
//! Most tests disable idle expiry (huge timeout) so the only close reasons
//! are detected boundaries and the final flush, exactly mirroring the
//! offline grouping. `idle_expiry_matches_batch_cut_at_idle_gaps` turns it
//! on and gives the batch reference the engine's idle rule.

use drop_the_packets::core::sessionid::stitch_sessions;
use drop_the_packets::core::{
    QoeEstimator, QoeMetricKind, ServiceId, SessionIdParams, SessionSplitter, DatasetBuilder,
};
use drop_the_packets::features::extract_tls_features_batch;
use drop_the_packets::stream::{CloseReason, SessionVerdict, StreamConfig, StreamEngine};
use drop_the_packets::telemetry::TlsTransactionRecord;

fn trained_estimator() -> QoeEstimator {
    let corpus = DatasetBuilder::new(ServiceId::Svc1).sessions(40).seed(11).build();
    QoeEstimator::train(&corpus, QoeMetricKind::Combined, 0)
}

/// Replay-faithful config: no idle expiry, boundary decisions only.
fn replay_config() -> StreamConfig {
    StreamConfig {
        idle_timeout_s: 1e9,
        ..StreamConfig::default()
    }
}

/// The batch pipeline's view of a stitched stream: per-session
/// (transactions, feature bits, proba bits, predicted index).
#[allow(clippy::type_complexity)]
fn batch_reference(
    est: &QoeEstimator,
    transactions: &[TlsTransactionRecord],
) -> Vec<(usize, Vec<u64>, Vec<u64>, usize)> {
    let splitter = SessionSplitter::default();
    let sessions = splitter.split(transactions);
    let rows = extract_tls_features_batch(&sessions);
    let probas = est.predict_proba_features_batch(&rows);
    sessions
        .iter()
        .zip(&rows)
        .zip(&probas)
        .map(|((s, row), proba)| {
            (
                s.len(),
                row.iter().map(|v| v.to_bits()).collect(),
                proba.iter().map(|v| v.to_bits()).collect(),
                est.predict_index_features(row),
            )
        })
        .collect()
}

fn stream_replay(
    est: QoeEstimator,
    cfg: StreamConfig,
    transactions: &[TlsTransactionRecord],
) -> Vec<SessionVerdict> {
    let mut eng = StreamEngine::new(est, cfg).expect("valid config");
    let mut verdicts = Vec::new();
    for rec in transactions {
        verdicts.extend(eng.push("replay-client", rec.clone()));
    }
    verdicts.extend(eng.finish());
    assert_eq!(
        eng.ingest_stats().quarantined,
        0,
        "simulated records must pass the shared ingest policy"
    );
    assert_eq!(eng.stats().late_dropped, 0, "in-order replay has no late records");
    verdicts
}

fn assert_stream_matches_batch(transactions: &[TlsTransactionRecord], label: &str) {
    let est = trained_estimator();
    let want = batch_reference(&est, transactions);
    let verdicts = stream_replay(trained_estimator(), replay_config(), transactions);
    assert_eq!(verdicts.len(), want.len(), "{label}: session count");
    for (i, (v, (txs, feat_bits, proba_bits, predicted))) in
        verdicts.iter().zip(&want).enumerate()
    {
        assert_eq!(v.ordinal, i, "{label}: emission order is session order");
        assert_eq!(v.transactions, *txs, "{label}: session {i} transaction count");
        let got_feat: Vec<u64> = v.features.iter().map(|x| x.to_bits()).collect();
        assert_eq!(&got_feat, feat_bits, "{label}: session {i} features not bitwise equal");
        let got_proba: Vec<u64> = v.probabilities.iter().map(|x| x.to_bits()).collect();
        assert_eq!(&got_proba, proba_bits, "{label}: session {i} probabilities");
        assert_eq!(v.predicted, *predicted, "{label}: session {i} predicted class");
        if i + 1 == want.len() {
            assert_eq!(v.reason, CloseReason::Flush, "{label}: last session closes on flush");
        } else {
            assert_eq!(v.reason, CloseReason::Boundary, "{label}: interior closes on boundary");
        }
    }
}

#[test]
fn streaming_matches_batch_on_small_corpora() {
    for (service, sessions, seed) in [
        (ServiceId::Svc1, 5, 21u64),
        (ServiceId::Svc2, 8, 22),
        (ServiceId::Svc3, 12, 23),
    ] {
        let stream = stitch_sessions(service, sessions, seed);
        assert_stream_matches_batch(
            &stream.transactions,
            &format!("{service:?}/{sessions}x{seed}"),
        );
    }
}

#[test]
fn streaming_matches_batch_on_200_session_corpus_at_1_and_4_threads() {
    // The acceptance-criteria corpus: 200 stitched sessions, checked
    // bitwise at both thread counts.
    let stream = stitch_sessions(ServiceId::Svc1, 200, 77);
    dtp_par::with_threads(1, || {
        assert_stream_matches_batch(&stream.transactions, "200-session corpus, 1 thread");
    });
    dtp_par::with_threads(4, || {
        assert_stream_matches_batch(&stream.transactions, "200-session corpus, 4 threads");
    });
}

#[test]
fn interleaved_clients_each_match_their_own_batch_pipeline() {
    // Three clients with distinct corpora, records interleaved by event
    // time into one engine: per-client verdict streams must still match
    // the per-client batch pipelines. The engine serves the model as it is
    // deployed, through `to_json` → `from_json`; the batch reference keeps
    // the trained estimator.
    let est = trained_estimator();
    let deployed = QoeEstimator::from_json(&est.to_json()).expect("model round-trips");
    assert_eq!(deployed.model_digest(), est.model_digest(), "deploy path changed the model");
    let corpora: Vec<(String, Vec<TlsTransactionRecord>)> = [(3usize, 31u64), (4, 32), (5, 33)]
        .iter()
        .enumerate()
        .map(|(i, &(n, seed))| {
            (format!("client-{i}"), stitch_sessions(ServiceId::Svc1, n, seed).transactions)
        })
        .collect();

    // Merge by start time (stable across clients by index order).
    let mut merged: Vec<(usize, TlsTransactionRecord)> = Vec::new();
    for (i, (_, txs)) in corpora.iter().enumerate() {
        merged.extend(txs.iter().cloned().map(|t| (i, t)));
    }
    merged.sort_by(|a, b| a.1.start_s.total_cmp(&b.1.start_s).then(a.0.cmp(&b.0)));

    let mut eng = StreamEngine::new(deployed, replay_config()).expect("valid config");
    let mut verdicts = Vec::new();
    for (i, rec) in merged {
        verdicts.extend(eng.push(&corpora[i].0, rec));
    }
    verdicts.extend(eng.finish());
    assert_eq!(verdicts.len(), eng.stats().sessions_emitted, "verdicts match the engine tally");
    assert_eq!(eng.stats().late_dropped, 0, "an event-time merge has no late records");
    assert_eq!(eng.ingest_stats().quarantined, 0, "simulated records are clean");

    for (client, txs) in &corpora {
        let want = batch_reference(&est, txs);
        let got: Vec<&SessionVerdict> =
            verdicts.iter().filter(|v| &*v.client == client.as_str()).collect();
        assert_eq!(got.len(), want.len(), "{client}: session count");
        for (i, (v, (n_txs, feat_bits, proba_bits, predicted))) in
            got.iter().zip(&want).enumerate()
        {
            assert_eq!(v.ordinal, i, "{client}: ordinal");
            assert_eq!(v.transactions, *n_txs, "{client}: session {i} size");
            let got_feat: Vec<u64> = v.features.iter().map(|x| x.to_bits()).collect();
            assert_eq!(&got_feat, feat_bits, "{client}: session {i} features");
            let got_proba: Vec<u64> = v.probabilities.iter().map(|x| x.to_bits()).collect();
            assert_eq!(&got_proba, proba_bits, "{client}: session {i} probabilities");
            assert_eq!(v.predicted, *predicted, "{client}: session {i} prediction");
        }
    }
}

#[test]
fn tolerated_disorder_does_not_change_verdicts() {
    // Swap adjacent records that are within the reorder window: the engine
    // must re-order them internally and emit the same verdict stream.
    let stream = stitch_sessions(ServiceId::Svc2, 10, 55);
    let mut shuffled = stream.transactions.clone();
    let mut i = 1;
    while i < shuffled.len() {
        let gap = shuffled[i].start_s - shuffled[i - 1].start_s;
        // Strictly positive gap: swapping equal-start records would change
        // their tie order, which is arrival order by contract.
        if gap > 0.0 && gap < 1.0 {
            shuffled.swap(i - 1, i);
            i += 2; // don't move the same record twice
        } else {
            i += 1;
        }
    }
    assert_ne!(
        stream
            .transactions
            .iter()
            .map(|t| t.start_s.to_bits())
            .collect::<Vec<_>>(),
        shuffled.iter().map(|t| t.start_s.to_bits()).collect::<Vec<_>>(),
        "shuffle must actually perturb the stream"
    );

    let cfg = StreamConfig { reorder_window_s: 2.0, ..replay_config() };
    let est = trained_estimator();
    let want = batch_reference(&est, &stream.transactions);
    let verdicts = stream_replay(trained_estimator(), cfg, &shuffled);
    assert_eq!(verdicts.len(), want.len(), "disorder: session count");
    for (i, (v, (n_txs, feat_bits, _, predicted))) in verdicts.iter().zip(&want).enumerate() {
        assert_eq!(v.transactions, *n_txs, "disorder: session {i} size");
        let got_feat: Vec<u64> = v.features.iter().map(|x| x.to_bits()).collect();
        assert_eq!(&got_feat, feat_bits, "disorder: session {i} features");
        assert_eq!(v.predicted, *predicted, "disorder: session {i} prediction");
    }
}

/// Stream = batch with idle expiry on, at the tightest legal timeout
/// (`idle_timeout_s` = the session window `W`).
///
/// The engine's rule for an in-order feed: a client's session closes by
/// idle exactly where two consecutive `start_s` of that client differ by
/// more than `idle_timeout_s + reorder_window_s`, whatever the other
/// clients do. So the batch reference cuts each client's records at those
/// gaps and runs `SessionSplitter::split` → `extract_tls_features_batch` →
/// predict on every piece. Each client's verdicts must match in order, bit
/// for bit, with every piece's interior sessions closed by a boundary and
/// its last by idle expiry — except the client's final piece, which closes
/// by idle only if the feed's last watermark passed it by the timeout, and
/// otherwise by the final flush.
///
/// Ordinals are not compared: an expired client's tracker is dropped, so
/// its ordinals restart at 0 when it returns. Keeping them needs memory of
/// departed clients, which belongs with a bound on tracked clients.
#[test]
fn idle_expiry_matches_batch_cut_at_idle_gaps() {
    let est = trained_estimator();
    let cfg = StreamConfig {
        idle_timeout_s: SessionIdParams::default().window_s,
        micro_batch: 4,
        ..StreamConfig::default()
    };
    let idle_gap_s = cfg.idle_timeout_s + cfg.reorder_window_s;
    let corpora: Vec<(String, Vec<TlsTransactionRecord>)> = [
        (ServiceId::Svc1, 10usize, 61u64),
        (ServiceId::Svc2, 12, 62),
        (ServiceId::Svc3, 10, 63),
        (ServiceId::Svc1, 8, 64),
    ]
    .iter()
    .enumerate()
    .map(|(i, &(service, n, seed))| {
        (format!("client-{i}"), stitch_sessions(service, n, seed).transactions)
    })
    .collect();
    let mut merged: Vec<(usize, TlsTransactionRecord)> = Vec::new();
    for (i, (_, txs)) in corpora.iter().enumerate() {
        merged.extend(txs.iter().cloned().map(|t| (i, t)));
    }
    merged.sort_by(|a, b| a.1.start_s.total_cmp(&b.1.start_s).then(a.0.cmp(&b.0)));
    let last_watermark = merged.last().expect("non-empty feed").1.start_s - cfg.reorder_window_s;

    let run = || {
        let mut eng = StreamEngine::new(est.clone(), cfg).expect("valid config");
        let mut verdicts = Vec::new();
        for (i, rec) in &merged {
            verdicts.extend(eng.push(&corpora[*i].0, rec.clone()));
        }
        verdicts.extend(eng.finish());
        assert_eq!(eng.stats().late_dropped, 0, "an event-time merge has no late records");
        (verdicts, *eng.stats())
    };
    let (verdicts, stats) = dtp_par::with_threads(1, run);
    let (verdicts_4, _) = dtp_par::with_threads(4, run);
    let bits = |vs: &[SessionVerdict]| -> Vec<(String, Vec<u64>)> {
        vs.iter()
            .map(|v| (v.client.to_string(), v.probabilities.iter().map(|p| p.to_bits()).collect()))
            .collect()
    };
    assert_eq!(bits(&verdicts), bits(&verdicts_4), "verdict stream depends on thread count");

    let mut idle_closes = 0;
    for (client, txs) in &corpora {
        let pieces: Vec<&[TlsTransactionRecord]> =
            txs.chunk_by(|a, b| b.start_s - a.start_s <= idle_gap_s).collect();
        assert!(pieces.len() >= 3, "{client}: only {} idle gaps", pieces.len() - 1);

        let mut want = Vec::new();
        for (p, piece) in pieces.iter().enumerate() {
            let sessions = batch_reference(&est, piece);
            let last_reason = if p + 1 < pieces.len()
                || last_watermark - piece.last().expect("non-empty piece").start_s
                    > cfg.idle_timeout_s
            {
                CloseReason::IdleTimeout
            } else {
                CloseReason::Flush
            };
            let n = sessions.len();
            for (i, session) in sessions.into_iter().enumerate() {
                want.push((session, if i + 1 == n { last_reason } else { CloseReason::Boundary }));
            }
        }
        idle_closes += want.iter().filter(|(_, r)| *r == CloseReason::IdleTimeout).count();

        let got: Vec<&SessionVerdict> =
            verdicts.iter().filter(|v| &*v.client == client.as_str()).collect();
        assert_eq!(got.len(), want.len(), "{client}: session count");
        for (i, (v, ((n_txs, feat_bits, proba_bits, predicted), reason))) in
            got.iter().zip(&want).enumerate()
        {
            assert_eq!(v.transactions, *n_txs, "{client}: session {i} size");
            let got_feat: Vec<u64> = v.features.iter().map(|x| x.to_bits()).collect();
            assert_eq!(&got_feat, feat_bits, "{client}: session {i} features");
            let got_proba: Vec<u64> = v.probabilities.iter().map(|x| x.to_bits()).collect();
            assert_eq!(&got_proba, proba_bits, "{client}: session {i} probabilities");
            assert_eq!(v.predicted, *predicted, "{client}: session {i} prediction");
            assert_eq!(v.reason, *reason, "{client}: session {i} close reason");
        }
    }
    assert_eq!(verdicts.len(), stats.sessions_emitted);
    assert_eq!(stats.closed_by_idle, idle_closes, "idle closes");
}

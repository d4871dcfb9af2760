//! Per-layer measurements for traced runs. Each times calls into one
//! layer's public functions from the benchmark's own code, inside a span.
//!
//! Layers a workload does not exercise (packets on both workloads, the
//! stream engine in `paper_offline`) are measured on a small probe built
//! from the same seed, so every traced run reports every layer.

use dtp_core::label::{combined_label, quality_category, rebuffering_label};
use dtp_core::sim::{simulate_session, SessionConfig};
use dtp_core::{Corpus, QoeEstimator, QoeMetricKind, ServiceId, SessionSplitter};
use dtp_features::{
    extract_packet_features_batch, extract_tls_features_batch, packet_feature_names,
};
use dtp_ml::{cross_validate, Dataset, RandomForest};
use dtp_simnet::TraceCorpus;
use dtp_telemetry::{IngestStats, MemoryFootprint, PacketRecord, ProxyLog, TlsTransactionRecord};

use crate::stats::median;
use crate::trace::Tracer;
use crate::{timed, Metrics};

/// Sessions simulated with packet capture by the packet probe.
const PACKET_PROBE_SESSIONS: usize = 24;
/// Packet sessions held in memory at once (about 5 MB of packets each).
const PACKET_CHUNK: usize = 4;
/// Repetitions of the sub-millisecond calls; their median is reported.
const REPS: usize = 5;

/// `telemetry.*` and `sessionid.*`: ingest each client stream through a
/// `ProxyLog` and sort it, then run the boundary detector over it.
pub fn ingest_and_split(
    streams: &[Vec<TlsTransactionRecord>],
    sessions: usize,
    m: &mut Metrics,
    tr: &mut Tracer,
) {
    let mut stats = IngestStats::default();
    let (logs, ingest_s) = timed(|| {
        tr.span("telemetry.ingest", |_| {
            streams
                .iter()
                .map(|s| {
                    let mut log = ProxyLog::new();
                    log.ingest_all(s.iter().cloned());
                    log.sort_by_start();
                    stats.absorb(log.ingest_stats());
                    log
                })
                .collect::<Vec<_>>()
        })
    });
    m.put(
        "telemetry.ingest_us_per_session",
        ingest_s * 1e6 / sessions.max(1) as f64,
    );
    m.put("telemetry.accepted", stats.accepted() as f64);
    m.put("telemetry.repaired", stats.repaired as f64);
    m.put("telemetry.quarantined", stats.quarantined as f64);

    let splitter = SessionSplitter::default();
    let records: usize = logs.iter().map(ProxyLog::len).sum();
    let (boundaries, detect_s) = timed(|| {
        tr.span("sessionid.detect", |_| {
            logs.iter()
                .map(|l| {
                    splitter
                        .detect(l.transactions())
                        .into_iter()
                        .filter(|&b| b)
                        .count()
                })
                .sum::<usize>()
        })
    });
    m.put(
        "sessionid.detect_ns_per_record",
        detect_s * 1e9 / records.max(1) as f64,
    );
    m.put("sessionid.boundaries", boundaries as f64);
}

/// `features.tls_us_per_session`: batch extraction over `sessions`.
pub fn tls_features(sessions: &[Vec<TlsTransactionRecord>], m: &mut Metrics, tr: &mut Tracer) {
    let secs = median_time(REPS, || {
        tr.span("features.extract_tls", |_| {
            extract_tls_features_batch(sessions)
        });
    });
    m.put(
        "features.tls_us_per_session",
        secs * 1e6 / sessions.len().max(1) as f64,
    );
}

/// `ml.predict_*` and `par.speedup.*` on a corpus and a model trained on
/// it. Returns the cross-validation time at the default thread count.
pub fn model_layers(
    corpus: &Corpus,
    model: &QoeEstimator,
    sessions: &[Vec<TlsTransactionRecord>],
    seed: u64,
    m: &mut Metrics,
    tr: &mut Tracer,
) -> f64 {
    let rows: Vec<Vec<f64>> = corpus
        .records
        .iter()
        .map(|r| r.tls_features.clone())
        .collect();
    let batch = &rows[..rows.len().min(64)];
    let b64 = median_time(REPS, || {
        tr.span("ml.predict64", |_| {
            model.predict_proba_features_batch(batch)
        });
    });
    let full = median_time(REPS, || {
        tr.span("ml.predict", |_| model.predict_proba_features_batch(&rows));
    });
    m.put(
        "ml.predict_us_per_row_b64",
        b64 * 1e6 / batch.len().max(1) as f64,
    );
    m.put(
        "ml.predict_us_per_row_full",
        full * 1e6 / rows.len().max(1) as f64,
    );

    let metric = QoeMetricKind::Combined;
    let threads = dtp_par::thread_count();
    let mut speedup = |name: &'static str, reps: usize, work: &dyn Fn()| {
        let serial = median_time(reps, || dtp_par::with_threads(1, work));
        let parallel = median_time(reps, || dtp_par::with_threads(threads, work));
        m.put(name, serial / parallel);
        parallel
    };
    tr.span("par.speedups", |_| {
        speedup("par.speedup.fit", 1, &|| {
            drop(QoeEstimator::train(corpus, metric, seed))
        });
        let cv_s = speedup("par.speedup.cv", 1, &|| {
            drop(QoeEstimator::evaluate(corpus, metric, seed))
        });
        speedup("par.speedup.extract_tls", REPS, &|| {
            drop(extract_tls_features_batch(sessions))
        });
        speedup("par.speedup.predict64", REPS, &|| {
            drop(model.predict_proba_features_batch(batch))
        });
        cv_s
    })
}

/// The packet layers, on a probe of Svc1 sessions simulated with packet
/// capture: `sim.packet_session_ms_p50`, `sim.packets`,
/// `features.packet_ms_per_session`, `features.{tls,packet}_bytes` (mean
/// per session) and `ml.packet_cv_accuracy`.
pub fn packet_probe(seed: u64, m: &mut Metrics, tr: &mut Tracer) {
    let traces = TraceCorpus::paper_mix(PACKET_PROBE_SESSIONS, seed ^ 0x9ac7);
    let (mut sim_ms, mut extract_s) = (Vec::new(), 0.0);
    let (mut packets, mut tls) = (0usize, 0usize);
    let (mut rows, mut labels) = (Vec::new(), Vec::new());
    tr.next_trace();
    tr.span("packet_probe", |tr| {
        for (c, chunk) in traces.entries().chunks(PACKET_CHUNK).enumerate() {
            let mut captures = Vec::with_capacity(chunk.len());
            for (j, e) in chunk.iter().enumerate() {
                let cfg = SessionConfig {
                    service: ServiceId::Svc1,
                    trace: e.trace.clone(),
                    kind: e.kind,
                    watch_duration_s: e.watch_duration_s,
                    seed: dtp_par::task_seed(seed, (c * PACKET_CHUNK + j) as u64),
                    capture_packets: true,
                };
                let (s, secs) = timed(|| tr.span("sim.packet_session", |_| simulate_session(&cfg)));
                sim_ms.push(secs * 1e3);
                packets += s.telemetry.packets.len();
                tls += s.telemetry.tls.len();
                let q = quality_category(&s.ground_truth, &s.profile);
                labels.push(combined_label(q, rebuffering_label(&s.ground_truth)).index());
                captures.push(s.telemetry.packets);
            }
            let (features, secs) = timed(|| {
                tr.span("features.extract_packet", |_| {
                    extract_packet_features_batch(&captures)
                })
            });
            extract_s += secs;
            rows.extend(features);
        }
    });
    let n = PACKET_PROBE_SESSIONS as f64;
    m.put("sim.packet_session_ms_p50", median(&sim_ms));
    m.put("sim.packets", packets as f64);
    m.put("features.packet_ms_per_session", extract_s * 1e3 / n);
    m.put(
        "features.tls_bytes",
        MemoryFootprint::of_records::<TlsTransactionRecord>(tls).bytes as f64 / n,
    );
    m.put(
        "features.packet_bytes",
        MemoryFootprint::of_records::<PacketRecord>(packets).bytes as f64 / n,
    );
    let ds = Dataset::new(rows, labels, packet_feature_names(), 3);
    m.put("ml.packet_cv_accuracy", packet_cv(&ds, seed).accuracy());
}

/// 5-fold cross-validation of the paper's forest on a packet-feature
/// dataset (the packet-view counterpart of `QoeEstimator::evaluate`).
pub fn packet_cv(ds: &Dataset, seed: u64) -> dtp_ml::CvResult {
    cross_validate(ds, 5, seed, || {
        Box::new(RandomForest::new(QoeEstimator::forest_config(seed)))
    })
}

/// The `dtp-par` task and steal counters of the `dtp-obs` registry.
pub fn par_counters() -> (u64, u64) {
    let reg = dtp_obs::global();
    (
        reg.counter("par.tasks").get(),
        reg.counter("par.steals").get(),
    )
}

/// Median wall time of `reps` calls of `f`, seconds.
fn median_time(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps.max(1)).map(|_| timed(&mut f).1).collect();
    median(&times)
}

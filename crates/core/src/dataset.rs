//! Corpus building: the paper's dataset, simulated.
//!
//! The paper collects 2,111 Svc1 / 2,216 Svc2 / 1,440 Svc3 sessions under
//! emulated network conditions (§4.1). [`DatasetBuilder`] reproduces that:
//! a [`dtp_simnet::TraceCorpus`] supplies (trace, watch-duration) pairs, each
//! session is simulated end to end, features are extracted from both
//! telemetry views, labels come from the client ground truth, and the raw
//! telemetry is dropped (streaming-style, as an ISP pipeline must).

use std::time::Instant;

use dtp_features::tls::FeatureGroup;
use dtp_features::{extract_packet_features, extract_tls_features, packet_feature_names};
use dtp_hasplayer::ServiceId;
use dtp_ml::Dataset;
use dtp_simnet::TraceCorpus;

use crate::label::{
    combined_label, quality_category, rebuffering_label, QoeCategory, QoeMetricKind, RebufCategory,
};
use crate::sim::{simulate_corpus, SimulatedSession};

/// One simulated, feature-extracted, labelled session.
#[derive(Debug, Clone)]
pub struct SessionRecord {
    /// The service streamed.
    pub service: ServiceId,
    /// The 38 TLS features (Table 1).
    pub tls_features: Vec<f64>,
    /// ML16 packet features, when packets were captured.
    pub packet_features: Option<Vec<f64>>,
    /// Ground-truth video-quality category.
    pub quality: QoeCategory,
    /// Ground-truth re-buffering category.
    pub rebuf: RebufCategory,
    /// Ground-truth combined QoE.
    pub combined: QoeCategory,
    /// Exact re-buffering ratio.
    pub rebuffering_ratio: f64,
    /// TLS transactions observed.
    pub tls_count: usize,
    /// Packets observed (0 when capture disabled).
    pub packet_count: usize,
    /// HTTP transactions observed.
    pub http_count: usize,
    /// Configured watch duration, seconds.
    pub watch_duration_s: f64,
    /// Time-average available bandwidth, kbps.
    pub avg_bandwidth_kbps: f64,
}

/// A per-service corpus of feature-extracted sessions.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// The service all sessions belong to.
    pub service: ServiceId,
    /// All session records.
    pub records: Vec<SessionRecord>,
    /// Wall-clock seconds spent in TLS feature extraction (Table 4 overhead).
    pub tls_extraction_s: f64,
    /// Wall-clock seconds spent in packet feature extraction.
    pub packet_extraction_s: f64,
}

impl Corpus {
    /// Number of sessions.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Ground-truth label for `metric` as an ML class index (0 = problem
    /// class).
    pub fn label_of(record: &SessionRecord, metric: QoeMetricKind) -> usize {
        match metric {
            QoeMetricKind::Rebuffering => record.rebuf.index(),
            QoeMetricKind::VideoQuality => record.quality.index(),
            QoeMetricKind::Combined => record.combined.index(),
        }
    }

    /// Assemble the TLS-feature dataset for `metric` (full 38 features).
    pub fn tls_dataset(&self, metric: QoeMetricKind) -> Dataset {
        self.tls_dataset_group(metric, FeatureGroup::Full)
    }

    /// Assemble a TLS-feature dataset restricted to a Table 3 feature group.
    pub fn tls_dataset_group(&self, metric: QoeMetricKind, group: FeatureGroup) -> Dataset {
        let k = group.len();
        let features = self.records.iter().map(|r| r.tls_features[..k].to_vec()).collect();
        let labels = self.records.iter().map(|r| Self::label_of(r, metric)).collect();
        Dataset::new(features, labels, group.names(), 3)
    }

    /// Assemble the ML16 packet-feature dataset, if packets were captured
    /// for every session.
    pub fn packet_dataset(&self, metric: QoeMetricKind) -> Option<Dataset> {
        let mut features = Vec::with_capacity(self.records.len());
        for r in &self.records {
            features.push(r.packet_features.clone()?);
        }
        let labels = self.records.iter().map(|r| Self::label_of(r, metric)).collect();
        Some(Dataset::new(features, labels, packet_feature_names(), 3))
    }

    /// Distribution of a metric's classes as fractions, problem class first
    /// (Fig. 4).
    pub fn label_distribution(&self, metric: QoeMetricKind) -> [f64; 3] {
        let mut counts = [0usize; 3];
        for r in &self.records {
            counts[Self::label_of(r, metric)] += 1;
        }
        let n = self.records.len().max(1) as f64;
        [counts[0] as f64 / n, counts[1] as f64 / n, counts[2] as f64 / n]
    }

    /// Mean records per session: `(packets, tls transactions, http
    /// transactions)` — the paper's overhead statistics (§4.2).
    pub fn mean_record_counts(&self) -> (f64, f64, f64) {
        let n = self.records.len().max(1) as f64;
        let p: usize = self.records.iter().map(|r| r.packet_count).sum();
        let t: usize = self.records.iter().map(|r| r.tls_count).sum();
        let h: usize = self.records.iter().map(|r| r.http_count).sum();
        (p as f64 / n, t as f64 / n, h as f64 / n)
    }
}

/// Builder for paper-style corpora.
#[derive(Debug, Clone)]
pub struct DatasetBuilder {
    service: ServiceId,
    sessions: usize,
    seed: u64,
    capture_packets: bool,
}

impl DatasetBuilder {
    /// Builder with defaults: 200 sessions, seed 0, no packet capture.
    /// Sessions are simulated on `dtp-par` workers (`DTP_THREADS`); the
    /// corpus is the same at any thread count.
    pub fn new(service: ServiceId) -> Self {
        Self { service, sessions: 200, seed: 0, capture_packets: false }
    }

    /// The paper's session count for this service (2111/2216/1440).
    pub fn paper_sized(service: ServiceId) -> Self {
        let n = match service {
            ServiceId::Svc1 => 2111,
            ServiceId::Svc2 => 2216,
            ServiceId::Svc3 => 1440,
        };
        Self::new(service).sessions(n)
    }

    /// Set the number of sessions.
    pub fn sessions(mut self, n: usize) -> Self {
        assert!(n > 0, "corpus needs sessions");
        self.sessions = n;
        self
    }

    /// Set the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enable packet-trace capture + ML16 feature extraction.
    pub fn capture_packets(mut self, yes: bool) -> Self {
        self.capture_packets = yes;
        self
    }

    /// Simulate, extract, and label the corpus.
    pub fn build(&self) -> Corpus {
        let _span = dtp_obs::span!("dataset.build");
        let (seed, salt, capture) = (self.seed, service_salt(self.service), self.capture_packets);
        let traces = {
            let _g = dtp_obs::span!("generate");
            TraceCorpus::paper_mix(self.sessions, seed ^ salt)
        };
        let all = simulate_corpus(
            self.service,
            &traces,
            capture,
            |i| seed.wrapping_mul(0x9e37_79b9).wrapping_add(i).wrapping_mul(0x85eb_ca6b) ^ salt,
            |session| record_of(session, capture),
        );

        let mut records = Vec::with_capacity(self.sessions);
        let mut tls_extraction_s = 0.0;
        let mut packet_extraction_s = 0.0;
        for (rec, t_tls, t_pkt) in all {
            records.push(rec);
            tls_extraction_s += t_tls;
            packet_extraction_s += t_pkt;
        }
        Corpus { service: self.service, records, tls_extraction_s, packet_extraction_s }
    }
}

fn service_salt(service: ServiceId) -> u64 {
    match service {
        ServiceId::Svc1 => 0x01,
        ServiceId::Svc2 => 0x02,
        ServiceId::Svc3 => 0x03,
    }
}

/// Extract, time and label one simulated session.
fn record_of(session: SimulatedSession, capture_packets: bool) -> (SessionRecord, f64, f64) {
    let t0 = Instant::now();
    let tls_features = extract_tls_features(session.telemetry.tls.transactions());
    let tls_s = t0.elapsed().as_secs_f64();

    let (packet_features, pkt_s) = if capture_packets {
        let t1 = Instant::now();
        let f = extract_packet_features(&session.telemetry.packets);
        (Some(f), t1.elapsed().as_secs_f64())
    } else {
        (None, 0.0)
    };

    let quality = quality_category(&session.ground_truth, &session.profile);
    let rebuf = rebuffering_label(&session.ground_truth);
    let record = SessionRecord {
        service: session.service,
        tls_features,
        packet_features,
        quality,
        rebuf,
        combined: combined_label(quality, rebuf),
        rebuffering_ratio: session.ground_truth.rebuffering_ratio(),
        tls_count: session.telemetry.tls.len(),
        packet_count: session.telemetry.packets.len(),
        http_count: session.telemetry.http.len(),
        watch_duration_s: session.watch_duration_s,
        avg_bandwidth_kbps: session.avg_bandwidth_kbps,
    };
    (record, tls_s, pkt_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_corpus_builds_and_labels() {
        let corpus = DatasetBuilder::new(ServiceId::Svc1).sessions(30).seed(1).build();
        assert_eq!(corpus.len(), 30);
        for r in &corpus.records {
            assert_eq!(r.tls_features.len(), dtp_features::tls_feature_names().len());
            assert!(r.tls_count > 0, "every session produces transactions");
            assert_eq!(r.combined, combined_label(r.quality, r.rebuf));
        }
        // Diverse traces should produce diverse combined labels.
        let dist = corpus.label_distribution(QoeMetricKind::Combined);
        assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(dist.iter().filter(|&&d| d > 0.0).count() >= 2, "dist {dist:?}");
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let build = |threads| {
            dtp_par::with_threads(threads, || {
                DatasetBuilder::new(ServiceId::Svc3)
                    .sessions(12)
                    .seed(7)
                    .capture_packets(true)
                    .build()
            })
        };
        let bits = |xs: &[f64]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let (a, b) = (build(1), build(4));
        assert_eq!(a.len(), b.len());
        for (ra, rb) in a.records.iter().zip(&b.records) {
            assert_eq!(bits(&ra.tls_features), bits(&rb.tls_features));
            let (pa, pb) = (ra.packet_features.as_ref(), rb.packet_features.as_ref());
            assert_eq!(pa.map(|p| bits(p)), pb.map(|p| bits(p)));
            assert_eq!(ra.combined, rb.combined);
        }
    }

    #[test]
    fn packet_capture_adds_ml16_features() {
        let corpus = DatasetBuilder::new(ServiceId::Svc2)
            .sessions(8)
            .seed(3)
            .capture_packets(true)
            .build();
        for r in &corpus.records {
            let f = r.packet_features.as_ref().expect("packet features present");
            assert_eq!(f.len(), packet_feature_names().len());
            assert!(r.packet_count > 0);
        }
        let ds = corpus.packet_dataset(QoeMetricKind::Combined).expect("complete");
        assert_eq!(ds.len(), 8);
        // The record-count gap the paper reports: packets >> transactions.
        let (pkts, tls, http) = corpus.mean_record_counts();
        assert!(pkts > tls * 50.0, "pkts {pkts} tls {tls}");
        assert!(http > tls, "http {http} tls {tls}");
    }

    #[test]
    fn datasets_respect_feature_groups() {
        let corpus = DatasetBuilder::new(ServiceId::Svc1).sessions(10).seed(5).build();
        let sl = corpus.tls_dataset_group(QoeMetricKind::Combined, FeatureGroup::SessionLevel);
        assert_eq!(sl.n_features(), 4);
        let full = corpus.tls_dataset(QoeMetricKind::Combined);
        assert_eq!(full.n_features(), 38);
        assert_eq!(sl.len(), full.len());
        // Group features are prefixes of the full vector.
        assert_eq!(sl.features[0], full.features[0][..4].to_vec());
    }

    #[test]
    fn without_packet_capture_no_packet_dataset() {
        let corpus = DatasetBuilder::new(ServiceId::Svc1).sessions(5).seed(2).build();
        assert!(corpus.packet_dataset(QoeMetricKind::Combined).is_none());
        let (pkts, _, _) = corpus.mean_record_counts();
        assert_eq!(pkts, 0.0);
    }
}

//! The QoE estimation façade an ISP would deploy.
//!
//! Wraps the winning model (Random Forest over the 38 TLS features) behind
//! a train-once / predict-per-session API, plus the cross-validated
//! evaluation entry point the experiments use.

use dtp_features::extract_tls_features;
use dtp_ml::cv::{cross_validate, CvResult};
use dtp_ml::{Classifier, RandomForest, RandomForestConfig};
use dtp_telemetry::TlsTransactionRecord;
use serde_json::{Map, Value};

use crate::dataset::Corpus;
use crate::label::{QoeCategory, QoeMetricKind};

/// A trained per-service, per-metric QoE estimator.
///
/// `Clone` is cheap relative to training and lets one trained model be
/// deployed to several streaming engines.
#[derive(Clone)]
pub struct QoeEstimator {
    forest: RandomForest,
    metric: QoeMetricKind,
}

impl std::fmt::Debug for QoeEstimator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QoeEstimator").field("metric", &self.metric).finish()
    }
}

impl QoeEstimator {
    /// The forest configuration used throughout the reproduction — the
    /// paper's §4.2 hyperparameters (see [`RandomForestConfig::for_paper`]).
    pub fn forest_config(seed: u64) -> RandomForestConfig {
        RandomForestConfig::for_paper(seed)
    }

    /// Train on a corpus for one QoE metric.
    pub fn train(corpus: &Corpus, metric: QoeMetricKind, seed: u64) -> Self {
        let ds = corpus.tls_dataset(metric);
        let mut forest = RandomForest::new(Self::forest_config(seed));
        forest.fit(&ds.features, &ds.labels, ds.n_classes);
        Self { forest, metric }
    }

    /// The metric this estimator predicts.
    pub fn metric(&self) -> QoeMetricKind {
        self.metric
    }

    /// Predict the class index (0 = problem class) for a session's TLS
    /// transactions.
    pub fn predict_index(&self, transactions: &[TlsTransactionRecord]) -> usize {
        let features = extract_tls_features(transactions);
        self.forest.predict(&features)
    }

    /// Predict the class index from an already-extracted 38-feature vector.
    ///
    /// This is the scoring half of [`QoeEstimator::predict_index`] — same
    /// forest, same tie-breaking — for callers that maintain feature
    /// vectors themselves (the streaming engine's accumulators, cached
    /// corpora).
    pub fn predict_index_features(&self, features: &[f64]) -> usize {
        self.forest.predict(features)
    }

    /// Averaged class probabilities for a micro-batch of feature vectors,
    /// fanned out over the `dtp-par` pool. Row `i` scores `rows[i]`, at any
    /// thread count.
    pub fn predict_proba_features_batch(&self, rows: &[Vec<f64>]) -> Vec<Vec<f64>> {
        self.forest.predict_proba_batch(rows)
    }

    /// A stable content digest of the serialized model (FNV-1a over the
    /// JSON export), for golden fixtures and deploy-time sanity checks: two
    /// estimators with the same digest make identical predictions.
    pub fn model_digest(&self) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.to_json().as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!("{h:016x}")
    }

    /// Predict on the combined/quality scale. For the re-buffering metric,
    /// index 0 still means "high re-buffering" — interpret accordingly.
    pub fn predict_category(&self, transactions: &[TlsTransactionRecord]) -> QoeCategory {
        QoeCategory::from_index(self.predict_index(transactions))
    }

    /// True when the session is predicted to have a video performance issue
    /// (the paper's detection use case).
    pub fn predicts_low_qoe(&self, transactions: &[TlsTransactionRecord]) -> bool {
        self.predict_index(transactions) == 0
    }

    /// 5-fold cross-validated evaluation of the estimator on a corpus —
    /// the paper's protocol (§4.2).
    pub fn evaluate(corpus: &Corpus, metric: QoeMetricKind, seed: u64) -> CvResult {
        let ds = corpus.tls_dataset(metric);
        cross_validate(&ds, 5, seed, move || Box::new(RandomForest::new(Self::forest_config(seed))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;
    use crate::ServiceId;

    #[test]
    fn train_and_predict_round_trip() {
        let corpus = DatasetBuilder::new(ServiceId::Svc1).sessions(40).seed(11).build();
        let est = QoeEstimator::train(&corpus, QoeMetricKind::Combined, 0);
        assert_eq!(est.metric(), QoeMetricKind::Combined);

        // Predict on a fresh simulated session's transactions.
        let cfg = crate::sim::SessionConfig {
            service: ServiceId::Svc1,
            trace: dtp_simnet::BandwidthTrace::constant(4000.0, 400.0),
            kind: dtp_simnet::TraceKind::Lte,
            watch_duration_s: 90.0,
            seed: 999,
            capture_packets: false,
        };
        let session = crate::sim::simulate_session(&cfg);
        let idx = est.predict_index(session.telemetry.tls.transactions());
        assert!(idx < 3);
        let _ = est.predict_category(session.telemetry.tls.transactions());
        let _ = est.predicts_low_qoe(session.telemetry.tls.transactions());
    }

    #[test]
    fn feature_level_prediction_matches_transaction_level() {
        let corpus = DatasetBuilder::new(ServiceId::Svc1).sessions(30).seed(5).build();
        let est = QoeEstimator::train(&corpus, QoeMetricKind::Combined, 0);
        let rows: Vec<Vec<f64>> = corpus.records.iter().map(|r| r.tls_features.clone()).collect();
        let probas = est.predict_proba_features_batch(&rows);
        assert_eq!(probas.len(), rows.len());
        for (row, proba) in rows.iter().zip(&probas) {
            assert_eq!(proba.len(), 3);
            assert!((proba.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            // First-max argmax is the forest's own tie-break convention.
            let mut best = 0;
            for (i, v) in proba.iter().enumerate() {
                if *v > proba[best] {
                    best = i;
                }
            }
            assert_eq!(est.predict_index_features(row), best);
        }
        let digest = est.model_digest();
        assert_eq!(digest.len(), 16);
        assert_eq!(digest, est.model_digest(), "digest is stable");
        let restored = QoeEstimator::from_json(&est.to_json()).unwrap();
        assert_eq!(restored.model_digest(), digest, "digest survives round-trip");
    }

    #[test]
    fn evaluation_reports_all_sessions() {
        let corpus = DatasetBuilder::new(ServiceId::Svc2).sessions(60).seed(13).build();
        let res = QoeEstimator::evaluate(&corpus, QoeMetricKind::Combined, 0);
        assert_eq!(res.confusion.total(), 60);
        assert!(res.accuracy() > 1.0 / 3.0, "better than chance: {}", res.accuracy());
    }
}

/// The model artifact's format tag. Files without it (the derived v1
/// layout) are refused.
const MODEL_FORMAT: &str = "dtp.model.v2";

impl QoeEstimator {
    /// Export the trained model: train centrally, deploy at the proxy.
    ///
    /// The artifact is one JSON object: `format` (`"dtp.model.v2"`),
    /// `metric` (the [`QoeMetricKind`] variant name), `feature_names` (the
    /// 38 TLS feature columns, in order) and `forest` (see
    /// [`RandomForest::to_value`]). The text is canonical:
    /// [`model_digest`](Self::model_digest) hashes it.
    pub fn to_json(&self) -> String {
        let mut doc = Map::new();
        doc.insert("format".into(), Value::String(MODEL_FORMAT.into()));
        doc.insert("metric".into(), Value::String(format!("{:?}", self.metric)));
        let names = dtp_features::tls_feature_names();
        doc.insert("feature_names".into(), serde_json::to_value(&names));
        // Inserted by value: `json!` would deep-copy the whole forest.
        doc.insert("forest".into(), self.forest.to_value());
        Value::Object(doc).to_string()
    }

    /// Restore a trained model from [`to_json`](Self::to_json) text.
    ///
    /// # Errors
    /// Refuses, without panicking or allocating beyond the input's size,
    /// any text that is not a well-formed artifact of this build: a wrong
    /// or missing format tag, an unknown metric, feature names other than
    /// this build's 38, a forest whose `n_classes` is not the metric's 3
    /// or whose trees could loop, index out of bounds or predict a
    /// non-finite probability (see [`RandomForest::from_value`]).
    pub fn from_json(json: &str) -> Result<Self, String> {
        let doc: Value = serde_json::from_str(json).map_err(|e| format!("model: {e}"))?;
        let field = |key: &str| doc.as_object().and_then(|d| d.get(key));
        match field("format").and_then(Value::as_str) {
            Some(MODEL_FORMAT) => {}
            Some(other) => return Err(format!("model format {other:?} is not {MODEL_FORMAT:?}")),
            None => {
                return Err(format!(
                    "not a {MODEL_FORMAT} model (files from older builds must be retrained)"
                ))
            }
        }
        let metric = field("metric").and_then(Value::as_str);
        let metric = QoeMetricKind::ALL
            .into_iter()
            .find(|m| Some(format!("{m:?}").as_str()) == metric)
            .ok_or_else(|| format!("model: unknown metric {metric:?}"))?;
        let names = dtp_features::tls_feature_names();
        let names_match = field("feature_names").and_then(Value::as_array).is_some_and(|got| {
            got.len() == names.len() && got.iter().zip(&names).all(|(g, n)| g.as_str() == Some(n))
        });
        if !names_match {
            return Err("model was trained with a different feature schema".to_string());
        }
        let forest = field("forest").ok_or("model: missing `forest`")?;
        // Every metric labels a session with one of three categories.
        let forest = RandomForest::from_value(forest, QoeCategory::ALL.len(), names.len())
            .map_err(|e| format!("model: {e}"))?;
        Ok(Self { forest, metric })
    }
}

#[cfg(test)]
mod persistence_tests {
    use super::*;
    use crate::dataset::DatasetBuilder;
    use crate::ServiceId;

    #[test]
    fn round_trips_through_json() {
        let corpus = DatasetBuilder::new(ServiceId::Svc1).sessions(30).seed(2).build();
        let est = QoeEstimator::train(&corpus, QoeMetricKind::Combined, 0);
        let json = est.to_json();
        let restored = QoeEstimator::from_json(&json).expect("valid model");
        // Identical predictions on the training corpus features.
        let ds = corpus.tls_dataset(QoeMetricKind::Combined);
        for row in &ds.features {
            assert_eq!(est.forest.predict(row), restored.forest.predict(row));
        }
        assert_eq!(restored.metric(), QoeMetricKind::Combined);
    }

    #[test]
    fn rejects_garbage_and_schema_mismatch() {
        assert!(QoeEstimator::from_json("not json").is_err());
        let corpus = DatasetBuilder::new(ServiceId::Svc1).sessions(25).seed(3).build();
        let est = QoeEstimator::train(&corpus, QoeMetricKind::Combined, 0);
        let tampered = |edit: &dyn Fn(&mut Map)| {
            let mut doc: Value = serde_json::from_str(&est.to_json()).unwrap();
            let Value::Object(map) = &mut doc else { unreachable!("artifact is an object") };
            edit(map);
            QoeEstimator::from_json(&doc.to_string())
        };
        assert!(tampered(&|_| {}).is_ok());
        let err = tampered(&|m| {
            let mut names = m.get("feature_names").unwrap().as_array().unwrap().clone();
            names.pop();
            m.insert("feature_names".into(), Value::Array(names));
        });
        assert_eq!(err.unwrap_err(), "model was trained with a different feature schema");
        assert!(tampered(&|m| {
            m.insert("metric".into(), Value::String("Latency".into()));
        })
        .is_err());
        let err = tampered(&|m| {
            m.insert("format".into(), Value::String("dtp.model.v1".into()));
        });
        assert!(err.unwrap_err().contains("dtp.model.v2"));
    }
}

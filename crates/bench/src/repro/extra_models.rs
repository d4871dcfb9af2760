//! §4.2 model-family comparison (results the paper omitted for space).
//!
//! "We tested different ML-based models, namely SVM, k-NN, XGBoost, Random
//! Forest, and Multilayer Perceptron. Here, we present results using Random
//! Forest ... as it yielded the highest accuracy." This experiment runs all five
//! families through the identical 5-fold CV protocol so that claim can be
//! checked.

use crate::{heading, pct, RunConfig, TextTable};
use dtp_core::experiments::model_family_comparison;
use dtp_core::ServiceId;

pub fn run(cfg: &RunConfig) {
    heading("Extra: model-family comparison (Combined QoE, 5-fold CV)");

    let mut json = serde_json::Map::new();
    for svc in ServiceId::ALL {
        let corpus = cfg.tls_corpus(svc);
        let rows = model_family_comparison(corpus, cfg.seed);
        println!("\n{} ({} sessions)", svc.name(), corpus.len());
        let mut table = TextTable::new(&["Model", "Accuracy", "Recall(low)", "Precision(low)"]);
        let mut best = ("", f64::MIN);
        for (name, s) in &rows {
            table.row(&[
                name.to_string(),
                pct(s.accuracy),
                pct(s.recall_low),
                pct(s.precision_low),
            ]);
            if s.accuracy > best.1 {
                best = (name, s.accuracy);
            }
            json.insert(format!("{}/{}", svc.name(), name), crate::scores_json(s));
        }
        table.print();
        println!("  best: {} ({})", best.0, pct(best.1));
    }
    println!("\nPaper: Random Forest yielded the highest accuracy (others omitted for space).");
    if cfg.json {
        println!("{}", serde_json::Value::Object(json));
    }
}

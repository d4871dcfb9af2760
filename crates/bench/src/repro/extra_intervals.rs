//! §3 temporal-interval hyperparameter ablation (results the paper omitted
//! for space).
//!
//! "We explored other intervals (omitted due to lack of space) but found the
//! above to yield the highest accuracy. Regardless, we consider these
//! intervals as one of the hyperparameters of our model." This experiment scores
//! nested subsets of the default interval set {30,60,120,240,480,720,960,
//! 1200}.

use crate::{heading, pct, RunConfig, TextTable};
use dtp_core::experiments::interval_ablation;
use dtp_core::ServiceId;

pub fn run(cfg: &RunConfig) {
    heading("Extra: temporal-interval ablation (Combined QoE, Svc1)");

    let corpus = cfg.tls_corpus(ServiceId::Svc1);
    let sets: [(&str, &[f64]); 5] = [
        ("none (SL+TS only equivalent)", &[]),
        ("{60}", &[60.0]),
        ("{30,60,120}", &[30.0, 60.0, 120.0]),
        ("{60,240,960}", &[60.0, 240.0, 960.0]),
        ("paper set {30..1200}", &[30.0, 60.0, 120.0, 240.0, 480.0, 720.0, 960.0, 1200.0]),
    ];

    let mut table = TextTable::new(&["Interval set", "Accuracy", "Recall(low)", "Precision(low)"]);
    let mut json = serde_json::Map::new();
    for (label, set) in sets {
        let s = interval_ablation(corpus, set, cfg.seed);
        table.row(&[
            label.to_string(),
            pct(s.accuracy),
            pct(s.recall_low),
            pct(s.precision_low),
        ]);
        json.insert(label.to_string(), serde_json::json!({"accuracy": s.accuracy, "recall": s.recall_low}));
    }
    table.print();
    println!(
        "\nPaper: the dense-early interval set {{30,60,120,240,480,720,960,1200}}\n\
         yielded the highest accuracy; early intervals matter because sessions are\n\
         most vulnerable while the buffer is still empty."
    );
    if cfg.json {
        println!("{}", serde_json::Value::Object(json));
    }
}

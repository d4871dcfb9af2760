//! Figure 5: classification accuracy / recall / precision per QoE metric.
//!
//! Paper shape (§4.2): the accuracy metrics "are high for the QoE metric
//! that is more likely to degrade with poor network conditions in a video
//! service" — Svc1: quality recall 68% vs re-buffering recall 21%; Svc2
//! reversed (71% vs 40%); Svc3 in between (63% / 58%). Combined QoE recall
//! 73–85% across all services.

use crate::{arp, heading, scores_json, RunConfig, TextTable};
use dtp_core::experiments::fig5_accuracy;
use dtp_core::ServiceId;

pub fn run(cfg: &RunConfig) {
    heading("Figure 5: Accuracy for different QoE metrics (Random Forest, 5-fold CV)");

    let mut json = serde_json::Map::new();
    for svc in ServiceId::ALL {
        let corpus = cfg.tls_corpus(svc);
        let rows = fig5_accuracy(corpus, cfg.seed);
        println!("\n{} ({} sessions)", svc.name(), corpus.len());
        let mut table = TextTable::new(&[
            "QoE metric",
            "Accuracy",
            "Recall(bad)",
            "Precision(bad)",
            "Support(bad)",
        ]);
        for (metric, s) in &rows {
            table.row(&[
                metric.name().to_string(),
                crate::pct(s.accuracy),
                crate::pct(s.recall_low),
                crate::pct(s.precision_low),
                s.support_low.to_string(),
            ]);
            json.insert(format!("{}/{}", svc.name(), metric.name()), scores_json(s));
        }
        table.print();
        for (metric, s) in &rows {
            println!("  {} -> {}", metric.name(), arp(s));
        }
    }

    println!(
        "\nPaper shape check: Svc1 quality recall >> Svc1 re-buffering recall;\n\
         Svc2 re-buffering recall >> Svc2 quality recall; combined recall high everywhere."
    );
    if cfg.json {
        println!("{}", serde_json::Value::Object(json));
    }
}

//! Table 3: accuracy/recall/precision for growing feature sets.
//!
//! Paper shape: session-level features alone are the weakest; adding
//! transaction statistics gains ~6–12 points of recall; temporal statistics
//! add a little more. "Despite being coarse-granular, TLS transactions
//! within a session can provide useful information about the QoE."

use crate::{heading, pct, RunConfig, TextTable};
use dtp_core::experiments::table3_ablation;
use dtp_core::ServiceId;

pub fn run(cfg: &RunConfig) {
    heading("Table 3: Feature-set ablation (Combined QoE, Random Forest, 5-fold CV)");

    let mut table = TextTable::new(&[
        "Feature set",
        "Svc1 A", "Svc1 R", "Svc1 P",
        "Svc2 A", "Svc2 R", "Svc2 P",
        "Svc3 A", "Svc3 R", "Svc3 P",
    ]);
    let mut per_service = Vec::new();
    for svc in ServiceId::ALL {
        let corpus = cfg.tls_corpus(svc);
        per_service.push(table3_ablation(corpus, cfg.seed));
    }
    let n_groups = per_service[0].len();
    let mut json = serde_json::Map::new();
    for g in 0..n_groups {
        let label = per_service[0][g].0.label().to_string();
        let mut row = vec![label.clone()];
        for (s, svc) in per_service.iter().zip(ServiceId::ALL) {
            let sc = &s[g].1;
            row.push(pct(sc.accuracy));
            row.push(pct(sc.recall_low));
            row.push(pct(sc.precision_low));
            json.insert(
                format!("{}/{}", svc.name(), label),
                serde_json::json!({"accuracy": sc.accuracy, "recall": sc.recall_low, "precision": sc.precision_low}),
            );
        }
        table.row(&row);
    }
    table.print();

    println!(
        "\nPaper: A/R rise monotonically as transaction stats and temporal stats are\n\
         added (e.g. Svc1: 58/61 -> 65/72 -> 69/73)."
    );
    if cfg.json {
        println!("{}", serde_json::Value::Object(json));
    }
}

//! Table 2: confusion matrix for the combined QoE metric on Svc1.
//!
//! Paper shape: strong diagonal for low (72%) and high (84%), weak middle
//! (43%) — "most of the mis-classifications happen between neighboring
//! classes", with medium the hardest class.

use crate::{heading, pct, RunConfig, TextTable};
use dtp_core::experiments::table2_confusion;
use dtp_core::ServiceId;

pub fn run(cfg: &RunConfig) {
    heading("Table 2: Confusion matrix — Svc1, Combined QoE (row-normalized)");

    let corpus = cfg.tls_corpus(ServiceId::Svc1);
    let cm = table2_confusion(corpus, cfg.seed);
    let rows = cm.row_normalized();
    let classes = ["low", "med", "high"];

    let mut table = TextTable::new(&["Actual", "# sessions", "low", "med", "high"]);
    for (i, name) in classes.iter().enumerate() {
        table.row(&[
            name.to_string(),
            cm.actual_count(i).to_string(),
            pct(rows[i][0]),
            pct(rows[i][1]),
            pct(rows[i][2]),
        ]);
    }
    table.print();

    // Neighbor-error structure check: low→high and high→low leakage should
    // be the smallest off-diagonal cells.
    println!(
        "\nneighbor-error check: low→high {} and high→low {} should be the smallest leaks",
        pct(rows[0][2]),
        pct(rows[2][0]),
    );
    println!("paper: low 72/21/8, med 25/43/32, high 5/12/84 — medium hardest");

    if cfg.json {
        let mut per_class = serde_json::Map::new();
        for r in cm.class_reports() {
            per_class.insert(
                classes[r.class].to_string(),
                serde_json::json!({
                    "support": r.support as f64,
                    "recall": r.recall,
                    "precision": r.precision,
                    "f1": r.f1,
                }),
            );
        }
        println!(
            "{}",
            serde_json::json!({
                "counts": cm.counts(),
                "row_normalized": rows,
                "accuracy": cm.accuracy(),
                "per_class": serde_json::Value::Object(per_class),
            })
        );
    }
}

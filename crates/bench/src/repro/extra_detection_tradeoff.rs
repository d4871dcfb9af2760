//! Operating-point tuning for the paper's deployment story.
//!
//! The use case (§1, §4.2) is *adaptive monitoring*: flag low-QoE locations,
//! then spend scarce fine-grained collection capacity there. That makes the
//! detector's threshold an economic knob — this experiment sweeps it, turning
//! the classifier into a recall/precision/flag-budget tradeoff curve.

use crate::{heading, pct, RunConfig, TextTable};
use dtp_core::experiments::detection_tradeoff;
use dtp_core::ServiceId;

pub fn run(cfg: &RunConfig) {
    heading("Extra: low-QoE detection operating points (Svc1, Combined QoE)");

    let corpus = cfg.tls_corpus(ServiceId::Svc1);
    let thresholds = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8];
    let rows = detection_tradeoff(corpus, &thresholds, cfg.seed);

    let mut table = TextTable::new(&[
        "P(low) threshold",
        "Recall(low)",
        "Precision(low)",
        "Sessions flagged",
    ]);
    let mut json = serde_json::Map::new();
    for (thr, recall, precision, flag_rate) in &rows {
        table.row(&[
            format!("{thr:.1}"),
            pct(*recall),
            pct(*precision),
            pct(*flag_rate),
        ]);
        json.insert(
            format!("{thr:.1}"),
            serde_json::json!({"recall": recall, "precision": precision, "flag_rate": flag_rate}),
        );
    }
    table.print();
    println!(
        "\nReading: a capacity-limited ISP can run high-precision (flag few\n\
         locations, almost all real) or high-recall (catch nearly every issue at\n\
         the cost of follow-up volume) from the same trained model."
    );
    if cfg.json {
        println!("{}", serde_json::Value::Object(json));
    }
}

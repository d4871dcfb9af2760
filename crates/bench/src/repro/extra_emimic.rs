//! Extension: three estimation strategies on the same sessions.
//!
//! * **RF on TLS transactions** — the paper's approach: cheapest data,
//!   needs labelled training sessions.
//! * **RF on packet traces (ML16)** — the paper's baseline: most expensive
//!   data, best accuracy.
//! * **eMIMIC on HTTP transactions** — the authors' earlier model-based
//!   approach (\[22\]): training-free player emulation, but HTTP boundaries
//!   for encrypted traffic must be recovered from packet-class data.

use crate::{heading, pct, RunConfig, TextTable};
use dtp_core::experiments::estimation_strategy_comparison;
use dtp_core::ServiceId;

pub fn run(cfg: &RunConfig) {
    heading("Extra: learned vs model-based estimation (Combined QoE)");

    let sessions = cfg.sessions.unwrap_or(600).min(1000);
    let mut json = serde_json::Map::new();
    for svc in ServiceId::ALL {
        println!("\n{} ({} sessions)", svc.name(), sessions);
        let rows = estimation_strategy_comparison(svc, sessions, cfg.seed);
        let mut table =
            TextTable::new(&["Strategy", "Accuracy", "Recall(low)", "Precision(low)"]);
        for (name, s) in &rows {
            table.row(&[
                name.to_string(),
                pct(s.accuracy),
                pct(s.recall_low),
                pct(s.precision_low),
            ]);
            json.insert(
                format!("{}/{}", svc.name(), name),
                serde_json::json!({"accuracy": s.accuracy, "recall": s.recall_low}),
            );
        }
        table.print();
    }
    println!(
        "\nExpected: the learned models bracket eMIMIC — model-based emulation is\n\
         training-free but pays for its fixed assumptions (nominal bitrates,\n\
         fixed segment duration) under codec/content variation."
    );
    if cfg.json {
        println!("{}", serde_json::Value::Object(json));
    }
}

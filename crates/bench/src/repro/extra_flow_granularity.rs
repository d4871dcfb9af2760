//! §5 future-work experiment: NetFlow-style flow records as the input data.
//!
//! The paper conjectures flow records are "similar to TLS transaction data"
//! (one TLS transaction per TCP connection) with an option of periodic
//! exports from long flows, but notes video identification is harder (no
//! SNI). This experiment measures the *accuracy* side of that tradeoff, assuming
//! identification is solved out of band (e.g. DNS augmentation \[7\]).

use crate::{heading, pct, RunConfig, TextTable};
use dtp_core::experiments::flow_granularity_comparison;
use dtp_core::ServiceId;

pub fn run(cfg: &RunConfig) {
    heading("Extra: flow-record granularity vs TLS transactions (Combined QoE)");

    let sessions = cfg.sessions.unwrap_or(600);
    let mut json = serde_json::Map::new();
    for svc in [ServiceId::Svc1, ServiceId::Svc2] {
        println!("\n{} ({} sessions)", svc.name(), sessions);
        let rows = flow_granularity_comparison(svc, sessions, cfg.seed);
        let mut table = TextTable::new(&["Input data", "Accuracy", "Recall(low)", "Precision(low)"]);
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
        "\nExpected: flow records perform close to TLS transactions (same volumetric\n\
         content), and periodic export recovers a little temporal signal — the\n\
         accuracy side of the paper's conjectured tradeoff."
    );
    if cfg.json {
        println!("{}", serde_json::Value::Object(json));
    }
}

//! Limitation §4.3 quantified: inference lag of the proxy view.
//!
//! "TLS transaction information is available from the proxy only after the
//! underlying TLS connection terminates. Therefore, our approach is not
//! suitable for inferring and managing user dissatisfaction in real-time."
//! This experiment measures how accuracy grows with the observation
//! horizon — i.e. how long an ISP must wait before the coarse view becomes
//! informative about the session's (final) combined QoE.

use crate::{heading, pct, RunConfig, TextTable};
use dtp_core::experiments::realtime_lag_curve;
use dtp_core::ServiceId;

pub fn run(cfg: &RunConfig) {
    heading("Extra: accuracy vs observation horizon (Combined QoE, Svc1)");

    let sessions = cfg.sessions.unwrap_or(600).min(1200);
    let horizons = [30.0, 60.0, 120.0, 300.0, 600.0, 1e9];
    let rows = realtime_lag_curve(ServiceId::Svc1, sessions, &horizons, cfg.seed);

    let mut table =
        TextTable::new(&["Observe until (s)", "Accuracy", "Recall(low)", "Precision(low)"]);
    let mut json = serde_json::Map::new();
    for (h, s) in &rows {
        let label = if *h >= 1e9 { "whole session".to_string() } else { format!("{h:.0}") };
        table.row(&[label.clone(), pct(s.accuracy), pct(s.recall_low), pct(s.precision_low)]);
        json.insert(label, serde_json::json!({"accuracy": s.accuracy, "recall": s.recall_low}));
    }
    table.print();

    println!(
        "\nReading: connections that haven't terminated are invisible to the proxy,\n\
         so early horizons see few/no transactions; the approach is inherently\n\
         post-hoc — the paper's stated limitation, quantified."
    );
    if cfg.json {
        println!("{}", serde_json::Value::Object(json));
    }
}

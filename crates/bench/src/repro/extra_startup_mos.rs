//! Extension: estimate the QoE factors the paper lists but does not
//! evaluate (§2.1) — startup delay and a continuous MOS — from the same
//! coarse TLS features.
//!
//! The paper: "QoE in HAS is impacted by a variety of factors, namely,
//! re-buffering, video quality, startup delay, and quality variations",
//! but only the first two (plus their combination) are estimated. Here we
//! check how far the 38 TLS features go on the rest.

use crate::{heading, pct, RunConfig, TextTable};
use dtp_core::experiments::startup_and_mos_experiment;
use dtp_core::ServiceId;

pub fn run(cfg: &RunConfig) {
    heading("Extra: startup-delay and MOS estimation from TLS features");

    let sessions = cfg.sessions.unwrap_or(600).min(1200);
    let mut json = serde_json::Map::new();
    for svc in [ServiceId::Svc1, ServiceId::Svc2] {
        println!("\n{} ({} sessions)", svc.name(), sessions);
        let rows = startup_and_mos_experiment(svc, sessions, cfg.seed);
        let mut table = TextTable::new(&[
            "Target",
            "class mix (bad/mid/good)",
            "Accuracy",
            "Recall(bad)",
            "Precision(bad)",
        ]);
        for (name, s, shares) in &rows {
            table.row(&[
                name.to_string(),
                format!("{} / {} / {}", pct(shares[0]), pct(shares[1]), pct(shares[2])),
                pct(s.accuracy),
                pct(s.recall_low),
                pct(s.precision_low),
            ]);
            json.insert(
                format!("{}/{}", svc.name(), name),
                serde_json::json!({"accuracy": s.accuracy, "recall": s.recall_low, "mix": shares}),
            );
        }
        table.print();
    }
    println!(
        "\nReading: startup delay is partially visible (it correlates with early\n\
         cumulative volume), and the MOS bucket tracks the combined category's\n\
         estimability — coarse data supports more than the paper's three labels."
    );
    if cfg.json {
        println!("{}", serde_json::Value::Object(json));
    }
}

//! Table 5: session-identification confusion matrix on back-to-back
//! sessions.
//!
//! Paper: with W = 3 s, N_min = 2, δ_min = 0.5, the heuristic identifies 89%
//! of session beginnings while flagging only 2% of mid-session transactions
//! as new — on an "extreme case" stream where *every* session is played
//! back-to-back.

use crate::{heading, pct, RunConfig, TextTable};
use dtp_core::sessionid::{evaluate_splitter, stitch_sessions, SessionIdParams};
use dtp_core::ServiceId;

pub fn run(cfg: &RunConfig) {
    heading("Table 5: Session identification on back-to-back sessions (Svc1)");

    let n_sessions = cfg.sessions.unwrap_or(600).min(1500);
    let stream = stitch_sessions(ServiceId::Svc1, n_sessions, cfg.seed);
    let cm = evaluate_splitter(&stream, SessionIdParams::default());
    let rows = cm.row_normalized();

    let mut table =
        TextTable::new(&["Actual", "# transactions", "pred. Existing", "pred. New"]);
    table.row(&[
        "Existing".to_string(),
        cm.actual_count(0).to_string(),
        pct(rows[0][0]),
        pct(rows[0][1]),
    ]);
    table.row(&[
        "New".to_string(),
        cm.actual_count(1).to_string(),
        pct(rows[1][0]),
        pct(rows[1][1]),
    ]);
    table.print();
    println!("paper: Existing 98%/2%, New 11%/89%");

    // Parameter sensitivity (the paper fixes W=3, Nmin=2, dmin=0.5; show why).
    println!("\nParameter sensitivity (new-session recall / existing recall):");
    let mut table = TextTable::new(&["W (s)", "N_min", "delta_min", "new recall", "existing recall"]);
    for (w, n_min, d_min) in [
        (1.5, 2, 0.5),
        (3.0, 2, 0.5),
        (6.0, 2, 0.5),
        (3.0, 1, 0.5),
        (3.0, 3, 0.5),
        (3.0, 2, 0.25),
        (3.0, 2, 0.75),
    ] {
        let params = SessionIdParams { window_s: w, n_min, delta_min: d_min };
        let cm = evaluate_splitter(&stream, params);
        table.row(&[
            format!("{w}"),
            n_min.to_string(),
            format!("{d_min}"),
            pct(cm.recall(1)),
            pct(cm.recall(0)),
        ]);
    }
    table.print();

    if cfg.json {
        println!(
            "{}",
            serde_json::json!({
                "sessions": n_sessions,
                "row_normalized": rows,
                "new_recall": cm.recall(1),
                "existing_recall": cm.recall(0),
            })
        );
    }
}

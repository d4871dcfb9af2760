//! Design-choice ablation: hold everything fixed except the ABR algorithm
//! (and its natural buffer size) and measure the re-buffering mix.
//!
//! This isolates the causal mechanism the paper *infers* from its three
//! services (§4.1): conservative adaptation on a big buffer trades quality
//! for stall avoidance; sticky adaptation on a small buffer trades stalls
//! for quality.

use crate::{heading, pct, RunConfig, TextTable};
use dtp_core::experiments::abr_ablation;

pub fn run(cfg: &RunConfig) {
    heading("Extra: ABR design ablation (same traces, same content, Svc2 chassis)");

    let sessions = cfg.sessions.unwrap_or(600).min(1200);
    let rows = abr_ablation(sessions, cfg.seed);
    let mut table = TextTable::new(&[
        "Player design",
        "rr high",
        "rr mild",
        "rr zero",
        "mean rr",
    ]);
    let mut json = serde_json::Map::new();
    for (name, dist, mean_rr) in &rows {
        table.row(&[
            name.to_string(),
            pct(dist[0]),
            pct(dist[1]),
            pct(dist[2]),
            format!("{:.2}%", mean_rr * 100.0),
        ]);
        json.insert(
            name.to_string(),
            serde_json::json!({"high": dist[0], "mild": dist[1], "zero": dist[2], "mean_rr": mean_rr}),
        );
    }
    table.print();
    println!(
        "\nExpected: the sticky small-buffer design re-buffers the most; the\n\
         conservative big-buffer design the least — the paper's Svc1/Svc2 story\n\
         reproduced as a controlled experiment."
    );
    if cfg.json {
        println!("{}", serde_json::Value::Object(json));
    }
}

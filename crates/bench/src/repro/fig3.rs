//! Figure 3: bandwidth-trace statistics of the emulation corpus.
//!
//! (a) CDF of average bandwidth — spans roughly 10^2..10^5 kbps;
//! (b) distribution of session durations over the 0–1 / 1–2 / 2–5 / 5–20
//! minute buckets.

use crate::{heading, pct, RunConfig, TextTable};
use dtp_simnet::stats::cdf_points;
use dtp_simnet::TraceCorpus;

pub fn run(cfg: &RunConfig) {
    heading("Figure 3: Bandwidth trace statistics");

    let n = cfg.sessions.unwrap_or(2000);
    let corpus = TraceCorpus::paper_mix(n, cfg.seed);

    println!("\n(a) CDF of average bandwidth ({n} traces)");
    let avgs = corpus.average_bandwidth_cdf();
    let pts = cdf_points(&avgs, 10);
    let mut table = TextTable::new(&["CDF", "Average bandwidth (kbps)"]);
    for (p, v) in &pts {
        table.row(&[format!("{:.1}", p), format!("{v:.0}")]);
    }
    table.print();
    println!(
        "span: {:.0} kbps .. {:.0} kbps (paper Fig. 3a spans ~10^2..10^5 kbps)",
        avgs.first().unwrap(),
        avgs.last().unwrap()
    );

    println!("\n(b) Session duration distribution");
    let h = corpus.duration_histogram();
    let mut table = TextTable::new(&["0-1 min", "1-2 min", "2-5 min", "5-20 min"]);
    table.row(&[pct(h[0]), pct(h[1]), pct(h[2]), pct(h[3])]);
    table.print();

    if cfg.json {
        println!(
            "{}",
            serde_json::json!({
                "cdf": pts,
                "duration_histogram": h,
                "min_avg_kbps": avgs.first(),
                "max_avg_kbps": avgs.last(),
            })
        );
    }
}

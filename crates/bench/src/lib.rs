//! # dtp-bench — the paper's reproduction
//!
//! Every table and figure of the paper, and each extension experiment, is
//! one entry of [`EXPERIMENTS`] (see DESIGN.md §4 for the full index). The
//! `dtp-repro` binary runs one of them by name, or `all` of them in order in
//! one process. Every experiment reads the same environment knobs:
//!
//! * `DTP_SESSIONS` — sessions per service (default 600; the paper uses
//!   2111/2216/1440 — set `DTP_SESSIONS=paper` for exact paper sizing),
//! * `DTP_SEED` — corpus seed (default 7),
//! * `DTP_JSON` — when set, also emit machine-readable JSON to stdout.

use std::cell::OnceCell;

use dtp_core::dataset::{Corpus, DatasetBuilder};
use dtp_core::experiments::MetricScores;
use dtp_core::ServiceId;

mod repro {
    pub mod extra_abr_ablation;
    pub mod extra_detection_tradeoff;
    pub mod extra_emimic;
    pub mod extra_flow_granularity;
    pub mod extra_intervals;
    pub mod extra_models;
    pub mod extra_realtime;
    pub mod extra_startup_mos;
    pub mod fig2;
    pub mod fig3;
    pub mod fig4;
    pub mod fig5;
    pub mod fig6;
    pub mod fig7;
    pub mod robustness;
    pub mod table2;
    pub mod table3;
    pub mod table4;
    pub mod table5;
}

/// An experiment's name on the `dtp-repro` command line, and its body.
pub type Experiment = (&'static str, fn(&RunConfig));

/// Every experiment, in the order `dtp-repro all` prints them. The last
/// entry, the robustness sweep, is not a paper artifact and runs only by
/// name.
pub const EXPERIMENTS: [Experiment; 19] = [
    ("fig2", repro::fig2::run),
    ("fig3", repro::fig3::run),
    ("fig4", repro::fig4::run),
    ("fig5", repro::fig5::run),
    ("table2", repro::table2::run),
    ("table3", repro::table3::run),
    ("fig6", repro::fig6::run),
    ("fig7", repro::fig7::run),
    ("table4", repro::table4::run),
    ("table5", repro::table5::run),
    ("extra_models", repro::extra_models::run),
    ("extra_flow_granularity", repro::extra_flow_granularity::run),
    ("extra_abr_ablation", repro::extra_abr_ablation::run),
    ("extra_emimic", repro::extra_emimic::run),
    ("extra_realtime", repro::extra_realtime::run),
    ("extra_startup_mos", repro::extra_startup_mos::run),
    ("extra_detection_tradeoff", repro::extra_detection_tradeoff::run),
    ("extra_intervals", repro::extra_intervals::run),
    ("robustness", repro::robustness::run),
];

/// The experiments `dtp-repro <name>` runs: the one called `name`, or for
/// `all` every entry of [`EXPERIMENTS`] but the robustness sweep.
pub fn select(name: &str) -> Option<&'static [Experiment]> {
    if name == "all" {
        return Some(&EXPERIMENTS[..EXPERIMENTS.len() - 1]);
    }
    let i = EXPERIMENTS.iter().position(|(n, _)| *n == name)?;
    Some(&EXPERIMENTS[i..=i])
}

/// One reproduction run: the scale knobs shared by all experiments, and
/// each service's TLS corpus at that scale, built on first use and shared
/// by every experiment that reads it.
#[derive(Debug)]
pub struct RunConfig {
    /// Sessions per service; `None` means paper-sized corpora.
    pub sessions: Option<usize>,
    /// Corpus seed.
    pub seed: u64,
    /// Also print JSON.
    pub json: bool,
    tls_corpora: [OnceCell<Corpus>; 3],
}

impl RunConfig {
    /// Read knobs from the environment; a malformed value is an error
    /// naming the variable.
    pub fn from_env() -> Result<Self, String> {
        let sessions = match std::env::var("DTP_SESSIONS") {
            Ok(v) if v == "paper" => None,
            Ok(v) => Some(
                v.parse()
                    .map_err(|_| format!("DTP_SESSIONS must be a number or 'paper', got {v:?}"))?,
            ),
            Err(_) => Some(600),
        };
        let seed = match std::env::var("DTP_SEED") {
            Ok(v) => v.parse().map_err(|_| format!("DTP_SEED must be a u64, got {v:?}"))?,
            Err(_) => 7,
        };
        let json = std::env::var("DTP_JSON").is_ok();
        Ok(Self { sessions, seed, json, tls_corpora: Default::default() })
    }

    /// The TLS corpus (no packet capture) for one service, built at most
    /// once per run.
    pub fn tls_corpus(&self, service: ServiceId) -> &Corpus {
        self.tls_corpora[service as usize].get_or_init(|| self.corpus(service, false))
    }

    /// Build a fresh corpus for one service at the configured scale.
    pub fn corpus(&self, service: ServiceId, capture_packets: bool) -> Corpus {
        let builder = match self.sessions {
            Some(n) => DatasetBuilder::new(service).sessions(n),
            None => DatasetBuilder::paper_sized(service),
        };
        builder.seed(self.seed).capture_packets(capture_packets).build()
    }
}

/// Format a fraction as the paper prints it ("72%").
pub fn pct(x: f64) -> String {
    format!("{:.0}%", x * 100.0)
}

/// Render a `MetricScores` triple as `A / R / P` percentages plus the
/// low-class support backing the recall number.
pub fn arp(s: &MetricScores) -> String {
    format!(
        "A={} R={} P={} (n_low={})",
        pct(s.accuracy),
        pct(s.recall_low),
        pct(s.precision_low),
        s.support_low
    )
}

/// JSON object for a `MetricScores` cell, shared by every experiment's
/// `DTP_JSON` output so the schema stays uniform.
pub fn scores_json(s: &MetricScores) -> serde_json::Value {
    serde_json::json!({
        "accuracy": s.accuracy,
        "recall_low": s.recall_low,
        "precision_low": s.precision_low,
        "support_low": s.support_low as f64,
    })
}

/// Print a horizontal rule + title.
pub fn heading(title: &str) {
    println!("\n{}", "=".repeat(72));
    println!("{title}");
    println!("{}", "=".repeat(72));
}

/// A fixed-width text table writer for the experiments.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Self { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Append a row (must match the header width).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Render with padded columns.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let padded: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            println!("| {} |", padded.join(" | "));
        };
        line(&self.header);
        let total: usize = widths.iter().sum::<usize>() + 3 * widths.len() + 1;
        println!("{}", "-".repeat(total));
        for row in &self.rows {
            line(row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_is_every_experiment_but_the_robustness_sweep() {
        let all: Vec<&str> = select("all").unwrap().iter().map(|(name, _)| *name).collect();
        assert_eq!(all.len(), EXPERIMENTS.len() - 1);
        assert!(!all.contains(&"robustness"));
        assert_eq!(select("robustness").unwrap()[0].0, "robustness");
        assert_eq!(select("table4").unwrap()[0].0, "table4");
        assert!(select("table4_packet_vs_tls").is_none());
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.724), "72%");
    }

    #[test]
    fn table_rejects_ragged_rows() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(&["1".into(), "2".into()]);
        assert_eq!(t.rows.len(), 1);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn ragged_row_panics() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(&["1".into()]);
    }
}

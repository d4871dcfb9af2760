//! # dtp-bench — experiment harness
//!
//! One binary per table/figure of the paper (see DESIGN.md §4 for the full
//! index). Every binary accepts the same environment knobs:
//!
//! * `DTP_SESSIONS` — sessions per service (default 600; the paper uses
//!   2111/2216/1440 — set `DTP_SESSIONS=paper` for exact paper sizing),
//! * `DTP_SEED` — corpus seed (default 7),
//! * `DTP_JSON` — when set, also emit machine-readable JSON to stdout.

use dtp_core::dataset::{Corpus, DatasetBuilder};
use dtp_core::experiments::MetricScores;
use dtp_core::ServiceId;

pub use dtp_obs::{Reporter, Verbosity};

/// Scale knobs shared by all experiment binaries.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Sessions per service; `None` means paper-sized corpora.
    pub sessions: Option<usize>,
    /// Corpus seed.
    pub seed: u64,
    /// Also print JSON.
    pub json: bool,
}

impl RunConfig {
    /// Read knobs from the environment.
    pub fn from_env() -> Self {
        let sessions = match std::env::var("DTP_SESSIONS") {
            Ok(v) if v == "paper" => None,
            Ok(v) => Some(v.parse().expect("DTP_SESSIONS must be a number or 'paper'")),
            Err(_) => Some(600),
        };
        let seed = std::env::var("DTP_SEED")
            .ok()
            .map(|v| v.parse().expect("DTP_SEED must be a u64"))
            .unwrap_or(7);
        let json = std::env::var("DTP_JSON").is_ok();
        Self { sessions, seed, json }
    }

    /// Build the corpus for one service at the configured scale.
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

/// JSON object for a `MetricScores` cell, shared by every bench binary's
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

/// A fixed-width text table writer for the experiment binaries.
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

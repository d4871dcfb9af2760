//! Figure 7: distributions of a transaction/temporal feature for sessions
//! with *matched session-level features*.
//!
//! The paper fixes duration (2–3 min) and a narrow SDR_DL band, then shows
//! that CUM_DL_60s (Svc1) and D2U_MED (Svc2) still separate low from high
//! combined-QoE sessions — evidence that the within-session transaction
//! patterns carry signal beyond session-level volume. Medium overlaps both.

use crate::{heading, RunConfig, TextTable};
use dtp_core::dataset::Corpus;
use dtp_core::experiments::fig7_matched_feature;
use dtp_core::ServiceId;
use dtp_simnet::stats::percentile;

fn box_stats(v: &[f64]) -> [f64; 3] {
    [percentile(v, 25.0), percentile(v, 50.0), percentile(v, 75.0)]
}

fn sdr_band(corpus: &Corpus, duration_range_s: (f64, f64)) -> (f64, f64) {
    // The paper picks a narrow absolute band (1400–1600 kbps) where all
    // three QoE classes coexist; our simulated rate distribution differs,
    // so match the *spirit*: within the duration-matched sessions, find the
    // SDR region where every class has mass — the intersection of the
    // per-class p10..p90 ranges — and fall back to the global interquartile
    // band if the intersection is empty.
    let names = dtp_features::tls_feature_names();
    let sdr_i = names.iter().position(|n| n == "SDR_DL").expect("SDR_DL");
    let dur_i = names.iter().position(|n| n == "SES_DUR").expect("SES_DUR");
    let mut per_class: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for r in &corpus.records {
        let dur = r.tls_features[dur_i];
        if dur < duration_range_s.0 || dur > duration_range_s.1 {
            continue;
        }
        per_class[r.combined.index()].push(r.tls_features[sdr_i]);
    }
    let mut lo = f64::NEG_INFINITY;
    let mut hi = f64::INFINITY;
    for class in &per_class {
        if class.is_empty() {
            continue;
        }
        lo = lo.max(percentile(class, 10.0));
        hi = hi.min(percentile(class, 90.0));
    }
    if lo < hi && lo.is_finite() {
        (lo, hi)
    } else {
        let all: Vec<f64> = per_class.iter().flatten().copied().collect();
        (percentile(&all, 25.0), percentile(&all, 75.0))
    }
}

fn panel(corpus: &Corpus, feature: &str, unit: &str, scale: f64) -> serde_json::Value {
    let band = sdr_band(corpus, (120.0, 180.0));
    let groups = fig7_matched_feature(corpus, feature, (120.0, 180.0), band);
    println!(
        "\n{}: {feature} for sessions with duration 2-3 min and SDR_DL in {:.0}-{:.0} kbps",
        corpus.service.name(),
        band.0,
        band.1
    );
    let mut table = TextTable::new(&["QoE class", "n", "p25", "median", "p75"]);
    let mut json = serde_json::Map::new();
    for (name, g) in ["low", "medium", "high"].iter().zip(&groups) {
        let b = box_stats(g);
        table.row(&[
            name.to_string(),
            g.len().to_string(),
            format!("{:.1} {unit}", b[0] * scale),
            format!("{:.1} {unit}", b[1] * scale),
            format!("{:.1} {unit}", b[2] * scale),
        ]);
        json.insert(name.to_string(), serde_json::json!({"n": g.len(), "box": b}));
    }
    table.print();
    serde_json::Value::Object(json)
}

pub fn run(cfg: &RunConfig) {
    heading("Figure 7: Matched-session feature distributions by combined-QoE class");

    let svc1 = cfg.tls_corpus(ServiceId::Svc1);
    let a = panel(svc1, "CUM_DL_60s", "MB", 1e-6);
    let svc2 = cfg.tls_corpus(ServiceId::Svc2);
    let b = panel(svc2, "D2U_MED", "", 1.0);

    println!(
        "\nPaper shape: within the matched slice, low-QoE sessions sit clearly below\n\
         high-QoE sessions on both features, while medium overlaps both."
    );
    if cfg.json {
        println!("{}", serde_json::json!({"svc1_cum_dl_60s": a, "svc2_d2u_med": b}));
    }
}

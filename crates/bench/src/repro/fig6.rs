//! Figure 6: top-10 Random-Forest feature importances per service.
//!
//! Paper shape: four features appear in every service's top-10 — SDR_DL,
//! TDR_MED, D2U_MED, CUM_DL_60s — while several features are
//! service-specific ("differences in service design and TLS transaction
//! mechanisms across services").

use std::collections::HashMap;

use crate::{heading, RunConfig};
use dtp_core::experiments::fig6_importance;
use dtp_core::ServiceId;

pub fn run(cfg: &RunConfig) {
    heading("Figure 6: Top-10 feature importances per service (Random Forest)");

    let mut appearance: HashMap<String, usize> = HashMap::new();
    let mut json = serde_json::Map::new();
    for svc in ServiceId::ALL {
        let corpus = cfg.tls_corpus(svc);
        let top = fig6_importance(corpus, 10, cfg.seed);
        println!("\n{}", svc.name());
        for (name, weight) in &top {
            let bar = "#".repeat((weight * 200.0) as usize);
            println!("  {name:<16} {weight:.3} {bar}");
            *appearance.entry(name.clone()).or_default() += 1;
        }
        json.insert(svc.name().to_string(), serde_json::json!(top));
    }

    // HashMap iteration order is random per process; sort so the printed
    // transcript is byte-identical across runs (a repo-wide invariant).
    let mut shared: Vec<_> = appearance
        .iter()
        .filter(|(_, &c)| c == 3)
        .map(|(n, _)| n.clone())
        .collect();
    shared.sort();
    let unique = appearance.values().filter(|&&c| c == 1).count();
    println!("\nFeatures in all three top-10 lists ({}): {shared:?}", shared.len());
    println!("Features in exactly one list: {unique}");
    println!("Paper: 4 shared (SDR_DL, TDR_MED, D2U_MED, CUM_DL_60s), 8 service-specific.");

    if cfg.json {
        json.insert("shared".into(), serde_json::json!(shared));
        println!("{}", serde_json::Value::Object(json));
    }
}

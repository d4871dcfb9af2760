//! Figure 4: distribution of ground-truth QoE metrics across services.
//!
//! The paper's shape: under the same network mix, Svc1 degrades in *video
//! quality* (large buffer + conservative ABR) while Svc2 degrades in
//! *re-buffering* (quality-sticky ABR on a small buffer); Svc3 sits in
//! between.

use crate::{heading, pct, RunConfig, TextTable};
use dtp_core::label::QoeMetricKind;
use dtp_core::ServiceId;

pub fn run(cfg: &RunConfig) {
    heading("Figure 4: Distribution of QoE metrics across services");

    let corpora: Vec<_> = ServiceId::ALL
        .iter()
        .map(|&svc| (svc, cfg.tls_corpus(svc)))
        .collect();

    let specs: [(&str, QoeMetricKind, [&str; 3]); 3] = [
        ("(a) Re-buffering ratio", QoeMetricKind::Rebuffering, ["high", "mild", "zero"]),
        ("(b) Video quality", QoeMetricKind::VideoQuality, ["low", "medium", "high"]),
        ("(c) Combined QoE", QoeMetricKind::Combined, ["low", "medium", "high"]),
    ];

    let mut json = serde_json::Map::new();
    for (title, metric, class_names) in specs {
        println!("\n{title}");
        let mut table = TextTable::new(&[
            "Service",
            class_names[0],
            class_names[1],
            class_names[2],
        ]);
        for (svc, corpus) in &corpora {
            let d = corpus.label_distribution(metric);
            table.row(&[svc.name().to_string(), pct(d[0]), pct(d[1]), pct(d[2])]);
            json.insert(
                format!("{}/{}", title, svc.name()),
                serde_json::json!({ class_names[0]: d[0], class_names[1]: d[1], class_names[2]: d[2] }),
            );
        }
        table.print();
    }

    println!(
        "\nPaper shape check: Svc1 low-quality share should exceed Svc2's;\n\
         Svc2 high-rebuffering share should exceed Svc1's."
    );
    if cfg.json {
        println!("{}", serde_json::Value::Object(json));
    }
}

//! End-to-end: spans + metrics recorded against the global registry export
//! to a coherent trace tree and JSON document.

use dtp_obs::{global, registry::Registry, render_tree, span_tree_json};

#[test]
fn pipeline_shaped_run_exports_tree_and_json() {
    // A miniature pipeline: nested stage spans plus counters.
    {
        let _pipeline = dtp_obs::span!("e2e_pipeline");
        {
            let _g = dtp_obs::span!("e2e_generate");
            global().counter("e2e.generate.traces").add(10);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        {
            let _e = dtp_obs::span!("e2e_extract");
            for _ in 0..3 {
                let _tls = dtp_obs::span!("e2e_extract.tls");
                global().counter("e2e.extract.tls_records").add(20);
            }
        }
    }

    let spans: Vec<_> = global()
        .finished_spans()
        .into_iter()
        .filter(|s| s.path.starts_with("e2e_pipeline"))
        .collect();
    assert_eq!(spans.len(), 6, "1 pipeline + 1 generate + 1 extract + 3 tls");

    // Every stage appears in the rendered tree with a nonzero duration.
    let tree = render_tree(&spans);
    for stage in ["e2e_pipeline", "e2e_generate", "e2e_extract", "e2e_extract.tls"] {
        assert!(tree.contains(stage), "{stage} missing from tree:\n{tree}");
    }
    assert!(tree.contains("3x"), "the three tls spans aggregate: \n{tree}");

    // Durations are positive and nested spans fit inside their parents.
    let pipeline = spans.iter().find(|s| s.name == "e2e_pipeline").unwrap();
    assert!(pipeline.duration_s > 0.0);
    for s in &spans {
        assert!(s.duration_s >= 0.0);
        assert!(s.duration_s <= pipeline.duration_s + 1e-9);
    }

    // JSON view parses back and carries the same aggregate count.
    let json = span_tree_json(&spans);
    let parsed: serde_json::Value = serde_json::from_str(&json.to_string()).unwrap();
    let rows = parsed.as_array().unwrap();
    assert_eq!(rows.len(), 4, "4 aggregated paths");
    let tls = rows
        .iter()
        .map(|r| r.as_object().unwrap())
        .find(|r| r.get("name").unwrap().as_str() == Some("e2e_extract.tls"))
        .unwrap();
    assert_eq!(tls.get("count").unwrap().as_f64().unwrap(), 3.0);

    // The span-duration histograms recorded alongside the tree.
    assert!(global().histogram("span.e2e_extract.tls").count() >= 3);

    // Counters summed across the run.
    let snap = global().snapshot();
    assert_eq!(snap.counters["e2e.extract.tls_records"], 60);
}

#[test]
fn local_registries_are_isolated_from_global() {
    let local = Registry::new();
    local.counter("e2e.local_only").inc();
    assert_eq!(local.snapshot().counters["e2e.local_only"], 1);
    assert!(!global().snapshot().counters.contains_key("e2e.local_only"));
}

//! Golden-fixture tests: pinned end-to-end outputs of the streaming
//! pipeline on seeded corpora.
//!
//! Each fixture under `tests/fixtures/` records, for one (service, corpus
//! seed) pair: the deployed model's content digest, and every emitted
//! session's transaction count, predicted class, category label, and full
//! feature vector as IEEE-754 bit patterns (hex) — so a pass means the
//! pipeline is *bitwise* identical to when the fixture was blessed.
//!
//! Regenerate after an intentional output change with:
//!
//! ```text
//! DTP_BLESS=1 cargo test --test golden_fixtures
//! ```
//!
//! then commit the rewritten fixtures (see DESIGN.md §11).

use std::fmt::Write as _;
use std::path::PathBuf;

use drop_the_packets::core::sessionid::stitch_sessions;
use drop_the_packets::core::{DatasetBuilder, QoeEstimator, QoeMetricKind, ServiceId};
use drop_the_packets::stream::{SessionVerdict, StreamConfig, StreamEngine};
use serde_json::Value;

const SCHEMA: &str = "dtp.stream_golden.v1";
const TRAIN_SESSIONS: usize = 40;
const TRAIN_SEED: u64 = 11;

struct FixtureSpec {
    file: &'static str,
    service: ServiceId,
    stitched_sessions: usize,
    corpus_seed: u64,
}

const FIXTURES: [FixtureSpec; 2] = [
    FixtureSpec {
        file: "stream_golden_svc1.json",
        service: ServiceId::Svc1,
        stitched_sessions: 12,
        corpus_seed: 311,
    },
    FixtureSpec {
        file: "stream_golden_svc3.json",
        service: ServiceId::Svc3,
        stitched_sessions: 9,
        corpus_seed: 947,
    },
];

fn fixture_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(file)
}

fn service_name(s: ServiceId) -> &'static str {
    match s {
        ServiceId::Svc1 => "Svc1",
        ServiceId::Svc2 => "Svc2",
        ServiceId::Svc3 => "Svc3",
    }
}

/// Run the streaming pipeline for one fixture spec.
fn run_pipeline(spec: &FixtureSpec) -> (String, Vec<SessionVerdict>) {
    let corpus = DatasetBuilder::new(ServiceId::Svc1)
        .sessions(TRAIN_SESSIONS)
        .seed(TRAIN_SEED)
        .build();
    let est = QoeEstimator::train(&corpus, QoeMetricKind::Combined, 0);
    let digest = est.model_digest();
    let cfg = StreamConfig { idle_timeout_s: 1e9, ..StreamConfig::default() };
    let mut eng = StreamEngine::new(est, cfg).expect("valid config");
    let stream = stitch_sessions(spec.service, spec.stitched_sessions, spec.corpus_seed);
    let mut verdicts = Vec::new();
    for rec in stream.transactions {
        verdicts.extend(eng.push("golden-client", rec));
    }
    verdicts.extend(eng.finish());
    (digest, verdicts)
}

/// Render the pipeline output as the fixture's canonical pretty JSON.
fn render_fixture(spec: &FixtureSpec, digest: &str, verdicts: &[SessionVerdict]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"{SCHEMA}\",");
    let _ = writeln!(s, "  \"service\": \"{}\",", service_name(spec.service));
    let _ = writeln!(s, "  \"stitched_sessions\": {},", spec.stitched_sessions);
    let _ = writeln!(s, "  \"corpus_seed\": {},", spec.corpus_seed);
    let _ = writeln!(s, "  \"train_sessions\": {TRAIN_SESSIONS},");
    let _ = writeln!(s, "  \"train_seed\": {TRAIN_SEED},");
    let _ = writeln!(s, "  \"model_digest\": \"{digest}\",");
    s.push_str("  \"sessions\": [\n");
    for (i, v) in verdicts.iter().enumerate() {
        s.push_str("    {\n");
        let _ = writeln!(s, "      \"transactions\": {},", v.transactions);
        let _ = writeln!(s, "      \"predicted\": {},", v.predicted);
        let _ = writeln!(s, "      \"category\": \"{}\",", v.category.name());
        let hex: Vec<String> =
            v.features.iter().map(|f| format!("\"{:016x}\"", f.to_bits())).collect();
        let _ = writeln!(s, "      \"features_hex\": [{}]", hex.join(", "));
        s.push_str(if i + 1 == verdicts.len() { "    }\n" } else { "    },\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

fn check_fixture(spec: &FixtureSpec) {
    let (digest, verdicts) = run_pipeline(spec);
    let path = fixture_path(spec.file);
    if std::env::var_os("DTP_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture dir"))
            .expect("create fixtures dir");
        std::fs::write(&path, render_fixture(spec, &digest, &verdicts))
            .expect("write fixture");
        return;
    }
    let raw = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing fixture {} ({e}); regenerate with DTP_BLESS=1", path.display())
    });
    let doc: Value = serde_json::from_str(&raw).expect("fixture parses as JSON");
    let doc = doc.as_object().expect("fixture is an object");
    let field = |k: &str| doc.get(k).unwrap_or_else(|| panic!("fixture field {k}"));

    assert_eq!(field("schema").as_str(), Some(SCHEMA), "fixture schema");
    assert_eq!(field("service").as_str(), Some(service_name(spec.service)));
    assert_eq!(field("model_digest").as_str(), Some(digest.as_str()), "model digest drifted");

    let sessions = field("sessions").as_array().expect("sessions array");
    assert_eq!(sessions.len(), verdicts.len(), "emitted session count drifted");
    for (i, (want, v)) in sessions.iter().zip(&verdicts).enumerate() {
        let want = want.as_object().expect("session object");
        let get = |k: &str| want.get(k).unwrap_or_else(|| panic!("session field {k}"));
        assert_eq!(
            get("transactions").as_f64(),
            Some(v.transactions as f64),
            "session {i} transaction count"
        );
        assert_eq!(get("predicted").as_f64(), Some(v.predicted as f64), "session {i} class");
        assert_eq!(get("category").as_str(), Some(v.category.name()), "session {i} category");
        let hex = get("features_hex").as_array().expect("features_hex array");
        assert_eq!(hex.len(), v.features.len(), "session {i} feature count");
        for (j, (h, f)) in hex.iter().zip(&v.features).enumerate() {
            let want_bits = u64::from_str_radix(h.as_str().expect("hex string"), 16)
                .expect("parseable hex bits");
            assert_eq!(
                want_bits,
                f.to_bits(),
                "session {i} feature {j}: {} != {} (bitwise)",
                f64::from_bits(want_bits),
                f
            );
        }
    }
}

#[test]
fn golden_fixtures_pin_the_streaming_pipeline() {
    for spec in &FIXTURES {
        check_fixture(spec);
    }
}

#[test]
fn blessing_is_reproducible() {
    // The render itself must be deterministic, or blessing would churn.
    for spec in &FIXTURES {
        let (d1, v1) = run_pipeline(spec);
        let (d2, v2) = run_pipeline(spec);
        assert_eq!(render_fixture(spec, &d1, &v1), render_fixture(spec, &d2, &v2));
    }
}

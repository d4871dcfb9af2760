//! Serial-vs-parallel wall time per pipeline stage (`BENCH_parallel.json`).
//!
//! Times the four stages that `dtp-par` fans out — TLS feature extraction,
//! forest training, batch prediction, and cross-validation — once with the
//! pool pinned to one thread and once at the ambient thread count
//! (`DTP_THREADS`, default = available cores), via the scoped
//! [`dtp_par::with_threads`] override so the comparison cannot race the
//! environment.
//!
//! Determinism is asserted, not assumed: every stage's parallel output must
//! be **bitwise identical** to its serial output (feature rows, class
//! probabilities, fold accuracies) or the binary exits nonzero. The speedup
//! numbers are only meaningful because of that equality — this is the same
//! work, scheduled differently.
//!
//! Emits `BENCH_parallel.json` (override with `DTP_BENCH_PARALLEL_OUT`),
//! schema `dtp.bench_parallel.v1`: `threads`, `smoke`, and per-stage
//! `serial_ms` / `parallel_ms` / `speedup`. `--smoke` shrinks the corpus for
//! CI; same code path, same schema. Speedups scale with the runner's core
//! count — on a single-core machine every ratio is ~1.0 by construction.

use dtp_bench::{heading, Reporter, RunConfig, TextTable};
use dtp_core::sim::{session_seed, simulate_corpus};
use dtp_core::ServiceId;
use dtp_features::{extract_tls_features_batch, tls_feature_names};
use dtp_ml::{cross_validate, Classifier, Dataset, RandomForest, RandomForestConfig};
use dtp_simnet::TraceCorpus;
use dtp_telemetry::{Stopwatch, TlsTransactionRecord};

/// One stage's timing pair.
struct StageTiming {
    name: &'static str,
    serial_ms: f64,
    parallel_ms: f64,
}

impl StageTiming {
    fn speedup(&self) -> f64 {
        if self.parallel_ms > 0.0 { self.serial_ms / self.parallel_ms } else { 1.0 }
    }
}

/// Run `work` serially then at `threads`, assert the outputs are bitwise
/// identical via `fingerprint`, and return the timing pair.
fn time_stage<R, F, P>(name: &'static str, threads: usize, work: F, fingerprint: P) -> StageTiming
where
    F: Fn() -> R,
    P: Fn(&R) -> Vec<u64>,
{
    let sw = Stopwatch::start();
    let serial = dtp_par::with_threads(1, &work);
    let serial_ms = sw.elapsed_s() * 1e3;

    let sw = Stopwatch::start();
    let parallel = dtp_par::with_threads(threads, &work);
    let parallel_ms = sw.elapsed_s() * 1e3;

    assert_eq!(
        fingerprint(&serial),
        fingerprint(&parallel),
        "{name}: parallel output diverged from serial — determinism contract broken"
    );
    StageTiming { name, serial_ms, parallel_ms }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|v| v.to_bits()).collect()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let cfg = RunConfig::from_env();
    let reporter = Reporter::from_env();
    let threads = dtp_par::thread_count();
    heading(&format!(
        "Parallel execution benchmark: serial vs {threads} thread(s){}",
        if smoke { " [smoke]" } else { "" }
    ));

    let sessions = if smoke { 96 } else { cfg.sessions.unwrap_or(600).min(600) };
    let n_trees = if smoke { 24 } else { 64 };
    reporter.verbose(&format!("simulating {sessions} sessions (seed {})", cfg.seed));
    let (tls_sessions, labels) = build_sessions(ServiceId::Svc1, sessions, cfg.seed);

    let extract = time_stage(
        "extract_tls",
        threads,
        || extract_tls_features_batch(&tls_sessions),
        |rows| rows.iter().flat_map(|r| bits(r)).collect(),
    );
    let x = extract_tls_features_batch(&tls_sessions);

    let forest_config = RandomForestConfig { n_trees, seed: cfg.seed, ..Default::default() };
    let fit = time_stage(
        "forest_fit",
        threads,
        || {
            let mut forest = RandomForest::new(forest_config);
            forest.fit(&x, &labels, 3);
            forest
        },
        |forest| bits(&forest.feature_importances().expect("forest importances")),
    );

    let mut forest = RandomForest::new(forest_config);
    forest.fit(&x, &labels, 3);
    let predict = time_stage(
        "predict",
        threads,
        || forest.predict_proba_batch(&x),
        |probas| probas.iter().flat_map(|p| bits(p)).collect(),
    );

    let dataset = Dataset::new(x.clone(), labels.clone(), tls_feature_names(), 3);
    let cv_trees = n_trees / 4;
    let cv = time_stage(
        "cv",
        threads,
        || {
            cross_validate(&dataset, 4, cfg.seed, || {
                Box::new(RandomForest::new(RandomForestConfig {
                    n_trees: cv_trees,
                    seed: cfg.seed,
                    ..Default::default()
                }))
            })
        },
        |r| bits(&r.fold_accuracies),
    );

    let stages = [extract, fit, predict, cv];
    let mut table = TextTable::new(&["Stage", "Serial (ms)", "Parallel (ms)", "Speedup"]);
    let mut json_stages = serde_json::Map::new();
    for s in &stages {
        table.row(&[
            s.name.to_string(),
            format!("{:.1}", s.serial_ms),
            format!("{:.1}", s.parallel_ms),
            format!("{:.2}x", s.speedup()),
        ]);
        json_stages.insert(
            s.name.to_string(),
            serde_json::json!({
                "serial_ms": s.serial_ms,
                "parallel_ms": s.parallel_ms,
                "speedup": s.speedup(),
            }),
        );
    }
    table.print();
    reporter.info(&format!(
        "\nAll {} stages produced bitwise-identical output at 1 and {threads} thread(s).",
        stages.len()
    ));

    let artifact = serde_json::json!({
        "schema": "dtp.bench_parallel.v1",
        "threads": threads as f64,
        "smoke": smoke,
        "sessions": sessions as f64,
        "n_trees": n_trees as f64,
        "stages": serde_json::Value::Object(json_stages),
    });
    let out = std::env::var("DTP_BENCH_PARALLEL_OUT")
        .unwrap_or_else(|_| "BENCH_parallel.json".to_string());
    std::fs::write(&out, format!("{artifact}\n")).expect("write BENCH_parallel.json");
    reporter.info(&format!("wrote {out}"));
    if cfg.json {
        println!("{artifact}");
    }
}

/// Simulate the corpus and keep each session's TLS transactions + label.
fn build_sessions(
    service: ServiceId,
    sessions: usize,
    seed: u64,
) -> (Vec<Vec<TlsTransactionRecord>>, Vec<usize>) {
    let traces = TraceCorpus::paper_mix(sessions, seed ^ 0x0b57);
    simulate_corpus(service, &traces, false, session_seed(seed), |s| {
        let label = s.combined_qoe().index();
        (s.telemetry.tls.into_transactions(), label)
    })
    .into_iter()
    .unzip()
}

//! Robustness sweep: QoE inference under injected telemetry faults.
//!
//! The paper's deployment story depends on proxy exports surviving the real
//! world: skewed exporter clocks, idle-timeout merges, dropped or duplicated
//! records, anonymized SNIs, truncated captures. This experiment trains the
//! combined-QoE model on a clean corpus, then evaluates it on the same test
//! sessions after a [`FaultInjector`] perturbs their transaction streams and
//! the ingest boundary re-admits them — producing accuracy/recall
//! degradation curves over the fault rate.
//!
//! Sweep: `FaultPlan::uniform(rate)` for rate ∈ {0, 5, 10, 15, 20, 30}%,
//! plus the pathological 100%-missing-SNI case. Rate 0 must reproduce the
//! clean baseline bit-for-bit (the injector is the identity there); the
//! experiment verifies this and fails loudly if it does not.

use crate::{heading, pct, RunConfig, TextTable};
use dtp_core::sim::{session_seed, simulate_corpus};
use dtp_core::{QoeEstimator, ServiceId};
use dtp_faults::{FaultInjector, FaultPlan, FaultReport};
use dtp_features::extract_tls_features_checked;
use dtp_ml::{Classifier, ConfusionMatrix, RandomForest};
use dtp_obs::Reporter;
use dtp_simnet::TraceCorpus;
use dtp_telemetry::{IngestStats, ProxyLog, TlsTransactionRecord};

/// One swept configuration.
struct SweepPoint {
    label: String,
    plan: FaultPlan,
}

/// Evaluation of one sweep point over the test sessions.
struct SweepResult {
    accuracy: f64,
    recall_low: f64,
    support_low: usize,
    faults: FaultReport,
    ingest: IngestStats,
    imputed: usize,
}

pub fn run(cfg: &RunConfig) {
    let reporter = Reporter::from_env();
    heading("Robustness: combined-QoE accuracy under injected telemetry faults (Svc1)");

    let sessions = cfg.sessions.unwrap_or(600).min(900);
    reporter.verbose(&format!("simulating {sessions} sessions (seed {})", cfg.seed));
    let (train, test) = build_split(ServiceId::Svc1, sessions, cfg.seed);
    reporter.info(&format!(
        "{} sessions simulated ({} train / {} test), model: Random Forest on 38 TLS features",
        train.len() + test.len(),
        train.len(),
        test.len()
    ));

    // Train once, on clean data only — degradation below is purely a
    // test-time data-quality effect, as in deployment. Extraction fans out
    // per session on dtp-par workers (DTP_THREADS).
    let x: Vec<Vec<f64>> = dtp_par::par_map("sweep.extract_train", &train, |_, (t, _)| {
        extract_tls_features_checked(t).0
    });
    let y: Vec<usize> = train.iter().map(|(_, l)| *l).collect();
    let mut forest = RandomForest::new(QoeEstimator::forest_config(cfg.seed));
    forest.fit(&x, &y, 3);

    let clean = evaluate(&forest, &test, &FaultPlan::none(), cfg.seed);
    let points = sweep_points();

    let mut table = TextTable::new(&[
        "Fault plan",
        "Accuracy",
        "Recall(low)",
        "Records in→out",
        "Faults",
        "Quarantined",
        "Repaired",
        "Imputed",
    ]);
    let mut json = serde_json::Map::new();
    for p in &points {
        reporter.verbose(&format!("evaluating: {}", p.label));
        let r = evaluate(&forest, &test, &p.plan, cfg.seed);
        if p.plan.is_identity() {
            // Acceptance gate: the identity plan must not move the metric.
            assert!(
                (r.accuracy - clean.accuracy).abs() < 1e-12,
                "rate-0 accuracy {} diverged from clean baseline {}",
                r.accuracy,
                clean.accuracy
            );
        }
        table.row(&[
            p.label.clone(),
            pct(r.accuracy),
            pct(r.recall_low),
            format!("{}->{}", r.faults.input_records, r.faults.output_records),
            r.faults.total_faults().to_string(),
            r.ingest.quarantined.to_string(),
            r.ingest.repaired.to_string(),
            r.imputed.to_string(),
        ]);
        json.insert(
            p.label.clone(),
            serde_json::json!({
                "accuracy": r.accuracy,
                "recall_low": r.recall_low,
                "support_low": r.support_low as f64,
                "faults": r.faults.total_faults() as f64,
                "dropped": r.faults.dropped as f64,
                "duplicated": r.faults.duplicated as f64,
                "merged": r.faults.merged as f64,
                "sni_removed": r.faults.sni_removed as f64,
                "quarantined": r.ingest.quarantined as f64,
                "repaired": r.ingest.repaired as f64,
                "imputed": r.imputed as f64,
            }),
        );
    }
    table.print();

    reporter.info(
        "\nReading: the pipeline degrades, it does not fall over — every record is\n\
         accepted, repaired, or quarantined with a counted reason; features stay\n\
         finite; the model keeps emitting verdicts at every fault rate swept.",
    );
    if cfg.json {
        println!("{}", serde_json::Value::Object(json));
    }
}

/// The swept fault plans.
fn sweep_points() -> Vec<SweepPoint> {
    let mut points: Vec<SweepPoint> = [0.0, 0.05, 0.10, 0.15, 0.20, 0.30]
        .iter()
        .map(|&rate| SweepPoint {
            label: format!("uniform {:.0}%", rate * 100.0),
            plan: FaultPlan::uniform(rate),
        })
        .collect();
    points.push(SweepPoint {
        label: "missing SNI 100%".to_string(),
        plan: FaultPlan::none().with_missing_sni(1.0),
    });
    points
}

/// Simulate the corpus and split it session-wise into train/test halves.
#[allow(clippy::type_complexity)]
fn build_split(
    service: ServiceId,
    sessions: usize,
    seed: u64,
) -> (Vec<(Vec<TlsTransactionRecord>, usize)>, Vec<(Vec<TlsTransactionRecord>, usize)>) {
    let traces = TraceCorpus::paper_mix(sessions, seed ^ 0x0b57);
    let simulated = simulate_corpus(service, &traces, false, session_seed(seed), |s| {
        let label = s.combined_qoe().index();
        (s.telemetry.tls.into_transactions(), label)
    });
    let mut train = Vec::new();
    let mut test = Vec::new();
    for (i, entry) in simulated.into_iter().enumerate() {
        if i % 2 == 0 {
            train.push(entry);
        } else {
            test.push(entry);
        }
    }
    (train, test)
}

/// Perturb every test session under `plan`, re-ingest through the boundary,
/// extract features, and score the trained model.
///
/// Sessions are independent, so the whole perturb → ingest → extract →
/// predict chain fans out per session on dtp-par workers; the injector is
/// already per-item seeded (`for_item(i)`), so results are identical at
/// any thread count. Tallies fold back together in session order.
fn evaluate(
    forest: &RandomForest,
    test: &[(Vec<TlsTransactionRecord>, usize)],
    plan: &FaultPlan,
    seed: u64,
) -> SweepResult {
    let injector = FaultInjector::new(plan.clone(), seed ^ 0xda7a_5eed);
    let per_session = dtp_par::par_map("sweep.evaluate", test, |i, (txs, label)| {
        let (perturbed, report) = injector.for_item(i as u64).perturb_transactions(txs);
        // Deployment path: the perturbed export crosses the typed ingest
        // boundary (quarantine-and-continue), then gets sorted and featurized.
        let mut log = ProxyLog::new();
        let ingest = log.ingest_all(perturbed).clone();
        log.sort_by_start();
        let (row, quality) = extract_tls_features_checked(log.transactions());
        (report, ingest, quality.imputed, *label, forest.predict(&row))
    });

    let mut faults = FaultReport::default();
    let mut ingest = IngestStats::default();
    let mut imputed = 0usize;
    let mut cm = ConfusionMatrix::new(3);
    for (report, session_ingest, session_imputed, label, pred) in &per_session {
        faults.absorb(report);
        ingest.absorb(session_ingest);
        imputed += session_imputed;
        cm.record(*label, *pred);
    }
    SweepResult {
        accuracy: cm.accuracy(),
        recall_low: cm.recall(0),
        support_low: cm.support(0),
        faults,
        ingest,
        imputed,
    }
}

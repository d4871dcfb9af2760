//! The offline workload, `paper_offline`: the reproduction's main path. The
//! unit of work is one cycle of corpus build (`DatasetBuilder::build`),
//! training (`QoeEstimator::train`) and 5-fold cross-validation
//! (`QoeEstimator::evaluate`) for each service, over paper-sized TLS
//! corpora. Cycles repeat until the run's time is spent. The stream engine
//! is not on this path.

use std::time::Instant;

use dtp_core::{Corpus, DatasetBuilder, QoeEstimator, QoeMetricKind};
use dtp_features::extract_tls_features;
use dtp_ml::{ConfusionMatrix, CvResult};
use dtp_telemetry::{ProxyLog, TlsTransactionRecord};

use crate::inputs::{self, PoolSession, SERVICES};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::{layers, stream, timed, Metrics, Outcome, Run};

/// Held-out sessions per service, scored one at a time for the verdict
/// latency.
const HELD_OUT: usize = 1000;
/// Passes over the held-out sessions after each untraced cycle, so that
/// verdict latencies are sampled across the whole run.
const VERDICT_ROUNDS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Size of the stream probe's feed in traced runs.
const PROBE_CLIENTS: usize = 16;
const PROBE_RECORDS: usize = 20_000;

const METRIC: QoeMetricKind = QoeMetricKind::Combined;

/// One service's results from a cycle.
struct Trained {
    corpus: Corpus,
    model: QoeEstimator,
    cv: CvResult,
    fit_s: f64,
    cv_s: f64,
}

/// One build-train-evaluate cycle.
struct Cycle {
    secs: f64,
    services: Vec<Trained>,
}

impl Cycle {
    fn sessions(&self) -> usize {
        self.services.iter().map(|t| t.corpus.len()).sum()
    }

    fn records(&self) -> usize {
        self.services
            .iter()
            .flat_map(|t| &t.corpus.records)
            .map(|r| r.tls_count)
            .sum()
    }

    /// Sessions that yielded no usable record: no TLS transactions, or a
    /// non-finite feature.
    fn failed_sessions(&self) -> usize {
        self.services
            .iter()
            .flat_map(|t| &t.corpus.records)
            .filter(|r| r.tls_count == 0 || !r.tls_features.iter().all(|x| x.is_finite()))
            .count()
    }

    /// Bit patterns of every fold accuracy.
    fn fold_bits(&self) -> Vec<u64> {
        self.services
            .iter()
            .flat_map(|t| &t.cv.fold_accuracies)
            .map(|a| a.to_bits())
            .collect()
    }
}

fn cycle(seed: u64, tr: &mut Tracer) -> Cycle {
    tr.next_trace();
    let started = Instant::now();
    let services: Vec<Trained> = tr.span("cycle", |tr| {
        SERVICES
            .iter()
            .map(|&svc| {
                let corpus = tr.span("dataset.build", |_| {
                    DatasetBuilder::paper_sized(svc).seed(seed).build()
                });
                let (model, fit_s) =
                    timed(|| tr.span("ml.fit", |_| QoeEstimator::train(&corpus, METRIC, seed)));
                let (cv, cv_s) =
                    timed(|| tr.span("ml.cv", |_| QoeEstimator::evaluate(&corpus, METRIC, seed)));
                Trained {
                    corpus,
                    model,
                    cv,
                    fit_s,
                    cv_s,
                }
            })
            .collect()
    });
    Cycle {
        secs: started.elapsed().as_secs_f64(),
        services,
    }
}

/// Held-out sessions for the verdict latency, one pool per service.
fn held_out(seed: u64) -> Vec<Vec<PoolSession>> {
    SERVICES
        .iter()
        .map(|&svc| inputs::simulate_pool(svc, HELD_OUT, seed ^ 0x4e1d ^ svc as u64).0)
        .collect()
}

/// Score each held-out session on its own, through the path an offline
/// deployment takes: ingest and sort (`ProxyLog`), extract, predict.
/// Returns latencies in milliseconds.
fn verdict_latencies(pools: &[Vec<PoolSession>], cycle: &Cycle) -> Vec<f64> {
    let mut out = Vec::new();
    for _ in 0..VERDICT_ROUNDS {
        for (pool, trained) in pools.iter().zip(&cycle.services) {
            for s in pool {
                let t = Instant::now();
                let mut log = ProxyLog::new();
                log.ingest_all(s.transactions.iter().cloned());
                log.sort_by_start();
                let features = extract_tls_features(log.transactions());
                std::hint::black_box(trained.model.predict_index_features(&features));
                out.push(t.elapsed().as_secs_f64() * 1e3);
            }
        }
    }
    out
}

/// FNV-1a over every corpus record's features and label.
fn corpus_digest(cycle: &Cycle) -> String {
    let mut h = inputs::Fnv::default();
    for r in cycle.services.iter().flat_map(|t| &t.corpus.records) {
        r.tls_features.iter().for_each(|v| h.u64(v.to_bits()));
        h.u64(r.combined.index() as u64);
    }
    h.hex()
}

/// Run the offline workload.
pub fn run(run: Run, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = run_inner(run, tr, &mut out) {
        out.fail(1, e);
    }
    out
}

/// Held-out sessions and the serving model, deployed.
struct Setup {
    pools: Vec<Vec<PoolSession>>,
    serving: QoeEstimator,
    deploy_s: f64,
}

fn setup(seed: u64, tr: &mut Tracer) -> Result<Setup, String> {
    tr.next_trace();
    tr.span("setup", |tr| {
        let pools = tr.span("sim.pool", |_| held_out(seed));
        let corpus = tr.span("dataset.build", |_| inputs::serving_corpus());
        let model = tr.span("ml.fit", |_| {
            QoeEstimator::train(&corpus, METRIC, inputs::SERVING_SEED)
        });
        let (serving, deploy_s) = timed(|| tr.span("estimator.deploy", |_| inputs::deploy(&model)));
        Ok(Setup {
            pools,
            serving: serving?,
            deploy_s,
        })
    })
}

/// Count a cycle's sessions and failures, and check that its CV folds
/// repeat the first cycle's (`reference`) bit for bit.
fn check_cycle(c: &Cycle, reference: &[u64], out: &mut Outcome) {
    out.attempted += c.sessions() as u64;
    let bad = c.failed_sessions();
    if bad > 0 {
        out.fail(
            bad as u64,
            format!("{bad} sessions yielded no usable record"),
        );
    }
    if c.fold_bits() != reference {
        out.fail(
            1,
            "a cycle's CV folds differ from the first cycle's".to_string(),
        );
    }
}

fn run_inner(run: Run, tr: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let mut setup_s = Vec::new();
    let mut s = None;
    for _ in 0..if run.traced { 1 } else { SETUP_REPEATS } {
        drop(s.take());
        let (built, secs) = timed(|| setup(run.seed, tr));
        setup_s.push(secs);
        s = Some(built?);
    }
    let s = s.expect("at least one set-up");
    let pools = &s.pools;

    // Timed phase. A traced run alternates untraced and traced cycles. The
    // first cycle fixes the CV folds every later cycle must repeat.
    let mut untraced_tr = Tracer::new(false);
    let (mut plain_s, mut traced_s, mut rates, mut latencies) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut first_folds: Option<Vec<u64>> = None;
    let mut last: Option<Cycle> = None;
    let mut last_traced: Option<(f64, f64)> = None;
    let par0 = layers::par_counters();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < run.seconds
        || plain_s.is_empty()
        || (run.traced && traced_s.is_empty())
    {
        let use_trace = run.traced && traced_s.len() < plain_s.len();
        drop(last.take());
        let c = cycle(run.seed, if use_trace { tr } else { &mut untraced_tr });
        check_cycle(&c, first_folds.get_or_insert_with(|| c.fold_bits()), out);
        if use_trace {
            traced_s.push(c.secs);
            last_traced = Some((
                c.services.iter().map(|t| t.fit_s).sum(),
                c.services.iter().map(|t| t.cv_s).sum(),
            ));
        } else {
            plain_s.push(c.secs);
            rates.push(c.records() as f64 / c.secs);
            if !run.traced {
                latencies.extend(verdict_latencies(pools, &c));
            }
        }
        last = Some(c);
    }
    let par1 = layers::par_counters();
    if !run.traced {
        crate::record_peak_rss(out);
    }
    let last = last.expect("at least one cycle");
    let reference = first_folds.expect("at least one cycle");
    out.fingerprint
        .push(("corpus_digest", corpus_digest(&last)));
    let digests: Vec<String> = last
        .services
        .iter()
        .map(|t| t.model.model_digest())
        .collect();
    out.fingerprint.push(("model_digest", digests.join(",")));

    // Gate: the same CV at one thread must give bitwise-equal folds.
    let serial: Vec<u64> = dtp_par::with_threads(1, || {
        last.services
            .iter()
            .flat_map(|t| QoeEstimator::evaluate(&t.corpus, METRIC, run.seed).fold_accuracies)
            .map(f64::to_bits)
            .collect()
    });
    let mismatched = serial
        .iter()
        .zip(&reference)
        .filter(|(a, b)| a != b)
        .count();
    if mismatched > 0 || serial.len() != reference.len() {
        out.fail(
            mismatched.max(1) as u64,
            format!("{mismatched} CV folds differ at 1 thread"),
        );
    }

    if run.traced {
        let m = &mut out.metrics;
        m.put(
            "trace.overhead_pct",
            (median(&traced_s) / median(&plain_s) - 1.0) * 100.0,
        );
        m.put("par.tasks", (par1.0 - par0.0) as f64);
        m.put("par.steals", (par1.1 - par0.1) as f64);
        let (fit_s, cv_s) = last_traced.expect("a traced cycle");
        layer_metrics(run.seed, &s, &last, m, tr)?;
        m.put("ml.fit_ms", fit_s * 1e3);
        m.put("ml.cv_ms", cv_s * 1e3);
        return Ok(());
    }

    let mut confusion = ConfusionMatrix::new(3);
    for t in &last.services {
        confusion.merge(&t.cv.confusion);
    }
    println!(
        "cycles of {} sessions ({} TLS records); {} verdict samples",
        last.sessions(),
        last.records(),
        latencies.len()
    );
    crate::print_spread("cycle seconds", &plain_s);
    let m = &mut out.metrics;
    m.put("setup_s", median(&setup_s));
    m.put("records_per_s", median(&rates));
    m.put("verdict_p50_ms", percentile(&latencies, 50.0));
    m.put("verdict_p99_ms", percentile(&latencies, 99.0));
    m.put("train_eval_s", median(&plain_s));
    m.put("accuracy", confusion.accuracy());
    m.put("low_qoe_recall", confusion.recall(0));
    crate::require_percentile(latencies.len(), 99.0, out);
    Ok(())
}

/// Per-layer metrics other than `ml.fit_ms`/`ml.cv_ms` and the
/// cycle-level ones.
fn layer_metrics(
    seed: u64,
    s: &Setup,
    last: &Cycle,
    m: &mut Metrics,
    tr: &mut Tracer,
) -> Result<(), String> {
    let pools = &s.pools;
    tr.next_trace();
    // simnet: the traces of one cycle's corpora.
    let (_, generate_s) = timed(|| {
        tr.span("simnet.generate", |_| {
            for t in &last.services {
                drop(dtp_simnet::TraceCorpus::paper_mix(t.corpus.len(), seed));
            }
        })
    });
    m.put("simnet.generate_ms", generate_s * 1e3);
    let sims: Vec<f64> = pools.iter().flatten().map(|p| p.sim_ms).collect();
    m.put("sim.sessions", last.sessions() as f64);
    m.put("sim.session_ms_p50", median(&sims));

    let sessions: Vec<Vec<TlsTransactionRecord>> = pools
        .iter()
        .flatten()
        .map(|p| p.transactions.clone())
        .collect();
    layers::tls_features(&sessions, m, tr);
    let probe_feed = inputs::hot_feed(pools, PROBE_CLIENTS, PROBE_RECORDS, seed);
    layers::ingest_and_split(&probe_feed.per_client(), probe_feed.labels.len(), m, tr);
    let smallest = last
        .services
        .iter()
        .min_by_key(|t| t.corpus.len())
        .expect("a service");
    layers::model_layers(&smallest.corpus, &smallest.model, &sessions, seed, m, tr);
    layers::packet_probe(seed, m, tr);

    // The serving path: the set-up's deployed model streams the probe feed.
    m.put("estimator.deploy_ms", s.deploy_s * 1e3);
    let pass = stream::run_pass(
        &probe_feed,
        &s.serving,
        dtp_stream::StreamConfig::default(),
        tr,
    )?;
    pass.layer_metrics(m);
    Ok(())
}

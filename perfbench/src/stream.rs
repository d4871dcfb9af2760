//! The stream workload, `stream_hot`.
//!
//! A closed loop: one capture loop pushes the merged feed into a
//! `StreamEngine`, sending the next record as soon as the previous `push`
//! returns, then calls `finish`. One such pass over the feed is the unit of
//! work. A first pass warms up; timed passes repeat on a fresh engine until
//! the run's time is spent.

use std::collections::HashMap;
use std::time::Instant;

use dtp_core::{QoeEstimator, QoeMetricKind, SessionSplitter};
use dtp_features::extract_tls_features_batch;
use dtp_stream::{EngineStats, SessionVerdict, StreamConfig, StreamEngine};
use dtp_telemetry::{sanitize_record, IngestStats, ProxyLog, TlsTransactionRecord};

use crate::inputs::{self, Feed, PoolSession};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::{layers, timed, Metrics, Outcome, Run};

/// Pool sessions simulated per service.
const POOL_PER_SERVICE: usize = 1000;
/// Clients and feed size.
const HOT_CLIENTS: usize = 64;
const HOT_RECORDS: usize = 1_000_000;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// `records_per_s` is the median rate over windows of this many pushes,
/// which a burst of interference on the host moves less than a whole pass.
const RATE_WINDOW: usize = 50_000;
/// In traced passes, one quiet push in this many is kept as a span.
const PUSH_SPAN_EVERY: usize = 1024;
/// In traced passes, open sessions and buffered records are sampled once
/// per this many pushes (both walk every shard).
const STATE_SAMPLE_EVERY: usize = 4096;

/// Idle expiry off: every client streams back to back for the whole feed.
fn config() -> StreamConfig {
    StreamConfig {
        idle_timeout_s: 1e9,
        ..StreamConfig::default()
    }
}

/// Inputs and model for a stream run.
struct Setup {
    pools: Vec<Vec<PoolSession>>,
    corpus: dtp_core::Corpus,
    feed: Feed,
    model: QoeEstimator,
    generate_s: f64,
    train_s: f64,
    deploy_s: f64,
}

fn setup(seed: u64, tr: &mut Tracer) -> Result<Setup, String> {
    tr.next_trace();
    tr.span("setup", |tr| {
        let (pools, generate_s) = tr.span("sim.pool", |_| {
            inputs::simulate_pools(POOL_PER_SERVICE, seed)
        });
        let corpus = tr.span("dataset.build", |_| inputs::serving_corpus());
        let (trained, train_s) = timed(|| {
            tr.span("ml.fit", |_| {
                QoeEstimator::train(&corpus, QoeMetricKind::Combined, inputs::SERVING_SEED)
            })
        });
        let (model, deploy_s) = timed(|| tr.span("estimator.deploy", |_| inputs::deploy(&trained)));
        let feed = tr.span("feed.build", |_| {
            inputs::hot_feed(&pools, HOT_CLIENTS, HOT_RECORDS, seed)
        });
        Ok(Setup {
            pools,
            corpus,
            feed,
            model: model?,
            generate_s,
            train_s,
            deploy_s,
        })
    })
}

/// One closed-loop pass over a feed.
pub struct Pass {
    pub elapsed_s: f64,
    pub verdicts: Vec<SessionVerdict>,
    /// Start of each push, nanoseconds since the pass began.
    push_at_ns: Vec<u64>,
    /// `(verdicts emitted so far, return time in ns)` after every push or
    /// finish that emitted.
    returns: Vec<(usize, u64)>,
    pub stats: EngineStats,
    pub ingest: IngestStats,
    // Traced passes only.
    quiet_push_ns: Vec<f64>,
    emit_push_ns: Vec<f64>,
    finish_ms: f64,
    open_max: usize,
    buffered_max: usize,
}

/// Push `feed` through a fresh engine. A disabled tracer gives the untraced
/// loop: one clock read per push, plus one after each push that emits.
pub fn run_pass(
    feed: &Feed,
    model: &QoeEstimator,
    cfg: StreamConfig,
    tr: &mut Tracer,
) -> Result<Pass, String> {
    let mut engine = StreamEngine::new(model.clone(), cfg).map_err(|e| e.to_string())?;
    let traced = tr.enabled();
    let n = feed.records.len();
    let mut verdicts = Vec::new();
    let mut push_at_ns = Vec::with_capacity(n);
    let mut returns = Vec::new();
    let mut quiet_push_ns = Vec::with_capacity(if traced { n } else { 0 });
    let mut emit_push_ns = Vec::new();
    let (mut open_max, mut buffered_max) = (0, 0);
    tr.next_trace();
    let (finish_ms, elapsed_s) = tr.span("stream.pass", |tr| {
        let origin = Instant::now();
        for (i, r) in feed.records.iter().enumerate() {
            let t0 = Instant::now();
            push_at_ns.push(t0.duration_since(origin).as_nanos() as u64);
            let out = engine.push(&feed.clients[r.client as usize], r.rec.clone());
            if traced {
                let t1 = Instant::now();
                let d = t1.duration_since(t0).as_nanos() as f64;
                if out.is_empty() {
                    quiet_push_ns.push(d);
                    if i % PUSH_SPAN_EVERY == 0 {
                        tr.record("stream.push", t0, t1);
                    }
                } else {
                    emit_push_ns.push(d);
                    tr.record("stream.push.emit", t0, t1);
                }
                if i % STATE_SAMPLE_EVERY == 0 {
                    open_max = open_max.max(engine.open_sessions());
                    buffered_max = buffered_max.max(engine.buffered_records());
                }
            }
            if !out.is_empty() {
                verdicts.extend(out);
                returns.push((verdicts.len(), origin.elapsed().as_nanos() as u64));
            }
        }
        let (out, finish_s) = timed(|| tr.span("stream.finish", |_| engine.finish()));
        verdicts.extend(out);
        returns.push((verdicts.len(), origin.elapsed().as_nanos() as u64));
        (finish_s * 1e3, origin.elapsed().as_secs_f64())
    });
    Ok(Pass {
        elapsed_s,
        verdicts,
        push_at_ns,
        returns,
        stats: *engine.stats(),
        ingest: engine.ingest_stats().clone(),
        quiet_push_ns,
        emit_push_ns,
        finish_ms,
        open_max,
        buffered_max,
    })
}

impl Pass {
    /// Wall time from the push of each verdict's last-arriving record to
    /// the return of the call that delivered the verdict, milliseconds.
    fn latencies_ms(&self, last_push: &[usize]) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.verdicts.len());
        for &(end, returned_ns) in &self.returns {
            for &p in &last_push[out.len()..end] {
                out.push(returned_ns.saturating_sub(self.push_at_ns[p]) as f64 / 1e6);
            }
        }
        out
    }

    /// Closed-loop rate, records per second, in consecutive windows of
    /// `window` pushes; the last window ends when `finish` returns.
    fn window_rates(&self, window: usize) -> Vec<f64> {
        let n = self.push_at_ns.len();
        let finished_ns = self.returns.last().map_or(0, |&(_, t)| t);
        (0..n.div_ceil(window))
            .map(|k| {
                let (from, to) = (k * window, ((k + 1) * window).min(n));
                let end_ns = self.push_at_ns.get(to).copied().unwrap_or(finished_ns);
                (to - from) as f64 * 1e9
                    / end_ns.saturating_sub(self.push_at_ns[from]).max(1) as f64
            })
            .collect()
    }

    /// Records the engine lost. The feed holds no malformed record, so
    /// every late drop and every quarantine is a loss.
    fn lost(&self) -> usize {
        self.stats.late_dropped + self.ingest.quarantined
    }

    /// Digest of the verdict stream, to check every pass emits the same.
    fn digest(&self) -> String {
        let mut h = inputs::Fnv::default();
        for v in &self.verdicts {
            h.bytes(v.client.as_bytes());
            h.u64(v.start_s.to_bits());
            h.u64(v.transactions as u64);
            h.u64(v.predicted as u64);
            v.probabilities.iter().for_each(|p| h.u64(p.to_bits()));
        }
        h.hex()
    }

    /// This pass's stream-layer metrics (meaningful for traced passes).
    pub fn layer_metrics(&self, m: &mut Metrics) {
        m.put("stream.push_ns_p50", median(&self.quiet_push_ns));
        m.put("stream.emit_push_us_p50", median(&self.emit_push_ns) / 1e3);
        m.put(
            "stream.emit_ms_p95",
            dtp_obs::global().histogram("stream.emit_ms").quantile(0.95),
        );
        m.put("stream.finish_ms", self.finish_ms);
        m.put(
            "stream.sessions_emitted",
            self.stats.sessions_emitted as f64,
        );
        m.put(
            "stream.closed_by_boundary",
            self.stats.closed_by_boundary as f64,
        );
        m.put("stream.closed_by_idle", self.stats.closed_by_idle as f64);
        m.put("stream.late_dropped", self.stats.late_dropped as f64);
        m.put("stream.quarantined", self.ingest.quarantined as f64);
        m.put("stream.open_sessions_max", self.open_max as f64);
        m.put("stream.buffered_records_max", self.buffered_max as f64);
    }
}

/// For each verdict, in emission order, the push index of the
/// last-arriving record of its session.
///
/// `accepted[i]` is `(client, start_s)` of push `i` as the ingest boundary
/// accepted it, or `None` for a refused record. Verdicts are
/// `(client, start_s, transactions)`. A session is a run of consecutive
/// records in its client's event-time order (ties in arrival order, as the
/// engine orders them), and each client's verdicts come out in that order,
/// so a per-client cursor recovers every session without using the
/// engine's per-client ordinal, which restarts when an idle client
/// returns.
pub fn last_arrivals(
    accepted: &[Option<(u32, f64)>],
    verdicts: &[(u32, f64, usize)],
) -> Result<Vec<usize>, String> {
    let clients = accepted
        .iter()
        .flatten()
        .map(|&(c, _)| c as usize + 1)
        .max()
        .unwrap_or(0);
    let mut per_client: Vec<Vec<(f64, usize)>> = vec![Vec::new(); clients];
    for (i, a) in accepted.iter().enumerate() {
        if let Some((c, start)) = *a {
            per_client[c as usize].push((start, i));
        }
    }
    for list in &mut per_client {
        list.sort_by(|a, b| a.0.total_cmp(&b.0));
    }
    let mut cursor = vec![0usize; clients];
    let mut out = Vec::with_capacity(verdicts.len());
    for (k, &(c, start, n)) in verdicts.iter().enumerate() {
        let c = c as usize;
        let list = per_client
            .get(c)
            .ok_or_else(|| format!("verdict {k}: unknown client {c}"))?;
        let from = cursor[c];
        let session = list
            .get(from..from + n)
            .filter(|s| !s.is_empty())
            .ok_or_else(|| format!("verdict {k}: client {c} has no {n} unclaimed records"))?;
        if session[0].0.to_bits() != start.to_bits() {
            return Err(format!(
                "verdict {k}: client {c} session starts at {start}, its next record at {}",
                session[0].0
            ));
        }
        out.push(
            session
                .iter()
                .map(|&(_, i)| i)
                .max()
                .expect("non-empty session"),
        );
        cursor[c] = from + n;
    }
    if let Some(c) = (0..clients).find(|&c| cursor[c] != per_client[c].len()) {
        return Err(format!(
            "client {c}: {} records in no verdict",
            per_client[c].len() - cursor[c]
        ));
    }
    Ok(out)
}

/// The verdict-to-record map for one feed and one verdict stream.
fn map_verdicts(feed: &Feed, verdicts: &[SessionVerdict]) -> Result<Vec<usize>, String> {
    let ids: HashMap<&str, u32> = feed
        .clients
        .iter()
        .enumerate()
        .map(|(i, c)| (c.as_str(), i as u32))
        .collect();
    let accepted: Vec<Option<(u32, f64)>> = feed
        .records
        .iter()
        .map(|r| {
            sanitize_record(r.rec.clone())
                .ok()
                .map(|(rec, _)| (r.client, rec.start_s))
        })
        .collect();
    let keys = verdicts
        .iter()
        .map(|v| {
            let c = ids
                .get(&*v.client)
                .ok_or_else(|| format!("unknown client {}", v.client))?;
            Ok((*c, v.start_s, v.transactions))
        })
        .collect::<Result<Vec<_>, String>>()?;
    last_arrivals(&accepted, &keys)
}

/// One batch verdict: the offline pipeline's output for one session.
struct BatchVerdict {
    features: Vec<f64>,
    probabilities: Vec<f64>,
}

/// The offline pipeline over the same feed: per client, ingest and sort
/// (`ProxyLog`), split (`SessionSplitter`), then extract and score every
/// session in one batch. Returns each client's sessions in order.
fn batch_eval(feed: &Feed, model: &QoeEstimator) -> Vec<Vec<BatchVerdict>> {
    let splitter = SessionSplitter::default();
    let mut owner = Vec::new();
    let mut sessions: Vec<Vec<TlsTransactionRecord>> = Vec::new();
    for (c, stream) in feed.per_client().into_iter().enumerate() {
        let mut log = ProxyLog::new();
        log.ingest_all(stream);
        log.sort_by_start();
        for group in splitter.split(log.transactions()) {
            owner.push(c);
            sessions.push(group);
        }
    }
    let rows = extract_tls_features_batch(&sessions);
    let probas = model.predict_proba_features_batch(&rows);
    let mut out: Vec<Vec<BatchVerdict>> = (0..feed.clients.len()).map(|_| Vec::new()).collect();
    for ((c, features), probabilities) in owner.into_iter().zip(rows).zip(probas) {
        out[c].push(BatchVerdict {
            features,
            probabilities,
        });
    }
    out
}

/// The work `train_eval_s` times: train the serving model, then run the
/// batch pipeline over the feed.
fn train_and_batch(s: &Setup) -> Vec<Vec<BatchVerdict>> {
    std::hint::black_box(QoeEstimator::train(
        &s.corpus,
        QoeMetricKind::Combined,
        inputs::SERVING_SEED,
    ));
    batch_eval(&s.feed, &s.model)
}

/// Verdicts that differ from the batch pipeline, bit for bit.
fn batch_mismatches(
    feed: &Feed,
    verdicts: &[SessionVerdict],
    batch: &[Vec<BatchVerdict>],
) -> usize {
    let ids: HashMap<&str, usize> = feed
        .clients
        .iter()
        .enumerate()
        .map(|(i, c)| (c.as_str(), i))
        .collect();
    let mut next = vec![0usize; batch.len()];
    let mut bad = 0;
    for v in verdicts {
        let c = ids[&*v.client];
        let same = batch[c].get(next[c]).is_some_and(|b| {
            bits(&b.features) == bits(&v.features)
                && bits(&b.probabilities) == bits(&v.probabilities)
                && argmax(&b.probabilities) == v.predicted
        });
        next[c] += 1;
        bad += usize::from(!same);
    }
    let unmatched: usize = batch
        .iter()
        .zip(&next)
        .map(|(b, &n)| b.len().saturating_sub(n))
        .sum();
    bad + unmatched
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|v| v.to_bits()).collect()
}

/// First-max argmax, the forest's own tie-break.
fn argmax(p: &[f64]) -> usize {
    let mut best = 0;
    for (i, v) in p.iter().enumerate() {
        if *v > p[best] {
            best = i;
        }
    }
    best
}

/// Run the stream workload.
pub fn run(run: Run, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = run_inner(run, tr, &mut out) {
        out.fail(1, e);
    }
    out
}

fn run_inner(run: Run, tr: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    // Set up several times; keep the last. A traced run sets up once.
    let mut setup_s = Vec::new();
    let mut s = None;
    for _ in 0..if run.traced { 1 } else { SETUP_REPEATS } {
        drop(s.take());
        let (built, secs) = timed(|| setup(run.seed, tr));
        setup_s.push(secs);
        s = Some(built?);
    }
    let s = s.expect("at least one set-up");
    let cfg = config();
    let feed = &s.feed;
    out.fingerprint.push(("feed_digest", feed.digest()));
    out.fingerprint
        .push(("model_digest", s.model.model_digest()));
    println!(
        "feed: {} clients, {} records, {} true sessions",
        feed.clients.len(),
        feed.records.len(),
        feed.labels.len()
    );

    // Warm-up pass: fills caches and the allocator, and fixes the verdict
    // stream every timed pass must repeat.
    let mut untraced_tr = Tracer::new(false);
    let first = run_pass(feed, &s.model, cfg, &mut untraced_tr)?;
    out.attempted += feed.records.len() as u64;
    let mut lost = first.lost();
    check_tallies(&first, feed, out);
    let last_push = map_verdicts(feed, &first.verdicts)?;
    let digest = first.digest();

    // Timed phase: passes until the time is spent. An untraced run follows
    // each pass with one train-and-batch round, so that `train_eval_s` is
    // sampled across the whole run like the pass metrics. A traced run
    // alternates untraced and traced passes, so their difference is the
    // overhead.
    let mut last_traced: Option<Pass> = None;
    let mut batch = None;
    let (mut plain_s, mut traced_s, mut rates, mut latencies, mut train_eval_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut diverged = 0;
    let (tasks0, steals0) = layers::par_counters();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < run.seconds
        || plain_s.is_empty()
        || (run.traced && traced_s.is_empty())
    {
        let use_trace = run.traced && traced_s.len() < plain_s.len();
        let pass = run_pass(
            feed,
            &s.model,
            cfg,
            if use_trace { tr } else { &mut untraced_tr },
        )?;
        out.attempted += feed.records.len() as u64;
        lost += pass.lost();
        diverged += usize::from(pass.digest() != digest);
        if use_trace {
            traced_s.push(pass.elapsed_s);
            last_traced = Some(pass);
            continue;
        }
        plain_s.push(pass.elapsed_s);
        rates.extend(pass.window_rates(RATE_WINDOW));
        latencies.extend(pass.latencies_ms(&last_push));
        drop(pass);
        if !run.traced {
            drop(batch.take());
            let (b, secs) = timed(|| train_and_batch(&s));
            train_eval_s.push(secs);
            batch = Some(b);
        }
    }
    let (tasks1, steals1) = layers::par_counters();
    if !run.traced {
        crate::record_peak_rss(out);
    }
    if lost > 0 {
        out.fail(lost as u64, format!("passes lost {lost} records"));
    }
    if diverged > 0 {
        out.fail(
            diverged as u64,
            format!("{diverged} passes emitted different verdicts"),
        );
    }
    let batch = batch.unwrap_or_else(|| batch_eval(feed, &s.model));
    let bad = batch_mismatches(feed, &first.verdicts, &batch);
    if bad > 0 {
        out.fail(
            bad as u64,
            format!("{bad} verdicts differ from the batch pipeline"),
        );
    }

    if run.traced {
        let m = &mut out.metrics;
        m.put(
            "trace.overhead_pct",
            (median(&traced_s) / median(&plain_s) - 1.0) * 100.0,
        );
        m.put("par.tasks", (tasks1 - tasks0) as f64);
        m.put("par.steals", (steals1 - steals0) as f64);
        last_traced.expect("a traced pass").layer_metrics(m);
        layer_metrics(&s, run.seed, tr, m);
        return Ok(());
    }

    let (mut correct, mut low, mut low_hit) = (0usize, 0usize, 0usize);
    for (v, &p) in first.verdicts.iter().zip(&last_push) {
        let label = feed.labels[feed.records[p].session as usize];
        correct += usize::from(v.predicted == label);
        low += usize::from(label == 0);
        low_hit += usize::from(label == 0 && v.predicted == 0);
    }
    println!(
        "{} verdicts per pass, {} latency samples",
        first.verdicts.len(),
        latencies.len()
    );
    crate::print_spread("records/s per window", &rates);
    crate::print_spread("train-and-batch seconds", &train_eval_s);
    let m = &mut out.metrics;
    m.put("setup_s", median(&setup_s));
    m.put("records_per_s", median(&rates));
    m.put("verdict_p50_ms", percentile(&latencies, 50.0));
    m.put("verdict_p99_ms", percentile(&latencies, 99.0));
    m.put("train_eval_s", median(&train_eval_s));
    m.put(
        "accuracy",
        correct as f64 / first.verdicts.len().max(1) as f64,
    );
    m.put("low_qoe_recall", low_hit as f64 / low.max(1) as f64);
    crate::require_percentile(latencies.len(), 99.0, out);
    Ok(())
}

fn check_tallies(p: &Pass, feed: &Feed, out: &mut Outcome) {
    let s = &p.stats;
    if s.records_in != s.accepted + s.late_dropped + p.ingest.quarantined {
        out.fail(
            1,
            format!(
                "records_in {} != accepted + late + quarantined",
                s.records_in
            ),
        );
    }
    if p.verdicts.len() != s.sessions_emitted {
        out.fail(
            1,
            format!(
                "{} verdicts but sessions_emitted {}",
                p.verdicts.len(),
                s.sessions_emitted
            ),
        );
    }
    if s.records_in != feed.records.len() {
        out.fail(
            1,
            format!(
                "records_in {} != feed size {}",
                s.records_in,
                feed.records.len()
            ),
        );
    }
}

/// Per-layer metrics other than the stream layer's, measured on this
/// run's inputs.
fn layer_metrics(s: &Setup, seed: u64, tr: &mut Tracer, m: &mut Metrics) {
    m.put("simnet.generate_ms", s.generate_s * 1e3);
    let sims: Vec<f64> = s.pools.iter().flatten().map(|p| p.sim_ms).collect();
    m.put("sim.sessions", sims.len() as f64);
    m.put("sim.session_ms_p50", median(&sims));
    m.put("estimator.deploy_ms", s.deploy_s * 1e3);
    m.put("ml.fit_ms", s.train_s * 1e3);
    layers::ingest_and_split(&s.feed.per_client(), s.feed.labels.len(), m, tr);
    let sessions: Vec<Vec<TlsTransactionRecord>> = s
        .pools
        .iter()
        .flatten()
        .map(|p| p.transactions.clone())
        .collect();
    layers::tls_features(&sessions, m, tr);
    let cv_s = layers::model_layers(&s.corpus, &s.model, &sessions, inputs::SERVING_SEED, m, tr);
    m.put("ml.cv_ms", cv_s * 1e3);
    layers::packet_probe(seed, m, tr);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn returning_client_maps_without_ordinals() {
        // Client 0 plays a session, goes idle, and returns: the engine
        // restarts its ordinal at 0, but the cursor keeps going.
        let accepted = [
            Some((0, 0.0)),
            Some((0, 1.0)),
            Some((1, 0.5)),
            Some((0, 2.0)),
            Some((0, 500.0)),
            Some((0, 501.0)),
        ];
        let verdicts = [(0, 0.0, 3), (1, 0.5, 1), (0, 500.0, 2)];
        assert_eq!(last_arrivals(&accepted, &verdicts), Ok(vec![3, 2, 5]));
    }

    #[test]
    fn last_arrival_is_by_push_order_not_event_time() {
        // The session's earliest record arrives last (clock jitter).
        let accepted = [Some((0, 1.0)), Some((0, 0.5)), Some((0, 9.0))];
        let verdicts = [(0, 0.5, 2), (0, 9.0, 1)];
        assert_eq!(last_arrivals(&accepted, &verdicts), Ok(vec![1, 2]));
    }

    #[test]
    fn refused_records_belong_to_no_session() {
        let accepted = [Some((0, 0.0)), None, Some((0, 1.0)), None];
        assert_eq!(last_arrivals(&accepted, &[(0, 0.0, 2)]), Ok(vec![2]));
    }

    #[test]
    fn equal_starts_keep_arrival_order() {
        let accepted = [Some((0, 1.0)), Some((0, 1.0)), Some((0, 1.0))];
        assert_eq!(
            last_arrivals(&accepted, &[(0, 1.0, 1), (0, 1.0, 2)]),
            Ok(vec![0, 2])
        );
    }

    #[test]
    fn inconsistent_verdicts_are_errors() {
        let accepted = [Some((0, 0.0)), Some((0, 1.0))];
        assert!(
            last_arrivals(&accepted, &[(0, 0.5, 2)]).is_err(),
            "wrong start"
        );
        assert!(
            last_arrivals(&accepted, &[(0, 0.0, 3)]).is_err(),
            "too many records"
        );
        assert!(
            last_arrivals(&accepted, &[(0, 0.0, 1)]).is_err(),
            "a record left over"
        );
        assert!(
            last_arrivals(&accepted, &[(2, 0.0, 1)]).is_err(),
            "unknown client"
        );
        assert!(
            last_arrivals(&accepted, &[(0, 0.0, 0)]).is_err(),
            "empty session"
        );
    }

    #[test]
    fn latencies_pair_each_verdict_with_its_return() {
        let pass = Pass {
            elapsed_s: 1.0,
            verdicts: Vec::new(),
            push_at_ns: vec![0, 1_000_000, 2_000_000, 3_000_000],
            returns: vec![(1, 2_500_000), (3, 4_000_000)],
            stats: EngineStats::default(),
            ingest: IngestStats::default(),
            quiet_push_ns: Vec::new(),
            emit_push_ns: Vec::new(),
            finish_ms: 0.0,
            open_max: 0,
            buffered_max: 0,
        };
        assert_eq!(pass.latencies_ms(&[1, 3, 2]), vec![1.5, 1.0, 2.0]);
    }
}

//! Workload inputs: simulated session pools and merged stream feeds, derived
//! from the run seed, and the serving model's training corpus, which has a
//! fixed seed.
//!
//! Stream feeds are built from a pool of simulated sessions that is
//! re-timed and renamed into many clients, so that generating a
//! million-record feed costs a few thousand simulations instead of tens of
//! thousands. Back-to-back sessions follow the re-timing rule of
//! `dtp_core::sessionid::stitch_sessions`: the next session starts 0.5 s
//! after the previous player closed.

use std::time::Instant;

use dtp_core::label::{combined_label, quality_category, rebuffering_label};
use dtp_core::sim::{simulate_session, SessionConfig};
use dtp_core::{Corpus, DatasetBuilder, QoeEstimator, ServiceId};
use dtp_simnet::TraceCorpus;
use dtp_telemetry::TlsTransactionRecord;

/// The three services.
pub const SERVICES: [ServiceId; 3] = [ServiceId::Svc1, ServiceId::Svc2, ServiceId::Svc3];

/// Sessions per service in the serving model's training corpus. Kept small
/// because deploying the model (`to_json` → `from_json`) grows faster than
/// linearly with model size.
pub const SERVING_SESSIONS: usize = 60;

/// Gap between back-to-back sessions of one client, seconds.
const CLICK_THROUGH_S: f64 = 0.5;

/// One simulated session, kept with its TLS records and ground truth.
#[derive(Debug, Clone)]
pub struct PoolSession {
    /// TLS transactions, sorted by start time, starting near 0.
    pub transactions: Vec<TlsTransactionRecord>,
    /// Ground-truth combined QoE class index (0 = low QoE).
    pub label: usize,
    /// Player wall-clock duration, seconds (at least 1).
    pub wall_s: f64,
    /// Wall time `simulate_session` took for this session, milliseconds.
    pub sim_ms: f64,
}

/// Deterministic SplitMix64 stream for input generation.
#[derive(Debug, Clone)]
pub struct Rng {
    seed: u64,
    n: u64,
}

impl Rng {
    /// A stream for `seed`.
    pub fn new(seed: u64) -> Self {
        Self { seed, n: 0 }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.n += 1;
        dtp_par::task_seed(self.seed, self.n)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Simulate `n` sessions of `service` over a `paper_mix` trace corpus.
/// Returns the sessions and the seconds spent generating the traces.
pub fn simulate_pool(service: ServiceId, n: usize, seed: u64) -> (Vec<PoolSession>, f64) {
    let t = Instant::now();
    let traces = TraceCorpus::paper_mix(n, seed);
    let generate_s = t.elapsed().as_secs_f64();
    let pool = dtp_par::par_map("perfbench.pool", traces.entries(), |i, e| {
        let cfg = SessionConfig {
            service,
            trace: e.trace.clone(),
            kind: e.kind,
            watch_duration_s: e.watch_duration_s,
            seed: dtp_par::task_seed(seed, i as u64),
            capture_packets: false,
        };
        let t = Instant::now();
        let s = simulate_session(&cfg);
        let sim_ms = t.elapsed().as_secs_f64() * 1e3;
        let mut transactions = s.telemetry.tls.into_transactions();
        transactions.sort_by(|a, b| a.start_s.total_cmp(&b.start_s));
        let label = combined_label(
            quality_category(&s.ground_truth, &s.profile),
            rebuffering_label(&s.ground_truth),
        )
        .index();
        PoolSession {
            transactions,
            label,
            wall_s: s.ground_truth.wall_duration_s.max(1.0),
            sim_ms,
        }
    });
    (pool, generate_s)
}

/// One pool per service, seeded apart.
pub fn simulate_pools(per_service: usize, seed: u64) -> (Vec<Vec<PoolSession>>, f64) {
    let mut generate_s = 0.0;
    let pools = SERVICES
        .iter()
        .enumerate()
        .map(|(k, &svc)| {
            let (pool, g) = simulate_pool(svc, per_service, seed ^ (0x9001 + k as u64));
            generate_s += g;
            pool
        })
        .collect();
    (pools, generate_s)
}

/// Seed of the serving model's corpus and forest. The deployed model is
/// part of the system under test, not of the traffic, so it does not vary
/// with the run seed.
pub const SERVING_SEED: u64 = 0x5e11;

/// The serving model's training corpus: `SERVING_SESSIONS` sessions of each
/// service, pooled into one corpus.
pub fn serving_corpus() -> Corpus {
    let records = SERVICES
        .iter()
        .enumerate()
        .flat_map(|(k, &svc)| {
            DatasetBuilder::new(svc)
                .sessions(SERVING_SESSIONS)
                .seed(SERVING_SEED + k as u64)
                .build()
                .records
        })
        .collect();
    Corpus {
        service: ServiceId::Svc1,
        records,
        tls_extraction_s: 0.0,
        packet_extraction_s: 0.0,
    }
}

/// Deploy a model the way production would: serialize, then restore.
pub fn deploy(model: &QoeEstimator) -> Result<QoeEstimator, String> {
    let deployed = QoeEstimator::from_json(&model.to_json())?;
    if deployed.model_digest() != model.model_digest() {
        return Err("deploying changed the model".to_string());
    }
    Ok(deployed)
}

/// One record of a feed, in push order.
#[derive(Debug, Clone)]
pub struct FeedRecord {
    /// Index into [`Feed::clients`].
    pub client: u32,
    /// Index into [`Feed::labels`] of the true session the record belongs
    /// to.
    pub session: u32,
    /// The record as pushed.
    pub rec: TlsTransactionRecord,
}

/// A merged multi-client feed, ordered by event time.
#[derive(Debug, Clone, Default)]
pub struct Feed {
    /// Client names.
    pub clients: Vec<String>,
    /// Records in push order.
    pub records: Vec<FeedRecord>,
    /// Ground-truth class of each true session.
    pub labels: Vec<usize>,
}

impl Feed {
    /// FNV-1a digest over every record, for the result fingerprint.
    pub fn digest(&self) -> String {
        let mut h = Fnv::default();
        for r in &self.records {
            h.u64(u64::from(r.client));
            h.u64(u64::from(r.session));
            for v in [r.rec.start_s, r.rec.end_s, r.rec.up_bytes, r.rec.down_bytes] {
                h.u64(v.to_bits());
            }
            h.bytes(r.rec.sni.as_bytes());
        }
        h.hex()
    }

    /// Each client's records in push order.
    pub fn per_client(&self) -> Vec<Vec<TlsTransactionRecord>> {
        let mut out = vec![Vec::new(); self.clients.len()];
        for r in &self.records {
            out[r.client as usize].push(r.rec.clone());
        }
        out
    }
}

/// Incremental FNV-1a, for input and output digests.
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mix in bytes.
    pub fn bytes(&mut self, bs: &[u8]) {
        for b in bs {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mix in a word.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Builds a feed client by client, then merges it by event time.
struct FeedBuilder {
    feed: Feed,
    /// `(merge key, record)`; the key is the record's un-jittered start.
    keyed: Vec<(f64, FeedRecord)>,
}

impl FeedBuilder {
    fn new(clients: usize) -> Self {
        let mut b = Self {
            feed: Feed::default(),
            keyed: Vec::new(),
        };
        for _ in 0..clients {
            b.add_client();
        }
        b
    }

    /// A new client; returns its index.
    fn add_client(&mut self) -> usize {
        let c = self.feed.clients.len();
        self.feed.clients.push(format!("client-{c:05}"));
        c
    }

    /// Append `session` to `client`'s stream starting at `offset_s`;
    /// returns the records it added.
    fn play(&mut self, client: usize, session: &PoolSession, offset_s: f64) -> usize {
        let id = self.feed.labels.len() as u32;
        self.feed.labels.push(session.label);
        for t in &session.transactions {
            let mut rec = t.clone();
            rec.start_s += offset_s;
            rec.end_s += offset_s;
            self.keyed.push((
                rec.start_s,
                FeedRecord {
                    client: client as u32,
                    session: id,
                    rec,
                },
            ));
        }
        session.transactions.len()
    }

    /// Merge by event time (stable, so each client's order is kept).
    fn finish(mut self) -> Feed {
        self.keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
        self.feed.records = self.keyed.into_iter().map(|(_, r)| r).collect();
        self.feed
    }
}

/// Pick a pool session other than `prev` (a repeat would hide the
/// boundary: its servers were all seen in the previous session).
fn pick(pool: &[PoolSession], prev: Option<usize>, rng: &mut Rng) -> usize {
    loop {
        let i = rng.below(pool.len());
        if Some(i) != prev || pool.len() == 1 {
            return i;
        }
    }
}

/// `stream_hot`: `clients` clients, client `c` streaming service `c % 3`
/// back to back, until the feed holds at least `target_records` records.
pub fn hot_feed(
    pools: &[Vec<PoolSession>],
    clients: usize,
    target_records: usize,
    seed: u64,
) -> Feed {
    let mut rng = Rng::new(seed ^ 0x407);
    let mut b = FeedBuilder::new(clients);
    let mut offset = vec![0.0f64; clients];
    let mut prev: Vec<Option<usize>> = vec![None; clients];
    let mut total = 0;
    let mut c = 0;
    while total < target_records {
        let pool = &pools[c % pools.len()];
        let i = pick(pool, prev[c], &mut rng);
        total += b.play(c, &pool[i], offset[c]);
        offset[c] += pool[i].wall_s + CLICK_THROUGH_S;
        prev[c] = Some(i);
        c = (c + 1) % clients;
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn session(label: usize, starts: &[f64], host: &str) -> PoolSession {
        let transactions = starts
            .iter()
            .map(|&s| TlsTransactionRecord {
                start_s: s,
                end_s: s + 5.0,
                up_bytes: 100.0,
                down_bytes: 1000.0,
                sni: Arc::from(host),
            })
            .collect();
        PoolSession {
            transactions,
            label,
            wall_s: 30.0,
            sim_ms: 0.0,
        }
    }

    fn pools() -> Vec<Vec<PoolSession>> {
        vec![vec![
            session(0, &[0.0, 1.0, 2.0], "a"),
            session(1, &[0.0, 0.5], "b"),
        ]]
    }

    #[test]
    fn hot_feed_is_event_ordered_and_labelled() {
        let feed = hot_feed(&pools(), 3, 40, 1);
        assert!(feed.records.len() >= 40);
        assert!(feed
            .records
            .windows(2)
            .all(|w| w[0].rec.start_s <= w[1].rec.start_s));
        for c in 0..3u32 {
            let starts: Vec<f64> = feed
                .records
                .iter()
                .filter(|r| r.client == c)
                .map(|r| r.rec.start_s)
                .collect();
            assert!(!starts.is_empty());
            assert!(starts.windows(2).all(|w| w[0] <= w[1]));
        }
        assert!(feed
            .records
            .iter()
            .all(|r| (r.session as usize) < feed.labels.len()));
        assert_eq!(
            feed.digest(),
            hot_feed(&pools(), 3, 40, 1).digest(),
            "seeded"
        );
        assert_ne!(feed.digest(), hot_feed(&pools(), 3, 40, 2).digest());
    }
}

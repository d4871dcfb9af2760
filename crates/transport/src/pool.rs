//! TLS connection pool: maps HTTP requests to TLS connections and emits the
//! proxy's transaction records.
//!
//! Key behaviours, all observable in the paper's data:
//!
//! * connection reuse folds many HTTP transactions into one TLS transaction
//!   (12.1 on average for Svc1, Fig. 2),
//! * idle timeouts mean "the active TLS transactions do not always end
//!   immediately once the player is closed" (§2.2) — closed sessions leave
//!   transactions whose end time trails into the next session,
//! * connection lifetime caps and churn rotate media connections, producing
//!   the ~19.5 transactions per Svc1 session the paper reports.

use std::sync::Arc;

use dtp_telemetry::{FlowRecord, TlsTransactionRecord};
use rand::rngs::StdRng;
use rand::RngExt;

use crate::policy::TlsPolicy;

/// An open TLS connection.
#[derive(Debug, Clone)]
pub struct Connection {
    /// Pool-unique id (also used as flow id).
    pub id: u32,
    /// Server hostname (SNI).
    pub host: Arc<str>,
    /// When the ClientHello was sent.
    pub opened_s: f64,
    /// Last time any byte moved.
    pub last_activity_s: f64,
    /// Total uplink bytes (handshake + requests).
    pub up_bytes: f64,
    /// Total downlink bytes (handshake + responses).
    pub down_bytes: f64,
    /// Uplink packets carried.
    pub up_packets: u32,
    /// Downlink packets carried.
    pub down_packets: u32,
    /// HTTP requests multiplexed so far.
    pub requests: usize,
}

/// Result of asking the pool for a connection to use at time `t`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lease {
    /// Index into the pool's open-connection table.
    pub index: usize,
    /// True if a new connection (and TLS handshake) was created.
    pub fresh: bool,
    /// Seconds the connection had been idle before this request (0 for
    /// fresh connections) — drives congestion-window restart.
    pub idle_s: f64,
}

/// The client's connection pool, instrumented as a transparent proxy would
/// see it.
#[derive(Debug, Clone)]
pub struct ConnectionPool {
    policy: TlsPolicy,
    open: Vec<Connection>,
    closed_tls: Vec<TlsTransactionRecord>,
    closed_flows: Vec<FlowRecord>,
    next_id: u32,
}

impl ConnectionPool {
    /// Empty pool under `policy`.
    pub fn new(policy: TlsPolicy) -> Self {
        policy.validate();
        Self { policy, open: Vec::new(), closed_tls: Vec::new(), closed_flows: Vec::new(), next_id: 0 }
    }

    /// The pool's policy.
    pub fn policy(&self) -> &TlsPolicy {
        &self.policy
    }

    /// Lease a connection to `host` for a request starting at `t`.
    ///
    /// Expires idle/over-age connections first. `parallel_target` is how
    /// many connections the client keeps to this host (media hosts get
    /// several — the session-start burst): below the target a fresh
    /// connection opens eagerly; at the target the least-recently-used live
    /// connection is reused, unless churn forces a fresh one anyway. Fresh
    /// connections are charged handshake bytes.
    pub fn acquire(
        &mut self,
        host: &Arc<str>,
        t: f64,
        parallel_target: usize,
        rng: &mut StdRng,
    ) -> Lease {
        self.expire(t);
        let churn = rng.random_range(0.0..1.0) < self.policy.churn_prob;
        if !churn {
            let candidates: Vec<usize> = self
                .open
                .iter()
                .enumerate()
                .filter(|(_, c)| {
                    c.host == *host
                        && c.requests < self.policy.max_requests
                        && t - c.opened_s < self.policy.max_lifetime_s
                })
                .map(|(i, _)| i)
                .collect();
            if candidates.len() >= parallel_target.max(1) {
                let index = candidates
                    .into_iter()
                    .min_by(|&a, &b| {
                        self.open[a]
                            .last_activity_s
                            .partial_cmp(&self.open[b].last_activity_s)
                            .expect("finite activity times")
                    })
                    .expect("non-empty candidates");
                let idle_s = (t - self.open[index].last_activity_s).max(0.0);
                return Lease { index, fresh: false, idle_s };
            }
        }
        let conn = Connection {
            id: self.next_id,
            host: Arc::clone(host),
            opened_s: t,
            last_activity_s: t,
            up_bytes: self.policy.handshake_up_bytes,
            down_bytes: self.policy.handshake_down_bytes,
            up_packets: 4,  // SYN, ACK, ClientHello, Finished
            down_packets: 5, // SYN-ACK, ServerHello + certs (3), Finished
            requests: 0,
        };
        self.next_id += 1;
        self.open.push(conn);
        Lease { index: self.open.len() - 1, fresh: true, idle_s: 0.0 }
    }

    /// Charge a completed HTTP exchange to the leased connection.
    pub fn record_usage(
        &mut self,
        lease: Lease,
        end_s: f64,
        up_bytes: f64,
        down_bytes: f64,
        up_packets: u32,
        down_packets: u32,
    ) {
        let c = &mut self.open[lease.index];
        c.last_activity_s = c.last_activity_s.max(end_s);
        c.up_bytes += up_bytes;
        c.down_bytes += down_bytes;
        c.up_packets += up_packets;
        c.down_packets += down_packets;
        c.requests += 1;
    }

    /// Close every connection idle past its timeout at time `now`.
    fn expire(&mut self, now: f64) {
        let timeout = self.policy.idle_timeout_s;
        let mut i = 0;
        while i < self.open.len() {
            if self.open[i].last_activity_s + timeout <= now {
                let c = self.open.swap_remove(i);
                self.close_connection(c);
            } else {
                i += 1;
            }
        }
    }

    /// The player went away at `session_end_s`: connections idle out on
    /// their own schedule, so each remaining transaction *ends after the
    /// session* at `last_activity + idle_timeout`.
    fn close_all(&mut self) {
        while let Some(c) = self.open.pop() {
            self.close_connection(c);
        }
    }

    fn close_connection(&mut self, c: Connection) {
        let end_s = c.last_activity_s + self.policy.idle_timeout_s;
        self.closed_tls.push(TlsTransactionRecord {
            start_s: c.opened_s,
            end_s,
            up_bytes: c.up_bytes,
            down_bytes: c.down_bytes,
            sni: Arc::clone(&c.host),
        });
        self.closed_flows.push(FlowRecord {
            start_s: c.opened_s,
            end_s: c.last_activity_s,
            up_bytes: c.up_bytes,
            down_bytes: c.down_bytes,
            up_packets: c.up_packets,
            down_packets: c.down_packets,
            server_port: 443,
            flow_id: c.id,
        });
    }

    /// Finish: close everything and hand over (TLS transactions, flows),
    /// both sorted by start time.
    pub fn into_records(mut self) -> (Vec<TlsTransactionRecord>, Vec<FlowRecord>) {
        self.close_all();
        self.closed_tls
            .sort_by(|a, b| a.start_s.partial_cmp(&b.start_s).expect("finite starts"));
        self.closed_flows
            .sort_by(|a, b| a.start_s.partial_cmp(&b.start_s).expect("finite starts"));
        (self.closed_tls, self.closed_flows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn no_churn_policy() -> TlsPolicy {
        TlsPolicy { churn_prob: 0.0, ..TlsPolicy::svc1() }
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn reuses_connection_to_same_host() {
        let mut pool = ConnectionPool::new(no_churn_policy());
        let mut r = rng();
        let host: Arc<str> = "cdn0.media.svc1.example".into();
        let l1 = pool.acquire(&host, 0.0, 1, &mut r);
        assert!(l1.fresh);
        pool.record_usage(l1, 1.0, 800.0, 1e6, 1, 700);
        let l2 = pool.acquire(&host, 2.0, 1, &mut r);
        assert!(!l2.fresh);
        assert!((l2.idle_s - 1.0).abs() < 1e-9);
        assert_eq!(pool.open.len(), 1);
    }

    #[test]
    fn different_hosts_get_different_connections() {
        let mut pool = ConnectionPool::new(no_churn_policy());
        let mut r = rng();
        let a: Arc<str> = "a.svc1.example".into();
        let b: Arc<str> = "b.svc1.example".into();
        pool.acquire(&a, 0.0, 1, &mut r);
        let l = pool.acquire(&b, 0.0, 1, &mut r);
        assert!(l.fresh);
        assert_eq!(pool.open.len(), 2);
    }

    #[test]
    fn idle_timeout_closes_and_ends_at_timeout() {
        let mut pool = ConnectionPool::new(no_churn_policy());
        let mut r = rng();
        let host: Arc<str> = "cdn.svc1.example".into();
        let l = pool.acquire(&host, 0.0, 1, &mut r);
        pool.record_usage(l, 3.0, 100.0, 1000.0, 1, 1);
        // 25 s idle timeout: at t=30 the connection is gone.
        let l2 = pool.acquire(&host, 30.0, 1, &mut r);
        assert!(l2.fresh);
        let (tls, flows) = pool.into_records();
        assert_eq!(tls.len(), 2);
        // First transaction ends exactly at last_activity + idle_timeout.
        assert!((tls[0].end_s - 28.0).abs() < 1e-9, "end={}", tls[0].end_s);
        assert_eq!(flows.len(), 2);
        // Flow end is last activity (no timeout padding).
        assert!((flows[0].end_s - 3.0).abs() < 1e-9);
    }

    #[test]
    fn request_cap_rotates_connections() {
        let mut p = no_churn_policy();
        p.max_requests = 2;
        let mut pool = ConnectionPool::new(p);
        let mut r = rng();
        let host: Arc<str> = "cdn.svc1.example".into();
        for i in 0..3 {
            let l = pool.acquire(&host, i as f64, 1, &mut r);
            pool.record_usage(l, i as f64 + 0.5, 100.0, 1000.0, 1, 1);
        }
        assert_eq!(pool.open.len(), 2, "third request must open a new connection");
    }

    #[test]
    fn lifetime_cap_rotates_connections() {
        let mut pool = ConnectionPool::new(no_churn_policy());
        let mut r = rng();
        let host: Arc<str> = "cdn.svc1.example".into();
        let l = pool.acquire(&host, 0.0, 1, &mut r);
        pool.record_usage(l, 1.0, 1.0, 1.0, 1, 1);
        // Keep it warm past the 240 s lifetime.
        let mut t = 1.0;
        while t < 239.0 {
            let l = pool.acquire(&host, t, 1, &mut r);
            pool.record_usage(l, t + 0.5, 1.0, 1.0, 1, 1);
            t += 10.0;
        }
        let l = pool.acquire(&host, 241.0, 1, &mut r);
        assert!(l.fresh, "over-age connection must not be reused");
    }

    #[test]
    fn session_end_leaves_trailing_transaction_ends() {
        let mut pool = ConnectionPool::new(no_churn_policy());
        let mut r = rng();
        let host: Arc<str> = "cdn.svc1.example".into();
        let l = pool.acquire(&host, 0.0, 1, &mut r);
        pool.record_usage(l, 100.0, 100.0, 1e6, 1, 700);
        let (tls, _) = pool.into_records();
        // Session "ended" at 100 s but the transaction drags to 125 s.
        assert!((tls[0].end_s - 125.0).abs() < 1e-9);
    }

    #[test]
    fn handshake_bytes_charged_once_per_connection() {
        let mut pool = ConnectionPool::new(no_churn_policy());
        let mut r = rng();
        let host: Arc<str> = "cdn.svc1.example".into();
        let l = pool.acquire(&host, 0.0, 1, &mut r);
        pool.record_usage(l, 1.0, 0.0, 0.0, 0, 0);
        let l = pool.acquire(&host, 2.0, 1, &mut r);
        pool.record_usage(l, 3.0, 0.0, 0.0, 0, 0);
        let (tls, _) = pool.into_records();
        assert_eq!(tls.len(), 1);
        assert!((tls[0].up_bytes - TlsPolicy::svc1().handshake_up_bytes).abs() < 1e-9);
    }

    #[test]
    fn churn_occasionally_opens_fresh_connections() {
        let mut p = no_churn_policy();
        p.churn_prob = 0.5;
        let mut pool = ConnectionPool::new(p);
        let mut r = rng();
        let host: Arc<str> = "cdn.svc1.example".into();
        let mut fresh = 0;
        for i in 0..50 {
            let l = pool.acquire(&host, i as f64 * 0.1, 1, &mut r);
            if l.fresh {
                fresh += 1;
            }
            pool.record_usage(l, i as f64 * 0.1 + 0.05, 1.0, 1.0, 1, 1);
        }
        assert!(fresh > 10, "churn should open many connections, got {fresh}");
    }

    #[test]
    fn records_sorted_by_start() {
        let mut pool = ConnectionPool::new(no_churn_policy());
        let mut r = rng();
        let a: Arc<str> = "a.svc1.example".into();
        let b: Arc<str> = "b.svc1.example".into();
        let l = pool.acquire(&b, 5.0, 1, &mut r);
        pool.record_usage(l, 6.0, 1.0, 1.0, 1, 1);
        let l = pool.acquire(&a, 1.0, 1, &mut r);
        pool.record_usage(l, 2.0, 1.0, 1.0, 1, 1);
        let (tls, flows) = pool.into_records();
        assert!(tls[0].start_s <= tls[1].start_s);
        assert!(flows[0].start_s <= flows[1].start_s);
    }
}

//! Figure 2: TLS transactions with the corresponding HTTP transactions
//! within the first 5 seconds of a Svc1 session.
//!
//! The paper's point: "a single TLS transaction contains multiple and
//! variable number of HTTP transactions" — an average of 12.1 HTTP per TLS
//! for Svc1. This experiment renders the same timeline as text and reports the
//! aggregation ratio over a small corpus.

use crate::{heading, RunConfig};
use dtp_core::sim::{simulate_session, SessionConfig};
use dtp_core::ServiceId;
use dtp_simnet::{BandwidthTrace, TraceKind};
use dtp_telemetry::http::http_per_tls;

pub fn run(cfg: &RunConfig) {
    heading("Figure 2: TLS vs HTTP transactions, first 5 s of a Svc1 session");

    let session = simulate_session(&SessionConfig {
        service: ServiceId::Svc1,
        trace: BandwidthTrace::constant(9000.0, 600.0),
        kind: TraceKind::Lte,
        watch_duration_s: 120.0,
        seed: cfg.seed,
        capture_packets: false,
    });

    let window = 5.0;
    let tls: Vec<_> = session
        .telemetry
        .tls
        .transactions()
        .iter()
        .filter(|t| t.start_s < window)
        .collect();
    println!("\nTLS transactions starting in the first {window} s:");
    for (i, t) in tls.iter().enumerate() {
        let bar_start = (t.start_s / window * 50.0) as usize;
        let bar_end = ((t.end_s.min(window)) / window * 50.0) as usize;
        let mut line = vec![' '; 51];
        for c in line.iter_mut().take(bar_end + 1).skip(bar_start) {
            *c = '=';
        }
        println!(
            "  #{:<2} [{}] {:>6.2}s..{:>6.2}s  {}",
            i + 1,
            line.iter().collect::<String>(),
            t.start_s,
            t.end_s,
            t.sni
        );
        // The HTTP transactions hidden inside this TLS transaction.
        let inner: Vec<_> = session
            .telemetry
            .http
            .iter()
            .filter(|h| h.host == t.sni && h.start_s >= t.start_s && h.start_s < window)
            .collect();
        for h in &inner {
            let pos = (h.start_s / window * 50.0) as usize;
            let mut line = vec![' '; 51];
            line[pos] = '|';
            println!("       [{}] http @ {:>5.2}s ({:.0} B down)", line.iter().collect::<String>(), h.start_s, h.down_bytes);
        }
    }

    // Aggregation ratio over a handful of longer sessions.
    let mut ratios = Vec::new();
    for i in 0..20 {
        let s = simulate_session(&SessionConfig {
            service: ServiceId::Svc1,
            trace: BandwidthTrace::constant(6000.0, 1500.0),
            kind: TraceKind::Lte,
            watch_duration_s: 300.0,
            seed: cfg.seed + 100 + i,
            capture_packets: false,
        });
        ratios.push(http_per_tls(&s.telemetry.http, s.telemetry.tls.len()));
    }
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    println!("\nHTTP transactions per TLS transaction (mean over 20 sessions): {mean:.1}");
    println!("Paper reports 12.1 for Svc1 — multiple, variable HTTP per TLS.");
    if cfg.json {
        println!("{}", serde_json::json!({ "http_per_tls_mean": mean }));
    }
}

//! Integration: the three telemetry views of one session must be mutually
//! consistent — they are derived views of the same simulated transfers.

use drop_the_packets::core::sim::{simulate_session, SessionConfig};
use drop_the_packets::core::experiments::table4_overhead;
use drop_the_packets::core::{DatasetBuilder, ServiceId};
use drop_the_packets::simnet::{TraceConfig, TraceKind};
use drop_the_packets::telemetry::Direction;

fn session(seed: u64) -> drop_the_packets::core::SimulatedSession {
    let trace = TraceConfig { kind: TraceKind::Lte, duration_s: 700.0, seed }.generate();
    simulate_session(&SessionConfig {
        service: ServiceId::Svc2,
        trace,
        kind: TraceKind::Lte,
        watch_duration_s: 120.0,
        seed,
        capture_packets: true,
    })
}

#[test]
fn http_bytes_bounded_by_tls_bytes() {
    for seed in [1, 2, 3] {
        let s = session(seed);
        let (tls_up, tls_down) = s.telemetry.tls.byte_totals();
        let http_down: f64 = s.telemetry.http.iter().map(|h| h.down_bytes).sum();
        let http_up: f64 = s.telemetry.http.iter().map(|h| h.up_bytes).sum();
        // TLS adds handshakes on top of HTTP payloads.
        assert!(tls_down >= http_down, "seed {seed}: {tls_down} < {http_down}");
        assert!(tls_up >= http_up);
        // But not absurdly more (handshake is a few KB per connection).
        let slack = s.telemetry.tls.len() as f64 * 10_000.0;
        assert!(tls_down <= http_down + slack);
    }
}

#[test]
fn every_http_transaction_fits_inside_a_tls_transaction() {
    let s = session(4);
    for h in &s.telemetry.http {
        let covered = s.telemetry.tls.transactions().iter().any(|t| {
            t.sni == h.host && t.start_s <= h.start_s + 1e-9 && t.end_s >= h.end_s - 1e-9
        });
        assert!(covered, "uncovered http transaction at {}", h.start_s);
    }
}

#[test]
fn packet_bytes_approximate_tls_bytes() {
    let s = session(5);
    let (pkt_up, pkt_down) = s.telemetry.packets.byte_totals();
    let (tls_up, tls_down) = s.telemetry.tls.byte_totals();
    // Downlink packets carry the TLS payload plus per-packet headers and
    // retransmissions; they must be within ~20% of each other.
    let ratio = pkt_down as f64 / tls_down;
    assert!((0.85..1.35).contains(&ratio), "down ratio {ratio}");
    // Uplink packets include ACK streams, so packets exceed TLS accounting.
    assert!(pkt_up as f64 >= tls_up * 0.5, "uplink {pkt_up} vs {tls_up}");
}

#[test]
fn flows_match_tls_transactions_one_to_one() {
    let s = session(6);
    assert_eq!(s.telemetry.flows.len(), s.telemetry.tls.len());
    let flow_down: f64 = s.telemetry.flows.iter().map(|f| f.down_bytes).sum();
    let (_, tls_down) = s.telemetry.tls.byte_totals();
    assert!((flow_down - tls_down).abs() < 1.0);
    for f in &s.telemetry.flows {
        assert_eq!(f.server_port, 443);
        assert!(f.down_packets > 0 || f.down_bytes < 6_000.0);
    }
}

#[test]
fn packet_timestamps_are_sorted_and_nonnegative() {
    let s = session(7);
    let records = s.telemetry.packets.records();
    assert!(!records.is_empty());
    for w in records.windows(2) {
        assert!(w[0].ts_s <= w[1].ts_s + 1e-9);
    }
    assert!(records[0].ts_s >= 0.0);
    // Both directions present.
    assert!(records.iter().any(|p| p.dir == Direction::Up));
    assert!(records.iter().any(|p| p.dir == Direction::Down));
}

#[test]
fn transaction_ends_can_trail_the_session() {
    // Idle timeouts mean transactions end after the player closes — the
    // session-overlap property the paper's heuristic must survive.
    let s = session(8);
    let wall = s.ground_truth.wall_duration_s;
    let trailing = s
        .telemetry
        .tls
        .transactions()
        .iter()
        .filter(|t| t.end_s > wall)
        .count();
    assert!(trailing > 0, "some transactions must outlive the session");
}

#[test]
fn packet_view_costs_more_records_and_extraction_than_tls() {
    // Table 4's direction (§4.2): the packet view holds far more records
    // than the TLS view and takes longer to extract features from.
    let c = DatasetBuilder::new(ServiceId::Svc1).sessions(10).seed(3).capture_packets(true).build();
    let o = table4_overhead(&c);
    assert!(o.tls_extraction_s > 0.0, "TLS extraction was timed");
    assert!(o.memory_ratio() > 1.0, "packets {} vs TLS {} per session", o.mean_packets, o.mean_tls);
    assert!(
        o.compute_ratio() > 1.0,
        "packet extraction {} s vs TLS {} s",
        o.packet_extraction_s,
        o.tls_extraction_s
    );
}

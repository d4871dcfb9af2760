//! ML16 baseline features from packet traces.
//!
//! Re-implementation of the feature family of Dimopoulos et al., *Measuring
//! Video QoE from Encrypted Traffic* (IMC 2016) — the algorithm the paper
//! compares against ("we implement an algorithm proposed by Dimopoulos et
//! al. called ML16", §4.2). It combines:
//!
//! * **video-segment (chunk) features** recovered from the packet stream:
//!   sizeable uplink packets mark HTTP requests, and the downlink bytes
//!   between consecutive requests approximate segment sizes, and
//! * **network QoS metrics**: retransmission counts/rates, loss, and RTT
//!   statistics.
//!
//! The paper uses ML16's *video-quality* feature set for the combined QoE
//! metric "as it is a superset of the features used to estimate
//! re-buffering" — so do we.

use dtp_telemetry::{Direction, PacketCapture};

use crate::stats;

/// Uplink packets at least this large (wire bytes) are treated as HTTP
/// requests rather than bare ACKs.
const REQUEST_SIZE_THRESHOLD: u32 = 200;

/// Column names for [`extract_packet_features`], in order.
pub fn packet_feature_names() -> Vec<String> {
    let mut names = Vec::new();
    // Session aggregates.
    for n in [
        "PKT_SES_DUR",
        "PKT_TOTAL_DOWN_BYTES",
        "PKT_TOTAL_UP_BYTES",
        "PKT_DOWN_PKTS",
        "PKT_UP_PKTS",
        "PKT_AVG_THROUGHPUT_KBPS",
    ] {
        names.push(n.to_string());
    }
    // Segment (chunk) statistics.
    for metric in ["SEG_SIZE", "SEG_DUR", "SEG_IAT", "SEG_RATE_KBPS"] {
        for stat in ["MIN", "MED", "MAX", "MEAN", "STD"] {
            names.push(format!("{metric}_{stat}"));
        }
    }
    names.push("SEG_COUNT".to_string());
    names.push("SEG_PER_SEC".to_string());
    // Network QoS.
    for n in [
        "RETX_COUNT",
        "RETX_RATE",
        "LOSS_RATE",
        "RTT_MIN_MS",
        "RTT_MED_MS",
        "RTT_MAX_MS",
        "RTT_MEAN_MS",
        "RTT_STD_MS",
    ] {
        names.push(n.to_string());
    }
    names
}

/// Extract the ML16 feature vector from one session's packet capture.
///
/// The capture must be time-sorted (see
/// [`PacketCapture::sort_by_time`](dtp_telemetry::PacketCapture::sort_by_time));
/// an empty capture yields all zeros.
pub fn extract_packet_features(capture: &PacketCapture) -> Vec<f64> {
    let _span = dtp_obs::span!("extract.packet");
    let n_features = packet_feature_names().len();
    let records = capture.records();
    dtp_obs::counter!("extract.packet_records").add(records.len() as u64);
    if records.is_empty() {
        return vec![0.0; n_features];
    }
    let mut out = Vec::with_capacity(n_features);

    let t0 = records.first().expect("non-empty").ts_s;
    let t1 = records.last().expect("non-empty").ts_s;
    let dur = (t1 - t0).max(1e-9);
    let (up_bytes, down_bytes) = capture.byte_totals();
    let down_pkts = records.iter().filter(|r| r.dir == Direction::Down).count();
    let up_pkts = records.len() - down_pkts;

    out.push(dur);
    out.push(down_bytes as f64);
    out.push(up_bytes as f64);
    out.push(down_pkts as f64);
    out.push(up_pkts as f64);
    out.push(down_bytes as f64 * 8.0 / 1000.0 / dur);

    // --- Segment recovery ---
    // Group downlink bytes between consecutive request-sized uplink packets.
    let mut seg_sizes = Vec::new();
    let mut seg_durs = Vec::new();
    let mut seg_starts = Vec::new();
    let mut cur_bytes = 0.0f64;
    let mut cur_start: Option<f64> = None;
    let mut cur_last = 0.0f64;
    for r in records {
        match r.dir {
            Direction::Up if r.size_bytes >= REQUEST_SIZE_THRESHOLD => {
                if let Some(s) = cur_start.take() {
                    if cur_bytes > 0.0 {
                        seg_sizes.push(cur_bytes);
                        seg_durs.push((cur_last - s).max(1e-6));
                        seg_starts.push(s);
                    }
                }
                cur_bytes = 0.0;
                cur_start = Some(r.ts_s);
                cur_last = r.ts_s;
            }
            Direction::Down if cur_start.is_some() => {
                cur_bytes += f64::from(r.size_bytes);
                cur_last = r.ts_s;
            }
            _ => {}
        }
    }
    if let Some(s) = cur_start {
        if cur_bytes > 0.0 {
            seg_sizes.push(cur_bytes);
            seg_durs.push((cur_last - s).max(1e-6));
            seg_starts.push(s);
        }
    }
    let seg_iat: Vec<f64> = seg_starts.windows(2).map(|w| w[1] - w[0]).collect();
    let seg_rate: Vec<f64> = seg_sizes
        .iter()
        .zip(&seg_durs)
        .map(|(b, d)| b * 8.0 / 1000.0 / d.max(1e-6))
        .collect();

    for series in [&seg_sizes, &seg_durs, &seg_iat, &seg_rate] {
        out.push(stats::min(series));
        out.push(stats::median(series));
        out.push(stats::max(series));
        out.push(stats::mean(series));
        out.push(stats::std_dev(series));
    }
    out.push(seg_sizes.len() as f64);
    out.push(seg_sizes.len() as f64 / dur);

    // --- Network QoS ---
    let retx = capture.retransmission_count() as f64;
    out.push(retx);
    out.push(retx / records.len() as f64);
    // Loss rate estimated from downlink retransmissions over downlink packets.
    let down_retx = records
        .iter()
        .filter(|r| r.dir == Direction::Down && r.is_retransmission)
        .count() as f64;
    out.push(if down_pkts > 0 { down_retx / down_pkts as f64 } else { 0.0 });
    let rtts = capture.rtt_samples_ms();
    out.push(stats::min(&rtts));
    out.push(stats::median(&rtts));
    out.push(stats::max(&rtts));
    out.push(stats::mean(&rtts));
    out.push(stats::std_dev(&rtts));

    debug_assert_eq!(out.len(), n_features);
    out
}

/// Extract the ML16 vector for every capture in a corpus, fanned out over
/// `dtp-par` workers. Row order matches input order at any thread count.
/// This is the paper's 503-seconds-per-corpus path (Table 4) — the one
/// that needs the parallelism most.
pub fn extract_packet_features_batch(captures: &[PacketCapture]) -> Vec<Vec<f64>> {
    dtp_par::par_map("extract.packet_sessions", captures, |_, c| extract_packet_features(c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtp_telemetry::PacketRecord;

    fn request(ts: f64) -> PacketRecord {
        PacketRecord { ts_s: ts, dir: Direction::Up, size_bytes: 900, is_retransmission: false, rtt_ms: None }
    }

    fn data(ts: f64, size: u32) -> PacketRecord {
        PacketRecord { ts_s: ts, dir: Direction::Down, size_bytes: size, is_retransmission: false, rtt_ms: None }
    }

    fn ack(ts: f64) -> PacketRecord {
        PacketRecord { ts_s: ts, dir: Direction::Up, size_bytes: 66, is_retransmission: false, rtt_ms: None }
    }

    fn capture_with_two_segments() -> PacketCapture {
        let mut c = PacketCapture::new();
        c.push(request(0.0));
        for i in 0..10 {
            c.push(data(0.1 + i as f64 * 0.05, 1500));
            c.push(ack(0.12 + i as f64 * 0.05));
        }
        c.push(request(2.0));
        for i in 0..20 {
            c.push(data(2.1 + i as f64 * 0.05, 1500));
        }
        c.sort_by_time();
        c
    }

    #[test]
    fn names_and_length_agree() {
        let names = packet_feature_names();
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(names.len(), set.len(), "names unique");
        let c = capture_with_two_segments();
        assert_eq!(extract_packet_features(&c).len(), names.len());
        assert_eq!(extract_packet_features(&PacketCapture::new()).len(), names.len());
    }

    #[test]
    fn segments_recovered_from_requests() {
        let c = capture_with_two_segments();
        let f = extract_packet_features(&c);
        let names = packet_feature_names();
        let get = |n: &str| f[names.iter().position(|x| x == n).unwrap()];
        assert_eq!(get("SEG_COUNT"), 2.0);
        assert_eq!(get("SEG_SIZE_MIN"), 15_000.0);
        assert_eq!(get("SEG_SIZE_MAX"), 30_000.0);
        // ACKs must not split segments.
        assert!((get("SEG_IAT_MAX") - 2.0).abs() < 1e-9);
    }

    #[test]
    fn retransmissions_counted() {
        let mut c = capture_with_two_segments();
        let mut p = data(0.5, 1500);
        p.is_retransmission = true;
        c.push(p);
        c.sort_by_time();
        let f = extract_packet_features(&c);
        let names = packet_feature_names();
        let get = |n: &str| f[names.iter().position(|x| x == n).unwrap()];
        assert_eq!(get("RETX_COUNT"), 1.0);
        assert!(get("RETX_RATE") > 0.0);
        assert!(get("LOSS_RATE") > 0.0);
    }

    #[test]
    fn rtt_statistics_from_samples() {
        let mut c = PacketCapture::new();
        c.push(request(0.0));
        for (i, rtt) in [40.0, 50.0, 60.0].iter().enumerate() {
            let mut p = data(0.1 + i as f64 * 0.1, 1500);
            p.rtt_ms = Some(*rtt);
            c.push(p);
        }
        let f = extract_packet_features(&c);
        let names = packet_feature_names();
        let get = |n: &str| f[names.iter().position(|x| x == n).unwrap()];
        assert_eq!(get("RTT_MIN_MS"), 40.0);
        assert_eq!(get("RTT_MED_MS"), 50.0);
        assert_eq!(get("RTT_MAX_MS"), 60.0);
        assert!((get("RTT_MEAN_MS") - 50.0).abs() < 1e-9);
    }

    #[test]
    fn empty_capture_is_all_zero() {
        let f = extract_packet_features(&PacketCapture::new());
        assert!(f.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn throughput_consistent_with_totals() {
        let c = capture_with_two_segments();
        let f = extract_packet_features(&c);
        let names = packet_feature_names();
        let get = |n: &str| f[names.iter().position(|x| x == n).unwrap()];
        let expect = get("PKT_TOTAL_DOWN_BYTES") * 8.0 / 1000.0 / get("PKT_SES_DUR");
        assert!((get("PKT_AVG_THROUGHPUT_KBPS") - expect).abs() < 1e-9);
    }
}

//! End-to-end session simulation: Fig. 1 step 1 (data collection).
//!
//! Glues the substrates together: a bandwidth trace drives a [`Link`];
//! a [`NetworkStack`] (CDN + TLS pool + packet synthesis) implements the
//! player's [`SegmentFetcher`]; the [`Player`] streams a catalog title with
//! the service's ABR; the output is client-side ground truth *and* the
//! telemetry an ISP would have captured.

use dtp_hasplayer::fetch::{FetchKind, FetchOutcome, FetchRequest, SegmentFetcher};
use dtp_hasplayer::player::{Player, PlayerConfig};
use dtp_hasplayer::qoe::GroundTruth;
use dtp_hasplayer::service::{ServiceId, ServiceProfile};
use dtp_hasplayer::video::VideoCatalog;
use dtp_simnet::{BandwidthTrace, Link, LinkConfig, TraceCorpus, TraceKind};
use dtp_telemetry::SessionTelemetry;
use dtp_transport::cdn::{CdnModel, HostClass};
use dtp_transport::policy::TlsPolicy;
use dtp_transport::stack::NetworkStack;

use crate::label::{combined_label, quality_category, rebuffering_label, QoeCategory};

/// Everything needed to simulate one session.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Which service's player streams.
    pub service: ServiceId,
    /// The bandwidth process for the session.
    pub trace: BandwidthTrace,
    /// Network environment (drives RTT/loss parameters).
    pub kind: TraceKind,
    /// Wall-clock watch duration (paper: 10–1200 s).
    pub watch_duration_s: f64,
    /// Session seed (title choice, CDN assignment, packet randomness).
    pub seed: u64,
    /// Whether to synthesize the packet trace (expensive view).
    pub capture_packets: bool,
}

/// A completed simulated session.
#[derive(Debug)]
pub struct SimulatedSession {
    /// The service streamed.
    pub service: ServiceId,
    /// Player profile used.
    pub profile: ServiceProfile,
    /// Client-side ground truth (the paper's JS-hook equivalent).
    pub ground_truth: GroundTruth,
    /// Everything the ISP measurement plane saw.
    pub telemetry: SessionTelemetry,
    /// Configured watch duration.
    pub watch_duration_s: f64,
    /// Time-average available bandwidth of the trace, kbps.
    pub avg_bandwidth_kbps: f64,
}

impl SimulatedSession {
    /// Ground-truth combined QoE: the worse of the video-quality and
    /// re-buffering categories (the paper's headline label).
    pub fn combined_qoe(&self) -> QoeCategory {
        combined_label(
            quality_category(&self.ground_truth, &self.profile),
            rebuffering_label(&self.ground_truth),
        )
    }
}

/// TLS policy matching a service's client behaviour.
fn policy_for(service: ServiceId) -> TlsPolicy {
    match service {
        ServiceId::Svc1 => TlsPolicy::svc1(),
        ServiceId::Svc2 => TlsPolicy::svc2(),
        ServiceId::Svc3 => TlsPolicy::svc3(),
    }
}

/// The CDN hostname universe of a service.
pub fn cdn_for(service: ServiceId) -> CdnModel {
    match service {
        ServiceId::Svc1 => CdnModel::new("svc1", 24),
        ServiceId::Svc2 => CdnModel::new("svc2", 16),
        ServiceId::Svc3 => CdnModel::new("svc3", 12),
    }
}

/// Link path parameters for a network environment.
fn link_config_for(kind: TraceKind) -> LinkConfig {
    match kind {
        TraceKind::Broadband => LinkConfig::broadband(),
        TraceKind::Cellular3g | TraceKind::Lte => LinkConfig::cellular(),
    }
}

/// The service's catalog (deterministic per service — the paper curates a
/// fixed 50–75 title list per service).
fn catalog_for(profile: &ServiceProfile) -> VideoCatalog {
    let seed = match profile.id {
        ServiceId::Svc1 => 0x5171,
        ServiceId::Svc2 => 0x5272,
        ServiceId::Svc3 => 0x5373,
    };
    VideoCatalog::generate(profile.catalog_size(), &profile.ladder, profile.segment_duration_s, seed)
}

/// Adapter: the player's fetch interface backed by the network stack.
struct StackFetcher {
    stack: NetworkStack,
}

impl SegmentFetcher for StackFetcher {
    fn fetch(&mut self, req: &FetchRequest) -> FetchOutcome {
        let class = match req.kind {
            // Manifests are served from the CDN edge like media (master
            // playlists live on the CDN); only telemetry beacons hit the
            // stable API host. This matters for session identification: the
            // session-start burst lands on per-session-varying edge hosts.
            FetchKind::Manifest | FetchKind::Init | FetchKind::VideoSegment { .. } => {
                HostClass::Media
            }
            FetchKind::Beacon => HostClass::Api,
            FetchKind::AudioInit | FetchKind::AudioSegment { .. } => HostClass::Audio,
        };
        let res = self.stack.request(req.start_s, class, req.request_bytes, req.response_bytes);
        FetchOutcome { end_s: res.end_s, completed: res.completed }
    }
}

/// Codec bitrate factor for a session. Streaming services serve different
/// codecs to different clients (H.264 baseline, VP9/AV1 where supported),
/// with large bitrate differences *at the same resolution* — one of the
/// reasons byte volume only statistically identifies video quality.
fn codec_factor(seed: u64) -> f64 {
    // Deterministic per-session draw: ~45% H.264, ~40% VP9, ~15% AV1.
    let h = seed.wrapping_mul(0xd6e8_feb8_6659_fd93) >> 40;
    let u = h as f64 / (1u64 << 24) as f64;
    if u < 0.45 {
        1.0
    } else if u < 0.85 {
        0.68
    } else {
        0.52
    }
}

/// Simulate one full session with the service's stock profile.
pub fn simulate_session(cfg: &SessionConfig) -> SimulatedSession {
    simulate_session_with_profile(cfg, ServiceProfile::of(cfg.service))
}

/// Simulate every session of a trace corpus for `service` on `dtp-par`
/// workers (`DTP_THREADS`), handing each one to `f` on the worker that
/// simulated it.
///
/// Entry `i` runs with session seed `seed_of(i)` and the given packet
/// capture flag. Result `i` is `f` of entry `i`'s session, in index order,
/// so the output matches a serial loop at any thread count.
pub fn simulate_corpus<T: Send>(
    service: ServiceId,
    traces: &TraceCorpus,
    capture_packets: bool,
    seed_of: impl Fn(u64) -> u64 + Sync,
    f: impl Fn(SimulatedSession) -> T + Sync,
) -> Vec<T> {
    dtp_par::par_map("simulate.corpus", traces.entries(), |i, e| {
        f(simulate_session(&SessionConfig {
            service,
            trace: e.trace.clone(),
            kind: e.kind,
            watch_duration_s: e.watch_duration_s,
            seed: seed_of(i as u64),
            capture_packets,
        }))
    })
}

/// The common per-index seed rule for [`simulate_corpus`]: entry `i` of a
/// run seeded `seed` streams with `seed * 0x9e3779b9 + i` (wrapping).
pub fn session_seed(seed: u64) -> impl Fn(u64) -> u64 + Sync {
    move |i| seed.wrapping_mul(0x9e37_79b9).wrapping_add(i)
}

/// Simulate a session with a *custom* player profile (ABR/buffer ablations);
/// the CDN, TLS policy and catalog still come from `cfg.service`.
pub fn simulate_session_with_profile(
    cfg: &SessionConfig,
    profile: ServiceProfile,
) -> SimulatedSession {
    let _span = dtp_obs::span!("simulate.session");
    let catalog = catalog_for(&profile);
    let mut asset = catalog.pick(cfg.seed).clone();
    // Per-session codec assignment rescales every rung's bitrate while the
    // resolutions (and therefore quality labels) stay put.
    asset.ladder = asset.ladder.scaled(codec_factor(cfg.seed));

    let avg_bandwidth_kbps = cfg.trace.average_kbps();
    let link = Link::new(cfg.trace.clone(), link_config_for(cfg.kind));
    let stack = NetworkStack::new(
        link,
        &cdn_for(cfg.service),
        policy_for(cfg.service),
        cfg.seed,
        cfg.capture_packets,
    );
    let mut fetcher = StackFetcher { stack };

    let player = Player::new(PlayerConfig::new(profile.clone(), cfg.watch_duration_s));
    let trace = player.play(&asset, &mut fetcher);
    let telemetry = fetcher.stack.finish(trace.wall_end_s);

    SimulatedSession {
        service: cfg.service,
        profile,
        ground_truth: trace.ground_truth,
        telemetry,
        watch_duration_s: cfg.watch_duration_s,
        avg_bandwidth_kbps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(service: ServiceId, kbps: f64, watch: f64, seed: u64) -> SessionConfig {
        SessionConfig {
            service,
            trace: BandwidthTrace::constant(kbps, watch * 3.0 + 120.0),
            kind: TraceKind::Lte,
            watch_duration_s: watch,
            seed,
            capture_packets: true,
        }
    }

    #[test]
    fn healthy_session_produces_all_views() {
        let s = simulate_session(&cfg(ServiceId::Svc1, 8000.0, 120.0, 1));
        assert!(!s.ground_truth.aborted);
        assert!(s.ground_truth.played_s > 60.0);
        assert!(s.telemetry.tls.len() >= 2, "media + api transactions");
        assert!(!s.telemetry.http.is_empty());
        assert!(!s.telemetry.packets.is_empty());
        assert!(!s.telemetry.flows.is_empty());
    }

    #[test]
    fn http_transactions_outnumber_tls_transactions() {
        let s = simulate_session(&cfg(ServiceId::Svc1, 6000.0, 300.0, 2));
        let (pkts, tls) = s.telemetry.record_counts();
        assert!(s.telemetry.http.len() > tls, "{} http vs {tls} tls", s.telemetry.http.len());
        assert!(pkts > s.telemetry.http.len() * 10, "packets dominate: {pkts}");
    }

    #[test]
    fn sni_identifies_the_service() {
        let s = simulate_session(&cfg(ServiceId::Svc2, 5000.0, 60.0, 3));
        let cdn = cdn_for(ServiceId::Svc2);
        for t in s.telemetry.tls.transactions() {
            assert!(cdn.owns_sni(&t.sni), "sni {}", t.sni);
        }
    }

    #[test]
    fn poor_network_degrades_svc1_quality() {
        let good = simulate_session(&cfg(ServiceId::Svc1, 20_000.0, 180.0, 4));
        let poor = simulate_session(&cfg(ServiceId::Svc1, 500.0, 180.0, 4));
        let p = &good.profile;
        let q_good = crate::label::quality_category(&good.ground_truth, p);
        let q_poor = crate::label::quality_category(&poor.ground_truth, p);
        assert!(q_poor < q_good, "poor {q_poor:?} must be below good {q_good:?}");
    }

    #[test]
    fn deterministic_given_config() {
        let a = simulate_session(&cfg(ServiceId::Svc3, 3000.0, 90.0, 5));
        let b = simulate_session(&cfg(ServiceId::Svc3, 3000.0, 90.0, 5));
        assert_eq!(a.ground_truth.played_s, b.ground_truth.played_s);
        assert_eq!(a.telemetry.tls.len(), b.telemetry.tls.len());
        assert_eq!(a.telemetry.packets.len(), b.telemetry.packets.len());
    }

    #[test]
    fn capture_packets_flag_controls_packet_view_only() {
        let mut c = cfg(ServiceId::Svc1, 5000.0, 60.0, 6);
        c.capture_packets = false;
        let s = simulate_session(&c);
        assert!(s.telemetry.packets.is_empty());
        assert!(s.telemetry.tls.len() >= 2);
    }
}

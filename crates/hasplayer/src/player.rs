//! The HAS player engine.
//!
//! A discrete-event simulation of one streaming session: the player fetches
//! a manifest, then repeatedly asks its ABR for a quality level and downloads
//! segments through a [`SegmentFetcher`], while playback concurrently drains
//! the buffer. Stalls, startup delay and per-second on-screen quality are
//! tracked exactly — this is the ground truth the paper's HTML5 hooks
//! collected.
//!
//! The engine is single-threaded and deterministic: time only advances via
//! fetch completions and idle waits, and the fetcher is the only source of
//! timing.

use std::collections::VecDeque;

use crate::abr::AbrContext;
use crate::fetch::{FetchKind, FetchOutcome, FetchRequest, SegmentFetcher};
use crate::qoe::{GroundTruth, PlayState};
use crate::service::ServiceProfile;
use crate::video::VideoAsset;

/// Typical HTTP request size on the wire (method + path + headers), bytes.
const REQUEST_BYTES: f64 = 850.0;

/// Session-level player configuration.
#[derive(Debug, Clone)]
pub struct PlayerConfig {
    /// The service whose player we emulate.
    pub profile: ServiceProfile,
    /// Wall-clock time after which the user closes the player, seconds.
    pub watch_duration_s: f64,
    /// Hard simulation horizon; a fetch that cannot finish by then aborts
    /// the session (hopeless network).
    pub horizon_s: f64,
}

impl PlayerConfig {
    /// Config with the paper's margins: the horizon is three times the watch
    /// duration plus two minutes.
    pub fn new(profile: ServiceProfile, watch_duration_s: f64) -> Self {
        assert!(watch_duration_s > 0.0, "watch duration must be positive");
        Self { profile, watch_duration_s, horizon_s: watch_duration_s * 3.0 + 120.0 }
    }
}

/// One fetched request with its completion time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestRecord {
    /// The request as issued.
    pub request: FetchRequest,
    /// When its response finished, seconds.
    pub end_s: f64,
}

/// Everything a simulated session produced.
#[derive(Debug, Clone)]
pub struct SessionTrace {
    /// Client-side ground truth (what the paper's JS hooks logged).
    pub ground_truth: GroundTruth,
    /// Every HTTP request the player issued, in time order.
    pub requests: Vec<RequestRecord>,
    /// Wall-clock end of the session.
    pub wall_end_s: f64,
}

/// A buffered, not-yet-played piece of content.
#[derive(Debug, Clone, Copy)]
struct BufferedSegment {
    level: usize,
    remaining_s: f64,
}

/// The streaming client.
#[derive(Debug, Clone)]
pub struct Player {
    config: PlayerConfig,
}

impl Player {
    /// Create a player for the given configuration.
    pub fn new(config: PlayerConfig) -> Self {
        Self { config }
    }

    /// Stream `asset` through `fetcher`, returning the full session trace.
    pub fn play(&self, asset: &VideoAsset, fetcher: &mut dyn SegmentFetcher) -> SessionTrace {
        let _span = dtp_obs::span!("simulate.play");
        dtp_obs::counter!("simulate.sessions").inc();
        Engine::new(&self.config, asset).run(fetcher)
    }
}

struct Engine<'a> {
    cfg: &'a PlayerConfig,
    asset: &'a VideoAsset,
    abr: Box<dyn crate::abr::Abr + Send>,

    t: f64,
    started: bool,
    stalled: bool,
    startup_delay_s: f64,
    queue: VecDeque<BufferedSegment>,
    buffer_s: f64,
    played_s: f64,
    stall_s: f64,
    level_seconds: Vec<f64>,
    per_second: Vec<PlayState>,
    next_sample_s: f64,

    tput_kbps: f64,
    have_tput: bool,
    last_level: usize,
    have_level: bool,
    last_switch_s: f64,
    switches: usize,

    next_seg: usize,
    downloads_done: bool,
    next_beacon_s: f64,
    aborted: bool,

    requests: Vec<RequestRecord>,
}

impl<'a> Engine<'a> {
    fn new(cfg: &'a PlayerConfig, asset: &'a VideoAsset) -> Self {
        let levels = asset.ladder.len();
        Self {
            cfg,
            asset,
            abr: cfg.profile.abr.build(),
            t: 0.0,
            started: false,
            stalled: false,
            startup_delay_s: 0.0,
            queue: VecDeque::new(),
            buffer_s: 0.0,
            played_s: 0.0,
            stall_s: 0.0,
            level_seconds: vec![0.0; levels],
            per_second: Vec::new(),
            next_sample_s: 1.0,
            tput_kbps: 0.0,
            have_tput: false,
            last_level: 0,
            have_level: false,
            last_switch_s: f64::NEG_INFINITY,
            switches: 0,
            next_seg: 0,
            downloads_done: asset.segment_count() == 0,
            next_beacon_s: if cfg.profile.beacon_interval_s > 0.0 {
                cfg.profile.beacon_interval_s
            } else {
                f64::INFINITY
            },
            aborted: false,
            requests: Vec::new(),
        }
    }

    fn run(mut self, fetcher: &mut dyn SegmentFetcher) -> SessionTrace {
        let watch_end = self.cfg.watch_duration_s;

        // Bootstrap: manifest, then init segments (codec headers). Real
        // players issue these immediately, opening the session-start burst
        // of connections the session-identification heuristic keys on.
        self.do_fetch(
            fetcher,
            FetchKind::Manifest,
            REQUEST_BYTES,
            self.cfg.profile.manifest_bytes,
        );
        if !self.aborted && self.t < watch_end {
            self.do_fetch(fetcher, FetchKind::Init, REQUEST_BYTES, 26_000.0);
        }
        if self.cfg.profile.separate_audio && !self.aborted && self.t < watch_end {
            self.do_fetch(fetcher, FetchKind::AudioInit, REQUEST_BYTES, 8_000.0);
        }

        while self.t < watch_end && !self.aborted {
            self.fire_due_beacons(fetcher);
            if self.aborted {
                break;
            }
            let capacity = self.cfg.profile.buffer_capacity_s;
            let room = self.buffer_s <= capacity - self.cfg.profile.segment_duration_s + 1e-9;

            if !self.downloads_done && room {
                self.fetch_next_segment(fetcher);
            } else {
                // Idle: wait for buffer room, content drain, a beacon, or the
                // user closing the player — whichever is first.
                if !self.started {
                    // Everything downloadable is buffered but playback never
                    // started (tiny video): start now.
                    self.start_playback();
                    continue;
                }
                let until_room = if self.downloads_done {
                    f64::INFINITY
                } else {
                    (self.buffer_s - (capacity - self.cfg.profile.segment_duration_s)).max(0.0)
                };
                let until_drained = self.buffer_s;
                let next_event = (self.t + until_room.min(until_drained))
                    .min(self.next_beacon_s)
                    .min(watch_end);
                // Guard against zero-length steps from float dust.
                let next_event = next_event.max(self.t + 1e-6);
                self.advance(next_event);
                self.t = next_event;
                if self.downloads_done && self.queue.is_empty() {
                    break; // content finished before the user closed the tab
                }
            }
        }

        // Clamp: the user closes at watch_end even mid-download.
        if self.t > watch_end {
            self.t = watch_end;
        }
        fetcher.session_end(self.t);

        let ground_truth = GroundTruth {
            startup_delay_s: self.startup_delay_s,
            total_stall_s: self.stall_s,
            played_s: self.played_s,
            wall_duration_s: self.t,
            level_seconds: self.level_seconds,
            quality_switches: self.switches,
            per_second: self.per_second,
            aborted: self.aborted,
        };
        SessionTrace { ground_truth, requests: self.requests, wall_end_s: self.t }
    }

    /// Issue one request, advancing playback through the download interval.
    /// Returns the completion time, or `None` if the session aborted.
    fn do_fetch(
        &mut self,
        fetcher: &mut dyn SegmentFetcher,
        kind: FetchKind,
        request_bytes: f64,
        response_bytes: f64,
    ) -> Option<f64> {
        let req = FetchRequest { start_s: self.t, kind, request_bytes, response_bytes };
        let FetchOutcome { end_s, completed } = fetcher.fetch(&req);
        debug_assert!(end_s >= self.t, "fetch cannot finish before it starts");
        let watch_end = self.cfg.watch_duration_s;
        self.requests.push(RequestRecord { request: req, end_s });
        let clamped_end = end_s.min(watch_end).min(self.cfg.horizon_s);
        self.advance(clamped_end);
        self.t = clamped_end;
        if !completed || end_s > self.cfg.horizon_s {
            self.aborted = true;
            return None;
        }
        if end_s > watch_end {
            // The user closed the player before this download finished.
            return None;
        }
        Some(end_s)
    }

    fn fetch_next_segment(&mut self, fetcher: &mut dyn SegmentFetcher) {
        let ctx = AbrContext {
            startup: !self.started,
            buffer_s: self.buffer_s,
            buffer_capacity_s: self.cfg.profile.buffer_capacity_s,
            throughput_kbps: if self.have_tput { self.tput_kbps } else { 0.0 },
            last_level: self.last_level,
            time_since_switch_s: self.t - self.last_switch_s,
            ladder: &self.asset.ladder,
        };
        let level = self.abr.choose(&ctx).min(self.asset.ladder.len() - 1);
        if self.have_level && level != self.last_level {
            self.switches += 1;
            self.last_switch_s = self.t;
        }
        self.have_level = true;
        self.last_level = level;

        let seg_idx = self.next_seg;
        let bytes = self.asset.segment_bytes(level, seg_idx);
        let start = self.t;
        let Some(end) =
            self.do_fetch(fetcher, FetchKind::VideoSegment { level, seg_idx }, REQUEST_BYTES, bytes)
        else {
            return;
        };

        // Throughput sample from this segment download. The EWMA is
        // asymmetric: downward samples get a large weight (players must
        // react to drops quickly or they overshoot into a stall), upward
        // samples are smoothed with the service's alpha.
        let dur = (end - start).max(1e-6);
        let sample_kbps = bytes * 8.0 / 1000.0 / dur;
        if self.have_tput {
            let a = if sample_kbps < self.tput_kbps {
                self.cfg.profile.tput_alpha.max(0.65)
            } else {
                self.cfg.profile.tput_alpha
            };
            self.tput_kbps = a * sample_kbps + (1.0 - a) * self.tput_kbps;
        } else {
            self.tput_kbps = sample_kbps;
            self.have_tput = true;
        }

        // Content lands in the buffer.
        let playback = self.asset.segment_playback_s(seg_idx);
        if playback > 0.0 {
            self.queue.push_back(BufferedSegment { level, remaining_s: playback });
            self.buffer_s += playback;
        }
        self.next_seg += 1;
        if self.next_seg >= self.asset.segment_count() {
            self.downloads_done = true;
        }
        self.maybe_start();

        // Separate audio track: fetched right after its video segment.
        if self.cfg.profile.separate_audio {
            let audio_bytes =
                self.cfg.profile.audio_kbps * 125.0 * self.cfg.profile.segment_duration_s;
            self.do_fetch(fetcher, FetchKind::AudioSegment { seg_idx }, REQUEST_BYTES, audio_bytes);
        }
    }

    fn maybe_start(&mut self) {
        if !self.started && self.buffer_s >= self.cfg.profile.startup_buffer_s {
            self.start_playback();
        }
    }

    fn start_playback(&mut self) {
        if !self.started {
            self.started = true;
            self.startup_delay_s = self.t;
        }
    }

    fn fire_due_beacons(&mut self, fetcher: &mut dyn SegmentFetcher) {
        // Beacons are tiny and ride alongside media traffic; they do not
        // block playback, so `t` does not advance to their completion.
        while self.t >= self.next_beacon_s && !self.aborted {
            let p = &self.cfg.profile;
            let req = FetchRequest {
                start_s: self.next_beacon_s.min(self.t),
                kind: FetchKind::Beacon,
                request_bytes: p.beacon_up_bytes,
                response_bytes: p.beacon_down_bytes,
            };
            let out = fetcher.fetch(&req);
            self.requests.push(RequestRecord { request: req, end_s: out.end_s });
            self.next_beacon_s += p.beacon_interval_s;
        }
    }

    /// Advance playback (buffer drain, stalls, per-second sampling) from the
    /// current wall time to `to`.
    fn advance(&mut self, to: f64) {
        let mut t = self.t;
        while t < to - 1e-12 {
            if !self.started {
                self.emit_samples(t, to, PlayState::Startup);
                break;
            }
            // After an underrun, real players hold until a resume threshold
            // of content is buffered rather than restarting frame-by-frame.
            if self.stalled {
                if self.buffer_s >= self.cfg.profile.resume_buffer_s || self.downloads_done {
                    self.stalled = false;
                } else {
                    self.stall_s += to - t;
                    self.emit_samples(t, to, PlayState::Stalled);
                    break;
                }
            }
            if let Some(front) = self.queue.front_mut() {
                let dt = (to - t).min(front.remaining_s);
                let level = front.level;
                self.level_seconds[level] += dt;
                self.played_s += dt;
                self.buffer_s = (self.buffer_s - dt).max(0.0);
                front.remaining_s -= dt;
                let done = front.remaining_s <= 1e-9;
                self.emit_samples(t, t + dt, PlayState::Playing { level });
                if done {
                    self.queue.pop_front();
                }
                t += dt;
            } else if self.downloads_done {
                // Content over: remaining wall time is neither play nor stall.
                break;
            } else {
                // Buffer underrun mid-session: stall until `to` (the next
                // event is the download completion that refills the buffer)
                // and stay stalled until the resume threshold is met.
                self.stalled = true;
                self.stall_s += to - t;
                self.emit_samples(t, to, PlayState::Stalled);
                break;
            }
        }
    }

    /// Record one [`PlayState`] sample per integer wall second in `(from, to]`.
    fn emit_samples(&mut self, _from: f64, to: f64, state: PlayState) {
        while self.next_sample_s <= to + 1e-12 {
            self.per_second.push(state);
            self.next_sample_s += 1.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fetch::ConstantRateFetcher;
    use crate::service::{ServiceId, ServiceProfile};
    use crate::video::{Ladder, VideoCatalog};

    fn catalog(profile: &ServiceProfile) -> VideoCatalog {
        VideoCatalog::generate(10, &profile.ladder, profile.segment_duration_s, 42)
    }

    fn run(profile: ServiceProfile, watch_s: f64, kbps: f64) -> SessionTrace {
        let cat = catalog(&profile);
        let asset = cat.assets()[0].clone();
        let player = Player::new(PlayerConfig::new(profile, watch_s));
        let mut fetcher = ConstantRateFetcher::new(kbps);
        player.play(&asset, &mut fetcher)
    }

    #[test]
    fn fast_network_plays_high_quality_without_stalls() {
        let tr = run(ServiceProfile::of(ServiceId::Svc1), 120.0, 50_000.0);
        let gt = &tr.ground_truth;
        assert!(!gt.aborted);
        assert_eq!(gt.total_stall_s, 0.0, "no stalls on a fast link");
        assert!(gt.played_s > 60.0, "played {}", gt.played_s);
        let top_half: f64 = gt.level_seconds.iter().skip(4).sum();
        assert!(
            top_half > gt.played_s * 0.5,
            "mostly high quality: {:?}",
            gt.level_seconds
        );
    }

    #[test]
    fn svc1_poor_network_degrades_quality_not_stalls() {
        // ~700 kbps: enough for low rungs of Svc1's ladder.
        let tr = run(ServiceProfile::of(ServiceId::Svc1), 180.0, 700.0);
        let gt = &tr.ground_truth;
        assert!(!gt.aborted);
        assert!(
            gt.rebuffering_ratio() < 0.05,
            "Svc1 should avoid stalls, rr={}",
            gt.rebuffering_ratio()
        );
        let maj = gt.majority_level().expect("something played");
        assert!(maj <= 2, "majority level should be low, got {maj}");
    }

    /// A fetcher whose rate drops at a given wall time — the scenario where
    /// quality-sticky ABRs stall.
    struct StepFetcher {
        before_kbps: f64,
        after_kbps: f64,
        drop_at_s: f64,
    }
    impl SegmentFetcher for StepFetcher {
        fn fetch(&mut self, req: &FetchRequest) -> FetchOutcome {
            let kbps =
                if req.start_s < self.drop_at_s { self.before_kbps } else { self.after_kbps };
            let end = req.start_s + 0.04 + req.response_bytes * 8.0 / 1000.0 / kbps;
            FetchOutcome { end_s: end, completed: true }
        }
    }

    fn run_step(profile: ServiceProfile, watch_s: f64) -> SessionTrace {
        let cat = catalog(&profile);
        let asset = cat.assets()[0].clone();
        let player = Player::new(PlayerConfig::new(profile, watch_s));
        let mut fetcher =
            StepFetcher { before_kbps: 4000.0, after_kbps: 350.0, drop_at_s: 40.0 };
        player.play(&asset, &mut fetcher)
    }

    #[test]
    fn svc2_stalls_on_bandwidth_drop_where_svc1_does_not() {
        // Svc2 holds quality on a small buffer, so a 4000 -> 350 kbps drop
        // must stall it; Svc1's 240 s buffer and conservative ABR ride the
        // same drop out with far less stalling.
        let svc2 = run_step(ServiceProfile::of(ServiceId::Svc2), 300.0);
        assert!(!svc2.ground_truth.aborted);
        assert!(
            svc2.ground_truth.total_stall_s > 1.0,
            "Svc2 should stall after the drop: stalls={}",
            svc2.ground_truth.total_stall_s
        );
        let svc1 = run_step(ServiceProfile::of(ServiceId::Svc1), 300.0);
        assert!(
            svc1.ground_truth.total_stall_s < svc2.ground_truth.total_stall_s,
            "Svc1 ({}) should stall less than Svc2 ({})",
            svc1.ground_truth.total_stall_s,
            svc2.ground_truth.total_stall_s
        );
    }

    #[test]
    fn wall_clock_never_exceeds_watch_duration() {
        for kbps in [300.0, 1500.0, 20_000.0] {
            let tr = run(ServiceProfile::of(ServiceId::Svc2), 90.0, kbps);
            assert!(tr.wall_end_s <= 90.0 + 1e-9, "wall_end={}", tr.wall_end_s);
        }
    }

    #[test]
    fn level_seconds_sum_to_played() {
        let tr = run(ServiceProfile::of(ServiceId::Svc3), 150.0, 3000.0);
        let gt = &tr.ground_truth;
        let sum: f64 = gt.level_seconds.iter().sum();
        assert!((sum - gt.played_s).abs() < 1e-6);
    }

    #[test]
    fn per_second_samples_cover_wall_duration() {
        let tr = run(ServiceProfile::of(ServiceId::Svc1), 100.0, 5000.0);
        let gt = &tr.ground_truth;
        let n = gt.per_second.len() as f64;
        assert!((n - gt.wall_duration_s.floor()).abs() <= 1.0, "n={n} wall={}", gt.wall_duration_s);
    }

    #[test]
    fn requests_are_time_ordered_and_start_with_manifest() {
        let tr = run(ServiceProfile::of(ServiceId::Svc2), 60.0, 4000.0);
        assert_eq!(tr.requests[0].request.kind, FetchKind::Manifest);
        // Beacons are backdated to their scheduled time (they don't block
        // playback), so only the blocking requests are emission-ordered.
        let blocking: Vec<_> = tr
            .requests
            .iter()
            .filter(|r| !matches!(r.request.kind, FetchKind::Beacon))
            .collect();
        for w in blocking.windows(2) {
            assert!(w[1].request.start_s >= w[0].request.start_s - 1e-9);
        }
    }

    #[test]
    fn separate_audio_generates_audio_requests() {
        let tr = run(ServiceProfile::of(ServiceId::Svc2), 60.0, 4000.0);
        let audio = tr
            .requests
            .iter()
            .filter(|r| matches!(r.request.kind, FetchKind::AudioSegment { .. }))
            .count();
        assert!(audio > 0, "Svc2 fetches separate audio");
        let tr1 = run(ServiceProfile::of(ServiceId::Svc1), 60.0, 4000.0);
        let audio1 = tr1
            .requests
            .iter()
            .filter(|r| matches!(r.request.kind, FetchKind::AudioSegment { .. }))
            .count();
        assert_eq!(audio1, 0, "Svc1 audio is muxed");
    }

    #[test]
    fn beacons_fire_periodically() {
        let tr = run(ServiceProfile::of(ServiceId::Svc1), 125.0, 5000.0);
        let beacons = tr
            .requests
            .iter()
            .filter(|r| matches!(r.request.kind, FetchKind::Beacon))
            .count();
        // 125 s at one per 30 s => about 4.
        assert!((3..=5).contains(&beacons), "beacons={beacons}");
    }

    #[test]
    fn short_video_ends_session_early() {
        let profile = ServiceProfile::of(ServiceId::Svc1);
        let mut cat = catalog(&profile);
        // Find/construct a short asset: take any and shrink via a custom one.
        let mut asset = cat.assets()[0].clone();
        asset.duration_s = 30.0;
        let player = Player::new(PlayerConfig::new(profile, 600.0));
        let mut fetcher = ConstantRateFetcher::new(20_000.0);
        let tr = player.play(&asset, &mut fetcher);
        assert!(tr.wall_end_s < 120.0, "session should end soon after 30 s of content");
        assert!(tr.ground_truth.played_s <= 30.0 + 1e-6);
        // Keep the borrow checker quiet about `cat` mutation above.
        let _ = &mut cat;
    }

    #[test]
    fn startup_delay_positive_and_bounded_on_good_link() {
        let tr = run(ServiceProfile::of(ServiceId::Svc1), 60.0, 10_000.0);
        let gt = &tr.ground_truth;
        assert!(gt.startup_delay_s > 0.0);
        assert!(gt.startup_delay_s < 10.0, "startup={}", gt.startup_delay_s);
    }

    #[test]
    fn buffer_bounded_by_capacity_indirectly() {
        // With a huge watch window and fast link, downloads pause at the cap;
        // played content plus buffered content never exceeds downloads.
        let profile = ServiceProfile::of(ServiceId::Svc2);
        let tr = run(profile, 300.0, 20_000.0);
        let gt = &tr.ground_truth;
        assert!(!gt.aborted);
        // The session ran to the watch end (content is longer than 300 s for
        // asset 0 — duration is ≥ 120 s but may be shorter than 300; allow both).
        assert!(gt.wall_duration_s <= 300.0 + 1e-9);
    }

    #[test]
    fn aborting_fetcher_marks_session_aborted() {
        struct DeadFetcher;
        impl SegmentFetcher for DeadFetcher {
            fn fetch(&mut self, req: &FetchRequest) -> FetchOutcome {
                FetchOutcome { end_s: req.start_s + 1e9, completed: false }
            }
        }
        let profile = ServiceProfile::of(ServiceId::Svc1);
        let cat = catalog(&profile);
        let asset = cat.assets()[0].clone();
        let player = Player::new(PlayerConfig::new(profile, 120.0));
        let tr = player.play(&asset, &mut DeadFetcher);
        assert!(tr.ground_truth.aborted);
        assert_eq!(tr.ground_truth.played_s, 0.0);
    }

    #[test]
    fn deterministic_given_same_inputs() {
        let a = run(ServiceProfile::of(ServiceId::Svc3), 90.0, 2500.0);
        let b = run(ServiceProfile::of(ServiceId::Svc3), 90.0, 2500.0);
        assert_eq!(a.requests.len(), b.requests.len());
        assert_eq!(a.ground_truth.played_s, b.ground_truth.played_s);
        assert_eq!(a.ground_truth.total_stall_s, b.ground_truth.total_stall_s);
    }

    #[test]
    fn ladder_levels_used_are_valid() {
        let tr = run(ServiceProfile::of(ServiceId::Svc3), 120.0, 2500.0);
        let ladder_len = Ladder::new(&[(360, 800.0), (720, 2400.0), (1080, 4200.0)]).len();
        for r in &tr.requests {
            if let FetchKind::VideoSegment { level, .. } = r.request.kind {
                assert!(level < ladder_len);
            }
        }
    }
}

//! Categorical QoE labels (paper §2.1).
//!
//! * **Re-buffering ratio** rr = stall / playback: *zero* if no stalls,
//!   *mild* if 0 < rr ≤ 2%, *high* otherwise.
//! * **Video quality**: ladder rungs bucketed to low/medium/high by
//!   per-service resolution thresholds (§4.1); the session label is the
//!   majority *category* of played seconds, ties toward the lower category.
//! * **Combined QoE**: "the minimum category of the two QoE metrics" — a
//!   session with zero re-buffering but low quality is *low* overall.

use dtp_hasplayer::qoe::GroundTruth;
use dtp_hasplayer::service::ServiceProfile;

/// Ordered quality/QoE category: `Low < Medium < High`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QoeCategory {
    /// Worst bucket — the "video performance issue" class.
    Low,
    /// Middle bucket.
    Medium,
    /// Best bucket.
    High,
}

impl QoeCategory {
    /// All categories, worst first.
    pub const ALL: [QoeCategory; 3] = [QoeCategory::Low, QoeCategory::Medium, QoeCategory::High];

    /// Class index for ML (0 = Low).
    pub fn index(&self) -> usize {
        match self {
            QoeCategory::Low => 0,
            QoeCategory::Medium => 1,
            QoeCategory::High => 2,
        }
    }

    /// Inverse of [`QoeCategory::index`].
    ///
    /// # Panics
    /// Panics for indices ≥ 3.
    pub fn from_index(i: usize) -> Self {
        Self::ALL[i]
    }

    /// Table label.
    pub fn name(&self) -> &'static str {
        match self {
            QoeCategory::Low => "low",
            QoeCategory::Medium => "medium",
            QoeCategory::High => "high",
        }
    }
}

/// Re-buffering severity category.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RebufCategory {
    /// rr > 2% — the bad class.
    High,
    /// 0 < rr ≤ 2%.
    Mild,
    /// No stalls at all.
    Zero,
}

impl RebufCategory {
    /// All categories, worst first.
    pub const ALL: [RebufCategory; 3] =
        [RebufCategory::High, RebufCategory::Mild, RebufCategory::Zero];

    /// Class index for ML (0 = High = bad), aligning "bad" with index 0
    /// across metrics so recall-of-class-0 is always "recall of the problem
    /// class".
    pub fn index(&self) -> usize {
        match self {
            RebufCategory::High => 0,
            RebufCategory::Mild => 1,
            RebufCategory::Zero => 2,
        }
    }

    /// Inverse of [`RebufCategory::index`].
    pub fn from_index(i: usize) -> Self {
        Self::ALL[i]
    }

    /// Table label.
    pub fn name(&self) -> &'static str {
        match self {
            RebufCategory::High => "high",
            RebufCategory::Mild => "mild",
            RebufCategory::Zero => "zero",
        }
    }

    /// The equivalent quality-scale category for the combined-QoE minimum:
    /// zero stalls ⇒ High, mild ⇒ Medium, high ⇒ Low.
    pub fn as_quality_scale(&self) -> QoeCategory {
        match self {
            RebufCategory::Zero => QoeCategory::High,
            RebufCategory::Mild => QoeCategory::Medium,
            RebufCategory::High => QoeCategory::Low,
        }
    }
}

/// Which QoE metric a model estimates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QoeMetricKind {
    /// Re-buffering ratio category.
    Rebuffering,
    /// Video quality category.
    VideoQuality,
    /// Combined QoE (min of the two).
    Combined,
}

impl QoeMetricKind {
    /// All metrics, in Fig. 5's order.
    pub const ALL: [QoeMetricKind; 3] =
        [QoeMetricKind::Rebuffering, QoeMetricKind::VideoQuality, QoeMetricKind::Combined];

    /// Table label.
    pub fn name(&self) -> &'static str {
        match self {
            QoeMetricKind::Rebuffering => "Re-buffering",
            QoeMetricKind::VideoQuality => "Video qual",
            QoeMetricKind::Combined => "Combined",
        }
    }
}

/// Categorize a re-buffering ratio (paper §2.1).
pub fn rebuf_category(rr: f64) -> RebufCategory {
    if rr <= 1e-9 {
        RebufCategory::Zero
    } else if rr <= 0.02 {
        RebufCategory::Mild
    } else {
        RebufCategory::High
    }
}

/// Bucket a ladder resolution using the service's thresholds.
pub fn resolution_category(resolution_p: u32, profile: &ServiceProfile) -> QoeCategory {
    if resolution_p <= profile.thresholds.low_max_p {
        QoeCategory::Low
    } else if resolution_p <= profile.thresholds.med_max_p {
        QoeCategory::Medium
    } else {
        QoeCategory::High
    }
}

/// Session video-quality label: majority category of played seconds, ties
/// toward the lower category. Sessions that never played anything are Low.
pub fn quality_category(gt: &GroundTruth, profile: &ServiceProfile) -> QoeCategory {
    let mut seconds = [0.0f64; 3];
    for (level_idx, &secs) in gt.level_seconds.iter().enumerate() {
        if secs <= 0.0 {
            continue;
        }
        // The ground truth is recorded against the *title's* ladder, which
        // shares resolutions with the service's nominal ladder.
        let res = profile.ladder.level(level_idx).resolution_p;
        seconds[resolution_category(res, profile).index()] += secs;
    }
    if seconds.iter().all(|&s| s <= 0.0) {
        return QoeCategory::Low;
    }
    // Majority with ties toward lower: scan worst-to-best keeping >=.
    let mut best = QoeCategory::Low;
    let mut best_s = seconds[0];
    for cat in [QoeCategory::Medium, QoeCategory::High] {
        if seconds[cat.index()] > best_s {
            best_s = seconds[cat.index()];
            best = cat;
        }
    }
    best
}

/// Session re-buffering label. Aborted sessions (network never delivered)
/// count as high re-buffering.
pub fn rebuffering_label(gt: &GroundTruth) -> RebufCategory {
    if gt.aborted {
        return RebufCategory::High;
    }
    rebuf_category(gt.rebuffering_ratio())
}

/// Combined QoE: the minimum of the two metrics on the quality scale
/// (paper §2.1: "if a session had zero re-buffering but low video quality,
/// its overall QoE is assigned to low").
pub fn combined_label(quality: QoeCategory, rebuf: RebufCategory) -> QoeCategory {
    quality.min(rebuf.as_quality_scale())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtp_hasplayer::service::ServiceId;

    fn gt(level_seconds: Vec<f64>, stall: f64, played: f64) -> GroundTruth {
        GroundTruth {
            startup_delay_s: 1.0,
            total_stall_s: stall,
            played_s: played,
            wall_duration_s: played + stall,
            level_seconds,
            quality_switches: 0,
            per_second: vec![],
            aborted: false,
        }
    }

    #[test]
    fn rebuf_thresholds_match_paper() {
        assert_eq!(rebuf_category(0.0), RebufCategory::Zero);
        assert_eq!(rebuf_category(0.0001), RebufCategory::Mild);
        assert_eq!(rebuf_category(0.02), RebufCategory::Mild);
        assert_eq!(rebuf_category(0.0201), RebufCategory::High);
        assert_eq!(rebuf_category(1.0), RebufCategory::High);
    }

    #[test]
    fn svc1_resolution_thresholds() {
        let p = ServiceProfile::of(ServiceId::Svc1);
        assert_eq!(resolution_category(144, &p), QoeCategory::Low);
        assert_eq!(resolution_category(288, &p), QoeCategory::Low);
        assert_eq!(resolution_category(360, &p), QoeCategory::Medium);
        assert_eq!(resolution_category(480, &p), QoeCategory::Medium);
        assert_eq!(resolution_category(720, &p), QoeCategory::High);
    }

    #[test]
    fn svc2_resolution_thresholds() {
        let p = ServiceProfile::of(ServiceId::Svc2);
        assert_eq!(resolution_category(360, &p), QoeCategory::Low);
        assert_eq!(resolution_category(480, &p), QoeCategory::Medium);
        assert_eq!(resolution_category(720, &p), QoeCategory::High);
        assert_eq!(resolution_category(1080, &p), QoeCategory::High);
    }

    #[test]
    fn majority_category_with_tie_goes_low() {
        let p = ServiceProfile::of(ServiceId::Svc1);
        // Svc1 ladder: 144,240,288 are Low; 360,480 Medium; 720,1080 High.
        // 30 s at 144p (Low) + 30 s at 720p (High): tie -> Low.
        let g = gt(vec![30.0, 0.0, 0.0, 0.0, 0.0, 30.0, 0.0], 0.0, 60.0);
        assert_eq!(quality_category(&g, &p), QoeCategory::Low);
        // 30 Low vs 31 High -> High.
        let g = gt(vec![30.0, 0.0, 0.0, 0.0, 0.0, 31.0, 0.0], 0.0, 61.0);
        assert_eq!(quality_category(&g, &p), QoeCategory::High);
    }

    #[test]
    fn empty_playback_is_low() {
        let p = ServiceProfile::of(ServiceId::Svc1);
        let g = gt(vec![0.0; 7], 0.0, 0.0);
        assert_eq!(quality_category(&g, &p), QoeCategory::Low);
    }

    #[test]
    fn aborted_session_is_high_rebuffering() {
        let mut g = gt(vec![0.0; 7], 0.0, 0.0);
        g.aborted = true;
        assert_eq!(rebuffering_label(&g), RebufCategory::High);
    }

    #[test]
    fn combined_is_minimum() {
        assert_eq!(combined_label(QoeCategory::High, RebufCategory::Zero), QoeCategory::High);
        assert_eq!(combined_label(QoeCategory::Low, RebufCategory::Zero), QoeCategory::Low);
        assert_eq!(combined_label(QoeCategory::High, RebufCategory::High), QoeCategory::Low);
        assert_eq!(combined_label(QoeCategory::Medium, RebufCategory::Mild), QoeCategory::Medium);
        assert_eq!(combined_label(QoeCategory::High, RebufCategory::Mild), QoeCategory::Medium);
    }

    #[test]
    fn index_round_trips() {
        for c in QoeCategory::ALL {
            assert_eq!(QoeCategory::from_index(c.index()), c);
        }
        for c in RebufCategory::ALL {
            assert_eq!(RebufCategory::from_index(c.index()), c);
        }
    }

    #[test]
    fn bad_class_is_index_zero_for_both_scales() {
        assert_eq!(QoeCategory::Low.index(), 0);
        assert_eq!(RebufCategory::High.index(), 0);
    }
}

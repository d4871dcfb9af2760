//! The injector: applies a [`FaultPlan`] to telemetry streams and traces.

use std::sync::Arc;

use dtp_simnet::BandwidthTrace;
use dtp_telemetry::TlsTransactionRecord;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::plan::FaultPlan;

/// Tally of every fault the injector applied to one stream (or, via
/// [`FaultReport::absorb`], many streams).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Records in the clean input.
    pub input_records: usize,
    /// Records in the perturbed output.
    pub output_records: usize,
    /// Records lost to drops.
    pub dropped: usize,
    /// Records exported twice.
    pub duplicated: usize,
    /// Adjacent record pairs merged under a proxy idle timeout.
    pub merged: usize,
    /// Records whose SNI was blanked.
    pub sni_removed: usize,
    /// Records given a zero or negative duration.
    pub durations_corrupted: usize,
    /// Records whose timestamps were skewed or jittered.
    pub time_perturbed: usize,
    /// Records lost because the capture was truncated mid-session.
    pub truncated: usize,
    /// Sessions whose link bandwidth collapsed mid-session.
    pub collapsed_links: usize,
}

impl FaultReport {
    /// Publish these tallies to the process-wide `faults.*` counters in the
    /// [`dtp_obs::global`] registry. Called once per perturbation, so the
    /// registry accumulates across sessions while each report stays a
    /// per-stream view.
    fn publish(&self) {
        for (counter, value) in [
            (dtp_obs::counter!("faults.input_records"), self.input_records),
            (dtp_obs::counter!("faults.output_records"), self.output_records),
            (dtp_obs::counter!("faults.dropped"), self.dropped),
            (dtp_obs::counter!("faults.duplicated"), self.duplicated),
            (dtp_obs::counter!("faults.merged"), self.merged),
            (dtp_obs::counter!("faults.sni_removed"), self.sni_removed),
            (dtp_obs::counter!("faults.durations_corrupted"), self.durations_corrupted),
            (dtp_obs::counter!("faults.time_perturbed"), self.time_perturbed),
            (dtp_obs::counter!("faults.truncated"), self.truncated),
            (dtp_obs::counter!("faults.collapsed_links"), self.collapsed_links),
        ] {
            counter.add(value as u64);
        }
    }

    /// Total count of individual fault events.
    pub fn total_faults(&self) -> usize {
        self.dropped
            + self.duplicated
            + self.merged
            + self.sni_removed
            + self.durations_corrupted
            + self.time_perturbed
            + self.truncated
            + self.collapsed_links
    }

    /// Fold another report into this one (for corpus-level aggregation).
    pub fn absorb(&mut self, other: &FaultReport) {
        self.input_records += other.input_records;
        self.output_records += other.output_records;
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.merged += other.merged;
        self.sni_removed += other.sni_removed;
        self.durations_corrupted += other.durations_corrupted;
        self.time_perturbed += other.time_perturbed;
        self.truncated += other.truncated;
        self.collapsed_links += other.collapsed_links;
    }
}

/// Applies a [`FaultPlan`] deterministically.
///
/// Each perturbation call seeds its own generator from the injector seed,
/// so a given `(plan, seed, input)` triple always produces the identical
/// output — replaying a degraded run is just re-running it.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    seed: u64,
}

/// Gap (seconds) under which two same-host records are merge-eligible —
/// a typical transparent-proxy idle timeout.
const MERGE_IDLE_GAP_S: f64 = 10.0;

impl FaultInjector {
    /// Injector for `plan`, deterministic in `seed`.
    pub fn new(plan: FaultPlan, seed: u64) -> Self {
        Self { plan, seed }
    }

    /// The plan being applied.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Derive an injector with the same plan but a per-item seed, for
    /// corpus sweeps where each session must get independent randomness.
    pub fn for_item(&self, item: u64) -> Self {
        Self {
            plan: self.plan.clone(),
            seed: self.seed ^ item.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17),
        }
    }

    /// Perturb one TLS transaction stream.
    ///
    /// Fault order: idle-timeout merges over adjacent same-host records,
    /// then per-record drop / duplicate / duration-corruption / SNI
    /// blanking / clock skew and jitter, then optional capture truncation.
    /// The output is deliberately NOT re-sorted: jitter may leave records
    /// out of start order, exactly as a skewed exporter would.
    pub fn perturb_transactions(
        &self,
        txs: &[TlsTransactionRecord],
    ) -> (Vec<TlsTransactionRecord>, FaultReport) {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xfa17_0001);
        let mut report = FaultReport { input_records: txs.len(), ..FaultReport::default() };

        let merged = self.merge_pass(txs, &mut rng, &mut report);
        let mut out = self.record_pass(merged, &mut rng, &mut report);
        self.truncate_pass(&mut out, &mut rng, &mut report);

        report.output_records = out.len();
        report.publish();
        (out, report)
    }

    /// Merge adjacent same-host records separated by less than the proxy
    /// idle gap, with probability `merge_rate` per eligible pair.
    fn merge_pass(
        &self,
        txs: &[TlsTransactionRecord],
        rng: &mut StdRng,
        report: &mut FaultReport,
    ) -> Vec<TlsTransactionRecord> {
        if self.plan.merge_rate <= 0.0 {
            return txs.to_vec();
        }
        let mut out: Vec<TlsTransactionRecord> = Vec::with_capacity(txs.len());
        for rec in txs {
            if let Some(prev) = out.last_mut() {
                let gap = rec.start_s - prev.end_s;
                let eligible = prev.sni == rec.sni && (0.0..MERGE_IDLE_GAP_S).contains(&gap);
                if eligible && rng.random_bool(self.plan.merge_rate) {
                    prev.end_s = prev.end_s.max(rec.end_s);
                    prev.up_bytes += rec.up_bytes;
                    prev.down_bytes += rec.down_bytes;
                    report.merged += 1;
                    continue;
                }
            }
            out.push(rec.clone());
        }
        out
    }

    /// Per-record faults, in a fixed draw order so streams are replayable.
    fn record_pass(
        &self,
        txs: Vec<TlsTransactionRecord>,
        rng: &mut StdRng,
        report: &mut FaultReport,
    ) -> Vec<TlsTransactionRecord> {
        let plan = &self.plan;
        let mut out = Vec::with_capacity(txs.len());
        for mut rec in txs {
            if plan.drop_rate > 0.0 && rng.random_bool(plan.drop_rate) {
                report.dropped += 1;
                continue;
            }
            let duplicate = plan.duplicate_rate > 0.0 && rng.random_bool(plan.duplicate_rate);
            if plan.corrupt_duration_rate > 0.0 && rng.random_bool(plan.corrupt_duration_rate) {
                // Half the corruptions are zero-duration, half invert time.
                rec.end_s = if rng.random_bool(0.5) {
                    rec.start_s
                } else {
                    rec.start_s - rng.random_range(0.0..5.0)
                };
                report.durations_corrupted += 1;
            }
            if plan.missing_sni_rate > 0.0 && rng.random_bool(plan.missing_sni_rate) {
                rec.sni = Arc::from("");
                report.sni_removed += 1;
            }
            let mut time_touched = false;
            if plan.clock_skew_s != 0.0 {
                rec.start_s += plan.clock_skew_s;
                rec.end_s += plan.clock_skew_s;
                time_touched = true;
            }
            if plan.jitter_s > 0.0 {
                rec.start_s += rng.random_range(-plan.jitter_s..plan.jitter_s);
                rec.end_s += rng.random_range(-plan.jitter_s..plan.jitter_s);
                time_touched = true;
            }
            if time_touched {
                report.time_perturbed += 1;
            }
            if duplicate {
                report.duplicated += 1;
                out.push(rec.clone());
            }
            out.push(rec);
        }
        out
    }

    /// With probability `truncate_rate`, stop the capture at a uniformly
    /// drawn point in the middle 30–90% of the stream's time span.
    fn truncate_pass(
        &self,
        out: &mut Vec<TlsTransactionRecord>,
        rng: &mut StdRng,
        report: &mut FaultReport,
    ) {
        if self.plan.truncate_rate <= 0.0
            || out.is_empty()
            || !rng.random_bool(self.plan.truncate_rate)
        {
            return;
        }
        let t0 = out.iter().map(|t| t.start_s).fold(f64::INFINITY, f64::min);
        let t1 = out.iter().map(|t| t.start_s).fold(f64::NEG_INFINITY, f64::max);
        if !(t1 - t0).is_finite() || t1 <= t0 {
            return;
        }
        let cutoff = t0 + (t1 - t0) * rng.random_range(0.3..0.9);
        let before = out.len();
        out.retain(|t| t.start_s <= cutoff);
        report.truncated += before - out.len();
    }

    /// Perturb a bandwidth trace: with probability `collapse_rate` the link
    /// rate after a mid-session point is multiplied by `collapse_factor`.
    /// Returns the (possibly identical) trace and whether it collapsed.
    pub fn perturb_trace(&self, trace: &BandwidthTrace) -> (BandwidthTrace, bool) {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xfa17_0002);
        if self.plan.collapse_rate <= 0.0 || !rng.random_bool(self.plan.collapse_rate) {
            return (trace.clone(), false);
        }
        let samples = trace.samples_kbps();
        if samples.len() < 2 {
            return (trace.clone(), false);
        }
        let at = rng.random_range(0.3..0.7);
        let pivot = ((samples.len() as f64 * at) as usize).min(samples.len() - 1);
        let collapsed: Vec<f64> = samples
            .iter()
            .enumerate()
            .map(|(i, &s)| if i >= pivot { s * self.plan.collapse_factor } else { s })
            .collect();
        dtp_obs::counter!("faults.collapsed_links").inc();
        (BandwidthTrace::new(collapsed, trace.interval_s()), true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(start: f64, end: f64, up: f64, down: f64, sni: &str) -> TlsTransactionRecord {
        TlsTransactionRecord {
            start_s: start,
            end_s: end,
            up_bytes: up,
            down_bytes: down,
            sni: sni.into(),
        }
    }

    fn stream() -> Vec<TlsTransactionRecord> {
        (0..50)
            .map(|i| {
                let t = i as f64 * 4.0;
                rec(t, t + 3.0, 500.0 + i as f64, 1e5 + i as f64, "cdn1.media.svc1.example")
            })
            .collect()
    }

    #[test]
    fn identity_plan_is_bitwise_identity() {
        let inj = FaultInjector::new(FaultPlan::none(), 99);
        let input = stream();
        let (out, report) = inj.perturb_transactions(&input);
        assert_eq!(out, input);
        assert_eq!(report.total_faults(), 0);
        assert_eq!(report.input_records, 50);
        assert_eq!(report.output_records, 50);
    }

    #[test]
    fn drops_only_remove_records() {
        let inj = FaultInjector::new(FaultPlan::none().with_drops(0.3), 7);
        let input = stream();
        let (out, report) = inj.perturb_transactions(&input);
        assert_eq!(out.len() + report.dropped, input.len());
        assert!(report.dropped > 0, "expected some drops at 30%");
        for r in &out {
            assert!(input.contains(r), "drop-only output must be a subset");
        }
    }

    #[test]
    fn duplicates_only_add_copies() {
        let inj = FaultInjector::new(FaultPlan::none().with_duplicates(0.3), 7);
        let input = stream();
        let (out, report) = inj.perturb_transactions(&input);
        assert_eq!(out.len(), input.len() + report.duplicated);
        assert!(report.duplicated > 0);
        for r in &out {
            assert!(input.contains(r));
        }
    }

    #[test]
    fn merges_conserve_bytes() {
        let inj = FaultInjector::new(FaultPlan::none().with_merges(0.5), 3);
        let input = stream();
        let (out, report) = inj.perturb_transactions(&input);
        assert!(report.merged > 0, "adjacent same-host records should merge");
        assert_eq!(out.len() + report.merged, input.len());
        let sum = |txs: &[TlsTransactionRecord]| -> (f64, f64) {
            (txs.iter().map(|t| t.up_bytes).sum(), txs.iter().map(|t| t.down_bytes).sum())
        };
        let (in_up, in_down) = sum(&input);
        let (out_up, out_down) = sum(&out);
        assert!((in_up - out_up).abs() < 1e-6);
        assert!((in_down - out_down).abs() < 1e-6);
    }

    #[test]
    fn full_sni_anonymization_blanks_everything() {
        let inj = FaultInjector::new(FaultPlan::none().with_missing_sni(1.0), 1);
        let (out, report) = inj.perturb_transactions(&stream());
        assert_eq!(report.sni_removed, out.len());
        assert!(out.iter().all(|t| t.sni.is_empty()));
    }

    #[test]
    fn corrupt_durations_invert_or_zero_time() {
        let inj = FaultInjector::new(FaultPlan::none().with_corrupt_durations(1.0), 5);
        let (out, report) = inj.perturb_transactions(&stream());
        assert_eq!(report.durations_corrupted, out.len());
        assert!(out.iter().all(|t| t.end_s <= t.start_s));
    }

    #[test]
    fn clock_skew_shifts_all_timestamps() {
        let inj = FaultInjector::new(FaultPlan::none().with_clock(12.5, 0.0), 5);
        let input = stream();
        let (out, report) = inj.perturb_transactions(&input);
        assert_eq!(report.time_perturbed, out.len());
        for (a, b) in input.iter().zip(&out) {
            assert!((b.start_s - a.start_s - 12.5).abs() < 1e-12);
            assert!((b.end_s - a.end_s - 12.5).abs() < 1e-12);
        }
    }

    #[test]
    fn jitter_can_reorder_but_preserves_count() {
        let inj = FaultInjector::new(FaultPlan::none().with_clock(0.0, 5.0), 11);
        let input = stream();
        let (out, _) = inj.perturb_transactions(&input);
        assert_eq!(out.len(), input.len());
        let sorted = out.windows(2).all(|w| w[0].start_s <= w[1].start_s);
        assert!(!sorted, "±5 s jitter on 4 s spacing should break ordering");
    }

    #[test]
    fn truncation_keeps_a_prefix_in_time() {
        let inj = FaultInjector::new(FaultPlan::none().with_truncation(1.0), 2);
        let input = stream();
        let (out, report) = inj.perturb_transactions(&input);
        assert!(report.truncated > 0);
        assert_eq!(out.len() + report.truncated, input.len());
        let cutoff = out.iter().map(|t| t.start_s).fold(f64::NEG_INFINITY, f64::max);
        assert!(input.iter().filter(|t| t.start_s <= cutoff).count() == out.len());
    }

    #[test]
    fn bandwidth_collapse_reduces_tail_rate() {
        let trace = BandwidthTrace::constant(5000.0, 120.0);
        let inj = FaultInjector::new(FaultPlan::none().with_bandwidth_collapse(1.0, 0.1), 4);
        let (collapsed, hit) = inj.perturb_trace(&trace);
        assert!(hit);
        assert_eq!(collapsed.max_kbps(), 5000.0);
        assert!((collapsed.min_kbps() - 500.0).abs() < 1e-9);
        let (same, hit) =
            FaultInjector::new(FaultPlan::none(), 4).perturb_trace(&trace);
        assert!(!hit);
        assert_eq!(same.samples_kbps(), trace.samples_kbps());
    }

    #[test]
    fn same_seed_same_plan_is_reproducible() {
        let plan = FaultPlan::uniform(0.25);
        let input = stream();
        let a = FaultInjector::new(plan.clone(), 42).perturb_transactions(&input);
        let b = FaultInjector::new(plan, 42).perturb_transactions(&input);
        assert_eq!(a, b);
    }

    #[test]
    fn per_item_injectors_differ() {
        let base = FaultInjector::new(FaultPlan::uniform(0.25), 42);
        let input = stream();
        let (a, _) = base.for_item(0).perturb_transactions(&input);
        let (b, _) = base.for_item(1).perturb_transactions(&input);
        assert_ne!(a, b, "different items should see different randomness");
    }
}

//! The typed ingest boundary: validation, repair, and quarantine.
//!
//! Proxy exports arrive damaged in practice — skewed clocks invert
//! timestamps, anonymization blanks SNIs, collection pipelines emit
//! non-finite garbage. The ingest policy is three-tiered:
//!
//! * **accept** — well-formed records pass through untouched;
//! * **repair** — recoverable damage (inverted times, negative start
//!   times, missing SNI) is kept, with the repair surfaced as [`Validity`]
//!   flags so downstream layers can weigh or discard flagged records;
//! * **quarantine** — unusable records (non-finite or negative fields) are
//!   counted per [`IngestError`] reason and excluded, never silently
//!   dropped.
//!
//! [`IngestStats`] carries the tallies, so a pipeline run can always report
//! exactly what it ingested and what it refused.

/// Why a record was quarantined at ingest. Carries the offending values so
/// logs are actionable.
#[derive(Debug, Clone, PartialEq)]
pub enum IngestError {
    /// `start_s` or `end_s` is NaN or infinite.
    NonFiniteTime {
        /// Offending start timestamp.
        start_s: f64,
        /// Offending end timestamp.
        end_s: f64,
    },
    /// `up_bytes` or `down_bytes` is NaN or infinite.
    NonFiniteBytes {
        /// Offending uplink byte count.
        up_bytes: f64,
        /// Offending downlink byte count.
        down_bytes: f64,
    },
    /// A byte counter is negative.
    NegativeBytes {
        /// Offending uplink byte count.
        up_bytes: f64,
        /// Offending downlink byte count.
        down_bytes: f64,
    },
}

impl IngestError {
    /// Stable reason key (used in stats and JSON output).
    pub fn reason(&self) -> &'static str {
        match self {
            IngestError::NonFiniteTime { .. } => "non_finite_time",
            IngestError::NonFiniteBytes { .. } => "non_finite_bytes",
            IngestError::NegativeBytes { .. } => "negative_bytes",
        }
    }
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::NonFiniteTime { start_s, end_s } => {
                write!(f, "non-finite transaction times: start={start_s}, end={end_s}")
            }
            IngestError::NonFiniteBytes { up_bytes, down_bytes } => {
                write!(f, "non-finite byte counts: up={up_bytes}, down={down_bytes}")
            }
            IngestError::NegativeBytes { up_bytes, down_bytes } => {
                write!(f, "negative byte counts: up={up_bytes}, down={down_bytes}")
            }
        }
    }
}

impl std::error::Error for IngestError {}

/// What, if anything, was repaired or flagged on an accepted record.
///
/// These flags make the formerly silent fallbacks explicit: the
/// `duration_s()` negative clamp becomes [`Validity::clamped_negative_duration`],
/// and the `tdr_kbps()` / `d2u_ratio()` `0.0` sentinels become
/// [`Validity::zero_duration`] / [`Validity::no_uplink_bytes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Validity {
    /// `end_s < start_s`: `duration_s()` will clamp to zero.
    pub clamped_negative_duration: bool,
    /// Duration is exactly zero, so `tdr_kbps()` returns its `0.0` sentinel.
    pub zero_duration: bool,
    /// No uplink bytes, so `d2u_ratio()` returns its `0.0` sentinel.
    pub no_uplink_bytes: bool,
    /// The SNI field is empty (missing or anonymized).
    pub missing_sni: bool,
    /// `start_s` was negative and shifted up to zero on ingest.
    pub clamped_negative_start: bool,
}

impl Validity {
    /// True when nothing was repaired or flagged.
    pub fn is_clean(&self) -> bool {
        *self == Validity::default()
    }
}

/// Running tallies for one ingest boundary (e.g. one [`ProxyLog`]).
///
/// [`ProxyLog`]: crate::ProxyLog
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Records accepted untouched.
    pub accepted_clean: usize,
    /// Records accepted with at least one [`Validity`] flag.
    pub repaired: usize,
    /// Records refused, total.
    pub quarantined: usize,
    /// Quarantines with non-finite timestamps.
    pub non_finite_time: usize,
    /// Quarantines with non-finite byte counts.
    pub non_finite_bytes: usize,
    /// Quarantines with negative byte counts.
    pub negative_bytes: usize,
    /// Accepted records flagged for inverted (end < start) times.
    pub inverted_times: usize,
    /// Accepted records flagged for an empty SNI.
    pub missing_sni: usize,
}

impl IngestStats {
    /// Total records offered to the boundary.
    pub fn offered(&self) -> usize {
        self.accepted_clean + self.repaired + self.quarantined
    }

    /// Total records accepted (clean + repaired).
    pub fn accepted(&self) -> usize {
        self.accepted_clean + self.repaired
    }

    /// Record an acceptance with the given validity.
    ///
    /// The struct tallies are the per-boundary view; the same event also
    /// increments the process-wide `ingest.*` counters in the
    /// [`dtp_obs::global`] registry, so pipeline-level accounting needs no
    /// manual [`IngestStats::absorb`] plumbing.
    pub fn note_accept(&mut self, validity: Validity) {
        if validity.is_clean() {
            self.accepted_clean += 1;
            dtp_obs::counter!("ingest.accepted_clean").inc();
        } else {
            self.repaired += 1;
            dtp_obs::counter!("ingest.repaired").inc();
        }
        if validity.clamped_negative_duration {
            self.inverted_times += 1;
            dtp_obs::counter!("ingest.repair.inverted_times").inc();
        }
        if validity.missing_sni {
            self.missing_sni += 1;
            dtp_obs::counter!("ingest.repair.missing_sni").inc();
        }
    }

    /// Record a quarantine (struct tally + global `ingest.quarantine.*`
    /// registry counter, like [`IngestStats::note_accept`]).
    pub fn note_quarantine(&mut self, err: &IngestError) {
        self.quarantined += 1;
        dtp_obs::counter!("ingest.quarantined").inc();
        match err {
            IngestError::NonFiniteTime { .. } => {
                self.non_finite_time += 1;
                dtp_obs::counter!("ingest.quarantine.non_finite_time").inc();
            }
            IngestError::NonFiniteBytes { .. } => {
                self.non_finite_bytes += 1;
                dtp_obs::counter!("ingest.quarantine.non_finite_bytes").inc();
            }
            IngestError::NegativeBytes { .. } => {
                self.negative_bytes += 1;
                dtp_obs::counter!("ingest.quarantine.negative_bytes").inc();
            }
        }
    }

    /// Fold another boundary's tallies into this one.
    pub fn absorb(&mut self, other: &IngestStats) {
        self.accepted_clean += other.accepted_clean;
        self.repaired += other.repaired;
        self.quarantined += other.quarantined;
        self.non_finite_time += other.non_finite_time;
        self.non_finite_bytes += other.non_finite_bytes;
        self.negative_bytes += other.negative_bytes;
        self.inverted_times += other.inverted_times;
        self.missing_sni += other.missing_sni;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validity_is_clean_only_without_flags() {
        let clean = Validity::default();
        assert!(clean.is_clean());
        let v = Validity { clamped_negative_duration: true, missing_sni: true, ..clean };
        assert!(!v.is_clean());
    }

    #[test]
    fn stats_tally_by_reason() {
        let mut s = IngestStats::default();
        s.note_accept(Validity::default());
        s.note_accept(Validity { missing_sni: true, ..Validity::default() });
        s.note_quarantine(&IngestError::NegativeBytes { up_bytes: -1.0, down_bytes: 0.0 });
        assert_eq!(s.offered(), 3);
        assert_eq!(s.accepted(), 2);
        assert_eq!(s.repaired, 1);
        assert_eq!(s.missing_sni, 1);
        assert_eq!(s.negative_bytes, 1);
    }

    #[test]
    fn errors_render_offending_values() {
        let e = IngestError::NonFiniteTime { start_s: f64::NAN, end_s: 1.0 };
        assert_eq!(e.reason(), "non_finite_time");
        assert!(e.to_string().contains("NaN"));
    }
}

//! # dtp-features — feature extraction for QoE inference
//!
//! Two feature families, matching the paper's comparison:
//!
//! * [`tls`] — the 38 features of Table 1, computed from a session's TLS
//!   transactions: 4 session-level, 18 transaction statistics (min/median/max
//!   of 6 per-transaction metrics), and 16 temporal cumulative-volume
//!   features over growing intervals.
//! * [`packet`] — the ML16 baseline family [Dimopoulos et al., IMC'16]:
//!   video-segment features recovered from packet traces (request detection
//!   → per-segment sizes/durations) plus network QoS metrics
//!   (retransmissions, loss, RTT).
//!
//! Both expose plain `Vec<f64>` rows plus stable column names so they can be
//! assembled into [`dtp-ml`](../dtp_ml/index.html) datasets; the bench crate
//! times these functions for the paper's 60× compute-overhead claim.
//!
//! For online use, [`accum`] provides push-based accumulators
//! ([`TlsSessionAccumulator`], [`SeriesStats`]) that maintain the TLS
//! feature vector incrementally — bitwise-equal to the batch extractor
//! over sorted input (see the module docs for the exactness guarantees).

pub mod accum;
pub mod flow;
pub mod packet;
pub mod stats;
pub mod tls;

pub use accum::{SeriesStats, TlsSessionAccumulator};

pub use flow::{extract_flow_features, flow_feature_names};
pub use packet::{extract_packet_features, extract_packet_features_batch, packet_feature_names};
pub use tls::{
    extract_tls_features, extract_tls_features_batch, extract_tls_features_batch_checked,
    extract_tls_features_checked, extract_tls_features_checked_with_intervals,
    extract_tls_features_with_intervals, tls_feature_names, tls_feature_names_with_intervals,
    FeatureGroup, FeatureQuality, TEMPORAL_INTERVALS_S,
};

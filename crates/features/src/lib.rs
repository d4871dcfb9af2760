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
//! The TLS features have one implementation, the push-based
//! [`TlsSessionAccumulator`] in [`accum`]. The streaming engine feeds it
//! one record at a time; the batch extractors in [`tls`] fold a whole
//! session into it in start order. Batch and stream are therefore equal
//! by construction (see the [`accum`] module docs).

pub mod accum;
pub mod flow;
pub mod packet;
pub mod stats;
pub mod tls;

pub use accum::{SeriesStats, TlsSessionAccumulator};

pub use flow::{extract_flow_features, flow_feature_names};
pub use packet::{extract_packet_features, extract_packet_features_batch, packet_feature_names};
pub use tls::{
    extract_tls_features, extract_tls_features_batch, extract_tls_features_checked,
    tls_feature_names, FeatureGroup, FeatureQuality, TEMPORAL_INTERVALS_S,
};

//! # dtp-stream — push-based streaming session inference
//!
//! The offline pipeline (`dtp-telemetry` → `dtp-core::sessionid` →
//! `dtp-features` → `dtp-ml`) answers "what happened in this capture?".
//! This crate answers the deployment question from the paper's §6: run the
//! same detector **online**, against a live feed of TLS transaction
//! records, without ever materializing the capture.
//!
//! [`StreamEngine`] accepts records one at a time — out of order within a
//! configurable reorder window — routes them to per-client
//! [`ClientTracker`]s, runs the paper's session-boundary heuristic
//! incrementally, maintains the 38 TLS features with streaming
//! accumulators ([`dtp_features::TlsSessionAccumulator`]), and emits a
//! scored [`SessionVerdict`] for every session the moment it closes
//! (boundary, idle timeout, or final flush).
//!
//! The headline guarantee: for any in-order replay, the emitted session
//! boundaries, feature vectors, and predictions are **bitwise equal** to
//! the batch pipeline's, at any thread count — with idle expiry on, once
//! the batch side cuts each client's records at its idle gaps. It holds
//! by construction — the batch splitter and extractor are the same
//! [`IncrementalSessionDetector`](dtp_core::IncrementalSessionDetector) and
//! accumulator run to completion — and the workspace's differential suite
//! (`tests/stream_vs_batch.rs`) guards it against regressions.
//!
//! ```
//! use dtp_core::sessionid::stitch_sessions;
//! use dtp_core::{DatasetBuilder, QoeEstimator, QoeMetricKind, ServiceId};
//! use dtp_stream::{StreamConfig, StreamEngine};
//!
//! let corpus = DatasetBuilder::new(ServiceId::Svc1).sessions(30).seed(7).build();
//! let estimator = QoeEstimator::train(&corpus, QoeMetricKind::Combined, 0);
//! let mut engine = StreamEngine::new(estimator, StreamConfig::default()).unwrap();
//!
//! // Replay one client's transactions (normally these arrive live).
//! let stream = stitch_sessions(ServiceId::Svc1, 3, 11);
//! let mut verdicts = Vec::new();
//! for rec in stream.transactions {
//!     verdicts.extend(engine.push("client-0", rec));
//! }
//! verdicts.extend(engine.finish());
//! assert!(!verdicts.is_empty());
//! for v in &verdicts {
//!     println!("{} #{}: {:?} p={:?}", v.client, v.ordinal, v.category, v.probabilities);
//! }
//! ```

pub mod engine;
pub mod tracker;

pub use engine::{EngineStats, SessionVerdict, StreamConfig, StreamConfigError, StreamEngine};
pub use tracker::{ClientTracker, CloseReason, ClosedSession};

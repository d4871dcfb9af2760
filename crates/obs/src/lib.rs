//! # dtp-obs — structured tracing and metrics for the pipeline
//!
//! The paper's operational claim is a *cost* claim: TLS-transaction features
//! need ~1400× less memory and ~60× less compute than packet-level baselines
//! (Table 4, §4.2). Proving — and later *regressing* — that claim requires
//! per-stage telemetry, not `println!`s scattered through bench binaries.
//! This crate is the self-contained observability layer every other crate
//! instruments against:
//!
//! * [`registry`] — typed [`Counter`]/[`Gauge`]/[`Histogram`] metrics in a
//!   thread-safe [`Registry`]. Handles are `Arc`-backed atomics: after the
//!   one-time name lookup, the hot path is a single atomic op. Histograms
//!   are log-bucketed (base 2) and report p50/p95/p99 estimates.
//! * [`span`] — RAII span timers with parent/child nesting per thread.
//!   `let _s = span!("extract.tls");` records a duration histogram *and* a
//!   node in the global trace tree when the guard drops.
//! * [`export`] — human-readable tree summaries and machine-readable JSON
//!   (`serde_json::Value`, compatible with the `DTP_JSON` bench artifacts).
//! * [`report`] — the shared progress reporter for bench binaries
//!   (quiet/normal/verbose, controlled by the `DTP_LOG` env var).
//!
//! Metric names follow the `stage.metric_name` convention (see DESIGN.md
//! "Observability"): `ingest.quarantined`, `extract.tls_records`,
//! `span.train.forest_fit`, …
//!
//! The crate is air-gapped like the rest of the workspace: it depends only
//! on the vendored `serde_json` shim.

pub mod export;
pub mod registry;
pub mod report;
pub mod span;

pub use export::{render_tree, span_tree_json};
pub use registry::{
    Counter, Gauge, Histogram, HistogramSnapshot, Metric, Registry, Snapshot,
};
pub use report::{Reporter, Verbosity};
pub use span::{FinishedSpan, SpanGuard};

use std::sync::OnceLock;

/// The process-wide metrics registry + span collector.
///
/// Library instrumentation records here; exporters snapshot it. Tests that
/// need isolation should create their own [`Registry`] (metrics) or use
/// unique span names (spans are always collected globally).
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Open an RAII span: records a `span.<name>` duration histogram in the
/// global registry and a node in the global trace tree when dropped.
///
/// ```
/// let _guard = dtp_obs::span!("extract.tls");
/// // ... timed work ...
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::SpanGuard::enter($name)
    };
}

//! # dtp-obs — metrics for the pipeline
//!
//! The paper's operational claim is a *cost* claim: TLS-transaction features
//! need ~1400× less memory and ~60× less compute than packet-level baselines
//! (Table 4, §4.2). This crate is the self-contained metrics layer every
//! other crate instruments against, cheap enough to leave on:
//!
//! * [`registry`] — typed [`Counter`]/[`Gauge`]/[`Histogram`] metrics in a
//!   thread-safe [`Registry`]. Handles are `Arc`-backed atomics: after the
//!   one-time name lookup, the hot path is a single atomic op. Histograms
//!   are log-bucketed (base 2) and report p50/p95/p99 estimates.
//! * [`counter!`], [`gauge!`], [`histogram!`] — the one way library code
//!   records: each call site caches its handle from [`global()`] in a
//!   `static OnceLock`, so after the first call it takes no lock and
//!   allocates nothing.
//! * [`span`] — `let _s = span!("extract.tls");` times the rest of the
//!   scope into the call site's `span.extract.tls` histogram.
//!
//! Metric names follow the `stage.metric_name` convention (see DESIGN.md
//! "Observability"): `ingest.quarantined`, `extract.tls_records`,
//! `span.train.forest_fit`, …
//!
//! The crate depends on std only. There is no trace tree and no exporter:
//! readers take a [`Registry::snapshot`] or read a handle directly.

pub mod registry;
pub mod span;

pub use registry::{
    Counter, Gauge, Histogram, HistogramSnapshot, Metric, Registry, Snapshot,
};
pub use span::SpanGuard;

use std::sync::OnceLock;

/// The process-wide metrics registry.
///
/// Library instrumentation records here through the call-site-cached
/// macros. Tests that need isolation should create their own [`Registry`]
/// or use unique metric names.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// A `&'static` handle to the global metric `$name` of kind `$kind`,
/// looked up once per call site. Shared by the public macros.
#[doc(hidden)]
#[macro_export]
macro_rules! __cached {
    ($kind:ident, $get:ident, $name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::$kind> = ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::global().$get($name))
    }};
}

/// The global [`Counter`] named by a string literal, cached at the call
/// site: `dtp_obs::counter!("extract.tls_records").add(n)`.
#[macro_export]
macro_rules! counter {
    ($name:literal) => {
        $crate::__cached!(Counter, counter, $name)
    };
}

/// The global [`Gauge`] named by a string literal, cached at the call site.
#[macro_export]
macro_rules! gauge {
    ($name:literal) => {
        $crate::__cached!(Gauge, gauge, $name)
    };
}

/// The global [`Histogram`] named by a string literal, cached at the call
/// site.
#[macro_export]
macro_rules! histogram {
    ($name:literal) => {
        $crate::__cached!(Histogram, histogram, $name)
    };
}

/// Time the rest of the scope: the returned guard observes its lifetime, in
/// seconds, into the global `span.<name>` histogram, cached at the call site.
///
/// ```
/// let _guard = dtp_obs::span!("extract.tls");
/// // ... timed work ...
/// ```
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        $crate::span::SpanGuard::new($crate::__cached!(
            Histogram,
            histogram,
            concat!("span.", $name)
        ))
    };
}

//! Scope timers.
//!
//! A [`SpanGuard`] observes its own lifetime, in seconds, into one
//! `span.<name>` histogram when it drops. [`span!`](crate::span!) hands it
//! the call site's cached histogram, so opening and closing a span is two
//! clock reads and one histogram update: no allocation, no lock, no
//! thread-local state. Spans record durations only; they do not nest.

use std::borrow::Cow;
use std::time::Instant;

use crate::Histogram;

/// An open span; observes its duration on drop.
#[derive(Debug)]
#[must_use = "a span measures the scope holding its guard; bind it with `let _guard = ...`"]
pub struct SpanGuard {
    histogram: Cow<'static, Histogram>,
    started: Instant,
}

impl SpanGuard {
    /// Start timing into `histogram` (what [`span!`](crate::span!) calls).
    pub fn new(histogram: &'static Histogram) -> Self {
        Self { histogram: Cow::Borrowed(histogram), started: Instant::now() }
    }

    /// Start timing into the global `span.<name>` histogram, for a name
    /// known only at run time. Costs one registry lookup per span; use
    /// [`span!`](crate::span!) for a literal name.
    pub fn enter(name: &str) -> Self {
        let histogram = crate::global().histogram(&format!("span.{name}"));
        Self { histogram: Cow::Owned(histogram), started: Instant::now() }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.histogram.observe(self.started.elapsed().as_secs_f64());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_macro_observes_on_drop() {
        let h = crate::global().histogram("span.spantest_a.timed");
        let before = h.count();
        {
            let _guard = crate::span!("spantest_a.timed");
            assert_eq!(h.count(), before, "nothing recorded while open");
        }
        assert_eq!(h.count(), before + 1);
        assert!(h.snapshot().min >= 0.0);
    }

    #[test]
    fn enter_records_under_a_runtime_name() {
        let name = format!("spantest_b.{}", 7);
        drop(SpanGuard::enter(&name));
        drop(SpanGuard::enter(&name));
        assert_eq!(crate::global().histogram("span.spantest_b.7").count(), 2);
    }
}

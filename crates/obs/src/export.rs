//! Exporters: human-readable trace-tree summaries and machine-readable JSON.
//!
//! Spans are exported *aggregated by path*: 600 `simulate.session` spans
//! under the same parent render as one line with `count`, `total`, and
//! `mean`, which is what a cost profile needs (per-stage attribution, not a
//! 600-line flame dump). JSON output uses the workspace `serde_json` shim's
//! [`Value`] tree, so it composes with the `DTP_JSON` bench artifacts.

use std::collections::BTreeMap;

use serde_json::{Map, Value};

use crate::span::FinishedSpan;

/// One aggregated trace-tree node: every finished span sharing a `path`.
#[derive(Debug, Clone, PartialEq)]
struct SpanAggregate {
    /// `/`-joined ancestor chain (see [`FinishedSpan::path`]).
    path: String,
    /// The span name (last path component).
    name: String,
    /// Nesting depth.
    depth: usize,
    /// Spans aggregated into this node.
    count: usize,
    /// Sum of durations, seconds.
    total_s: f64,
    /// Shortest single span, seconds.
    min_s: f64,
    /// Longest single span, seconds.
    max_s: f64,
    /// Earliest start among the aggregated spans (drives display order).
    first_start_s: f64,
}

impl SpanAggregate {
    /// Mean duration, seconds.
    fn mean_s(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.total_s / self.count as f64
    }
}

/// Aggregate finished spans by path, in pre-order (parents open before their
/// children, so sorting by first start time reproduces the tree order).
fn aggregate_spans(spans: &[FinishedSpan]) -> Vec<SpanAggregate> {
    let mut by_path: BTreeMap<&str, SpanAggregate> = BTreeMap::new();
    for s in spans {
        let agg = by_path.entry(&s.path).or_insert_with(|| SpanAggregate {
            path: s.path.clone(),
            name: s.name.clone(),
            depth: s.depth,
            count: 0,
            total_s: 0.0,
            min_s: f64::INFINITY,
            max_s: f64::NEG_INFINITY,
            first_start_s: s.start_s,
        });
        agg.count += 1;
        agg.total_s += s.duration_s;
        agg.min_s = agg.min_s.min(s.duration_s);
        agg.max_s = agg.max_s.max(s.duration_s);
        agg.first_start_s = agg.first_start_s.min(s.start_s);
    }
    let mut out: Vec<SpanAggregate> = by_path.into_values().collect();
    out.sort_by(|a, b| a.first_start_s.total_cmp(&b.first_start_s));
    out
}

/// Format a duration compactly (`412µs`, `16.3ms`, `9.81s`).
fn fmt_duration(seconds: f64) -> String {
    if seconds < 1e-3 {
        format!("{:.0}µs", seconds * 1e6)
    } else if seconds < 1.0 {
        format!("{:.1}ms", seconds * 1e3)
    } else {
        format!("{seconds:.2}s")
    }
}

/// Render the aggregated trace tree as an indented text summary.
pub fn render_tree(spans: &[FinishedSpan]) -> String {
    let aggs = aggregate_spans(spans);
    if aggs.is_empty() {
        return "(no spans recorded)\n".to_string();
    }
    let name_width = aggs
        .iter()
        .map(|a| 2 * a.depth + a.name.len())
        .max()
        .unwrap_or(0)
        .max(8);
    let mut out = String::new();
    for a in &aggs {
        let indent = "  ".repeat(a.depth);
        let label = format!("{indent}{}", a.name);
        out.push_str(&format!(
            "{label:<name_width$}  {:>6}x  total {:>9}  mean {:>9}\n",
            a.count,
            fmt_duration(a.total_s),
            fmt_duration(a.mean_s()),
        ));
    }
    out
}

/// Aggregated trace tree as a JSON array (pre-order).
pub fn span_tree_json(spans: &[FinishedSpan]) -> Value {
    let rows = aggregate_spans(spans)
        .into_iter()
        .map(|a| {
            let mut row = Map::new();
            row.insert("path".into(), Value::String(a.path.clone()));
            row.insert("name".into(), Value::String(a.name.clone()));
            row.insert("depth".into(), Value::Number(a.depth as f64));
            row.insert("count".into(), Value::Number(a.count as f64));
            row.insert("total_s".into(), Value::Number(a.total_s));
            row.insert("mean_s".into(), Value::Number(a.mean_s()));
            row.insert("min_s".into(), Value::Number(a.min_s));
            row.insert("max_s".into(), Value::Number(a.max_s));
            Value::Object(row)
        })
        .collect();
    Value::Array(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, path: &str, start: f64, dur: f64) -> FinishedSpan {
        let name = path.rsplit('/').next().unwrap().to_string();
        let depth = path.matches('/').count();
        FinishedSpan {
            id,
            parent,
            name,
            path: path.to_string(),
            depth,
            start_s: start,
            duration_s: dur,
        }
    }

    fn sample() -> Vec<FinishedSpan> {
        vec![
            span(1, None, "pipeline", 0.0, 10.0),
            span(2, Some(1), "pipeline/extract", 1.0, 4.0),
            span(3, Some(2), "pipeline/extract/extract.tls", 1.0, 1.5),
            span(4, Some(2), "pipeline/extract/extract.tls", 2.5, 0.5),
            span(5, Some(1), "pipeline/train", 5.0, 5.0),
        ]
    }

    #[test]
    fn aggregation_groups_by_path_in_preorder() {
        let aggs = aggregate_spans(&sample());
        let paths: Vec<&str> = aggs.iter().map(|a| a.path.as_str()).collect();
        assert_eq!(
            paths,
            [
                "pipeline",
                "pipeline/extract",
                "pipeline/extract/extract.tls",
                "pipeline/train"
            ]
        );
        let tls = &aggs[2];
        assert_eq!(tls.count, 2);
        assert_eq!(tls.total_s, 2.0);
        assert_eq!(tls.mean_s(), 1.0);
        assert_eq!(tls.min_s, 0.5);
        assert_eq!(tls.max_s, 1.5);
    }

    #[test]
    fn tree_renders_every_stage_with_duration() {
        let text = render_tree(&sample());
        for stage in ["pipeline", "extract.tls", "train"] {
            assert!(text.contains(stage), "missing {stage} in:\n{text}");
        }
        assert!(text.contains("    extract.tls"), "children are indented");
        assert!(text.contains("2x"), "sibling spans aggregate");
        assert_eq!(render_tree(&[]), "(no spans recorded)\n");
    }

    #[test]
    fn duration_formatting_picks_units() {
        assert_eq!(fmt_duration(0.000_412), "412µs");
        assert_eq!(fmt_duration(0.016_3), "16.3ms");
        assert_eq!(fmt_duration(9.81), "9.81s");
    }

    #[test]
    fn span_json_round_trips_through_the_shim() {
        let v = span_tree_json(&sample());
        let text = v.to_string();
        let parsed: Value = serde_json::from_str(&text).expect("valid JSON");
        assert_eq!(parsed, v);
        let rows = parsed.as_array().expect("array");
        assert_eq!(rows.len(), 4);
        let first = rows[0].as_object().expect("object");
        assert_eq!(first.get("path").unwrap().as_str().unwrap(), "pipeline");
        assert_eq!(first.get("total_s").unwrap().as_f64().unwrap(), 10.0);
    }
}

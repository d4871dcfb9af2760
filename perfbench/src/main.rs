//! `dtp-perfbench`, the repository benchmark. `README.md` beside this crate
//! describes the workloads, the metrics and how to read them.
//!
//! ```text
//! dtp-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the JSON result: `correct`,
//! `attempted`, `failed` and `metrics` (every end-to-end metric, or with
//! `--trace 1` every per-layer metric). Spans and the run's fingerprint
//! are written to `.bench_out/`.

mod inputs;
mod layers;
mod offline;
mod stats;
mod stream;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use trace::Tracer;

/// End-to-end metrics, reported by untraced runs: name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("records_per_s", "1/s"),
    ("verdict_p50_ms", "ms"),
    ("verdict_p99_ms", "ms"),
    ("train_eval_s", "s"),
    ("accuracy", "ratio"),
    ("low_qoe_recall", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by traced runs: name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("simnet.generate_ms", "ms"),
    ("sim.sessions", "count"),
    ("sim.session_ms_p50", "ms"),
    ("sim.packet_session_ms_p50", "ms"),
    ("sim.packets", "count"),
    ("telemetry.ingest_us_per_session", "us"),
    ("telemetry.accepted", "count"),
    ("telemetry.repaired", "count"),
    ("telemetry.quarantined", "count"),
    ("sessionid.detect_ns_per_record", "ns"),
    ("sessionid.boundaries", "count"),
    ("features.tls_us_per_session", "us"),
    ("features.packet_ms_per_session", "ms"),
    ("features.tls_bytes", "bytes"),
    ("features.packet_bytes", "bytes"),
    ("ml.fit_ms", "ms"),
    ("ml.cv_ms", "ms"),
    ("ml.predict_us_per_row_b64", "us"),
    ("ml.predict_us_per_row_full", "us"),
    ("ml.packet_cv_accuracy", "ratio"),
    ("par.speedup.fit", "x"),
    ("par.speedup.cv", "x"),
    ("par.speedup.extract_tls", "x"),
    ("par.speedup.predict64", "x"),
    ("par.tasks", "count"),
    ("par.steals", "count"),
    ("estimator.deploy_ms", "ms"),
    ("stream.push_ns_p50", "ns"),
    ("stream.emit_push_us_p50", "us"),
    ("stream.emit_ms_p95", "ms"),
    ("stream.finish_ms", "ms"),
    ("stream.sessions_emitted", "count"),
    ("stream.closed_by_boundary", "count"),
    ("stream.closed_by_idle", "count"),
    ("stream.late_dropped", "count"),
    ("stream.quarantined", "count"),
    ("stream.open_sessions_max", "count"),
    ("stream.buffered_records_max", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// Workload names, as `--workload` takes them.
const WORKLOADS: [&str; 2] = ["stream_hot", "paper_offline"];

const USAGE: &str = "usage: dtp-perfbench --workload <stream_hot|paper_offline> \
     --seed <n> --seconds <s> --trace <0|1>";

/// Named metric values.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Set `name`, replacing an earlier value.
    pub fn put(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// What a workload run hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: records offered, or sessions simulated.
    pub attempted: u64,
    /// Operations failed, including every correctness-gate mismatch.
    pub failed: u64,
    /// One line per failure kind.
    pub problems: Vec<String>,
    pub metrics: Metrics,
    /// Digests of the inputs and the model.
    pub fingerprint: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Count `n` failed operations, described by `problem`.
    pub fn fail(&mut self, n: u64, problem: String) {
        self.failed += n;
        self.problems.push(problem);
    }
}

/// Parameters shared by every workload.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

/// Run `f`, returning its result and its wall time in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Fail the run unless `n` latency samples leave at least ten beyond the
/// reported percentile `p`.
pub fn require_percentile(n: usize, p: f64, out: &mut Outcome) {
    if stats::samples_beyond(n, p) < 10 {
        let best = stats::highest_supported_percentile(n, &[50.0, 90.0, 95.0, 99.0], 10);
        out.fail(
            1,
            format!("{n} samples cannot support p{p}; the highest supported is {best:?}"),
        );
    }
}

fn parse_args(args: &[String]) -> Result<(&'static str, Run), String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let w = value("--workload")?;
    let workload = WORKLOADS
        .into_iter()
        .find(|&n| n == w)
        .ok_or_else(|| format!("unknown workload {w}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    let traced = match value("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok((
        workload,
        Run {
            seed,
            seconds,
            traced,
        },
    ))
}

/// Record `peak_rss_mb`: `VmHWM` (peak resident set) from
/// `/proc/self/status`, in MiB. Workloads call this when their timed phase
/// ends, before the correctness gates allocate reference outputs.
pub fn record_peak_rss(out: &mut Outcome) {
    let kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        });
    match kb {
        Some(kb) => out.metrics.put("peak_rss_mb", kb / 1024.0),
        None => out.fail(1, "VmHWM not readable from /proc/self/status".to_string()),
    }
}

/// Print the median and quartiles of per-unit values (passes or cycles).
pub fn print_spread(what: &str, xs: &[f64]) {
    match stats::quartiles(xs) {
        Some([q1, q2, q3]) => println!(
            "{what}: median {q2:.4} [q1 {q1:.4}, q3 {q3:.4}] over {}",
            xs.len()
        ),
        None => println!("{what}: {:.4} over {}", stats::median(xs), xs.len()),
    }
}

/// First line of a command's output, or `unknown`. Waits for the command.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// What identifies a result: machine, toolchain, code, inputs and model.
fn fingerprint(workload: &str, run: Run, out: &Outcome) -> serde_json::Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let commit = if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown (not a git checkout)".to_string()
    };
    use serde_json::Value::{Number, String as Text};
    let mut map = serde_json::Map::new();
    let mut put = |k: &str, v: serde_json::Value| map.insert(k.to_string(), v);
    put("workload", Text(workload.to_string()));
    put("seed", Number(run.seed as f64));
    put("seconds", Number(run.seconds));
    put("nproc", Number(nproc as f64));
    put("threads", Number(dtp_par::thread_count() as f64));
    put("rustc", Text(command_line("rustc", &["-V"])));
    put("git_commit", Text(commit));
    for (k, v) in &out.fingerprint {
        put(k, Text(v.clone()));
    }
    serde_json::Value::Object(map)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, run) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("dtp-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "dtp-perfbench {workload}: seed {}, {} s, trace {}, {} thread(s)",
        run.seed,
        run.seconds,
        u8::from(run.traced),
        dtp_par::thread_count()
    );
    let mut tracer = Tracer::new(run.traced);
    let mut out = match workload {
        "stream_hot" => stream::run(run, &mut tracer),
        "paper_offline" => offline::run(run, &mut tracer),
        _ => unreachable!("parse_args accepts only known workloads"),
    };
    if run.traced {
        out.metrics.put("trace.spans", tracer.spans().len() as f64);
    }
    if out.attempted == 0 {
        out.fail(1, "no operation attempted".to_string());
    }

    let expected = if run.traced { PER_LAYER } else { END_TO_END };
    let mut reported = Vec::with_capacity(expected.len());
    for &(name, unit) in expected {
        let value = match out.metrics.get(name) {
            Some(v) if v.is_finite() => v,
            _ => {
                out.fail(1, format!("metric {name} missing or not finite"));
                0.0
            }
        };
        reported.push((name, unit, value));
    }

    let fp = fingerprint(workload, run, &out);
    println!("fingerprint {fp}");
    for (name, unit, value) in &reported {
        println!("  {name:<34} {value:>16.6} {unit}");
    }
    for p in &out.problems {
        println!("FAILED: {p}");
    }
    let correct = out.problems.is_empty() && out.failed == 0;

    let metrics_json: Vec<String> = reported
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics_json.join(", ")
    );
    let artifact = serde_json::json!({
        "fingerprint": fp,
        "problems": out.problems.clone(),
        "spans": tracer.to_json(),
    });
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!(
        "{workload}-seed{}-trace{}.json",
        run.seed,
        u8::from(run.traced)
    ));
    let written = std::fs::create_dir_all(dir).and_then(|()| {
        std::fs::write(
            &path,
            format!("{{\"result\":{result},\"run\":{artifact}}}\n"),
        )
    });
    if let Err(e) = written {
        eprintln!("dtp-perfbench: could not write {}: {e}", path.display());
    }
    println!("{result}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let (w, run) = parse_args(&args(
            "--workload stream_hot --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(w, "stream_hot");
        assert_eq!((run.seed, run.seconds, run.traced), (7, 10.0, true));
        assert!(parse_args(&args("--workload nope --seed 7 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&args(
            "--workload stream_hot --seed 7 --seconds 10 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&args("--workload stream_hot --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&args(
            "--workload stream_hot --seed 7 --seconds 0 --trace 0"
        ))
        .is_err());
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let table = |key: &str| -> Vec<(String, String)> {
            doc.as_object()
                .and_then(|o| o.get(key))
                .and_then(serde_json::Value::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.as_object()
                            .and_then(|o| o.get(f))
                            .and_then(|v| v.as_str())
                            .unwrap()
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(table("end_to_end"), own(END_TO_END));
        assert_eq!(table("per_layer"), own(PER_LAYER));
        let names: Vec<String> = doc
            .as_object()
            .and_then(|o| o.get("workloads"))
            .and_then(serde_json::Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.as_object()
                    .and_then(|o| o.get("name"))
                    .and_then(|v| v.as_str())
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(names, WORKLOADS);
    }

    #[test]
    fn metrics_replace_earlier_values() {
        let mut m = Metrics::default();
        m.put("a", 1.0);
        m.put("a", 2.0);
        assert_eq!(m.get("a"), Some(2.0));
        assert_eq!(m.get("b"), None);
    }
}

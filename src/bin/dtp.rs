//! `dtp` — operational command line for the drop-the-packets pipeline.
//!
//! ```text
//! dtp simulate --service svc1 --sessions 200 --seed 7      # CSV dataset to stdout
//! dtp train    --service svc1 --sessions 500 --out model.json
//! dtp predict  --model model.json --transactions proxy.csv # one label per session
//! dtp split    --transactions proxy.csv                    # session boundaries
//! ```
//!
//! Transaction CSV schema (the proxy export): `start_s,end_s,up_bytes,
//! down_bytes,sni`, one row per TLS transaction, headers optional.

use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;

use drop_the_packets::core::dataset::DatasetBuilder;
use drop_the_packets::core::estimator::QoeEstimator;
use drop_the_packets::core::label::QoeMetricKind;
use drop_the_packets::core::sessionid::{SessionIdParams, SessionSplitter};
use drop_the_packets::core::ServiceId;
use drop_the_packets::features::{extract_tls_features, tls_feature_names};
use drop_the_packets::telemetry::TlsTransactionRecord;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = match parse_opts(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "simulate" => cmd_simulate(&opts),
        "train" => cmd_train(&opts),
        "predict" => cmd_predict(&opts),
        "split" => cmd_split(&opts),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
dtp — video QoE inference from coarse TLS transaction data

USAGE:
  dtp simulate --service <svc1|svc2|svc3> [--sessions N] [--seed S]
      Simulate a labelled corpus; write features+labels as CSV to stdout.
  dtp train --service <svc1|svc2|svc3> [--sessions N] [--seed S]
            [--metric <combined|quality|rebuffering>] --out <model.json>
      Train the Random Forest estimator and save it.
  dtp predict --model <model.json> --transactions <proxy.csv>
      Classify ONE session's TLS transactions (CSV rows:
      start_s,end_s,up_bytes,down_bytes,sni).
  dtp split --transactions <proxy.csv> [--window W] [--nmin N] [--dmin D]
      Detect back-to-back session boundaries in a proxy log.";

fn parse_opts(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(format!("expected --flag, got {key:?}"));
        };
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        out.insert(name.to_string(), value.clone());
    }
    Ok(out)
}

fn service_opt(opts: &HashMap<String, String>) -> Result<ServiceId, String> {
    match opts.get("service").map(|s| s.as_str()) {
        Some("svc1") => Ok(ServiceId::Svc1),
        Some("svc2") => Ok(ServiceId::Svc2),
        Some("svc3") => Ok(ServiceId::Svc3),
        Some(other) => Err(format!("unknown service {other:?}")),
        None => Err("--service is required".to_string()),
    }
}

fn num_opt<T: std::str::FromStr>(
    opts: &HashMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    match opts.get(name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("--{name}: cannot parse {v:?}")),
    }
}

fn metric_opt(opts: &HashMap<String, String>) -> Result<QoeMetricKind, String> {
    match opts.get("metric").map(|s| s.as_str()) {
        None | Some("combined") => Ok(QoeMetricKind::Combined),
        Some("quality") => Ok(QoeMetricKind::VideoQuality),
        Some("rebuffering") => Ok(QoeMetricKind::Rebuffering),
        Some(other) => Err(format!("unknown metric {other:?}")),
    }
}

fn build_corpus(opts: &HashMap<String, String>) -> Result<drop_the_packets::core::Corpus, String> {
    let service = service_opt(opts)?;
    let sessions: usize = num_opt(opts, "sessions", 200)?;
    let seed: u64 = num_opt(opts, "seed", 7)?;
    eprintln!("simulating {sessions} {} sessions (seed {seed})...", service.name());
    Ok(DatasetBuilder::new(service).sessions(sessions).seed(seed).build())
}

fn cmd_simulate(opts: &HashMap<String, String>) -> Result<(), String> {
    let corpus = build_corpus(opts)?;
    let names = tls_feature_names();
    println!("{},quality,rebuffering,combined", names.join(","));
    for r in &corpus.records {
        let feats: Vec<String> = r.tls_features.iter().map(|v| format!("{v:.6}")).collect();
        println!(
            "{},{},{},{}",
            feats.join(","),
            r.quality.name(),
            r.rebuf.name(),
            r.combined.name()
        );
    }
    Ok(())
}

fn cmd_train(opts: &HashMap<String, String>) -> Result<(), String> {
    let out_path = opts.get("out").ok_or("--out is required")?;
    let metric = metric_opt(opts)?;
    let corpus = build_corpus(opts)?;
    let est = QoeEstimator::train(&corpus, metric, num_opt(opts, "seed", 7)?);
    std::fs::write(out_path, est.to_json()).map_err(|e| e.to_string())?;
    eprintln!("model written to {out_path}");
    Ok(())
}

fn read_transactions(path: &str) -> Result<Vec<TlsTransactionRecord>, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out = Vec::new();
    for (ln, line) in body.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with("start") {
            continue; // blank, comment, or header
        }
        let cols: Vec<&str> = line.split(',').map(str::trim).collect();
        if cols.len() != 5 {
            return Err(format!("{path}:{}: expected 5 columns, got {}", ln + 1, cols.len()));
        }
        let parse = |i: usize| -> Result<f64, String> {
            let v: f64 = cols[i]
                .parse()
                .map_err(|_| format!("{path}:{}: bad number {:?}", ln + 1, cols[i]))?;
            if !v.is_finite() {
                return Err(format!("{path}:{}: non-finite number {:?}", ln + 1, cols[i]));
            }
            Ok(v)
        };
        out.push(TlsTransactionRecord {
            start_s: parse(0)?,
            end_s: parse(1)?,
            up_bytes: parse(2)?,
            down_bytes: parse(3)?,
            sni: Arc::from(cols[4]),
        });
    }
    if out.is_empty() {
        return Err(format!("{path}: no transactions"));
    }
    // `split` groups records in slice order, so the slice must be sorted.
    out.sort_by(|a, b| a.start_s.total_cmp(&b.start_s));
    Ok(out)
}

fn cmd_predict(opts: &HashMap<String, String>) -> Result<(), String> {
    let model_path = opts.get("model").ok_or("--model is required")?;
    let tx_path = opts.get("transactions").ok_or("--transactions is required")?;
    let json = std::fs::read_to_string(model_path).map_err(|e| format!("{model_path}: {e}"))?;
    let est = QoeEstimator::from_json(&json)?;
    let txs = read_transactions(tx_path)?;
    let features = extract_tls_features(&txs);
    let idx = est.predict_index(&txs);
    let label = match (est.metric(), idx) {
        (QoeMetricKind::Rebuffering, 0) => "high re-buffering",
        (QoeMetricKind::Rebuffering, 1) => "mild re-buffering",
        (QoeMetricKind::Rebuffering, _) => "zero re-buffering",
        (_, 0) => "low",
        (_, 1) => "medium",
        (_, _) => "high",
    };
    println!("sessions: 1");
    println!("transactions: {}", txs.len());
    println!("SDR_DL: {:.0} kbps, SES_DUR: {:.0} s", features[0], features[2]);
    println!("prediction ({:?}): {label}", est.metric());
    if idx == 0 {
        println!("=> video performance issue detected");
    }
    Ok(())
}

fn cmd_split(opts: &HashMap<String, String>) -> Result<(), String> {
    let tx_path = opts.get("transactions").ok_or("--transactions is required")?;
    let txs = read_transactions(tx_path)?;
    let params = SessionIdParams {
        window_s: num_opt(opts, "window", 3.0)?,
        n_min: num_opt(opts, "nmin", 2usize)?,
        delta_min: num_opt(opts, "dmin", 0.5)?,
    };
    let splitter = SessionSplitter::new(params);
    let groups = splitter.split(&txs);
    println!("{} transactions -> {} sessions", txs.len(), groups.len());
    for (i, g) in groups.iter().enumerate() {
        let first = g.first().expect("non-empty group");
        let hosts: std::collections::HashSet<_> = g.iter().map(|t| t.sni.clone()).collect();
        println!(
            "session {:>3}: start {:>9.1}s  {:>4} transactions  {:>2} hosts",
            i + 1,
            first.start_s,
            g.len(),
            hosts.len()
        );
    }
    Ok(())
}

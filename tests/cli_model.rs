//! The `dtp` binary treats its input files as untrusted. A hostile model
//! artifact or a non-finite transactions field must end the process with
//! exit code 1 and an `error:` line within seconds: never a hang, a panic
//! (exit 101) or an abort (exit 134).

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

use drop_the_packets::core::{DatasetBuilder, QoeEstimator, QoeMetricKind, ServiceId};
use serde_json::Value;

const TRANSACTIONS: &str = "\
start_s,end_s,up_bytes,down_bytes,sni
0.0,4.0,1200,350000,video.example
0.5,9.0,900,1800000,video.example
1.0,2.0,400,20000,api.example
12.0,20.0,1100,2400000,video.example
";

fn path(name: &str) -> String {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli_model");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name).to_str().expect("utf-8 path").to_string()
}

/// Write `body` to a scratch file and return its path.
fn file(name: &str, body: &str) -> String {
    let p = path(name);
    std::fs::write(&p, body).expect("write scratch file");
    p
}

/// Run `dtp`, killing it if it is still running after 5 s.
fn dtp(args: &[&str]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dtp"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dtp");
    let deadline = Instant::now() + Duration::from_secs(5);
    while child.try_wait().expect("poll dtp").is_none() {
        if Instant::now() > deadline {
            child.kill().expect("kill dtp");
            child.wait().expect("reap dtp");
            panic!("dtp {args:?} still running after 5 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("dtp output")
}

/// Assert a clean failure: exit 1 and an `error:` line containing `needle`.
fn assert_error(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.lines().any(|l| l.starts_with("error:") && l.contains(needle)),
        "no `error:` line with {needle:?} in: {stderr}"
    );
}

/// A small trained model's artifact.
fn model() -> Value {
    let corpus = DatasetBuilder::new(ServiceId::Svc1).sessions(20).seed(3).build();
    let text = QoeEstimator::train(&corpus, QoeMetricKind::Combined, 0).to_json();
    serde_json::from_str(&text).expect("artifact parses")
}

fn object(v: &mut Value) -> &mut serde_json::Map {
    match v {
        Value::Object(m) => m,
        other => panic!("expected an object, found {other}"),
    }
}

fn forest(doc: &mut Value) -> &mut serde_json::Map {
    object(object(doc).get_mut("forest").expect("forest"))
}

/// The first tree of the artifact; its root is a split in this model.
fn first_tree(doc: &mut Value) -> &mut serde_json::Map {
    let Some(Value::Array(trees)) = forest(doc).get_mut("trees") else { panic!("no trees") };
    let tree = object(&mut trees[0]);
    let root = tree.get("feature").and_then(Value::as_array).map(|f| f[0].clone());
    assert_ne!(root, Some(Value::Number(-1.0)), "tree 0 must start with a split");
    tree
}

fn set_root(tree: &mut serde_json::Map, key: &str, v: f64) {
    let Some(Value::Array(column)) = tree.get_mut(key) else { panic!("no {key}") };
    column[0] = Value::Number(v);
}

#[test]
fn hostile_models_are_load_errors() {
    let txs = file("txs.csv", TRANSACTIONS);
    let valid = model();
    let ok = dtp(&[
        "predict",
        "--model",
        &file("valid.json", &valid.to_string()),
        "--transactions",
        &txs,
    ]);
    assert_eq!(ok.status.code(), Some(0), "{}", String::from_utf8_lossy(&ok.stderr));
    assert!(String::from_utf8_lossy(&ok.stdout).contains("prediction"));

    // A split whose children point back to itself: a walk would never end.
    let mut looped = valid.clone();
    set_root(first_tree(&mut looped), "child", 0.0);
    // A split on a feature the 38-column vector does not have.
    let mut feature = valid.clone();
    set_root(first_tree(&mut feature), "feature", 999.0);
    // Every leaf row cut to one value: the rows no longer fill the pool.
    let mut short = valid.clone();
    let Some(Value::Array(trees)) = forest(&mut short).get_mut("trees") else { panic!() };
    for tree in trees {
        let Some(Value::Array(pool)) = object(tree).get_mut("leaf") else { panic!() };
        *pool = pool.iter().step_by(3).cloned().collect();
    }
    // A class count that would size an 8 TB buffer.
    let mut huge = valid.clone();
    forest(&mut huge).insert("n_classes".into(), Value::Number(1e12));

    for (name, doc, needle) in [
        ("looped", looped, "not after it"),
        ("feature", feature, "feature 999"),
        ("short", short, "leaf pool"),
        ("huge", huge, "n_classes"),
    ] {
        let model = file(&format!("{name}.json"), &doc.to_string());
        assert_error(&dtp(&["predict", "--model", &model, "--transactions", &txs]), needle);
    }
    let v1 = file("v1.json", r#"{"metric":"Combined","feature_names":[],"forest":{}}"#);
    assert_error(&dtp(&["predict", "--model", &v1, "--transactions", &txs]), "retrained");
}

#[test]
fn non_finite_transaction_fields_are_errors() {
    let model = file("nan_model.json", &model().to_string());
    for (name, bad) in [("nan_start", "nan,4.0"), ("inf_end", "0.0,inf"), ("neg_inf", "-inf,1.0")] {
        let body = TRANSACTIONS.replacen("0.0,4.0", bad, 1);
        let txs = file(&format!("{name}.csv"), &body);
        let at = format!("{txs}:2: non-finite number");
        assert_error(&dtp(&["predict", "--model", &model, "--transactions", &txs]), &at);
        assert_error(&dtp(&["split", "--transactions", &txs]), &at);
    }
    let txs = file("nan_bytes.csv", &TRANSACTIONS.replacen("350000", "NaN", 1));
    assert_error(&dtp(&["split", "--transactions", &txs]), "non-finite number \"NaN\"");
}

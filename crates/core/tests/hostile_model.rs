//! A model artifact is untrusted input. Every mutation of a valid artifact
//! that breaks an invariant the forest's walk relies on must come back from
//! `QoeEstimator::from_json` as an `Err` — never a panic, a hang or an
//! allocation sized by a number in the file.

use std::sync::OnceLock;

use dtp_core::{DatasetBuilder, QoeEstimator, QoeMetricKind, ServiceId};
use proptest::prelude::*;
use serde_json::{Map, Value};

/// A small trained model's artifact text.
fn artifact() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let corpus = DatasetBuilder::new(ServiceId::Svc1).sessions(20).seed(3).build();
        QoeEstimator::train(&corpus, QoeMetricKind::Combined, 0).to_json()
    })
}

/// Ways to break an artifact; each must be a load error.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    SelfChild,
    BackwardChild,
    ChildPastEnd,
    FeatureOutOfRange,
    NanThreshold,
    InfThreshold,
    NegInfThreshold,
    RaggedColumns,
    ShortLeafRow,
    LongLeafRow,
    ZeroClasses,
    HugeClasses,
    NoTrees,
    WrongFormat,
    Truncated,
}

const MUTATIONS: [Mutation; 15] = [
    Mutation::SelfChild,
    Mutation::BackwardChild,
    Mutation::ChildPastEnd,
    Mutation::FeatureOutOfRange,
    Mutation::NanThreshold,
    Mutation::InfThreshold,
    Mutation::NegInfThreshold,
    Mutation::RaggedColumns,
    Mutation::ShortLeafRow,
    Mutation::LongLeafRow,
    Mutation::ZeroClasses,
    Mutation::HugeClasses,
    Mutation::NoTrees,
    Mutation::WrongFormat,
    Mutation::Truncated,
];

fn object(v: &mut Value) -> &mut Map {
    match v {
        Value::Object(m) => m,
        other => panic!("expected an object, found {other}"),
    }
}

/// Apply `m` to the artifact; `pick` chooses which split, tree and offset.
fn mutate(m: Mutation, pick: usize) -> String {
    let text = artifact();
    if let Mutation::Truncated = m {
        return text[..pick % text.len()].to_string();
    }
    let mut doc = serde_json::from_str(text).unwrap();
    let root = object(&mut doc);
    if let Mutation::WrongFormat = m {
        root.insert("format".into(), Value::String("dtp.model.v1".into()));
    }
    let forest = object(root.get_mut("forest").unwrap());
    match m {
        Mutation::ZeroClasses => drop(forest.insert("n_classes".into(), Value::Number(0.0))),
        Mutation::HugeClasses => drop(forest.insert("n_classes".into(), Value::Number(1e12))),
        Mutation::NoTrees => drop(forest.insert("trees".into(), Value::Array(Vec::new()))),
        Mutation::WrongFormat | Mutation::Truncated => {}
        _ => mutate_split(forest, m, pick),
    }
    // JSON cannot write an infinity, but `1e999` reads as one.
    let inf = if let Mutation::NegInfThreshold = m { "-1e999" } else { "1e999" };
    doc.to_string().replace(&format!("\"{INF}\""), inf)
}

/// Stand-in for an infinite threshold, swapped for text after rendering.
const INF: &str = "__inf__";

/// Apply a node-level mutation to one of the forest's splits.
fn mutate_split(forest: &mut Map, m: Mutation, pick: usize) {
    let Some(Value::Array(trees)) = forest.get_mut("trees") else { panic!("no trees") };
    // Every split in the forest, as (tree, node).
    let splits: Vec<(usize, usize)> = trees
        .iter()
        .enumerate()
        .flat_map(|(t, tree)| {
            let features = tree.as_object().unwrap().get("feature").unwrap().as_array().unwrap();
            let nodes = features.iter().enumerate().filter(|(_, f)| f.as_f64() != Some(-1.0));
            nodes.map(move |(i, _)| (t, i)).collect::<Vec<_>>()
        })
        .collect();
    let (t, node) = splits[pick % splits.len()];
    let tree = object(&mut trees[t]);
    let len = tree.get("child").unwrap().as_array().unwrap().len();
    let mut poke = |key: &str, v: Value| {
        let Some(Value::Array(column)) = tree.get_mut(key) else { panic!("no {key}") };
        column[node] = v;
    };
    match m {
        Mutation::SelfChild => poke("child", Value::Number(node as f64)),
        Mutation::BackwardChild => poke("child", Value::Number((pick % node.max(1)) as f64)),
        Mutation::ChildPastEnd => poke("child", Value::Number((len - 1 + pick % 3) as f64)),
        Mutation::FeatureOutOfRange => poke("feature", Value::Number((38 + pick % 1000) as f64)),
        Mutation::NanThreshold => poke("threshold", Value::Number(f64::NAN)),
        Mutation::InfThreshold | Mutation::NegInfThreshold => {
            poke("threshold", Value::String(INF.into()))
        }
        Mutation::RaggedColumns => {
            let Some(Value::Array(column)) = tree.get_mut("threshold") else {
                panic!("no threshold")
            };
            column.pop();
        }
        Mutation::ShortLeafRow | Mutation::LongLeafRow => {
            let Some(Value::Array(pool)) = tree.get_mut("leaf") else { panic!("no leaf") };
            if let Mutation::ShortLeafRow = m {
                pool.pop();
            } else {
                pool.push(Value::Number(0.5));
            }
        }
        _ => unreachable!("not a node mutation: {m:?}"),
    }
}

#[test]
fn valid_artifact_round_trips_to_the_same_text() {
    let est = QoeEstimator::from_json(artifact()).expect("valid model loads");
    assert_eq!(est.to_json(), artifact());
}

proptest! {
    /// Each mutation, at a drawn tree, node and offset, is a load error.
    #[test]
    fn mutated_artifacts_are_load_errors(pick in 0usize..1 << 20) {
        for m in MUTATIONS {
            let text = mutate(m, pick);
            prop_assert!(text != artifact(), "{:?} changed nothing", m);
            prop_assert!(QoeEstimator::from_json(&text).is_err(), "{:?} at {} loaded", m, pick);
        }
    }
}

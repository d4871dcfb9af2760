//! Property-based tests for the ML substrate.

use dtp_ml::cv::stratified_kfold;
use dtp_ml::{
    Classifier, DecisionTree, Gbdt, GbdtConfig, KnnClassifier, LinearSvm, LinearSvmConfig,
    RandomForest, RandomForestConfig, StandardScaler, TreeConfig,
};
use proptest::prelude::*;

fn arb_rows(max_classes: usize) -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<usize>)> {
    proptest::collection::vec((proptest::collection::vec(-1e3f64..1e3, 3), 0..max_classes), 8..60)
        .prop_map(|rows| {
            let x: Vec<Vec<f64>> = rows.iter().map(|r| r.0.clone()).collect();
            let y: Vec<usize> = rows.iter().map(|r| r.1).collect();
            (x, y)
        })
}

proptest! {
    /// Trees always predict a label present in the training data.
    #[test]
    fn tree_predicts_training_labels((x, y) in arb_rows(3)) {
        let mut t = DecisionTree::new(TreeConfig::default());
        t.fit(&x, &y, 3);
        let seen: std::collections::HashSet<usize> = y.iter().copied().collect();
        for row in &x {
            prop_assert!(seen.contains(&t.predict(row)));
        }
    }

    /// A depth-unlimited tree fits its own (deduplicated) training data.
    #[test]
    fn tree_memorizes_separable_rows(n in 5usize..40) {
        // Strictly separable: one feature, distinct values, label by sign.
        let x: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64]).collect();
        let y: Vec<usize> = (0..n).map(|i| usize::from(i % 3 == 0)).collect();
        let mut t = DecisionTree::new(TreeConfig { max_depth: 64, ..Default::default() });
        t.fit(&x, &y, 2);
        for (row, &label) in x.iter().zip(&y) {
            prop_assert_eq!(t.predict(row), label);
        }
    }

    /// Every fitted forest satisfies its own loader: the artifact decodes
    /// to a forest that re-encodes to the same text and predicts bit for
    /// bit the same, and every split's children come after it.
    #[test]
    fn fitted_forests_round_trip_through_the_artifact((x, y) in arb_rows(3)) {
        let mut f = RandomForest::new(RandomForestConfig { n_trees: 5, ..Default::default() });
        f.fit(&x, &y, 3);
        let text = f.to_value().to_string();
        let doc = serde_json::from_str(&text).unwrap();
        let back = RandomForest::from_value(&doc, 3, 3).unwrap();
        prop_assert_eq!(back.to_value().to_string(), text);
        let bits = |p: Vec<f64>| p.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        for row in &x {
            prop_assert_eq!(bits(back.predict_proba(row)), bits(f.predict_proba(row)));
        }
        prop_assert_eq!(
            bits(back.feature_importances().unwrap()),
            bits(f.feature_importances().unwrap())
        );
        let column = |tree: &serde_json::Value, key: &str| -> Vec<f64> {
            let v = tree.as_object().unwrap().get(key).unwrap().as_array().unwrap();
            v.iter().map(|n| n.as_f64().unwrap()).collect()
        };
        let trees = doc.as_object().unwrap().get("trees").unwrap().as_array().unwrap();
        for tree in trees {
            let (feature, child) = (column(tree, "feature"), column(tree, "child"));
            for (i, (&feat, &c)) in feature.iter().zip(&child).enumerate() {
                prop_assert!(feat == -1.0 || c > i as f64, "node {} points back to {}", i, c);
            }
        }
    }

    /// The scaler is invertible in distribution: transformed data has mean 0.
    #[test]
    fn scaler_centers_any_matrix(
        rows in proptest::collection::vec(
            proptest::collection::vec(-1e6f64..1e6, 4), 2..50
        )
    ) {
        let s = StandardScaler::fit(&rows);
        let t = s.transform(&rows);
        for c in 0..4 {
            let mean: f64 = t.iter().map(|r| r[c]).sum::<f64>() / t.len() as f64;
            prop_assert!(mean.abs() < 1e-6, "column {} mean {}", c, mean);
        }
    }

    /// Stratified folds partition rows exactly once, for any label vector.
    #[test]
    fn kfold_partitions(
        labels in proptest::collection::vec(0usize..4, 10..200),
        k in 2usize..6,
        seed in 0u64..100,
    ) {
        let folds = stratified_kfold(&labels, k, seed);
        prop_assert_eq!(folds.len(), k);
        let mut seen = vec![0usize; labels.len()];
        for (train, test) in &folds {
            prop_assert_eq!(train.len() + test.len(), labels.len());
            for &i in test {
                seen[i] += 1;
            }
        }
        prop_assert!(seen.iter().all(|&c| c == 1));
    }

    /// All classifiers return labels inside the class range on anything.
    #[test]
    fn classifiers_stay_in_range((x, y) in arb_rows(3)) {
        let scaler = StandardScaler::fit(&x);
        let xs = scaler.transform(&x);

        let mut knn = KnnClassifier::new(3);
        knn.fit(&xs, &y, 3);
        let mut svm = LinearSvm::new(LinearSvmConfig { epochs: 3, ..Default::default() });
        svm.fit(&xs, &y, 3);
        let mut gbdt = Gbdt::new(GbdtConfig { rounds: 3, ..Default::default() });
        gbdt.fit(&x, &y, 3);
        for row in xs.iter().take(10) {
            prop_assert!(knn.predict(row) < 3);
            prop_assert!(svm.predict(row) < 3);
        }
        for row in x.iter().take(10) {
            prop_assert!(gbdt.predict(row) < 3);
        }
    }
}

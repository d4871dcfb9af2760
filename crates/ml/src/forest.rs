//! Random Forest: bagged CART trees with feature subsampling.
//!
//! The paper's winning model (§4.2). Importances are the mean of per-tree
//! impurity decreases, normalized to sum to 1 — the quantity plotted in
//! Fig. 6.
//!
//! Training and batch prediction fan out over `dtp-par`: each tree derives
//! its RNG stream from `task_seed(seed, tree_index)`, so the fitted forest
//! is bitwise identical at any `DTP_THREADS` setting.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde_json::{Map, Value};

use crate::flat::{numbers, FlatTree};
use crate::tree::{argmax, normalize, DecisionTree, MaxFeatures, TreeConfig};
use crate::Classifier;

/// Forest hyperparameters.
///
/// Note the deliberate divergence from [`TreeConfig::default`]: a plain
/// [`DecisionTree`] defaults to [`MaxFeatures::All`] (classic single CART —
/// considering every feature is what makes one tree a strong standalone
/// learner), while the forest overrides its trees to [`MaxFeatures::Sqrt`],
/// the Random Forest de-correlation mechanism. Use [`Self::for_paper`] for
/// the exact §4.2 configuration.
#[derive(Debug, Clone, Copy)]
pub struct RandomForestConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree growth limits (feature subsampling defaults to sqrt).
    pub tree: TreeConfig,
    /// Draw bootstrap samples (with replacement) per tree.
    pub bootstrap: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RandomForestConfig {
    fn default() -> Self {
        Self {
            n_trees: 100,
            tree: TreeConfig { max_features: MaxFeatures::Sqrt, ..Default::default() },
            bootstrap: true,
            seed: 0,
        }
    }
}

impl RandomForestConfig {
    /// The paper's §4.2 hyperparameters: 100 bootstrapped trees with
    /// `sqrt(d)` feature subsampling per split (the scikit-learn
    /// `RandomForestClassifier` defaults the paper trains with), seeded
    /// for reproducibility.
    pub fn for_paper(seed: u64) -> Self {
        Self { n_trees: 100, seed, ..Default::default() }
    }
}

/// A fitted Random Forest.
#[derive(Debug, Clone)]
pub struct RandomForest {
    config: RandomForestConfig,
    trees: Vec<DecisionTree>,
    n_classes: usize,
    n_features: usize,
}

impl RandomForest {
    /// Unfitted forest.
    pub fn new(config: RandomForestConfig) -> Self {
        assert!(config.n_trees >= 1, "a forest needs trees");
        Self { config, trees: Vec::new(), n_classes: 0, n_features: 0 }
    }

    /// Averaged class probabilities for one sample.
    pub fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        let mut acc = Vec::new();
        self.predict_proba_into(x, &mut acc);
        acc
    }

    /// Averaged class probabilities for one sample, written into a
    /// caller-provided buffer (resized to `n_classes`).
    ///
    /// Batch prediction loops reuse one buffer across samples instead of
    /// allocating a fresh `Vec` per call — see
    /// [`predict_proba_batch`](Self::predict_proba_batch) and the
    /// [`Classifier::predict_batch`] override.
    pub fn predict_proba_into(&self, x: &[f64], acc: &mut Vec<f64>) {
        assert!(!self.trees.is_empty(), "forest is not fitted");
        acc.clear();
        acc.resize(self.n_classes, 0.0);
        for t in &self.trees {
            for (a, p) in acc.iter_mut().zip(t.predict_proba(x)) {
                *a += p;
            }
        }
        let n = self.trees.len() as f64;
        for a in acc.iter_mut() {
            *a /= n;
        }
    }

    /// Averaged class probabilities for every sample, fanned out over
    /// `dtp-par` workers. Row order matches `xs` at any thread count.
    pub fn predict_proba_batch(&self, xs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        dtp_par::par_map("predict.forest_proba", xs, |_, x| self.predict_proba(x))
    }

    /// Number of fitted trees.
    pub fn tree_count(&self) -> usize {
        self.trees.len()
    }

    /// The fitted forest as an artifact document: `n_classes`,
    /// `n_features`, and per tree the flat node columns `feature` (`-1` on
    /// a leaf), `threshold`, `child` and `leaf`, and its raw `importances`.
    /// The training config is not stored: [`Classifier::fit`] is its only
    /// reader.
    pub fn to_value(&self) -> Value {
        let trees = self.trees.iter().map(|t| {
            let mut doc = t.tree.to_value();
            doc.insert("importances".into(), serde_json::to_value(&t.importances));
            Value::Object(doc)
        });
        let mut doc = Map::new();
        doc.insert("n_classes".into(), serde_json::to_value(&self.n_classes));
        doc.insert("n_features".into(), serde_json::to_value(&self.n_features));
        doc.insert("trees".into(), Value::Array(trees.collect()));
        Value::Object(doc)
    }

    /// Restore a forest written by [`to_value`](Self::to_value) that must
    /// have `n_classes` classes over `n_features` features. It predicts and
    /// reports importances bit for bit as the original did; its config is
    /// [`RandomForestConfig::default`] with `n_trees` set to its tree count,
    /// so refitting it trains with those defaults.
    ///
    /// # Errors
    /// When the header disagrees with `n_classes`/`n_features`, `trees` is
    /// empty, or any tree is malformed: every split must have `feature <
    /// n_features`, a finite threshold and children strictly after it, and
    /// every leaf a row of exactly `n_classes` finite values. A forest that
    /// loads can neither loop, index out of bounds nor predict a non-finite
    /// probability.
    pub fn from_value(doc: &Value, n_classes: usize, n_features: usize) -> Result<Self, String> {
        let doc = doc.as_object().ok_or("a forest must be an object")?;
        for (key, want) in [("n_classes", n_classes), ("n_features", n_features)] {
            match doc.get(key).and_then(Value::as_f64) {
                Some(got) if got == want as f64 => {}
                Some(got) => return Err(format!("`{key}` is {got}, expected {want}")),
                None => return Err(format!("missing number `{key}`")),
            }
        }
        let trees = doc.get("trees").and_then(Value::as_array).ok_or("missing array `trees`")?;
        if trees.is_empty() {
            return Err("a forest needs trees".into());
        }
        let config = RandomForestConfig { n_trees: trees.len(), ..Default::default() };
        let tree = |doc: &Value| {
            let doc = doc.as_object().ok_or("a tree must be an object")?;
            let importances = numbers(doc, "importances")?;
            if importances.len() != n_features || importances.iter().any(|v| !v.is_finite()) {
                return Err(format!("`importances` must be {n_features} finite values"));
            }
            let tree = FlatTree::from_value(doc, n_classes, n_features)?;
            Ok(DecisionTree { config: config.tree, tree, importances })
        };
        let trees = trees
            .iter()
            .enumerate()
            .map(|(i, t)| tree(t).map_err(|e| format!("tree {i}: {e}")))
            .collect::<Result<_, String>>()?;
        Ok(Self { config, trees, n_classes, n_features })
    }
}

thread_local! {
    /// Per-worker probability accumulator reused across a prediction batch.
    static PROBA_BUF: std::cell::RefCell<Vec<f64>> = const { std::cell::RefCell::new(Vec::new()) };
}

impl Classifier for RandomForest {
    fn fit(&mut self, x: &[Vec<f64>], y: &[usize], n_classes: usize) {
        let _span = dtp_obs::span!("train.forest_fit");
        assert!(!x.is_empty(), "cannot fit on no samples");
        assert_eq!(x.len(), y.len(), "features and labels must align");
        self.n_classes = n_classes;
        self.n_features = x[0].len();
        let n = x.len();
        // One independent RNG stream per tree, derived from (seed, tree
        // index): tree t draws the same bootstrap and the same split
        // subsets whether trees are fitted serially or in parallel.
        let base = self.config.seed ^ 0xf0f0_5757_0000_0001;
        let config = self.config;
        self.trees = dtp_par::par_map_index("train.forest_trees", config.n_trees, |t| {
            let mut rng = StdRng::seed_from_u64(dtp_par::task_seed(base, t as u64));
            let indices: Vec<usize> = if config.bootstrap {
                (0..n).map(|_| rng.random_range(0..n)).collect()
            } else {
                (0..n).collect()
            };
            let mut tree = DecisionTree::new(config.tree);
            tree.fit_indices(x, y, n_classes, &indices, &mut rng);
            tree
        });
    }

    fn predict(&self, x: &[f64]) -> usize {
        dtp_obs::counter!("predict.calls").inc();
        argmax(&self.predict_proba(x))
    }

    fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<usize> {
        dtp_obs::counter!("predict.calls").add(xs.len() as u64);
        dtp_par::par_map("predict.forest_batch", xs, |_, x| {
            PROBA_BUF.with(|buf| {
                let mut buf = buf.borrow_mut();
                self.predict_proba_into(x, &mut buf);
                argmax(&buf)
            })
        })
    }

    fn feature_importances(&self) -> Option<Vec<f64>> {
        if self.trees.is_empty() {
            return None;
        }
        let mut acc = vec![0.0; self.n_features];
        for t in &self.trees {
            for (a, v) in acc.iter_mut().zip(t.raw_importances()) {
                *a += v;
            }
        }
        Some(normalize(&acc))
    }

    fn name(&self) -> &'static str {
        "random-forest"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Noisy two-moons-ish data: class = (x0 + x1 > 10) with label noise on
    /// a band near the boundary.
    fn noisy(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let a: f64 = rng.random_range(0.0..10.0);
            let b: f64 = rng.random_range(0.0..10.0);
            let mut label = usize::from(a + b > 10.0);
            if (a + b - 10.0).abs() < 0.5 && rng.random_range(0.0..1.0) < 0.5 {
                label = 1 - label;
            }
            x.push(vec![a, b, rng.random_range(0.0..1.0)]); // third col = noise
            y.push(label);
        }
        (x, y)
    }

    #[test]
    fn forest_beats_chance_on_noisy_data() {
        let (x, y) = noisy(400, 1);
        let (xt, yt) = noisy(200, 2);
        let mut f = RandomForest::new(RandomForestConfig { n_trees: 40, ..Default::default() });
        f.fit(&x, &y, 2);
        let correct = xt.iter().zip(&yt).filter(|(s, &l)| f.predict(s) == l).count();
        let acc = correct as f64 / yt.len() as f64;
        assert!(acc > 0.85, "accuracy {acc}");
    }

    #[test]
    fn probabilities_are_a_distribution() {
        let (x, y) = noisy(100, 3);
        let mut f = RandomForest::new(RandomForestConfig { n_trees: 10, ..Default::default() });
        f.fit(&x, &y, 2);
        let p = f.predict_proba(&x[0]);
        assert_eq!(p.len(), 2);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn importances_ignore_noise_feature() {
        let (x, y) = noisy(400, 4);
        let mut f = RandomForest::new(RandomForestConfig { n_trees: 40, ..Default::default() });
        f.fit(&x, &y, 2);
        let imp = f.feature_importances().unwrap();
        assert!(imp[2] < imp[0] && imp[2] < imp[1], "noise column should rank last: {imp:?}");
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = noisy(150, 5);
        let mk = || {
            let mut f = RandomForest::new(RandomForestConfig {
                n_trees: 15,
                seed: 9,
                ..Default::default()
            });
            f.fit(&x, &y, 2);
            (0..x.len()).map(|i| f.predict(&x[i])).collect::<Vec<_>>()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn different_seeds_differ_somewhere() {
        let (x, y) = noisy(150, 6);
        let proba = |seed: u64| {
            let mut f =
                RandomForest::new(RandomForestConfig { n_trees: 5, seed, ..Default::default() });
            f.fit(&x, &y, 2);
            // Concatenate class-0 probabilities over every sample: different
            // bootstraps must disagree somewhere even if hard labels agree.
            x.iter().map(|s| f.predict_proba(s)[0]).collect::<Vec<_>>()
        };
        assert_ne!(proba(1), proba(2));
    }

    #[test]
    fn paper_config_matches_section_4_2() {
        let cfg = RandomForestConfig::for_paper(7);
        assert_eq!(cfg.n_trees, 100);
        assert_eq!(cfg.seed, 7);
        assert!(cfg.bootstrap);
        assert_eq!(cfg.tree.max_features, MaxFeatures::Sqrt);
        // The standalone-tree default intentionally differs (single CART
        // uses every feature); the forest must override it.
        assert_eq!(TreeConfig::default().max_features, MaxFeatures::All);
    }

    #[test]
    fn proba_into_reuses_buffer_and_matches_alloc_path() {
        let (x, y) = noisy(120, 8);
        let mut f = RandomForest::new(RandomForestConfig { n_trees: 9, ..Default::default() });
        f.fit(&x, &y, 2);
        let mut buf = Vec::new();
        for s in x.iter().take(20) {
            f.predict_proba_into(s, &mut buf);
            assert_eq!(buf, f.predict_proba(s));
        }
        // Batch APIs agree with the per-sample path, in order.
        let batch = f.predict_proba_batch(&x);
        let preds = Classifier::predict_batch(&f, &x);
        for (i, s) in x.iter().enumerate() {
            assert_eq!(batch[i], f.predict_proba(s));
            assert_eq!(preds[i], f.predict(s));
        }
    }

    #[test]
    fn fit_is_bitwise_identical_across_thread_counts() {
        let (x, y) = noisy(200, 9);
        let run = |threads: usize| {
            dtp_par::with_threads(threads, || {
                let mut f = RandomForest::new(RandomForestConfig {
                    n_trees: 12,
                    seed: 5,
                    ..Default::default()
                });
                f.fit(&x, &y, 2);
                let proba: Vec<f64> = x.iter().flat_map(|s| f.predict_proba(s)).collect();
                (proba, f.feature_importances().unwrap())
            })
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn tree_count_matches_config() {
        let (x, y) = noisy(50, 7);
        let mut f = RandomForest::new(RandomForestConfig { n_trees: 7, ..Default::default() });
        f.fit(&x, &y, 2);
        assert_eq!(f.tree_count(), 7);
    }
}

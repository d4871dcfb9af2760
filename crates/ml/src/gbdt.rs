//! Gradient-boosted decision trees with a softmax (multiclass) objective —
//! the XGBoost stand-in among the paper's five model families.
//!
//! Each boosting round fits one shallow regression tree per class to the
//! negative gradient of the cross-entropy loss, with Friedman's leaf-value
//! estimate and row subsampling.

use std::cmp::Ordering;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::flat::FlatTree;
use crate::tree::argmax;
use crate::Classifier;

/// GBDT hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct GbdtConfig {
    /// Boosting rounds (trees per class).
    pub rounds: usize,
    /// Shrinkage (learning rate).
    pub lr: f64,
    /// Maximum regression-tree depth.
    pub max_depth: usize,
    /// Minimum samples per leaf.
    pub min_leaf: usize,
    /// Row subsample fraction per tree.
    pub subsample: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GbdtConfig {
    fn default() -> Self {
        Self { rounds: 60, lr: 0.15, max_depth: 3, min_leaf: 5, subsample: 0.8, seed: 0 }
    }
}

/// A shallow regression tree fit to gradients: a [`FlatTree`] with one
/// value per leaf.
#[derive(Debug, Clone)]
struct RegTree {
    tree: FlatTree,
}

impl RegTree {
    /// Fit to residuals `r` with Hessian-like weights `h` over `idx`.
    fn fit(
        x: &[Vec<f64>],
        r: &[f64],
        h: &[f64],
        idx: &mut [usize],
        max_depth: usize,
        min_leaf: usize,
        k_factor: f64,
    ) -> Self {
        let mut t = Self { tree: FlatTree::with_root(1) };
        t.build(0, x, r, h, idx, 0, max_depth, min_leaf, k_factor);
        t
    }

    #[allow(clippy::too_many_arguments)]
    fn build(
        &mut self,
        node: usize,
        x: &[Vec<f64>],
        r: &[f64],
        h: &[f64],
        idx: &mut [usize],
        depth: usize,
        max_depth: usize,
        min_leaf: usize,
        k_factor: f64,
    ) {
        let n = idx.len() as f64;
        let sum_r: f64 = idx.iter().map(|&i| r[i]).sum();

        let leaf_value = |sr: f64, sh: f64| k_factor * sr / sh.max(1e-9);
        if depth >= max_depth || idx.len() < 2 * min_leaf {
            let sum_h: f64 = idx.iter().map(|&i| h[i]).sum();
            return self.tree.set_leaf(node, [leaf_value(sum_r, sum_h)]);
        }

        // Best split by squared-residual-sum gain.
        let d = x[0].len();
        let mut best: Option<(usize, f64, f64)> = None;
        let parent_score = sum_r * sum_r / n;
        let mut sorted: Vec<(f64, f64)> = Vec::with_capacity(idx.len());
        #[allow(clippy::needless_range_loop)]
        for f in 0..d {
            sorted.clear();
            sorted.extend(idx.iter().map(|&i| (x[i][f], r[i])));
            // NaN sorts last; finite values keep `partial_cmp` order (so
            // -0.0 and 0.0 tie and the stable sort keeps their row order).
            sorted.sort_by(|a, b| {
                a.0.is_nan()
                    .cmp(&b.0.is_nan())
                    .then_with(|| a.0.partial_cmp(&b.0).unwrap_or(Ordering::Equal))
            });
            let mut left_sum = 0.0;
            for i in 0..sorted.len() - 1 {
                left_sum += sorted[i].1;
                let (v, _) = sorted[i];
                let next_v = sorted[i + 1].0;
                // Not strictly greater also covers a NaN neighbour, so no
                // threshold sits next to a NaN.
                if next_v.partial_cmp(&v) != Some(Ordering::Greater) {
                    continue;
                }
                let nl = (i + 1) as f64;
                let nr = n - nl;
                if (i + 1) < min_leaf || (sorted.len() - i - 1) < min_leaf {
                    continue;
                }
                let right_sum = sum_r - left_sum;
                let gain = left_sum * left_sum / nl + right_sum * right_sum / nr - parent_score;
                if gain > best.map_or(1e-12, |b| b.2) {
                    best = Some((f, v, gain));
                }
            }
        }

        let Some((feature, threshold, _)) = best else {
            let sum_h: f64 = idx.iter().map(|&i| h[i]).sum();
            return self.tree.set_leaf(node, [leaf_value(sum_r, sum_h)]);
        };

        let mut split_point = 0;
        for i in 0..idx.len() {
            if x[idx[i]][feature] <= threshold {
                idx.swap(i, split_point);
                split_point += 1;
            }
        }
        let child = self.tree.set_split(node, feature, threshold);
        let (l, rgt) = idx.split_at_mut(split_point);
        self.build(child, x, r, h, l, depth + 1, max_depth, min_leaf, k_factor);
        self.build(child + 1, x, r, h, rgt, depth + 1, max_depth, min_leaf, k_factor);
    }

    fn predict(&self, sample: &[f64]) -> f64 {
        self.tree.leaf(sample)[0]
    }
}

/// A fitted gradient-boosted ensemble.
#[derive(Debug, Clone)]
pub struct Gbdt {
    config: GbdtConfig,
    /// `trees[round][class]`.
    trees: Vec<Vec<RegTree>>,
    n_classes: usize,
}

impl Gbdt {
    /// Unfitted model.
    pub fn new(config: GbdtConfig) -> Self {
        assert!(config.rounds >= 1, "need at least one round");
        assert!(config.lr > 0.0, "learning rate must be positive");
        assert!((0.0..=1.0).contains(&config.subsample) && config.subsample > 0.0);
        Self { config, trees: Vec::new(), n_classes: 0 }
    }

    /// Class scores (pre-softmax) for a sample.
    pub fn decision(&self, sample: &[f64]) -> Vec<f64> {
        let mut f = vec![0.0; self.n_classes];
        for round in &self.trees {
            for (k, t) in round.iter().enumerate() {
                f[k] += self.config.lr * t.predict(sample);
            }
        }
        f
    }
}

impl Classifier for Gbdt {
    fn fit(&mut self, x: &[Vec<f64>], y: &[usize], n_classes: usize) {
        assert!(!x.is_empty(), "cannot fit on no samples");
        assert_eq!(x.len(), y.len(), "features and labels must align");
        self.n_classes = n_classes;
        self.trees.clear();
        let n = x.len();
        let k_factor = (n_classes as f64 - 1.0) / n_classes as f64;
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0x6bd7_0000_0003);
        let mut scores = vec![vec![0.0f64; n_classes]; n];
        let mut r = vec![0.0f64; n];
        let mut h = vec![0.0f64; n];

        for _ in 0..self.config.rounds {
            let mut round_trees = Vec::with_capacity(n_classes);
            // Softmax over current scores.
            let probs: Vec<Vec<f64>> = scores
                .iter()
                .map(|s| {
                    let max = s.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                    let e: Vec<f64> = s.iter().map(|v| (v - max).exp()).collect();
                    let sum: f64 = e.iter().sum();
                    e.into_iter().map(|v| v / sum).collect()
                })
                .collect();
            // Row subsample shared across the round.
            let mut idx: Vec<usize> =
                (0..n).filter(|_| rng.random_range(0.0..1.0) < self.config.subsample).collect();
            if idx.len() < 2 * self.config.min_leaf {
                idx = (0..n).collect();
            }
            for k in 0..n_classes {
                for i in 0..n {
                    let p = probs[i][k];
                    r[i] = (if y[i] == k { 1.0 } else { 0.0 }) - p;
                    h[i] = (p * (1.0 - p)).max(1e-9);
                }
                let mut idx_k = idx.clone();
                let tree = RegTree::fit(
                    x,
                    &r,
                    &h,
                    &mut idx_k,
                    self.config.max_depth,
                    self.config.min_leaf,
                    k_factor,
                );
                for (i, s) in scores.iter_mut().enumerate() {
                    s[k] += self.config.lr * tree.predict(&x[i]);
                }
                round_trees.push(tree);
            }
            self.trees.push(round_trees);
        }
    }

    fn predict(&self, sample: &[f64]) -> usize {
        assert!(!self.trees.is_empty(), "gbdt is not fitted");
        argmax(&self.decision(sample))
    }

    fn name(&self) -> &'static str {
        "gbdt"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rings(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<usize>) {
        // Radius-based classes: not linearly separable.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let a: f64 = rng.random_range(-2.0..2.0);
            let b: f64 = rng.random_range(-2.0..2.0);
            let r = (a * a + b * b).sqrt();
            x.push(vec![a, b]);
            y.push(usize::from(r > 1.2));
        }
        (x, y)
    }

    #[test]
    fn fits_nonlinear_boundary() {
        let (x, y) = rings(400, 1);
        let (xt, yt) = rings(200, 2);
        let mut g = Gbdt::new(GbdtConfig { rounds: 40, ..Default::default() });
        g.fit(&x, &y, 2);
        let acc =
            xt.iter().zip(&yt).filter(|(s, &l)| g.predict(s) == l).count() as f64 / yt.len() as f64;
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn three_class_problem() {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..60 {
            let v = i as f64 / 10.0;
            x.push(vec![v]);
            y.push(if v < 2.0 {
                0
            } else if v < 4.0 {
                1
            } else {
                2
            });
        }
        let mut g = Gbdt::new(GbdtConfig { rounds: 30, ..Default::default() });
        g.fit(&x, &y, 3);
        assert_eq!(g.predict(&[1.0]), 0);
        assert_eq!(g.predict(&[3.0]), 1);
        assert_eq!(g.predict(&[5.5]), 2);
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = rings(100, 3);
        let fit = || {
            let mut g = Gbdt::new(GbdtConfig { rounds: 10, seed: 4, ..Default::default() });
            g.fit(&x, &y, 2);
            g.decision(&x[0])
        };
        assert_eq!(fit(), fit());
    }

    #[test]
    fn nan_features_fit_without_panicking_and_thresholds_stay_finite() {
        let (mut x, y) = rings(40, 6);
        x[5][0] = f64::NAN;
        let mut g = Gbdt::new(GbdtConfig { rounds: 10, min_leaf: 2, ..Default::default() });
        g.fit(&x, &y, 2);
        for tree in g.trees.iter().flatten() {
            let thresholds = crate::flat::numbers(&tree.tree.to_value(), "threshold").unwrap();
            assert!(thresholds.iter().all(|t| t.is_finite()), "{thresholds:?}");
        }
        assert!(g.decision(&x[5]).iter().all(|d| d.is_finite()));
    }

    #[test]
    fn more_rounds_do_not_hurt_train_fit() {
        let (x, y) = rings(200, 5);
        let train_acc = |rounds: usize| {
            let mut g = Gbdt::new(GbdtConfig { rounds, subsample: 1.0, ..Default::default() });
            g.fit(&x, &y, 2);
            x.iter().zip(&y).filter(|(s, &l)| g.predict(s) == l).count() as f64 / y.len() as f64
        };
        assert!(train_acc(50) >= train_acc(3) - 0.02);
    }
}

//! CART decision trees (Gini impurity) with histogram split-finding.
//!
//! The building block for [`crate::forest::RandomForest`]. Supports feature
//! subsampling per split (the forest's de-correlation mechanism) and
//! accumulates impurity-decrease feature importances, which Fig. 6 needs.
//!
//! **Split search.** Instead of re-sorting every candidate feature column
//! at every node (`O(n log n)` per node per feature), [`fit_indices`]
//! quantile-bins each column *once per tree* into at most
//! [`MAX_BINS`] = 256 bins ([`BinnedMatrix`]). A node's split search is
//! then a linear pass over its rows (accumulating per-bin class counts)
//! plus a sweep over the bins — `O(n + B·C)` per feature. When a column
//! has ≤ 256 distinct values in the training sample (every unit test and
//! most real feature columns), each distinct value gets its own bin and
//! the search is *exact*, choosing the same thresholds the sort-and-scan
//! search did; above that, thresholds snap to 256-quantile edges, the
//! standard histogram-GBDT approximation.
//!
//! [`fit_indices`]: DecisionTree::fit_indices

use rand::rngs::StdRng;
use rand::seq::SliceRandom;

use crate::flat::FlatTree;
use crate::Classifier;

/// How many features to consider per split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaxFeatures {
    /// Every feature (classic single CART).
    All,
    /// `ceil(sqrt(d))` — the Random Forest default.
    Sqrt,
    /// A fixed count (clamped to `d`).
    Count(usize),
}

impl MaxFeatures {
    fn resolve(&self, d: usize) -> usize {
        match self {
            MaxFeatures::All => d,
            MaxFeatures::Sqrt => (d as f64).sqrt().ceil() as usize,
            MaxFeatures::Count(k) => (*k).clamp(1, d),
        }
        .max(1)
    }
}

/// Tree growth limits.
#[derive(Debug, Clone, Copy)]
pub struct TreeConfig {
    /// Maximum depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum samples on each side of a split.
    pub min_samples_leaf: usize,
    /// Features considered per split.
    pub max_features: MaxFeatures,
}

impl Default for TreeConfig {
    fn default() -> Self {
        Self {
            max_depth: 18,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: MaxFeatures::All,
        }
    }
}

/// Cap on histogram bins per feature column.
pub const MAX_BINS: usize = 256;

/// Per-tree quantile binning of the feature matrix.
///
/// Built once per `fit_indices` call from the rows the tree trains on;
/// every node's split search then reads bin indices instead of sorting raw
/// values. `edges[f][b]` is the largest raw value assigned to bin `b`, so
/// `bin(f, i) <= b  ⟺  x[i][f] <= edges[f][b]` — a bin-space split is
/// exactly a raw-value threshold at a bin edge.
struct BinnedMatrix {
    /// Per feature: ascending raw upper-edge value of each bin.
    edges: Vec<Vec<f64>>,
    /// Bin index per `(feature, row)`, feature-major: `bins[f * n_rows + i]`.
    bins: Vec<u16>,
    n_rows: usize,
}

impl BinnedMatrix {
    /// Bin every column of `x` using edges computed from the rows selected
    /// by `indices` (with bootstrap repetition acting as quantile weights).
    fn build(x: &[Vec<f64>], indices: &[usize]) -> Self {
        let n_rows = x.len();
        let d = x[0].len();
        let mut edges = Vec::with_capacity(d);
        let mut bins = vec![0u16; d * n_rows];
        let mut vals: Vec<f64> = Vec::with_capacity(indices.len());
        for f in 0..d {
            vals.clear();
            vals.extend(indices.iter().map(|&i| x[i][f]));
            vals.sort_by(f64::total_cmp);
            let mut e: Vec<f64> = Vec::with_capacity(vals.len().min(MAX_BINS));
            if vals.len() <= MAX_BINS {
                for &v in &vals {
                    if e.last().is_none_or(|&last| v > last) {
                        e.push(v);
                    }
                }
            } else {
                for q in 1..=MAX_BINS {
                    let v = vals[q * vals.len() / MAX_BINS - 1];
                    if e.last().is_none_or(|&last| v > last) {
                        e.push(v);
                    }
                }
            }
            // Assign every row of `x` (rows outside `indices` clamp into
            // the last bin; they are never visited during training, and
            // prediction compares raw values, not bins).
            let last = e.len().saturating_sub(1);
            for (i, row) in x.iter().enumerate() {
                let b = e.partition_point(|&edge| edge < row[f]).min(last);
                bins[f * n_rows + i] = b as u16;
            }
            edges.push(e);
        }
        Self { edges, bins, n_rows }
    }

    #[inline]
    fn bin(&self, f: usize, row: usize) -> usize {
        self.bins[f * self.n_rows + row] as usize
    }

    fn n_bins(&self, f: usize) -> usize {
        self.edges[f].len()
    }
}

/// Reusable per-fit scratch buffers for the histogram split search.
struct SplitScratch {
    /// Per-bin class counts, `hist[b * n_classes + c]`.
    hist: Vec<f64>,
    /// Class counts left / right of the candidate boundary.
    left: Vec<f64>,
    right: Vec<f64>,
}

impl SplitScratch {
    fn new(n_classes: usize) -> Self {
        Self {
            hist: vec![0.0; MAX_BINS * n_classes],
            left: vec![0.0; n_classes],
            right: vec![0.0; n_classes],
        }
    }
}

/// A fitted CART classifier: a flat tree whose leaves hold class
/// probabilities.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    pub(crate) config: TreeConfig,
    pub(crate) tree: FlatTree,
    pub(crate) importances: Vec<f64>,
}

impl DecisionTree {
    /// Unfitted tree with the given limits.
    pub fn new(config: TreeConfig) -> Self {
        Self { config, tree: FlatTree::default(), importances: Vec::new() }
    }

    /// Fit on the rows of `x` selected by `indices` (with repetition allowed
    /// — bootstrap samples pass duplicated indices).
    pub fn fit_indices(
        &mut self,
        x: &[Vec<f64>],
        y: &[usize],
        n_classes: usize,
        indices: &[usize],
        rng: &mut StdRng,
    ) {
        assert!(!indices.is_empty(), "cannot fit a tree on no samples");
        assert_eq!(x.len(), y.len(), "features and labels must align");
        let d = x[0].len();
        self.tree = FlatTree::with_root(n_classes);
        self.importances = vec![0.0; d];
        let mut idx = indices.to_vec();
        let total = idx.len() as f64;
        let binned = BinnedMatrix::build(x, indices);
        let mut scratch = SplitScratch::new(n_classes);
        self.build(0, x, y, &mut idx, 0, total, rng, &binned, &mut scratch);
    }

    /// Class probabilities for one sample.
    pub fn predict_proba(&self, sample: &[f64]) -> &[f64] {
        assert!(self.tree.len() > 0, "tree is not fitted");
        self.tree.leaf(sample)
    }

    /// Raw (unnormalized) impurity-decrease importances.
    pub fn raw_importances(&self) -> &[f64] {
        &self.importances
    }

    /// Number of nodes in the fitted tree.
    pub fn node_count(&self) -> usize {
        self.tree.len()
    }

    fn class_counts(&self, y: &[usize], idx: &[usize]) -> Vec<f64> {
        let mut counts = vec![0.0; self.tree.width()];
        for &i in idx {
            counts[y[i]] += 1.0;
        }
        counts
    }

    /// Build the subtree over `idx` (which it reorders) into `node`.
    #[allow(clippy::too_many_arguments)]
    fn build(
        &mut self,
        node: usize,
        x: &[Vec<f64>],
        y: &[usize],
        idx: &mut [usize],
        depth: usize,
        total: f64,
        rng: &mut StdRng,
        binned: &BinnedMatrix,
        scratch: &mut SplitScratch,
    ) {
        let counts = self.class_counts(y, idx);
        let n = idx.len() as f64;
        let node_gini = gini(&counts, n);

        if depth >= self.config.max_depth
            || idx.len() < self.config.min_samples_split
            || node_gini <= 1e-12
        {
            return self.tree.set_leaf(node, counts.iter().map(|c| c / n));
        }

        // Feature subset for this split.
        let d = x[0].len();
        let k = self.config.max_features.resolve(d);
        let mut feats: Vec<usize> = (0..d).collect();
        feats.shuffle(rng);
        feats.truncate(k);

        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, decrease)
        let nc = self.tree.width();
        let min_leaf = self.config.min_samples_leaf.max(1) as f64;
        for &f in &feats {
            let nb = binned.n_bins(f);
            if nb < 2 {
                continue; // constant column in the training sample
            }
            // One linear pass over the node's rows builds per-bin class
            // counts; candidate thresholds are then bin edges.
            let hist = &mut scratch.hist[..nb * nc];
            hist.fill(0.0);
            for &i in idx.iter() {
                hist[binned.bin(f, i) * nc + y[i]] += 1.0;
            }
            scratch.left.fill(0.0);
            scratch.right.copy_from_slice(&counts);
            let mut nl = 0.0;
            for b in 0..nb - 1 {
                let row = &hist[b * nc..(b + 1) * nc];
                let bin_total: f64 = row.iter().sum();
                if bin_total == 0.0 {
                    continue; // no node rows here: same boundary as before
                }
                for (c, &count) in row.iter().enumerate() {
                    scratch.left[c] += count;
                    scratch.right[c] -= count;
                }
                nl += bin_total;
                let nr = n - nl;
                if nl < min_leaf || nr < min_leaf {
                    continue;
                }
                let decrease = node_gini
                    - (nl / n) * gini(&scratch.left, nl)
                    - (nr / n) * gini(&scratch.right, nr);
                if decrease > best.map_or(1e-12, |b| b.2) {
                    best = Some((f, binned.edges[f][b], decrease));
                }
            }
        }

        let Some((feature, threshold, decrease)) = best else {
            return self.tree.set_leaf(node, counts.iter().map(|c| c / n));
        };
        self.importances[feature] += (n / total) * decrease;

        // Partition in place.
        let mut split_point = 0;
        for i in 0..idx.len() {
            if x[idx[i]][feature] <= threshold {
                idx.swap(i, split_point);
                split_point += 1;
            }
        }
        debug_assert!(split_point > 0 && split_point < idx.len());

        // Reserve both child slots, then build left before right.
        let child = self.tree.set_split(node, feature, threshold);
        let (l, r) = idx.split_at_mut(split_point);
        self.build(child, x, y, l, depth + 1, total, rng, binned, scratch);
        self.build(child + 1, x, y, r, depth + 1, total, rng, binned, scratch);
    }
}

impl Classifier for DecisionTree {
    fn fit(&mut self, x: &[Vec<f64>], y: &[usize], n_classes: usize) {
        let indices: Vec<usize> = (0..x.len()).collect();
        // Deterministic internal RNG: feature shuffling only matters when
        // subsampling, and a fixed seed keeps single-tree fits reproducible.
        let mut rng = <StdRng as rand::SeedableRng>::seed_from_u64(0x0000_7e33_0000_abcd);
        self.fit_indices(x, y, n_classes, &indices, &mut rng);
    }

    fn predict(&self, x: &[f64]) -> usize {
        argmax(self.predict_proba(x))
    }

    fn feature_importances(&self) -> Option<Vec<f64>> {
        Some(normalize(&self.importances))
    }

    fn name(&self) -> &'static str {
        "decision-tree"
    }
}

pub(crate) fn gini(counts: &[f64], n: f64) -> f64 {
    if n <= 0.0 {
        return 0.0;
    }
    1.0 - counts.iter().map(|c| (c / n) * (c / n)).sum::<f64>()
}

pub(crate) fn argmax(xs: &[f64]) -> usize {
    let mut best = 0;
    for (i, v) in xs.iter().enumerate() {
        if *v > xs[best] {
            best = i;
        }
    }
    best
}

pub(crate) fn normalize(xs: &[f64]) -> Vec<f64> {
    let total: f64 = xs.iter().sum();
    if total <= 0.0 {
        return vec![0.0; xs.len()];
    }
    xs.iter().map(|v| v / total).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Linearly separable 2-class data on feature 0; feature 1 is noise.
    fn toy() -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..40 {
            let v = i as f64;
            x.push(vec![v, (i % 7) as f64]);
            y.push(usize::from(v >= 20.0));
        }
        (x, y)
    }

    #[test]
    fn learns_a_threshold() {
        let (x, y) = toy();
        let mut t = DecisionTree::new(TreeConfig::default());
        t.fit(&x, &y, 2);
        assert_eq!(t.predict(&[5.0, 0.0]), 0);
        assert_eq!(t.predict(&[35.0, 0.0]), 1);
        // Perfect split means exactly 3 nodes.
        assert_eq!(t.node_count(), 3);
    }

    #[test]
    fn importance_concentrates_on_signal_feature() {
        let (x, y) = toy();
        let mut t = DecisionTree::new(TreeConfig::default());
        t.fit(&x, &y, 2);
        let imp = t.feature_importances().unwrap();
        assert!(imp[0] > 0.9, "importances {imp:?}");
        let sum: f64 = imp.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn depth_limit_respected() {
        let (x, y) = toy();
        let mut t = DecisionTree::new(TreeConfig { max_depth: 0, ..Default::default() });
        t.fit(&x, &y, 2);
        assert_eq!(t.node_count(), 1, "depth 0 means a single leaf");
        let p = t.predict_proba(&[0.0, 0.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn min_samples_leaf_respected() {
        let (x, y) = toy();
        let mut t = DecisionTree::new(TreeConfig { min_samples_leaf: 25, ..Default::default() });
        t.fit(&x, &y, 2);
        // No split can leave 25 on both sides of 40 samples except dead center;
        // 20/20 violates min 25, so the tree must be a stump.
        assert_eq!(t.node_count(), 1);
    }

    #[test]
    fn multiclass_probabilities_sum_to_one() {
        let x =
            vec![vec![0.0], vec![1.0], vec![2.0], vec![10.0], vec![11.0], vec![20.0], vec![21.0]];
        let y = vec![0, 0, 0, 1, 1, 2, 2];
        let mut t = DecisionTree::new(TreeConfig::default());
        t.fit(&x, &y, 3);
        for s in &x {
            let p = t.predict_proba(s);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        }
        assert_eq!(t.predict(&[0.5]), 0);
        assert_eq!(t.predict(&[10.5]), 1);
        assert_eq!(t.predict(&[25.0]), 2);
    }

    #[test]
    fn constant_features_yield_single_leaf() {
        let x = vec![vec![1.0], vec![1.0], vec![1.0], vec![1.0]];
        let y = vec![0, 1, 0, 1];
        let mut t = DecisionTree::new(TreeConfig::default());
        t.fit(&x, &y, 2);
        assert_eq!(t.node_count(), 1);
        let p = t.predict_proba(&[1.0]);
        assert!((p[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn duplicated_bootstrap_indices_work() {
        let (x, y) = toy();
        let mut t = DecisionTree::new(TreeConfig::default());
        let mut rng = <StdRng as rand::SeedableRng>::seed_from_u64(1);
        let indices: Vec<usize> = (0..40).map(|i| i % 10).collect(); // heavy repetition
        t.fit_indices(&x, &y, 2, &indices, &mut rng);
        // All duplicated samples are class 0 (v < 20), so everything is 0.
        assert_eq!(t.predict(&[3.0, 0.0]), 0);
    }
}

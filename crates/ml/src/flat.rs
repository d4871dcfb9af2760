//! The one tree layout in `dtp-ml`, and the model artifact's tree codec.
//!
//! Every fitted tree — CART ([`crate::tree::DecisionTree`]) and GBDT's
//! regression trees — is a [`FlatTree`]: one contiguous array of 16-byte
//! nodes plus one pool of leaf values. A split's children are `child` and
//! `child + 1`; a leaf (marked by the `LEAF` feature sentinel) points at
//! row `child` of the pool, which holds `width` values per row (the class
//! probabilities for CART, one value for GBDT). Prediction is one walk,
//! [`FlatTree::leaf`].
//!
//! The same arrays are the model artifact: [`FlatTree::to_value`] writes
//! them as the columns `feature` (`-1` on a leaf), `threshold`, `child` and
//! `leaf`, and [`FlatTree::from_value`] reads them back, refusing anything
//! a walk could not finish on (see its errors).

use serde_json::{Map, Value};

/// Feature sentinel marking a leaf node.
const LEAF: u32 = u32::MAX;

/// One tree node: a split on `feature` at `threshold` with children
/// `child` and `child + 1`, or (`feature == LEAF`) a leaf whose values are
/// row `child` of the pool.
#[derive(Debug, Clone, Copy)]
struct Node {
    threshold: f64,
    feature: u32,
    child: u32,
}

/// A slot reserved for a node that is filled in later.
const PLACEHOLDER: Node = Node { threshold: 0.0, feature: LEAF, child: 0 };

/// A tree as one flat node array and one leaf-value pool.
#[derive(Debug, Clone, Default)]
pub(crate) struct FlatTree {
    nodes: Vec<Node>,
    leaves: Vec<f64>,
    width: usize,
}

impl FlatTree {
    /// A tree with an unfilled root (node 0) and `width` values per leaf.
    /// Fill it top-down with [`set_leaf`](Self::set_leaf) and
    /// [`set_split`](Self::set_split).
    pub(crate) fn with_root(width: usize) -> Self {
        Self { nodes: vec![PLACEHOLDER], leaves: Vec::new(), width }
    }

    /// Values per leaf.
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// Number of nodes.
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Make `node` a leaf holding `values` (exactly `width` of them).
    pub(crate) fn set_leaf(&mut self, node: usize, values: impl IntoIterator<Item = f64>) {
        let row = self.leaves.len() / self.width;
        self.leaves.extend(values);
        debug_assert_eq!(self.leaves.len(), (row + 1) * self.width, "leaf row width");
        self.nodes[node] = Node { threshold: 0.0, feature: LEAF, child: row as u32 };
    }

    /// Make `node` a split and reserve its two children, returning the
    /// left child's index (the right one is the next).
    pub(crate) fn set_split(&mut self, node: usize, feature: usize, threshold: f64) -> usize {
        let child = self.nodes.len();
        self.nodes.extend([PLACEHOLDER; 2]);
        self.nodes[node] = Node { threshold, feature: feature as u32, child: child as u32 };
        child
    }

    /// The leaf values `x` lands on: `x[feature] <= threshold` goes left,
    /// anything else (NaN included) goes right.
    pub(crate) fn leaf(&self, x: &[f64]) -> &[f64] {
        let mut i = 0;
        loop {
            let n = self.nodes[i];
            if n.feature == LEAF {
                let start = n.child as usize * self.width;
                return &self.leaves[start..start + self.width];
            }
            let left = x[n.feature as usize] <= n.threshold;
            i = n.child as usize + usize::from(!left);
        }
    }

    /// The artifact columns of this tree.
    pub(crate) fn to_value(&self) -> Map {
        let column = |f: fn(&Node) -> f64| self.nodes.iter().map(f).collect::<Vec<_>>();
        let feature = column(|n| if n.feature == LEAF { -1.0 } else { f64::from(n.feature) });
        let mut doc = Map::new();
        doc.insert("feature".into(), serde_json::to_value(&feature));
        doc.insert("threshold".into(), serde_json::to_value(&column(|n| n.threshold)));
        doc.insert("child".into(), serde_json::to_value(&column(|n| f64::from(n.child))));
        doc.insert("leaf".into(), serde_json::to_value(&self.leaves));
        doc
    }

    /// Read a tree written by [`to_value`](Self::to_value), expecting
    /// `width` values per leaf and features below `n_features`.
    ///
    /// # Errors
    /// Unless every walk ends on a finite leaf row: the three node columns
    /// must be non-empty and of one length; every split must have
    /// `feature < n_features`, a finite threshold and
    /// `i < child && child + 1 < len` (so the tree is acyclic); every leaf
    /// must name a row of the pool; the pool must hold exactly `width`
    /// finite values per leaf.
    pub(crate) fn from_value(doc: &Map, width: usize, n_features: usize) -> Result<Self, String> {
        let feature = numbers(doc, "feature")?;
        let threshold = numbers(doc, "threshold")?;
        let child = numbers(doc, "child")?;
        let leaves = numbers(doc, "leaf")?;
        let len = feature.len();
        if len == 0 || threshold.len() != len || child.len() != len {
            return Err("tree node columns must be non-empty and of one length".into());
        }
        let n_leaves = feature.iter().filter(|&&f| f == -1.0).count();
        if Some(leaves.len()) != n_leaves.checked_mul(width) {
            return Err(format!(
                "leaf pool holds {} values, not {n_leaves} × {width}",
                leaves.len()
            ));
        }
        if let Some(v) = leaves.iter().find(|v| !v.is_finite()) {
            return Err(format!("non-finite leaf value {v}"));
        }
        let mut nodes = Vec::with_capacity(len);
        for (i, ((&f, &threshold), &c)) in feature.iter().zip(&threshold).zip(&child).enumerate() {
            let c = index(c).ok_or_else(|| format!("node {i}: bad child {c}"))?;
            let node = if f == -1.0 {
                if c >= n_leaves {
                    return Err(format!("node {i}: leaf row {c} outside a pool of {n_leaves}"));
                }
                Node { threshold, feature: LEAF, child: c as u32 }
            } else {
                let f = index(f)
                    .filter(|&f| f < n_features)
                    .ok_or_else(|| format!("node {i}: feature {f} outside 0..{n_features}"))?;
                if !threshold.is_finite() {
                    return Err(format!("node {i}: non-finite threshold {threshold}"));
                }
                if !(i < c && c + 1 < len) {
                    return Err(format!(
                        "node {i}: children {c}, {} not after it in 0..{len}",
                        c + 1
                    ));
                }
                Node { threshold, feature: f as u32, child: c as u32 }
            };
            nodes.push(node);
        }
        Ok(Self { nodes, leaves, width })
    }
}

/// The array of numbers under `key`.
pub(crate) fn numbers(doc: &Map, key: &str) -> Result<Vec<f64>, String> {
    let items = doc.get(key).and_then(Value::as_array);
    let items = items.ok_or_else(|| format!("missing array `{key}`"))?;
    items.iter().map(|v| v.as_f64().ok_or_else(|| format!("`{key}` holds a non-number"))).collect()
}

/// `v` as a node index: an integer in `0..=u32::MAX`.
fn index(v: f64) -> Option<usize> {
    ((0.0..=f64::from(u32::MAX)).contains(&v) && v.fract() == 0.0).then_some(v as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `x[0] <= 1.5 ? [1, 0] : (x[1] <= 0 ? [0, 1] : [0.5, 0.5])`.
    fn sample() -> FlatTree {
        let mut t = FlatTree::with_root(2);
        let c = t.set_split(0, 0, 1.5);
        t.set_leaf(c, [1.0, 0.0]);
        let g = t.set_split(c + 1, 1, 0.0);
        t.set_leaf(g, [0.0, 1.0]);
        t.set_leaf(g + 1, [0.5, 0.5]);
        t
    }

    #[test]
    fn walk_sends_le_left_and_nan_right() {
        let t = sample();
        assert_eq!(t.len(), 5);
        assert_eq!(t.leaf(&[1.5, 9.0]), [1.0, 0.0]);
        assert_eq!(t.leaf(&[2.0, 0.0]), [0.0, 1.0]);
        assert_eq!(t.leaf(&[2.0, 0.1]), [0.5, 0.5]);
        assert_eq!(t.leaf(&[f64::NAN, f64::NAN]), [0.5, 0.5]);
        assert_eq!(std::mem::size_of::<Node>(), 16);
    }
}

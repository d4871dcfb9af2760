//! # dtp-ml — from-scratch supervised learning
//!
//! The paper trains scikit-learn models — "SVM, k-NN, XGBoost, Random
//! Forest, and Multilayer Perceptron" — and reports Random Forest results
//! "as it yielded the highest accuracy" (§4.2), evaluated with 5-fold cross
//! validation. The Rust ML ecosystem is thin, so this crate implements the
//! same algorithm families natively:
//!
//! * [`tree`] / [`forest`] — CART decision trees (Gini) and bagged Random
//!   Forests with impurity-based feature importances (needed for Fig. 6),
//! * [`knn`] — k-nearest neighbours,
//! * [`svm`] — linear one-vs-rest SVM trained by SGD on the hinge loss,
//! * [`mlp`] — multilayer perceptron (ReLU hidden layers, softmax output),
//! * [`gbdt`] — gradient-boosted regression trees with a softmax objective
//!   (the XGBoost stand-in),
//! * [`cv`] — stratified k-fold cross-validation,
//! * [`metrics`] — confusion matrices, accuracy, per-class precision/recall,
//! * [`scale`] — standardization for the distance/gradient-based models.
//!
//! Everything is deterministic given a seed and operates on plain
//! `Vec<Vec<f64>>` feature matrices via [`dataset::Dataset`].

pub mod cv;
pub mod dataset;
mod flat;
pub mod forest;
pub mod gbdt;
pub mod knn;
pub mod metrics;
pub mod mlp;
pub mod scale;
pub mod svm;
pub mod tree;

pub use cv::{cross_validate, stratified_kfold, CvResult};
pub use dataset::Dataset;
pub use forest::{RandomForest, RandomForestConfig};
pub use gbdt::{Gbdt, GbdtConfig};
pub use knn::KnnClassifier;
pub use metrics::{ClassReport, ConfusionMatrix};
pub use mlp::{Mlp, MlpConfig};
pub use scale::StandardScaler;
pub use svm::{LinearSvm, LinearSvmConfig};
pub use tree::{DecisionTree, MaxFeatures, TreeConfig};

/// A trainable multi-class classifier over dense `f64` features.
pub trait Classifier {
    /// Fit on a feature matrix and integer labels in `0..n_classes`.
    fn fit(&mut self, x: &[Vec<f64>], y: &[usize], n_classes: usize);

    /// Predict the class of one sample.
    fn predict(&self, x: &[f64]) -> usize;

    /// Predict a batch (default: per-sample loop).
    fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<usize> {
        xs.iter().map(|x| self.predict(x)).collect()
    }

    /// Normalized feature importances, when the model exposes them.
    fn feature_importances(&self) -> Option<Vec<f64>> {
        None
    }

    /// Model name for result tables.
    fn name(&self) -> &'static str;
}

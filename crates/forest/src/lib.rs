//! Random-forest classifier for the on-line batching-policy selection of
//! §5.
//!
//! The paper trains a random forest over >400 batched-GEMM samples,
//! using the average M, N, K and the batch size B as features and the
//! best-performing batching heuristic as the label. Each decision tree
//! is a weak learner; a prediction walks every tree to a leaf holding a
//! per-class probability vector, sums the vectors, and picks the class
//! with the maximal probability — exactly the procedure described in §5.
//!
//! The implementation is a from-scratch CART (Gini impurity, axis
//! -aligned splits) with bootstrap bagging and per-split feature
//! subsampling. It is deliberately generic: features are `&[f64]`,
//! labels are small class indices, so other crates can reuse it.

pub mod codec;
pub mod forest;
pub mod tree;

pub use forest::{ForestConfig, RandomForest};
pub use tree::DecisionTree;

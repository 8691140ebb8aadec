//! Bootstrap-bagged random forest.

use crate::tree::{DecisionTree, TreeConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Forest hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct ForestConfig {
    /// Number of trees (weak learners).
    pub n_trees: usize,
    /// Maximum depth of each tree — the paper quotes 7–8 comparisons on
    /// average per query, i.e. shallow trees.
    pub max_depth: usize,
    /// Minimum samples required to split a node.
    pub min_samples_split: usize,
    /// Features considered per split (`None` = sqrt of feature count).
    pub features_per_split: Option<usize>,
    /// RNG seed for bagging and feature subsampling (deterministic
    /// training).
    pub seed: u64,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            n_trees: 16,
            max_depth: 8,
            min_samples_split: 4,
            features_per_split: None,
            seed: 0x5eed,
        }
    }
}

/// A trained random forest classifier.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomForest {
    pub(crate) trees: Vec<DecisionTree>,
    pub(crate) n_classes: usize,
}

impl RandomForest {
    /// Train on `samples`/`labels` (labels `< n_classes`). Each tree
    /// fits a bootstrap resample of the data and subsamples features at
    /// every split.
    pub fn fit(
        samples: &[Vec<f64>],
        labels: &[usize],
        n_classes: usize,
        cfg: &ForestConfig,
    ) -> Self {
        assert!(!samples.is_empty(), "empty training set");
        assert_eq!(samples.len(), labels.len(), "one label per sample");
        assert!(n_classes >= 2, "need at least two classes");
        let n_features = samples[0].len();
        let per_split = cfg
            .features_per_split
            .unwrap_or_else(|| (n_features as f64).sqrt().ceil() as usize)
            .clamp(1, n_features);
        let tree_cfg = TreeConfig {
            max_depth: cfg.max_depth,
            min_samples_split: cfg.min_samples_split,
            features_per_split: Some(per_split),
        };
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let trees = (0..cfg.n_trees)
            .map(|_| {
                let idx: Vec<usize> =
                    (0..samples.len()).map(|_| rng.random_range(0..samples.len())).collect();
                DecisionTree::fit(samples, labels, &idx, n_classes, &tree_cfg, &mut rng)
            })
            .collect();
        RandomForest { trees, n_classes }
    }

    /// Summed per-class probabilities over all trees (§5: "obtain the
    /// arrived leaf nodes of all decision trees and sum them up").
    pub fn predict_probs(&self, features: &[f64]) -> Vec<f64> {
        let mut acc = vec![0.0f64; self.n_classes];
        for tree in &self.trees {
            for (a, p) in acc.iter_mut().zip(tree.predict_probs(features)) {
                *a += p;
            }
        }
        let total: f64 = acc.iter().sum();
        if total > 0.0 {
            for a in &mut acc {
                *a /= total;
            }
        }
        acc
    }

    /// Class with maximal summed probability.
    pub fn predict(&self, features: &[f64]) -> usize {
        self.predict_probs(features)
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("non-empty class vector")
    }

    /// Training-set accuracy (sanity metric; the benches report held-out
    /// accuracy separately).
    pub fn accuracy(&self, samples: &[Vec<f64>], labels: &[usize]) -> f64 {
        let correct = samples.iter().zip(labels).filter(|(s, &l)| self.predict(s) == l).count();
        correct as f64 / samples.len().max(1) as f64
    }

    /// Average comparisons per prediction across trees (the paper's
    /// "7–8 comparisons on average" overhead claim).
    pub fn avg_path_depth(&self, features: &[f64]) -> f64 {
        if self.trees.is_empty() {
            return 0.0;
        }
        let total: usize = self.trees.iter().map(|t| t.path_depth(features)).sum();
        total as f64 / self.trees.len() as f64
    }

    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Total nodes across every tree (splits + leaves) — the forest's
    /// memory-footprint proxy.
    pub fn total_nodes(&self) -> usize {
        self.trees.iter().map(|t| t.n_nodes()).sum()
    }

    /// Deepest leaf of any tree, in comparisons from the root.
    pub fn max_depth(&self) -> usize {
        self.trees.iter().map(|t| t.max_depth()).max().unwrap_or(0)
    }

    /// Leaf-depth histogram over every tree: `hist[d]` = number of
    /// leaves at depth `d`, forest-wide. Length is `max_depth() + 1`
    /// (empty for an empty forest).
    pub fn depth_histogram(&self) -> Vec<usize> {
        let mut hist = Vec::new();
        for tree in &self.trees {
            tree.leaf_depth_histogram_into(&mut hist);
        }
        hist
    }

    /// How many split nodes test each feature, forest-wide. The result
    /// has at least `n_features` entries (zeros for never-split
    /// features), longer only if a tree references a higher index.
    pub fn feature_split_counts(&self, n_features: usize) -> Vec<usize> {
        let mut counts = vec![0usize; n_features];
        for tree in &self.trees {
            tree.feature_split_counts_into(&mut counts);
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic task mimicking the selector's: class 1 when K is
    /// small and B is large (batch deeply), class 0 otherwise.
    fn synthetic(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut samples = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let m = rng.random_range(16.0..512.0);
            let nn = rng.random_range(16.0..512.0);
            let k = rng.random_range(16.0..1024.0);
            let b = rng.random_range(4.0..32.0);
            samples.push(vec![m, nn, k, b]);
            labels.push(usize::from(k < 128.0 && b > 8.0));
        }
        (samples, labels)
    }

    #[test]
    fn forest_learns_the_synthetic_rule() {
        let (samples, labels) = synthetic(400, 1);
        let forest = RandomForest::fit(&samples, &labels, 2, &ForestConfig::default());
        assert!(forest.accuracy(&samples, &labels) > 0.95);
        // Held-out generalisation.
        let (test_s, test_l) = synthetic(200, 2);
        assert!(forest.accuracy(&test_s, &test_l) > 0.85);
    }

    #[test]
    fn training_is_deterministic_for_a_seed() {
        let (samples, labels) = synthetic(100, 3);
        let a = RandomForest::fit(&samples, &labels, 2, &ForestConfig::default());
        let b = RandomForest::fit(&samples, &labels, 2, &ForestConfig::default());
        assert_eq!(a, b);
        let c = RandomForest::fit(
            &samples,
            &labels,
            2,
            &ForestConfig { seed: 99, ..ForestConfig::default() },
        );
        assert_ne!(a, c);
    }

    #[test]
    fn probabilities_are_normalised() {
        let (samples, labels) = synthetic(100, 4);
        let forest = RandomForest::fit(&samples, &labels, 2, &ForestConfig::default());
        let p = forest.predict_probs(&samples[0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn path_depth_is_shallow() {
        // The paper's selection overhead claim: ~7-8 comparisons.
        let (samples, labels) = synthetic(400, 5);
        let forest = RandomForest::fit(&samples, &labels, 2, &ForestConfig::default());
        let avg = forest.avg_path_depth(&samples[0]);
        assert!(avg <= 8.0, "avg path depth {avg}");
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn empty_training_panics() {
        let _ = RandomForest::fit(&[], &[], 2, &ForestConfig::default());
    }

    #[test]
    fn introspection_is_consistent_with_structure() {
        let (samples, labels) = synthetic(400, 21);
        let forest = RandomForest::fit(&samples, &labels, 2, &ForestConfig::default());
        let hist = forest.depth_histogram();
        // Histogram length is max depth + 1, bounded by the config.
        assert_eq!(hist.len(), forest.max_depth() + 1);
        assert!(forest.max_depth() <= ForestConfig::default().max_depth);
        // Leaves = splits + trees in a binary arena: every tree has
        // exactly one more leaf than split nodes.
        let leaves: usize = hist.iter().sum();
        let splits: usize = forest.feature_split_counts(4).iter().sum();
        assert_eq!(leaves, splits + forest.n_trees());
        assert_eq!(forest.total_nodes(), leaves + splits);
        // The synthetic rule only tests K (2) and B (3); those features
        // should attract more splits than M/N combined.
        let c = forest.feature_split_counts(4);
        assert_eq!(c.len(), 4);
        assert!(c[2] + c[3] > c[0] + c[1], "split counts {c:?}");
    }

    #[test]
    fn single_leaf_forest_has_depth_zero() {
        let samples = vec![vec![1.0, 2.0]; 8];
        let labels = vec![1usize; 8];
        let forest = RandomForest::fit(&samples, &labels, 2, &ForestConfig::default());
        assert_eq!(forest.max_depth(), 0);
        assert_eq!(forest.depth_histogram(), vec![forest.n_trees()]);
        assert_eq!(forest.feature_split_counts(2), vec![0, 0]);
    }
}

//! CART decision tree with Gini-impurity splits.

use rand::rngs::StdRng;
use rand::RngExt;

/// One node of a decision tree, stored in a flat arena.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// Internal node: go left when `features[feature] <= threshold`.
    Split { feature: usize, threshold: f64, left: usize, right: usize },
    /// Leaf: class probability vector (sums to 1 unless empty).
    Leaf { probs: Vec<f64> },
}

/// A single CART decision tree.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    n_classes: usize,
}

/// Training hyper-parameters for one tree.
#[derive(Debug, Clone, Copy)]
pub struct TreeConfig {
    pub max_depth: usize,
    pub min_samples_split: usize,
    /// Features considered per split (`None` = all) — the random-forest
    /// feature subsampling hook.
    pub features_per_split: Option<usize>,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig { max_depth: 8, min_samples_split: 4, features_per_split: None }
    }
}

fn gini(counts: &[usize]) -> f64 {
    let total: usize = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let t = total as f64;
    1.0 - counts.iter().map(|&c| (c as f64 / t).powi(2)).sum::<f64>()
}

fn class_counts(labels: &[usize], idx: &[usize], n_classes: usize) -> Vec<usize> {
    let mut counts = vec![0usize; n_classes];
    for &i in idx {
        counts[labels[i]] += 1;
    }
    counts
}

impl DecisionTree {
    /// Fit a tree on `samples` (rows of equal width) and `labels`
    /// (class indices `< n_classes`), restricted to the rows in `idx`
    /// (the bootstrap sample). `rng` drives feature subsampling.
    pub fn fit(
        samples: &[Vec<f64>],
        labels: &[usize],
        idx: &[usize],
        n_classes: usize,
        cfg: &TreeConfig,
        rng: &mut StdRng,
    ) -> Self {
        assert_eq!(samples.len(), labels.len(), "one label per sample");
        assert!(!idx.is_empty(), "cannot fit on an empty sample");
        assert!(labels.iter().all(|&l| l < n_classes), "label out of range");
        let mut tree = DecisionTree { nodes: Vec::new(), n_classes };
        tree.build(samples, labels, idx, 0, cfg, rng);
        tree
    }

    fn leaf(&mut self, counts: &[usize]) -> usize {
        let total: usize = counts.iter().sum();
        let probs = if total == 0 {
            vec![1.0 / self.n_classes as f64; self.n_classes]
        } else {
            counts.iter().map(|&c| c as f64 / total as f64).collect()
        };
        self.nodes.push(Node::Leaf { probs });
        self.nodes.len() - 1
    }

    fn build(
        &mut self,
        samples: &[Vec<f64>],
        labels: &[usize],
        idx: &[usize],
        depth: usize,
        cfg: &TreeConfig,
        rng: &mut StdRng,
    ) -> usize {
        let counts = class_counts(labels, idx, self.n_classes);
        let impure = gini(&counts);
        if depth >= cfg.max_depth || idx.len() < cfg.min_samples_split || impure == 0.0 {
            return self.leaf(&counts);
        }

        let n_features = samples[0].len();
        let k = cfg.features_per_split.unwrap_or(n_features).clamp(1, n_features);
        // Sample k distinct feature indices.
        let mut feats: Vec<usize> = (0..n_features).collect();
        for i in 0..k {
            let j = rng.random_range(i..n_features);
            feats.swap(i, j);
        }
        let feats = &feats[..k];

        // Best (feature, threshold) by weighted-Gini reduction, scanning
        // midpoints between consecutive sorted distinct values.
        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, score)
        for &f in feats {
            let mut order: Vec<usize> = idx.to_vec();
            order.sort_by(|&a, &b| samples[a][f].total_cmp(&samples[b][f]));
            let mut left = vec![0usize; self.n_classes];
            let mut right = counts.clone();
            for w in 0..order.len() - 1 {
                let i = order[w];
                left[labels[i]] += 1;
                right[labels[i]] -= 1;
                let (va, vb) = (samples[order[w]][f], samples[order[w + 1]][f]);
                if va == vb {
                    continue;
                }
                let nl = (w + 1) as f64;
                let nr = (order.len() - w - 1) as f64;
                let score = (nl * gini(&left) + nr * gini(&right)) / order.len() as f64;
                if best.is_none_or(|(_, _, s)| score < s) {
                    best = Some((f, (va + vb) / 2.0, score));
                }
            }
        }

        let Some((feature, threshold, score)) = best else {
            return self.leaf(&counts);
        };
        if score >= impure - 1e-12 {
            // No useful reduction.
            return self.leaf(&counts);
        }

        let (l_idx, r_idx): (Vec<usize>, Vec<usize>) =
            idx.iter().partition(|&&i| samples[i][feature] <= threshold);
        if l_idx.is_empty() || r_idx.is_empty() {
            return self.leaf(&counts);
        }
        // Reserve our slot before recursing so children indices are
        // stable.
        let me = self.nodes.len();
        self.nodes.push(Node::Split { feature, threshold, left: 0, right: 0 });
        let left = self.build(samples, labels, &l_idx, depth + 1, cfg, rng);
        let right = self.build(samples, labels, &r_idx, depth + 1, cfg, rng);
        self.nodes[me] = Node::Split { feature, threshold, left, right };
        me
        // Note: `build` for the root is called with an empty arena, so
        // the root always ends up at whatever index the recursion
        // assigned last; `predict` walks from `root()` below.
    }

    fn root(&self) -> usize {
        // The arena is built with the root either at 0 (pure leaf) or at
        // the first Split pushed; both cases are index 0.
        0
    }

    /// Per-class probability vector for `features`.
    pub fn predict_probs(&self, features: &[f64]) -> &[f64] {
        let mut n = self.root();
        loop {
            match &self.nodes[n] {
                Node::Leaf { probs } => return probs,
                Node::Split { feature, threshold, left, right } => {
                    n = if features[*feature] <= *threshold { *left } else { *right };
                }
            }
        }
    }

    /// Most probable class for `features`.
    pub fn predict(&self, features: &[f64]) -> usize {
        let probs = self.predict_probs(features);
        probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("non-empty class vector")
    }

    /// Average comparisons on a prediction path (the paper quotes 7–8
    /// per forest query): here, the depth to the leaf for `features`.
    pub fn path_depth(&self, features: &[f64]) -> usize {
        let mut n = self.root();
        let mut depth = 0;
        loop {
            match &self.nodes[n] {
                Node::Leaf { .. } => return depth,
                Node::Split { feature, threshold, left, right } => {
                    depth += 1;
                    n = if features[*feature] <= *threshold { *left } else { *right };
                }
            }
        }
    }

    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Total nodes in the arena (splits + leaves).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Deepest leaf, in split comparisons from the root (a pure-leaf
    /// tree has depth 0).
    pub fn max_depth(&self) -> usize {
        self.walk_leaves(&mut |_depth| {})
    }

    /// Accumulate this tree's leaf depths into `hist` (index = depth,
    /// value = leaf count), growing it as needed.
    pub fn leaf_depth_histogram_into(&self, hist: &mut Vec<usize>) {
        self.walk_leaves(&mut |depth| {
            if hist.len() <= depth {
                hist.resize(depth + 1, 0);
            }
            hist[depth] += 1;
        });
    }

    /// Accumulate how many split nodes test each feature into `counts`
    /// (index = feature), growing it as needed.
    pub fn feature_split_counts_into(&self, counts: &mut Vec<usize>) {
        for node in &self.nodes {
            if let Node::Split { feature, .. } = node {
                if counts.len() <= *feature {
                    counts.resize(*feature + 1, 0);
                }
                counts[*feature] += 1;
            }
        }
    }

    /// Depth-first walk calling `on_leaf(depth)` per leaf; returns the
    /// maximum leaf depth. Iterative (explicit stack) so pathological
    /// trees cannot overflow the call stack.
    fn walk_leaves(&self, on_leaf: &mut dyn FnMut(usize)) -> usize {
        let mut max = 0;
        let mut stack = vec![(self.root(), 0usize)];
        while let Some((n, depth)) = stack.pop() {
            match &self.nodes[n] {
                Node::Leaf { .. } => {
                    max = max.max(depth);
                    on_leaf(depth);
                }
                Node::Split { left, right, .. } => {
                    stack.push((*left, depth + 1));
                    stack.push((*right, depth + 1));
                }
            }
        }
        max
    }

    pub(crate) fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    pub(crate) fn from_nodes(nodes: Vec<Node>, n_classes: usize) -> Self {
        DecisionTree { nodes, n_classes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    fn fit_all(samples: &[Vec<f64>], labels: &[usize], n: usize) -> DecisionTree {
        let idx: Vec<usize> = (0..samples.len()).collect();
        DecisionTree::fit(samples, labels, &idx, n, &TreeConfig::default(), &mut rng())
    }

    #[test]
    fn gini_of_pure_and_even() {
        assert_eq!(gini(&[5, 0]), 0.0);
        assert!((gini(&[5, 5]) - 0.5).abs() < 1e-12);
        assert_eq!(gini(&[0, 0]), 0.0);
    }

    #[test]
    fn learns_a_threshold() {
        // 1-D, label = x > 10.
        let samples: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64]).collect();
        let labels: Vec<usize> = (0..40).map(|i| usize::from(i > 10)).collect();
        let tree = fit_all(&samples, &labels, 2);
        for i in 0..40 {
            assert_eq!(tree.predict(&[i as f64]), usize::from(i > 10), "x = {i}");
        }
    }

    #[test]
    fn learns_a_two_feature_rule() {
        // label 1 iff x > 5 && y > 5 — needs depth 2.
        let mut samples = Vec::new();
        let mut labels = Vec::new();
        for x in 0..12 {
            for y in 0..12 {
                samples.push(vec![x as f64, y as f64]);
                labels.push(usize::from(x > 5 && y > 5));
            }
        }
        let tree = fit_all(&samples, &labels, 2);
        let errors = samples.iter().zip(&labels).filter(|(s, &l)| tree.predict(s) != l).count();
        assert_eq!(errors, 0);
    }

    #[test]
    fn pure_data_yields_single_leaf() {
        let samples = vec![vec![1.0], vec![2.0], vec![3.0]];
        let labels = vec![1, 1, 1];
        let tree = fit_all(&samples, &labels, 2);
        assert_eq!(tree.nodes().len(), 1);
        assert_eq!(tree.predict(&[5.0]), 1);
        assert_eq!(tree.path_depth(&[5.0]), 0);
    }

    #[test]
    fn probabilities_reflect_leaf_composition() {
        // Identical features, mixed labels: one leaf with 0.75/0.25.
        let samples = vec![vec![1.0]; 4];
        let labels = vec![0, 0, 0, 1];
        let tree = fit_all(&samples, &labels, 2);
        let p = tree.predict_probs(&[1.0]);
        assert!((p[0] - 0.75).abs() < 1e-12);
        assert!((p[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn depth_limit_is_respected() {
        let samples: Vec<Vec<f64>> = (0..256).map(|i| vec![i as f64]).collect();
        let labels: Vec<usize> = (0..256).map(|i| (i / 2) % 2).collect();
        let idx: Vec<usize> = (0..256).collect();
        let cfg = TreeConfig { max_depth: 3, ..TreeConfig::default() };
        let tree = DecisionTree::fit(&samples, &labels, &idx, 2, &cfg, &mut rng());
        for i in 0..256 {
            assert!(tree.path_depth(&[i as f64]) <= 3);
        }
    }
}

//! Compact text (de)serialisation for trained forests.
//!
//! Dependency policy (DESIGN.md §5) keeps the external crate list to the
//! allowed set, so instead of pulling in a serde format crate this module
//! hand-rolls a line-oriented codec:
//!
//! ```text
//! forest <n_trees> <n_classes>
//! tree <n_nodes>
//! s <feature> <threshold> <left> <right>
//! l <p0> <p1> ...
//! ```

use crate::forest::RandomForest;
use crate::tree::{DecisionTree, Node};
use ctb_savestate::{Reader, Savestate, SavestateError, Writer};

/// Serialise a forest to the text format.
pub fn encode(forest: &RandomForest) -> String {
    let mut out = String::new();
    out.push_str(&format!("forest {} {}\n", forest.trees.len(), forest.n_classes));
    for tree in &forest.trees {
        out.push_str(&format!("tree {}\n", tree.nodes().len()));
        for node in tree.nodes() {
            match node {
                Node::Split { feature, threshold, left, right } => {
                    out.push_str(&format!("s {feature} {threshold:e} {left} {right}\n"));
                }
                Node::Leaf { probs } => {
                    out.push('l');
                    for p in probs {
                        out.push_str(&format!(" {p:e}"));
                    }
                    out.push('\n');
                }
            }
        }
    }
    out
}

/// Parse a forest from the text format.
pub fn decode(text: &str) -> Result<RandomForest, String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = lines.next().ok_or("empty input")?;
    let mut hp = header.split_whitespace();
    if hp.next() != Some("forest") {
        return Err("missing 'forest' header".into());
    }
    let n_trees: usize = hp
        .next()
        .ok_or("missing tree count")?
        .parse()
        .map_err(|e| format!("bad tree count: {e}"))?;
    let n_classes: usize = hp
        .next()
        .ok_or("missing class count")?
        .parse()
        .map_err(|e| format!("bad class count: {e}"))?;

    // Counts come from untrusted text: cap the pre-allocation so a
    // forged header like `forest 99999999999999 2` costs a parse error,
    // not an allocation abort. The real length check is the per-item
    // loop below, which demands an actual line per claimed node.
    let mut trees = Vec::with_capacity(n_trees.min(1024));
    for t in 0..n_trees {
        let th = lines.next().ok_or_else(|| format!("missing tree {t} header"))?;
        let mut tp = th.split_whitespace();
        if tp.next() != Some("tree") {
            return Err(format!("tree {t}: missing 'tree' header"));
        }
        let n_nodes: usize = tp
            .next()
            .ok_or("missing node count")?
            .parse()
            .map_err(|e| format!("bad node count: {e}"))?;
        let mut nodes = Vec::with_capacity(n_nodes.min(4096));
        for n in 0..n_nodes {
            let line = lines.next().ok_or_else(|| format!("tree {t}: missing node {n}"))?;
            let mut parts = line.split_whitespace();
            match parts.next() {
                Some("s") => {
                    let mut next_num = || -> Result<f64, String> {
                        parts
                            .next()
                            .ok_or_else(|| format!("tree {t} node {n}: truncated split"))?
                            .parse::<f64>()
                            .map_err(|e| format!("tree {t} node {n}: {e}"))
                    };
                    let feature = next_num()? as usize;
                    let threshold = next_num()?;
                    let left = next_num()? as usize;
                    let right = next_num()? as usize;
                    if left >= n_nodes || right >= n_nodes {
                        return Err(format!("tree {t} node {n}: child out of range"));
                    }
                    nodes.push(Node::Split { feature, threshold, left, right });
                }
                Some("l") => {
                    let probs: Result<Vec<f64>, _> = parts.map(str::parse::<f64>).collect();
                    let probs = probs.map_err(|e| format!("tree {t} node {n}: {e}"))?;
                    if probs.len() != n_classes {
                        return Err(format!(
                            "tree {t} node {n}: {} probs, expected {n_classes}",
                            probs.len()
                        ));
                    }
                    nodes.push(Node::Leaf { probs });
                }
                other => return Err(format!("tree {t} node {n}: bad tag {other:?}")),
            }
        }
        trees.push(DecisionTree::from_nodes(nodes, n_classes));
    }
    Ok(RandomForest { trees, n_classes })
}

/// In a savestate blob a forest is its text encoding, carried as a
/// string; text that does not parse is `Corrupt`.
impl Savestate for RandomForest {
    fn save(&self, w: &mut Writer) {
        encode(self).save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SavestateError> {
        decode(&String::load(r)?)
            .map_err(|e| SavestateError::Corrupt(format!("embedded forest: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::ForestConfig;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn trained() -> (RandomForest, Vec<Vec<f64>>) {
        let mut rng = StdRng::seed_from_u64(11);
        let samples: Vec<Vec<f64>> =
            (0..200).map(|_| vec![rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)]).collect();
        let labels: Vec<usize> = samples.iter().map(|s| usize::from(s[0] + s[1] > 100.0)).collect();
        (RandomForest::fit(&samples, &labels, 2, &ForestConfig::default()), samples)
    }

    #[test]
    fn round_trip_preserves_predictions() {
        let (forest, samples) = trained();
        let text = encode(&forest);
        let back = decode(&text).expect("decodes");
        assert_eq!(back, forest);
        for s in samples.iter().take(50) {
            assert_eq!(forest.predict(s), back.predict(s));
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(decode("").is_err());
        assert!(decode("florest 1 2").is_err());
        assert!(decode("forest 1 2\ntree 1\nx 1 2 3").is_err());
        // Truncated tree.
        assert!(decode("forest 1 2\ntree 2\nl 0.5 0.5\n").is_err());
        // Wrong class arity in a leaf.
        assert!(decode("forest 1 2\ntree 1\nl 1.0\n").is_err());
        // Child index out of range.
        assert!(decode("forest 1 2\ntree 1\ns 0 1.0 5 6\n").is_err());
    }

    #[test]
    fn encoding_is_stable() {
        let (forest, _) = trained();
        assert_eq!(encode(&forest), encode(&decode(&encode(&forest)).unwrap()));
    }

    #[test]
    fn empty_forest_round_trips() {
        let empty = RandomForest { trees: vec![], n_classes: 3 };
        let text = encode(&empty);
        let back = decode(&text).expect("empty forest is representable");
        assert_eq!(back, empty);
        assert_eq!(encode(&back), text);
    }

    #[test]
    fn single_leaf_tree_round_trips() {
        let back = decode("forest 1 2\ntree 1\nl 0.25 0.75\n").expect("single leaf");
        assert_eq!(back.trees.len(), 1);
        assert_eq!(back.trees[0].nodes().len(), 1);
        assert_eq!(back.predict(&[123.0, -4.0]), 1, "leaf probs pick class 1");
        assert_eq!(decode(&encode(&back)).unwrap(), back);
    }

    #[test]
    fn deep_left_spine_tree_round_trips() {
        // 600 chained splits ending in one leaf: every split sends
        // "left" one node deeper and "right" to the terminal leaf, so
        // prediction walks the full 600-deep spine for small features.
        const SPLITS: usize = 600;
        let mut text = format!("forest 1 2\ntree {}\n", SPLITS + 1);
        for i in 0..SPLITS {
            text.push_str(&format!("s 0 {}.5 {} {SPLITS}\n", i, i + 1));
        }
        text.push_str("l 1.0 0.0\n");
        let forest = decode(&text).expect("deep tree decodes");
        assert_eq!(forest.trees[0].nodes().len(), SPLITS + 1);
        // Walks all SPLITS splits without blowing the stack, lands on
        // the leaf either way.
        assert_eq!(forest.predict(&[-1.0]), 0);
        assert_eq!(forest.predict(&[1e9]), 0);
        assert_eq!(decode(&encode(&forest)).unwrap(), forest);
    }

    #[test]
    fn every_truncation_errs_or_decodes_without_panicking() {
        // Chop a valid encoding at every char boundary: the decoder must
        // return a typed error or a well-formed forest — never panic,
        // never abort on a forged length.
        let (forest, _) = trained();
        let text = encode(&forest);
        for (i, _) in text.char_indices() {
            match decode(&text[..i]) {
                Ok(f) => {
                    // Prefixes that happen to parse (e.g. the full text
                    // minus trailing digits) must still be internally
                    // consistent.
                    assert_eq!(f.n_classes, forest.n_classes);
                    assert_eq!(f.trees.len(), forest.trees.len());
                }
                Err(e) => assert!(!e.is_empty(), "errors carry a message"),
            }
        }
    }

    #[test]
    fn forged_huge_counts_are_errors_not_allocation_aborts() {
        // Overflows usize: parse error.
        assert!(decode("forest 99999999999999999999 2").is_err());
        // Fits usize but claims absurd trees/nodes: the clamped
        // pre-allocation keeps this a cheap "missing line" error.
        assert!(decode("forest 9999999999 2").is_err());
        assert!(decode("forest 1 2\ntree 9999999999\nl 0.5 0.5\n").is_err());
        // NaN-ish and negative counts are parse errors too.
        assert!(decode("forest -3 2").is_err());
        assert!(decode("forest 1 2\ntree -1\n").is_err());
    }
}

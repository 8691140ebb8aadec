//! The on-line batching-policy selector of §5.
//!
//! For workloads whose shapes vary between calls the paper trains a
//! random forest that, given the average M, N, K and the batch size B,
//! predicts which batching heuristic (threshold or binary) will win.
//! Training labels come from running both heuristics; the paper measures
//! on hardware (≈2 h), we measure on the timing simulator (<1 s).

use crate::memo::SimMemo;
use ctb_batching::{tiles_for, BatchingHeuristic};
use ctb_forest::{ForestConfig, RandomForest};
use ctb_gpu_specs::{ArchSpec, Thresholds};
use ctb_matrix::{GemmBatch, GemmShape};
use ctb_tiling::select_tiling;

/// The two classes the selector distinguishes, in label order.
pub const CLASSES: [BatchingHeuristic; 2] =
    [BatchingHeuristic::Threshold, BatchingHeuristic::Binary];

/// A trained on-line selector.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineSelector {
    forest: RandomForest,
}

/// Simulated execution time of `shapes` under `heuristic` on the tiling
/// engine's solution (the labelling oracle).
pub fn simulated_us(
    arch: &ArchSpec,
    thresholds: &Thresholds,
    shapes: &[GemmShape],
    heuristic: BatchingHeuristic,
) -> f64 {
    let solution = select_tiling(shapes, thresholds);
    let tiles = tiles_for(shapes, &solution);
    let candidate =
        SimMemo::new().candidate(arch, thresholds, shapes, &solution, &tiles, heuristic);
    debug_assert!(candidate.plan.validate(shapes, &solution).is_ok());
    candidate.us
}

/// Feature vector of §5: average M, N, K and batch size B.
pub fn features(shapes: &[GemmShape]) -> Vec<f64> {
    let batch = shapes.len().max(1) as f64;
    let m = shapes.iter().map(|s| s.m as f64).sum::<f64>() / batch;
    let n = shapes.iter().map(|s| s.n as f64).sum::<f64>() / batch;
    let k = shapes.iter().map(|s| s.k as f64).sum::<f64>() / batch;
    vec![m, n, k, shapes.len() as f64]
}

impl OnlineSelector {
    /// Train on `cases`, labelling each by the faster heuristic under
    /// the simulator.
    pub fn train(arch: &ArchSpec, thresholds: &Thresholds, cases: &[Vec<GemmShape>]) -> Self {
        assert!(!cases.is_empty(), "need training cases");
        let mut samples = Vec::with_capacity(cases.len());
        let mut labels = Vec::with_capacity(cases.len());
        for shapes in cases {
            let t_threshold = simulated_us(arch, thresholds, shapes, BatchingHeuristic::Threshold);
            let t_binary = simulated_us(arch, thresholds, shapes, BatchingHeuristic::Binary);
            samples.push(features(shapes));
            labels.push(usize::from(t_binary < t_threshold));
        }
        let forest = RandomForest::fit(&samples, &labels, CLASSES.len(), &ForestConfig::default());
        OnlineSelector { forest }
    }

    /// Train on the standard >400-sample corpus (the paper's training
    /// set size) for `arch`.
    pub fn train_default(arch: &ArchSpec, thresholds: &Thresholds) -> Self {
        OnlineSelector::train(arch, thresholds, &ctb_matrix::gen::training_cases(0xC0DE))
    }

    /// Predict the batching heuristic for a batch.
    pub fn select(&self, batch: &GemmBatch) -> BatchingHeuristic {
        self.select_shapes(&batch.shapes)
    }

    /// Predict from shapes alone.
    pub fn select_shapes(&self, shapes: &[GemmShape]) -> BatchingHeuristic {
        CLASSES[self.forest.predict(&features(shapes))]
    }

    /// Fraction of `cases` where the prediction matches the simulated
    /// best.
    pub fn accuracy(
        &self,
        arch: &ArchSpec,
        thresholds: &Thresholds,
        cases: &[Vec<GemmShape>],
    ) -> f64 {
        let correct = cases
            .iter()
            .filter(|shapes| {
                let t_t = simulated_us(arch, thresholds, shapes, BatchingHeuristic::Threshold);
                let t_b = simulated_us(arch, thresholds, shapes, BatchingHeuristic::Binary);
                let best = CLASSES[usize::from(t_b < t_t)];
                self.select_shapes(shapes) == best
            })
            .count();
        correct as f64 / cases.len().max(1) as f64
    }

    /// Borrow the underlying forest (for persistence via
    /// [`ctb_forest::codec`]).
    pub fn forest(&self) -> &RandomForest {
        &self.forest
    }

    /// Rebuild from a persisted forest.
    pub fn from_forest(forest: RandomForest) -> Self {
        OnlineSelector { forest }
    }

    /// The selector shipped with this crate: trained offline on the
    /// standard >400-sample corpus against the V100 model (the paper's
    /// one-off per-platform training, persisted so users skip it).
    /// Regenerate with `ctb_forest::codec::encode(selector.forest())`
    /// after retraining.
    pub fn pretrained_v100() -> Self {
        let text = include_str!("../data/selector_v100.forest");
        OnlineSelector::from_forest(
            ctb_forest::codec::decode(text).expect("bundled forest artifact is valid"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctb_matrix::gen;

    fn setup() -> (ArchSpec, Thresholds) {
        let arch = ArchSpec::volta_v100();
        let th = Thresholds::for_arch(&arch);
        (arch, th)
    }

    #[test]
    fn features_are_the_paper_quadruple() {
        let shapes = vec![GemmShape::new(16, 32, 128), GemmShape::new(64, 64, 64)];
        let f = features(&shapes);
        assert_eq!(f, vec![40.0, 48.0, 96.0, 2.0]);
    }

    #[test]
    fn selector_trains_and_beats_chance_on_training_data() {
        let (arch, th) = setup();
        let cases = gen::random_cases(80, 7);
        let sel = OnlineSelector::train(&arch, &th, &cases);
        let acc = sel.accuracy(&arch, &th, &cases);
        assert!(acc > 0.7, "training accuracy {acc}");
    }

    #[test]
    fn pretrained_artifact_loads_and_agrees_with_fresh_training() {
        let (arch, th) = setup();
        let bundled = OnlineSelector::pretrained_v100();
        let fresh = OnlineSelector::train_default(&arch, &th);
        // The artifact was generated by exactly this training routine;
        // determinism makes them identical.
        assert_eq!(bundled, fresh, "regenerate crates/core/data/selector_v100.forest");
        // And it makes sensible predictions.
        let cases = gen::random_cases(20, 99);
        for shapes in &cases {
            let _ = bundled.select_shapes(shapes);
        }
    }

    #[test]
    fn selector_round_trips_through_codec() {
        let (arch, th) = setup();
        let cases = gen::random_cases(40, 9);
        let sel = OnlineSelector::train(&arch, &th, &cases);
        let text = ctb_forest::codec::encode(sel.forest());
        let back = OnlineSelector::from_forest(ctb_forest::codec::decode(&text).unwrap());
        for shapes in &cases {
            assert_eq!(sel.select_shapes(shapes), back.select_shapes(shapes));
        }
    }
}

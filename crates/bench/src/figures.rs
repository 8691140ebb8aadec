//! Fig 8 (tiling engine alone), Fig 9 (tiling + batching) and Fig 11
//! (architecture portability).

use crate::geomean;
use ctb_baselines::{magma_vbatch, simulate_baseline};
use ctb_batching::BatchingHeuristic;
use ctb_core::{BatchingPolicy, Framework, FrameworkConfig};
use ctb_gpu_specs::ArchSpec;
use ctb_matrix::gen;
use ctb_matrix::GemmShape;
use rayon::prelude::*;

/// One histogram bar of the Fig 8 / Fig 9 grids.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellResult {
    /// Batch size (histogram column).
    pub batch: usize,
    /// M = N (histogram row).
    pub mn: usize,
    /// K (histogram X axis, 16…2048 logarithmic).
    pub k: usize,
    /// MAGMA vbatch time in µs (the baseline of both figures).
    pub magma_us: f64,
    /// Our time in µs under the figure's configuration.
    pub ours_us: f64,
}

impl CellResult {
    /// Speedup over MAGMA — the bar the paper plots.
    pub fn speedup(&self) -> f64 {
        self.magma_us / self.ours_us
    }
}

fn grid_with(arch: &ArchSpec, policy: impl Fn() -> BatchingPolicy) -> Vec<CellResult> {
    let fw = Framework::with_config(
        arch.clone(),
        FrameworkConfig { batching: policy(), thresholds: None },
    );
    // Enumerate cells in the figure's row order, then evaluate them in
    // parallel; `map` + `collect` keeps results in enumeration order,
    // so the output is identical to the old serial triple loop.
    let mut params = Vec::new();
    for b in gen::fig_batch_sizes() {
        for mn in gen::fig_mn_sizes() {
            for k in gen::k_sweep() {
                params.push((b, mn, k));
            }
        }
    }
    params
        .into_par_iter()
        .map(|(b, mn, k)| {
            let shapes = gen::uniform_case(b, mn, mn, k);
            let magma_us = simulate_baseline(arch, &magma_vbatch(arch, &shapes)).total_us;
            let ours_us = fw.plan(&shapes).expect("plannable").predicted_us;
            CellResult { batch: b, mn, k, magma_us, ours_us }
        })
        .collect()
}

/// Fig 8: the tiling engine alone (batching disabled — one tile per
/// block) against MAGMA vbatch, over the full grid.
pub fn fig8_grid(arch: &ArchSpec) -> Vec<CellResult> {
    grid_with(arch, || BatchingPolicy::Fixed(BatchingHeuristic::OneTilePerBlock))
}

/// Fig 9: the coordinated tiling + batching framework (best-of-both
/// heuristic selection, as the paper uses for fixed-size cases) against
/// MAGMA vbatch.
pub fn fig9_grid(arch: &ArchSpec) -> Vec<CellResult> {
    grid_with(arch, || BatchingPolicy::BestOfBoth)
}

/// Average (geometric mean) speedup over a set of cells.
pub fn mean_speedup(cells: &[CellResult]) -> f64 {
    geomean(&cells.iter().map(CellResult::speedup).collect::<Vec<_>>())
}

/// One device of Fig 11.
#[derive(Debug, Clone, PartialEq)]
pub struct PortabilityResult {
    pub arch_name: &'static str,
    /// Geometric-mean speedup of the framework over MAGMA on 100 random
    /// batched-GEMM cases.
    pub mean_speedup: f64,
    /// Per-case speedups (100 entries).
    pub speedups: Vec<f64>,
}

/// Fig 11: run `cases` random batched-GEMM cases on every non-V100
/// preset (the paper's Maxwell/Pascal portability experiment).
pub fn fig11_portability(cases: usize, seed: u64) -> Vec<PortabilityResult> {
    ArchSpec::fig11_presets().into_iter().map(|arch| portability_for(&arch, cases, seed)).collect()
}

/// The Fig 11 measurement for one device. Cases are drawn serially
/// (keeping the RNG stream, and thus the workloads, identical to the
/// serial version) and then simulated in parallel in case order.
pub fn portability_for(arch: &ArchSpec, cases: usize, seed: u64) -> PortabilityResult {
    let fw = Framework::new(arch.clone());
    let speedups: Vec<f64> = gen::random_cases(cases, seed)
        .into_par_iter()
        .map(|shapes| speedup_for_case(&fw, arch, &shapes))
        .collect();
    PortabilityResult { arch_name: arch.name, mean_speedup: geomean(&speedups), speedups }
}

fn speedup_for_case(fw: &Framework, arch: &ArchSpec, shapes: &[GemmShape]) -> f64 {
    let magma = simulate_baseline(arch, &magma_vbatch(arch, shapes)).total_us;
    let ours = fw.plan(shapes).expect("plannable").predicted_us;
    magma / ours
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9_average_speedup_is_in_the_paper_band() {
        // The paper reports 1.40x average for tiling+batching on V100.
        let arch = ArchSpec::volta_v100();
        let cells = fig9_grid(&arch);
        assert_eq!(cells.len(), 4 * 3 * 8);
        let mean = mean_speedup(&cells);
        assert!((1.15..=1.9).contains(&mean), "fig9 mean speedup {mean}");
    }

    #[test]
    fn fig8_average_is_positive_but_below_fig9() {
        // Tiling alone gives ~1.20x; adding batching must not hurt.
        let arch = ArchSpec::volta_v100();
        let f8 = mean_speedup(&fig8_grid(&arch));
        let f9 = mean_speedup(&fig9_grid(&arch));
        assert!(f8 > 1.0, "fig8 mean {f8}");
        assert!(f9 >= f8 * 0.98, "fig9 {f9} should not trail fig8 {f8}");
    }

    #[test]
    fn batching_gain_concentrates_at_small_k() {
        // Fig 9's second observation: when K is small, the batching
        // contribution is higher. Compare fig9/fig8 ratio at K=16
        // against K=2048.
        let arch = ArchSpec::volta_v100();
        let f8 = fig8_grid(&arch);
        let f9 = fig9_grid(&arch);
        let gain_at = |k: usize| {
            let a: Vec<f64> = f8
                .iter()
                .zip(&f9)
                .filter(|(c, _)| c.k == k)
                .map(|(c8, c9)| c9.speedup() / c8.speedup())
                .collect();
            geomean(&a)
        };
        let small_k = gain_at(16);
        let large_k = gain_at(2048);
        assert!(
            small_k >= large_k,
            "batching gain at K=16 ({small_k}) should exceed K=2048 ({large_k})"
        );
    }

    #[test]
    fn portability_holds_on_a_maxwell_part() {
        let arch = ArchSpec::maxwell_m60();
        let r = portability_for(&arch, 10, 42);
        assert!(r.mean_speedup > 1.0, "mean speedup {}", r.mean_speedup);
    }
}

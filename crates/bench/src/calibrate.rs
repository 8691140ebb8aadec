//! The offline TLP-threshold calibration of §4.2.3: "On each platform,
//! we determine the threshold by starting with a huge GEMM case and
//! decreasing the TLP iteratively. We choose the inflection point with
//! large performance degradation as the TLP threshold."

use ctb_batching::{assign_blocks, tiles_for, BatchingHeuristic};
use ctb_core::lowering::lower_plan;
use ctb_gpu_specs::{ArchSpec, Thresholds};
use ctb_matrix::GemmShape;
use ctb_sim::{simulate, LaunchSequence};
use ctb_tiling::strategy::{batched, StrategyKind, ThreadCount};
use ctb_tiling::TilingSolution;

/// One point of the calibration sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationPoint {
    /// Strategy that produced this TLP level.
    pub strategy: StrategyKind,
    /// Aggregate TLP (Eq 1).
    pub tlp: u64,
    /// Achieved GFLOP/s.
    pub gflops: f64,
}

/// Sweep tile strategies over a huge GEMM, recording (TLP, performance).
pub fn calibration_sweep(arch: &ArchSpec) -> Vec<CalibrationPoint> {
    // A large single GEMM sized so the biggest tiles starve the device
    // (the paper's §4.2 example: 1024² under huge tiling yields only 64
    // blocks): every strategy is available, TLP shrinks as the tile
    // grows, and performance collapses once the device runs dry.
    let shape = GemmShape::new(1024, 1024, 256);
    StrategyKind::ALL
        .iter()
        .map(|&kind| {
            let st = batched(kind, ThreadCount::T256);
            let solution =
                TilingSolution { thread_count: ThreadCount::T256, per_gemm: vec![st], tlp: 0 };
            let tiles = tiles_for(&[shape], &solution);
            let tlp = tiles.len() as u64 * 256;
            let plan = assign_blocks(
                &tiles,
                BatchingHeuristic::OneTilePerBlock,
                &Thresholds::paper_v100(),
                256,
            );
            let kd = lower_plan("calibration", &plan, &[shape]);
            let report = simulate(arch, &LaunchSequence::Single(kd));
            CalibrationPoint { strategy: kind, tlp, gflops: report.gflops(shape.flops()) }
        })
        .collect()
}

/// The paper's inflection-point rule: decreasing the TLP iteratively,
/// the threshold is the lowest TLP level whose performance is still
/// within `degradation` (e.g. 0.9) of the best point — one step further
/// and performance degrades sharply. Rounded down to a power of two like
/// the paper's 65536.
pub fn calibrate_tlp_threshold(arch: &ArchSpec, degradation: f64) -> u64 {
    let mut points = calibration_sweep(arch);
    // Highest TLP first.
    points.sort_by_key(|p| std::cmp::Reverse(p.tlp));
    let best = points.iter().map(|p| p.gflops).fold(0.0f64, f64::max);
    let last_good = points
        .iter()
        .filter(|p| p.gflops >= best * degradation)
        .map(|p| p.tlp)
        .min()
        .unwrap_or(points.last().expect("non-empty sweep").tlp);
    // Round down to a power of two like the paper's 65536.
    let mut t = 1u64;
    while t * 2 <= last_good {
        t *= 2;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_all_strategies_with_decreasing_tlp() {
        let pts = calibration_sweep(&ArchSpec::volta_v100());
        assert_eq!(pts.len(), 6);
        // small -> huge: TLP must be non-increasing.
        for w in pts.windows(2) {
            assert!(w[0].tlp >= w[1].tlp, "{w:?}");
        }
        assert!(pts.iter().all(|p| p.gflops > 0.0));
    }

    #[test]
    fn calibrated_threshold_is_sane_on_every_preset() {
        for arch in ArchSpec::all_presets() {
            let t = calibrate_tlp_threshold(&arch, 0.9);
            assert!(t.is_power_of_two());
            assert!(
                (1024..=arch.max_resident_threads() * 4).contains(&t),
                "{}: threshold {t}",
                arch.name
            );
        }
    }
}

//! The `default` baseline: one classic single-GEMM kernel per GEMM,
//! launched serially (§3 "in default execution mode, each GEMM
//! corresponds to a kernel and they execute one by one").

use crate::run::{functional_plan, gemm_tiles, BaselineRun};
use ctb_batching::TileTask;
use ctb_core::lowering::lower_block;
use ctb_gpu_specs::ArchSpec;
use ctb_matrix::GemmShape;
use ctb_sim::{KernelDesc, LaunchSequence};
use ctb_tiling::select_single_gemm;

/// Build the per-GEMM kernels with their individually optimal Table 1
/// strategies.
pub(crate) fn per_gemm_kernels(
    arch: &ArchSpec,
    shapes: &[GemmShape],
) -> (Vec<KernelDesc>, Vec<TileTask>) {
    let mut kernels = Vec::with_capacity(shapes.len());
    let mut all_tiles = Vec::new();
    for (g, shape) in shapes.iter().enumerate() {
        let st = select_single_gemm(shape, arch);
        let tiles = gemm_tiles(g, shape, st);
        let mut kernel = KernelDesc::new(format!("default_gemm_{g}_{shape}"), st.footprint());
        kernel.reserve(tiles.len(), tiles.len());
        for &t in &tiles {
            lower_block(&mut kernel, [t], st.threads, shapes);
        }
        kernels.push(kernel);
        all_tiles.extend(tiles);
    }
    (kernels, all_tiles)
}

/// The default serial execution of a batch.
pub fn default_serial(arch: &ArchSpec, shapes: &[GemmShape]) -> BaselineRun {
    let (kernels, tiles) = per_gemm_kernels(arch, shapes);
    BaselineRun {
        name: "default",
        seq: LaunchSequence::Serial(kernels),
        functional: functional_plan(&tiles),
    }
}

/// Functional-only default execution: the per-GEMM Table 1 kernels'
/// numerics without building launch descriptors or simulating timing.
/// This is the serving layer's degraded-mode executor — it must stay
/// bitwise-identical to the coordinated path, which it is because both
/// replay the same ascending-k accumulation per GEMM.
pub fn default_functional(arch: &ArchSpec, batch: &ctb_matrix::GemmBatch) -> Vec<ctb_matrix::MatF32> {
    let mut tiles = Vec::new();
    for (g, shape) in batch.shapes.iter().enumerate() {
        let st = select_single_gemm(shape, arch);
        tiles.extend(gemm_tiles(g, shape, st));
    }
    ctb_core::interface::execute_plan(batch, &functional_plan(&tiles))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::execute_baseline;
    use ctb_matrix::{assert_bitwise_eq, GemmBatch};

    #[test]
    fn one_kernel_per_gemm() {
        let arch = ArchSpec::volta_v100();
        let shapes = vec![GemmShape::new(64, 64, 32), GemmShape::new(128, 96, 64)];
        let run = default_serial(&arch, &shapes);
        assert_eq!(run.seq.kernels().len(), 2);
    }

    #[test]
    fn functional_only_matches_the_full_baseline_bitwise() {
        let arch = ArchSpec::volta_v100();
        let shapes = vec![GemmShape::new(48, 80, 96), GemmShape::new(17, 33, 41)];
        let batch = GemmBatch::random(&shapes, 1.0, 0.5, 78);
        let run = default_serial(&arch, &shapes);
        let (full, _report) = execute_baseline(&arch, &batch, &run);
        let lean = default_functional(&arch, &batch);
        assert_eq!(full.len(), lean.len());
        for (f, l) in full.iter().zip(&lean) {
            assert_eq!(f.as_slice(), l.as_slice(), "bitwise-identical numerics");
        }
    }

    #[test]
    fn results_match_reference() {
        let arch = ArchSpec::volta_v100();
        let shapes = vec![GemmShape::new(48, 80, 96), GemmShape::new(17, 33, 41)];
        let batch = GemmBatch::random(&shapes, 1.0, 0.5, 77);
        let run = default_serial(&arch, &shapes);
        let (results, report) = execute_baseline(&arch, &batch, &run);
        assert_bitwise_eq(&batch.reference_result_exact(), &results, "default serial");
        // Serial launches: at least 2 launch overheads.
        assert!(report.total_us >= 2.0 * arch.kernel_launch_overhead_us);
    }
}

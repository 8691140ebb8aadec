//! A cuBLAS-`cublasSgemmBatched`-like baseline: GEMMs with identical
//! (M, N, K) are merged into one uniform batched kernel; each distinct
//! shape still needs its own launch — the API's defining restriction
//! (§1: "it can only batch the GEMMs with the same size").

use crate::run::{functional_plan, gemm_tiles, BaselineRun};
use ctb_batching::TileTask;
use ctb_core::lowering::lower_block;
use ctb_gpu_specs::ArchSpec;
use ctb_matrix::GemmShape;
use ctb_sim::{KernelDesc, LaunchSequence};
use ctb_tiling::select_single_gemm;

/// Batch same-size groups into uniform kernels, launched serially.
pub fn cublas_like(arch: &ArchSpec, shapes: &[GemmShape]) -> BaselineRun {
    // Group indices by shape, preserving first-seen order.
    let mut groups: Vec<(GemmShape, Vec<usize>)> = Vec::new();
    for (g, shape) in shapes.iter().enumerate() {
        match groups.iter_mut().find(|(s, _)| s == shape) {
            Some((_, idx)) => idx.push(g),
            None => groups.push((*shape, vec![g])),
        }
    }

    let mut kernels = Vec::with_capacity(groups.len());
    let mut all_tiles: Vec<TileTask> = Vec::new();
    for (shape, members) in &groups {
        let st = select_single_gemm(shape, arch);
        let name = format!("cublas_batched_{shape}_x{}", members.len());
        let mut kernel = KernelDesc::new(name, st.footprint());
        for &g in members {
            // gridDim.z stacking: every member contributes a full grid.
            for t in gemm_tiles(g, shape, st) {
                lower_block(&mut kernel, [t], st.threads, shapes);
                all_tiles.push(t);
            }
        }
        kernels.push(kernel);
    }

    BaselineRun {
        name: "cublas_like",
        seq: LaunchSequence::Serial(kernels),
        functional: functional_plan(&all_tiles),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::default_exec::default_serial;
    use crate::run::{execute_baseline, simulate_baseline};
    use ctb_matrix::{assert_bitwise_eq, GemmBatch};

    #[test]
    fn uniform_batch_needs_one_launch() {
        let arch = ArchSpec::volta_v100();
        let shapes = vec![GemmShape::new(64, 64, 64); 8];
        let run = cublas_like(&arch, &shapes);
        assert_eq!(run.seq.kernels().len(), 1);
    }

    #[test]
    fn mixed_batch_needs_one_launch_per_distinct_shape() {
        let arch = ArchSpec::volta_v100();
        let shapes = vec![
            GemmShape::new(64, 64, 64),
            GemmShape::new(32, 32, 32),
            GemmShape::new(64, 64, 64),
            GemmShape::new(128, 128, 16),
        ];
        let run = cublas_like(&arch, &shapes);
        assert_eq!(run.seq.kernels().len(), 3);
    }

    #[test]
    fn beats_default_on_uniform_small_batches() {
        let arch = ArchSpec::volta_v100();
        let shapes = vec![GemmShape::new(64, 64, 64); 16];
        let d = simulate_baseline(&arch, &default_serial(&arch, &shapes));
        let c = simulate_baseline(&arch, &cublas_like(&arch, &shapes));
        assert!(c.total_us < d.total_us, "cublas {} vs default {}", c.total_us, d.total_us);
    }

    #[test]
    fn results_match_reference() {
        let arch = ArchSpec::volta_v100();
        let shapes = vec![
            GemmShape::new(33, 65, 20),
            GemmShape::new(33, 65, 20),
            GemmShape::new(80, 16, 48),
        ];
        let batch = GemmBatch::random(&shapes, 1.25, -0.5, 13);
        let (results, _) = execute_baseline(&arch, &batch, &cublas_like(&arch, &shapes));
        assert_bitwise_eq(&batch.reference_result_exact(), &results, "cublas-like");
    }
}

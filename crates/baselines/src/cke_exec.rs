//! The `cke` baseline: the same per-GEMM kernels as `default`, issued
//! round-robin over CUDA streams (§3's concurrent-kernel-execution
//! direction; the artifact's `cke/` variant).

use crate::default_exec::per_gemm_kernels;
use crate::run::{functional_plan, BaselineRun};
use ctb_gpu_specs::ArchSpec;
use ctb_matrix::GemmShape;
use ctb_sim::LaunchSequence;

/// Default stream count used by the paper's artifact-style CKE runs.
pub const DEFAULT_STREAMS: usize = 8;

/// Concurrent kernel execution over `streams` streams.
pub fn cke_with_streams(arch: &ArchSpec, shapes: &[GemmShape], streams: usize) -> BaselineRun {
    let (kernels, tiles) = per_gemm_kernels(arch, shapes);
    BaselineRun {
        name: "cke",
        seq: LaunchSequence::Streams { streams, kernels },
        functional: functional_plan(&tiles),
    }
}

/// Concurrent kernel execution with the default stream count.
pub fn cke(arch: &ArchSpec, shapes: &[GemmShape]) -> BaselineRun {
    cke_with_streams(arch, shapes, DEFAULT_STREAMS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::default_exec::default_serial;
    use crate::run::{execute_baseline, simulate_baseline};
    use ctb_matrix::{assert_bitwise_eq, GemmBatch};

    #[test]
    fn cke_is_no_slower_than_default_on_many_small_gemms() {
        let arch = ArchSpec::volta_v100();
        let shapes = vec![GemmShape::new(64, 64, 64); 12];
        let d = simulate_baseline(&arch, &default_serial(&arch, &shapes));
        let c = simulate_baseline(&arch, &cke(&arch, &shapes));
        assert!(
            c.total_us <= d.total_us * 1.001,
            "cke {} vs default {}",
            c.total_us,
            d.total_us
        );
    }

    #[test]
    fn results_match_reference() {
        let arch = ArchSpec::volta_v100();
        let shapes = vec![GemmShape::new(40, 56, 24), GemmShape::new(72, 24, 80)];
        let batch = GemmBatch::random(&shapes, 0.5, 1.0, 31);
        let (results, _) = execute_baseline(&arch, &batch, &cke(&arch, &shapes));
        assert_bitwise_eq(&batch.reference_result_exact(), &results, "cke");
    }
}

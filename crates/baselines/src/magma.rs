//! The MAGMA `vbatch` baseline — the paper's state-of-the-art
//! comparator (§3, Fig 3).
//!
//! One kernel batches all GEMMs by expanding `gridDim.z`: GEMM `g` owns
//! the Z-slice `blockIdx.z == g`. The 2-D slice is sized by the
//! *largest* GEMM's tile grid, so smaller GEMMs leave **bubble blocks**
//! (Fig 3a). A single fixed tile size and block size serve every GEMM —
//! MAGMA's kernels use one classic blocking and no batch-aware tiling —
//! so blocks working on tiles that extend past a small GEMM's bounds
//! have **idle threads** (Fig 3b), and there is no multi-tile batching
//! along K.
//!
//! The fixed strategy is the small 16×16 blocking — the uniform tile
//! size the paper's Fig 3 depicts for the vbatch scheme, and the natural
//! fixed choice for kernels that target *small* variable-size matrices
//! (a larger fixed tile would degenerate most small GEMMs to a single
//! under-occupied block).

use crate::run::{functional_plan, BaselineRun};
use ctb_batching::TileTask;
use ctb_core::lowering::lower_block;
use ctb_gpu_specs::ArchSpec;
use ctb_matrix::GemmShape;
use ctb_sim::{KernelDesc, LaunchSequence};
use ctb_tiling::strategy::SINGLE_GEMM_STRATEGIES;
use ctb_tiling::TilingStrategy;

/// MAGMA's fixed tile strategy: the small 16×16×8 Table 1 blocking for
/// every GEMM in every batch (the uniform tiling of the paper's Fig 3).
pub fn magma_strategy(_shapes: &[GemmShape]) -> TilingStrategy {
    SINGLE_GEMM_STRATEGIES[0]
}

/// Build the single `vbatch` kernel for a batch of shapes.
pub fn magma_vbatch(arch: &ArchSpec, shapes: &[GemmShape]) -> BaselineRun {
    let _ = arch; // strategy is fixed, not tuned per device — MAGMA's design.
    let st = magma_strategy(shapes);
    let grids: Vec<(usize, usize)> = shapes
        .iter()
        .map(|s| (s.m.div_ceil(st.by), s.n.div_ceil(st.bx)))
        .collect();
    let gy_max = grids.iter().map(|g| g.0).max().unwrap_or(0);
    let gx_max = grids.iter().map(|g| g.1).max().unwrap_or(0);

    // MAGMA's vbatch kernel lacks the fine-grained software-pipelining
    // optimisations (§7: "without the fine-grained tiling and batching
    // optimizations"), so it runs at prefetch depth 1.
    let name = format!("magma_vbatch_{}x{}x{}_B{}", st.by, st.bx, st.bk, shapes.len());
    let mut kernel = KernelDesc::new(name, st.footprint()).unpipelined();
    let tile_count = grids.iter().map(|&(gy, gx)| gy * gx).sum();
    kernel.reserve(shapes.len() * gy_max * gx_max, tile_count);
    let mut tiles: Vec<TileTask> = Vec::with_capacity(tile_count);
    // Grid order (z, y, x): the rasteriser dispatch order bubbles
    // interleave with.
    for (g, shape) in shapes.iter().enumerate() {
        let (gy, gx) = grids[g];
        for y in 0..gy_max {
            for x in 0..gx_max {
                if y < gy && x < gx {
                    let t = TileTask { gemm: g, y, x, k: shape.k, strategy: st };
                    lower_block(&mut kernel, [t], st.threads, shapes);
                    tiles.push(t);
                } else {
                    kernel.push_block(0, []);
                }
            }
        }
    }

    BaselineRun {
        name: "magma_vbatch",
        seq: LaunchSequence::Single(kernel),
        functional: functional_plan(&tiles),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{execute_baseline, simulate_baseline};
    use ctb_matrix::{assert_bitwise_eq, GemmBatch};
    use ctb_tiling::StrategyKind;

    fn v100() -> ArchSpec {
        ArchSpec::volta_v100()
    }

    #[test]
    fn strategy_is_the_fixed_small_blocking() {
        for shapes in [
            vec![GemmShape::new(16, 16, 8), GemmShape::new(128, 128, 8)],
            vec![GemmShape::new(2048, 2048, 512)],
            vec![GemmShape::new(4, 4, 4)],
        ] {
            assert_eq!(magma_strategy(&shapes).kind, StrategyKind::Small);
        }
    }

    #[test]
    fn fig3a_bubble_structure() {
        // Fig 3(a): GEMMs 16x32x128, 64x48x64, 64x64x128 with 16x16
        // tiles -> grids 1x2, 4x3, 4x4; the slice is 4x4, so the kernel
        // has 3*16 = 48 blocks of which (16-2) + (16-12) = 18 are
        // bubbles.
        let shapes = vec![
            GemmShape::new(16, 32, 128),
            GemmShape::new(64, 48, 64),
            GemmShape::new(64, 64, 128),
        ];
        let run = magma_vbatch(&v100(), &shapes);
        let kd = match &run.seq {
            LaunchSequence::Single(k) => k,
            _ => panic!("vbatch is a single kernel"),
        };
        assert_eq!(kd.blocks.len(), 48);
        assert_eq!(kd.bubble_blocks(), 18);
        assert!(!kd.software_pipelined, "vbatch lacks fine-grained pipelining");
    }

    #[test]
    fn boundary_tiles_idle_threads() {
        // A GEMM whose N is not a tile multiple leaves partially covered
        // boundary tiles: their blocks run with fewer active threads.
        let shapes = vec![GemmShape::new(16, 20, 32)];
        let run = magma_vbatch(&v100(), &shapes);
        let kd = match &run.seq {
            LaunchSequence::Single(k) => k,
            _ => unreachable!(),
        };
        let st = magma_strategy(&shapes);
        let min_active = kd
            .blocks
            .iter()
            .filter(|b| !b.is_bubble())
            .map(|b| b.active_threads)
            .min()
            .unwrap();
        assert!(min_active <= st.threads, "boundary blocks can't exceed block size");
        assert_eq!(kd.blocks.len(), 2, "grid 1x2 under 16x16 tiles");
    }

    #[test]
    fn results_match_reference() {
        let shapes = vec![
            GemmShape::new(16, 32, 128),
            GemmShape::new(64, 48, 64),
            GemmShape::new(100, 100, 30),
        ];
        let batch = GemmBatch::random(&shapes, 1.0, 2.0, 99);
        let run = magma_vbatch(&v100(), &shapes);
        let (results, report) = execute_baseline(&v100(), &batch, &run);
        assert_bitwise_eq(&batch.reference_result_exact(), &results, "magma vbatch");
        assert_eq!(report.kernels.len(), 1);
    }

    #[test]
    fn single_launch_beats_default_for_many_small_gemms() {
        use crate::default_exec::default_serial;
        let arch = v100();
        let shapes = vec![GemmShape::new(64, 64, 64); 32];
        let m = simulate_baseline(&arch, &magma_vbatch(&arch, &shapes));
        let d = simulate_baseline(&arch, &default_serial(&arch, &shapes));
        assert!(m.total_us < d.total_us, "magma {} vs default {}", m.total_us, d.total_us);
    }
}

//! Lowering batch plans to the simulator's cost IR.
//!
//! A tile under strategy `(BY, BX, BK)` and GEMM depth `K` becomes a
//! [`TilePass`] with the per-iteration instruction counts of the Fig 2
//! code skeleton: Eq 2 global loads, Eq 3 FMAs, the shared-memory
//! fragment loads of the register double buffer, and the vectorised C
//! write-back in the epilogue.

use ctb_batching::{BatchPlan, TileTask};
use ctb_gpu_specs::BlockFootprint;
use ctb_matrix::GemmShape;
use ctb_sim::{KernelDesc, TilePass};
use ctb_tiling::{model, TilingStrategy};

/// Per-thread auxiliary (address/loop) instructions per main-loop
/// iteration — offset computation, compare, branch (footnote 1 of the
/// paper).
const AUX_PER_ITERATION: f64 = 4.0;

/// Cost of one tile's main loop under `strategy` for a GEMM with depth
/// `k`.
pub fn tile_pass(strategy: &TilingStrategy, k: usize) -> TilePass {
    let t = strategy.threads as f64;
    TilePass {
        iterations: k.div_ceil(strategy.bk).max(1) as u32,
        fma_per_thread: model::num_fma(strategy),
        // Register-fragment loads from shared memory (Fig 2 lines
        // 15–16): (sub_y + sub_x) floats per K step, 4-float vectorised.
        ld_shared_per_thread: (strategy.sub_y + strategy.sub_x) as f64 * strategy.bk as f64 / 4.0,
        ld_global_per_thread: model::num_load(strategy),
        aux_per_thread: AUX_PER_ITERATION,
        // C write-back: BY·BX floats across the block, 4-float stores.
        epilogue_stores: ((strategy.by * strategy.bx) as f64 / (4.0 * t)).max(1.0),
    }
}

/// Warp width used when rounding active-thread counts (32 on every
/// NVIDIA generation the paper evaluates).
const WARP: u32 = 32;

/// Threads of a `block_size`-thread block that do useful work on `tile`,
/// warp-rounded: boundary tiles cover only part of `BY × BX`, so part of
/// the block idles (bounds-checked out in the real kernel).
pub fn active_threads_for(tile: &TileTask, block_size: u32, shapes: &[GemmShape]) -> u32 {
    let shape = shapes[tile.gemm];
    let coverage = (tile.rows(shape.m) * tile.cols(shape.n)) as f64
        / (tile.strategy.by * tile.strategy.bx) as f64;
    let active = (block_size as f64 * coverage).ceil() as u32;
    active.div_ceil(WARP) * WARP
}

/// Lower one thread block that executes `tiles`, one after the other,
/// within a `block_size`-thread block, appending it to `kd`. The block's
/// active-thread count is the worst (largest) demand among its tiles.
pub fn lower_block(
    kd: &mut KernelDesc,
    tiles: impl IntoIterator<Item = TileTask>,
    block_size: u32,
    shapes: &[GemmShape],
) {
    let mut active = 0;
    for tile in tiles {
        active = active.max(active_threads_for(&tile, block_size, shapes));
        kd.passes.push(tile_pass(&tile.strategy, tile.k));
    }
    kd.end_block(active.min(block_size.div_ceil(WARP) * WARP));
}

/// Lower a coordinated [`BatchPlan`] to a single-kernel description,
/// block by block from the plan's arrays into the kernel's pass array.
///
/// Under the unified thread structure every strategy in the plan uses
/// the plan's block size, so every thread is active; the footprint takes
/// the maximum register/shared-memory demand across the strategies that
/// actually appear (the kernel must accommodate its largest resident
/// variant).
pub fn lower_plan(name: &str, plan: &BatchPlan, shapes: &[GemmShape]) -> KernelDesc {
    let mut regs = 16u32;
    let mut smem = 0u32;
    for &id in &plan.tiling {
        let st = TilingStrategy::from_id(id);
        regs = regs.max(st.regs_per_thread());
        smem = smem.max(st.smem_bytes());
    }
    let mut kd = KernelDesc::new(name, BlockFootprint::new(plan.threads, regs, smem));
    kd.reserve(plan.num_blocks(), plan.num_tiles());
    for b in 0..plan.num_blocks() {
        let tiles = (plan.tile[b]..plan.tile[b + 1]).map(|t| plan.tile_task(t, shapes));
        lower_block(&mut kd, tiles, plan.threads, shapes);
    }
    kd
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctb_batching::{assign_blocks, tiles_for, BatchingHeuristic};
    use ctb_gpu_specs::Thresholds;
    use ctb_tiling::select_tiling;
    use ctb_tiling::strategy::{batched, StrategyKind, ThreadCount};

    #[test]
    fn tile_pass_matches_paper_models() {
        let large = batched(StrategyKind::Large, ThreadCount::T256);
        let p = tile_pass(&large, 64);
        assert_eq!(p.iterations, 8);
        // Eq 3: 64*64*8/256 = 128 FMA per thread per iteration.
        assert!((p.fma_per_thread - 128.0).abs() < 1e-12);
        // Eq 2: (64*8 + 8*64)/(4*256) = 1 global load.
        assert!((p.ld_global_per_thread - 1.0).abs() < 1e-12);
        // (4+4)*8/4 = 16 shared loads.
        assert!((p.ld_shared_per_thread - 16.0).abs() < 1e-12);
        // 64*64/(4*256) = 4 stores.
        assert!((p.epilogue_stores - 4.0).abs() < 1e-12);
    }

    #[test]
    fn iterations_round_up_and_floor_at_one() {
        let small = batched(StrategyKind::Small, ThreadCount::T128);
        assert_eq!(tile_pass(&small, 9).iterations, 2);
        assert_eq!(tile_pass(&small, 1).iterations, 1);
        assert_eq!(tile_pass(&small, 0).iterations, 1);
    }

    #[test]
    fn lowered_plan_has_one_block_work_per_block() {
        let shapes = vec![
            GemmShape::new(64, 64, 32),
            GemmShape::new(128, 128, 64),
            GemmShape::new(16, 32, 16),
        ];
        let th = Thresholds::paper_v100();
        let sol = select_tiling(&shapes, &th);
        let tiles = tiles_for(&shapes, &sol);
        let plan =
            assign_blocks(&tiles, BatchingHeuristic::Threshold, &th, sol.thread_count.threads());
        let kd = lower_plan("test", &plan, &shapes);
        assert_eq!(kd.blocks.len(), plan.num_blocks());
        assert_eq!(kd.footprint.threads, sol.thread_count.threads());
        assert_eq!(kd.bubble_blocks(), 0, "coordinated plans have no bubbles");
        // Each block's passes are its tiles' passes, in plan order.
        assert_eq!(kd.passes.len(), plan.num_tiles());
        for (b, bw) in kd.blocks.iter().enumerate() {
            let tiles = plan.tile[b]..plan.tile[b + 1];
            assert_eq!(bw.passes.start as usize..bw.passes.end as usize, tiles.clone());
            for (t, pass) in tiles.zip(kd.block_passes(bw)) {
                let tile = plan.tile_task(t, &shapes);
                assert_eq!(*pass, tile_pass(&tile.strategy, tile.k));
            }
            assert_eq!(bw.active_threads, plan.threads);
        }
    }

    #[test]
    fn footprint_takes_worst_case_resources() {
        let small = batched(StrategyKind::Small, ThreadCount::T256);
        let huge = batched(StrategyKind::Huge, ThreadCount::T256);
        let tiles = vec![
            TileTask { gemm: 0, y: 0, x: 0, k: 8, strategy: small },
            TileTask { gemm: 1, y: 0, x: 0, k: 8, strategy: huge },
        ];
        let plan = ctb_batching::BatchPlan::from_blocks(&[tiles], 256);
        let shapes = vec![GemmShape::new(16, 16, 8), GemmShape::new(128, 128, 8)];
        let kd = lower_plan("mix", &plan, &shapes);
        assert_eq!(kd.footprint.smem_bytes, huge.smem_bytes());
        assert_eq!(kd.footprint.regs_per_thread, huge.regs_per_thread());
    }
}

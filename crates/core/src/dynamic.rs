//! Dynamic-queue batching — a persistent-threads extension beyond the
//! paper's two static heuristics.
//!
//! The paper's programming interface (§6) is built on persistent threads
//! and its auxiliary arrays "can describe any possible batching
//! schemes". One scheme its heuristics never produce is the classic
//! *work queue*: launch exactly as many persistent blocks as the device
//! can keep resident and let each block pull the next tile when it
//! finishes its current one. Dynamic self-scheduling equalises finish
//! times under heterogeneous tile costs (variable K), where static
//! threshold/binary batching can leave stragglers.
//!
//! We plan the queue statically with the equivalent greedy rule —
//! longest-estimated-tile-first onto the earliest-available worker
//! (LPT) — which reproduces what the runtime queue converges to, and
//! encode the result in the ordinary five-array [`BatchPlan`], so the
//! functional interpreter and the simulator run it unchanged.

use ctb_batching::{tiles_for, BatchPlan, TileTask};
use ctb_gpu_specs::{occupancy, ArchSpec, BlockFootprint, Thresholds};
use ctb_matrix::GemmShape;
use ctb_tiling::{select_tiling, TilingSolution};

/// Relative cost estimate of one tile: main-loop iterations × per
/// -iteration work (the C-tile area drives FMA count; Eq 3 without the
/// thread normalisation).
fn tile_cost(t: &TileTask) -> u64 {
    let iterations = t.k.div_ceil(t.strategy.bk).max(1) as u64;
    iterations * (t.strategy.by * t.strategy.bx) as u64
}

/// Number of persistent workers: the device's residency slot capacity
/// for the solution's worst footprint, capped by the tile count.
pub fn worker_count(arch: &ArchSpec, solution: &TilingSolution, tiles: usize) -> usize {
    let mut regs = 16u32;
    let mut smem = 0u32;
    for st in &solution.per_gemm {
        regs = regs.max(st.regs_per_thread());
        smem = smem.max(st.smem_bytes());
    }
    let fp = BlockFootprint::new(solution.thread_count.threads(), regs, smem);
    let occ = occupancy::occupancy(arch, &fp);
    ((arch.sms * occ.blocks_per_sm.max(1)) as usize).min(tiles).max(1)
}

/// Assign tiles to `workers` persistent blocks by LPT greedy: sort by
/// descending estimated cost, each tile goes to the worker with the
/// least accumulated cost.
pub fn lpt_assign(tiles: &[TileTask], workers: usize) -> Vec<Vec<TileTask>> {
    assert!(workers >= 1, "need at least one worker");
    let mut order: Vec<&TileTask> = tiles.iter().collect();
    order.sort_by_key(|t| std::cmp::Reverse(tile_cost(t)));
    let mut blocks: Vec<Vec<TileTask>> = vec![Vec::new(); workers.min(tiles.len()).max(1)];
    let mut loads: Vec<u64> = vec![0; blocks.len()];
    for t in order {
        let (w, _) = loads.iter().enumerate().min_by_key(|(_, &l)| l).expect("non-empty");
        blocks[w].push(*t);
        loads[w] += tile_cost(t);
    }
    blocks.retain(|b| !b.is_empty());
    blocks
}

/// Plan a batch with the dynamic-queue scheme: paper tiling engine, LPT
/// tile assignment onto a persistent worker set whose size is auto-tuned
/// by simulation (full residency capacity down to a handful of workers —
/// fewer, longer-lived workers win when a few heavy tiles dominate).
/// Returns the solution, the winning plan and its simulated time (µs).
pub fn plan_dynamic(
    arch: &ArchSpec,
    shapes: &[GemmShape],
    thresholds: &Thresholds,
) -> (TilingSolution, BatchPlan, f64) {
    use crate::lowering::lower_plan;
    use ctb_sim::{simulate, LaunchSequence};
    let solution = select_tiling(shapes, thresholds);
    let tiles = tiles_for(shapes, &solution);
    let capacity = worker_count(arch, &solution, tiles.len());
    let mut candidates = vec![capacity];
    let mut w = capacity;
    while w > arch.sms as usize && w > 1 {
        w /= 2;
        candidates.push(w.max(1));
    }
    candidates.push((tiles.len() / 2).clamp(1, capacity));
    candidates.sort_unstable();
    candidates.dedup();

    let mut best: Option<(f64, BatchPlan)> = None;
    for workers in candidates {
        let blocks = lpt_assign(&tiles, workers);
        let plan = BatchPlan::from_blocks(&blocks, solution.thread_count.threads());
        let kd = lower_plan("dynamic_queue", &plan, shapes);
        let us = simulate(arch, &LaunchSequence::Single(kd)).total_us;
        if best.as_ref().is_none_or(|(b, _)| us < *b) {
            best = Some((us, plan));
        }
    }
    let (us, plan) = best.expect("at least one candidate");
    (solution, plan, us)
}

/// Simulated time of the dynamic-queue plan (µs), for comparisons.
pub fn simulate_dynamic(arch: &ArchSpec, shapes: &[GemmShape], thresholds: &Thresholds) -> f64 {
    let (solution, plan, us) = plan_dynamic(arch, shapes, thresholds);
    debug_assert!(plan.validate(shapes, &solution).is_ok());
    us
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (ArchSpec, Thresholds) {
        let arch = ArchSpec::volta_v100();
        let th = Thresholds::for_arch(&arch);
        (arch, th)
    }

    #[test]
    fn lpt_balances_heterogeneous_loads() {
        use ctb_tiling::strategy::{batched, StrategyKind, ThreadCount};
        let st = batched(StrategyKind::Small, ThreadCount::T256);
        // Tiles with wildly different K.
        let tiles: Vec<TileTask> = (0..16)
            .map(|i| TileTask {
                gemm: 0,
                y: i,
                x: 0,
                k: if i == 0 { 4096 } else { 64 },
                strategy: st,
            })
            .collect();
        let blocks = lpt_assign(&tiles, 4);
        assert_eq!(blocks.iter().map(Vec::len).sum::<usize>(), 16);
        // The monster tile must sit alone-ish: its worker gets few
        // others.
        let monster_block = blocks.iter().find(|b| b.iter().any(|t| t.k == 4096)).unwrap();
        assert!(monster_block.len() <= 2, "monster block has {} tiles", monster_block.len());
    }

    #[test]
    fn dynamic_plan_validates_and_computes_correctly() {
        use ctb_matrix::{assert_bitwise_eq, GemmBatch};
        let (arch, th) = setup();
        let shapes = vec![
            GemmShape::new(48, 40, 512),
            GemmShape::new(17, 65, 33),
            GemmShape::new(96, 96, 128),
        ];
        let (sol, plan, _) = plan_dynamic(&arch, &shapes, &th);
        plan.validate(&shapes, &sol).expect("valid plan");
        let batch = GemmBatch::random(&shapes, 1.0, 0.5, 77);
        let got = crate::interface::execute_plan(&batch, &plan);
        assert_bitwise_eq(&batch.reference_result_exact(), &got, "dynamic plan");
    }

    #[test]
    fn dynamic_queue_handles_heterogeneous_k_well() {
        // A batch mixing K = 32 and K = 2048 tiles: LPT should be at
        // least competitive with the best static heuristic.
        let (arch, th) = setup();
        let mut shapes = vec![GemmShape::new(64, 64, 2048); 4];
        shapes.extend(vec![GemmShape::new(64, 64, 32); 28]);
        let dynamic = simulate_dynamic(&arch, &shapes, &th);
        let static_best = crate::Framework::new(arch.clone()).plan(&shapes).unwrap().predicted_us;
        assert!(dynamic <= static_best * 1.25, "dynamic {dynamic} vs best static {static_best}");
    }

    #[test]
    fn worker_count_respects_device_capacity() {
        let (arch, th) = setup();
        let shapes = vec![GemmShape::new(2048, 2048, 64); 4];
        let sol = select_tiling(&shapes, &th);
        let tiles = tiles_for(&shapes, &sol);
        let w = worker_count(&arch, &sol, tiles.len());
        assert!(w >= arch.sms as usize, "at least one worker per SM, got {w}");
        assert!(w <= tiles.len());
        // A tiny batch never gets more workers than tiles.
        let tiny = vec![GemmShape::new(16, 16, 8)];
        let sol = select_tiling(&tiny, &th);
        assert_eq!(worker_count(&arch, &sol, 1), 1);
    }
}

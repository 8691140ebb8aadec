//! Split-K execution — an extension beyond the paper.
//!
//! The paper's batching engine improves ILP when K is *small* by giving
//! a block several tiles. The dual problem — K is *large* but M·N (and
//! hence the tile count) is tiny — leaves the device TLP-starved no
//! matter how tiles are batched: a 64×64×8192 GEMM has one `large` tile.
//! The classic remedy (as in CUTLASS's `splitK` mode, cited by the paper
//! as related work) is to split each tile's K range across several
//! blocks that produce partial sums, then reduce.
//!
//! This module implements split-K on top of the same tiling engine and
//! cost model: a main kernel whose blocks each compute one K-slice of
//! one tile into a workspace, followed by a reduction kernel that
//! combines the partials and applies `alpha`/`beta`. Because each
//! K-slice is summed on its own, split-K reassociates on purpose: it is
//! the one GEMM path checked against the reference GEMM within a
//! tolerance rather than bit for bit.

use crate::lowering::{active_threads_for, tile_pass};
use ctb_batching::{tiles_for, TileTask};
use ctb_gpu_specs::{ArchSpec, BlockFootprint, Thresholds};
use ctb_matrix::{GemmBatch, GemmShape, MatF32};
use ctb_sim::{simulate, KernelDesc, LaunchSequence, SimReport, TilePass};
use ctb_tiling::{select_tiling, TilingSolution};

/// One K-slice of one tile: the unit of work of a split-K block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitTile {
    pub tile: TileTask,
    /// Slice index within the tile's split.
    pub slice: usize,
    /// K range `[k0, k1)` this slice accumulates.
    pub k0: usize,
    pub k1: usize,
}

/// A planned split-K execution.
#[derive(Debug, Clone)]
pub struct SplitKPlan {
    pub solution: TilingSolution,
    pub split: usize,
    pub slices: Vec<SplitTile>,
    /// Main kernel (partial products) + reduction kernel.
    pub sequence: LaunchSequence,
}

/// Split every tile's K range into `split` nearly equal slices
/// (BK-aligned so each slice runs whole main-loop iterations).
pub fn split_tiles(tiles: &[TileTask], split: usize) -> Vec<SplitTile> {
    assert!(split >= 1, "split must be at least 1");
    let mut out = Vec::with_capacity(tiles.len() * split);
    for &tile in tiles {
        if tile.k == 0 {
            // K = 0 degenerates to a single beta-scaling slice.
            out.push(SplitTile { tile, slice: 0, k0: 0, k1: 0 });
            continue;
        }
        let bk = tile.strategy.bk;
        // Distribute whole BK chunks across slices; empty slices are
        // dropped (tiny K).
        let per_slice = tile.k.div_ceil(bk).div_ceil(split).max(1);
        let mut k0 = 0usize;
        let mut slice = 0usize;
        while k0 < tile.k {
            let k1 = (k0 + per_slice * bk).min(tile.k);
            out.push(SplitTile { tile, slice, k0, k1 });
            k0 = k1;
            slice += 1;
        }
    }
    out
}

/// Pick a split factor: grow while the plan stays TLP-starved (below
/// half the tiling threshold), capped so each slice keeps at least four
/// main-loop iterations and by `max_split`.
pub fn auto_split(
    shapes: &[GemmShape],
    solution: &TilingSolution,
    thresholds: &Thresholds,
    max_split: usize,
) -> usize {
    let tiles: usize =
        shapes.iter().zip(&solution.per_gemm).map(|(s, st)| st.tiles(s.m, s.n)).sum();
    let min_k = shapes.iter().map(|s| s.k).min().unwrap_or(0);
    let bk = solution.per_gemm.first().map(|st| st.bk).unwrap_or(8);
    let mut split = 1usize;
    while split < max_split
        && (tiles * split * 2) as u64 * solution.thread_count.threads() as u64
            <= thresholds.tlp_threshold
        && min_k / (split * 2) >= 4 * bk
    {
        split *= 2;
    }
    split
}

/// Build the split-K plan for `shapes` with an explicit `split`.
pub fn plan_splitk(
    arch: &ArchSpec,
    shapes: &[GemmShape],
    thresholds: &Thresholds,
    split: usize,
) -> Result<SplitKPlan, String> {
    if shapes.is_empty() {
        return Err("empty batch".into());
    }
    let _ = arch;
    let solution = select_tiling(shapes, thresholds);
    let tiles = tiles_for(shapes, &solution);
    let slices = split_tiles(&tiles, split);

    // Main kernel: one block per slice.
    let mut regs = 16u32;
    let mut smem = 0u32;
    for st in &solution.per_gemm {
        regs = regs.max(st.regs_per_thread());
        smem = smem.max(st.smem_bytes());
    }
    let threads = solution.thread_count.threads();
    let mut main =
        KernelDesc::new(format!("splitk_main_x{split}"), BlockFootprint::new(threads, regs, smem));
    for s in &slices {
        let mut pass = tile_pass(&s.tile.strategy, s.k1 - s.k0);
        // Partials are written unreduced; same store volume.
        pass.iterations = ((s.k1 - s.k0).div_ceil(s.tile.strategy.bk)).max(1) as u32;
        main.push_block(active_threads_for(&s.tile, threads, shapes), [pass]);
    }

    // Reduction kernel: one block per tile, each thread summing its
    // sub-tile across `split` partials and applying alpha/beta.
    let mut reduction = KernelDesc::new("splitk_reduce", BlockFootprint::new(threads, 24, 0));
    for t in &tiles {
        let elems_per_thread = (t.strategy.by * t.strategy.bx) as f64 / threads as f64;
        let pass = TilePass {
            iterations: split.max(1) as u32,
            fma_per_thread: elems_per_thread,
            ld_shared_per_thread: 0.0,
            // One 4-float load per 4 elements per partial.
            ld_global_per_thread: elems_per_thread / 4.0,
            aux_per_thread: 2.0,
            epilogue_stores: (elems_per_thread / 4.0).max(1.0),
        };
        reduction.push_block(active_threads_for(t, threads, shapes), [pass]);
    }

    let sequence = if split <= 1 {
        LaunchSequence::Single(main)
    } else {
        LaunchSequence::Serial(vec![main, reduction])
    };
    Ok(SplitKPlan { solution, split, slices, sequence })
}

/// Functionally execute a split-K plan: partial products per slice,
/// reduction, then `C = alpha·Σ + beta·C₀`.
pub fn execute_splitk(batch: &GemmBatch, plan: &SplitKPlan) -> Vec<MatF32> {
    use rayon::prelude::*;

    // Partial products, one per slice (workspace).
    struct Partial {
        gemm: usize,
        y0: usize,
        x0: usize,
        rows: usize,
        cols: usize,
        data: Vec<f32>,
    }
    let partials: Vec<Partial> = plan
        .slices
        .par_iter()
        .map(|s| {
            let shape = batch.shapes[s.tile.gemm];
            let (a, b) = (&batch.a[s.tile.gemm], &batch.b[s.tile.gemm]);
            let st = &s.tile.strategy;
            let y0 = s.tile.y * st.by;
            let x0 = s.tile.x * st.bx;
            let rows = (shape.m - y0).min(st.by);
            let cols = (shape.n - x0).min(st.bx);
            let mut acc = vec![0.0f32; rows * cols];
            for p in s.k0..s.k1 {
                for i in 0..rows {
                    let av = a.get(y0 + i, p);
                    let brow = &b.as_slice()[p * shape.n + x0..p * shape.n + x0 + cols];
                    let dst = &mut acc[i * cols..(i + 1) * cols];
                    for (d, &bv) in dst.iter_mut().zip(brow) {
                        *d += av * bv;
                    }
                }
            }
            Partial { gemm: s.tile.gemm, y0, x0, rows, cols, data: acc }
        })
        .collect();

    // Reduction: sum the partials of each tile, then alpha/beta.
    let mut out: Vec<MatF32> = batch
        .c
        .iter()
        .map(|c| {
            let mut m = c.clone();
            for v in m.as_mut_slice() {
                *v *= batch.beta;
            }
            m
        })
        .collect();
    for p in partials {
        let n = out[p.gemm].cols();
        let buf = out[p.gemm].as_mut_slice();
        for i in 0..p.rows {
            let dst = &mut buf[(p.y0 + i) * n + p.x0..(p.y0 + i) * n + p.x0 + p.cols];
            for (d, &v) in dst.iter_mut().zip(&p.data[i * p.cols..(i + 1) * p.cols]) {
                *d += batch.alpha * v;
            }
        }
    }
    out
}

/// Plan, execute and time a split-K run.
pub fn run_splitk(
    arch: &ArchSpec,
    batch: &GemmBatch,
    split: usize,
) -> Result<(Vec<MatF32>, SimReport), String> {
    batch.validate()?;
    let thresholds = Thresholds::for_arch(arch);
    let plan = plan_splitk(arch, &batch.shapes, &thresholds, split)?;
    let results = execute_splitk(batch, &plan);
    let report = simulate(arch, &plan.sequence);
    Ok((results, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctb_matrix::assert_all_close;

    fn v100() -> ArchSpec {
        ArchSpec::volta_v100()
    }

    #[test]
    fn split_tiles_cover_k_exactly() {
        let tiles = tiles_for(
            &[GemmShape::new(64, 64, 100)],
            &select_tiling(&[GemmShape::new(64, 64, 100)], &Thresholds::paper_v100()),
        );
        for split in [1usize, 2, 3, 8] {
            let slices = split_tiles(&tiles, split);
            // Per tile: slices are contiguous, disjoint, and cover [0, K).
            for t in &tiles {
                let mut mine: Vec<&SplitTile> = slices.iter().filter(|s| s.tile == *t).collect();
                mine.sort_by_key(|s| s.k0);
                assert_eq!(mine.first().unwrap().k0, 0);
                assert_eq!(mine.last().unwrap().k1, t.k);
                for w in mine.windows(2) {
                    assert_eq!(w[0].k1, w[1].k0, "slices must tile K");
                }
                assert!(mine.len() <= split);
            }
        }
    }

    #[test]
    fn functional_results_match_reference_for_all_splits() {
        let shapes = vec![GemmShape::new(48, 40, 200), GemmShape::new(17, 65, 33)];
        let batch = GemmBatch::random(&shapes, 0.75, -0.5, 21);
        let expected = batch.reference_result_exact();
        for split in [1usize, 2, 4, 7] {
            let (results, report) = run_splitk(&v100(), &batch, split).expect("runs");
            assert_all_close(&expected, &results, 5e-4);
            assert!(report.total_us > 0.0);
        }
    }

    #[test]
    fn splitk_helps_tlp_starved_large_k_gemms() {
        // One 64x64x8192 GEMM: a single `large` tile. Split-K by 8
        // spreads the K loop over 8 blocks and must beat split 1 in the
        // simulator.
        let arch = v100();
        let shapes = vec![GemmShape::new(64, 64, 8192)];
        let th = Thresholds::for_arch(&arch);
        let t1 = simulate(&arch, &plan_splitk(&arch, &shapes, &th, 1).unwrap().sequence).total_us;
        let t8 = simulate(&arch, &plan_splitk(&arch, &shapes, &th, 8).unwrap().sequence).total_us;
        assert!(t8 < t1, "split 8 ({t8}) should beat split 1 ({t1})");
    }

    #[test]
    fn auto_split_grows_only_when_starved() {
        let arch = v100();
        let th = Thresholds::for_arch(&arch);
        // TLP-starved, huge K: split should exceed 1.
        let starved = vec![GemmShape::new(64, 64, 8192)];
        let sol = select_tiling(&starved, &th);
        assert!(auto_split(&starved, &sol, &th, 16) > 1);
        // Plenty of tiles: no split.
        let wide = vec![GemmShape::new(1024, 1024, 64); 8];
        let sol = select_tiling(&wide, &th);
        assert_eq!(auto_split(&wide, &sol, &th, 16), 1);
        // Small K: splitting would starve the main loop; no split.
        let small_k = vec![GemmShape::new(64, 64, 32)];
        let sol = select_tiling(&small_k, &th);
        assert_eq!(auto_split(&small_k, &sol, &th, 16), 1);
    }

    #[test]
    fn k_zero_degenerates_to_beta_scaling() {
        let shapes = vec![GemmShape::new(16, 16, 0)];
        let batch = GemmBatch::random(&shapes, 1.0, 0.5, 3);
        let (results, _) = run_splitk(&v100(), &batch, 4).expect("runs");
        assert_all_close(&batch.reference_result_exact(), &results, 1e-6);
    }
}

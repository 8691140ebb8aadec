//! The functional executor of the Fig 7 programming interface.
//!
//! A [`BatchPlan`] holds the paper's auxiliary arrays: each thread
//! block's `[Tile[b], Tile[b+1])` range, and each tile's GEMM, strategy
//! id and coordinates. On the GPU every block walks its range and runs
//! the Fig 2 main loop for each tile: accumulate over K, then write back
//! `alpha * acc + beta * C`. Blocks own disjoint C tiles by construction
//! (validated by [`ctb_batching::BatchPlan::validate`]), so the order
//! they run in cannot change a result, and [`execute_plan`] regroups
//! the tiles by output rows instead of by block: each output matrix is
//! split into disjoint row bands, and every band is computed and written
//! by exactly one worker on the rayon pool, with no intermediate tile
//! buffers. The inner loop is an `MR × NR` register-tile kernel over
//! hoisted A-row slices with a row-at-a-time fallback for boundary
//! fringes, built twice and picked once per call for the CPU it runs
//! on: 8×16 with AVX-512F, otherwise a portable 4×8 (the only one built
//! for targets other than x86-64). The alpha/beta epilogue is folded
//! into the single per-worker accumulator pass.
//!
//! Every kernel applies every floating-point operation to each C
//! element in the naive oracle's order (ascending k, then
//! `alpha * acc + beta * c`), so the results are bitwise identical to
//! [`GemmBatch::reference_result_exact`].

use std::cell::RefCell;

use ctb_batching::BatchPlan;
use ctb_matrix::{GemmBatch, MatF32};
use ctb_tiling::TilingStrategy;
use rayon::prelude::*;

thread_local! {
    /// Per-worker accumulator scratch, reused across the tiles one worker
    /// runs within a parallel pass and grown to the largest `by * bx`
    /// seen. The rayon shim spawns fresh threads for every pass over two
    /// or more bands, so each such [`execute_plan`] call allocates it
    /// again per worker; only single-band calls, which run on the
    /// calling thread, keep it across calls.
    static TILE_ACC: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// One row band of one output matrix together with the tiles that land
/// in it. Bands of the same matrix are produced by `chunks_mut`, so
/// ownership is disjoint by construction and the scatter needs no
/// synchronisation.
struct BandJob<'a> {
    gemm: usize,
    /// First matrix row covered by this band.
    y0: usize,
    /// `rows_in_band * n` slice of the output matrix.
    band: &'a mut [f32],
    /// Tile indices (into the plan's flat tile arrays) in this band.
    tiles: Vec<usize>,
}

/// Accumulate one `rows × cols` C tile into `acc` (row-major), reading
/// A rows as hoisted slices. The interior runs an `MR × NR` register
/// tile: each K step broadcasts `MR` A scalars against one contiguous
/// `NR`-wide B row segment, so B is read once per `MR` C rows and the
/// accumulators stay in vector registers. Column and row fringes fall
/// back to one accumulator row segment at a time.
///
/// Every element gets its own multiply and add per k, in ascending k,
/// starting from `0.0`: the naive per-element loop's operation
/// sequence, so every `MR × NR` instantiation is bitwise identical to
/// it. Rust never contracts `av * bv` and `+=` into a fused
/// multiply-add, even where the target feature offers one.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tile_kernel<const MR: usize, const NR: usize>(
    a: &[f32],
    b: &[f32],
    kdim: usize,
    n: usize,
    y0: usize,
    x0: usize,
    rows: usize,
    cols: usize,
    acc: &mut [f32],
) {
    debug_assert_eq!(acc.len(), rows * cols);
    let mut i = 0;
    while i + MR <= rows {
        let ra: [&[f32]; MR] =
            std::array::from_fn(|r| &a[(y0 + i + r) * kdim..(y0 + i + r + 1) * kdim]);
        let mut j = 0;
        while j + NR <= cols {
            // `regs` and `brow` stay in registers (the r- and s-loops
            // fully unroll).
            let mut regs = [[0.0f32; NR]; MR];
            for p in 0..kdim {
                let off = p * n + x0 + j;
                let brow: &[f32; NR] = b[off..off + NR].try_into().unwrap();
                for (regs_r, ar) in regs.iter_mut().zip(&ra) {
                    let av = ar[p];
                    for (reg, &bv) in regs_r.iter_mut().zip(brow) {
                        *reg += av * bv;
                    }
                }
            }
            for (r, regs_r) in regs.iter().enumerate() {
                acc[(i + r) * cols + j..(i + r) * cols + j + NR].copy_from_slice(regs_r);
            }
            j += NR;
        }
        // Column fringe of the `MR`-row band: one accumulator row
        // segment at a time, still ascending-k per element.
        if j < cols {
            for (r, ri) in ra.iter().enumerate() {
                let arow = &mut acc[(i + r) * cols + j..(i + r) * cols + cols];
                for (p, &av) in ri.iter().enumerate() {
                    let brow = &b[p * n + x0 + j..p * n + x0 + cols];
                    for (dst, &bv) in arow.iter_mut().zip(brow) {
                        *dst += av * bv;
                    }
                }
            }
        }
        i += MR;
    }
    // Row fringe (boundary tiles): one accumulator row at a time.
    while i < rows {
        let ri = &a[(y0 + i) * kdim..(y0 + i) * kdim + kdim];
        let arow = &mut acc[i * cols..(i + 1) * cols];
        for (p, &av) in ri.iter().enumerate() {
            let brow = &b[p * n + x0..p * n + x0 + cols];
            for (dst, &bv) in arow.iter_mut().zip(brow) {
                *dst += av * bv;
            }
        }
        i += 1;
    }
}

/// [`tile_kernel`] with an 8 × 16 tile on 512-bit vectors.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
fn tile_kernel_avx512f(
    a: &[f32],
    b: &[f32],
    kdim: usize,
    n: usize,
    y0: usize,
    x0: usize,
    rows: usize,
    cols: usize,
    acc: &mut [f32],
) {
    tile_kernel::<8, 16>(a, b, kdim, n, y0, x0, rows, cols, acc);
}

/// One instantiation of [`tile_kernel`]. The vector variant is built
/// only by [`Kernel::available`], after its CPU feature check passed:
/// the `unsafe` call in [`Kernel::run`] relies on that.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kernel {
    /// 4 × 8 on the baseline target (128-bit SSE2 on x86-64).
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx512f,
}

impl Kernel {
    /// Every kernel this CPU runs, narrowest first.
    fn available() -> Vec<Kernel> {
        #[allow(unused_mut)]
        let mut kernels = vec![Kernel::Portable];
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx512f") {
            kernels.push(Kernel::Avx512f);
        }
        kernels
    }

    /// The widest kernel this CPU runs: the one [`execute_plan`] uses.
    fn detect() -> Kernel {
        *Kernel::available().last().expect("the portable kernel runs everywhere")
    }

    fn name(self) -> &'static str {
        match self {
            Kernel::Portable => "portable 4x8",
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512f => "avx512f 8x16",
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn run(
        self,
        a: &[f32],
        b: &[f32],
        kdim: usize,
        n: usize,
        y0: usize,
        x0: usize,
        rows: usize,
        cols: usize,
        acc: &mut [f32],
    ) {
        match self {
            Kernel::Portable => tile_kernel::<4, 8>(a, b, kdim, n, y0, x0, rows, cols, acc),
            // SAFETY: `Kernel::available` builds `Avx512f` only after
            // `is_x86_feature_detected!("avx512f")` returned true.
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512f => unsafe {
                tile_kernel_avx512f(a, b, kdim, n, y0, x0, rows, cols, acc)
            },
        }
    }
}

/// The tile kernel [`execute_plan`] runs on this CPU, e.g.
/// `"avx512f 8x16"`: the instruction set it is compiled for and its
/// register tile, rows × columns.
pub fn tile_kernel_name() -> &'static str {
    Kernel::detect().name()
}

/// Execute a batch plan with the packed micro-kernel engine.
///
/// The output matrices start as clones of C and are split into disjoint
/// row bands (`chunks_mut` of `band_rows * n` elements). A band is one
/// tile row when every tile of the GEMM carries one strategy id, as
/// [`ctb_tiling::select_tiling`] gives every GEMM, and the whole matrix
/// when a hand-built plan mixes strategies within a GEMM, so each tile
/// lies in one band either way. All bands across all GEMMs form one flat
/// job list executed in a single parallel pass; each job accumulates its
/// tiles, each with its own strategy, in per-worker thread-local scratch
/// and writes `alpha * acc + beta * C` straight into its band — no
/// intermediate tile buffers and no serial scatter. The tile kernel is
/// the widest one this CPU runs ([`tile_kernel_name`]), picked once
/// per call; every kernel gives the same bits.
pub fn execute_plan(batch: &GemmBatch, plan: &BatchPlan) -> Vec<MatF32> {
    let ngemms = batch.shapes.len();

    // Per-GEMM band height: the `by` of its first tile's strategy, or
    // all `m` rows once a tile of another strategy turns up. `None` for
    // a GEMM without tiles.
    let mut sid: Vec<Option<u8>> = vec![None; ngemms];
    let mut band_rows: Vec<Option<usize>> = vec![None; ngemms];
    for t in 0..plan.num_tiles() {
        let (g, id) = (plan.gemm[t], plan.tiling[t]);
        match sid[g] {
            None => {
                sid[g] = Some(id);
                band_rows[g] = Some(TilingStrategy::from_id(id).by);
            }
            Some(s) if s != id => band_rows[g] = Some(batch.shapes[g].m),
            _ => {}
        }
    }

    // Bucket tiles per (GEMM, band).
    let mut buckets: Vec<Vec<Vec<usize>>> = (0..ngemms)
        .map(|g| vec![Vec::new(); band_rows[g].map_or(0, |h| batch.shapes[g].m.div_ceil(h))])
        .collect();
    for t in 0..plan.num_tiles() {
        let g = plan.gemm[t];
        let y0 = plan.y_coord[t] * TilingStrategy::from_id(plan.tiling[t]).by;
        buckets[g][y0 / band_rows[g].expect("tile t's GEMM has a band height")].push(t);
    }

    let mut out: Vec<MatF32> = batch.c.clone();

    // Flatten every (GEMM, band) pair into one job list.
    let mut jobs: Vec<BandJob<'_>> = Vec::new();
    for (g, mat) in out.iter_mut().enumerate() {
        let Some(h) = band_rows[g] else { continue };
        let n = batch.shapes[g].n;
        for (i, band) in mat.as_mut_slice().chunks_mut(h * n).enumerate() {
            let tiles = std::mem::take(&mut buckets[g][i]);
            if tiles.is_empty() {
                continue;
            }
            jobs.push(BandJob { gemm: g, y0: i * h, band, tiles });
        }
    }

    let kernel = Kernel::detect();
    jobs.into_par_iter().for_each(|job| {
        let shape = batch.shapes[job.gemm];
        let a = batch.a[job.gemm].as_slice();
        let b = batch.b[job.gemm].as_slice();
        let (alpha, beta) = (batch.alpha, batch.beta);
        TILE_ACC.with(|cell| {
            let mut acc = cell.borrow_mut();
            for &t in &job.tiles {
                let st = TilingStrategy::from_id(plan.tiling[t]);
                let y0 = plan.y_coord[t] * st.by;
                let x0 = plan.x_coord[t] * st.bx;
                let rows = (shape.m - y0).min(st.by);
                let cols = (shape.n - x0).min(st.bx);
                acc.clear();
                acc.resize(rows * cols, 0.0);
                kernel.run(a, b, shape.k, shape.n, y0, x0, rows, cols, &mut acc);
                // Epilogue folded into the accumulator pass: read the
                // original C from the band, write the result back in
                // place. Each element belongs to exactly one tile, so
                // nothing is read after it is written.
                for i in 0..rows {
                    let base = (y0 - job.y0 + i) * shape.n + x0;
                    let dst = &mut job.band[base..base + cols];
                    let src = &acc[i * cols..(i + 1) * cols];
                    for (d, &s) in dst.iter_mut().zip(src) {
                        *d = alpha * s + beta * *d;
                    }
                }
            }
        });
    });

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctb_batching::{assign_blocks, tiles_for, BatchingHeuristic, TileTask};
    use ctb_gpu_specs::Thresholds;
    use ctb_matrix::{assert_bitwise_eq, GemmShape};
    use ctb_tiling::select_tiling;

    fn run_case(shapes: &[GemmShape], heuristic: BatchingHeuristic, alpha: f32, beta: f32) {
        let th = Thresholds::paper_v100();
        let batch = GemmBatch::random(shapes, alpha, beta, 42);
        let sol = select_tiling(shapes, &th);
        let tiles = tiles_for(shapes, &sol);
        let plan = assign_blocks(&tiles, heuristic, &th, sol.thread_count.threads());
        plan.validate(shapes, &sol).expect("valid plan");
        // The executor accumulates each element in ascending-k order and
        // applies the oracle's epilogue expression, so it matches bitwise.
        let expect = batch.reference_result_exact();
        assert_bitwise_eq(&expect, &execute_plan(&batch, &plan), "packed executor");
    }

    #[test]
    fn worked_example_computes_correct_results() {
        let shapes =
            [GemmShape::new(16, 32, 128), GemmShape::new(64, 64, 64), GemmShape::new(256, 256, 64)];
        for h in [
            BatchingHeuristic::OneTilePerBlock,
            BatchingHeuristic::Threshold,
            BatchingHeuristic::Binary,
        ] {
            run_case(&shapes, h, 1.0, 0.0);
        }
    }

    #[test]
    fn alpha_beta_are_honoured() {
        run_case(&[GemmShape::new(48, 80, 96)], BatchingHeuristic::Threshold, 0.75, -1.5);
    }

    #[test]
    fn non_divisible_sizes_compute_boundary_tiles() {
        run_case(
            &[GemmShape::new(17, 33, 41), GemmShape::new(100, 50, 23)],
            BatchingHeuristic::Binary,
            1.0,
            1.0,
        );
    }

    /// [`execute_plan`] runs a GEMM whose tiles carry different strategy
    /// ids as one band over the whole matrix. No planner makes such a
    /// plan, so this one is built by hand from Table 2 medium (32×32)
    /// and small (16×16) tiles. The 48×32 GEMM is one medium tile over
    /// rows 0–31 and two small tiles over rows 32–47. In the 45×41 GEMM,
    /// small tiles share rows 0–31 with the medium tile at (0, 0): they
    /// sit at (0, 2) and (1, 2), and along the boundary tile row 2. The
    /// 33×40 GEMM between them is tiled with medium tiles only.
    #[test]
    fn mixed_strategy_gemms_are_bitwise_exact() {
        let shapes =
            [GemmShape::new(48, 32, 40), GemmShape::new(33, 40, 24), GemmShape::new(45, 41, 29)];
        let batch = GemmBatch::random(&shapes, 0.75, -1.5, 7);
        let (small, medium) = (TilingStrategy::from_id(0), TilingStrategy::from_id(1));
        assert_eq!([small.by, small.bx, medium.by, medium.bx], [16, 16, 32, 32]);
        let tile =
            |gemm: usize, strategy, y, x| TileTask { gemm, y, x, k: shapes[gemm].k, strategy };
        let plan = BatchPlan::from_blocks(
            &[
                vec![tile(0, medium, 0, 0)],
                vec![tile(0, small, 2, 0), tile(0, small, 2, 1)],
                vec![tile(1, medium, 0, 0), tile(1, medium, 1, 0)],
                vec![tile(1, medium, 0, 1), tile(1, medium, 1, 1)],
                vec![tile(2, small, 0, 2), tile(2, medium, 0, 0), tile(2, small, 1, 2)],
                vec![tile(2, small, 2, 0), tile(2, small, 2, 1), tile(2, small, 2, 2)],
            ],
            small.threads,
        );
        assert_ne!(plan.tiling[0], plan.tiling[1], "GEMM 0 mixes strategies");
        assert_ne!(plan.tiling[7], plan.tiling[8], "GEMM 2 mixes strategies");
        let expect = batch.reference_result_exact();
        assert_bitwise_eq(&expect, &execute_plan(&batch, &plan), "mixed-strategy plan");
    }

    /// Row-major `rows × cols` operand of values in [-1, 1). Of the
    /// lines (rows when `by_row`, columns otherwise), those whose index
    /// is 1 modulo `every` carry a special value at every third k
    /// instead, and those at 2 modulo `every` are zero, so that 0 × ∞
    /// and 0 × NaN reach the results.
    fn operand(rows: usize, cols: usize, by_row: bool, every: usize, seed: u64) -> Vec<f32> {
        // The NaN operand is the one this CPU's arithmetic makes (∞ × 0),
        // so every NaN a result can hold has the same bits. Rust leaves
        // unspecified which payload an operation on two different NaNs
        // returns, and LLVM commutes `fadd` operands: with `f32::NAN`
        // here, the naive loop and every kernel width disagree on the
        // NaN sign bit in release.
        let nan = std::hint::black_box(f32::INFINITY) * std::hint::black_box(0.0);
        let specials =
            [nan, f32::INFINITY, f32::NEG_INFINITY, -0.0, 0.0, 1e-40, f32::MAX, -f32::MAX];
        let mut state = seed;
        let mut out = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let (line, k) = if by_row { (r, c) } else { (c, r) };
                out.push(match line % every {
                    1 if (line + k) % 3 == 0 => specials[(line + k / 3) % specials.len()],
                    2 => 0.0,
                    _ => (state >> 40) as f32 / (1u64 << 23) as f32 - 1.0,
                });
            }
        }
        out
    }

    #[test]
    fn every_kernel_this_cpu_runs_is_bitwise_exact() {
        assert!(1e-40f32.is_subnormal());
        let kernels = Kernel::available();
        assert_eq!(Some(&Kernel::detect()), kernels.last());
        let (y0, x0) = (3, 5);
        let (mut nan, mut inf, mut finite) = (0, 0, 0);
        for kdim in [0, 1, 5, 64] {
            for rows in [1, 3, 4, 7, 8, 9, 16, 17] {
                for cols in [1, 7, 8, 15, 16, 17, 33] {
                    // Rows and columns on every side of the tile, so the
                    // kernel must offset by `y0` and `x0` and stride by `n`.
                    let (m, n) = (y0 + rows + 2, x0 + cols + 3);
                    let a = operand(m, kdim, true, 4, 11);
                    let b = operand(kdim, n, false, 5, 23);
                    let mut naive = vec![0.0f32; rows * cols];
                    for (e, v) in naive.iter_mut().enumerate() {
                        let (i, j) = (y0 + e / cols, x0 + e % cols);
                        for p in 0..kdim {
                            *v += a[i * kdim + p] * b[p * n + j];
                        }
                        nan += usize::from(v.is_nan());
                        inf += usize::from(v.is_infinite());
                        finite += usize::from(v.is_finite());
                    }
                    for kernel in &kernels {
                        let mut acc = vec![0.0f32; rows * cols];
                        kernel.run(&a, &b, kdim, n, y0, x0, rows, cols, &mut acc);
                        for (e, (want, got)) in naive.iter().zip(&acc).enumerate() {
                            assert_eq!(
                                want.to_bits(),
                                got.to_bits(),
                                "{}: {rows}x{cols} tile, K {kdim}, element {e}: \
                                 expected {want:?}, got {got:?}",
                                kernel.name()
                            );
                        }
                    }
                }
            }
        }
        assert!(nan > 0 && inf > 0 && finite > 0, "{nan} NaN, {inf} ±Inf, {finite} finite");
    }

    #[test]
    fn random_variable_batches_match_reference() {
        use ctb_matrix::gen::random_case;
        // Keep it small: correctness, not throughput.
        let shapes: Vec<GemmShape> = random_case(3)
            .into_iter()
            .take(6)
            .map(|s| GemmShape::new(s.m.min(128), s.n.min(128), s.k.min(128)))
            .collect();
        run_case(&shapes, BatchingHeuristic::Threshold, 1.0, 0.5);
        run_case(&shapes, BatchingHeuristic::Binary, 1.0, 0.5);
    }
}

//! The tiling-strategy selection algorithm of §4.2.3.
//!
//! The algorithm trades thread-level parallelism for instruction-level
//! parallelism: starting from the smallest available strategy per GEMM
//! (maximal TLP), it repeatedly enlarges every GEMM's tile while the
//! aggregate TLP (Eq 1) still exceeds an architecture-dependent
//! threshold. Two exceptions from the paper are implemented verbatim:
//!
//! 1. a GEMM whose queue has a single remaining strategy keeps it
//!    (`top` instead of `pop`), so every GEMM always has a strategy;
//! 2. if *all* queues are exhausted while TLP is still above the
//!    threshold, the algorithm restarts with the 128-thread versions,
//!    trading further TLP for per-thread work.

use crate::model::tlp;
use crate::strategy::{batched, StrategyKind, ThreadCount, TilingStrategy};
use ctb_gpu_specs::Thresholds;
use ctb_matrix::GemmShape;

/// The tiling engine's output: one strategy per GEMM, all sharing the
/// same thread-block size (the unified thread structure of §4.1).
#[derive(Debug, Clone, PartialEq)]
pub struct TilingSolution {
    /// The unified thread count (128 or 256) shared by every block.
    pub thread_count: ThreadCount,
    /// Strategy chosen for each GEMM, parallel to the input shapes.
    pub per_gemm: Vec<TilingStrategy>,
    /// Aggregate TLP (Eq 1) of the final solution.
    pub tlp: u64,
}

/// Availability rule of §4.2.3 step 1: the Table 2 strategies (of one
/// thread-count version) whose tile fits the GEMM, smallest first.
/// Falls back to `small` when nothing fits (e.g. `M < 16`), so every
/// GEMM always has at least one strategy.
pub fn available(shape: &GemmShape, tc: ThreadCount) -> Vec<TilingStrategy> {
    let mut q: Vec<TilingStrategy> = StrategyKind::ALL
        .iter()
        .map(|&k| batched(k, tc))
        .filter(|st| st.fits(shape.m, shape.n))
        .collect();
    if q.is_empty() {
        q.push(batched(StrategyKind::Small, tc));
    }
    q
}

/// Run one pass of steps 2–3 for a fixed thread-count version, handing
/// `round` every candidate solution: its strategies, its aggregate TLP
/// and whether it was accepted.
///
/// Returns `Ok(solution)` once TLP drops to (or below) the threshold, or
/// `Err(solution_at_exhaustion)` when every queue is down to one entry
/// while TLP is still above the threshold.
fn select_pass(
    shapes: &[GemmShape],
    tc: ThreadCount,
    threshold: u64,
    round: &mut impl FnMut(ThreadCount, &[TilingStrategy], u64, bool),
) -> Result<TilingSolution, TilingSolution> {
    let queues: Vec<Vec<TilingStrategy>> = shapes.iter().map(|s| available(s, tc)).collect();
    // Index of the current strategy within each queue; step 2's first
    // "pop" yields the front element.
    let mut idx = vec![0usize; shapes.len()];
    let mut current: Vec<TilingStrategy> = queues.iter().map(|q| q[0]).collect();
    loop {
        let current_tlp = tlp(shapes, &current);
        let accepted = current_tlp <= threshold;
        round(tc, &current, current_tlp, accepted);
        if accepted {
            return Ok(TilingSolution { thread_count: tc, per_gemm: current, tlp: current_tlp });
        }
        // Step 3: TLP is above the threshold — advance every queue that
        // still has more than one remaining strategy (exception 1).
        let mut advanced = false;
        for (i, q) in queues.iter().enumerate() {
            if idx[i] + 1 < q.len() {
                idx[i] += 1;
                current[i] = q[idx[i]];
                advanced = true;
            }
        }
        if !advanced {
            // Exception 2: all queues exhausted, TLP still too high.
            return Err(TilingSolution { thread_count: tc, per_gemm: current, tlp: current_tlp });
        }
    }
}

/// §4.2.3 — select a tiling strategy for every GEMM in the batch.
///
/// ```
/// use ctb_gpu_specs::Thresholds;
/// use ctb_matrix::GemmShape;
/// use ctb_tiling::{select_tiling, StrategyKind};
///
/// // The paper's worked example.
/// let shapes = [
///     GemmShape::new(16, 32, 128),
///     GemmShape::new(64, 64, 64),
///     GemmShape::new(256, 256, 64),
/// ];
/// let solution = select_tiling(&shapes, &Thresholds::paper_v100());
/// assert_eq!(solution.tlp, 17_920);
/// assert_eq!(solution.per_gemm[0].kind, StrategyKind::Small);
/// ```
///
/// Starts with the 256-thread versions (more TLP); switches to the
/// 128-thread versions when the 256-thread queues are exhausted with TLP
/// still above `thresholds.tlp_threshold`. If the 128-thread pass also
/// exhausts, the largest 128-thread solution is returned — the GEMMs are
/// big enough that ILP is the only thing left to optimise.
pub fn select_tiling(shapes: &[GemmShape], thresholds: &Thresholds) -> TilingSolution {
    select_tiling_with(shapes, thresholds, &mut |_, _, _, _| {})
}

/// [`select_tiling`], handing `round` every candidate of the walk in
/// order: its thread-count version, strategies, aggregate TLP and
/// whether it was accepted.
pub(crate) fn select_tiling_with(
    shapes: &[GemmShape],
    thresholds: &Thresholds,
    round: &mut impl FnMut(ThreadCount, &[TilingStrategy], u64, bool),
) -> TilingSolution {
    assert!(!shapes.is_empty(), "empty batch");
    let threshold = thresholds.tlp_threshold;
    match select_pass(shapes, ThreadCount::T256, threshold, round) {
        Ok(sol) => sol,
        Err(_) => {
            select_pass(shapes, ThreadCount::T128, threshold, round).unwrap_or_else(|sol| sol)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v100_thresholds() -> Thresholds {
        Thresholds::paper_v100()
    }

    #[test]
    fn worked_example_matches_paper() {
        // §4.2.3: GEMMs 16x32x128, 64x64x64, 256x256x64 on V100.
        // First solution (small, small, small) has TLP 70144 > 65536;
        // second (small, medium, medium) has TLP 17920 and is accepted.
        let shapes = [
            GemmShape::new(16, 32, 128),
            GemmShape::new(64, 64, 64),
            GemmShape::new(256, 256, 64),
        ];
        // Reproduce the paper's intermediate TLP numbers.
        let small = batched(StrategyKind::Small, ThreadCount::T256);
        let medium = batched(StrategyKind::Medium, ThreadCount::T256);
        assert_eq!(tlp(&shapes, &[small, small, small]), 70_144);
        assert_eq!(tlp(&shapes, &[small, medium, medium]), 17_920);

        let sol = select_tiling(&shapes, &v100_thresholds());
        assert_eq!(sol.thread_count, ThreadCount::T256);
        assert_eq!(
            sol.per_gemm.iter().map(|s| s.kind).collect::<Vec<_>>(),
            vec![StrategyKind::Small, StrategyKind::Medium, StrategyKind::Medium]
        );
        assert_eq!(sol.tlp, 17_920);
    }

    #[test]
    fn availability_follows_stated_rule() {
        // Paper's stated rule is BY <= M and BX <= N (see DESIGN.md §6
        // for the worked-example discrepancy).
        let a = available(&GemmShape::new(16, 32, 128), ThreadCount::T256);
        assert_eq!(a.iter().map(|s| s.kind).collect::<Vec<_>>(), vec![StrategyKind::Small]);

        let a = available(&GemmShape::new(64, 64, 64), ThreadCount::T256);
        assert_eq!(
            a.iter().map(|s| s.kind).collect::<Vec<_>>(),
            vec![StrategyKind::Small, StrategyKind::Medium, StrategyKind::Large]
        );

        let a = available(&GemmShape::new(256, 256, 64), ThreadCount::T256);
        assert_eq!(a.len(), 6);
    }

    #[test]
    fn tiny_gemm_falls_back_to_small() {
        let a = available(&GemmShape::new(8, 8, 8), ThreadCount::T256);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].kind, StrategyKind::Small);
        // And the full algorithm still returns a solution.
        let sol = select_tiling(&[GemmShape::new(8, 8, 8)], &v100_thresholds());
        assert_eq!(sol.per_gemm[0].kind, StrategyKind::Small);
    }

    #[test]
    fn low_tlp_batch_keeps_smallest_tiles() {
        // A handful of small GEMMs can never exceed the threshold, so
        // the smallest (max-TLP) solution is selected immediately.
        let shapes = vec![GemmShape::new(64, 64, 64); 4];
        let sol = select_tiling(&shapes, &v100_thresholds());
        assert!(sol.per_gemm.iter().all(|s| s.kind == StrategyKind::Small));
        assert_eq!(sol.thread_count, ThreadCount::T256);
    }

    #[test]
    fn huge_batch_falls_through_to_128_threads() {
        // Many big GEMMs: even all-huge 256-thread tiling keeps TLP above
        // the threshold, so the algorithm switches to 128-thread
        // versions (exception 2).
        let shapes = vec![GemmShape::new(2048, 2048, 64); 16];
        let sol = select_tiling(&shapes, &v100_thresholds());
        assert_eq!(sol.thread_count, ThreadCount::T128);
        // With tiles so plentiful the 128-pass also exhausts at huge.
        assert!(sol.per_gemm.iter().all(|s| s.kind == StrategyKind::Huge));
    }

    #[test]
    fn solution_always_fits_or_is_small_fallback() {
        use ctb_matrix::gen::random_case;
        for seed in 0..40 {
            let shapes = random_case(seed);
            let sol = select_tiling(&shapes, &v100_thresholds());
            assert_eq!(sol.per_gemm.len(), shapes.len());
            for (sh, st) in shapes.iter().zip(&sol.per_gemm) {
                assert!(
                    st.fits(sh.m, sh.n) || st.kind == StrategyKind::Small,
                    "{st} does not fit {sh}"
                );
                assert_eq!(st.threads, sol.thread_count.threads());
            }
        }
    }

    #[test]
    fn tlp_of_solution_is_reported_consistently() {
        let shapes = vec![GemmShape::new(128, 128, 128); 8];
        let sol = select_tiling(&shapes, &v100_thresholds());
        assert_eq!(sol.tlp, tlp(&shapes, &sol.per_gemm));
    }
}

//! The candidate builder and its simulation memo.
//!
//! Every planner — the framework's batching policies, the autotuner and
//! the selector's labelling oracle — evaluates `(tiling solution,
//! batching heuristic)` candidates through one builder,
//! `SimMemo::candidate`: `assign_blocks → lower_plan → simulate`. One
//! layout runs through it, the flat prefix arrays of the paper's Fig 6:
//! `assign_blocks` writes the plan's five arrays, `lower_plan` writes
//! one array of tile passes with a thread count and pass range per
//! block, and the simulator reads them without allocating per block or
//! per pass. The simulated time of a candidate is a pure
//! function of the architecture, the thresholds, the batch shapes, the
//! per-GEMM strategy ids (plus the unified thread count) and the
//! heuristic. [`SimMemo`] caches simulated times under exactly that
//! key, so revisited candidates — coordinate descent re-proposing a
//! strategy, clamped uniform passes that collapse to the same
//! assignment, a re-plan after a plan-cache clear — skip the lowering
//! and the simulator run. The memo lives only in memory: a cluster
//! checkpoint stores the predictions, and restore replans them cold.
//!
//! Memoization never changes a computed time: a hit returns the exact
//! `f64` the builder produced when the key was first seen.

use crate::hash::{fnv1a, fnv1a_shapes, FNV_OFFSET};
use crate::lowering::lower_plan;
use ctb_batching::{assign_blocks, BatchPlan, BatchingHeuristic, TileTask};
use ctb_gpu_specs::{ArchSpec, Thresholds};
use ctb_matrix::GemmShape;
use ctb_sim::{simulate, KernelDesc, LaunchSequence};
use ctb_tiling::TilingSolution;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Name of every kernel the builder lowers.
pub(crate) const KERNEL_NAME: &str = "coordinated_batched_gemm";

/// Identity of one simulated candidate plan.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct SimKey {
    /// Fingerprint of the evaluation context: architecture, thresholds
    /// and the shape list (order-sensitive — tile enumeration is
    /// order-dependent).
    context: u64,
    /// Unified thread count of the solution.
    threads: u32,
    /// Table 2 strategy id per GEMM.
    strategies: Vec<u8>,
    heuristic: BatchingHeuristic,
}

/// FNV-1a of an architecture name and thresholds: the prefix of every
/// planning-context fingerprint.
pub(crate) fn arch_fingerprint(arch: &ArchSpec, thresholds: &Thresholds) -> u64 {
    let h = fnv1a(FNV_OFFSET, arch.name.as_bytes());
    let h = fnv1a(h, &thresholds.tlp_threshold.to_le_bytes());
    fnv1a(h, &thresholds.theta.to_le_bytes())
}

/// Fingerprint of an `(arch, thresholds, shapes)` evaluation context.
fn context_fingerprint(arch: &ArchSpec, thresholds: &Thresholds, shapes: &[GemmShape]) -> u64 {
    fnv1a_shapes(arch_fingerprint(arch, thresholds), shapes)
}

/// One candidate plan, as built by [`SimMemo::candidate`].
#[derive(Debug)]
pub(crate) struct Candidate {
    pub heuristic: BatchingHeuristic,
    pub plan: BatchPlan,
    /// The lowered plan; `None` when the memo already held the time and
    /// the builder skipped lowering.
    pub kernel: Option<KernelDesc>,
    /// `simulate(arch, &LaunchSequence::Single(kernel)).total_us`.
    pub us: f64,
}

/// A concurrent memo table of candidate simulated times.
#[derive(Debug, Default)]
pub struct SimMemo {
    map: Mutex<HashMap<SimKey, f64>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl SimMemo {
    pub fn new() -> Self {
        SimMemo::default()
    }

    /// Build the `heuristic` candidate for `solution`, whose tiles are
    /// `tiles`: assign the tiles to blocks, then lower and simulate the
    /// plan unless the memo already holds its time. Each distinct key
    /// is simulated at most once.
    pub(crate) fn candidate(
        &self,
        arch: &ArchSpec,
        thresholds: &Thresholds,
        shapes: &[GemmShape],
        solution: &TilingSolution,
        tiles: &[TileTask],
        heuristic: BatchingHeuristic,
    ) -> Candidate {
        let threads = solution.thread_count.threads();
        let plan = assign_blocks(tiles, heuristic, thresholds, threads);
        let key = SimKey {
            context: context_fingerprint(arch, thresholds, shapes),
            threads,
            strategies: solution.per_gemm.iter().map(|st| st.id()).collect(),
            heuristic,
        };
        if let Some(&us) = self.map.lock().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Candidate { heuristic, plan, kernel: None, us };
        }
        let launch = LaunchSequence::Single(lower_plan(KERNEL_NAME, &plan, shapes));
        let us = simulate(arch, &launch).total_us;
        let LaunchSequence::Single(kernel) = launch else {
            unreachable!("built as a single launch")
        };
        // Two workers can race on the same fresh key; both compute the
        // identical deterministic value. Only the first insert counts as
        // a miss (so `misses == len()` holds even under races); a loser
        // is answered by the winner's entry and counts as a hit.
        let us = match self.map.lock().entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                *e.get()
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                *v.insert(us)
            }
        };
        Candidate { heuristic, plan, kernel: Some(kernel), us }
    }

    /// Lookups answered from the table (including racers that computed
    /// a value concurrently but lost the insert).
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that populated the table: `misses() == len()` always,
    /// even when concurrent callers race on a fresh key.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Distinct candidate keys cached.
    pub fn len(&self) -> usize {
        self.map.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctb_batching::tiles_for;
    use ctb_tiling::select_tiling;

    fn setup() -> (ArchSpec, Thresholds, Vec<GemmShape>) {
        let arch = ArchSpec::volta_v100();
        let th = Thresholds::for_arch(&arch);
        let shapes = vec![GemmShape::new(48, 64, 96), GemmShape::new(16, 32, 128)];
        (arch, th, shapes)
    }

    const HEURISTICS: [BatchingHeuristic; 3] = [
        BatchingHeuristic::OneTilePerBlock,
        BatchingHeuristic::Threshold,
        BatchingHeuristic::Binary,
    ];

    /// `memo`'s simulated time for `h` on the tiling engine's solution.
    fn time(
        memo: &SimMemo,
        arch: &ArchSpec,
        th: &Thresholds,
        shapes: &[GemmShape],
        h: BatchingHeuristic,
    ) -> f64 {
        let sol = select_tiling(shapes, th);
        memo.candidate(arch, th, shapes, &sol, &tiles_for(shapes, &sol), h).us
    }

    #[test]
    fn memo_returns_identical_times_to_uncached_simulation() {
        let (arch, th, shapes) = setup();
        let sol = select_tiling(&shapes, &th);
        let tiles = tiles_for(&shapes, &sol);
        let memo = SimMemo::new();
        for h in HEURISTICS {
            let first = memo.candidate(&arch, &th, &shapes, &sol, &tiles, h);
            let second = memo.candidate(&arch, &th, &shapes, &sol, &tiles, h);
            // A miss lowers the plan and simulates it; a hit replays the
            // stored f64 and skips the lowering.
            let kernel = first.kernel.expect("a miss lowers the plan");
            let simulated = simulate(&arch, &LaunchSequence::Single(kernel)).total_us;
            assert_eq!(simulated.to_bits(), first.us.to_bits());
            assert_eq!(simulated.to_bits(), second.us.to_bits());
            assert!(second.kernel.is_none(), "a hit skips the lowering");
            assert_eq!(first.plan, second.plan);
        }
        assert_eq!(memo.misses(), 3);
        assert_eq!(memo.hits(), 3);
        assert_eq!(memo.len(), 3);
    }

    #[test]
    fn distinct_contexts_do_not_collide() {
        let (arch, th, shapes) = setup();
        let memo = SimMemo::new();
        let a = time(&memo, &arch, &th, &shapes, BatchingHeuristic::Threshold);
        // The same shapes under a different architecture must be a miss.
        let pascal = ArchSpec::pascal_p100();
        let th_p = Thresholds::for_arch(&pascal);
        let b = time(&memo, &pascal, &th_p, &shapes, BatchingHeuristic::Threshold);
        assert_eq!(memo.misses(), 2, "different arch is a different key");
        assert!(a != b || memo.len() == 2);
    }
}

//! The candidate builder and its simulation memo.
//!
//! Every planner — the framework's batching policies, the autotuner and
//! the selector's labelling oracle — evaluates `(tiling solution,
//! batching heuristic)` candidates through one builder,
//! `SimMemo::candidate`: `assign_blocks → BatchPlan::from_blocks →
//! lower_plan → simulate`. The simulated time of a candidate is a pure
//! function of the architecture, the thresholds, the batch shapes, the
//! per-GEMM strategy ids (plus the unified thread count) and the
//! heuristic. [`SimMemo`] caches simulated times under exactly that
//! key, so revisited candidates — coordinate descent re-proposing a
//! strategy, clamped uniform passes that collapse to the same
//! assignment, a re-plan after a plan-cache clear or a savestate
//! restore — skip the lowering and the simulator run.
//!
//! Memoization never changes a computed time: a hit returns the exact
//! `f64` the builder produced when the key was first seen.

use crate::hash::{fnv1a, fnv1a_shapes, FNV_OFFSET};
use crate::lowering::lower_plan;
use ctb_batching::{assign_blocks, BatchPlan, BatchingHeuristic, TileTask};
use ctb_gpu_specs::{ArchSpec, Thresholds};
use ctb_matrix::GemmShape;
use ctb_savestate::{savestate_struct, Reader, Savestate, SavestateError, Writer};
use ctb_sim::{simulate, KernelDesc, LaunchSequence};
use ctb_tiling::TilingSolution;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Name of every kernel the builder lowers.
pub(crate) const KERNEL_NAME: &str = "coordinated_batched_gemm";

/// Identity of one simulated candidate plan. Ordered field by field,
/// which is the order [`SimMemo::save`] writes entries in.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
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

savestate_struct!(SimKey { context, threads, strategies, heuristic });

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
        let blocks = assign_blocks(tiles, heuristic, thresholds, threads);
        let plan = BatchPlan::from_blocks(&blocks, threads);
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

    /// Serialize every cached `(key, simulated µs)` entry plus the
    /// hit/miss counters. Entries are written sorted by key so the
    /// blob is independent of `HashMap` iteration order (save → load →
    /// save is byte-identical).
    pub fn save(&self, w: &mut Writer) {
        let map = self.map.lock();
        let mut entries: Vec<(&SimKey, &f64)> = map.iter().collect();
        entries.sort_by_key(|&(k, _)| k);
        w.len_prefix(entries.len());
        for (k, us) in entries {
            k.save(w);
            us.save(w);
        }
        self.hits().save(w);
        self.misses().save(w);
    }

    /// Load entries saved by [`SimMemo::save`] into this memo and
    /// force the counters to the saved values. Restored times are the
    /// exact `f64` bit patterns the original computed, so every
    /// post-restore simulation that hits the memo replays the original
    /// run bitwise. A blob whose keys are not strictly ascending, as
    /// `save` writes them, is [`SavestateError::Corrupt`].
    pub fn load(&self, r: &mut Reader<'_>) -> Result<(), SavestateError> {
        let entries = Vec::<(SimKey, f64)>::load(r)?;
        let (hits, misses) = (usize::load(r)?, usize::load(r)?);
        // `save` writes strictly ascending keys; anything else (a
        // repeated key in particular) would break `misses() == len()`.
        if entries.windows(2).any(|w| w[0].0 >= w[1].0) {
            return Err(SavestateError::Corrupt("memo keys not strictly ascending".into()));
        }
        self.map.lock().extend(entries);
        self.set_counters(hits, misses);
        Ok(())
    }

    /// Force the hit/miss counters (savestate restore: replanning
    /// against the restored memo inflates `hits`, so the engine
    /// rebuilds plans first and then pins the counters back to the
    /// checkpointed values).
    pub fn set_counters(&self, hits: usize, misses: usize) {
        self.hits.store(hits, Ordering::Relaxed);
        self.misses.store(misses, Ordering::Relaxed);
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
    fn memo_save_load_round_trips_bitwise_and_rewrites_identically() {
        let (arch, th, shapes) = setup();
        let memo = SimMemo::new();
        for h in HEURISTICS {
            time(&memo, &arch, &th, &shapes, h);
        }
        time(&memo, &arch, &th, &shapes, BatchingHeuristic::Binary);

        let mut w = ctb_savestate::Writer::new();
        memo.save(&mut w);
        let bytes = w.into_bytes();

        let restored = SimMemo::new();
        let mut r = ctb_savestate::Reader::new(&bytes);
        restored.load(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(restored.len(), memo.len());
        assert_eq!(restored.hits(), memo.hits());
        assert_eq!(restored.misses(), memo.misses());
        // Restored lookups are hits returning the exact stored bits.
        let orig = time(&memo, &arch, &th, &shapes, BatchingHeuristic::Binary);
        let got = time(&restored, &arch, &th, &shapes, BatchingHeuristic::Binary);
        assert_eq!(orig.to_bits(), got.to_bits());
        // save(load(save(x))) is byte-identical (counters were bumped
        // identically by the lookups above).
        let mut w2 = ctb_savestate::Writer::new();
        restored.save(&mut w2);
        assert_eq!(w2.into_bytes(), {
            let mut w3 = ctb_savestate::Writer::new();
            memo.save(&mut w3);
            w3.into_bytes()
        });
    }

    #[test]
    fn memo_load_rejects_bad_heuristic_tag_with_typed_error() {
        let mut w = ctb_savestate::Writer::new();
        w.len_prefix(1);
        1u64.save(&mut w);
        128u32.save(&mut w);
        w.len_prefix(0);
        9u8.save(&mut w); // no such heuristic
        1.0f64.save(&mut w);
        w.len_prefix(0);
        w.len_prefix(0);
        let bytes = w.into_bytes();
        let memo = SimMemo::new();
        let err = memo.load(&mut ctb_savestate::Reader::new(&bytes)).unwrap_err();
        assert!(matches!(err, ctb_savestate::SavestateError::Corrupt(_)));
    }

    #[test]
    fn memo_load_rejects_repeated_and_unordered_keys_with_typed_error() {
        let key = |context: u64| SimKey {
            context,
            threads: 128,
            strategies: vec![0],
            heuristic: BatchingHeuristic::Threshold,
        };
        for keys in [[key(1), key(1)], [key(2), key(1)]] {
            let mut w = ctb_savestate::Writer::new();
            w.len_prefix(keys.len());
            for k in &keys {
                k.save(&mut w);
                1.0f64.save(&mut w);
            }
            2usize.save(&mut w);
            2usize.save(&mut w);
            let bytes = w.into_bytes();
            let memo = SimMemo::new();
            let err = memo.load(&mut ctb_savestate::Reader::new(&bytes)).unwrap_err();
            assert!(matches!(err, SavestateError::Corrupt(_)), "{keys:?}: {err:?}");
            assert!(memo.is_empty());
        }
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

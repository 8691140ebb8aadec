//! Memoized candidate-plan simulation.
//!
//! The autotuner and the best-of-both planner both evaluate many
//! candidate `(tiling solution, batching heuristic)` pairs through the
//! full `tiles_for → assign_blocks → lower_plan → simulate` pipeline.
//! That pipeline is deterministic: the simulated time of a candidate is
//! a pure function of the architecture, the thresholds, the batch
//! shapes, the per-GEMM strategy ids (plus the unified thread count)
//! and the heuristic. [`SimMemo`] caches simulated times under exactly
//! that key, so revisited candidates — coordinate descent re-proposing
//! a strategy, clamped uniform passes that collapse to the same
//! assignment, the final heuristic comparison re-simulating a uniform
//! winner — cost a hash lookup instead of a simulator run.
//!
//! Memoization never changes a computed time: a hit returns the exact
//! `f64` the uncached pipeline produced when the key was first seen.

use crate::lowering::lower_plan;
use ctb_batching::{assign_blocks, tiles_for, BatchPlan, BatchingHeuristic};
use ctb_gpu_specs::{ArchSpec, Thresholds};
use ctb_matrix::GemmShape;
use ctb_savestate::{savestate_struct, Reader, Savestate, SavestateError, Writer};
use ctb_sim::{simulate, LaunchSequence};
use ctb_tiling::TilingSolution;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// FNV-1a over a byte stream.
pub(crate) fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Fingerprint of an `(arch, thresholds, shapes)` evaluation context.
fn context_fingerprint(arch: &ArchSpec, thresholds: &Thresholds, shapes: &[GemmShape]) -> u64 {
    let mut h = fnv1a(0xCBF2_9CE4_8422_2325, arch.name.as_bytes());
    h = fnv1a(h, &thresholds.tlp_threshold.to_le_bytes());
    h = fnv1a(h, &thresholds.theta.to_le_bytes());
    for s in shapes {
        h = fnv1a(h, &(s.m as u64).to_le_bytes());
        h = fnv1a(h, &(s.n as u64).to_le_bytes());
        h = fnv1a(h, &(s.k as u64).to_le_bytes());
    }
    h
}

/// Simulate one candidate without memoization: build the plan for the
/// solution under `heuristic`, lower it, and run the simulator.
pub fn simulate_solution_uncached(
    arch: &ArchSpec,
    shapes: &[GemmShape],
    solution: &TilingSolution,
    heuristic: BatchingHeuristic,
    thresholds: &Thresholds,
) -> f64 {
    let tiles = tiles_for(shapes, solution);
    let blocks = assign_blocks(&tiles, heuristic, thresholds, solution.thread_count.threads());
    let plan = BatchPlan::from_blocks(&blocks, solution.thread_count.threads());
    let kd = lower_plan("candidate", &plan, shapes);
    simulate(arch, &LaunchSequence::Single(kd)).total_us
}

/// A concurrent memo table for candidate-plan simulation.
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

    /// Simulated time of `(solution, heuristic)` in context, computed at
    /// most once per distinct key.
    pub fn simulate_solution(
        &self,
        arch: &ArchSpec,
        shapes: &[GemmShape],
        solution: &TilingSolution,
        heuristic: BatchingHeuristic,
        thresholds: &Thresholds,
    ) -> f64 {
        let key = SimKey {
            context: context_fingerprint(arch, thresholds, shapes),
            threads: solution.thread_count.threads(),
            strategies: solution.per_gemm.iter().map(|st| st.id()).collect(),
            heuristic,
        };
        if let Some(&us) = self.map.lock().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return us;
        }
        let us = simulate_solution_uncached(arch, shapes, solution, heuristic, thresholds);
        // Two workers can race on the same fresh key; both compute the
        // identical deterministic value. Only the first insert counts as
        // a miss (so `misses == len()` holds even under races); a loser
        // is answered by the winner's entry and counts as a hit.
        match self.map.lock().entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                *e.get()
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                *v.insert(us)
            }
        }
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
    /// run bitwise.
    pub fn load(&self, r: &mut Reader<'_>) -> Result<(), SavestateError> {
        let entries = Vec::<(SimKey, f64)>::load(r)?;
        let (hits, misses) = (usize::load(r)?, usize::load(r)?);
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
    use ctb_tiling::select_tiling;

    fn setup() -> (ArchSpec, Thresholds, Vec<GemmShape>) {
        let arch = ArchSpec::volta_v100();
        let th = Thresholds::for_arch(&arch);
        let shapes = vec![GemmShape::new(48, 64, 96), GemmShape::new(16, 32, 128)];
        (arch, th, shapes)
    }

    #[test]
    fn memo_returns_identical_times_to_uncached_simulation() {
        let (arch, th, shapes) = setup();
        let sol = select_tiling(&shapes, &th);
        let memo = SimMemo::new();
        for h in [
            BatchingHeuristic::OneTilePerBlock,
            BatchingHeuristic::Threshold,
            BatchingHeuristic::Binary,
        ] {
            let uncached = simulate_solution_uncached(&arch, &shapes, &sol, h, &th);
            let first = memo.simulate_solution(&arch, &shapes, &sol, h, &th);
            let second = memo.simulate_solution(&arch, &shapes, &sol, h, &th);
            // Bit-exact equality: a hit replays the stored f64 and the
            // first miss runs the very same pipeline as the uncached call.
            assert_eq!(uncached.to_bits(), first.to_bits());
            assert_eq!(uncached.to_bits(), second.to_bits());
        }
        assert_eq!(memo.misses(), 3);
        assert_eq!(memo.hits(), 3);
        assert_eq!(memo.len(), 3);
    }

    #[test]
    fn memo_save_load_round_trips_bitwise_and_rewrites_identically() {
        let (arch, th, shapes) = setup();
        let sol = select_tiling(&shapes, &th);
        let memo = SimMemo::new();
        for h in [
            BatchingHeuristic::OneTilePerBlock,
            BatchingHeuristic::Threshold,
            BatchingHeuristic::Binary,
        ] {
            memo.simulate_solution(&arch, &shapes, &sol, h, &th);
        }
        memo.simulate_solution(&arch, &shapes, &sol, BatchingHeuristic::Binary, &th);

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
        let orig = memo.simulate_solution(&arch, &shapes, &sol, BatchingHeuristic::Binary, &th);
        let got = restored.simulate_solution(&arch, &shapes, &sol, BatchingHeuristic::Binary, &th);
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
    fn distinct_contexts_do_not_collide() {
        let (arch, th, shapes) = setup();
        let sol = select_tiling(&shapes, &th);
        let memo = SimMemo::new();
        let a = memo.simulate_solution(&arch, &shapes, &sol, BatchingHeuristic::Threshold, &th);
        // Same solution under a different architecture must be a miss.
        let pascal = ArchSpec::pascal_p100();
        let th_p = Thresholds::for_arch(&pascal);
        let sol_p = select_tiling(&shapes, &th_p);
        let b = memo.simulate_solution(&pascal, &shapes, &sol_p, BatchingHeuristic::Threshold, &th_p);
        assert_eq!(memo.misses(), 2, "different arch is a different key");
        assert!(a != b || memo.len() == 2);
    }
}

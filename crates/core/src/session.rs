//! Plan-caching execution sessions.
//!
//! The paper's prime deployment scenario is neural-network training:
//! "the batch size and the size of each matrix are fixed", so the
//! expensive part of the framework — tiling selection, batching,
//! best-of-both simulation — needs to run *once* per distinct shape set,
//! after which every training step reuses the plan. [`Session`] provides
//! exactly that: a concurrent plan cache keyed by the batch's shape
//! signature.

use crate::framework::{BatchingPolicy, ExecutionPlan, Framework, RunOutcome};
use crate::hash::fnv1a;
use crate::hotswap::CalibHandle;
use crate::interface::execute_plan;
use crate::memo::{arch_fingerprint, SimMemo};
use ctb_matrix::{GemmBatch, GemmShape};
use ctb_obs::{Obs, PointKind, SpanKind};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Cache statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    pub hits: usize,
    pub misses: usize,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A plan cache (plus the candidate-simulation memo behind it) that can
/// be shared by several [`Session`]s — the substrate for multi-device
/// deployments where many sessions plan for the *same* architecture and
/// should pay each planning cost once, pool-wide.
///
/// Entries are keyed by `(context fingerprint, calibration epoch, shape
/// signature)` where the fingerprint covers the architecture, the
/// thresholds and the batching policy, so sessions with incompatible
/// planning contexts can share one `PlanShare` without ever observing
/// each other's plans.
///
/// One lock guards the cache, an unbounded map that keeps every plan
/// a session computes. Planning itself runs outside the lock.
///
/// A share is never serialized. A plan is a pure function of the
/// planning context and the shapes, so a checkpoint names what was
/// planned (the cluster engine writes each class's predictions) and a
/// restore plans it again into a fresh share.
#[derive(Default)]
pub struct PlanShare {
    cache: Mutex<HashMap<PlanKey, Arc<ExecutionPlan>>>,
    sim_memo: SimMemo,
    /// Hot-swappable calibration state consulted by
    /// [`BatchingPolicy::BestOfBoth`] sessions and by predictors that
    /// correct analytical-model estimates. Runtime-only: a restored
    /// engine replans on a fresh share at calibration version 0 and the
    /// operator re-installs a profile afterwards.
    calib: CalibHandle,
}

/// A plan-cache key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PlanKey {
    /// The planning context's fingerprint ([`planning_fingerprint`]).
    fp: u64,
    /// The calibration version the plan was chosen under: a retrained
    /// selector may choose another plan, so epoch N entries never
    /// answer epoch N+1 lookups. Always 0 outside best-of-both.
    epoch: u64,
    shapes: Vec<GemmShape>,
}

/// Total operand footprint of a shape signature in bytes: for each
/// GEMM, the f32 A (m×k), B (k×n) and C (m×n) tiles. This is the
/// footprint the locality model splits into local and remote shares
/// when the operands are not already resident on the placing device.
pub fn operand_bytes(shapes: &[GemmShape]) -> u64 {
    shapes
        .iter()
        .map(|s| {
            let (m, n, k) = (s.m as u64, s.n as u64, s.k as u64);
            4 * (m * k + k * n + m * n)
        })
        .sum()
}

impl PlanShare {
    pub fn new() -> Self {
        PlanShare::default()
    }

    /// The hot-swap calibration handle shared by every attached session
    /// (see [`crate::hotswap`] for the ownership rules).
    pub fn calib(&self) -> &CalibHandle {
        &self.calib
    }

    /// The candidate-simulation memo shared by every attached session.
    /// The memo key already covers architecture and thresholds, so
    /// heterogeneous sessions share it safely.
    pub fn sim_memo(&self) -> &SimMemo {
        &self.sim_memo
    }

    /// Total cached plans across every planning context in the share.
    pub fn cached_plans_total(&self) -> usize {
        self.cache.lock().len()
    }
}

/// Fingerprint of a framework's planning context: architecture name,
/// thresholds, and batching policy. Two sessions whose frameworks agree
/// on all three produce identical plans for identical shapes and may
/// answer each other's lookups.
fn planning_fingerprint(framework: &Framework) -> u64 {
    let mut h = arch_fingerprint(framework.arch(), framework.thresholds());
    match &framework.config().batching {
        BatchingPolicy::Fixed(heuristic) => {
            h = fnv1a(h, &[1, *heuristic as u8]);
        }
        BatchingPolicy::BestOfBoth => {
            // Shareable *within* a calibration epoch: sessions on the
            // same share read the same CalibHandle, so at any given
            // version they resolve the same selector and may answer
            // each other's lookups. The epoch is a field of the
            // plan-cache key, not of this fingerprint. A restore
            // replans at epoch 0, which is why the event engine
            // refuses to checkpoint mid-calibration.
            h = fnv1a(h, &[2]);
        }
    }
    h
}

/// A long-lived execution session with a plan cache.
///
/// ```
/// use ctb_core::{Framework, Session};
/// use ctb_gpu_specs::ArchSpec;
/// use ctb_matrix::{GemmBatch, GemmShape};
///
/// let session = Session::new(Framework::new(ArchSpec::volta_v100()));
/// let shapes = vec![GemmShape::new(32, 32, 32); 4];
/// for step in 0..3 {
///     let batch = GemmBatch::random(&shapes, 1.0, 0.0, step);
///     session.run(&batch).unwrap();
/// }
/// assert_eq!(session.stats().misses, 1); // planned once, reused twice
/// ```
pub struct Session {
    framework: Framework,
    /// Plan cache + candidate-simulation memo. Private by default
    /// ([`Session::new`]); multi-session deployments hand the same
    /// share to every session ([`Session::with_share`]) so planning
    /// costs are paid once per context, pool-wide, and re-planning
    /// (after [`Session::clear`], or when concurrent first-callers
    /// race) never re-runs a simulation the share has seen.
    share: Arc<PlanShare>,
    /// This session's planning-context fingerprint within the share.
    fp: u64,
    stats: Mutex<CacheStats>,
    /// Observability bus; `None` (the default) makes every
    /// instrumentation site a single pointer-null check.
    obs: Option<Arc<Obs>>,
}

impl Session {
    pub fn new(framework: Framework) -> Self {
        Session::with_share(framework, Arc::new(PlanShare::new()))
    }

    /// A session whose plan cache and simulation memo live in `share`.
    /// Sessions with identical planning contexts (architecture,
    /// thresholds, batching policy) answer each other's lookups;
    /// sessions with different contexts coexist without collisions.
    /// The share lives in memory only: a cluster restore replans its
    /// checkpoint's predictions into a fresh one.
    pub fn with_share(framework: Framework, share: Arc<PlanShare>) -> Self {
        let fp = planning_fingerprint(&framework);
        Session { framework, share, fp, stats: Mutex::new(CacheStats::default()), obs: None }
    }

    /// Attach an observability bus: planning emits `Plan` spans with
    /// nested `Autotune` spans on the cold path, plus cache hit/miss
    /// point events at exactly the sites the [`CacheStats`] counters
    /// increment (so a trace audit reconciles `==` against
    /// [`Session::stats`]).
    pub fn with_obs(mut self, obs: Arc<Obs>) -> Self {
        self.obs = Some(obs);
        self
    }

    /// The attached observability bus, if any.
    pub fn obs(&self) -> Option<&Arc<Obs>> {
        self.obs.as_ref()
    }

    /// The share backing this session's caches.
    pub fn share(&self) -> &Arc<PlanShare> {
        &self.share
    }

    /// The plan for `shapes`, computed on first use and cached.
    pub fn plan(&self, shapes: &[GemmShape]) -> Result<Arc<ExecutionPlan>, String> {
        // Span covers the whole lookup-or-plan; the guard's drop emits
        // the end even on the early returns.
        let _plan_span = self.obs.as_deref().map(|o| o.span(SpanKind::Plan));
        // Best-of-both sessions resolve their planning context through
        // the share's calibration handle. One snapshot covers the whole
        // decision (key derivation *and* selector consultation), so a
        // concurrent profile install can never produce a plan cached
        // under one epoch but chosen by another.
        let calib = matches!(self.framework.config().batching, BatchingPolicy::BestOfBoth)
            .then(|| self.share.calib.snapshot());
        let key = PlanKey {
            fp: self.fp,
            epoch: calib.as_ref().map_or(0, |c| c.version),
            shapes: shapes.to_vec(),
        };
        let hit = self.share.cache.lock().get(&key).cloned();
        if let Some(plan) = hit {
            self.count_hit();
            return Ok(plan);
        }
        // Plan outside the lock: planning simulates candidate schemes
        // and can take a while; concurrent first-callers may race and
        // plan twice, but the result is deterministic so either wins.
        // Only the insert that actually populates the cache counts as a
        // miss — a racer that loses is answered from the winner's entry
        // and counts as a hit, so summed misses == distinct cached keys
        // holds even under first-caller races and shared caches.
        let plan = {
            // The cold path is the paper's expensive phase: candidate
            // tiling enumeration + batching coordination + simulation.
            let _autotune = self.obs.as_deref().map(|o| o.span(SpanKind::Autotune));
            let heuristic_override =
                calib.as_ref().and_then(|c| c.selector.as_deref()).map(|s| s.select_shapes(shapes));
            Arc::new(self.framework.plan_memoized_with(
                shapes,
                &self.share.sim_memo,
                heuristic_override,
            )?)
        };
        let mut cache = self.share.cache.lock();
        if let Some(winner) = cache.get(&key) {
            let winner = Arc::clone(winner);
            drop(cache);
            self.count_hit();
            return Ok(winner);
        }
        self.stats.lock().misses += 1;
        if let Some(o) = self.obs.as_deref() {
            o.point(PointKind::PlanCacheMiss);
        }
        cache.insert(key, Arc::clone(&plan));
        Ok(plan)
    }

    /// Count a lookup answered from the cache.
    fn count_hit(&self) {
        self.stats.lock().hits += 1;
        if let Some(o) = self.obs.as_deref() {
            o.point(PointKind::PlanCacheHit);
        }
    }

    /// Execute a batch through the cached plan (planning it on first
    /// sight of its shape signature).
    pub fn run(&self, batch: &GemmBatch) -> Result<RunOutcome, String> {
        batch.validate()?;
        let plan = self.plan(&batch.shapes)?;
        let results = {
            let _exec = self.obs.as_deref().map(|o| o.span(SpanKind::Exec));
            execute_plan(batch, &plan.plan)
        };
        Ok(RunOutcome { results, plan: (*plan).clone() })
    }

    /// Cache statistics so far.
    pub fn stats(&self) -> CacheStats {
        *self.stats.lock()
    }

    /// Candidate-simulation memo statistics (hits answered from the
    /// cache vs simulator pipelines actually run while planning).
    /// Share-wide when the session was built with [`Session::with_share`].
    pub fn sim_stats(&self) -> CacheStats {
        CacheStats { hits: self.share.sim_memo.hits(), misses: self.share.sim_memo.misses() }
    }

    /// The candidate-simulation memo shared by every planning event —
    /// exposed so embedders (the serving layer, monitoring) can inspect
    /// its size and accounting directly.
    pub fn sim_memo(&self) -> &SimMemo {
        &self.share.sim_memo
    }

    /// Number of distinct shape signatures cached for *this* session's
    /// planning context (other contexts in a shared [`PlanShare`] are
    /// not counted).
    pub fn cached_plans(&self) -> usize {
        self.share.cache.lock().keys().filter(|k| k.fp == self.fp).count()
    }

    /// Drop every cached plan for this session's planning context (e.g.
    /// after retuning thresholds). Other contexts sharing the same
    /// [`PlanShare`] keep their entries.
    pub fn clear(&self) {
        self.share.cache.lock().retain(|k, _| k.fp != self.fp);
    }

    pub fn framework(&self) -> &Framework {
        &self.framework
    }

    /// Force the cache counters (a cluster restore replans its
    /// checkpoint's predictions, which count as misses here, then pins
    /// the checkpointed values back).
    pub fn set_stats(&self, stats: CacheStats) {
        *self.stats.lock() = stats;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctb_gpu_specs::ArchSpec;
    use ctb_matrix::assert_bitwise_eq;

    fn session() -> Session {
        Session::new(Framework::new(ArchSpec::volta_v100()))
    }

    fn shapes() -> Vec<GemmShape> {
        vec![GemmShape::new(48, 64, 96), GemmShape::new(16, 32, 128)]
    }

    #[test]
    fn repeated_runs_hit_the_cache() {
        let s = session();
        for step in 0..5u64 {
            let batch = GemmBatch::random(&shapes(), 1.0, 0.0, step);
            let out = s.run(&batch).expect("runs");
            assert_bitwise_eq(&batch.reference_result_exact(), &out.results, "session run");
        }
        let stats = s.stats();
        assert_eq!(stats.misses, 1, "one planning event");
        assert_eq!(stats.hits, 4);
        assert_eq!(s.cached_plans(), 1);
    }

    #[test]
    fn distinct_shape_sets_get_distinct_plans() {
        let s = session();
        s.plan(&shapes()).unwrap();
        s.plan(&[GemmShape::new(128, 128, 64)]).unwrap();
        assert_eq!(s.cached_plans(), 2);
        // Same shapes in a different order are a different signature
        // (tile enumeration is order-dependent).
        let mut rev = shapes();
        rev.reverse();
        s.plan(&rev).unwrap();
        assert_eq!(s.cached_plans(), 3);
    }

    #[test]
    fn clear_resets_the_cache() {
        let s = session();
        s.plan(&shapes()).unwrap();
        s.clear();
        assert_eq!(s.cached_plans(), 0);
        s.plan(&shapes()).unwrap();
        assert_eq!(s.stats().misses, 2);
    }

    #[test]
    fn replanning_after_clear_hits_the_simulation_memo() {
        let s = session();
        let first = s.plan(&shapes()).unwrap();
        // A cold best-of-both plan simulates each of its three
        // candidates once.
        assert_eq!(s.sim_stats(), CacheStats { hits: 0, misses: 3 });

        // Dropping the plan cache must not force the simulations to be
        // redone: the second planning event is answered from the memo.
        s.clear();
        let second = s.plan(&shapes()).unwrap();
        assert_eq!(
            s.sim_stats(),
            CacheStats { hits: 3, misses: 3 },
            "no new simulator runs on re-planning"
        );
        assert_eq!(first.plan, second.plan, "memoized re-plan picks the identical plan");
        assert_eq!(first.heuristic, second.heuristic);
        assert_eq!(first.kernel, second.kernel);
        assert_eq!(first.predicted_us.to_bits(), second.predicted_us.to_bits());
    }

    #[test]
    fn failed_plans_are_never_cached() {
        let s = session();
        for _ in 0..3 {
            assert!(s.plan(&[]).is_err(), "empty batch cannot be planned");
        }
        assert_eq!(s.cached_plans(), 0, "failures are not cached");
        assert_eq!(s.stats(), CacheStats::default(), "a failure is neither hit nor miss");
        s.plan(&shapes()).expect("good shapes still plan");
        assert_eq!(s.cached_plans(), 1);
    }

    #[test]
    fn same_context_sessions_share_plans() {
        let share = Arc::new(PlanShare::new());
        let a = Session::with_share(Framework::new(ArchSpec::volta_v100()), Arc::clone(&share));
        let b = Session::with_share(Framework::new(ArchSpec::volta_v100()), Arc::clone(&share));
        let pa = a.plan(&shapes()).unwrap();
        let before = a.sim_stats();
        let pb = b.plan(&shapes()).unwrap();
        assert!(Arc::ptr_eq(&pa, &pb), "identical contexts share the entry");
        assert_eq!(b.stats(), CacheStats { hits: 1, misses: 0 }, "b never plans");
        assert_eq!(b.sim_stats().misses, before.misses, "no new simulator runs for b");
        assert_eq!(share.cached_plans_total(), 1);
        assert_eq!(a.cached_plans(), 1);
        assert_eq!(b.cached_plans(), 1);
    }

    #[test]
    fn distinct_archs_never_collide_in_a_share() {
        let share = Arc::new(PlanShare::new());
        let v100 = Session::with_share(Framework::new(ArchSpec::volta_v100()), Arc::clone(&share));
        let m60 = Session::with_share(Framework::new(ArchSpec::maxwell_m60()), Arc::clone(&share));
        let pv = v100.plan(&shapes()).unwrap();
        let pm = m60.plan(&shapes()).unwrap();
        assert!(!Arc::ptr_eq(&pv, &pm), "different archs plan separately");
        assert_eq!(m60.stats(), CacheStats { hits: 0, misses: 1 });
        assert_eq!(share.cached_plans_total(), 2);
        assert_eq!(v100.cached_plans(), 1, "each context sees only its own entries");

        // Clearing one context leaves the other's plans untouched.
        v100.clear();
        assert_eq!(v100.cached_plans(), 0);
        assert_eq!(m60.cached_plans(), 1);
        assert_eq!(share.cached_plans_total(), 1);
    }

    /// Plans chosen under an installed calibration profile belong to
    /// the session's planning context: it counts and clears them.
    #[test]
    fn calibrated_plans_are_counted_and_cleared() {
        let share = Arc::new(PlanShare::new());
        let s = Session::with_share(Framework::new(ArchSpec::volta_v100()), Arc::clone(&share));
        assert_eq!(share.calib().install(Arc::new(ctb_sim::CorrectionSet::identity()), None), 1);
        s.plan(&shapes()).unwrap();
        assert_eq!(s.cached_plans(), 1);
        s.clear();
        assert_eq!(share.cached_plans_total(), 0);
    }

    #[test]
    fn operand_bytes_counts_a_b_and_c_of_every_gemm() {
        // Golden footprint: 48·96 + 96·64 + 48·64 + 16·128 + 128·32 + 16·32
        // f32 elements = 4·(4608+6144+3072+2048+4096+512) bytes.
        assert_eq!(operand_bytes(&shapes()), 4 * (4608 + 6144 + 3072 + 2048 + 4096 + 512));
        assert_eq!(operand_bytes(&[]), 0);
    }

    #[test]
    fn sessions_are_shareable_across_threads() {
        let s = std::sync::Arc::new(session());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let s = std::sync::Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                let batch = GemmBatch::random(&shapes(), 1.0, 0.0, t);
                let out = s.run(&batch).expect("runs");
                assert_bitwise_eq(
                    &batch.reference_result_exact(),
                    &out.results,
                    "shared session run",
                );
            }));
        }
        for h in handles {
            h.join().expect("thread ok");
        }
        assert_eq!(s.cached_plans(), 1);
    }
}

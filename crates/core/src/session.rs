//! Plan-caching execution sessions.
//!
//! The paper's prime deployment scenario is neural-network training:
//! "the batch size and the size of each matrix are fixed", so the
//! expensive part of the framework — tiling selection, batching,
//! best-of-both simulation — needs to run *once* per distinct shape set,
//! after which every training step reuses the plan. [`Session`] provides
//! exactly that: a concurrent plan cache keyed by the batch's shape
//! signature.

use crate::admission::{AdmissionPolicy, AdmissionStats, BloomGate};
use crate::framework::{BatchingPolicy, ExecutionPlan, Framework, RunOutcome};
use crate::hash::{fnv1a, fnv1a_shapes, mix64, FNV_OFFSET};
use crate::hotswap::CalibHandle;
use crate::memo::{arch_fingerprint, SimMemo};
use ctb_matrix::{GemmBatch, GemmShape};
use ctb_obs::{Obs, PointKind, SpanKind};
use ctb_savestate::{savestate_struct, Reader, Savestate, SavestateError, Writer};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Cache statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    pub hits: usize,
    pub misses: usize,
}

savestate_struct!(CacheStats { hits, misses });

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
/// Entries are keyed by `(context fingerprint, shape signature)` where
/// the fingerprint covers the architecture, the thresholds and the
/// batching policy, so sessions with incompatible planning contexts can
/// share one `PlanShare` without ever observing each other's plans.
///
/// The map is split by key hash into independently locked shards so a
/// storm of concurrent lookups from many sessions never serializes on
/// one mutex, and inserts can be gated by a Bloom "seen twice"
/// admission doorkeeper ([`AdmissionPolicy::SeenTwice`]) so one-shot
/// shapes never pollute a capacity-bounded cache. [`PlanShare::new`]
/// keeps the historical behaviour exactly: admit-all, unbounded
/// (sharding alone is behaviour-invisible).
pub struct PlanShare {
    shards: Vec<Mutex<Shard>>,
    shard_mask: u64,
    capacity_per_shard: Option<usize>,
    gate: Option<BloomGate>,
    admitted: AtomicUsize,
    denied: AtomicUsize,
    sim_memo: SimMemo,
    /// Hot-swappable calibration state consulted by
    /// [`BatchingPolicy::BestOfBoth`] sessions and by predictors that
    /// correct analytical-model estimates. Runtime-only: never
    /// serialized — [`PlanShare::save`]/[`PlanShare::restore_with_sessions`]
    /// rebuild shares at calibration version 0 and the operator
    /// re-installs a profile afterwards.
    calib: CalibHandle,
}

/// Construction-time layout + admission configuration for [`PlanShare`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanShareConfig {
    /// Independently locked shards (clamped to `1..=2^16`, rounded up
    /// to a power of two).
    pub shards: usize,
    /// Per-shard entry bound; `None` (default) is unbounded. A full
    /// shard evicts its oldest entry (FIFO) to make room for an
    /// admitted insert.
    pub capacity_per_shard: Option<usize>,
    /// Insert gating policy; [`AdmissionPolicy::AdmitAll`] by default.
    pub admission: AdmissionPolicy,
}

savestate_struct!(PlanShareConfig { shards, capacity_per_shard, admission });

impl Default for PlanShareConfig {
    fn default() -> Self {
        PlanShareConfig {
            shards: 16,
            capacity_per_shard: None,
            admission: AdmissionPolicy::AdmitAll,
        }
    }
}

/// One lock's worth of the plan cache.
#[derive(Default)]
struct Shard {
    map: PlanMap,
    /// Insertion order, maintained only under a capacity bound (FIFO
    /// eviction); empty when the share is unbounded.
    fifo: VecDeque<PlanKey>,
}

/// `(context fingerprint, shape signature)`.
type PlanKey = (u64, Vec<GemmShape>);
type PlanMap = HashMap<PlanKey, Arc<ExecutionPlan>>;

/// Hash of a plan-cache key, used for shard selection and as the Bloom
/// doorkeeper key. FNV-1a over the fingerprint and every shape, so it
/// is stable across processes (savestate replay lands keys in the same
/// shards).
fn plan_key_hash(fp: u64, shapes: &[GemmShape]) -> u64 {
    // FNV-1a's low bits cluster for structured inputs (power-of-two
    // shape dims); the shard index is taken from the low bits, so
    // finalize with a full-avalanche mix.
    mix64(fnv1a_shapes(fnv1a(FNV_OFFSET, &fp.to_le_bytes()), shapes))
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

impl Default for PlanShare {
    fn default() -> Self {
        PlanShare::with_config(PlanShareConfig::default())
    }
}

impl PlanShare {
    pub fn new() -> Self {
        PlanShare::default()
    }

    /// A share with an explicit shard/capacity/admission configuration.
    /// The shard count is clamped to `1..=2^16` before it is rounded up,
    /// so a forged count in a checkpointed config cannot exhaust memory.
    pub fn with_config(cfg: PlanShareConfig) -> Self {
        let shards = cfg.shards.clamp(1, 1 << 16).next_power_of_two();
        let gate = match cfg.admission {
            AdmissionPolicy::AdmitAll => None,
            AdmissionPolicy::SeenTwice { seed, slots_log2 } => {
                Some(BloomGate::new(seed, slots_log2))
            }
        };
        PlanShare {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_mask: (shards as u64) - 1,
            capacity_per_shard: cfg.capacity_per_shard,
            gate,
            admitted: AtomicUsize::new(0),
            denied: AtomicUsize::new(0),
            sim_memo: SimMemo::default(),
            calib: CalibHandle::new(),
        }
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
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// Number of independently locked shards (a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Entry count per shard, in shard-index order.
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.lock().map.len()).collect()
    }

    /// The per-shard entry bound (`None` = unbounded).
    pub fn capacity_per_shard(&self) -> Option<usize> {
        self.capacity_per_shard
    }

    /// Admission-gate counters. All zero under
    /// [`AdmissionPolicy::AdmitAll`] (no gate decisions are taken).
    pub fn admission_stats(&self) -> AdmissionStats {
        AdmissionStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            denied: self.denied.load(Ordering::Relaxed),
            evicted_tags: self.gate.as_ref().map_or(0, |g| g.evicted_tags()),
        }
    }

    /// The shard responsible for `key_hash`.
    fn shard_for(&self, key_hash: u64) -> &Mutex<Shard> {
        &self.shards[(key_hash & self.shard_mask) as usize]
    }

    /// Consult the admission gate for an insert of `key_hash`. Counts
    /// the decision. Always `true` without a gate.
    fn admit(&self, key_hash: u64) -> bool {
        match &self.gate {
            None => true,
            Some(g) => {
                if g.observe(key_hash) {
                    self.admitted.fetch_add(1, Ordering::Relaxed);
                    true
                } else {
                    self.denied.fetch_add(1, Ordering::Relaxed);
                    false
                }
            }
        }
    }

    /// Serialize the share: the simulation memo (entries + counters),
    /// every plan-cache key (sorted), then the shard layout and
    /// admission-gate state. Plan *bodies* are not serialized —
    /// `ExecutionPlan` is a pure deterministic function of the planning
    /// context and the shapes, and with the memo restored first a
    /// re-plan replays every candidate simulation from the memo,
    /// rebuilding bit-identical plans for free. Keys-only blobs stay
    /// small and can never smuggle a stale plan past a code change.
    pub fn save(&self, w: &mut Writer) {
        self.sim_memo.save(w);
        // Lock every shard for a consistent snapshot; keys are written
        // globally sorted so save → restore → save is byte-identical
        // regardless of shard layout or map iteration order.
        let guards: Vec<_> = self.shards.iter().map(|s| s.lock()).collect();
        let mut keys: Vec<&PlanKey> = guards.iter().flat_map(|g| g.map.keys()).collect();
        keys.sort_unstable();
        w.seq(keys);
        drop(guards);
        // v2 section: layout + admission state.
        self.shards.len().save(w);
        self.capacity_per_shard.save(w);
        self.gate.is_some().save(w);
        if let Some(g) = &self.gate {
            g.save(w);
        }
        self.admitted.load(Ordering::Relaxed).save(w);
        self.denied.load(Ordering::Relaxed).save(w);
    }

    /// Restore a blob written by [`PlanShare::save`] into this share.
    /// `sessions` must be attached to *this* share and must cover every
    /// planning fingerprint in the blob — each saved key is re-planned
    /// through its matching session (all candidate simulations hit the
    /// just-restored memo), then the memo counters are pinned back to
    /// the checkpointed values so the rebuild leaves no accounting
    /// trace. Replayed inserts bypass the admission gate (the key *was*
    /// cached at checkpoint time; the gate's own state is restored from
    /// the blob afterwards). The caller owns the sessions' own
    /// counters: re-planning counts as misses on them (and emits obs
    /// events when a bus is attached), so restore session stats / obs
    /// state *after* this.
    ///
    /// The blob's shard count, capacity bound and gate geometry must
    /// match this share's configuration — a capacity-bounded replay
    /// into a different layout could evict differently than the donor
    /// ever did. A fingerprint with no matching session — e.g. a
    /// `Forest`-policy session, whose fingerprint is noncified
    /// precisely because its selector state is not reproducible — is a
    /// typed [`Mismatch`](ctb_savestate::SavestateError::Mismatch).
    pub fn restore_with_sessions(
        &self,
        r: &mut Reader<'_>,
        sessions: &[&Session],
    ) -> Result<(), SavestateError> {
        for s in sessions {
            if !std::ptr::eq(Arc::as_ptr(&s.share), self) {
                return Err(SavestateError::Mismatch(
                    "restore_with_sessions: session not attached to this share".into(),
                ));
            }
        }
        self.sim_memo.load(r)?;
        let (memo_hits, memo_misses) = (self.sim_memo.hits(), self.sim_memo.misses());
        for (fp, shapes) in Vec::<PlanKey>::load(r)? {
            let session = sessions.iter().find(|s| s.fp == fp).ok_or_else(|| {
                SavestateError::Mismatch(format!(
                    "no session matches planning fingerprint {fp:#018x} \
                     (unshareable context, e.g. a Forest-policy session?)"
                ))
            })?;
            session.plan_inner(&shapes, true).map_err(|e| {
                SavestateError::Mismatch(format!("re-planning saved key failed: {e}"))
            })?;
        }
        // Undo the rebuild's accounting pollution (replans hit the memo).
        self.sim_memo.set_counters(memo_hits, memo_misses);
        // v2 section: layout + admission state.
        let shard_count = usize::load(r)?;
        if shard_count != self.shards.len() {
            return Err(SavestateError::Mismatch(format!(
                "share has {} shards, blob has {shard_count}",
                self.shards.len()
            )));
        }
        let capacity = Option::<usize>::load(r)?;
        if capacity != self.capacity_per_shard {
            return Err(SavestateError::Mismatch(format!(
                "share capacity {:?} does not match blob {capacity:?}",
                self.capacity_per_shard
            )));
        }
        match (bool::load(r)?, &self.gate) {
            (false, None) => {}
            (true, Some(g)) => g.load(r)?,
            (flag, _) => {
                return Err(SavestateError::Mismatch(format!(
                    "blob gate flag {flag} does not match configured admission policy"
                )));
            }
        }
        self.admitted.store(usize::load(r)?, Ordering::Relaxed);
        self.denied.store(usize::load(r)?, Ordering::Relaxed);
        Ok(())
    }
}

/// Serial tag handed to each `Forest`-policy session: the on-line
/// selector is stateful, so two forest sessions may legitimately pick
/// different plans for the same shapes and must never share entries.
static FOREST_NONCE: AtomicU64 = AtomicU64::new(1);

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
            // each other's lookups. The epoch itself is mixed into the
            // per-lookup key (not this base fingerprint) by
            // `Session::plan_inner`; only version-0 keys are eligible
            // for savestate restore — the event engine refuses to
            // checkpoint mid-calibration for exactly this reason.
            h = fnv1a(h, &[2]);
        }
        BatchingPolicy::Forest(_) => {
            // Unique per session: opt stateful selectors out of sharing.
            h = fnv1a(h, &[3]);
            h = fnv1a(h, &FOREST_NONCE.fetch_add(1, Ordering::Relaxed).to_le_bytes());
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
        self.plan_inner(shapes, false)
    }

    /// Lookup-or-plan with an optional admission-gate bypass
    /// (`force_admit`), used by savestate replay: a key that *was*
    /// cached at checkpoint time must land back in the cache regardless
    /// of what the (not-yet-restored) gate would say.
    pub(crate) fn plan_inner(
        &self,
        shapes: &[GemmShape],
        force_admit: bool,
    ) -> Result<Arc<ExecutionPlan>, String> {
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
        let fp = match &calib {
            // Mix the epoch into the key so version N entries never
            // answer version N+1 lookups (the retrained selector may
            // legitimately choose a different plan). Version 0 keeps
            // the base fingerprint: pristine sessions stay
            // bit-compatible with their savestate-restorable keys.
            Some(c) if c.version > 0 => {
                mix64(self.fp ^ c.version.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            }
            _ => self.fp,
        };
        let key = (fp, shapes.to_vec());
        let key_hash = plan_key_hash(fp, shapes);
        let shard = self.share.shard_for(key_hash);
        if let Some(plan) = shard.lock().map.get(&key) {
            self.stats.lock().hits += 1;
            if let Some(o) = self.obs.as_deref() {
                o.point(PointKind::PlanCacheHit);
            }
            return Ok(Arc::clone(plan));
        }
        // Plan outside the lock: planning simulates candidate schemes
        // and can take a while; concurrent first-callers may race and
        // plan twice, but the result is deterministic so either wins.
        // Only the insert that actually populates the cache counts as a
        // miss — a racer that loses is answered from the winner's entry
        // and counts as a hit, so summed misses == distinct cached keys
        // holds even under first-caller races and shared caches (an
        // admission-denied planning event still counts as a miss: the
        // plan was computed, not served from the cache).
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
        let mut guard = shard.lock();
        let sh = &mut *guard;
        match sh.map.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => {
                self.stats.lock().hits += 1;
                if let Some(o) = self.obs.as_deref() {
                    o.point(PointKind::PlanCacheHit);
                }
                Ok(Arc::clone(e.get()))
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                self.stats.lock().misses += 1;
                if let Some(o) = self.obs.as_deref() {
                    o.point(PointKind::PlanCacheMiss);
                }
                // The gate decision runs under the shard lock, so all
                // sightings of a given key are serialized ("seen
                // twice" can never be fabricated by a same-key race).
                if force_admit || self.share.admit(key_hash) {
                    let fifo_key = self.share.capacity_per_shard.map(|_| v.key().clone());
                    let plan = Arc::clone(v.insert(plan));
                    if let Some(cap) = self.share.capacity_per_shard {
                        sh.fifo.push_back(fifo_key.expect("computed above"));
                        while sh.map.len() > cap {
                            let oldest = sh.fifo.pop_front().expect("fifo tracks map");
                            sh.map.remove(&oldest);
                        }
                    }
                    Ok(plan)
                } else {
                    // First sighting under SeenTwice: the plan is
                    // served but not cached.
                    if let Some(o) = self.obs.as_deref() {
                        o.point(PointKind::PlanCacheDenied);
                    }
                    Ok(plan)
                }
            }
        }
    }

    /// Execute a batch through the cached plan (planning it on first
    /// sight of its shape signature).
    pub fn run(&self, batch: &GemmBatch) -> Result<RunOutcome, String> {
        batch.validate()?;
        let plan = self.plan(&batch.shapes)?;
        let (results, report) = {
            let _exec = self.obs.as_deref().map(|o| o.span(SpanKind::Exec));
            self.framework.execute(batch, &plan)
        };
        Ok(RunOutcome { results, report, plan: (*plan).clone() })
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
        self.share
            .shards
            .iter()
            .map(|s| s.lock().map.keys().filter(|(fp, _)| *fp == self.fp).count())
            .sum()
    }

    /// Drop every cached plan for this session's planning context (e.g.
    /// after retuning thresholds). Other contexts sharing the same
    /// [`PlanShare`] keep their entries.
    pub fn clear(&self) {
        for shard in &self.share.shards {
            let mut guard = shard.lock();
            guard.map.retain(|(fp, _), _| *fp != self.fp);
            guard.fifo.retain(|(fp, _)| *fp != self.fp);
        }
    }

    pub fn framework(&self) -> &Framework {
        &self.framework
    }

    /// This session's planning-context fingerprint within its share —
    /// the key half a savestate stores next to each cached plan's
    /// shape signature.
    pub fn fingerprint(&self) -> u64 {
        self.fp
    }

    /// Force the cache counters (savestate restore: the rebuild in
    /// [`PlanShare::restore_with_sessions`] counts its re-plans here,
    /// so the engine pins the checkpointed values back afterwards).
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

    #[test]
    fn forest_policy_sessions_opt_out_of_sharing() {
        use crate::framework::{BatchingPolicy, FrameworkConfig};
        use crate::selector::OnlineSelector;
        let share = Arc::new(PlanShare::new());
        let arch = ArchSpec::volta_v100();
        let thresholds = ctb_gpu_specs::Thresholds::paper_v100();
        let cases = vec![vec![GemmShape::new(32, 32, 32)], vec![GemmShape::new(16, 16, 256)]];
        let forest = || {
            let cfg = FrameworkConfig {
                batching: BatchingPolicy::Forest(OnlineSelector::train(&arch, &thresholds, &cases)),
                thresholds: None,
            };
            Session::with_share(Framework::with_config(arch.clone(), cfg), Arc::clone(&share))
        };
        let (a, b) = (forest(), forest());
        a.plan(&shapes()).unwrap();
        b.plan(&shapes()).unwrap();
        assert_eq!(b.stats().misses, 1, "stateful selectors never share entries");
        assert_eq!(share.cached_plans_total(), 2);
    }

    #[test]
    fn plan_share_save_restore_rebuilds_identical_plans_without_new_simulations() {
        let share = Arc::new(PlanShare::new());
        let s = Session::with_share(Framework::new(ArchSpec::volta_v100()), Arc::clone(&share));
        let original = s.plan(&shapes()).unwrap();
        s.plan(&[GemmShape::new(128, 128, 64)]).unwrap();
        let mut w = ctb_savestate::Writer::new();
        share.save(&mut w);
        let bytes = w.into_bytes();

        let share2 = Arc::new(PlanShare::new());
        let r2 = Session::with_share(Framework::new(ArchSpec::volta_v100()), Arc::clone(&share2));
        let mut rd = ctb_savestate::Reader::new(&bytes);
        share2.restore_with_sessions(&mut rd, &[&r2]).unwrap();
        rd.expect_end().unwrap();

        assert_eq!(share2.cached_plans_total(), 2);
        // Memo accounting is pinned back to the checkpoint, so the
        // rebuild is invisible: no new simulator runs, no new hits.
        assert_eq!(share2.sim_memo().misses(), share.sim_memo().misses());
        assert_eq!(share2.sim_memo().hits(), share.sim_memo().hits());
        // A lookup of a restored key is a hit producing the identical plan.
        r2.set_stats(CacheStats::default());
        let rebuilt = r2.plan(&shapes()).unwrap();
        assert_eq!(r2.stats(), CacheStats { hits: 1, misses: 0 });
        assert_eq!(original.plan, rebuilt.plan, "re-planned plan is identical");
        assert_eq!(original.heuristic, rebuilt.heuristic);
        // save(restored) == save(original): keys are written sorted.
        let mut w2 = ctb_savestate::Writer::new();
        share2.save(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);
    }

    #[test]
    fn plan_share_restore_rejects_unknown_fingerprints_with_typed_mismatch() {
        let share = Arc::new(PlanShare::new());
        let s = Session::with_share(Framework::new(ArchSpec::volta_v100()), Arc::clone(&share));
        s.plan(&shapes()).unwrap();
        let mut w = ctb_savestate::Writer::new();
        share.save(&mut w);
        let bytes = w.into_bytes();

        // Restoring with a session for a *different* arch: no session
        // matches the saved fingerprint.
        let share2 = Arc::new(PlanShare::new());
        let wrong =
            Session::with_share(Framework::new(ArchSpec::maxwell_m60()), Arc::clone(&share2));
        let err = share2
            .restore_with_sessions(&mut ctb_savestate::Reader::new(&bytes), &[&wrong])
            .unwrap_err();
        assert!(matches!(err, ctb_savestate::SavestateError::Mismatch(_)));

        // A session attached to some other share is rejected outright.
        let stray = Session::new(Framework::new(ArchSpec::volta_v100()));
        let err = share2
            .restore_with_sessions(&mut ctb_savestate::Reader::new(&bytes), &[&stray])
            .unwrap_err();
        assert!(matches!(err, ctb_savestate::SavestateError::Mismatch(_)));
    }

    #[test]
    fn seen_twice_admission_caches_only_on_second_sighting() {
        let share = Arc::new(PlanShare::with_config(PlanShareConfig {
            admission: AdmissionPolicy::SeenTwice { seed: 7, slots_log2: 10 },
            ..PlanShareConfig::default()
        }));
        let s = Session::with_share(Framework::new(ArchSpec::volta_v100()), Arc::clone(&share));

        // First sighting: planned and served, but not cached.
        s.plan(&shapes()).unwrap();
        assert_eq!(share.cached_plans_total(), 0, "first sighting is not cached");
        assert_eq!(share.admission_stats().denied, 1);
        assert_eq!(s.stats(), CacheStats { hits: 0, misses: 1 }, "a planning event is a miss");

        // Second sighting: admitted.
        s.plan(&shapes()).unwrap();
        assert_eq!(share.cached_plans_total(), 1);
        assert_eq!(
            share.admission_stats(),
            AdmissionStats { admitted: 1, denied: 1, evicted_tags: 0 }
        );
        assert_eq!(s.stats(), CacheStats { hits: 0, misses: 2 });

        // Third sighting: a plain cache hit, no new gate decision.
        s.plan(&shapes()).unwrap();
        assert_eq!(s.stats(), CacheStats { hits: 1, misses: 2 });
        assert_eq!(
            share.admission_stats(),
            AdmissionStats { admitted: 1, denied: 1, evicted_tags: 0 }
        );
    }

    #[test]
    fn capacity_bound_evicts_oldest_entry_fifo() {
        let share = Arc::new(PlanShare::with_config(PlanShareConfig {
            shards: 1,
            capacity_per_shard: Some(2),
            admission: AdmissionPolicy::AdmitAll,
        }));
        let s = Session::with_share(Framework::new(ArchSpec::volta_v100()), Arc::clone(&share));
        let sig = |m: usize| vec![GemmShape::new(m, 32, 32)];
        s.plan(&sig(16)).unwrap();
        s.plan(&sig(32)).unwrap();
        assert_eq!(share.cached_plans_total(), 2);
        s.plan(&sig(48)).unwrap();
        assert_eq!(share.cached_plans_total(), 2, "bound holds");
        // The oldest signature (16) was evicted: looking it up again is
        // a fresh miss; 32 and 48 are still resident hits.
        s.set_stats(CacheStats::default());
        s.plan(&sig(32)).unwrap();
        s.plan(&sig(48)).unwrap();
        assert_eq!(s.stats(), CacheStats { hits: 2, misses: 0 });
        s.plan(&sig(16)).unwrap();
        assert_eq!(s.stats(), CacheStats { hits: 2, misses: 1 }, "evicted key re-misses");
    }

    #[test]
    fn sharding_distributes_entries_and_preserves_totals() {
        let share = Arc::new(PlanShare::with_config(PlanShareConfig {
            shards: 8,
            ..PlanShareConfig::default()
        }));
        assert_eq!(share.shard_count(), 8);
        let s = Session::with_share(Framework::new(ArchSpec::volta_v100()), Arc::clone(&share));
        for m in 1..=12usize {
            s.plan(&[GemmShape::new(m * 8, 32, 32)]).unwrap();
        }
        let sizes = share.shard_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 12);
        assert_eq!(share.cached_plans_total(), 12);
        assert_eq!(s.cached_plans(), 12);
        assert!(sizes.iter().filter(|&&n| n > 0).count() > 1, "keys spread across shards");
        // Shard counts are rounded up to a power of two.
        assert_eq!(
            PlanShare::with_config(PlanShareConfig { shards: 5, ..Default::default() })
                .shard_count(),
            8
        );
        assert_eq!(
            PlanShare::with_config(PlanShareConfig { shards: 0, ..Default::default() })
                .shard_count(),
            1
        );
        // A forged count is clamped to 2^16 before it is rounded up.
        let forged = PlanShareConfig { shards: usize::MAX, ..Default::default() };
        assert_eq!(PlanShare::with_config(forged).shard_count(), 1 << 16);
    }

    #[test]
    fn configured_share_save_restore_round_trips_gate_state() {
        let cfg = PlanShareConfig {
            shards: 4,
            capacity_per_shard: Some(8),
            admission: AdmissionPolicy::SeenTwice { seed: 11, slots_log2: 8 },
        };
        let share = Arc::new(PlanShare::with_config(cfg));
        let s = Session::with_share(Framework::new(ArchSpec::volta_v100()), Arc::clone(&share));
        // Two sightings of one signature (cached), one of another
        // (denied, gate remembers it).
        s.plan(&shapes()).unwrap();
        s.plan(&shapes()).unwrap();
        s.plan(&[GemmShape::new(128, 128, 64)]).unwrap();
        let mut w = ctb_savestate::Writer::new();
        share.save(&mut w);
        let bytes = w.into_bytes();

        let share2 = Arc::new(PlanShare::with_config(cfg));
        let r2 = Session::with_share(Framework::new(ArchSpec::volta_v100()), Arc::clone(&share2));
        let mut rd = ctb_savestate::Reader::new(&bytes);
        share2.restore_with_sessions(&mut rd, &[&r2]).unwrap();
        rd.expect_end().unwrap();

        assert_eq!(share2.cached_plans_total(), 1, "replay bypasses the gate for cached keys");
        assert_eq!(share2.admission_stats(), share.admission_stats(), "counters pinned back");
        // Byte-identity: save(restored) == save(original), before any
        // further traffic mutates the restored share.
        let mut w2 = ctb_savestate::Writer::new();
        share2.save(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);
        // The gate remembered the denied key: its next sighting admits.
        r2.plan(&[GemmShape::new(128, 128, 64)]).unwrap();
        assert_eq!(share2.cached_plans_total(), 2, "restored gate state carries first sightings");
    }

    #[test]
    fn restore_rejects_mismatched_share_layout() {
        let share = Arc::new(PlanShare::with_config(PlanShareConfig {
            shards: 4,
            ..PlanShareConfig::default()
        }));
        let s = Session::with_share(Framework::new(ArchSpec::volta_v100()), Arc::clone(&share));
        s.plan(&shapes()).unwrap();
        let mut w = ctb_savestate::Writer::new();
        share.save(&mut w);
        let bytes = w.into_bytes();

        let check = |cfg: PlanShareConfig| {
            let share2 = Arc::new(PlanShare::with_config(cfg));
            let r2 =
                Session::with_share(Framework::new(ArchSpec::volta_v100()), Arc::clone(&share2));
            share2
                .restore_with_sessions(&mut ctb_savestate::Reader::new(&bytes), &[&r2])
                .unwrap_err()
        };
        let err = check(PlanShareConfig { shards: 8, ..PlanShareConfig::default() });
        assert!(matches!(err, ctb_savestate::SavestateError::Mismatch(_)), "shard count pinned");
        let err = check(PlanShareConfig {
            shards: 4,
            capacity_per_shard: Some(2),
            ..PlanShareConfig::default()
        });
        assert!(matches!(err, ctb_savestate::SavestateError::Mismatch(_)), "capacity pinned");
        let err = check(PlanShareConfig {
            shards: 4,
            capacity_per_shard: None,
            admission: AdmissionPolicy::SeenTwice { seed: 1, slots_log2: 4 },
        });
        assert!(matches!(err, ctb_savestate::SavestateError::Mismatch(_)), "gate presence pinned");
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

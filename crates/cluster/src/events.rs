//! The discrete-event cluster engine: heterogeneous multi-device
//! scheduling in *simulated* time.
//!
//! Every device is an element of a `Vec` — its own [`Session`] on the
//! pool-wide [`PlanShare`], a bounded `VecDeque` of jobs, a [`Breaker`]
//! and an optional [`FaultInjector`] — and one binary-heap timeline
//! drives them all. No thread is spawned and nothing is locked, so pool
//! size is bounded by memory, not by host threads: a 10k-device pool
//! processing a million requests is just a larger heap.
//!
//! **Scheduling policy.** Placement walks [`placer::rank`], idle
//! devices steal through [`placer::steal_beneficial`], failures charge
//! the device's [`Breaker`] (a trip drains its queue onto survivors),
//! kills re-route queued work, and an exhausted re-route budget falls
//! back to the per-kernel default baseline. A job draws its
//! per-mille [`FaultInjector`] rolls in one fixed order when it starts
//! (slow stall → plan failure → exec panic), so a chaos schedule is a
//! pure function of its seeds. The chaos suite (`tests/chaos.rs`)
//! reconciles every schedule's trace, [`ClusterStats`] and fault logs
//! with `==`.
//!
//! **Witness-subset bitwise checking.** Executing a million GEMM
//! batches functionally would make the host CPU the bottleneck again,
//! so most requests carry only their shape signature: cost is the
//! plan's predicted time (the identical number the placer compared),
//! and completion is pure accounting. Every `witness_every`-th request is a
//! *witness*: it materializes real matrices from its seed, runs the
//! full coordinated plan through the functional executor, and bitwise-
//! compares against `reference_result_exact`. The bitwise-exactness
//! claim is thus continuously sampled across the run instead of paid on
//! every request.
//!
//! **Determinism.** No wall clock, no OS scheduler: event order is
//! `(SimTime, seq)` where `seq` is a monotonic tie-break assigned at
//! schedule time. The same inputs therefore produce the same event
//! sequence, the same decisions, and — with an [`Obs`] attached — a
//! byte-identical trace (`tests/determinism.rs`).

use crate::drift::{GroundTruth, PlacementDecision};
use crate::placer::{self, Candidate, LocalityPolicy};
use crate::stats::{ClusterInner, ClusterStats, DeviceStats};
use ctb_core::hash::splitmix64;
use ctb_core::{
    BatchingPolicy, CacheStats, Framework, FrameworkConfig, OperandHome, PlanShare,
    PlanShareConfig, Session,
};
use ctb_gpu_specs::{ArchSpec, ChipletTopology};
use ctb_matrix::{bitwise_mismatch, GemmBatch, GemmShape};
use ctb_obs::{Obs, ObsClock, PointKind, SimClock, SpanKind};
use ctb_savestate::{savestate_enum, savestate_struct, Reader, Savestate, SavestateError, Writer};
use ctb_serve::{Breaker, BreakerPolicy, FaultInjector, FaultLog, FaultSite};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Matrix fill parameters for witness batches: a witness with data seed
/// `s` executes `GemmBatch::random(shapes, WITNESS_ALPHA, WITNESS_BETA,
/// s)`, so a caller can rebuild any witness's exact inputs.
pub const WITNESS_ALPHA: f32 = 1.0;
/// See [`WITNESS_ALPHA`].
pub const WITNESS_BETA: f32 = 0.5;

/// Sim-time backoff before retrying an initial placement when every
/// candidate queue is full (50 µs of backpressure).
const BACKOFF_NS: u64 = 50_000;

/// Healing-probe interval after a breaker trip.
const PROBE_NS: u64 = 1_000_000;

// ---------------------------------------------------------------------------
// SimTime + Timeline
// ---------------------------------------------------------------------------

/// A typed simulated timestamp, in nanoseconds. Nanosecond granularity
/// keeps distinct exponential inter-arrival draws distinct even at a
/// million requests per simulated second; the [`Obs`] clock runs in
/// microseconds, so [`SimTime::as_us`] truncates on the way out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);

    pub fn from_us(us: u64) -> Self {
        SimTime(us.saturating_mul(1_000))
    }

    pub fn plus(self, ns: u64) -> Self {
        SimTime(self.0.saturating_add(ns))
    }

    pub fn as_ns(self) -> u64 {
        self.0
    }

    pub fn as_us(self) -> u64 {
        self.0 / 1_000
    }
}

impl Savestate for SimTime {
    fn save(&self, w: &mut Writer) {
        self.0.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SavestateError> {
        u64::load(r).map(SimTime)
    }
}

struct Entry<E> {
    at: SimTime,
    seq: u64,
    ev: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at.cmp(&other.at).then(self.seq.cmp(&other.seq))
    }
}

/// The event timeline: a min-heap keyed by `(SimTime, seq)`. The `seq`
/// tie-break is assigned at schedule time, so events scheduled for the
/// same instant pop in schedule order — FIFO among equals, which is
/// what makes the engine's event order (and therefore its trace) a pure
/// function of the inputs.
pub struct Timeline<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
}

impl<E> Default for Timeline<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Timeline<E> {
    pub fn new() -> Self {
        Timeline { heap: BinaryHeap::new(), seq: 0 }
    }

    /// Schedule `ev` at `at`; returns the tie-break seq assigned to it.
    pub fn schedule(&mut self, at: SimTime, ev: E) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Entry { at, seq, ev }));
        seq
    }

    /// Pop the earliest event (ties in schedule order).
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|Reverse(e)| (e.at, e.ev))
    }

    /// Timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// The tie-break counter, then the pending entries sorted by
/// `(at, seq)` — pop order, which is also the unique byte-stable order.
/// The restored heap holds the same `(at, seq, ev)` set, so its pop
/// order — and every tie-break the resumed run assigns from `seq`
/// onward — is identical to the original's.
impl<E: Savestate> Savestate for Timeline<E> {
    fn save(&self, w: &mut Writer) {
        self.seq.save(w);
        let mut entries: Vec<&Entry<E>> = self.heap.iter().map(|Reverse(e)| e).collect();
        entries.sort_unstable_by_key(|e| (e.at, e.seq));
        w.len_prefix(entries.len());
        for e in entries {
            e.at.save(w);
            e.seq.save(w);
            e.ev.save(w);
        }
    }

    fn load(r: &mut Reader<'_>) -> Result<Self, SavestateError> {
        let seq = u64::load(r)?;
        let entries = r.seq(|r| {
            let e = Entry { at: SimTime::load(r)?, seq: u64::load(r)?, ev: E::load(r)? };
            if e.seq >= seq {
                return Err(SavestateError::Corrupt(format!(
                    "timeline entry seq {} not below the tie-break counter {seq}",
                    e.seq
                )));
            }
            Ok(Reverse(e))
        })?;
        Ok(Timeline { heap: BinaryHeap::from(entries), seq })
    }
}

// ---------------------------------------------------------------------------
// Events + jobs
// ---------------------------------------------------------------------------

/// One request in flight inside the event engine. It carries no
/// matrices — only the shape signature the cost model needs — unless it
/// is a witness (see module docs), in which case the matrices are
/// rebuilt from `seed` at execution time.
#[derive(Clone)]
struct EvJob {
    id: u64,
    shapes: Arc<[GemmShape]>,
    /// Data seed a witness materializes its matrices from.
    seed: u64,
    arrived: SimTime,
    /// Predicted simulated µs on the device currently holding the job
    /// (re-predicted on steal/re-route).
    predicted_us: f64,
    /// Times the job has been moved between devices.
    attempts: u32,
    stolen: bool,
    witness: bool,
}

savestate_struct!(EvJob { id, shapes, seed, arrived, predicted_us, attempts, stolen, witness });

/// The fixed event vocabulary. Queue polling, steal polling, breaker
/// healing and kill drains all map onto one of these six slots.
enum Ev {
    /// A request enters the system (admission + placement kickoff).
    Arrive { job: EvJob },
    /// A placement attempt for `job` runs now (initial or backoff retry).
    PlaceDone { job: EvJob },
    /// The device's currently running job finishes now.
    ExecDone { device: usize },
    /// An idle device looks for a saturated victim to steal from.
    StealCheck { device: usize },
    /// Post-trip healing probe: re-kick a recovered idle device.
    BreakerProbe { device: usize },
    /// Scheduled device failure (chaos schedules).
    DeviceKill { device: usize },
}

savestate_enum!(Ev {
    0 => Arrive { job },
    1 => PlaceDone { job },
    2 => ExecDone { device },
    3 => StealCheck { device },
    4 => BreakerProbe { device },
    5 => DeviceKill { device },
});

/// What the fault dice decided a running job's end will look like. The
/// rolls are drawn when the job *starts*, in a fixed order, and applied
/// when its `ExecDone` fires.
#[derive(Clone)]
enum Fate {
    Complete,
    PlanFailed,
    Panicked,
}

savestate_enum!(Fate { 0 => Complete, 1 => PlanFailed, 2 => Panicked });

#[derive(Clone)]
struct Running {
    job: EvJob,
    fate: Fate,
}

savestate_struct!(Running { job, fate });

// ---------------------------------------------------------------------------
// Devices + config
// ---------------------------------------------------------------------------

/// One simulated GPU: session, job queue, breaker, optional chaos
/// schedule and the job it is running. Plain fields, because exactly
/// one event handler touches them at a time. The queue holds at most
/// [`EventConfig::queue_capacity`] jobs (see [`EventCluster::enqueue`]);
/// a dead device takes none, because every placement, steal and
/// re-route skips devices that are not `alive`.
struct EvDevice {
    id: usize,
    session: Session,
    queue: VecDeque<EvJob>,
    running: Option<Running>,
    /// Predicted µs of work queued or running here, kept by adding a
    /// job's prediction when it lands and subtracting that same number
    /// when it leaves (so the sum is exact whatever the order).
    backlog_us: f64,
    busy_sim_us: f64,
    alive: bool,
    breaker: Breaker,
    fault: Option<Arc<FaultInjector>>,
    placements: usize,
    completed: usize,
    steals: usize,
    reroutes_out: usize,
    breaker_trips: usize,
    /// A StealCheck event is already on the heap for this device.
    steal_pending: bool,
    /// A BreakerProbe event is already on the heap for this device.
    probe_pending: bool,
}

impl EvDevice {
    fn arch(&self) -> &ArchSpec {
        self.session.framework().arch()
    }

    fn backlog(&self) -> f64 {
        self.backlog_us.max(0.0)
    }

    fn roll(&self, site: FaultSite) -> bool {
        match &self.fault {
            Some(f) => f.roll(site),
            None => false,
        }
    }

    fn idle(&self) -> bool {
        self.running.is_none() && self.queue.is_empty()
    }

    fn snapshot(&self) -> DeviceStats {
        DeviceStats {
            id: self.id,
            name: self.arch().name,
            placements: self.placements,
            completed: self.completed,
            steals: self.steals,
            reroutes_out: self.reroutes_out,
            breaker_trips: self.breaker_trips,
            busy_sim_us: self.busy_sim_us,
            backlog_us: self.backlog(),
            queue_depth: self.queue.len(),
            utilization: 0.0, // filled in by the engine snapshot
            alive: self.alive,
            breaker_open: self.breaker.is_open(),
        }
    }
}

/// How placement scans the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementMode {
    /// Exact O(devices) scan below 64 devices, indexed at or above.
    Auto,
    /// Always the exact O(devices) scan — the reference the indexed
    /// path is tested against, and the default.
    Exact,
    /// Always the per-arch-class indexed argmin (O(classes · log n)).
    Indexed,
}

savestate_enum!(PlacementMode { 0 => Auto, 1 => Exact, 2 => Indexed });

/// Work-stealing policy.
#[derive(Debug, Clone)]
pub struct StealPolicy {
    /// Master switch; disabled, idle devices simply wait for their own
    /// queue.
    pub enabled: bool,
    /// Minimum predicted backlog (µs of simulated work) a victim must
    /// carry before a thief will consider it — below this, moving a
    /// batch cannot shorten the makespan enough to bother.
    pub min_victim_backlog_us: f64,
    /// Simulated time an idle device waits between looks for a victim
    /// (the spacing of its `StealCheck` events).
    pub poll: Duration,
}

savestate_struct!(StealPolicy { enabled, min_victim_backlog_us, poll });

impl Default for StealPolicy {
    fn default() -> Self {
        StealPolicy {
            enabled: true,
            min_victim_backlog_us: 50.0,
            poll: Duration::from_millis(1),
        }
    }
}

/// Event-engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EventConfig {
    /// Per-device queue bound; the placer spills to the next-best
    /// device when the best one is full, and backs off when every
    /// queue is.
    pub queue_capacity: usize,
    pub steal: StealPolicy,
    /// Per-device circuit-breaker policy (same semantics as the
    /// single-device server's).
    pub breaker: BreakerPolicy,
    /// Times one batch may be moved between devices (re-routes after
    /// failures, breaker drains, kills) before it falls back to the
    /// inline degraded baseline.
    pub max_reroutes: u32,
    /// Every n-th request executes for real and is bitwise-checked;
    /// `0` disables witnesses, `1` checks everything.
    pub witness_every: usize,
    pub placement: PlacementMode,
    /// Keep a per-request routing outcome log (the suites' per-request
    /// comparison payload); costs one small record per request.
    pub record_outcomes: bool,
    /// Shard/capacity/admission layout of the shared plan cache. Part
    /// of the checkpoint (v2), so a restored engine rebuilds the same
    /// cache geometry the blob's gate and shard images describe.
    pub share: PlanShareConfig,
    /// Whether placement ranks candidates with the locality routing
    /// penalty. On by default; a no-op on single-chiplet pools (the
    /// penalty is exactly zero there). Part of the checkpoint (v3), so
    /// a restored engine re-ranks identically.
    pub locality: LocalityPolicy,
}

savestate_struct!(EventConfig {
    queue_capacity,
    steal,
    breaker,
    max_reroutes,
    witness_every,
    placement,
    record_outcomes,
    share,
    locality,
});

impl Default for EventConfig {
    fn default() -> Self {
        EventConfig {
            queue_capacity: 64,
            steal: StealPolicy::default(),
            breaker: BreakerPolicy::default(),
            max_reroutes: 3,
            witness_every: 1,
            placement: PlacementMode::Exact,
            record_outcomes: true,
            share: PlanShareConfig::default(),
            locality: LocalityPolicy::default(),
        }
    }
}

// ---------------------------------------------------------------------------
// Load generation
// ---------------------------------------------------------------------------

/// A weighted shape-signature class in an open-loop workload mix.
#[derive(Debug, Clone)]
pub struct ShapeMix {
    pub name: &'static str,
    pub shapes: Arc<[GemmShape]>,
    pub weight: u32,
}

/// A restored name is interned back to a `&'static str`: the known
/// [`LoadGen::table2`] classes for free, anything else by leaking one
/// small allocation per distinct name per process — bounded by the
/// restore call sites, which are test/replay harnesses.
impl Savestate for ShapeMix {
    fn save(&self, w: &mut Writer) {
        self.name.save(w);
        self.shapes.save(w);
        self.weight.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SavestateError> {
        let name = String::load(r)?;
        let name = ["small", "medium", "large", "tall", "wide", "huge"]
            .into_iter()
            .find(|known| *known == name)
            .unwrap_or_else(|| Box::leak(name.into_boxed_str()));
        Ok(ShapeMix { name, shapes: Savestate::load(r)?, weight: Savestate::load(r)? })
    }
}

/// Open-loop load generator: seeded exponential inter-arrivals over a
/// weighted mix of batch shape signatures. Both the mix draw and the
/// inter-arrival draw are pure functions of `(seed, n)`, so a generator
/// is reproducible and two engines fed equal generators see the same
/// arrival process.
#[derive(Debug, Clone)]
pub struct LoadGen {
    seed: u64,
    mean_interarrival_ns: f64,
    mixes: Vec<ShapeMix>,
    total_weight: u64,
    remaining: usize,
    drawn: u64,
}

savestate_struct!(LoadGen { seed, mean_interarrival_ns, mixes, total_weight, remaining, drawn });

impl LoadGen {
    pub fn new(
        seed: u64,
        mean_interarrival_ns: f64,
        requests: usize,
        mixes: Vec<ShapeMix>,
    ) -> Self {
        assert!(!mixes.is_empty(), "a load needs at least one shape mix");
        assert!(mean_interarrival_ns > 0.0, "inter-arrival mean must be positive");
        let total_weight = mixes.iter().map(|m| m.weight as u64).sum::<u64>().max(1);
        LoadGen { seed, mean_interarrival_ns, mixes, total_weight, remaining: requests, drawn: 0 }
    }

    /// The paper's Table 2 workload classes as a serving mix: one
    /// representative batch signature per tiling-strategy regime
    /// (small / medium / large / tall / wide / huge), weighted toward
    /// the small end the way inference traffic is.
    pub fn table2(seed: u64, mean_interarrival_ns: f64, requests: usize) -> Self {
        fn sig(shapes: &[GemmShape]) -> Arc<[GemmShape]> {
            shapes.into()
        }
        let mixes = vec![
            ShapeMix { name: "small", shapes: sig(&[GemmShape::new(32, 32, 64); 4]), weight: 30 },
            ShapeMix { name: "medium", shapes: sig(&[GemmShape::new(64, 64, 128); 3]), weight: 25 },
            ShapeMix { name: "large", shapes: sig(&[GemmShape::new(128, 128, 256); 2]), weight: 15 },
            ShapeMix { name: "tall", shapes: sig(&[GemmShape::new(256, 32, 64); 2]), weight: 12 },
            ShapeMix { name: "wide", shapes: sig(&[GemmShape::new(32, 256, 64); 2]), weight: 12 },
            ShapeMix { name: "huge", shapes: sig(&[GemmShape::new(256, 256, 512)]), weight: 6 },
        ];
        LoadGen::new(seed, mean_interarrival_ns, requests, mixes)
    }

    pub fn requests_remaining(&self) -> usize {
        self.remaining
    }

    /// Draw the next request: `(inter-arrival ns since the previous
    /// arrival, shape signature, data seed)`.
    fn next(&mut self) -> Option<(u64, Arc<[GemmShape]>, u64)> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let n = self.drawn;
        self.drawn += 1;
        let h_mix =
            splitmix64(self.seed ^ 0xA076_1D64_78BD_642F ^ n.wrapping_mul(0xE703_7ED1_A0B4_28DB));
        let pick = h_mix % self.total_weight;
        let mut acc = 0u64;
        let mut shapes = self.mixes[0].shapes.clone();
        for m in &self.mixes {
            acc += m.weight as u64;
            if pick < acc {
                shapes = m.shapes.clone();
                break;
            }
        }
        // Exponential inter-arrival: invert a uniform draw built from
        // the hash's top 53 bits (offset half a ULP so ln never sees 0).
        let h_dt =
            splitmix64(self.seed ^ 0x8EBC_6AF0_9C88_C6E3 ^ n.wrapping_mul(0x5899_65CC_7537_4CC3));
        let u = ((h_dt >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
        let dt = (-u.ln() * self.mean_interarrival_ns).round().max(1.0) as u64;
        Some((dt, shapes, splitmix64(self.seed ^ n)))
    }
}

// ---------------------------------------------------------------------------
// Outcomes + report
// ---------------------------------------------------------------------------

/// Per-request routing outcome — the decision payload the suites
/// compare across runs (restored vs uninterrupted, aware vs blind).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReqOutcome {
    /// Completed with a result (coordinated or degraded).
    Done { id: u64, device: usize, degraded: bool, stolen: bool, reroutes: u32 },
    /// Rejected at admission: no live device could plan the shapes.
    PlanRejected { id: u64 },
    /// Terminal failure (degraded-path panic).
    Failed { id: u64 },
}

savestate_enum!(ReqOutcome {
    0 => Done { id, device, degraded, stolen, reroutes },
    1 => PlanRejected { id },
    2 => Failed { id },
});

/// What one engine run produced: the familiar [`ClusterStats`] plus the
/// engine-level figures the scaling sweep reports.
#[derive(Debug, Clone)]
pub struct EngineReport {
    pub stats: ClusterStats,
    /// Requests that entered the system (explicit submits + load).
    pub requests: usize,
    /// Events popped off the timeline over the run.
    pub events_processed: u64,
    /// Host wall seconds spent inside [`EventCluster::run`].
    pub wall_elapsed_s: f64,
    /// `events_processed / wall_elapsed_s` — the engine-throughput
    /// figure of merit for the scaling sweep.
    pub events_per_sec: f64,
    /// Requests that executed for real and were bitwise-checked.
    pub witnesses: usize,
    /// Witness results that diverged from `reference_result_exact`
    /// (must be 0; reported rather than panicked so a sweep surfaces
    /// the failure in its artifact).
    pub witness_mismatches: usize,
    /// Simulated timestamp of the last processed event.
    pub horizon: SimTime,
    /// Per-request outcomes when [`EventConfig::record_outcomes`] set.
    pub outcomes: Vec<ReqOutcome>,
    /// Completed placements when [`EventCluster::record_decisions`] was
    /// enabled — the offline calibrator's training trace.
    pub decisions: Vec<PlacementDecision>,
}

/// Why a placement attempt found no home. Boxed at the placement
/// boundary so the common `Ok` path does not pay for the failure
/// payload (the job rides along to be re-routed or degraded).
struct PlaceFail {
    job: EvJob,
    any_full: bool,
    plan_err: Option<String>,
}

/// Outcome of the indexed fast path.
enum IndexedPlace {
    Placed(usize),
    /// No live device bid (all dead or every class failed to plan).
    NoCandidate { job: EvJob, plan_err: Option<String> },
    /// Best queue was full — retry with the exact spill-down scan.
    Fallback(EvJob),
}

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

/// `(arch class name, shape signature) → predicted µs` (or the
/// planner's rejection, memoized so a poisoned signature is not
/// re-planned per device).
type PredictionCache = HashMap<(&'static str, Arc<[GemmShape]>), Result<f64, String>>;

/// The discrete-event cluster engine. Single-threaded: construct,
/// enqueue work ([`submit_at`](Self::submit_at) / [`load`](Self::load)
/// / [`kill_at`](Self::kill_at)), then [`run`](Self::run) the timeline
/// to exhaustion.
pub struct EventCluster {
    cfg: EventConfig,
    devices: Vec<EvDevice>,
    share: Arc<PlanShare>,
    timeline: Timeline<Ev>,
    obs: Option<Arc<Obs>>,
    clock: Option<Arc<SimClock>>,
    stats: ClusterInner,
    outcomes: Vec<ReqOutcome>,
    /// Engine-level prediction cache: one `session.plan` per (arch
    /// class, shape signature); after that a placement across 10k
    /// devices costs `classes` hash lookups, not `devices` planner
    /// calls.
    predictions: PredictionCache,
    /// Device → arch-class index, and one representative device per
    /// class (predictions are identical within a class).
    class_of: Vec<usize>,
    class_rep: Vec<usize>,
    /// Per-class lazy min-heaps over `(backlog bits, device)`; stale
    /// entries are discarded by value on peek.
    index: Vec<BinaryHeap<Reverse<(u64, usize)>>>,
    /// Sticky: once any breaker trips, placement falls back to the
    /// exact scan. The class index cannot see which devices serve an
    /// open window, and the exact scan's skip-and-consume walk over the
    /// full ranking is what defines the sidelining semantics.
    breaker_active: bool,
    /// Any device in the pool is multi-chiplet. With locality enabled
    /// such a pool always places through the exact scan: the index
    /// orders devices by backlog alone and cannot see the per-device
    /// residency penalty.
    has_chiplets: bool,
    gen: Option<LoadGen>,
    now: SimTime,
    next_job_id: u64,
    events_processed: u64,
    requests: usize,
    witnesses: usize,
    witness_mismatches: usize,
    /// Arrive events scheduled but not yet processed.
    pending_arrivals: usize,
    /// Requests admitted but not yet terminal.
    open_jobs: usize,
    /// "True silicon" specs for calibration recording runs
    /// ([`EventCluster::set_ground_truth`]); `None` (the default)
    /// charges predicted time at completion, keeping placement error
    /// zero by construction. Never serialized — ground-truth runs
    /// refuse to checkpoint.
    ground_truth: Option<GroundTruth>,
    /// Memoized true-arch execution time per (class name, signature);
    /// only populated under a ground-truth pool. Bypasses the SimMemo
    /// deliberately: drifted specs share names with their nominal
    /// presets, so the memo's context key cannot tell them apart.
    actuals: HashMap<(&'static str, Arc<[GemmShape]>), f64>,
    /// Raw (uncorrected) model prediction per (class name, signature) —
    /// what `predictions` held before the installed correction was
    /// applied; kept for [`PlacementDecision::model_us`].
    model_us: HashMap<(&'static str, Arc<[GemmShape]>), f64>,
    /// When `Some`, completions append a [`PlacementDecision`]
    /// ([`EventCluster::record_decisions`]). Never serialized.
    decisions: Option<Vec<PlacementDecision>>,
    /// Calibration-handle version the prediction cache was computed
    /// under; a mismatch on lookup clears the cache.
    calib_version: u64,
    /// Device sessions run [`BatchingPolicy::Swappable`]
    /// ([`EventCluster::swappable`]). Never serialized — the blob
    /// format carries no policy, so swappable engines refuse to
    /// checkpoint.
    swappable: bool,
}

impl EventCluster {
    pub fn new(pool: Vec<ArchSpec>, cfg: EventConfig) -> Self {
        let n = pool.len();
        EventCluster::with_faults(pool, cfg, vec![None; n])
    }

    pub fn with_faults(
        pool: Vec<ArchSpec>,
        cfg: EventConfig,
        faults: Vec<Option<Arc<FaultInjector>>>,
    ) -> Self {
        EventCluster::build(pool, cfg, faults, None, None, false)
    }

    /// Build with a fresh [`SimClock`]-backed [`Obs`] installed; the
    /// engine steps the clock as it pops the heap, so the returned bus
    /// records a deterministic trace in simulated time.
    pub fn with_instrumentation(
        pool: Vec<ArchSpec>,
        cfg: EventConfig,
        faults: Vec<Option<Arc<FaultInjector>>>,
    ) -> (Self, Arc<Obs>) {
        let clock = Arc::new(SimClock::new());
        let obs = Arc::new(Obs::sim(Arc::clone(&clock)));
        let eng =
            EventCluster::build(pool, cfg, faults, Some(Arc::clone(&obs)), Some(clock), false);
        (eng, obs)
    }

    /// Build with every device session on the
    /// [`BatchingPolicy::Swappable`] policy — the hot-swap seam ctb-calib
    /// installs retrained selectors through. At calibration version 0
    /// (nothing installed) a swappable session plans bit-for-bit like
    /// the default best-of-both engine, so before/after comparisons stay
    /// apples-to-apples. Pass `instrument: true` to also get the
    /// [`SimClock`]-backed [`Obs`] bus the record pass feeds the
    /// calibrator. Swappable engines are runtime-only: they refuse to
    /// checkpoint (the blob format does not carry the policy, so a
    /// restored engine could not replay the same planning fingerprints).
    pub fn swappable(
        pool: Vec<ArchSpec>,
        cfg: EventConfig,
        instrument: bool,
    ) -> (Self, Option<Arc<Obs>>) {
        let n = pool.len();
        let (obs, clock) = if instrument {
            let clock = Arc::new(SimClock::new());
            (Some(Arc::new(Obs::sim(Arc::clone(&clock)))), Some(clock))
        } else {
            (None, None)
        };
        let eng = EventCluster::build(pool, cfg, vec![None; n], obs.clone(), clock, true);
        (eng, obs)
    }

    fn build(
        pool: Vec<ArchSpec>,
        cfg: EventConfig,
        faults: Vec<Option<Arc<FaultInjector>>>,
        obs: Option<Arc<Obs>>,
        clock: Option<Arc<SimClock>>,
        swappable: bool,
    ) -> Self {
        assert!(!pool.is_empty(), "a cluster needs at least one device");
        assert_eq!(pool.len(), faults.len(), "one fault schedule slot per device");
        let share = Arc::new(PlanShare::with_config(cfg.share));
        let mut class_names: Vec<&'static str> = Vec::new();
        let mut class_of = Vec::with_capacity(pool.len());
        let mut class_rep = Vec::new();
        let devices: Vec<EvDevice> = pool
            .into_iter()
            .zip(faults)
            .enumerate()
            .map(|(id, (arch, fault))| {
                let class = match class_names.iter().position(|n| *n == arch.name) {
                    Some(c) => c,
                    None => {
                        class_names.push(arch.name);
                        class_rep.push(id);
                        class_names.len() - 1
                    }
                };
                class_of.push(class);
                let fw = if swappable {
                    Framework::with_config(
                        arch,
                        FrameworkConfig {
                            batching: BatchingPolicy::Swappable,
                            ..FrameworkConfig::default()
                        },
                    )
                } else {
                    Framework::new(arch)
                };
                let s = Session::with_share(fw, Arc::clone(&share));
                let session = match &obs {
                    Some(o) => s.with_obs(Arc::clone(o)),
                    None => s,
                };
                EvDevice {
                    id,
                    session,
                    queue: VecDeque::new(),
                    running: None,
                    backlog_us: 0.0,
                    busy_sim_us: 0.0,
                    alive: true,
                    breaker: Breaker::new(cfg.breaker.clone()),
                    fault,
                    placements: 0,
                    completed: 0,
                    steals: 0,
                    reroutes_out: 0,
                    breaker_trips: 0,
                    steal_pending: false,
                    probe_pending: false,
                }
            })
            .collect();
        // Seed every class heap with the all-idle state so the indexed
        // path sees the whole pool from the first placement.
        let mut index: Vec<BinaryHeap<Reverse<(u64, usize)>>> =
            (0..class_rep.len()).map(|_| BinaryHeap::new()).collect();
        for (id, class) in class_of.iter().enumerate() {
            index[*class].push(Reverse((0u64, id)));
        }
        let has_chiplets = devices.iter().any(|d| !d.arch().topology.is_unified());
        EventCluster {
            cfg,
            devices,
            share,
            timeline: Timeline::new(),
            obs,
            clock,
            stats: ClusterInner::default(),
            outcomes: Vec::new(),
            predictions: HashMap::new(),
            class_of,
            class_rep,
            index,
            breaker_active: false,
            has_chiplets,
            gen: None,
            now: SimTime::ZERO,
            next_job_id: 0,
            events_processed: 0,
            requests: 0,
            witnesses: 0,
            witness_mismatches: 0,
            pending_arrivals: 0,
            open_jobs: 0,
            ground_truth: None,
            actuals: HashMap::new(),
            model_us: HashMap::new(),
            decisions: None,
            calib_version: 0,
            swappable,
        }
    }

    pub fn devices(&self) -> usize {
        self.devices.len()
    }

    pub fn share(&self) -> &Arc<PlanShare> {
        &self.share
    }

    pub fn observer(&self) -> Option<&Arc<Obs>> {
        self.obs.as_ref()
    }

    /// Attach a "true silicon" pool for a calibration recording run:
    /// placement keeps predicting with the nominal analytical model,
    /// but completions charge the time the planned kernel takes on the
    /// drifted spec — so `mean_abs_placement_err_us` measures real
    /// model error instead of being zero by construction. Ground-truth
    /// runs cannot be checkpointed ([`checkpoint`](Self::checkpoint)
    /// panics): the pool is runtime-only state.
    pub fn set_ground_truth(&mut self, truth: GroundTruth) {
        self.ground_truth = Some(truth);
    }

    /// Record one [`PlacementDecision`] per completed request into the
    /// next [`EngineReport`] — the offline calibrator's training trace.
    /// Recording runs cannot be checkpointed.
    pub fn record_decisions(&mut self, on: bool) {
        self.decisions = if on { Some(Vec::new()) } else { None };
    }

    /// Schedule one request to arrive at `at`. Returns its job id.
    pub fn submit_at(&mut self, at: SimTime, shapes: Arc<[GemmShape]>, seed: u64) -> u64 {
        let id = self.next_job_id;
        self.next_job_id += 1;
        let witness = self.is_witness(id);
        let job = EvJob {
            id,
            shapes,
            seed,
            arrived: at,
            predicted_us: 0.0,
            attempts: 0,
            stolen: false,
            witness,
        };
        self.pending_arrivals += 1;
        self.timeline.schedule(at, Ev::Arrive { job });
        id
    }

    /// Schedule a device kill at `at` (chaos schedules / sweeps).
    pub fn kill_at(&mut self, at: SimTime, device: usize) {
        assert!(device < self.devices.len(), "no such device");
        self.timeline.schedule(at, Ev::DeviceKill { device });
    }

    /// Attach an open-loop load. Its first arrival is scheduled
    /// relative to the current sim time, and each processed arrival
    /// schedules the next — the heap never holds more than one pending
    /// generated arrival.
    pub fn load(&mut self, mut gen: LoadGen) {
        if let Some((dt, shapes, seed)) = gen.next() {
            let at = self.now.plus(dt);
            self.submit_at(at, shapes, seed);
        }
        self.gen = Some(gen);
    }

    fn is_witness(&self, id: u64) -> bool {
        match self.cfg.witness_every {
            0 => false,
            k => id.is_multiple_of(k as u64),
        }
    }

    fn work_pending(&self) -> bool {
        self.pending_arrivals > 0
            || self.open_jobs > 0
            || self.gen.as_ref().is_some_and(|g| g.requests_remaining() > 0)
    }

    fn obs(&self) -> Option<&Obs> {
        self.obs.as_deref()
    }

    /// Process the next pending event. Returns `false` when the
    /// timeline is exhausted. Between any two calls the engine sits at
    /// an *event boundary* — the granularity [`checkpoint`](Self::checkpoint)
    /// snapshots at.
    pub fn step(&mut self) -> bool {
        let Some((t, ev)) = self.timeline.pop() else {
            return false;
        };
        debug_assert!(t >= self.now, "timeline popped out of order");
        self.now = t;
        if let Some(c) = &self.clock {
            c.advance_to(t.as_us());
        }
        self.events_processed += 1;
        self.dispatch(ev);
        true
    }

    /// Process at most `max` events; returns how many actually ran
    /// (fewer only when the timeline drained first).
    pub fn run_steps(&mut self, max: u64) -> u64 {
        let mut n = 0;
        while n < max && self.step() {
            n += 1;
        }
        n
    }

    /// Run the timeline to exhaustion and report.
    pub fn run(&mut self) -> EngineReport {
        let t0 = Instant::now();
        while self.step() {}
        self.report_with_wall(t0.elapsed().as_secs_f64())
    }

    /// Assemble the report for the work processed so far without
    /// running anything — the partial-run counterpart of [`run`](Self::run)
    /// (host-throughput figures read 0; there was no timed run).
    /// Drains the recorded outcomes, like `run` does.
    pub fn report(&mut self) -> EngineReport {
        self.report_with_wall(0.0)
    }

    fn report_with_wall(&mut self, wall: f64) -> EngineReport {
        EngineReport {
            stats: self.stats_snapshot(),
            requests: self.requests,
            events_processed: self.events_processed,
            wall_elapsed_s: wall,
            events_per_sec: if wall > 0.0 { self.events_processed as f64 / wall } else { 0.0 },
            witnesses: self.witnesses,
            witness_mismatches: self.witness_mismatches,
            horizon: self.now,
            outcomes: std::mem::take(&mut self.outcomes),
            decisions: self.decisions.as_mut().map(std::mem::take).unwrap_or_default(),
        }
    }

    /// Point-in-time [`ClusterStats`].
    pub fn stats_snapshot(&self) -> ClusterStats {
        let mut devices: Vec<DeviceStats> = self.devices.iter().map(EvDevice::snapshot).collect();
        let makespan = devices.iter().map(|d| d.busy_sim_us).fold(0.0, f64::max);
        for d in &mut devices {
            d.utilization = if makespan > 0.0 { d.busy_sim_us / makespan } else { 0.0 };
        }
        let mut plan_cache = CacheStats::default();
        for dev in &self.devices {
            let s = dev.session.stats();
            plan_cache.hits += s.hits;
            plan_cache.misses += s.misses;
        }
        let memo = self.share.sim_memo();
        let sim_memo = CacheStats { hits: memo.hits(), misses: memo.misses() };
        self.stats.snapshot(devices, plan_cache, sim_memo)
    }

    // -- event dispatch ---------------------------------------------------

    fn dispatch(&mut self, ev: Ev) {
        match ev {
            Ev::Arrive { job } => self.on_arrive(job),
            Ev::PlaceDone { job } => self.on_place(job),
            Ev::ExecDone { device } => self.on_exec_done(device),
            Ev::StealCheck { device } => self.on_steal_check(device),
            Ev::BreakerProbe { device } => self.on_breaker_probe(device),
            Ev::DeviceKill { device } => self.on_kill(device),
        }
    }

    fn on_arrive(&mut self, job: EvJob) {
        self.pending_arrivals -= 1;
        self.open_jobs += 1;
        self.requests += 1;
        // Admit is traced before placement: once the job lands on a
        // device queue, downstream events for it may follow, and the
        // log must never show those ahead of the admission.
        if let Some(o) = self.obs() {
            o.point(PointKind::Admit { req: job.id });
        }
        // Keep the open-loop source primed: one pending generated
        // arrival at a time.
        if let Some(mut gen) = self.gen.take() {
            let next = gen.next();
            self.gen = Some(gen);
            if let Some((dt, shapes, seed)) = next {
                let at = self.now.plus(dt);
                self.submit_at(at, shapes, seed);
            }
        }
        self.timeline.schedule(self.now, Ev::PlaceDone { job });
    }

    fn on_place(&mut self, job: EvJob) {
        let id = job.id;
        match self.place_attempt(job, None) {
            Ok(device) => {
                self.stats.submitted += 1;
                self.maybe_start(device);
            }
            Err(fail) if fail.any_full => {
                // Backpressure: every candidate queue is full. Retry
                // the placement one backoff interval later.
                self.timeline.schedule(self.now.plus(BACKOFF_NS), Ev::PlaceDone { job: fail.job });
            }
            Err(fail) => {
                if fail.plan_err.is_some() {
                    if let Some(o) = self.obs() {
                        o.point(PointKind::Reject { req: Some(id) });
                    }
                    self.open_jobs -= 1;
                    if self.cfg.record_outcomes {
                        self.outcomes.push(ReqOutcome::PlanRejected { id });
                    }
                    return;
                }
                // No live device at all: serve inline through the
                // degraded baseline rather than dropping the request.
                self.stats.submitted += 1;
                self.degrade_inline(fail.job);
            }
        }
    }

    fn on_exec_done(&mut self, device: usize) {
        let Some(Running { job, fate }) = self.devices[device].running.take() else {
            return;
        };
        match fate {
            Fate::Complete => self.complete_job(device, job),
            Fate::PlanFailed => {
                self.stats.plan_failures += 1;
                if let Some(o) = self.obs() {
                    o.point(PointKind::PlanFailure);
                }
                self.fail_and_reroute(device, job);
            }
            Fate::Panicked => {
                self.stats.worker_panics += 1;
                if let Some(o) = self.obs() {
                    o.point(PointKind::PanicCaught);
                    o.dump_flight("worker panic");
                }
                self.fail_and_reroute(device, job);
            }
        }
        self.maybe_start(device);
        self.maybe_schedule_steal(device);
    }

    fn on_steal_check(&mut self, thief_idx: usize) {
        self.devices[thief_idx].steal_pending = false;
        let thief = &self.devices[thief_idx];
        if !thief.alive || thief.breaker.is_open() || !thief.idle() {
            return;
        }
        if self.try_steal(thief_idx) {
            // Busy now; the next idle transition re-arms the check.
            return;
        }
        self.maybe_schedule_steal(thief_idx);
    }

    fn on_breaker_probe(&mut self, device: usize) {
        self.devices[device].probe_pending = false;
        if !self.devices[device].alive {
            return;
        }
        if self.devices[device].breaker.is_open() {
            // Still serving the open window: probe again later.
            if self.work_pending() {
                self.devices[device].probe_pending = true;
                self.timeline.schedule(self.now.plus(PROBE_NS), Ev::BreakerProbe { device });
            }
            return;
        }
        // Healed: an idle recovered device goes back to stealing.
        self.maybe_schedule_steal(device);
    }

    fn on_kill(&mut self, device: usize) {
        if !self.devices[device].alive {
            return; // already dead
        }
        self.devices[device].alive = false;
        self.stats.kills += 1;
        if let Some(o) = self.obs() {
            o.point(PointKind::Kill { device });
        }
        // Re-route everything that was waiting. A job mid-execution
        // finishes normally (its ExecDone is already on the heap), as a
        // real drain lets in-flight kernels retire.
        self.drain_and_reroute(device);
    }

    // -- placement --------------------------------------------------------

    /// Memoized prediction for `shapes` on device `dev_idx`'s arch
    /// class: plan through the class's session and take the plan's
    /// `predicted_us` (the planner simulated the chosen candidate while
    /// choosing it), corrected by the installed calibration profile and
    /// shared across all devices of the class.
    fn predict_cached(&mut self, dev_idx: usize, shapes: &Arc<[GemmShape]>) -> Result<f64, String> {
        // Cached values include the installed correction, so a profile
        // install (version bump on the share's CalibHandle) invalidates
        // the whole cache.
        let version = self.share.calib().version();
        if version != self.calib_version {
            self.predictions.clear();
            self.calib_version = version;
        }
        let class = self.class_of[dev_idx];
        let rep = self.class_rep[class];
        let name = self.devices[rep].arch().name;
        if let Some(r) = self.predictions.get(&(name, Arc::clone(shapes))) {
            return r.clone();
        }
        let raw = self.devices[rep].session.plan(shapes).map(|plan| plan.predicted_us);
        let r = match raw {
            Ok(model) => {
                self.model_us.insert((name, Arc::clone(shapes)), model);
                // Identity state (version 0) returns `model` bit-for-bit.
                Ok(self.share.calib().correct(name, model, &ctb_core::selector::features(shapes)))
            }
            Err(e) => Err(e),
        };
        self.predictions.insert((name, Arc::clone(shapes)), r.clone());
        r
    }

    fn use_index(&self, exclude: Option<usize>) -> bool {
        if self.breaker_active || exclude.is_some() {
            return false;
        }
        // Locality-aware placement over a chiplet pool needs the full
        // slate: the penalty depends on which device holds the operands,
        // which the backlog-keyed class index cannot express.
        if self.cfg.locality.enabled && self.has_chiplets {
            return false;
        }
        match self.cfg.placement {
            PlacementMode::Exact => false,
            PlacementMode::Indexed => true,
            PlacementMode::Auto => self.devices.len() >= 64,
        }
    }

    fn index_key(&self, device: usize) -> u64 {
        // Backlogs are clamped non-negative, and non-negative IEEE
        // doubles order identically to their bit patterns.
        self.devices[device].backlog().to_bits()
    }

    /// Record `device`'s current backlog in its class heap (lazy
    /// invalidation: older entries for the device go stale by value).
    fn index_touch(&mut self, device: usize) {
        let class = self.class_of[device];
        let key = self.index_key(device);
        self.index[class].push(Reverse((key, device)));
    }

    /// One placement attempt. The exact path ranks every live device;
    /// the indexed path short-circuits the scan with per-class argmins,
    /// which pick the same device whenever no breaker is open and the
    /// best queue is not full — and fall back to the exact scan
    /// otherwise. Returns the placed-on device.
    fn place_attempt(
        &mut self,
        job: EvJob,
        exclude: Option<usize>,
    ) -> Result<usize, Box<PlaceFail>> {
        if self.use_index(exclude) {
            match self.place_indexed(job) {
                IndexedPlace::Placed(d) => return Ok(d),
                IndexedPlace::NoCandidate { job, plan_err } => {
                    return Err(Box::new(PlaceFail { job, any_full: false, plan_err }))
                }
                IndexedPlace::Fallback(job) => return self.place_exact(job, exclude),
            }
        }
        self.place_exact(job, exclude)
    }

    /// Indexed argmin placement: peek each class heap's valid head
    /// (same within-class order as the global ranking, because the
    /// predicted time is constant within a class), then compare class
    /// winners with the identical completion-then-id ordering.
    fn place_indexed(&mut self, mut job: EvJob) -> IndexedPlace {
        let obs_arc = self.obs.clone();
        let _place = obs_arc.as_ref().map(|o| o.span(SpanKind::Place));
        let shapes = job.shapes.clone();
        let sig = ctb_core::shape_sig_hash(&shapes);
        let op_bytes = ctb_core::operand_bytes(&shapes);
        let mut plan_err: Option<String> = None;
        let mut best: Option<Candidate> = None;
        for class in 0..self.class_rep.len() {
            let rep = self.class_rep[class];
            let predicted_us = match self.predict_cached(rep, &shapes) {
                Ok(v) => v,
                Err(m) => {
                    plan_err = Some(m);
                    continue;
                }
            };
            // Discard stale heads, then peek the class argmin.
            let head = loop {
                let Some(&Reverse((key, device))) = self.index[class].peek() else {
                    break None;
                };
                if self.devices[device].alive && self.index_key(device) == key {
                    break Some((key, device));
                }
                self.index[class].pop();
            };
            let Some((key, device)) = head else { continue };
            // `use_index` keeps this path off locality-relevant pools,
            // so the penalty here is identically zero.
            let cand =
                Candidate { device, backlog_us: f64::from_bits(key), predicted_us, penalty_us: 0.0 };
            let better = match &best {
                None => true,
                Some(b) => cand
                    .completion_us()
                    .total_cmp(&b.completion_us())
                    .then(cand.device.cmp(&b.device))
                    .is_lt(),
            };
            if better {
                best = Some(cand);
            }
        }
        let Some(c) = best else {
            return IndexedPlace::NoCandidate { job, plan_err };
        };
        job.predicted_us = c.predicted_us;
        self.devices[c.device].backlog_us += c.predicted_us;
        match self.enqueue(c.device, job) {
            Ok(()) => {
                self.finish_placement(c.device, sig, op_bytes);
                IndexedPlace::Placed(c.device)
            }
            Err(j) => {
                self.devices[c.device].backlog_us -= c.predicted_us;
                IndexedPlace::Fallback(j)
            }
        }
    }

    /// The exact scan: predict the job on every eligible device (served
    /// from the class cache) and queue it on the best-ranked candidate,
    /// spilling down the ranking when queues are full. A device serving
    /// its breaker's open window is sidelined, and each sidelining
    /// consumes one open slot, so the device heals after `open_batches`
    /// placements routed around it; when *every* candidate is open,
    /// routing proceeds on cost alone — a suspect device beats the
    /// baseline.
    fn place_exact(
        &mut self,
        mut job: EvJob,
        exclude: Option<usize>,
    ) -> Result<usize, Box<PlaceFail>> {
        let obs_arc = self.obs.clone();
        let _place = obs_arc.as_ref().map(|o| o.span(SpanKind::Place));
        let shapes = job.shapes.clone();
        // One residency snapshot per placement slate, read before any
        // candidate is scored, so every candidate is judged against the
        // same operand home.
        let sig = ctb_core::shape_sig_hash(&shapes);
        let op_bytes = ctb_core::operand_bytes(&shapes);
        let home = self.share.residency_of(sig);
        let mut candidates = Vec::with_capacity(self.devices.len());
        let mut plan_err = None;
        for i in 0..self.devices.len() {
            if Some(i) == exclude || !self.devices[i].alive {
                continue;
            }
            match self.predict_cached(i, &shapes) {
                Ok(predicted_us) => candidates.push(Candidate {
                    device: i,
                    backlog_us: self.devices[i].backlog(),
                    predicted_us,
                    penalty_us: self.locality_penalty(i, home, op_bytes),
                }),
                Err(m) => plan_err = Some(m),
            }
        }
        if candidates.is_empty() {
            return Err(Box::new(PlaceFail { job, any_full: false, plan_err }));
        }
        let all_open = candidates.iter().all(|c| self.devices[c.device].breaker.is_open());
        let candidates = placer::rank(candidates);
        let mut any_full = false;
        for c in &candidates {
            if !all_open && self.devices[c.device].breaker.consume_open() {
                continue;
            }
            job.predicted_us = c.predicted_us;
            self.devices[c.device].backlog_us += c.predicted_us;
            match self.enqueue(c.device, job) {
                Ok(()) => {
                    self.finish_placement(c.device, sig, op_bytes);
                    return Ok(c.device);
                }
                Err(j) => {
                    self.devices[c.device].backlog_us -= c.predicted_us;
                    any_full = true;
                    job = j;
                }
            }
        }
        Err(Box::new(PlaceFail { job, any_full, plan_err: None }))
    }

    /// Queue `job` on `device`, or hand it back when the queue already
    /// holds `queue_capacity` jobs (at least one).
    fn enqueue(&mut self, device: usize, job: EvJob) -> Result<(), EvJob> {
        let queue = &mut self.devices[device].queue;
        if queue.len() >= self.cfg.queue_capacity.max(1) {
            return Err(job);
        }
        queue.push_back(job);
        Ok(())
    }

    fn finish_placement(&mut self, device: usize, sig: u64, op_bytes: u64) {
        self.devices[device].placements += 1;
        self.stats.routed += 1;
        if let Some(o) = self.obs() {
            o.point(PointKind::Routed { device });
        }
        self.account_residency(device, sig, op_bytes);
        self.index_touch(device);
    }

    /// The locality routing penalty for placing this batch on `device`,
    /// given the residency snapshot `home`: the interposer-crossing cost
    /// of staging the remote share of the operands onto it. Zero for the
    /// resident device, for monolithic topologies, and under a blind
    /// policy; never folded into `predicted_us`.
    fn locality_penalty(&self, device: usize, home: Option<OperandHome>, op_bytes: u64) -> f64 {
        if !self.cfg.locality.enabled {
            return 0.0;
        }
        if home.is_some_and(|h| h.device == device) {
            return 0.0;
        }
        let topo = &self.devices[device].arch().topology;
        ctb_sim::locality_penalty_us(topo, ctb_sim::remote_operand_bytes(topo, op_bytes))
    }

    /// Residency accounting at a landing (placement or steal): hit when
    /// the batch's operands already live on `device`, otherwise a miss
    /// that charges the remote share of the operand bytes and re-homes
    /// the signature on `device` (last writer wins). Runs under aware
    /// *and* blind policies — the bench arms differ only in ranking.
    fn account_residency(&mut self, device: usize, sig: u64, op_bytes: u64) {
        let topo = self.devices[device].arch().topology;
        if self.share.residency_of(sig).is_some_and(|h| h.device == device) {
            self.stats.residency_hits += 1;
            if let Some(o) = self.obs() {
                o.point(PointKind::ResidencyHit { device });
            }
            return;
        }
        self.stats.residency_misses += 1;
        self.stats.remote_operand_bytes += ctb_sim::remote_operand_bytes(&topo, op_bytes);
        if let Some(o) = self.obs() {
            o.point(PointKind::ResidencyMiss { device });
        }
        self.share.note_residency(sig, OperandHome { device, chiplet: topo.home_chiplet(sig) });
    }

    // -- execution --------------------------------------------------------

    /// If `device` is idle and has queued work, start its front job.
    fn maybe_start(&mut self, device: usize) {
        if self.devices[device].running.is_some() {
            return;
        }
        let Some(job) = self.devices[device].queue.pop_front() else {
            return;
        };
        self.start_job(device, job);
    }

    /// Roll the job's fate (slow stall → plan failure → exec panic) and
    /// schedule its `ExecDone`.
    fn start_job(&mut self, device: usize, job: EvJob) {
        let dev = &self.devices[device];
        // Injected worker stall: sim time ahead of the work.
        let stall_ns = match &dev.fault {
            Some(f) => {
                f.roll_slow().map(|d| d.as_nanos().min(u128::from(u64::MAX)) as u64).unwrap_or(0)
            }
            None => 0,
        };
        let fate = if dev.roll(FaultSite::PlanFail) {
            Fate::PlanFailed
        } else if dev.roll(FaultSite::ExecPanic) {
            Fate::Panicked
        } else {
            Fate::Complete
        };
        let exec_ns = match fate {
            // Never zero, so a completion cannot share its timestamp
            // with the placement that caused it. Under a ground-truth
            // pool the device occupies its true (drifted) time, not the
            // predicted one.
            Fate::Complete => {
                let us = self.charged_us(device, &job);
                ((us * 1_000.0).round() as u64).max(1)
            }
            // Failures surface almost immediately and charge no
            // simulated busy time.
            Fate::PlanFailed | Fate::Panicked => 1,
        };
        let done = self.now.plus(stall_ns + exec_ns);
        self.devices[device].running = Some(Running { job, fate });
        self.timeline.schedule(done, Ev::ExecDone { device });
    }

    /// The simulated time a completing job occupies `device`: the
    /// placer's prediction normally (zero placement error by
    /// construction), the true-arch simulation when a ground-truth pool
    /// is attached.
    fn charged_us(&mut self, device: usize, job: &EvJob) -> f64 {
        if self.ground_truth.is_none() {
            return job.predicted_us;
        }
        self.actual_us(device, &job.shapes)
    }

    /// Memoized "what the true silicon takes" for `shapes` on
    /// `device`'s arch class. Simulates the *planned* kernel directly on
    /// the drifted spec — deliberately outside the SimMemo, whose
    /// context key is the arch name and so cannot distinguish nominal
    /// from drifted. Classes the pool does not drift charge the nominal
    /// simulation (the model is their truth).
    fn actual_us(&mut self, device: usize, shapes: &Arc<[GemmShape]>) -> f64 {
        let class = self.class_of[device];
        let rep = self.class_rep[class];
        let name = self.devices[rep].arch().name;
        if let Some(&us) = self.actuals.get(&(name, Arc::clone(shapes))) {
            return us;
        }
        let plan = self.devices[rep]
            .session
            .plan(shapes)
            .expect("ground-truth timing is only charged for placed jobs, whose plan is warm");
        let truth = self.ground_truth.as_ref().expect("checked by charged_us");
        let spec = truth.spec(name).unwrap_or_else(|| self.devices[rep].arch());
        let us =
            ctb_sim::simulate(spec, &ctb_sim::LaunchSequence::Single(plan.kernel.clone())).total_us;
        self.actuals.insert((name, Arc::clone(shapes)), us);
        us
    }

    /// Coordinated completion. Witnesses execute for real and are
    /// bitwise-checked; everyone else completes by accounting, charging
    /// the simulated time the placer predicted — which is the identical
    /// number `SimReport::total_us` would report, because both read the
    /// same memo entry. That shared source of truth is why
    /// `mean_abs_placement_err_us` stays 0. A
    /// ground-truth pool replaces only the *charged time* with the
    /// true-arch simulation (making the error real); witness execution
    /// and its bitwise check are timing-independent and unchanged.
    fn complete_job(&mut self, device: usize, job: EvJob) {
        let model_time = if job.witness {
            self.witnesses += 1;
            let batch = GemmBatch::random(&job.shapes, WITNESS_ALPHA, WITNESS_BETA, job.seed);
            // Plan first (warm cache), then the Exec span, so the trace
            // shows planning ahead of execution.
            let plan = self.devices[device]
                .session
                .plan(&batch.shapes)
                .expect("witness plan is warm: placement already planned this signature");
            let obs_arc = self.obs.clone();
            let guard = obs_arc.as_ref().map(|o| o.span(SpanKind::Exec));
            let (results, report) = self.devices[device].session.framework().execute(&batch, &plan);
            if let Some(g) = guard {
                g.finish();
            }
            let oracle = batch.reference_result_exact();
            if bitwise_mismatch(&oracle, &results).is_some() {
                self.witness_mismatches += 1;
            }
            report.total_us
        } else {
            if let Some(o) = self.obs() {
                o.span(SpanKind::Exec).finish();
            }
            job.predicted_us
        };
        let executed_us = if self.ground_truth.is_some() {
            self.actual_us(device, &job.shapes)
        } else {
            model_time
        };
        if let Some(log) = &mut self.decisions {
            let name = self.devices[device].arch().name;
            log.push(PlacementDecision {
                id: job.id,
                device,
                arch: name,
                shapes: Arc::clone(&job.shapes),
                model_us: self
                    .model_us
                    .get(&(name, Arc::clone(&job.shapes)))
                    .copied()
                    .unwrap_or(job.predicted_us),
                predicted_us: job.predicted_us,
                actual_us: executed_us,
            });
        }
        let dev = &mut self.devices[device];
        dev.breaker.record_success();
        dev.backlog_us -= job.predicted_us;
        dev.busy_sim_us += executed_us;
        dev.completed += 1;
        self.stats.completed += 1;
        self.stats.record_placement_err(job.predicted_us, executed_us);
        let wall_us = self.now.as_ns().saturating_sub(job.arrived.as_ns()) as f64 / 1_000.0;
        self.stats.latencies_us.push(wall_us);
        if let Some(o) = self.obs() {
            o.point(PointKind::BatchDone { req: job.id, device, degraded: false, abandoned: false });
        }
        self.open_jobs -= 1;
        if self.cfg.record_outcomes {
            self.outcomes.push(ReqOutcome::Done {
                id: job.id,
                device,
                degraded: false,
                stolen: job.stolen,
                reroutes: job.attempts,
            });
        }
        self.index_touch(device);
    }

    /// Common failure tail, in this order: charge the breaker (a trip
    /// drains the queue onto survivors *before* this job moves), release
    /// the backlog, then re-route the failing job.
    fn fail_and_reroute(&mut self, device: usize, job: EvJob) {
        if self.devices[device].breaker.record_failure() {
            self.devices[device].breaker_trips += 1;
            self.stats.breaker_trips += 1;
            self.breaker_active = true;
            if let Some(o) = self.obs() {
                o.point(PointKind::BreakerTrip);
                o.dump_flight("breaker trip");
            }
            self.drain_and_reroute(device);
            if !self.devices[device].probe_pending && self.work_pending() {
                self.devices[device].probe_pending = true;
                self.timeline.schedule(self.now.plus(PROBE_NS), Ev::BreakerProbe { device });
            }
        }
        self.devices[device].backlog_us -= job.predicted_us;
        self.index_touch(device);
        self.reroute(job, device);
    }

    fn drain_and_reroute(&mut self, device: usize) {
        while let Some(job) = self.devices[device].queue.pop_front() {
            self.devices[device].backlog_us -= job.predicted_us;
            self.reroute(job, device);
        }
        self.index_touch(device);
    }

    fn reroute(&mut self, mut job: EvJob, from: usize) {
        job.attempts += 1;
        self.stats.reroutes += 1;
        self.devices[from].reroutes_out += 1;
        if let Some(o) = self.obs() {
            o.point(PointKind::Reroute { from });
        }
        if job.attempts > self.cfg.max_reroutes {
            self.degrade_inline(job);
            return;
        }
        match self.place_attempt(job, Some(from)) {
            Ok(device) => self.maybe_start(device),
            Err(fail) => self.degrade_inline(fail.job),
        }
    }

    /// Terminal fallback: the per-kernel default baseline, parametrised
    /// by the first live device's architecture (any arch yields
    /// bitwise-identical results — it only shapes the baseline's
    /// tiling); only witnesses actually run it (degraded results are
    /// bitwise-exact too, so the sample proves the path).
    fn degrade_inline(&mut self, job: EvJob) {
        let donor = self.devices.iter().find(|d| d.alive).map_or(0, |d| d.id);
        let inject = self.devices[donor].roll(FaultSite::DegradedPanic);
        let obs_arc = self.obs.clone();
        let guard = obs_arc.as_ref().map(|o| o.span(SpanKind::DegradedExec));
        if inject {
            // The injected baseline panic: span closed first, then the
            // caught-panic bookkeeping, then the terminal Failed event,
            // so a flight dump holds the complete span.
            if let Some(g) = guard {
                g.finish();
            }
            self.stats.worker_panics += 1;
            if let Some(o) = self.obs() {
                o.point(PointKind::PanicCaught);
                o.dump_flight("degraded worker panic");
                o.point(PointKind::Failed { req: job.id, abandoned: false });
            }
            self.open_jobs -= 1;
            if self.cfg.record_outcomes {
                self.outcomes.push(ReqOutcome::Failed { id: job.id });
            }
            return;
        }
        if job.witness {
            self.witnesses += 1;
            let batch = GemmBatch::random(&job.shapes, WITNESS_ALPHA, WITNESS_BETA, job.seed);
            let results = ctb_baselines::default_functional(self.devices[donor].arch(), &batch);
            let oracle = batch.reference_result_exact();
            if bitwise_mismatch(&oracle, &results).is_some() {
                self.witness_mismatches += 1;
            }
        }
        if let Some(g) = guard {
            g.finish();
        }
        let wall_us = self.now.as_ns().saturating_sub(job.arrived.as_ns()) as f64 / 1_000.0;
        self.stats.completed += 1;
        self.stats.degraded += 1;
        self.stats.latencies_us.push(wall_us);
        if let Some(o) = self.obs() {
            o.point(PointKind::BatchDone {
                req: job.id,
                device: donor,
                degraded: true,
                abandoned: false,
            });
        }
        self.open_jobs -= 1;
        if self.cfg.record_outcomes {
            self.outcomes.push(ReqOutcome::Done {
                id: job.id,
                device: donor,
                degraded: true,
                stolen: job.stolen,
                reroutes: job.attempts,
            });
        }
    }

    // -- stealing ---------------------------------------------------------

    fn maybe_schedule_steal(&mut self, device: usize) {
        if !self.cfg.steal.enabled {
            return;
        }
        let dev = &self.devices[device];
        if !dev.alive || !dev.idle() || dev.steal_pending || !self.work_pending() {
            return;
        }
        let poll_ns = self.cfg.steal.poll.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.devices[device].steal_pending = true;
        self.timeline.schedule(self.now.plus(poll_ns.max(1)), Ev::StealCheck { device });
    }

    /// An idle device looks for the most-backlogged live peer and, when
    /// the cost model says the peer's front batch finishes sooner here
    /// than it would *start* there ([`placer::steal_beneficial`]),
    /// takes it.
    fn try_steal(&mut self, thief_idx: usize) -> bool {
        let mut victim: Option<(usize, f64)> = None;
        for dev in &self.devices {
            if dev.id == thief_idx || !dev.alive || dev.queue.is_empty() {
                continue;
            }
            let backlog = dev.backlog();
            if backlog >= self.cfg.steal.min_victim_backlog_us
                && victim.is_none_or(|(_, b)| backlog > b)
            {
                victim = Some((dev.id, backlog));
            }
        }
        let Some((victim_idx, victim_backlog)) = victim else {
            return false;
        };
        let Some(shapes) = self.devices[victim_idx].queue.front().map(|j| j.shapes.clone()) else {
            return false;
        };
        let Ok(predicted_here) = self.predict_cached(thief_idx, &shapes) else {
            return false;
        };
        if !placer::steal_beneficial(
            victim_backlog,
            predicted_here,
            self.cfg.steal.min_victim_backlog_us,
        ) {
            return false;
        }
        let Some(mut job) = self.devices[victim_idx].queue.pop_front() else {
            return false;
        };
        self.devices[victim_idx].backlog_us -= job.predicted_us;
        self.index_touch(victim_idx);
        job.predicted_us = predicted_here;
        job.stolen = true;
        self.devices[thief_idx].backlog_us += predicted_here;
        self.devices[thief_idx].steals += 1;
        self.stats.steals += 1;
        if let Some(o) = self.obs() {
            o.point(PointKind::Steal { to: thief_idx, from: victim_idx });
        }
        // A steal moves the operands with the work: the thief becomes
        // the holder.
        self.account_residency(
            thief_idx,
            ctb_core::shape_sig_hash(&shapes),
            ctb_core::operand_bytes(&shapes),
        );
        self.index_touch(thief_idx);
        self.start_job(thief_idx, job);
        true
    }
}

// ---------------------------------------------------------------------------
// Savestate
// ---------------------------------------------------------------------------

/// One device's checkpoint record. Its session and breaker are live
/// objects, rebuilt around these values on restore.
struct DeviceImage {
    /// Checked against the restore pool, device by device.
    arch: String,
    alive: bool,
    /// Always `!alive`, since a dead device takes no jobs; part of the
    /// v3 layout. Restore rejects an image where the two disagree.
    closed: bool,
    queue: Vec<EvJob>,
    running: Option<Running>,
    backlog_us: f64,
    busy_sim_us: f64,
    /// Breaker `(consecutive failures, open slots remaining)`.
    breaker: (usize, usize),
    fault: Option<Arc<FaultInjector>>,
    placements: usize,
    completed: usize,
    steals: usize,
    reroutes_out: usize,
    breaker_trips: usize,
    steal_pending: bool,
    probe_pending: bool,
    /// Plan-cache accounting, pinned back after the restore replans
    /// (replanning would otherwise count as misses).
    cache: CacheStats,
    plan_failures: usize,
    /// v3: validated against the restore pool so a resumed run ranks
    /// with the same locality penalties.
    topology: ChipletTopology,
}

savestate_struct!(DeviceImage {
    arch,
    alive,
    closed,
    queue,
    running,
    backlog_us,
    busy_sim_us,
    breaker,
    fault,
    placements,
    completed,
    steals,
    reroutes_out,
    breaker_trips,
    steal_pending,
    probe_pending,
    cache,
    plan_failures,
    topology,
});

impl EvDevice {
    fn image(&self) -> DeviceImage {
        DeviceImage {
            arch: self.arch().name.to_string(),
            alive: self.alive,
            closed: !self.alive,
            queue: self.queue.iter().cloned().collect(),
            running: self.running.clone(),
            backlog_us: self.backlog_us,
            busy_sim_us: self.busy_sim_us,
            breaker: self.breaker.state(),
            fault: self.fault.clone(),
            placements: self.placements,
            completed: self.completed,
            steals: self.steals,
            reroutes_out: self.reroutes_out,
            breaker_trips: self.breaker_trips,
            steal_pending: self.steal_pending,
            probe_pending: self.probe_pending,
            cache: self.session.stats(),
            plan_failures: self.session.plan_failures(),
            topology: self.arch().topology,
        }
    }

    /// Overwrite this freshly built device with a checkpointed image
    /// (its arch, topology and fault schedule are already in place).
    fn restore_image(&mut self, d: DeviceImage, breaker: BreakerPolicy) {
        self.queue = d.queue.into();
        self.running = d.running;
        self.backlog_us = d.backlog_us;
        self.busy_sim_us = d.busy_sim_us;
        self.alive = d.alive;
        self.breaker = Breaker::restore(breaker, d.breaker);
        self.placements = d.placements;
        self.completed = d.completed;
        self.steals = d.steals;
        self.reroutes_out = d.reroutes_out;
        self.breaker_trips = d.breaker_trips;
        self.steal_pending = d.steal_pending;
        self.probe_pending = d.probe_pending;
        self.session.set_stats(d.cache);
        self.session.set_plan_failures(d.plan_failures);
    }
}

/// Checkpoint / restore / migration. The engine is single-threaded, so
/// any moment between [`EventCluster::step`] calls is a consistent
/// *event boundary*: no half-dispatched event exists, every pending
/// cause lives on the timeline, and every decision source (fault
/// cursors, breaker runs, memoized sims, the tie-break counter) is a
/// plain value. [`checkpoint`](Self::checkpoint) serializes exactly
/// those values — no wall-clock, no addresses — which is why a restored
/// engine re-runs the remainder of the schedule decision-for-decision
/// and byte-for-byte (trace included); `tests/savestate.rs` enforces
/// this differentially at swept crash points over the chaos schedules.
impl EventCluster {
    /// Serialize the engine's complete state at the current event
    /// boundary into a versioned blob.
    ///
    /// # Panics
    ///
    /// Calibration runs are not checkpointable: a ground-truth pool,
    /// an open decision log, or an installed calibration profile are
    /// runtime-only state the pinned blob format deliberately excludes
    /// (a restored engine could not replay the same charged times or
    /// corrected predictions). Record and calibrate first, checkpoint
    /// after.
    pub fn checkpoint(&self) -> Vec<u8> {
        assert!(
            self.ground_truth.is_none()
                && self.decisions.is_none()
                && !self.swappable
                && self.share.calib().version() == 0,
            "calibration runs are not checkpointable: detach the ground-truth pool, stop \
             decision recording, use a non-swappable engine and leave the share's \
             CalibHandle at version 0 before checkpointing"
        );
        let mut w = Writer::with_header();
        self.cfg.save(&mut w);
        self.obs.is_some().save(&mut w);
        // -- engine scalars
        self.now.save(&mut w);
        self.next_job_id.save(&mut w);
        self.events_processed.save(&mut w);
        self.requests.save(&mut w);
        self.witnesses.save(&mut w);
        self.witness_mismatches.save(&mut w);
        self.pending_arrivals.save(&mut w);
        self.open_jobs.save(&mut w);
        self.breaker_active.save(&mut w);
        // -- open-loop load source
        self.gen.save(&mut w);
        // -- devices (pool order), one image at a time
        w.len_prefix(self.devices.len());
        for d in &self.devices {
            d.image().save(&mut w);
        }
        // -- timeline (pending events + tie-break counter)
        self.timeline.save(&mut w);
        // -- shared plans + simulation memo
        self.share.save(&mut w);
        // -- engine prediction cache, sorted for byte-stable output
        let mut preds: Vec<_> = self.predictions.iter().collect();
        preds.sort_unstable_by(|a, b| a.0.cmp(b.0));
        w.len_prefix(preds.len());
        for ((name, shapes), res) in preds {
            name.save(&mut w);
            shapes.save(&mut w);
            res.save(&mut w);
        }
        // -- recorded outcomes, cluster-wide counters + latency log
        self.outcomes.save(&mut w);
        self.stats.save(&mut w);
        // -- instrumentation state, last: restore replays plans first
        // (which emits events), then overwrites the log with this.
        if let (Some(clock), Some(obs)) = (&self.clock, &self.obs) {
            clock.now_us().save(&mut w);
            obs.save(&mut w);
        }
        w.into_bytes()
    }

    /// Rebuild an engine from a [`checkpoint`](Self::checkpoint) blob.
    /// `pool` must be the same architecture sequence the checkpointed
    /// engine was built over (checked by name, per device — a typed
    /// [`SavestateError::Mismatch`] otherwise). Returns the engine and,
    /// when the checkpoint was instrumented, its freshly attached
    /// [`Obs`] (the caller's handle for trace comparison).
    ///
    /// Restore order matters and is fixed: every device image is
    /// validated against the pool, the engine is built exactly as
    /// [`new`](Self::new) builds it, the shared memo loads, plans are
    /// *replanned* through their fingerprint-matched sessions (every
    /// candidate simulation hits the restored memo, so this is cheap
    /// and bitwise-faithful), then the device images and cache counters
    /// overwrite the fresh state and the replanning traffic, and the obs
    /// log is overwritten last — discarding the plan spans replanning
    /// just emitted.
    pub fn restore(
        pool: Vec<ArchSpec>,
        bytes: &[u8],
    ) -> Result<(Self, Option<Arc<Obs>>), SavestateError> {
        let (mut r, version) = Reader::with_header(bytes)?;
        // v2 extended the embedded `PlanShare` image (shard layout,
        // capacity bound, admission gate); v3 added chiplet topology,
        // the locality ranking flag, operand residency and its
        // counters. Either way an older checkpoint no longer describes
        // a decodable engine. `import_jobs` still accepts older exports
        // — the job layout is unchanged.
        if version < 3 {
            return Err(SavestateError::Mismatch(format!(
                "cluster checkpoint format v{version} predates the chiplet-topology \
                 and residency layout (v3); re-checkpoint with the current engine"
            )));
        }
        // The cfg carries the share's shard/capacity/admission layout,
        // so the share `build` makes matches the gate and shard images
        // embedded later in the blob.
        let cfg = EventConfig::load(&mut r)?;
        let (clock, obs) = if bool::load(&mut r)? {
            let clock = Arc::new(SimClock::new());
            let obs = Arc::new(Obs::sim(Arc::clone(&clock)));
            (Some(clock), Some(obs))
        } else {
            (None, None)
        };
        let now = SimTime::load(&mut r)?;
        let next_job_id = u64::load(&mut r)?;
        let events_processed = u64::load(&mut r)?;
        let requests = usize::load(&mut r)?;
        let witnesses = usize::load(&mut r)?;
        let witness_mismatches = usize::load(&mut r)?;
        let pending_arrivals = usize::load(&mut r)?;
        let open_jobs = usize::load(&mut r)?;
        let breaker_active = bool::load(&mut r)?;
        let gen = Option::<LoadGen>::load(&mut r)?;

        let n_devices = r.len_prefix()?;
        if n_devices == 0 {
            return Err(SavestateError::Corrupt("checkpoint declares zero devices".into()));
        }
        if n_devices != pool.len() {
            return Err(SavestateError::Mismatch(format!(
                "checkpoint holds {n_devices} devices, restore pool holds {}",
                pool.len()
            )));
        }
        let mut images = Vec::with_capacity(n_devices);
        for (id, arch) in pool.iter().enumerate() {
            let d = DeviceImage::load(&mut r)?;
            if d.arch != arch.name {
                return Err(SavestateError::Mismatch(format!(
                    "device {id}: checkpoint arch {:?}, restore pool has {:?}",
                    d.arch, arch.name
                )));
            }
            if d.topology != arch.topology {
                return Err(SavestateError::Mismatch(format!(
                    "device {id}: checkpoint topology {:?}, restore pool has {:?}",
                    d.topology, arch.topology
                )));
            }
            if d.closed == d.alive {
                return Err(SavestateError::Corrupt(format!(
                    "device {id}: alive {} with closed {}; only a dead device is closed",
                    d.alive, d.closed
                )));
            }
            images.push(d);
        }
        let timeline = Timeline::<Ev>::load(&mut r)?;
        for Reverse(e) in timeline.heap.iter() {
            if let Ev::ExecDone { device }
            | Ev::StealCheck { device }
            | Ev::BreakerProbe { device }
            | Ev::DeviceKill { device } = e.ev
            {
                if device >= n_devices {
                    return Err(SavestateError::Corrupt(format!(
                        "pending event names device {device}, the pool holds {n_devices}"
                    )));
                }
            }
        }
        // `work_pending` reads the two counters, and every arrival and
        // job decrements one: a counter that disagrees with the events
        // and jobs the blob holds underflows on the first `step` (or,
        // wrapped, keeps idle devices re-arming their steal checks).
        let pending =
            |of: fn(&Ev) -> bool| timeline.heap.iter().filter(|Reverse(e)| of(&e.ev)).count();
        let arrivals = pending(|ev| matches!(ev, Ev::Arrive { .. }));
        if pending_arrivals != arrivals {
            return Err(SavestateError::Corrupt(format!(
                "pending_arrivals {pending_arrivals}, the timeline holds {arrivals} arrivals"
            )));
        }
        let held: usize =
            images.iter().map(|d| d.queue.len() + usize::from(d.running.is_some())).sum();
        let jobs = pending(|ev| matches!(ev, Ev::PlaceDone { .. })) + held;
        if open_jobs != jobs {
            return Err(SavestateError::Corrupt(format!(
                "open_jobs {open_jobs}, the checkpoint holds {jobs} placing, queued or running jobs"
            )));
        }
        let faults = images.iter_mut().map(|d| d.fault.take()).collect();
        let mut eng = EventCluster::build(pool, cfg, faults, obs.clone(), clock, false);
        {
            let sessions: Vec<&Session> = eng.devices.iter().map(|d| &d.session).collect();
            eng.share.restore_with_sessions(&mut r, &sessions)?;
        }
        for (dev, d) in eng.devices.iter_mut().zip(images) {
            dev.restore_image(d, eng.cfg.breaker.clone());
        }
        type PredEntry = ((String, Arc<[GemmShape]>), Result<f64, String>);
        for ((name, shapes), res) in Vec::<PredEntry>::load(&mut r)? {
            let mut classes = eng.class_rep.iter().map(|&rep| eng.devices[rep].arch().name);
            let Some(interned) = classes.find(|n| *n == name) else {
                return Err(SavestateError::Mismatch(format!(
                    "prediction cache names arch {name:?}, absent from the restore pool"
                )));
            };
            eng.predictions.insert((interned, shapes), res);
        }
        eng.outcomes = Vec::<ReqOutcome>::load(&mut r)?;
        eng.stats = ClusterInner::load(&mut r)?;
        if let (Some(clock), Some(obs)) = (&eng.clock, &eng.obs) {
            clock.set(u64::load(&mut r)?);
            obs.restore(&mut r)?;
        }
        r.expect_end()?;
        eng.timeline = timeline;
        eng.breaker_active = breaker_active;
        eng.gen = gen;
        eng.now = now;
        eng.next_job_id = next_job_id;
        eng.events_processed = events_processed;
        eng.requests = requests;
        eng.witnesses = witnesses;
        eng.witness_mismatches = witness_mismatches;
        eng.pending_arrivals = pending_arrivals;
        eng.open_jobs = open_jobs;
        // The class heaps restart from the restored backlogs: the
        // original heap's extra entries are stale by value and thus
        // invisible, so one entry per alive device reproduces the same
        // argmin choices.
        eng.index.iter_mut().for_each(BinaryHeap::clear);
        for id in 0..eng.devices.len() {
            if eng.devices[id].alive {
                eng.index_touch(id);
            }
        }
        Ok((eng, obs))
    }

    /// Take `device` out of service and export its *queued* jobs as a
    /// portable blob — the migration half of a planned drain. Like
    /// [`kill_at`](Self::kill_at) the device is marked dead, so it takes
    /// no further placements, and a job mid-execution still completes
    /// here (its `ExecDone` is already on the heap); unlike a kill, the
    /// queued work leaves this engine instead of re-routing, so a peer
    /// can [`import_jobs`](Self::import_jobs) it with zero drops.
    pub fn halt_and_export(&mut self, device: usize) -> Vec<u8> {
        assert!(device < self.devices.len(), "no such device");
        if self.devices[device].alive {
            self.devices[device].alive = false;
            self.stats.kills += 1;
            if let Some(o) = self.obs() {
                o.point(PointKind::Kill { device });
            }
        }
        let mut jobs = Vec::new();
        while let Some(job) = self.devices[device].queue.pop_front() {
            self.devices[device].backlog_us -= job.predicted_us;
            self.open_jobs -= 1;
            jobs.push(job);
        }
        let mut w = Writer::with_header();
        jobs.save(&mut w);
        w.into_bytes()
    }

    /// Admit jobs exported by a peer's [`halt_and_export`](Self::halt_and_export):
    /// each re-enters through the normal arrival path at the current
    /// sim time under a fresh engine-local id (ids are engine-scoped),
    /// keeping its shape signature, data seed and witness flag. Returns
    /// how many jobs were admitted.
    pub fn import_jobs(&mut self, bytes: &[u8]) -> Result<usize, SavestateError> {
        let (mut r, _version) = Reader::with_header(bytes)?;
        let jobs = Vec::<EvJob>::load(&mut r)?;
        r.expect_end()?;
        let n = jobs.len();
        for mut job in jobs {
            job.id = self.next_job_id;
            self.next_job_id += 1;
            job.arrived = self.now;
            job.attempts = 0;
            self.pending_arrivals += 1;
            self.timeline.schedule(self.now, Ev::Arrive { job });
        }
        Ok(n)
    }

    /// Per-device injected-fault accounting (`None` where no chaos
    /// schedule is attached). A restored engine owns *fresh* injectors
    /// rebuilt from serialized cursors, so differential suites compare
    /// fault history through this seam rather than through the `Arc`s
    /// they passed at construction.
    pub fn fault_logs(&self) -> Vec<Option<FaultLog>> {
        self.devices.iter().map(|d| d.fault.as_ref().map(|f| f.log())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctb_serve::FaultConfig;
    use std::time::Duration;

    fn sig(shapes: &[GemmShape]) -> Arc<[GemmShape]> {
        shapes.into()
    }

    fn quiet_cfg() -> EventConfig {
        EventConfig::default()
    }

    #[test]
    fn timeline_orders_by_time_then_schedule_order() {
        let mut t: Timeline<u32> = Timeline::new();
        t.schedule(SimTime(50), 1);
        t.schedule(SimTime(10), 2);
        t.schedule(SimTime(50), 3);
        t.schedule(SimTime(10), 4);
        assert_eq!(t.peek_time(), Some(SimTime(10)));
        let order: Vec<(u64, u32)> = std::iter::from_fn(|| t.pop())
            .map(|(at, ev)| (at.as_ns(), ev))
            .collect();
        // Equal timestamps pop FIFO in schedule order.
        assert_eq!(order, vec![(10, 2), (10, 4), (50, 1), (50, 3)]);
        assert!(t.is_empty());
    }

    #[test]
    fn sim_time_units_convert() {
        assert_eq!(SimTime::from_us(3).as_ns(), 3_000);
        assert_eq!(SimTime(1_500).as_us(), 1);
        assert_eq!(SimTime(1_500).plus(500).as_us(), 2);
    }

    #[test]
    fn single_request_is_witnessed_and_bitwise_exact() {
        let mut eng = EventCluster::new(ArchSpec::pool_presets(2), quiet_cfg());
        eng.submit_at(
            SimTime::ZERO,
            sig(&[GemmShape::new(48, 64, 96), GemmShape::new(16, 32, 128)]),
            7,
        );
        let report = eng.run();
        assert_eq!(report.requests, 1);
        assert_eq!(report.stats.submitted, 1);
        assert_eq!(report.stats.completed, 1);
        assert_eq!(report.stats.degraded, 0);
        assert_eq!(report.witnesses, 1);
        assert_eq!(report.witness_mismatches, 0, "witness must be bitwise-exact");
        assert_eq!(report.stats.mean_abs_placement_err_us, 0.0);
        assert!(matches!(
            report.outcomes[..],
            [ReqOutcome::Done { id: 0, degraded: false, stolen: false, reroutes: 0, .. }]
        ));
    }

    /// A checkpoint whose pending event names a device outside the pool
    /// restores as `Corrupt` instead of panicking on the first `step`.
    #[test]
    fn restore_rejects_pending_events_naming_devices_outside_the_pool() {
        let pool = || ArchSpec::pool_presets(2);
        for bad in [
            Ev::ExecDone { device: 7 },
            Ev::StealCheck { device: 2 },
            Ev::BreakerProbe { device: 9 },
            Ev::DeviceKill { device: usize::MAX },
        ] {
            let mut eng = EventCluster::new(pool(), quiet_cfg());
            eng.timeline.schedule(SimTime(10), bad);
            match EventCluster::restore(pool(), &eng.checkpoint()) {
                Err(SavestateError::Corrupt(msg)) => assert!(msg.contains("device"), "{msg}"),
                Err(e) => panic!("expected Corrupt, got {e:?}"),
                Ok(_) => panic!("restore accepted a device outside the pool"),
            }
        }
    }

    /// Replace the one occurrence of `from` in `blob` with `to`.
    fn splice(blob: &[u8], from: &[u8], to: &[u8]) -> Vec<u8> {
        let at: Vec<usize> = (0..blob.len()).filter(|&i| blob[i..].starts_with(from)).collect();
        assert_eq!(at.len(), 1, "the record must occur exactly once in the blob");
        [&blob[..at[0]], to, &blob[at[0] + from.len()..]].concat()
    }

    fn encoded(value: &impl Savestate) -> Vec<u8> {
        let mut w = Writer::new();
        value.save(&mut w);
        w.into_bytes()
    }

    /// No engine writes a checkpoint without devices (`build` refuses
    /// an empty pool), so restoring one over an empty pool is `Corrupt`
    /// rather than an engine whose first placement panics.
    #[test]
    fn restore_rejects_a_checkpoint_without_devices() {
        let eng = EventCluster::new(vec![ArchSpec::maxwell_m60()], quiet_cfg());
        let mut one = Writer::new();
        one.len_prefix(1);
        eng.devices[0].image().save(&mut one);
        let mut none = Writer::new();
        none.len_prefix(0);
        let blob = splice(&eng.checkpoint(), &one.into_bytes(), &none.into_bytes());
        match EventCluster::restore(Vec::new(), &blob) {
            Err(SavestateError::Corrupt(msg)) => assert!(msg.contains("zero devices"), "{msg}"),
            Err(e) => panic!("expected Corrupt, got {e:?}"),
            Ok(_) => panic!("restore accepted a checkpoint without devices"),
        }
    }

    /// The engine writes a device's `closed` flag as `!alive`; an image
    /// where the two disagree, either way round, is `Corrupt`.
    #[test]
    fn restore_rejects_a_closed_flag_that_disagrees_with_alive() {
        for halted in [false, true] {
            let mut eng = EventCluster::new(ArchSpec::pool_presets(2), quiet_cfg());
            if halted {
                eng.halt_and_export(0);
            }
            let mut image = eng.devices[0].image();
            let honest = encoded(&image);
            image.closed = !image.closed;
            let blob = splice(&eng.checkpoint(), &honest, &encoded(&image));
            match EventCluster::restore(ArchSpec::pool_presets(2), &blob) {
                Err(SavestateError::Corrupt(msg)) => assert!(msg.contains("device 0"), "{msg}"),
                Err(e) => panic!("expected Corrupt, got {e:?}"),
                Ok(_) => panic!("restore accepted closed {} on alive {}", image.closed, !halted),
            }
        }
    }

    /// The engine scalars `checkpoint` writes, `now` to `breaker_active`.
    fn scalars(eng: &EventCluster) -> Vec<u8> {
        let mut w = Writer::new();
        eng.now.save(&mut w);
        eng.next_job_id.save(&mut w);
        eng.events_processed.save(&mut w);
        eng.requests.save(&mut w);
        eng.witnesses.save(&mut w);
        eng.witness_mismatches.save(&mut w);
        eng.pending_arrivals.save(&mut w);
        eng.open_jobs.save(&mut w);
        eng.breaker_active.save(&mut w);
        w.into_bytes()
    }

    /// Checkpoint `eng`, then splice in the scalars `eng` has after
    /// `corrupt`, and restore the result.
    fn restore_corrupted(
        mut eng: EventCluster,
        corrupt: impl FnOnce(&mut EventCluster),
    ) -> Result<(EventCluster, Option<Arc<Obs>>), SavestateError> {
        let (blob, honest) = (eng.checkpoint(), scalars(&eng));
        corrupt(&mut eng);
        EventCluster::restore(ArchSpec::pool_presets(2), &splice(&blob, &honest, &scalars(&eng)))
    }

    /// A checkpoint holding one pending arrival whose `pending_arrivals`
    /// says none is `Corrupt`, not an engine whose first `step`
    /// underflows the counter.
    #[test]
    fn restore_rejects_pending_arrivals_that_disagree_with_the_timeline() {
        let mut eng = EventCluster::new(ArchSpec::pool_presets(2), quiet_cfg());
        eng.submit_at(SimTime::ZERO, sig(&[GemmShape::new(48, 64, 96)]), 7);
        assert_eq!(eng.pending_arrivals, 1);
        match restore_corrupted(eng, |eng| eng.pending_arrivals = 0) {
            Err(SavestateError::Corrupt(msg)) => assert!(msg.contains("pending_arrivals"), "{msg}"),
            Err(e) => panic!("expected Corrupt, got {e:?}"),
            Ok(_) => panic!("restore accepted pending_arrivals 0 with an arrival pending"),
        }
    }

    /// A checkpoint holding one job awaiting placement whose `open_jobs`
    /// disagrees, either way, is `Corrupt`.
    #[test]
    fn restore_rejects_open_jobs_that_disagree_with_the_jobs_held() {
        for wrong in [0, 2] {
            let mut eng = EventCluster::new(ArchSpec::pool_presets(2), quiet_cfg());
            eng.submit_at(SimTime::ZERO, sig(&[GemmShape::new(48, 64, 96)]), 7);
            assert!(eng.step(), "the arrival fires");
            assert_eq!((eng.pending_arrivals, eng.open_jobs), (0, 1));
            match restore_corrupted(eng, |eng| eng.open_jobs = wrong) {
                Err(SavestateError::Corrupt(msg)) => assert!(msg.contains("open_jobs"), "{msg}"),
                Err(e) => panic!("expected Corrupt, got {e:?}"),
                Ok(_) => panic!("restore accepted open_jobs {wrong} with one job open"),
            }
        }
    }

    #[test]
    fn loadgen_is_deterministic_and_conserves_requests() {
        let mut a = LoadGen::table2(11, 40_000.0, 64);
        let mut b = LoadGen::table2(11, 40_000.0, 64);
        let da: Vec<_> = std::iter::from_fn(|| a.next()).collect();
        let db: Vec<_> = std::iter::from_fn(|| b.next()).collect();
        assert_eq!(da.len(), 64);
        assert_eq!(da, db, "same seed, same arrival process");
        assert!(da.iter().all(|(dt, _, _)| *dt >= 1));
        // More than one mix class gets drawn at 64 requests.
        let distinct: std::collections::HashSet<usize> =
            da.iter().map(|(_, s, _)| s.len()).collect();
        assert!(distinct.len() > 1, "mix draws collapse to one class");
    }

    #[test]
    fn open_loop_load_completes_every_request() {
        let mut cfg = quiet_cfg();
        cfg.witness_every = 97;
        let mut eng = EventCluster::new(ArchSpec::pool_presets(4), cfg);
        eng.load(LoadGen::table2(3, 30_000.0, 400));
        let report = eng.run();
        assert_eq!(report.requests, 400);
        assert_eq!(report.stats.submitted, 400);
        assert_eq!(report.stats.completed, 400);
        assert_eq!(report.stats.degraded, 0);
        assert!(report.witnesses >= 4);
        assert_eq!(report.witness_mismatches, 0);
        assert_eq!(report.stats.mean_abs_placement_err_us, 0.0);
        assert!(report.events_processed as usize >= 3 * 400);
    }

    #[test]
    fn same_inputs_same_outcomes_and_trace() {
        let build = || {
            let mut cfg = quiet_cfg();
            cfg.witness_every = 5;
            let (mut eng, obs) =
                EventCluster::with_instrumentation(ArchSpec::pool_presets(3), cfg, vec![None; 3]);
            eng.load(LoadGen::table2(21, 25_000.0, 120));
            let report = eng.run();
            (report, obs.render())
        };
        let (ra, ta) = build();
        let (rb, tb) = build();
        assert_eq!(ra.outcomes, rb.outcomes);
        assert_eq!(ra.events_processed, rb.events_processed);
        assert_eq!(ra.stats.makespan_sim_us, rb.stats.makespan_sim_us);
        assert_eq!(ta, tb, "same inputs must render a byte-identical trace");
    }

    #[test]
    fn indexed_placement_matches_exact_scan() {
        // Tight inter-arrivals so queues build and spill-down and steals
        // actually exercise the index. The second input holds every
        // queue to two jobs: placements spill past full queues, the
        // index falls back to the exact scan, and arrivals back off.
        let inputs =
            [(64, 0, LoadGen::table2(9, 4_000.0, 500)), (2, 7, LoadGen::table2(9, 500.0, 600))];
        let mut full_queue_run = None;
        for (queue_capacity, witness_every, gen) in inputs {
            let run = |placement| {
                let cfg = EventConfig { queue_capacity, witness_every, placement, ..quiet_cfg() };
                let mut eng = EventCluster::new(ArchSpec::pool_presets(12), cfg);
                eng.load(gen.clone());
                while eng.step() {
                    let depth = eng.devices.iter().map(|d| d.queue.len()).max().unwrap();
                    assert!(depth <= queue_capacity, "queue depth {depth} over {queue_capacity}");
                }
                eng.report()
            };
            let exact = run(PlacementMode::Exact);
            let indexed = run(PlacementMode::Indexed);
            assert_eq!(exact.outcomes, indexed.outcomes, "index changed a routing decision");
            assert_eq!(exact.events_processed, indexed.events_processed);
            assert_eq!(exact.stats.makespan_sim_us, indexed.stats.makespan_sim_us);
            assert_eq!(exact.stats.steals, indexed.stats.steals);
            assert_eq!(exact.stats.completed, gen.requests_remaining());
            assert_eq!(exact.witness_mismatches + indexed.witness_mismatches, 0);
            full_queue_run = Some(exact);
        }
        // Pinned, so a change to the bound check cannot pass unseen.
        let full = full_queue_run.unwrap();
        assert_eq!(full.events_processed, 2_463);
        // 461.99995121500507 µs.
        assert_eq!(full.stats.makespan_sim_us.to_bits(), 0x407c_dfff_ccd8_60ad);
    }

    #[test]
    fn kill_reroutes_queued_work_to_survivors() {
        let mut cfg = quiet_cfg();
        cfg.witness_every = 3;
        cfg.steal.enabled = false;
        let mut eng = EventCluster::new(ArchSpec::pool_presets(2), cfg);
        let shapes = sig(&[GemmShape::new(64, 64, 320); 2]);
        for i in 0..10 {
            eng.submit_at(SimTime::ZERO, shapes.clone(), i);
        }
        // Kill device 0 while its queue still holds work.
        eng.kill_at(SimTime(5), 0);
        let report = eng.run();
        assert_eq!(report.stats.kills, 1);
        assert_eq!(report.stats.completed, 10, "kill must not drop work");
        assert!(report.stats.reroutes > 0, "queued batches re-route off the dead device");
        assert_eq!(report.witness_mismatches, 0);
        // Everything after the kill lands on (or finishes on) device 1
        // or the degraded baseline — never the corpse.
        let late_on_dead = report.outcomes.iter().any(|o| {
            matches!(o, ReqOutcome::Done { device: 0, degraded: false, reroutes, .. } if *reroutes > 0)
        });
        assert!(!late_on_dead, "re-routed work must avoid the killed device");
    }

    #[test]
    fn stalled_victim_gets_relieved_by_steals() {
        // Device 0 stalls 2 ms (sim) per job, so its queue outlives
        // device 1's; once device 1 idles, the model says moving the
        // front batch wins and the steal fires.
        let mut cfg = quiet_cfg();
        cfg.witness_every = 0;
        let fault = Arc::new(FaultInjector::new(
            FaultConfig::new(5).slow_worker(1000, Duration::from_millis(2)),
        ));
        let mut eng = EventCluster::with_faults(
            ArchSpec::pool_presets(2),
            cfg,
            vec![Some(fault), None],
        );
        let shapes = sig(&[GemmShape::new(64, 64, 128); 3]);
        for i in 0..20 {
            eng.submit_at(SimTime::ZERO, shapes.clone(), i);
        }
        let report = eng.run();
        assert_eq!(report.stats.completed, 20);
        assert!(report.stats.steals >= 1, "expected at least one steal, got stats {:?}", report.stats.steals);
        let stolen = report
            .outcomes
            .iter()
            .filter(|o| matches!(o, ReqOutcome::Done { stolen: true, .. }))
            .count();
        assert_eq!(stolen, report.stats.steals);
    }

    #[test]
    fn exec_panics_trip_the_breaker_and_work_survives() {
        let mut cfg = quiet_cfg();
        cfg.witness_every = 4;
        let fault = Arc::new(FaultInjector::new(FaultConfig::new(2).exec_panic(1000)));
        let mut eng = EventCluster::with_faults(
            ArchSpec::pool_presets(2),
            cfg,
            vec![Some(Arc::clone(&fault)), None],
        );
        let shapes = sig(&[GemmShape::new(48, 48, 256); 2]);
        for i in 0..30 {
            eng.submit_at(SimTime(i * 1_000), shapes.clone(), i);
        }
        let report = eng.run();
        assert_eq!(report.stats.completed, 30, "every request still completes");
        assert_eq!(report.stats.worker_panics, fault.log().exec_panics);
        assert!(report.stats.breaker_trips >= 1, "8 consecutive panics must trip");
        assert_eq!(report.witness_mismatches, 0);
        // Jobs that failed on device 0 finish elsewhere.
        assert!(report.stats.reroutes >= report.stats.worker_panics);
    }

    /// `n` requests of `shapes` (data seeds `0..n`), one every second of
    /// simulated time: the pool drains between arrivals.
    fn closed_loop(eng: &mut EventCluster, shapes: &[GemmShape], n: u64) {
        for i in 0..n {
            eng.submit_at(SimTime(i * 1_000_000_000), sig(shapes), i);
        }
    }

    #[test]
    fn prediction_matches_execution_exactly_when_not_moved() {
        // The placer's prediction and the witness's executed report read
        // the same deterministic simulator; an unmoved batch must
        // reconcile to zero placement error.
        let mut eng = EventCluster::new(ArchSpec::pool_presets(2), quiet_cfg());
        closed_loop(&mut eng, &[GemmShape::new(64, 64, 64); 3], 4);
        let report = eng.run();
        assert_eq!((report.witnesses, report.witness_mismatches), (4, 0));
        assert!(report.outcomes.iter().all(|o| matches!(
            o,
            ReqOutcome::Done { degraded: false, stolen: false, reroutes: 0, .. }
        )));
        assert_eq!(report.stats.mean_abs_placement_err_us, 0.0);
    }

    #[test]
    fn unplannable_shapes_are_rejected_at_placement() {
        // No device can plan an empty output matrix: the request is
        // rejected with a typed outcome, never admitted or executed.
        let mut eng = EventCluster::new(ArchSpec::pool_presets(2), quiet_cfg());
        eng.submit_at(SimTime::ZERO, sig(&[GemmShape::new(0, 4, 4)]), 1);
        let report = eng.run();
        assert_eq!(report.outcomes, vec![ReqOutcome::PlanRejected { id: 0 }]);
        assert_eq!((report.requests, report.stats.submitted), (1, 0));
        assert_eq!((report.stats.completed, report.witnesses), (0, 0));
    }

    #[test]
    fn closed_device_queue_refuses_placements() {
        // Admission never closes — every arrival is served — so the
        // refused-after-halt contract lives at the device: a halted
        // device takes no placement, and its peer serves all.
        let mut eng = EventCluster::new(ArchSpec::pool_presets(2), quiet_cfg());
        eng.halt_and_export(0);
        closed_loop(&mut eng, &[GemmShape::new(16, 16, 16)], 3);
        let report = eng.run();
        assert_eq!(report.stats.completed, 3);
        assert_eq!(report.stats.devices[0].placements, 0, "the closed queue took work");
        assert!(report
            .outcomes
            .iter()
            .all(|o| matches!(o, ReqOutcome::Done { device: 1, degraded: false, .. })));
    }

    #[test]
    fn kill_all_devices_still_serves_degraded() {
        let mut eng = EventCluster::new(ArchSpec::pool_presets(2), quiet_cfg());
        eng.kill_at(SimTime::ZERO, 0);
        eng.kill_at(SimTime::ZERO, 1);
        eng.submit_at(SimTime(1), sig(&[GemmShape::new(32, 32, 32)]), 3);
        let report = eng.run();
        assert!(
            matches!(report.outcomes[..], [ReqOutcome::Done { degraded: true, .. }]),
            "no live device: must be the baseline"
        );
        assert_eq!((report.witnesses, report.witness_mismatches), (1, 0), "degraded vs oracle");
        assert_eq!(report.stats.kills, 2);
        assert_eq!(report.stats.degraded, 1);
        assert_eq!(report.stats.completed, 1);
    }

    #[test]
    fn kill_is_idempotent() {
        let mut eng = EventCluster::new(ArchSpec::pool_presets(2), quiet_cfg());
        eng.kill_at(SimTime::ZERO, 1);
        eng.kill_at(SimTime(1), 1);
        let stats = eng.run().stats;
        assert_eq!(stats.kills, 1);
        assert!(!stats.devices[1].alive);
        assert!(stats.devices[0].alive);
    }

    #[test]
    fn plan_cache_is_shared_across_submissions() {
        let mut eng = EventCluster::new(ArchSpec::pool_presets(2), quiet_cfg());
        closed_loop(&mut eng, &[GemmShape::new(40, 56, 72); 2], 5);
        let stats = eng.run().stats;
        // Each device class plans the signature once (placement
        // predicts on both classes); after that every placement is an
        // engine prediction-cache hit and every witness execution a
        // plan-cache hit.
        assert_eq!(stats.plan_cache.misses, 2);
        assert_eq!(stats.plan_cache.hits, 5);
        assert!(stats.sim_memo.hits + stats.sim_memo.misses > 0);
    }

    #[test]
    fn run_drains_every_queued_batch() {
        // One device, stealing off, a burst queued at once: every
        // request still completes, bitwise-exact.
        let mut cfg = quiet_cfg();
        cfg.steal.enabled = false;
        let mut eng = EventCluster::new(vec![ArchSpec::maxwell_m60()], cfg);
        for seed in 0..8 {
            eng.submit_at(SimTime::ZERO, sig(&[GemmShape::new(96, 96, 96); 2]), seed);
        }
        let report = eng.run();
        assert_eq!(report.stats.completed, 8, "drain contract: all batches complete");
        assert_eq!((report.witnesses, report.witness_mismatches), (8, 0));
    }
}

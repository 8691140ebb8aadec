//! The discrete-event cluster engine: heterogeneous multi-device
//! scheduling in *simulated* time.
//!
//! Every device is an element of a `Vec` — a bounded `VecDeque` of
//! jobs, a [`Breaker`] and an optional [`FaultInjector`] — and one
//! timeline drives them all: a min-heap of 32-byte entries, plus a FIFO
//! for the events scheduled at the instant last popped. The devices of
//! one architecture form an arch class, which plans through its one
//! [`Session`] on the pool-wide [`PlanShare`]. No thread is spawned and
//! nothing is locked, so pool size is bounded by memory, not by host
//! threads: a 10k-device pool processing a million requests only holds
//! longer vectors and more pending events.
//!
//! **Scheduling policy.** Placement walks
//! [`placer::rank`](crate::placer::rank), idle devices steal through
//! [`placer::steal_beneficial`](crate::placer::steal_beneficial),
//! failures charge the device's [`Breaker`] (a trip drains its queue
//! onto survivors), kills re-route queued work, and an exhausted
//! re-route budget falls back to the per-kernel default baseline. A job
//! draws its per-mille [`FaultInjector`] rolls in one fixed order when
//! it starts (slow stall → plan failure → exec panic), so a chaos
//! schedule is a pure function of its seeds. The chaos suite (`tests/chaos.rs`)
//! reconciles every schedule's trace, [`ClusterStats`] and fault logs
//! with `==`.
//!
//! **Placement cost.** A placement is a few table reads, whatever the
//! pool size. Every shape signature gets a dense id at admission, and
//! the prediction cache is one `Vec` indexed by (signature, arch class):
//! one `session.plan` per cell, and the calibration version read once
//! per placement. The signature also names the device holding its
//! operands, which the locality ranking reads. At 64 devices and more,
//! placement peeks one lazy min-heap of backlogs per arch class instead
//! of ranking every device; a heap that outgrows twice its class's
//! devices is rebuilt to one entry per live device. An idle device's
//! steal check scans the pool for a victim only while some queue holds
//! a job, which the engine counts where queues go empty ↔ non-empty.
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
use crate::placer::LocalityPolicy;
use crate::stats::{ClusterInner, ClusterStats, DeviceStats};
use ctb_core::hash::splitmix64;
use ctb_core::{CacheStats, Framework, PlanShare, Session};
use ctb_gpu_specs::ArchSpec;
use ctb_matrix::GemmShape;
use ctb_obs::{Obs, PointKind, SimClock};
use ctb_savestate::{savestate_enum, savestate_struct, Reader, Savestate, SavestateError, Writer};
use ctb_serve::{Breaker, BreakerPolicy, FaultInjector, FaultSite};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hash::BuildHasherDefault;
use std::sync::Arc;
use std::time::{Duration, Instant};

mod checkpoint;
mod execution;
mod placement;
mod timeline;

use execution::Running;
use placement::{ClassPrediction, Signature, WordHasher};
pub use timeline::SimTime;
use timeline::{Ev, Timeline};

/// Matrix fill parameters for witness batches: a witness with data seed
/// `s` executes `GemmBatch::random(shapes, WITNESS_ALPHA, WITNESS_BETA,
/// s)`, so a caller can rebuild any witness's exact inputs.
pub const WITNESS_ALPHA: f32 = 1.0;
/// See [`WITNESS_ALPHA`].
pub const WITNESS_BETA: f32 = 0.5;

/// Sim-time backoff before retrying an initial placement when every
/// candidate queue is full (50 µs of backpressure).
const BACKOFF_NS: u64 = 50_000;

// ---------------------------------------------------------------------------
// Jobs
// ---------------------------------------------------------------------------

/// One request in flight inside the event engine. It carries no
/// matrices — only the shape signature the cost model needs — unless it
/// is a witness (see module docs), in which case the matrices are
/// rebuilt from `seed` at execution time. A pending `Arrive` or
/// `PlaceDone` event holds one in a box, allocated where the arrival is
/// scheduled and kept until placement unboxes it, so the timeline entry
/// stays 32 bytes whatever the fields; a device queue holds its jobs
/// inline.
#[derive(Clone)]
struct EvJob {
    id: u64,
    shapes: Arc<[GemmShape]>,
    /// Dense id of `shapes` in the engine's signature table, assigned at
    /// admission ([`EventCluster::intern`]). Engine-local: never
    /// written, and [`UNINTERNED`] on a job just loaded from a blob.
    sig: usize,
    /// Data seed a witness materializes its matrices from.
    seed: u64,
    /// Predicted simulated µs on the device currently holding the job
    /// (re-predicted on steal/re-route).
    predicted_us: f64,
    /// Times the job has been moved between devices.
    attempts: u32,
    stolen: bool,
    witness: bool,
}

/// The `sig` of a job no engine has admitted yet. It indexes nothing,
/// so a job that skipped interning fails loudly at its first lookup.
const UNINTERNED: usize = usize::MAX;

/// Every field but `sig`, which names a row of one engine's table: a
/// loaded job is re-interned by admission or by
/// [`EventCluster::restore`].
impl Savestate for EvJob {
    fn save(&self, w: &mut Writer) {
        self.id.save(w);
        self.shapes.save(w);
        self.seed.save(w);
        self.predicted_us.save(w);
        self.attempts.save(w);
        self.stolen.save(w);
        self.witness.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SavestateError> {
        Ok(EvJob {
            id: Savestate::load(r)?,
            shapes: Savestate::load(r)?,
            sig: UNINTERNED,
            seed: Savestate::load(r)?,
            predicted_us: Savestate::load(r)?,
            attempts: Savestate::load(r)?,
            stolen: Savestate::load(r)?,
            witness: Savestate::load(r)?,
        })
    }
}

// ---------------------------------------------------------------------------
// Devices + config
// ---------------------------------------------------------------------------

/// One simulated GPU: job queue, breaker, optional chaos schedule and
/// the job it is running. It plans through its [`ArchClass`]. Plain
/// fields, because exactly one event handler touches them at a time.
/// The queue holds at most [`EventConfig::queue_capacity`] jobs (`land`
/// checks the bound before [`EventCluster::enqueue`]); a dead device
/// takes none, because every placement, steal and re-route skips
/// devices that are not `alive`.
struct EvDevice {
    id: usize,
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
    /// A StealCheck event for this device is on the timeline: set where
    /// it is scheduled, cleared where it fires, and read off the
    /// timeline by `restore`.
    steal_pending: bool,
    /// A BreakerProbe event for this device is on the timeline, kept
    /// like `steal_pending`.
    probe_pending: bool,
}

impl EvDevice {
    fn backlog(&self) -> f64 {
        self.backlog_us.max(0.0)
    }

    /// The device's key in its class heap. Backlogs are clamped
    /// non-negative, and non-negative IEEE doubles order identically to
    /// their bit patterns.
    fn index_key(&self) -> u64 {
        self.backlog().to_bits()
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

    fn snapshot(&self, name: &'static str) -> DeviceStats {
        DeviceStats {
            id: self.id,
            name,
            placements: self.placements,
            completed: self.completed,
            steals: self.steals,
            reroutes_out: self.reroutes_out,
            breaker_trips: self.breaker_trips,
            busy_sim_us: self.busy_sim_us,
            backlog_us: self.backlog(),
            queue_depth: self.queue.len(),
            utilization: 0.0, // filled in by `ClusterInner::snapshot`
            alive: self.alive,
            breaker_open: self.breaker.is_open(),
        }
    }
}

/// The devices of one architecture, which plan as one. Its session
/// answers every prediction, witness plan and ground-truth timing of
/// the class. `heap` is the lazy min-heap over its devices'
/// `(backlog bits, device)` that indexed placement peeks: stale entries
/// are discarded by value on peek, and a heap that outgrows twice the
/// class's devices is rebuilt to one entry per live device
/// ([`EventCluster::reindex`]).
struct ArchClass {
    session: Session,
    /// The class's devices, in pool order.
    devices: Vec<usize>,
    heap: BinaryHeap<Reverse<(u64, usize)>>,
}

impl ArchClass {
    fn arch(&self) -> &ArchSpec {
        self.session.framework().arch()
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
        StealPolicy { enabled: true, min_victim_backlog_us: 50.0, poll: Duration::from_millis(1) }
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

/// `load` rejects a generator [`LoadGen::new`] could not have built: no
/// mixes, or a `total_weight` other than the mixes' weight sum clamped
/// to at least 1. Its first arrival would index an empty mix list or
/// take a remainder by zero.
impl Savestate for LoadGen {
    fn save(&self, w: &mut Writer) {
        self.seed.save(w);
        self.mean_interarrival_ns.save(w);
        self.mixes.save(w);
        self.total_weight.save(w);
        self.remaining.save(w);
        self.drawn.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SavestateError> {
        let gen = LoadGen {
            seed: Savestate::load(r)?,
            mean_interarrival_ns: Savestate::load(r)?,
            mixes: Savestate::load(r)?,
            total_weight: Savestate::load(r)?,
            remaining: Savestate::load(r)?,
            drawn: Savestate::load(r)?,
        };
        if gen.mixes.is_empty() || gen.total_weight != total_weight(&gen.mixes) {
            return Err(SavestateError::Corrupt(format!(
                "load generator holds {} mixes with total_weight {}; LoadGen::new needs at \
                 least one mix and their weight sum, at least 1",
                gen.mixes.len(),
                gen.total_weight
            )));
        }
        Ok(gen)
    }
}

/// The weight a mix draw is taken modulo: the mixes' weight sum,
/// clamped to at least 1.
fn total_weight(mixes: &[ShapeMix]) -> u64 {
    mixes.iter().map(|m| u64::from(m.weight)).sum::<u64>().max(1)
}

impl LoadGen {
    pub fn new(
        seed: u64,
        mean_interarrival_ns: f64,
        requests: usize,
        mixes: Vec<ShapeMix>,
    ) -> Self {
        assert!(!mixes.is_empty(), "a load needs at least one shape mix");
        assert!(mean_interarrival_ns > 0.0, "inter-arrival mean must be positive");
        let total_weight = total_weight(&mixes);
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
            ShapeMix {
                name: "large",
                shapes: sig(&[GemmShape::new(128, 128, 256); 2]),
                weight: 15,
            },
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

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

/// The discrete-event cluster engine. Single-threaded: construct,
/// enqueue work ([`submit_at`](Self::submit_at) / [`load`](Self::load)
/// / [`kill_at`](Self::kill_at)), then [`run`](Self::run) the timeline
/// to exhaustion.
pub struct EventCluster {
    cfg: EventConfig,
    devices: Vec<EvDevice>,
    share: Arc<PlanShare>,
    timeline: Timeline,
    obs: Option<Arc<Obs>>,
    clock: Option<Arc<SimClock>>,
    stats: ClusterInner,
    outcomes: Vec<ReqOutcome>,
    /// Dense signature ids: every shape signature gets one at
    /// admission ([`intern`](Self::intern)), and `sigs[id]` holds it
    /// with the device its operands live on.
    sig_ids: HashMap<Arc<[GemmShape]>, usize, BuildHasherDefault<WordHasher>>,
    sigs: Vec<Signature>,
    /// The engine's prediction cache, one [`ClassPrediction`] per
    /// (signature, arch class) at `sig * classes.len() + class`: one
    /// `session.plan` per cell, after which a placement across 10k
    /// devices costs `classes` table reads, not `devices` planner calls.
    predictions: Vec<ClassPrediction>,
    /// Device → arch-class index, and the classes in order of their
    /// first device. A class is one spec: devices that share an arch
    /// name share one [`ArchSpec`].
    class_of: Vec<usize>,
    classes: Vec<ArchClass>,
    /// Devices whose queue holds at least one job, kept where a queue
    /// goes empty ↔ non-empty ([`enqueue`](Self::enqueue),
    /// [`dequeue`](Self::dequeue)); a steal check with none returns
    /// without scanning the pool.
    queued: usize,
    /// Sticky: once any breaker trips, placement falls back to the
    /// exact scan. The class index cannot see which devices serve an
    /// open window, and the exact scan's skip-and-consume walk over the
    /// full ranking is what defines the sidelining semantics. True
    /// exactly when some device has a breaker trip, which is how
    /// `restore` sets it.
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
    /// Requests admitted but not yet terminal: awaiting placement (a
    /// pending PlaceDone), queued or running. `restore` counts both
    /// from the timeline and the devices.
    open_jobs: usize,
    /// "True silicon" specs for calibration recording runs
    /// ([`EventCluster::set_ground_truth`]); `None` (the default)
    /// charges predicted time at completion, keeping placement error
    /// zero by construction. Never serialized — ground-truth runs
    /// refuse to checkpoint.
    ground_truth: Option<GroundTruth>,
    /// When `Some`, completions append a [`PlacementDecision`]
    /// ([`EventCluster::record_decisions`]). Never serialized.
    decisions: Option<Vec<PlacementDecision>>,
    /// Calibration-handle version the prediction cache was computed
    /// under; a mismatch on lookup clears the cache.
    calib_version: u64,
}

impl EventCluster {
    /// An engine over `pool`, one device per spec. Devices that share an
    /// arch name form one arch class, which plans through one session.
    ///
    /// # Panics
    ///
    /// When `pool` is empty, or when two devices share an arch name but
    /// not a spec: the prediction cache and the checkpoint know a class
    /// by its name.
    pub fn new(pool: Vec<ArchSpec>, cfg: EventConfig) -> Self {
        let n = pool.len();
        EventCluster::with_faults(pool, cfg, vec![None; n])
    }

    pub fn with_faults(
        pool: Vec<ArchSpec>,
        cfg: EventConfig,
        faults: Vec<Option<Arc<FaultInjector>>>,
    ) -> Self {
        EventCluster::build(pool, cfg, faults, None, None)
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
        let eng = EventCluster::build(pool, cfg, faults, Some(Arc::clone(&obs)), Some(clock));
        (eng, obs)
    }

    fn build(
        pool: Vec<ArchSpec>,
        cfg: EventConfig,
        faults: Vec<Option<Arc<FaultInjector>>>,
        obs: Option<Arc<Obs>>,
        clock: Option<Arc<SimClock>>,
    ) -> Self {
        assert!(!pool.is_empty(), "a cluster needs at least one device");
        assert_eq!(pool.len(), faults.len(), "one fault schedule slot per device");
        let share = Arc::new(PlanShare::new());
        let mut classes: Vec<ArchClass> = Vec::new();
        let class_of = pool
            .into_iter()
            .enumerate()
            .map(|(id, arch)| {
                let class = classes.iter().position(|c| c.arch().name == arch.name);
                let class = class.unwrap_or_else(|| {
                    let s = Session::with_share(Framework::new(arch.clone()), Arc::clone(&share));
                    let session = match &obs {
                        Some(o) => s.with_obs(Arc::clone(o)),
                        None => s,
                    };
                    classes.push(ArchClass {
                        session,
                        devices: Vec::new(),
                        heap: BinaryHeap::new(),
                    });
                    classes.len() - 1
                });
                let ArchClass { session, devices, heap } = &mut classes[class];
                assert!(
                    *session.framework().arch() == arch,
                    "device {id} is named {} but differs from the class's spec",
                    arch.name
                );
                // Seed the class heap with the all-idle state (a zero
                // backlog's key is 0) so the indexed path sees the whole
                // pool from the first placement.
                devices.push(id);
                heap.push(Reverse((0, id)));
                class
            })
            .collect();
        let devices: Vec<EvDevice> = faults
            .into_iter()
            .enumerate()
            .map(|(id, fault)| EvDevice {
                id,
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
            })
            .collect();
        let has_chiplets = classes.iter().any(|c| !c.arch().topology.is_unified());
        EventCluster {
            cfg,
            devices,
            share,
            timeline: Timeline::new(),
            obs,
            clock,
            stats: ClusterInner::default(),
            outcomes: Vec::new(),
            sig_ids: HashMap::default(),
            sigs: Vec::new(),
            predictions: Vec::new(),
            class_of,
            classes,
            queued: 0,
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
            decisions: None,
            calib_version: 0,
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

    /// Schedule one request to arrive at `at`, which must not precede
    /// the engine's current time. Returns its job id.
    pub fn submit_at(&mut self, at: SimTime, shapes: Arc<[GemmShape]>, seed: u64) -> u64 {
        assert!(
            at >= self.now,
            "arrival at {} ns precedes the engine's now, {} ns",
            at.as_ns(),
            self.now.as_ns()
        );
        let id = self.next_job_id;
        self.next_job_id += 1;
        let witness = self.is_witness(id);
        let job = Box::new(EvJob {
            id,
            shapes,
            sig: UNINTERNED,
            seed,
            predicted_us: 0.0,
            attempts: 0,
            stolen: false,
            witness,
        });
        self.pending_arrivals += 1;
        self.timeline.schedule(at, Ev::Arrive { job });
        id
    }

    /// Schedule a device kill at `at` (chaos schedules / sweeps), which
    /// must not precede the engine's current time.
    pub fn kill_at(&mut self, at: SimTime, device: usize) {
        assert!(device < self.devices.len(), "no such device");
        assert!(
            at >= self.now,
            "kill at {} ns precedes the engine's now, {} ns",
            at.as_ns(),
            self.now.as_ns()
        );
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

    /// The spec of `device`, which its arch class plans for.
    fn arch(&self, device: usize) -> &ArchSpec {
        self.classes[self.class_of[device]].arch()
    }

    /// Queue `job` behind `device`'s queue (the caller checked the
    /// bound), counting the queue in `queued` if it was empty.
    fn enqueue(&mut self, device: usize, job: EvJob) {
        let queue = &mut self.devices[device].queue;
        self.queued += usize::from(queue.is_empty());
        queue.push_back(job);
    }

    /// Take `device`'s front job, uncounting the queue if it empties.
    fn dequeue(&mut self, device: usize) -> Option<EvJob> {
        let queue = &mut self.devices[device].queue;
        let job = queue.pop_front()?;
        self.queued -= usize::from(queue.is_empty());
        Some(job)
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
        let devices = self.devices.iter().map(|d| d.snapshot(self.arch(d.id).name)).collect();
        let mut plan_cache = CacheStats::default();
        for class in &self.classes {
            let s = class.session.stats();
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
            Ev::PlaceDone { job } => self.on_place(*job),
            Ev::ExecDone { device } => self.on_exec_done(device),
            Ev::StealCheck { device } => self.on_steal_check(device),
            Ev::BreakerProbe { device } => self.on_breaker_probe(device),
            Ev::DeviceKill { device } => self.on_kill(device),
        }
    }

    fn on_arrive(&mut self, mut job: Box<EvJob>) {
        job.sig = self.intern(&job.shapes);
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
                let job = Box::new(fail.job);
                self.timeline.schedule(self.now.plus(BACKOFF_NS), Ev::PlaceDone { job });
            }
            Err(fail) if fail.plan_err.is_some() => {
                self.end_request(ReqOutcome::PlanRejected { id });
            }
            Err(fail) => {
                // No live device at all: serve inline through the
                // degraded baseline rather than dropping the request.
                self.stats.submitted += 1;
                self.degrade_inline(fail.job);
            }
        }
    }

    fn on_breaker_probe(&mut self, device: usize) {
        self.devices[device].probe_pending = false;
        if !self.devices[device].alive {
            return;
        }
        if self.devices[device].breaker.is_open() {
            // Still serving the open window: probe again later.
            self.schedule_probe(device);
            return;
        }
        // Healed: an idle recovered device goes back to stealing.
        self.maybe_schedule_steal(device);
    }

    fn on_kill(&mut self, device: usize) {
        // Re-route everything that was waiting. A job mid-execution
        // finishes normally (its ExecDone is already on the heap), as a
        // real drain lets in-flight kernels retire.
        if self.retire(device) {
            self.drain_and_reroute(device);
        }
    }

    /// Take `device` out of service: every placement, steal and
    /// re-route skips it from now on. Returns `false` when it was
    /// already dead.
    fn retire(&mut self, device: usize) -> bool {
        if !self.devices[device].alive {
            return false;
        }
        self.devices[device].alive = false;
        if let Some(o) = self.obs() {
            o.point(PointKind::Kill { device });
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctb_serve::FaultConfig;
    use proptest::prelude::*;
    use std::time::Duration;

    fn sig(shapes: &[GemmShape]) -> Arc<[GemmShape]> {
        shapes.into()
    }

    fn quiet_cfg() -> EventConfig {
        EventConfig::default()
    }

    /// What [`timeline_orders_by_time_then_schedule_order`] does to a
    /// timeline and to its model.
    #[derive(Debug, Clone)]
    enum TimelineOp {
        /// Schedule an event this many ns after the instant last
        /// popped: a steal check (kind 0), an arrival (1) or a
        /// placement (2), tagged with its schedule order.
        Schedule {
            after_ns: u64,
            kind: u32,
        },
        Pop,
        /// Save, load, and check that saving again gives the same bytes.
        RoundTrip,
    }

    fn timeline_op() -> impl Strategy<Value = TimelineOp> {
        let schedule = || {
            (0u64..3, 0u32..3).prop_map(|(after_ns, kind)| TimelineOp::Schedule { after_ns, kind })
        };
        prop_oneof![schedule(), schedule(), Just(TimelineOp::Pop), Just(TimelineOp::RoundTrip)]
    }

    /// The tag an event of [`timeline_orders_by_time_then_schedule_order`]
    /// carries.
    fn tag(ev: &Ev) -> u64 {
        match ev {
            Ev::Arrive { job } | Ev::PlaceDone { job } => job.id,
            Ev::StealCheck { device } => *device as u64,
            _ => unreachable!("only steal checks, arrivals and placements are scheduled"),
        }
    }

    proptest::proptest! {
        /// Schedules at and just after the instant last popped, pops and
        /// save → load round trips pop in the `(at, seq)` order of a
        /// sorted model, and `pending` and `for_each_job` see every
        /// pending event, on the heap or on the same-instant FIFO.
        #[test]
        fn timeline_orders_by_time_then_schedule_order(
            ops in proptest::collection::vec(timeline_op(), 1..160)
        ) {
            let mut t = Timeline::new();
            // `(at, seq, is a job)` of every pending event, sorted; its
            // seq is also its tag.
            let mut model: Vec<(u64, u64, bool)> = Vec::new();
            let (mut now, mut seq) = (0, 0);
            for op in ops {
                match op {
                    TimelineOp::Schedule { after_ns, kind } => {
                        let job = || {
                            Box::new(EvJob {
                                id: seq,
                                shapes: sig(&[GemmShape::new(8, 8, 8)]),
                                sig: UNINTERNED,
                                seed: seq,
                                predicted_us: 0.0,
                                attempts: 0,
                                stolen: false,
                                witness: false,
                            })
                        };
                        let ev = match kind {
                            0 => Ev::StealCheck { device: seq as usize },
                            1 => Ev::Arrive { job: job() },
                            _ => Ev::PlaceDone { job: job() },
                        };
                        let at = now + after_ns;
                        t.schedule(SimTime(at), ev);
                        // `seq` is the largest yet: last among equal times.
                        let i = model.partition_point(|e| e.0 <= at);
                        model.insert(i, (at, seq, kind != 0));
                        seq += 1;
                    }
                    TimelineOp::Pop => {
                        let want = (!model.is_empty()).then(|| model.remove(0)).map(|e| (e.0, e.1));
                        let got = t.pop().map(|(at, ev)| (at.as_ns(), tag(&ev)));
                        assert_eq!(got, want, "pop order");
                        now = got.map_or(now, |(at, _)| at);
                    }
                    TimelineOp::RoundTrip => {
                        let blob = encoded(&t);
                        t = Timeline::load(&mut Reader::new(&blob)).expect("loads");
                        assert_eq!(encoded(&t), blob, "save -> load -> save differs");
                    }
                }
                let mut pending: Vec<(u64, u64)> =
                    t.pending().map(|(at, ev)| (at.as_ns(), tag(ev))).collect();
                pending.sort_unstable();
                let want: Vec<(u64, u64)> = model.iter().map(|e| (e.0, e.1)).collect();
                assert_eq!(pending, want, "pending events");
                let mut jobs = Vec::new();
                t.for_each_job(|job| jobs.push(job.id));
                jobs.sort_unstable();
                let mut want: Vec<u64> = model.iter().filter(|e| e.2).map(|e| e.1).collect();
                want.sort_unstable();
                assert_eq!(jobs, want, "jobs seen by for_each_job");
            }
        }
    }

    /// A job rides boxed, so an event is two words (a timeline entry
    /// four).
    #[test]
    fn an_event_is_two_words() {
        assert_eq!(std::mem::size_of::<Ev>(), 2 * std::mem::size_of::<usize>());
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

    /// A checkpoint whose pending event precedes its `now` restores as
    /// `Corrupt`: its first `step` would run simulated time backwards.
    #[test]
    fn restore_rejects_a_pending_event_before_now() {
        let mut eng = EventCluster::new(ArchSpec::pool_presets(2), quiet_cfg());
        closed_loop(&mut eng, &[GemmShape::new(48, 64, 96)], 10);
        assert_eq!(eng.run_steps(20), 20);
        let now = eng.now.as_ns();
        assert!(now > 1, "20 steps must pass the first nanosecond");
        eng.timeline.schedule(SimTime(1), Ev::StealCheck { device: 0 });
        match EventCluster::restore(ArchSpec::pool_presets(2), &eng.checkpoint()) {
            Err(SavestateError::Corrupt(msg)) => {
                assert!(msg.contains("at 1 ns") && msg.contains(&format!("{now} ns")), "{msg}")
            }
            Err(e) => panic!("expected Corrupt, got {e:?}"),
            Ok(_) => panic!("restore accepted a pending event before now"),
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
        eng.devices[0].image(0).save(&mut one);
        let mut none = Writer::new();
        none.len_prefix(0);
        let blob = splice(&eng.checkpoint(), &one.into_bytes(), &none.into_bytes());
        match EventCluster::restore(Vec::new(), &blob) {
            Err(SavestateError::Corrupt(msg)) => assert!(msg.contains("zero devices"), "{msg}"),
            Err(e) => panic!("expected Corrupt, got {e:?}"),
            Ok(_) => panic!("restore accepted a checkpoint without devices"),
        }
    }

    /// The checkpoint holds one record per arch class, with its
    /// plan-cache counters. A blob whose class records leave out a class
    /// a device names, or add one no device of the pool needs, is
    /// `Corrupt`.
    #[test]
    fn restore_rejects_plan_cache_counters_for_another_class_count() {
        let mut eng = EventCluster::new(ArchSpec::pool_presets(2), quiet_cfg());
        closed_loop(&mut eng, &[GemmShape::new(40, 56, 72); 2], 3);
        eng.run();
        let classes = eng.class_images();
        let table = |picks: &[usize]| {
            let mut w = Writer::new();
            w.len_prefix(picks.len());
            picks.iter().for_each(|&class| classes[class].save(&mut w));
            w.into_bytes()
        };
        for picks in [&[0][..], &[0, 1, 0]] {
            let blob = splice(&eng.checkpoint(), &table(&[0, 1]), &table(picks));
            match EventCluster::restore(ArchSpec::pool_presets(2), &blob) {
                Err(SavestateError::Corrupt(msg)) => assert!(msg.contains("arch classes"), "{msg}"),
                Err(e) => panic!("expected Corrupt, got {e:?}"),
                Ok(_) => panic!("restore accepted class records {picks:?} for two classes"),
            }
        }
    }

    /// A class is one spec: the prediction cache and the checkpoint key
    /// classes by arch name, so two devices of one name must be equal.
    #[test]
    #[should_panic(expected = "differs from the class's spec")]
    fn a_pool_whose_devices_share_a_name_but_not_a_spec_is_refused() {
        let stock = ArchSpec::mcm_gpu_4die();
        let rewired = ArchSpec {
            topology: ctb_gpu_specs::ChipletTopology::split(4, 3_000.0, 0.6, 400.0),
            ..stock.clone()
        };
        EventCluster::new(vec![stock, rewired], quiet_cfg());
    }

    /// The blob holds no pending counts or flags: restore counts the
    /// pending arrivals and the open jobs, and sets each device's
    /// steal-check and probe flags and `breaker_active`, from the
    /// timeline and the devices. Checkpointed while each of them is
    /// set, the restored engine equals the original in all of them.
    #[test]
    fn restore_derives_pending_work_and_flags_from_the_timeline() {
        let cfg = EventConfig {
            breaker: BreakerPolicy { trip_threshold: 1, open_batches: 4 },
            witness_every: 0,
            ..quiet_cfg()
        };
        let panics = Arc::new(FaultInjector::new(FaultConfig::new(1).exec_panic(1000)));
        let mut eng =
            EventCluster::with_faults(ArchSpec::pool_presets(2), cfg, vec![Some(panics), None]);
        // The first job panics on device 0 and trips its breaker, which
        // arms a probe, and the idle device arms a steal check. Two jobs
        // arrive 1 µs later, and one a second later.
        let shapes = sig(&[GemmShape::new(48, 64, 96)]);
        for (at, seed) in [(1, 0), (1_000, 1), (1_000, 2), (1_000_000_000, 3)] {
            eng.submit_at(SimTime(at), shapes.clone(), seed);
        }
        let placing = |eng: &EventCluster| {
            eng.timeline.pending().any(|(_, ev)| matches!(ev, Ev::PlaceDone { .. }))
        };
        let flags = |eng: &EventCluster| -> Vec<(bool, bool)> {
            eng.devices.iter().map(|d| (d.steal_pending, d.probe_pending)).collect()
        };
        while !(placing(&eng) && eng.breaker_active && flags(&eng).contains(&(true, true))) {
            assert!(eng.step(), "the run never held a placement, a trip and both flags at once");
        }
        assert!(eng.pending_arrivals > 0, "no arrival pending at the checkpoint");
        let (restored, _) =
            EventCluster::restore(ArchSpec::pool_presets(2), &eng.checkpoint()).expect("restores");
        assert_eq!(restored.pending_arrivals, eng.pending_arrivals);
        assert_eq!(restored.open_jobs, eng.open_jobs);
        assert!(restored.breaker_active);
        assert_eq!(flags(&restored), flags(&eng));
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
        // Both inputs have two devices per class, so the class heaps are
        // rebuilt many times.
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
                    for class in &eng.classes {
                        let (heap, bound) = (class.heap.len(), 2 * class.devices.len());
                        assert!(heap <= bound, "class heap {heap} over {bound}");
                    }
                    let queued = eng.devices.iter().filter(|d| !d.queue.is_empty()).count();
                    assert_eq!(eng.queued, queued, "queued-device count");
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
        // Before `land` checked the bound ahead of charging the backlog,
        // a refused landing moved the backlog's last bits, and this run
        // took 2,463 events and 461.99995121500507 µs
        // (0x407c_dfff_ccd8_60ad).
        let full = full_queue_run.unwrap();
        assert_eq!(full.events_processed, 2_483);
        // 463.79484745762716 µs.
        assert_eq!(full.stats.makespan_sim_us.to_bits(), 0x407c_fcb7_b1f7_bd14);
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
        let mut eng =
            EventCluster::with_faults(ArchSpec::pool_presets(2), cfg, vec![Some(fault), None]);
        let shapes = sig(&[GemmShape::new(64, 64, 128); 3]);
        for i in 0..20 {
            eng.submit_at(SimTime::ZERO, shapes.clone(), i);
        }
        let report = eng.run();
        assert_eq!(report.stats.completed, 20);
        assert!(
            report.stats.steals >= 1,
            "expected at least one steal, got stats {:?}",
            report.stats.steals
        );
        let stolen = report
            .outcomes
            .iter()
            .filter(|o| matches!(o, ReqOutcome::Done { stolen: true, .. }))
            .count();
        assert_eq!(stolen, report.stats.steals);
    }

    /// Operand residency lives on the signature: admission places no
    /// operands, every landing (placement or steal) re-homes at most the
    /// one signature it moved onto its device, a later landing elsewhere
    /// takes the signature over (last writer wins), and a checkpoint
    /// carries every holder through restore byte for byte.
    #[test]
    fn residency_follows_the_last_landing_and_survives_a_checkpoint() {
        let mut cfg = quiet_cfg();
        cfg.witness_every = 0;
        let stall = FaultConfig::new(5).slow_worker(1000, Duration::from_millis(2));
        let faults = vec![Some(Arc::new(FaultInjector::new(stall))), None];
        let mut eng = EventCluster::with_faults(ArchSpec::pool_presets(2), cfg, faults);
        let mix = [sig(&[GemmShape::new(64, 64, 128); 3]), sig(&[GemmShape::new(32, 96, 64); 2])];
        for i in 0..20 {
            eng.submit_at(SimTime::ZERO, mix[i % 2].clone(), i as u64);
        }
        let landings =
            |eng: &EventCluster| eng.devices.iter().map(|d| d.placements + d.steals).collect();
        let holders = |eng: &EventCluster| -> HashMap<Arc<[GemmShape]>, usize> {
            eng.sigs.iter().filter_map(|s| Some((Arc::clone(&s.shapes), s.holder?))).collect()
        };
        assert!(eng.step(), "the first arrival");
        assert!(holders(&eng).is_empty(), "admission alone places no operands");
        let (mut rehomed, mut round_tripped) = (0, false);
        let mut before: Vec<usize> = landings(&eng);
        let mut homes = holders(&eng);
        while eng.step() {
            let after: Vec<usize> = landings(&eng);
            let landed: Vec<usize> = (0..after.len()).filter(|&d| after[d] != before[d]).collect();
            let now = holders(&eng);
            let moved: Vec<_> = now.iter().filter(|(sig, h)| homes.get(*sig) != Some(h)).collect();
            match landed[..] {
                [] => assert!(moved.is_empty(), "operands moved without a landing"),
                [device] => {
                    assert!(moved.len() <= 1, "one landing moved {} signatures", moved.len());
                    for (sig, &holder) in moved {
                        assert_eq!(holder, device, "the landing device holds the operands");
                        rehomed += usize::from(homes.contains_key(sig));
                    }
                }
                _ => panic!("one event landed on devices {landed:?}"),
            }
            if !round_tripped && now.len() == 2 {
                let blob = eng.checkpoint();
                let (restored, _) =
                    EventCluster::restore(ArchSpec::pool_presets(2), &blob).expect("restores");
                assert_eq!(holders(&restored), now);
                assert_eq!(restored.checkpoint(), blob, "save -> restore -> save differs");
                round_tripped = true;
            }
            (before, homes) = (after, now);
        }
        assert!(eng.stats_snapshot().steals > 0, "no steal moved operands");
        assert!(rehomed > 0, "no signature changed hands");
        assert!(round_tripped, "no signature table held both holders");
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
        // refused-after-kill contract lives at the device: a dead
        // device takes no placement, and its peer serves all.
        let mut eng = EventCluster::new(ArchSpec::pool_presets(2), quiet_cfg());
        eng.kill_at(SimTime::ZERO, 0);
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

    /// An arrival scheduled before the engine's now would run simulated
    /// time backwards; the engine is not stepped after the refused call.
    #[test]
    #[should_panic(expected = "arrival at 1 ns precedes the engine's now, 5000 ns")]
    fn submit_before_now_is_refused() {
        let mut eng = EventCluster::new(ArchSpec::pool_presets(2), quiet_cfg());
        let shapes = sig(&[GemmShape::new(32, 32, 32)]);
        eng.submit_at(SimTime(5_000), shapes.clone(), 1);
        assert!(eng.step(), "the arrival");
        eng.submit_at(SimTime(1), shapes, 2);
    }

    /// A kill scheduled before the engine's now is refused likewise.
    #[test]
    #[should_panic(expected = "kill at 1 ns precedes the engine's now, 5000 ns")]
    fn kill_before_now_is_refused() {
        let mut eng = EventCluster::new(ArchSpec::pool_presets(2), quiet_cfg());
        eng.kill_at(SimTime(5_000), 0);
        assert!(eng.step(), "the kill");
        eng.kill_at(SimTime(1), 1);
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

    /// A restored generator whose mixes are empty, or whose
    /// `total_weight` is not the mixes' weight sum as `LoadGen::new`
    /// computes it, is `Corrupt`: the first arrival would index an
    /// empty mix list or take a remainder by zero.
    #[test]
    fn restore_rejects_a_load_generator_new_could_not_build() {
        let mut eng = EventCluster::new(ArchSpec::pool_presets(2), quiet_cfg());
        eng.load(LoadGen::table2(5, 20_000.0, 40));
        eng.run_steps(30);
        let gen = eng.gen.clone().expect("the load is attached");
        assert!(gen.requests_remaining() > 0, "the checkpoint must fall mid-load");
        let blob = eng.checkpoint();
        let empty = LoadGen { mixes: Vec::new(), total_weight: 1, ..gen.clone() };
        let zero = LoadGen { total_weight: 0, ..gen.clone() };
        let inflated = LoadGen { total_weight: gen.total_weight + 1, ..gen.clone() };
        for corrupt in [empty, zero, inflated] {
            let spliced = splice(&blob, &encoded(&gen), &encoded(&corrupt));
            match EventCluster::restore(ArchSpec::pool_presets(2), &spliced) {
                Err(SavestateError::Corrupt(msg)) => assert!(msg.contains("load"), "{msg}"),
                Err(e) => panic!("expected Corrupt, got {e:?}"),
                Ok(_) => panic!(
                    "restore accepted {} mixes with total_weight {}",
                    corrupt.mixes.len(),
                    corrupt.total_weight
                ),
            }
        }
    }

    /// FNV-1a over one seeded run of 64 `pool_presets` devices under
    /// `PlacementMode::Auto`, so placement takes the indexed path, with
    /// witnesses, a stalling device whose queue the others steal from,
    /// and a kill mid-run that re-routes queued work: every outcome, each
    /// device's placements, completions, steals and busy time, the
    /// makespan and the event count. Any change to a routing decision or
    /// a charged time shows here.
    #[test]
    fn engine_run_matches_the_golden_digest() {
        let cfg = EventConfig { witness_every: 61, placement: PlacementMode::Auto, ..quiet_cfg() };
        let mut faults = vec![None; 64];
        let stall = FaultConfig::new(5).slow_worker(1000, Duration::from_micros(300));
        faults[3] = Some(Arc::new(FaultInjector::new(stall)));
        let mut eng = EventCluster::with_faults(ArchSpec::pool_presets(64), cfg, faults);
        eng.load(LoadGen::table2(17, 100.0, 3_000));
        eng.kill_at(SimTime::from_us(200), 5);
        let report = eng.run();
        let s = &report.stats;
        assert_eq!((report.requests, s.completed, s.kills), (3_000, 3_000, 1));
        assert!(s.steals > 0 && s.reroutes > 0, "steals {} reroutes {}", s.steals, s.reroutes);
        assert_eq!((report.witnesses, report.witness_mismatches), (50, 0));
        let fnv = |h: u64, v: u64| {
            v.to_le_bytes().iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3))
        };
        let mut h = 0xCBF2_9CE4_8422_2325;
        for o in &report.outcomes {
            let words = match *o {
                ReqOutcome::Done { id, device, degraded, stolen, reroutes } => {
                    vec![
                        0,
                        id,
                        device as u64,
                        u64::from(degraded),
                        u64::from(stolen),
                        reroutes.into(),
                    ]
                }
                ReqOutcome::PlanRejected { id } => vec![1, id],
                ReqOutcome::Failed { id } => vec![2, id],
            };
            h = words.into_iter().fold(h, fnv);
        }
        for d in &s.devices {
            let words = [d.placements as u64, d.completed as u64, d.steals as u64];
            h = fnv(words.into_iter().fold(h, fnv), d.busy_sim_us.to_bits());
        }
        h = fnv(fnv(h, s.makespan_sim_us.to_bits()), report.events_processed);
        assert_eq!(h, 0x1dfd_40ee_21da_75f1, "digest {h:#018x}");
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

//! # ctb-cluster — heterogeneous multi-GPU scheduling for coordinated GEMM
//!
//! The paper evaluates its coordinated tiling/batching framework on six
//! NVIDIA GPUs, one device at a time; this crate scales the same
//! framework *across* a pool of simulated devices. The design premise is
//! the paper's own methodology turned sideways: if the analytical
//! hardware model is accurate enough to choose tilings and batchings, it
//! is accurate enough to choose **devices**. Placement therefore asks
//! the per-architecture simulator (through the pool-wide memoized
//! [`ctb_core::PlanShare`]) what each live device would need for the
//! batch, adds the device's current predicted backlog, and queues the
//! batch on the argmin — and an idle device steals queued work from a
//! saturated peer only when that same model says the move wins.
//!
//! One engine, [`EventCluster`], runs the pool in simulated time: a
//! timeline of typed [`SimTime`] events drives every device — a bounded
//! job queue (a plain `VecDeque`: the engine is single-threaded, so
//! nothing locks), and `ctb-serve`'s circuit breaker and optional
//! deterministic fault injector — and the devices of one architecture
//! plan through their class's one [`ctb_core::Session`] on the shared
//! plan cache. Witness requests execute for real through
//! the functional executor and are checked against the exact oracle, so
//! results are bitwise-exact no matter which device — or how many
//! re-routes — produced them. Serving caller-owned data on real threads
//! is `ctb-serve`'s job.
//!
//! ```
//! use ctb_cluster::{EventCluster, EventConfig, ReqOutcome, SimTime};
//! use ctb_gpu_specs::ArchSpec;
//! use ctb_matrix::GemmShape;
//!
//! // A V100 + Titan Xp pool, routed by the cost model. The default
//! // config executes every request for real and checks it bitwise.
//! let mut cluster = EventCluster::new(ArchSpec::pool_presets(2), EventConfig::default());
//! cluster.submit_at(SimTime::ZERO, [GemmShape::new(64, 64, 64); 4].into(), 1);
//! let report = cluster.run();
//! assert_eq!(report.stats.completed, 1);
//! assert_eq!((report.witnesses, report.witness_mismatches), (1, 0));
//! assert!(matches!(report.outcomes[..], [ReqOutcome::Done { degraded: false, .. }]));
//! ```

pub mod drift;
pub mod events;
pub mod placer;
mod stats;

pub use drift::{GroundTruth, PlacementDecision};
pub use events::{
    EngineReport, EventCluster, EventConfig, LoadGen, PlacementMode, ReqOutcome, ShapeMix, SimTime,
    StealPolicy, WITNESS_ALPHA, WITNESS_BETA,
};
pub use placer::{steal_beneficial, Candidate, LocalityPolicy};
pub use stats::{ClusterStats, DeviceStats};

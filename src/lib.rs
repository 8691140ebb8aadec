//! Umbrella crate re-exporting the full coordinated tiling + batching
//! framework (PPoPP '19 reproduction).
//!
//! Most users only need [`prelude`]:
//!
//! ```
//! use ctb::prelude::*;
//!
//! let arch = ArchSpec::volta_v100();
//! let shapes = vec![GemmShape::new(64, 64, 64), GemmShape::new(128, 128, 32)];
//! let batch = GemmBatch::random(&shapes, 1.0, 0.0, 42);
//! let framework = Framework::new(arch);
//! let outcome = framework.run(&batch).expect("planning succeeded");
//! println!("simulated time: {:.1} us", outcome.plan.predicted_us);
//! ```

pub use ctb_baselines as baselines;
pub use ctb_batching as batching;
pub use ctb_bench as bench;
pub use ctb_calib as calib;
pub use ctb_cluster as cluster;
pub use ctb_convnet as convnet;
pub use ctb_core as core;
pub use ctb_forest as forest;
pub use ctb_gpu_specs as gpu_specs;
pub use ctb_matrix as matrix;
pub use ctb_obs as obs;
pub use ctb_serve as serve;
pub use ctb_sim as sim;
pub use ctb_tiling as tiling;

/// Commonly used types, one `use` away.
pub mod prelude {
    pub use ctb_baselines::{cke, cublas_like, default_serial, magma_vbatch};
    pub use ctb_batching::{BatchPlan, BatchingHeuristic};
    pub use ctb_calib::{fit_decisions, CalibProfile, GroundTruth, TraceDataset};
    pub use ctb_cluster::{
        ClusterStats, EventCluster, EventConfig, LoadGen, PlacementMode, SimTime, StealPolicy,
    };
    pub use ctb_core::{Framework, FrameworkConfig, RunOutcome, Session};
    pub use ctb_gpu_specs::{ArchSpec, Thresholds};
    pub use ctb_matrix::{GemmBatch, GemmShape};
    pub use ctb_obs::{Obs, SimClock, TraceAudit};
    pub use ctb_serve::{GemmRequest, ServeConfig, Server};
    pub use ctb_sim::SimReport;
    pub use ctb_tiling::TilingStrategy;
}

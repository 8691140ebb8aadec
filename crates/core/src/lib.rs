//! The coordinated tiling + batching framework — the paper's primary
//! contribution (Fig 4).
//!
//! [`Framework::run`] takes a [`ctb_matrix::GemmBatch`] through the two
//! phases:
//!
//! 1. **Tiling engine** (§4): [`ctb_tiling::select_tiling`] picks one
//!    Table 2 strategy per GEMM under the unified thread structure;
//! 2. **Batching engine** (§5): a batching policy (threshold heuristic,
//!    binary heuristic, best-of-both, or the random-forest online
//!    selector) assigns the tiles to thread blocks.
//!
//! The result is an [`ExecutionPlan`] holding the five auxiliary arrays
//! of §6. The plan is *executed* twice over:
//!
//! * functionally, by the persistent-threads interpreter in
//!   [`interface`] (the Fig 7 code skeleton), producing real `f32`
//!   results checkable against the reference GEMM;
//! * temporally, by lowering it to a [`ctb_sim::KernelDesc`]
//!   ([`lowering`]) and running the timing simulator.

pub mod admission;
pub mod autotune;
pub mod dynamic;
pub mod framework;
pub mod hash;
pub mod hotswap;
pub mod interface;
pub mod lowering;
pub mod memo;
pub mod selector;
pub mod session;
pub mod splitk;

pub use framework::{BatchingPolicy, ExecutionPlan, Framework, FrameworkConfig, RunOutcome};
pub use hotswap::{CalibHandle, CalibState};
pub use interface::{execute_plan, execute_plan_unpacked, tile_kernel_name};
pub use memo::SimMemo;
pub use lowering::{lower_plan, tile_pass};
pub use selector::OnlineSelector;
pub use admission::{AdmissionPolicy, AdmissionStats, BloomGate};
pub use session::{operand_bytes, shape_sig_hash, CacheStats, OperandHome, PlanShare, PlanShareConfig, Session};
pub use dynamic::{plan_dynamic, simulate_dynamic};
pub use splitk::{plan_splitk, run_splitk};

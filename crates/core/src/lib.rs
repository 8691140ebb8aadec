//! The coordinated tiling + batching framework — the paper's primary
//! contribution (Fig 4).
//!
//! [`Framework::run`] takes a [`ctb_matrix::GemmBatch`] through the two
//! phases:
//!
//! 1. **Tiling engine** (§4): [`ctb_tiling::select_tiling`] picks one
//!    Table 2 strategy per GEMM under the unified thread structure;
//! 2. **Batching engine** (§5): a batching policy (threshold heuristic,
//!    binary heuristic, or best-of-both, which an installed
//!    random-forest online selector narrows to its pick) assigns the
//!    tiles to thread blocks.
//!
//! The result is an [`ExecutionPlan`] holding the five auxiliary arrays
//! of §6 and the plan's simulated time. The time comes from planning:
//! each candidate scheme is lowered to a [`ctb_sim::KernelDesc`]
//! ([`lowering`]) and run through the timing simulator, and the plan
//! keeps the fastest one's `predicted_us`. Running a batch executes the
//! plan once, functionally, on the packed executor in [`interface`]
//! (the Fig 7 programming interface), producing real `f32` results
//! checkable against the reference GEMM.

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

pub use dynamic::{plan_dynamic, simulate_dynamic};
pub use framework::{BatchingPolicy, ExecutionPlan, Framework, FrameworkConfig, RunOutcome};
pub use hotswap::{CalibHandle, CalibState};
pub use interface::{execute_plan, tile_kernel_name};
pub use lowering::{lower_plan, tile_pass};
pub use memo::SimMemo;
pub use selector::OnlineSelector;
pub use session::{operand_bytes, CacheStats, PlanShare, Session};
pub use splitk::{plan_splitk, run_splitk};

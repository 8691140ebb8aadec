//! The paper's **tiling engine** (§4): tiling strategies, the
//! parallelism / single-thread-performance models (Eqs 1–4), and the
//! three-step tiling-strategy selection algorithm (§4.2.3).
//!
//! Two strategy tables are provided:
//! * [`strategy::SINGLE_GEMM_STRATEGIES`] — Table 1, classic strategies
//!   for a lone GEMM (each with its own thread-block size);
//! * [`strategy::batched_strategies`] — Table 2, the paper's unified
//!   thread structure: every strategy comes in a 128-thread and a
//!   256-thread version so that *all* tiles in a batched kernel can share
//!   one block size without idling threads.

pub mod model;
pub mod select;
pub mod single;
pub mod strategy;
pub mod trace;

pub use model::{arithmetic_intensity, num_fma, num_load, tlp};
pub use select::{select_tiling, TilingSolution};
pub use single::select_single_gemm;
pub use trace::{select_tiling_traced, SelectionTrace, TraceRound};
pub use strategy::{StrategyKind, ThreadCount, TilingStrategy};

//! Baseline batched-GEMM executions the paper compares against (§3, §7
//! and the artifact appendix): `default`, `cke`, a cuBLAS-like same-size
//! batcher, and MAGMA `vbatch`.
//!
//! Every baseline produces a [`BaselineRun`]: a
//! [`LaunchSequence`](ctb_sim::LaunchSequence) for the timing simulator
//! plus a functional [`BatchPlan`](ctb_batching::BatchPlan) so its numerical
//! results can be verified against the reference GEMM bit for bit, like
//! the coordinated framework's.

pub mod cke_exec;
pub mod cublas_like_exec;
pub mod default_exec;
pub mod magma;
pub mod run;

pub use cke_exec::cke;
pub use cublas_like_exec::cublas_like;
pub use default_exec::{default_functional, default_serial};
pub use magma::magma_vbatch;
pub use run::{execute_baseline, simulate_baseline, BaselineRun};

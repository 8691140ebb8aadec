//! Matrices, the reference GEMM, and synthetic batched-GEMM workload
//! generators.
//!
//! Everything in the reproduction is checked against [`gemm::gemm_ref`]:
//! the plan executor, on the framework's plans and all four baselines',
//! produces `C` matrices bitwise identical to it for the same inputs
//! ([`GemmBatch::reference_result_exact`]), under the NaN-payload
//! contract stated on [`bitwise_mismatch`]. What makes it the oracle is
//! its per-output summation order: `C[i][j]` starts at `+0.0`, adds
//! `A[i][p] * B[p][j]` for `p = 0..k` in ascending order, and ends as
//! `alpha * acc + beta * C[i][j]`. It walks B by rows into one
//! accumulator row per output row, so the compiler vectorizes across
//! `j` without reordering any output's sum.
//!
//! Matrices are dense row-major `f32` ([`MatF32`]); GEMM semantics follow
//! the paper: `C = alpha * A * B + beta * C` with `A: M×K`, `B: K×N`,
//! `C: M×N`.

pub mod batch;
pub mod compare;
pub mod gemm;
pub mod gen;
pub mod mat;

pub use batch::{GemmBatch, GemmShape};
pub use compare::{
    assert_all_close, assert_bitwise_eq, bitwise_mismatch, max_abs_diff, MatchReport,
};
pub use gemm::gemm_ref;
pub use mat::MatF32;

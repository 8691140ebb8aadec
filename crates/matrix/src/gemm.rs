//! The reference GEMM.
//!
//! `C = alpha * A * B + beta * C`, where each output `C[i][j]` starts
//! its sum at `+0.0`, adds `A[i][p] * B[p][j]` for `p = 0..k` in
//! ascending order, and ends as `alpha * acc + beta * C[i][j]`. That
//! per-output operation sequence is what makes it the oracle: every
//! executor in the repository replays it and is checked against this
//! function bit for bit. The loop walks B by rows into one accumulator
//! row per output row, which leaves each output's sequence unchanged
//! and lets the compiler vectorize across `j`. The one fast host GEMM
//! is the packed executor's tile kernel in ctb-core.

use crate::mat::MatF32;

/// Reference GEMM, the correctness oracle for every executor in this
/// repository. Output `C[i][j]` is `alpha * acc + beta * C[i][j]`,
/// where `acc` is `+0.0` plus `A[i][p] * B[p][j]` for `p = 0..k`,
/// added in ascending `p`. Row `i` keeps `n` accumulators and adds
/// `A[i][p]` times row `p` of B into them, so no output's summation
/// order depends on how the loop is vectorized.
pub fn gemm_ref(alpha: f32, a: &MatF32, b: &MatF32, beta: f32, c: &mut MatF32) {
    let (m, k) = (a.rows(), a.cols());
    let n = b.cols();
    assert_eq!(b.rows(), k, "inner dimensions must agree");
    assert_eq!(c.rows(), m, "C rows");
    assert_eq!(c.cols(), n, "C cols");
    if n == 0 {
        // No outputs, and `chunks_exact` takes no zero width.
        return;
    }
    let (a, b) = (a.as_slice(), b.as_slice());
    // Detach C once up front; per-element `set` would re-check the
    // copy-on-write refcount on every store.
    let cs = c.as_mut_slice();
    let mut acc = vec![0.0f32; n];
    for (i, c_row) in cs.chunks_exact_mut(n).enumerate() {
        acc.fill(0.0);
        for (&a_ip, b_row) in a[i * k..(i + 1) * k].iter().zip(b.chunks_exact(n)) {
            for (acc_j, &b_pj) in acc.iter_mut().zip(b_row) {
                *acc_j += a_ip * b_pj;
            }
        }
        for (c_ij, &acc_j) in c_row.iter_mut().zip(&acc) {
            *c_ij = alpha * acc_j + beta * *c_ij;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::{bitwise_mismatch, max_abs_diff};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn identity_times_matrix_is_matrix() {
        let b = MatF32::random(6, 9, 5);
        let a = MatF32::eye(6, 6);
        let mut c = MatF32::zeros(6, 9);
        gemm_ref(1.0, &a, &b, 0.0, &mut c);
        assert!(max_abs_diff(&b, &c) < 1e-7);
    }

    #[test]
    fn beta_only_scales_c_when_alpha_zero() {
        let a = MatF32::random(4, 4, 1);
        let b = MatF32::random(4, 4, 2);
        let mut c = MatF32::filled(4, 4, 2.0);
        gemm_ref(0.0, &a, &b, 0.5, &mut c);
        assert!(c.as_slice().iter().all(|&v| (v - 1.0).abs() < 1e-7));
    }

    #[test]
    fn degenerate_dimensions() {
        // K = 0: C should just be scaled by beta.
        let a = MatF32::zeros(3, 0);
        let b = MatF32::zeros(0, 2);
        let mut c = MatF32::filled(3, 2, 4.0);
        gemm_ref(1.0, &a, &b, 0.25, &mut c);
        assert!(c.as_slice().iter().all(|&v| (v - 1.0).abs() < 1e-7));

        // M = 0 / N = 0 must not panic.
        let a = MatF32::zeros(0, 5);
        let b = MatF32::random(5, 2, 3);
        let mut c = MatF32::zeros(0, 2);
        gemm_ref(1.0, &a, &b, 0.0, &mut c);
        let a = MatF32::random(4, 5, 4);
        let b = MatF32::zeros(5, 0);
        let mut c = MatF32::zeros(4, 0);
        gemm_ref(1.0, &a, &b, 0.0, &mut c);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn mismatched_inner_dims_panic() {
        let a = MatF32::zeros(2, 3);
        let b = MatF32::zeros(4, 2);
        let mut c = MatF32::zeros(2, 2);
        gemm_ref(1.0, &a, &b, 0.0, &mut c);
    }

    /// The element-at-a-time `i-j-p` loop the row-order oracle
    /// replaced: one serial sum per output, in the same order.
    fn gemm_ijp(alpha: f32, a: &MatF32, b: &MatF32, beta: f32, c: &mut MatF32) {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a.get(i, p) * b.get(p, j);
                }
                c.set(i, j, alpha * acc + beta * c.get(i, j));
            }
        }
    }

    /// Seeded random shapes, including `k = 0`, `m = 1` and widths that
    /// are no multiple of any SIMD width, with ±0, ±∞ and the CPU's own
    /// NaN (∞ × 0, the payload the `bitwise_mismatch` contract allows)
    /// scattered through A, B and C, under `alpha`/`beta` of 0, 1 and
    /// other values: the row-order oracle equals the `i-j-p` loop bit
    /// for bit.
    #[test]
    fn row_order_oracle_equals_the_ijp_loop_bit_for_bit() {
        let cpu_nan = std::hint::black_box(f32::INFINITY) * std::hint::black_box(0.0);
        let specials = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, cpu_nan];
        let scalars = [0.0, 1.0, -0.75, 2.5];
        let mut rng = StdRng::seed_from_u64(0x0AC1E);
        let mut cases = 0;
        for m in [1, 2, 7] {
            for n in [1, 3, 17, 33] {
                for k in [0, 1, 5, 19] {
                    let seed = rng.random_range(0..u64::MAX);
                    let mut ops = [
                        MatF32::random(m, k, seed),
                        MatF32::random(k, n, seed ^ 1),
                        MatF32::random(m, n, seed ^ 2),
                    ];
                    // Poison about one element in eight of each operand.
                    for op in &mut ops {
                        for v in op.as_mut_slice() {
                            if rng.random_range(0..8) == 0 {
                                *v = specials[rng.random_range(0..specials.len())];
                            }
                        }
                    }
                    let [a, b, c] = ops;
                    for alpha in scalars {
                        for beta in scalars {
                            let (mut want, mut got) = (c.clone(), c.clone());
                            gemm_ijp(alpha, &a, &b, beta, &mut want);
                            gemm_ref(alpha, &a, &b, beta, &mut got);
                            let diff = bitwise_mismatch(&[want], &[got]);
                            assert!(
                                diff.is_none(),
                                "{m}x{n}x{k}, alpha {alpha}, beta {beta}: first mismatch {diff:x?}"
                            );
                            cases += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(cases, 3 * 4 * 4 * 16);
    }
}

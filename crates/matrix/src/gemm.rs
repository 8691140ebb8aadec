//! The reference GEMM.
//!
//! `C = alpha * A * B + beta * C` as a naive triple loop: each element
//! sums its products in ascending k from `0.0`, then applies
//! `alpha * acc + beta * c`. Every executor in the repository replays
//! that operation sequence and is checked against this loop bit for
//! bit. The one fast host GEMM is the packed executor's tile kernel in
//! ctb-core.

use crate::mat::MatF32;

/// Naive triple-loop GEMM. The correctness oracle for every executor
/// in this repository.
pub fn gemm_ref(alpha: f32, a: &MatF32, b: &MatF32, beta: f32, c: &mut MatF32) {
    let (m, k) = (a.rows(), a.cols());
    let n = b.cols();
    assert_eq!(b.rows(), k, "inner dimensions must agree");
    assert_eq!(c.rows(), m, "C rows");
    assert_eq!(c.cols(), n, "C cols");
    // Detach C once up front; per-element `set` would re-check the
    // copy-on-write refcount on every store.
    let cs = c.as_mut_slice();
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a.get(i, p) * b.get(p, j);
            }
            cs[i * n + j] = alpha * acc + beta * cs[i * n + j];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::max_abs_diff;

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
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn mismatched_inner_dims_panic() {
        let a = MatF32::zeros(2, 3);
        let b = MatF32::zeros(4, 2);
        let mut c = MatF32::zeros(2, 2);
        gemm_ref(1.0, &a, &b, 0.0, &mut c);
    }
}

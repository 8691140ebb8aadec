//! Comparison between matrices: bit for bit, or within a tolerance
//! for the paths that reassociate on purpose (split-K, direct
//! convolution).

use crate::mat::MatF32;

/// `|x - y|`, where equal values (same-signed infinities included) and
/// NaN against NaN differ by 0, and NaN against a number by infinity.
fn abs_diff(x: f32, y: f32) -> f32 {
    match (x.is_nan(), y.is_nan()) {
        (true, true) => 0.0,
        (true, false) | (false, true) => f32::INFINITY,
        _ if x == y => 0.0,
        _ => (x - y).abs(),
    }
}

/// Maximum absolute element-wise difference between two same-shaped
/// matrices. Equal values and NaN against NaN differ by 0; a NaN
/// against a number is an infinite difference.
pub fn max_abs_diff(a: &MatF32, b: &MatF32) -> f32 {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "shape mismatch");
    a.as_slice().iter().zip(b.as_slice()).map(|(&x, &y)| abs_diff(x, y)).fold(0.0f32, f32::max)
}

/// Summary of a comparison across a batch of matrices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchReport {
    /// Largest absolute difference over every element of every pair,
    /// infinite where a NaN meets a number.
    pub max_abs: f32,
    /// Largest relative difference (`|x-y| / max(1, |x|)`), infinite
    /// wherever the absolute difference is.
    pub max_rel: f32,
    /// Total elements compared.
    pub elements: usize,
}

impl MatchReport {
    /// Compare two equally sized batches of matrices.
    pub fn compare(expected: &[MatF32], actual: &[MatF32]) -> MatchReport {
        assert_eq!(expected.len(), actual.len(), "batch length mismatch");
        let mut r = MatchReport { max_abs: 0.0, max_rel: 0.0, elements: 0 };
        for (e, a) in expected.iter().zip(actual) {
            assert_eq!((e.rows(), e.cols()), (a.rows(), a.cols()), "shape mismatch");
            for (&x, &y) in e.as_slice().iter().zip(a.as_slice()) {
                let d = abs_diff(x, y);
                r.max_abs = r.max_abs.max(d);
                // An infinite difference stays infinite even against an
                // infinite `x`, where the quotient would be NaN.
                let rel = if d.is_infinite() { d } else { d / x.abs().max(1.0) };
                r.max_rel = r.max_rel.max(rel);
                r.elements += 1;
            }
        }
        r
    }

    /// True when all differences are within `tol` relative tolerance.
    pub fn within(&self, tol: f32) -> bool {
        self.max_rel <= tol
    }
}

/// First bitwise mismatch between two equally sized batches, if any:
/// `(matrix index, element index, expected bits, actual bits)`.
///
/// Elements are compared by their `f32` bit patterns, so NaNs compare
/// equal exactly when they carry identical payloads — the right notion
/// of "same result" for executors that are required to replay the
/// identical floating-point operation sequence.
///
/// The contract: every executor matches the oracle
/// ([`crate::GemmBatch::reference_result_exact`]) bit for bit when every
/// NaN in the inputs carries the payload the CPU itself makes (∞ × 0,
/// `0xffc00000` on x86-64). Rust leaves unspecified which payload an
/// operation on two different NaNs returns, and LLVM commutes `fadd`,
/// so where an input NaN of another payload (`f32::NAN` is
/// `0x7fc00000`) meets a NaN the arithmetic makes (∞ × 0, ∞ − ∞), two
/// paths may disagree on the payload. The comparison stays
/// payload-exact: such inputs are outside the contract, not forgiven.
pub fn bitwise_mismatch(
    expected: &[MatF32],
    actual: &[MatF32],
) -> Option<(usize, usize, u32, u32)> {
    assert_eq!(expected.len(), actual.len(), "batch length mismatch");
    for (g, (e, a)) in expected.iter().zip(actual).enumerate() {
        assert_eq!((e.rows(), e.cols()), (a.rows(), a.cols()), "shape mismatch");
        for (i, (&x, &y)) in e.as_slice().iter().zip(a.as_slice()).enumerate() {
            if x.to_bits() != y.to_bits() {
                return Some((g, i, x.to_bits(), y.to_bits()));
            }
        }
    }
    None
}

/// Panic unless every element of `actual` is bit-for-bit identical to
/// `expected` (NaN payloads included, under the contract stated on
/// [`bitwise_mismatch`]). `what` names the path under test in the
/// failure message.
pub fn assert_bitwise_eq(expected: &[MatF32], actual: &[MatF32], what: &str) {
    if let Some((g, i, e, a)) = bitwise_mismatch(expected, actual) {
        panic!(
            "{what}: bitwise mismatch at gemm {g} element {i}: \
             expected {:?} (bits {e:#010x}), got {:?} (bits {a:#010x})",
            f32::from_bits(e),
            f32::from_bits(a),
        );
    }
}

/// Panic with a helpful message unless `actual` matches `expected` within
/// `tol` (relative, with absolute floor 1.0 — suitable for accumulations
/// of order-1 random values).
pub fn assert_all_close(expected: &[MatF32], actual: &[MatF32], tol: f32) {
    let r = MatchReport::compare(expected, actual);
    assert!(
        r.within(tol),
        "matrices differ: max_abs={} max_rel={} over {} elements (tol {tol})",
        r.max_abs,
        r.max_rel,
        r.elements
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_matrices_have_zero_diff() {
        let mut a = MatF32::random(8, 8, 1);
        // NaN against NaN and an infinity against itself differ by 0.
        a.set(0, 0, f32::NAN);
        a.set(0, 1, f32::INFINITY);
        a.set(0, 2, f32::NEG_INFINITY);
        assert_eq!(max_abs_diff(&a, &a), 0.0);
        let r = MatchReport::compare(std::slice::from_ref(&a), std::slice::from_ref(&a));
        assert_eq!(r.max_abs, 0.0);
        assert!(r.within(0.0));
    }

    #[test]
    fn detects_perturbation() {
        let a = MatF32::zeros(4, 4);
        let mut b = a.clone();
        b.set(2, 3, 0.5);
        assert_eq!(max_abs_diff(&a, &b), 0.5);
        assert!(!MatchReport::compare(&[a], &[b]).within(0.1));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_panics() {
        let _ = max_abs_diff(&MatF32::zeros(2, 2), &MatF32::zeros(2, 3));
    }

    #[test]
    fn bitwise_comparison_honours_nan_payloads() {
        let mut a = MatF32::zeros(2, 2);
        a.set(0, 1, f32::NAN);
        let b = a.clone();
        assert_eq!(bitwise_mismatch(&[a.clone()], std::slice::from_ref(&b)), None);
        assert_bitwise_eq(&[a.clone()], &[b], "identical NaNs");

        // A differently signed zero is a bitwise mismatch even though
        // `==` would accept it.
        let mut c = a.clone();
        c.set(1, 0, -0.0);
        let (g, i, _, _) = bitwise_mismatch(&[a], &[c]).expect("signed zero detected");
        assert_eq!((g, i), (0, 2));
    }

    #[test]
    #[should_panic(expected = "bitwise mismatch")]
    fn assert_bitwise_eq_panics_on_difference() {
        let a = MatF32::zeros(1, 1);
        let mut b = a.clone();
        b.set(0, 0, 1.0e-20);
        assert_bitwise_eq(&[a], &[b], "perturbed");
    }

    #[test]
    fn nan_against_a_number_is_an_infinite_difference() {
        let finite = MatF32::random(3, 3, 2);
        let nan = MatF32::filled(3, 3, f32::NAN);
        assert_eq!(max_abs_diff(&finite, &nan), f32::INFINITY);
        assert_eq!(max_abs_diff(&nan, &finite), f32::INFINITY);
        let r = MatchReport::compare(std::slice::from_ref(&finite), std::slice::from_ref(&nan));
        assert_eq!((r.max_abs, r.max_rel), (f32::INFINITY, f32::INFINITY));
        assert!(!r.within(f32::MAX));
        // A NaN against an infinity too, where `d / |x|` would be NaN.
        let inf = MatF32::filled(3, 3, f32::INFINITY);
        let r = MatchReport::compare(&[inf], std::slice::from_ref(&nan));
        assert_eq!((r.max_abs, r.max_rel), (f32::INFINITY, f32::INFINITY));
    }

    #[test]
    #[should_panic(expected = "matrices differ")]
    fn assert_all_close_catches_nan() {
        assert_all_close(&[MatF32::random(2, 2, 3)], &[MatF32::filled(2, 2, f32::NAN)], 0.0);
    }

    #[test]
    fn relative_tolerance_uses_magnitude_floor() {
        let e = MatF32::filled(1, 1, 1000.0);
        let mut a = e.clone();
        a.set(0, 0, 1000.5);
        let r = MatchReport::compare(&[e], &[a]);
        // 0.5 / 1000 = 5e-4 relative.
        assert!(r.within(1e-3));
        assert!(!r.within(1e-4));
    }
}

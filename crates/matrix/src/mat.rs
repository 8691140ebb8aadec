//! Dense row-major `f32` matrix.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;

/// A dense row-major matrix of `f32`.
///
/// Element `(r, c)` lives at `data[r * cols + c]`. Row-major layout is
/// used throughout the reproduction; GEMM is layout-symmetric so nothing
/// in the paper's argument depends on the BLAS column-major convention.
///
/// The backing buffer is `Arc`-shared: `clone()` is a refcount bump, so
/// requests can travel through admission, coalescing, batching and the
/// cluster engines without copying a single element. Mutation goes
/// through [`MatF32::as_mut_slice`] / [`MatF32::set`], which
/// clone-on-write only when the buffer is actually shared (e.g. a
/// degraded re-route writing into a C operand another ticket still
/// holds).
#[derive(Debug, Clone, PartialEq)]
pub struct MatF32 {
    rows: usize,
    cols: usize,
    data: Arc<Vec<f32>>,
}

impl MatF32 {
    /// An all-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        MatF32 { rows, cols, data: Arc::new(vec![0.0; rows * cols]) }
    }

    /// Build from an existing buffer; `data.len()` must equal `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        MatF32 { rows, cols, data: Arc::new(data) }
    }

    /// Deterministically random matrix with entries in `[-1, 1)`.
    pub fn random(rows: usize, cols: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..rows * cols).map(|_| rng.random_range(-1.0f32..1.0)).collect();
        MatF32 { rows, cols, data: Arc::new(data) }
    }

    /// Matrix filled with `v`.
    pub fn filled(rows: usize, cols: usize, v: f32) -> Self {
        MatF32 { rows, cols, data: Arc::new(vec![v; rows * cols]) }
    }

    /// Identity-like matrix (1.0 on the diagonal), not necessarily square.
    pub fn eye(rows: usize, cols: usize) -> Self {
        let mut m = MatF32::zeros(rows, cols);
        for i in 0..rows.min(cols) {
            m.set(i, i, 1.0);
        }
        m
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        let cols = self.cols;
        Arc::make_mut(&mut self.data)[r * cols + c] = v;
    }

    /// Borrow the backing buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the backing buffer, cloning it first if it is
    /// shared with another matrix (copy-on-write).
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// Row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Consume into the backing buffer. Copies only when the buffer is
    /// still shared with another matrix.
    pub fn into_vec(self) -> Vec<f32> {
        Arc::try_unwrap(self.data).unwrap_or_else(|shared| (*shared).clone())
    }

    /// `true` when `self` and `other` share the same backing buffer —
    /// i.e. no copy has happened between them. Used by the zero-copy
    /// tests to prove the hot path never duplicates operands.
    pub fn shares_buffer(&self, other: &MatF32) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// Transposed copy.
    pub fn transposed(&self) -> MatF32 {
        let mut t = MatF32::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t.set(c, r, self.get(r, c));
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_is_row_major() {
        let m = MatF32::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 2), 3.0);
        assert_eq!(m.get(1, 0), 4.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn random_is_deterministic_and_bounded() {
        let a = MatF32::random(16, 16, 7);
        let b = MatF32::random(16, 16, 7);
        let c = MatF32::random(16, 16, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.as_slice().iter().all(|&x| (-1.0..1.0).contains(&x)));
    }

    #[test]
    fn transpose_round_trips() {
        let m = MatF32::random(5, 9, 3);
        assert_eq!(m.transposed().transposed(), m);
    }

    #[test]
    fn eye_diagonal() {
        let e = MatF32::eye(3, 5);
        for r in 0..3 {
            for c in 0..5 {
                assert_eq!(e.get(r, c), if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    #[should_panic(expected = "buffer size mismatch")]
    fn from_vec_checks_size() {
        let _ = MatF32::from_vec(2, 2, vec![0.0; 3]);
    }

    #[test]
    fn clone_is_zero_copy_until_written() {
        let a = MatF32::random(8, 8, 11);
        let mut b = a.clone();
        assert!(a.shares_buffer(&b), "clone must share the buffer");

        // Reading keeps sharing.
        let _ = b.get(3, 3);
        let _ = b.as_slice();
        assert!(a.shares_buffer(&b));

        // Writing detaches exactly the written clone; the original is
        // untouched.
        b.set(0, 0, 42.0);
        assert!(!a.shares_buffer(&b), "write must copy-on-write");
        assert_ne!(a.get(0, 0), 42.0);
        assert_eq!(b.get(0, 0), 42.0);

        // An unshared matrix mutates in place without further copies.
        let before = b.as_slice().as_ptr();
        b.set(1, 1, 7.0);
        assert_eq!(b.as_slice().as_ptr(), before);
    }

    #[test]
    fn into_vec_avoids_copy_when_unshared() {
        let a = MatF32::random(4, 4, 3);
        let ptr = a.as_slice().as_ptr();
        let v = a.into_vec();
        assert_eq!(v.as_ptr(), ptr, "sole owner must take the buffer");

        let a = MatF32::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = a.clone();
        let v = a.into_vec();
        assert_eq!(v, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(b.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }
}

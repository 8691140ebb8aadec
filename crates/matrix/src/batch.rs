//! Batched-GEMM problem descriptions: shapes plus host buffers.

use crate::gemm::gemm_ref;
use crate::mat::MatF32;
use rayon::prelude::*;

/// The size of one GEMM: `C (M×N) = alpha * A (M×K) * B (K×N) + beta * C`.
/// Ordered lexicographically by `(m, n, k)`, the canonical order
/// savestate blobs sort shape signatures in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GemmShape {
    pub m: usize,
    pub n: usize,
    pub k: usize,
}

ctb_savestate::savestate_struct!(GemmShape { m, n, k });

impl GemmShape {
    pub const fn new(m: usize, n: usize, k: usize) -> Self {
        GemmShape { m, n, k }
    }

    /// Floating-point operations of this GEMM (2·M·N·K, the usual count).
    pub fn flops(&self) -> u64 {
        2 * self.m as u64 * self.n as u64 * self.k as u64
    }

    /// Bytes of A, B and C (f32).
    pub fn bytes(&self) -> u64 {
        4 * (self.m * self.k + self.k * self.n + self.m * self.n) as u64
    }
}

impl std::fmt::Display for GemmShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}x{}", self.m, self.n, self.k)
    }
}

/// A batch of independent GEMMs sharing one `alpha`/`beta` pair, with the
/// host-side `A`, `B` and (initial) `C` buffers.
///
/// The shapes may all differ — this is the variable-size batched-GEMM
/// problem the paper targets (MAGMA `vbatch` territory); same-size
/// batches are the special case `cublasSgemmBatched` supports.
#[derive(Debug, Clone)]
pub struct GemmBatch {
    pub shapes: Vec<GemmShape>,
    pub a: Vec<MatF32>,
    pub b: Vec<MatF32>,
    pub c: Vec<MatF32>,
    pub alpha: f32,
    pub beta: f32,
}

impl GemmBatch {
    /// A batch with deterministic random `A`/`B`/`C` contents.
    pub fn random(shapes: &[GemmShape], alpha: f32, beta: f32, seed: u64) -> Self {
        let mut a = Vec::with_capacity(shapes.len());
        let mut b = Vec::with_capacity(shapes.len());
        let mut c = Vec::with_capacity(shapes.len());
        for (i, s) in shapes.iter().enumerate() {
            let s0 = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i as u64 * 3);
            a.push(MatF32::random(s.m, s.k, s0));
            b.push(MatF32::random(s.k, s.n, s0 + 1));
            c.push(MatF32::random(s.m, s.n, s0 + 2));
        }
        GemmBatch { shapes: shapes.to_vec(), a, b, c, alpha, beta }
    }

    /// Assemble a batch from per-GEMM buffers, inferring the shape list
    /// from the matrices and validating consistency up front. This is
    /// the request→batch path the serving layer uses to coalesce many
    /// independently submitted GEMMs into one plannable problem.
    pub fn from_parts(
        a: Vec<MatF32>,
        b: Vec<MatF32>,
        c: Vec<MatF32>,
        alpha: f32,
        beta: f32,
    ) -> Result<Self, String> {
        if a.len() != b.len() || a.len() != c.len() {
            return Err("buffer count mismatch".into());
        }
        let shapes: Vec<GemmShape> = a
            .iter()
            .zip(&c)
            .map(|(ai, ci)| GemmShape::new(ci.rows(), ci.cols(), ai.cols()))
            .collect();
        let batch = GemmBatch { shapes, a, b, c, alpha, beta };
        batch.validate()?;
        Ok(batch)
    }

    /// A batch whose `C` matrices start at zero (beta irrelevant then).
    pub fn random_zero_c(shapes: &[GemmShape], alpha: f32, seed: u64) -> Self {
        let mut batch = GemmBatch::random(shapes, alpha, 0.0, seed);
        for c in &mut batch.c {
            *c = MatF32::zeros(c.rows(), c.cols());
        }
        batch
    }

    /// Number of GEMMs in the batch (the paper's `B`).
    pub fn len(&self) -> usize {
        self.shapes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.shapes.is_empty()
    }

    /// Total FLOPs of the batch.
    pub fn total_flops(&self) -> u64 {
        self.shapes.iter().map(GemmShape::flops).sum()
    }

    /// True iff every GEMM has the same (M, N, K).
    pub fn is_uniform(&self) -> bool {
        self.shapes.windows(2).all(|w| w[0] == w[1])
    }

    /// Compute the expected `C` matrices with the naive triple-loop
    /// oracle ([`gemm_ref`]), one GEMM per rayon task.
    ///
    /// Every element is accumulated in ascending-k order with the
    /// `alpha*acc + beta*c` epilogue, the exact operation sequence the
    /// plan executor applies. The framework path and every baseline's
    /// functional plan are therefore **bitwise identical** to this
    /// result, including NaN/Inf propagation, as long as every NaN in
    /// the inputs carries the payload the CPU itself makes (∞ × 0);
    /// [`crate::bitwise_mismatch`] states why.
    /// The differential, property and serving-layer suites rely on that.
    pub fn reference_result_exact(&self) -> Vec<MatF32> {
        (0..self.len())
            .into_par_iter()
            .map(|i| {
                let mut c = self.c[i].clone();
                gemm_ref(self.alpha, &self.a[i], &self.b[i], self.beta, &mut c);
                c
            })
            .collect()
    }

    /// Validate internal consistency (buffer shapes match `shapes`).
    pub fn validate(&self) -> Result<(), String> {
        if self.a.len() != self.len() || self.b.len() != self.len() || self.c.len() != self.len() {
            return Err("buffer count mismatch".into());
        }
        for (i, s) in self.shapes.iter().enumerate() {
            if (self.a[i].rows(), self.a[i].cols()) != (s.m, s.k) {
                return Err(format!("A[{i}] shape mismatch"));
            }
            if (self.b[i].rows(), self.b[i].cols()) != (s.k, s.n) {
                return Err(format!("B[{i}] shape mismatch"));
            }
            if (self.c[i].rows(), self.c[i].cols()) != (s.m, s.n) {
                return Err(format!("C[{i}] shape mismatch"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_flops_and_bytes() {
        let s = GemmShape::new(16, 784, 192);
        assert_eq!(s.flops(), 2 * 16 * 784 * 192);
        assert_eq!(s.bytes(), 4 * (16 * 192 + 192 * 784 + 16 * 784) as u64);
        assert_eq!(s.to_string(), "16x784x192");
    }

    #[test]
    fn batch_construction_is_consistent() {
        let shapes = vec![
            GemmShape::new(16, 32, 128),
            GemmShape::new(64, 64, 64),
            GemmShape::new(256, 256, 64),
        ];
        let b = GemmBatch::random(&shapes, 1.0, 0.5, 9);
        b.validate().expect("valid");
        assert_eq!(b.len(), 3);
        assert!(!b.is_uniform());
    }

    #[test]
    fn uniform_batch_detected() {
        let shapes = vec![GemmShape::new(32, 32, 32); 4];
        assert!(GemmBatch::random(&shapes, 1.0, 0.0, 1).is_uniform());
    }

    #[test]
    fn from_parts_round_trips_and_validates() {
        let shapes = vec![GemmShape::new(5, 7, 3), GemmShape::new(2, 2, 9)];
        let b = GemmBatch::random(&shapes, 0.5, 1.5, 4);
        let rebuilt = GemmBatch::from_parts(b.a.clone(), b.b.clone(), b.c.clone(), b.alpha, b.beta)
            .expect("consistent parts assemble");
        assert_eq!(rebuilt.shapes, shapes);

        // Mismatched inner dimension is rejected up front.
        let bad_b = vec![MatF32::zeros(4, 7), MatF32::zeros(9, 2)];
        assert!(GemmBatch::from_parts(b.a.clone(), bad_b, b.c.clone(), 1.0, 0.0).is_err());
        // Mismatched buffer counts are rejected.
        assert!(
            GemmBatch::from_parts(b.a.clone(), b.b[..1].to_vec(), b.c.clone(), 1.0, 0.0).is_err()
        );
    }

    #[test]
    fn exact_reference_matches_gemm_ref_bitwise() {
        let shapes = vec![GemmShape::new(17, 9, 23), GemmShape::new(40, 33, 64)];
        let b = GemmBatch::random(&shapes, 0.7, 1.3, 11);
        let exact = b.reference_result_exact();
        for (i, expected) in exact.iter().enumerate() {
            let mut c = b.c[i].clone();
            gemm_ref(b.alpha, &b.a[i], &b.b[i], b.beta, &mut c);
            crate::compare::assert_bitwise_eq(
                std::slice::from_ref(&c),
                std::slice::from_ref(expected),
                "exact oracle",
            );
        }
    }

    #[test]
    fn zero_c_batch_has_zero_c() {
        let b = GemmBatch::random_zero_c(&[GemmShape::new(4, 4, 4)], 1.0, 5);
        assert!(b.c[0].as_slice().iter().all(|&v| v == 0.0));
    }
}

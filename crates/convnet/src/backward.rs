//! Backward-pass GEMM shapes for convolution layers.
//!
//! The paper notes its framework suits "the training process of a deep
//! neural network" (fixed shapes per step, so best-of-both batching
//! applies). Training a convolution produces two extra GEMMs per layer:
//!
//! * **data gradient** (`dX = Wᵀ · dY`, then col2im):
//!   `M = in_c·kh·kw`, `N = out positions × batch`, `K = out_c`;
//! * **weight gradient** (`dW = dY · im2colᵀ`):
//!   `M = out_c`, `N = in_c·kh·kw`, `K = out positions × batch`.
//!
//! Both keep the fan structure: the branch heads of an inception module
//! share their input gradient, so their backward GEMMs batch exactly
//! like the forward ones. This module provides the shape algebra and the
//! batched workloads; timing flows through the ordinary framework path.
//! (Functional col2im is out of scope — the GEMMs themselves are
//! numerically exercised via the generic batched-GEMM paths.)

use crate::conv::Conv2dDesc;
use crate::googlenet::InceptionModule;
use ctb_matrix::GemmShape;

/// The data-gradient GEMM of a layer.
pub fn dgrad_shape(conv: &Conv2dDesc, batch: usize) -> GemmShape {
    GemmShape::new(conv.in_c * conv.kh * conv.kw, conv.out_h() * conv.out_w() * batch, conv.out_c)
}

/// The weight-gradient GEMM of a layer.
pub fn wgrad_shape(conv: &Conv2dDesc, batch: usize) -> GemmShape {
    GemmShape::new(conv.out_c, conv.in_c * conv.kh * conv.kw, conv.out_h() * conv.out_w() * batch)
}

/// The backward fan of an inception module: the data-gradient GEMMs of
/// the four branch heads (they accumulate into the same input gradient,
/// mirroring the forward stage-1 fan).
pub fn inception_dgrad_batch(m: &InceptionModule, batch: usize) -> Vec<GemmShape> {
    [&m.conv1x1, &m.reduce3x3, &m.reduce5x5, &m.pool_proj]
        .iter()
        .map(|c| dgrad_shape(c, batch))
        .collect()
}

/// The weight-gradient GEMMs of the four branch heads.
pub fn inception_wgrad_batch(m: &InceptionModule, batch: usize) -> Vec<GemmShape> {
    [&m.conv1x1, &m.reduce3x3, &m.reduce5x5, &m.pool_proj]
        .iter()
        .map(|c| wgrad_shape(c, batch))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::googlenet::googlenet_v1;

    #[test]
    fn gradient_shapes_transpose_the_forward_gemm() {
        let c = Conv2dDesc::new("t", 192, 28, 28, 16, 1, 1, 1, 0);
        let fwd = c.gemm_shape(2);
        let dg = dgrad_shape(&c, 2);
        let wg = wgrad_shape(&c, 2);
        // Forward: (out_c, pos, filt); dgrad: (filt, pos, out_c);
        // wgrad: (out_c, filt, pos).
        assert_eq!((dg.m, dg.n, dg.k), (fwd.k, fwd.n, fwd.m));
        assert_eq!((wg.m, wg.n, wg.k), (fwd.m, fwd.k, fwd.n));
        // FLOPs identical for all three (same tensor contraction).
        assert_eq!(fwd.flops(), dg.flops());
        assert_eq!(fwd.flops(), wg.flops());
    }

    #[test]
    fn backward_fans_have_four_gemms_and_stay_small() {
        let net = googlenet_v1();
        for m in &net.modules {
            let dg = inception_dgrad_batch(m, 4);
            let wg = inception_wgrad_batch(m, 4);
            assert_eq!(dg.len(), 4);
            assert_eq!(wg.len(), 4);
            // dgrad M equals the module's input channel count for 1x1
            // heads.
            assert!(dg.iter().all(|s| s.m == m.conv1x1.in_c));
            // wgrad N is tiny (the filter volume of a 1x1 conv).
            assert!(wg.iter().all(|s| s.n == m.conv1x1.in_c));
        }
    }

    #[test]
    fn backward_batches_run_through_the_framework() {
        use ctb_core::Framework;
        use ctb_gpu_specs::ArchSpec;
        let net = googlenet_v1();
        let fw = Framework::new(ArchSpec::volta_v100());
        let m = &net.modules[2]; // inception4a
        for shapes in [inception_dgrad_batch(m, 1), inception_wgrad_batch(m, 1)] {
            assert!(fw.plan(&shapes).expect("plannable").predicted_us > 0.0);
        }
    }
}

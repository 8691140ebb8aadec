//! The im2col convolution algorithm and a direct-convolution reference.
//!
//! Layouts: inputs/outputs are CHW per image (batch-major), weights are
//! `out_c × (in_c·kh·kw)` row-major. `conv_via_gemm` must agree with
//! `conv_direct` — that equivalence is what lets the paper turn
//! GoogleNet layers into batched GEMMs.

use crate::conv::Conv2dDesc;
use ctb_matrix::{gemm_ref, MatF32};

/// Lower a batch of images to the im2col matrix: `(in_c·kh·kw) ×
/// (out_h·out_w·batch)`, with batch-major columns (image 0's positions
/// first).
pub fn im2col(desc: &Conv2dDesc, input: &[MatF32]) -> MatF32 {
    let (oh, ow) = (desc.out_h(), desc.out_w());
    let k = desc.in_c * desc.kh * desc.kw;
    let n = oh * ow * input.len();
    let mut cols = MatF32::zeros(k, n);
    for (img, x) in input.iter().enumerate() {
        assert_eq!(x.rows(), desc.in_c, "input channels");
        assert_eq!(x.cols(), desc.in_h * desc.in_w, "input spatial size");
        for c in 0..desc.in_c {
            for ky in 0..desc.kh {
                for kx in 0..desc.kw {
                    let row = (c * desc.kh + ky) * desc.kw + kx;
                    for oy in 0..oh {
                        let iy = (oy * desc.stride + ky) as isize - desc.pad as isize;
                        if iy < 0 || iy as usize >= desc.in_h {
                            continue;
                        }
                        for ox in 0..ow {
                            let ix = (ox * desc.stride + kx) as isize - desc.pad as isize;
                            if ix < 0 || ix as usize >= desc.in_w {
                                continue;
                            }
                            let col = img * oh * ow + oy * ow + ox;
                            let v = x.get(c, iy as usize * desc.in_w + ix as usize);
                            cols.set(row, col, v);
                        }
                    }
                }
            }
        }
    }
    cols
}

/// Convolution through im2col + GEMM: `out = weights × im2col(input)`.
/// `weights` is `out_c × (in_c·kh·kw)`; the result is
/// `out_c × (out_h·out_w·batch)`.
pub fn conv_via_gemm(desc: &Conv2dDesc, weights: &MatF32, input: &[MatF32]) -> MatF32 {
    assert_eq!(weights.rows(), desc.out_c, "filter count");
    assert_eq!(weights.cols(), desc.in_c * desc.kh * desc.kw, "filter size");
    let cols = im2col(desc, input);
    let mut out = MatF32::zeros(desc.out_c, cols.cols());
    gemm_ref(1.0, weights, &cols, 0.0, &mut out);
    out
}

/// Naive direct convolution (the oracle).
pub fn conv_direct(desc: &Conv2dDesc, weights: &MatF32, input: &[MatF32]) -> MatF32 {
    let (oh, ow) = (desc.out_h(), desc.out_w());
    let mut out = MatF32::zeros(desc.out_c, oh * ow * input.len());
    for (img, x) in input.iter().enumerate() {
        for oc in 0..desc.out_c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0f32;
                    for c in 0..desc.in_c {
                        for ky in 0..desc.kh {
                            let iy = (oy * desc.stride + ky) as isize - desc.pad as isize;
                            if iy < 0 || iy as usize >= desc.in_h {
                                continue;
                            }
                            for kx in 0..desc.kw {
                                let ix = (ox * desc.stride + kx) as isize - desc.pad as isize;
                                if ix < 0 || ix as usize >= desc.in_w {
                                    continue;
                                }
                                let w = weights.get(oc, (c * desc.kh + ky) * desc.kw + kx);
                                acc += w * x.get(c, iy as usize * desc.in_w + ix as usize);
                            }
                        }
                    }
                    out.set(oc, img * oh * ow + oy * ow + ox, acc);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctb_matrix::max_abs_diff;

    fn check(desc: &Conv2dDesc, batch: usize, seed: u64) {
        let weights = MatF32::random(desc.out_c, desc.in_c * desc.kh * desc.kw, seed);
        let input: Vec<MatF32> = (0..batch)
            .map(|i| MatF32::random(desc.in_c, desc.in_h * desc.in_w, seed + 1 + i as u64))
            .collect();
        let via_gemm = conv_via_gemm(desc, &weights, &input);
        let direct = conv_direct(desc, &weights, &input);
        assert!(
            max_abs_diff(&via_gemm, &direct) < 1e-3,
            "{}: im2col disagrees with direct conv",
            desc.name
        );
        // Shape check: matches the declared GEMM shape.
        let gs = desc.gemm_shape(batch);
        assert_eq!((via_gemm.rows(), via_gemm.cols()), (gs.m, gs.n));
    }

    #[test]
    fn pointwise_conv_is_plain_gemm() {
        check(&Conv2dDesc::new("1x1", 8, 6, 5, 4, 1, 1, 1, 0), 1, 1);
    }

    #[test]
    fn conv3x3_padded() {
        check(&Conv2dDesc::new("3x3", 3, 8, 8, 5, 3, 3, 1, 1), 2, 2);
    }

    #[test]
    fn conv5x5_padded() {
        check(&Conv2dDesc::new("5x5", 2, 9, 9, 3, 5, 5, 1, 2), 1, 3);
    }

    #[test]
    fn strided_conv() {
        check(&Conv2dDesc::new("7x7s2", 3, 15, 15, 4, 7, 7, 2, 3), 2, 4);
    }

    #[test]
    fn asymmetric_spatial_input() {
        check(&Conv2dDesc::new("rect", 4, 7, 11, 6, 3, 3, 1, 1), 1, 5);
    }

    #[test]
    fn im2col_of_identity_kernel_window() {
        // 1x1 kernel: im2col is just the flattened input.
        let desc = Conv2dDesc::new("id", 2, 3, 3, 1, 1, 1, 1, 0);
        let input = vec![MatF32::random(2, 9, 7)];
        let cols = im2col(&desc, &input);
        assert_eq!((cols.rows(), cols.cols()), (2, 9));
        assert_eq!(cols.as_slice(), input[0].as_slice());
    }
}

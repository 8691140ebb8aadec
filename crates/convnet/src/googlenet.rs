//! The GoogleNet-v1 (Inception-v1) topology: the paper's real-world
//! workload. 57 convolutions: 3 stem convolutions plus 9 inception
//! modules of 6 convolutions each.

use crate::conv::Conv2dDesc;
use ctb_matrix::GemmShape;

/// One inception module: four parallel branches reading the same input.
///
/// Stage 1 (the four *branch heads*, batched together by the paper):
/// the 1×1 branch, the 3×3 reduce, the 5×5 reduce and the pool
/// projection. Stage 2 (dependent on stage 1): the 3×3 and 5×5
/// convolutions over their reduces.
#[derive(Debug, Clone, PartialEq)]
pub struct InceptionModule {
    pub name: String,
    pub conv1x1: Conv2dDesc,
    pub reduce3x3: Conv2dDesc,
    pub conv3x3: Conv2dDesc,
    pub reduce5x5: Conv2dDesc,
    pub conv5x5: Conv2dDesc,
    pub pool_proj: Conv2dDesc,
}

impl InceptionModule {
    /// All six convolutions, in branch order.
    pub fn convs(&self) -> [&Conv2dDesc; 6] {
        [
            &self.conv1x1,
            &self.reduce3x3,
            &self.conv3x3,
            &self.reduce5x5,
            &self.conv5x5,
            &self.pool_proj,
        ]
    }

    /// The four stage-1 GEMMs the paper batches ("we use our proposed
    /// framework to batch the four GEMMs in each inception layer").
    pub fn stage1_shapes(&self, batch: usize) -> Vec<GemmShape> {
        vec![
            self.conv1x1.gemm_shape(batch),
            self.reduce3x3.gemm_shape(batch),
            self.reduce5x5.gemm_shape(batch),
            self.pool_proj.gemm_shape(batch),
        ]
    }

    /// The two stage-2 GEMMs (3×3 and 5×5 over the reduces).
    pub fn stage2_shapes(&self, batch: usize) -> Vec<GemmShape> {
        vec![self.conv3x3.gemm_shape(batch), self.conv5x5.gemm_shape(batch)]
    }

    /// Output channels of the concatenated branches.
    pub fn out_channels(&self) -> usize {
        self.conv1x1.out_c + self.conv3x3.out_c + self.conv5x5.out_c + self.pool_proj.out_c
    }
}

/// The full network.
#[derive(Debug, Clone, PartialEq)]
pub struct GoogleNet {
    /// conv1/7x7_s2, conv2/3x3_reduce, conv2/3x3.
    pub stem: Vec<Conv2dDesc>,
    /// inception3a … inception5b.
    pub modules: Vec<InceptionModule>,
}

impl GoogleNet {
    /// Every convolution in forward order (57 total).
    pub fn all_convs(&self) -> Vec<&Conv2dDesc> {
        let mut out: Vec<&Conv2dDesc> = self.stem.iter().collect();
        for m in &self.modules {
            out.extend(m.convs());
        }
        out
    }

    /// Total multiply–accumulates for one image.
    pub fn total_macs(&self) -> u64 {
        self.all_convs().iter().map(|c| c.macs()).sum()
    }
}

/// Build one inception module at spatial size `s × s` with the standard
/// branch layout: `c1`/`r3`→`c3`/`r5`→`c5`/`pp` output channels.
#[allow(clippy::too_many_arguments)]
pub fn inception(
    name: &str,
    s: usize,
    in_c: usize,
    c1: usize,
    r3: usize,
    c3: usize,
    r5: usize,
    c5: usize,
    pp: usize,
) -> InceptionModule {
    InceptionModule {
        name: name.into(),
        conv1x1: Conv2dDesc::new(&format!("{name}/1x1"), in_c, s, s, c1, 1, 1, 1, 0),
        reduce3x3: Conv2dDesc::new(&format!("{name}/3x3_reduce"), in_c, s, s, r3, 1, 1, 1, 0),
        conv3x3: Conv2dDesc::new(&format!("{name}/3x3"), r3, s, s, c3, 3, 3, 1, 1),
        reduce5x5: Conv2dDesc::new(&format!("{name}/5x5_reduce"), in_c, s, s, r5, 1, 1, 1, 0),
        conv5x5: Conv2dDesc::new(&format!("{name}/5x5"), r5, s, s, c5, 5, 5, 1, 2),
        pool_proj: Conv2dDesc::new(&format!("{name}/pool_proj"), in_c, s, s, pp, 1, 1, 1, 0),
    }
}

/// GoogleNet-v1 as published (Szegedy et al., "Going Deeper with
/// Convolutions", Table 1), for 224×224 inputs.
pub fn googlenet_v1() -> GoogleNet {
    let stem = vec![
        Conv2dDesc::new("conv1/7x7_s2", 3, 224, 224, 64, 7, 7, 2, 3),
        // After 3x3/2 max-pool: 56x56.
        Conv2dDesc::new("conv2/3x3_reduce", 64, 56, 56, 64, 1, 1, 1, 0),
        Conv2dDesc::new("conv2/3x3", 64, 56, 56, 192, 3, 3, 1, 1),
    ];
    let modules = vec![
        // After 3x3/2 max-pool: 28x28.
        inception("inception3a", 28, 192, 64, 96, 128, 16, 32, 32),
        inception("inception3b", 28, 256, 128, 128, 192, 32, 96, 64),
        // After max-pool: 14x14.
        inception("inception4a", 14, 480, 192, 96, 208, 16, 48, 64),
        inception("inception4b", 14, 512, 160, 112, 224, 24, 64, 64),
        inception("inception4c", 14, 512, 128, 128, 256, 24, 64, 64),
        inception("inception4d", 14, 512, 112, 144, 288, 32, 64, 64),
        inception("inception4e", 14, 528, 256, 160, 320, 32, 128, 128),
        // After max-pool: 7x7.
        inception("inception5a", 7, 832, 256, 160, 320, 32, 128, 128),
        inception("inception5b", 7, 832, 384, 192, 384, 48, 128, 128),
    ];
    GoogleNet { stem, modules }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn has_57_convolutions() {
        // §7.3: "GoogleNet contains 57 convolution operators".
        assert_eq!(googlenet_v1().all_convs().len(), 57);
    }

    #[test]
    fn channel_plumbing_is_consistent() {
        let net = googlenet_v1();
        // Module input channels must equal the previous module's output
        // channels (within a pooling stage).
        let outs: Vec<usize> = net.modules.iter().map(|m| m.out_channels()).collect();
        assert_eq!(outs, vec![256, 480, 512, 512, 512, 528, 832, 832, 1024]);
        for w in net.modules.windows(2) {
            assert_eq!(w[1].conv1x1.in_c, w[0].out_channels(), "{} -> {}", w[0].name, w[1].name);
        }
        // Reduce feeds conv within a module.
        for m in &net.modules {
            assert_eq!(m.conv3x3.in_c, m.reduce3x3.out_c);
            assert_eq!(m.conv5x5.in_c, m.reduce5x5.out_c);
        }
    }

    #[test]
    fn paper_motivating_shape_appears_in_3a() {
        let net = googlenet_v1();
        let shapes = net.modules[0].stage1_shapes(1);
        assert!(shapes.contains(&GemmShape::new(16, 784, 192)), "{shapes:?}");
    }

    #[test]
    fn paper_claim_small_matrices() {
        // §1: "In general, all of these matrices' M, N and K are less
        // than 1000, and even half of these matrices' M are less than
        // 100" (image batch 1). "In general": M is always < 1000, K is
        // < 1000 for the large majority (a few late 3x3/5x5 convs have
        // K up to 1728), and ~half the Ms are below 100.
        let net = googlenet_v1();
        let mut small_m = 0usize;
        let mut small_k = 0usize;
        let mut total = 0usize;
        for m in &net.modules {
            for c in m.convs() {
                let s = c.gemm_shape(1);
                total += 1;
                assert!(s.m < 1000, "{}: {s}", c.name);
                assert!(s.k < 2000, "{}: {s}", c.name);
                small_m += usize::from(s.m < 100);
                small_k += usize::from(s.k < 1000);
            }
        }
        assert!(small_m * 10 >= total * 4, "{small_m}/{total} small-M GEMMs");
        assert!(small_k * 10 >= total * 8, "{small_k}/{total} small-K GEMMs");
    }

    #[test]
    fn total_macs_are_about_1_5_g() {
        // GoogleNet-v1 is commonly quoted at ~1.5 GMACs per 224x224
        // image (convolutions only).
        let macs = googlenet_v1().total_macs();
        assert!((1_200_000_000..1_800_000_000).contains(&macs), "total MACs {macs}");
    }
}

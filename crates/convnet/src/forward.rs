//! A functional CNN forward engine on top of the batched-GEMM
//! framework.
//!
//! This is what a downstream user of the paper's framework actually
//! builds: every convolution is lowered to a GEMM (im2col), the
//! *parallel* convolutions of a fan (inception branch heads, the two
//! dependent 3×3/5×5 convolutions, SqueezeNet expands, …) are batched
//! through [`ctb_core::Framework`] into a single coordinated kernel, and
//! the non-GEMM layers (ReLU, pooling, concat) run on [`Tensor`]s.
//!
//! The whole pipeline is numerically verified against direct
//! convolution in the tests (on a scaled-down network, so the suite
//! stays fast).

use crate::conv::Conv2dDesc;
use crate::googlenet::{GoogleNet, InceptionModule};
use crate::im2col::im2col;
use crate::squeezenet::FireModule;
use crate::tensor::{concat_channels, global_avgpool, maxpool, Tensor};
use ctb_core::Framework;
use ctb_matrix::{GemmBatch, MatF32};

/// Random-initialised weights for a set of convolutions, keyed by layer
/// name. (Real deployments would load trained weights; the experiments
/// only need the dataflow.)
#[derive(Debug, Clone, Default)]
pub struct Weights {
    entries: std::collections::HashMap<String, MatF32>,
}

impl Weights {
    /// Deterministic random weights for every convolution of a network.
    pub fn random_for<'a>(convs: impl IntoIterator<Item = &'a Conv2dDesc>, seed: u64) -> Self {
        let mut entries = std::collections::HashMap::new();
        for (i, c) in convs.into_iter().enumerate() {
            entries.insert(
                c.name.clone(),
                MatF32::random(c.out_c, c.in_c * c.kh * c.kw, seed.wrapping_add(i as u64)),
            );
        }
        Weights { entries }
    }

    /// The `out_c × (in_c·kh·kw)` filter matrix of a layer.
    pub fn get(&self, conv: &Conv2dDesc) -> &MatF32 {
        self.entries.get(&conv.name).unwrap_or_else(|| panic!("no weights for layer {}", conv.name))
    }
}

/// Forward executor bound to a device model.
pub struct ForwardEngine {
    framework: Framework,
    /// Simulated device-time accumulated across all batched GEMM calls,
    /// in µs.
    pub simulated_us: f64,
}

impl ForwardEngine {
    pub fn new(framework: Framework) -> Self {
        ForwardEngine { framework, simulated_us: 0.0 }
    }

    /// Run a *fan* of convolutions — each over its own input tensor —
    /// as one coordinated batched-GEMM kernel. Returns the (pre
    /// -activation) output tensors in order.
    pub fn conv_fan(
        &mut self,
        convs: &[&Conv2dDesc],
        weights: &Weights,
        inputs: &[&Tensor],
    ) -> Vec<Tensor> {
        assert_eq!(convs.len(), inputs.len(), "one input per convolution");
        assert!(!convs.is_empty(), "empty fan");
        let mut shapes = Vec::with_capacity(convs.len());
        let mut a = Vec::with_capacity(convs.len());
        let mut b = Vec::with_capacity(convs.len());
        let mut c = Vec::with_capacity(convs.len());
        for (conv, input) in convs.iter().zip(inputs) {
            assert_eq!(input.c, conv.in_c, "{}: channel mismatch", conv.name);
            assert_eq!((input.h, input.w), (conv.in_h, conv.in_w), "{}: size", conv.name);
            let shape = conv.gemm_shape(1);
            let cols = if conv.kh == 1 && conv.kw == 1 && conv.stride == 1 && conv.pad == 0 {
                // 1×1 convolution: the feature map already is the im2col
                // matrix.
                input.data.clone()
            } else {
                im2col(conv, std::slice::from_ref(&input.data))
            };
            debug_assert_eq!((cols.rows(), cols.cols()), (shape.k, shape.n));
            shapes.push(shape);
            a.push(weights.get(conv).clone());
            b.push(cols);
            c.push(MatF32::zeros(shape.m, shape.n));
        }
        let batch = GemmBatch { shapes: shapes.clone(), a, b, c, alpha: 1.0, beta: 0.0 };
        let outcome = self.framework.run(&batch).expect("fan is plannable");
        self.simulated_us += outcome.plan.predicted_us;
        outcome
            .results
            .into_iter()
            .zip(convs)
            .map(|(m, conv)| Tensor::from_mat(conv.out_c, conv.out_h(), conv.out_w(), m))
            .collect()
    }

    /// Run a single convolution (a fan of one).
    pub fn conv(&mut self, conv: &Conv2dDesc, weights: &Weights, input: &Tensor) -> Tensor {
        self.conv_fan(&[conv], weights, &[input]).pop().expect("one output")
    }

    /// Execute one inception module: stage-1 fan (the four branch
    /// heads, with the pool branch fed by a 3×3/1 max pool), ReLU,
    /// stage-2 fan (3×3 and 5×5), ReLU, channel concat.
    pub fn inception(
        &mut self,
        module: &InceptionModule,
        weights: &Weights,
        input: &Tensor,
    ) -> Tensor {
        let pooled = maxpool(input, 3, 1, 1, false);
        let stage1 = self.conv_fan(
            &[&module.conv1x1, &module.reduce3x3, &module.reduce5x5, &module.pool_proj],
            weights,
            &[input, input, input, &pooled],
        );
        let mut stage1 = stage1.into_iter().map(Tensor::relu).collect::<Vec<_>>();
        let pool_proj = stage1.pop().expect("pool branch");
        let reduce5 = stage1.pop().expect("5x5 reduce");
        let reduce3 = stage1.pop().expect("3x3 reduce");
        let branch1 = stage1.pop().expect("1x1 branch");

        let stage2 =
            self.conv_fan(&[&module.conv3x3, &module.conv5x5], weights, &[&reduce3, &reduce5]);
        let mut stage2 = stage2.into_iter().map(Tensor::relu);
        let branch3 = stage2.next().expect("3x3 branch");
        let branch5 = stage2.next().expect("5x5 branch");

        concat_channels(&[branch1, branch3, branch5, pool_proj])
    }

    /// Execute one SqueezeNet fire module: squeeze 1×1, ReLU, the two
    /// parallel expand convolutions as one batched kernel, ReLU, concat.
    pub fn fire(&mut self, module: &FireModule, weights: &Weights, input: &Tensor) -> Tensor {
        let squeezed = self.conv(&module.squeeze1x1, weights, input).relu();
        let expanded = self.conv_fan(
            &[&module.expand1x1, &module.expand3x3],
            weights,
            &[&squeezed, &squeezed],
        );
        let mut expanded = expanded.into_iter().map(Tensor::relu);
        let e1 = expanded.next().expect("expand 1x1");
        let e3 = expanded.next().expect("expand 3x3");
        concat_channels(&[e1, e3])
    }

    /// Full GoogleNet-style forward pass: stem (conv, pool, reduce,
    /// conv, pool), the inception modules with the network's pool
    /// boundaries, global average pooling. Returns the `C × 1 × 1`
    /// feature vector.
    pub fn googlenet_forward(
        &mut self,
        net: &GoogleNet,
        weights: &Weights,
        image: &Tensor,
    ) -> Tensor {
        let mut x = self.conv(&net.stem[0], weights, image).relu();
        x = maxpool(&x, 3, 2, 0, true);
        x = self.conv(&net.stem[1], weights, &x).relu();
        x = self.conv(&net.stem[2], weights, &x).relu();
        x = maxpool(&x, 3, 2, 0, true);
        for m in &net.modules {
            // A pool boundary is where the module expects a smaller
            // input than the current feature map provides.
            if m.conv1x1.in_h < x.h {
                x = maxpool(&x, 3, 2, 0, true);
            }
            assert_eq!(
                (m.conv1x1.in_c, m.conv1x1.in_h),
                (x.c, x.h),
                "{}: plumbing mismatch",
                m.name
            );
            x = self.inception(m, weights, &x);
        }
        global_avgpool(&x)
    }

    /// Borrow the underlying framework.
    pub fn framework(&self) -> &Framework {
        &self.framework
    }
}

/// Reference forward pass for one fire module using direct convolution
/// only (the oracle for [`ForwardEngine::fire`]).
pub fn fire_direct(module: &FireModule, weights: &Weights, input: &Tensor) -> Tensor {
    use crate::im2col::conv_direct;
    let run = |conv: &Conv2dDesc, x: &Tensor| -> Tensor {
        let out = conv_direct(conv, weights.get(conv), std::slice::from_ref(&x.data));
        Tensor::from_mat(conv.out_c, conv.out_h(), conv.out_w(), out).relu()
    };
    let squeezed = run(&module.squeeze1x1, input);
    concat_channels(&[run(&module.expand1x1, &squeezed), run(&module.expand3x3, &squeezed)])
}

/// Reference forward pass for one inception module using direct
/// convolution only (the oracle for [`ForwardEngine::inception`]).
pub fn inception_direct(module: &InceptionModule, weights: &Weights, input: &Tensor) -> Tensor {
    use crate::im2col::conv_direct;
    let run = |conv: &Conv2dDesc, x: &Tensor| -> Tensor {
        let out = conv_direct(conv, weights.get(conv), std::slice::from_ref(&x.data));
        Tensor::from_mat(conv.out_c, conv.out_h(), conv.out_w(), out).relu()
    };
    let branch1 = run(&module.conv1x1, input);
    let branch3 = run(&module.conv3x3, &run(&module.reduce3x3, input));
    let branch5 = run(&module.conv5x5, &run(&module.reduce5x5, input));
    let pooled = maxpool(input, 3, 1, 1, false);
    let pool_proj = run(&module.pool_proj, &pooled);
    concat_channels(&[branch1, branch3, branch5, pool_proj])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::googlenet::inception;
    use ctb_gpu_specs::ArchSpec;
    use ctb_matrix::{assert_bitwise_eq, max_abs_diff};

    fn engine() -> ForwardEngine {
        ForwardEngine::new(Framework::new(ArchSpec::volta_v100()))
    }

    /// A shrunken GoogleNet: same topology rules, tiny dimensions, so
    /// the functional comparison stays fast.
    fn mini_net() -> GoogleNet {
        GoogleNet {
            stem: vec![
                Conv2dDesc::new("conv1", 3, 32, 32, 8, 7, 7, 2, 3),
                Conv2dDesc::new("conv2r", 8, 8, 8, 8, 1, 1, 1, 0),
                Conv2dDesc::new("conv2", 8, 8, 8, 12, 3, 3, 1, 1),
            ],
            modules: vec![
                inception("mini3a", 4, 12, 4, 3, 6, 2, 4, 2),
                inception("mini3b", 4, 16, 6, 4, 8, 2, 4, 2),
                // After a pool boundary: spatial 2.
                inception("mini4a", 2, 20, 8, 4, 8, 2, 4, 4),
            ],
        }
    }

    #[test]
    fn fan_matches_direct_convolution() {
        let m = inception("t", 6, 5, 4, 3, 6, 2, 4, 2);
        let weights = Weights::random_for(m.convs(), 11);
        let input = Tensor::random(5, 6, 6, 12);
        let mut eng = engine();
        let batched = eng.inception(&m, &weights, &input);
        let direct = inception_direct(&m, &weights, &input);
        assert_eq!((batched.c, batched.h, batched.w), (direct.c, direct.h, direct.w));
        assert!(
            max_abs_diff(&batched.data, &direct.data) < 1e-3,
            "batched inception deviates from direct convolution"
        );
        assert!(eng.simulated_us > 0.0, "device time accounted");
    }

    #[test]
    fn fire_module_matches_direct_convolution() {
        use crate::squeezenet::FireModule;
        let m = FireModule {
            name: "t".into(),
            squeeze1x1: Conv2dDesc::new("t/squeeze1x1", 6, 6, 6, 3, 1, 1, 1, 0),
            expand1x1: Conv2dDesc::new("t/expand1x1", 3, 6, 6, 4, 1, 1, 1, 0),
            expand3x3: Conv2dDesc::new("t/expand3x3", 3, 6, 6, 4, 3, 3, 1, 1),
        };
        let weights = Weights::random_for(m.convs(), 7);
        let input = Tensor::random(6, 6, 6, 8);
        let batched = engine().fire(&m, &weights, &input);
        let direct = fire_direct(&m, &weights, &input);
        assert_eq!((batched.c, batched.h, batched.w), (8, 6, 6));
        assert!(max_abs_diff(&batched.data, &direct.data) < 1e-3);
    }

    #[test]
    fn mini_googlenet_forward_runs_end_to_end() {
        let net = mini_net();
        let weights = Weights::random_for(net.all_convs(), 5);
        let image = Tensor::random(3, 32, 32, 1);
        let mut eng = engine();
        let out = eng.googlenet_forward(&net, &weights, &image);
        // Output is the channel vector of the last module.
        assert_eq!((out.c, out.h, out.w), (net.modules.last().unwrap().out_channels(), 1, 1));
        assert!(out.data.as_slice().iter().all(|v| v.is_finite()));
        assert!(eng.simulated_us > 0.0);
    }

    #[test]
    fn forward_is_deterministic() {
        let net = mini_net();
        let weights = Weights::random_for(net.all_convs(), 5);
        let image = Tensor::random(3, 32, 32, 9);
        let a = engine().googlenet_forward(&net, &weights, &image);
        let b = engine().googlenet_forward(&net, &weights, &image);
        assert_eq!(a.data, b.data);
    }

    #[test]
    fn one_by_one_convs_skip_im2col() {
        // A 1x1 conv through the engine equals the plain GEMM of
        // weights x feature map.
        let conv = Conv2dDesc::new("p", 6, 4, 5, 3, 1, 1, 1, 0);
        let weights = Weights::random_for([&conv], 2);
        let input = Tensor::random(6, 4, 5, 3);
        let mut eng = engine();
        let out = eng.conv(&conv, &weights, &input);
        let mut expect = MatF32::zeros(3, 20);
        ctb_matrix::gemm_ref(1.0, weights.get(&conv), &input.data, 0.0, &mut expect);
        assert_bitwise_eq(&[expect], &[out.data], "1x1 conv");
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn fan_validates_input_channels() {
        let conv = Conv2dDesc::new("x", 4, 4, 4, 2, 1, 1, 1, 0);
        let weights = Weights::random_for([&conv], 1);
        let wrong = Tensor::random(3, 4, 4, 1);
        engine().conv(&conv, &weights, &wrong);
    }
}

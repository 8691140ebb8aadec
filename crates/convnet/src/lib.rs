//! Convolution-as-GEMM lowering and the GoogleNet case study (§7.3).
//!
//! The paper's real-world evaluation batches the four parallel branch
//! GEMMs of every GoogleNet inception module. This crate provides:
//!
//! * [`conv`] — convolution descriptors and their GEMM shapes under the
//!   im2col algorithm (`M` = filters, `K` = filter size × channels,
//!   `N` = feature-map positions × image batch — the paper's mapping);
//! * [`im2col`] — the functional lowering plus a direct-convolution
//!   reference used to validate it;
//! * [`googlenet`] — the full GoogleNet-v1 topology: 57 convolutions
//!   (3 stem + 9 inception modules × 6), with the real channel/spatial
//!   dimensions;
//! * [`pipeline`] — end-to-end inference timing under the three
//!   executions of §7.3: cuDNN-like serial, serial + branch streams, and
//!   coordinated batched GEMM.

pub mod backward;
pub mod conv;
pub mod forward;
pub mod googlenet;
pub mod im2col;
pub mod pipeline;
pub mod resnet;
pub mod squeezenet;
pub mod tensor;

pub use conv::Conv2dDesc;
pub use forward::{ForwardEngine, Weights};
pub use googlenet::{googlenet_v1, GoogleNet, InceptionModule};
pub use pipeline::{googlenet_times, inception_layer_speedups, GoogleNetTimes};
pub use resnet::{resnet50_blocks, BottleneckBlock};
pub use squeezenet::{squeezenet_v1, FireModule, SqueezeNet};
pub use tensor::Tensor;

//! DNN workload substrate for the AutoHet reproduction.
//!
//! AutoHet (ICPP '24) maps deep neural networks onto heterogeneous ReRAM
//! crossbars. Everything the mapping and search layers need to know about a
//! network is *geometry*: per-layer kernel size, channel counts, strides and
//! feature-map sizes (the 10-dimensional RL state of the paper's Eq. 1 is
//! built from exactly these). This crate provides:
//!
//! - [`Layer`] / [`Model`]: layer geometry and whole-network descriptions,
//!   with fully-connected layers normalized to 1×1 convolutions as in the
//!   paper (§3.2).
//! - [`zoo`]: the three evaluation networks of the paper's Table 2
//!   (AlexNet, VGG16, ResNet152) plus small networks used by tests.
//! - [`Dataset`]: input-geometry descriptors for MNIST / CIFAR-10 /
//!   ImageNet and seeded synthetic data (the paper's metrics depend only on
//!   geometry, so synthetic pixels preserve every evaluated behaviour).
//! - [`tensor`] / [`ops`]: an exact floating-point and integer reference
//!   implementation of convolution / fully-connected / pooling, used as the
//!   golden model when validating the analog crossbar simulator.
//! - [`metrics`]: integer argmax and largest deviation, the decision
//!   metrics of the noise-robustness study.
//! - [`quant`]: the 8-bit symmetric quantization used to program crossbars
//!   (§4.1 quantizes weights to 8 bits).

pub mod dataset;
pub mod layer;
pub mod metrics;
pub mod model;
pub mod ops;
pub mod quant;
pub mod tensor;
pub mod zoo;

pub use dataset::Dataset;
pub use layer::{Layer, LayerKind};
pub use model::{Model, ModelBuilder, Stage};
pub use tensor::Tensor;

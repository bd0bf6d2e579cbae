//! Whole-network descriptions and a builder that tracks feature-map
//! geometry through conv / pool / fc stages.

use crate::dataset::Dataset;
use crate::layer::{Layer, LayerKind};

/// One step of a model's inference pipeline. Crossbars execute `Layer`
/// stages; the tile's pooling module executes `Pool` stages (paper Fig. 1
/// shows the pooling module beside the PEs — it consumes no crossbars).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Run mappable layer `layers[i]` (conv or fc), followed by ReLU unless
    /// it is the final stage.
    Layer(usize),
    /// Non-overlapping max-pool with the given window.
    Pool(usize),
}

/// A DNN model as the mapper sees it: an ordered list of mappable layers
/// (convolutions and fully-connected layers; pooling only reshapes feature
/// maps and consumes no crossbars, matching the paper's accelerator where a
/// dedicated pooling module sits beside the PEs).
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    /// Human-readable name, e.g. `"VGG16"`.
    pub name: String,
    /// Dataset the model is evaluated with (defines the input geometry).
    pub dataset: Dataset,
    /// Mappable layers, in inference order.
    pub layers: Vec<Layer>,
    /// Full inference pipeline for linear-chain models. Empty for models
    /// with non-chain topology (e.g. ResNet residual connections), which
    /// support mapping/metric evaluation but not functional inference.
    pub stages: Vec<Stage>,
}

impl Model {
    /// Number of mappable layers `N` (the RL episode length).
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Total weight count across all layers.
    pub fn total_weights(&self) -> usize {
        self.layers.iter().map(Layer::num_weights).sum()
    }

    /// Largest value of each normalization-relevant feature, used to scale
    /// the RL state vector into [0, 1].
    pub fn feature_maxima(&self) -> FeatureMaxima {
        let mut m = FeatureMaxima::default();
        for l in &self.layers {
            m.in_channels = m.in_channels.max(l.in_channels);
            m.out_channels = m.out_channels.max(l.out_channels);
            m.kernel_elems = m.kernel_elems.max(l.kernel_elems());
            m.stride = m.stride.max(l.stride);
            m.weights = m.weights.max(l.num_weights());
            m.in_size = m.in_size.max(l.in_size);
        }
        m
    }

    /// Iterate over layers of a given kind.
    pub fn layers_of_kind(&self, kind: LayerKind) -> impl Iterator<Item = &Layer> {
        self.layers.iter().filter(move |l| l.kind == kind)
    }

    /// Fraction of convolutional layers whose kernel is `k`×`k`. The paper
    /// (§3.3) reports the share of 3×3-kernel weight matrices to motivate
    /// rectangle crossbars with heights that are multiples of 9.
    pub fn conv_kernel_share(&self, k: usize) -> f64 {
        let convs: Vec<_> = self.layers_of_kind(LayerKind::Conv).collect();
        if convs.is_empty() {
            return 0.0;
        }
        let matching = convs.iter().filter(|l| l.kernel == k).count();
        matching as f64 / convs.len() as f64
    }
}

/// Per-model maxima used for state normalization.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FeatureMaxima {
    pub in_channels: usize,
    pub out_channels: usize,
    pub kernel_elems: usize,
    pub stride: usize,
    pub weights: usize,
    pub in_size: usize,
}

/// Builder that threads feature-map geometry through the network, so model
/// definitions read like the paper's Table 2.
///
/// ```
/// use autohet_dnn::{Dataset, ModelBuilder};
///
/// let model = ModelBuilder::new("demo", Dataset::Cifar10)
///     .conv(16, 3)  // 3 → 16 channels, 3×3 "same" conv on 32×32
///     .pool(2)      // 32 → 16
///     .fc(10)
///     .build();
/// assert_eq!(model.num_layers(), 2);
/// assert_eq!(model.layers[1].in_channels, 16 * 16 * 16); // flattened
/// ```
#[derive(Debug, Clone)]
pub struct ModelBuilder {
    name: String,
    dataset: Dataset,
    layers: Vec<Layer>,
    stages: Vec<Stage>,
    /// Current spatial side length of the feature map.
    cur_size: usize,
    /// Current channel count (neuron count once an FC layer has been added).
    cur_channels: usize,
    /// Set once an FC layer is appended; conv/pool are illegal afterwards.
    flattened: bool,
}

impl ModelBuilder {
    /// Start a model whose input geometry comes from `dataset`.
    pub fn new(name: impl Into<String>, dataset: Dataset) -> Self {
        ModelBuilder {
            name: name.into(),
            dataset,
            layers: Vec::new(),
            stages: Vec::new(),
            cur_size: dataset.input_size(),
            cur_channels: dataset.input_channels(),
            flattened: false,
        }
    }

    /// Append a convolution with explicit stride/padding.
    pub fn conv_spec(
        mut self,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        assert!(!self.flattened, "conv after fc in {}", self.name);
        let l = Layer::conv(
            self.layers.len(),
            self.cur_channels,
            out_channels,
            kernel,
            stride,
            padding,
            self.cur_size,
        );
        self.cur_size = l.out_size();
        self.cur_channels = out_channels;
        self.stages.push(Stage::Layer(self.layers.len()));
        self.layers.push(l);
        self
    }

    /// Append a "same"-padded stride-1 convolution (the common case in
    /// Table 2, where `aCb-c` rows are 3×3 pad-1 or 1×1 pad-0 convolutions).
    pub fn conv(self, out_channels: usize, kernel: usize) -> Self {
        let padding = kernel / 2;
        self.conv_spec(out_channels, kernel, 1, padding)
    }

    /// Append a depthwise convolution over the current channel count
    /// (MobileNet-style; channels are preserved). Depthwise layers map,
    /// cost-model and infer through block-diagonally programmed crossbars.
    pub fn depthwise_spec(mut self, kernel: usize, stride: usize, padding: usize) -> Self {
        assert!(!self.flattened, "depthwise after fc in {}", self.name);
        let l = Layer::depthwise(
            self.layers.len(),
            self.cur_channels,
            kernel,
            stride,
            padding,
            self.cur_size,
        );
        self.cur_size = l.out_size();
        self.stages.push(Stage::Layer(self.layers.len()));
        self.layers.push(l);
        self
    }

    /// Append a non-overlapping max-pool; consumes no crossbars but halves
    /// (or otherwise divides) the feature-map side for subsequent layers.
    pub fn pool(mut self, window: usize) -> Self {
        assert!(!self.flattened, "pool after fc in {}", self.name);
        assert!(window >= 1 && self.cur_size >= window);
        self.cur_size /= window;
        self.stages.push(Stage::Pool(window));
        self
    }

    /// Append a fully-connected layer. The first FC flattens the feature
    /// map: its input neuron count is `channels × size²`.
    pub fn fc(mut self, out_neurons: usize) -> Self {
        let in_neurons = if self.flattened {
            self.cur_channels
        } else {
            self.cur_channels * self.cur_size * self.cur_size
        };
        self.flattened = true;
        let l = Layer::fc(self.layers.len(), in_neurons, out_neurons);
        self.cur_channels = out_neurons;
        self.cur_size = 1;
        self.stages.push(Stage::Layer(self.layers.len()));
        self.layers.push(l);
        self
    }

    /// Finish, yielding the immutable [`Model`].
    pub fn build(self) -> Model {
        assert!(!self.layers.is_empty(), "model {} has no layers", self.name);
        Model {
            name: self.name,
            dataset: self.dataset,
            layers: self.layers,
            stages: self.stages,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Model {
        ModelBuilder::new("tiny", Dataset::Cifar10)
            .conv(8, 3)
            .pool(2)
            .conv(16, 3)
            .pool(2)
            .fc(32)
            .fc(10)
            .build()
    }

    #[test]
    fn builder_threads_geometry() {
        let m = tiny();
        assert_eq!(m.num_layers(), 4);
        // conv1: 3 -> 8 channels on 32×32
        assert_eq!(m.layers[0].in_channels, 3);
        assert_eq!(m.layers[0].in_size, 32);
        // conv2 sees the pooled 16×16 map
        assert_eq!(m.layers[1].in_size, 16);
        assert_eq!(m.layers[1].in_channels, 8);
        // fc1 flattens 16 channels × 8×8
        assert_eq!(m.layers[2].in_channels, 16 * 8 * 8);
        assert_eq!(m.layers[2].kind, LayerKind::Fc);
        // fc2 chains neuron counts
        assert_eq!(m.layers[3].in_channels, 32);
        assert_eq!(m.layers[3].out_channels, 10);
    }

    #[test]
    fn indices_are_sequential() {
        let m = tiny();
        for (i, l) in m.layers.iter().enumerate() {
            assert_eq!(l.index, i);
        }
    }

    #[test]
    fn feature_maxima_cover_all_layers() {
        let m = tiny();
        let fm = m.feature_maxima();
        assert_eq!(fm.in_channels, 16 * 8 * 8);
        assert_eq!(fm.kernel_elems, 9);
        assert_eq!(fm.in_size, 32);
        assert!(fm.weights >= 16 * 8 * 8 * 32);
    }

    #[test]
    fn kernel_share_counts_only_convs() {
        let m = tiny();
        assert_eq!(m.conv_kernel_share(3), 1.0);
        assert_eq!(m.conv_kernel_share(1), 0.0);
    }

    #[test]
    #[should_panic]
    fn conv_after_fc_is_rejected() {
        let _ = ModelBuilder::new("bad", Dataset::Mnist).fc(10).conv(4, 3);
    }

    #[test]
    fn stages_interleave_layers_and_pools() {
        let m = tiny();
        assert_eq!(
            m.stages,
            vec![
                Stage::Layer(0),
                Stage::Pool(2),
                Stage::Layer(1),
                Stage::Pool(2),
                Stage::Layer(2),
                Stage::Layer(3),
            ]
        );
        // Every mappable layer appears exactly once in the pipeline.
        let layer_stages: Vec<usize> = m
            .stages
            .iter()
            .filter_map(|s| match s {
                Stage::Layer(i) => Some(*i),
                _ => None,
            })
            .collect();
        assert_eq!(layer_stages, (0..m.num_layers()).collect::<Vec<_>>());
    }
}

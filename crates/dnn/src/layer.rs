//! Per-layer geometry.
//!
//! A DNN layer, for mapping purposes, is the tuple the paper's Table 1
//! enumerates: kind (CONV/FC), kernel side `k`, input/output channels,
//! stride, and the input feature-map side. Fully-connected layers are
//! treated as 1×1 convolutions over a 1×1 feature map whose "channels" are
//! the neuron counts (paper §3.2: "we consider the FC layer as a special
//! kind of CONV layer by setting both ks and s to one").

/// The layer families the mapper distinguishes (the paper's state feature
/// `t` covers CONV/FC; depthwise convolutions are a beyond-paper workload
/// extension — see DESIGN.md §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// Convolutional layer (`t = 1` in the RL state vector).
    Conv,
    /// Fully-connected layer (`t = 0` in the RL state vector).
    Fc,
    /// Depthwise convolution: each output channel convolves exactly one
    /// input channel. Kernels share no weight-matrix rows, so they pack
    /// *diagonally* onto a crossbar (one kernel per row-block per column)
    /// — the pathological low-utilization case that motivates small/tall
    /// crossbars for these layers.
    DepthwiseConv,
}

impl LayerKind {
    /// Numeric encoding used by the RL state vector (paper Table 1, row 2;
    /// depthwise reads as a convolution).
    pub fn as_state(self) -> f64 {
        match self {
            LayerKind::Conv | LayerKind::DepthwiseConv => 1.0,
            LayerKind::Fc => 0.0,
        }
    }
}

/// Geometry of one DNN layer.
///
/// All the paper's models (Eq. 4 utilization, energy counting, the RL state
/// space) are functions of this struct alone — weight *values* never matter
/// for the architecture search, which is why the reproduction can run on
/// synthetic weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Layer {
    /// Zero-based index of the layer within its model (state feature `k`).
    pub index: usize,
    /// CONV or FC (state feature `t`).
    pub kind: LayerKind,
    /// Input channels `Cin` (for FC: number of input neurons).
    pub in_channels: usize,
    /// Output channels `Cout` (for FC: number of output neurons).
    pub out_channels: usize,
    /// Kernel side length `k` (1 for FC).
    pub kernel: usize,
    /// Convolution stride `s` (1 for FC).
    pub stride: usize,
    /// Symmetric zero padding applied to the input feature map.
    pub padding: usize,
    /// Input feature-map side length (state feature `ins`; 1 for FC).
    pub in_size: usize,
}

impl Layer {
    /// Construct a convolutional layer.
    pub fn conv(
        index: usize,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        in_size: usize,
    ) -> Self {
        assert!(kernel >= 1 && stride >= 1 && in_size >= 1);
        assert!(in_channels >= 1 && out_channels >= 1);
        assert!(
            in_size + 2 * padding >= kernel,
            "kernel {kernel} larger than padded input {in_size}+2*{padding}"
        );
        Layer {
            index,
            kind: LayerKind::Conv,
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            in_size,
        }
    }

    /// Construct a depthwise convolution over `channels` channels.
    pub fn depthwise(
        index: usize,
        channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        in_size: usize,
    ) -> Self {
        let mut l = Self::conv(index, channels, channels, kernel, stride, padding, in_size);
        l.kind = LayerKind::DepthwiseConv;
        l
    }

    /// Construct a fully-connected layer (normalized to a 1×1 conv).
    pub fn fc(index: usize, in_neurons: usize, out_neurons: usize) -> Self {
        assert!(in_neurons >= 1 && out_neurons >= 1);
        Layer {
            index,
            kind: LayerKind::Fc,
            in_channels: in_neurons,
            out_channels: out_neurons,
            kernel: 1,
            stride: 1,
            padding: 0,
            in_size: 1,
        }
    }

    /// `k²` — the number of elements in one 2-D kernel slice (state feature
    /// `ks`). This is the quantity crossbar rows must be a multiple of for
    /// perfect packing, which motivates the paper's rectangle crossbars.
    pub fn kernel_elems(&self) -> usize {
        self.kernel * self.kernel
    }

    /// Height of the unfolded weight matrix: `Cin · k²` (paper Fig. 7).
    pub fn weight_rows(&self) -> usize {
        self.in_channels * self.kernel_elems()
    }

    /// Width of the unfolded weight matrix: `Cout` (paper Fig. 7).
    pub fn weight_cols(&self) -> usize {
        self.out_channels
    }

    /// Total number of weights `w` in the layer (state feature `w`).
    /// Depthwise layers hold one `k²` kernel per channel, not a dense
    /// `Cin·k² × Cout` matrix.
    pub fn num_weights(&self) -> usize {
        match self.kind {
            LayerKind::DepthwiseConv => self.in_channels * self.kernel_elems(),
            _ => self.weight_rows() * self.weight_cols(),
        }
    }

    /// Shape of the layer's stored kernel matrix: dense layers unfold to
    /// `(Cin·k², Cout)` (paper Fig. 7); depthwise layers store one kernel
    /// per channel as a `(k², channels)` matrix (column `c` = channel
    /// `c`'s kernel).
    pub fn kernel_matrix_shape(&self) -> (usize, usize) {
        match self.kind {
            LayerKind::DepthwiseConv => (self.kernel_elems(), self.in_channels),
            _ => (self.weight_rows(), self.weight_cols()),
        }
    }

    /// Output feature-map side length.
    pub fn out_size(&self) -> usize {
        (self.in_size + 2 * self.padding - self.kernel) / self.stride + 1
    }

    /// Number of input-vector presentations one inference pushes through the
    /// layer's crossbars: each output pixel is one MVM. For FC layers this
    /// is 1.
    pub fn presentations(&self) -> usize {
        let o = self.out_size();
        o * o
    }

    /// Multiply-accumulate operations per inference, used for sanity checks
    /// and reporting.
    pub fn macs(&self) -> usize {
        self.presentations() * self.num_weights()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_geometry_matches_paper_fig2_layer1() {
        // Paper Fig. 2(a): Cin=3, Cout=4, kernel 3×3 → four 3×3×3 kernel
        // matrices, i.e. a 27-row × 4-column unfolded weight matrix.
        let l = Layer::conv(0, 3, 4, 3, 1, 1, 32);
        assert_eq!(l.kernel_elems(), 9);
        assert_eq!(l.weight_rows(), 27);
        assert_eq!(l.weight_cols(), 4);
        assert_eq!(l.num_weights(), 108);
    }

    #[test]
    fn conv_geometry_matches_paper_fig2_layer2() {
        // Paper Fig. 2(b): Cin=32, Cout=20, kernel 1×1 → 32×20 weight matrix.
        let l = Layer::conv(1, 32, 20, 1, 1, 0, 32);
        assert_eq!(l.weight_rows(), 32);
        assert_eq!(l.weight_cols(), 20);
    }

    #[test]
    fn fc_is_normalized_to_1x1_conv() {
        let l = Layer::fc(15, 4096, 1000);
        assert_eq!(l.kind, LayerKind::Fc);
        assert_eq!(l.kernel, 1);
        assert_eq!(l.stride, 1);
        assert_eq!(l.in_size, 1);
        assert_eq!(l.weight_rows(), 4096);
        assert_eq!(l.weight_cols(), 1000);
        assert_eq!(l.presentations(), 1);
    }

    #[test]
    fn out_size_same_padding() {
        // 3×3 stride-1 pad-1 "same" convolution preserves the spatial size.
        let l = Layer::conv(0, 3, 64, 3, 1, 1, 32);
        assert_eq!(l.out_size(), 32);
        assert_eq!(l.presentations(), 1024);
    }

    #[test]
    fn out_size_strided() {
        // ResNet stem: 7×7 stride-2 pad-3 on 224 → 112.
        let l = Layer::conv(0, 3, 64, 7, 2, 3, 224);
        assert_eq!(l.out_size(), 112);
    }

    #[test]
    fn macs_counts_every_output_pixel() {
        let l = Layer::conv(0, 2, 2, 3, 1, 1, 4);
        assert_eq!(l.macs(), 16 * 2 * 9 * 2);
    }

    #[test]
    fn kind_state_encoding() {
        assert_eq!(LayerKind::Conv.as_state(), 1.0);
        assert_eq!(LayerKind::Fc.as_state(), 0.0);
        assert_eq!(LayerKind::DepthwiseConv.as_state(), 1.0);
    }

    #[test]
    fn depthwise_geometry() {
        let l = Layer::depthwise(3, 64, 3, 1, 1, 14);
        assert_eq!(l.kind, LayerKind::DepthwiseConv);
        assert_eq!(l.in_channels, 64);
        assert_eq!(l.out_channels, 64);
        // One 3×3 kernel per channel, not 64·9·64 dense weights.
        assert_eq!(l.num_weights(), 64 * 9);
        assert_eq!(l.out_size(), 14);
    }

    #[test]
    #[should_panic]
    fn kernel_larger_than_input_panics() {
        let _ = Layer::conv(0, 3, 4, 5, 1, 0, 3);
    }
}

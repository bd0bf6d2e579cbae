//! The paper's crossbar-utilization model (Eq. 4) and mapping footprints.
//!
//! Mapping scheme (paper Fig. 7): a layer's weights unfold into a
//! `Cin·k² × Cout` matrix; each kernel (one column slice of `k²` rows for
//! one input channel) goes onto a single crossbar column segment so each
//! crossbar stores `⌊r/k²⌋` kernels per column and `c` kernels across.
//! A layer therefore occupies a grid of
//! `⌈Cin/⌊r/k²⌋⌉ × ⌈Cout/c⌉` crossbars and its *crossbar-level* utilization
//! is Eq. 4:
//!
//! ```text
//! u = (Cin · k² · Cout) / (r · ⌈Cin/⌊r/k²⌋⌉ · c · ⌈Cout/c⌉)
//! ```
//!
//! One generalization beyond the paper: when a single kernel is taller than
//! the crossbar (`k² > r`, e.g. ResNet's 7×7 stem on a 32-row crossbar,
//! where Eq. 4's floor would be zero) the kernel is split vertically across
//! `⌈k²/r⌉` crossbars, the natural extension of the same scheme.

use crate::geometry::XbarShape;
use autohet_dnn::Layer;

/// How one layer lands on an array of crossbars of a given shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Footprint {
    /// The crossbar shape this footprint was computed for.
    pub shape: XbarShape,
    /// Kernels stacked per crossbar column: `⌊r/k²⌋` (0 when the kernel is
    /// taller than the crossbar and had to be split).
    pub kernels_per_column: u32,
    /// Crossbar-grid height: `⌈Cin/⌊r/k²⌋⌉` (or `Cin·⌈k²/r⌉` when split).
    pub xb_rows: u32,
    /// Crossbar-grid width: `⌈Cout/c⌉`.
    pub xb_cols: u32,
    /// Weight-holding cells: `Cin · k² · Cout`.
    pub used_cells: u64,
}

impl Footprint {
    /// Total crossbars the layer occupies.
    pub fn total_xbars(&self) -> u64 {
        self.xb_rows as u64 * self.xb_cols as u64
    }

    /// Cells provisioned by the occupied crossbars.
    pub fn provisioned_cells(&self) -> u64 {
        self.total_xbars() * self.shape.cells()
    }

    /// Crossbar-level utilization, the paper's Eq. 4. Always in `(0, 1]`.
    pub fn utilization(&self) -> f64 {
        self.used_cells as f64 / self.provisioned_cells() as f64
    }

    /// Utilization charged against an explicit allocation (e.g. after tile
    /// round-up or tile sharing): `used / (allocated · r · c)`.
    pub fn utilization_over(&self, allocated_xbars: u64) -> f64 {
        debug_assert!(allocated_xbars >= self.total_xbars());
        self.used_cells as f64 / (allocated_xbars * self.shape.cells()) as f64
    }
}

/// Compute the mapping footprint of `layer` on crossbars of `shape`.
///
/// ```
/// use autohet_dnn::Layer;
/// use autohet_xbar::{utilization::footprint, XbarShape};
///
/// // The paper's Fig. 2(a): Cin=3, Cout=4, 3×3 kernels on 32×32 → 10.5%.
/// let layer = Layer::conv(0, 3, 4, 3, 1, 1, 32);
/// let fp = footprint(&layer, XbarShape::square(32));
/// assert_eq!(fp.total_xbars(), 1);
/// assert!((fp.utilization() - 0.10546875).abs() < 1e-9);
/// ```
pub fn footprint(layer: &Layer, shape: XbarShape) -> Footprint {
    let k2 = layer.kernel_elems() as u64;
    let r = shape.rows as u64;
    let c = shape.cols as u64;
    let cin = layer.in_channels as u64;
    let cout = layer.out_channels as u64;

    if layer.kind == autohet_dnn::LayerKind::DepthwiseConv {
        // Diagonal packing: kernels share neither rows (each convolves its
        // own channel, so wordlines cannot be reused) nor columns, so a
        // crossbar holds at most min(⌊r/k²⌋, c) kernels — the worst-case
        // workload for wide crossbars. Each crossbar drives its own
        // wordlines (grid is `xbars × 1` for counting purposes).
        let per_xb = (r / k2).min(c);
        let xbars = if per_xb == 0 {
            cin * k2.div_ceil(r) // kernel taller than the crossbar: split
        } else {
            cin.div_ceil(per_xb)
        };
        return Footprint {
            shape,
            kernels_per_column: per_xb.min(u32::MAX as u64) as u32,
            xb_rows: xbars as u32,
            xb_cols: 1,
            used_cells: cin * k2,
        };
    }

    let (kernels_per_column, xb_rows) = if k2 <= r {
        let kpc = r / k2;
        (kpc as u32, cin.div_ceil(kpc) as u32)
    } else {
        // Kernel taller than the crossbar: split vertically.
        (0, (cin * k2.div_ceil(r)) as u32)
    };
    let xb_cols = cout.div_ceil(c) as u32;

    Footprint {
        shape,
        kernels_per_column,
        xb_rows,
        xb_cols,
        used_cells: cin * k2 * cout,
    }
}

/// Convenience: Eq. 4 utilization of `layer` on `shape`.
pub fn utilization(layer: &Layer, shape: XbarShape) -> f64 {
    footprint(layer, shape).utilization()
}

#[cfg(test)]
mod tests {
    use super::*;
    use autohet_dnn::Layer;

    #[test]
    fn paper_fig2_layer1_is_10_5_percent() {
        // Fig. 2(a): Cin=3, Cout=4, 3×3 kernels on a 32×32 crossbar.
        let l = Layer::conv(0, 3, 4, 3, 1, 1, 32);
        let fp = footprint(&l, XbarShape::square(32));
        assert_eq!(fp.kernels_per_column, 3);
        assert_eq!((fp.xb_rows, fp.xb_cols), (1, 1));
        assert!((fp.utilization() - 0.10546875).abs() < 1e-9); // 108/1024
    }

    #[test]
    fn paper_fig2_layer2_is_62_5_percent() {
        // Fig. 2(b): Cin=32, Cout=20, 1×1 kernels on a 32×32 crossbar.
        let l = Layer::conv(1, 32, 20, 1, 1, 0, 32);
        assert!((utilization(&l, XbarShape::square(32)) - 0.625).abs() < 1e-12);
    }

    #[test]
    fn paper_fig5_utilization_on_64_is_27_over_32() {
        // Fig. 5: 128 kernels of 3×3×12 on 64×64 crossbars.
        let l = Layer::conv(0, 12, 128, 3, 1, 1, 16);
        let fp = footprint(&l, XbarShape::square(64));
        assert_eq!(fp.kernels_per_column, 7);
        assert_eq!((fp.xb_rows, fp.xb_cols), (2, 2));
        assert!((fp.utilization() - 27.0 / 32.0).abs() < 1e-12);
    }

    #[test]
    fn paper_fig5_on_128_occupies_one_crossbar() {
        // Same layer on 128×128: fits one crossbar (util 27/128 in the
        // paper is tile-level with 4 crossbars/tile; see accel tests).
        let l = Layer::conv(0, 12, 128, 3, 1, 1, 16);
        let fp = footprint(&l, XbarShape::square(128));
        assert_eq!(fp.total_xbars(), 1);
        assert!((fp.utilization() - 27.0 / 32.0).abs() < 1e-12);
        assert!((fp.utilization_over(4) - 27.0 / 128.0).abs() < 1e-12);
    }

    #[test]
    fn paper_sec33_vgg16_layer4_83_7_to_100_percent() {
        // §3.3: k=3, Cin=128, Cout=128 → 83.7% on 32×32, 100% on 36×32.
        let l = Layer::conv(3, 128, 128, 3, 1, 1, 16);
        let sq = utilization(&l, XbarShape::square(32));
        assert!((sq - 0.8372).abs() < 1e-3, "got {sq}");
        let rect = utilization(&l, XbarShape::new(36, 32));
        assert!((rect - 1.0).abs() < 1e-12, "got {rect}");
    }

    #[test]
    fn fc_layers_use_plain_matrix_tiling() {
        // FC 4096→1000 on 512×512: ⌈4096/512⌉ × ⌈1000/512⌉ = 8 × 2.
        let l = Layer::fc(13, 4096, 1000);
        let fp = footprint(&l, XbarShape::square(512));
        assert_eq!((fp.xb_rows, fp.xb_cols), (8, 2));
        let expect = (4096.0 * 1000.0) / (8.0 * 2.0 * 512.0 * 512.0);
        assert!((fp.utilization() - expect).abs() < 1e-12);
    }

    #[test]
    fn oversized_kernel_splits_vertically() {
        // ResNet stem: 7×7 (49 rows) kernels on 32-row crossbars →
        // each kernel spans ⌈49/32⌉ = 2 crossbars vertically.
        let l = Layer::conv(0, 3, 64, 7, 2, 3, 224);
        let fp = footprint(&l, XbarShape::square(32));
        assert_eq!(fp.kernels_per_column, 0);
        assert_eq!(fp.xb_rows, 6); // 3 channels × 2
        assert_eq!(fp.xb_cols, 2);
        let u = fp.utilization();
        assert!(u > 0.0 && u <= 1.0);
    }

    #[test]
    fn utilization_is_never_above_one() {
        for shape in crate::geometry::all_candidates() {
            for &(cin, cout, k) in &[
                (1usize, 1usize, 1usize),
                (3, 64, 3),
                (512, 512, 3),
                (2048, 1000, 1),
                (3, 64, 7),
            ] {
                let l = Layer::conv(0, cin, cout, k, 1, k / 2, 224);
                let u = utilization(&l, shape);
                assert!(
                    u > 0.0 && u <= 1.0 + 1e-12,
                    "u={u} for {shape} {cin},{cout},{k}"
                );
            }
        }
    }

    #[test]
    fn depthwise_utilization_collapses_on_wide_crossbars() {
        // 64-channel 3×3 depthwise: a 512×512 crossbar holds 56 kernels
        // diagonally (one column each), wasting ~99.8% of its cells, while
        // a 36×32 crossbar wastes far less — the layer class that makes
        // crossbar-level heterogeneity essential.
        let l = Layer::depthwise(0, 64, 3, 1, 1, 14);
        let wide = footprint(&l, XbarShape::square(512));
        let tall = footprint(&l, XbarShape::new(36, 32));
        assert!(wide.utilization() < 0.005, "wide {}", wide.utilization());
        assert!(tall.utilization() > 10.0 * wide.utilization());
        // Diagonal capacity: min(⌊512/9⌋, 512) = 56 kernels per crossbar.
        assert_eq!(wide.kernels_per_column, 56);
        assert_eq!(wide.total_xbars(), 64_u64.div_ceil(56));
        // 36×32: min(4, 32) = 4 kernels per crossbar → 16 crossbars.
        assert_eq!(tall.kernels_per_column, 4);
        assert_eq!(tall.total_xbars(), 16);
    }

    #[test]
    fn depthwise_used_cells_count_single_kernels() {
        let l = Layer::depthwise(0, 32, 3, 1, 1, 8);
        let fp = footprint(&l, XbarShape::square(64));
        assert_eq!(fp.used_cells, 32 * 9);
        assert!(fp.utilization() > 0.0 && fp.utilization() <= 1.0);
    }

    #[test]
    fn rectangle_beats_square_for_3x3_kernels() {
        // The whole point of RXBs (§3.3): multiples-of-9 heights waste no
        // rows on 3×3 kernels.
        let l = Layer::conv(0, 64, 64, 3, 1, 1, 16);
        assert!(utilization(&l, XbarShape::new(72, 64)) > utilization(&l, XbarShape::square(64)));
    }
}

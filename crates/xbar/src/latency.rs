//! Per-layer inference latency.
//!
//! Bit-serial in-situ MVM: each output pixel (presentation) takes
//! `input_bits` compute cycles. A cycle's critical path is the wordline
//! charge (grows with crossbar height) plus the partial-sum adder tree
//! (grows logarithmically with the number of crossbar-grid rows whose
//! results must be merged). Layers execute back-to-back; total model
//! latency is the sum — consistent with the paper's Table 5 where all
//! accelerators land within ~1.3× of each other and the smallest crossbar
//! is (slightly) fastest.

use crate::cost::CostParams;
use crate::utilization::Footprint;
use autohet_dnn::Layer;

/// Duration of one compute cycle for crossbars of this footprint \[ns\].
pub fn cycle_time_ns(fp: &Footprint, p: &CostParams) -> f64 {
    let tree_stages = (fp.xb_rows as f64).log2().ceil().max(0.0);
    p.t_cycle_base
        + p.t_cycle_per_row32 * fp.shape.rows as f64 / 32.0
        + p.t_adder_stage * tree_stages
}

/// Latency of one inference through `layer` mapped as `fp` \[ns\].
pub fn layer_latency_ns(layer: &Layer, fp: &Footprint, p: &CostParams) -> f64 {
    let cycles = layer.presentations() as f64 * p.input_bits as f64;
    cycles * cycle_time_ns(fp, p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::XbarShape;
    use crate::utilization::footprint;
    use autohet_dnn::Layer;

    #[test]
    fn cycle_time_grows_mildly_with_rows() {
        let p = CostParams::default();
        let l = Layer::conv(0, 64, 64, 3, 1, 1, 16);
        let t32 = cycle_time_ns(&footprint(&l, XbarShape::square(32)), &p);
        let t512 = cycle_time_ns(&footprint(&l, XbarShape::square(512)), &p);
        // Mild: within ~1.3×, per the paper's Table 5 spread.
        assert!(t512 / t32 < 1.35, "ratio {}", t512 / t32);
        assert!(t512 > 0.0 && t32 > 0.0);
    }

    #[test]
    fn single_grid_row_has_no_tree_delay() {
        let p = CostParams::default();
        let l = Layer::conv(0, 3, 8, 3, 1, 1, 8); // fits one crossbar row
        let fp = footprint(&l, XbarShape::square(64));
        assert_eq!(fp.xb_rows, 1);
        let expect = p.t_cycle_base + p.t_cycle_per_row32 * 2.0;
        assert!((cycle_time_ns(&fp, &p) - expect).abs() < 1e-9);
    }

    #[test]
    fn latency_scales_with_presentations_and_bits() {
        let mut p = CostParams::default();
        let l = Layer::conv(0, 16, 16, 3, 1, 1, 8);
        let fp = footprint(&l, XbarShape::square(64));
        let t8 = layer_latency_ns(&l, &fp, &p);
        p.input_bits = 4;
        let t4 = layer_latency_ns(&l, &fp, &p);
        assert!((t8 / t4 - 2.0).abs() < 1e-9);
        assert!(
            (t8 / (l.presentations() as f64) - 8.0 * cycle_time_ns(&fp, &CostParams::default()))
                .abs()
                < 1e-6
        );
    }

    #[test]
    fn fc_layer_is_one_presentation() {
        let p = CostParams::default();
        let l = Layer::fc(0, 512, 4096);
        let fp = footprint(&l, XbarShape::square(512));
        let t = layer_latency_ns(&l, &fp, &p);
        assert!((t - p.input_bits as f64 * cycle_time_ns(&fp, &p)).abs() < 1e-9);
    }
}

//! Silicon area accounting.
//!
//! Area is provisioned-hardware bound: every allocated logical crossbar
//! brings `slices()` physical crossbar slices, each with one ADC per
//! bitline, a driver per wordline and the cell array; every allocated tile
//! adds buffer/pooling/control overhead. This is the structure behind the
//! paper's Table 5, where the 32×32 homogeneous accelerator is an order of
//! magnitude larger than the 512×512 one despite holding the same weights
//! (the ADC population explodes).

use crate::cost::CostParams;
use crate::geometry::XbarShape;

/// Area of one physical crossbar slice \[µm²\].
pub fn slice_area(shape: XbarShape, p: &CostParams) -> f64 {
    shape.cols as f64 * p.adc_area()
        + shape.rows as f64 * p.a_driver
        + shape.cells() as f64 * p.a_cell
        + p.a_xb_fixed
}

/// Area of `allocated` logical crossbars of `shape` \[µm²\].
pub fn crossbar_area(allocated: u64, shape: XbarShape, p: &CostParams) -> f64 {
    allocated as f64 * p.slices() as f64 * slice_area(shape, p)
}

/// Tile overhead for `tiles` allocated tiles \[µm²\].
pub fn tile_overhead_area(tiles: u64, p: &CostParams) -> f64 {
    tiles as f64 * p.a_tile
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adc_population_dominates_slice_area() {
        let p = CostParams::default();
        let s = XbarShape::square(64);
        let adc_part = 64.0 * p.adc_area();
        assert!(adc_part / slice_area(s, &p) > 0.5);
    }

    #[test]
    fn equal_weights_smaller_crossbars_cost_more_area() {
        // 256 crossbars of 32×32 hold the same cells as one 512×512, but
        // provision 256×32 = 8192 ADCs instead of 512.
        let p = CostParams::default();
        let many_small = crossbar_area(256, XbarShape::square(32), &p);
        let one_big = crossbar_area(1, XbarShape::square(512), &p);
        assert!(many_small > 5.0 * one_big, "{many_small} vs {one_big}");
    }

    #[test]
    fn area_is_linear_in_allocation() {
        let p = CostParams::default();
        let s = XbarShape::new(72, 64);
        assert!((crossbar_area(10, s, &p) - 10.0 * crossbar_area(1, s, &p)).abs() < 1e-6);
        assert!((tile_overhead_area(3, &p) - 3.0 * p.a_tile).abs() < 1e-9);
    }

    #[test]
    fn slices_multiply_physical_area() {
        let mut p = CostParams::default();
        let s = XbarShape::square(64);
        let a8 = crossbar_area(1, s, &p);
        p.cell_bits = 2; // 4 slices instead of 8
        let a4 = crossbar_area(1, s, &p);
        assert!((a8 / a4 - 2.0).abs() < 1e-12);
    }
}

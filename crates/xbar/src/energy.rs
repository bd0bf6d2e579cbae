//! Per-layer energy accounting.
//!
//! Two components, following the MNSIM/ISAAC modeling style:
//!
//! 1. **Dynamic** energy: activation counts × per-op energies. Every
//!    compute cycle, each *occupied* crossbar converts all of its bitlines
//!    (this is exactly the "activated ADC" counting of the paper's Fig. 5:
//!    256 ADC activations for the 64×64 mapping vs 128 for 128×128).
//! 2. **Static** energy: provisioned-hardware leakage × time. Small
//!    crossbars provision vastly more ADCs for the same model, which is
//!    why the paper's large-crossbar accelerators win energy (§2.2) —
//!    static ADC power dominates and is charged on the *allocated* (tile
//!    round-up or tile-shared) hardware for the duration of the inference.
//!
//! All energies in nJ.

use crate::cost::CostParams;
use crate::utilization::Footprint;
use autohet_dnn::Layer;

/// Dynamic activation counts for one layer's inference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynamicCounts {
    /// ADC conversions: cycles × occupied crossbars × bitlines × slices.
    pub adc_conversions: u64,
    /// DAC conversions: cycles × crossbar-grid rows × wordlines (inputs are
    /// broadcast across the grid's columns and across bit slices).
    pub dac_conversions: u64,
    /// Active cell-cycles: cycles × weight-holding cells × slices.
    pub cell_reads: u64,
    /// Shift-and-add merges: one per ADC sample.
    pub shift_adds: u64,
    /// Tile buffer traffic: input vector + output vector bytes per
    /// presentation.
    pub buffer_bytes: u64,
}

/// Count the dynamic activations of `layer` mapped as `fp`.
pub fn dynamic_counts(layer: &Layer, fp: &Footprint, p: &CostParams) -> DynamicCounts {
    debug_assert!(p.input_activity > 0.0 && p.input_activity <= 1.0);
    // Bit-serial cycles whose input plane is non-zero actually fire the
    // array and converters (all-zero planes are skipped, matching the
    // functional crossbar).
    let raw_cycles = layer.presentations() as u64 * p.input_bits as u64;
    let cycles = ((raw_cycles as f64 * p.input_activity).ceil() as u64).max(1);
    let slices = p.slices() as u64;
    let adc = cycles * fp.total_xbars() * fp.shape.cols as u64 * slices;
    let dac = cycles * fp.xb_rows as u64 * fp.shape.rows as u64;
    let cells = cycles * fp.used_cells * slices;
    let buffer =
        layer.presentations() as u64 * (layer.weight_rows() as u64 + layer.weight_cols() as u64);
    DynamicCounts {
        adc_conversions: adc,
        dac_conversions: dac,
        cell_reads: cells,
        shift_adds: adc,
        buffer_bytes: buffer,
    }
}

/// Static power \[nW\] of `allocated` logical crossbars of `shape`
/// (each logical crossbar is `slices()` physical slices; each slice carries
/// one ADC per bitline plus row drivers and the cell array).
pub fn static_power(allocated: u64, shape: crate::XbarShape, p: &CostParams) -> f64 {
    let per_slice = shape.cols as f64 * p.adc_power()
        + shape.rows as f64 * p.p_driver
        + shape.cells() as f64 * p.p_cell;
    allocated as f64 * p.slices() as f64 * per_slice
}

/// Itemized per-layer energy \[nJ\].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LayerEnergy {
    pub adc: f64,
    pub dac: f64,
    pub cell: f64,
    pub shift_add: f64,
    pub buffer: f64,
    /// Static energy of this layer's allocated hardware over the whole
    /// inference (`static_power × total inference latency`).
    pub leakage: f64,
}

impl LayerEnergy {
    /// Total energy \[nJ\].
    pub fn total(&self) -> f64 {
        self.adc + self.dac + self.cell + self.shift_add + self.buffer + self.leakage
    }

    /// Sum two breakdowns (used when aggregating a model).
    pub fn accumulate(&mut self, other: &LayerEnergy) {
        self.adc += other.adc;
        self.dac += other.dac;
        self.cell += other.cell;
        self.shift_add += other.shift_add;
        self.buffer += other.buffer;
        self.leakage += other.leakage;
    }
}

/// Energy of `layer` mapped as `fp`, charged `allocated` logical crossbars
/// of leakage for `inference_latency_ns` (the whole model's runtime —
/// hardware leaks whether or not its layer is currently computing).
pub fn layer_energy(
    layer: &Layer,
    fp: &Footprint,
    allocated: u64,
    inference_latency_ns: f64,
    p: &CostParams,
) -> LayerEnergy {
    let n = dynamic_counts(layer, fp, p);
    // nW × ns = 1e-18 J = 1e-9 nJ.
    let leakage = static_power(allocated, fp.shape, p) * inference_latency_ns * 1e-9;
    LayerEnergy {
        adc: n.adc_conversions as f64 * p.adc_energy(),
        dac: n.dac_conversions as f64 * p.e_dac,
        cell: n.cell_reads as f64 * p.e_cell,
        shift_add: n.shift_adds as f64 * p.e_shift_add,
        buffer: n.buffer_bytes as f64 * p.e_buffer,
        leakage,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::XbarShape;
    use crate::utilization::footprint;
    use autohet_dnn::Layer;

    fn fig5_layer() -> Layer {
        // 128 kernels of 3×3×12 (paper Fig. 5).
        Layer::conv(0, 12, 128, 3, 1, 1, 16)
    }

    #[test]
    fn fig5_adc_activation_counts() {
        // Paper Fig. 5: 256 activated ADCs on 64×64 (4 crossbars × 64),
        // 128 on 128×128 (1 crossbar × 128). Our per-cycle ADC activation
        // count per slice is exactly that.
        let l = fig5_layer();
        let p = CostParams::default();
        let fp64 = footprint(&l, XbarShape::square(64));
        let fp128 = footprint(&l, XbarShape::square(128));
        let per_cycle = |fp: &Footprint| fp.total_xbars() * fp.shape.cols as u64;
        assert_eq!(per_cycle(&fp64), 256);
        assert_eq!(per_cycle(&fp128), 128);
        let c64 = dynamic_counts(&l, &fp64, &p);
        let c128 = dynamic_counts(&l, &fp128, &p);
        assert_eq!(c64.adc_conversions, 2 * c128.adc_conversions);
    }

    #[test]
    fn dynamic_counts_scale_with_presentations() {
        let p = CostParams::default();
        let small = Layer::conv(0, 12, 128, 3, 1, 1, 8);
        let big = Layer::conv(0, 12, 128, 3, 1, 1, 16);
        let shape = XbarShape::square(64);
        let cs = dynamic_counts(&small, &footprint(&small, shape), &p);
        let cb = dynamic_counts(&big, &footprint(&big, shape), &p);
        assert_eq!(cb.adc_conversions, 4 * cs.adc_conversions);
        assert_eq!(cb.buffer_bytes, 4 * cs.buffer_bytes);
    }

    #[test]
    fn static_power_counts_provisioned_adcs() {
        let p = CostParams::default();
        let w32 = static_power(1, XbarShape::square(32), &p);
        let w512 = static_power(1, XbarShape::square(512), &p);
        // Per crossbar, a 512-wide crossbar has 16× the ADCs.
        assert!(w512 > 15.0 * w32 && w512 < 18.0 * w32);
        assert!((static_power(10, XbarShape::square(32), &p) - 10.0 * w32).abs() < 1e-9);
    }

    #[test]
    fn energy_total_sums_components() {
        let l = fig5_layer();
        let p = CostParams::default();
        let fp = footprint(&l, XbarShape::square(64));
        let e = layer_energy(&l, &fp, fp.total_xbars(), 1e6, &p);
        let manual = e.adc + e.dac + e.cell + e.shift_add + e.buffer + e.leakage;
        assert!((e.total() - manual).abs() < 1e-9);
        assert!(e.total() > 0.0);
    }

    #[test]
    fn leakage_grows_with_allocation_and_time() {
        let l = fig5_layer();
        let p = CostParams::default();
        let fp = footprint(&l, XbarShape::square(64));
        let e1 = layer_energy(&l, &fp, 4, 1e6, &p);
        let e2 = layer_energy(&l, &fp, 8, 1e6, &p);
        let e3 = layer_energy(&l, &fp, 4, 2e6, &p);
        assert!((e2.leakage / e1.leakage - 2.0).abs() < 1e-9);
        assert!((e3.leakage / e1.leakage - 2.0).abs() < 1e-9);
        // Dynamic parts unaffected by allocation.
        assert_eq!(e1.adc, e2.adc);
    }

    #[test]
    fn input_activity_scales_dynamics_not_leakage() {
        let l = fig5_layer();
        let fp = footprint(&l, XbarShape::square(64));
        let mut p = CostParams::default();
        let full = layer_energy(&l, &fp, 4, 1e6, &p);
        p.input_activity = 0.5;
        let half = layer_energy(&l, &fp, 4, 1e6, &p);
        assert!((half.adc / full.adc - 0.5).abs() < 1e-3);
        assert!((half.cell / full.cell - 0.5).abs() < 1e-3);
        assert_eq!(half.leakage, full.leakage);
        assert_eq!(half.buffer, full.buffer);
    }

    #[test]
    fn accumulate_adds_fieldwise() {
        let mut a = LayerEnergy {
            adc: 1.0,
            dac: 2.0,
            cell: 3.0,
            shift_add: 4.0,
            buffer: 5.0,
            leakage: 6.0,
        };
        let b = a;
        a.accumulate(&b);
        assert_eq!(a.total(), 2.0 * b.total());
    }
}

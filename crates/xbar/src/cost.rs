//! Behavior-level hardware cost parameters.
//!
//! The paper runs on MNSIM with 8-bit weights on 1-bit cells (eight
//! physical crossbar "slices" ganged per PE to hold one logical weight
//! plane), 1-bit DACs, and 10-bit ADCs sized to cover the tallest candidate
//! crossbar (§4.1). MNSIM itself is an analytical model: counts of
//! component activations times per-component constants, plus static power
//! times runtime. The constants below are ISAAC/MNSIM-inspired defaults
//! (see DESIGN.md §4); every experiment in the paper depends on the
//! *counting structure*, not the absolute constants, and all of them are
//! configurable.
//!
//! Units: energy nJ, power nW, time ns, length µm (area µm²).

/// All cost-model constants plus the bit-width configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParams {
    /// Weight precision in bits (paper: 8).
    pub weight_bits: u32,
    /// Memristor cell precision in bits (paper: 1).
    pub cell_bits: u32,
    /// Input (activation) precision in bits, streamed bit-serially through
    /// 1-bit DACs (paper: 8).
    pub input_bits: u32,
    /// ADC resolution (paper: 10, enough for 576-row bitline sums).
    pub adc_bits: u32,

    /// ADC dynamic energy per conversion at `adc_ref_bits` resolution \[nJ\].
    pub e_adc: f64,
    /// Reference resolution for `e_adc`/`a_adc`/`p_adc` (they scale ×2 per
    /// extra bit).
    pub adc_ref_bits: u32,
    /// DAC dynamic energy per 1-bit conversion \[nJ\].
    pub e_dac: f64,
    /// Energy per active cell per compute cycle \[nJ\].
    pub e_cell: f64,
    /// Shift-and-add energy per ADC sample merged \[nJ\].
    pub e_shift_add: f64,
    /// Buffer energy per byte moved in/out of a tile \[nJ\].
    pub e_buffer: f64,
    /// Input activity factor in `(0, 1]`: the fraction of bit-serial
    /// cycles whose input bit-plane is non-zero. The functional crossbar
    /// skips all-zero planes entirely (`crate::crossbar`); this scales the
    /// dynamic (not static) energy terms to match. 1.0 = worst case, the
    /// conservative default the paper's counting corresponds to.
    pub input_activity: f64,

    /// ADC static power at `adc_ref_bits` \[nW\]. Provisioned-ADC leakage is
    /// the dominant energy term for small-crossbar accelerators, which is
    /// what makes large crossbars energy-efficient (paper §2.2.3).
    pub p_adc: f64,
    /// Wordline driver static power per row \[nW\].
    pub p_driver: f64,
    /// Cell-array static power per cell \[nW\].
    pub p_cell: f64,

    /// ADC area at `adc_ref_bits` \[µm²\].
    pub a_adc: f64,
    /// Cell area \[µm²\].
    pub a_cell: f64,
    /// Wordline driver area per row \[µm²\].
    pub a_driver: f64,
    /// Fixed per-crossbar overhead (sense infrastructure) \[µm²\].
    pub a_xb_fixed: f64,
    /// Per-tile overhead: buffers, pooling module, control \[µm²\].
    pub a_tile: f64,

    /// Base compute-cycle time \[ns\].
    pub t_cycle_base: f64,
    /// Extra cycle time per 32 crossbar rows (wordline RC) \[ns\].
    pub t_cycle_per_row32: f64,
    /// Partial-sum adder-tree time per stage \[ns\].
    pub t_adder_stage: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            weight_bits: 8,
            cell_bits: 1,
            input_bits: 8,
            adc_bits: 10,
            e_adc: 2.0e-3,
            adc_ref_bits: 10,
            e_dac: 2.0e-6,
            e_cell: 5.0e-7,
            e_shift_add: 5.0e-5,
            e_buffer: 1.0e-3,
            input_activity: 1.0,
            p_adc: 2.0e3, // 2 µW per 10-bit ADC
            p_driver: 10.0,
            p_cell: 0.001,
            a_adc: 3.0e3,
            a_cell: 0.05,
            a_driver: 1.0,
            a_xb_fixed: 500.0,
            a_tile: 2.0e4,
            t_cycle_base: 98.0,
            t_cycle_per_row32: 1.4,
            t_adder_stage: 2.0,
        }
    }
}

impl CostParams {
    /// Physical crossbar slices per logical crossbar: one per cell-worth of
    /// weight bits (paper: 8/1 = 8, "we group eight crossbars in each PE").
    pub fn slices(&self) -> u32 {
        debug_assert_eq!(self.weight_bits % self.cell_bits, 0);
        self.weight_bits / self.cell_bits
    }

    /// Resolution scaling factor ×2 per bit above the reference.
    fn adc_scale(&self) -> f64 {
        let d = self.adc_bits as i32 - self.adc_ref_bits as i32;
        2.0_f64.powi(d)
    }

    /// ADC dynamic energy per conversion at the configured resolution \[nJ\].
    pub fn adc_energy(&self) -> f64 {
        self.e_adc * self.adc_scale()
    }

    /// ADC static power at the configured resolution \[nW\].
    pub fn adc_power(&self) -> f64 {
        self.p_adc * self.adc_scale()
    }

    /// ADC area at the configured resolution \[µm²\].
    pub fn adc_area(&self) -> f64 {
        self.a_adc * self.adc_scale()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_bit_widths() {
        let p = CostParams::default();
        assert_eq!(p.weight_bits, 8);
        assert_eq!(p.cell_bits, 1);
        assert_eq!(p.input_bits, 8);
        assert_eq!(p.adc_bits, 10);
        assert_eq!(p.slices(), 8);
    }

    #[test]
    fn ten_bit_adc_covers_tallest_candidate() {
        // §4.1: "We set the ADC revolution to 10-bit to support crossbars
        // of all heterogeneous sizes" — the tallest candidate is 576 rows.
        // The crossbar's conversions clamp to the ADC's largest level.
        let max_level = crate::adc::Adc::new(CostParams::default().adc_bits).max_level();
        assert!(max_level >= 576);
        assert!(max_level < 2 * 576 * 2); // and not absurdly larger
    }

    #[test]
    fn adc_costs_scale_with_resolution() {
        let mut p = CostParams::default();
        let (e0, w0, a0) = (p.adc_energy(), p.adc_power(), p.adc_area());
        p.adc_bits += 2;
        assert!((p.adc_energy() / e0 - 4.0).abs() < 1e-12);
        assert!((p.adc_power() / w0 - 4.0).abs() < 1e-12);
        assert!((p.adc_area() / a0 - 4.0).abs() < 1e-12);
        p.adc_bits -= 3;
        assert!(p.adc_energy() < e0);
    }
}

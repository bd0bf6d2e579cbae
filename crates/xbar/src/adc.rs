//! Analog-to-digital converter model.
//!
//! Each bitline's summed current is sampled by an ADC of `bits` resolution.
//! With 1-bit cells and 1-bit (binary) input voltages, an ideal bitline
//! carries an integer number of unit currents, so a sufficiently wide ADC
//! is *exact*; resolution only matters when the active-row count exceeds
//! the ADC range (clipping) or analog noise perturbs the sum (rounding).
//! The paper fixes 10 bits so every candidate crossbar (tallest: 576 rows)
//! converts losslessly (§4.1).

/// An ideal uniform quantizer with saturation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Adc {
    bits: u32,
}

impl Adc {
    /// Build an ADC of the given resolution (2..=16 bits).
    pub fn new(bits: u32) -> Self {
        assert!(
            (2..=16).contains(&bits),
            "unsupported ADC resolution {bits}"
        );
        Adc { bits }
    }

    /// Resolution in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Largest representable level.
    pub fn max_level(&self) -> i64 {
        (1_i64 << self.bits) - 1
    }

    /// Sample a (non-negative) analog bitline value: round to the nearest
    /// level and saturate at the range limits.
    pub fn sample(&self, analog: f64) -> i64 {
        let v = analog.round() as i64;
        v.clamp(0, self.max_level())
    }

    /// Sample an already-integral bitline sum (the bit-packed fast path):
    /// saturation only, no rounding. Bit-identical to `sample(v as f64)`
    /// for every `v` a crossbar bitline can produce (far below 2⁵³).
    #[inline]
    pub fn sample_exact(&self, v: i64) -> i64 {
        v.clamp(0, self.max_level())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_for_in_range_integers() {
        let adc = Adc::new(10);
        for v in [0_i64, 1, 17, 576, 1023] {
            assert_eq!(adc.sample(v as f64), v);
        }
    }

    #[test]
    fn saturates_out_of_range() {
        let adc = Adc::new(10);
        assert_eq!(adc.sample(1024.0), 1023);
        assert_eq!(adc.sample(5000.0), 1023);
        assert_eq!(adc.sample(-3.0), 0);
    }

    #[test]
    fn rounds_noisy_values_to_nearest() {
        let adc = Adc::new(8);
        assert_eq!(adc.sample(41.4), 41);
        assert_eq!(adc.sample(41.6), 42);
    }

    #[test]
    fn max_level_matches_bits() {
        assert_eq!(Adc::new(10).max_level(), 1023);
        assert_eq!(Adc::new(8).max_level(), 255);
    }

    #[test]
    #[should_panic]
    fn rejects_absurd_resolution() {
        let _ = Adc::new(40);
    }
}

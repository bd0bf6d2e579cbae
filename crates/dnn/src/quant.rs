//! 8-bit symmetric quantization.
//!
//! The paper's experiment platform quantizes DNN weights to 8 bits and
//! realizes each weight across eight 1-bit memristor cells (§4.1). This
//! module provides the fixed-point lattice both ends of that pipeline use:
//! floats are mapped to signed integers with a shared per-tensor scale, the
//! crossbars compute exactly on the integers, and results are rescaled.

use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Symmetric linear quantizer: `q = round(x / scale)` clamped to
/// `[-qmax, qmax]`, with `scale = max_abs / qmax`.
///
/// ```
/// use autohet_dnn::quant::Quantizer;
///
/// let q = Quantizer::fit_slice(&[-2.0, 0.5, 1.0], 8);
/// assert_eq!(q.quantize(-2.0), -127);
/// let err = (q.dequantize(q.quantize(0.5)) - 0.5).abs();
/// assert!(err <= q.max_error());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Quantizer {
    /// Real value represented by one integer step.
    pub scale: f32,
    /// Largest representable magnitude (e.g. 127 for 8-bit signed).
    pub qmax: i32,
}

impl Quantizer {
    /// Fit a quantizer of `bits` (including sign) to the data range of `t`.
    /// Degenerate all-zero tensors get a scale of 1 so round-trips stay
    /// exact.
    pub fn fit(t: &Tensor, bits: u32) -> Self {
        assert!((2..=16).contains(&bits), "unsupported bit width {bits}");
        let qmax = (1_i32 << (bits - 1)) - 1;
        let max_abs = t.max_abs();
        let scale = if max_abs == 0.0 {
            1.0
        } else {
            max_abs / qmax as f32
        };
        Quantizer { scale, qmax }
    }

    /// Fit to a raw slice instead of a tensor.
    pub fn fit_slice(xs: &[f32], bits: u32) -> Self {
        let t = Tensor::from_vec(vec![xs.len()], xs.to_vec());
        Self::fit(&t, bits)
    }

    /// Quantize one value.
    pub fn quantize(&self, x: f32) -> i32 {
        let q = (x / self.scale).round() as i32;
        q.clamp(-self.qmax, self.qmax)
    }

    /// Reconstruct the real value of a quantized integer.
    pub fn dequantize(&self, q: i32) -> f32 {
        q as f32 * self.scale
    }

    /// Largest absolute quantization error for values inside the fitted
    /// range: half a step.
    pub fn max_error(&self) -> f32 {
        self.scale * 0.5
    }
}

/// Quantize an unfolded weight matrix to `bits` and return `(rows × cols)`
/// integer rows plus the quantizer, the exact form the crossbar programmer
/// consumes.
pub fn quantize_matrix(w: &Tensor, bits: u32) -> (Vec<Vec<i32>>, Quantizer) {
    assert_eq!(w.shape().len(), 2);
    let (rows, cols) = (w.shape()[0], w.shape()[1]);
    let q = Quantizer::fit(w, bits);
    let mut out = Vec::with_capacity(rows);
    for r in 0..rows {
        let mut row = Vec::with_capacity(cols);
        for c in 0..cols {
            row.push(q.quantize(w.at2(r, c)));
        }
        out.push(row);
    }
    (out, q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_covers_range() {
        let t = Tensor::from_vec(vec![3], vec![-2.0, 1.0, 0.5]);
        let q = Quantizer::fit(&t, 8);
        assert_eq!(q.qmax, 127);
        assert_eq!(q.quantize(-2.0), -127);
        assert_eq!(q.quantize(2.0), 127);
    }

    #[test]
    fn round_trip_error_is_bounded() {
        let t = Tensor::from_vec(vec![5], vec![-1.0, -0.3, 0.0, 0.42, 0.99]);
        let q = Quantizer::fit(&t, 8);
        for &x in t.data() {
            let err = (q.dequantize(q.quantize(x)) - x).abs();
            assert!(err <= q.max_error() + 1e-7, "err {err} for {x}");
        }
    }

    #[test]
    fn zero_tensor_round_trips_exactly() {
        let t = Tensor::zeros(vec![4]);
        let q = Quantizer::fit(&t, 8);
        assert_eq!(q.quantize(0.0), 0);
        assert_eq!(q.dequantize(0), 0.0);
    }

    #[test]
    fn clamping_saturates_outliers() {
        let t = Tensor::from_vec(vec![1], vec![1.0]);
        let q = Quantizer::fit(&t, 8);
        assert_eq!(q.quantize(10.0), 127);
        assert_eq!(q.quantize(-10.0), -127);
    }

    #[test]
    fn quantize_matrix_layout() {
        let w = Tensor::from_vec(vec![2, 2], vec![1.0, -1.0, 0.5, 0.25]);
        let (rows, q) = quantize_matrix(&w, 8);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], vec![127, -127]);
        assert_eq!(rows[1][0], q.quantize(0.5));
    }

    #[test]
    fn lower_bit_widths_have_coarser_steps() {
        let t = Tensor::from_vec(vec![2], vec![-1.0, 1.0]);
        let q8 = Quantizer::fit(&t, 8);
        let q4 = Quantizer::fit(&t, 4);
        assert!(q4.scale > q8.scale);
        assert_eq!(q4.qmax, 7);
    }

    #[test]
    #[should_panic]
    fn silly_bit_width_is_rejected() {
        let t = Tensor::zeros(vec![1]);
        let _ = Quantizer::fit(&t, 1);
    }
}

//! A minimal dense tensor used by the reference (golden-model) ops and the
//! functional crossbar simulation.
//!
//! Deliberately simple: row-major `f32` storage with shape checking. The
//! heavy numerical work in this repository happens inside the crossbar
//! simulator on integer lattices; this type only has to be correct.

/// Dense row-major tensor of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Zero-filled tensor of the given shape.
    pub fn zeros(shape: Vec<usize>) -> Self {
        let n = shape.iter().product();
        Tensor {
            shape,
            data: vec![0.0; n],
        }
    }

    /// Build from existing data; `data.len()` must equal the shape volume.
    pub fn from_vec(shape: Vec<usize>, data: Vec<f32>) -> Self {
        assert_eq!(
            shape.iter().product::<usize>(),
            data.len(),
            "shape {:?} does not match data length {}",
            shape,
            data.len()
        );
        Tensor { shape, data }
    }

    /// Tensor shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element access for a 3-D (CHW) tensor.
    pub fn at3(&self, c: usize, h: usize, w: usize) -> f32 {
        debug_assert_eq!(self.shape.len(), 3);
        let (_, hh, ww) = (self.shape[0], self.shape[1], self.shape[2]);
        self.data[(c * hh + h) * ww + w]
    }

    /// Mutable element access for a 3-D (CHW) tensor.
    pub fn at3_mut(&mut self, c: usize, h: usize, w: usize) -> &mut f32 {
        debug_assert_eq!(self.shape.len(), 3);
        let (_, hh, ww) = (self.shape[0], self.shape[1], self.shape[2]);
        &mut self.data[(c * hh + h) * ww + w]
    }

    /// Element access for a 2-D tensor.
    pub fn at2(&self, r: usize, c: usize) -> f32 {
        debug_assert_eq!(self.shape.len(), 2);
        self.data[r * self.shape[1] + c]
    }

    /// Mutable element access for a 2-D tensor.
    pub fn at2_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        debug_assert_eq!(self.shape.len(), 2);
        let w = self.shape[1];
        &mut self.data[r * w + c]
    }

    /// Flatten into a 1-D tensor (no copy of semantics, data reused).
    pub fn flatten(mut self) -> Tensor {
        let n = self.data.len();
        self.shape = vec![n];
        self
    }

    /// Maximum absolute value, 0 for empty tensors. Used by the quantizer.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0_f32, |m, &v| m.max(v.abs()))
    }

    /// Index of the maximum element (first one on ties); `None` when empty.
    pub fn argmax(&self) -> Option<usize> {
        if self.data.is_empty() {
            return None;
        }
        let mut best = 0;
        for (i, &v) in self.data.iter().enumerate() {
            if v > self.data[best] {
                best = i;
            }
        }
        Some(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_right_volume() {
        let t = Tensor::zeros(vec![2, 3, 4]);
        assert_eq!(t.len(), 24);
        assert_eq!(t.shape(), &[2, 3, 4]);
        assert!(t.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic]
    fn from_vec_checks_volume() {
        let _ = Tensor::from_vec(vec![2, 2], vec![1.0; 5]);
    }

    #[test]
    fn chw_indexing_is_row_major() {
        let mut t = Tensor::zeros(vec![2, 2, 3]);
        *t.at3_mut(1, 0, 2) = 7.0;
        // offset = (1*2 + 0)*3 + 2 = 8
        assert_eq!(t.data()[8], 7.0);
        assert_eq!(t.at3(1, 0, 2), 7.0);
    }

    #[test]
    fn matrix_indexing() {
        let t = Tensor::from_vec(vec![2, 3], vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(t.at2(1, 2), 5.0);
        assert_eq!(t.at2(0, 1), 1.0);
    }

    #[test]
    fn max_abs_and_argmax() {
        let t = Tensor::from_vec(vec![4], vec![-3.0, 1.0, 2.5, -0.5]);
        assert_eq!(t.max_abs(), 3.0);
        assert_eq!(t.argmax(), Some(2));
        assert_eq!(Tensor::zeros(vec![0]).argmax(), None);
    }

    #[test]
    fn flatten_preserves_data() {
        let t = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let f = t.clone().flatten();
        assert_eq!(f.shape(), &[4]);
        assert_eq!(f.data(), t.data());
    }
}

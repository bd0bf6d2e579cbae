//! Decision metrics over the integer outputs of the bit-exact analog
//! pipeline: `accel::robustness` compares noisy and ideal readouts with
//! them.

/// Index of the largest value (ties broken by lower index first), `None`
/// for an empty slice. Integer sibling of
/// [`Tensor::argmax`](crate::Tensor::argmax).
pub fn argmax_i64(values: &[i64]) -> Option<usize> {
    values
        .iter()
        .enumerate()
        .max_by(|(ai, av), (bi, bv)| av.cmp(bv).then(bi.cmp(ai)))
        .map(|(i, _)| i)
}

/// Largest absolute deviation between two integer output vectors.
pub fn max_abs_dev_i64(a: &[i64], b: &[i64]) -> i64 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x - y).abs())
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argmax_i64_breaks_ties_low() {
        assert_eq!(argmax_i64(&[3, 9, 9, 1]), Some(1));
        assert_eq!(argmax_i64(&[-5]), Some(0));
        assert_eq!(argmax_i64(&[]), None);
    }

    #[test]
    fn integer_deviations() {
        assert_eq!(max_abs_dev_i64(&[1, 2, 3], &[1, 4, 0]), 3);
        assert_eq!(max_abs_dev_i64(&[], &[]), 0);
    }
}

//! Classification metrics for functional-inference studies.
//!
//! Used by the fault-injection and accuracy examples/tests to compare the
//! analog pipeline's decisions against the golden model.

use crate::tensor::Tensor;

/// Numerically stable softmax over a logit slice.
pub fn softmax(logits: &[f32]) -> Vec<f32> {
    assert!(!logits.is_empty());
    let m = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = logits.iter().map(|&v| (v - m).exp()).collect();
    let z: f32 = exps.iter().sum();
    exps.into_iter().map(|e| e / z).collect()
}

/// Indices of the `k` largest logits, descending (ties broken by lower
/// index first).
pub fn top_k(logits: &[f32], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..logits.len()).collect();
    idx.sort_by(|&a, &b| logits[b].partial_cmp(&logits[a]).unwrap().then(a.cmp(&b)));
    idx.truncate(k);
    idx
}

/// Fraction of (logits, label) pairs whose argmax matches the label.
pub fn accuracy(predictions: &[(Tensor, usize)]) -> f64 {
    if predictions.is_empty() {
        return 0.0;
    }
    let correct = predictions
        .iter()
        .filter(|(t, label)| t.argmax() == Some(*label))
        .count();
    correct as f64 / predictions.len() as f64
}

/// Fraction of paired logit tensors whose argmax decisions agree — the
/// noise-robustness metric of the fault-injection study.
pub fn agreement(a: &[Tensor], b: &[Tensor]) -> f64 {
    assert_eq!(a.len(), b.len());
    if a.is_empty() {
        return 1.0;
    }
    let same = a
        .iter()
        .zip(b)
        .filter(|(x, y)| x.argmax() == y.argmax())
        .count();
    same as f64 / a.len() as f64
}

/// Index of the largest value (ties broken by lower index first), `None`
/// for an empty slice. Integer sibling of [`Tensor::argmax`] for the
/// bit-exact analog pipeline outputs.
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
    fn softmax_sums_to_one_and_orders() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        let s: f32 = p.iter().sum();
        assert!((s - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let p = softmax(&[1000.0, 1001.0]);
        assert!(p.iter().all(|v| v.is_finite()));
        assert!(p[1] > p[0]);
    }

    #[test]
    fn top_k_orders_descending() {
        assert_eq!(top_k(&[0.1, 0.9, 0.5, 0.9], 3), vec![1, 3, 2]);
        assert_eq!(top_k(&[1.0], 5), vec![0]);
    }

    #[test]
    fn accuracy_counts_argmax_hits() {
        let preds = vec![
            (Tensor::from_vec(vec![2], vec![0.9, 0.1]), 0),
            (Tensor::from_vec(vec![2], vec![0.2, 0.8]), 1),
            (Tensor::from_vec(vec![2], vec![0.7, 0.3]), 1),
        ];
        assert!((accuracy(&preds) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(accuracy(&[]), 0.0);
    }

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

    #[test]
    fn agreement_compares_decisions() {
        let a = vec![Tensor::from_vec(vec![2], vec![1.0, 0.0])];
        let b = vec![Tensor::from_vec(vec![2], vec![0.6, 0.4])];
        let c = vec![Tensor::from_vec(vec![2], vec![0.0, 1.0])];
        assert_eq!(agreement(&a, &b), 1.0);
        assert_eq!(agreement(&a, &c), 0.0);
        assert_eq!(agreement(&[], &[]), 1.0);
    }
}

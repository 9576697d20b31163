//! Evaluation metrics matching the paper's Table II.
//!
//! The paper reports micro-F1 for PPI (multi-label) and accuracy for
//! OGB-Products / MAG240M (single-label). Loss *functions* live on the tape
//! ([`crate::autograd::Tape::softmax_xent`], `bce_with_logits`); this module
//! holds the pure evaluation side.

use crate::matrix::Matrix;

/// Single-label accuracy over the rows selected by `mask`.
pub fn accuracy(logits: &Matrix, labels: &[u32], mask: &[bool]) -> f64 {
    assert_eq!(logits.rows(), labels.len());
    assert_eq!(logits.rows(), mask.len());
    let preds = logits.argmax_rows();
    let mut correct = 0usize;
    let mut total = 0usize;
    for i in 0..labels.len() {
        if mask[i] {
            total += 1;
            if preds[i] == labels[i] {
                correct += 1;
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        correct as f64 / total as f64
    }
}

/// Micro-averaged F1 for multi-label prediction: a label is predicted
/// positive when its logit > 0 (i.e. sigmoid > 0.5).
pub fn micro_f1(logits: &Matrix, targets: &Matrix, mask: &[bool]) -> f64 {
    assert_eq!(logits.shape(), targets.shape());
    assert_eq!(logits.rows(), mask.len());
    let (mut tp, mut fp, mut fn_) = (0u64, 0u64, 0u64);
    for (r, &keep) in mask.iter().enumerate() {
        if !keep {
            continue;
        }
        for c in 0..logits.cols() {
            let pred = logits.get(r, c) > 0.0;
            let truth = targets.get(r, c) > 0.5;
            match (pred, truth) {
                (true, true) => tp += 1,
                (true, false) => fp += 1,
                (false, true) => fn_ += 1,
                (false, false) => {}
            }
        }
    }
    let denom = 2 * tp + fp + fn_;
    if denom == 0 {
        // no positive labels anywhere: vacuous perfection
        1.0
    } else {
        2.0 * tp as f64 / denom as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_counts_masked_rows_only() {
        let logits = Matrix::from_vec(3, 2, vec![2.0, 1.0, 0.0, 5.0, 3.0, 1.0]);
        // preds: 0, 1, 0
        let labels = [0u32, 0, 0];
        assert_eq!(accuracy(&logits, &labels, &[true, true, true]), 2.0 / 3.0);
        assert_eq!(accuracy(&logits, &labels, &[true, false, true]), 1.0);
        assert_eq!(accuracy(&logits, &labels, &[false, false, false]), 0.0);
    }

    #[test]
    fn micro_f1_perfect_and_zero() {
        let targets = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let perfect = Matrix::from_vec(2, 2, vec![3.0, -3.0, -3.0, 3.0]);
        assert_eq!(micro_f1(&perfect, &targets, &[true, true]), 1.0);
        let inverted = Matrix::from_vec(2, 2, vec![-3.0, 3.0, 3.0, -3.0]);
        assert_eq!(micro_f1(&inverted, &targets, &[true, true]), 0.0);
    }

    #[test]
    fn micro_f1_partial() {
        // 1 TP, 1 FP, 1 FN -> F1 = 2/(2+1+1) = 0.5
        let targets = Matrix::from_vec(1, 3, vec![1.0, 1.0, 0.0]);
        let logits = Matrix::from_vec(1, 3, vec![1.0, -1.0, 1.0]);
        assert_eq!(micro_f1(&logits, &targets, &[true]), 0.5);
    }

    #[test]
    fn vacuous_f1_is_one() {
        let targets = Matrix::zeros(2, 2);
        let logits = Matrix::full(2, 2, -1.0);
        assert_eq!(micro_f1(&logits, &targets, &[true, true]), 1.0);
    }
}

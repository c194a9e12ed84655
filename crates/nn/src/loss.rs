//! Softmax cross-entropy, the single loss the paper's workloads use.

use hadfl_tensor::{log_softmax_rows, Tensor};

use crate::error::NnError;

/// Computes mean softmax cross-entropy over a batch and the gradient
/// w.r.t. the logits.
///
/// `logits` is `(batch, classes)`; `labels[i]` is the class index of row
/// `i`. Returns `(loss, grad_logits)` where
/// `grad = (softmax(logits) - onehot(labels)) / batch` — already averaged,
/// so feeding it straight into `Layer::backward` yields gradients of the
/// *mean* loss, matching Eq. (1) of the paper.
///
/// # Errors
///
/// Returns [`NnError::BatchMismatch`] if the label count differs from the
/// batch size or a label is out of range, and a tensor error if `logits`
/// is not rank 2.
///
/// # Example
///
/// ```
/// use hadfl_nn::softmax_cross_entropy;
/// use hadfl_tensor::Tensor;
///
/// # fn main() -> Result<(), hadfl_nn::NnError> {
/// let logits = Tensor::from_vec(vec![10.0, -10.0], &[1, 2])?;
/// let (loss, grad) = softmax_cross_entropy(&logits, &[0])?;
/// assert!(loss < 1e-3);           // confidently correct
/// assert_eq!(grad.dims(), &[1, 2]);
/// # Ok(())
/// # }
/// ```
pub fn softmax_cross_entropy(logits: &Tensor, labels: &[usize]) -> Result<(f32, Tensor), NnError> {
    let _prof = hadfl_prof::scope("loss");
    let log_probs = log_softmax_rows(logits)?;
    let (batch, classes) = (logits.dims()[0], logits.dims()[1]);
    if labels.len() != batch {
        return Err(NnError::BatchMismatch(format!(
            "{} labels for a batch of {batch}",
            labels.len()
        )));
    }
    if let Some(&bad) = labels.iter().find(|&&l| l >= classes) {
        return Err(NnError::BatchMismatch(format!(
            "label {bad} out of range for {classes} classes"
        )));
    }
    let lp = log_probs.as_slice();
    let mut loss = 0.0f32;
    for (i, &label) in labels.iter().enumerate() {
        loss -= lp[i * classes + label];
    }
    loss /= batch as f32;

    let scale = 1.0 / batch as f32;
    let mut grad = log_probs.map(f32::exp);
    let gv = grad.as_mut_slice();
    for (i, &label) in labels.iter().enumerate() {
        gv[i * classes + label] -= 1.0;
    }
    for v in gv.iter_mut() {
        *v *= scale;
    }
    Ok((loss, grad))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_logits_give_log_classes_loss() {
        let logits = Tensor::zeros(&[4, 10]);
        let (loss, _) = softmax_cross_entropy(&logits, &[0, 1, 2, 3]).unwrap();
        assert!((loss - (10.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn grad_rows_sum_to_zero() {
        let logits = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.5, 0.0], &[2, 3]).unwrap();
        let (_, grad) = softmax_cross_entropy(&logits, &[2, 0]).unwrap();
        for r in 0..2 {
            let s: f32 = grad.as_slice()[r * 3..(r + 1) * 3].iter().sum();
            assert!(s.abs() < 1e-6, "row {r} sums to {s}");
        }
    }

    #[test]
    fn grad_matches_finite_difference() {
        let logits = Tensor::from_vec(vec![0.2, -0.4, 1.1, 0.0, 0.9, -0.3], &[2, 3]).unwrap();
        let labels = [1usize, 2];
        let (_, grad) = softmax_cross_entropy(&logits, &labels).unwrap();
        let eps = 1e-3;
        for i in 0..6 {
            let mut lp = logits.clone();
            lp.as_mut_slice()[i] += eps;
            let mut lm = logits.clone();
            lm.as_mut_slice()[i] -= eps;
            let (fp, _) = softmax_cross_entropy(&lp, &labels).unwrap();
            let (fm, _) = softmax_cross_entropy(&lm, &labels).unwrap();
            let num = (fp - fm) / (2.0 * eps);
            assert!((num - grad.as_slice()[i]).abs() < 1e-3, "logit {i}");
        }
    }

    #[test]
    fn rejects_label_count_mismatch() {
        let logits = Tensor::zeros(&[2, 3]);
        assert!(softmax_cross_entropy(&logits, &[0]).is_err());
    }

    #[test]
    fn rejects_out_of_range_label() {
        let logits = Tensor::zeros(&[1, 3]);
        assert!(softmax_cross_entropy(&logits, &[3]).is_err());
    }

    #[test]
    fn loss_decreases_with_confidence_in_truth() {
        let weak = Tensor::from_vec(vec![0.1, 0.0], &[1, 2]).unwrap();
        let strong = Tensor::from_vec(vec![5.0, 0.0], &[1, 2]).unwrap();
        let (lw, _) = softmax_cross_entropy(&weak, &[0]).unwrap();
        let (ls, _) = softmax_cross_entropy(&strong, &[0]).unwrap();
        assert!(ls < lw);
    }
}

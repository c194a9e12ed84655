use hadfl_tensor::Tensor;

use crate::error::NnError;
use crate::layer::Layer;
use crate::scratch::{lease_vec, release};

/// Rectified linear unit: `y = max(x, 0)` elementwise.
///
/// The backward pass gates `grad_out` by the sign of the cached input.
///
/// # Example
///
/// ```
/// use hadfl_nn::{Layer, Relu};
/// use hadfl_tensor::Tensor;
///
/// # fn main() -> Result<(), hadfl_nn::NnError> {
/// let mut relu = Relu::new();
/// let y = relu.forward(&Tensor::from_vec(vec![-3.0, 0.0, 3.0], &[1, 3])?, true)?;
/// assert_eq!(y.as_slice(), &[0.0, 0.0, 3.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct Relu {
    /// `input > 0` per element of the latest training batch, leased
    /// from the thread's training scratch until backward has used it.
    mask: Option<Vec<bool>>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor, NnError> {
        let _prof = hadfl_prof::scope("relu_fwd");
        let src = input.as_slice();
        release(&mut self.mask);
        if !train {
            return Ok(input.map(|v| v.max(0.0)));
        }
        // Output and mask in one pass over the input.
        let mut mask = lease_vec(src.len());
        let out = src
            .iter()
            .zip(&mut mask)
            .map(|(&v, m)| {
                *m = v > 0.0;
                v.max(0.0)
            })
            .collect();
        self.mask = Some(mask);
        Ok(Tensor::from_vec(out, input.dims())?)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let _prof = hadfl_prof::scope("relu_bwd");
        let Some(mask) = &self.mask else {
            return Err(NnError::BackwardBeforeForward("Relu"));
        };
        if mask.len() != grad_out.len() {
            return Err(NnError::BatchMismatch(format!(
                "relu backward length {} does not match cached mask {}",
                grad_out.len(),
                mask.len()
            )));
        }
        // A select, not a branch: the mask is about half set and in no
        // order a predictor can learn. ANDing the gradient's bits with
        // an all-ones or all-zero word passes them through untouched
        // (NaN payloads, infinities, -0.0) or leaves exactly +0.0.
        let gx = grad_out
            .as_slice()
            .iter()
            .zip(mask)
            .map(|(&g, &m)| f32::from_bits(g.to_bits() & u32::from(m).wrapping_neg()))
            .collect();
        release(&mut self.mask);
        Ok(Tensor::from_vec(gx, grad_out.dims())?)
    }

    fn visit_params(&self, _f: &mut dyn FnMut(&Tensor)) {}
    fn visit_params_mut(&mut self, _f: &mut dyn FnMut(&mut Tensor)) {}
    fn visit_params_grads_mut(&mut self, _f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {}
    fn zero_grads(&mut self) {}

    fn name(&self) -> &'static str {
        "Relu"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_clamps_negatives() {
        let mut r = Relu::new();
        let y = r
            .forward(
                &Tensor::from_vec(vec![-1.0, 2.0, -3.0, 4.0], &[2, 2]).unwrap(),
                false,
            )
            .unwrap();
        assert_eq!(y.as_slice(), &[0.0, 2.0, 0.0, 4.0]);
    }

    #[test]
    fn backward_gates_by_input_sign() {
        let mut r = Relu::new();
        r.forward(&Tensor::from_vec(vec![-1.0, 2.0], &[1, 2]).unwrap(), true)
            .unwrap();
        let gx = r
            .backward(&Tensor::from_vec(vec![5.0, 5.0], &[1, 2]).unwrap())
            .unwrap();
        assert_eq!(gx.as_slice(), &[0.0, 5.0]);
    }

    #[test]
    fn zero_input_has_zero_gradient() {
        let mut r = Relu::new();
        r.forward(&Tensor::zeros(&[1, 2]), true).unwrap();
        let gx = r.backward(&Tensor::ones(&[1, 2])).unwrap();
        assert_eq!(gx.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn backward_rejects_wrong_length() {
        let mut r = Relu::new();
        r.forward(&Tensor::zeros(&[1, 2]), true).unwrap();
        assert!(r.backward(&Tensor::zeros(&[1, 3])).is_err());
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut r = Relu::new();
        assert!(r.backward(&Tensor::zeros(&[1, 2])).is_err());
    }

    #[test]
    fn eval_forward_invalidates_the_training_mask() {
        let mut r = Relu::new();
        let train = Tensor::from_vec(vec![-1.0, 2.0], &[1, 2]).unwrap();
        r.forward(&train, true).unwrap();
        // Same length, opposite signs: the stale mask would "work".
        r.forward(&Tensor::from_vec(vec![3.0, -4.0], &[1, 2]).unwrap(), false)
            .unwrap();
        assert_eq!(
            r.backward(&Tensor::ones(&[1, 2])),
            Err(NnError::BackwardBeforeForward("Relu"))
        );
        r.forward(&train, true).unwrap();
        assert_eq!(
            r.backward(&Tensor::ones(&[1, 2])).unwrap().as_slice(),
            &[0.0, 1.0]
        );
    }
}

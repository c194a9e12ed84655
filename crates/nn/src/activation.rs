use hadfl_tensor::Tensor;

use crate::error::NnError;
use crate::layer::{foreign_tape, Kept, Layer, Tape};
use crate::scratch::lease_vec;

/// Rectified linear unit: `y = max(x, 0)` elementwise.
///
/// The backward pass gates `grad_out` by the sign of the training
/// input, kept on the tape as a mask leased from the thread's training
/// scratch.
///
/// # Example
///
/// ```
/// use hadfl_nn::{Layer, Relu};
/// use hadfl_tensor::Tensor;
///
/// # fn main() -> Result<(), hadfl_nn::NnError> {
/// let mut relu = Relu::new();
/// let x = Tensor::from_vec(vec![-3.0, 0.0, 3.0], &[1, 3])?;
/// let (y, tape) = relu.forward_train(&x)?;
/// assert_eq!(y.as_slice(), &[0.0, 0.0, 3.0]);
/// let gx = relu.backward(tape, &Tensor::ones(&[1, 3]))?;
/// assert_eq!(gx.as_slice(), &[0.0, 0.0, 1.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct Relu;

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu
    }
}

impl Layer for Relu {
    fn forward(&self, input: &Tensor) -> Result<Tensor, NnError> {
        let _prof = hadfl_prof::scope("relu_fwd");
        Ok(input.map(|v| v.max(0.0)))
    }

    fn forward_train(&mut self, input: &Tensor) -> Result<(Tensor, Tape), NnError> {
        let _prof = hadfl_prof::scope("relu_fwd");
        let src = input.as_slice();
        // Output and mask in one pass over the input.
        let mut mask = lease_vec(src.len());
        let out = src
            .iter()
            .zip(mask.iter_mut())
            .map(|(&v, m)| {
                *m = v > 0.0;
                v.max(0.0)
            })
            .collect();
        let out = Tensor::from_vec(out, input.dims())?;
        Ok((out, Tape(Kept::Mask(mask))))
    }

    fn backward(&mut self, tape: Tape, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let _prof = hadfl_prof::scope("relu_bwd");
        let Kept::Mask(mask) = tape.0 else {
            return Err(foreign_tape("Relu"));
        };
        if mask.len() != grad_out.len() {
            return Err(NnError::BatchMismatch(format!(
                "relu backward length {} does not match the tape's mask {}",
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
            .zip(mask.iter())
            .map(|(&g, &m)| f32::from_bits(g.to_bits() & u32::from(m).wrapping_neg()))
            .collect();
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
        let x = Tensor::from_vec(vec![-1.0, 2.0, -3.0, 4.0], &[2, 2]).unwrap();
        let y = Relu::new().forward(&x).unwrap();
        assert_eq!(y.as_slice(), &[0.0, 2.0, 0.0, 4.0]);
    }

    #[test]
    fn backward_gates_by_input_sign() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 2.0], &[1, 2]).unwrap();
        let (_, tape) = r.forward_train(&x).unwrap();
        let gx = r
            .backward(tape, &Tensor::from_vec(vec![5.0, 5.0], &[1, 2]).unwrap())
            .unwrap();
        assert_eq!(gx.as_slice(), &[0.0, 5.0]);
    }

    #[test]
    fn zero_input_has_zero_gradient() {
        let mut r = Relu::new();
        let (_, tape) = r.forward_train(&Tensor::zeros(&[1, 2])).unwrap();
        let gx = r.backward(tape, &Tensor::ones(&[1, 2])).unwrap();
        assert_eq!(gx.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn backward_rejects_wrong_length() {
        let mut r = Relu::new();
        let (_, tape) = r.forward_train(&Tensor::zeros(&[1, 2])).unwrap();
        assert!(r.backward(tape, &Tensor::zeros(&[1, 3])).is_err());
    }
}

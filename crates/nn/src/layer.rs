use hadfl_tensor::Tensor;

use crate::error::NnError;

/// A differentiable network layer.
///
/// Layers own their parameters, their parameter gradients, and whatever
/// forward-pass activations the backward pass needs. The visitor-style
/// parameter accessors ([`visit_params`](Layer::visit_params) and friends)
/// traverse parameters in a fixed, deterministic order — the same order on
/// every device — which is what lets the federated-learning crates treat a
/// model as a flat parameter vector.
///
/// # Example
///
/// ```
/// use hadfl_nn::{Layer, Relu};
/// use hadfl_tensor::Tensor;
///
/// # fn main() -> Result<(), hadfl_nn::NnError> {
/// let mut relu = Relu::new();
/// let y = relu.forward(&Tensor::from_vec(vec![-1.0, 2.0], &[1, 2])?, true)?;
/// assert_eq!(y.as_slice(), &[0.0, 2.0]);
/// # Ok(())
/// # }
/// ```
pub trait Layer: Send {
    /// Computes the layer output for a batch.
    ///
    /// `train` selects training-mode behaviour (e.g. batch statistics in
    /// [`crate::BatchNorm2d`]); evaluation passes `false`.
    ///
    /// # Errors
    ///
    /// Returns an error when the input shape is incompatible with the layer.
    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor, NnError>;

    /// Back-propagates `grad_out` (gradient w.r.t. this layer's output),
    /// accumulating parameter gradients and returning the gradient w.r.t.
    /// the layer's input.
    ///
    /// One training-mode [`forward`](Layer::forward) serves one backward:
    /// a layer may give up its cache there ([`crate::Conv2d`] returns its
    /// leased patch matrix), so a second backward after the same forward
    /// can fail with [`NnError::BackwardBeforeForward`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BackwardBeforeForward`] if called without a prior
    /// training-mode [`forward`](Layer::forward) whose cache is still held,
    /// or a shape error when `grad_out` does not match the cached output
    /// shape.
    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError>;

    /// [`backward`](Layer::backward) for a caller with no use for the
    /// input gradient — a network's first layer, whose input is data.
    /// Parameter gradients accumulate exactly as in `backward`; layers
    /// whose input gradient is a separate piece of work override this
    /// to leave it out.
    ///
    /// # Errors
    ///
    /// As [`backward`](Layer::backward).
    fn backward_params(&mut self, grad_out: &Tensor) -> Result<(), NnError> {
        self.backward(grad_out).map(drop)
    }

    /// Visits each parameter tensor in deterministic order.
    fn visit_params(&self, f: &mut dyn FnMut(&Tensor));

    /// Visits each parameter tensor mutably, in the same order as
    /// [`visit_params`](Layer::visit_params).
    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Tensor));

    /// Visits each `(parameter, gradient)` pair mutably, in the same order
    /// as [`visit_params`](Layer::visit_params). Optimizers use this.
    fn visit_params_grads_mut(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor));

    /// Resets all accumulated gradients to zero.
    fn zero_grads(&mut self);

    /// A short human-readable layer name for diagnostics.
    fn name(&self) -> &'static str;

    /// Total number of scalar parameters in this layer.
    fn param_count(&self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.len());
        n
    }
}

/// Reshapes an NCHW activation batch to `(N, C·H·W)` for a dense head.
///
/// The layer is parameter-free; backward restores the cached input shape.
#[derive(Debug, Default)]
pub struct Flatten {
    cached_dims: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten::default()
    }
}

impl Layer for Flatten {
    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor, NnError> {
        let dims = input.dims();
        if dims.is_empty() {
            return Err(NnError::BatchMismatch(
                "flatten input must have a batch axis".into(),
            ));
        }
        if train {
            self.cached_dims = Some(dims.to_vec());
        }
        let batch = dims[0];
        let rest: usize = dims[1..].iter().product();
        Ok(input.reshape(&[batch, rest])?)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let dims = self
            .cached_dims
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward("Flatten"))?;
        Ok(grad_out.reshape(dims)?)
    }

    fn visit_params(&self, _f: &mut dyn FnMut(&Tensor)) {}
    fn visit_params_mut(&mut self, _f: &mut dyn FnMut(&mut Tensor)) {}
    fn visit_params_grads_mut(&mut self, _f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {}
    fn zero_grads(&mut self) {}

    fn name(&self) -> &'static str {
        "Flatten"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatten_collapses_trailing_dims() {
        let mut f = Flatten::new();
        let x = Tensor::zeros(&[2, 3, 4, 4]);
        let y = f.forward(&x, true).unwrap();
        assert_eq!(y.dims(), &[2, 48]);
    }

    #[test]
    fn flatten_backward_restores_shape() {
        let mut f = Flatten::new();
        let x = Tensor::zeros(&[2, 3, 2, 2]);
        let y = f.forward(&x, true).unwrap();
        let gx = f.backward(&y).unwrap();
        assert_eq!(gx.dims(), x.dims());
    }

    #[test]
    fn flatten_backward_without_forward_errors() {
        let mut f = Flatten::new();
        assert!(matches!(
            f.backward(&Tensor::zeros(&[2, 4])),
            Err(NnError::BackwardBeforeForward("Flatten"))
        ));
    }

    #[test]
    fn flatten_has_no_params() {
        let f = Flatten::new();
        assert_eq!(f.param_count(), 0);
        assert_eq!(f.name(), "Flatten");
    }
}

use hadfl_tensor::Tensor;

use crate::error::NnError;

/// A differentiable network layer.
///
/// Layers own their parameters and their parameter gradients. What the
/// backward pass needs from a training forward — a patch matrix, an
/// input copy, a mask — is a buffer leased from the thread's training
/// scratch, held from that forward to its backward; replicas stepped in
/// turn on one thread share one set of these caches. The visitor-style
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
    /// [`crate::BatchNorm2d`]); evaluation passes `false`. Either way the
    /// cache of an earlier training forward is given up: a training
    /// forward holds its own in its place, an evaluation forward none.
    /// A rejected input may leave the earlier cache held.
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
    /// a caching layer gives its cache up there (a leased buffer goes
    /// back to the thread's scratch), so a second backward after the
    /// same forward fails with
    /// [`NnError::BackwardBeforeForward`], as does a backward after an
    /// evaluation-mode forward. Validity is a held lease, never a
    /// gradient against an earlier batch.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BackwardBeforeForward`] if called without a prior
    /// training-mode [`forward`](Layer::forward) whose cache is still held,
    /// or a shape error (which leaves the cache held) when `grad_out` does
    /// not match the cached output shape.
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
        self.cached_dims = train.then(|| dims.to_vec());
        let batch = dims[0];
        let rest: usize = dims[1..].iter().product();
        Ok(input.reshape(&[batch, rest])?)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let dims = self
            .cached_dims
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward("Flatten"))?;
        let gx = grad_out.reshape(dims)?;
        self.cached_dims = None;
        Ok(gx)
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

    /// Every layer that keeps a cache from a training forward, with an
    /// input and an output gradient of the shapes it takes.
    fn caching_layers() -> Vec<(Box<dyn Layer>, Tensor, Tensor)> {
        use crate::{BatchNorm2d, Conv2d, Dense, GlobalAvgPool2d, MaxPool2d, Relu};
        use hadfl_tensor::SeedStream;
        let ramp = |dims: &[usize]| {
            let n = dims.iter().product::<usize>();
            Tensor::from_vec((0..n).map(|i| i as f32 - 1.5).collect(), dims).unwrap()
        };
        let image = ramp(&[2, 1, 2, 2]);
        let conv = Conv2d::new(1, 1, 2, 2, 3, 1, 1, &mut SeedStream::new(0)).unwrap();
        vec![
            (Box::new(conv), image.clone(), ramp(&[2, 1, 2, 2])),
            (
                Box::new(BatchNorm2d::new(1).unwrap()),
                image.clone(),
                ramp(&[2, 1, 2, 2]),
            ),
            (Box::new(Relu::new()), image.clone(), ramp(&[2, 1, 2, 2])),
            (
                Box::new(Dense::new(2, 3, &mut SeedStream::new(0))),
                ramp(&[4, 2]),
                ramp(&[4, 3]),
            ),
            (
                Box::new(MaxPool2d::new(2, 2).unwrap()),
                image.clone(),
                ramp(&[2, 1, 1, 1]),
            ),
            (
                Box::new(GlobalAvgPool2d::new()),
                image.clone(),
                ramp(&[2, 1]),
            ),
            (Box::new(Flatten::new()), image, ramp(&[2, 4])),
        ]
    }

    #[test]
    fn an_eval_forward_gives_back_the_training_cache() {
        for (mut layer, x, gy) in caching_layers() {
            let name = layer.name();
            // The evaluation batch is twice the training batch.
            let mut eval_dims = x.dims().to_vec();
            eval_dims[0] *= 2;
            let eval_x = Tensor::from_vec(x.as_slice().repeat(2), &eval_dims).unwrap();
            layer.forward(&x, true).unwrap();
            layer.forward(&eval_x, false).unwrap();
            assert_eq!(
                layer.backward(&gy),
                Err(NnError::BackwardBeforeForward(name)),
                "{name}: train, eval, backward"
            );
        }
    }

    #[test]
    fn one_training_forward_serves_one_backward() {
        for (mut layer, x, gy) in caching_layers() {
            let name = layer.name();
            layer.forward(&x, true).unwrap();
            assert!(layer.backward(&gy).is_ok(), "{name}: first backward");
            assert_eq!(
                layer.backward(&gy),
                Err(NnError::BackwardBeforeForward(name)),
                "{name}: train, backward, backward"
            );
        }
    }

    #[test]
    fn flatten_has_no_params() {
        let f = Flatten::new();
        assert_eq!(f.param_count(), 0);
        assert_eq!(f.name(), "Flatten");
    }
}

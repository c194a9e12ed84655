use hadfl_tensor::Tensor;

use crate::error::NnError;
use crate::scratch::Lease;

/// A differentiable network layer.
///
/// Layers own their parameters and their parameter gradients.
/// Evaluation is [`forward`](Layer::forward), which takes `&self`.
/// Training is [`forward_train`](Layer::forward_train), which returns
/// the [`Tape`] its [`backward`](Layer::backward) consumes: what the
/// backward needs — a patch matrix, an input copy, a mask — travels
/// with the caller, not inside the layer, so replicas stepped in turn
/// on one thread share one set of leased buffers. The visitor-style
/// parameter accessors ([`visit_params`](Layer::visit_params) and
/// friends) traverse parameters in a fixed, deterministic order — the
/// same order on every device — which is what lets the
/// federated-learning crates treat a model as a flat parameter vector.
///
/// # Example
///
/// ```
/// use hadfl_nn::{Layer, Relu};
/// use hadfl_tensor::Tensor;
///
/// # fn main() -> Result<(), hadfl_nn::NnError> {
/// let mut relu = Relu::new();
/// let x = Tensor::from_vec(vec![-1.0, 2.0], &[1, 2])?;
/// assert_eq!(relu.forward(&x)?.as_slice(), &[0.0, 2.0]);
/// let (y, tape) = relu.forward_train(&x)?;
/// let gx = relu.backward(tape, &Tensor::ones(y.dims()))?;
/// assert_eq!(gx.as_slice(), &[0.0, 1.0]);
/// # Ok(())
/// # }
/// ```
pub trait Layer: Send {
    /// Computes the layer output for an evaluation batch
    /// ([`crate::BatchNorm2d`] normalises with its running statistics).
    ///
    /// # Errors
    ///
    /// Returns an error when the input shape is incompatible with the layer.
    fn forward(&self, input: &Tensor) -> Result<Tensor, NnError>;

    /// Computes the layer output for a training batch, and the [`Tape`]
    /// its [`backward`](Layer::backward) takes. It needs `&mut self` for
    /// [`crate::BatchNorm2d`] alone, which normalises with the batch
    /// statistics and folds them into its running ones.
    ///
    /// # Errors
    ///
    /// Returns an error when the input shape is incompatible with the
    /// layer; whatever the forward had leased goes back at once.
    fn forward_train(&mut self, input: &Tensor) -> Result<(Tensor, Tape), NnError>;

    /// Back-propagates `grad_out` (gradient w.r.t. the output of the
    /// training forward that made `tape`), accumulating parameter
    /// gradients and returning the gradient w.r.t. that forward's input.
    /// The tape's leases are back in the thread's scratch when it
    /// returns.
    ///
    /// # Errors
    ///
    /// Returns a shape error when `grad_out` does not match the tape, and
    /// [`NnError::InvalidConfig`] when another layer made the tape.
    fn backward(&mut self, tape: Tape, grad_out: &Tensor) -> Result<Tensor, NnError>;

    /// [`backward`](Layer::backward) for a caller with no use for the
    /// input gradient — a network's first layer, whose input is data.
    /// Parameter gradients accumulate exactly as in `backward`; layers
    /// whose input gradient is a separate piece of work override this
    /// to leave it out.
    ///
    /// # Errors
    ///
    /// As [`backward`](Layer::backward).
    fn backward_params(&mut self, tape: Tape, grad_out: &Tensor) -> Result<(), NnError> {
        self.backward(tape, grad_out).map(drop)
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

/// What a training forward leaves for its backward.
///
/// A tape holds the buffers a layer leased from the thread's training
/// scratch — `Conv2d`'s patch matrix, `Dense`'s input copy,
/// `BatchNorm2d`'s normalised activations, `Relu`'s mask, `MaxPool2d`'s
/// argmax offsets — and the batch's dims (and `BatchNorm2d`'s `1/σ`).
/// A [`crate::Sequential`]'s tape is its layers' tapes, and a
/// [`crate::Residual`]'s is its body's. [`Layer::forward_train`] makes a
/// tape and [`Layer::backward`] consumes it: each leased buffer goes
/// back to the thread's spares as the backward of the layer that took
/// it returns, and a tape dropped unused (a step that fails after its
/// forward, say on a loss that is not finite) gives its leases back at
/// once.
///
/// A tape is not `Clone`, and a backward takes it by value, so one
/// training forward serves exactly one backward:
///
/// ```
/// use hadfl_nn::{Layer, Relu};
/// use hadfl_tensor::Tensor;
///
/// # fn main() -> Result<(), hadfl_nn::NnError> {
/// let mut relu = Relu::new();
/// let (y, tape) = relu.forward_train(&Tensor::ones(&[1, 2]))?;
/// relu.backward(tape, &y)?;
/// # Ok(())
/// # }
/// ```
///
/// so a second backward on the same tape does not compile (`E0382`, use
/// of a moved value):
///
/// ```compile_fail,E0382
/// use hadfl_nn::{Layer, Relu};
/// use hadfl_tensor::Tensor;
///
/// # fn main() -> Result<(), hadfl_nn::NnError> {
/// let mut relu = Relu::new();
/// let (y, tape) = relu.forward_train(&Tensor::ones(&[1, 2]))?;
/// relu.backward(tape, &y)?;
/// relu.backward(tape, &y)?;
/// # Ok(())
/// # }
/// ```
///
/// A network's tape is one value too:
///
/// ```
/// use hadfl_nn::{Dense, Layer, Relu, Sequential};
/// use hadfl_tensor::{SeedStream, Tensor};
///
/// # fn main() -> Result<(), hadfl_nn::NnError> {
/// let mut net = Sequential::new();
/// net.push(Dense::new(2, 2, &mut SeedStream::new(0)));
/// net.push(Relu::new());
/// let (y, tape) = net.forward_train(&Tensor::ones(&[1, 2]))?;
/// net.backward(tape, &y)?;
/// # Ok(())
/// # }
/// ```
///
/// and cannot be copied for a second backward (`E0599`, no `clone`
/// method):
///
/// ```compile_fail,E0599
/// use hadfl_nn::{Dense, Layer, Relu, Sequential};
/// use hadfl_tensor::{SeedStream, Tensor};
///
/// # fn main() -> Result<(), hadfl_nn::NnError> {
/// let mut net = Sequential::new();
/// net.push(Dense::new(2, 2, &mut SeedStream::new(0)));
/// net.push(Relu::new());
/// let (y, tape) = net.forward_train(&Tensor::ones(&[1, 2]))?;
/// net.backward(tape.clone(), &y)?;
/// # Ok(())
/// # }
/// ```
///
/// A layer with nothing to keep — one outside this crate, say —
/// returns `Tape::default()`.
#[derive(Debug, Default)]
pub struct Tape(pub(crate) Kept);

/// What one layer's tape holds.
#[derive(Debug, Default)]
pub(crate) enum Kept {
    /// Nothing: a layer with no cache, or an evaluation pass.
    #[default]
    Nothing,
    /// `Flatten`'s input dims.
    Dims(Vec<usize>),
    /// `GlobalAvgPool2d`'s input dims.
    Planes([usize; 4]),
    /// `Conv2d`'s patch matrix.
    Patches(Lease<Tensor>),
    /// `Dense`'s input.
    Input(Lease<Tensor>),
    /// `BatchNorm2d`'s normalised activations (`xhat`), per-channel
    /// `1/σ` and input dims.
    Norm(Lease<Vec<f32>>, Vec<f32>, [usize; 4]),
    /// `Relu`'s `input > 0` per element.
    Mask(Lease<Vec<bool>>),
    /// `MaxPool2d`'s argmax offsets and input dims.
    Argmax(Lease<Vec<usize>>, [usize; 4]),
    /// A `Sequential`'s layers' tapes, in layer order.
    Chain(Vec<Tape>),
}

impl Tape {
    /// The normalised activations a [`crate::BatchNorm2d`] training
    /// forward kept, in the input's layout; `None` on any other layer's
    /// tape.
    pub fn xhat(&self) -> Option<&[f32]> {
        match &self.0 {
            Kept::Norm(xhat, ..) => Some(xhat),
            _ => None,
        }
    }
}

/// The error a backward returns for a tape another layer made.
pub(crate) fn foreign_tape(layer: &str) -> NnError {
    NnError::InvalidConfig(format!("{layer} backward got another layer's tape"))
}

/// Reshapes an NCHW activation batch to `(N, C·H·W)` for a dense head.
///
/// The layer is parameter-free; backward restores the input shape the
/// tape kept.
#[derive(Debug, Default)]
pub struct Flatten;

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten
    }
}

impl Layer for Flatten {
    fn forward(&self, input: &Tensor) -> Result<Tensor, NnError> {
        let dims = input.dims();
        if dims.is_empty() {
            return Err(NnError::BatchMismatch(
                "flatten input must have a batch axis".into(),
            ));
        }
        let rest: usize = dims[1..].iter().product();
        Ok(input.reshape(&[dims[0], rest])?)
    }

    fn forward_train(&mut self, input: &Tensor) -> Result<(Tensor, Tape), NnError> {
        let out = self.forward(input)?;
        Ok((out, Tape(Kept::Dims(input.dims().to_vec()))))
    }

    fn backward(&mut self, tape: Tape, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let Kept::Dims(dims) = tape.0 else {
            return Err(foreign_tape("Flatten"));
        };
        Ok(grad_out.reshape(&dims)?)
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
        let f = Flatten::new();
        let y = f.forward(&Tensor::zeros(&[2, 3, 4, 4])).unwrap();
        assert_eq!(y.dims(), &[2, 48]);
    }

    #[test]
    fn flatten_backward_restores_shape() {
        let mut f = Flatten::new();
        let x = Tensor::zeros(&[2, 3, 2, 2]);
        let (y, tape) = f.forward_train(&x).unwrap();
        let gx = f.backward(tape, &y).unwrap();
        assert_eq!(gx.dims(), x.dims());
    }

    /// Every layer that keeps something from a training forward, with
    /// an input and an output gradient of the shapes it takes.
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
    fn a_backward_refuses_another_layers_tape() {
        for (mut layer, x, gy) in caching_layers() {
            let name = layer.name();
            let err = layer.backward(Tape::default(), &gy).unwrap_err();
            assert_eq!(err, foreign_tape(name), "{name}: an empty tape");
            let (_, own) = layer.forward_train(&x).unwrap();
            assert!(layer.backward(own, &gy).is_ok(), "{name}: its own tape");
        }
    }

    #[test]
    fn a_tape_can_move_to_another_thread() {
        fn assert_send<T: Send>() {}
        assert_send::<Tape>();
    }

    #[test]
    fn flatten_has_no_params() {
        let f = Flatten::new();
        assert_eq!(f.param_count(), 0);
        assert_eq!(f.name(), "Flatten");
    }
}

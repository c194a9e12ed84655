use hadfl_tensor::{Tensor, TensorError};

use crate::error::NnError;
use crate::layer::Layer;

/// Stochastic gradient descent with classical momentum at a constant
/// learning rate.
///
/// The paper trains the *mutual-negotiation* warm-up phase with a small
/// learning rate and the main phase at `0.01`: each phase gets its own
/// optimizer.
///
/// Velocity buffers are allocated lazily on the first [`step`](Sgd::step)
/// and keyed by traversal order, which is deterministic (see
/// [`Layer::visit_params_grads_mut`]).
///
/// # Example
///
/// ```
/// use hadfl_nn::{Dense, Layer, Sgd};
/// use hadfl_tensor::{SeedStream, Tensor};
///
/// # fn main() -> Result<(), hadfl_nn::NnError> {
/// let mut layer = Dense::new(2, 1, &mut SeedStream::new(0));
/// let mut opt = Sgd::new(0.1, 0.9);
/// let (_, tape) = layer.forward_train(&Tensor::ones(&[1, 2]))?;
/// layer.backward(tape, &Tensor::ones(&[1, 1]))?;
/// opt.step(&mut layer)?;
/// assert_eq!(opt.steps_taken(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<Tensor>,
    step: u64,
}

impl Sgd {
    /// Creates an optimizer with learning rate `lr` and momentum
    /// (`momentum = 0.0` disables the velocity term).
    pub fn new(lr: f32, momentum: f32) -> Self {
        Sgd {
            lr,
            momentum,
            velocity: Vec::new(),
            step: 0,
        }
    }

    /// Number of steps applied so far.
    pub fn steps_taken(&self) -> u64 {
        self.step
    }

    /// Applies one update to every parameter of `layer` from its
    /// accumulated gradients, then zeroes the gradients.
    ///
    /// Each parameter tensor is walked once: per element
    /// `v = v·μ + g; p = p + (−lr)·v; g = 0` (with `μ = 0` the velocity
    /// is left alone and `g` takes the place of `v`), every product and
    /// sum rounded on its own.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NonFinite`] if any updated parameter is NaN or
    /// infinite (an exploding-loss guard; that tensor's gradient is
    /// already zeroed, later tensors are untouched), or a tensor error
    /// if the model's parameter structure changed between steps.
    pub fn step<L: Layer + ?Sized>(&mut self, layer: &mut L) -> Result<(), NnError> {
        let _prof = hadfl_prof::scope("sgd_step");
        let neg_lr = -self.lr;
        let momentum = self.momentum;
        let first = self.velocity.is_empty();
        let velocity = &mut self.velocity;
        let mut idx = 0;
        let mut failure: Option<NnError> = None;
        layer.visit_params_grads_mut(&mut |p, g| {
            if failure.is_some() {
                return;
            }
            if first {
                velocity.push(Tensor::zeros(p.dims()));
            }
            let result = match velocity.get_mut(idx) {
                Some(v) => update_tensor(p, v, g, neg_lr, momentum),
                None => Err(NnError::InvalidConfig(
                    "parameter count grew between optimizer steps".into(),
                )),
            };
            failure = result.err();
            idx += 1;
        });
        if let Some(e) = failure {
            return Err(e);
        }
        self.step += 1;
        Ok(())
    }
}

/// The shape check the tensor crate's in-place operations make, under
/// the operation name they would have reported.
fn same_shape(op: &'static str, lhs: &Tensor, rhs: &Tensor) -> Result<(), TensorError> {
    if lhs.dims() != rhs.dims() {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: lhs.dims().to_vec(),
            rhs: rhs.dims().to_vec(),
        });
    }
    Ok(())
}

/// One tensor's update. Small tensors — most of a CNN's are a few dozen
/// floats — run [`update_slice`] on the spot; one above the parallel
/// cutoff is cut at the workspace's fixed [`hadfl_par::F32_CHUNK`]
/// boundaries and dispatched once.
fn update_tensor(
    p: &mut Tensor,
    v: &mut Tensor,
    g: &mut Tensor,
    neg_lr: f32,
    momentum: f32,
) -> Result<(), NnError> {
    if momentum != 0.0 {
        same_shape("add_assign", v, g)?;
        same_shape("axpy", p, v)?;
    } else {
        same_shape("axpy", p, g)?;
    }
    let plan = hadfl_par::plan(p.len() as u64);
    let (p, g) = (p.as_mut_slice(), g.as_mut_slice());
    // Without momentum the velocity is not read: an empty slice stands
    // in, so a stale shape there cannot truncate the zips below.
    let v = if momentum != 0.0 {
        v.as_mut_slice()
    } else {
        Default::default()
    };
    let finite = if plan.is_serial() {
        update_slice(p, v, g, neg_lr, momentum)
    } else {
        let mut vs = v.chunks_mut(hadfl_par::F32_CHUNK);
        let mut parts: Vec<_> = p
            .chunks_mut(hadfl_par::F32_CHUNK)
            .zip(g.chunks_mut(hadfl_par::F32_CHUNK))
            .map(|(p, g)| (p, vs.next().unwrap_or_default(), g, true))
            .collect();
        plan.chunks_mut(&mut parts, 1, |_, part| {
            let (p, v, g, finite) = &mut part[0];
            *finite = update_slice(p, v, g, neg_lr, momentum);
        });
        parts.iter().all(|part| part.3)
    };
    if finite {
        Ok(())
    } else {
        Err(NnError::NonFinite("sgd parameter update"))
    }
}

/// The fused elementwise kernel; returns whether every updated
/// parameter is finite. `v` is ignored when `momentum` is zero.
fn update_slice(p: &mut [f32], v: &mut [f32], g: &mut [f32], neg_lr: f32, momentum: f32) -> bool {
    let mut finite = true;
    if momentum != 0.0 {
        for ((p, v), g) in p.iter_mut().zip(v).zip(g) {
            *v = *v * momentum + *g;
            *p += neg_lr * *v;
            finite &= p.is_finite();
            *g = 0.0;
        }
    } else {
        for (p, g) in p.iter_mut().zip(g) {
            *p += neg_lr * *g;
            finite &= p.is_finite();
            *g = 0.0;
        }
    }
    finite
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Dense;
    use hadfl_tensor::SeedStream;

    fn unit_dense() -> Dense {
        let mut d = Dense::new(1, 1, &mut SeedStream::new(0));
        d.visit_params_mut(&mut |p| p.as_mut_slice().fill(1.0));
        d
    }

    fn run_step(d: &mut Dense, opt: &mut Sgd) {
        let (_, tape) = d.forward_train(&Tensor::ones(&[1, 1])).unwrap();
        d.backward(tape, &Tensor::ones(&[1, 1])).unwrap();
        opt.step(d).unwrap();
    }

    #[test]
    fn plain_sgd_moves_against_gradient() {
        let mut d = unit_dense();
        let mut opt = Sgd::new(0.5, 0.0);
        run_step(&mut d, &mut opt);
        // w grad = x*gy = 1, b grad = 1 ⇒ both become 0.5
        let mut params = Vec::new();
        d.visit_params(&mut |p| params.push(p.as_slice()[0]));
        assert_eq!(params, vec![0.5, 0.5]);
    }

    #[test]
    fn momentum_accelerates_repeated_gradients() {
        let mut plain = unit_dense();
        let mut with_mom = unit_dense();
        let mut o1 = Sgd::new(0.1, 0.0);
        let mut o2 = Sgd::new(0.1, 0.9);
        for _ in 0..3 {
            run_step(&mut plain, &mut o1);
            run_step(&mut with_mom, &mut o2);
        }
        let (mut wp, mut wm) = (0.0, 0.0);
        plain.visit_params(&mut |p| wp += p.as_slice()[0]);
        with_mom.visit_params(&mut |p| wm += p.as_slice()[0]);
        assert!(wm < wp, "momentum should have moved further: {wm} vs {wp}");
    }

    #[test]
    fn step_zeroes_gradients() {
        let mut d = unit_dense();
        let mut opt = Sgd::new(0.1, 0.0);
        run_step(&mut d, &mut opt);
        let mut gnorm = 0.0;
        d.visit_params_grads_mut(&mut |_, g| gnorm += g.norm_l2());
        assert_eq!(gnorm, 0.0);
    }

    #[test]
    fn non_finite_update_is_reported() {
        let mut d = unit_dense();
        // Poison the gradient with an inf by a giant forward value.
        let (_, tape) = d.forward_train(&Tensor::full(&[1, 1], f32::MAX)).unwrap();
        d.backward(tape, &Tensor::full(&[1, 1], f32::MAX)).unwrap();
        let mut opt = Sgd::new(1.0, 0.0);
        assert!(matches!(opt.step(&mut d), Err(NnError::NonFinite(_))));
    }
}

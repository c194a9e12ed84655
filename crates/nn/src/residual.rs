use hadfl_tensor::Tensor;

use crate::error::NnError;
use crate::layer::{Layer, Tape};
use crate::sequential::Sequential;

/// A residual (skip) connection: `y = body(x) + x`.
///
/// The body must preserve the input shape. Backward sends the output
/// gradient both through the body and directly along the skip path — the
/// structural ingredient that lets `resnet18_lite` stand in for ResNet-18
/// (see DESIGN.md §2). A training forward's tape is the body's.
///
/// # Example
///
/// ```
/// use hadfl_nn::{Layer, Residual, Sequential};
/// use hadfl_tensor::Tensor;
///
/// # fn main() -> Result<(), hadfl_nn::NnError> {
/// // An empty body makes the residual compute y = x + x.
/// let mut res = Residual::new(Sequential::new());
/// let (y, tape) = res.forward_train(&Tensor::ones(&[1, 2]))?;
/// assert_eq!(y.as_slice(), &[2.0, 2.0]);
/// // ... and the gradient comes back along both paths.
/// assert_eq!(res.backward(tape, &y)?.as_slice(), &[4.0, 4.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Residual {
    body: Sequential,
}

impl Residual {
    /// Wraps a body in a skip connection.
    pub fn new(body: Sequential) -> Self {
        Residual { body }
    }
}

/// `branch + input`, once the body has kept the shape.
fn skip(branch: Tensor, input: &Tensor) -> Result<Tensor, NnError> {
    if branch.dims() != input.dims() {
        return Err(NnError::InvalidConfig(format!(
            "residual body changed shape: {:?} -> {:?}",
            input.dims(),
            branch.dims()
        )));
    }
    Ok(branch.add(input)?)
}

impl Layer for Residual {
    fn forward(&self, input: &Tensor) -> Result<Tensor, NnError> {
        skip(self.body.forward(input)?, input)
    }

    fn forward_train(&mut self, input: &Tensor) -> Result<(Tensor, Tape), NnError> {
        let (branch, tape) = self.body.forward_train(input)?;
        Ok((skip(branch, input)?, tape))
    }

    fn backward(&mut self, tape: Tape, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let through_body = self.body.backward(tape, grad_out)?;
        Ok(through_body.add(grad_out)?)
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Tensor)) {
        self.body.visit_params(f);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        self.body.visit_params_mut(f);
    }

    fn visit_params_grads_mut(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        self.body.visit_params_grads_mut(f);
    }

    fn zero_grads(&mut self) {
        self.body.zero_grads();
    }

    fn name(&self) -> &'static str {
        "Residual"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Dense;
    use hadfl_tensor::SeedStream;

    #[test]
    fn empty_body_doubles_input() {
        let r = Residual::new(Sequential::new());
        let x = Tensor::from_vec(vec![1.0, -2.0], &[1, 2]).unwrap();
        assert_eq!(r.forward(&x).unwrap().as_slice(), &[2.0, -4.0]);
    }

    #[test]
    fn empty_body_backward_doubles_gradient() {
        let mut r = Residual::new(Sequential::new());
        let x = Tensor::ones(&[1, 2]);
        let (_, tape) = r.forward_train(&x).unwrap();
        let g = r
            .backward(tape, &Tensor::from_vec(vec![3.0, 5.0], &[1, 2]).unwrap())
            .unwrap();
        assert_eq!(g.as_slice(), &[6.0, 10.0]);
    }

    #[test]
    fn rejects_shape_changing_body() {
        let mut rng = SeedStream::new(0);
        let mut body = Sequential::new();
        body.push(Dense::new(2, 3, &mut rng));
        let mut r = Residual::new(body);
        assert!(matches!(
            r.forward_train(&Tensor::ones(&[1, 2])),
            Err(NnError::InvalidConfig(_))
        ));
        assert!(matches!(
            r.forward(&Tensor::ones(&[1, 2])),
            Err(NnError::InvalidConfig(_))
        ));
    }

    #[test]
    fn gradient_flows_through_both_paths() {
        // Body is a square Dense; compare against a finite difference.
        let mut rng = SeedStream::new(7);
        let mut body = Sequential::new();
        body.push(Dense::new(2, 2, &mut rng));
        let mut r = Residual::new(body);
        let x = Tensor::from_vec(vec![0.3, -0.8], &[1, 2]).unwrap();
        let (_, tape) = r.forward_train(&x).unwrap();
        let gx = r.backward(tape, &Tensor::ones(&[1, 2])).unwrap();

        let eps = 1e-3;
        for i in 0..2 {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let yp: f32 = r.forward(&xp).unwrap().as_slice().iter().sum();
            let ym: f32 = r.forward(&xm).unwrap().as_slice().iter().sum();
            let num = (yp - ym) / (2.0 * eps);
            assert!((num - gx.as_slice()[i]).abs() < 1e-2, "x[{i}]");
        }
    }

    #[test]
    fn params_are_the_body_params() {
        let mut rng = SeedStream::new(0);
        let mut body = Sequential::new();
        body.push(Dense::new(3, 3, &mut rng));
        let r = Residual::new(body);
        assert_eq!(r.param_count(), 12);
    }
}

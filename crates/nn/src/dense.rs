use hadfl_tensor::{matmul, matmul_a_bt, matmul_at_b, Initializer, SeedStream, Tensor};

use crate::error::NnError;
use crate::layer::{foreign_tape, Kept, Layer, Tape};
use crate::scratch::lease;

/// A fully-connected layer: `y = x·W + b` with `x: (batch, in)`,
/// `W: (in, out)`, `b: (out)`.
///
/// A training forward copies its input into a buffer leased from the
/// thread's training scratch and puts it on its tape, for backward's
/// `dW`.
///
/// # Example
///
/// ```
/// use hadfl_nn::{Dense, Layer};
/// use hadfl_tensor::{SeedStream, Tensor};
///
/// # fn main() -> Result<(), hadfl_nn::NnError> {
/// let mut layer = Dense::new(4, 2, &mut SeedStream::new(0));
/// let (y, tape) = layer.forward_train(&Tensor::ones(&[3, 4]))?;
/// assert_eq!(y.dims(), &[3, 2]);
/// let gx = layer.backward(tape, &Tensor::ones(&[3, 2]))?;
/// assert_eq!(gx.dims(), &[3, 4]);
/// assert_eq!(layer.param_count(), 4 * 2 + 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Dense {
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
}

impl Dense {
    /// Creates a dense layer with Xavier-uniform weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut SeedStream) -> Self {
        let weight = Initializer::XavierUniform {
            fan_in: in_features,
            fan_out: out_features,
        }
        .init(&[in_features, out_features], rng);
        Dense {
            weight,
            bias: Tensor::zeros(&[out_features]),
            grad_weight: Tensor::zeros(&[in_features, out_features]),
            grad_bias: Tensor::zeros(&[out_features]),
        }
    }

    fn affine(&self, input: &Tensor) -> Result<Tensor, NnError> {
        let mut out = matmul(input, &self.weight)?;
        let (batch, width) = (out.dims()[0], out.dims()[1]);
        let bias = self.bias.as_slice();
        // Row-parallel bias add: each output row is a disjoint chunk and
        // the per-element operation is a single addition, so the result
        // is bit-identical at any thread count.
        let work = (batch as u64) * (width as u64);
        hadfl_par::plan(work).chunks_mut(out.as_mut_slice(), width.max(1), |_, row| {
            for (v, &b) in row.iter_mut().zip(bias) {
                *v += b;
            }
        });
        Ok(out)
    }
}

impl Layer for Dense {
    fn forward(&self, input: &Tensor) -> Result<Tensor, NnError> {
        let _prof = hadfl_prof::scope("dense_fwd");
        self.affine(input)
    }

    fn forward_train(&mut self, input: &Tensor) -> Result<(Tensor, Tape), NnError> {
        let _prof = hadfl_prof::scope("dense_fwd");
        let out = self.affine(input)?;
        let mut copy = lease(
            |t: &Tensor| t.dims() == input.dims(),
            || Tensor::zeros(input.dims()),
        );
        copy.as_mut_slice().copy_from_slice(input.as_slice());
        Ok((out, Tape(Kept::Input(copy))))
    }

    fn backward(&mut self, tape: Tape, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let _prof = hadfl_prof::scope("dense_bwd");
        let Kept::Input(input) = tape.0 else {
            return Err(foreign_tape("Dense"));
        };
        // dW += xᵀ · dy ; db += column sums of dy ; dx = dy · Wᵀ
        let gw = matmul_at_b(&input, grad_out)?;
        self.grad_weight.add_assign_t(&gw)?;
        // Spare again before the input gradient is allocated.
        drop(input);
        let (batch, width) = (grad_out.dims()[0], grad_out.dims()[1]);
        let gov = grad_out.as_slice();
        let gb = self.grad_bias.as_mut_slice();
        for r in 0..batch {
            for c in 0..width {
                gb[c] += gov[r * width + c];
            }
        }
        Ok(matmul_a_bt(grad_out, &self.weight)?)
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Tensor)) {
        f(&self.weight);
        f(&self.bias);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn visit_params_grads_mut(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        f(&mut self.weight, &mut self.grad_weight);
        f(&mut self.bias, &mut self.grad_bias);
    }

    fn zero_grads(&mut self) {
        self.grad_weight.fill_zero();
        self.grad_bias.fill_zero();
    }

    fn name(&self) -> &'static str {
        "Dense"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer_2x2(w: &[f32], b: &[f32]) -> Dense {
        let mut d = Dense::new(2, 2, &mut SeedStream::new(0));
        d.visit_params_mut(&mut |p| {
            if p.dims() == [2, 2] {
                p.as_mut_slice().copy_from_slice(w);
            } else {
                p.as_mut_slice().copy_from_slice(b);
            }
        });
        d
    }

    #[test]
    fn forward_matches_manual_affine() {
        let d = layer_2x2(&[1.0, 2.0, 3.0, 4.0], &[10.0, 20.0]);
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]).unwrap();
        let y = d.forward(&x).unwrap();
        assert_eq!(y.as_slice(), &[14.0, 26.0]);
    }

    #[test]
    fn backward_produces_expected_gradients() {
        let mut d = layer_2x2(&[1.0, 2.0, 3.0, 4.0], &[0.0, 0.0]);
        let x = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
        let (_, tape) = d.forward_train(&x).unwrap();
        let gy = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]).unwrap();
        let gx = d.backward(tape, &gy).unwrap();
        // dx = gy · Wᵀ = [1+2, 3+4] = [3, 7]
        assert_eq!(gx.as_slice(), &[3.0, 7.0]);
        let mut grads = Vec::new();
        d.visit_params_grads_mut(&mut |_, g| grads.push(g.clone()));
        assert_eq!(grads[0].as_slice(), &[1.0, 1.0, 2.0, 2.0]); // xᵀ·gy
        assert_eq!(grads[1].as_slice(), &[1.0, 1.0]);
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut d = layer_2x2(&[1.0, 0.0, 0.0, 1.0], &[0.0, 0.0]);
        let x = Tensor::ones(&[1, 2]);
        let gy = Tensor::ones(&[1, 2]);
        for _ in 0..2 {
            let (_, tape) = d.forward_train(&x).unwrap();
            d.backward(tape, &gy).unwrap();
        }
        let mut total = 0.0;
        d.visit_params_grads_mut(&mut |_, g| total += g.as_slice().iter().sum::<f32>());
        // per pass: sum(gw) = 4, sum(gb) = 2; two passes accumulate to 12
        assert_eq!(total, 12.0);
        d.zero_grads();
        let mut total_after = 0.0;
        d.visit_params_grads_mut(&mut |_, g| total_after += g.as_slice().iter().sum::<f32>());
        assert_eq!(total_after, 0.0);
    }

    #[test]
    fn numeric_gradient_check() {
        // Finite-difference check of dW on a scalar loss L = sum(y).
        let mut rng = SeedStream::new(42);
        let mut d = Dense::new(3, 2, &mut rng);
        let x = Tensor::from_vec(vec![0.5, -1.0, 2.0, 1.5, 0.0, -0.5], &[2, 3]).unwrap();
        let (_, tape) = d.forward_train(&x).unwrap();
        let gy = Tensor::ones(&[2, 2]);
        d.backward(tape, &gy).unwrap();
        let mut analytic = Vec::new();
        d.visit_params_grads_mut(&mut |_, g| analytic.push(g.clone()));

        let eps = 1e-3;
        let mut param_idx = 0;
        let mut max_err = 0.0f32;
        for (pi, _) in [0, 1].iter().enumerate() {
            let plen = analytic[pi].len();
            for i in 0..plen {
                let bump = |delta: f32, d: &mut Dense| {
                    let mut k = 0;
                    d.visit_params_mut(&mut |p| {
                        if k == pi {
                            p.as_mut_slice()[i] += delta;
                        }
                        k += 1;
                    });
                };
                bump(eps, &mut d);
                let yp = d.forward(&x).unwrap();
                bump(-2.0 * eps, &mut d);
                let ym = d.forward(&x).unwrap();
                bump(eps, &mut d);
                let num = (yp.as_slice().iter().sum::<f32>() - ym.as_slice().iter().sum::<f32>())
                    / (2.0 * eps);
                let err = (num - analytic[pi].as_slice()[i]).abs();
                max_err = max_err.max(err);
                param_idx += 1;
            }
        }
        assert!(param_idx > 0);
        assert!(max_err < 1e-2, "finite-difference mismatch: {max_err}");
    }
}

use hadfl_tensor::Tensor;

use crate::error::NnError;
use crate::layer::{foreign_tape, Kept, Layer, Tape};
use crate::scratch::lease_vec;

/// Per-channel batch normalization over NCHW batches.
///
/// In training mode the layer normalizes with batch statistics and updates
/// exponential running statistics; in evaluation mode it uses the running
/// statistics. The learnable scale `gamma` and shift `beta` are the layer's
/// parameters — and therefore part of the flat parameter vector the
/// federated-learning schemes exchange, exactly as PyTorch's BN affine
/// parameters are in the paper's setup. The running statistics are
/// state, not parameters ([`Layer::visit_state`]): they ride in
/// [`crate::Model::state_vector`] after the parameters, as a PyTorch
/// `state_dict` holds the BN buffers. A training forward puts the
/// normalised activations (leased from the thread's training scratch)
/// and the batch's `1/σ` on its tape; [`Tape::xhat`] reads them.
///
/// # Example
///
/// ```
/// use hadfl_nn::{BatchNorm2d, Layer};
/// use hadfl_tensor::Tensor;
///
/// # fn main() -> Result<(), hadfl_nn::NnError> {
/// let mut bn = BatchNorm2d::new(3)?;
/// let (y, tape) = bn.forward_train(&Tensor::ones(&[2, 3, 4, 4]))?;
/// assert_eq!(y.dims(), &[2, 3, 4, 4]);
/// assert_eq!(tape.xhat().map(<[f32]>::len), Some(2 * 3 * 4 * 4));
/// bn.backward(tape, &Tensor::ones(y.dims()))?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct BatchNorm2d {
    channels: usize,
    eps: f32,
    momentum: f32,
    gamma: Tensor,
    beta: Tensor,
    grad_gamma: Tensor,
    grad_beta: Tensor,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
}

/// Channels whose sums advance together in [`channel_sums`].
const LANES: usize = 4;

/// How one channel's terms are associated into its sum.
#[derive(Debug, Clone, Copy)]
enum Chain {
    /// One partial per image plane, started from `f32`'s `Sum`
    /// identity; the partials are added in image order.
    PerPlane,
    /// One chain through the channel's elements in storage order.
    Running,
}

/// Per-channel sums over an `(n, c, plane)` batch of the `K` terms
/// `term(channel, a[i], b[i])` yields per element.
///
/// Each channel's additions happen in the order `chain` names, as if
/// the channel were summed alone: nothing is ever added across
/// channels. What the grouping buys is that [`LANES`] channels'
/// chains — each a string of additions waiting on the one before —
/// advance in one loop and overlap in the pipeline.
fn channel_sums<const K: usize>(
    (n, c, plane): (usize, usize, usize),
    chain: Chain,
    (a, b): (&[f32], &[f32]),
    term: impl Fn(usize, f32, f32) -> [f32; K] + Copy,
) -> Vec<[f32; K]> {
    let mut sums = Vec::with_capacity(c);
    let dims = (n, c, plane);
    let mut ch = 0;
    while ch + LANES <= c {
        sums.extend(group_sums::<LANES, K>(dims, ch, chain, (a, b), term));
        ch += LANES;
    }
    // A ragged tail takes the same code one channel at a time.
    while ch < c {
        sums.extend(group_sums::<1, K>(dims, ch, chain, (a, b), term));
        ch += 1;
    }
    sums
}

/// [`channel_sums`] for the `L` adjacent channels starting at `first`.
fn group_sums<const L: usize, const K: usize>(
    (n, c, plane): (usize, usize, usize),
    first: usize,
    chain: Chain,
    (a, b): (&[f32], &[f32]),
    term: impl Fn(usize, f32, f32) -> [f32; K],
) -> [[f32; K]; L] {
    let mut total = [[0.0f32; K]; L];
    for img in 0..n {
        // Adjacent channels of one image are adjacent planes.
        let base = (img * c + first) * plane;
        let a: [&[f32]; L] = std::array::from_fn(|l| &a[base + l * plane..][..plane]);
        let b: [&[f32]; L] = std::array::from_fn(|l| &b[base + l * plane..][..plane]);
        let mut acc = match chain {
            Chain::PerPlane => [[std::iter::empty::<f32>().sum(); K]; L],
            Chain::Running => total,
        };
        for i in 0..plane {
            for l in 0..L {
                let t = term(first + l, a[l][i], b[l][i]);
                for k in 0..K {
                    acc[l][k] += t[k];
                }
            }
        }
        match chain {
            Chain::PerPlane => {
                for l in 0..L {
                    for k in 0..K {
                        total[l][k] += acc[l][k];
                    }
                }
            }
            Chain::Running => total = acc,
        }
    }
    total
}

impl BatchNorm2d {
    /// Creates a batch-norm layer for `channels` feature maps with
    /// `eps = 1e-5` and running-stat momentum `0.1`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if `channels` is zero.
    pub fn new(channels: usize) -> Result<Self, NnError> {
        if channels == 0 {
            return Err(NnError::InvalidConfig(
                "batchnorm needs at least one channel".into(),
            ));
        }
        Ok(BatchNorm2d {
            channels,
            eps: 1e-5,
            momentum: 0.1,
            gamma: Tensor::ones(&[channels]),
            beta: Tensor::zeros(&[channels]),
            grad_gamma: Tensor::zeros(&[channels]),
            grad_beta: Tensor::zeros(&[channels]),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
        })
    }

    /// The exponential running mean per channel (what evaluation mode
    /// normalizes with).
    pub fn running_mean(&self) -> &[f32] {
        &self.running_mean
    }

    /// The exponential running variance per channel.
    pub fn running_var(&self) -> &[f32] {
        &self.running_var
    }

    fn check_input(&self, input: &Tensor) -> Result<[usize; 4], NnError> {
        match *input.dims() {
            [n, c, h, w] if c == self.channels => Ok([n, c, h, w]),
            ref dims => Err(NnError::BatchMismatch(format!(
                "batchnorm expects (N, {}, H, W), got {dims:?}",
                self.channels
            ))),
        }
    }
}

impl Layer for BatchNorm2d {
    fn forward(&self, input: &Tensor) -> Result<Tensor, NnError> {
        let _prof = hadfl_prof::scope("bn_fwd");
        let [_, c, h, w] = self.check_input(input)?;
        let (gamma, beta) = (self.gamma.as_slice(), self.beta.as_slice());
        let mut out = Vec::with_capacity(input.len());
        // `max(1)`: an empty plane means an empty input, not a panic.
        for (i, xs) in input.as_slice().chunks((h * w).max(1)).enumerate() {
            let ch = i % c;
            let istd = 1.0 / (self.running_var[ch] + self.eps).sqrt();
            let mean = self.running_mean[ch];
            out.extend(xs.iter().map(|&x| gamma[ch] * (x - mean) * istd + beta[ch]));
        }
        Ok(Tensor::from_vec(out, input.dims())?)
    }

    fn forward_train(&mut self, input: &Tensor) -> Result<(Tensor, Tape), NnError> {
        let _prof = hadfl_prof::scope("bn_fwd");
        let dims @ [n, c, h, w] = self.check_input(input)?;
        let plane = h * w;
        if n * plane < 2 {
            return Err(NnError::BatchMismatch(
                "batchnorm training needs at least 2 values per channel".into(),
            ));
        }
        let m = (n * plane) as f32;
        let src = input.as_slice();
        let (gamma, beta) = (self.gamma.as_slice(), self.beta.as_slice());
        let means: Vec<f32> =
            channel_sums((n, c, plane), Chain::PerPlane, (src, src), |_, x, _| [x])
                .iter()
                .map(|&[sum]| sum / m)
                .collect();
        let vars = channel_sums((n, c, plane), Chain::PerPlane, (src, src), |ch, x, _| {
            [(x - means[ch]).powi(2)]
        });
        let mut inv_std = Vec::with_capacity(c);
        for (ch, (&mean, &[var])) in means.iter().zip(&vars).enumerate() {
            let var = var / m;
            inv_std.push(1.0 / (var + self.eps).sqrt());
            self.running_mean[ch] =
                (1.0 - self.momentum) * self.running_mean[ch] + self.momentum * mean;
            self.running_var[ch] =
                (1.0 - self.momentum) * self.running_var[ch] + self.momentum * var;
        }
        // Normalize and apply the affine map in one pass: each `xhat` is
        // stored for `backward` and used while it is still in a register.
        // Every element is written exactly once, in storage order, so the
        // output is built by appending — no fill to overwrite.
        let mut out = Vec::with_capacity(src.len());
        let mut xhat = lease_vec(src.len());
        for (i, (xs, hs)) in src.chunks(plane).zip(xhat.chunks_mut(plane)).enumerate() {
            let ch = i % c;
            let (mean, istd) = (means[ch], inv_std[ch]);
            let (gamma, beta) = (gamma[ch], beta[ch]);
            out.extend(xs.iter().zip(hs).map(|(&x, h)| {
                *h = (x - mean) * istd;
                gamma * *h + beta
            }));
        }
        let out = Tensor::from_vec(out, &dims)?;
        Ok((out, Tape(Kept::Norm(xhat, inv_std, dims))))
    }

    fn backward(&mut self, tape: Tape, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let _prof = hadfl_prof::scope("bn_bwd");
        let Kept::Norm(xhat, inv_std, dims) = tape.0 else {
            return Err(foreign_tape("BatchNorm2d"));
        };
        if grad_out.dims() != dims {
            return Err(NnError::BatchMismatch(format!(
                "batchnorm backward got {:?}, expected {dims:?}",
                grad_out.dims()
            )));
        }
        let [n, c, h, w] = dims;
        let plane = h * w;
        let m = (n * plane) as f32;
        let gy = grad_out.as_slice();
        let gamma = self.gamma.as_slice();
        let (gg, gb) = (
            self.grad_gamma.as_mut_slice(),
            self.grad_beta.as_mut_slice(),
        );

        // Per channel: (sum_gy, sum_gy_xh), then (k, mean_gy,
        // mean_gy_xh), the three scalars of the input gradient.
        let sums = channel_sums((n, c, plane), Chain::Running, (gy, &xhat), |_, g, h| {
            [g, g * h]
        });
        let mut coeffs = Vec::with_capacity(c);
        for (ch, &[sum_gy, sum_gy_xh]) in sums.iter().enumerate() {
            gg[ch] += sum_gy_xh;
            gb[ch] += sum_gy;
            coeffs.push((gamma[ch] * inv_std[ch], sum_gy / m, sum_gy_xh / m));
        }
        let mut gx = Vec::with_capacity(gy.len());
        for (i, (gs, hs)) in gy.chunks(plane).zip(xhat.chunks(plane)).enumerate() {
            let (k, mean_gy, mean_gy_xh) = coeffs[i % c];
            gx.extend(
                gs.iter()
                    .zip(hs)
                    .map(|(&g, &h)| k * (g - mean_gy - h * mean_gy_xh)),
            );
        }
        Ok(Tensor::from_vec(gx, &dims)?)
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Tensor)) {
        f(&self.gamma);
        f(&self.beta);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    fn visit_params_grads_mut(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        f(&mut self.gamma, &mut self.grad_gamma);
        f(&mut self.beta, &mut self.grad_beta);
    }

    fn visit_state(&self, f: &mut dyn FnMut(&[f32])) {
        f(&self.running_mean);
        f(&self.running_var);
    }

    fn visit_state_mut(&mut self, f: &mut dyn FnMut(&mut [f32])) {
        f(&mut self.running_mean);
        f(&mut self.running_var);
    }

    fn zero_grads(&mut self) {
        self.grad_gamma.fill_zero();
        self.grad_beta.fill_zero();
    }

    fn name(&self) -> &'static str {
        "BatchNorm2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hadfl_tensor::SeedStream;

    #[test]
    fn training_output_is_normalized() {
        let mut bn = BatchNorm2d::new(2).unwrap();
        let mut rng = SeedStream::new(1);
        let mut x = Tensor::zeros(&[4, 2, 3, 3]);
        for v in x.as_mut_slice() {
            *v = rng.normal() * 5.0 + 3.0;
        }
        let (y, _) = bn.forward_train(&x).unwrap();
        // per-channel mean ~0, var ~1
        let plane = 9;
        for ch in 0..2 {
            let mut vals = Vec::new();
            for img in 0..4 {
                let base = (img * 2 + ch) * plane;
                vals.extend_from_slice(&y.as_slice()[base..base + plane]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 = vals.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut bn = BatchNorm2d::new(1).unwrap();
        // Run several training batches with mean 10 so the running mean moves.
        let x = Tensor::from_vec(vec![9.0, 10.0, 10.0, 11.0], &[1, 1, 2, 2]).unwrap();
        for _ in 0..50 {
            bn.forward_train(&x).unwrap();
        }
        // In eval, an input at the running mean maps near beta = 0.
        let y = bn.forward(&Tensor::full(&[1, 1, 2, 2], 10.0)).unwrap();
        for &v in y.as_slice() {
            assert!(v.abs() < 0.2, "eval output {v} should be near 0");
        }
    }

    #[test]
    fn gamma_beta_scale_and_shift() {
        let mut bn = BatchNorm2d::new(1).unwrap();
        bn.visit_params_mut(&mut |p| {
            // gamma first, beta second; distinguish by initial value
            if p.as_slice()[0] == 1.0 {
                p.as_mut_slice()[0] = 2.0;
            } else {
                p.as_mut_slice()[0] = 7.0;
            }
        });
        let x = Tensor::from_vec(vec![-1.0, 1.0], &[2, 1, 1, 1]).unwrap();
        let (y, _) = bn.forward_train(&x).unwrap();
        // xhat = [-1, 1] (unit variance), y = 2*xhat + 7
        assert!((y.as_slice()[0] - 5.0).abs() < 1e-2);
        assert!((y.as_slice()[1] - 9.0).abs() < 1e-2);
    }

    #[test]
    fn numeric_gradient_check() {
        let mut bn = BatchNorm2d::new(2).unwrap();
        let mut rng = SeedStream::new(5);
        let mut x = Tensor::zeros(&[2, 2, 2, 2]);
        for v in x.as_mut_slice() {
            *v = rng.normal();
        }
        // Loss: weighted sum so gradient is non-uniform.
        let mut wts = Tensor::zeros(&[2, 2, 2, 2]);
        for v in wts.as_mut_slice() {
            *v = rng.normal();
        }
        let (_, tape) = bn.forward_train(&x).unwrap();
        let gx = bn.backward(tape, &wts).unwrap();
        let eps = 1e-2;
        for &i in &[0usize, 3, 9, 15] {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            // Fresh layers so running stats don't drift between evals.
            let mut bn_p = BatchNorm2d::new(2).unwrap();
            let mut bn_m = BatchNorm2d::new(2).unwrap();
            let yp = bn_p.forward_train(&xp).unwrap().0.dot(&wts).unwrap();
            let ym = bn_m.forward_train(&xm).unwrap().0.dot(&wts).unwrap();
            let num = (yp - ym) / (2.0 * eps);
            let ana = gx.as_slice()[i];
            assert!(
                (num - ana).abs() < 0.05 * ana.abs().max(1.0),
                "x[{i}]: {num} vs {ana}"
            );
        }
    }

    #[test]
    fn rejects_wrong_channel_count() {
        let mut bn = BatchNorm2d::new(3).unwrap();
        assert!(bn.forward_train(&Tensor::zeros(&[1, 2, 2, 2])).is_err());
        assert!(bn.forward(&Tensor::zeros(&[1, 2, 2, 2])).is_err());
    }

    #[test]
    fn rejects_degenerate_batch_in_train() {
        let mut bn = BatchNorm2d::new(1).unwrap();
        assert!(bn.forward_train(&Tensor::zeros(&[1, 1, 1, 1])).is_err());
        // but eval mode is fine
        assert!(bn.forward(&Tensor::zeros(&[1, 1, 1, 1])).is_ok());
    }

    #[test]
    fn param_count_is_two_per_channel() {
        assert_eq!(BatchNorm2d::new(4).unwrap().param_count(), 8);
    }
}

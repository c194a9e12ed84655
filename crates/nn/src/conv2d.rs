use hadfl_tensor::{
    conv_backward_input, conv_backward_weight, conv_forward, im2col_into, Conv2dGeometry,
    Initializer, SeedStream, Tensor,
};

use crate::error::NnError;
use crate::layer::{foreign_tape, Kept, Layer, Tape};
use crate::scratch::{lease, Lease};

/// A 2-D convolution over NCHW batches, lowered to a matrix product via
/// [`im2col_into`].
///
/// The filter bank is stored as a `(out_channels, C·kh·kw)` matrix; forward
/// computes `patches · Wᵀ + b` straight into `(N, out_channels, out_h,
/// out_w)`. The patch matrix is leased from the thread's training
/// scratch: an evaluation forward returns it at once, a training forward
/// puts it on its tape, and backward returns it once it has used it for
/// `dW`. Once warm, a training step allocates nothing of that size, and
/// replicas stepped in turn on one thread share one set of patch buffers.
///
/// # Example
///
/// ```
/// use hadfl_nn::{Conv2d, Layer};
/// use hadfl_tensor::{SeedStream, Tensor};
///
/// # fn main() -> Result<(), hadfl_nn::NnError> {
/// let mut conv = Conv2d::new(3, 8, 4, 4, 3, 1, 1, &mut SeedStream::new(0))?;
/// let (y, tape) = conv.forward_train(&Tensor::zeros(&[2, 3, 4, 4]))?;
/// assert_eq!(y.dims(), &[2, 8, 4, 4]);
/// conv.backward(tape, &Tensor::ones(y.dims()))?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Conv2d {
    geom: Conv2dGeometry,
    out_channels: usize,
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
}

impl Conv2d {
    /// Creates a convolution layer with He-normal weights and zero bias.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Tensor`] if the geometry is invalid (zero
    /// extents, zero stride, or kernel larger than the padded input).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        in_h: usize,
        in_w: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut SeedStream,
    ) -> Result<Self, NnError> {
        if out_channels == 0 {
            return Err(NnError::InvalidConfig(
                "conv2d needs at least one output channel".into(),
            ));
        }
        let geom = Conv2dGeometry::new(in_channels, in_h, in_w, kernel, stride, padding)?;
        let fan_in = geom.patch_len();
        let weight = Initializer::HeNormal { fan_in }.init(&[out_channels, fan_in], rng);
        Ok(Conv2d {
            geom,
            out_channels,
            weight,
            bias: Tensor::zeros(&[out_channels]),
            grad_weight: Tensor::zeros(&[out_channels, fan_in]),
            grad_bias: Tensor::zeros(&[out_channels]),
        })
    }

    /// Leases a patch matrix and fills it from `input`.
    fn patches(&self, input: &Tensor) -> Result<Lease<Tensor>, NnError> {
        let rows = input
            .dims()
            .first()
            .map_or(0, |n| n * self.geom.patches_per_image());
        let dims = [rows, self.geom.patch_len()];
        // A miss leaves an empty tensor, which `im2col_into` sizes.
        let mut cols = lease(|t: &Tensor| t.dims() == dims, Tensor::default);
        im2col_into(input, &self.geom, &mut cols)?;
        Ok(cols)
    }

    /// Accumulates `dW` and `db` from the tape's patch matrix, which
    /// then goes back to the thread's spares.
    fn accumulate_param_grads(&mut self, tape: Tape, grad_out: &Tensor) -> Result<(), NnError> {
        let Kept::Patches(cols) = tape.0 else {
            return Err(foreign_tape("Conv2d"));
        };
        let ppi = self.geom.patches_per_image();
        let batch = cols.dims()[0] / ppi;
        let want = [batch, self.out_channels, self.geom.out_h, self.geom.out_w];
        if grad_out.dims() != want {
            return Err(NnError::BatchMismatch(format!(
                "conv backward got {:?}, expected {:?}",
                grad_out.dims(),
                want
            )));
        }
        // dW += gpᵀ · cols  : (oc, patch_len)
        conv_backward_weight(grad_out, &cols, &self.geom, &mut self.grad_weight)?;
        // Spare again before the input gradient is allocated.
        drop(cols);
        // db += per-channel sums of grad_out
        let gov = grad_out.as_slice();
        let gb = self.grad_bias.as_mut_slice();
        for img in 0..batch {
            for (c, g) in gb.iter_mut().enumerate() {
                let base = img * self.out_channels * ppi + c * ppi;
                *g += gov[base..base + ppi].iter().sum::<f32>();
            }
        }
        Ok(())
    }
}

impl Layer for Conv2d {
    fn forward(&self, input: &Tensor) -> Result<Tensor, NnError> {
        let _prof = hadfl_prof::scope("conv2d_fwd");
        let cols = self.patches(input)?;
        // (rows, patch_len) · (oc, patch_len)ᵀ + b -> NCHW
        Ok(conv_forward(&cols, &self.weight, &self.bias, &self.geom)?)
    }

    fn forward_train(&mut self, input: &Tensor) -> Result<(Tensor, Tape), NnError> {
        let _prof = hadfl_prof::scope("conv2d_fwd");
        let cols = self.patches(input)?;
        let out = conv_forward(&cols, &self.weight, &self.bias, &self.geom)?;
        Ok((out, Tape(Kept::Patches(cols))))
    }

    fn backward(&mut self, tape: Tape, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let _prof = hadfl_prof::scope("conv2d_bwd");
        self.accumulate_param_grads(tape, grad_out)?;
        // dx = im2col*(gp · W)
        Ok(conv_backward_input(grad_out, &self.weight, &self.geom)?)
    }

    fn backward_params(&mut self, tape: Tape, grad_out: &Tensor) -> Result<(), NnError> {
        let _prof = hadfl_prof::scope("conv2d_bwd");
        self.accumulate_param_grads(tape, grad_out)
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
        "Conv2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::{spare_dims as spares, SPARE_CAP};

    fn set_params(conv: &mut Conv2d, w: &[f32], b: &[f32]) {
        conv.visit_params_mut(&mut |p| {
            if p.dims().len() == 2 {
                p.as_mut_slice().copy_from_slice(w);
            } else {
                p.as_mut_slice().copy_from_slice(b);
            }
        });
    }

    #[test]
    fn identity_1x1_kernel_passes_input_through() {
        let mut rng = SeedStream::new(0);
        let mut conv = Conv2d::new(1, 1, 3, 3, 1, 1, 0, &mut rng).unwrap();
        set_params(&mut conv, &[1.0], &[0.0]);
        let x = Tensor::from_vec((0..9).map(|i| i as f32).collect(), &[1, 1, 3, 3]).unwrap();
        let y = conv.forward(&x).unwrap();
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn bias_is_added_per_channel() {
        let mut rng = SeedStream::new(0);
        let mut conv = Conv2d::new(1, 2, 2, 2, 1, 1, 0, &mut rng).unwrap();
        set_params(&mut conv, &[0.0, 0.0], &[1.0, -1.0]);
        let y = conv.forward(&Tensor::zeros(&[1, 1, 2, 2])).unwrap();
        assert_eq!(&y.as_slice()[..4], &[1.0; 4]);
        assert_eq!(&y.as_slice()[4..], &[-1.0; 4]);
    }

    #[test]
    fn box_filter_sums_neighbourhood() {
        let mut rng = SeedStream::new(0);
        let mut conv = Conv2d::new(1, 1, 3, 3, 3, 1, 1, &mut rng).unwrap();
        set_params(&mut conv, &[1.0; 9], &[0.0]);
        let x = Tensor::ones(&[1, 1, 3, 3]);
        let y = conv.forward(&x).unwrap();
        // centre pixel sees all 9 ones; corners see 4
        assert_eq!(y.at(&[0, 0, 1, 1]), 9.0);
        assert_eq!(y.at(&[0, 0, 0, 0]), 4.0);
    }

    #[test]
    fn output_dims_follow_geometry() {
        let mut rng = SeedStream::new(0);
        let conv = Conv2d::new(3, 8, 8, 8, 3, 2, 1, &mut rng).unwrap();
        let y = conv.forward(&Tensor::zeros(&[2, 3, 8, 8])).unwrap();
        assert_eq!(y.dims(), [2, 8, 4, 4]);
    }

    #[test]
    fn numeric_gradient_check_weights_and_input() {
        // Check dW and dx against central finite differences on L = sum(y).
        let mut rng = SeedStream::new(3);
        let mut conv = Conv2d::new(2, 2, 4, 4, 3, 1, 1, &mut rng).unwrap();
        let mut x = Tensor::zeros(&[1, 2, 4, 4]);
        for v in x.as_mut_slice() {
            *v = rng.normal();
        }
        let (_, tape) = conv.forward_train(&x).unwrap();
        let gy = Tensor::ones(&[1, 2, 4, 4]);
        let gx = conv.backward(tape, &gy).unwrap();
        let mut analytic_w = Tensor::default();
        conv.visit_params_grads_mut(&mut |p, g| {
            if p.dims().len() == 2 {
                analytic_w = g.clone();
            }
        });

        let eps = 1e-2;
        // weight check on a few entries
        for &i in &[0usize, 5, 17, 35] {
            let mut wplus = conv.weight.clone();
            wplus.as_mut_slice()[i] += eps;
            let mut wminus = conv.weight.clone();
            wminus.as_mut_slice()[i] -= eps;
            let orig = conv.weight.clone();
            conv.weight = wplus;
            let yp: f32 = conv.forward(&x).unwrap().as_slice().iter().sum();
            conv.weight = wminus;
            let ym: f32 = conv.forward(&x).unwrap().as_slice().iter().sum();
            conv.weight = orig;
            let num = (yp - ym) / (2.0 * eps);
            let ana = analytic_w.as_slice()[i];
            assert!(
                (num - ana).abs() < 0.05 * ana.abs().max(1.0),
                "w[{i}]: {num} vs {ana}"
            );
        }
        // input check on a few entries
        for &i in &[0usize, 7, 20, 31] {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let yp: f32 = conv.forward(&xp).unwrap().as_slice().iter().sum();
            let ym: f32 = conv.forward(&xm).unwrap().as_slice().iter().sum();
            let num = (yp - ym) / (2.0 * eps);
            let ana = gx.as_slice()[i];
            assert!(
                (num - ana).abs() < 0.05 * ana.abs().max(1.0),
                "x[{i}]: {num} vs {ana}"
            );
        }
    }

    fn grads(conv: &mut Conv2d) -> Vec<u32> {
        let mut out = Vec::new();
        conv.visit_params_grads_mut(&mut |_, g| {
            out.extend(g.as_slice().iter().map(|v| v.to_bits()))
        });
        out
    }

    #[test]
    fn backward_params_leaves_parameter_gradients_bit_identical() {
        let mut x = Tensor::zeros(&[3, 2, 5, 4]);
        let mut gy = Tensor::zeros(&[3, 4, 3, 2]);
        let mut rng = SeedStream::new(11);
        for v in x.as_mut_slice().iter_mut().chain(gy.as_mut_slice()) {
            *v = rng.normal();
        }
        let mut full = Conv2d::new(2, 4, 5, 4, 3, 2, 1, &mut SeedStream::new(5)).unwrap();
        let mut params_only = Conv2d::new(2, 4, 5, 4, 3, 2, 1, &mut SeedStream::new(5)).unwrap();
        for _ in 0..2 {
            // Twice: the second pass accumulates onto non-zero gradients.
            let (_, tape) = full.forward_train(&x).unwrap();
            full.backward(tape, &gy).unwrap();
            let (_, tape) = params_only.forward_train(&x).unwrap();
            params_only.backward_params(tape, &gy).unwrap();
        }
        assert_eq!(grads(&mut full), grads(&mut params_only));
    }

    #[test]
    fn interleaved_replicas_match_replicas_run_in_turn() {
        let mut rng = SeedStream::new(7);
        let mut input = || {
            let mut x = Tensor::zeros(&[2, 2, 5, 5]);
            x.as_mut_slice().iter_mut().for_each(|v| *v = rng.normal());
            x
        };
        let (xa, xb, gy) = (input(), input(), input());
        let replica = |seed| Conv2d::new(2, 2, 5, 5, 3, 1, 1, &mut SeedStream::new(seed)).unwrap();
        let (mut a, mut b) = (replica(1), replica(2));
        let (_, tape) = a.forward_train(&xa).unwrap();
        a.backward(tape, &gy).unwrap();
        let (_, tape) = b.forward_train(&xb).unwrap();
        b.backward(tape, &gy).unwrap();
        // Both replicas' tapes hold a lease of the same shape at once.
        let (mut a2, mut b2) = (replica(1), replica(2));
        let (_, tape_a) = a2.forward_train(&xa).unwrap();
        let (_, tape_b) = b2.forward_train(&xb).unwrap();
        b2.backward(tape_b, &gy).unwrap();
        a2.backward(tape_a, &gy).unwrap();
        assert_eq!(grads(&mut a), grads(&mut a2));
        assert_eq!(grads(&mut b), grads(&mut b2));
    }

    #[test]
    fn backward_gives_the_tapes_lease_back() {
        let mut conv = Conv2d::new(1, 1, 3, 3, 3, 1, 1, &mut SeedStream::new(0)).unwrap();
        let (_, tape) = conv.forward_train(&Tensor::ones(&[2, 1, 3, 3])).unwrap();
        assert!(spares().is_empty(), "the tape holds the lease");
        conv.backward(tape, &Tensor::zeros(&[2, 1, 3, 3])).unwrap();
        assert_eq!(spares(), [[18, 9]], "the lease went back after backward");
    }

    #[test]
    fn rejected_input_returns_its_lease() {
        let mut conv = Conv2d::new(1, 1, 3, 3, 3, 1, 1, &mut SeedStream::new(0)).unwrap();
        let x = Tensor::ones(&[2, 1, 3, 3]);
        conv.forward(&x).unwrap();
        let (_, tape) = conv.forward_train(&x).unwrap();
        assert_eq!(
            spares(),
            Vec::<Vec<usize>>::new(),
            "the training lease is on the tape"
        );
        conv.forward(&x).unwrap();
        // Wrong channel count at the same batch: the spare matrix leased
        // for it comes back, and the tape's still serves backward.
        let bad = Tensor::ones(&[2, 2, 3, 3]);
        assert!(conv.forward_train(&bad).is_err());
        assert!(conv.forward(&bad).is_err());
        assert_eq!(spares(), [[18, 9]]);
        conv.backward(tape, &Tensor::zeros(&[2, 1, 3, 3])).unwrap();
        assert_eq!(spares(), [[18, 9], [18, 9]]);
    }

    #[test]
    fn spare_list_drops_the_oldest_past_its_cap() {
        let conv = Conv2d::new(1, 1, 3, 3, 3, 1, 1, &mut SeedStream::new(0)).unwrap();
        for batch in 1..=SPARE_CAP + 2 {
            conv.forward(&Tensor::ones(&[batch, 1, 3, 3])).unwrap();
        }
        let want: Vec<Vec<usize>> = (3..=SPARE_CAP + 2).map(|n| vec![9 * n, 9]).collect();
        assert_eq!(spares(), want);
        // A shape already spare is reused, not added.
        conv.forward(&Tensor::ones(&[5, 1, 3, 3])).unwrap();
        assert_eq!(spares().len(), SPARE_CAP);
    }

    #[test]
    fn rejects_zero_output_channels() {
        let mut rng = SeedStream::new(0);
        assert!(Conv2d::new(1, 0, 3, 3, 3, 1, 1, &mut rng).is_err());
    }
}

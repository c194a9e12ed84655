use hadfl_tensor::Tensor;

use crate::error::NnError;
use crate::layer::{foreign_tape, Kept, Layer, Tape};
use crate::scratch::lease_vec;

/// The `[n, c, h, w]` of an NCHW input to `layer`.
fn nchw(input: &Tensor, layer: &str) -> Result<[usize; 4], NnError> {
    match *input.dims() {
        [n, c, h, w] => Ok([n, c, h, w]),
        ref dims => Err(NnError::BatchMismatch(format!(
            "{layer} expects NCHW input, got {dims:?}"
        ))),
    }
}

/// 2-D max pooling over NCHW batches with a square window.
///
/// Backward routes each output gradient to the argmax position of its
/// window (ties to the first scanned position). A training forward
/// leases the argmax offsets from the thread's training scratch and
/// puts them on its tape; an evaluation forward records none.
///
/// # Example
///
/// ```
/// use hadfl_nn::{Layer, MaxPool2d};
/// use hadfl_tensor::Tensor;
///
/// # fn main() -> Result<(), hadfl_nn::NnError> {
/// let mut pool = MaxPool2d::new(2, 2)?;
/// let (y, tape) = pool.forward_train(&Tensor::ones(&[1, 3, 4, 4]))?;
/// assert_eq!(y.dims(), &[1, 3, 2, 2]);
/// let gx = pool.backward(tape, &Tensor::ones(y.dims()))?;
/// assert_eq!(gx.dims(), &[1, 3, 4, 4]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MaxPool2d {
    window: usize,
    stride: usize,
}

impl MaxPool2d {
    /// Creates a max-pool layer with the given window and stride.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if window or stride is zero.
    pub fn new(window: usize, stride: usize) -> Result<Self, NnError> {
        if window == 0 || stride == 0 {
            return Err(NnError::InvalidConfig(format!(
                "maxpool window {window} and stride {stride} must be positive"
            )));
        }
        Ok(MaxPool2d { window, stride })
    }

    fn out_hw(&self, h: usize, w: usize) -> Result<(usize, usize), NnError> {
        if h < self.window || w < self.window {
            return Err(NnError::BatchMismatch(format!(
                "maxpool window {} larger than input {h}x{w}",
                self.window
            )));
        }
        Ok((
            (h - self.window) / self.stride + 1,
            (w - self.window) / self.stride + 1,
        ))
    }

    /// Pools `input`; in training, the tape keeps each output's argmax.
    fn pool(&self, input: &Tensor, train: bool) -> Result<(Tensor, Tape), NnError> {
        let in_dims @ [n, c, h, w] = nchw(input, "maxpool")?;
        let (oh, ow) = self.out_hw(h, w)?;
        let mut out = Tensor::zeros(&[n, c, oh, ow]);
        let mut argmax = train.then(|| lease_vec(n * c * oh * ow));
        let src = input.as_slice();
        let dst = out.as_mut_slice();
        let mut oidx = 0;
        for img in 0..n {
            for ch in 0..c {
                let base = (img * c + ch) * h * w;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_at = 0;
                        for ky in 0..self.window {
                            for kx in 0..self.window {
                                let off =
                                    base + (oy * self.stride + ky) * w + ox * self.stride + kx;
                                if src[off] > best {
                                    best = src[off];
                                    best_at = off;
                                }
                            }
                        }
                        dst[oidx] = best;
                        if let Some(argmax) = argmax.as_mut() {
                            argmax[oidx] = best_at;
                        }
                        oidx += 1;
                    }
                }
            }
        }
        let kept = argmax.map_or(Kept::Nothing, |argmax| Kept::Argmax(argmax, in_dims));
        Ok((out, Tape(kept)))
    }
}

impl Layer for MaxPool2d {
    fn forward(&self, input: &Tensor) -> Result<Tensor, NnError> {
        Ok(self.pool(input, false)?.0)
    }

    fn forward_train(&mut self, input: &Tensor) -> Result<(Tensor, Tape), NnError> {
        self.pool(input, true)
    }

    fn backward(&mut self, tape: Tape, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let Kept::Argmax(argmax, in_dims) = tape.0 else {
            return Err(foreign_tape("MaxPool2d"));
        };
        if grad_out.len() != argmax.len() {
            return Err(NnError::BatchMismatch(format!(
                "maxpool backward length {} does not match the tape's {}",
                grad_out.len(),
                argmax.len()
            )));
        }
        let mut gx = Tensor::zeros(&in_dims);
        let gv = gx.as_mut_slice();
        for (&src_off, &g) in argmax.iter().zip(grad_out.as_slice()) {
            gv[src_off] += g;
        }
        Ok(gx)
    }

    fn visit_params(&self, _f: &mut dyn FnMut(&Tensor)) {}
    fn visit_params_mut(&mut self, _f: &mut dyn FnMut(&mut Tensor)) {}
    fn visit_params_grads_mut(&mut self, _f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {}
    fn zero_grads(&mut self) {}

    fn name(&self) -> &'static str {
        "MaxPool2d"
    }
}

/// Global average pooling: reduces each `(H, W)` channel plane to its mean,
/// producing `(N, C)`.
///
/// Used as the head of `resnet18_lite` in place of ResNet's final pooling.
#[derive(Debug, Default)]
pub struct GlobalAvgPool2d;

impl GlobalAvgPool2d {
    /// Creates a global average-pool layer.
    pub fn new() -> Self {
        GlobalAvgPool2d
    }
}

impl Layer for GlobalAvgPool2d {
    fn forward(&self, input: &Tensor) -> Result<Tensor, NnError> {
        let [n, c, h, w] = nchw(input, "global avg pool")?;
        let plane = h * w;
        if plane == 0 {
            return Err(NnError::BatchMismatch(
                "global avg pool over empty plane".into(),
            ));
        }
        let mut out = Tensor::zeros(&[n, c]);
        let src = input.as_slice();
        let dst = out.as_mut_slice();
        for img in 0..n {
            for ch in 0..c {
                let base = (img * c + ch) * plane;
                dst[img * c + ch] = src[base..base + plane].iter().sum::<f32>() / plane as f32;
            }
        }
        Ok(out)
    }

    fn forward_train(&mut self, input: &Tensor) -> Result<(Tensor, Tape), NnError> {
        let out = self.forward(input)?;
        Ok((out, Tape(Kept::Planes(nchw(input, "global avg pool")?))))
    }

    fn backward(&mut self, tape: Tape, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let Kept::Planes(in_dims @ [n, c, h, w]) = tape.0 else {
            return Err(foreign_tape("GlobalAvgPool2d"));
        };
        if grad_out.dims() != [n, c] {
            return Err(NnError::BatchMismatch(format!(
                "global avg pool backward got {:?}, expected [{n}, {c}]",
                grad_out.dims()
            )));
        }
        let plane = h * w;
        let scale = 1.0 / plane as f32;
        let mut gx = Tensor::zeros(&in_dims);
        let gv = gx.as_mut_slice();
        for img in 0..n {
            for ch in 0..c {
                let g = grad_out.as_slice()[img * c + ch] * scale;
                let base = (img * c + ch) * plane;
                for v in &mut gv[base..base + plane] {
                    *v = g;
                }
            }
        }
        Ok(gx)
    }

    fn visit_params(&self, _f: &mut dyn FnMut(&Tensor)) {}
    fn visit_params_mut(&mut self, _f: &mut dyn FnMut(&mut Tensor)) {}
    fn visit_params_grads_mut(&mut self, _f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {}
    fn zero_grads(&mut self) {}

    fn name(&self) -> &'static str {
        "GlobalAvgPool2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_picks_window_max() {
        let p = MaxPool2d::new(2, 2).unwrap();
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0,
                16.0,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let y = p.forward(&x).unwrap();
        assert_eq!(y.as_slice(), &[6.0, 8.0, 14.0, 16.0]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let mut p = MaxPool2d::new(2, 2).unwrap();
        let x = Tensor::from_vec(vec![1.0, 9.0, 2.0, 3.0], &[1, 1, 2, 2]).unwrap();
        let (_, tape) = p.forward_train(&x).unwrap();
        let gx = p
            .backward(tape, &Tensor::from_vec(vec![7.0], &[1, 1, 1, 1]).unwrap())
            .unwrap();
        assert_eq!(gx.as_slice(), &[0.0, 7.0, 0.0, 0.0]);
    }

    #[test]
    fn maxpool_rejects_window_larger_than_input() {
        let p = MaxPool2d::new(4, 4).unwrap();
        assert!(p.forward(&Tensor::zeros(&[1, 1, 2, 2])).is_err());
    }

    #[test]
    fn maxpool_rejects_zero_window() {
        assert!(MaxPool2d::new(0, 1).is_err());
        assert!(MaxPool2d::new(2, 0).is_err());
    }

    #[test]
    fn global_avg_pool_means_planes() {
        let p = GlobalAvgPool2d::new();
        let x = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, 10.0, 10.0, 10.0, 10.0],
            &[1, 2, 2, 2],
        )
        .unwrap();
        let y = p.forward(&x).unwrap();
        assert_eq!(y.as_slice(), &[2.5, 10.0]);
    }

    #[test]
    fn global_avg_pool_backward_spreads_evenly() {
        let mut p = GlobalAvgPool2d::new();
        let (_, tape) = p.forward_train(&Tensor::zeros(&[1, 1, 2, 2])).unwrap();
        let gx = p
            .backward(tape, &Tensor::from_vec(vec![8.0], &[1, 1]).unwrap())
            .unwrap();
        assert_eq!(gx.as_slice(), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn pools_have_no_params() {
        assert_eq!(MaxPool2d::new(2, 2).unwrap().param_count(), 0);
        assert_eq!(GlobalAvgPool2d::new().param_count(), 0);
    }
}

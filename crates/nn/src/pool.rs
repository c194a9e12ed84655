use hadfl_tensor::Tensor;

use crate::error::NnError;
use crate::layer::Layer;
use crate::scratch::{lease_vec, release};

/// 2-D max pooling over NCHW batches with a square window.
///
/// Backward routes each output gradient to the argmax position of its
/// window (ties to the first scanned position). The argmax offsets are
/// leased from the thread's training scratch; a training forward holds
/// them until backward has used them.
///
/// # Example
///
/// ```
/// use hadfl_nn::{Layer, MaxPool2d};
/// use hadfl_tensor::Tensor;
///
/// # fn main() -> Result<(), hadfl_nn::NnError> {
/// let mut pool = MaxPool2d::new(2, 2)?;
/// let y = pool.forward(&Tensor::ones(&[1, 3, 4, 4]), true)?;
/// assert_eq!(y.dims(), &[1, 3, 2, 2]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MaxPool2d {
    window: usize,
    stride: usize,
    /// The argmax offsets of the latest training forward, leased until
    /// backward has used them.
    held: Option<Vec<usize>>,
    /// The input dims of the latest training forward.
    cached_in_dims: Vec<usize>,
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
        Ok(MaxPool2d {
            window,
            stride,
            held: None,
            cached_in_dims: Vec::new(),
        })
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
}

impl Layer for MaxPool2d {
    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor, NnError> {
        let dims = input.dims();
        if dims.len() != 4 {
            return Err(NnError::BatchMismatch(format!(
                "maxpool expects NCHW input, got {dims:?}"
            )));
        }
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let (oh, ow) = self.out_hw(h, w)?;
        let mut out = Tensor::zeros(&[n, c, oh, ow]);
        // An evaluation forward records no argmax.
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
        release(&mut self.held);
        self.held = argmax;
        if train {
            self.cached_in_dims = dims.to_vec();
        }
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let argmax = self
            .held
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward("MaxPool2d"))?;
        if grad_out.len() != argmax.len() {
            return Err(NnError::BatchMismatch(format!(
                "maxpool backward length {} does not match cached {}",
                grad_out.len(),
                argmax.len()
            )));
        }
        let mut gx = Tensor::zeros(&self.cached_in_dims);
        let gv = gx.as_mut_slice();
        for (&src_off, &g) in argmax.iter().zip(grad_out.as_slice()) {
            gv[src_off] += g;
        }
        release(&mut self.held);
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
pub struct GlobalAvgPool2d {
    /// The input dims of the latest training forward, until backward
    /// has used them.
    in_dims: Option<[usize; 4]>,
}

impl GlobalAvgPool2d {
    /// Creates a global average-pool layer.
    pub fn new() -> Self {
        GlobalAvgPool2d::default()
    }
}

impl Layer for GlobalAvgPool2d {
    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor, NnError> {
        let dims = input.dims();
        if dims.len() != 4 {
            return Err(NnError::BatchMismatch(format!(
                "global avg pool expects NCHW input, got {dims:?}"
            )));
        }
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
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
        self.in_dims = train.then_some([n, c, h, w]);
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let Some(in_dims @ [n, c, h, w]) = self.in_dims else {
            return Err(NnError::BackwardBeforeForward("GlobalAvgPool2d"));
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
        self.in_dims = None;
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
        let mut p = MaxPool2d::new(2, 2).unwrap();
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0,
                16.0,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let y = p.forward(&x, false).unwrap();
        assert_eq!(y.as_slice(), &[6.0, 8.0, 14.0, 16.0]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let mut p = MaxPool2d::new(2, 2).unwrap();
        let x = Tensor::from_vec(vec![1.0, 9.0, 2.0, 3.0], &[1, 1, 2, 2]).unwrap();
        p.forward(&x, true).unwrap();
        let gx = p
            .backward(&Tensor::from_vec(vec![7.0], &[1, 1, 1, 1]).unwrap())
            .unwrap();
        assert_eq!(gx.as_slice(), &[0.0, 7.0, 0.0, 0.0]);
    }

    #[test]
    fn maxpool_rejects_window_larger_than_input() {
        let mut p = MaxPool2d::new(4, 4).unwrap();
        assert!(p.forward(&Tensor::zeros(&[1, 1, 2, 2]), false).is_err());
    }

    #[test]
    fn maxpool_rejects_zero_window() {
        assert!(MaxPool2d::new(0, 1).is_err());
        assert!(MaxPool2d::new(2, 0).is_err());
    }

    #[test]
    fn global_avg_pool_means_planes() {
        let mut p = GlobalAvgPool2d::new();
        let x = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, 10.0, 10.0, 10.0, 10.0],
            &[1, 2, 2, 2],
        )
        .unwrap();
        let y = p.forward(&x, false).unwrap();
        assert_eq!(y.as_slice(), &[2.5, 10.0]);
    }

    #[test]
    fn global_avg_pool_backward_spreads_evenly() {
        let mut p = GlobalAvgPool2d::new();
        p.forward(&Tensor::zeros(&[1, 1, 2, 2]), true).unwrap();
        let gx = p
            .backward(&Tensor::from_vec(vec![8.0], &[1, 1]).unwrap())
            .unwrap();
        assert_eq!(gx.as_slice(), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn pools_have_no_params() {
        assert_eq!(MaxPool2d::new(2, 2).unwrap().param_count(), 0);
        assert_eq!(GlobalAvgPool2d::new().param_count(), 0);
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut mp = MaxPool2d::new(2, 2).unwrap();
        assert!(mp.backward(&Tensor::zeros(&[1, 1, 1, 1])).is_err());
        let mut gp = GlobalAvgPool2d::new();
        assert!(gp.backward(&Tensor::zeros(&[1, 1])).is_err());
    }
}

use hadfl_tensor::Tensor;

use crate::error::NnError;
use crate::layer::Layer;

/// An ordered chain of layers, itself a [`Layer`].
///
/// `Sequential` is the composition primitive of the model zoo: plain
/// feed-forward stacks are `Sequential`s, and residual blocks wrap a
/// `Sequential` body (see [`crate::Residual`]).
///
/// # Example
///
/// ```
/// use hadfl_nn::{Dense, Layer, Relu, Sequential};
/// use hadfl_tensor::{SeedStream, Tensor};
///
/// # fn main() -> Result<(), hadfl_nn::NnError> {
/// let mut rng = SeedStream::new(0);
/// let mut net = Sequential::new();
/// net.push(Dense::new(4, 8, &mut rng));
/// net.push(Relu::new());
/// net.push(Dense::new(8, 2, &mut rng));
/// let y = net.forward(&Tensor::ones(&[1, 4]), true)?;
/// assert_eq!(y.dims(), &[1, 2]);
/// # Ok(())
/// # }
/// ```
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sequential")
            .field(
                "layers",
                &self.layers.iter().map(|l| l.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Sequential {
    /// Creates an empty chain.
    pub fn new() -> Self {
        Sequential::default()
    }

    /// Appends a layer to the end of the chain.
    pub fn push<L: Layer + 'static>(&mut self, layer: L) {
        self.layers.push(Box::new(layer));
    }

    /// Number of layers in the chain.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Returns `true` when the chain has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Names of the layers, in order (diagnostics).
    pub fn layer_names(&self) -> Vec<&'static str> {
        self.layers.iter().map(|l| l.name()).collect()
    }
}

impl Layer for Sequential {
    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor, NnError> {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, train)?;
        }
        Ok(x)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g)?;
        }
        Ok(g)
    }

    fn backward_params(&mut self, grad_out: &Tensor) -> Result<(), NnError> {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return Ok(());
        };
        let mut g = grad_out.clone();
        for layer in rest.iter_mut().rev() {
            g = layer.backward(&g)?;
        }
        first.backward_params(&g)
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Tensor)) {
        for layer in &self.layers {
            layer.visit_params(f);
        }
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        for layer in &mut self.layers {
            layer.visit_params_mut(f);
        }
    }

    fn visit_params_grads_mut(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        for layer in &mut self.layers {
            layer.visit_params_grads_mut(f);
        }
    }

    fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }

    fn name(&self) -> &'static str {
        "Sequential"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Dense;
    use crate::layer::Flatten;
    use hadfl_tensor::SeedStream;

    #[test]
    fn empty_sequential_is_identity() {
        let mut s = Sequential::new();
        let x = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
        assert_eq!(s.forward(&x, true).unwrap(), x);
        assert_eq!(s.backward(&x).unwrap(), x);
    }

    #[test]
    fn forward_chains_layers_in_order() {
        let mut rng = SeedStream::new(0);
        let mut s = Sequential::new();
        s.push(Flatten::new());
        s.push(Dense::new(4, 3, &mut rng));
        let y = s.forward(&Tensor::ones(&[2, 1, 2, 2]), true).unwrap();
        assert_eq!(y.dims(), &[2, 3]);
        assert_eq!(s.layer_names(), vec!["Flatten", "Dense"]);
    }

    #[test]
    fn param_count_sums_over_layers() {
        let mut rng = SeedStream::new(0);
        let mut s = Sequential::new();
        s.push(Dense::new(4, 3, &mut rng)); // 15
        s.push(Dense::new(3, 2, &mut rng)); // 8
        assert_eq!(s.param_count(), 23);
    }

    #[test]
    fn zero_grads_reaches_all_layers() {
        let mut rng = SeedStream::new(0);
        let mut s = Sequential::new();
        s.push(Dense::new(2, 2, &mut rng));
        s.push(Dense::new(2, 2, &mut rng));
        let x = Tensor::ones(&[1, 2]);
        s.forward(&x, true).unwrap();
        s.backward(&Tensor::ones(&[1, 2])).unwrap();
        s.zero_grads();
        let mut total = 0.0;
        s.visit_params_grads_mut(&mut |_, g| total += g.norm_l2());
        assert_eq!(total, 0.0);
    }

    #[test]
    fn backward_params_matches_backward_on_every_parameter() {
        let build = || {
            let mut rng = SeedStream::new(3);
            let mut s = Sequential::new();
            s.push(Dense::new(4, 5, &mut rng));
            s.push(Dense::new(5, 2, &mut rng));
            s
        };
        let (mut full, mut params_only) = (build(), build());
        let x = Tensor::from_vec((0..8).map(|i| i as f32 * 0.25 - 1.0).collect(), &[2, 4]).unwrap();
        let gy = Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.25], &[2, 2]).unwrap();
        full.forward(&x, true).unwrap();
        full.backward(&gy).unwrap();
        params_only.forward(&x, true).unwrap();
        params_only.backward_params(&gy).unwrap();
        let grads = |s: &mut Sequential| {
            let mut out = Vec::new();
            s.visit_params_grads_mut(&mut |_, g| out.extend_from_slice(g.as_slice()));
            out
        };
        assert_eq!(grads(&mut full), grads(&mut params_only));
        Sequential::new().backward_params(&gy).unwrap();
    }

    #[test]
    fn visit_order_is_stable() {
        let mut rng = SeedStream::new(0);
        let mut s = Sequential::new();
        s.push(Dense::new(2, 3, &mut rng));
        s.push(Dense::new(3, 1, &mut rng));
        let mut dims_a = Vec::new();
        s.visit_params(&mut |p| dims_a.push(p.dims().to_vec()));
        let mut dims_b = Vec::new();
        s.visit_params_mut(&mut |p| dims_b.push(p.dims().to_vec()));
        assert_eq!(dims_a, dims_b);
        assert_eq!(dims_a, vec![vec![2, 3], vec![3], vec![3, 1], vec![1]]);
    }
}

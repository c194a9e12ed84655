use hadfl_tensor::Tensor;

use crate::error::NnError;
use crate::layer::{foreign_tape, Kept, Layer, Tape};

/// An ordered chain of layers, itself a [`Layer`].
///
/// `Sequential` is the composition primitive of the model zoo: plain
/// feed-forward stacks are `Sequential`s, and residual blocks wrap a
/// `Sequential` body (see [`crate::Residual`]). A training forward's
/// tape is its layers' tapes; its `Debug` form names the layers.
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
/// let (y, tape) = net.forward_train(&Tensor::ones(&[1, 4]))?;
/// assert_eq!(y.dims(), &[1, 2]);
/// let gx = net.backward(tape, &Tensor::ones(&[1, 2]))?;
/// assert_eq!(gx.dims(), &[1, 4]);
/// assert_eq!(format!("{net:?}"), r#"Sequential { layers: ["Dense", "Relu", "Dense"] }"#);
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

    /// The layers' tapes, one per layer, out of this chain's tape.
    fn tapes(&self, tape: Tape) -> Result<Vec<Tape>, NnError> {
        match tape.0 {
            Kept::Chain(tapes) if tapes.len() == self.layers.len() => Ok(tapes),
            _ => Err(foreign_tape("Sequential")),
        }
    }
}

// Each pass reads the chain's input (or output gradient) by reference
// into its first layer; only an empty chain, the identity, copies it.
impl Layer for Sequential {
    fn forward(&self, input: &Tensor) -> Result<Tensor, NnError> {
        let mut x: Option<Tensor> = None;
        for layer in &self.layers {
            x = Some(layer.forward(x.as_ref().unwrap_or(input))?);
        }
        Ok(x.unwrap_or_else(|| input.clone()))
    }

    fn forward_train(&mut self, input: &Tensor) -> Result<(Tensor, Tape), NnError> {
        let mut tapes = Vec::with_capacity(self.layers.len());
        let mut x: Option<Tensor> = None;
        for layer in &mut self.layers {
            let (y, tape) = layer.forward_train(x.as_ref().unwrap_or(input))?;
            tapes.push(tape);
            x = Some(y);
        }
        let out = x.unwrap_or_else(|| input.clone());
        Ok((out, Tape(Kept::Chain(tapes))))
    }

    fn backward(&mut self, tape: Tape, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let tapes = self.tapes(tape)?;
        let mut g: Option<Tensor> = None;
        for (layer, tape) in self.layers.iter_mut().zip(tapes).rev() {
            g = Some(layer.backward(tape, g.as_ref().unwrap_or(grad_out))?);
        }
        Ok(g.unwrap_or_else(|| grad_out.clone()))
    }

    fn backward_params(&mut self, tape: Tape, grad_out: &Tensor) -> Result<(), NnError> {
        let tapes = self.tapes(tape)?;
        let mut g: Option<Tensor> = None;
        for (i, (layer, tape)) in self.layers.iter_mut().zip(tapes).enumerate().rev() {
            let g_out = g.as_ref().unwrap_or(grad_out);
            if i == 0 {
                return layer.backward_params(tape, g_out);
            }
            g = Some(layer.backward(tape, g_out)?);
        }
        Ok(())
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
        assert_eq!(s.forward(&x).unwrap(), x);
        let (y, tape) = s.forward_train(&x).unwrap();
        assert_eq!(y, x);
        assert_eq!(s.backward(tape, &x).unwrap(), x);
    }

    #[test]
    fn forward_chains_layers_in_order() {
        let mut rng = SeedStream::new(0);
        let mut s = Sequential::new();
        s.push(Flatten::new());
        s.push(Dense::new(4, 3, &mut rng));
        let y = s.forward(&Tensor::ones(&[2, 1, 2, 2])).unwrap();
        assert_eq!(y.dims(), &[2, 3]);
        assert_eq!(
            format!("{s:?}"),
            r#"Sequential { layers: ["Flatten", "Dense"] }"#
        );
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
        let (_, tape) = s.forward_train(&x).unwrap();
        s.backward(tape, &Tensor::ones(&[1, 2])).unwrap();
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
        let (_, tape) = full.forward_train(&x).unwrap();
        full.backward(tape, &gy).unwrap();
        let (_, tape) = params_only.forward_train(&x).unwrap();
        params_only.backward_params(tape, &gy).unwrap();
        let grads = |s: &mut Sequential| {
            let mut out = Vec::new();
            s.visit_params_grads_mut(&mut |_, g| out.extend_from_slice(g.as_slice()));
            out
        };
        assert_eq!(grads(&mut full), grads(&mut params_only));
        let mut empty = Sequential::new();
        let (_, tape) = empty.forward_train(&gy).unwrap();
        empty.backward_params(tape, &gy).unwrap();
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

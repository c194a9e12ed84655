use hadfl_tensor::{argmax, Tensor};

use crate::data::Dataset;
use crate::error::NnError;
use crate::layer::Layer;
use crate::loss::softmax_cross_entropy;
use crate::optim::Sgd;
use crate::sequential::Sequential;

/// Evaluation metrics over a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Metrics {
    /// Mean cross-entropy loss.
    pub loss: f32,
    /// Fraction of correctly classified samples in `[0, 1]`.
    pub accuracy: f32,
    /// Number of samples evaluated.
    pub samples: usize,
}

/// A classification network packaged with the operations the
/// federated-learning schemes need: train steps, evaluation, and — most
/// importantly — *flat vector* access to its parameters and to its whole
/// state ([`state_vector`](Model::state_vector): the parameters and the
/// BatchNorm running statistics), the unit of communication in HADFL,
/// FedAvg, and all-reduce alike.
///
/// # Example
///
/// ```
/// use hadfl_nn::{models, SyntheticSpec};
///
/// # fn main() -> Result<(), hadfl_nn::NnError> {
/// let spec = SyntheticSpec::tiny();
/// let model = models::mlp(&spec.sample_dims(), &[16], spec.classes, 7)?;
/// let params = model.param_vector();
/// assert_eq!(params.len(), model.num_params());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Model {
    net: Sequential,
    num_classes: usize,
    arch: String,
}

impl Model {
    /// Wraps a network whose final layer emits `(batch, num_classes)`
    /// logits.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if `num_classes` is zero or the
    /// network is empty.
    pub fn new(net: Sequential, num_classes: usize, arch: &str) -> Result<Self, NnError> {
        if num_classes == 0 {
            return Err(NnError::InvalidConfig(
                "model needs at least one class".into(),
            ));
        }
        if net.is_empty() {
            return Err(NnError::InvalidConfig("model network has no layers".into()));
        }
        Ok(Model {
            net,
            num_classes,
            arch: arch.to_string(),
        })
    }

    /// Architecture name (e.g. `"resnet18_lite"`).
    pub fn arch(&self) -> &str {
        &self.arch
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Total scalar parameter count — the model size `M` in the paper's
    /// communication-volume formulas.
    pub fn num_params(&self) -> usize {
        self.net.param_count()
    }

    /// Copies all parameters into one flat vector, in deterministic
    /// traversal order.
    pub fn param_vector(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_params());
        self.net
            .visit_params(&mut |p| out.extend_from_slice(p.as_slice()));
        out
    }

    /// Overwrites all parameters from a flat vector produced by
    /// [`param_vector`](Model::param_vector) (on this or an identically
    /// shaped model).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ParamLengthMismatch`] if the length differs.
    pub fn set_param_vector(&mut self, params: &[f32]) -> Result<(), NnError> {
        if params.len() != self.num_params() {
            return Err(NnError::ParamLengthMismatch {
                expected: self.num_params(),
                actual: params.len(),
            });
        }
        let mut offset = 0;
        self.net.visit_params_mut(&mut |p| {
            let n = p.len();
            p.as_mut_slice()
                .copy_from_slice(&params[offset..offset + n]);
            offset += n;
        });
        Ok(())
    }

    /// Length of [`state_vector`](Model::state_vector): the parameters
    /// and the state beside them (two floats per BatchNorm channel).
    pub fn state_len(&self) -> usize {
        let mut n = self.num_params();
        self.net.visit_state(&mut |s| n += s.len());
        n
    }

    /// The model's whole state in one flat vector: the
    /// [`param_vector`](Model::param_vector), then every BatchNorm's
    /// running mean and variance in traversal order — what a PyTorch
    /// `state_dict` holds, and what the schemes exchange and evaluate.
    /// A model without BatchNorm has no such state, so its state vector
    /// is its parameter vector.
    pub fn state_vector(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.state_len());
        self.net
            .visit_params(&mut |p| out.extend_from_slice(p.as_slice()));
        self.net.visit_state(&mut |s| out.extend_from_slice(s));
        out
    }

    /// Overwrites the parameters and the running statistics from a flat
    /// vector produced by [`state_vector`](Model::state_vector) (on this
    /// or an identically shaped model).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ParamLengthMismatch`] if the length differs.
    pub fn set_state_vector(&mut self, state: &[f32]) -> Result<(), NnError> {
        if state.len() != self.state_len() {
            return Err(NnError::ParamLengthMismatch {
                expected: self.state_len(),
                actual: state.len(),
            });
        }
        let (params, stats) = state.split_at(self.num_params());
        self.set_param_vector(params)?;
        let mut offset = 0;
        self.net.visit_state_mut(&mut |s| {
            let n = s.len();
            s.copy_from_slice(&stats[offset..offset + n]);
            offset += n;
        });
        Ok(())
    }

    /// Runs one SGD step on a batch, returning the batch loss:
    /// [`accumulate_grads`](Model::accumulate_grads) then
    /// [`apply_step`](Model::apply_step).
    ///
    /// # Errors
    ///
    /// Those of the two steps: shape errors, a logits width other than
    /// `num_classes`, and [`NnError::NonFinite`] if the loss or the
    /// update diverges.
    pub fn train_step(
        &mut self,
        x: &Tensor,
        labels: &[usize],
        opt: &mut Sgd,
    ) -> Result<f32, NnError> {
        let _prof = hadfl_prof::scope("train_step");
        let loss = self.accumulate_grads(x, labels)?;
        self.apply_step(opt)?;
        Ok(loss)
    }

    /// Computes loss and accumulates gradients *without* applying an
    /// update — the first half of [`train_step`](Model::train_step), and
    /// what the synchronous distributed-training baseline runs on each
    /// device before it all-reduces the gradients and steps.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the forward/backward pass, returns
    /// [`NnError::InvalidConfig`] if the logits are not `(batch,
    /// num_classes)` and [`NnError::NonFinite`] if the loss is not finite
    /// (before any gradient is accumulated). On every error the training
    /// forward's tape is dropped, so its leases are back in the thread's
    /// scratch.
    pub fn accumulate_grads(&mut self, x: &Tensor, labels: &[usize]) -> Result<f32, NnError> {
        let (logits, tape) = self.net.forward_train(x)?;
        if logits.dims().len() != 2 || logits.dims()[1] != self.num_classes {
            return Err(NnError::InvalidConfig(format!(
                "network produced {:?} logits for {} classes",
                logits.dims(),
                self.num_classes
            )));
        }
        let (loss, grad) = softmax_cross_entropy(&logits, labels)?;
        if !loss.is_finite() {
            return Err(NnError::NonFinite("training loss"));
        }
        self.net.backward_params(tape, &grad)?;
        Ok(loss)
    }

    /// Copies the accumulated gradients into one flat vector (same order
    /// as [`param_vector`](Model::param_vector)).
    pub fn grad_vector(&mut self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_params());
        self.net
            .visit_params_grads_mut(&mut |_, g| out.extend_from_slice(g.as_slice()));
        out
    }

    /// Overwrites the accumulated gradients from a flat vector.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ParamLengthMismatch`] if the length differs.
    pub fn set_grad_vector(&mut self, grads: &[f32]) -> Result<(), NnError> {
        if grads.len() != self.num_params() {
            return Err(NnError::ParamLengthMismatch {
                expected: self.num_params(),
                actual: grads.len(),
            });
        }
        let mut offset = 0;
        self.net.visit_params_grads_mut(&mut |_, g| {
            let n = g.len();
            g.as_mut_slice().copy_from_slice(&grads[offset..offset + n]);
            offset += n;
        });
        Ok(())
    }

    /// Applies one optimizer step from the currently stored gradients.
    ///
    /// # Errors
    ///
    /// Propagates optimizer errors ([`NnError::NonFinite`] on divergence).
    pub fn apply_step(&mut self, opt: &mut Sgd) -> Result<(), NnError> {
        opt.step(&mut self.net)
    }

    /// Resets accumulated gradients to zero.
    pub fn zero_grads(&mut self) {
        self.net.zero_grads();
    }

    /// Predicts class indices for a batch (evaluation mode).
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the forward pass.
    pub fn predict(&self, x: &Tensor) -> Result<Vec<usize>, NnError> {
        let logits = self.net.forward(x)?;
        let (batch, classes) = (logits.dims()[0], logits.dims()[1]);
        let mut out = Vec::with_capacity(batch);
        for r in 0..batch {
            out.push(argmax(&logits.as_slice()[r * classes..(r + 1) * classes])?);
        }
        Ok(out)
    }

    /// Evaluates mean loss and accuracy over a dataset in mini-batches.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BatchMismatch`] for an empty dataset, and
    /// propagates forward-pass errors.
    pub fn evaluate(&self, ds: &Dataset, batch_size: usize) -> Result<Metrics, NnError> {
        if ds.is_empty() {
            return Err(NnError::BatchMismatch(
                "cannot evaluate on an empty dataset".into(),
            ));
        }
        let indices: Vec<usize> = (0..ds.len()).collect();
        let mut total_loss = 0.0f64;
        let mut correct = 0usize;
        for chunk in indices.chunks(batch_size.max(1)) {
            let (x, y) = ds.batch(chunk)?;
            let logits = self.net.forward(&x)?;
            let (loss, _) = softmax_cross_entropy(&logits, &y)?;
            total_loss += loss as f64 * chunk.len() as f64;
            let classes = logits.dims()[1];
            for (r, &label) in y.iter().enumerate() {
                if argmax(&logits.as_slice()[r * classes..(r + 1) * classes])? == label {
                    correct += 1;
                }
            }
        }
        Ok(Metrics {
            loss: (total_loss / ds.len() as f64) as f32,
            accuracy: correct as f32 / ds.len() as f32,
            samples: ds.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SyntheticSpec;
    use crate::loader::Loader;
    use crate::models;

    fn tiny_model(seed: u64) -> Model {
        let spec = SyntheticSpec::tiny();
        models::mlp(&spec.sample_dims(), &[16], spec.classes, seed).unwrap()
    }

    #[test]
    fn param_vector_roundtrip() {
        let mut m = tiny_model(1);
        let v = m.param_vector();
        assert_eq!(v.len(), m.num_params());
        let doubled: Vec<f32> = v.iter().map(|x| x * 2.0).collect();
        m.set_param_vector(&doubled).unwrap();
        assert_eq!(m.param_vector(), doubled);
        assert!(m.set_param_vector(&doubled[1..]).is_err());
    }

    #[test]
    fn a_fresh_model_given_a_trained_state_evaluates_to_the_same_bits() {
        let spec = SyntheticSpec::tiny();
        let ds = Dataset::synthetic_cifar(32, &spec, 3).unwrap();
        let mut trained = resnet_replica(1);
        let mut opt = Sgd::new(0.05, 0.9);
        for rows in [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]] {
            let (x, y) = ds.batch(&rows).unwrap();
            trained.train_step(&x, &y, &mut opt).unwrap();
        }
        let state = trained.state_vector();
        assert_eq!(state.len(), trained.num_params() + 336);
        assert_eq!(state[..trained.num_params()], trained.param_vector());
        let mut fresh = resnet_replica(2);
        let before = fresh.evaluate(&ds, 8).unwrap();
        fresh.set_state_vector(&state).unwrap();
        assert_eq!(fresh.state_vector(), state);
        let (want, got) = (
            trained.evaluate(&ds, 8).unwrap(),
            fresh.evaluate(&ds, 8).unwrap(),
        );
        assert_eq!(got.loss.to_bits(), want.loss.to_bits());
        assert_eq!(got.accuracy.to_bits(), want.accuracy.to_bits());
        assert_ne!(before.loss.to_bits(), want.loss.to_bits());
    }

    #[test]
    fn a_model_without_batchnorm_has_its_parameters_for_state() {
        let dims = SyntheticSpec::tiny().sample_dims();
        for m in [tiny_model(1), models::vgg16_lite(&dims, 10, 1).unwrap()] {
            assert_eq!(m.state_len(), m.num_params(), "{}", m.arch());
            assert_eq!(m.state_vector(), m.param_vector(), "{}", m.arch());
        }
    }

    #[test]
    fn a_state_of_the_wrong_length_is_refused() {
        let mut m = resnet_replica(1);
        let state = m.state_vector();
        let (expected, params) = (state.len(), m.param_vector());
        for bad in [&state[1..], &params[..]] {
            assert_eq!(
                m.set_state_vector(bad),
                Err(NnError::ParamLengthMismatch {
                    expected,
                    actual: bad.len()
                })
            );
        }
        assert_eq!(m.state_vector(), state, "a refused state changed the model");
    }

    #[test]
    fn identical_seeds_give_identical_models() {
        let a = tiny_model(5);
        let b = tiny_model(5);
        let c = tiny_model(6);
        assert_eq!(a.param_vector(), b.param_vector());
        assert_ne!(a.param_vector(), c.param_vector());
    }

    #[test]
    fn training_reduces_loss_on_small_task() {
        let spec = SyntheticSpec::tiny();
        let train = Dataset::synthetic_cifar(120, &spec, 10).unwrap();
        let mut m = tiny_model(2);
        let mut opt = Sgd::new(0.05, 0.9);
        let mut loader = Loader::new(train.len(), 20, 0);
        let before = m.evaluate(&train, 32).unwrap();
        for _ in 0..8 {
            for batch in loader.epoch() {
                let (x, y) = train.batch(&batch).unwrap();
                m.train_step(&x, &y, &mut opt).unwrap();
            }
        }
        let after = m.evaluate(&train, 32).unwrap();
        assert!(
            after.loss < before.loss * 0.8,
            "loss did not drop: {} -> {}",
            before.loss,
            after.loss
        );
        assert!(after.accuracy > before.accuracy);
    }

    #[test]
    fn accumulate_grads_rejects_logits_of_the_wrong_width() {
        // A network that emits `classes` logits, wrapped as if it had one
        // more class: the gradient half of a step must refuse it, as the
        // whole step does.
        let spec = SyntheticSpec::tiny();
        let ds = Dataset::synthetic_cifar(4, &spec, 3).unwrap();
        let (x, y) = ds.batch(&[0, 1]).unwrap();
        let mut net = Sequential::new();
        net.push(crate::layer::Flatten::new());
        let input_len: usize = spec.sample_dims().iter().product();
        let mut rng = hadfl_tensor::SeedStream::new(1);
        net.push(crate::dense::Dense::new(input_len, spec.classes, &mut rng));
        let mut m = Model::new(net, spec.classes + 1, "mismatched").unwrap();
        assert!(matches!(
            m.accumulate_grads(&x, &y),
            Err(NnError::InvalidConfig(_))
        ));
        assert!(m.grad_vector().iter().all(|&v| v == 0.0));
        let mut opt = Sgd::new(0.05, 0.9);
        assert!(matches!(
            m.train_step(&x, &y, &mut opt),
            Err(NnError::InvalidConfig(_))
        ));
    }

    #[test]
    fn grad_vector_roundtrip() {
        let spec = SyntheticSpec::tiny();
        let ds = Dataset::synthetic_cifar(8, &spec, 3).unwrap();
        let mut m = tiny_model(3);
        let (x, y) = ds.batch(&[0, 1, 2, 3]).unwrap();
        m.accumulate_grads(&x, &y).unwrap();
        let g = m.grad_vector();
        assert_eq!(g.len(), m.num_params());
        assert!(g.iter().any(|&v| v != 0.0));
        m.zero_grads();
        assert!(m.grad_vector().iter().all(|&v| v == 0.0));
        m.set_grad_vector(&g).unwrap();
        assert_eq!(m.grad_vector(), g);
    }

    #[test]
    fn predict_shapes() {
        let spec = SyntheticSpec::tiny();
        let ds = Dataset::synthetic_cifar(6, &spec, 3).unwrap();
        let m = tiny_model(4);
        let (x, _) = ds.batch(&[0, 1, 2]).unwrap();
        let preds = m.predict(&x).unwrap();
        assert_eq!(preds.len(), 3);
        assert!(preds.iter().all(|&p| p < 10));
    }

    #[test]
    fn evaluate_rejects_empty_dataset() {
        let spec = SyntheticSpec::tiny();
        let ds = Dataset::synthetic_cifar(4, &spec, 3).unwrap();
        let empty = ds.subset(&[]).unwrap();
        let m = tiny_model(4);
        assert!(m.evaluate(&empty, 4).is_err());
    }

    fn resnet_replica(seed: u64) -> Model {
        let spec = SyntheticSpec::tiny();
        models::resnet18_lite(&spec.sample_dims(), spec.classes, seed).unwrap()
    }

    /// Two batches of four from the tiny task.
    fn two_batches() -> [(Tensor, Vec<usize>); 2] {
        let ds = Dataset::synthetic_cifar(8, &SyntheticSpec::tiny(), 3).unwrap();
        [[0, 1, 2, 3], [4, 5, 6, 7]].map(|rows| ds.batch(&rows).unwrap())
    }

    fn grad_bits(m: &mut Model) -> Vec<u32> {
        m.grad_vector().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn interleaved_replicas_match_replicas_run_in_turn() {
        let [(xa, ya), (xb, yb)] = two_batches();
        let (mut a, mut b) = (resnet_replica(1), resnet_replica(2));
        a.accumulate_grads(&xa, &ya).unwrap();
        b.accumulate_grads(&xb, &yb).unwrap();
        // Forward A, forward B, backward B, backward A: both replicas'
        // tapes hold every cache at once, and B gives its leases back
        // first.
        let (mut a2, mut b2) = (resnet_replica(1), resnet_replica(2));
        let forward = |m: &mut Model, x, y| {
            let (logits, tape) = m.net.forward_train(x).unwrap();
            (tape, softmax_cross_entropy(&logits, y).unwrap().1)
        };
        let (tape_a, ga) = forward(&mut a2, &xa, &ya);
        let (tape_b, gb) = forward(&mut b2, &xb, &yb);
        b2.net.backward_params(tape_b, &gb).unwrap();
        a2.net.backward_params(tape_a, &ga).unwrap();
        assert_eq!(grad_bits(&mut a), grad_bits(&mut a2));
        assert_eq!(grad_bits(&mut b), grad_bits(&mut b2));
    }

    #[test]
    fn a_warm_thread_steps_another_replica_from_its_spares() {
        let [(xa, ya), (xb, yb)] = two_batches();
        let (mut a, mut b) = (resnet_replica(1), resnet_replica(2));
        let cold = crate::scratch::misses();
        a.accumulate_grads(&xa, &ya).unwrap();
        let warm = crate::scratch::misses();
        assert!(warm > cold, "a cold thread's step leases fresh buffers");
        b.accumulate_grads(&xb, &yb).unwrap();
        assert_eq!(
            crate::scratch::misses(),
            warm,
            "replica B's step took a cache the thread had no spare for"
        );
    }

    #[test]
    fn a_failed_step_gives_its_leases_back() {
        let [(xa, ya), (xb, yb)] = two_batches();
        resnet_replica(1).accumulate_grads(&xa, &ya).unwrap();
        // A whole training forward, then a logits width the model
        // refuses: the step fails with every lease on its tape.
        let Model { net, .. } = resnet_replica(3);
        let mut wrong = Model::new(net, SyntheticSpec::tiny().classes + 1, "mismatched").unwrap();
        assert!(matches!(
            wrong.accumulate_grads(&xa, &ya),
            Err(NnError::InvalidConfig(_))
        ));
        let warm = crate::scratch::misses();
        resnet_replica(2).accumulate_grads(&xb, &yb).unwrap();
        assert_eq!(
            crate::scratch::misses(),
            warm,
            "the failed step kept a cache the next replica's step needed"
        );
    }

    #[test]
    fn model_rejects_empty_net_or_zero_classes() {
        assert!(Model::new(Sequential::new(), 10, "x").is_err());
        let mut net = Sequential::new();
        net.push(crate::layer::Flatten::new());
        assert!(Model::new(net, 0, "x").is_err());
    }
}

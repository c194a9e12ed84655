//! Workload construction shared by HADFL and the baseline schemes: the
//! synthetic task, per-device data shards, identically initialized model
//! replicas, and the [`DeviceRuntime`] each scheme trains through.

use hadfl_nn::{models, Dataset, Loader, Metrics, Model, Sgd, ShardSpec, SyntheticSpec};
use serde::{Deserialize, Serialize};

use crate::error::HadflError;

/// Declarative description of a training workload (model + data + batch
/// geometry). `build` materializes it for a `K`-device cluster.
///
/// # Example
///
/// ```
/// use hadfl::workload::Workload;
///
/// # fn main() -> Result<(), hadfl::HadflError> {
/// let built = Workload::quick("resnet18_lite", 0).build(4)?;
/// assert_eq!(built.runtimes.len(), 4);
/// assert!(built.model_bytes > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    /// Zoo model name (`"mlp"`, `"resnet18_lite"`, `"vgg16_lite"`).
    pub model_name: String,
    /// The synthetic task specification.
    pub data_spec: SyntheticSpec,
    /// Training-set size (split across devices).
    pub train_size: usize,
    /// Held-out test-set size.
    pub test_size: usize,
    /// Per-device mini-batch size (the paper uses 256 global / 4 = 64).
    pub device_batch: usize,
    /// How data is split across devices.
    pub shard: ShardKind,
    /// Master seed for data generation, sharding, and model init.
    pub seed: u64,
}

/// Serializable mirror of [`ShardSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ShardKind {
    /// IID round-robin split.
    Iid,
    /// Dirichlet(α) label skew.
    Dirichlet {
        /// Concentration parameter.
        alpha: f32,
    },
}

impl From<ShardKind> for ShardSpec {
    fn from(kind: ShardKind) -> Self {
        match kind {
            ShardKind::Iid => ShardSpec::Iid,
            ShardKind::Dirichlet { alpha } => ShardSpec::Dirichlet { alpha },
        }
    }
}

impl Workload {
    /// A CI-scale workload: tiny images, a few hundred samples — runs in
    /// seconds, used by tests and quick benches. The sizes give each of 4
    /// devices 96 samples = 6 batches, whose per-epoch times stay nicely
    /// rational under the paper's power ratios (small hyperperiod LCMs).
    pub fn quick(model_name: &str, seed: u64) -> Self {
        Workload {
            model_name: model_name.to_string(),
            data_spec: SyntheticSpec::tiny(),
            train_size: 384,
            test_size: 192,
            device_batch: 16,
            shard: ShardKind::Iid,
            seed,
        }
    }

    /// The experiment-scale workload used by the table/figure harnesses:
    /// 16×16 synthetic CIFAR, 2048 train / 512 test, per-device batch 64
    /// (the paper's 256-global / 4-device split).
    pub fn experiment(model_name: &str, seed: u64) -> Self {
        Workload {
            model_name: model_name.to_string(),
            data_spec: SyntheticSpec::cifar_like(),
            train_size: 2048,
            test_size: 512,
            device_batch: 64,
            shard: ShardKind::Iid,
            seed,
        }
    }

    /// A freshly initialised model of this workload's architecture: the
    /// `w₀` every device starts from.
    ///
    /// # Errors
    ///
    /// Returns a configuration error for an unknown model.
    pub fn model(&self) -> Result<Model, HadflError> {
        Ok(models::by_name(
            &self.model_name,
            &self.data_spec.sample_dims(),
            self.data_spec.classes,
            self.seed,
        )?)
    }

    /// Materializes the workload for `k` devices.
    ///
    /// All device models start from identical parameters (the paper's
    /// Algorithm 1 line 1 synchronizes `w₀` first).
    ///
    /// # Errors
    ///
    /// Returns a configuration error for an unknown model, a degenerate
    /// data spec, or `k` larger than the training set.
    pub fn build(&self, k: usize) -> Result<BuiltWorkload, HadflError> {
        let train = Dataset::synthetic_cifar(self.train_size, &self.data_spec, self.seed ^ 0x7124)?;
        let test =
            Dataset::synthetic_cifar(self.test_size, &self.data_spec, self.seed ^ 0x7E57_0000)?;
        let shards = train.shard(k, self.shard.into(), self.seed ^ 0x5A)?;
        // `w₀` is one initialisation, installed in every replica; the
        // evaluator is one more model of it, which no device trains.
        let evaluator = self.model()?;
        let init = evaluator.state_vector();
        let mut runtimes = Vec::with_capacity(k);
        for (i, shard) in shards.into_iter().enumerate() {
            let mut model = self.model()?;
            model.set_state_vector(&init)?;
            runtimes.push(DeviceRuntime::new(
                model,
                shard,
                self.device_batch,
                self.seed ^ (0xD0 + i as u64),
            )?);
        }
        Ok(BuiltWorkload {
            runtimes,
            test,
            train_size: self.train_size,
            model_bytes: (init.len() * std::mem::size_of::<f32>()) as u64,
            device_batch: self.device_batch,
            evaluator,
        })
    }
}

/// A materialized workload: one [`DeviceRuntime`] per device plus the
/// shared test set.
#[derive(Debug)]
pub struct BuiltWorkload {
    /// Per-device training runtimes.
    pub runtimes: Vec<DeviceRuntime>,
    /// The held-out test set.
    pub test: Dataset,
    /// Global training-set size (for epoch-equivalent accounting).
    pub train_size: usize,
    /// Model size in bytes (`M`): the bytes of the model's state vector,
    /// the parameters and the BatchNorm running statistics the schemes
    /// exchange.
    pub model_bytes: u64,
    /// Per-device batch size.
    pub device_batch: usize,
    /// The model [`evaluate_params`](Self::evaluate_params) installs a
    /// state into; it belongs to no device.
    evaluator: Model,
}

impl BuiltWorkload {
    /// Number of devices.
    pub fn devices(&self) -> usize {
        self.runtimes.len()
    }

    /// Mini-batches per epoch on each device's shard.
    pub fn batches_per_epoch(&self) -> Vec<usize> {
        self.runtimes
            .iter()
            .map(DeviceRuntime::batches_per_epoch)
            .collect()
    }

    /// Evaluates a model state ([`Model::state_vector`]) on the test set:
    /// the one evaluation every scheme's records, the actors' close and
    /// the TCP coordinator share. The state goes into a model of the
    /// evaluation's own, never into a device's replica, so the network
    /// normalises with the statistics `state` carries. A vector of
    /// parameter length is accepted too and keeps the statistics the
    /// evaluation model last held.
    ///
    /// Evaluation runs in batches of the device batch: it then forwards
    /// the shapes training does and leases the buffers training leaves
    /// spare, where a larger batch would allocate a set of its own.
    /// Accuracy does not depend on the batch (each row's logits are
    /// computed alone).
    ///
    /// # Errors
    ///
    /// Returns [`HadflError::Nn`] for a vector of neither length, and
    /// substrate errors from the evaluation.
    pub fn evaluate_params(&mut self, state: &[f32]) -> Result<Metrics, HadflError> {
        if state.len() == self.evaluator.num_params() {
            self.evaluator.set_param_vector(state)?;
        } else {
            self.evaluator.set_state_vector(state)?;
        }
        Ok(self.evaluator.evaluate(&self.test, self.device_batch)?)
    }
}

/// One device's training state: model replica, optimizer, and a shard
/// loader that cycles epochs. Used by every scheme (HADFL and baselines).
#[derive(Debug)]
pub struct DeviceRuntime {
    /// The device's model replica.
    pub model: Model,
    opt: Sgd,
    loader: Loader,
    shard: Dataset,
    queue: Vec<Vec<usize>>,
    /// Cumulative local update count — the device's parameter *version*.
    pub steps_done: u64,
    /// Cumulative samples processed.
    pub samples_seen: u64,
}

impl DeviceRuntime {
    /// Creates a runtime with a constant-lr optimizer placeholder; call
    /// [`set_optimizer`](Self::set_optimizer) to configure phases.
    ///
    /// # Errors
    ///
    /// Returns [`HadflError::InvalidConfig`] for an empty shard.
    pub fn new(model: Model, shard: Dataset, batch: usize, seed: u64) -> Result<Self, HadflError> {
        if shard.is_empty() {
            return Err(HadflError::InvalidConfig("device shard is empty".into()));
        }
        let loader = Loader::new(shard.len(), batch.min(shard.len()).max(1), seed);
        Ok(DeviceRuntime {
            model,
            opt: Sgd::new(0.01, 0.9),
            loader,
            shard,
            queue: Vec::new(),
            steps_done: 0,
            samples_seen: 0,
        })
    }

    /// Replaces the optimizer with a fresh one at learning rate `lr` and
    /// `momentum` (its velocity starts at zero; `steps_done` is kept).
    pub fn set_optimizer(&mut self, lr: f32, momentum: f32) {
        self.opt = Sgd::new(lr, momentum);
    }

    /// Mini-batches per epoch on this shard.
    pub fn batches_per_epoch(&self) -> usize {
        self.loader.batches_per_epoch()
    }

    /// Samples in this device's shard.
    pub fn shard_len(&self) -> usize {
        self.shard.len()
    }

    fn next_batch(&mut self) -> Vec<usize> {
        if self.queue.is_empty() {
            let mut epoch = self.loader.epoch();
            epoch.reverse(); // pop from the back in epoch order
            self.queue = epoch;
        }
        self.queue.pop().expect("refilled above")
    }

    /// Runs `n` local SGD steps, returning the mean loss (0.0 for
    /// `n = 0`).
    ///
    /// # Errors
    ///
    /// Propagates substrate errors (including divergence).
    pub fn train_steps(&mut self, n: usize) -> Result<f32, HadflError> {
        if n == 0 {
            return Ok(0.0);
        }
        let mut total = 0.0f64;
        for _ in 0..n {
            let idxs = self.next_batch();
            let (x, y) = self.shard.batch(&idxs)?;
            let loss = self.model.train_step(&x, &y, &mut self.opt)?;
            total += f64::from(loss);
            self.steps_done += 1;
            self.samples_seen += idxs.len() as u64;
        }
        Ok((total / n as f64) as f32)
    }

    /// Computes gradients on one batch *without* updating (for the
    /// all-reduce baseline). Returns `(loss, samples)`.
    ///
    /// # Errors
    ///
    /// Propagates substrate errors.
    pub fn grad_step(&mut self) -> Result<(f32, usize), HadflError> {
        let idxs = self.next_batch();
        let (x, y) = self.shard.batch(&idxs)?;
        let loss = self.model.accumulate_grads(&x, &y)?;
        self.samples_seen += idxs.len() as u64;
        Ok((loss, idxs.len()))
    }

    /// Applies the optimizer to the currently stored gradients (paired
    /// with [`grad_step`](Self::grad_step)); counts one version step.
    ///
    /// # Errors
    ///
    /// Propagates optimizer errors.
    pub fn apply_step(&mut self) -> Result<(), HadflError> {
        self.model.apply_step(&mut self.opt)?;
        self.steps_done += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_creates_identical_replicas() {
        let built = Workload::quick("mlp", 3).build(4).unwrap();
        assert_eq!(built.devices(), 4);
        let p0 = built.runtimes[0].model.param_vector();
        for rt in &built.runtimes[1..] {
            assert_eq!(rt.model.param_vector(), p0, "replicas must start identical");
        }
    }

    #[test]
    fn shards_cover_the_training_set() {
        let built = Workload::quick("mlp", 3).build(4).unwrap();
        let total: usize = built.runtimes.iter().map(DeviceRuntime::shard_len).sum();
        assert_eq!(total, 384);
    }

    #[test]
    fn train_steps_counts_versions_and_samples() {
        let mut built = Workload::quick("mlp", 0).build(2).unwrap();
        let rt = &mut built.runtimes[0];
        let loss = rt.train_steps(5).unwrap();
        assert!(loss > 0.0);
        assert_eq!(rt.steps_done, 5);
        assert_eq!(rt.samples_seen, 5 * 16);
        assert_eq!(rt.train_steps(0).unwrap(), 0.0);
        assert_eq!(rt.steps_done, 5);
    }

    #[test]
    fn batches_cycle_across_epochs() {
        let mut built = Workload::quick("mlp", 0).build(4).unwrap();
        let rt = &mut built.runtimes[0];
        let per_epoch = rt.batches_per_epoch();
        // run two epochs' worth of steps
        rt.train_steps(per_epoch * 2).unwrap();
        assert_eq!(rt.samples_seen as usize, rt.shard_len() * 2);
    }

    #[test]
    fn grad_step_then_apply_updates_params() {
        let mut built = Workload::quick("mlp", 0).build(2).unwrap();
        let rt = &mut built.runtimes[0];
        let before = rt.model.param_vector();
        rt.grad_step().unwrap();
        assert_eq!(rt.model.param_vector(), before, "grad_step must not update");
        rt.apply_step().unwrap();
        assert_ne!(rt.model.param_vector(), before);
        assert_eq!(rt.steps_done, 1);
    }

    #[test]
    fn evaluate_params_leaves_every_replica_untouched() {
        let mut built = Workload::quick("resnet18_lite", 0).build(2).unwrap();
        for rt in &mut built.runtimes {
            rt.train_steps(2).unwrap();
        }
        let bits = |built: &BuiltWorkload| -> Vec<Vec<u32>> {
            let states = built.runtimes.iter().map(|rt| rt.model.state_vector());
            states
                .map(|s| s.iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        let before = bits(&built);
        let zeros = vec![0.0f32; built.runtimes[0].model.state_len()];
        assert!(built.evaluate_params(&zeros).unwrap().accuracy >= 0.0);
        let state = built.runtimes[1].model.state_vector();
        built.evaluate_params(&state).unwrap();
        assert_eq!(bits(&built), before);
    }

    #[test]
    fn accuracy_is_the_same_at_the_device_batch_and_at_64() {
        for name in ["mlp", "resnet18_lite", "vgg16_lite"] {
            let workload = Workload::quick(name, 0);
            let mut built = workload.build(2).unwrap();
            built.runtimes[0].train_steps(6).unwrap();
            let mut model = workload.model().unwrap();
            model
                .set_state_vector(&built.runtimes[0].model.state_vector())
                .unwrap();
            let at = |batch| model.evaluate(&built.test, batch).unwrap().accuracy;
            let device = at(workload.device_batch);
            assert_eq!(device.to_bits(), at(64).to_bits(), "{name}");
        }
    }

    #[test]
    fn dirichlet_workload_builds() {
        let mut w = Workload::quick("mlp", 1);
        w.shard = ShardKind::Dirichlet { alpha: 0.5 };
        let built = w.build(4).unwrap();
        let total: usize = built.runtimes.iter().map(DeviceRuntime::shard_len).sum();
        assert_eq!(total, 384);
    }

    #[test]
    fn unknown_model_is_rejected() {
        assert!(Workload::quick("transformer", 0).build(2).is_err());
    }
}

//! Baseline training schemes the HADFL paper compares against.
//!
//! Three schemes, all running on the same substrates (the `hadfl-nn`
//! training stack and the `hadfl-simnet` virtual-time cluster) and
//! emitting the same [`hadfl::trace::Trace`], so the bench harness can
//! put them side by side:
//!
//! - [`run_distributed`] — *Distributed training* (the paper's PyTorch
//!   DDP / Horovod comparison): a synchronous ring all-reduce of
//!   gradients on every iteration. Fast devices idle for the slowest on
//!   every single step.
//! - [`run_decentralized_fedavg`] — *Decentralized-FedAvg* (Hegedűs et
//!   al.): every device runs one local epoch (`E = 1`), then all devices
//!   gossip parameters and merge synchronously. Stragglers stall each
//!   round boundary.
//! - [`run_centralized_fedavg`] — classical FedAvg with a parameter
//!   server, implemented for the §II-B communication-volume analysis:
//!   the server moves `2·M·K` bytes per round, the bottleneck HADFL
//!   removes. Same round loop as the decentralized variant, with the
//!   average taken at a server instead of over a ring.
//!
//! All three train at the paper's lr 0.01 and momentum 0.9 and take
//! nothing but the workload and the [`SimOptions`].
//!
//! # Example
//!
//! ```no_run
//! use hadfl::driver::SimOptions;
//! use hadfl::Workload;
//! use hadfl_baselines::run_decentralized_fedavg;
//!
//! # fn main() -> Result<(), hadfl::HadflError> {
//! let trace = run_decentralized_fedavg(
//!     &Workload::quick("mlp", 0),
//!     &SimOptions::quick(&[3.0, 3.0, 1.0, 1.0]),
//! )?;
//! println!("fedavg reached {:.3}", trace.max_accuracy());
//! # Ok(())
//! # }
//! ```

mod distributed;
mod fedavg;

pub use distributed::run_distributed;
pub use fedavg::{run_centralized_fedavg, run_decentralized_fedavg};

use hadfl::driver::SimOptions;
use hadfl::trace::{RoundRecord, Trace};
use hadfl::workload::BuiltWorkload;
use hadfl::{HadflError, Workload};
use hadfl_simnet::{ComputeModel, DeviceId, NetStats};
use hadfl_tensor::SeedStream;

/// Learning rate of every baseline (the paper uses 0.01 everywhere).
const LR: f32 = 0.01;
/// SGD momentum of every baseline.
const MOMENTUM: f32 = 0.9;

/// What every scheme sets up alike: the built workload, its compute and
/// byte models, one step-time stream per device, the byte ledger and the
/// trace the run's records go into.
struct Cluster {
    built: BuiltWorkload,
    /// Every device, in id order: the ring the gossip merges run over.
    devices: Vec<DeviceId>,
    wire_bytes: u64,
    compute: ComputeModel,
    device_rngs: Vec<SeedStream>,
    stats: NetStats,
    trace: Trace,
}

impl Cluster {
    /// Validates `opts`, builds `workload` over its devices and seeds
    /// device `i`'s step-time stream from `workload.seed ^ salt`, fork `i`.
    fn new(
        scheme: &str,
        salt: u64,
        workload: &Workload,
        opts: &SimOptions,
    ) -> Result<Cluster, HadflError> {
        opts.validate()?;
        let k = opts.powers.len();
        let mut built = workload.build(k)?;
        let wire_bytes = opts.wire_model_bytes.unwrap_or(built.model_bytes);
        let compute =
            ComputeModel::new(opts.base_step_secs, &opts.powers)?.with_jitter(opts.jitter);
        let master_rng = SeedStream::new(workload.seed ^ salt);
        for rt in &mut built.runtimes {
            rt.set_optimizer(hadfl_nn::LrSchedule::constant(LR), MOMENTUM);
        }
        Ok(Cluster {
            built,
            devices: (0..k).map(DeviceId).collect(),
            wire_bytes,
            compute,
            device_rngs: (0..k).map(|i| master_rng.fork(i as u64)).collect(),
            stats: NetStats::new(),
            trace: Trace::new(scheme, k, wire_bytes),
        })
    }

    /// Evaluates `params` and appends round `round`'s record, with every
    /// device's step count as its version.
    fn record(
        &mut self,
        round: usize,
        time_secs: f64,
        epoch_equiv: f64,
        train_loss: f32,
        params: &[f32],
    ) -> Result<(), HadflError> {
        let metrics = self.built.evaluate_params(params)?;
        let versions = self
            .built
            .runtimes
            .iter()
            .map(|rt| rt.steps_done as f64)
            .collect();
        self.trace.push(RoundRecord {
            round,
            time_secs,
            epoch_equiv,
            train_loss,
            test_accuracy: metrics.accuracy,
            selected: Vec::new(),
            versions,
        });
        Ok(())
    }

    /// The trace, with the run's byte ledger.
    fn finish(mut self) -> Trace {
        self.trace.set_comm(&self.stats);
        self.trace
    }
}

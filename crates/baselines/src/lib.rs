//! Baseline training schemes the HADFL paper compares against.
//!
//! Three schemes, all running on the same substrates (the `hadfl-nn`
//! training stack and the `hadfl-simnet` virtual-time cluster) and
//! recording the same telemetry events, folded into the same
//! [`hadfl::trace::Trace`], so the bench harness can put them side by
//! side:
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

use std::time::Duration;

use hadfl::aggregate::{record_gossip_traffic, GossipCost};
use hadfl::driver::SimOptions;
use hadfl::trace::Trace;
use hadfl::workload::BuiltWorkload;
use hadfl::{HadflError, Workload};
use hadfl_simnet::{ComputeModel, DeviceId, LinkModel};
use hadfl_telemetry::{EventKind, RingBufferSink, Telemetry};
use hadfl_tensor::SeedStream;

/// Learning rate of every baseline (the paper uses 0.01 everywhere).
const LR: f32 = 0.01;
/// SGD momentum of every baseline.
const MOMENTUM: f32 = 0.9;

/// What every scheme sets up alike: the built workload, its compute and
/// byte models, one step-time stream per device, and the event stream
/// the run's transfers and evaluations go into.
struct Cluster {
    built: BuiltWorkload,
    /// Every device, in id order: the ring the gossip merges run over.
    devices: Vec<DeviceId>,
    wire_bytes: u64,
    compute: ComputeModel,
    device_rngs: Vec<SeedStream>,
    /// Events on the server's node `k`, stamped at virtual time.
    tel: Telemetry,
    events: RingBufferSink,
}

impl Cluster {
    /// Validates `opts`, builds `workload` over its devices and seeds
    /// device `i`'s step-time stream from `workload.seed ^ salt`, fork `i`.
    fn new(salt: u64, workload: &Workload, opts: &SimOptions) -> Result<Cluster, HadflError> {
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
        let events = RingBufferSink::new(usize::MAX);
        Ok(Cluster {
            built,
            devices: (0..k).map(DeviceId).collect(),
            wire_bytes,
            compute,
            device_rngs: (0..k).map(|i| master_rng.fork(i as u64)).collect(),
            tel: Telemetry::new(k as u32, vec![Box::new(events.clone())]),
            events,
        })
    }

    /// Records one transfer at virtual time `at` seconds; device `k`
    /// stands for the server.
    fn send(&self, at: f64, from: DeviceId, to: DeviceId, bytes: u64, kind: &str) {
        let sent = EventKind::FrameSent {
            src: from.index() as u32,
            dst: to.index() as u32,
            bytes,
            kind: kind.to_string(),
            lamport: 0,
        };
        self.tel.emit(Duration::from_secs_f64(at), sent);
    }

    /// Records a ring all-reduce over every device, at virtual time `at`
    /// seconds, and returns its cost.
    fn all_reduce(&self, at: f64, link: &LinkModel) -> Result<GossipCost, HadflError> {
        let send = |from, to, bytes| self.send(at, from, to, bytes, "ring_allreduce");
        record_gossip_traffic(&self.devices, self.wire_bytes, link, send)
    }

    /// Evaluates `params` and records round `round`'s evaluation, with
    /// every device's step count as its version.
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
        let evaluated = EventKind::Evaluated {
            round: round as u32,
            time_secs,
            epoch_equiv,
            train_loss,
            test_accuracy: metrics.accuracy,
            versions,
        };
        self.tel.emit(Duration::from_secs_f64(time_secs), evaluated);
        Ok(())
    }

    /// The run's trace under `scheme`: the fold of its events.
    fn finish(self, scheme: &str) -> Trace {
        let k = self.devices.len();
        Trace::from_events(scheme, k, self.wire_bytes, &self.events.snapshot())
    }
}

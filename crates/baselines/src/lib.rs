//! Baseline training schemes the HADFL paper compares against.
//!
//! Three schemes, each a loop over the closed-form set-up HADFL's own
//! driver runs on ([`hadfl::driver::Cluster`]): the same substrates, the
//! same telemetry events, folded into the same [`hadfl::trace::Trace`],
//! so the bench harness can put them side by side:
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

use hadfl::driver::{Cluster, SimOptions};
use hadfl::{HadflError, Workload};

/// Learning rate of every baseline (the paper uses 0.01 everywhere).
const LR: f32 = 0.01;
/// SGD momentum of every baseline.
const MOMENTUM: f32 = 0.9;

/// The shared closed-form set-up with every device's optimizer at the
/// baselines' lr and momentum; device `i`'s step-time stream is fork `i`
/// of `workload.seed ^ salt`.
fn cluster(salt: u64, workload: &Workload, opts: &SimOptions) -> Result<Cluster, HadflError> {
    let mut cluster = Cluster::new(workload.seed ^ salt, workload, opts)?;
    for rt in &mut cluster.built.runtimes {
        rt.set_optimizer(LR, MOMENTUM);
    }
    Ok(cluster)
}

//! # HADFL — Heterogeneity-aware Decentralized Federated Learning
//!
//! A from-scratch Rust reproduction of *HADFL: Heterogeneity-aware
//! Decentralized Federated Learning Framework* (Cao et al., DAC 2021).
//!
//! HADFL trains a shared model over devices with unequal computing power
//! without a central parameter server and without synchronous barriers:
//!
//! - **Heterogeneity-aware local training** — each device runs as many
//!   local SGD steps as fit in a sync window derived from the
//!   *hyperperiod* of per-epoch times ([`strategy`]).
//! - **Runtime version prediction** — the coordinator forecasts each
//!   device's parameter version with double exponential smoothing
//!   ([`predict`]).
//! - **Probability-based partial aggregation** — each round `N_p` devices
//!   are selected with probability peaked at the third version quartile
//!   ([`select`]) and exchange parameters over a random directed ring
//!   ([`topology`], [`gossip`], [`aggregate`]).
//! - **Fault tolerance** — dead ring members are detected by timeout,
//!   confirmed by handshake, and bypassed ([`gossip`]).
//! - **Grouping** — hierarchical intra-/inter-group synchronization for
//!   larger clusters: [`group`] partitions the devices and
//!   `HadflConfig::group_size` turns it on.
//!
//! The [`driver`] module wires everything into a deterministic
//! virtual-time simulation (the paper itself emulates heterogeneity with
//! `sleep()`; see `DESIGN.md`) and emits [`trace::Trace`]s from which the
//! paper's tables and figures are regenerated. [`driver::run_hadfl`] is
//! the only closed-form round loop — flat and grouped runs differ in
//! configuration, not in entry point. The [`exec`] module runs the
//! protocol as message-passing actors over real threads, sockets, or a
//! virtual clock.
//!
//! # Quick start
//!
//! ```no_run
//! use hadfl::driver::{run_hadfl, SimOptions};
//! use hadfl::{HadflConfig, Workload};
//!
//! # fn main() -> Result<(), hadfl::HadflError> {
//! let workload = Workload::quick("resnet18_lite", 0);
//! let config = HadflConfig::builder().num_selected(2).seed(42).build()?;
//! let opts = SimOptions::quick(&[3.0, 3.0, 1.0, 1.0]); // the paper's ratios
//! let run = run_hadfl(&workload, &config, &opts)?;
//! let (acc, secs) = run.trace.time_to_max_accuracy().expect("trained");
//! println!("reached {:.1}% at {:.1} virtual s", acc * 100.0, secs);
//! # Ok(())
//! # }
//! ```

// `!(x > 0)`-style guards are deliberate: unlike `x <= 0` they also
// reject NaN, which is exactly what the validators want.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
pub mod aggregate;
pub mod clock;
mod config;
pub mod coordinator;
pub mod driver;
mod error;
pub mod exec;
pub mod gossip;
pub mod group;
pub mod predict;
pub mod schedule;
pub mod select;
pub mod strategy;
pub mod topology;
pub mod trace;
pub mod transport;
pub mod wire;
pub mod workload;

pub use config::{HadflConfig, HadflConfigBuilder};
pub use error::HadflError;
pub use workload::Workload;

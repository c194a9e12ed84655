//! hadfl-net: real sockets for the HADFL protocol.
//!
//! The core crate's threaded executor ([`hadfl::exec`]) speaks the
//! [`hadfl::wire::Message`] protocol over an abstract
//! [`hadfl::transport::Port`]. This crate provides the pieces that take
//! that same protocol onto a network:
//!
//! * [`cluster`] — the static peer registry: a TOML file
//!   listing every participant's id, address, role, and relative
//!   compute power.
//! * [`tcp`] — [`tcp::TcpPort`], a `Port` over plain TCP with
//!   length-delimited framing and lazy connects with bounded
//!   exponential-backoff redial. Dead peers are left to the protocol's
//!   §III-D timeout and handshake; an idle connection carries nothing.
//! * the `hadfl-node` binary — one process per participant; point every
//!   process at the same cluster file and give each its `--id`.
//!
//! Because `TcpPort` implements the same trait as the in-process
//! channel fabric, [`hadfl::exec::run_device`] and
//! [`hadfl::exec::run_coordinator`] run unchanged over it, and
//! [`Port::stats`](hadfl::transport::Port::stats) reports byte counts
//! on the same ledger as the analytical simulation driver.

pub mod cluster;
pub mod collector;
mod frame;
pub mod ship;
pub mod tcp;

pub use cluster::{ClusterConfig, NodeSpec, Role};
pub use collector::{Collector, CollectorOptions, CollectorServer, FleetStatus, NodeIngest};
pub use ship::{ShipLedger, TcpShipper};
pub use tcp::{BoundNode, TcpOptions, TcpPort};

//! # hadfl-check — explicit-state model checking of the §III-D protocol
//!
//! PR 1's review caught three interleaving bugs in the ring protocol by
//! hand: ring frames overtaking their `RoundPlan`, a double-counted
//! `ParamAccum` after a bypass re-send, and dropped-but-running devices
//! never receiving `Shutdown`. This crate makes that class of bug
//! machine-findable: it drives the **real** [`hadfl::exec::DeviceActor`]
//! and [`hadfl::exec::CoordinatorActor`] state machines — the same code
//! the TCP cluster runs — through a controlled scheduler and explores
//! *every* reachable interleaving of message deliveries, timer firings,
//! and peer deaths for small clusters (2–6 devices), breadth-first with
//! state-hash deduplication.
//!
//! Time is virtual: the actors take `now` as a parameter (see
//! [`hadfl::clock`]), and the checker runs them with
//! [`hadfl::exec::ProtocolTiming::zero`] at `now == 0`, which turns
//! every timeout into an explicitly scheduled event. Scheduling of those
//! events is *gated* to model the production timescale separation
//! (handshake ≪ report deadline ≪ sync window); see
//! [`model::World::enabled_actions`].
//!
//! ## Checked invariants
//!
//! - **Counted exactly once** — every in-flight `ParamAccum` over the
//!   ghost model's basis vectors has entries in {0, 1} and sums to its
//!   `hops` tag; every in-flight `MergedParams` is the uniform average
//!   of distinct members.
//! - **Round monotonicity** — device `done_round` and the coordinator
//!   round never regress, and a device never syncs a ring round twice.
//! - **Ledger conservation** — payload bytes sent == delivered + sunk
//!   (to dead peers) + in flight, after every transition.
//! - **No unexpected protocol errors** — actor errors other than an
//!   allowed `ClusterDead` are violations.
//! - **Liveness** — from every reachable state, the cluster can still
//!   reach "all surviving devices shut down" without further failures
//!   (checked by reverse reachability over the explored graph, so
//!   probe/ack cycles are livelocks, not false passes).
//!
//! On violation the checker reports the shortest action schedule that
//! reaches the bad state; [`explore::replay`] re-executes a schedule
//! deterministically so a counterexample doubles as a regression test.
//!
//! ## Usage
//!
//! ```text
//! cargo run -p hadfl-check --release             # standard battery
//! cargo test -p hadfl-check                      # battery as tests
//! cargo test -p hadfl-check --features seeded-bugs  # + bug rediscovery
//! ```

pub mod explore;
pub mod model;

pub use explore::{explore, replay, CounterExample, Report};
pub use model::{Action, CheckConfig, Violation, World};

/// The standard battery `cargo run -p hadfl-check` (and CI) explores:
/// every topology shape the protocol distinguishes at small scale —
/// minimal ring, multi-round, full ring, ring + broadcast audience, a
/// mid-round death, and deadline/report races — then the paper's four
/// devices: a full ring, one death with and without a broadcast
/// audience, and two deaths in one ring.
pub fn standard_battery() -> Vec<(&'static str, CheckConfig)> {
    vec![
        (
            "2 devices, minimal ring",
            CheckConfig {
                devices: 2,
                select: 2,
                rounds: 1,
                ..CheckConfig::default()
            },
        ),
        (
            "2 devices, 2 rounds",
            CheckConfig {
                devices: 2,
                select: 2,
                rounds: 2,
                ..CheckConfig::default()
            },
        ),
        (
            "3 devices, full ring",
            CheckConfig {
                devices: 3,
                select: 3,
                rounds: 1,
                ..CheckConfig::default()
            },
        ),
        (
            "3 devices, ring of 2 + broadcast",
            CheckConfig {
                devices: 3,
                select: 2,
                rounds: 1,
                ..CheckConfig::default()
            },
        ),
        (
            "3 devices, one mid-round crash",
            // Two rounds so a death inside round 1's ring is detected,
            // bypassed, and the survivors still finish round 2 (in a
            // final round the trailing Shutdown would mask the bypass).
            CheckConfig {
                devices: 3,
                select: 3,
                rounds: 2,
                crashes: 1,
                ..CheckConfig::default()
            },
        ),
        (
            "3 devices, aggressive deadlines",
            CheckConfig {
                devices: 3,
                select: 2,
                rounds: 1,
                aggressive_deadline: true,
                allow_cluster_dead: true,
                ..CheckConfig::default()
            },
        ),
        (
            "4 devices, full ring, 2 rounds",
            CheckConfig {
                devices: 4,
                select: 4,
                rounds: 2,
                ..CheckConfig::default()
            },
        ),
        (
            "4 devices, ring of 3 + broadcast, one crash",
            CheckConfig {
                devices: 4,
                select: 3,
                rounds: 2,
                crashes: 1,
                ..CheckConfig::default()
            },
        ),
        (
            "4 devices, full ring, one crash",
            CheckConfig {
                devices: 4,
                select: 4,
                rounds: 2,
                crashes: 1,
                ..CheckConfig::default()
            },
        ),
        (
            "4 devices, full ring, two crashes",
            // Two deaths in one ring, adjacent ones included; with
            // both gone mid-round too few may be left to go on.
            CheckConfig {
                devices: 4,
                select: 4,
                rounds: 2,
                crashes: 2,
                allow_cluster_dead: true,
                ..CheckConfig::default()
            },
        ),
    ]
}

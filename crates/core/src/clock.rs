//! The time seam of the deployed protocol.
//!
//! Every time read and every sleep in the protocol loops
//! ([`crate::exec`]) and the TCP transport goes through the [`Clock`]
//! trait instead of `std::time::Instant::now()` (hadfl-lint's
//! `ambient-clock` rule enforces this). Production code runs on
//! [`WallClock`]; deterministic tests and the `hadfl-check` model
//! checker substitute [`ManualClock`] (or virtual zero-time), so that
//! timeout behaviour becomes a *scheduled event* rather than a race
//! against the host's wall clock.
//!
//! The three types live in `hadfl-prof`, the workspace's bottom crate,
//! so a `hadfl_prof::Profiler` reads the same clock as the protocol it
//! instruments: under a [`ManualClock`] the profile is fully scripted
//! and byte-identical across runs.
//!
//! Timestamps are plain [`Duration`](std::time::Duration)s since the
//! clock's epoch — unlike `Instant`, a `Duration` can be fabricated,
//! compared across processes of a test harness, and hashed into a
//! model-checker state digest.

pub use hadfl_prof::{Clock, ManualClock, WallClock};

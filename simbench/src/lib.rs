//! # simbench — the Hibernator simulator benchmark
//!
//! Three workloads driven through the library crates' public API —
//! `grid` (the `repro t3` policy grid), `fleet_256` (a 256-array fleet
//! under a power cap) and `storm_audit` (a fault storm with telemetry and
//! its audit) — timed end to end, and per layer by probes wrapped around
//! the simulator's trait seams. See `README.md` in this directory.

#![warn(missing_docs)]

pub mod fleet;
pub mod gauge;
pub mod grid;
pub mod measure;
pub mod probe;
pub mod report;
pub mod scenario;
pub mod storm;
pub mod sys;

pub use measure::{measure, Measurement, Mode, Workload};

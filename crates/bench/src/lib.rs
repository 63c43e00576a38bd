//! # ava-bench
//!
//! The experiment harness that regenerates every table and figure of the paper's
//! evaluation (E0–E13, Table I, Table II) on top of the simulated deployments, plus
//! the handler profile of where host time goes (`ava-exp profile`).
//!
//! Each experiment is a row of [`registry::EXPERIMENTS`] that prints the same
//! rows/series the paper reports; the `ava-exp` binary runs them by name. Rows run
//! a reduced-scale configuration by default so they finish in seconds; `--full`
//! runs the paper-scale configurations (96 nodes, three-minute virtual runs).
//!
//! Every experiment is a declarative [`ava_scenario::Scenario`]: protocol +
//! configuration + event schedule + observers. New workloads add schedule shapes,
//! not new plumbing.

pub mod complexity;
pub mod experiments;
pub mod perf;
pub mod registry;
pub mod report;

pub use complexity::{complexity_table, ComplexityRow};
pub use experiments::{ExperimentScale, Protocol};
pub use report::{print_table, RunMetrics};

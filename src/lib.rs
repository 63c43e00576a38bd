//! # hamava-repro
//!
//! Umbrella crate of the Hamava reproduction workspace. It re-exports the public
//! crates so the examples and integration tests under the repository root can use a
//! single dependency, and so `cargo doc` produces one entry point.
//!
//! See `README.md` for the architecture overview, `DESIGN.md` for the system
//! inventory and per-experiment index, and `EXPERIMENTS.md` for paper-vs-measured
//! results.

pub use ava_bench as bench;
pub use ava_bftsmart as bftsmart;
pub use ava_broker as broker;
pub use ava_consensus as consensus;
pub use ava_crypto as crypto;
pub use ava_fuzz as fuzz;
pub use ava_hamava as hamava;
pub use ava_hotstuff as hotstuff;
pub use ava_scenario as scenario;
pub use ava_simnet as simnet;
pub use ava_state as state;
pub use ava_store as store;
pub use ava_types as types;
pub use ava_workload as workload;

//! # ava-hamava
//!
//! The core of this reproduction: the Hamava fault-tolerant, reconfigurable,
//! heterogeneous clustered replication protocol (ICDE 2025), implemented as a set of
//! composable sans-I/O state machines plus a [`replica::Replica`] actor that ties
//! them together into the paper's three-stage round structure.
//!
//! | Paper algorithm | Module |
//! |---|---|
//! | Alg. 1 — inter-cluster broadcast | [`replica`] (`inter_broadcast`, `on_inter`, `on_local_share`); [`relay`] fetches a package the broadcast lost from a cluster that provably holds it |
//! | Alg. 2 — heterogeneous remote leader change | [`remote_leader`] |
//! | Alg. 3 — reconfiguration collection | [`replica`] (requester + member sides) |
//! | Alg. 4–6 — Byzantine Reliable Dissemination | [`brd`] |
//! | Alg. 7 — local ordering | [`replica`] + any [`ava_consensus::TotalOrderBroadcast`]; the crate-private `admission` module keeps who waits on a write (answered from the own cluster's package alone) and the bytes a read serves |
//! | Alg. 8 — leader change | [`replica`] (`install_leader` wiring) |
//! | Alg. 9 — leader election | [`leader_election`] |
//! | Alg. 10 — execution & reconfiguration application | [`replica`] (`execute`, once per process through [`round_memo`]; a joiner's state transfer, lines 33–39, enters its round through `Replica::enter`, as a catch-up does); [`catchup`] decides restart and straggler catch-up; [`views`] keeps the per-cluster trailing view every path verifies against |
//!
//! The replica is generic over the local consensus protocol: instantiating it with
//! `ava-hotstuff` gives AVA-HOTSTUFF and with `ava-bftsmart` gives AVA-BFTSMART, the
//! two systems evaluated in the paper.
//!
//! ## Quick start
//!
//! ```
//! use ava_hamava::harness::{hotstuff_factory, Deployment, DeploymentOptions};
//! use ava_types::{Duration, Region, SystemConfig};
//!
//! // Two heterogeneous clusters: 4 replicas in the US, 7 in Europe.
//! let config = SystemConfig::heterogeneous(&[
//!     vec![Region::UsWest; 4],
//!     vec![Region::Europe; 7],
//! ]);
//! let mut deployment = Deployment::build(config, DeploymentOptions::default(), hotstuff_factory());
//! deployment.sim.run_for(Duration::from_secs(5));
//! assert!(!deployment.sim.outputs().is_empty());
//! ```
//!
//! The harness only builds: the run is driven on its public `sim`. Experiments
//! should prefer the declarative scenario API (`ava-scenario`), which implements
//! its object-safe `DynDeployment` trait directly on [`harness::Deployment`] and
//! adds event schedules and run observers.

mod admission;
pub mod brd;
pub mod byzantine;
pub mod catchup;
pub mod client;
pub mod harness;
pub mod leader_election;
pub mod messages;
pub mod relay;
pub mod remote_leader;
pub mod replica;
pub mod round_memo;
pub mod targets;
pub mod views;

pub use brd::{Brd, BrdAction, BrdCert, BrdMsg};
pub use byzantine::{ByzantineBehavior, CorruptReplica};
pub use client::{Client, ClientConfig};
pub use harness::{bftsmart_factory, hotstuff_factory, Deployment, DeploymentOptions, TobFactory};
pub use leader_election::{ElectionAction, ElectionMsg, LeaderElection};
pub use messages::{AvaMsg, ClientCtl, ControlCmd, RoundPackage, RoundRecord, TxBatch};
pub use relay::Relay;
pub use remote_leader::{RemoteLeaderAction, RemoteLeaderChange, RemoteLeaderMsg};
pub use replica::{Replica, ReplicaConfig};
pub use round_memo::{executed_round_stats, ExecutedRoundStats};
pub use targets::TargetSet;
pub use views::Views;
// Re-exported so downstream crates can pick a state machine for
// `DeploymentOptions::state_machine` without a direct `ava-state` dependency.
pub use ava_state::StateMachineKind;

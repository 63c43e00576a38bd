//! # ava-scenario
//!
//! The declarative scenario API of the Hamava reproduction: experiments describe
//! *what* happens — a protocol, a cluster layout, a time-sorted schedule of typed
//! events, probes observing the run — and one runner executes it. This replaces the
//! hand-wired experiment plumbing (per-protocol `match` arms over concrete
//! deployment types, trait-bound-laden free functions for fault and churn
//! injection) that every new workload used to copy-paste.
//!
//! Three pillars:
//!
//! * [`Protocol`] + [`DynDeployment`] — an object-safe deployment erasing the
//!   total-order-broadcast generic. `Protocol::deploy` is the single place a
//!   protocol label becomes a concrete stack, so a label can never silently run
//!   another protocol's deployment.
//! * [`Scenario`] / [`ScenarioBuilder`] — a fluent builder holding the
//!   [`ava_types::SystemConfig`], the
//!   [`ava_hamava::harness::DeploymentOptions`], and a [`Schedule`] of
//!   [`ScenarioEvent`]s: crashes, Byzantine muting, joins/leaves, client joins,
//!   workload switches, inter-cluster partitions/heals and latency-model shifts.
//! * [`RunObserver`] — probes the runner invokes at configurable virtual-time
//!   ticks, on every applied event, and on every [`ava_types::Output`] in emission
//!   order, so time series and traces are collected mid-run.
//!
//! ## Example
//!
//! ```
//! use ava_scenario::{Protocol, Scenario, ThroughputObserver};
//! use ava_types::{ClusterId, Duration, Region, SystemConfig, Time};
//!
//! let config = SystemConfig::homogeneous_regions(&[
//!     (4, Region::UsWest),
//!     (4, Region::Europe),
//! ]);
//! let mut throughput = ThroughputObserver::new(Duration::from_secs(2));
//! let run = Scenario::builder(Protocol::AvaHotStuff, config)
//!     .seed(42)
//!     .run_for(Duration::from_secs(12))
//!     .crash_initial_leader_at(Time::from_secs(6), ClusterId(1))
//!     .build()
//!     .run_observed(&mut [&mut throughput]);
//! assert!(run.outputs.len() > 0);
//! assert!(throughput.completed() > 0);
//! ```
//!
//! Runs are deterministic: a scenario with the same seed, schedule and
//! configuration produces a byte-identical `Output` stream, and a schedule is
//! executed in canonical `(time, event)` order regardless of how it was assembled.

pub mod deployment;
pub mod observer;
pub mod parallel;
#[allow(clippy::module_inception)]
pub mod scenario;

pub use ava_broker::{AttachedTier, BrokerTier};
pub use ava_hamava::ByzantineBehavior;
pub use deployment::{DynDeployment, Joined, Protocol};
pub use observer::{
    BrokerStatsObserver, BrokerTrace, ByzantineObserver, ReconfigTraceObserver, RecoveryObserver,
    RecoveryTrace, RoundTrace, RunObserver, StageBreakdownObserver, ThroughputObserver,
};
pub use parallel::{default_jobs, RunPool};
pub use scenario::{Scenario, ScenarioBuilder, ScenarioEvent, ScenarioRun, Schedule};

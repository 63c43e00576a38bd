//! # ava-store
//!
//! Simulation-grade durable storage for Hamava replicas: a per-replica append-only
//! **round log** of certified round records, periodic **checkpoints** (a
//! digest-certified snapshot of executed state + membership at a round boundary that
//! lets the log be truncated), and the [`CheckpointCollector`] a restarted replica
//! uses to agree on a peer-supplied checkpoint during catch-up.
//!
//! "Durable" here means: the store is the one piece of replica state that survives a
//! [`crash → restart`](https://en.wikipedia.org/wiki/Crash_recovery) cycle in the
//! simulator — everything else (consensus votes, in-flight rounds, client
//! bookkeeping) is wiped by `Actor::on_restart` and must be re-earned via the
//! catch-up protocol in `ava-hamava`. Persistence has a measurable price: every
//! append and checkpoint charges the simulated fsync latency of the
//! `ava-simnet` cost model, so durability shows up in latency breakdowns the same
//! way signature verification does.
//!
//! The crate is deliberately protocol-agnostic: the log is generic over a
//! [`StoredEntry`] payload (in `ava-hamava` that payload is the `RoundRecord` of
//! `Arc`-shared round packages), and checkpoints carry the concrete replicated state
//! of this reproduction (the key-value map, the membership map, the leader
//! timestamp). See `DESIGN.md` §6 for the layout and the catch-up message flow.

pub mod checkpoint;
pub mod log;
pub mod store;

pub use checkpoint::{
    checkpoint_digest_stats, Checkpoint, CheckpointCollector, CheckpointDigestStats,
};
pub use log::{RoundLog, StoredEntry};
pub use store::{ReplicaStore, StoreConfig, StoreStats};

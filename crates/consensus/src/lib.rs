//! # ava-consensus
//!
//! The consensus-agnostic boundary of Hamava: a [`TotalOrderBroadcast`] (TOB)
//! abstraction that every local replication protocol implements, plus the block and
//! certificate types shared between implementations.
//!
//! The paper instantiates Hamava with HotStuff (AVA-HOTSTUFF) and BFT-SMaRt
//! (AVA-BFTSMART); this workspace provides `ava-hotstuff` and `ava-bftsmart` as the
//! corresponding implementations of this trait, and `ava-hamava`'s replica is generic
//! over it. The abstraction follows Alg. 7 of the paper: `broadcast` / `deliver`
//! requests and responses, plus `new-leader` / `complain` to integrate with the
//! leader-election module.

pub mod block;
pub mod handover;
pub mod pool;
pub mod testkit;
pub mod tob;

pub use block::{Block, CommittedBlock};
pub use pool::PendingPool;
pub use tob::{FaultMode, TobAction, TobConfig, TotalOrderBroadcast, WireSize};

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
//!
//! Everything the two backends share outside their voting phases lives here
//! once: the operation pool and leader watchdog ([`pool`]), the leader
//! hand-over's reports and their resolution ([`handover`]), and the [`regency`]
//! layer that holds leader, regency and pool and drives `broadcast`, the
//! watchdog tick and the hand-over — so a backend is a [`Phases`] impl plus its
//! message enum. [`testkit`] runs every backend through one conformance suite.

pub mod block;
pub mod handover;
pub mod pool;
pub mod regency;
pub mod testkit;
pub mod tob;

pub use block::{Block, CommittedBlock};
pub use pool::PendingPool;
pub use regency::{Phases, Regency, RegencyMsg};
pub use tob::{
    FaultMode, TobAction, TobConfig, TotalOrderBroadcast, WireSize, SIGN_COST, VERIFY_COST,
};

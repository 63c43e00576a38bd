//! # ava-types
//!
//! Core identifiers, operations, membership and configuration types shared by every
//! crate of the Hamava reproduction.
//!
//! The types in this crate are deliberately free of protocol logic: they describe
//! *what* flows through the system (replica/cluster identifiers, transactions,
//! reconfiguration requests, cluster membership, virtual time) so that the protocol
//! crates (`ava-hamava`, `ava-hotstuff`, `ava-bftsmart`) and the
//! simulation/benchmark crates can agree on a common vocabulary.

pub mod config;
pub mod encode;
pub mod error;
pub mod ids;
pub mod membership;
pub mod metrics;
pub mod operation;
pub mod time;

pub use config::{ClusterSpec, ProtocolParams, SystemConfig};
pub use encode::{Encode, EncodeSink};
pub use error::AvaError;
pub use ids::{
    fold_mul, BuildIdHasher, ClientId, ClusterId, IdHasher, Region, ReplicaId, Round, Timestamp,
    TxId, TxKey,
};
pub use membership::{fault_threshold, Membership, ReplicaInfo};
pub use metrics::{Output, RejectKind, StageKind};
pub use operation::{Operation, OperationBatch, Reconfig, Transaction, TxKind};
pub use time::{Duration, Time};

//! # ava-simnet
//!
//! A deterministic discrete-event simulator for geo-distributed replication
//! protocols. It plays the role of the paper's Google Cloud deployment: nodes are
//! protocol state machines ([`Actor`]s), links have region-to-region latencies taken
//! from the paper's Table II, message processing consumes per-node CPU time, and
//! faults (crashes, restarts, partitions) can be injected at chosen points in virtual
//! time.
//!
//! Everything is driven from a single event queue seeded by a fixed RNG seed, so runs
//! are exactly reproducible — which is what makes the property-based protocol tests
//! and the figure-regeneration experiments meaningful.
//!
//! ## Model
//!
//! * **Nodes** are identified by [`ava_types::ReplicaId`]; clients occupy a reserved
//!   id range (see [`client_node_id`]).
//! * **Latency**: delivery time = sender processing completion + one-way latency
//!   between the nodes' regions (with optional jitter).
//! * **CPU**: each node is a single-threaded server. Handling an event takes
//!   `per_event + per_byte·size + explicitly consumed` time; subsequent events queue
//!   behind it. This is what makes smaller clusters faster at local consensus, which
//!   is the effect the paper's clustering exploits.
//! * **Faults**: crash and restart at a time, partitions between groups that drop
//!   every message crossing them until healed. Byzantine *behaviours*
//!   (equivocation, withholding inter-cluster messages) are expressed in the
//!   protocol actors themselves, because they are protocol-level misbehaviour.

pub mod actor;
pub mod cost;
pub mod event;
pub mod latency;
pub mod profile;
pub mod sim;
pub mod stats;

pub use actor::{Actor, CapturedSend, Context, SimMessage};
pub use cost::CostModel;
pub use latency::LatencyModel;
pub use profile::{ActorKind, HandlerProfile, ProfileRow};
pub use sim::{client_node_id, Simulation};
pub use stats::NetStats;

//! # ava-state
//!
//! The replicated state machines Hamava's Stage 3 executes against, behind one
//! [`StateMachine`] trait:
//!
//! * [`CounterMachine`] — the legacy placeholder (key → write counter). It is
//!   kept bit-for-bit compatible with the pre-`ava-state` execution layer:
//!   selecting it reproduces every historical determinism golden byte-identically
//!   (same snapshot digest byte stream, same wire sizes, no value-byte costs).
//! * [`KvMachine`] — a real YCSB-style keyed KV store. Every key holds a
//!   versioned value (`key → {version, value bytes, last-writer round}`), writes
//!   materialise deterministic value bytes, and multi-key writes
//!   (`TxKind::MultiWrite`) and range reads (`TxKind::Scan`) are supported.
//!
//! Both machines expose a **history-independent digest**: an XOR set-hash over
//! per-entry hashes. The KV machine updates it incrementally on every write: a
//! [`KvEntry`] caches its BLAKE2s-256 hash as a *leaf*, so every committed
//! value is hashed once and an overwrite re-reads no old bytes
//! ([`leaf_hash_stats`] counts the leaves hashed). A round is applied at once
//! ([`StateMachine::apply_round`]), so its leaves are hashed four at a time
//! (`ava_crypto::blake2s::blake2s_many`), and only the round's last write of
//! each key is built and hashed: an earlier one would leave the set-hash as
//! soon as it entered. The counter machine hashes
//! its entries with SHA-256, on demand. Because the digest is a
//! function of the *state* (not of the apply history), a replica that adopts a
//! peer snapshot during catch-up recomputes the same digest its peers carry —
//! which is what lets the fuzzer's execution-agreement checker compare full
//! state digests across replicas after recovery.
//!
//! Both machines are copy-on-write values over one page map — dense pages of
//! 512 consecutive keys' slots, a read or a commit a page lookup and an index:
//! [`StateMachine::fork`] copies a pointer, a write copies only the page it
//! touches (one array clone), and a [`StateVersion`]
//! names one state by identity — which is what lets the replicas of a
//! deployment that apply the same rounds share one executed result.
//!
//! [`StateSnapshot`] is the point-in-time image both machines produce and
//! restore from: the machine's own version, taken in O(1) and sharing every
//! page with the live state until a write copies one; `ava-store` folds it
//! into digest-certified checkpoints (over the cached leaves, which a
//! receiver recomputes before trusting).

pub mod machine;
pub mod snapshot;

pub use machine::{
    leaf_hash_stats, machine_for, ApplyOutcome, CounterMachine, KvEntry, KvMachine, LeafHashStats,
    StateMachine, StateMachineKind, StateVersion, WeakStateVersion,
};
pub use snapshot::{machine_from_snapshot, StateSnapshot};

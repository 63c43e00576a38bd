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
//! per-entry SHA-256 hashes, updated incrementally on every write (a
//! [`KvEntry`] caches its hash as a *leaf*, so every committed value is hashed
//! once and an overwrite re-reads no old bytes). Because the digest is a
//! function of the *state* (not of the apply history), a replica that adopts a
//! peer snapshot during catch-up recomputes the same digest its peers carry —
//! which is what lets the fuzzer's execution-agreement checker compare full
//! state digests across replicas after recovery.
//!
//! [`StateSnapshot`] is the point-in-time image both machines produce and
//! restore from — KV values are `Arc`-shared with the live map, not copied;
//! `ava-store` folds it into digest-certified checkpoints (over the cached
//! leaves, which a receiver recomputes before trusting).

pub mod machine;
pub mod snapshot;

pub use machine::{
    entry_memo_stats, machine_for, ApplyOutcome, CounterMachine, EntryMemoStats, KvEntry,
    KvMachine, StateMachine, StateMachineKind,
};
pub use snapshot::{machine_from_snapshot, StateSnapshot};

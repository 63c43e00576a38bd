//! # ava-crypto
//!
//! Cryptographic substrate for the Hamava reproduction: SHA-256 and BLAKE2s-256
//! (unkeyed and keyed) implemented from scratch, a simulation-grade signature scheme, and
//! the signature sets / quorum certificates that Hamava's certificates (`Σ`, `Σ'`,
//! commit certificates) are built from.
//!
//! ## Simulation signatures
//!
//! The paper's deployments use real public-key signatures. In this reproduction all
//! replicas run inside one process, so unforgeability is enforced structurally: a
//! replica can only produce signatures through its own [`Keypair`] handle, and a
//! shared [`KeyRegistry`] lets any replica verify any signature (keyed BLAKE2s-256
//! over the message digest under the signer's registered secret). The *cost* of signing and
//! verifying is modelled separately by the simulator's cost model so that certificate
//! verification still shows up in latency breakdowns. This substitution is documented
//! in `DESIGN.md` §1.
//!
//! ## Two hash functions
//!
//! SHA-256 is the tree's digest: block and message digests, the derivation of
//! the replicas' secrets, the checkpoint fold and the counter entries.
//! BLAKE2s-256 does two jobs. Unkeyed it hashes the leaf of every committed
//! KV value (`ava-state`), the one place where hashing long inputs is a large
//! share of a run's host time: a round's leaves go [`blake2s::LANES`] at a
//! time through [`blake2s::blake2s_many`]. Keyed ([`Blake2sKey`]) it is the
//! tag of every signature: one compression per tag, where HMAC-SHA-256 took
//! two. The key length in BLAKE2's parameter block keeps the two uses apart.

pub mod blake2s;
pub mod cert;
pub mod keys;
pub mod sha256;

pub use blake2s::{blake2s, Blake2sKey};
pub use cert::{verdict_stats, QuorumCert, SigSet, VerdictStats};
pub use keys::{tag_memo_stats, KeyRegistry, Keypair, Signature, TagMemoStats};
pub use sha256::{sha256, Digest, Sha256};

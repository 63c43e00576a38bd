//! # ava-crypto
//!
//! Cryptographic substrate for the Hamava reproduction: SHA-256 and HMAC-SHA-256
//! implemented from scratch, a simulation-grade signature scheme, and the signature
//! sets / quorum certificates that Hamava's certificates (`Σ`, `Σ'`, commit
//! certificates) are built from.
//!
//! ## Simulation signatures
//!
//! The paper's deployments use real public-key signatures. In this reproduction all
//! replicas run inside one process, so unforgeability is enforced structurally: a
//! replica can only produce signatures through its own [`Keypair`] handle, and a
//! shared [`KeyRegistry`] lets any replica verify any signature (HMAC over the
//! message digest under the signer's registered secret). The *cost* of signing and
//! verifying is modelled separately by the simulator's cost model so that certificate
//! verification still shows up in latency breakdowns. This substitution is documented
//! in `DESIGN.md` §1.

pub mod cert;
pub mod hmac;
pub mod keys;
pub mod sha256;

pub use cert::{QuorumCert, SigSet};
pub use hmac::{hmac_sha256, HmacKey};
pub use keys::{KeyRegistry, Keypair, Signature};
pub use sha256::{sha256, Digest, Sha256};

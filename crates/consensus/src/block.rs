//! Blocks: the unit of agreement of the local total-order broadcast.
//!
//! A block is a batch of operations proposed by the cluster leader at a given height.
//! Once a quorum of the cluster signs it, the block plus its [`QuorumCert`] forms a
//! [`CommittedBlock`], which is exactly what Stage 2 ships to other clusters ("each
//! operation is paired with a certificate of consensus", §II-A).
//!
//! Blocks are immutable once built (construct via [`Block::new`]) and memoise their
//! digest and wire size: proposals travel as `Arc<Block>`, so every replica that
//! receives a clone of the same proposal shares one digest computation instead of
//! re-hashing the full batch (see `DESIGN.md` §4).

use ava_crypto::{Digest, QuorumCert};
use ava_types::{ClusterId, Encode, EncodeSink, Operation, ReplicaId};
use std::sync::{Arc, OnceLock};

/// A proposed batch of operations.
///
/// The payload fields are public for reading; treat a constructed block as
/// immutable — `digest()` and `wire_size()` memoise their first result, so mutating
/// `ops` after construction would make the caches stale. A block has no
/// by-value `Clone`, since a copy would carry the memo past an edit; it is
/// shared behind an `Arc` and a changed block is built anew with
/// [`Block::new`].
pub struct Block {
    /// The cluster in which the block was proposed.
    pub cluster: ClusterId,
    /// Consecutive height within the cluster's local log.
    pub height: u64,
    /// The replica that proposed the block.
    pub proposer: ReplicaId,
    /// The operations, in the proposed order.
    pub ops: Vec<Operation>,
    /// Memoised canonical digest.
    digest_cache: OnceLock<Digest>,
    /// Memoised approximate wire size.
    wire_size_cache: OnceLock<usize>,
}

impl Block {
    /// Build a block from its parts.
    pub fn new(cluster: ClusterId, height: u64, proposer: ReplicaId, ops: Vec<Operation>) -> Self {
        Block {
            cluster,
            height,
            proposer,
            ops,
            digest_cache: OnceLock::new(),
            wire_size_cache: OnceLock::new(),
        }
    }

    /// Canonical digest of the block (what votes and certificates sign).
    /// Computed once and memoised.
    pub fn digest(&self) -> Digest {
        *self.digest_cache.get_or_init(|| Digest::of(self))
    }

    /// Number of transactions in the block (control operations — reconfiguration
    /// sets, round-cut markers — are not counted).
    pub fn tx_count(&self) -> usize {
        self.ops.iter().filter(|o| matches!(o, Operation::Trans(_))).count()
    }

    /// Approximate wire size of the block in bytes. Computed once and memoised.
    pub fn wire_size(&self) -> usize {
        *self.wire_size_cache.get_or_init(|| {
            64 + self
                .ops
                .iter()
                .map(|o| match o {
                    Operation::Trans(t) => t.payload_size as usize + 32,
                    Operation::ReconfigSet { recs, .. } => recs.len() * 64 + 40,
                    Operation::RoundCut { .. } => 16,
                })
                .sum::<usize>()
        })
    }
}

impl PartialEq for Block {
    fn eq(&self, other: &Self) -> bool {
        self.cluster == other.cluster
            && self.height == other.height
            && self.proposer == other.proposer
            && self.ops == other.ops
    }
}

impl Eq for Block {}

impl std::fmt::Debug for Block {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Block")
            .field("cluster", &self.cluster)
            .field("height", &self.height)
            .field("proposer", &self.proposer)
            .field("ops", &self.ops)
            .finish()
    }
}

impl Encode for Block {
    fn encode(&self, out: &mut dyn EncodeSink) {
        self.cluster.encode(out);
        self.height.encode(out);
        self.proposer.encode(out);
        self.ops.encode(out);
    }
}

/// A block together with the quorum certificate that committed it.
///
/// Block and certificate are `Arc`-shared: a committed block flows from the
/// local TOB into the round package and from there to every remote replica, and
/// none of those hops needs its own copy of the operation batch or the
/// signatures. A certificate shared this way also shares its verdict memo
/// ([`QuorumCert::is_valid`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CommittedBlock {
    /// The committed block.
    pub block: Arc<Block>,
    /// Quorum certificate over the block digest, signed by the block's cluster.
    pub cert: Arc<QuorumCert>,
}

impl CommittedBlock {
    /// Verify the certificate against a membership view of the originating cluster.
    ///
    /// `members` and `quorum` must come from the verifier's *current* membership map
    /// for `block.cluster` — this is the heterogeneity-critical check discussed in
    /// §II-B of the paper.
    pub fn verify(
        &self,
        registry: &ava_crypto::KeyRegistry,
        members: &[ReplicaId],
        quorum: usize,
    ) -> bool {
        self.cert.cluster() == self.block.cluster
            && self.cert.is_valid(registry, &self.block.digest(), members, quorum)
    }

    /// Approximate wire size (block + signatures).
    pub fn wire_size(&self) -> usize {
        self.block.wire_size() + self.cert.signature_count() * 48
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ava_crypto::{KeyRegistry, SigSet};
    use ava_types::{ClientId, Transaction};

    /// The `Arc`-shared payloads must stay thread-safe (`OnceLock`/`Mutex` memos,
    /// not `Cell`/`RefCell`) so future parallel drivers can move deployments and
    /// messages across threads.
    #[test]
    fn shared_payloads_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Block>();
        assert_send_sync::<CommittedBlock>();
        assert_send_sync::<QuorumCert>();
    }

    fn block(n_tx: usize) -> Block {
        Block::new(
            ClusterId(0),
            3,
            ReplicaId(1),
            (0..n_tx)
                .map(|i| {
                    Operation::Trans(Transaction::write(ClientId(0), i as u64, i as u64, 1024))
                })
                .collect(),
        )
    }

    #[test]
    fn digest_changes_with_content() {
        assert_ne!(block(2).digest(), block(3).digest());
        assert_eq!(block(2).digest(), block(2).digest());
    }

    #[test]
    fn cached_digest_matches_fresh_computation() {
        let b = block(5);
        let first = b.digest();
        // Second call hits the memo; an identical uncached block must agree.
        assert_eq!(first, b.digest());
        assert_eq!(first, block(5).digest());
        assert_eq!(first, Digest::of(&b));
    }

    #[test]
    fn wire_size_tracks_payloads() {
        assert!(block(10).wire_size() > 10 * 1024);
        assert!(block(1).wire_size() < block(10).wire_size());
    }

    #[test]
    fn committed_block_verification_uses_current_quorum() {
        let reg = KeyRegistry::new();
        let kps: Vec<_> = (0..4).map(|i| reg.register(ReplicaId(i))).collect();
        let members: Vec<ReplicaId> = (0..4).map(ReplicaId).collect();
        let b = block(2);
        let digest = b.digest();
        let sigs: SigSet = kps[..3].iter().map(|kp| kp.sign(&digest)).collect();
        let cb = CommittedBlock {
            block: Arc::new(b),
            cert: Arc::new(QuorumCert::new(ClusterId(0), digest, sigs)),
        };
        assert!(cb.verify(&reg, &members, 3));
        // With a grown cluster (quorum 5) the same certificate no longer validates.
        let grown: Vec<ReplicaId> = (0..7).map(ReplicaId).collect();
        assert!(!cb.verify(&reg, &grown, 5));
    }

    #[test]
    fn a_block_rebuilt_with_one_operation_fewer_fails_the_original_certificate() {
        let reg = KeyRegistry::new();
        let kps: Vec<_> = (0..4).map(|i| reg.register(ReplicaId(i))).collect();
        let members: Vec<ReplicaId> = (0..4).map(ReplicaId).collect();
        let b = block(4);
        let digest = b.digest();
        let sigs = kps.iter().map(|kp| kp.sign(&digest)).collect();
        let cert = Arc::new(QuorumCert::new(ClusterId(0), digest, sigs));
        let fewer = Block::new(b.cluster, b.height, b.proposer, b.ops[..3].to_vec());
        let original = CommittedBlock { block: Arc::new(b), cert: cert.clone() };
        assert!(original.verify(&reg, &members, 3));
        let altered = CommittedBlock { block: Arc::new(fewer), cert };
        assert!(!altered.verify(&reg, &members, 3));
    }

    #[test]
    fn verification_rejects_mismatched_cluster() {
        let reg = KeyRegistry::new();
        let kp = reg.register(ReplicaId(0));
        let b = block(1);
        let digest = b.digest();
        let sigs: SigSet = [kp.sign(&digest)].into_iter().collect();
        let cb = CommittedBlock {
            block: Arc::new(b),
            cert: Arc::new(QuorumCert::new(ClusterId(9), digest, sigs)),
        };
        assert!(!cb.verify(&reg, &[ReplicaId(0)], 1));
    }
}

//! The wire message set of a Hamava deployment.
//!
//! One simulation exchanges a single message enum covering every sub-protocol: the
//! pluggable local total-order broadcast, BRD, leader election, remote leader change,
//! the inter-cluster broadcast of Stage 2, the reconfiguration collection messages,
//! and client traffic. The enum is generic over the TOB's message type so the same
//! replica works for AVA-HOTSTUFF and AVA-BFTSMART.

use crate::brd::{BrdCert, BrdMsg};
use crate::leader_election::ElectionMsg;
use crate::remote_leader::RemoteLeaderMsg;
use crate::views::Views;
use ava_consensus::{CommittedBlock, WireSize};
use ava_crypto::{Digest, KeyRegistry, Keypair, Sha256, Signature};
use ava_simnet::SimMessage;
use ava_state::StateSnapshot;
use ava_store::{Checkpoint, StoredEntry};
use ava_types::{
    ClusterId, Encode, EncodeSink, Reconfig, Region, ReplicaId, Round, Transaction, TxId,
};
use std::sync::{Arc, OnceLock};

/// Everything a cluster ships to other clusters for one round: its committed blocks
/// (with consensus certificates) and its agreed reconfiguration set (with the BRD
/// delivery certificate). This is the payload of the paper's `Inter` and `Local`
/// messages (Alg. 1).
///
/// Packages travel inside [`AvaMsg::Inter`]/[`AvaMsg::LocalShare`] behind an `Arc`,
/// so an n-recipient fan-out clones a pointer, not the blocks. Construct via
/// [`RoundPackage::new`] and treat the built package as immutable: `wire_size()`
/// memoises its first result (see `DESIGN.md` §4).
#[derive(Clone)]
pub struct RoundPackage {
    /// The originating cluster.
    pub cluster: ClusterId,
    /// The round the package belongs to.
    pub round: Round,
    /// Committed transaction blocks of the round, each with its quorum certificate.
    pub blocks: Vec<CommittedBlock>,
    /// The reconfiguration set agreed for the round.
    pub recs: Vec<Reconfig>,
    /// BRD certificate for `recs` (absent when the parallel reconfiguration workflow
    /// is disabled and reconfigurations travel inside the blocks instead).
    pub recs_cert: Option<BrdCert>,
    /// Memoised approximate wire size.
    wire_size_cache: OnceLock<usize>,
}

impl std::fmt::Debug for RoundPackage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoundPackage")
            .field("cluster", &self.cluster)
            .field("round", &self.round)
            .field("blocks", &self.blocks)
            .field("recs", &self.recs)
            .field("recs_cert", &self.recs_cert)
            .finish()
    }
}

impl RoundPackage {
    /// Build a package from its parts.
    pub fn new(
        cluster: ClusterId,
        round: Round,
        blocks: Vec<CommittedBlock>,
        recs: Vec<Reconfig>,
        recs_cert: Option<BrdCert>,
    ) -> Self {
        RoundPackage { cluster, round, blocks, recs, recs_cert, wire_size_cache: OnceLock::new() }
    }

    /// Number of transactions carried by the package.
    pub fn tx_count(&self) -> usize {
        self.blocks.iter().map(|b| b.block.tx_count()).sum()
    }

    /// Digest of the package *content* (cluster, round, block digests,
    /// reconfiguration set) — certificate signatures excluded. Two honest
    /// packages for the same `(cluster, round)` always match content-wise, so a
    /// mismatch between same-slot packages is equivocation evidence. Not
    /// memoised: the only caller is the duplicate-package conflict check, which
    /// honest runs reach only with pointer-equal `Arc`s (no digest computed).
    pub fn content_digest(&self) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(&self.cluster.0.to_le_bytes());
        h.update(&self.round.0.to_le_bytes());
        h.update(&(self.blocks.len() as u64).to_le_bytes());
        for b in &self.blocks {
            h.update(&b.block.digest().0);
        }
        for rec in &self.recs {
            h.update(format!("{rec:?}").as_bytes());
        }
        h.finalize()
    }

    /// Approximate wire size in bytes. Computed once and memoised, so sizing the
    /// same shared package for every recipient of a fan-out is O(1).
    pub fn wire_size(&self) -> usize {
        *self.wire_size_cache.get_or_init(|| {
            self.blocks.iter().map(|b| b.wire_size()).sum::<usize>()
                + self.recs.len() * 64
                + self.recs_cert.as_ref().map(|c| c.wire_size()).unwrap_or(0)
                + 64
        })
    }
}

/// Everything one executed round consumed, across all clusters: the per-cluster
/// certified [`RoundPackage`]s Stage 3 ordered and applied. This is the unit the
/// `ava-store` round log persists (write-ahead, before execution) and the unit the
/// catch-up protocol transfers — a restarted replica re-executes records instead of
/// re-running consensus for missed rounds.
///
/// Packages are `Arc`-shared with the messages they arrived in, so persisting a
/// round or shipping a catch-up suffix costs pointer bumps, not block copies.
#[derive(Clone, Debug)]
pub struct RoundRecord {
    /// The executed round.
    pub round: Round,
    /// The round's packages, in ascending cluster order (the paper's predefined
    /// execution order).
    pub packages: Vec<Arc<RoundPackage>>,
    /// Memoised approximate wire size.
    wire_size_cache: OnceLock<usize>,
}

impl RoundRecord {
    /// Build a record from the packages of one executed round.
    pub fn new(round: Round, packages: Vec<Arc<RoundPackage>>) -> Self {
        RoundRecord { round, packages, wire_size_cache: OnceLock::new() }
    }

    /// Approximate serialized size in bytes. Computed once and memoised (each
    /// package's size is itself memoised).
    pub fn wire_size(&self) -> usize {
        *self
            .wire_size_cache
            .get_or_init(|| 16 + self.packages.iter().map(|p| p.wire_size()).sum::<usize>())
    }
}

impl StoredEntry for RoundRecord {
    fn round(&self) -> Round {
        self.round
    }

    fn wire_size(&self) -> usize {
        RoundRecord::wire_size(self)
    }
}

/// A broker-certified batch of client operations, submitted into the
/// cluster-local ordering path as one unit.
///
/// The broker signs the digest of `(broker, id, ops)` once; the admitting
/// replica verifies that single signature (memoized by the [`KeyRegistry`], and
/// charged as `CostModel::batch_cost`) instead of paying per-request admission
/// cost — the amortization the broker tier exists for. Batches travel behind an
/// `Arc`, so a retry resend is a pointer bump.
pub struct TxBatch {
    /// The broker actor's node id (the signer).
    pub broker: ReplicaId,
    /// Broker-local batch sequence number; `(broker, id)` identifies the batch
    /// for replica-side duplicate suppression when a retry races the original.
    pub id: u64,
    /// The batched operations, in broker queue order.
    pub ops: Vec<Transaction>,
    /// The broker's signature over [`TxBatch::digest`].
    pub sig: Signature,
    /// Memoised canonical digest.
    digest_cache: OnceLock<Digest>,
    /// Memoised approximate wire size.
    wire_size_cache: OnceLock<usize>,
}

impl std::fmt::Debug for TxBatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxBatch")
            .field("broker", &self.broker)
            .field("id", &self.id)
            .field("ops", &self.ops.len())
            .finish()
    }
}

/// Canonical encoding of the signed part of a batch (everything but the
/// signature itself).
struct TxBatchParts<'a>(ReplicaId, u64, &'a [Transaction]);

impl Encode for TxBatchParts<'_> {
    fn encode(&self, out: &mut dyn EncodeSink) {
        self.0.encode(out);
        self.1.encode(out);
        (self.2.len() as u64).encode(out);
        for tx in self.2 {
            tx.encode(out);
        }
    }
}

impl TxBatch {
    /// Build and sign a batch with the broker's keypair.
    pub fn new(broker: ReplicaId, id: u64, ops: Vec<Transaction>, keypair: &Keypair) -> Self {
        let digest = Digest::of(&TxBatchParts(broker, id, &ops));
        let sig = keypair.sign(&digest);
        let batch = TxBatch {
            broker,
            id,
            ops,
            sig,
            digest_cache: OnceLock::new(),
            wire_size_cache: OnceLock::new(),
        };
        let _ = batch.digest_cache.set(digest);
        batch
    }

    /// The canonical digest of the batch contents (memoised).
    pub fn digest(&self) -> Digest {
        *self
            .digest_cache
            .get_or_init(|| Digest::of(&TxBatchParts(self.broker, self.id, &self.ops)))
    }

    /// Verify the broker's signature over the batch contents.
    pub fn verify(&self, registry: &KeyRegistry) -> bool {
        registry.verify(&self.digest(), &self.sig)
    }

    /// Approximate wire size in bytes (memoised).
    pub fn wire_size(&self) -> usize {
        *self.wire_size_cache.get_or_init(|| {
            96 + self.ops.iter().map(|t| t.payload_size as usize + 48).sum::<usize>()
        })
    }
}

/// Commands injected by experiments and examples (not part of the protocol: they model
/// an operator acting on a specific replica). Adversaries are not commands: a
/// Byzantine replica is a [`CorruptReplica`](crate::CorruptReplica) behavior.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ControlCmd {
    /// Ask the replica to request leaving its cluster.
    RequestLeave,
}

/// Commands injected by experiments targeting a *client* actor (the scenario API's
/// workload events; not part of the protocol).
#[derive(Clone, Debug)]
pub enum ClientCtl {
    /// Replace the client's workload generator spec mid-run (the scenario API's
    /// `WorkloadSwitch` event). The client's transaction sequence counter keeps
    /// running, so ids issued after the switch never collide with earlier ones.
    SwitchWorkload(ava_workload::WorkloadSpec),
}

/// The top-level message enum of a Hamava deployment.
#[derive(Clone, Debug)]
pub enum AvaMsg<TM> {
    /// Local total-order broadcast traffic.
    Tob(TM),
    /// Byzantine Reliable Dissemination traffic (reconfiguration dissemination).
    Brd(BrdMsg),
    /// Leader election complaints.
    Election(ElectionMsg),
    /// Remote leader change traffic.
    RemoteLeader(RemoteLeaderMsg),
    /// Stage 2: leader-to-remote-cluster package (the paper's `Inter`). Arc-shared:
    /// the per-recipient clone of the fan-out is a pointer bump.
    Inter(Arc<RoundPackage>),
    /// Stage 2: local re-broadcast of a remote package (the paper's `Local`).
    LocalShare(Arc<RoundPackage>),
    /// Stage 2: ask a replica that provably executed `round` for `cluster`'s
    /// package of it; the answer is an ordinary [`AvaMsg::Inter`] (see
    /// [`crate::relay`]).
    InterPull {
        /// The round the requester is still in.
        round: Round,
        /// The cluster whose package it misses.
        cluster: ClusterId,
    },
    /// Reconfiguration collection: a replica asks to join (Alg. 3).
    RequestJoin {
        /// The joining replica.
        replica: ReplicaId,
        /// Its region.
        region: Region,
        /// The requester's view of the current round.
        round: Round,
    },
    /// Reconfiguration collection: a replica asks to leave (Alg. 3).
    RequestLeave {
        /// The leaving replica.
        replica: ReplicaId,
        /// The requester's view of the current round.
        round: Round,
    },
    /// Acknowledgement of a join/leave request (Alg. 3 line 18).
    Ack {
        /// The acknowledging replica's cluster members.
        members: Vec<ReplicaId>,
        /// Its current round.
        round: Round,
    },
    /// State transfer to a joining replica (Alg. 10 line 33).
    CurrState {
        /// The sender's full state-machine snapshot (counter or keyed KV,
        /// matching the deployment's configured machine): its own state
        /// version, shared with its live state rather than copied.
        state: StateSnapshot,
        /// The sender's membership views, boxed so this (largest) variant does
        /// not inflate every `AvaMsg` moved through the event queue. The joiner
        /// adopts its trailing view too, so it verifies in-flight packages
        /// certified by outgoing members exactly like its established peers.
        views: Box<Views>,
        /// The round the joining replica should start participating in.
        round: Round,
        /// The sender's current leader timestamp for the cluster.
        leader_ts: u64,
        /// The first local-log height not yet packed into an executed round —
        /// where the joiner must anchor its own block-stream consumption so its
        /// round packages match the cluster's (see `Checkpoint::next_height`).
        next_height: u64,
    },
    /// Catch-up: a restarted (or lagging) replica asks a cluster peer for the
    /// state it missed. The reply goes to the sender (see [`crate::catchup`]).
    CatchUpRequest,
    /// Catch-up: a peer's state transfer — its latest checkpoint plus the round-log
    /// suffix after it. The requester adopts a checkpoint only once `f + 1`
    /// distinct members of its cluster report the same digest, and verifies every
    /// suffix package's certificates before replaying it.
    CatchUpReply {
        /// The sender's latest checkpoint (synthesized from current state when the
        /// sender runs without a store).
        checkpoint: Arc<Checkpoint>,
        /// Round records after the checkpoint, ascending (empty for synthesized
        /// checkpoints, which already cover everything executed).
        suffix: Vec<Arc<RoundRecord>>,
        /// The sender's current (in-progress) round — the round the requester
        /// rejoins at when it adopts this reply.
        round: Round,
        /// The sender's current leader timestamp for the cluster.
        leader_ts: u64,
    },
    /// A client transaction request.
    ClientRequest {
        /// The transaction; its id names the issuing client.
        tx: Transaction,
    },
    /// The reply to a client transaction.
    ClientResponse {
        /// The completed transaction.
        tx: TxId,
        /// Whether it was a write (went through the three stages).
        is_write: bool,
        /// Bytes of value payload carried back (reads and scans against the
        /// keyed KV machine; zero for writes and for the legacy counter
        /// machine, which keeps counter-run reply sizes byte-identical).
        value_len: u32,
    },
    /// Aggregate workload → broker: one tick's worth of virtual-client
    /// submissions (the collapsed open-loop arrival stream).
    BrokerSubmit {
        /// The submitted operations, in arrival order.
        ops: Vec<Transaction>,
    },
    /// Broker → replica: a certified batch submitted into the cluster-local
    /// ordering path.
    BatchSubmit(Arc<TxBatch>),
    /// Replica → broker: batch admission acknowledgement. Releases the broker's
    /// in-flight slot; read operations are answered inline (reads never enter
    /// the three stages), write acknowledgements follow per-operation via
    /// [`AvaMsg::ClientResponse`] when the ordering round executes.
    BatchReply {
        /// The acknowledged batch's broker-local sequence number.
        batch: u64,
        /// Read operations served locally by the admitting replica.
        reads: Vec<TxId>,
    },
    /// Broker → aggregate workload: completed and shed operations fanned back
    /// to the virtual clients.
    BrokerDeliver {
        /// Completed operations as `(transaction, is_write)`.
        acks: Vec<(TxId, bool)>,
        /// Operations shed under overload (queue full); the aggregate re-queues
        /// them with backoff, preserving the original issue time.
        shed: Vec<Transaction>,
    },
    /// Experiment control command.
    Control(ControlCmd),
    /// Experiment control command addressed to a client actor.
    ClientControl(ClientCtl),
}

impl<TM: WireSize> SimMessage for AvaMsg<TM>
where
    TM: Clone + Send,
{
    fn size_bytes(&self) -> usize {
        match self {
            AvaMsg::Tob(m) => m.wire_size(),
            AvaMsg::Brd(m) => m.wire_size(),
            AvaMsg::Election(m) => m.wire_size(),
            AvaMsg::RemoteLeader(m) => m.wire_size(),
            AvaMsg::Inter(p) | AvaMsg::LocalShare(p) => p.wire_size(),
            AvaMsg::RequestJoin { .. } | AvaMsg::RequestLeave { .. } => 96,
            AvaMsg::Ack { members, .. } => 64 + members.len() * 8,
            AvaMsg::CurrState { state, views, .. } => 128 + state.wire_bytes() + views.wire_size(),
            AvaMsg::InterPull { .. } | AvaMsg::CatchUpRequest => 72,
            AvaMsg::CatchUpReply { checkpoint, suffix, .. } => {
                80 + checkpoint.wire_size() + suffix.iter().map(|r| r.wire_size()).sum::<usize>()
            }
            AvaMsg::ClientRequest { tx, .. } => tx.payload_size as usize + 64,
            AvaMsg::ClientResponse { value_len, .. } => 64 + *value_len as usize,
            AvaMsg::BrokerSubmit { ops } => {
                32 + ops.iter().map(|t| t.payload_size as usize + 48).sum::<usize>()
            }
            AvaMsg::BatchSubmit(batch) => batch.wire_size(),
            AvaMsg::BatchReply { reads, .. } => 48 + reads.len() * 16,
            AvaMsg::BrokerDeliver { acks, shed } => {
                32 + acks.len() * 24
                    + shed.iter().map(|t| t.payload_size as usize + 48).sum::<usize>()
            }
            AvaMsg::Control(_) | AvaMsg::ClientControl(_) => 32,
        }
    }

    fn kind_label(&self) -> &'static str {
        match self {
            AvaMsg::Tob(m) => m.kind_label(),
            AvaMsg::Brd(m) => m.kind_label(),
            AvaMsg::Election(_) => "Election",
            AvaMsg::RemoteLeader(_) => "RemoteLeader",
            AvaMsg::Inter(_) => "Inter",
            AvaMsg::LocalShare(_) => "LocalShare",
            AvaMsg::InterPull { .. } => "InterPull",
            AvaMsg::RequestJoin { .. } => "RequestJoin",
            AvaMsg::RequestLeave { .. } => "RequestLeave",
            AvaMsg::Ack { .. } => "Ack",
            AvaMsg::CurrState { .. } => "CurrState",
            AvaMsg::CatchUpRequest => "CatchUpRequest",
            AvaMsg::CatchUpReply { .. } => "CatchUpReply",
            AvaMsg::ClientRequest { tx, .. } if tx.kind.is_write() => "ClientRequest.write",
            AvaMsg::ClientRequest { .. } => "ClientRequest.read",
            AvaMsg::ClientResponse { .. } => "ClientResponse",
            AvaMsg::BrokerSubmit { .. } => "BrokerSubmit",
            AvaMsg::BatchSubmit(_) => "BatchSubmit",
            AvaMsg::BatchReply { .. } => "BatchReply",
            AvaMsg::BrokerDeliver { .. } => "BrokerDeliver",
            AvaMsg::Control(_) => "Control",
            AvaMsg::ClientControl(_) => "ClientControl",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ava_consensus::Block;
    use ava_crypto::{QuorumCert, SigSet};
    use ava_types::{ClientId, Operation};

    #[test]
    fn round_package_counts_and_sizes() {
        let registry = KeyRegistry::new();
        let kp = registry.register(ReplicaId(0));
        let block = Block::new(
            ClusterId(0),
            0,
            ReplicaId(0),
            vec![Operation::Trans(Transaction::write(ClientId(0), 0, 1, 1024))],
        );
        let digest = block.digest();
        let sigs: SigSet = [kp.sign(&digest)].into_iter().collect();
        let pkg = RoundPackage::new(
            ClusterId(0),
            Round(1),
            vec![CommittedBlock {
                block: std::sync::Arc::new(block),
                cert: std::sync::Arc::new(QuorumCert::new(ClusterId(0), digest, sigs)),
            }],
            vec![Reconfig::Leave { replica: ReplicaId(3) }],
            None,
        );
        assert_eq!(pkg.tx_count(), 1);
        assert!(pkg.wire_size() > 1024);
        // The memoised size is stable across calls and across clones.
        assert_eq!(pkg.wire_size(), pkg.clone().wire_size());
    }

    #[test]
    fn content_digest_commits_to_blocks_and_recs_but_not_certs() {
        let registry = KeyRegistry::new();
        let kp = registry.register(ReplicaId(0));
        let block = Block::new(
            ClusterId(0),
            0,
            ReplicaId(0),
            vec![Operation::Trans(Transaction::write(ClientId(0), 0, 1, 256))],
        );
        let digest = block.digest();
        let sigs: SigSet = [kp.sign(&digest)].into_iter().collect();
        let committed = CommittedBlock {
            block: std::sync::Arc::new(block),
            cert: std::sync::Arc::new(QuorumCert::new(ClusterId(0), digest, sigs)),
        };
        let base = RoundPackage::new(ClusterId(0), Round(1), vec![committed.clone()], vec![], None);
        let same = RoundPackage::new(ClusterId(0), Round(1), vec![committed.clone()], vec![], None);
        assert_eq!(base.content_digest(), same.content_digest());
        let tampered_recs = RoundPackage::new(
            ClusterId(0),
            Round(1),
            vec![committed.clone()],
            vec![Reconfig::Leave { replica: ReplicaId(u32::MAX) }],
            None,
        );
        assert_ne!(base.content_digest(), tampered_recs.content_digest());
        let other_round = RoundPackage::new(ClusterId(0), Round(2), vec![committed], vec![], None);
        assert_ne!(base.content_digest(), other_round.content_digest());
    }

    #[test]
    fn tx_batch_signs_and_verifies_once_per_batch() {
        let registry = KeyRegistry::new();
        let broker = ReplicaId(2_000_000);
        let kp = registry.register(broker);
        let ops: Vec<Transaction> =
            (0..10).map(|i| Transaction::write(ClientId(10_000_000), i, i, 128)).collect();
        let batch = TxBatch::new(broker, 7, ops, &kp);
        assert!(batch.verify(&registry));
        assert!(batch.wire_size() > 10 * 128);
        // A batch signed by an unregistered broker is rejected.
        let rogue = KeyRegistry::new().register(ReplicaId(2_000_001));
        let forged = TxBatch::new(ReplicaId(2_000_001), 7, Vec::new(), &rogue);
        assert!(!forged.verify(&registry));
        // Tampering with the contents breaks the signature.
        let mut tampered = TxBatch::new(broker, 7, batch.ops[..9].to_vec(), &kp);
        tampered.sig = batch.sig;
        assert!(!tampered.verify(&registry));
    }

    #[test]
    fn broker_message_sizes_scale_with_payload() {
        let registry = KeyRegistry::new();
        let kp = registry.register(ReplicaId(2_000_000));
        let ops: Vec<Transaction> =
            (0..5).map(|i| Transaction::write(ClientId(10_000_000), i, i, 1024)).collect();
        let m: AvaMsg<ava_hotstuff::HotStuffMsg> =
            AvaMsg::BatchSubmit(Arc::new(TxBatch::new(ReplicaId(2_000_000), 0, ops.clone(), &kp)));
        assert!(m.size_bytes() > 5 * 1024);
        let m: AvaMsg<ava_hotstuff::HotStuffMsg> = AvaMsg::BrokerSubmit { ops };
        assert!(m.size_bytes() > 5 * 1024);
        let m: AvaMsg<ava_hotstuff::HotStuffMsg> =
            AvaMsg::BatchReply { batch: 3, reads: vec![TxId { client: ClientId(1), seq: 0 }] };
        assert!(m.size_bytes() < 128);
    }

    #[test]
    fn message_sizes_are_plausible() {
        let m: AvaMsg<ava_hotstuff::HotStuffMsg> =
            AvaMsg::ClientRequest { tx: Transaction::write(ClientId(0), 0, 9, 1024) };
        assert!(m.size_bytes() >= 1024);
        let m: AvaMsg<ava_hotstuff::HotStuffMsg> = AvaMsg::Control(ControlCmd::RequestLeave);
        assert!(m.size_bytes() < 100);
    }
}

//! Measurement events emitted by protocol actors and collected by the simulator.
//!
//! The benchmark harness derives every figure of the paper (throughput, latency,
//! latency breakdown, time series around failures and reconfigurations) from this
//! stream of events.

use crate::ids::{ClientId, ClusterId, ReplicaId, Round, TxId};
use crate::time::Time;

/// The stage of a Hamava round, used for the E2 latency breakdown.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum StageKind {
    /// Stage 1: intra-cluster replication (local ordering + reconfiguration).
    IntraCluster,
    /// Stage 2: inter-cluster communication.
    InterCluster,
    /// Stage 3: ordering and execution.
    Execution,
}

impl StageKind {
    /// All stages, in protocol order.
    pub const ALL: [StageKind; 3] =
        [StageKind::IntraCluster, StageKind::InterCluster, StageKind::Execution];

    /// Human-readable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            StageKind::IntraCluster => "intra-cluster replication",
            StageKind::InterCluster => "inter-cluster communication",
            StageKind::Execution => "execution",
        }
    }
}

/// An observable event produced by the replicated system.
///
/// A run buffers one record per completed operation (and per stage, round and
/// flush), so the enum's size is paid a million times over in a long run: a
/// rare variant with a wide inline payload makes every `TxCompleted` as wide
/// as itself. So a wide payload is boxed, as the 32-byte digests of
/// `CheckpointInstalled`, `EquivocationObserved` and `StateDigest` are, and a
/// compile-time assertion in this module keeps every record within 56 bytes.
/// `Box<[u8; 32]>` prints as the array does, so the `Debug`-based
/// fingerprints do not see the box.
#[derive(Clone, PartialEq, Debug)]
pub enum Output {
    /// A transaction finished (executed for writes, served locally for reads).
    TxCompleted {
        /// The transaction.
        tx: TxId,
        /// Issuing client.
        client: ClientId,
        /// Cluster that processed it.
        cluster: ClusterId,
        /// Time the client issued it.
        issued_at: Time,
        /// Time the response was produced.
        completed_at: Time,
        /// Whether it was a write (went through the three stages).
        is_write: bool,
    },
    /// A replica finished a stage of a round (for the E2 breakdown).
    StageCompleted {
        /// Reporting replica.
        replica: ReplicaId,
        /// Its cluster.
        cluster: ClusterId,
        /// The round.
        round: Round,
        /// Which stage completed.
        stage: StageKind,
        /// When the stage started at this replica.
        started_at: Time,
        /// When it completed.
        completed_at: Time,
    },
    /// A replica executed a round (all three stages done).
    RoundExecuted {
        /// Reporting replica.
        replica: ReplicaId,
        /// Its cluster.
        cluster: ClusterId,
        /// The executed round.
        round: Round,
        /// Number of transactions executed in the round across all clusters.
        txns: usize,
        /// When execution finished.
        at: Time,
    },
    /// A reconfiguration was applied (the requesting replica joined or left).
    ReconfigApplied {
        /// The replica that joined or left.
        replica: ReplicaId,
        /// The cluster affected.
        cluster: ClusterId,
        /// True for join, false for leave.
        joined: bool,
        /// The round in which it took effect.
        round: Round,
        /// When it was applied.
        at: Time,
        /// The replica that applied (and reports) the reconfiguration. Every
        /// correct replica executing the round applies the same set, so grouping
        /// these events by `reporter` is how the fuzzer's reconfig-set agreement
        /// checker detects divergence.
        reporter: ReplicaId,
    },
    /// A cluster changed its local leader.
    LeaderChanged {
        /// The cluster whose leader changed.
        cluster: ClusterId,
        /// The new leader.
        new_leader: ReplicaId,
        /// The new leader timestamp.
        timestamp: u64,
        /// When the change happened (at the reporting replica).
        at: Time,
        /// The replica reporting the change.
        replica: ReplicaId,
    },
    /// A crashed replica restarted with only its persisted store and began
    /// catching up.
    ReplicaRestarted {
        /// The restarting replica.
        replica: ReplicaId,
        /// Its cluster.
        cluster: ClusterId,
        /// The round its durable store recovered to (checkpoint + local log
        /// replay); catch-up must cover everything after this.
        recovered_round: Round,
        /// Rounds replayed from the local round log during local recovery.
        log_rounds_replayed: u64,
        /// When the restart happened.
        at: Time,
    },
    /// A replica installed a checkpoint in its durable store (taken at the local
    /// cadence boundary or adopted from peers during catch-up). Checkpoint digests
    /// are round-deterministic, so every correct replica installing round `round`
    /// reports the same `digest` — the fuzzer's checkpoint-chain checker relies on
    /// this.
    CheckpointInstalled {
        /// The installing replica.
        replica: ReplicaId,
        /// Its cluster.
        cluster: ClusterId,
        /// The round the checkpoint covers.
        round: Round,
        /// The checkpoint's canonical digest (see `ava-store`).
        digest: Box<[u8; 32]>,
        /// Whether the snapshot was adopted from peers (catch-up) rather than
        /// taken locally at a cadence boundary.
        adopted: bool,
        /// When it was installed.
        at: Time,
    },
    /// A restarted (or stateless) replica finished state-transfer catch-up and
    /// rejoined ordering.
    RecoveryCompleted {
        /// The recovered replica.
        replica: ReplicaId,
        /// Its cluster.
        cluster: ClusterId,
        /// The round it rejoined at (current round of the cluster).
        round: Round,
        /// Rounds obtained from peers (checkpoint gap + transferred log suffix).
        rounds_transferred: u64,
        /// Bytes of checkpoint + log-suffix payload adopted from peers.
        bytes_transferred: u64,
        /// When catch-up completed.
        at: Time,
    },
    /// A broker cut a certified batch and submitted it into the ordering path
    /// (one event per flush), carrying the broker's flow-control state at the
    /// moment of the flush. The `BrokerStats` observer derives queue-depth,
    /// batch-occupancy and shed-rate series from this stream.
    BrokerFlushed {
        /// The broker actor's node id.
        broker: ReplicaId,
        /// The cluster the broker submits into.
        cluster: ClusterId,
        /// Operations in the flushed batch.
        ops: usize,
        /// Queue depth immediately after the flush.
        queue: usize,
        /// In-flight (submitted, unacknowledged) batches after the flush.
        inflight: usize,
        /// Total operations shed by this broker so far (overload backpressure).
        shed_total: u64,
        /// When the batch was flushed.
        at: Time,
    },
    /// A replica committed one operation of a broker batch (emitted by the
    /// replica that admitted the batch, at execution time). The fuzzer's
    /// broker-conservation checker matches these against the virtual-client
    /// acknowledgements to prove every acked operation is backed by exactly one
    /// commit.
    BatchOpCommitted {
        /// The replica that admitted the batch and reports the commit.
        replica: ReplicaId,
        /// Its cluster.
        cluster: ClusterId,
        /// The broker that submitted the batch.
        broker: ReplicaId,
        /// The broker-local batch sequence number.
        batch: u64,
        /// The committed transaction.
        tx: TxId,
        /// When it was committed.
        at: Time,
    },
    /// A replica rejected a message whose cryptographic material failed
    /// verification — evidence of a Byzantine sender. Honest replicas never
    /// produce unverifiable certificates or signatures, so in a run with no
    /// `Corrupt` event scheduled this output must never appear (the fuzzer's
    /// certificate-validity checker pins exactly that).
    ByzantineRejected {
        /// The rejecting replica.
        replica: ReplicaId,
        /// The cluster the rejected material claims to originate from.
        cluster: ClusterId,
        /// The round the rejected material belongs to.
        round: Round,
        /// What kind of material failed verification.
        kind: RejectKind,
        /// When the rejection happened.
        at: Time,
    },
    /// A replica observed two different round packages for the same
    /// `(cluster, round)` — equivocation evidence. Honest packages for one
    /// round are identical at every replica (they share one `Arc` through the
    /// fan-out and their content digests match), so this output can only
    /// follow a scheduled package-mutating `Corrupt` event.
    EquivocationObserved {
        /// The observing replica.
        replica: ReplicaId,
        /// The cluster both conflicting packages claim to originate from.
        cluster: ClusterId,
        /// The round both packages belong to.
        round: Round,
        /// Content digest of the package accepted first.
        first: Box<[u8; 32]>,
        /// Content digest of the conflicting package.
        second: Box<[u8; 32]>,
        /// When the conflict was observed.
        at: Time,
    },
    /// A replica's full state digest after executing a round. Emitted only by
    /// deployments running the keyed KV state machine (legacy counter runs
    /// never produce it, which keeps their output streams golden-stable). The
    /// digest is history-independent — a function of committed state only — so
    /// every correct replica, including ones that recovered via snapshot
    /// adoption, reports the same digest for the same round; the fuzzer's
    /// execution-agreement checker compares these across replicas.
    StateDigest {
        /// Reporting replica.
        replica: ReplicaId,
        /// Its cluster.
        cluster: ClusterId,
        /// The executed round the digest covers.
        round: Round,
        /// The machine's state digest after the round.
        digest: Box<[u8; 32]>,
        /// Number of keys present.
        entries: u64,
        /// Total committed value bytes.
        value_bytes: u64,
        /// When the round's execution finished.
        at: Time,
    },
    /// Free-form named measurement (used by benches for auxiliary series).
    Custom {
        /// Metric name.
        name: &'static str,
        /// Metric value.
        value: f64,
        /// When it was recorded.
        at: Time,
    },
}

// Every buffered record pays for the widest variant (see `Output`'s rustdoc).
const _: () = assert!(std::mem::size_of::<Output>() <= 56);

/// The kind of cryptographic material a [`Output::ByzantineRejected`] event
/// reports as failing verification.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum RejectKind {
    /// A round package whose block or BRD certificates failed verification
    /// (`Inter` or `LocalShare` path).
    PackageCert,
    /// A BRD `Echo`/`Ready` vote whose signature failed verification.
    BrdSignature,
    /// A `CatchUpReply` checkpoint whose stored digest does not match its
    /// content.
    CatchUpCheckpoint,
}

impl RejectKind {
    /// Human-readable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            RejectKind::PackageCert => "package-cert",
            RejectKind::BrdSignature => "brd-signature",
            RejectKind::CatchUpCheckpoint => "catch-up-checkpoint",
        }
    }
}

impl Output {
    /// The time the event refers to (completion time for transactions and stages).
    pub fn at(&self) -> Time {
        match self {
            Output::TxCompleted { completed_at, .. } => *completed_at,
            Output::StageCompleted { completed_at, .. } => *completed_at,
            Output::RoundExecuted { at, .. }
            | Output::ReconfigApplied { at, .. }
            | Output::LeaderChanged { at, .. }
            | Output::ReplicaRestarted { at, .. }
            | Output::CheckpointInstalled { at, .. }
            | Output::RecoveryCompleted { at, .. }
            | Output::BrokerFlushed { at, .. }
            | Output::BatchOpCommitted { at, .. }
            | Output::ByzantineRejected { at, .. }
            | Output::EquivocationObserved { at, .. }
            | Output::StateDigest { at, .. }
            | Output::Custom { at, .. } => *at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_labels_cover_all_stages() {
        for s in StageKind::ALL {
            assert!(!s.label().is_empty());
        }
    }

    #[test]
    fn output_at_returns_completion_time() {
        let o = Output::TxCompleted {
            tx: TxId { client: ClientId(0), seq: 1 },
            client: ClientId(0),
            cluster: ClusterId(0),
            issued_at: Time(10),
            completed_at: Time(42),
            is_write: true,
        };
        assert_eq!(o.at(), Time(42));
        let o = Output::Custom { name: "x", value: 1.0, at: Time(7) };
        assert_eq!(o.at(), Time(7));
    }

    #[test]
    fn byzantine_evidence_outputs_carry_their_time() {
        let o = Output::ByzantineRejected {
            replica: ReplicaId(3),
            cluster: ClusterId(1),
            round: Round(9),
            kind: RejectKind::PackageCert,
            at: Time(55),
        };
        assert_eq!(o.at(), Time(55));
        let o = Output::EquivocationObserved {
            replica: ReplicaId(3),
            cluster: ClusterId(1),
            round: Round(9),
            first: Box::new([1; 32]),
            second: Box::new([2; 32]),
            at: Time(56),
        };
        assert_eq!(o.at(), Time(56));
        for kind in
            [RejectKind::PackageCert, RejectKind::BrdSignature, RejectKind::CatchUpCheckpoint]
        {
            assert!(!kind.label().is_empty());
        }
    }

    /// The determinism goldens and the benchmark's `fingerprint` lines hash
    /// each output's `Debug` text. These strings were captured while the
    /// digests were inline `[u8; 32]`s; boxing them must not move one byte.
    #[test]
    fn digest_variants_print_as_they_did_inline() {
        let up: [u8; 32] = std::array::from_fn(|i| i as u8);
        let down: [u8; 32] = std::array::from_fn(|i| 255 - i as u8);
        let up_text = "[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, \
                       19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31]";
        let down_text = "[255, 254, 253, 252, 251, 250, 249, 248, 247, 246, 245, 244, 243, \
                         242, 241, 240, 239, 238, 237, 236, 235, 234, 233, 232, 231, 230, \
                         229, 228, 227, 226, 225, 224]";
        let checkpoint = Output::CheckpointInstalled {
            replica: ReplicaId(3),
            cluster: ClusterId(1),
            round: Round(40),
            digest: Box::new(up),
            adopted: true,
            at: Time::from_millis(4_250),
        };
        assert_eq!(
            format!("{checkpoint:?}"),
            format!(
                "CheckpointInstalled {{ replica: ReplicaId(3), cluster: ClusterId(1), \
                 round: Round(40), digest: {up_text}, adopted: true, at: Time(4250000) }}"
            )
        );
        let state = Output::StateDigest {
            replica: ReplicaId(7),
            cluster: ClusterId(2),
            round: Round(9),
            digest: Box::new(down),
            entries: 1_000,
            value_bytes: 1_024_000,
            at: Time(123_456_789),
        };
        assert_eq!(
            format!("{state:?}"),
            format!(
                "StateDigest {{ replica: ReplicaId(7), cluster: ClusterId(2), round: Round(9), \
                 digest: {down_text}, entries: 1000, value_bytes: 1024000, \
                 at: Time(123456789) }}"
            )
        );
        let equivocation = Output::EquivocationObserved {
            replica: ReplicaId(5),
            cluster: ClusterId(0),
            round: Round(12),
            first: Box::new(up),
            second: Box::new(down),
            at: Time::from_secs(3),
        };
        assert_eq!(
            format!("{equivocation:?}"),
            format!(
                "EquivocationObserved {{ replica: ReplicaId(5), cluster: ClusterId(0), \
                 round: Round(12), first: {up_text}, second: {down_text}, at: Time(3000000) }}"
            )
        );
    }
}

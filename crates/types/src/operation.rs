//! Operations replicated by Hamava: transactions and reconfiguration requests.
//!
//! A round replicates, per cluster, a batch of transactions (ordered by the local
//! total-order broadcast) plus one *set* of reconfiguration requests (agreed through
//! Byzantine Reliable Dissemination). Stage 3 executes the union of all clusters'
//! batches in a deterministic order.

use crate::encode::{Encode, EncodeSink};
use crate::ids::{ClientId, Region, ReplicaId, Round, TxId};

/// The kind of a YCSB-style key/value transaction.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TxKind {
    /// Read the value of `key`.
    Read { key: u64 },
    /// Write `value_size` bytes under `key`.
    Write { key: u64, value_size: u32 },
    /// Atomically write `value_size` bytes under each of `keys` (YCSB-style
    /// multi-key transaction; ordered through the three stages like a write).
    MultiWrite {
        /// The keys written, in application order.
        keys: Vec<u64>,
        /// Bytes written under each key.
        value_size: u32,
    },
    /// Range read: the values of the first `count` present keys at or after
    /// `start_key`. Served cluster-locally from committed state, like `Read`.
    Scan {
        /// First key of the range.
        start_key: u64,
        /// Maximum number of keys returned.
        count: u32,
    },
}

impl TxKind {
    /// Whether this is a write transaction (goes through the three stages).
    pub fn is_write(&self) -> bool {
        matches!(self, TxKind::Write { .. } | TxKind::MultiWrite { .. })
    }

    /// The primary key accessed by the transaction (the first key for
    /// multi-key writes, the range start for scans).
    pub fn key(&self) -> u64 {
        match self {
            TxKind::Read { key } | TxKind::Write { key, .. } => *key,
            TxKind::MultiWrite { keys, .. } => keys.first().copied().unwrap_or(0),
            TxKind::Scan { start_key, .. } => *start_key,
        }
    }
}

/// A client transaction.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Transaction {
    /// Globally unique id (client, sequence number).
    pub id: TxId,
    /// The key/value operation.
    pub kind: TxKind,
    /// Total request payload size in bytes (the paper uses 1 KB operations).
    pub payload_size: u32,
}

impl Transaction {
    /// Construct a write transaction.
    pub fn write(client: ClientId, seq: u64, key: u64, payload_size: u32) -> Self {
        Transaction {
            id: TxId { client, seq },
            kind: TxKind::Write { key, value_size: payload_size },
            payload_size,
        }
    }

    /// Construct a read transaction.
    pub fn read(client: ClientId, seq: u64, key: u64) -> Self {
        Transaction { id: TxId { client, seq }, kind: TxKind::Read { key }, payload_size: 64 }
    }

    /// Construct a multi-key write transaction: `value_size` bytes under each
    /// of `keys`. The request payload carries every value.
    pub fn multi_write(client: ClientId, seq: u64, keys: Vec<u64>, value_size: u32) -> Self {
        let payload_size = value_size.saturating_mul(keys.len().min(u32::MAX as usize) as u32);
        Transaction {
            id: TxId { client, seq },
            kind: TxKind::MultiWrite { keys, value_size },
            payload_size,
        }
    }

    /// Construct a range-read (scan) transaction over up to `count` keys
    /// starting at `start_key`.
    pub fn scan(client: ClientId, seq: u64, start_key: u64, count: u32) -> Self {
        Transaction {
            id: TxId { client, seq },
            kind: TxKind::Scan { start_key, count },
            payload_size: 64,
        }
    }
}

/// A single reconfiguration request: a replica joining or leaving a cluster.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Reconfig {
    /// `join(p)`: replica `p`, located in `region`, asks to join the cluster it sent
    /// the request to.
    Join { replica: ReplicaId, region: Region },
    /// `leave(p)`: replica `p` asks to leave its cluster.
    Leave { replica: ReplicaId },
}

impl Reconfig {
    /// The replica the request is about.
    pub fn replica(&self) -> ReplicaId {
        match *self {
            Reconfig::Join { replica, .. } | Reconfig::Leave { replica } => replica,
        }
    }

    /// Whether this is a join request.
    pub fn is_join(&self) -> bool {
        matches!(self, Reconfig::Join { .. })
    }
}

/// An operation replicated within a round: either a transaction or the set of
/// reconfigurations agreed for that round.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Operation {
    /// `Trans(p, t)` in the paper: a transaction issued by client `p`.
    Trans(Transaction),
    /// `Reconfig(rc)` in the paper: the reconfiguration set agreed for `round`.
    ///
    /// The round is part of the operation's identity: in the single-workflow
    /// ablation (E5.2) every round orders its set through the transaction
    /// total-order broadcast, whose pool deduplicates control operations by
    /// content — two different rounds' (often empty) sets must not collide, or
    /// every round after the first wedges in Stage 1 waiting for a set the pool
    /// swallowed.
    ReconfigSet {
        /// The round the set is agreed for.
        round: Round,
        /// The reconfiguration requests of the set.
        recs: Vec<Reconfig>,
    },
    /// A leader-ordered round-cut marker: closes `round`'s batch at the block
    /// that carries it. The timeout cut of Stage 1 must land at the same point
    /// of every replica's local log or peers partition the block stream into
    /// rounds differently and their round packages diverge — so instead of each
    /// replica cutting on its own clock, the leader orders the cut through the
    /// total-order broadcast and every replica cuts where the marker commits.
    /// A marker whose round is already closed (the batch filled first, or a
    /// second leader raced one in) is simply skipped.
    RoundCut {
        /// The round the marker closes.
        round: Round,
    },
}

impl Operation {
    /// Whether this operation is a reconfiguration set.
    pub fn is_reconfig(&self) -> bool {
        matches!(self, Operation::ReconfigSet { .. })
    }
}

/// The batch of operations a cluster replicates in one round: the ordered
/// transactions plus (at most) one reconfiguration set.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct OperationBatch {
    /// The round the batch belongs to.
    pub round: Round,
    /// Ordered operations (transactions first, then at most one reconfiguration set;
    /// the order within the batch is the local total-order).
    pub ops: Vec<Operation>,
}

impl OperationBatch {
    /// Create an empty batch for `round`.
    pub fn new(round: Round) -> Self {
        OperationBatch { round, ops: Vec::new() }
    }

    /// Number of transactions in the batch (markers and reconfiguration sets
    /// are control operations, not transactions).
    pub fn tx_count(&self) -> usize {
        self.ops.iter().filter(|o| matches!(o, Operation::Trans(_))).count()
    }

    /// The reconfiguration set of the batch, if any.
    pub fn reconfig_set(&self) -> Option<&Vec<Reconfig>> {
        self.ops.iter().find_map(|o| match o {
            Operation::ReconfigSet { recs, .. } => Some(recs),
            Operation::Trans(_) | Operation::RoundCut { .. } => None,
        })
    }

    /// Total payload bytes carried by the batch (used for message-size modelling).
    pub fn payload_bytes(&self) -> usize {
        self.ops
            .iter()
            .map(|o| match o {
                Operation::Trans(t) => t.payload_size as usize,
                Operation::ReconfigSet { recs, .. } => recs.len() * 64,
                Operation::RoundCut { .. } => 16,
            })
            .sum()
    }
}

impl Encode for TxKind {
    fn encode(&self, out: &mut dyn EncodeSink) {
        match self {
            TxKind::Read { key } => {
                out.write(&[0]);
                key.encode(out);
            }
            TxKind::Write { key, value_size } => {
                out.write(&[1]);
                key.encode(out);
                value_size.encode(out);
            }
            TxKind::MultiWrite { keys, value_size } => {
                out.write(&[2]);
                keys.encode(out);
                value_size.encode(out);
            }
            TxKind::Scan { start_key, count } => {
                out.write(&[3]);
                start_key.encode(out);
                count.encode(out);
            }
        }
    }
}

impl Encode for Transaction {
    fn encode(&self, out: &mut dyn EncodeSink) {
        self.id.encode(out);
        self.kind.encode(out);
        self.payload_size.encode(out);
    }
}

impl Encode for Reconfig {
    fn encode(&self, out: &mut dyn EncodeSink) {
        match *self {
            Reconfig::Join { replica, region } => {
                out.write(&[0]);
                replica.encode(out);
                region.encode(out);
            }
            Reconfig::Leave { replica } => {
                out.write(&[1]);
                replica.encode(out);
            }
        }
    }
}

impl Encode for Operation {
    fn encode(&self, out: &mut dyn EncodeSink) {
        match self {
            Operation::Trans(t) => {
                out.write(&[0]);
                t.encode(out);
            }
            Operation::ReconfigSet { round, recs } => {
                out.write(&[1]);
                round.encode(out);
                recs.encode(out);
            }
            Operation::RoundCut { round } => {
                out.write(&[2]);
                round.encode(out);
            }
        }
    }
}

impl Encode for OperationBatch {
    fn encode(&self, out: &mut dyn EncodeSink) {
        self.round.encode(out);
        self.ops.encode(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch() -> OperationBatch {
        let mut b = OperationBatch::new(Round(1));
        b.ops.push(Operation::Trans(Transaction::write(ClientId(0), 0, 7, 1024)));
        b.ops.push(Operation::Trans(Transaction::read(ClientId(0), 1, 9)));
        b.ops.push(Operation::ReconfigSet {
            round: Round(1),
            recs: vec![Reconfig::Leave { replica: ReplicaId(3) }],
        });
        b
    }

    #[test]
    fn tx_kind_accessors() {
        assert!(TxKind::Write { key: 1, value_size: 10 }.is_write());
        assert!(!TxKind::Read { key: 1 }.is_write());
        assert_eq!(TxKind::Read { key: 42 }.key(), 42);
    }

    #[test]
    fn multi_key_and_scan_kinds() {
        let mw = TxKind::MultiWrite { keys: vec![5, 9], value_size: 10 };
        assert!(mw.is_write(), "multi-key writes are ordered like writes");
        assert_eq!(mw.key(), 5);
        let scan = TxKind::Scan { start_key: 3, count: 4 };
        assert!(!scan.is_write(), "scans are served from committed state");
        assert_eq!(scan.key(), 3);
        assert_ne!(mw.encoded(), scan.encoded());
        assert_ne!(
            mw.encoded(),
            TxKind::MultiWrite { keys: vec![9, 5], value_size: 10 }.encoded(),
            "key order is part of the identity"
        );
    }

    #[test]
    fn batch_counts_transactions_and_finds_reconfigs() {
        let b = batch();
        assert_eq!(b.tx_count(), 2);
        assert_eq!(b.reconfig_set().unwrap().len(), 1);
        assert!(b.payload_bytes() >= 1024);
    }

    #[test]
    fn reconfig_accessors() {
        let j = Reconfig::Join { replica: ReplicaId(9), region: Region::Europe };
        assert!(j.is_join());
        assert_eq!(j.replica(), ReplicaId(9));
        assert!(!Reconfig::Leave { replica: ReplicaId(9) }.is_join());
    }

    #[test]
    fn reconfig_sets_of_different_rounds_encode_differently() {
        // The regression behind E5.2's "0 txns": round-less empty sets collided in
        // the total-order broadcast's dedup pool.
        let a = Operation::ReconfigSet { round: Round(1), recs: vec![] };
        let b = Operation::ReconfigSet { round: Round(2), recs: vec![] };
        assert_ne!(a.encoded(), b.encoded());
    }

    #[test]
    fn encoding_distinguishes_batches() {
        let a = batch();
        let mut b = batch();
        b.ops.pop();
        assert_ne!(a.encoded(), b.encoded());
        assert_eq!(a.encoded(), batch().encoded());
    }
}

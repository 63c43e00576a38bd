//! Client and broker intake: who waits on a write, and the bytes a read serves.
//!
//! A write enters the local total order of the cluster it was sent to (Alg. 7)
//! and every replica executes it, but only the replica that admitted it has
//! anyone waiting on it. That replica broadcast it in its own cluster's TOB, so
//! it can only ever execute inside its own cluster's package: [`Admission`]
//! answers from that package alone. The module decides; the replica sends the
//! answers and charges the virtual costs, and a restart replaces the value.

use crate::messages::{RoundPackage, TxBatch};
use ava_state::StateMachine;
use ava_types::{ClusterId, Operation, ReplicaId, Transaction, TxId, TxKind};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Who waits on an admitted write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Waiter {
    /// The node to answer: the client, or the broker that sent the batch.
    pub(crate) node: ReplicaId,
    /// For an operation admitted from a broker batch, its `(broker, batch id)`.
    pub(crate) batch: Option<(ReplicaId, u64)>,
}

/// The writes a replica admitted that wait on execution, and every broker
/// batch it admitted: a re-submission after a lost or slow reply gets an ack,
/// never a second admission.
#[derive(Debug, Default)]
pub(crate) struct Admission {
    waiting: HashMap<TxId, Waiter>,
    batches: BTreeSet<(ReplicaId, u64)>,
}

impl Admission {
    /// A client's write `tx`, sent by `from`, now waits on execution.
    pub(crate) fn admit_write(&mut self, from: ReplicaId, tx: TxId) {
        self.waiting.insert(tx, Waiter { node: from, batch: None });
    }

    /// Admit a verified broker batch sent by `from`: its writes now wait on
    /// execution. `false`, and nothing changes, if it was admitted before.
    pub(crate) fn admit_batch(&mut self, from: ReplicaId, batch: &TxBatch) -> bool {
        if !self.batches.insert((batch.broker, batch.id)) {
            return false;
        }
        let waiter = Waiter { node: from, batch: Some((batch.broker, batch.id)) };
        for tx in batch.ops.iter().filter(|tx| tx.kind.is_write()) {
            self.waiting.insert(tx.id, waiter);
        }
        true
    }

    /// Hand `answer` each waiting transaction of a round this replica executed
    /// or adopted, with its waiter, in execution order; each is answered once.
    /// Only the package of `own`, the replica's cluster, is walked, and an
    /// empty table walks none.
    pub(crate) fn on_executed<'a>(
        &mut self,
        own: ClusterId,
        packages: impl IntoIterator<Item = &'a Arc<RoundPackage>>,
        mut answer: impl FnMut(&Transaction, Waiter),
    ) {
        if self.waiting.is_empty() {
            return;
        }
        let blocks = packages.into_iter().filter(|p| p.cluster == own).flat_map(|p| &p.blocks);
        for block in blocks {
            for op in &block.block.ops {
                if let Operation::Trans(tx) = op {
                    if let Some(waiter) = self.waiting.remove(&tx.id) {
                        answer(tx, waiter);
                    }
                }
            }
        }
    }
}

/// The bytes a read serves from `machine`: the value's length for a `Read`,
/// every value in the range for a `Scan`; `None` for a write, which is ordered
/// instead.
pub(crate) fn served_bytes(machine: &dyn StateMachine, kind: &TxKind) -> Option<u64> {
    match *kind {
        TxKind::Read { key } => Some(u64::from(machine.read_len(key))),
        TxKind::Scan { start_key, count } => Some(machine.scan_bytes(start_key, count)),
        TxKind::Write { .. } | TxKind::MultiWrite { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ava_consensus::{Block, CommittedBlock};
    use ava_crypto::{KeyRegistry, QuorumCert, SigSet};
    use ava_state::{machine_for, StateMachineKind};
    use ava_types::{ClientId, Round};

    const CLIENT: ReplicaId = ReplicaId(100);
    const BROKER: ReplicaId = ReplicaId(200);

    fn write(seq: u64) -> Transaction {
        Transaction::write(ClientId(7), seq, seq, 8)
    }

    /// `cluster`'s package of round 1: one block per group of transactions.
    fn package(cluster: u32, blocks: &[&[Transaction]]) -> Arc<RoundPackage> {
        let cluster = ClusterId(cluster);
        let blocks = blocks
            .iter()
            .enumerate()
            .map(|(height, txs)| {
                let ops = txs.iter().cloned().map(Operation::Trans).collect();
                let block = Arc::new(Block::new(cluster, height as u64, ReplicaId(0), ops));
                let cert = Arc::new(QuorumCert::new(cluster, block.digest(), SigSet::default()));
                CommittedBlock { block, cert }
            })
            .collect();
        Arc::new(RoundPackage::new(cluster, Round(1), blocks, vec![], None))
    }

    /// What executing a round of `packages` answers at a replica of cluster 0.
    fn executed(admission: &mut Admission, packages: &[Arc<RoundPackage>]) -> Vec<(TxId, Waiter)> {
        let mut answered = Vec::new();
        admission.on_executed(ClusterId(0), packages, |tx, waiter| answered.push((tx.id, waiter)));
        answered
    }

    fn client(tx: &Transaction) -> (TxId, Waiter) {
        (tx.id, Waiter { node: CLIENT, batch: None })
    }

    fn batch(id: u64, ops: Vec<Transaction>) -> TxBatch {
        let registry = KeyRegistry::new();
        TxBatch::new(BROKER, id, ops, &registry.register(BROKER))
    }

    #[test]
    fn a_write_is_answered_once_when_its_own_package_executes() {
        let (w, other) = (write(1), write(2));
        let mut admission = Admission::default();
        admission.admit_write(CLIENT, w.id);
        let (w_only, other_only) = (std::slice::from_ref(&w), std::slice::from_ref(&other));
        assert_eq!(executed(&mut admission, &[package(0, &[other_only])]), vec![]);
        // The same transaction in another cluster's package is not this
        // replica's to answer.
        let remote = package(1, &[w_only]);
        assert_eq!(executed(&mut admission, &[Arc::clone(&remote)]), vec![]);
        let round = [package(0, &[other_only, w_only]), remote];
        assert_eq!(executed(&mut admission, &round), vec![client(&w)]);
        assert_eq!(executed(&mut admission, &round), vec![], "answered twice");
        assert!(admission.waiting.is_empty());
    }

    #[test]
    fn a_batch_operation_is_answered_to_the_broker_with_its_batch_in_execution_order() {
        let (w1, w2, w3) = (write(1), write(2), write(3));
        let mut admission = Admission::default();
        admission.admit_write(CLIENT, w2.id);
        assert!(admission.admit_batch(BROKER, &batch(9, vec![w3.clone(), w1.clone()])));
        let broker = |tx: &Transaction| (tx.id, Waiter { node: BROKER, batch: Some((BROKER, 9)) });
        let own = package(0, &[&[w1.clone(), w2.clone()], &[w3.clone()]]);
        assert_eq!(executed(&mut admission, &[own]), vec![broker(&w1), client(&w2), broker(&w3)]);
    }

    #[test]
    fn a_resubmitted_batch_is_acked_and_not_admitted_again() {
        let (w1, w2) = (write(1), write(2));
        let read = Transaction::read(ClientId(7), 3, 1);
        let sent = batch(4, vec![w1.clone(), read, w2.clone()]);
        let mut admission = Admission::default();
        assert!(admission.admit_batch(BROKER, &sent));
        assert_eq!(admission.waiting.len(), 2, "reads do not wait");
        assert!(!admission.admit_batch(BROKER, &sent), "admitted twice");
        assert!(admission.admit_batch(BROKER, &batch(5, vec![])), "another batch id");
        let own = [package(0, &[&[w1, w2]])];
        assert_eq!(executed(&mut admission, &own).len(), 2, "each write answered once");
        assert_eq!(executed(&mut admission, &own), vec![]);
    }

    #[test]
    fn reads_and_scans_serve_exactly_the_machines_bytes() {
        for kind in [StateMachineKind::Counter, StateMachineKind::Kv] {
            let mut machine = machine_for(kind);
            for key in [3, 5, 6, 40] {
                let tx = Transaction::write(ClientId(1), key, key, 100 + key as u32);
                machine.apply(Round(1), &tx);
            }
            for key in [0, 3, 5, 6, 40, 41] {
                let served = served_bytes(machine.as_ref(), &TxKind::Read { key });
                assert_eq!(served, Some(u64::from(machine.read_len(key))), "{kind:?} read {key}");
            }
            for (start_key, count) in [(0, 1), (4, 2), (0, 100), (41, 5)] {
                let served = served_bytes(machine.as_ref(), &TxKind::Scan { start_key, count });
                let bytes = machine.scan_bytes(start_key, count);
                assert_eq!(served, Some(bytes), "{kind:?} scan {start_key}+{count}");
            }
            assert_eq!(served_bytes(machine.as_ref(), &write(1).kind), None);
            let multi = Transaction::multi_write(ClientId(1), 9, vec![1, 2], 8);
            assert_eq!(served_bytes(machine.as_ref(), &multi.kind), None);
        }
        let mut kv = machine_for(StateMachineKind::Kv);
        kv.apply(Round(1), &Transaction::write(ClientId(1), 0, 5, 64));
        assert_eq!(served_bytes(kv.as_ref(), &TxKind::Read { key: 5 }), Some(64));
    }

    #[test]
    fn a_fresh_value_has_no_waiters() {
        let w = write(1);
        let sent = batch(4, vec![write(2)]);
        let mut admission = Admission::default();
        admission.admit_write(CLIENT, w.id);
        assert!(admission.admit_batch(BROKER, &sent));
        admission = Admission::default();
        assert_eq!(executed(&mut admission, &[package(0, &[&[w, write(2)]])]), vec![]);
        assert!(admission.admit_batch(BROKER, &sent), "a fresh value forgets the batches");
    }
}

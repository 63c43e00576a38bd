//! Shared bookkeeping for total-order-broadcast implementations: the leader's pool
//! of pending operations, each replica's record of its own undelivered broadcasts,
//! and the leader-liveness watchdog.

use ava_crypto::Digest;
use ava_types::{Duration, Operation, Time};
use std::collections::{HashSet, VecDeque};

/// Operation pool and liveness watchdog shared by `ava-hotstuff` and `ava-bftsmart`.
#[derive(Debug, Default)]
pub struct PendingPool {
    /// Operations waiting to be proposed (leader role).
    pending: VecDeque<Operation>,
    /// Digests of operations ever enqueued, to deduplicate re-forwarded values.
    seen: HashSet<Digest>,
    /// Operations this replica broadcast that have not been delivered yet.
    my_undelivered: Vec<Operation>,
    /// When the oldest of `my_undelivered` was broadcast (watchdog reference point).
    waiting_since: Option<Time>,
    /// Whether the watchdog already fired for the current waiting period.
    complained: bool,
}

impl PendingPool {
    /// Create an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an operation this replica asked to have ordered.
    pub fn record_my_broadcast(&mut self, op: Operation, now: Time) {
        if self.my_undelivered.is_empty() {
            self.waiting_since = Some(now);
            self.complained = false;
        }
        self.my_undelivered.push(op);
    }

    /// Operations this replica broadcast that are still undelivered (re-sent to a new
    /// leader after a leader change).
    pub fn my_undelivered(&self) -> &[Operation] {
        &self.my_undelivered
    }

    /// Add an operation to the leader-side pending pool, deduplicating by digest.
    /// Returns true if the operation was new.
    pub fn enqueue(&mut self, op: Operation) -> bool {
        let digest = Digest::of(&op);
        if self.seen.insert(digest) {
            self.pending.push_back(op);
            true
        } else {
            false
        }
    }

    /// Number of pending (not yet proposed) operations.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Take up to `max` operations to form the next block.
    pub fn take_batch(&mut self, max: usize) -> Vec<Operation> {
        let n = max.min(self.pending.len());
        self.pending.drain(..n).collect()
    }

    /// Put operations back at the front of the pending queue (e.g. when a proposal is
    /// abandoned by a leader change).
    pub fn requeue_front(&mut self, ops: Vec<Operation>) {
        for op in ops.into_iter().rev() {
            self.pending.push_front(op);
        }
    }

    /// Operations ordered by someone else — a block adopted from, or carried over
    /// from, an earlier regency: never propose them from this pool again, even if
    /// their originators re-forward them.
    pub fn note_ordered(&mut self, ops: &[Operation]) {
        self.seen.extend(ops.iter().map(Digest::of));
        self.drop_pending(ops);
    }

    /// Drop `ops` from the pending queue: a former leader's queue may still hold
    /// what a later leader has since ordered (an abandoned proposal it took
    /// back), and must not propose it again if the lead returns.
    pub fn drop_pending(&mut self, ops: &[Operation]) {
        if !self.pending.is_empty() {
            self.pending.retain(|p| !ops.contains(p));
        }
    }

    /// Record that a block's operations were delivered: clears them from this
    /// replica's undelivered list and resets the watchdog if nothing is left waiting.
    pub fn mark_delivered(&mut self, ops: &[Operation], now: Time) {
        self.my_undelivered.retain(|mine| !ops.contains(mine));
        if self.my_undelivered.is_empty() {
            self.waiting_since = None;
            self.complained = false;
        } else {
            self.waiting_since = Some(now);
        }
    }

    /// Whether the watchdog should fire: this replica has been waiting longer than
    /// `timeout` for one of its own operations to be delivered, and has not already
    /// complained for this waiting period.
    pub fn should_complain(&mut self, now: Time, timeout: Duration) -> bool {
        match self.waiting_since {
            Some(since) if !self.complained && now.since(since) >= timeout => {
                self.complained = true;
                true
            }
            _ => false,
        }
    }

    /// Reset the watchdog reference point (after a leader change gives the new leader
    /// a fresh grace period).
    pub fn reset_watch(&mut self, now: Time) {
        if !self.my_undelivered.is_empty() {
            self.waiting_since = Some(now);
        }
        self.complained = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ava_types::{ClientId, Transaction};

    fn op(seq: u64) -> Operation {
        Operation::Trans(Transaction::write(ClientId(0), seq, seq, 128))
    }

    #[test]
    fn enqueue_deduplicates() {
        let mut pool = PendingPool::new();
        assert!(pool.enqueue(op(1)));
        assert!(!pool.enqueue(op(1)));
        assert!(pool.enqueue(op(2)));
        assert_eq!(pool.pending_len(), 2);
    }

    #[test]
    fn take_batch_respects_max_and_order() {
        let mut pool = PendingPool::new();
        for i in 0..5 {
            pool.enqueue(op(i));
        }
        let batch = pool.take_batch(3);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch[0], op(0));
        assert_eq!(pool.pending_len(), 2);
        pool.requeue_front(batch);
        assert_eq!(pool.take_batch(1)[0], op(0));
    }

    #[test]
    fn operations_ordered_elsewhere_are_never_proposed_from_here() {
        let mut pool = PendingPool::new();
        pool.enqueue(op(1));
        pool.enqueue(op(2));
        pool.note_ordered(&[op(2), op(3)]);
        assert!(!pool.enqueue(op(3)), "a late re-forward is a duplicate");
        assert_eq!(pool.take_batch(10), vec![op(1)]);
    }

    #[test]
    fn watchdog_fires_once_per_waiting_period() {
        let mut pool = PendingPool::new();
        pool.record_my_broadcast(op(1), Time::from_secs(0));
        let timeout = Duration::from_secs(5);
        assert!(!pool.should_complain(Time::from_secs(4), timeout));
        assert!(pool.should_complain(Time::from_secs(5), timeout));
        assert!(!pool.should_complain(Time::from_secs(6), timeout));
        pool.reset_watch(Time::from_secs(6));
        assert!(pool.should_complain(Time::from_secs(11), timeout));
    }

    #[test]
    fn delivery_clears_undelivered_and_watchdog() {
        let mut pool = PendingPool::new();
        pool.record_my_broadcast(op(1), Time::from_secs(0));
        pool.record_my_broadcast(op(2), Time::from_secs(0));
        pool.mark_delivered(&[op(1)], Time::from_secs(1));
        assert_eq!(pool.my_undelivered(), &[op(2)]);
        pool.mark_delivered(&[op(2)], Time::from_secs(2));
        assert!(pool.my_undelivered().is_empty());
        assert!(!pool.should_complain(Time::from_secs(100), Duration::from_secs(5)));
    }
}

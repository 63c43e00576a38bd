//! Shared bookkeeping for total-order-broadcast implementations: the leader's pool
//! of pending operations, each replica's record of its own undelivered broadcasts,
//! and the leader-liveness watchdog.
//!
//! The watchdog follows the cluster's own pace (DESIGN.md §14): it suspects the
//! leader once this replica has waited [`WATCHDOG_GAP_MULTIPLIER`] times the
//! longest delivery gap it has seen so far, never less than a floor (the
//! paper's ε) and never more than the configured timeout.
//!
//! Only this watchdog does. The BRD watchdog (`ava_hamava::brd`) and the
//! remote-leader timer (`ava_hamava::remote_leader`, Alg. 2) keep their fixed
//! timeouts: a remote cluster's silence cannot be told apart from a partition,
//! a leader change cannot heal a partition, and the stage-2 relay that bridges
//! one relies on those timers not firing early. A *local* leader that stops
//! delivering while its members hold work is exactly what a leader change fixes.

use ava_crypto::Digest;
use ava_types::{Duration, Operation, Time, TxId};
use std::collections::{HashSet, VecDeque};

/// How many times its worst delivery gap so far a replica waits before it
/// suspects the leader. A live leader's next delivery can come later than any
/// seen before (a backlog, a jitter spike): 4 keeps the slowest fault-free
/// layout in the repo (412 ms gaps) clear of a spurious change.
pub const WATCHDOG_GAP_MULTIPLIER: u64 = 4;

/// Operation pool and liveness watchdog, held by a [`Regency`](crate::Regency).
#[derive(Debug, Default)]
pub struct PendingPool {
    /// Operations waiting to be proposed (leader role).
    pending: VecDeque<Operation>,
    /// Digests of operations ever enqueued, to deduplicate re-forwarded values.
    seen: HashSet<Digest>,
    /// Operations this replica broadcast that have not been delivered yet.
    my_undelivered: Vec<Operation>,
    /// When this replica started waiting: the first of `my_undelivered` was
    /// broadcast, or the last delivery while some were left (watchdog reference
    /// point).
    waiting_since: Option<Time>,
    /// Whether the watchdog already fired for the current waiting period.
    complained: bool,
    /// The longest wait from `waiting_since` to the next delivery seen so far.
    /// Kept across leader changes — a new leader is held to the pace the cluster
    /// has shown, not given a fresh warm-up — and cleared only with the pool.
    worst_gap: Duration,
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
    /// replica's undelivered list, notes how long this replica waited for the
    /// delivery, and resets the watchdog if nothing is left waiting.
    pub fn mark_delivered(&mut self, ops: &[Operation], now: Time) {
        if let Some(since) = self.waiting_since {
            self.worst_gap = self.worst_gap.max(now.since(since));
        }
        self.forget_delivered(ops);
        if self.my_undelivered.is_empty() {
            self.waiting_since = None;
            self.complained = false;
        } else {
            self.waiting_since = Some(now);
        }
    }

    /// Drop from `my_undelivered`, in order, every operation equal to one of
    /// `ops` — what a `retain` that scans `ops` does, without its |mine| ×
    /// |block| compares. My transactions are indexed by id once (sorted), and
    /// each transaction of the block is compared only with those of mine
    /// that carry its id; an operation of the block that is not a
    /// transaction is compared with each of mine.
    fn forget_delivered(&mut self, ops: &[Operation]) {
        let mine = &self.my_undelivered;
        if mine.is_empty() {
            return;
        }
        let mut by_id: Vec<(TxId, usize)> = mine
            .iter()
            .enumerate()
            .filter_map(|(i, op)| match op {
                Operation::Trans(tx) => Some((tx.id, i)),
                _ => None,
            })
            .collect();
        by_id.sort_unstable();
        let mut delivered = vec![false; mine.len()];
        for op in ops {
            match op {
                Operation::Trans(tx) => {
                    let from = by_id.partition_point(|(id, _)| *id < tx.id);
                    for &(_, i) in by_id[from..].iter().take_while(|(id, _)| *id == tx.id) {
                        delivered[i] |= mine[i] == *op;
                    }
                }
                _ => mine.iter().zip(&mut delivered).for_each(|(m, d)| *d |= m == op),
            }
        }
        let mut delivered = delivered.into_iter();
        self.my_undelivered.retain(|_| !delivered.next().expect("one flag per operation"));
    }

    /// How long this replica waits for a delivery before it suspects the
    /// leader: [`WATCHDOG_GAP_MULTIPLIER`] × the worst gap seen so far, at
    /// least `floor` and at most `ceiling` (the ceiling wins if they cross).
    pub fn watchdog_bound(&self, floor: Duration, ceiling: Duration) -> Duration {
        self.worst_gap.saturating_mul(WATCHDOG_GAP_MULTIPLIER).max(floor).min(ceiling)
    }

    /// Whether the watchdog should fire: this replica has waited at least
    /// [`PendingPool::watchdog_bound`] for one of its own operations to be
    /// delivered, and has not already complained for this waiting period.
    /// Returns how long it has waited.
    pub fn should_complain(
        &mut self,
        now: Time,
        floor: Duration,
        ceiling: Duration,
    ) -> Option<Duration> {
        let silent_for = now.since(self.waiting_since?);
        if self.complained || silent_for < self.watchdog_bound(floor, ceiling) {
            return None;
        }
        self.complained = true;
        Some(silent_for)
    }

    /// Reset the watchdog reference point (after a leader change gives the new leader
    /// a fresh grace period). The gap history stays.
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
    use ava_types::{ClientId, Round, Transaction};

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

    const EPSILON: Duration = Duration(500_000);
    const TIMEOUT: Duration = Duration(4_000_000);

    fn ms(ms: u64) -> Time {
        Time::from_millis(ms)
    }

    /// The first instant at or after `from` (1 ms steps) at which the watchdog
    /// fires, and how long it reports having waited.
    fn fires_at(pool: &mut PendingPool, from: u64) -> (u64, Duration) {
        (from..from + 10_000)
            .find_map(|t| pool.should_complain(ms(t), EPSILON, TIMEOUT).map(|s| (t, s)))
            .expect("the watchdog fires within 10 s")
    }

    /// A pool that waited `gap` for one delivery and is now waiting again,
    /// since `ms(gap)`.
    fn with_gap(gap: u64) -> PendingPool {
        let mut pool = PendingPool::new();
        pool.record_my_broadcast(op(1), ms(0));
        pool.record_my_broadcast(op(2), ms(0));
        pool.mark_delivered(&[op(1)], ms(gap));
        pool
    }

    #[test]
    fn with_no_history_the_watchdog_fires_at_the_floor() {
        let mut pool = PendingPool::new();
        pool.record_my_broadcast(op(1), ms(0));
        assert_eq!(fires_at(&mut pool, 0), (500, EPSILON));
        // ε = 0 removes the floor: with no history the first look fires.
        let mut pool = PendingPool::new();
        pool.record_my_broadcast(op(1), ms(0));
        assert_eq!(pool.should_complain(ms(0), Duration::ZERO, TIMEOUT), Some(Duration::ZERO));
    }

    #[test]
    fn the_bound_is_four_times_the_worst_gap() {
        let mut pool = with_gap(412);
        assert_eq!(pool.watchdog_bound(EPSILON, TIMEOUT), Duration::from_millis(1_648));
        assert_eq!(fires_at(&mut pool, 412), (412 + 1_648, Duration::from_millis(1_648)));
        // A shorter gap later does not lower it.
        let mut pool = with_gap(412);
        pool.mark_delivered(&[], ms(422));
        assert_eq!(pool.watchdog_bound(EPSILON, TIMEOUT), Duration::from_millis(1_648));
    }

    #[test]
    fn the_bound_is_capped_at_the_timeout() {
        let mut pool = with_gap(2_000);
        assert_eq!(fires_at(&mut pool, 2_000), (6_000, TIMEOUT));
        // A floor above the ceiling yields to it.
        assert_eq!(PendingPool::new().watchdog_bound(TIMEOUT, EPSILON), EPSILON);
    }

    #[test]
    fn the_gap_history_survives_a_new_grace_period_but_not_a_new_pool() {
        let mut pool = with_gap(412);
        pool.reset_watch(ms(5_000));
        assert_eq!(fires_at(&mut pool, 5_000).0, 5_000 + 1_648);
        let mut restarted = PendingPool::new();
        restarted.record_my_broadcast(op(3), ms(5_000));
        assert_eq!(fires_at(&mut restarted, 5_000).0, 5_500);
    }

    #[test]
    fn watchdog_fires_once_per_waiting_period() {
        let mut pool = PendingPool::new();
        pool.record_my_broadcast(op(1), ms(0));
        assert_eq!(fires_at(&mut pool, 0).0, 500);
        assert_eq!(pool.should_complain(ms(5_000), EPSILON, TIMEOUT), None);
        // A new leader's grace period is a new waiting period.
        pool.reset_watch(ms(6_000));
        assert_eq!(fires_at(&mut pool, 6_000).0, 6_500);
        // So is the next one after everything was delivered — here 600 ms
        // into the grace period, which the bound now follows.
        pool.mark_delivered(&[op(1)], ms(6_600));
        pool.record_my_broadcast(op(2), ms(8_000));
        assert_eq!(fires_at(&mut pool, 8_000).0, 8_000 + 2_400);
    }

    #[test]
    fn delivery_clears_undelivered_and_watchdog() {
        let mut pool = PendingPool::new();
        pool.record_my_broadcast(op(1), ms(0));
        pool.record_my_broadcast(op(2), ms(0));
        pool.mark_delivered(&[op(1)], ms(1));
        assert_eq!(pool.my_undelivered(), &[op(2)]);
        pool.mark_delivered(&[op(2)], ms(2));
        assert!(pool.my_undelivered().is_empty());
        assert_eq!(pool.should_complain(ms(100_000), EPSILON, TIMEOUT), None);
    }

    #[test]
    fn delivery_drops_exactly_the_equal_operations_and_keeps_the_order() {
        // A vocabulary where ids collide: `op(s)` and `other(s)` share an id
        // and differ in content, and a block may carry both.
        let other = |seq| Operation::Trans(Transaction::write(ClientId(0), seq, seq + 1, 128));
        let vocabulary: Vec<Operation> = (0..4)
            .flat_map(|s| [op(s), other(s)])
            .chain([
                Operation::RoundCut { round: Round(1) },
                Operation::RoundCut { round: Round(2) },
            ])
            .chain([Operation::ReconfigSet { round: Round(1), recs: Vec::new() }])
            .collect();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        for case in 0..500 {
            let mut ops = |len| -> Vec<Operation> {
                (0..len).map(|_| vocabulary[draw(vocabulary.len())].clone()).collect()
            };
            let mine = ops(case % 35);
            let block = ops(case % 7 * 3);
            let mut pool = PendingPool::new();
            for op in &mine {
                pool.record_my_broadcast(op.clone(), ms(0));
            }
            pool.mark_delivered(&block, ms(1));
            let left: Vec<Operation> = mine.into_iter().filter(|m| !block.contains(m)).collect();
            assert_eq!(pool.my_undelivered(), left, "case {case}, block {block:?}");
        }
    }
}

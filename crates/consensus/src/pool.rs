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

use ava_types::{fold_mul, BuildIdHasher, Duration, Operation, Reconfig, Round, Time, TxId, TxKey};
use std::cell::Cell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{Hash, Hasher};

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
    /// Operations ever enqueued or noted as ordered, to deduplicate
    /// re-forwarded values.
    seen: Seen,
    /// Operations this replica broadcast that have not been delivered yet.
    my_undelivered: Undelivered,
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

    /// Operations this replica broadcast that are still undelivered, in the
    /// order it broadcast them (re-sent to a new leader after a leader
    /// change).
    pub fn my_undelivered(&self) -> impl Iterator<Item = &Operation> + '_ {
        self.my_undelivered.iter()
    }

    /// Add an operation to the leader-side pending pool, deduplicating by
    /// identity: a transaction by its [`TxId`], a control operation by its
    /// content. Returns true if the operation was new.
    pub fn enqueue(&mut self, op: Operation) -> bool {
        if self.seen.insert(&op) {
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
        for op in ops {
            self.seen.insert(op);
        }
        self.drop_pending(ops);
    }

    /// Drop every pending operation equal to one of `ops`, keeping the order
    /// of the rest: a former leader's queue may still hold what a later
    /// leader has since ordered (an abandoned proposal it took back), and must
    /// not propose it again if the lead returns. The block is indexed by id
    /// once, so each pending transaction is compared only with the block's
    /// operations of its id.
    pub fn drop_pending(&mut self, ops: &[Operation]) {
        if self.pending.is_empty() || ops.is_empty() {
            return;
        }
        let block = BlockIndex::new(ops);
        self.pending.retain(|p| !block.contains(p));
    }

    /// Record that a block's operations were delivered: clears them from this
    /// replica's undelivered list, notes how long this replica waited for the
    /// delivery, and resets the watchdog if nothing is left waiting.
    pub fn mark_delivered(&mut self, ops: &[Operation], now: Time) {
        if let Some(since) = self.waiting_since {
            self.worst_gap = self.worst_gap.max(now.since(since));
        }
        self.my_undelivered.forget(ops);
        if self.my_undelivered.is_empty() {
            self.waiting_since = None;
            self.complained = false;
        } else {
            self.waiting_since = Some(now);
        }
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

/// The index entry that ends a chain.
const NO_SLOT: u64 = u64::MAX;

/// This replica's own broadcasts that are not delivered yet, in the order it
/// broadcast them, its transactions indexed by id across deliveries: a
/// delivered block costs one lookup per operation, not an index rebuilt over
/// everything still waiting.
///
/// Broadcast number `first + i` sits in `slots[i]`. A delivered one leaves a
/// hole, popped once every broadcast before it is gone too, and the slots
/// are compacted when holes outnumber the live ones. `by_id` names the
/// latest broadcast under each transaction id, and each slot the one before
/// it under the same id, so the broadcasts that share an id form a chain —
/// through holes, which keep their link — ending at [`NO_SLOT`] or at a
/// popped number. A control operation (one or two a round) is compared with
/// each slot instead.
#[derive(Debug, Default)]
struct Undelivered {
    slots: VecDeque<MineSlot>,
    first: u64,
    live: usize,
    controls: usize,
    by_id: HashMap<TxKey, u64, BuildIdHasher>,
}

#[derive(Debug)]
struct MineSlot {
    /// The broadcast; `None` once delivered.
    op: Option<Operation>,
    /// The previous broadcast under the same transaction id, or [`NO_SLOT`].
    earlier: u64,
}

impl Undelivered {
    fn is_empty(&self) -> bool {
        self.live == 0
    }

    fn iter(&self) -> impl Iterator<Item = &Operation> + '_ {
        self.slots.iter().filter_map(|slot| slot.op.as_ref())
    }

    fn push(&mut self, op: Operation) {
        let at = self.first + self.slots.len() as u64;
        let earlier = match &op {
            Operation::Trans(tx) => self.by_id.insert(TxKey(tx.id), at).unwrap_or(NO_SLOT),
            _ => {
                self.controls += 1;
                NO_SLOT
            }
        };
        self.slots.push_back(MineSlot { op: Some(op), earlier });
        self.live += 1;
    }

    /// Drop every broadcast equal to one of `ops`, keeping the order of the
    /// rest — what a `retain` that scans `ops` does.
    fn forget(&mut self, ops: &[Operation]) {
        for op in ops {
            match op {
                Operation::Trans(tx) => self.forget_tx(op, TxKey(tx.id)),
                _ if self.controls > 0 => {
                    for slot in self.slots.iter_mut().filter(|slot| slot.op.as_ref() == Some(op)) {
                        slot.op = None;
                        self.live -= 1;
                        self.controls -= 1;
                    }
                }
                _ => {}
            }
        }
        while self.slots.front().is_some_and(|slot| slot.op.is_none()) {
            self.slots.pop_front();
            self.first += 1;
        }
        if self.slots.len() > 2 * self.live + 64 {
            let live: Vec<Operation> = self.slots.drain(..).filter_map(|slot| slot.op).collect();
            *self = Undelivered::default();
            live.into_iter().for_each(|op| self.push(op));
        }
    }

    /// Walk the chain of `key`, dropping the broadcasts equal to `op`; the
    /// id leaves the index once nothing under it is left.
    fn forget_tx(&mut self, op: &Operation, key: TxKey) {
        let Some(&latest) = self.by_id.get(&key) else { return };
        let mut left = false;
        let mut at = latest;
        while at != NO_SLOT && at >= self.first {
            let slot = &mut self.slots[(at - self.first) as usize];
            match &slot.op {
                Some(mine) if mine == op => {
                    slot.op = None;
                    self.live -= 1;
                }
                Some(_) => left = true,
                None => {}
            }
            at = slot.earlier;
        }
        if !left {
            self.by_id.remove(&key);
        }
    }
}

/// A block's operations by transaction id, for exact membership tests: the
/// first position of each id, and from each position the next one of its id.
struct BlockIndex<'a> {
    ops: &'a [Operation],
    first: HashMap<TxKey, usize, BuildIdHasher>,
    next: Vec<usize>,
}

impl<'a> BlockIndex<'a> {
    fn new(ops: &'a [Operation]) -> Self {
        let mut first = HashMap::with_capacity_and_hasher(ops.len(), BuildIdHasher::default());
        let mut next = vec![usize::MAX; ops.len()];
        for (i, op) in ops.iter().enumerate().rev() {
            if let Operation::Trans(tx) = op {
                next[i] = first.insert(TxKey(tx.id), i).unwrap_or(usize::MAX);
            }
        }
        BlockIndex { ops, first, next }
    }

    /// Whether the block holds an operation equal to `op`.
    fn contains(&self, op: &Operation) -> bool {
        let Operation::Trans(tx) = op else { return self.ops.contains(op) };
        let mut at = self.first.get(&TxKey(tx.id)).copied().unwrap_or(usize::MAX);
        while at != usize::MAX {
            if self.ops[at] == *op {
                return true;
            }
            at = self.next[at];
        }
        false
    }
}

/// What a pool has seen, by identity. A transaction is its [`TxId`]: one
/// `u64` word per `(client, seq >> 6)` holds bit `seq & 63` of each of its 64
/// sequence numbers, so a client's run of transactions costs a bit each and
/// the table stays small enough to live in cache. A control operation (a
/// [`RoundCut`](Operation::RoundCut) or a
/// [`ReconfigSet`](Operation::ReconfigSet), one or two a round) is kept by its
/// exact content.
///
/// Identifying a transaction by id alone is sound because nothing hands a
/// pool two contents under one id: a client numbers its transactions itself
/// and re-sends only the one it built, and a re-forward or an adopted block
/// carries an operation some member was given (DESIGN.md §4, "The pool's
/// seen index").
#[derive(Debug, Default)]
struct Seen {
    words: HashMap<WordKey, u64, BuildIdHasher>,
    controls: HashSet<Control>,
}

/// A control operation, by content.
#[derive(Debug, PartialEq, Eq, Hash)]
enum Control {
    Cut(Round),
    Set(Round, Vec<Reconfig>),
}

/// The word of 64 consecutive sequence numbers of one client.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct WordKey {
    client: u32,
    block: u64,
}

impl Hash for WordKey {
    /// [`fold_mul`] of the two halves, with no SipHash rounds.
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(fold_mul(self.block, self.client));
    }
}

/// Bytes one word of the index holds: its key and its 64 bits (the table's
/// empty slots and control bytes not counted).
const WORD_BYTES: u64 = std::mem::size_of::<(WordKey, u64)>() as u64;

impl Seen {
    /// Record `op`; true if it was not seen before.
    fn insert(&mut self, op: &Operation) -> bool {
        match op {
            Operation::Trans(tx) => self.insert_tx(tx.id),
            Operation::RoundCut { round } => self.controls.insert(Control::Cut(*round)),
            Operation::ReconfigSet { round, recs } => {
                self.controls.insert(Control::Set(*round, recs.clone()))
            }
        }
    }

    fn insert_tx(&mut self, id: TxId) -> bool {
        let key = WordKey { client: id.client.0, block: id.seq >> 6 };
        let bit = 1u64 << (id.seq & 63);
        let mut new_word = false;
        let word = self.words.entry(key).or_insert_with(|| {
            new_word = true;
            0
        });
        if *word & bit != 0 {
            return false;
        }
        *word |= bit;
        let stats = SEEN_INDEX.get();
        SEEN_INDEX.set(SeenIndexStats {
            transactions: stats.transactions + 1,
            words: stats.words + u64::from(new_word),
        });
        true
    }
}

thread_local! {
    /// What the pools on this thread indexed (see [`seen_index_stats`]).
    static SEEN_INDEX: Cell<SeenIndexStats> = const {
        Cell::new(SeenIndexStats { transactions: 0, words: 0 })
    };
}

/// What the seen indexes of every [`PendingPool`] on the calling thread have
/// recorded since the thread started. A restart's fresh pool starts a new
/// index; what the old one held still counts here.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SeenIndexStats {
    /// Transaction ids indexed.
    pub transactions: u64,
    /// Words they took: one per client and 64 consecutive sequence numbers.
    pub words: u64,
}

impl SeenIndexStats {
    /// Bytes the words hold, key and bits (the tables' slack not counted).
    pub fn bytes(&self) -> u64 {
        self.words * WORD_BYTES
    }
}

/// The calling thread's [`SeenIndexStats`]. For profiles and tests: nothing
/// in a run depends on it.
pub fn seen_index_stats() -> SeenIndexStats {
    SEEN_INDEX.get()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ava_types::{ClientId, ReplicaId, Transaction};

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

    /// A xorshift draw below `n` (any `u64` for `n == 0`), from `state`.
    fn draw(state: &mut u64, n: u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        if n == 0 {
            *state
        } else {
            *state % n
        }
    }

    #[test]
    fn the_seen_index_agrees_with_a_set_of_ids_and_an_exact_set_of_controls() {
        // Real clients, the first virtual one (`ava_workload::virtual_client_base(0)`)
        // and the last id; sequence numbers at word edges and at the top.
        const CLIENTS: [u32; 4] = [0, 1, 10_000_000, u32::MAX];
        const SEQS: [u64; 6] = [0, 63, 64, 65, u64::MAX - 1, u64::MAX];
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let random_op = |state: &mut u64| match draw(state, 10) {
            0 => Operation::RoundCut { round: Round(draw(state, 4)) },
            1 => Operation::ReconfigSet {
                round: Round(draw(state, 3)),
                recs: (0..draw(state, 3))
                    .map(|r| Reconfig::Leave { replica: ReplicaId(r as u32) })
                    .collect(),
            },
            _ => {
                let client = ClientId(CLIENTS[draw(state, 4) as usize]);
                let seq = match draw(state, 3) {
                    0 => SEQS[draw(state, 6) as usize],
                    1 => draw(state, 0),
                    _ => draw(state, 200),
                };
                // Contents vary under one id: the index must not care.
                Operation::Trans(Transaction::write(client, seq, draw(state, 3), 64))
            }
        };
        for case in 0..300 {
            let mut pool = PendingPool::new();
            let (mut ids, mut controls) = (HashSet::<TxId>::new(), Vec::<Operation>::new());
            let mut pending = VecDeque::<Operation>::new();
            let mut seen = |op: &Operation| match op {
                Operation::Trans(tx) => ids.insert(tx.id),
                _ if controls.contains(op) => false,
                _ => {
                    controls.push(op.clone());
                    true
                }
            };
            let mut taken = Vec::new();
            for step in 0..200 {
                match draw(&mut state, 6) {
                    0..=2 => {
                        let op = random_op(&mut state);
                        let new = seen(&op);
                        if new {
                            pending.push_back(op.clone());
                        }
                        assert_eq!(
                            pool.enqueue(op.clone()),
                            new,
                            "case {case} step {step}: {op:?}"
                        );
                    }
                    3 => {
                        let ops: Vec<Operation> =
                            (0..draw(&mut state, 4)).map(|_| random_op(&mut state)).collect();
                        ops.iter().for_each(|op| _ = seen(op));
                        pending.retain(|p| !ops.contains(p));
                        pool.note_ordered(&ops);
                    }
                    4 => {
                        let max = draw(&mut state, 5) as usize;
                        taken = pool.take_batch(max);
                        let expected: Vec<_> = pending.drain(..max.min(pending.len())).collect();
                        assert_eq!(taken, expected, "case {case} step {step}");
                    }
                    _ => {
                        for op in taken.iter().rev() {
                            pending.push_front(op.clone());
                        }
                        pool.requeue_front(std::mem::take(&mut taken));
                    }
                }
                assert_eq!(pool.pending, pending, "case {case} step {step}");
            }
        }
    }

    #[test]
    fn a_transaction_is_identified_by_its_id_not_by_its_content() {
        let mut pool = PendingPool::new();
        let first = Operation::Trans(Transaction::write(ClientId(0), 7, 1, 128));
        assert!(pool.enqueue(first.clone()));
        let same_id = Operation::Trans(Transaction::write(ClientId(0), 7, 2, 1024));
        assert!(!pool.enqueue(same_id), "a second content under a seen id");
        pool.note_ordered(&[Operation::Trans(Transaction::read(ClientId(1), 3, 9))]);
        assert!(!pool.enqueue(Operation::Trans(Transaction::write(ClientId(1), 3, 9, 64))));
        assert_eq!(pool.take_batch(10), vec![first]);
    }

    #[test]
    fn control_operations_are_enqueued_once_each_by_content() {
        let cut = |r| Operation::RoundCut { round: Round(r) };
        let set = |r, recs| Operation::ReconfigSet { round: Round(r), recs };
        let leave = vec![Reconfig::Leave { replica: ReplicaId(3) }];
        let controls = [cut(1), cut(2), set(1, Vec::new()), set(2, Vec::new()), set(1, leave)];
        let mut pool = PendingPool::new();
        for op in &controls {
            assert!(pool.enqueue(op.clone()), "{op:?} is new");
        }
        for op in &controls {
            assert!(!pool.enqueue(op.clone()), "{op:?} again");
        }
        assert_eq!(pool.take_batch(10), controls);
    }

    #[test]
    fn a_clients_consecutive_transactions_take_a_word_per_64() {
        let before = seen_index_stats();
        let mut pool = PendingPool::new();
        for seq in 0..100_000 {
            assert!(pool.enqueue(op(seq)));
        }
        let after = seen_index_stats();
        let words = after.words - before.words;
        assert_eq!(after.transactions - before.transactions, 100_000);
        assert!(words <= 1_563, "{words} words");
        assert_eq!(pool.seen.words.len() as u64, words);
        assert_eq!(after.bytes() - before.bytes(), words * 24);
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
        assert!(pool.my_undelivered().eq(&[op(2)]));
        pool.mark_delivered(&[op(2)], ms(2));
        assert_eq!(pool.my_undelivered().next(), None);
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
        let n = vocabulary.len() as u64;
        for case in 0..500 {
            // Broadcasts and deliveries interleaved: the index lives across
            // deliveries.
            let mut pool = PendingPool::new();
            let mut left: Vec<Operation> = Vec::new();
            for step in 0..4 {
                let mut ops = |len| -> Vec<Operation> {
                    (0..len).map(|_| vocabulary[draw(&mut state, n) as usize].clone()).collect()
                };
                let mine = ops(case % 35);
                let block = ops(case % 7 * 3);
                for op in mine {
                    pool.record_my_broadcast(op.clone(), ms(step));
                    left.push(op);
                }
                pool.mark_delivered(&block, ms(step + 1));
                left.retain(|m| !block.contains(m));
                assert!(pool.my_undelivered().eq(&left), "case {case} step {step}, {block:?}");
            }
        }

        // One id, two contents: delivering one keeps the other in its place,
        // across deliveries that pile holes up behind an operation never
        // delivered until the slots are compacted.
        let mut pool = PendingPool::new();
        let stuck = Operation::RoundCut { round: Round(9) };
        for op in [stuck.clone(), op(1), other(1)] {
            pool.record_my_broadcast(op, ms(0));
        }
        for seq in 10..300 {
            pool.record_my_broadcast(op(seq), ms(seq));
            pool.mark_delivered(&[op(seq)], ms(seq));
            assert!(pool.my_undelivered.slots.len() <= 2 * 3 + 64, "holes are compacted");
        }
        pool.mark_delivered(&[other(1)], ms(300));
        assert!(pool.my_undelivered().eq(&[stuck.clone(), op(1)]));
        pool.mark_delivered(&[op(1), other(1)], ms(301));
        assert!(pool.my_undelivered().eq(std::slice::from_ref(&stuck)));
        assert!(pool.my_undelivered.by_id.is_empty(), "no id is left indexed");
        pool.mark_delivered(&[stuck], ms(302));
        assert_eq!(pool.my_undelivered().next(), None);
    }

    #[test]
    fn dropping_a_block_from_a_large_queue_keeps_the_rest_in_order() {
        // 5 000 pending, a 500-operation block: every third pending
        // transaction, as many of their ids under other contents (which stay),
        // transactions the queue never held and two controls.
        let other = |seq| Operation::Trans(Transaction::write(ClientId(0), seq, seq + 1, 128));
        let mut pool = PendingPool::new();
        let cuts =
            [Operation::RoundCut { round: Round(1) }, Operation::RoundCut { round: Round(2) }];
        for seq in 0..4_998 {
            pool.enqueue(op(seq));
        }
        cuts.iter().for_each(|cut| _ = pool.enqueue(cut.clone()));
        let mut block: Vec<Operation> = (0..166).map(|i| op(3 * i)).collect();
        block.extend((0..166).map(|i| other(3 * i + 1)));
        block.extend((0..166).map(|i| op(10_000 + i)));
        block.extend([cuts[1].clone(), Operation::RoundCut { round: Round(5) }]);
        assert_eq!((pool.pending_len(), block.len()), (5_000, 500));
        let mut expected = pool.pending.clone();
        expected.retain(|p| !block.contains(p));
        pool.drop_pending(&block);
        assert_eq!(pool.pending, expected);
        assert_eq!(pool.pending_len(), 5_000 - 166 - 1);
    }
}

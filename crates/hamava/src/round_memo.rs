//! The executed-round memo: Stage 3 (Alg. 10) once per *process*.
//!
//! Every correct replica of every cluster applies every round's certified
//! blocks in the same cluster order, from the same state, so they all compute
//! one result — and in this reproduction all of a deployment's replicas live
//! on one thread. This memo keeps the last `CAPACITY` (4) rounds the thread
//! executed, each as *(state before, round, blocks) → (state after, value
//! bytes)*. The first replica to execute a round applies its transactions;
//! every other one that asks with the same key adopts an O(1) copy-on-write
//! fork of the stored result (`ava_state::StateMachine::fork`). Fresh machines
//! of a kind on one thread all start from one empty version, so the replicas
//! of a deployment share state from round 1.
//!
//! Soundness is the rule every in-process memo follows (DESIGN.md §4):
//!
//! 1. **Exact key, by identity.** A lookup matches the state version before
//!    the round, the round number and the ordered `Arc<Block>`s whose
//!    operations `walk_round` feeds to `apply_round`, all compared with
//!    `Arc::ptr_eq`. The entry holds a clone of every one of those `Arc`s, so
//!    no address in it can be reused while it lives, and a version it holds is
//!    never written in place (`ava_state::StateVersion`). No digest is trusted
//!    and no collision assumed: a block with equal content under another
//!    `Arc` — a replay, a tampered copy — misses.
//! 2. **Pure value.** `apply_round` is a function of (state, round,
//!    transactions); the entry stores its result, the state after and the
//!    value bytes the writes moved, so a hit is exactly what applying would
//!    give.
//! 3. **Only what the replica executes itself.** `execute_round` is called
//!    by live execution alone. Store and catch-up replays apply records to a
//!    version of their own and neither read nor fill the memo; a replica on
//!    its own version (restarted, joined) misses and executes the round.
//! 4. **Immutable shared state.** A shared root or page is copied before its
//!    first write (`Arc::make_mut`); nothing writes a shared version in place.
//!
//! Nothing virtual moves: the replica still answers its own waiters from its
//! cluster's package, and charges `per_tx_execute` and `value_cost` from the
//! same counts.

use crate::catchup::walk_round;
use crate::messages::RoundPackage;
use ava_consensus::Block;
use ava_state::{StateMachine, StateVersion};
use ava_types::{ClusterId, Round};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Executed rounds a thread keeps, evicted oldest first: by capacity, never by
/// round, because a thread runs deployments back to back and each restarts
/// at round 1. A round's entry must outlive the entries other lineages insert
/// before its last executor asks (a joined or restarted replica holds a
/// version of its own and inserts every round it executes). By A/B on the
/// benchmark's `geo_hetero_counter`, `kv_write_1kib` and
/// `churn_faults_open_loop`, 2, 4 and 8 entries all reached the same hits
/// ((n − 1)/n where the run is fault-free), and each halving saved 0.4–1.4 MB
/// of `peak_rss_mb`; 4 leaves headroom over 2 for runs with more joined or
/// restarted replicas than the churn workload's two. An entry pins its state
/// before and after, so the memo pins at most 8 versions of any one page — 5
/// on one lineage, where consecutive rounds share the state between them: the
/// oldest entry's state plus the pages each later round dirtied.
const CAPACITY: usize = 4;

/// One executed round: the key (`before`, `round`, `blocks`) and the result.
struct ExecutedRound {
    before: StateVersion,
    round: Round,
    blocks: Vec<Arc<Block>>,
    after: Box<dyn StateMachine>,
    value_bytes: u64,
}

#[derive(Default)]
struct Memo {
    rounds: VecDeque<ExecutedRound>,
    hits: u64,
    misses: u64,
}

impl Memo {
    fn find<'b>(
        &self,
        before: &StateVersion,
        round: Round,
        blocks: impl Iterator<Item = &'b Arc<Block>> + Clone,
    ) -> Option<&ExecutedRound> {
        self.rounds.iter().find(|e| {
            e.round == round && e.before.same(before) && same_blocks(&e.blocks, blocks.clone())
        })
    }

    fn insert(&mut self, executed: ExecutedRound) {
        if self.rounds.len() == CAPACITY {
            self.rounds.pop_front();
        }
        self.rounds.push_back(executed);
    }
}

/// Whether `blocks` are exactly the `held` allocations, in order.
fn same_blocks<'b>(held: &[Arc<Block>], blocks: impl Iterator<Item = &'b Arc<Block>>) -> bool {
    let mut held = held.iter();
    blocks.into_iter().all(|b| held.next().is_some_and(|h| Arc::ptr_eq(h, b)))
        && held.next().is_none()
}

thread_local! {
    static MEMO: RefCell<Memo> = RefCell::default();
}

/// Bring `machine` to its state after `round`: adopt the result another
/// replica on this thread computed from the same version and blocks, or apply
/// the round's transactions, in [`walk_round`] order, through one
/// [`StateMachine::apply_round`] and record the result.
/// Returns the value bytes the round's writes moved.
pub(crate) fn execute_round(
    machine: &mut Box<dyn StateMachine>,
    round: Round,
    packages: &BTreeMap<ClusterId, Arc<RoundPackage>>,
) -> u64 {
    let blocks = || packages.values().flat_map(|p| &p.blocks).map(|b| &b.block);
    let before = machine.version();
    MEMO.with_borrow_mut(|memo| {
        if let Some(hit) = memo.find(&before, round, blocks()) {
            let (after, value_bytes) = (hit.after.fork(), hit.value_bytes);
            memo.hits += 1;
            *machine = after;
            return value_bytes;
        }
        memo.misses += 1;
        let mut txs = Vec::new();
        walk_round(packages.values(), |tx| txs.push(tx));
        let value_bytes = machine.apply_round(round, &txs).value_bytes;
        let blocks = blocks().cloned().collect();
        memo.insert(ExecutedRound { before, round, blocks, after: machine.fork(), value_bytes });
        value_bytes
    })
}

/// Counters and present size of the calling thread's executed-round memo.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ExecutedRoundStats {
    /// Rounds a replica adopted from another replica's execution.
    pub hits: u64,
    /// Rounds a replica executed itself.
    pub misses: u64,
    /// Executed rounds the memo holds now (at most 4), each pinning the state
    /// versions before and after it.
    pub retained: usize,
}

/// What the calling thread's executed-round memo has done since the thread
/// started, and what it holds. For profiles and tests: nothing in a run
/// depends on it.
pub fn executed_round_stats() -> ExecutedRoundStats {
    MEMO.with_borrow(|memo| ExecutedRoundStats {
        hits: memo.hits,
        misses: memo.misses,
        retained: memo.rounds.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ava_consensus::CommittedBlock;
    use ava_crypto::{QuorumCert, SigSet};
    use ava_state::{machine_for, machine_from_snapshot, StateMachineKind, StateSnapshot};
    use ava_types::{ClientId, Operation, ReplicaId, Transaction};

    /// A block at `height` holding one write of key `height`.
    fn block(height: u64) -> Arc<Block> {
        let tx = Transaction::write(ClientId(0), height, height, 8);
        Arc::new(Block::new(ClusterId(0), height, ReplicaId(0), vec![Operation::Trans(tx)]))
    }

    /// An entry keyed on `state`'s version whose result is a fork of it.
    fn executed(state: &dyn StateMachine, round: u64, blocks: &[Arc<Block>]) -> ExecutedRound {
        ExecutedRound {
            before: state.version(),
            round: Round(round),
            blocks: blocks.to_vec(),
            after: state.fork(),
            value_bytes: 0,
        }
    }

    #[test]
    fn a_lookup_hits_only_on_the_same_version_round_and_blocks_in_order() {
        let state = machine_for(StateMachineKind::Counter);
        let blocks = [block(0), block(1)];
        let mut memo = Memo::default();
        memo.insert(executed(&*state, 3, &blocks));
        let version = state.version();
        let find = |v: &StateVersion, round, b: &[Arc<Block>]| memo.find(v, Round(round), b.iter());
        assert!(find(&version, 3, &blocks).is_some());
        assert!(find(&version, 4, &blocks).is_none(), "another round");
        let equal = machine_from_snapshot(&state.snapshot());
        assert_eq!(equal.digest(), state.digest());
        assert!(find(&equal.version(), 3, &blocks).is_none(), "another before-state");
        let twin = block(1);
        assert_eq!(twin.digest(), blocks[1].digest());
        assert!(find(&version, 3, &[Arc::clone(&blocks[0]), twin]).is_none(), "a distinct Arc");
        let reversed = [Arc::clone(&blocks[1]), Arc::clone(&blocks[0])];
        assert!(find(&version, 3, &reversed).is_none(), "another order");
        assert!(find(&version, 3, &blocks[..1]).is_none(), "a prefix");
        assert!(find(&version, 3, &[]).is_none(), "no blocks");
        let longer = [Arc::clone(&blocks[0]), Arc::clone(&blocks[1]), block(2)];
        assert!(find(&version, 3, &longer).is_none(), "an extension");
    }

    #[test]
    fn the_memo_never_exceeds_its_bound_and_evicts_the_oldest() {
        let mut memo = Memo::default();
        let mut state = machine_for(StateMachineKind::Counter);
        let blocks = [block(0)];
        let mut versions = Vec::new();
        for round in 1..=3 * CAPACITY as u64 {
            state.apply(Round(round), &Transaction::write(ClientId(0), round, round, 8));
            versions.push(state.version());
            memo.insert(executed(&*state, round, &blocks));
            assert!(memo.rounds.len() <= CAPACITY);
        }
        assert_eq!(memo.rounds.len(), CAPACITY);
        let held = |i: usize| memo.find(&versions[i], Round(i as u64 + 1), blocks.iter()).is_some();
        assert!((0..2 * CAPACITY).all(|i| !held(i)), "evicted");
        assert!((2 * CAPACITY..3 * CAPACITY).all(held), "the last {CAPACITY}");
    }

    fn package(cluster: u32, heights: [u64; 2]) -> Arc<RoundPackage> {
        let committed = heights
            .into_iter()
            .map(|h| {
                let block = block(h);
                let cert = QuorumCert::new(ClusterId(cluster), block.digest(), SigSet::default());
                CommittedBlock { block, cert: Arc::new(cert) }
            })
            .collect();
        Arc::new(RoundPackage::new(ClusterId(cluster), Round(1), committed, vec![], None))
    }

    #[test]
    fn replicas_on_one_thread_execute_a_round_once_and_agree() {
        let packages: BTreeMap<ClusterId, Arc<RoundPackage>> = (0..2)
            .map(|c| (ClusterId(c), package(c, [10 * c as u64, 10 * c as u64 + 1])))
            .collect();
        for kind in [StateMachineKind::Counter, StateMachineKind::Kv] {
            let before = executed_round_stats();
            let mut replicas: Vec<_> = (0..4).map(|_| machine_for(kind)).collect();
            let moved: Vec<u64> =
                replicas.iter_mut().map(|m| execute_round(m, Round(1), &packages)).collect();
            let after = executed_round_stats();
            assert_eq!((after.hits - before.hits, after.misses - before.misses), (3, 1));

            // What a replica on a version of its own computes: the same state,
            // executed again.
            let mut own = machine_from_snapshot(&StateSnapshot::empty(kind));
            let own_moved = execute_round(&mut own, Round(1), &packages);
            assert_eq!(executed_round_stats().misses, after.misses + 1, "{kind:?}: own version");
            for (m, bytes) in replicas.iter().zip(moved) {
                assert!(m.version().same(&replicas[0].version()), "{kind:?}: one shared result");
                assert_eq!((m.digest(), m.snapshot()), (own.digest(), own.snapshot()));
                assert_eq!((m.entries(), m.value_bytes()), (own.entries(), own.value_bytes()));
                assert_eq!(bytes, own_moved);
            }
            assert_eq!(own.entries(), 4);
            assert_eq!(own_moved, if kind == StateMachineKind::Kv { 32 } else { 0 });
        }
    }
}

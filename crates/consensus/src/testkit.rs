//! In-memory test harness for [`TotalOrderBroadcast`] implementations, and the
//! conformance suite every local TOB runs.
//!
//! The harness instantiates one TOB per replica of a cluster, routes their messages
//! through a FIFO queue (optionally dropping messages to/from chosen replicas to
//! emulate crashes) and records deliveries and complaints. Protocol crates use it for
//! unit and property tests without pulling in the full simulator.
//!
//! [`tob_conformance_suite!`](crate::tob_conformance_suite) expands, in a backend's
//! test module, to one `#[test]` per check below plus two property tests, so every
//! backend is held to the same contract; the backend keeps only the tests of what
//! is its own (message sizes, message pattern).

use crate::block::CommittedBlock;
use crate::tob::{FaultMode, SendAction, TobAction, TobConfig, TotalOrderBroadcast, WireSize};
use ava_crypto::{Digest, KeyRegistry, Keypair, Sha256};
use ava_types::{
    ClientId, ClusterId, Duration, Operation, ReplicaId, Time, Timestamp, Transaction,
};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::rc::Rc;

/// A deterministic, latency-free network of TOB instances.
pub struct LocalNet<T: TotalOrderBroadcast> {
    /// The instances, keyed by replica id.
    pub nodes: BTreeMap<ReplicaId, T>,
    /// Messages in flight: (from, to, msg).
    queue: VecDeque<(ReplicaId, ReplicaId, T::Msg)>,
    /// Blocks delivered per replica, in delivery order.
    pub delivered: BTreeMap<ReplicaId, Vec<CommittedBlock>>,
    /// Complaints emitted per replica.
    pub complaints: BTreeMap<ReplicaId, Vec<ReplicaId>>,
    /// Replicas whose in- and outbound messages are dropped (crashed).
    pub down: HashSet<ReplicaId>,
    /// Virtual time handed to the instances.
    pub now: Time,
    /// Where every returned action is folded, if tracing ([`LocalNet::traced`]).
    trace: Option<ActionTrace>,
    /// The action buffer the instances append to, drained after every call.
    out: Vec<TobAction<T::Msg>>,
}

impl<T: TotalOrderBroadcast> LocalNet<T> {
    /// Build a network from `(replica, instance)` pairs.
    pub fn new(nodes: impl IntoIterator<Item = (ReplicaId, T)>) -> Self {
        let nodes: BTreeMap<_, _> = nodes.into_iter().collect();
        let delivered = nodes.keys().map(|&id| (id, Vec::new())).collect();
        let complaints = nodes.keys().map(|&id| (id, Vec::new())).collect();
        LocalNet {
            nodes,
            queue: VecDeque::new(),
            delivered,
            complaints,
            down: HashSet::new(),
            now: Time::ZERO,
            trace: None,
            out: Vec::new(),
        }
    }

    /// Fold every action this network's instances return into `trace`.
    pub fn traced(mut self, trace: &ActionTrace) -> Self {
        self.trace = Some(trace.clone());
        self
    }

    /// Ask replica `at` to broadcast `op`.
    pub fn broadcast(&mut self, at: ReplicaId, op: Operation) {
        let now = self.now;
        self.step(at, |node, out| node.broadcast(op, now, out));
    }

    /// Advance virtual time and tick every live node.
    pub fn tick(&mut self, advance: Duration) {
        self.now = self.now + advance;
        let ids: Vec<ReplicaId> = self.nodes.keys().copied().collect();
        let now = self.now;
        for id in ids {
            if self.down.contains(&id) {
                continue;
            }
            self.step(id, |node, out| node.on_tick(now, out));
        }
    }

    /// Install `leader` with timestamp `ts` at every live node.
    pub fn install_leader(&mut self, leader: ReplicaId, ts: Timestamp) {
        let ids: Vec<ReplicaId> = self.nodes.keys().copied().collect();
        for id in ids {
            if !self.down.contains(&id) {
                self.install_leader_at(id, leader, ts);
            }
        }
    }

    /// Install `leader` with timestamp `ts` at node `at` alone (the others
    /// install it later, or never).
    pub fn install_leader_at(&mut self, at: ReplicaId, leader: ReplicaId, ts: Timestamp) {
        let now = self.now;
        self.step(at, |node, out| node.new_leader(leader, ts, now, out));
    }

    /// Deliver at most `steps` queued messages; returns whether the network went
    /// quiescent within them. Stopping short is how a test cuts a run mid-decision.
    pub fn deliver(&mut self, steps: usize) -> bool {
        for _ in 0..steps {
            let Some((from, to, msg)) = self.queue.pop_front() else {
                return true;
            };
            if self.down.contains(&from) || self.down.contains(&to) {
                continue;
            }
            let now = self.now;
            if self.nodes.contains_key(&to) {
                self.step(to, |node, out| node.on_message(from, msg, now, out));
            }
        }
        self.queue.is_empty()
    }

    /// Deliver queued messages until the network is quiescent (or `max_steps` is
    /// reached, to guard against livelock in broken protocols).
    pub fn run_to_quiescence(&mut self, max_steps: usize) {
        assert!(self.deliver(max_steps), "run_to_quiescence exhausted max_steps");
    }

    /// Blocks delivered by `replica`.
    pub fn delivered_at(&self, replica: ReplicaId) -> &[CommittedBlock] {
        &self.delivered[&replica]
    }

    /// Operations delivered by `replica`, flattened across blocks.
    pub fn delivered_ops(&self, replica: ReplicaId) -> Vec<Operation> {
        self.delivered[&replica].iter().flat_map(|b| b.block.ops.clone()).collect()
    }

    /// Assert the network holds one log: no two replicas delivered different
    /// blocks at one height, and every replica delivered each of `ops` exactly
    /// once. `case` names the scenario in the failure message.
    pub fn assert_one_log(&self, ops: &[Operation], case: &str) {
        let mut at_height: BTreeMap<u64, Digest> = BTreeMap::new();
        let mut expected: Vec<Digest> = ops.iter().map(Digest::of).collect();
        expected.sort();
        for (replica, blocks) in &self.delivered {
            for decided in blocks {
                let digest = decided.block.digest();
                let first = *at_height.entry(decided.block.height).or_insert(digest);
                assert_eq!(first, digest, "{case}: fork at height {}", decided.block.height);
            }
            let mut delivered: Vec<Digest> =
                blocks.iter().flat_map(|b| b.block.ops.iter().map(Digest::of)).collect();
            delivered.sort();
            assert_eq!(delivered, expected, "{case}: {replica} lost or repeated an operation");
        }
    }

    /// Run one entry point of the instance at `at` and carry out what it
    /// appended to the network's action buffer.
    fn step(&mut self, at: ReplicaId, call: impl FnOnce(&mut T, &mut Vec<TobAction<T::Msg>>)) {
        let mut out = std::mem::take(&mut self.out);
        call(self.nodes.get_mut(&at).expect("unknown replica"), &mut out);
        for action in out.drain(..) {
            if let Some(trace) = &self.trace {
                trace.fold(at, &action);
            }
            match action {
                TobAction::Send { to, msg } => self.queue.push_back((at, to, msg)),
                TobAction::SendAll { to, msg } => {
                    self.queue.extend(to.into_iter().map(|to| (at, to, msg.clone())))
                }
                TobAction::Deliver(block) => self.delivered.get_mut(&at).expect("node").push(block),
                TobAction::Complain { leader, .. } => {
                    self.complaints.get_mut(&at).expect("node").push(leader)
                }
                TobAction::Consume(_) => {}
            }
        }
        self.out = out;
    }
}

/// An opt-in fingerprint of the TOB layer: every action an instance returns,
/// in order, folded into one SHA-256 — the acting replica, then for a send its
/// recipient, message kind and wire size; for a delivery the height and block
/// digest; for a complaint the leader and how long it waited; for a CPU charge
/// its duration. A [`TobAction::SendAll`] folds byte for byte as the one
/// [`TobAction::Send`] per recipient it stands for. Handles share one hasher,
/// so a trace can span every network a sweep builds. Off unless a network is
/// [`LocalNet::traced`].
#[derive(Clone, Default)]
pub struct ActionTrace(Rc<RefCell<Sha256>>);

impl ActionTrace {
    fn fold<M: WireSize>(&self, at: ReplicaId, action: &TobAction<M>) {
        let mut h = self.0.borrow_mut();
        let at = at.0.to_le_bytes();
        match action {
            TobAction::Send { .. } | TobAction::SendAll { .. } => {
                for (to, msg) in action.sends() {
                    h.update(&at);
                    h.update(b"send");
                    h.update(&to.0.to_le_bytes());
                    h.update(msg.kind_label().as_bytes());
                    h.update(&(msg.wire_size() as u64).to_le_bytes());
                }
            }
            TobAction::Deliver(decided) => {
                h.update(&at);
                h.update(b"deliver");
                h.update(&decided.block.height.to_le_bytes());
                h.update(&decided.block.digest().0);
            }
            TobAction::Complain { leader, silent_for } => {
                h.update(&at);
                h.update(b"complain");
                h.update(&leader.0.to_le_bytes());
                h.update(&silent_for.0.to_le_bytes());
            }
            TobAction::Consume(cost) => {
                h.update(&at);
                h.update(b"consume");
                h.update(&cost.0.to_le_bytes());
            }
        }
    }

    /// The fingerprint of everything folded so far, as hex.
    pub fn hex(&self) -> String {
        Digest(self.0.borrow().clone().finalize()).hex()
    }
}

/// The partial-delivery sweep every backend must pass: for each cut, build a
/// fresh network with `make`, broadcast `ops` round-robin, deliver exactly `cut`
/// messages, change the regency once per entry of `leaders` (delivering `gap`
/// messages between one change and the next), run to quiescence and
/// [`LocalNet::assert_one_log`] — until a cut falls past the end of the run.
/// Returns the number of cuts swept. A leader change that discards a block
/// some replica already delivered fails it at exactly those cuts.
pub fn sweep_regency_change_cuts<T: TotalOrderBroadcast>(
    make: impl Fn() -> LocalNet<T>,
    ops: &[Operation],
    leaders: &[ReplicaId],
    gap: usize,
) -> usize {
    for cut in 0.. {
        let mut net = make();
        let members: Vec<ReplicaId> = net.nodes.keys().copied().collect();
        for (i, op) in ops.iter().enumerate() {
            net.broadcast(members[i % members.len()], op.clone());
        }
        let past_the_end = net.deliver(cut);
        for (i, &leader) in leaders.iter().enumerate() {
            if i > 0 {
                net.deliver(gap);
            }
            net.install_leader(leader, Timestamp(i as u64 + 1));
        }
        net.run_to_quiescence(1_000_000);
        let case = format!("n={} cut={cut} leaders={leaders:?} gap={gap}", members.len());
        net.assert_one_log(ops, &case);
        if past_the_end {
            return cut;
        }
    }
    unreachable!("the loop returns once a cut is past the end")
}

fn op(seq: u64) -> Operation {
    Operation::Trans(Transaction::write(ClientId(0), seq, seq, 64))
}

fn ops(count: u64) -> Vec<Operation> {
    (0..count).map(op).collect()
}

/// The local watchdog's contract (`PendingPool::watchdog_bound`, DESIGN.md
/// §14) as every backend must keep it, on `net`: fresh, led by its first
/// member, and configured with the default ε (500 ms) and a timeout of at
/// least 2 s. Under a silent leader its second member complains after 4 ×
/// the worst delivery gap it has seen — also when the silent leader is the next
/// one — and after ε once `reset` wiped that history; once per waiting period.
pub fn check_watchdog_follows_pace<T: TotalOrderBroadcast>(mut net: LocalNet<T>) {
    let ids: Vec<ReplicaId> = net.nodes.keys().copied().collect();
    let (first, watcher, second) = (ids[0], ids[1], ids[2]);
    let ms = Duration::from_millis;
    let complaints = |net: &LocalNet<T>| net.complaints[&watcher].len();
    // A 301 ms wait for the first delivery: the bound becomes 1 204 ms.
    net.nodes.get_mut(&first).expect("node").set_fault_mode(FaultMode::SilentLeader);
    net.broadcast(watcher, op(0));
    net.run_to_quiescence(100_000);
    net.tick(ms(300));
    net.nodes.get_mut(&first).expect("node").set_fault_mode(FaultMode::Correct);
    net.tick(ms(1));
    net.run_to_quiescence(100_000);
    assert_eq!(net.delivered_ops(watcher), vec![op(0)]);
    assert_eq!(complaints(&net), 0, "a 301 ms wait is under ε");
    // The history outlives the leader: the next one is held to it as well.
    net.nodes.get_mut(&second).expect("node").set_fault_mode(FaultMode::SilentLeader);
    net.install_leader(second, Timestamp(1));
    net.run_to_quiescence(100_000);
    net.broadcast(watcher, op(1));
    net.run_to_quiescence(100_000);
    net.tick(ms(1_203));
    assert_eq!(complaints(&net), 0, "complained before 4 × the worst gap");
    net.tick(ms(1));
    assert_eq!(complaints(&net), 1, "no complaint at 4 × the worst gap");
    // A restart forgets it: ε again, and once per waiting period.
    net.nodes.get_mut(&watcher).expect("node").reset();
    net.broadcast(watcher, op(2));
    net.run_to_quiescence(100_000);
    net.tick(ms(499));
    assert_eq!(complaints(&net), 1, "a restarted replica complained before ε");
    net.tick(ms(1));
    assert_eq!(complaints(&net), 2, "a restarted replica did not complain at ε");
    net.tick(ms(5_000));
    assert_eq!(complaints(&net), 2, "complained twice in one waiting period");
}

/// A member that installs a new leader re-forwards its undelivered operations
/// at once; on `net` (fresh, led by its first member) the new leader here
/// receives that forward before it has installed its own leadership, and must
/// still propose the operation once it has.
pub fn check_forward_before_leadership_is_kept<T: TotalOrderBroadcast>(mut net: LocalNet<T>) {
    let ids: Vec<ReplicaId> = net.nodes.keys().copied().collect();
    let (first, next, member) = (ids[0], ids[1], ids[2]);
    net.nodes.get_mut(&first).expect("node").set_fault_mode(FaultMode::SilentLeader);
    net.broadcast(member, op(0));
    net.run_to_quiescence(100_000);
    net.install_leader_at(member, next, Timestamp(1));
    net.run_to_quiescence(100_000);
    net.install_leader(next, Timestamp(1));
    net.run_to_quiescence(100_000);
    net.tick(Duration::from_millis(1));
    net.run_to_quiescence(100_000);
    net.assert_one_log(&[op(0)], "forward before leadership");
}

/// How a backend builds one instance: its `new(cfg, keypair, registry, leader)`.
pub type New<T> = fn(TobConfig, Keypair, KeyRegistry, ReplicaId) -> T;

/// A fresh cluster of `n` instances built by `new` and led by replica 0 —
/// blocks of at most 10 operations, a 5 s watchdog ceiling — and its keys.
pub fn cluster<T: TotalOrderBroadcast>(new: New<T>, n: u32) -> (LocalNet<T>, KeyRegistry) {
    let registry = KeyRegistry::new();
    let members: Vec<ReplicaId> = (0..n).map(ReplicaId).collect();
    let nodes: Vec<(ReplicaId, T)> = members
        .iter()
        .map(|&id| {
            let keypair = registry.register(id);
            let mut cfg = TobConfig::new(ClusterId(0), id, members.clone());
            cfg.max_block_size = 10;
            cfg.timeout = Duration::from_secs(5);
            (id, new(cfg, keypair, registry.clone(), ReplicaId(0)))
        })
        .collect();
    (LocalNet::new(nodes), registry)
}

fn quorum(n: u32) -> usize {
    2 * ((n as usize - 1) / 3) + 1
}

/// Uniform agreement: `ops` operations submitted round-robin from replica
/// `first` on, and every replica delivers all of them in one order.
pub fn check_uniform_agreement<T: TotalOrderBroadcast>(new: New<T>, n: u32, ops: u64, first: u32) {
    let (mut net, _) = cluster(new, n);
    for i in 0..ops {
        net.broadcast(ReplicaId(first.wrapping_add(i as u32) % n), op(i));
    }
    net.tick(Duration::from_millis(1));
    net.run_to_quiescence(2_000_000);
    let reference = net.delivered_ops(ReplicaId(0));
    assert_eq!(reference.len(), ops as usize);
    for r in 1..n {
        assert_eq!(net.delivered_ops(ReplicaId(r)), reference, "replica {r} diverged");
    }
}

/// Every block delivered under `ops` operations carries a certificate that
/// holds for the cluster's quorum and for no more than the cluster.
pub fn check_certificates<T: TotalOrderBroadcast>(new: New<T>, n: u32, ops: u64) {
    let (mut net, registry) = cluster(new, n);
    let members: Vec<ReplicaId> = net.nodes.keys().copied().collect();
    for i in 0..ops {
        net.broadcast(ReplicaId((i as u32 + n - 1) % n), op(i));
    }
    net.run_to_quiescence(2_000_000);
    for (replica, blocks) in &net.delivered {
        assert!(!blocks.is_empty(), "{replica} delivered nothing");
        for block in blocks {
            assert!(block.verify(&registry, &members, quorum(n)));
            assert!(!block.verify(&registry, &members, n as usize + 1));
        }
    }
}

/// Every replica delivers heights 0, 1, 2, … in order, with `ops` operations
/// submitted round-robin and the network run to quiescence after every
/// `burst` of them.
pub fn check_height_order<T: TotalOrderBroadcast>(new: New<T>, n: u32, ops: u64, burst: u64) {
    let (mut net, _) = cluster(new, n);
    for i in 0..ops {
        net.broadcast(ReplicaId(i as u32 % n), op(i));
        if i % burst == burst - 1 {
            net.run_to_quiescence(500_000);
        }
    }
    net.tick(Duration::from_millis(1));
    net.run_to_quiescence(500_000);
    for (replica, blocks) in &net.delivered {
        let heights: Vec<u64> = blocks.iter().map(|b| b.block.height).collect();
        assert_eq!(heights, (0..blocks.len() as u64).collect::<Vec<_>>(), "at {replica}");
        assert_eq!(net.delivered_ops(*replica).len(), ops as usize, "at {replica}");
    }
}

/// A leader holding 25 operations proposes blocks of at most
/// `max_block_size` (10), and every one is delivered.
pub fn check_batch_size_limit<T: TotalOrderBroadcast>(new: New<T>) {
    let (mut net, _) = cluster(new, 4);
    for i in 0..25 {
        net.broadcast(ReplicaId(0), op(i));
    }
    net.tick(Duration::from_millis(1));
    net.run_to_quiescence(200_000);
    let blocks = net.delivered_at(ReplicaId(0));
    assert!(blocks.len() >= 3, "expected multiple blocks, got {}", blocks.len());
    assert!(blocks.iter().all(|b| b.block.ops.len() <= 10));
    assert_eq!(net.delivered_ops(ReplicaId(3)).len(), 25);
}

/// One operation forwarded by two replicas is delivered once.
pub fn check_duplicate_forwards<T: TotalOrderBroadcast>(new: New<T>) {
    let (mut net, _) = cluster(new, 4);
    net.broadcast(ReplicaId(1), op(7));
    net.broadcast(ReplicaId(2), op(7));
    net.run_to_quiescence(100_000);
    assert_eq!(net.delivered_ops(ReplicaId(0)), vec![op(7)]);
}

/// A silent leader holds every replica's operation until the watchdog makes
/// the replicas complain; the next leader then delivers all of them.
pub fn check_silent_leader_recovery<T: TotalOrderBroadcast>(new: New<T>) {
    let (mut net, _) = cluster(new, 4);
    net.nodes.get_mut(&ReplicaId(0)).expect("node").set_fault_mode(FaultMode::SilentLeader);
    for i in 0..4 {
        net.broadcast(ReplicaId(i), op(i as u64));
    }
    net.run_to_quiescence(100_000);
    assert!(net.delivered_ops(ReplicaId(1)).is_empty());
    // Past the timeout every replica that is still waiting complains.
    net.tick(Duration::from_secs(6));
    net.run_to_quiescence(100_000);
    let complainers = net.complaints.values().filter(|c| !c.is_empty()).count();
    assert!(complainers >= 3, "expected the waiting replicas to complain, got {complainers}");
    net.install_leader(ReplicaId(1), Timestamp(1));
    net.run_to_quiescence(100_000);
    net.tick(Duration::from_millis(10));
    net.run_to_quiescence(100_000);
    assert_eq!(net.delivered_ops(ReplicaId(2)).len(), 4, "an operation was lost");
}

/// With its last `f` replicas crashed, an `n`-replica cluster still delivers
/// everything the others submit.
pub fn check_f_crashed_followers<T: TotalOrderBroadcast>(new: New<T>, n: u32) {
    let (mut net, _) = cluster(new, n);
    let live = n - (n - 1) / 3;
    net.down.extend((live..n).map(ReplicaId));
    for i in 0..6 {
        net.broadcast(ReplicaId(i as u32 % live), op(i));
    }
    net.run_to_quiescence(300_000);
    for r in 0..n {
        let expected = if r < live { 6 } else { 0 };
        assert_eq!(net.delivered_ops(ReplicaId(r)).len(), expected, "at replica {r}");
    }
}

/// One regency change at every cut of a 4- and a 7-replica run.
pub fn check_one_regency_change_at_every_cut<T: TotalOrderBroadcast>(new: New<T>) {
    for n in [4, 7] {
        let cuts = sweep_regency_change_cuts(|| cluster(new, n).0, &ops(25), &[ReplicaId(1)], 0);
        assert!(cuts > 100, "the sweep covered only {cuts} cuts");
    }
}

/// Two regency changes at every cut — back to back, and with the second
/// landing in the middle of the first one's hand-over — to a third leader and
/// back to the first.
pub fn check_two_regency_changes_at_every_cut<T: TotalOrderBroadcast>(new: New<T>) {
    for leaders in [[ReplicaId(1), ReplicaId(2)], [ReplicaId(1), ReplicaId(0)]] {
        for (n, gap) in [(4, 0), (4, 3), (4, 8), (4, 20), (7, 0), (7, 30)] {
            sweep_regency_change_cuts(|| cluster(new, n).0, &ops(25), &leaders, gap);
        }
    }
}

/// The [`ActionTrace`] of the regency-change sweeps (one change; two changes
/// with gaps 0 and 8; 4 and 7 replicas), [`check_watchdog_follows_pace`] and
/// [`check_forward_before_leadership_is_kept`] is `pinned`: a backend pins it so
/// that a refactor of its shared layer shows as a moved action stream, not
/// only as a failed assertion.
pub fn check_action_trace<T: TotalOrderBroadcast>(new: New<T>, pinned: &str) {
    let trace = ActionTrace::default();
    let shared = &trace;
    let make = |n| move || cluster(new, n).0.traced(shared);
    for n in [4, 7] {
        sweep_regency_change_cuts(make(n), &ops(25), &[ReplicaId(1)], 0);
        for leaders in [[ReplicaId(1), ReplicaId(2)], [ReplicaId(1), ReplicaId(0)]] {
            for gap in [0, 8] {
                sweep_regency_change_cuts(make(n), &ops(25), &leaders, gap);
            }
        }
    }
    check_watchdog_follows_pace(make(4)());
    check_forward_before_leadership_is_kept(make(4)());
    assert_eq!(trace.hex(), pinned, "the TOB layer's actions moved");
}

/// Expands, inside a backend's test module, to the conformance suite of this
/// module for the backend whose constructor is `$new` — one `#[test]` per
/// check, plus [`check_action_trace`] against `$trace` and two property tests.
/// The calling crate needs `proptest` as a dev-dependency (this crate does not).
#[macro_export]
macro_rules! tob_conformance_suite {
    ($new:path, trace = $trace:literal) => {
        $crate::tob_conformance_suite! { @tests
            all_replicas_deliver_the_same_operations => check_uniform_agreement($new, 4, 7, 0);
            delivered_blocks_carry_valid_quorum_certificates => check_certificates($new, 4, 1);
            commit_certificates_validate_against_cluster_quorum => check_certificates($new, 7, 1);
            heights_are_consecutive_and_ordered => check_height_order($new, 7, 30, 10);
            deliveries_are_in_height_order => check_height_order($new, 4, 35, 35);
            respects_batch_size_limit => check_batch_size_limit($new);
            duplicate_forwards_are_not_delivered_twice => check_duplicate_forwards($new);
            silent_leader_triggers_complaints_and_new_leader_recovers
                => check_silent_leader_recovery($new);
            crashed_follower_does_not_block_progress => check_f_crashed_followers($new, 4);
            tolerates_f_crashed_followers => check_f_crashed_followers($new, 7);
            a_regency_change_at_any_cut_neither_forks_nor_loses_an_operation
                => check_one_regency_change_at_every_cut($new);
            two_regency_changes_in_a_row_at_any_cut_neither_fork_nor_lose_an_operation
                => check_two_regency_changes_at_every_cut($new);
            the_watchdog_follows_the_clusters_pace
                => check_watchdog_follows_pace($crate::testkit::cluster($new, 4).0);
            a_forward_that_arrives_before_new_leader_is_proposed_after_it
                => check_forward_before_leadership_is_kept($crate::testkit::cluster($new, 4).0);
            the_action_trace_is_pinned => check_action_trace($new, $trace);
        }

        proptest::proptest! {
            #![proptest_config(proptest::ProptestConfig::with_cases(16))]

            #[test]
            fn prop_uniform_agreement(n in 4u32..8, ops in 1u64..30, first in 0u32..1000) {
                $crate::testkit::check_uniform_agreement($new, n, ops, first);
            }

            #[test]
            fn prop_certificates_always_valid(n in 4u32..8, ops in 1u64..15) {
                $crate::testkit::check_certificates($new, n, ops);
            }
        }
    };
    (@tests $($name:ident => $check:ident($($arg:expr),*);)*) => {
        $(
            #[test]
            fn $name() {
                $crate::testkit::$check($($arg),*);
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone)]
    struct Msg(usize);

    impl WireSize for Msg {
        fn wire_size(&self) -> usize {
            self.0
        }
    }

    #[test]
    fn a_fan_out_folds_as_the_sends_it_stands_for() {
        let (at, to) = (ReplicaId(4), [3, 1, 2].map(ReplicaId));
        let (fanned, spelled) = (ActionTrace::default(), ActionTrace::default());
        fanned.fold(at, &TobAction::SendAll { to: to.to_vec(), msg: Msg(120) });
        for to in to {
            spelled.fold(at, &TobAction::Send { to, msg: Msg(120) });
        }
        for trace in [&fanned, &spelled] {
            trace.fold(at, &TobAction::<Msg>::Consume(Duration::from_micros(40)));
        }
        assert_eq!(fanned.hex(), spelled.hex());
        let other = ActionTrace::default();
        other.fold(at, &TobAction::SendAll { to: to[..2].to_vec(), msg: Msg(120) });
        other.fold(at, &TobAction::<Msg>::Consume(Duration::from_micros(40)));
        assert_ne!(other.hex(), spelled.hex(), "a recipient fewer folds differently");
    }
}

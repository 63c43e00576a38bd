//! In-memory test harness for [`TotalOrderBroadcast`] implementations.
//!
//! The harness instantiates one TOB per replica of a cluster, routes their messages
//! through a FIFO queue (optionally dropping messages to/from chosen replicas to
//! emulate crashes) and records deliveries and complaints. Protocol crates use it for
//! unit and property tests without pulling in the full simulator.

use crate::block::CommittedBlock;
use crate::tob::{FaultMode, TobAction, TotalOrderBroadcast};
use ava_crypto::Digest;
use ava_types::{ClientId, Duration, Operation, ReplicaId, Time, Timestamp, Transaction};
use std::collections::{BTreeMap, HashSet, VecDeque};

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
        }
    }

    /// Ask replica `at` to broadcast `op`.
    pub fn broadcast(&mut self, at: ReplicaId, op: Operation) {
        let now = self.now;
        let actions = self.nodes.get_mut(&at).expect("unknown replica").broadcast(op, now);
        self.apply(at, actions);
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
            let actions = self.nodes.get_mut(&id).expect("node").on_tick(now);
            self.apply(id, actions);
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
        let actions = self.nodes.get_mut(&at).expect("unknown replica").new_leader(leader, ts, now);
        self.apply(at, actions);
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
            let Some(node) = self.nodes.get_mut(&to) else {
                continue;
            };
            let actions = node.on_message(from, msg, now);
            self.apply(to, actions);
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

    fn apply(&mut self, at: ReplicaId, actions: Vec<TobAction<T::Msg>>) {
        for action in actions {
            match action {
                TobAction::Send { to, msg } => self.queue.push_back((at, to, msg)),
                TobAction::Deliver(block) => self.delivered.get_mut(&at).expect("node").push(block),
                TobAction::Complain { leader, .. } => {
                    self.complaints.get_mut(&at).expect("node").push(leader)
                }
                TobAction::Consume(_) => {}
            }
        }
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

//! In-memory test harness for [`TotalOrderBroadcast`] implementations.
//!
//! The harness instantiates one TOB per replica of a cluster, routes their messages
//! through a FIFO queue (optionally dropping messages to/from chosen replicas to
//! emulate crashes) and records deliveries and complaints. Protocol crates use it for
//! unit and property tests without pulling in the full simulator.

use crate::block::CommittedBlock;
use crate::tob::{TobAction, TotalOrderBroadcast};
use ava_crypto::Digest;
use ava_types::{Duration, Operation, ReplicaId, Time, Timestamp};
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
        let now = self.now;
        for id in ids {
            if self.down.contains(&id) {
                continue;
            }
            let actions = self.nodes.get_mut(&id).expect("node").new_leader(leader, ts, now);
            self.apply(id, actions);
        }
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
                TobAction::Complain { leader } => {
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

//! The discrete-event simulation engine.

use crate::actor::{Actor, Context, Effects, SendOp, SimMessage};
use crate::cost::CostModel;
use crate::event::{Event, EventKind, NO_NODE};
use crate::latency::LatencyModel;
use crate::profile::{ActorKind, HandlerProfile, Stopwatch};
use crate::stats::NetStats;
use ava_types::{ClientId, Duration, Output, Region, ReplicaId, Time};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::time::Instant;

/// Node id assigned to a client process. Clients live in a reserved id range so that
/// they never collide with replica ids.
pub fn client_node_id(client: ClientId) -> ReplicaId {
    ReplicaId(1_000_000 + client.0)
}

/// An active network partition between two node groups (clusters). While a
/// partition is in place, every message between the two groups is dropped, in both
/// directions; intra-group traffic is unaffected. Partitions never consume
/// randomness, so installing or healing one cannot perturb the RNG draw order of
/// the rest of the run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct GroupPartition {
    a: u32,
    b: u32,
}

impl GroupPartition {
    fn new(a: u32, b: u32) -> Self {
        GroupPartition { a: a.min(b), b: a.max(b) }
    }

    fn severs(&self, from: u32, to: u32) -> bool {
        *self == GroupPartition::new(from, to)
    }
}

struct NodeSlot<M> {
    id: ReplicaId,
    actor: Box<dyn Actor<M> + Send>,
    region: Region,
    group: u32,
    /// The group's index in the [`NetStats`] pair matrix.
    group_index: usize,
    busy_until: Time,
    crashed: bool,
    /// Lifecycle epoch, bumped on restart: timers armed in an earlier epoch are
    /// stale (the restarted process no longer knows about them) and are dropped.
    epoch: u64,
}

/// What routing needs to know about a message's sender, read off its
/// [`NodeSlot`] once per handled event.
#[derive(Clone, Copy)]
struct Origin {
    id: ReplicaId,
    region: Region,
    group: u32,
    group_index: usize,
}

/// Hasher of the id → slot index. Node ids are small integers this program
/// hands out itself (replicas count up from 0; clients, brokers and load
/// generators from fixed bases), so one multiplication spreads them over the
/// table; SipHash's resistance to chosen keys buys nothing here and was paid on
/// every routed message.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(b.into());
        }
    }

    fn write_u32(&mut self, id: u32) {
        self.0 = (self.0.rotate_left(32) ^ u64::from(id)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The deterministic discrete-event simulator.
///
/// `M` is the single message type exchanged by all actors of the simulation (protocol
/// crates define an enum covering their sub-protocols).
pub struct Simulation<M: SimMessage> {
    /// Every node ever added, in order; nodes are never removed, so a position
    /// here (a *slot*) names a node for good. Events carry the slot of the node
    /// they are addressed to.
    nodes: Vec<NodeSlot<M>>,
    /// Slot by node id, consulted once per routed message and per call that
    /// names a node from outside.
    slot_of: HashMap<ReplicaId, u32, BuildHasherDefault<IdHasher>>,
    queue: BinaryHeap<Event<M>>,
    seq: u64,
    now: Time,
    latency: LatencyModel,
    costs: CostModel,
    rng: StdRng,
    outputs: Vec<Output>,
    stats: NetStats,
    crash_schedule: Vec<(Time, ReplicaId)>,
    corrupt_schedule: Vec<(Time, ReplicaId, u64)>,
    partitions: Vec<GroupPartition>,
    /// The buffers a handler's [`Context`] writes to, kept (emptied) between
    /// events so their allocations are reused.
    effects: Effects<M>,
    /// The handler profile, while switched on (see [`Simulation::enable_profile`]).
    profile: Option<Box<HandlerProfile>>,
}

impl<M: SimMessage> Simulation<M> {
    /// Create a simulation with the given RNG seed, latency model and cost model.
    pub fn new(seed: u64, latency: LatencyModel, costs: CostModel) -> Self {
        Simulation {
            nodes: Vec::new(),
            slot_of: HashMap::default(),
            queue: BinaryHeap::new(),
            seq: 0,
            now: Time::ZERO,
            latency,
            costs,
            rng: StdRng::seed_from_u64(seed),
            outputs: Vec::new(),
            stats: NetStats::default(),
            crash_schedule: Vec::new(),
            corrupt_schedule: Vec::new(),
            partitions: Vec::new(),
            effects: Effects::default(),
            profile: None,
        }
    }

    /// Add a node. `group` tags the node's cluster for local/global message
    /// accounting. The node's `on_start` hook runs at the current virtual time.
    ///
    /// Actors must be `Send` so a prepared simulation can move to a worker thread
    /// of the parallel run executor (`ava_scenario::parallel`). Actors never run
    /// concurrently within one simulation — `Send`, not `Sync`, is the bound.
    pub fn add_node(
        &mut self,
        id: ReplicaId,
        region: Region,
        group: u32,
        actor: Box<dyn Actor<M> + Send>,
    ) {
        assert!(!self.slot_of.contains_key(&id), "node {id} already exists");
        let slot = u32::try_from(self.nodes.len()).expect("fewer than 2^32 nodes");
        assert_ne!(slot, NO_NODE, "the last slot value is reserved for \"no such node\"");
        self.slot_of.insert(id, slot);
        self.nodes.push(NodeSlot {
            id,
            actor,
            region,
            group,
            group_index: self.stats.group_index(group),
            busy_until: self.now,
            crashed: false,
            epoch: 0,
        });
        self.push_event(self.now, slot, EventKind::Start);
    }

    /// Whether the node is currently crashed.
    pub fn is_crashed(&self, id: ReplicaId) -> bool {
        self.slot_of.get(&id).is_some_and(|slot| self.nodes[*slot as usize].crashed)
    }

    /// Crash `node` at virtual time `at`: from then on it neither receives messages
    /// nor fires timers.
    pub fn crash_at(&mut self, node: ReplicaId, at: Time) {
        self.crash_schedule.push((at, node));
    }

    /// Turn `node` Byzantine at virtual time `at`: its actor's
    /// [`Actor::on_corrupt`] hook runs with `tag` (an opaque behavior code)
    /// just before the first event processed at or after `at`. Corrupting a
    /// node that does not exist is a no-op. Like a scheduled crash, corruption
    /// consumes no randomness and schedules no event of its own, and it applies
    /// to crashed nodes too — a corrupted replica that crashes and restarts
    /// stays corrupted, matching the Byzantine fault model (faults are assigned
    /// to processes, not to uptime intervals).
    pub fn corrupt_at(&mut self, node: ReplicaId, at: Time, tag: u64) {
        self.corrupt_schedule.push((at, node, tag));
    }

    /// Restart `node` at virtual time `at`: if it is crashed at that point, its
    /// crashed flag is cleared and its [`Actor::on_restart`] hook runs — the actor
    /// is expected to come back with only the state it treats as persistent.
    /// Restarting a node that is not crashed at `at` is a no-op, as is restarting
    /// a node that does not exist when this is called. Scheduling a restart
    /// consumes no randomness.
    pub fn restart_at(&mut self, node: ReplicaId, at: Time) {
        self.push_event(at.max(self.now), self.slot(node), EventKind::Restart);
    }

    /// Partition groups `a` and `b` from each other, starting now: every message
    /// between them (either direction) is dropped until [`Simulation::heal_groups`]
    /// removes the partition. Installing the same partition twice is a no-op.
    pub fn partition_groups(&mut self, a: u32, b: u32) {
        let p = GroupPartition::new(a, b);
        if !self.partitions.contains(&p) {
            self.partitions.push(p);
        }
    }

    /// Heal a partition previously installed with [`Simulation::partition_groups`].
    /// Healing a pair that is not partitioned is a no-op.
    pub fn heal_groups(&mut self, a: u32, b: u32) {
        let p = GroupPartition::new(a, b);
        self.partitions.retain(|q| *q != p);
    }

    /// Whether groups `a` and `b` are currently partitioned from each other.
    pub fn groups_partitioned(&self, a: u32, b: u32) -> bool {
        self.partitions.iter().any(|p| p.severs(a, b))
    }

    /// Replace the latency model, effective for every message routed from now on.
    /// Messages already in flight keep the delivery time they were scheduled with.
    /// Swapping the model consumes no randomness, so a run that shifts latency at
    /// time `t` is bit-identical to the unshifted run up to `t`.
    pub fn set_latency_model(&mut self, latency: LatencyModel) {
        self.latency = latency;
    }

    /// Inject a message from outside the simulation (or on behalf of `from`) that
    /// will be delivered to `to` at time `at` (clamped to the current time). The
    /// send is counted like any other; a `from` or `to` that is not a node of
    /// the simulation counts under group `u32::MAX`, and a message to a `to`
    /// that does not exist when this is called is dropped at `at`.
    pub fn external_send(&mut self, from: ReplicaId, to: ReplicaId, msg: M, at: Time) {
        let at = at.max(self.now);
        let size = msg.size_bytes();
        let (from_group, to_slot) = (self.group_index_of(self.slot(from)), self.slot(to));
        let to_group = self.group_index_of(to_slot);
        self.stats.record_send(from_group, to_group, size);
        self.push_event(at, to_slot, EventKind::Deliver { from, msg, size });
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Measurement events emitted so far.
    pub fn outputs(&self) -> &[Output] {
        &self.outputs
    }

    /// Take ownership of the emitted measurement events, leaving the buffer empty.
    pub fn take_outputs(&mut self) -> Vec<Output> {
        std::mem::take(&mut self.outputs)
    }

    /// Network statistics.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Number of pending events.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Run until the queue is empty or virtual time reaches `deadline`.
    pub fn run_until(&mut self, deadline: Time) {
        while let Some(next_at) = self.queue.peek().map(|e| e.at) {
            if next_at > deadline {
                break;
            }
            self.step();
        }
        self.now = self.now.max(deadline);
    }

    /// Run for `d` of virtual time from the current time.
    pub fn run_for(&mut self, d: Duration) {
        let deadline = self.now + d;
        self.run_until(deadline);
    }

    /// Start accumulating the [`HandlerProfile`] (host time per actor kind ×
    /// message kind) from the next event on. Profiling reads the host clock and
    /// nothing else: outputs, [`NetStats`] and every virtual time are those of
    /// the unprofiled run.
    pub fn enable_profile(&mut self) {
        self.profile.get_or_insert_with(Box::default);
    }

    /// The handler profile accumulated so far, if switched on.
    pub fn profile(&self) -> Option<&HandlerProfile> {
        self.profile.as_deref()
    }

    /// Process a single event. Returns false if the queue was empty.
    pub fn step(&mut self) -> bool {
        if self.profile.is_none() {
            self.step_timed::<()>()
        } else {
            self.step_timed::<Instant>()
        }
    }

    /// [`Simulation::step`], reading the host clock through `W` (which is `()`,
    /// and free, unless the handler profile is on).
    fn step_timed<W: Stopwatch>(&mut self) -> bool {
        let mut watch = W::start();
        let Some(event) = self.queue.pop() else {
            return false;
        };
        if W::ON {
            self.profile.as_mut().expect("timed only while profiling").pop_ns += watch.lap_ns();
        }
        self.now = self.now.max(event.at);
        self.apply_scheduled_crashes();
        self.apply_scheduled_corruptions();
        self.stats.events_processed += 1;

        let Some(slot) = self.nodes.get_mut(event.slot as usize) else {
            // Addressed to a node that did not exist when it was scheduled.
            if matches!(event.kind, EventKind::Deliver { .. }) {
                self.stats.dropped_messages += 1;
            }
            return true;
        };
        if slot.crashed {
            // A Restart event is the one thing a crashed node still reacts to: it
            // clears the crash and falls through to run the actor's restart hook.
            // Any service time accumulated before the crash is void, and bumping
            // the epoch invalidates every timer armed before the crash.
            if matches!(event.kind, EventKind::Restart) {
                slot.crashed = false;
                slot.busy_until = event.at;
                slot.epoch += 1;
            } else {
                if matches!(event.kind, EventKind::Deliver { .. }) {
                    self.stats.dropped_messages += 1;
                }
                return true;
            }
        } else if matches!(event.kind, EventKind::Restart) {
            // Restarting a running node is a no-op (e.g. the crash it was paired
            // with never applied).
            return true;
        }
        if matches!(event.kind, EventKind::Timer { epoch, .. } if epoch != slot.epoch) {
            // Armed before a restart: the process that set it is gone.
            return true;
        }

        let start = event.at.max(slot.busy_until);
        let origin = Origin {
            id: slot.id,
            region: slot.region,
            group: slot.group,
            group_index: slot.group_index,
        };
        let slot_epoch = slot.epoch;
        let mut effects = std::mem::take(&mut self.effects);
        let label = match &event.kind {
            EventKind::Deliver { msg, .. } if W::ON => msg.kind_label(),
            EventKind::Deliver { .. } => "",
            EventKind::Start => "(start)",
            EventKind::Timer { .. } => "(timer)",
            EventKind::Restart => "(restart)",
        };
        watch.lap_ns();
        let mut ctx = Context {
            node: origin.id,
            now: start,
            costs: self.costs,
            rng: &mut self.rng,
            effects: &mut effects,
        };
        let event_bytes = match event.kind {
            EventKind::Start => {
                slot.actor.on_start(&mut ctx);
                0
            }
            EventKind::Deliver { from, msg, size } => {
                slot.actor.on_message(from, msg, &mut ctx);
                size
            }
            EventKind::Timer { kind, .. } => {
                slot.actor.on_timer(kind, &mut ctx);
                0
            }
            EventKind::Restart => {
                slot.actor.on_restart(&mut ctx);
                0
            }
        };
        let handler_ns = watch.lap_ns();
        let service = self.costs.event_cost(event_bytes) + effects.consumed;
        let depart = start + service;
        slot.busy_until = depart;

        let mut sends = 0u64;
        self.outputs.append(&mut effects.outputs);
        for (delay, kind) in effects.timers.drain(..) {
            self.push_event(
                start + delay,
                event.slot,
                EventKind::Timer { kind, epoch: slot_epoch },
            );
        }
        for op in effects.sends.drain(..) {
            match op {
                SendOp::One(to, msg) => {
                    let size = msg.size_bytes();
                    sends += 1;
                    self.route(origin, to, msg, size, depart);
                }
                SendOp::Many(targets, msg) => {
                    // One shared payload: size the message once for the whole
                    // fan-out; per-recipient work is a clone (an `Arc` bump for the
                    // protocol payloads) plus event scheduling.
                    let size = msg.size_bytes();
                    sends += targets.len() as u64;
                    for to in targets {
                        self.route(origin, to, msg.clone(), size, depart);
                    }
                }
            }
        }
        effects.consumed = Duration::ZERO;
        self.effects = effects;
        if W::ON {
            // Read the clock before the row lookup: a row's post time is the
            // event's, not the profile's own bookkeeping.
            let post_ns = watch.lap_ns();
            let profile = self.profile.as_mut().expect("timed only while profiling");
            let row = profile.row(ActorKind::of(origin.id), label);
            row.events += 1;
            row.handler_ns += handler_ns;
            row.post_ns += post_ns;
            row.sends += sends;
        }
        true
    }

    fn route(&mut self, from: Origin, to: ReplicaId, msg: M, size: usize, depart: Time) {
        let Some(&to_slot) = self.slot_of.get(&to) else {
            // Destination not (yet) part of the simulation, e.g. a replica that left.
            self.stats.dropped_messages += 1;
            return;
        };
        let dest = &self.nodes[to_slot as usize];
        let (to_region, to_group) = (dest.region, dest.group);
        self.stats.record_send(from.group_index, dest.group_index, size);
        // Active partitions sever the two groups deterministically (no RNG roll).
        if from.group != to_group && self.groups_partitioned(from.group, to_group) {
            self.stats.dropped_messages += 1;
            return;
        }
        let latency = self.latency.one_way(from.region, to_region, from.id == to, &mut self.rng);
        self.push_event(depart + latency, to_slot, EventKind::Deliver { from: from.id, msg, size });
    }

    /// The slot of `node`, or [`NO_NODE`].
    fn slot(&self, node: ReplicaId) -> u32 {
        self.slot_of.get(&node).copied().unwrap_or(NO_NODE)
    }

    /// The pair-matrix index of the group of the node at `slot`; no node counts
    /// as group `u32::MAX`.
    fn group_index_of(&mut self, slot: u32) -> usize {
        match self.nodes.get(slot as usize) {
            Some(node) => node.group_index,
            None => self.stats.group_index(u32::MAX),
        }
    }

    fn apply_scheduled_crashes(&mut self) {
        if self.crash_schedule.is_empty() {
            return;
        }
        let (now, nodes, slot_of) = (self.now, &mut self.nodes, &self.slot_of);
        self.crash_schedule.retain(|&(at, node)| {
            if at <= now {
                if let Some(&slot) = slot_of.get(&node) {
                    nodes[slot as usize].crashed = true;
                }
            }
            at > now
        });
    }

    fn apply_scheduled_corruptions(&mut self) {
        if self.corrupt_schedule.is_empty() {
            return;
        }
        let (now, nodes, slot_of) = (self.now, &mut self.nodes, &self.slot_of);
        self.corrupt_schedule.retain(|&(at, node, tag)| {
            if at <= now {
                if let Some(&slot) = slot_of.get(&node) {
                    nodes[slot as usize].actor.on_corrupt(tag);
                }
            }
            at > now
        });
    }

    fn push_event(&mut self, at: Time, slot: u32, kind: EventKind<M>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Event { at, seq, slot, kind });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial protocol: on start, node 0 pings its peer; every node echoes pings
    /// back `hops` times and emits a Custom output when done.
    #[derive(Clone)]
    struct Ping {
        peer: ReplicaId,
        remaining: u32,
        initiator: bool,
    }

    #[derive(Clone)]
    struct PingMsg;

    impl SimMessage for PingMsg {
        fn size_bytes(&self) -> usize {
            100
        }
    }

    impl Actor<PingMsg> for Ping {
        fn on_start(&mut self, ctx: &mut Context<'_, PingMsg>) {
            if self.initiator {
                ctx.send(self.peer, PingMsg);
            }
        }
        fn on_message(&mut self, _from: ReplicaId, _msg: PingMsg, ctx: &mut Context<'_, PingMsg>) {
            if self.remaining == 0 {
                ctx.emit(Output::Custom { name: "done", value: 1.0, at: ctx.now() });
            } else {
                self.remaining -= 1;
                ctx.send(self.peer, PingMsg);
            }
        }
    }

    fn two_node_sim(regions: (Region, Region)) -> Simulation<PingMsg> {
        let mut sim =
            Simulation::new(7, LatencyModel::paper_table2().with_jitter(0.0), CostModel::zero());
        sim.add_node(
            ReplicaId(0),
            regions.0,
            0,
            Box::new(Ping { peer: ReplicaId(1), remaining: 3, initiator: true }),
        );
        sim.add_node(
            ReplicaId(1),
            regions.1,
            1,
            Box::new(Ping { peer: ReplicaId(0), remaining: 3, initiator: false }),
        );
        sim
    }

    #[test]
    fn ping_pong_latency_matches_model() {
        let mut sim = two_node_sim((Region::UsWest, Region::Europe));
        sim.run_until(Time::from_secs(10));
        // The first node to exhaust its ping budget (node 1, on its 4th receipt) has
        // seen the 7th one-way hop; each hop is 148/2 = 74 ms.
        let done_at = sim
            .outputs()
            .iter()
            .find_map(|o| match o {
                Output::Custom { name: "done", at, .. } => Some(*at),
                _ => None,
            })
            .expect("ping-pong should complete");
        assert_eq!(done_at, Time::from_millis(74 * 7));
    }

    #[test]
    fn same_seed_gives_identical_runs() {
        let run = |seed| {
            let mut sim =
                Simulation::new(seed, LatencyModel::paper_table2(), CostModel::cloud_vm());
            sim.add_node(
                ReplicaId(0),
                Region::UsWest,
                0,
                Box::new(Ping { peer: ReplicaId(1), remaining: 10, initiator: true }),
            );
            sim.add_node(
                ReplicaId(1),
                Region::AsiaSouth,
                1,
                Box::new(Ping { peer: ReplicaId(0), remaining: 10, initiator: false }),
            );
            sim.run_until(Time::from_secs(20));
            (sim.stats().total_messages(), sim.outputs().len(), sim.now())
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn crashed_node_stops_responding() {
        let mut sim = two_node_sim((Region::UsWest, Region::UsWest));
        sim.crash_at(ReplicaId(1), Time::from_millis(1));
        sim.run_until(Time::from_secs(5));
        assert!(sim.is_crashed(ReplicaId(1)));
        assert!(sim.stats().dropped_messages >= 1);
        assert!(sim.outputs().is_empty());
    }

    #[test]
    fn restarted_node_resumes_processing() {
        // Crash node 1 before the first ping lands, restart it at 2 s, then re-seed
        // the exchange: the ping-pong must complete after the restart.
        let mut sim = two_node_sim((Region::UsWest, Region::UsWest));
        sim.crash_at(ReplicaId(1), Time::from_millis(1));
        sim.restart_at(ReplicaId(1), Time::from_secs(2));
        sim.run_until(Time::from_secs(2));
        assert!(!sim.is_crashed(ReplicaId(1)));
        let now = sim.now();
        sim.external_send(ReplicaId(0), ReplicaId(1), PingMsg, now);
        sim.run_until(Time::from_secs(10));
        assert!(
            sim.outputs().iter().any(|o| matches!(o, Output::Custom { name: "done", .. })),
            "exchange must complete after the restart"
        );
    }

    #[test]
    fn scheduled_corruption_reaches_the_actor_and_survives_restart() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        // An actor that records the behavior tags delivered to its corrupt hook.
        struct Spy {
            tags: Arc<AtomicU64>,
        }
        impl Actor<PingMsg> for Spy {
            fn on_message(&mut self, _: ReplicaId, _: PingMsg, ctx: &mut Context<'_, PingMsg>) {
                ctx.send(ReplicaId(0), PingMsg);
            }
            fn on_corrupt(&mut self, tag: u64) {
                self.tags.fetch_add(tag, Ordering::Relaxed);
            }
        }
        let tags = Arc::new(AtomicU64::new(0));
        let mut sim =
            Simulation::new(7, LatencyModel::paper_table2().with_jitter(0.0), CostModel::zero());
        // Cross-region so each hop is 74 ms: the exchange is still in flight when
        // the corruption time arrives (the hook applies on the next processed
        // event, so the schedule needs live traffic past 50 ms).
        sim.add_node(
            ReplicaId(0),
            Region::UsWest,
            0,
            Box::new(Ping { peer: ReplicaId(1), remaining: 10, initiator: true }),
        );
        sim.add_node(ReplicaId(1), Region::Europe, 1, Box::new(Spy { tags: Arc::clone(&tags) }));
        sim.corrupt_at(ReplicaId(1), Time::from_millis(50), 9);
        sim.run_until(Time::from_millis(40));
        assert_eq!(tags.load(Ordering::Relaxed), 0, "corruption must not apply early");
        sim.run_until(Time::from_secs(1));
        assert_eq!(tags.load(Ordering::Relaxed), 9, "the tag must reach the actor exactly once");
        // A crash does not cancel a pending corruption: the fault is assigned to
        // the process, and the hook still runs on the next processed event.
        sim.corrupt_at(ReplicaId(1), Time::from_secs(2), 100);
        sim.crash_at(ReplicaId(1), Time::from_secs(2));
        sim.restart_at(ReplicaId(1), Time::from_secs(3));
        let now = sim.now();
        sim.external_send(ReplicaId(0), ReplicaId(1), PingMsg, now.max(Time::from_secs(4)));
        sim.run_until(Time::from_secs(5));
        assert_eq!(tags.load(Ordering::Relaxed), 109, "corruption applies across the restart");
    }

    #[test]
    fn timers_armed_before_a_crash_die_with_the_restart() {
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Arc;
        // An actor that re-arms a periodic timer and counts firings. The shared
        // counter is an `Arc<AtomicU32>` (not `Rc<Cell>`) so the actor satisfies
        // the `Send` bound `add_node` now enforces.
        struct Ticker {
            fired: Arc<AtomicU32>,
        }
        impl Actor<PingMsg> for Ticker {
            fn on_start(&mut self, ctx: &mut Context<'_, PingMsg>) {
                ctx.set_timer(Duration::from_millis(10), 1);
            }
            fn on_message(&mut self, _: ReplicaId, _: PingMsg, _: &mut Context<'_, PingMsg>) {}
            fn on_timer(&mut self, _kind: u64, ctx: &mut Context<'_, PingMsg>) {
                self.fired.fetch_add(1, Ordering::Relaxed);
                ctx.set_timer(Duration::from_millis(10), 1);
            }
        }
        let fired = Arc::new(AtomicU32::new(0));
        let mut sim: Simulation<PingMsg> =
            Simulation::new(1, LatencyModel::paper_table2().with_jitter(0.0), CostModel::zero());
        sim.add_node(ReplicaId(0), Region::UsWest, 0, Box::new(Ticker { fired: fired.clone() }));
        // Crash mid-interval, restart 5 ms later: the pre-crash timer's deadline
        // falls after the restart but must NOT fire into the restarted actor —
        // only the chain re-armed by on_restart (via the default on_start) runs.
        sim.crash_at(ReplicaId(0), Time::from_millis(15));
        sim.restart_at(ReplicaId(0), Time::from_millis(18));
        sim.run_until(Time::from_millis(100));
        // One firing pre-crash (t=10); post-restart chain fires at 28, 38, ..., 98.
        assert_eq!(
            fired.load(Ordering::Relaxed),
            1 + 8,
            "exactly one timer chain may run after the restart"
        );
    }

    #[test]
    fn simulation_is_send() {
        // Compile-time guarantee for the parallel run executor: a fully built
        // simulation (actors, queued events, RNG, stats) can move to a worker
        // thread. `two_node_sim` exercises the bound with real boxed actors.
        fn assert_send<T: Send>() {}
        assert_send::<Simulation<PingMsg>>();
        assert_send::<Simulation<()>>();
        let sim = two_node_sim((Region::UsWest, Region::Europe));
        std::thread::spawn(move || {
            let mut sim = sim;
            sim.run_until(Time::from_secs(10));
            sim.outputs().len()
        })
        .join()
        .expect("simulation must run to completion on a worker thread");
    }

    #[test]
    fn restart_of_a_running_node_is_a_no_op() {
        let mut sim = two_node_sim((Region::UsWest, Region::UsWest));
        sim.restart_at(ReplicaId(0), Time::from_millis(1));
        sim.run_until(Time::from_secs(5));
        // The default on_restart re-runs on_start, but node 0 was never crashed,
        // so the restart is ignored and the normal exchange completes once.
        assert_eq!(
            sim.outputs()
                .iter()
                .filter(|o| matches!(o, Output::Custom { name: "done", .. }))
                .count(),
            1
        );
    }

    #[test]
    fn stats_distinguish_local_and_global_messages() {
        let mut sim = two_node_sim((Region::UsWest, Region::Europe));
        sim.run_until(Time::from_secs(10));
        // Both nodes are in different groups, so all traffic is global:
        // 1 initial ping + 3 replies from each side = 7 messages.
        assert_eq!(sim.stats().local_messages, 0);
        assert_eq!(sim.stats().global_messages, 7);
    }

    #[test]
    fn cpu_cost_delays_processing() {
        // With a large per-event cost the ping-pong completes later than with zero
        // cost, demonstrating the busy-server model.
        let run = |costs: CostModel| {
            let mut sim = Simulation::new(1, LatencyModel::paper_table2().with_jitter(0.0), costs);
            sim.add_node(
                ReplicaId(0),
                Region::UsWest,
                0,
                Box::new(Ping { peer: ReplicaId(1), remaining: 5, initiator: true }),
            );
            sim.add_node(
                ReplicaId(1),
                Region::UsWest,
                0,
                Box::new(Ping { peer: ReplicaId(0), remaining: 5, initiator: false }),
            );
            sim.run_until(Time::from_secs(10));
            sim.outputs().iter().map(|o| o.at()).max().unwrap_or(Time::ZERO)
        };
        let slow = CostModel { per_event: Duration::from_millis(10), ..CostModel::zero() };
        assert!(run(slow) > run(CostModel::zero()));
    }

    #[test]
    fn external_send_reaches_target() {
        let mut sim = two_node_sim((Region::UsWest, Region::UsWest));
        // Deliver an extra ping to node 1 directly.
        sim.external_send(ReplicaId(99), ReplicaId(1), PingMsg, Time::from_millis(1));
        sim.run_until(Time::from_secs(5));
        // Node 1 got at least the external message plus protocol traffic.
        assert!(sim.stats().total_messages() >= 8);
    }

    #[test]
    fn partition_severs_cross_group_traffic_and_heal_restores_it() {
        // Partition installed at t=0: the initial ping is dropped, nothing completes.
        let mut sim = two_node_sim((Region::UsWest, Region::UsWest));
        sim.partition_groups(0, 1);
        assert!(sim.groups_partitioned(0, 1));
        sim.run_until(Time::from_secs(2));
        assert!(sim.outputs().is_empty());
        assert!(sim.stats().dropped_messages >= 1);

        // Healed partition: traffic flows again (a fresh external ping restarts the
        // exchange, since the original one was lost).
        sim.heal_groups(0, 1);
        assert!(!sim.groups_partitioned(0, 1));
        let now = sim.now();
        sim.external_send(ReplicaId(0), ReplicaId(1), PingMsg, now);
        sim.run_until(Time::from_secs(10));
        assert!(
            sim.outputs().iter().any(|o| matches!(o, Output::Custom { name: "done", .. })),
            "ping-pong should complete after the heal"
        );
    }

    #[test]
    fn partition_is_symmetric_and_leaves_intra_group_traffic_alone() {
        let mut sim =
            Simulation::new(9, LatencyModel::paper_table2().with_jitter(0.0), CostModel::zero());
        // Nodes 0 and 1 share group 0; node 2 is group 1. Partition 0|1 must sever
        // 0<->2 in both directions while 0<->1 keeps working.
        sim.add_node(
            ReplicaId(0),
            Region::UsWest,
            0,
            Box::new(Ping { peer: ReplicaId(1), remaining: 3, initiator: true }),
        );
        sim.add_node(
            ReplicaId(1),
            Region::UsWest,
            0,
            Box::new(Ping { peer: ReplicaId(0), remaining: 3, initiator: false }),
        );
        sim.add_node(
            ReplicaId(2),
            Region::Europe,
            1,
            Box::new(Ping { peer: ReplicaId(0), remaining: 3, initiator: true }),
        );
        sim.partition_groups(1, 0); // order must not matter
        sim.run_until(Time::from_secs(5));
        assert!(sim.groups_partitioned(0, 1));
        // The intra-group pair finished; every cross-group message was dropped.
        assert_eq!(
            sim.outputs()
                .iter()
                .filter(|o| matches!(o, Output::Custom { name: "done", .. }))
                .count(),
            1
        );
        assert!(sim.stats().dropped_messages >= 1);
        assert_eq!(sim.stats().local_messages, 7);
    }

    #[test]
    fn latency_shift_changes_delivery_times_mid_run() {
        // Same topology twice; the second run shifts to a 10x slower uniform model
        // mid-run, so the exchange completes strictly later.
        let run = |shift: bool| {
            let mut sim = Simulation::new(
                5,
                LatencyModel::paper_table2().with_jitter(0.0),
                CostModel::zero(),
            );
            sim.add_node(
                ReplicaId(0),
                Region::UsWest,
                0,
                Box::new(Ping { peer: ReplicaId(1), remaining: 6, initiator: true }),
            );
            sim.add_node(
                ReplicaId(1),
                Region::Europe,
                1,
                Box::new(Ping { peer: ReplicaId(0), remaining: 6, initiator: false }),
            );
            sim.run_until(Time::from_millis(100));
            if shift {
                sim.set_latency_model(LatencyModel::uniform(1480.0).with_jitter(0.0));
            }
            sim.run_until(Time::from_secs(60));
            sim.outputs()
                .iter()
                .find_map(|o| match o {
                    Output::Custom { name: "done", at, .. } => Some(*at),
                    _ => None,
                })
                .expect("exchange completes")
        };
        let (base, shifted) = (run(false), run(true));
        assert!(shifted > base, "shifted {shifted:?} vs base {base:?}");
        // Each side echoes 6 times, so the exchange ends on the 13th one-way hop;
        // unshifted, every hop is 148/2 = 74 ms.
        assert_eq!(base, Time::from_millis(74 * 13));
    }

    /// Message payload of the ordering test: the position of its send in the
    /// order the test's actors asked for things to be scheduled.
    #[derive(Clone)]
    struct Tok(u64);
    impl SimMessage for Tok {}

    /// What the ordering test's actors share: a scheduling-order counter and
    /// the log of what was handled, as `(time, order)`.
    #[derive(Default)]
    struct Ledger {
        scheduled: u64,
        handled: Vec<(Time, u64)>,
        /// Node 3's timers as `(generation armed in, deadline)`.
        armed_by_3: Vec<(u64, Time)>,
    }

    /// Forwards every token to the next node of a ring and arms a timer on
    /// every third one — the timer first, the way the simulator queues a
    /// handler's effects, so the ledger's order is the queue's `seq` order.
    struct Chatter {
        me: u32,
        ring: u32,
        generation: u64,
        ledger: std::sync::Arc<std::sync::Mutex<Ledger>>,
    }

    impl Chatter {
        const TIMER: Duration = Duration(5_000);
    }

    impl Actor<Tok> for Chatter {
        fn on_start(&mut self, ctx: &mut Context<'_, Tok>) {
            let mut ledger = self.ledger.lock().unwrap();
            for _ in 0..4 {
                ledger.scheduled += 1;
                ctx.send(ReplicaId((self.me + 1) % self.ring), Tok(ledger.scheduled));
            }
        }

        fn on_restart(&mut self, ctx: &mut Context<'_, Tok>) {
            self.generation += 1;
            self.on_start(ctx);
        }

        fn on_message(&mut self, _from: ReplicaId, msg: Tok, ctx: &mut Context<'_, Tok>) {
            let mut ledger = self.ledger.lock().unwrap();
            ledger.handled.push((ctx.now(), msg.0));
            if msg.0.is_multiple_of(3) {
                ledger.scheduled += 1;
                ctx.set_timer(Self::TIMER, ledger.scheduled | self.generation << 48);
                if self.me == 3 {
                    ledger.armed_by_3.push((self.generation, ctx.now() + Self::TIMER));
                }
            }
            ledger.scheduled += 1;
            ctx.send(ReplicaId((self.me + 1) % self.ring), Tok(ledger.scheduled));
        }

        fn on_timer(&mut self, kind: u64, ctx: &mut Context<'_, Tok>) {
            assert_eq!(kind >> 48, self.generation, "a timer armed before the restart fired");
            self.ledger.lock().unwrap().handled.push((ctx.now(), kind & ((1 << 48) - 1)));
        }
    }

    #[test]
    fn queue_keeps_fifo_order_and_its_count_across_a_crash_and_a_restart() {
        use std::sync::{Arc, Mutex};
        // One region, no jitter, no CPU cost: every hop takes exactly 0.5 ms, so
        // tokens and timers pile up on the same instants and only the queue's
        // tie-break orders them.
        let ring = 8u32;
        let ledger = Arc::new(Mutex::new(Ledger::default()));
        let mut sim: Simulation<Tok> =
            Simulation::new(3, LatencyModel::paper_table2().with_jitter(0.0), CostModel::zero());
        for me in 0..ring {
            let actor = Chatter { me, ring, generation: 0, ledger: Arc::clone(&ledger) };
            sim.add_node(ReplicaId(me), Region::UsWest, me % 2, Box::new(actor));
        }
        // Everything ever queued: the start events, what the actors scheduled,
        // and what this test schedules from outside.
        let mut external = u64::from(ring);
        let (crash, restart) = (Time::from_millis(40), Time::from_millis(42));
        let mut steps = 0u64;
        while steps < 12_000 {
            if steps == 2_000 {
                assert!(sim.now() < crash, "the crash must fall inside the run");
                sim.crash_at(ReplicaId(3), crash);
                sim.restart_at(ReplicaId(3), restart);
                external += 1;
            }
            assert!(sim.step());
            steps += 1;
            let scheduled = ledger.lock().unwrap().scheduled;
            assert_eq!(sim.pending_events() as u64, external + scheduled - steps);
        }
        assert!(sim.now() > restart && !sim.is_crashed(ReplicaId(3)));
        assert!(sim.stats().dropped_messages > 0, "tokens reaching the crashed node are dropped");

        let ledger = ledger.lock().unwrap();
        assert!(ledger.handled.len() > 10_000);
        for pair in ledger.handled.windows(2) {
            assert!(pair[0] < pair[1], "handled {:?} before {:?}", pair[0], pair[1]);
        }
        // Node 3 had timers armed before the crash and due after the restart;
        // `on_timer` would have panicked had one fired.
        assert!(ledger.armed_by_3.iter().any(|(gen, due)| *gen == 0 && *due > restart));
        assert!(ledger.armed_by_3.iter().any(|(gen, _)| *gen == 1), "node 3 came back");
    }

    #[test]
    fn external_sends_from_unknown_nodes_are_counted() {
        let mut sim = two_node_sim((Region::UsWest, Region::UsWest));
        sim.run_until(Time::from_secs(5));
        let before = sim.stats().clone();
        let now = sim.now();
        // Node 99 is not part of the simulation: its group is `u32::MAX`, so a
        // message to a known node is global, and one to another unknown node is
        // local to that group — and dropped when its time comes.
        sim.external_send(ReplicaId(99), ReplicaId(1), PingMsg, now);
        sim.external_send(ReplicaId(99), ReplicaId(98), PingMsg, now);
        assert_eq!(sim.pending_events(), 2);
        sim.run_until(Time::from_secs(6));
        let stats = sim.stats();
        assert_eq!(stats.global_messages, before.global_messages + 1);
        assert_eq!(stats.local_messages, before.local_messages + 1);
        assert_eq!(stats.bytes_sent, before.bytes_sent + 200);
        assert_eq!(stats.dropped_messages, before.dropped_messages + 1);
        assert_eq!(stats.events_processed, before.events_processed + 2);
        let pairs = stats.per_group_pair();
        assert!(pairs.contains(&((u32::MAX, 1), 1)), "{pairs:?}");
        assert!(pairs.contains(&((u32::MAX, u32::MAX), 1)), "{pairs:?}");
        // The known groups' own traffic is listed as before, in ascending order.
        assert_eq!(pairs[..2], [((0, 1), 4), ((1, 0), 3)]);
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let mut sim: Simulation<PingMsg> =
            Simulation::new(3, LatencyModel::paper_table2(), CostModel::zero());
        sim.run_until(Time::from_secs(7));
        assert_eq!(sim.now(), Time::from_secs(7));
        assert_eq!(sim.pending_events(), 0);
    }
}

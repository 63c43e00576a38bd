//! Declarative scenarios: a system configuration, a time-sorted schedule of typed
//! events, and observers tapping the run as it executes.

use crate::deployment::{DynDeployment, Joined, Protocol};
use crate::observer::RunObserver;
use ava_broker::BrokerTier;
use ava_hamava::harness::DeploymentOptions;
use ava_hamava::ByzantineBehavior;
use ava_simnet::{LatencyModel, NetStats};
use ava_types::{ClientId, ClusterId, Duration, Output, Region, ReplicaId, SystemConfig, Time};
use ava_workload::WorkloadSpec;

/// A typed event injected into a running deployment at a scheduled virtual time.
#[derive(Clone, Debug)]
pub enum ScenarioEvent {
    /// Crash a replica (it stops receiving messages and firing timers).
    Crash {
        /// The replica to crash.
        replica: ReplicaId,
    },
    /// Restart a previously crashed replica: it comes back with only its persisted
    /// store and catches up via checkpoint + log-suffix state transfer. The
    /// schedule must hold an earlier `Crash` of the same replica.
    Restart {
        /// The replica to restart.
        replica: ReplicaId,
    },
    /// Turn a replica Byzantine in the E4.3 sense: correct locally, but it
    /// withholds all inter-cluster messages.
    MuteInterCluster {
        /// The replica to mute.
        replica: ReplicaId,
    },
    /// Make a replica silent in its local ordering role when it is the leader.
    SilenceLocalLeader {
        /// The replica to silence.
        replica: ReplicaId,
    },
    /// A new replica joins a cluster (E5-style churn).
    Join {
        /// The cluster joined.
        cluster: ClusterId,
        /// The region the new replica is placed in.
        region: Region,
    },
    /// An existing replica requests to leave its cluster.
    Leave {
        /// The leaving replica.
        replica: ReplicaId,
    },
    /// A new closed-loop client joins a cluster.
    ClientJoin {
        /// The cluster the client targets.
        cluster: ClusterId,
        /// The client's workload.
        workload: WorkloadSpec,
    },
    /// Every client of a cluster switches to a new workload mid-run.
    WorkloadSwitch {
        /// The cluster whose clients switch.
        cluster: ClusterId,
        /// The workload they switch to.
        workload: WorkloadSpec,
    },
    /// Sever all traffic between two clusters (both directions).
    Partition {
        /// One side of the partition.
        a: ClusterId,
        /// The other side.
        b: ClusterId,
    },
    /// Remove a previously installed partition.
    Heal {
        /// One side of the healed pair.
        a: ClusterId,
        /// The other side.
        b: ClusterId,
    },
    /// Replace the network latency model for all traffic sent from this point on.
    LatencyShift {
        /// The new latency model.
        latency: LatencyModel,
    },
    /// Turn a replica Byzantine with a concrete adversarial behavior: from this
    /// point on it runs the honest protocol internally but mutates its outbound
    /// traffic (equivocation, certificate forgery, share suppression, lying
    /// catch-up — see [`ByzantineBehavior`]). The builder rejects schedules that
    /// corrupt more than `f` distinct replicas in any one cluster.
    Corrupt {
        /// The replica to corrupt.
        replica: ReplicaId,
        /// The adversarial behavior it adopts.
        behavior: ByzantineBehavior,
    },
}

impl ScenarioEvent {
    /// Whether the event changes cluster membership (invalid for protocols without
    /// a reconfiguration path, i.e. the GeoBFT baseline).
    pub fn is_reconfig(&self) -> bool {
        matches!(self, ScenarioEvent::Join { .. } | ScenarioEvent::Leave { .. })
    }

    /// Short kind label (`"crash"`, `"partition"`, …) for reports and summaries.
    pub fn kind(&self) -> &'static str {
        match self {
            ScenarioEvent::Crash { .. } => "crash",
            ScenarioEvent::Restart { .. } => "restart",
            ScenarioEvent::MuteInterCluster { .. } => "mute",
            ScenarioEvent::SilenceLocalLeader { .. } => "silence",
            ScenarioEvent::Join { .. } => "join",
            ScenarioEvent::Leave { .. } => "leave",
            ScenarioEvent::ClientJoin { .. } => "client-join",
            ScenarioEvent::WorkloadSwitch { .. } => "workload-switch",
            ScenarioEvent::Partition { .. } => "partition",
            ScenarioEvent::Heal { .. } => "heal",
            ScenarioEvent::LatencyShift { .. } => "latency-shift",
            ScenarioEvent::Corrupt { .. } => "corrupt",
        }
    }

    /// Canonical within-timestamp ordering key. Two schedules holding the same
    /// `(time, event)` multiset sort identically regardless of insertion order, so
    /// scenario runs are insensitive to how the schedule was assembled (events with
    /// equal keys — e.g. two `LatencyShift`s at the same instant — keep insertion
    /// order; don't schedule those if you care which wins).
    fn sort_key(&self) -> (u8, u64, u64) {
        match self {
            ScenarioEvent::Crash { replica } => (0, replica.0 as u64, 0),
            ScenarioEvent::MuteInterCluster { replica } => (1, replica.0 as u64, 0),
            ScenarioEvent::SilenceLocalLeader { replica } => (2, replica.0 as u64, 0),
            ScenarioEvent::Join { cluster, region } => (3, cluster.0 as u64, region.index() as u64),
            ScenarioEvent::Leave { replica } => (4, replica.0 as u64, 0),
            ScenarioEvent::ClientJoin { cluster, .. } => (5, cluster.0 as u64, 0),
            ScenarioEvent::WorkloadSwitch { cluster, .. } => (6, cluster.0 as u64, 0),
            ScenarioEvent::Partition { a, b } => (7, a.0.min(b.0) as u64, a.0.max(b.0) as u64),
            ScenarioEvent::Heal { a, b } => (8, a.0.min(b.0) as u64, a.0.max(b.0) as u64),
            ScenarioEvent::LatencyShift { .. } => (9, 0, 0),
            // Appended after the original keys so pre-existing schedules keep
            // their canonical order bit-for-bit.
            ScenarioEvent::Restart { replica } => (10, replica.0 as u64, 0),
            ScenarioEvent::Corrupt { replica, behavior } => {
                (11, replica.0 as u64, behavior.to_tag())
            }
        }
    }
}

/// A time-sorted multiset of scheduled events.
///
/// Events are kept in canonical order — `(time, event kind, event ids)` — so any
/// insertion order of the same events produces the same run. The canonical key
/// does **not** include event payloads: two events at the same instant with the
/// same kind and ids but different payloads (e.g. two `WorkloadSwitch`es for one
/// cluster, or two `LatencyShift`s) keep insertion order, so don't schedule
/// those if you care which wins.
#[derive(Clone, Debug, Default)]
pub struct Schedule {
    entries: Vec<(Time, ScenarioEvent)>,
}

impl Schedule {
    /// An empty schedule.
    pub fn new() -> Self {
        Schedule::default()
    }

    /// Add `event` at virtual time `at`.
    pub fn add(&mut self, at: Time, event: ScenarioEvent) {
        self.entries.push((at, event));
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The scheduled events in canonical execution order.
    pub fn sorted(&self) -> Vec<(Time, ScenarioEvent)> {
        let mut entries = self.entries.clone();
        entries.sort_by_key(|(at, ev)| (*at, ev.sort_key()));
        entries
    }

    /// The scheduled events in insertion order (use [`Schedule::sorted`] for the
    /// canonical execution order).
    pub fn iter(&self) -> impl Iterator<Item = &(Time, ScenarioEvent)> {
        self.entries.iter()
    }

    /// The latest scheduled time, if any.
    pub fn last_time(&self) -> Option<Time> {
        self.entries.iter().map(|(at, _)| *at).max()
    }
}

/// Fluent constructor for [`Scenario`]s. Obtain one via [`Scenario::builder`].
pub struct ScenarioBuilder {
    protocol: Protocol,
    config: SystemConfig,
    opts: DeploymentOptions,
    schedule: Schedule,
    run: Duration,
    tick: Option<Duration>,
    brokers: Option<BrokerTier>,
}

impl ScenarioBuilder {
    /// Replace the deployment options wholesale.
    pub fn options(mut self, opts: DeploymentOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Set the RNG seed (runs with the same seed are identical).
    pub fn seed(mut self, seed: u64) -> Self {
        self.opts.seed = seed;
        self
    }

    /// Set the workload every initial client runs.
    pub fn workload(mut self, workload: WorkloadSpec) -> Self {
        self.opts.workload = workload;
        self
    }

    /// Set the initial latency model.
    pub fn latency(mut self, latency: LatencyModel) -> Self {
        self.opts.latency = latency;
        self
    }

    /// Set the virtual run length (default: 10 s).
    pub fn run_for(mut self, run: Duration) -> Self {
        self.run = run;
        self
    }

    /// Invoke observers' `on_tick` every `tick` of virtual time (default: only at
    /// event boundaries and the end of the run).
    pub fn tick_every(mut self, tick: Duration) -> Self {
        assert!(tick > Duration::ZERO, "tick interval must be positive");
        self.tick = Some(tick);
        self
    }

    /// Deploy a broker/batch client tier on top of the configured system:
    /// per cluster, `tier.brokers_per_cluster` broker actors plus one
    /// aggregate virtual-client generator offering `tier.load` (see
    /// `ava_broker`). With no tier configured the deployment is untouched —
    /// runs are bit-identical to pre-broker builds (the determinism golden
    /// tests pin this).
    pub fn brokers(mut self, tier: BrokerTier) -> Self {
        self.brokers = Some(tier);
        self
    }

    /// Schedule `event` at virtual time `at`.
    pub fn at(mut self, at: Time, event: ScenarioEvent) -> Self {
        self.schedule.add(at, event);
        self
    }

    /// Merge every event of `schedule` into the builder's schedule (the entry
    /// point for programmatically generated schedules, e.g. the `ava-fuzz`
    /// `ScheduleGenerator`).
    pub fn events(mut self, schedule: &Schedule) -> Self {
        for (at, ev) in schedule.iter() {
            self.schedule.add(*at, ev.clone());
        }
        self
    }

    /// Schedule a crash of `replica` at `at`.
    pub fn crash_at(self, at: Time, replica: ReplicaId) -> Self {
        self.at(at, ScenarioEvent::Crash { replica })
    }

    /// Schedule a crash of `cluster`'s initial leader at `at`.
    pub fn crash_initial_leader_at(self, at: Time, cluster: ClusterId) -> Self {
        let leader = self.config.initial_leader(cluster);
        self.crash_at(at, leader)
    }

    /// Schedule a restart of the (crashed) `replica` at `at`. The builder rejects
    /// restarts without an earlier crash of the same replica at build time.
    pub fn restart_at(self, at: Time, replica: ReplicaId) -> Self {
        self.at(at, ScenarioEvent::Restart { replica })
    }

    /// Enable the durable store on every replica (round log + checkpoints every
    /// `store.checkpoint_interval` rounds) — the substrate crash→restart recovery
    /// catches up from.
    pub fn store(mut self, store: ava_store::StoreConfig) -> Self {
        self.opts.store = Some(store);
        self
    }

    /// Select the replicated state machine every replica executes against
    /// (default: the legacy counter machine, whose runs are bit-identical to
    /// pre-KV builds; `StateMachineKind::Kv` stores real versioned values and
    /// emits per-round `Output::StateDigest`).
    pub fn state_machine(mut self, kind: ava_hamava::StateMachineKind) -> Self {
        self.opts.state_machine = kind;
        self
    }

    /// Schedule `replica` to start withholding inter-cluster messages at `at`.
    pub fn mute_inter_cluster_at(self, at: Time, replica: ReplicaId) -> Self {
        self.at(at, ScenarioEvent::MuteInterCluster { replica })
    }

    /// Schedule a new replica to join `cluster` (placed in `region`) at `at`.
    pub fn join_at(self, at: Time, cluster: ClusterId, region: Region) -> Self {
        self.at(at, ScenarioEvent::Join { cluster, region })
    }

    /// Schedule `replica` to request leaving its cluster at `at`.
    pub fn leave_at(self, at: Time, replica: ReplicaId) -> Self {
        self.at(at, ScenarioEvent::Leave { replica })
    }

    /// Schedule a partition between clusters `a` and `b` at `at`.
    pub fn partition_at(self, at: Time, a: ClusterId, b: ClusterId) -> Self {
        self.at(at, ScenarioEvent::Partition { a, b })
    }

    /// Schedule the healing of the `a`/`b` partition at `at`.
    pub fn heal_at(self, at: Time, a: ClusterId, b: ClusterId) -> Self {
        self.at(at, ScenarioEvent::Heal { a, b })
    }

    /// Schedule a latency-model shift at `at`.
    pub fn latency_shift_at(self, at: Time, latency: LatencyModel) -> Self {
        self.at(at, ScenarioEvent::LatencyShift { latency })
    }

    /// Schedule `replica` to turn Byzantine with `behavior` at `at`. The builder
    /// rejects schedules that corrupt more than `f` distinct replicas in any one
    /// cluster — the adversary model every safety claim is stated under.
    pub fn corrupt_at(self, at: Time, replica: ReplicaId, behavior: ByzantineBehavior) -> Self {
        self.at(at, ScenarioEvent::Corrupt { replica, behavior })
    }

    /// Finish building.
    ///
    /// # Panics
    /// Panics when the schedule is invalid for the chosen protocol (reconfiguration
    /// events on GeoBFT) or when an event is scheduled past the end of the run.
    pub fn build(self) -> Scenario {
        match self.try_build() {
            Ok(scenario) => scenario,
            Err(reason) => panic!("{reason}"),
        }
    }

    /// Finish building, returning the validation failure instead of panicking —
    /// the entry point for generated schedules (the fuzzer's shrinker probes
    /// candidate schedules without aborting the process).
    pub fn try_build(self) -> Result<Scenario, String> {
        if !self.protocol.reconfigurable() {
            if let Some((at, ev)) = self.schedule.entries.iter().find(|(_, ev)| ev.is_reconfig()) {
                return Err(format!(
                    "{} has no reconfiguration path, but the schedule holds {ev:?} at {at}",
                    self.protocol
                ));
            }
        }
        let end = Time::ZERO + self.run;
        // `at == end` is rejected too: the runner would apply the event and then
        // stop immediately, so none of its effects could ever be processed.
        if let Some((at, ev)) = self.schedule.entries.iter().find(|(at, _)| *at >= end) {
            return Err(format!(
                "event {ev:?} scheduled at {at}, at or after the end of the run ({end})"
            ));
        }
        // A restart without a strictly earlier crash of the same replica would be
        // silently ignored by the simulator; reject it while the schedule is still
        // being assembled.
        for (at, ev) in &self.schedule.entries {
            let ScenarioEvent::Restart { replica } = ev else {
                continue;
            };
            let crashed_before = self.schedule.entries.iter().any(|(crash_at, e)| {
                matches!(e, ScenarioEvent::Crash { replica: r } if r == replica) && crash_at < at
            });
            if !crashed_before {
                return Err(format!(
                    "Restart of {replica} at {at} has no earlier Crash of the same replica"
                ));
            }
        }
        // The adversary model caps corruption at `f` distinct replicas per
        // cluster: with more, the safety checkers are meaningless (BFT makes no
        // guarantees past `f`), so such schedules are authoring errors.
        let membership = self.config.membership();
        let mut corrupted: std::collections::BTreeMap<
            ClusterId,
            std::collections::BTreeSet<ReplicaId>,
        > = std::collections::BTreeMap::new();
        for (at, ev) in &self.schedule.entries {
            let ScenarioEvent::Corrupt { replica, .. } = ev else {
                continue;
            };
            let Some(cluster) = membership.cluster_of(*replica) else {
                return Err(format!(
                    "Corrupt of {replica} at {at} targets a replica outside the initial configuration"
                ));
            };
            let set = corrupted.entry(cluster).or_default();
            set.insert(*replica);
            let f = membership.f(cluster);
            if set.len() > f {
                return Err(format!(
                    "schedule corrupts {} distinct replicas of {cluster}, above its failure \
                     threshold f={f}: safety is only claimed for at most f Byzantine replicas \
                     per cluster",
                    set.len()
                ));
            }
        }
        if let Some(tier) = &self.brokers {
            if tier.load.issue_for >= self.run {
                return Err(format!(
                    "broker tier issues load for {:?}, at or past the end of the run ({:?}): \
                     in-flight operations could never drain",
                    tier.load.issue_for, self.run
                ));
            }
        }
        Ok(Scenario {
            protocol: self.protocol,
            config: self.config,
            opts: self.opts,
            schedule: self.schedule,
            run: self.run,
            tick: self.tick,
            brokers: self.brokers,
        })
    }
}

/// A fully described experiment run: protocol, configuration, deployment options,
/// run length and event schedule.
///
/// ```
/// use ava_scenario::{Protocol, Scenario};
/// use ava_types::{ClusterId, Duration, Region, SystemConfig, Time};
///
/// let config = SystemConfig::heterogeneous(&[
///     vec![Region::UsWest; 4],
///     vec![Region::Europe; 7],
/// ]);
/// let run = Scenario::builder(Protocol::AvaHotStuff, config)
///     .seed(7)
///     .run_for(Duration::from_secs(5))
///     .partition_at(Time::from_secs(2), ClusterId(0), ClusterId(1))
///     .heal_at(Time::from_secs(3), ClusterId(0), ClusterId(1))
///     .build()
///     .run();
/// assert!(!run.outputs.is_empty());
/// ```
pub struct Scenario {
    protocol: Protocol,
    config: SystemConfig,
    opts: DeploymentOptions,
    schedule: Schedule,
    run: Duration,
    tick: Option<Duration>,
    brokers: Option<BrokerTier>,
}

impl Scenario {
    /// Start building a scenario for `protocol` on `config` with default options,
    /// an empty schedule and a 10 s run.
    pub fn builder(protocol: Protocol, config: SystemConfig) -> ScenarioBuilder {
        ScenarioBuilder {
            protocol,
            config,
            opts: DeploymentOptions::default(),
            schedule: Schedule::new(),
            run: Duration::from_secs(10),
            tick: None,
            brokers: None,
        }
    }

    /// The protocol the scenario deploys.
    pub fn protocol(&self) -> Protocol {
        self.protocol
    }

    /// The scheduled events.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Execute the scenario with no observers.
    pub fn run(self) -> ScenarioRun {
        self.run_observed(&mut [])
    }

    /// Execute the scenario, invoking `observers` at every tick, on every applied
    /// event and on every [`Output`] (in emission order) as the run progresses.
    pub fn run_observed(self, observers: &mut [&mut dyn RunObserver]) -> ScenarioRun {
        let Scenario { protocol, config, opts, schedule, run, tick, brokers } = self;
        let mut dep = protocol.deploy(config, opts);
        if let Some(tier) = &brokers {
            dep.attach_brokers(tier);
        }
        for obs in observers.iter_mut() {
            obs.on_start(&*dep);
        }

        let end = Time::ZERO + run;
        let events = schedule.sorted();
        // Boundary times: every scheduled event time, plus the observer tick grid.
        // Between consecutive boundaries the simulator runs uninterrupted, so a
        // scenario with no events and no ticks is one plain `run_until(end)` —
        // bit-identical to driving the deployment by hand (the determinism golden
        // tests pin this).
        let mut boundaries: Vec<Time> = events.iter().map(|(at, _)| *at).collect();
        if let Some(tick) = tick {
            let mut t = Time::ZERO + tick;
            while t < end {
                boundaries.push(t);
                t += tick;
            }
        }
        boundaries.sort();
        boundaries.dedup();

        let mut joined = Vec::new();
        let mut client_ids = Vec::new();
        let mut cursor = 0usize;
        let mut next_event = 0usize;
        let tick_of = |t: Time| tick.is_some_and(|tk| t.as_micros() % tk.as_micros() == 0);
        for t in boundaries {
            dep.run_until(t);
            cursor = flush_outputs(&*dep, cursor, observers);
            if tick_of(t) {
                for obs in observers.iter_mut() {
                    obs.on_tick(t, &*dep);
                }
            }
            while let Some((at, event)) = events.get(next_event) {
                if *at != t {
                    break;
                }
                for obs in observers.iter_mut() {
                    obs.on_event(*at, event);
                }
                match dep.apply(event) {
                    Some(Joined::Replica(id)) => joined.push(id),
                    Some(Joined::Client(id)) => client_ids.push(id),
                    None => {}
                }
                next_event += 1;
            }
        }
        dep.run_until(end);
        flush_outputs(&*dep, cursor, observers);
        for obs in observers.iter_mut() {
            obs.on_end(&*dep);
        }

        let outputs = dep.take_outputs();
        let stats = dep.net_stats().clone();
        ScenarioRun { protocol, outputs, stats, joined, clients: client_ids }
    }
}

fn flush_outputs(
    dep: &dyn DynDeployment,
    cursor: usize,
    observers: &mut [&mut dyn RunObserver],
) -> usize {
    let outputs = dep.outputs();
    if !observers.is_empty() {
        for output in &outputs[cursor..] {
            for obs in observers.iter_mut() {
                obs.on_output(output);
            }
        }
    }
    outputs.len()
}

/// The result of executing a [`Scenario`].
pub struct ScenarioRun {
    /// The protocol that ran.
    pub protocol: Protocol,
    /// Every measurement event the run emitted, in emission order.
    pub outputs: Vec<Output>,
    /// Network statistics of the whole run.
    pub stats: NetStats,
    /// Ids of the replicas created by `Join` events, in application order.
    pub joined: Vec<ReplicaId>,
    /// Ids of the clients created by `ClientJoin` events, in application order.
    pub clients: Vec<ClientId>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ava_types::Output;

    fn config() -> SystemConfig {
        let mut config = SystemConfig::even_split_single_region(8, 2, Region::UsWest);
        config.params.batch_size = 20;
        config
    }

    fn quick(protocol: Protocol) -> ScenarioBuilder {
        Scenario::builder(protocol, config())
            .seed(5)
            .workload(WorkloadSpec { key_space: 500, ..WorkloadSpec::default() })
            .run_for(Duration::from_secs(8))
    }

    #[test]
    fn plain_scenario_matches_hand_driven_deployment() {
        // The scenario runner with no events must be bit-identical to driving the
        // deployment directly (this is what keeps the golden fingerprints stable).
        let run = quick(Protocol::AvaHotStuff).build().run();
        let mut dep = Protocol::AvaHotStuff.deploy(
            config(),
            ava_hamava::harness::DeploymentOptions {
                seed: 5,
                workload: WorkloadSpec { key_space: 500, ..WorkloadSpec::default() },
                ..Default::default()
            },
        );
        dep.run_for(Duration::from_secs(8));
        assert_eq!(run.outputs, dep.take_outputs());
        assert_eq!(run.stats.total_messages(), dep.net_stats().total_messages());
    }

    #[test]
    fn schedule_sorts_canonically_and_reports_times() {
        let mut s = Schedule::new();
        s.add(Time::from_secs(4), ScenarioEvent::Leave { replica: ReplicaId(1) });
        s.add(Time::from_secs(2), ScenarioEvent::Crash { replica: ReplicaId(9) });
        s.add(
            Time::from_secs(4),
            ScenarioEvent::Join { cluster: ClusterId(0), region: Region::UsWest },
        );
        let sorted = s.sorted();
        assert_eq!(sorted[0].0, Time::from_secs(2));
        assert!(matches!(sorted[1].1, ScenarioEvent::Join { .. }), "Join sorts before Leave");
        assert_eq!(s.last_time(), Some(Time::from_secs(4)));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn crash_event_stops_a_replica_mid_run() {
        // Crash f=1 non-leader replicas in cluster 0 at 3 s; progress continues.
        let run =
            quick(Protocol::AvaBftSmart).crash_at(Time::from_secs(3), ReplicaId(1)).build().run();
        let late = run
            .outputs
            .iter()
            .filter(|o| {
                matches!(o, Output::TxCompleted { completed_at, .. }
                    if completed_at.as_secs_f64() > 4.0)
            })
            .count();
        assert!(late > 0, "progress must continue with one crashed replica");
    }

    #[test]
    fn join_event_reports_the_new_replica_id() {
        let run = quick(Protocol::AvaHotStuff)
            .run_for(Duration::from_secs(20))
            .join_at(Time::from_secs(4), ClusterId(0), Region::UsWest)
            .build()
            .run();
        assert_eq!(run.joined.len(), 1);
        let new_id = run.joined[0];
        assert!(new_id.0 > 7, "joining replicas get fresh ids");
        assert!(
            run.outputs.iter().any(|o| matches!(o, Output::ReconfigApplied { replica, joined: true, .. } if *replica == new_id)),
            "the joining replica must be added to the configuration"
        );
    }

    #[test]
    #[should_panic(expected = "no reconfiguration path")]
    fn geobft_scenarios_reject_churn_at_build_time() {
        let _ = quick(Protocol::GeoBft)
            .join_at(Time::from_secs(2), ClusterId(0), Region::UsWest)
            .build();
    }

    #[test]
    #[should_panic(expected = "after the end of the run")]
    fn events_past_the_run_end_are_rejected() {
        let _ = quick(Protocol::AvaHotStuff).crash_at(Time::from_secs(99), ReplicaId(0)).build();
    }

    #[test]
    fn partition_and_heal_shape_cross_cluster_traffic() {
        // Partition the two clusters for the middle of the run; global traffic must
        // drop while the partition is active, and commits resume after the heal.
        // Short recovery timeouts: packages lost to the partition are only re-sent
        // once the remote-leader-change path fires.
        let mut config = config();
        config.params.remote_leader_timeout = Duration::from_secs(4);
        config.params.brd_timeout = Duration::from_secs(4);
        config.params.local_timeout = Duration::from_secs(4);
        let run = Scenario::builder(Protocol::AvaHotStuff, config)
            .seed(5)
            .workload(WorkloadSpec { key_space: 500, ..WorkloadSpec::default() })
            .run_for(Duration::from_secs(24))
            .partition_at(Time::from_secs(4), ClusterId(0), ClusterId(1))
            .heal_at(Time::from_secs(8), ClusterId(0), ClusterId(1))
            .build()
            .run();
        assert!(run.stats.dropped_messages > 0, "partition must drop cross-cluster traffic");
        let post_heal = run
            .outputs
            .iter()
            .filter(|o| {
                matches!(o, Output::TxCompleted { completed_at, is_write: true, .. }
                    if completed_at.as_secs_f64() > 9.0)
            })
            .count();
        assert!(post_heal > 0, "writes must complete after the heal");
    }

    #[test]
    fn workload_switch_changes_the_read_write_mix() {
        // 100%-read workload switched to write-only at 6 s: all completions before
        // the switch are reads, and writes appear after it. Both clusters switch —
        // a round only executes once *every* cluster finishes its stage 1, so a
        // cluster with no writes would stall write completion system-wide.
        let read_only = WorkloadSpec { read_ratio: 1.0, key_space: 500, ..WorkloadSpec::default() };
        let write_only = read_only.clone().write_only();
        let run = quick(Protocol::AvaHotStuff)
            .workload(read_only)
            .run_for(Duration::from_secs(16))
            .at(
                Time::from_secs(6),
                ScenarioEvent::WorkloadSwitch {
                    cluster: ClusterId(0),
                    workload: write_only.clone(),
                },
            )
            .at(
                Time::from_secs(6),
                ScenarioEvent::WorkloadSwitch { cluster: ClusterId(1), workload: write_only },
            )
            .build()
            .run();
        let writes_before = run
            .outputs
            .iter()
            .filter(|o| {
                matches!(o, Output::TxCompleted { is_write: true, completed_at, .. }
                    if completed_at.as_secs_f64() < 6.0)
            })
            .count();
        let writes_after = run
            .outputs
            .iter()
            .filter(|o| matches!(o, Output::TxCompleted { is_write: true, .. }))
            .count();
        assert_eq!(writes_before, 0, "read-only phase must not complete writes");
        assert!(writes_after > 0, "switched clusters must start writing");
    }

    #[test]
    fn broker_tier_runs_through_the_scenario_api() {
        use crate::observer::BrokerStatsObserver;
        let tier = BrokerTier {
            load: ava_broker::AggregateLoad {
                virtual_clients: 10_000,
                offered_tps: 1_000,
                issue_for: Duration::from_secs(2),
                ..Default::default()
            },
            ..BrokerTier::default()
        };
        let mut stats = BrokerStatsObserver::new();
        let run =
            quick(Protocol::AvaHotStuff).brokers(tier).build().run_observed(&mut [&mut stats]);
        assert!(stats.traces().len() == 2, "one broker per cluster");
        assert!(stats.mean_occupancy() > 1.0, "batches must aggregate multiple ops");
        assert!(stats.batch_ops_committed() > 0, "writes must commit via the batch path");
        let virtual_acks = run
            .outputs
            .iter()
            .filter(|o| {
                matches!(o, Output::TxCompleted { client, .. }
                    if ava_workload::is_virtual_client(*client))
            })
            .count();
        assert!(virtual_acks > 1_000, "only {virtual_acks} virtual-client acks");
    }

    #[test]
    #[should_panic(expected = "could never drain")]
    fn broker_issue_windows_past_the_run_are_rejected() {
        let tier = BrokerTier {
            load: ava_broker::AggregateLoad {
                issue_for: Duration::from_secs(30),
                ..Default::default()
            },
            ..BrokerTier::default()
        };
        let _ = quick(Protocol::AvaHotStuff).brokers(tier).build();
    }

    #[test]
    #[should_panic(expected = "above its failure threshold")]
    fn corrupting_more_than_f_replicas_per_cluster_is_rejected() {
        // 4-replica clusters have f = 1: a second distinct corrupt target in the
        // same cluster exceeds the adversary model, whatever the behaviors are.
        let _ = quick(Protocol::AvaHotStuff)
            .corrupt_at(Time::from_secs(2), ReplicaId(1), ByzantineBehavior::EquivocateLocal)
            .corrupt_at(
                Time::from_secs(3),
                ReplicaId(2),
                ByzantineBehavior::SuppressShares { permille: 500 },
            )
            .build();
    }

    #[test]
    fn corrupting_the_same_replica_twice_stays_within_the_model() {
        // Re-corrupting one replica (e.g. escalating its behavior) is one faulty
        // node, not two; and a second corrupt replica in the *other* cluster is
        // fine — the bound is per cluster.
        let scenario = quick(Protocol::AvaHotStuff)
            .corrupt_at(Time::from_secs(2), ReplicaId(1), ByzantineBehavior::EquivocateLocal)
            .corrupt_at(Time::from_secs(3), ReplicaId(1), ByzantineBehavior::InvalidCert)
            .corrupt_at(Time::from_secs(3), ReplicaId(5), ByzantineBehavior::BrdForgery)
            .build();
        assert_eq!(scenario.schedule().len(), 3);
    }

    #[test]
    #[should_panic(expected = "outside the initial configuration")]
    fn corrupting_an_unknown_replica_is_rejected() {
        let _ = quick(Protocol::AvaHotStuff)
            .corrupt_at(Time::from_secs(2), ReplicaId(99), ByzantineBehavior::InvalidCert)
            .build();
    }

    #[test]
    fn corrupt_event_yields_rejection_evidence_but_no_safety_loss() {
        // A non-leader replica starts forging BRD vote payloads at 2 s: honest
        // peers must reject the forged signatures (evidence appears) while the
        // remaining honest quorum keeps the system live.
        use crate::observer::ByzantineObserver;
        let mut obs = ByzantineObserver::new();
        let run = quick(Protocol::AvaHotStuff)
            .run_for(Duration::from_secs(10))
            .corrupt_at(Time::from_secs(2), ReplicaId(1), ByzantineBehavior::BrdForgery)
            .build()
            .run_observed(&mut [&mut obs]);
        assert_eq!(obs.corrupt_events().len(), 1);
        assert!(
            obs.rejections_of(ava_types::RejectKind::BrdSignature) > 0,
            "honest replicas must reject forged BRD votes"
        );
        assert!(
            run.outputs.iter().any(|o| matches!(o, Output::TxCompleted { completed_at, .. }
                if completed_at.as_secs_f64() > 3.0)),
            "an f-bounded adversary must not halt the system"
        );
    }

    #[test]
    fn client_join_adds_load_mid_run() {
        let run = quick(Protocol::AvaHotStuff)
            .at(
                Time::from_secs(2),
                ScenarioEvent::ClientJoin {
                    cluster: ClusterId(1),
                    workload: WorkloadSpec { key_space: 500, ..WorkloadSpec::default() },
                },
            )
            .build()
            .run();
        assert_eq!(run.clients.len(), 1);
        let new_client = run.clients[0];
        assert!(
            run.outputs
                .iter()
                .any(|o| matches!(o, Output::TxCompleted { client, .. } if *client == new_client)),
            "the joined client must complete transactions"
        );
    }
}

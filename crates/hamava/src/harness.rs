//! Deployment harness: builds a complete simulated Hamava deployment (replicas,
//! clients, key registry, latency model) from a [`SystemConfig`], for use by the
//! examples, the integration tests and the benchmark harness.

use crate::byzantine::{ByzantineBehavior, CorruptReplica};
use crate::client::{Client, ClientConfig};
use crate::messages::{AvaMsg, ClientCtl, ControlCmd};
use crate::replica::{Replica, ReplicaConfig};
use ava_consensus::{TobConfig, TotalOrderBroadcast, WireSize};
use ava_crypto::{KeyRegistry, Keypair};
use ava_simnet::{client_node_id, CostModel, LatencyModel, NetStats, SimMessage, Simulation};
use ava_state::StateMachineKind;
use ava_store::StoreConfig;
use ava_types::{ClientId, ClusterId, Duration, Output, Region, ReplicaId, SystemConfig, Time};
use ava_workload::{ClientWorkload, WorkloadSpec};

/// Options controlling a simulated deployment.
#[derive(Clone, Debug)]
pub struct DeploymentOptions {
    /// RNG seed (runs with the same seed are identical).
    pub seed: u64,
    /// Network latency model.
    pub latency: LatencyModel,
    /// Per-node CPU cost model.
    pub costs: CostModel,
    /// Client workload.
    pub workload: WorkloadSpec,
    /// Clients per cluster (the paper deploys one per cluster).
    pub clients_per_cluster: usize,
    /// Outstanding requests per client ("client threads").
    pub client_concurrency: usize,
    /// Durable-store configuration for every replica. `None` (the default) runs
    /// without persistence — behavior is bit-identical to pre-store builds (the
    /// determinism golden tests pin this); `Some` enables the round log +
    /// checkpoints that crash→restart recovery (`restart_at`) catches up from.
    pub store: Option<StoreConfig>,
    /// The deterministic state machine every replica executes against. The
    /// default counter machine is bit-identical to pre-`ava-state` builds (the
    /// determinism goldens pin this); [`StateMachineKind::Kv`] stores real
    /// versioned values, serves value-bearing reads/scans and emits per-round
    /// `Output::StateDigest` events.
    pub state_machine: StateMachineKind,
}

impl Default for DeploymentOptions {
    fn default() -> Self {
        DeploymentOptions {
            seed: 42,
            latency: LatencyModel::paper_table2(),
            costs: CostModel::cloud_vm(),
            workload: WorkloadSpec::default(),
            clients_per_cluster: 1,
            client_concurrency: 128,
            store: None,
            state_machine: StateMachineKind::default(),
        }
    }
}

/// Factory building a TOB instance for one replica.
///
/// The factory is `Send` (captures only thread-safe state) so a whole
/// [`Deployment`] — which keeps the factory around for join churn — can move to a
/// worker thread of the parallel run executor.
pub type TobFactory<T> = Box<dyn Fn(TobConfig, Keypair, KeyRegistry, ReplicaId) -> T + Send>;

/// A fully built simulated deployment.
pub struct Deployment<T: TotalOrderBroadcast + 'static> {
    /// The underlying simulator. Exposed so experiments can inject faults directly.
    pub sim: Simulation<AvaMsg<T::Msg>>,
    /// The system configuration the deployment was built from.
    pub config: SystemConfig,
    /// The shared key registry.
    pub registry: KeyRegistry,
    opts: DeploymentOptions,
    factory: TobFactory<T>,
    next_replica_id: u32,
    next_client_id: u32,
    clients: Vec<(ClientId, ClusterId)>,
}

impl<T> Deployment<T>
where
    T: TotalOrderBroadcast + 'static,
    T::Msg: Clone + WireSize + 'static,
    AvaMsg<T::Msg>: SimMessage,
{
    /// Build a deployment: one replica actor per configured replica, plus
    /// `clients_per_cluster` clients per cluster.
    pub fn build(config: SystemConfig, opts: DeploymentOptions, factory: TobFactory<T>) -> Self {
        let registry = KeyRegistry::new();
        let mut sim = Simulation::new(opts.seed, opts.latency.clone(), opts.costs);
        let membership = config.membership();

        for spec in &config.clusters {
            let members: Vec<ReplicaId> = spec.replicas.iter().map(|(id, _)| *id).collect();
            let leader = members[0];
            for &(id, region) in &spec.replicas {
                let keypair = registry.register(id);
                let mut tob_cfg = TobConfig::new(spec.id, id, members.clone());
                tob_cfg.max_block_size = config.params.batch_size;
                tob_cfg.timeout = config.params.local_timeout;
                tob_cfg.timeout_floor = config.params.leader_change_grace;
                let tob = factory(tob_cfg, keypair.clone(), registry.clone(), leader);
                let mut rcfg =
                    ReplicaConfig::new(id, region, spec.id, config.params, membership.clone());
                rcfg.store = opts.store;
                rcfg.machine = opts.state_machine;
                let replica = Replica::new(rcfg, keypair, registry.clone(), tob);
                // Every replica is wrapped in the (dormant) Byzantine decorator
                // so a scheduled `corrupt_at` can arm any of them mid-run; while
                // dormant the wrapper is a byte-exact pass-through.
                sim.add_node(id, region, spec.id.0, Box::new(CorruptReplica::new(replica)));
            }
        }

        let mut deployment = Deployment {
            sim,
            registry,
            opts,
            factory,
            next_replica_id: config.max_replica_id() + 1,
            next_client_id: 0,
            clients: Vec::new(),
            config,
        };
        for cluster in deployment.config.clusters.clone() {
            for _ in 0..deployment.opts.clients_per_cluster {
                deployment.add_client(cluster.id);
            }
        }
        deployment
    }

    /// Add one closed-loop client to `cluster`. Returns its id.
    pub fn add_client(&mut self, cluster: ClusterId) -> ClientId {
        self.add_client_with_workload(cluster, self.opts.workload.clone())
    }

    /// Add a client with a specific workload (e.g. write-only for E5.2).
    pub fn add_client_with_workload(
        &mut self,
        cluster: ClusterId,
        workload: WorkloadSpec,
    ) -> ClientId {
        let id = ClientId(self.next_client_id);
        self.next_client_id += 1;
        let spec = self.config.clusters.iter().find(|c| c.id == cluster).expect("unknown cluster");
        let targets: Vec<ReplicaId> = spec.replicas.iter().map(|(r, _)| *r).collect();
        let region = spec.replicas.first().map(|(_, reg)| *reg).unwrap_or_default();
        let mut ccfg = ClientConfig::new(id, cluster, targets);
        ccfg.concurrency = self.opts.client_concurrency;
        let client: Client<T::Msg> = Client::new(ccfg, ClientWorkload::new(workload, id));
        self.sim.add_node(client_node_id(id), region, cluster.0, Box::new(client));
        self.clients.push((id, cluster));
        id
    }

    /// The clients added so far, with the cluster each one targets.
    pub fn clients(&self) -> &[(ClientId, ClusterId)] {
        &self.clients
    }

    /// Switch the workload of every client of `cluster` to `workload`, effective at
    /// the current virtual time (the scenario API's `WorkloadSwitch` event).
    pub fn switch_workload(&mut self, cluster: ClusterId, workload: WorkloadSpec) {
        let at = self.sim.now();
        let targets: Vec<ClientId> =
            self.clients.iter().filter(|(_, c)| *c == cluster).map(|(id, _)| *id).collect();
        for client in targets {
            let node = client_node_id(client);
            self.sim.external_send(
                node,
                node,
                AvaMsg::ClientControl(ClientCtl::SwitchWorkload(workload.clone())),
                at,
            );
        }
    }

    /// Add a new replica that will request to join `cluster` (E5-style churn).
    /// Returns its id.
    pub fn add_joining_replica(&mut self, cluster: ClusterId, region: Region) -> ReplicaId {
        let id = ReplicaId(self.next_replica_id);
        self.next_replica_id += 1;
        let keypair = self.registry.register(id);
        let membership = self.config.membership();
        let members = membership.member_ids(cluster);
        let leader = members.first().copied().unwrap_or(id);
        let mut tob_cfg = TobConfig::new(cluster, id, members);
        tob_cfg.max_block_size = self.config.params.batch_size;
        tob_cfg.timeout = self.config.params.local_timeout;
        tob_cfg.timeout_floor = self.config.params.leader_change_grace;
        let tob = (self.factory)(tob_cfg, keypair.clone(), self.registry.clone(), leader);
        let mut rcfg = ReplicaConfig::new(id, region, cluster, self.config.params, membership);
        rcfg.joining = true;
        rcfg.store = self.opts.store;
        rcfg.machine = self.opts.state_machine;
        let replica = Replica::new(rcfg, keypair, self.registry.clone(), tob);
        self.sim.add_node(id, region, cluster.0, Box::new(CorruptReplica::new(replica)));
        id
    }

    /// Ask `replica` to request leaving its cluster.
    pub fn request_leave(&mut self, replica: ReplicaId) {
        let at = self.sim.now();
        self.sim.external_send(replica, replica, AvaMsg::Control(ControlCmd::RequestLeave), at);
    }

    /// Turn `replica` Byzantine in the E4.3 sense (withholds inter-cluster messages).
    pub fn mute_inter_cluster(&mut self, replica: ReplicaId) {
        let at = self.sim.now();
        self.sim.external_send(replica, replica, AvaMsg::Control(ControlCmd::MuteInterCluster), at);
    }

    /// Make `replica` stop proposing when it is the local leader (E4.2-style leader
    /// failure confined to the protocol).
    pub fn silence_local_leader(&mut self, replica: ReplicaId) {
        let at = self.sim.now();
        self.sim.external_send(
            replica,
            replica,
            AvaMsg::Control(ControlCmd::SilentLocalLeader),
            at,
        );
    }

    /// Crash `replica` at `at`.
    pub fn crash_at(&mut self, replica: ReplicaId, at: Time) {
        self.sim.crash_at(replica, at);
    }

    /// Turn `replica` Byzantine at `at`: from the first event processed at or
    /// after `at`, its outbound traffic is mutated per `behavior` (see
    /// [`ByzantineBehavior`]). Corruption persists across crash/restart — the
    /// Byzantine fault model assigns faults to processes, not uptime intervals.
    pub fn corrupt_at(&mut self, replica: ReplicaId, at: Time, behavior: ByzantineBehavior) {
        self.sim.corrupt_at(replica, at, behavior.to_tag());
    }

    /// Restart a crashed `replica` at `at`: it comes back with only its persisted
    /// store (see [`DeploymentOptions::store`]) and catches up from its peers via
    /// the checkpoint + log-suffix state transfer. Restarting a replica that is
    /// not crashed at `at` is a no-op.
    pub fn restart_at(&mut self, replica: ReplicaId, at: Time) {
        self.sim.restart_at(replica, at);
    }

    /// Partition clusters `a` and `b` from each other, starting now: all
    /// inter-cluster traffic between them is dropped until [`Deployment::heal`].
    /// Clients share their cluster's side of the partition.
    pub fn partition(&mut self, a: ClusterId, b: ClusterId) {
        self.sim.partition_groups(a.0, b.0);
    }

    /// Heal a partition previously installed with [`Deployment::partition`].
    pub fn heal(&mut self, a: ClusterId, b: ClusterId) {
        self.sim.heal_groups(a.0, b.0);
    }

    /// Replace the network latency model, effective for every message sent from now
    /// on (the scenario API's `LatencyShift` event).
    pub fn set_latency(&mut self, latency: LatencyModel) {
        self.sim.set_latency_model(latency);
    }

    /// The initial leader of `cluster` (its first member).
    pub fn initial_leader(&self, cluster: ClusterId) -> ReplicaId {
        self.config
            .clusters
            .iter()
            .find(|c| c.id == cluster)
            .and_then(|c| c.replicas.first().map(|(id, _)| *id))
            .expect("unknown cluster")
    }

    /// Run the simulation for `d` of virtual time.
    pub fn run_for(&mut self, d: Duration) {
        self.sim.run_for(d);
    }

    /// Run until virtual time `t`.
    pub fn run_until(&mut self, t: Time) {
        self.sim.run_until(t);
    }

    /// The options this deployment was built with (seed, workload, costs).
    pub fn options(&self) -> &DeploymentOptions {
        &self.opts
    }

    /// Measurement events collected so far.
    pub fn outputs(&self) -> &[Output] {
        self.sim.outputs()
    }

    /// Take ownership of the measurement events collected so far.
    pub fn take_outputs(&mut self) -> Vec<Output> {
        self.sim.take_outputs()
    }

    /// Network statistics of the run so far.
    pub fn net_stats(&self) -> &NetStats {
        self.sim.stats()
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.sim.now()
    }
}

/// The [`TobFactory`] instantiating Hamava with the HotStuff TOB (AVA-HOTSTUFF).
pub fn hotstuff_factory() -> TobFactory<ava_hotstuff::HotStuff> {
    Box::new(|cfg, keypair, registry, leader| {
        ava_hotstuff::HotStuff::new(cfg, keypair, registry, leader)
    })
}

/// The [`TobFactory`] instantiating Hamava with the BFT-SMaRt TOB (AVA-BFTSMART).
pub fn bftsmart_factory() -> TobFactory<ava_bftsmart::BftSmart> {
    Box::new(|cfg, keypair, registry, leader| {
        ava_bftsmart::BftSmart::new(cfg, keypair, registry, leader)
    })
}

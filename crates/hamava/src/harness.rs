//! Deployment harness: builds a complete simulated Hamava deployment (replicas,
//! clients, key registry, latency model) from a [`SystemConfig`], for use by the
//! examples, the integration tests and the benchmark harness.

use crate::byzantine::CorruptReplica;
use crate::client::{Client, ClientConfig};
use crate::messages::{AvaMsg, ClientCtl};
use crate::replica::{Replica, ReplicaConfig};
use ava_consensus::{TobConfig, TotalOrderBroadcast, WireSize};
use ava_crypto::{KeyRegistry, Keypair};
use ava_simnet::{client_node_id, CostModel, LatencyModel, SimMessage, Simulation};
use ava_state::StateMachineKind;
use ava_store::StoreConfig;
use ava_types::{ClientId, ClusterId, Membership, Region, ReplicaId, SystemConfig};
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
    /// checkpoints that crash→restart recovery catches up from.
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
    /// The underlying simulator. Callers drive the run (`run_for`, `outputs`,
    /// `stats`) and inject faults on it directly.
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
        let mut deployment = Deployment {
            sim: Simulation::new(opts.seed, opts.latency.clone(), opts.costs),
            registry: KeyRegistry::new(),
            opts,
            factory,
            next_replica_id: config.max_replica_id() + 1,
            next_client_id: 0,
            clients: Vec::new(),
            config,
        };
        let membership = deployment.config.membership();
        let clusters = deployment.config.clusters.clone();
        for spec in &clusters {
            let members: Vec<ReplicaId> = spec.replicas.iter().map(|(id, _)| *id).collect();
            for &(id, region) in &spec.replicas {
                deployment.add_replica(id, region, spec.id, members.clone(), &membership, false);
            }
        }
        for spec in &clusters {
            for _ in 0..deployment.opts.clients_per_cluster {
                deployment.add_client(spec.id, deployment.opts.workload.clone());
            }
        }
        deployment
    }

    /// Build replica `id` of `cluster` — keys, a TOB instance led by the first
    /// of `members`, the Hamava replica over it — and add it to the simulation.
    /// Every replica is wrapped in the (dormant) Byzantine decorator so a
    /// scheduled corruption can arm any of them mid-run; while dormant the
    /// wrapper is a byte-exact pass-through.
    fn add_replica(
        &mut self,
        id: ReplicaId,
        region: Region,
        cluster: ClusterId,
        members: Vec<ReplicaId>,
        membership: &Membership,
        joining: bool,
    ) {
        let keypair = self.registry.register(id);
        let leader = members.first().copied().unwrap_or(id);
        let params = self.config.params;
        let mut tob_cfg = TobConfig::new(cluster, id, members);
        tob_cfg.max_block_size = params.batch_size;
        tob_cfg.timeout = params.local_timeout;
        tob_cfg.timeout_floor = params.leader_change_grace;
        let tob = (self.factory)(tob_cfg, keypair.clone(), self.registry.clone(), leader);
        let mut rcfg = ReplicaConfig::new(id, region, cluster, params, membership.clone());
        rcfg.joining = joining;
        rcfg.store = self.opts.store;
        rcfg.machine = self.opts.state_machine;
        let replica = Replica::new(rcfg, keypair, self.registry.clone(), tob);
        self.sim.add_node(id, region, cluster.0, Box::new(CorruptReplica::new(replica)));
    }

    /// Add one closed-loop client running `workload` to `cluster`. Returns its id.
    pub fn add_client(&mut self, cluster: ClusterId, workload: WorkloadSpec) -> ClientId {
        let id = ClientId(self.next_client_id);
        self.next_client_id += 1;
        let spec = self.config.cluster(cluster).expect("unknown cluster");
        let targets: Vec<ReplicaId> = spec.replicas.iter().map(|(r, _)| *r).collect();
        let region = spec.replicas.first().map(|(_, reg)| *reg).unwrap_or_default();
        let mut ccfg = ClientConfig::new(id, cluster, targets);
        ccfg.concurrency = self.opts.client_concurrency;
        let client: Client<T::Msg> = Client::new(ccfg, ClientWorkload::new(workload, id));
        self.sim.add_node(client_node_id(id), region, cluster.0, Box::new(client));
        self.clients.push((id, cluster));
        id
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
        let membership = self.config.membership();
        self.add_replica(id, region, cluster, membership.member_ids(cluster), &membership, true);
        id
    }

    /// The options this deployment was built with (seed, workload, costs).
    pub fn options(&self) -> &DeploymentOptions {
        &self.opts
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

//! Protocol-erased deployments.
//!
//! [`DynDeployment`] is the object-safe face of [`ava_hamava::harness::Deployment`]:
//! it erases the total-order-broadcast generic so that one call site can drive
//! AVA-HOTSTUFF, AVA-BFTSMART and the GeoBFT baseline interchangeably. Every
//! deployment is built through [`Protocol::deploy`], which is the single place in
//! the workspace where a protocol label is mapped to a concrete deployment — the
//! per-protocol `match` arms that used to be copy-pasted through the experiment
//! harness are unrepresentable on top of this API.

use ava_broker::{AttachedTier, BrokerTier};
use ava_consensus::{TotalOrderBroadcast, WireSize};
use ava_hamava::harness::{bftsmart_factory, hotstuff_factory, Deployment, DeploymentOptions};
use ava_hamava::{AvaMsg, ByzantineBehavior};
use ava_simnet::{HandlerProfile, LatencyModel, NetStats, SimMessage};
use ava_types::{ClientId, ClusterId, Duration, Output, Region, ReplicaId, SystemConfig, Time};
use ava_workload::WorkloadSpec;

/// Which replicated system to run.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Protocol {
    /// Hamava instantiated with HotStuff (A.H).
    AvaHotStuff,
    /// Hamava instantiated with BFT-SMaRt (A.B).
    AvaBftSmart,
    /// The GeoBFT-style baseline (fixed membership).
    GeoBft,
}

impl Protocol {
    /// Every protocol, in table order.
    pub const ALL: [Protocol; 3] = [Protocol::AvaHotStuff, Protocol::AvaBftSmart, Protocol::GeoBft];

    /// The two Hamava instantiations the paper evaluates head to head (most
    /// experiments sweep exactly these).
    pub const AVA: [Protocol; 2] = [Protocol::AvaHotStuff, Protocol::AvaBftSmart];

    /// Short label used in tables.
    pub fn label(self) -> &'static str {
        match self {
            Protocol::AvaHotStuff => "A.H",
            Protocol::AvaBftSmart => "A.B",
            Protocol::GeoBft => "GeoBFT",
        }
    }

    /// Whether the protocol supports membership reconfiguration. GeoBFT does not —
    /// that is the capability gap experiment E6 highlights — and deployments built
    /// for it reject join/leave events instead of silently misbehaving.
    pub fn reconfigurable(self) -> bool {
        !matches!(self, Protocol::GeoBft)
    }

    /// Build a simulated deployment of this protocol.
    ///
    /// This is the only place where a [`Protocol`] label is turned into a concrete
    /// deployment, so a label can never run another protocol's stack (the silent
    /// `AvaBftSmart | GeoBft` fallthrough the old experiment harness had is
    /// unrepresentable).
    pub fn deploy(self, config: SystemConfig, opts: DeploymentOptions) -> Box<dyn DynDeployment> {
        match self {
            Protocol::AvaHotStuff => Box::new(ProtocolDeployment {
                protocol: self,
                inner: Deployment::build(config, opts, hotstuff_factory()),
            }),
            Protocol::AvaBftSmart => Box::new(ProtocolDeployment {
                protocol: self,
                inner: Deployment::build(config, opts, bftsmart_factory()),
            }),
            Protocol::GeoBft => Box::new(ProtocolDeployment {
                protocol: self,
                inner: Deployment::build(
                    ava_geobft::geobft_config(config),
                    opts,
                    bftsmart_factory(),
                ),
            }),
        }
    }
}

impl std::fmt::Display for Protocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// An object-safe, protocol-erased simulated deployment.
///
/// All mutation entry points an experiment needs — driving virtual time, fault
/// injection, reconfiguration churn, client management, network shaping — are
/// available behind `dyn`, so experiment code never mentions a TOB type or restates
/// trait bounds.
///
/// `Send` is a supertrait so a boxed deployment (and hence a whole
/// [`crate::ScenarioRun`]) can be produced on one of the parallel executor's
/// worker threads and handed back to the caller.
pub trait DynDeployment: Send {
    /// The protocol this deployment runs.
    fn protocol(&self) -> Protocol;

    /// The system configuration the deployment was built from.
    fn config(&self) -> &SystemConfig;

    /// Current virtual time.
    fn now(&self) -> Time;

    /// Run the simulation for `d` of virtual time.
    fn run_for(&mut self, d: Duration);

    /// Run until virtual time `t`.
    fn run_until(&mut self, t: Time);

    /// Crash `replica` at `at` (from then on it neither receives messages nor fires
    /// timers).
    fn crash_at(&mut self, replica: ReplicaId, at: Time);

    /// Restart a crashed `replica` at `at`: it comes back with only its persisted
    /// store (see `DeploymentOptions::store`) and catches up from its peers.
    /// Restarting a replica that is not crashed at `at` is a no-op.
    fn restart_at(&mut self, replica: ReplicaId, at: Time);

    /// Turn `replica` Byzantine in the E4.3 sense: it keeps behaving correctly in
    /// its cluster but withholds all inter-cluster messages.
    fn mute_inter_cluster(&mut self, replica: ReplicaId);

    /// Make `replica` silent in its local ordering role when it is the leader.
    fn silence_local_leader(&mut self, replica: ReplicaId);

    /// Turn `replica` Byzantine with `behavior` at `at`: it keeps running the
    /// honest protocol internally but mutates its outbound traffic (see
    /// [`ByzantineBehavior`]). Corruption persists across crash/restart.
    fn corrupt_at(&mut self, replica: ReplicaId, at: Time, behavior: ByzantineBehavior);

    /// Ask `replica` to request leaving its cluster.
    ///
    /// # Panics
    /// Panics when the protocol is not [`Protocol::reconfigurable`].
    fn request_leave(&mut self, replica: ReplicaId);

    /// Add a new replica that will request to join `cluster`; returns its id.
    ///
    /// # Panics
    /// Panics when the protocol is not [`Protocol::reconfigurable`].
    fn add_joining_replica(&mut self, cluster: ClusterId, region: Region) -> ReplicaId;

    /// Add one closed-loop client to `cluster` running `workload`; returns its id.
    fn add_client(&mut self, cluster: ClusterId, workload: WorkloadSpec) -> ClientId;

    /// Switch the workload of every client of `cluster`, effective now.
    fn switch_workload(&mut self, cluster: ClusterId, workload: WorkloadSpec);

    /// Partition `a` and `b` from each other, starting now.
    fn partition(&mut self, a: ClusterId, b: ClusterId);

    /// Heal a partition previously installed with [`DynDeployment::partition`].
    fn heal(&mut self, a: ClusterId, b: ClusterId);

    /// Replace the latency model for every message sent from now on.
    fn set_latency(&mut self, latency: LatencyModel);

    /// The initial leader of `cluster` (its first configured member).
    fn initial_leader(&self, cluster: ClusterId) -> ReplicaId;

    /// Measurement events collected so far.
    fn outputs(&self) -> &[Output];

    /// Take ownership of the measurement events collected so far.
    fn take_outputs(&mut self) -> Vec<Output>;

    /// Network statistics of the run so far.
    fn net_stats(&self) -> &NetStats;

    /// Switch on the simulator's handler profile (host time per actor kind ×
    /// message kind, see [`HandlerProfile`]) from the next event on. Outputs,
    /// statistics and virtual times are unaffected.
    fn enable_profile(&mut self);

    /// The handler profile accumulated so far, if switched on.
    fn handler_profile(&self) -> Option<&HandlerProfile>;

    /// Wire a broker/batch client tier into the deployment (see
    /// [`ava_broker::attach`]): per cluster, `tier.brokers_per_cluster` broker
    /// actors plus one aggregate virtual-client generator offering
    /// `tier.load`. Returns the node ids the tier added.
    fn attach_brokers(&mut self, tier: &BrokerTier) -> AttachedTier;
}

/// The one generic impl behind [`Protocol::deploy`]: a harness deployment tagged
/// with the protocol label it was built for.
struct ProtocolDeployment<T: TotalOrderBroadcast + 'static> {
    protocol: Protocol,
    inner: Deployment<T>,
}

impl<T> DynDeployment for ProtocolDeployment<T>
where
    T: TotalOrderBroadcast + 'static,
    T::Msg: Clone + WireSize + 'static,
    AvaMsg<T::Msg>: SimMessage,
{
    fn protocol(&self) -> Protocol {
        self.protocol
    }

    fn config(&self) -> &SystemConfig {
        &self.inner.config
    }

    fn now(&self) -> Time {
        self.inner.now()
    }

    fn run_for(&mut self, d: Duration) {
        self.inner.run_for(d);
    }

    fn run_until(&mut self, t: Time) {
        self.inner.run_until(t);
    }

    fn crash_at(&mut self, replica: ReplicaId, at: Time) {
        self.inner.crash_at(replica, at);
    }

    fn restart_at(&mut self, replica: ReplicaId, at: Time) {
        self.inner.restart_at(replica, at);
    }

    fn mute_inter_cluster(&mut self, replica: ReplicaId) {
        self.inner.mute_inter_cluster(replica);
    }

    fn silence_local_leader(&mut self, replica: ReplicaId) {
        self.inner.silence_local_leader(replica);
    }

    fn corrupt_at(&mut self, replica: ReplicaId, at: Time, behavior: ByzantineBehavior) {
        self.inner.corrupt_at(replica, at, behavior);
    }

    fn request_leave(&mut self, replica: ReplicaId) {
        assert!(
            self.protocol.reconfigurable(),
            "{} has no reconfiguration path: request_leave({replica}) is invalid",
            self.protocol
        );
        self.inner.request_leave(replica);
    }

    fn add_joining_replica(&mut self, cluster: ClusterId, region: Region) -> ReplicaId {
        assert!(
            self.protocol.reconfigurable(),
            "{} has no reconfiguration path: add_joining_replica is invalid",
            self.protocol
        );
        self.inner.add_joining_replica(cluster, region)
    }

    fn add_client(&mut self, cluster: ClusterId, workload: WorkloadSpec) -> ClientId {
        self.inner.add_client_with_workload(cluster, workload)
    }

    fn switch_workload(&mut self, cluster: ClusterId, workload: WorkloadSpec) {
        self.inner.switch_workload(cluster, workload);
    }

    fn partition(&mut self, a: ClusterId, b: ClusterId) {
        self.inner.partition(a, b);
    }

    fn heal(&mut self, a: ClusterId, b: ClusterId) {
        self.inner.heal(a, b);
    }

    fn set_latency(&mut self, latency: LatencyModel) {
        self.inner.set_latency(latency);
    }

    fn initial_leader(&self, cluster: ClusterId) -> ReplicaId {
        self.inner.initial_leader(cluster)
    }

    fn outputs(&self) -> &[Output] {
        self.inner.outputs()
    }

    fn take_outputs(&mut self) -> Vec<Output> {
        self.inner.take_outputs()
    }

    fn net_stats(&self) -> &NetStats {
        self.inner.net_stats()
    }

    fn enable_profile(&mut self) {
        self.inner.sim.enable_profile();
    }

    fn handler_profile(&self) -> Option<&HandlerProfile> {
        self.inner.sim.profile()
    }

    fn attach_brokers(&mut self, tier: &BrokerTier) -> AttachedTier {
        ava_broker::attach(&mut self.inner, tier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> SystemConfig {
        let mut config = SystemConfig::even_split_single_region(8, 2, Region::UsWest);
        config.params.batch_size = 20;
        config
    }

    fn tiny_opts() -> DeploymentOptions {
        DeploymentOptions {
            seed: 3,
            client_concurrency: 32,
            workload: WorkloadSpec { key_space: 500, ..WorkloadSpec::default() },
            ..DeploymentOptions::default()
        }
    }

    #[test]
    fn every_protocol_label_maps_to_its_own_deployment() {
        // Regression test for the silent protocol mismatch the old experiment
        // harness had (`Protocol::AvaBftSmart | Protocol::GeoBft` running a
        // BFT-SMaRt deployment for the GeoBFT label): the label a deployment
        // reports must be exactly the label it was deployed for.
        for protocol in Protocol::ALL {
            let dep = protocol.deploy(tiny_config(), tiny_opts());
            assert_eq!(dep.protocol(), protocol);
        }
        let mut labels: Vec<&str> = Protocol::ALL.iter().map(|p| p.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), Protocol::ALL.len(), "labels must be distinct");
    }

    #[test]
    fn geobft_deployment_gets_the_geobft_config_transform() {
        let mut config = tiny_config();
        config.params.parallel_reconfig_workflow = false;
        let dep = Protocol::GeoBft.deploy(config.clone(), tiny_opts());
        assert!(
            dep.config().params.parallel_reconfig_workflow,
            "GeoBFT must force the direct-processing path"
        );
        // The same config deployed as AVA-BFTSMART is taken verbatim.
        let dep = Protocol::AvaBftSmart.deploy(config, tiny_opts());
        assert!(!dep.config().params.parallel_reconfig_workflow);
    }

    #[test]
    #[should_panic(expected = "no reconfiguration path")]
    fn geobft_rejects_reconfiguration_events() {
        let mut dep = Protocol::GeoBft.deploy(tiny_config(), tiny_opts());
        dep.add_joining_replica(ClusterId(0), Region::UsWest);
    }

    #[test]
    fn dyn_deployment_runs_and_commits_transactions() {
        let mut dep = Protocol::AvaHotStuff.deploy(tiny_config(), tiny_opts());
        dep.run_for(Duration::from_secs(8));
        assert!(dep.outputs().iter().any(|o| matches!(o, Output::TxCompleted { .. })));
        assert!(dep.net_stats().total_messages() > 0);
        assert_eq!(dep.initial_leader(ClusterId(0)), ReplicaId(0));
    }
}

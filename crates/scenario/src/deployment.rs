//! Protocol-erased deployments.
//!
//! [`DynDeployment`] is the object-safe face of [`ava_hamava::harness::Deployment`]:
//! it erases the total-order-broadcast generic so that one call site can drive
//! AVA-HOTSTUFF, AVA-BFTSMART and the GeoBFT baseline interchangeably. It is
//! implemented once, directly for the harness deployment, and every deployment
//! is built through [`Protocol::deploy`] — the single place in the workspace
//! where a protocol label is mapped to a concrete stack.

use crate::scenario::ScenarioEvent;
use ava_broker::{AttachedTier, BrokerTier};
use ava_consensus::{TotalOrderBroadcast, WireSize};
use ava_hamava::harness::{bftsmart_factory, hotstuff_factory, Deployment, DeploymentOptions};
use ava_hamava::{AvaMsg, ControlCmd};
use ava_simnet::{HandlerProfile, NetStats, SimMessage};
use ava_types::{ClientId, Duration, Output, ReplicaId, SystemConfig, Time};

/// Which replicated system to run.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Protocol {
    /// Hamava instantiated with HotStuff (A.H).
    AvaHotStuff,
    /// Hamava instantiated with BFT-SMaRt (A.B).
    AvaBftSmart,
    /// The GeoBFT-style baseline of E6. GeoBFT (ResilientDB) runs PBFT per
    /// cluster and ships each certified batch to `f + 1` replicas of every
    /// other cluster — the structure Hamava generalises — over a fixed
    /// membership. It is therefore the same clustered pipeline on the
    /// BFT-SMaRt local order with reconfiguration refused.
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
    /// that is the capability gap experiment E6 highlights — and
    /// [`crate::ScenarioBuilder::try_build`] rejects join/leave events for it.
    pub fn reconfigurable(self) -> bool {
        !matches!(self, Protocol::GeoBft)
    }

    /// Build a simulated deployment of this protocol.
    ///
    /// This is the only place where a [`Protocol`] label is turned into a concrete
    /// deployment, so a label can never run another protocol's stack.
    pub fn deploy(self, config: SystemConfig, opts: DeploymentOptions) -> Box<dyn DynDeployment> {
        match self {
            Protocol::AvaHotStuff => Box::new(Deployment::build(config, opts, hotstuff_factory())),
            Protocol::AvaBftSmart => Box::new(Deployment::build(config, opts, bftsmart_factory())),
            // GeoBFT is AVA-BFTSMART never driven with join/leave requests
            // (see `reconfigurable`). Pinning the parallel workflow, its
            // default, keeps a caller's single-workflow ablation (E5.2) off
            // the baseline.
            Protocol::GeoBft => {
                let mut config = config;
                config.params.parallel_reconfig_workflow = true;
                Box::new(Deployment::build(config, opts, bftsmart_factory()))
            }
        }
    }
}

impl std::fmt::Display for Protocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// What applying a [`ScenarioEvent`] added to the deployment.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Joined {
    /// The replica a `Join` created.
    Replica(ReplicaId),
    /// The client a `ClientJoin` created.
    Client(ClientId),
}

/// An object-safe, protocol-erased simulated deployment.
///
/// Virtual time is driven with [`run_until`](DynDeployment::run_until), and every
/// fault, churn, client and network change is one [`ScenarioEvent`] handed to
/// [`apply`](DynDeployment::apply), so experiment code never mentions a TOB type
/// or restates trait bounds.
///
/// `Send` is a supertrait so a boxed deployment can be produced on one of the
/// parallel executor's worker threads and handed back to the caller.
pub trait DynDeployment: Send {
    /// The system configuration the deployment was built from.
    fn config(&self) -> &SystemConfig;

    /// Current virtual time.
    fn now(&self) -> Time;

    /// Run until virtual time `t`.
    fn run_until(&mut self, t: Time);

    /// Run the simulation for `d` of virtual time.
    fn run_for(&mut self, d: Duration) {
        let t = self.now() + d;
        self.run_until(t);
    }

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

    /// Apply `event` at the current virtual time; returns the replica or client
    /// a `Join` or `ClientJoin` created. Crashes and corruptions take effect
    /// before the next event the simulator processes; a restart, like the control
    /// messages of mute, silence, leave and workload switch, is an event queued
    /// at now. No check is made here: schedules are validated by
    /// [`crate::ScenarioBuilder::try_build`].
    fn apply(&mut self, event: &ScenarioEvent) -> Option<Joined>;
}

impl<T> DynDeployment for Deployment<T>
where
    T: TotalOrderBroadcast + 'static,
    T::Msg: Clone + WireSize + 'static,
    AvaMsg<T::Msg>: SimMessage,
{
    fn config(&self) -> &SystemConfig {
        &self.config
    }

    fn now(&self) -> Time {
        self.sim.now()
    }

    fn run_until(&mut self, t: Time) {
        self.sim.run_until(t);
    }

    fn outputs(&self) -> &[Output] {
        self.sim.outputs()
    }

    fn take_outputs(&mut self) -> Vec<Output> {
        self.sim.take_outputs()
    }

    fn net_stats(&self) -> &NetStats {
        self.sim.stats()
    }

    fn enable_profile(&mut self) {
        self.sim.enable_profile();
    }

    fn handler_profile(&self) -> Option<&HandlerProfile> {
        self.sim.profile()
    }

    fn attach_brokers(&mut self, tier: &BrokerTier) -> AttachedTier {
        ava_broker::attach(self, tier)
    }

    fn apply(&mut self, event: &ScenarioEvent) -> Option<Joined> {
        let now = self.sim.now();
        match event {
            ScenarioEvent::Crash { replica } => self.sim.crash_at(*replica, now),
            ScenarioEvent::Restart { replica } => self.sim.restart_at(*replica, now),
            ScenarioEvent::Corrupt { replica, behavior } => {
                self.sim.corrupt_at(*replica, now, behavior.to_tag());
            }
            ScenarioEvent::Leave { replica } => {
                let leave = AvaMsg::Control(ControlCmd::RequestLeave);
                self.sim.external_send(*replica, *replica, leave, now);
            }
            ScenarioEvent::Join { cluster, region } => {
                return Some(Joined::Replica(self.add_joining_replica(*cluster, *region)));
            }
            ScenarioEvent::ClientJoin { cluster, workload } => {
                return Some(Joined::Client(self.add_client(*cluster, workload.clone())));
            }
            ScenarioEvent::WorkloadSwitch { cluster, workload } => {
                self.switch_workload(*cluster, workload.clone());
            }
            ScenarioEvent::Partition { a, b } => self.sim.partition_groups(a.0, b.0),
            ScenarioEvent::Heal { a, b } => self.sim.heal_groups(a.0, b.0),
            ScenarioEvent::LatencyShift { latency } => self.sim.set_latency_model(latency.clone()),
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ava_types::Region;
    use ava_workload::WorkloadSpec;

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
    fn geobft_deployment_gets_the_geobft_config_transform() {
        let mut config = tiny_config();
        config.params.parallel_reconfig_workflow = false;
        let dep = Protocol::GeoBft.deploy(config.clone(), tiny_opts());
        assert!(
            dep.config().params.parallel_reconfig_workflow,
            "GeoBFT must pin the parallel reconfiguration workflow, whatever it is handed"
        );
        // The same config deployed as AVA-BFTSMART is taken verbatim.
        let dep = Protocol::AvaBftSmart.deploy(config, tiny_opts());
        assert!(!dep.config().params.parallel_reconfig_workflow);
    }

    #[test]
    #[should_panic(expected = "no reconfiguration path")]
    fn geobft_rejects_reconfiguration_events() {
        // The guard lives in the scenario builder, which every scheduled event
        // passes through; a leave is refused like a join.
        let _ = crate::Scenario::builder(Protocol::GeoBft, tiny_config())
            .leave_at(Time::from_secs(2), ReplicaId(1))
            .build();
    }

    #[test]
    fn dyn_deployment_runs_and_commits_transactions() {
        let mut dep = Protocol::AvaHotStuff.deploy(tiny_config(), tiny_opts());
        dep.run_for(Duration::from_secs(8));
        assert!(dep.outputs().iter().any(|o| matches!(o, Output::TxCompleted { .. })));
        assert!(dep.net_stats().total_messages() > 0);
    }
}

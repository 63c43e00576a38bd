//! One real replica among recording stand-ins: a harness for driving a single
//! `Replica` with hand-made messages and reading back everything it sends.
//! Included with `#[path]` by the tests that use it.

use hamava_repro::consensus::TobConfig;
use hamava_repro::crypto::KeyRegistry;
use hamava_repro::hamava::harness::{hotstuff_factory, DeploymentOptions};
use hamava_repro::hamava::{AvaMsg, Replica, ReplicaConfig};
use hamava_repro::hotstuff::HotStuffMsg;
use hamava_repro::simnet::{Actor, Context, SimMessage, Simulation};
use hamava_repro::types::{ReplicaId, SystemConfig};
use std::sync::{Arc, Mutex};

pub type Msg = AvaMsg<HotStuffMsg>;
/// `(to, from, message)` of everything the stand-ins received.
pub type Inbox = Arc<Mutex<Vec<(ReplicaId, ReplicaId, Msg)>>>;

/// Stands in for a replica: records what it is sent, answers nothing.
struct Recorder(ReplicaId, Inbox);

impl Actor<Msg> for Recorder {
    fn on_message(&mut self, from: ReplicaId, msg: Msg, _: &mut Context<'_, Msg>) {
        self.1.lock().expect("no test thread panicked holding it").push((self.0, from, msg));
    }
}

/// `config` with `under_test` as its only real replica (on AVA-HOTSTUFF) and a
/// recorder in every other seat. Nobody orders anything, so the replica stays
/// in round 1 unless a test moves it.
pub fn one_replica_among_recorders(
    config: &SystemConfig,
    under_test: ReplicaId,
) -> (Simulation<Msg>, Inbox) {
    let opts = DeploymentOptions::default();
    let mut sim = Simulation::new(opts.seed, opts.latency.clone(), opts.costs);
    let (registry, inbox) = (KeyRegistry::new(), Inbox::default());
    for spec in &config.clusters {
        let members: Vec<ReplicaId> = spec.replicas.iter().map(|r| r.0).collect();
        for &(id, region) in &spec.replicas {
            let keypair = registry.register(id);
            let actor: Box<dyn Actor<Msg> + Send> = if id == under_test {
                let tob_cfg = TobConfig::new(spec.id, id, members.clone());
                let tob =
                    hotstuff_factory()(tob_cfg, keypair.clone(), registry.clone(), members[0]);
                let cfg =
                    ReplicaConfig::new(id, region, spec.id, config.params, config.membership());
                Box::new(Replica::new(cfg, keypair, registry.clone(), tob))
            } else {
                Box::new(Recorder(id, Arc::clone(&inbox)))
            };
            sim.add_node(id, region, spec.id.0, actor);
        }
    }
    (sim, inbox)
}

/// How many messages of `kind` the stand-in `to` received.
pub fn received(inbox: &Inbox, to: u32, kind: &str) -> usize {
    let inbox = inbox.lock().expect("no test thread panicked holding it");
    inbox.iter().filter(|(t, _, m)| *t == ReplicaId(to) && m.kind_label() == kind).count()
}

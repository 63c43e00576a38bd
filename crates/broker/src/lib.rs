//! # ava-broker
//!
//! Broker/batch client tier for the Hamava reproduction: a middle tier between
//! clients and replicas that lets one deployment carry the offered load of
//! 10⁴–10⁶ clients without an actor per client.
//!
//! The tier has two actor kinds:
//!
//! - [`AggregateClients`] — one actor per cluster standing in for up to
//!   [`ava_workload::VIRTUAL_CLIENT_STRIDE`] open-loop *virtual clients*. It
//!   drains a deterministic [`ava_workload::AggregateStream`] of Poisson
//!   arrivals (attributed to Zipf-distributed virtual client ids) and routes
//!   them either through the broker tier or directly at replicas.
//! - [`Broker`] — accepts virtual-client submissions, accumulates them into
//!   size/time-bounded batches, signs each batch once ([`ava_hamava::TxBatch`])
//!   and submits it to a replica of its cluster, then demultiplexes the
//!   per-operation acks back to the aggregate generator. Backpressure is a
//!   bounded queue plus a bounded number of in-flight batches: overflow is
//!   shed back to the generator, which retries later.
//!
//! The replica side (batch verification, idempotent re-admission, per-op
//! commit trace) lives in `ava-hamava`; this crate owns only the tier's actors
//! and the [`attach`] helper that wires them into a built
//! [`ava_hamava::harness::Deployment`] (`ava_scenario`'s `DynDeployment::attach_brokers`
//! is its one caller outside this crate's tests).

pub mod aggregate;
pub mod broker;

pub use aggregate::{AggregateClients, Route};
pub use ava_workload::{AggregateLoad, AggregateStream};
pub use broker::{Broker, BrokerConfig};

use ava_consensus::{TotalOrderBroadcast, WireSize};
use ava_hamava::harness::Deployment;
use ava_hamava::messages::AvaMsg;
use ava_simnet::SimMessage;
use ava_types::{Duration, ReplicaId};
use ava_workload::virtual_client_base;

/// First node id of the broker tier (client nodes live at 1 000 000 +,
/// replicas below that; see `ava_simnet::client_node_id`).
pub const BROKER_NODE_BASE: u32 = 2_000_000;

/// First node id of the aggregate virtual-client generators.
pub const AGGREGATE_NODE_BASE: u32 = 3_000_000;

/// The simulated node id of broker number `index` (global, across clusters).
pub fn broker_node_id(index: u32) -> ReplicaId {
    ReplicaId(BROKER_NODE_BASE + index)
}

/// The simulated node id of aggregate generator number `index` (one per
/// cluster, in cluster order).
pub fn aggregate_node_id(index: u32) -> ReplicaId {
    ReplicaId(AGGREGATE_NODE_BASE + index)
}

/// The arrival-stream seed of aggregate generator `index` in a deployment
/// seeded with `seed`. Derived from the deployment seed but independent of the
/// simulation's shared RNG, so the same `(seed, index)` produces the same
/// virtual-client arrival sequence whether the ops travel through brokers or
/// directly to replicas — the broker-vs-direct equivalence test pins this.
pub fn stream_seed(seed: u64, index: u32) -> u64 {
    seed ^ 0x6272_6f6b_6572_5f61 ^ ((index as u64) << 17)
}

/// Configuration of one broker tier: how many brokers front each cluster, the
/// batching bounds, the backpressure limits, and the aggregate load offered to
/// the tier (one generator per cluster).
#[derive(Clone, Debug)]
pub struct BrokerTier {
    /// Brokers per cluster. `0` keeps the aggregate generators but routes
    /// their operations directly at replicas, one request per operation — the
    /// baseline the broker path is compared against.
    pub brokers_per_cluster: usize,
    /// Maximum operations per batch; a full batch flushes immediately.
    pub max_batch_ops: usize,
    /// A non-empty partial batch flushes after at most this long.
    pub flush_interval: Duration,
    /// Maximum unacknowledged batches per broker; further flushes wait.
    pub max_inflight: usize,
    /// Maximum queued operations per broker; overflow is shed back to the
    /// generator (which retries later).
    pub queue_cap: usize,
    /// Re-submit an in-flight batch to another replica if no admission reply
    /// arrived within this time (covers a crashed or partitioned replica; the
    /// replica side admits idempotently per `(broker, batch id)` and the TOB
    /// pool dedups re-ordered operations by digest). The replica that sat on
    /// it leaves the rotation and is probed with one live batch per such
    /// interval until it answers again (`ava_hamava::TargetSet`).
    pub retry_timeout: Duration,
    /// The offered aggregate load, per cluster.
    pub load: AggregateLoad,
}

impl Default for BrokerTier {
    fn default() -> Self {
        BrokerTier {
            brokers_per_cluster: 1,
            max_batch_ops: 100,
            flush_interval: Duration::from_millis(5),
            max_inflight: 4,
            queue_cap: 100_000,
            retry_timeout: Duration::from_secs(2),
            load: AggregateLoad::default(),
        }
    }
}

/// What [`attach`] added to the deployment, so callers can address the tier.
#[derive(Clone, Debug, Default)]
pub struct AttachedTier {
    /// Broker node ids, in cluster order.
    pub brokers: Vec<ReplicaId>,
    /// Aggregate-generator node ids, one per cluster.
    pub aggregates: Vec<ReplicaId>,
}

/// Wire a broker tier into a built deployment: per cluster, register and add
/// `tier.brokers_per_cluster` broker actors plus one aggregate virtual-client
/// generator offering `tier.load`. With zero brokers the generators submit
/// directly to replicas (per-operation requests), which is the baseline path.
pub fn attach<T>(deployment: &mut Deployment<T>, tier: &BrokerTier) -> AttachedTier
where
    T: TotalOrderBroadcast + 'static,
    T::Msg: Clone + WireSize + 'static,
    AvaMsg<T::Msg>: SimMessage,
{
    let seed = deployment.options().seed;
    let clusters = deployment.config.clusters.clone();
    let mut attached = AttachedTier::default();
    let mut broker_idx: u32 = 0;
    for (agg_idx, spec) in clusters.iter().enumerate() {
        let targets: Vec<ReplicaId> = spec.replicas.iter().map(|(id, _)| *id).collect();
        let region = spec.replicas.first().map(|(_, reg)| *reg).unwrap_or_default();
        let mut broker_nodes = Vec::new();
        for _ in 0..tier.brokers_per_cluster {
            let node = broker_node_id(broker_idx);
            broker_idx += 1;
            let keypair = deployment.registry.register(node);
            let cfg = BrokerConfig {
                node,
                cluster: spec.id,
                aggregate: aggregate_node_id(agg_idx as u32),
                targets: targets.clone(),
                max_batch_ops: tier.max_batch_ops,
                flush_interval: tier.flush_interval,
                max_inflight: tier.max_inflight,
                queue_cap: tier.queue_cap,
                retry_timeout: tier.retry_timeout,
            };
            let broker: Broker<T::Msg> = Broker::new(cfg, keypair);
            deployment.sim.add_node(node, region, spec.id.0, Box::new(broker));
            broker_nodes.push(node);
        }
        let route = if broker_nodes.is_empty() {
            Route::Direct(targets)
        } else {
            Route::Brokers(broker_nodes.clone())
        };
        let stream = AggregateStream::new(
            tier.load.clone(),
            virtual_client_base(agg_idx as u32),
            stream_seed(seed, agg_idx as u32),
        );
        let agg_node = aggregate_node_id(agg_idx as u32);
        let agg: AggregateClients<T::Msg> = AggregateClients::new(agg_node, spec.id, stream, route);
        deployment.sim.add_node(agg_node, region, spec.id.0, Box::new(agg));
        attached.brokers.extend(broker_nodes);
        attached.aggregates.push(agg_node);
    }
    attached
}

#[cfg(test)]
mod tests {
    use super::*;
    use ava_hamava::harness::{hotstuff_factory, Deployment, DeploymentOptions};
    use ava_types::{ClientId, Output, Region, SystemConfig, Time, TxId};
    use std::collections::BTreeMap;

    fn small_tier(brokers: usize) -> BrokerTier {
        BrokerTier {
            brokers_per_cluster: brokers,
            load: AggregateLoad {
                virtual_clients: 10_000,
                offered_tps: 1_000,
                issue_for: Duration::from_secs(2),
                ..AggregateLoad::default()
            },
            ..BrokerTier::default()
        }
    }

    fn run(tier: &BrokerTier, seed: u64) -> Vec<Output> {
        let config = SystemConfig::even_split_single_region(4, 1, Region::UsWest);
        let opts = DeploymentOptions { seed, clients_per_cluster: 0, ..Default::default() };
        let mut deployment = Deployment::build(config, opts, hotstuff_factory());
        attach(&mut deployment, tier);
        deployment.sim.run_for(Duration::from_secs(6));
        deployment.sim.take_outputs()
    }

    fn completed_ids(outputs: &[Output]) -> Vec<TxId> {
        let mut ids: Vec<TxId> = outputs
            .iter()
            .filter_map(|o| match o {
                Output::TxCompleted { tx, .. } => Some(*tx),
                _ => None,
            })
            .collect();
        ids.sort();
        ids
    }

    #[test]
    fn broker_tier_commits_and_acks_virtual_client_load() {
        let outputs = run(&small_tier(1), 7);
        let ids = completed_ids(&outputs);
        // ~1 000 tps for 2 s: expect the bulk of ~2 000 ops acked.
        assert!(ids.len() > 1_500, "only {} acks", ids.len());
        let mut unique = ids.clone();
        unique.dedup();
        assert_eq!(unique.len(), ids.len(), "duplicate completions");
        assert!(outputs.iter().any(|o| matches!(o, Output::BrokerFlushed { .. })));
        assert!(outputs.iter().any(|o| matches!(o, Output::BatchOpCommitted { .. })));
        // Every acked write has exactly one commit trace.
        let mut commits: BTreeMap<TxId, usize> = BTreeMap::new();
        for o in &outputs {
            if let Output::BatchOpCommitted { tx, .. } = o {
                *commits.entry(*tx).or_insert(0) += 1;
            }
        }
        for o in &outputs {
            if let Output::TxCompleted { tx, is_write: true, .. } = o {
                assert_eq!(commits.get(tx), Some(&1), "write {tx:?} acked without one commit");
            }
        }
    }

    #[test]
    fn direct_mode_routes_without_brokers() {
        let outputs = run(&small_tier(0), 7);
        let ids = completed_ids(&outputs);
        assert!(ids.len() > 1_500, "only {} acks", ids.len());
        assert!(!outputs.iter().any(|o| matches!(o, Output::BrokerFlushed { .. })));
        assert!(!outputs.iter().any(|o| matches!(o, Output::BatchOpCommitted { .. })));
    }

    #[test]
    fn broker_runs_are_deterministic_per_seed() {
        assert_eq!(run(&small_tier(1), 11), run(&small_tier(1), 11));
        assert_ne!(
            completed_ids(&run(&small_tier(1), 11)),
            completed_ids(&run(&small_tier(1), 12))
        );
    }

    #[test]
    fn overload_sheds_and_recovers_without_duplicating_acks() {
        let mut tier = small_tier(1);
        // A deliberately tiny broker: 50-op queue, one in-flight batch, against
        // a hard burst — shedding must kick in, and shed ops must eventually
        // complete exactly once via the generator's retry path.
        tier.queue_cap = 50;
        tier.max_inflight = 1;
        tier.max_batch_ops = 25;
        tier.load.offered_tps = 20_000;
        tier.load.issue_for = Duration::from_millis(500);
        let outputs = run(&tier, 5);
        let shed = outputs
            .iter()
            .filter_map(|o| match o {
                Output::BrokerFlushed { shed_total, .. } => Some(*shed_total),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        assert!(shed > 0, "overload run never shed");
        let ids = completed_ids(&outputs);
        let mut unique = ids.clone();
        unique.dedup();
        assert_eq!(unique.len(), ids.len(), "duplicate completions under shedding");
        assert!(ids.len() > 1_000, "only {} acks under overload", ids.len());
    }

    #[test]
    fn node_id_spaces_do_not_collide() {
        assert!(broker_node_id(999_999).0 < AGGREGATE_NODE_BASE);
        assert_ne!(stream_seed(42, 0), stream_seed(42, 1));
        assert_ne!(stream_seed(42, 0), stream_seed(43, 0));
        // Virtual-client response node ids (client_node_id of a virtual id)
        // are never used: batch acks go to the broker, direct acks to the
        // aggregate node. Guard the constant relation anyway.
        assert!(ava_workload::VIRTUAL_CLIENT_BASE > AGGREGATE_NODE_BASE);
        let _ = ClientId(0);
        let _ = Time::ZERO;
    }
}

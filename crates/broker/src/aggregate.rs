//! The aggregate virtual-client actor: one simulated node standing in for up
//! to millions of open-loop clients, issuing a deterministic collapsed arrival
//! stream either through the broker tier or directly at replicas.

use ava_consensus::WireSize;
use ava_hamava::messages::AvaMsg;
use ava_simnet::{Actor, Context, SimMessage};
use ava_types::{ClusterId, Duration, Output, ReplicaId, Time, Transaction, TxId};
use ava_workload::AggregateStream;
use std::collections::HashMap;
use std::marker::PhantomData;

const TICK: u64 = 1;

/// How often the generator drains its arrival stream. Every arrival of a tick
/// is absorbed by one handler invocation — the collapse that makes 10⁵+
/// virtual clients per actor cheap.
const DRAIN_INTERVAL: Duration = Duration(1_000);

/// Backoff before resubmitting operations a broker shed: a bounced operation
/// waits this long instead of hammering the still-congested queue every tick.
const RETRY_BACKOFF: Duration = Duration(50_000);

/// Where the generator submits its operations.
#[derive(Clone, Debug)]
pub enum Route {
    /// Through the broker tier: operations are partitioned over the brokers by
    /// virtual client id and submitted in per-tick `BrokerSubmit` bundles.
    Brokers(Vec<ReplicaId>),
    /// Directly at replicas, one `ClientRequest` per operation, round-robin —
    /// the per-request baseline the broker tier is measured against.
    Direct(Vec<ReplicaId>),
}

/// The aggregate generator actor. Generic over the TOB message type only so it
/// can share a simulation with any replica flavour.
pub struct AggregateClients<TM> {
    node: ReplicaId,
    cluster: ClusterId,
    stream: AggregateStream,
    route: Route,
    /// Issued-but-unacked operations: issue (arrival) time and whether it is a
    /// write. Also the dedup set — a duplicate ack (e.g. after a broker retry)
    /// finds no entry and is dropped.
    outstanding: HashMap<TxId, (Time, bool)>,
    /// Operations the broker shed under backpressure, resubmitted after
    /// [`RETRY_BACKOFF`]. Their `outstanding` entries (and issue times)
    /// survive the bounce.
    retry: Vec<Transaction>,
    /// Earliest time the retry queue may be resubmitted.
    next_retry_at: Time,
    /// Round-robin cursor for `Route::Direct`.
    rr: usize,
    completed: u64,
    shed_seen: u64,
    _marker: PhantomData<TM>,
}

impl<TM> AggregateClients<TM> {
    /// Create a generator for `cluster`, draining `stream` into `route`.
    pub fn new(node: ReplicaId, cluster: ClusterId, stream: AggregateStream, route: Route) -> Self {
        match &route {
            Route::Brokers(targets) | Route::Direct(targets) => {
                assert!(!targets.is_empty(), "aggregate generator needs somewhere to submit");
            }
        }
        AggregateClients {
            node,
            cluster,
            stream,
            route,
            outstanding: HashMap::new(),
            retry: Vec::new(),
            next_retry_at: Time::ZERO,
            rr: 0,
            completed: 0,
            shed_seen: 0,
            _marker: PhantomData,
        }
    }

    /// The generator's simulated node id.
    pub fn node(&self) -> ReplicaId {
        self.node
    }

    /// Acked operations so far (for tests).
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Shed bounces observed so far (for tests).
    pub fn shed_seen(&self) -> u64 {
        self.shed_seen
    }
}

impl<TM: Clone + WireSize> AggregateClients<TM>
where
    AvaMsg<TM>: SimMessage,
{
    fn complete(&mut self, tx: TxId, ctx: &mut Context<'_, AvaMsg<TM>>) {
        if let Some((issued_at, is_write)) = self.outstanding.remove(&tx) {
            self.completed += 1;
            ctx.emit(Output::TxCompleted {
                tx,
                client: tx.client,
                cluster: self.cluster,
                issued_at,
                completed_at: ctx.now(),
                is_write,
            });
        }
    }

    fn submit(&mut self, ops: Vec<Transaction>, ctx: &mut Context<'_, AvaMsg<TM>>) {
        if ops.is_empty() {
            return;
        }
        match &self.route {
            Route::Brokers(brokers) => {
                // Partition by virtual client id so one client's operations
                // always take the same broker (keeps per-client order).
                let mut per_broker: Vec<Vec<Transaction>> = vec![Vec::new(); brokers.len()];
                for tx in ops {
                    per_broker[tx.id.client.0 as usize % brokers.len()].push(tx);
                }
                let brokers = brokers.clone();
                for (broker, bundle) in brokers.into_iter().zip(per_broker) {
                    if !bundle.is_empty() {
                        ctx.send(broker, AvaMsg::BrokerSubmit { ops: bundle });
                    }
                }
            }
            Route::Direct(replicas) => {
                let replicas = replicas.clone();
                for tx in ops {
                    let target = replicas[self.rr % replicas.len()];
                    self.rr += 1;
                    ctx.send(target, AvaMsg::ClientRequest { tx });
                }
            }
        }
    }
}

impl<TM: Clone + WireSize> Actor<AvaMsg<TM>> for AggregateClients<TM>
where
    AvaMsg<TM>: SimMessage,
{
    fn on_start(&mut self, ctx: &mut Context<'_, AvaMsg<TM>>) {
        ctx.set_timer(DRAIN_INTERVAL, TICK);
    }

    fn on_message(&mut self, _from: ReplicaId, msg: AvaMsg<TM>, ctx: &mut Context<'_, AvaMsg<TM>>) {
        match msg {
            AvaMsg::BrokerDeliver { acks, shed } => {
                for (tx, _) in acks {
                    self.complete(tx, ctx);
                }
                if !shed.is_empty() {
                    self.shed_seen += shed.len() as u64;
                    self.retry.extend(shed);
                    self.next_retry_at = ctx.now() + RETRY_BACKOFF;
                }
            }
            AvaMsg::ClientResponse { tx, .. } => self.complete(tx, ctx),
            _ => {}
        }
    }

    fn on_timer(&mut self, kind: u64, ctx: &mut Context<'_, AvaMsg<TM>>) {
        if kind != TICK {
            return;
        }
        ctx.set_timer(DRAIN_INTERVAL, TICK);
        let mut ops = if self.retry.is_empty() || ctx.now() < self.next_retry_at {
            Vec::new()
        } else {
            std::mem::take(&mut self.retry)
        };
        for (at, tx) in self.stream.drain_until(ctx.now()) {
            self.outstanding.insert(tx.id, (at, tx.kind.is_write()));
            ops.push(tx);
        }
        self.submit(ops, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ava_workload::{virtual_client_base, AggregateLoad};

    fn stream() -> AggregateStream {
        let load = AggregateLoad {
            virtual_clients: 1_000,
            offered_tps: 500,
            issue_for: Duration::from_secs(1),
            ..AggregateLoad::default()
        };
        AggregateStream::new(load, virtual_client_base(0), 3)
    }

    #[test]
    fn routes_need_targets() {
        let result = std::panic::catch_unwind(|| {
            AggregateClients::<()>::new(
                ReplicaId(3_000_000),
                ClusterId(0),
                stream(),
                Route::Direct(Vec::new()),
            )
        });
        assert!(result.is_err());
    }

    #[test]
    fn duplicate_acks_complete_once() {
        use ava_hotstuff::HotStuffMsg;
        use ava_simnet::{CostModel, LatencyModel, Simulation};
        let mut sim: Simulation<AvaMsg<HotStuffMsg>> =
            Simulation::new(1, LatencyModel::uniform(1.0), CostModel::zero());
        let node = ReplicaId(3_000_000);
        // ReplicaId(0) is never added: requests to it are dropped by the sim,
        // which is exactly what lets us ack by hand below.
        let agg: AggregateClients<HotStuffMsg> =
            AggregateClients::new(node, ClusterId(0), stream(), Route::Direct(vec![ReplicaId(0)]));
        sim.add_node(node, ava_types::Region::UsWest, 0, Box::new(agg));
        sim.run_for(Duration::from_millis(50));
        assert!(
            !sim.outputs().iter().any(|o| matches!(o, Output::TxCompleted { .. })),
            "nothing acked yet"
        );
        // A twin of the actor's stream tells us which ids it has issued by now.
        let tx = stream()
            .drain_until(Time::from_millis(40))
            .first()
            .map(|(_, tx)| tx.id)
            .expect("stream issues within 40 ms at 500 tps");
        // Ack the same issued transaction twice: one completion, not two.
        let now = sim.now();
        sim.external_send(
            ReplicaId(0),
            node,
            AvaMsg::ClientResponse { tx, is_write: true, value_len: 0 },
            now,
        );
        sim.external_send(
            ReplicaId(0),
            node,
            AvaMsg::ClientResponse { tx, is_write: true, value_len: 0 },
            now,
        );
        sim.run_for(Duration::from_millis(50));
        let completions = sim
            .outputs()
            .iter()
            .filter(|o| matches!(o, Output::TxCompleted { tx: t, .. } if *t == tx))
            .count();
        assert_eq!(completions, 1, "duplicate ack must complete exactly once");
    }
}

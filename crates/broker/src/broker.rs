//! The broker actor: accumulates virtual-client operations into certified
//! batches, submits them to its cluster's replicas, and fans the per-operation
//! acknowledgements back to the aggregate generator.

use ava_consensus::WireSize;
use ava_crypto::Keypair;
use ava_hamava::messages::{AvaMsg, TxBatch};
use ava_hamava::TargetSet;
use ava_simnet::{Actor, Context, SimMessage};
use ava_types::{ClusterId, Duration, Output, ReplicaId, Time, Transaction, TxId};
use std::collections::{BTreeMap, VecDeque};
use std::marker::PhantomData;
use std::sync::Arc;

const TICK: u64 = 1;

/// Configuration of one broker actor.
#[derive(Clone, Debug)]
pub struct BrokerConfig {
    /// The broker's own node id (also the signer id of its batches).
    pub node: ReplicaId,
    /// The cluster whose replicas it submits to.
    pub cluster: ClusterId,
    /// The aggregate generator its acks and shed operations go back to.
    pub aggregate: ReplicaId,
    /// Replicas of the cluster, in the order [`TargetSet`] rotates through them.
    pub targets: Vec<ReplicaId>,
    /// Maximum operations per batch; a full batch flushes immediately.
    pub max_batch_ops: usize,
    /// A non-empty partial batch flushes after at most this long (also the
    /// cadence of ack fan-back and retry scans).
    pub flush_interval: Duration,
    /// Maximum unacknowledged batches; further flushes wait for replies.
    pub max_inflight: usize,
    /// Maximum queued operations; overflow is shed back to the generator.
    pub queue_cap: usize,
    /// Re-submit an unacknowledged batch to another replica after this long; the
    /// silent one is demoted and probed once per such interval ([`TargetSet`]).
    pub retry_timeout: Duration,
}

/// One submitted-but-unacknowledged batch.
struct Inflight {
    batch: Arc<TxBatch>,
    sent_at: Time,
    /// The replica it was last sent to.
    target: ReplicaId,
}

/// The broker actor. Generic over the TOB message type only, like
/// [`ava_hamava::Client`], so it can share a simulation with any replica
/// flavour.
pub struct Broker<TM> {
    cfg: BrokerConfig,
    keypair: Keypair,
    /// Accepted operations waiting to be batched (bounded by `queue_cap`).
    queue: VecDeque<Transaction>,
    /// Submitted batches awaiting an admission reply, by batch id (ordered, so
    /// batches that come due on one tick are re-submitted in the same order in
    /// every process).
    inflight: BTreeMap<u64, Inflight>,
    /// Per-operation acks to fan back on the next tick.
    pending_acks: Vec<(TxId, bool)>,
    /// Shed operations to return on the next tick.
    pending_shed: Vec<Transaction>,
    /// Operations shed so far (monotonic, reported in [`Output::BrokerFlushed`]).
    shed_total: u64,
    next_batch_id: u64,
    /// Where batches go: `cfg.targets`, minus the ones that stopped answering.
    targets: TargetSet,
    _marker: PhantomData<TM>,
}

impl<TM> Broker<TM> {
    /// Create a broker; `keypair` must be registered in the deployment's key
    /// registry under `cfg.node` or every batch will fail verification.
    pub fn new(cfg: BrokerConfig, keypair: Keypair) -> Self {
        assert!(cfg.max_batch_ops > 0 && cfg.max_inflight > 0);
        let targets = TargetSet::new(&cfg.targets, cfg.retry_timeout);
        Broker {
            cfg,
            keypair,
            queue: VecDeque::new(),
            inflight: BTreeMap::new(),
            pending_acks: Vec::new(),
            pending_shed: Vec::new(),
            shed_total: 0,
            next_batch_id: 0,
            targets,
            _marker: PhantomData,
        }
    }

    /// Operations shed so far (for tests).
    pub fn shed_total(&self) -> u64 {
        self.shed_total
    }
}

impl<TM: Clone + WireSize> Broker<TM>
where
    AvaMsg<TM>: SimMessage,
{
    /// Flush as many batches as the in-flight bound allows. Full batches always
    /// flush; a partial one only on the tick path (`allow_partial`), which is
    /// what bounds batching delay by `flush_interval`.
    fn try_flush(&mut self, allow_partial: bool, ctx: &mut Context<'_, AvaMsg<TM>>) {
        while self.inflight.len() < self.cfg.max_inflight && !self.queue.is_empty() {
            if self.queue.len() < self.cfg.max_batch_ops && !allow_partial {
                break;
            }
            let n = self.queue.len().min(self.cfg.max_batch_ops);
            let ops: Vec<Transaction> = self.queue.drain(..n).collect();
            let id = self.next_batch_id;
            self.next_batch_id += 1;
            // One signature covers the whole batch — the amortization the tier
            // exists for.
            ctx.consume(ctx.costs().sig_cost(1, 0));
            let batch = Arc::new(TxBatch::new(self.cfg.node, id, ops, &self.keypair));
            let target = self.targets.pick(ctx.now());
            ctx.send(target, AvaMsg::BatchSubmit(Arc::clone(&batch)));
            self.inflight.insert(id, Inflight { batch, sent_at: ctx.now(), target });
            ctx.emit(Output::BrokerFlushed {
                broker: self.cfg.node,
                cluster: self.cfg.cluster,
                ops: n,
                queue: self.queue.len(),
                inflight: self.inflight.len(),
                shed_total: self.shed_total,
                at: ctx.now(),
            });
        }
    }

    /// Re-submit batches whose admission reply is overdue, in batch-id order,
    /// demoting the replica that sat on each. The replica side is idempotent per
    /// `(broker, batch id)` and the TOB pool dedups re-ordered operations by
    /// digest, so a duplicate admission cannot double-apply (it can double-ack;
    /// the generator dedups by transaction id).
    fn retry_overdue(&mut self, ctx: &mut Context<'_, AvaMsg<TM>>) {
        let now = ctx.now();
        for inflight in self.inflight.values_mut() {
            if now.since(inflight.sent_at) < self.cfg.retry_timeout {
                continue;
            }
            let (target, newly_demoted) = self.targets.on_timeout(inflight.target, now);
            if newly_demoted {
                let value = f64::from(inflight.target.0);
                ctx.emit(Output::Custom { name: "broker_target_demoted", value, at: now });
            }
            inflight.target = target;
            inflight.sent_at = now;
            ctx.send(target, AvaMsg::BatchSubmit(Arc::clone(&inflight.batch)));
        }
    }

    /// Fan buffered acks and shed operations back to the aggregate generator,
    /// batched per tick (the demultiplexing direction of the tier).
    fn deliver(&mut self, ctx: &mut Context<'_, AvaMsg<TM>>) {
        if self.pending_acks.is_empty() && self.pending_shed.is_empty() {
            return;
        }
        let acks = std::mem::take(&mut self.pending_acks);
        let shed = std::mem::take(&mut self.pending_shed);
        ctx.send(self.cfg.aggregate, AvaMsg::BrokerDeliver { acks, shed });
    }
}

impl<TM: Clone + WireSize> Actor<AvaMsg<TM>> for Broker<TM>
where
    AvaMsg<TM>: SimMessage,
{
    fn on_start(&mut self, ctx: &mut Context<'_, AvaMsg<TM>>) {
        ctx.set_timer(self.cfg.flush_interval, TICK);
    }

    fn on_message(&mut self, from: ReplicaId, msg: AvaMsg<TM>, ctx: &mut Context<'_, AvaMsg<TM>>) {
        match msg {
            AvaMsg::BrokerSubmit { ops } => {
                for tx in ops {
                    if self.queue.len() < self.cfg.queue_cap {
                        self.queue.push_back(tx);
                    } else {
                        // Backpressure: bounced back rather than silently
                        // dropped, so the generator can retry.
                        self.shed_total += 1;
                        self.pending_shed.push(tx);
                    }
                }
                self.try_flush(false, ctx);
            }
            AvaMsg::BatchReply { batch, reads } => {
                let answered = self.inflight.remove(&batch);
                // Any reply — even a late one to a batch since moved — shows
                // the replica is serving again.
                if self.targets.on_reply(from, answered.as_ref().map(|i| i.target)) {
                    let (value, at) = (f64::from(from.0), ctx.now());
                    ctx.emit(Output::Custom { name: "broker_target_readmitted", value, at });
                }
                if answered.is_some() {
                    self.pending_acks.extend(reads.into_iter().map(|tx| (tx, false)));
                    self.try_flush(false, ctx);
                }
            }
            // Per-operation write acks: the replica records the broker as the
            // submitting "client node", so committed writes come back here.
            AvaMsg::ClientResponse { tx, is_write, .. } => {
                self.pending_acks.push((tx, is_write));
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, kind: u64, ctx: &mut Context<'_, AvaMsg<TM>>) {
        if kind != TICK {
            return;
        }
        ctx.set_timer(self.cfg.flush_interval, TICK);
        self.try_flush(true, ctx);
        self.retry_overdue(ctx);
        self.deliver(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ava_crypto::KeyRegistry;
    use ava_hotstuff::HotStuffMsg;
    use ava_simnet::{CostModel, LatencyModel, Simulation};
    use ava_types::{ClientId, Region};
    use std::sync::Mutex;

    type Msg = AvaMsg<HotStuffMsg>;
    /// `(replica, batch id)` of every `BatchSubmit` delivered, in delivery order.
    type Log = Arc<Mutex<Vec<(ReplicaId, u64)>>>;

    /// Stands in for a replica: logs every batch it is sent and, unless
    /// `silent`, admits it like a replica would (an empty `BatchReply`).
    struct Target {
        me: ReplicaId,
        silent: bool,
        log: Log,
    }

    impl Actor<Msg> for Target {
        fn on_message(&mut self, from: ReplicaId, msg: Msg, ctx: &mut Context<'_, Msg>) {
            if let AvaMsg::BatchSubmit(batch) = msg {
                self.log.lock().unwrap().push((self.me, batch.id));
                if !self.silent {
                    ctx.send(from, AvaMsg::BatchReply { batch: batch.id, reads: Vec::new() });
                }
            }
        }
    }

    const BROKER: ReplicaId = ReplicaId(2_000_000);
    const FEEDER: ReplicaId = ReplicaId(3_000_000);

    /// One broker (two-op batches, four in flight, 2 s retry) in front of seven
    /// targets of which `silent` never answer. No latency jitter, so targets log
    /// batches in the order the broker sent them.
    fn sim_with(silent: &[u32]) -> (Simulation<Msg>, Log) {
        let log: Log = Arc::default();
        let latency = LatencyModel::paper_table2().with_jitter(0.0);
        let mut sim = Simulation::new(1, latency, CostModel::zero());
        let targets: Vec<ReplicaId> = (0..7).map(ReplicaId).collect();
        for &me in &targets {
            let target = Target { me, silent: silent.contains(&me.0), log: Arc::clone(&log) };
            sim.add_node(me, Region::UsWest, 0, Box::new(target));
        }
        let cfg = BrokerConfig {
            node: BROKER,
            cluster: ClusterId(0),
            aggregate: FEEDER,
            targets,
            max_batch_ops: 2,
            flush_interval: Duration::from_millis(5),
            max_inflight: 4,
            queue_cap: 1_000,
            retry_timeout: Duration::from_secs(2),
        };
        let broker: Broker<HotStuffMsg> = Broker::new(cfg, KeyRegistry::new().register(BROKER));
        sim.add_node(BROKER, Region::UsWest, 0, Box::new(broker));
        (sim, log)
    }

    /// Hand the broker `batches` full batches at `at` (batch ids follow on from
    /// the `first`-th batch ever fed).
    fn feed(sim: &mut Simulation<Msg>, first: u64, batches: u64, at: Time) {
        let ops = (2 * first..2 * (first + batches))
            .map(|seq| Transaction::write(ClientId(1), seq, seq, 64))
            .collect();
        sim.external_send(FEEDER, BROKER, AvaMsg::BrokerSubmit { ops }, at);
    }

    fn sent_to(log: &Log, target: u32) -> Vec<u64> {
        let log = log.lock().unwrap();
        log.iter().filter(|(to, _)| *to == ReplicaId(target)).map(|(_, batch)| *batch).collect()
    }

    /// Four batches come due on one tick. Which replica each is re-submitted to
    /// was decided by `HashMap` iteration order — a fresh `RandomState` per
    /// broker, so it differed between two brokers built in one process, let
    /// alone two processes.
    #[test]
    fn batches_due_on_one_tick_are_resubmitted_in_batch_id_order() {
        let runs: Vec<Vec<(ReplicaId, u64)>> = (0..8)
            .map(|_| {
                let (mut sim, log) = sim_with(&[0, 1, 2, 3, 4, 5, 6]);
                feed(&mut sim, 0, 4, Time::ZERO);
                sim.run_for(Duration::from_millis(2_100));
                let log = log.lock().unwrap().clone();
                log
            })
            .collect();
        assert_eq!(runs[0].len(), 8, "four submissions and four re-submissions: {:?}", runs[0]);
        let resubmitted: Vec<u64> = runs[0][4..].iter().map(|(_, batch)| *batch).collect();
        assert_eq!(resubmitted, vec![0, 1, 2, 3]);
        assert!(runs.iter().all(|run| *run == runs[0]), "send order differs between brokers");
    }

    /// One silent replica among seven under steady load: it holds one batch at
    /// a time, is offered one per retry timeout, every batch is admitted exactly
    /// once by a live replica, and the demotion is visible as an output.
    #[test]
    fn a_silent_replica_pins_one_slot_and_is_probed_once_per_retry_timeout() {
        let (mut sim, log) = sim_with(&[2]);
        for tick in 0..70 {
            feed(&mut sim, 3 * tick, 3, Time::from_millis(100 * tick));
        }
        sim.run_for(Duration::from_secs(9));
        // Its turn in the first rotation, then a probe every 2 s while load lasts.
        let to_silent = sent_to(&log, 2);
        assert_eq!(to_silent.len(), 4, "batches sent to the silent replica: {to_silent:?}");
        for batch in 0..210 {
            let log = log.lock().unwrap();
            let admitted = log.iter().filter(|(to, b)| *to != ReplicaId(2) && *b == batch).count();
            assert_eq!(admitted, 1, "batch {batch} admitted {admitted} times by live replicas");
        }
        let demotions: Vec<f64> = sim
            .outputs()
            .iter()
            .filter_map(|o| match o {
                Output::Custom { name: "broker_target_demoted", value, .. } => Some(*value),
                _ => None,
            })
            .collect();
        assert_eq!(demotions, vec![2.0]);
    }

    /// A reply from a demoted replica — it was slow or restarting, not gone —
    /// re-admits it, and it takes its turn in the rotation again.
    #[test]
    fn a_reply_readmits_a_demoted_replica() {
        let (mut sim, log) = sim_with(&[2]);
        feed(&mut sim, 0, 7, Time::ZERO);
        sim.run_for(Duration::from_millis(2_100));
        assert_eq!(sent_to(&log, 2), vec![2], "its turn in the first rotation");
        let now = sim.now();
        sim.external_send(
            ReplicaId(2),
            BROKER,
            AvaMsg::BatchReply { batch: 2, reads: vec![] },
            now,
        );
        feed(&mut sim, 7, 21, now + Duration::from_millis(10));
        sim.run_for(Duration::from_millis(500));
        assert!(sim.outputs().iter().any(|o| matches!(
            o,
            Output::Custom { name: "broker_target_readmitted", value, .. } if *value == 2.0
        )));
        // One batch in seven of the next twenty-one (and, silent as it is in
        // this test, it keeps the first of them).
        assert_eq!(sent_to(&log, 2).len(), 2);
    }
}

//! Probes: the benchmark timing each layer's public functions directly, on
//! inputs regenerated from the workload's seed and sizes. One span per probe
//! goes into the trace. A probe is a *rate* for one layer taken in isolation
//! (warm caches, no other layer's data in the way); the ledger multiplies it
//! by how often the run used the layer.

use crate::metrics::Values;
use crate::run::RunData;
use crate::trace::Trace;
use crate::workloads::{Plan, KV_KEYS};
use ava_consensus::testkit::LocalNet;
use ava_consensus::{Block, TobConfig, TotalOrderBroadcast};
use ava_crypto::{sha256, Digest, KeyRegistry, QuorumCert, SigSet};
use ava_hamava::brd::{Brd, BrdAction, BrdMsg};
use ava_scenario::RunObserver;
use ava_simnet::{Actor, Context, CostModel, Simulation};
use ava_state::{CounterMachine, KvMachine, StateMachine};
use ava_store::{Checkpoint, ReplicaStore, StoreConfig, StoredEntry};
use ava_types::{
    ClientId, ClusterId, Duration, Encode, Operation, Reconfig, Region, ReplicaId, Round, Time,
    Timestamp, Transaction,
};
use ava_workload::{AggregateStream, ClientWorkload};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// Host time one probe may spend measuring.
const BUDGET_S: f64 = 0.04;

/// Time `batch` (which performs `per_batch` operations per call) and return
/// nanoseconds per operation, recording the whole probe as one span. A timed
/// unit is enough calls to last some tens of microseconds; units repeat for
/// about [`BUDGET_S`] and the fastest one is reported — neighbours on the host
/// only ever add time.
fn probe(trace: &mut Trace, name: &'static str, per_batch: u64, mut batch: impl FnMut()) -> f64 {
    let start = Instant::now();
    batch(); // warm caches and lazy set-up; also sizes the timed unit
    let calls = (20e-6 / start.elapsed().as_secs_f64().max(1e-9)).ceil().clamp(1.0, 4096.0) as u64;
    let mut fastest = f64::INFINITY;
    let mut units = 0;
    while units < 3 || start.elapsed().as_secs_f64() < BUDGET_S {
        let unit = Instant::now();
        for _ in 0..calls {
            batch();
        }
        fastest = fastest.min(unit.elapsed().as_secs_f64());
        units += 1;
    }
    trace.span(&format!("probe.{name}"), start, Instant::now());
    fastest * 1e9 / (calls * per_batch) as f64
}

/// A node that forwards every message it gets to its successor: the simulator
/// does its full per-event work (queue pop, node lookup, latency draw, queue
/// push, `NetStats`) and the handler does nothing.
struct Forwarder {
    next: ReplicaId,
    tokens: usize,
}

impl Actor<()> for Forwarder {
    fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
        for _ in 0..self.tokens {
            ctx.send(self.next, ());
        }
    }

    fn on_message(&mut self, _from: ReplicaId, _msg: (), ctx: &mut Context<'_, ()>) {
        ctx.send(self.next, ());
    }
}

fn noop_event_ns(trace: &mut Trace, plan: &Plan) -> f64 {
    let nodes: Vec<(ReplicaId, Region, u32)> = plan
        .config
        .clusters
        .iter()
        .flat_map(|c| c.replicas.iter().map(move |(id, region)| (*id, *region, c.id.0)))
        .collect();
    let mut sim: Simulation<()> =
        Simulation::new(plan.opts.seed, plan.opts.latency.clone(), CostModel::zero());
    for (i, (id, region, group)) in nodes.iter().enumerate() {
        let next = nodes[(i + 1) % nodes.len()].0;
        sim.add_node(*id, *region, *group, Box::new(Forwarder { next, tokens: 16 }));
    }
    const EVENTS: u64 = 20_000;
    probe(trace, "simnet.noop_event_ns", EVENTS, || {
        for _ in 0..EVENTS {
            sim.step();
        }
    })
}

fn write_tx(seq: u64, key: u64, size: u32) -> Transaction {
    Transaction::write(ClientId(0), seq, key, size)
}

fn crypto(trace: &mut Trace, plan: &Plan, out: &mut Values) {
    let data = vec![0xabu8; 4096];
    out.push((
        "crypto.sha256_ns_per_kib",
        probe(trace, "crypto.sha256_ns_per_kib", 4, || {
            black_box(sha256(black_box(&data)));
        }),
    ));
    let registry = KeyRegistry::new();
    let members: Vec<ReplicaId> = largest_cluster(plan);
    let keys: Vec<_> = members.iter().map(|id| registry.register(*id)).collect();
    let digest = Digest::of_bytes(&data);
    let sig = keys[0].sign(&digest);
    out.push((
        "crypto.sign_ns",
        probe(trace, "crypto.sign_ns", 1, || {
            black_box(keys[0].sign(black_box(&digest)));
        }),
    ));
    out.push((
        "crypto.verify_ns",
        probe(trace, "crypto.verify_ns", 1, || {
            black_box(registry.verify(black_box(&digest), &sig));
        }),
    ));
    // A quorum certificate of the workload's largest cluster: cold (first
    // verifier of a fresh certificate pays every HMAC) and memoised (every
    // later verifier of the shared certificate).
    let threshold = members.len() - (members.len() - 1) / 3;
    let sigs: SigSet = keys.iter().take(threshold).map(|k| k.sign(&digest)).collect();
    let fresh = || QuorumCert::new(ClusterId(0), digest, sigs.clone());
    const CERTS: usize = 64;
    let mut certs: Vec<QuorumCert> = Vec::new();
    let cold_ns = probe(trace, "crypto.qc_valid_cold_ns", CERTS as u64, || {
        certs = (0..CERTS).map(|_| fresh()).collect();
        for cert in &certs {
            assert!(cert.is_valid(&registry, &digest, &members, threshold));
        }
    });
    // The cold probe also builds the certificates; take that part out.
    let build_ns = probe(trace, "crypto.qc_build_ns", CERTS as u64, || {
        certs = (0..CERTS).map(|_| fresh()).collect();
    });
    out.push(("crypto.qc_valid_cold_ns", (cold_ns - build_ns).max(0.0)));
    let cert = fresh();
    assert!(cert.is_valid(&registry, &digest, &members, threshold));
    out.push((
        "crypto.qc_valid_memo_ns",
        probe(trace, "crypto.qc_valid_memo_ns", 1, || {
            black_box(cert.is_valid(&registry, black_box(&digest), &members, threshold));
        }),
    ));
    let size = plan.opts.workload.payload_size;
    let tx = write_tx(7, 11, size);
    let mut buf = Vec::with_capacity(256);
    out.push((
        "types.encode_tx_ns",
        probe(trace, "types.encode_tx_ns", 1, || {
            buf.clear();
            black_box(&tx).encode(&mut buf);
            black_box(&buf);
        }),
    ));
    let batch = plan.config.params.batch_size as u64;
    let ops = || (0..batch).map(|i| Operation::Trans(write_tx(i, i % 64, size))).collect();
    out.push((
        "consensus.block_digest_ns",
        probe(trace, "consensus.block_digest_ns", 1, || {
            // `digest()` memoises per block, so hash a fresh block each time.
            black_box(Block::new(ClusterId(0), 7, ReplicaId(1), ops()).digest());
        }),
    ));
}

fn largest_cluster(plan: &Plan) -> Vec<ReplicaId> {
    let n = plan.config.clusters.iter().map(|c| c.replicas.len()).max().unwrap_or(4);
    (0..n as u32).map(ReplicaId).collect()
}

/// One local total-order decision of a full batch among the workload's largest
/// cluster, on the latency-free `testkit::LocalNet`: every replica's share of
/// the work (pool, proposal, votes, signatures, certificate) is in the number.
fn tob_decision_ns<T: TotalOrderBroadcast>(
    trace: &mut Trace,
    name: &'static str,
    plan: &Plan,
    factory: impl Fn(TobConfig, ava_crypto::Keypair, KeyRegistry, ReplicaId) -> T,
) -> f64 {
    let members = largest_cluster(plan);
    let batch = plan.config.params.batch_size;
    let size = plan.opts.workload.payload_size;
    probe(trace, name, 1, || {
        let registry = KeyRegistry::new();
        let nodes: Vec<(ReplicaId, T)> = members
            .iter()
            .map(|&id| {
                let keypair = registry.register(id);
                let mut cfg = TobConfig::new(ClusterId(0), id, members.clone());
                cfg.max_block_size = batch;
                (id, factory(cfg, keypair, registry.clone(), ReplicaId(0)))
            })
            .collect();
        let mut net = LocalNet::new(nodes);
        for i in 0..batch {
            let at = members[i % members.len()];
            net.broadcast(at, Operation::Trans(write_tx(i as u64, i as u64, size)));
        }
        net.tick(Duration::from_millis(1));
        net.run_to_quiescence(5_000_000);
        assert_eq!(net.delivered_ops(ReplicaId(0)).len(), batch);
    })
}

/// One full BRD dissemination round among `n` replicas (the sans-I/O `Brd`
/// state machines driven through a FIFO queue).
fn brd_round(n: u32) -> usize {
    let registry = KeyRegistry::new();
    let members: Vec<ReplicaId> = (0..n).map(ReplicaId).collect();
    let mut nodes: BTreeMap<ReplicaId, Brd> = members
        .iter()
        .map(|&id| {
            let keypair = registry.register(id);
            let brd = Brd::new(
                id,
                members.clone(),
                keypair,
                registry.clone(),
                ReplicaId(0),
                Timestamp(0),
                Round(1),
                Duration::from_secs(5),
            );
            (id, brd)
        })
        .collect();
    let mut queue: VecDeque<(ReplicaId, ReplicaId, BrdMsg)> = VecDeque::new();
    let mut delivered = 0usize;
    for (&id, node) in nodes.iter_mut() {
        let recs = vec![Reconfig::Join { replica: ReplicaId(100 + id.0), region: Region::Europe }];
        for action in node.broadcast(recs, Time::ZERO) {
            if let BrdAction::Send { to, msg } = action {
                queue.push_back((id, to, msg));
            }
        }
    }
    while let Some((from, to, msg)) = queue.pop_front() {
        for action in nodes.get_mut(&to).expect("member").on_message(from, msg, Time::ZERO) {
            match action {
                BrdAction::Send { to: next, msg } => queue.push_back((to, next, msg)),
                BrdAction::Deliver { .. } => delivered += 1,
                _ => {}
            }
        }
    }
    delivered
}

/// A store entry of a given size: the store's own work (ordered insert, byte
/// accounting, truncation) does not depend on what the protocol logs in it.
#[derive(Clone)]
struct Entry {
    round: Round,
    bytes: usize,
}

impl StoredEntry for Entry {
    fn round(&self) -> Round {
        self.round
    }

    fn wire_size(&self) -> usize {
        self.bytes
    }
}

fn state_and_store(trace: &mut Trace, plan: &Plan, out: &mut Values) {
    // The machine the workload's replicas hold at the end of warm-up: every
    // key written once at the workload's value size.
    let size = plan.opts.workload.payload_size;
    let keys = plan.opts.workload.key_space.min(KV_KEYS);
    let mut kv = KvMachine::default();
    for key in 0..keys {
        kv.apply(Round(1), &write_tx(key, key, size));
    }
    let mut seq = 0u64;
    out.push((
        "state.apply_write_ns",
        probe(trace, "state.apply_write_ns", 256, || {
            for _ in 0..256 {
                // Overwrites, spread over the key space.
                seq += 1;
                black_box(kv.apply(Round(2), &write_tx(seq, seq.wrapping_mul(7919) % keys, size)));
            }
        }),
    ));
    let mut counter = CounterMachine::default();
    out.push((
        "state.apply_counter_ns",
        probe(trace, "state.apply_counter_ns", 256, || {
            for _ in 0..256 {
                seq += 1;
                black_box(
                    counter.apply(Round(2), &write_tx(seq, seq.wrapping_mul(7919) % keys, size)),
                );
            }
        }),
    ));
    out.push((
        "state.read_len_ns",
        probe(trace, "state.read_len_ns", 256, || {
            for _ in 0..256 {
                seq += 1;
                black_box(kv.read_len(seq.wrapping_mul(7919) % keys));
            }
        }),
    ));
    out.push((
        "state.scan_ns_per_key",
        probe(trace, "state.scan_ns_per_key", 16 * 100, || {
            for _ in 0..16 {
                seq += 1;
                black_box(kv.scan_bytes(seq.wrapping_mul(7919) % (keys - 100), 100));
            }
        }),
    ));
    out.push((
        "state.digest_ns",
        probe(trace, "state.digest_ns", 256, || {
            for _ in 0..256 {
                black_box(black_box(&kv).digest());
            }
        }),
    ));
    let mib = (kv.value_bytes() as f64 / (1024.0 * 1024.0)).max(1e-9);
    let snapshot_ns = probe(trace, "state.snapshot_ns_per_mib", 1, || {
        black_box(kv.snapshot());
    });
    out.push(("state.snapshot_ns_per_mib", snapshot_ns / mib));

    // The round record the store appends is sized by the round's batch.
    let record_bytes = plan.config.params.batch_size * (size as usize + 64);
    let mut store: ReplicaStore<Entry> = ReplicaStore::new(StoreConfig::every(8));
    let mut round = 0u64;
    out.push((
        "store.append_round_ns",
        probe(trace, "store.append_round_ns", 64, || {
            for _ in 0..64 {
                round += 1;
                black_box(store.append_round(Entry { round: Round(round), bytes: record_bytes }));
            }
        }),
    ));
    // Checkpoints at the workload's snapshot size: the machine its replicas run.
    let membership = plan.config.membership();
    let machine: &dyn StateMachine =
        if plan.opts.state_machine == ava_state::StateMachineKind::Kv { &kv } else { &counter };
    out.push((
        "store.checkpoint_build_ns",
        probe(trace, "store.checkpoint_build_ns", 1, || {
            black_box(Checkpoint::new(Round(8), machine.snapshot(), membership.clone(), 0, 8));
        }),
    ));
    let checkpoint = Checkpoint::new(Round(8), machine.snapshot(), membership.clone(), 0, 8);
    out.push((
        "store.checkpoint_verify_ns",
        probe(trace, "store.checkpoint_verify_ns", 1, || {
            assert!(black_box(&checkpoint).verify());
        }),
    ));
}

fn workload_gen_ns(trace: &mut Trace, plan: &Plan) -> f64 {
    match &plan.tier {
        Some(tier) => {
            let mut load = tier.load.clone();
            load.issue_for = Duration::from_secs(1_000_000);
            let per_ms = (load.offered_tps / 1000).max(1);
            let mut stream =
                AggregateStream::new(load, ava_workload::virtual_client_base(0), plan.opts.seed);
            let mut now = Time::ZERO;
            probe(trace, "workload.gen_ns_per_tx", 64 * per_ms, || {
                now += Duration::from_millis(64);
                black_box(stream.drain_until(now));
            })
        }
        None => {
            let mut generator = ClientWorkload::new(plan.opts.workload.clone(), ClientId(0));
            let mut rng = StdRng::seed_from_u64(plan.opts.seed);
            probe(trace, "workload.gen_ns_per_tx", 256, || {
                for _ in 0..256 {
                    black_box(generator.next_tx(&mut rng));
                }
            })
        }
    }
}

/// What the runner pays per buffered output to offer it to an observer that
/// ignores it (the benchmark's own observer during a measured pass).
fn observe_ns_per_output(trace: &mut Trace, data: &RunData) -> f64 {
    struct Ignore;
    impl RunObserver for Ignore {}
    let mut ignore = Ignore;
    let observer: &mut dyn RunObserver = &mut ignore;
    let sample = &data.outputs[..data.outputs.len().min(100_000)];
    probe(trace, "scenario.observe_ns_per_output", sample.len().max(1) as u64, || {
        for output in sample {
            black_box(&mut *observer).on_output(black_box(output));
        }
    })
}

/// Run every probe at `data`'s workload sizes.
pub fn run_all(trace: &mut Trace, data: &RunData) -> Values {
    let plan = &data.plan;
    let mut out = Values::new();
    out.push(("simnet.noop_event_ns", noop_event_ns(trace, plan)));
    crypto(trace, plan, &mut out);
    out.push((
        "hotstuff.decision_ns",
        tob_decision_ns(trace, "hotstuff.decision_ns", plan, ava_hotstuff::HotStuff::new),
    ));
    out.push((
        "bftsmart.decision_ns",
        tob_decision_ns(trace, "bftsmart.decision_ns", plan, ava_bftsmart::BftSmart::new),
    ));
    let brd_members = largest_cluster(plan).len() as u32;
    out.push((
        "hamava.brd_round_ns",
        probe(trace, "hamava.brd_round_ns", 1, || {
            assert_eq!(black_box(brd_round(brd_members)), brd_members as usize);
        }),
    ));
    state_and_store(trace, plan, &mut out);
    out.push(("workload.gen_ns_per_tx", workload_gen_ns(trace, plan)));
    out.push(("scenario.observe_ns_per_output", observe_ns_per_output(trace, data)));
    out
}

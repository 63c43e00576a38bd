//! Criterion micro-benchmarks of the hot protocol paths the figures depend on:
//! hashing, signing/verification, Zipfian sampling, block digesting, one HotStuff
//! decision, one BFT-SMaRt decision, one BRD dissemination round, and the KV
//! state path (overwrite apply per value size, snapshot, checkpoint build and
//! verify over a 2 MB state).

use ava_consensus::testkit::LocalNet;
use ava_consensus::{TobConfig, TotalOrderBroadcast};
use ava_crypto::{hmac_sha256, sha256, Digest, KeyRegistry};
use ava_hamava::brd::{Brd, BrdAction, BrdMsg};
use ava_state::{KvMachine, StateMachine};
use ava_store::Checkpoint;
use ava_types::{
    ClientId, ClusterId, Duration, Membership, Operation, Reconfig, Region, ReplicaId, ReplicaInfo,
    Round, Time, Timestamp, Transaction,
};
use ava_workload::Zipfian;
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;

fn bench_crypto(c: &mut Criterion) {
    let data = vec![0xabu8; 1024];
    c.bench_function("sha256_1kb", |b| b.iter(|| black_box(sha256(black_box(&data)))));
    c.bench_function("hmac_sha256_1kb", |b| {
        b.iter(|| black_box(hmac_sha256(b"key", black_box(&data))))
    });
    let registry = KeyRegistry::new();
    let kp = registry.register(ReplicaId(0));
    let digest = Digest::of_bytes(&data);
    let sig = kp.sign(&digest);
    c.bench_function("sign", |b| b.iter(|| black_box(kp.sign(black_box(&digest)))));
    c.bench_function("verify", |b| b.iter(|| black_box(registry.verify(&digest, &sig))));
}

fn bench_workload(c: &mut Criterion) {
    let zipf = Zipfian::new(100_000, 0.9);
    let mut rng = StdRng::seed_from_u64(1);
    c.bench_function("zipfian_sample", |b| b.iter(|| black_box(zipf.sample(&mut rng))));
}

fn bench_block_digest(c: &mut Criterion) {
    let ops = || {
        (0..100)
            .map(|i| Operation::Trans(Transaction::write(ClientId(0), i, i % 64, 1024)))
            .collect()
    };
    let block = ava_consensus::Block::new(ClusterId(0), 7, ReplicaId(1), ops());
    // `digest()` memoises, so benchmark the cached path and the fresh path apart.
    c.bench_function("block_digest_100tx_cached", |b| b.iter(|| black_box(block.digest())));
    c.bench_function("block_digest_100tx_fresh", |b| {
        b.iter(|| {
            let block = ava_consensus::Block::new(ClusterId(0), 7, ReplicaId(1), ops());
            black_box(block.digest())
        })
    });
}

fn tob_decision<T, F>(n: u32, ops: usize, factory: F)
where
    T: TotalOrderBroadcast,
    F: Fn(TobConfig, ava_crypto::Keypair, KeyRegistry, ReplicaId) -> T,
{
    let registry = KeyRegistry::new();
    let members: Vec<ReplicaId> = (0..n).map(ReplicaId).collect();
    let nodes: Vec<(ReplicaId, T)> = members
        .iter()
        .map(|&id| {
            let kp = registry.register(id);
            let cfg = TobConfig::new(ClusterId(0), id, members.clone());
            (id, factory(cfg, kp, registry.clone(), ReplicaId(0)))
        })
        .collect();
    let mut net = LocalNet::new(nodes);
    for i in 0..ops {
        net.broadcast(
            ReplicaId(i as u32 % n),
            Operation::Trans(Transaction::write(ClientId(0), i as u64, i as u64, 512)),
        );
    }
    net.tick(Duration::from_millis(1));
    net.run_to_quiescence(5_000_000);
    assert_eq!(net.delivered_ops(ReplicaId(0)).len(), ops);
}

fn bench_consensus(c: &mut Criterion) {
    let mut group = c.benchmark_group("local_consensus_decision");
    group.sample_size(10);
    group.bench_function("hotstuff_4nodes_20ops", |b| {
        b.iter(|| {
            tob_decision(4, 20, |cfg, kp, reg, leader| {
                ava_hotstuff::HotStuff::new(cfg, kp, reg, leader)
            })
        })
    });
    group.bench_function("bftsmart_4nodes_20ops", |b| {
        b.iter(|| {
            tob_decision(4, 20, |cfg, kp, reg, leader| {
                ava_bftsmart::BftSmart::new(cfg, kp, reg, leader)
            })
        })
    });
    group.finish();
}

/// Run one full BRD dissemination round among `n` replicas and return the number of
/// replicas that delivered.
fn brd_round(n: u32) -> usize {
    let registry = KeyRegistry::new();
    let members: Vec<ReplicaId> = (0..n).map(ReplicaId).collect();
    let mut nodes: BTreeMap<ReplicaId, Brd> = members
        .iter()
        .map(|&id| {
            let kp = registry.register(id);
            (
                id,
                Brd::new(
                    id,
                    members.clone(),
                    kp,
                    registry.clone(),
                    ReplicaId(0),
                    Timestamp(0),
                    Round(1),
                    Duration::from_secs(5),
                ),
            )
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
        for action in nodes.get_mut(&to).unwrap().on_message(from, msg, Time::ZERO) {
            match action {
                BrdAction::Send { to: t, msg: m } => queue.push_back((to, t, m)),
                BrdAction::Deliver { .. } => delivered += 1,
                _ => {}
            }
        }
    }
    delivered
}

fn bench_brd(c: &mut Criterion) {
    let mut group = c.benchmark_group("brd_dissemination");
    group.sample_size(10);
    group.bench_function("brd_round_7replicas", |b| {
        b.iter(|| {
            let delivered = brd_round(7);
            assert_eq!(delivered, 7);
            black_box(delivered)
        })
    });
    group.finish();
}

/// A KV machine holding `keys` values of `size` bytes each.
fn populated_kv(keys: u64, size: u32) -> KvMachine {
    let mut kv = KvMachine::default();
    for key in 0..keys {
        kv.apply(Round(1), &Transaction::write(ClientId(1), key, key, size));
    }
    kv
}

fn bench_kv_state(c: &mut Criterion) {
    // One overwrite of a committed key: one SHA-256 pass over the new value
    // (the old entry's cached leaf is XORed out, not recomputed).
    let mut group = c.benchmark_group("kv_apply_overwrite");
    for size in [128u32, 1024, 4096] {
        let mut kv = populated_kv(2000, size);
        let mut seq = 0u64;
        group.bench_function(size.to_string(), |b| {
            b.iter(|| {
                seq += 1;
                let tx = Transaction::write(ClientId(1), seq, seq.wrapping_mul(7919) % 2000, size);
                black_box(kv.apply(Round(2), &tx))
            })
        });
    }
    group.finish();

    // The benchmark's KV shape: 2000 keys x 1 KiB (2 MB of value bytes).
    let kv = populated_kv(2000, 1024);
    let mut membership = Membership::new();
    for i in 0..4 {
        membership.add(ClusterId(0), ReplicaInfo { id: ReplicaId(i), region: Region::UsWest });
    }
    c.bench_function("kv_snapshot_2mb", |b| b.iter(|| black_box(kv.snapshot())));
    c.bench_function("checkpoint_build_kv_2mb", |b| {
        b.iter(|| black_box(Checkpoint::new(Round(8), kv.snapshot(), membership.clone(), 0, 8)))
    });
    // Verification re-reads every value byte by design (leaves are never
    // trusted from outside), so it stays at the cost of hashing 2 MB.
    let checkpoint = Checkpoint::new(Round(8), kv.snapshot(), membership, 0, 8);
    c.bench_function("checkpoint_verify_kv_2mb", |b| {
        b.iter(|| assert!(black_box(&checkpoint).verify()))
    });
}

criterion_group!(
    benches,
    bench_crypto,
    bench_workload,
    bench_block_digest,
    bench_consensus,
    bench_brd,
    bench_kv_state
);
criterion_main!(benches);

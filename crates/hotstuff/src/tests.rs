//! Unit and property tests for the HotStuff total-order broadcast.

use super::*;
use ava_consensus::testkit::{
    check_forward_before_leadership_is_kept, check_watchdog_follows_pace,
    sweep_regency_change_cuts, LocalNet,
};
use ava_types::{ClientId, ClusterId, Duration, Transaction};
use proptest::prelude::*;

fn make_net(n: u32) -> LocalNet<HotStuff> {
    let registry = KeyRegistry::new();
    let members: Vec<ReplicaId> = (0..n).map(ReplicaId).collect();
    let leader = ReplicaId(0);
    let nodes = members.iter().map(|&id| {
        let kp = registry.register(id);
        let mut cfg = TobConfig::new(ClusterId(0), id, members.clone());
        cfg.max_block_size = 10;
        cfg.timeout = Duration::from_secs(5);
        (id, HotStuff::new(cfg, kp, registry.clone(), leader))
    });
    LocalNet::new(nodes.collect::<Vec<_>>())
}

fn tx(seq: u64) -> Operation {
    Operation::Trans(Transaction::write(ClientId(1), seq, seq % 16, 512))
}

#[test]
fn all_replicas_deliver_the_same_block() {
    let mut net = make_net(4);
    for i in 0..5 {
        net.broadcast(ReplicaId(i % 4), tx(i as u64));
    }
    net.run_to_quiescence(100_000);
    let reference = net.delivered_ops(ReplicaId(0));
    assert_eq!(reference.len(), 5);
    for i in 1..4 {
        assert_eq!(net.delivered_ops(ReplicaId(i)), reference, "replica {i} diverged");
    }
}

#[test]
fn delivered_blocks_carry_valid_quorum_certificates() {
    let registry = KeyRegistry::new();
    let members: Vec<ReplicaId> = (0..4).map(ReplicaId).collect();
    let nodes: Vec<(ReplicaId, HotStuff)> = members
        .iter()
        .map(|&id| {
            let kp = registry.register(id);
            let cfg = TobConfig::new(ClusterId(0), id, members.clone());
            (id, HotStuff::new(cfg, kp, registry.clone(), ReplicaId(0)))
        })
        .collect();
    let mut net = LocalNet::new(nodes);
    net.broadcast(ReplicaId(1), tx(0));
    net.tick(Duration::from_millis(10));
    net.run_to_quiescence(100_000);
    let blocks = net.delivered_at(ReplicaId(2));
    assert_eq!(blocks.len(), 1);
    assert!(blocks[0].verify(&registry, &members, 3));
}

#[test]
fn respects_batch_size_limit() {
    let mut net = make_net(4);
    for i in 0..25 {
        net.broadcast(ReplicaId(0), tx(i));
    }
    net.tick(Duration::from_millis(1));
    net.run_to_quiescence(200_000);
    let blocks = net.delivered_at(ReplicaId(0));
    assert!(blocks.len() >= 3, "expected multiple blocks, got {}", blocks.len());
    assert!(blocks.iter().all(|b| b.block.ops.len() <= 10));
    assert_eq!(net.delivered_ops(ReplicaId(3)).len(), 25);
}

#[test]
fn heights_are_consecutive_and_ordered() {
    let mut net = make_net(7);
    for i in 0..30 {
        net.broadcast(ReplicaId(i % 7), tx(i as u64));
        if i % 10 == 9 {
            net.run_to_quiescence(200_000);
        }
    }
    net.run_to_quiescence(200_000);
    for r in 0..7 {
        let blocks = net.delivered_at(ReplicaId(r));
        for (i, b) in blocks.iter().enumerate() {
            assert_eq!(b.block.height, i as u64);
        }
    }
}

#[test]
fn silent_leader_triggers_complaints_and_new_leader_recovers() {
    let mut net = make_net(4);
    net.nodes.get_mut(&ReplicaId(0)).unwrap().set_fault_mode(FaultMode::SilentLeader);
    for i in 0..4 {
        net.broadcast(ReplicaId(i), tx(i as u64));
    }
    net.run_to_quiescence(100_000);
    assert!(net.delivered_ops(ReplicaId(1)).is_empty());
    // Past the timeout every replica that is still waiting complains.
    net.tick(Duration::from_secs(6));
    net.run_to_quiescence(100_000);
    let complainers = net.complaints.values().filter(|c| !c.is_empty()).count();
    assert!(complainers >= 3, "expected non-leader replicas to complain, got {complainers}");
    // Installing the next leader recovers liveness without losing operations.
    net.install_leader(ReplicaId(1), Timestamp(1));
    net.run_to_quiescence(100_000);
    net.tick(Duration::from_millis(10));
    net.run_to_quiescence(100_000);
    let ops = net.delivered_ops(ReplicaId(2));
    assert_eq!(ops.len(), 4, "all operations should be delivered after leader change");
}

#[test]
fn crashed_follower_does_not_block_progress() {
    let mut net = make_net(4);
    net.down.insert(ReplicaId(3));
    for i in 0..6 {
        net.broadcast(ReplicaId(i % 3), tx(i as u64));
    }
    net.run_to_quiescence(100_000);
    assert_eq!(net.delivered_ops(ReplicaId(0)).len(), 6);
    assert_eq!(net.delivered_ops(ReplicaId(1)).len(), 6);
    assert!(net.delivered_ops(ReplicaId(3)).is_empty());
}

#[test]
fn duplicate_forwards_are_not_delivered_twice() {
    let mut net = make_net(4);
    net.broadcast(ReplicaId(1), tx(7));
    net.broadcast(ReplicaId(2), tx(7));
    net.run_to_quiescence(100_000);
    assert_eq!(net.delivered_ops(ReplicaId(0)), vec![tx(7)]);
}

/// The parent forked here too: `new_leader` dropped the in-flight block even
/// when the old leader had already delivered it. One change at every cut, then
/// two in a row — back to back, and with the second landing in the middle of the
/// first one's hand-over — to a third leader and back to the first.
#[test]
fn a_leader_change_at_any_cut_neither_forks_nor_loses_an_operation() {
    let ops: Vec<Operation> = (0..25).map(tx).collect();
    for n in [4, 7] {
        let cuts = sweep_regency_change_cuts(|| make_net(n), &ops, &[ReplicaId(1)], 0);
        assert!(cuts > 100, "the sweep covered only {cuts} cuts");
    }
    for leaders in [[ReplicaId(1), ReplicaId(2)], [ReplicaId(1), ReplicaId(0)]] {
        for gap in [0, 3, 8, 20] {
            sweep_regency_change_cuts(|| make_net(4), &ops, &leaders, gap);
        }
        sweep_regency_change_cuts(|| make_net(7), &ops, &leaders, 0);
        sweep_regency_change_cuts(|| make_net(7), &ops, &leaders, 30);
    }
}

#[test]
fn the_watchdog_follows_the_clusters_pace() {
    check_watchdog_follows_pace(make_net(4));
}

/// Finding 11: the parent dropped a `Forward` at a replica that did not lead
/// (yet), and the operation waited in its originator's pool for good.
#[test]
fn a_forward_that_arrives_before_new_leader_is_proposed_after_it() {
    check_forward_before_leadership_is_kept(make_net(4));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Agreement and total order hold for arbitrary small workloads and cluster
    /// sizes: all correct replicas deliver exactly the same sequence of operations.
    #[test]
    fn prop_uniform_agreement(n in 4u32..8, ops in 1usize..30, submitter_seed in 0u32..1000) {
        let mut net = make_net(n);
        for i in 0..ops {
            let submitter = ReplicaId((submitter_seed.wrapping_add(i as u32)) % n);
            net.broadcast(submitter, tx(i as u64));
        }
        net.tick(Duration::from_millis(1));
        net.run_to_quiescence(2_000_000);
        let reference = net.delivered_ops(ReplicaId(0));
        prop_assert_eq!(reference.len(), ops);
        for r in 1..n {
            prop_assert_eq!(net.delivered_ops(ReplicaId(r)), reference.clone());
        }
    }

    /// Every delivered block carries a certificate valid for the cluster quorum.
    #[test]
    fn prop_certificates_always_valid(n in 4u32..8, ops in 1usize..15) {
        let registry = KeyRegistry::new();
        let members: Vec<ReplicaId> = (0..n).map(ReplicaId).collect();
        let nodes: Vec<(ReplicaId, HotStuff)> = members.iter().map(|&id| {
            let kp = registry.register(id);
            let cfg = TobConfig::new(ClusterId(0), id, members.clone());
            (id, HotStuff::new(cfg, kp, registry.clone(), ReplicaId(0)))
        }).collect();
        let quorum = 2 * ((n as usize - 1) / 3) + 1;
        let mut net = LocalNet::new(nodes);
        for i in 0..ops {
            net.broadcast(ReplicaId(i as u32 % n), tx(i as u64));
        }
        net.tick(Duration::from_millis(1));
        net.run_to_quiescence(2_000_000);
        for &r in &members {
            for block in net.delivered_at(r) {
                prop_assert!(block.verify(&registry, &members, quorum));
            }
        }
    }
}

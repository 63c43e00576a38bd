//! The replicas of a deployment execute each round once per process.
//!
//! Every correct replica applies every round's certified blocks from the same
//! state, and all of a deployment's replicas run on one thread, so the first
//! replica to execute a round computes it and the others adopt its result
//! (`ava_hamava::round_memo`). Every golden would still pass if that sharing
//! silently stopped — a machine whose `Default` allocated an empty state of
//! its own would do it — so this pins it: in a fault-free run each executed
//! round misses once and hits once for every other replica that executed it,
//! and the KV machine hashes one leaf per write the process executes, or
//! skips it as superseded by a later write of its round to the same key.

use hamava_repro::hamava::{executed_round_stats, StateMachineKind};
use hamava_repro::scenario::{Protocol, Scenario};
use hamava_repro::state::leaf_hash_stats;
use hamava_repro::store::{checkpoint_digest_stats, StoreConfig};
use hamava_repro::types::{Duration, Output, Region, SystemConfig};
use std::collections::{BTreeMap, BTreeSet};

/// Runs `config` fault-free and checks the memo's counters against the
/// `RoundExecuted` outputs; returns the rounds every replica executed.
/// Checks too that the run hashes one KV leaf per write it executes, or skips
/// it as superseded, counting each round's writes once however many replicas
/// executed it.
fn rounds_shared(config: SystemConfig, machine: StateMachineKind, run: Duration) -> u64 {
    let n = config.clusters.iter().map(|c| c.replicas.len() as u64).sum::<u64>();
    let (before, leaves_before) = (executed_round_stats(), leaf_hash_stats());
    let run = Scenario::builder(Protocol::AvaHotStuff, config)
        .seed(7)
        .state_machine(machine)
        .run_for(run)
        .build()
        .run();
    let (after, leaves_after) = (executed_round_stats(), leaf_hash_stats());
    let leaves = leaves_after.leaves - leaves_before.leaves
        + (leaves_after.superseded - leaves_before.superseded);

    let mut executions: BTreeMap<u64, u64> = BTreeMap::new();
    let mut writes: BTreeMap<u64, usize> = BTreeMap::new();
    for output in &run.outputs {
        if let Output::RoundExecuted { round, txns, .. } = output {
            *executions.entry(round.0).or_default() += 1;
            assert_eq!(*writes.entry(round.0).or_insert(*txns), *txns, "round {round:?}");
        }
    }
    let writes = writes.values().sum::<usize>() as u64;
    let leaves_per_write = if machine == StateMachineKind::Kv { 1 } else { 0 };
    assert!(writes > 0, "{machine:?}: the run executed no write");
    assert_eq!(
        leaves,
        leaves_per_write * writes,
        "{machine:?}: leaves hashed or superseded for {writes} writes"
    );
    let rounds = executions.len() as u64;
    let complete = executions.values().filter(|&&c| c == n).count() as u64;
    // Only the last round or two may still be in flight at the end.
    assert!(complete + 2 >= rounds, "{machine:?}: {complete} of {rounds} rounds complete");
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    assert_eq!(misses, rounds, "{machine:?}: each round is executed once");
    assert_eq!(hits, executions.values().map(|c| c - 1).sum::<u64>(), "{machine:?}");
    assert!(hits >= (n - 1) * complete, "{machine:?}: (n - 1) hits per complete round");
    assert!(after.retained <= 4, "the memo is bounded");
    complete
}

#[test]
fn a_counter_deployment_executes_each_round_once() {
    let regions = [Region::UsWest, Region::Europe, Region::AsiaSouth];
    let config = SystemConfig::even_split_multi_region(12, 3, &regions);
    let complete = rounds_shared(config, StateMachineKind::Counter, Duration::from_secs(5));
    assert!(complete >= 5, "only {complete} rounds ran");
}

#[test]
fn a_kv_deployment_executes_each_round_once() {
    let config = SystemConfig::even_split_single_region(8, 2, Region::UsWest);
    let complete = rounds_shared(config, StateMachineKind::Kv, Duration::from_secs(2));
    assert!(complete >= 20, "only {complete} rounds ran");
}

/// A snapshot is the machine's own version, so the replicas that execute
/// each round once also checkpoint one shared image, not a copy each.
/// `Checkpoint::new` takes a digest from its memo only for the very
/// `StateVersion` it was built from, so in a fault-free run one hash per
/// distinct checkpoint digest, and a memo hit for every other replica, means
/// all replicas that checkpoint a round hold the same version. A `snapshot()`
/// that copied the state again, or a store that kept a private copy, hashes
/// every checkpoint and fails here.
#[test]
fn every_replica_checkpoints_the_same_state_version() {
    let config = SystemConfig::even_split_single_region(8, 2, Region::UsWest);
    let before = checkpoint_digest_stats();
    let run = Scenario::builder(Protocol::AvaHotStuff, config)
        .seed(7)
        .state_machine(StateMachineKind::Kv)
        .store(StoreConfig::every(8))
        .run_for(Duration::from_secs(2))
        .build()
        .run();
    let after = checkpoint_digest_stats();

    // Per round: the checkpoints taken, and their digests. A round's two
    // clusters may differ in `next_height`, which the digest commits to.
    let mut rounds: BTreeMap<u64, (u64, BTreeSet<[u8; 32]>)> = BTreeMap::new();
    for output in &run.outputs {
        if let Output::CheckpointInstalled { round, digest, adopted: false, .. } = output {
            let (taken, digests) = rounds.entry(round.0).or_default();
            *taken += 1;
            digests.insert(**digest);
        }
    }
    let complete = rounds.values().filter(|(taken, _)| *taken == 8).count() as u64;
    assert!(complete >= 5, "only {complete} checkpoint rounds at all 8 replicas");
    let taken: u64 = rounds.values().map(|(taken, _)| taken).sum();
    let digests: u64 = rounds.values().map(|(_, digests)| digests.len() as u64).sum();
    let (reused, built) = (after.reused - before.reused, after.built - before.built);
    assert_eq!(reused + built, taken, "one digest per checkpoint taken");
    assert_eq!(built, digests, "one state version hashed per distinct checkpoint");
}

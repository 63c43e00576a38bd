//! The replicas of a deployment execute each round once per process.
//!
//! Every correct replica applies every round's certified blocks from the same
//! state, and all of a deployment's replicas run on one thread, so the first
//! replica to execute a round computes it and the others adopt its result
//! (`ava_hamava::round_memo`). Every golden would still pass if that sharing
//! silently stopped — a machine whose `Default` allocated an empty state of
//! its own would do it — so this pins it: in a fault-free run each executed
//! round misses once and hits once for every other replica that executed it.

use hamava_repro::hamava::{executed_round_stats, StateMachineKind};
use hamava_repro::scenario::{Protocol, Scenario};
use hamava_repro::types::{Duration, Output, Region, SystemConfig};
use std::collections::BTreeMap;

/// Runs `config` fault-free and checks the memo's counters against the
/// `RoundExecuted` outputs; returns the rounds every replica executed.
fn rounds_shared(config: SystemConfig, machine: StateMachineKind, run: Duration) -> u64 {
    let n = config.clusters.iter().map(|c| c.replicas.len() as u64).sum::<u64>();
    let before = executed_round_stats();
    let run = Scenario::builder(Protocol::AvaHotStuff, config)
        .seed(7)
        .state_machine(machine)
        .run_for(run)
        .build()
        .run();
    let after = executed_round_stats();

    let mut executions: BTreeMap<u64, u64> = BTreeMap::new();
    for output in &run.outputs {
        if let Output::RoundExecuted { round, .. } = output {
            *executions.entry(round.0).or_default() += 1;
        }
    }
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

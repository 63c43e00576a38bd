//! Helpers shared by the integration tests.

use hamava_repro::scenario::ScenarioRun;
use hamava_repro::types::{ClusterId, Duration, Output, Time};
use std::collections::BTreeMap;

/// The longest interval in which `cluster` executed no round, from its first
/// execution to `end` (executions from `end` on do not count).
pub fn longest_execution_gap(run: &ScenarioRun, cluster: ClusterId, end: Time) -> Duration {
    let mut first_execution: BTreeMap<u64, Time> = BTreeMap::new();
    for o in &run.outputs {
        if let Output::RoundExecuted { cluster: c, round, at, .. } = o {
            if *c == cluster {
                let first = first_execution.entry(round.0).or_insert(*at);
                *first = (*first).min(*at);
            }
        }
    }
    let mut times: Vec<Time> = first_execution.into_values().filter(|at| *at < end).collect();
    times.push(end);
    times.sort();
    times.windows(2).map(|w| w[1].since(w[0])).max().expect("the cluster executed rounds")
}

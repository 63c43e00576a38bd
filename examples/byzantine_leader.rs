//! Byzantine leader and remote leader change (the paper's experiment E4.3): the
//! leader of cluster 0 behaves correctly inside its cluster but withholds all
//! inter-cluster messages, so cluster 1 cannot finish its rounds. Cluster 1's
//! replicas complain, forward the complaint to cluster 0, and cluster 0 elects a new
//! leader; throughput recovers. The fault is one scheduled event; a throughput
//! observer shows the dip and the recovery.
//!
//! Run with: `cargo run --release --example byzantine_leader`

use hamava_repro::scenario::{ByzantineBehavior, Protocol, Scenario, ThroughputObserver};
use hamava_repro::types::{ClusterId, Duration, Output, Region, SystemConfig, Time};

fn main() {
    let mut config = SystemConfig::homogeneous_regions(&[(7, Region::UsWest), (7, Region::Europe)]);
    config.params.batch_size = 40;
    // Shorter timeout than the paper's 20 s so the example finishes quickly.
    config.params.remote_leader_timeout = Duration::from_secs(5);
    let byzantine_leader = config.initial_leader(ClusterId(0));
    let fault_at = Time::from_secs(8);

    println!(
        "scenario: steady state with leader {byzantine_leader} in cluster 0; at {fault_at} it \
         turns Byzantine and stops sending inter-cluster messages."
    );
    let mut throughput = ThroughputObserver::new(Duration::from_secs(2));
    let run = Scenario::builder(Protocol::AvaBftSmart, config)
        .run_for(Duration::from_secs(38))
        .corrupt_at(fault_at, byzantine_leader, ByzantineBehavior::MuteInter)
        .build()
        .run_observed(&mut [&mut throughput]);

    let before = run
        .outputs
        .iter()
        .filter(
            |o| matches!(o, Output::TxCompleted { completed_at, .. } if *completed_at < fault_at),
        )
        .count();
    let after = run.outputs.iter().filter(|o| matches!(o, Output::TxCompleted { .. })).count();
    let leader_changes: Vec<_> = run
        .outputs
        .iter()
        .filter_map(|o| match o {
            Output::LeaderChanged { cluster, new_leader, at, .. } if *cluster == ClusterId(0) => {
                Some((*new_leader, *at))
            }
            _ => None,
        })
        .collect();

    println!("transactions before the fault: {before}");
    println!("transactions by the end of the run: {after}");
    println!("throughput around the fault (2 s buckets):");
    for (t, tps) in throughput.series() {
        let marker = if (t - fault_at.as_secs_f64()).abs() < 1.0 { "  <- fault" } else { "" };
        println!("  t <= {t:>4.0} s: {tps:>8.1} txn/s{marker}");
    }
    match leader_changes.first() {
        Some((new_leader, at)) => println!(
            "remote leader change succeeded: cluster 0 switched to {new_leader} at {at} \
             (reported by {} replicas)",
            leader_changes.len()
        ),
        None => println!("no leader change observed (increase the run length)"),
    }
    assert!(after > before, "throughput should recover after the remote leader change");
}

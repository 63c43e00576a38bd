//! A broker routes around a replica that stopped answering, and back to it once
//! it answers again.
//!
//! One cluster of seven behind one broker under open-loop load; a non-leader
//! crashes for four seconds and restarts from its store. Before the broker's
//! targets followed replies (`ava_hamava::TargetSet`), every batch dealt to the
//! crashed replica pinned an in-flight slot for the 2 s retry timeout, all four
//! slots were pinned within a few dozen batches, and the whole cluster's reads
//! waited 2 s at a time for as long as the replica was down.

use hamava_repro::broker::BrokerTier;
use hamava_repro::fuzz::CheckerSet;
use hamava_repro::scenario::{Protocol, Scenario, ScenarioRun};
use hamava_repro::store::StoreConfig;
use hamava_repro::types::{Duration, Output, Region, ReplicaId, SystemConfig, Time};
use hamava_repro::workload::{is_virtual_client, AggregateLoad};

const CRASH_AT: Time = Time(3_000_000);
const RESTART_AT: Time = Time(7_000_000);
const RUN: Duration = Duration(13_000_000);

/// The run, the crashed replica, the tier, and what the always-on checkers made
/// of the run.
fn run_with_a_crashed_follower() -> (ScenarioRun, ReplicaId, BrokerTier, CheckerSet) {
    let mut config = SystemConfig::even_split_single_region(7, 1, Region::UsWest);
    config.params.batch_size = 20;
    config.params.local_timeout = Duration::from_secs(4);
    config.params.brd_timeout = Duration::from_secs(4);
    let victim = config.clusters[0].replicas[3].0;
    assert_ne!(victim, config.initial_leader(config.clusters[0].id));
    let tier = BrokerTier {
        load: AggregateLoad {
            virtual_clients: 5_000,
            offered_tps: 400,
            issue_for: Duration::from_secs(12),
            ..AggregateLoad::default()
        },
        ..BrokerTier::default()
    };
    let mut checkers = CheckerSet::standard();
    let run = Scenario::builder(Protocol::AvaBftSmart, config)
        .seed(23)
        .store(StoreConfig::every(4))
        .brokers(tier.clone())
        .crash_at(CRASH_AT, victim)
        .restart_at(RESTART_AT, victim)
        .run_for(RUN)
        .build()
        .run_observed(&mut [&mut checkers]);
    (run, victim, tier, checkers)
}

#[test]
fn reads_do_not_wait_on_a_crashed_replica_and_it_is_used_again_after_restart() {
    let (run, victim, tier, checkers) = run_with_a_crashed_follower();

    // Reads issued while the replica was down: p99 well under the retry timeout.
    let mut reads: Vec<Duration> = run
        .outputs
        .iter()
        .filter_map(|o| match o {
            Output::TxCompleted { client, issued_at, completed_at, is_write: false, .. }
                if is_virtual_client(*client) && (CRASH_AT..RESTART_AT).contains(issued_at) =>
            {
                Some(completed_at.since(*issued_at))
            }
            _ => None,
        })
        .collect();
    reads.sort();
    assert!(reads.len() > 300, "only {} reads completed over the crash interval", reads.len());
    let p99 = reads[reads.len() * 99 / 100];
    assert!(p99 < Duration::from_millis(100), "read p99 over the crash interval is {p99}");

    // The broker demoted it once, and re-admitted it — and batches flow through
    // it again — within two retry timeouts of its recovery.
    let custom = |wanted: &'static str| {
        run.outputs.iter().filter_map(move |o| match o {
            Output::Custom { name, value, at } if *name == wanted => Some((*value, *at)),
            _ => None,
        })
    };
    let demoted: Vec<(f64, Time)> = custom("broker_target_demoted").collect();
    assert_eq!(demoted.len(), 1, "demotions: {demoted:?}");
    assert_eq!(demoted[0].0, f64::from(victim.0));
    let recovered = run
        .outputs
        .iter()
        .find_map(|o| match o {
            Output::RecoveryCompleted { replica, at, .. } if *replica == victim => Some(*at),
            _ => None,
        })
        .expect("the restarted replica completes its recovery");
    let deadline = recovered + tier.retry_timeout + tier.retry_timeout;
    let readmitted: Vec<(f64, Time)> = custom("broker_target_readmitted").collect();
    assert_eq!(readmitted.len(), 1, "re-admissions: {readmitted:?}");
    assert!(
        readmitted[0].1 <= deadline,
        "re-admitted at {}, recovered at {recovered}",
        readmitted[0].1
    );
    let admits_again = run.outputs.iter().any(|o| {
        matches!(o, Output::BatchOpCommitted { replica, at, .. }
            if *replica == victim && (recovered..=deadline).contains(at))
    });
    assert!(
        admits_again,
        "no batch admitted by {victim} committed between {recovered} and {deadline}"
    );

    // Routing around it submitted nothing twice: every checker is clean,
    // `broker-conservation`'s committed-twice arm included.
    let violations = checkers.violations();
    assert!(violations.is_empty(), "{violations:?}");
}

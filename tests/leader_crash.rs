//! A crashed local leader costs about ε, not a whole `local_timeout`.
//!
//! Three clusters of seven on the Table II latencies with 4 s timeouts, under
//! open-loop load through brokers (which route around a silent replica; the
//! closed-loop `Client` keeps addressing it and starves later rounds). The local watchdog (`ava_consensus::PendingPool`) suspects
//! the leader after 4 × the worst delivery gap its replica has seen, never less
//! than ε (`leader_change_grace`, 500 ms) and never more than `local_timeout`.
//! Before, it always waited the full 4 s and every cluster sat idle for it,
//! because every round needs the crashed leader's cluster's package.
//!
//! The other side of the bound: the slowest fault-free layout in the repo —
//! `ava-exp e3`'s cluster spanning two regions, whose replicas wait up to
//! 412 ms for a delivery — must never see a complaint.

mod common;

use common::longest_execution_gap;
use hamava_repro::bench::experiments::e3_setup;
use hamava_repro::broker::BrokerTier;
use hamava_repro::fuzz::CheckerSet;
use hamava_repro::hamava::harness::DeploymentOptions;
use hamava_repro::scenario::{Protocol, Scenario, ScenarioBuilder, ScenarioRun};
use hamava_repro::types::{ClusterId, Duration, Output, Region, ReplicaId, SystemConfig, Time};
use hamava_repro::workload::{AggregateLoad, WorkloadSpec};
use std::collections::BTreeMap;

const CRASH_AT: Time = Time(3_000_000);
/// Load arrives until `LOAD_FOR`; the run drains for one more second.
const LOAD_FOR: Duration = Duration(8_000_000);
const RUN: Duration = Duration(9_000_000);
/// ε, the watchdog floor (the default `leader_change_grace`).
const EPSILON: Duration = Duration(500_000);
/// From the watchdog firing to every live member running the new leader:
/// complaints, amplification, the regency hand-over.
const HANDOVER: Duration = Duration(200_000);

fn config() -> SystemConfig {
    let regions = [Region::UsWest, Region::Europe, Region::AsiaSouth];
    let mut config = SystemConfig::even_split_multi_region(21, 3, &regions);
    config.params.remote_leader_timeout = Duration::from_secs(4);
    config.params.local_timeout = Duration::from_secs(4);
    config.params.brd_timeout = Duration::from_secs(4);
    assert_eq!(config.params.leader_change_grace, EPSILON);
    config
}

fn crashed(protocol: Protocol, crashes: &[(Time, ReplicaId)]) -> ScenarioBuilder {
    let opts =
        DeploymentOptions { seed: 11, clients_per_cluster: 0, ..DeploymentOptions::default() };
    let load = AggregateLoad {
        virtual_clients: 20_000,
        offered_tps: 750,
        issue_for: LOAD_FOR,
        workload: WorkloadSpec { read_ratio: 0.5, ..WorkloadSpec::default() },
        ..AggregateLoad::default()
    };
    let mut builder = Scenario::builder(protocol, config())
        .options(opts)
        .brokers(BrokerTier { load, ..BrokerTier::default() })
        .run_for(RUN);
    for &(at, replica) in crashes {
        builder = builder.crash_at(at, replica);
    }
    builder
}

fn run_checked(builder: ScenarioBuilder) -> ScenarioRun {
    let mut checkers = CheckerSet::standard();
    let run = builder.build().run_observed(&mut [&mut checkers]);
    assert_eq!(checkers.violations(), Vec::new(), "{}", run.protocol.label());
    run
}

/// Per replica of cluster 0, the `(new leader, at)` of each leader change it
/// installed, in order.
fn changes_in_cluster_0(run: &ScenarioRun) -> BTreeMap<ReplicaId, Vec<(ReplicaId, Time)>> {
    let mut changes: BTreeMap<ReplicaId, Vec<(ReplicaId, Time)>> = BTreeMap::new();
    for o in &run.outputs {
        if let Output::LeaderChanged { cluster: ClusterId(0), new_leader, at, replica, .. } = o {
            changes.entry(*replica).or_default().push((*new_leader, *at));
        }
    }
    changes
}

/// The members of cluster 0 other than `crashed`.
fn live_members(crashed: &[ReplicaId]) -> Vec<ReplicaId> {
    let config = config();
    let members = config.clusters[0].replicas.iter().map(|r| r.0);
    members.filter(|id| !crashed.contains(id)).collect()
}

#[test]
fn a_crashed_leader_is_replaced_within_epsilon() {
    let leader = config().initial_leader(ClusterId(0));
    let next = ReplicaId(leader.0 + 1);
    for protocol in Protocol::AVA {
        let label = protocol.label();
        let run = run_checked(crashed(protocol, &[(CRASH_AT, leader)]));
        let changes = changes_in_cluster_0(&run);
        for member in live_members(&[leader]) {
            let installed = changes.get(&member).map(Vec::as_slice).unwrap_or_default();
            let [(new_leader, at)] = installed else {
                panic!("{label}: {member:?} installed {installed:?}, not exactly one change");
            };
            assert_eq!(*new_leader, next, "{label}: {member:?}");
            let took = at.since(CRASH_AT);
            assert!(took <= EPSILON + HANDOVER, "{label}: {member:?} took {took} to change");
        }
        for cluster in [ClusterId(0), ClusterId(1), ClusterId(2)] {
            let gap = longest_execution_gap(&run, cluster, Time::ZERO + LOAD_FOR);
            assert!(gap <= Duration::from_millis(1_500), "{label}: {cluster:?} idle for {gap}");
        }
        // The suspicion is visible, with how long each replica waited.
        let suspected: Vec<f64> = run
            .outputs
            .iter()
            .filter_map(|o| match o {
                Output::Custom { name: "leader_suspected", value, .. } => Some(*value),
                _ => None,
            })
            .collect();
        assert!(!suspected.is_empty(), "{label}: no replica reported its suspicion");
        let floor = EPSILON.as_millis_f64();
        let ceiling = Duration::from_secs(4).as_millis_f64();
        assert!(suspected.iter().all(|ms| (floor..ceiling).contains(ms)), "{label}: {suspected:?}");
    }
}

#[test]
fn a_second_crash_right_after_the_takeover_costs_epsilon_again() {
    let first = config().initial_leader(ClusterId(0));
    let second = ReplicaId(first.0 + 1);
    for protocol in Protocol::AVA {
        let label = protocol.label();
        // When the new leader takes over, it crashes too.
        let once = run_checked(crashed(protocol, &[(CRASH_AT, first)]));
        let took_over = changes_in_cluster_0(&once)[&second][0].1;
        let second_crash = took_over + Duration(1);
        let run = run_checked(crashed(protocol, &[(CRASH_AT, first), (second_crash, second)]));
        let changes = changes_in_cluster_0(&run);
        for member in live_members(&[first, second]) {
            let installed = changes.get(&member).map(Vec::as_slice).unwrap_or_default();
            let [(to_second, at_second), (to_third, at_third)] = installed else {
                panic!("{label}: {member:?} installed {installed:?}, not exactly two changes");
            };
            assert_eq!((*to_second, *to_third), (second, ReplicaId(first.0 + 2)), "{label}");
            let took = at_second.since(CRASH_AT);
            assert!(took <= EPSILON + HANDOVER, "{label}: {member:?} took {took} to change");
            let took = at_third.since(second_crash);
            assert!(took <= EPSILON + HANDOVER, "{label}: {member:?} took {took} to change again");
        }
    }
}

/// `ava-exp e3`'s setup 1 — a cluster of two Asia and five Europe replicas
/// beside an all-Asia one — with its quick options (scale 1 and 2, batch 30, the
/// shipped 20 s timeouts), fault-free for 20 s. Its replicas wait up to 412 ms
/// (A.H) and 143 ms (A.B) for a delivery; every other layout in the repo, 20 ms
/// or less.
#[test]
fn the_slowest_fault_free_layout_raises_no_complaint() {
    let opts = DeploymentOptions {
        seed: 3,
        workload: WorkloadSpec { key_space: 10_000, ..WorkloadSpec::default() },
        client_concurrency: 64,
        ..DeploymentOptions::default()
    };
    for protocol in Protocol::AVA {
        for scale in [1, 2] {
            let mut config = e3_setup(1, scale);
            config.params.batch_size = 30;
            let label = format!("{} scale {scale}", protocol.label());
            let mut deployment = protocol.deploy(config, opts.clone());
            deployment.enable_profile();
            deployment.run_until(Time::ZERO + Duration::from_secs(20));
            let complaints: u64 = deployment
                .handler_profile()
                .expect("switched on")
                .rows()
                .filter(|(_, kind, _)| *kind == "Election")
                .map(|(_, _, row)| row.events)
                .sum();
            assert_eq!(complaints, 0, "{label}: complaint messages");
            let suspicions = deployment
                .outputs()
                .iter()
                .filter(|o| {
                    matches!(
                        o,
                        Output::LeaderChanged { .. }
                            | Output::Custom { name: "leader_suspected", .. }
                    )
                })
                .count();
            assert_eq!(suspicions, 0, "{label}: a leader was suspected or changed");
        }
    }
}

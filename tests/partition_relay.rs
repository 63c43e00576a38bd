//! A partition between two of three clusters does not stop the system.
//!
//! Three clusters of four on the Table II latencies with 4 s timeouts, closed-loop
//! load; clusters 1 and 2 cannot reach each other for two seconds. Each drops the
//! other's round package, and before the relay (`ava_hamava::relay`) nothing ever
//! re-sent it: all three clusters sat until both remote-leader timeouts fired —
//! a 4 s gap and two leader changes. With the relay, a replica of cluster 1 that
//! sees cluster 0's *next* round package knows cluster 0 holds what it misses and
//! pulls it from there.
//!
//! With two clusters there is no third party to pull from: the same schedule must
//! run exactly as it did before the relay existed (fingerprints captured at the
//! parent commit).

mod common;
#[path = "common/recorders.rs"]
mod recorders;

use common::longest_execution_gap;
use hamava_repro::fuzz::{fingerprint_outputs, CheckerSet};
use hamava_repro::hamava::relay::decode_trace_value;
use hamava_repro::hamava::{AvaMsg, ByzantineBehavior, RoundPackage};
use hamava_repro::scenario::{Protocol, Scenario, ScenarioBuilder, ScenarioRun};
use hamava_repro::simnet::Simulation;
use hamava_repro::types::{
    ClusterId, Duration, Output, Reconfig, Region, ReplicaId, Round, SystemConfig, Time,
};
use recorders::{received, Inbox, Msg};
use std::sync::Arc;

const PARTITION_AT: Time = Time(3_000_000);
const HEAL_AT: Time = Time(5_000_000);
const RUN: Duration = Duration(9_000_000);

fn config(clusters: usize) -> SystemConfig {
    let regions = [Region::UsWest, Region::Europe, Region::AsiaSouth];
    let mut config =
        SystemConfig::even_split_multi_region(4 * clusters, clusters, &regions[..clusters]);
    config.params.batch_size = 20;
    config.params.remote_leader_timeout = Duration::from_secs(4);
    config.params.local_timeout = Duration::from_secs(4);
    config.params.brd_timeout = Duration::from_secs(4);
    config
}

/// The last two clusters of `clusters` partitioned from `PARTITION_AT` to `HEAL_AT`.
fn partitioned(protocol: Protocol, clusters: usize) -> ScenarioBuilder {
    let (a, b) = (ClusterId(clusters as u32 - 2), ClusterId(clusters as u32 - 1));
    Scenario::builder(protocol, config(clusters))
        .seed(7)
        .partition_at(PARTITION_AT, a, b)
        .heal_at(HEAL_AT, a, b)
        .run_for(RUN)
}

fn run_checked(builder: ScenarioBuilder) -> (ScenarioRun, CheckerSet) {
    let mut checkers = CheckerSet::standard();
    let run = builder.build().run_observed(&mut [&mut checkers]);
    (run, checkers)
}

/// `(round, cluster, peer, at)` of every `Output::Custom` named `name`.
fn relay_events(outputs: &[Output], name: &str) -> Vec<(u64, ClusterId, ReplicaId, Time)> {
    outputs
        .iter()
        .filter_map(|o| match o {
            Output::Custom { name: n, value, at } if *n == name => {
                let (round, cluster, peer) = decode_trace_value(*value);
                Some((round.0, cluster, peer, *at))
            }
            _ => None,
        })
        .collect()
}

#[test]
fn a_partition_between_two_of_three_clusters_costs_no_timeout_and_no_leader() {
    for protocol in Protocol::AVA {
        let (run, checkers) = run_checked(partitioned(protocol, 3));
        let label = protocol.label();
        assert_eq!(checkers.violations(), Vec::new(), "{label}");
        assert!(run.stats.dropped_messages > 0, "{label}: the partition dropped nothing");
        let leader_changes =
            run.outputs.iter().filter(|o| matches!(o, Output::LeaderChanged { .. })).count();
        assert_eq!(leader_changes, 0, "{label}: a bridged partition must not change a leader");
        for cluster in [ClusterId(0), ClusterId(1), ClusterId(2)] {
            let gap = longest_execution_gap(&run, cluster, Time::ZERO + RUN);
            assert!(
                gap <= Duration::from_secs(1),
                "{label}: {cluster:?} executed nothing for {gap}"
            );
        }
        // The bridge is visible: clusters 1 and 2 pull each other's package from
        // members of cluster 0, which serve them, only while the partition lasts.
        let pulled = relay_events(&run.outputs, "package_pulled");
        let served = relay_events(&run.outputs, "package_served");
        assert!(!pulled.is_empty() && pulled.len() == served.len(), "{label}: {pulled:?}");
        let cluster_0 = config(3).clusters[0].replicas.iter().map(|r| r.0).collect::<Vec<_>>();
        for (_, cluster, asked, at) in &pulled {
            assert!(matches!(cluster.0, 1 | 2), "{label}: pulled {cluster:?}");
            assert!(cluster_0.contains(asked), "{label}: asked {asked:?}");
            assert!(*at > PARTITION_AT && *at < HEAL_AT + Duration::from_secs(1), "{label}: {at}");
        }
    }
}

/// Fingerprints of the two-cluster schedule at the parent commit (no relay).
const TWO_CLUSTER_GOLDENS: [(Protocol, &str); 2] = [
    (Protocol::AvaHotStuff, "01bb4a7e7393beef55948a6a1116b0cb2bbaf9d40169d028f31efd2cb72bdb33"),
    (Protocol::AvaBftSmart, "4b81d029f84099f7c22dfbe6b9d728fd7faa43c0b9b169c05f0ae9f67425cf8d"),
];

#[test]
fn with_two_clusters_there_is_nobody_to_pull_from_and_nothing_changes() {
    for (protocol, golden) in TWO_CLUSTER_GOLDENS {
        let run = partitioned(protocol, 2).build().run();
        assert!(relay_events(&run.outputs, "package_pulled").is_empty());
        let fingerprint = fingerprint_outputs(&run.outputs, &run.stats);
        assert_eq!(fingerprint, golden, "{}", protocol.label());
    }
}

/// A Byzantine server: cluster 0's leader proves it is a round ahead with a
/// genuine package and turns `behavior` while the first pull is in flight, so
/// what it *serves* is tampered (the wrapper intercepts every outgoing `Inter`).
/// Nothing of a tampered package may execute, and the round still completes
/// once a genuine package arrives — under `InvalidCert` by the
/// remote-leader-change path, as before the relay.
#[test]
fn a_byzantine_server_gains_nothing_by_tampering_what_it_serves() {
    const RUN: Duration = Duration(13_000_000);
    let honest = partitioned(Protocol::AvaBftSmart, 3).run_for(RUN).build().run();
    let (round, _, server, pulled_at) = relay_events(&honest.outputs, "package_pulled")[0];
    let corrupt_at = pulled_at + Duration(1);
    let members = config(3).membership();
    for behavior in [ByzantineBehavior::InvalidCert, ByzantineBehavior::EquivocateRemote] {
        let label = behavior.label();
        let builder = partitioned(Protocol::AvaBftSmart, 3)
            .run_for(RUN)
            .corrupt_at(corrupt_at, server, behavior);
        let (run, checkers) = run_checked(builder);
        assert_eq!(checkers.violations(), Vec::new(), "{label}");
        let served = relay_events(&run.outputs, "package_served");
        assert!(served.iter().any(|e| e.0 == round), "{label}: the corrupt replica never served");
        // `tamper` appends a bogus leave to the package it forges: executing any
        // of it would apply that leave.
        let forged_leave = run.outputs.iter().any(|o| {
            matches!(o, Output::ReconfigApplied { replica, .. } if *replica == ReplicaId(u32::MAX))
        });
        assert!(!forged_leave, "{label}: a tampered package was executed");
        // Evidence about a package the server does not own — one it served —
        // from a replica outside its cluster. `EquivocateRemote` ships the
        // genuine copy to the first requester and the forged one to the second,
        // which by then has executed the round on the first's share: a stale
        // package is dropped unread, so only `InvalidCert` is sure to be seen.
        let evidence = run.outputs.iter().any(|o| match o {
            Output::ByzantineRejected { replica, cluster, round: r, at, .. }
            | Output::EquivocationObserved { replica, cluster, round: r, at, .. } => {
                !members.contains(ClusterId(0), *replica)
                    && cluster.0 != 0
                    && r.0 == round
                    && *at > corrupt_at
            }
            _ => false,
        });
        assert!(
            evidence || behavior == ByzantineBehavior::EquivocateRemote,
            "{label}: no puller reported the tampered package"
        );
        for cluster in [ClusterId(0), ClusterId(1), ClusterId(2)] {
            let executed = run.outputs.iter().any(|o| {
                matches!(o, Output::RoundExecuted { cluster: c, round: r, .. }
                    if *c == cluster && r.0 == round)
            });
            assert!(executed, "{label}: {cluster:?} never completed round {round}");
        }
    }
}

// ---- one real replica among recording stand-ins ---------------------------------

/// The replica under test: the first member of cluster 1 (an `Inter` recipient),
/// still in round 1 because nobody orders anything.
const UNDER_TEST: ReplicaId = ReplicaId(4);

/// A 3 × 4 system in which only `UNDER_TEST` is a real replica.
fn one_replica_among_recorders() -> (Simulation<Msg>, Inbox) {
    recorders::one_replica_among_recorders(&config(3), UNDER_TEST)
}

/// A certificate-free package: it verifies iff it carries no reconfiguration
/// (an empty block list needs no quorum certificate, a non-empty `recs` needs a
/// BRD certificate), and `salt` varies its content.
fn package(cluster: u32, round: u64, salt: u32) -> Arc<RoundPackage> {
    let recs = (0..salt).map(|i| Reconfig::Leave { replica: ReplicaId(1_000 + i) }).collect();
    Arc::new(RoundPackage::new(ClusterId(cluster), Round(round), vec![], recs, None))
}

#[test]
fn a_repeated_inter_is_verified_and_shared_once() {
    let (mut sim, inbox) = one_replica_among_recorders();
    let genuine = package(2, 1, 0);
    let at = |ms: u64| Time::ZERO + Duration::from_millis(ms);
    // A package merely *held* (a peer shared it) is still forwarded when it
    // arrives as an `Inter`: the peer may have shared it with this replica alone.
    sim.external_send(ReplicaId(5), UNDER_TEST, AvaMsg::LocalShare(Arc::clone(&genuine)), at(1));
    sim.external_send(ReplicaId(8), UNDER_TEST, AvaMsg::Inter(Arc::clone(&genuine)), at(10));
    sim.run_until(at(20));
    assert_eq!(received(&inbox, 5, "LocalShare"), 1);
    // The same package again — the same allocation, or an equal one off the
    // wire — from anyone, any number of times: nothing is sent.
    for i in 0..50 {
        let copy = if i % 2 == 0 { Arc::clone(&genuine) } else { package(2, 1, 0) };
        sim.external_send(ReplicaId(8 + i % 4), UNDER_TEST, AvaMsg::Inter(copy), at(20 + i as u64));
    }
    sim.run_until(at(100));
    assert_eq!(received(&inbox, 5, "LocalShare"), 1, "a duplicate was shared again");
    let evidence = |sim: &Simulation<Msg>| {
        sim.outputs().iter().filter(|o| matches!(o, Output::EquivocationObserved { .. })).count()
    };
    assert_eq!(evidence(&sim), 0);
    // Different content for the slot is still equivocation evidence — and is
    // not forwarded either.
    sim.external_send(ReplicaId(8), UNDER_TEST, AvaMsg::Inter(package(2, 1, 1)), at(100));
    sim.run_until(at(110));
    assert_eq!(evidence(&sim), 1);
    assert_eq!(received(&inbox, 5, "LocalShare"), 1);
}

#[test]
fn only_a_later_round_straight_from_its_own_cluster_triggers_a_pull() {
    let (mut sim, inbox) = one_replica_among_recorders();
    let at = |ms: u64| Time::ZERO + Duration::from_millis(ms);
    // Cluster 0's package for the *current* round proves nothing.
    sim.external_send(ReplicaId(0), UNDER_TEST, AvaMsg::Inter(package(0, 1, 0)), at(1));
    // Its round-2 package relayed by a member of cluster 2 proves nothing about
    // what that member holds; a tampered one proves nothing at all.
    sim.external_send(ReplicaId(9), UNDER_TEST, AvaMsg::Inter(package(0, 2, 0)), at(2));
    sim.external_send(ReplicaId(1), UNDER_TEST, AvaMsg::Inter(package(0, 3, 1)), at(3));
    sim.run_until(at(200));
    assert!(relay_events(sim.outputs(), "package_pulled").is_empty());
    // From a member of cluster 0 it proves cluster 0 executed round 1: ask that
    // member for cluster 2's round-1 package — not for ours, not for its own.
    sim.external_send(ReplicaId(1), UNDER_TEST, AvaMsg::Inter(package(0, 3, 0)), at(200));
    sim.run_until(at(400));
    let pulled = relay_events(sim.outputs(), "package_pulled");
    assert_eq!(pulled.len(), 1);
    assert_eq!(pulled[0].0, 1);
    assert_eq!(pulled[0].1, ClusterId(2));
    assert_eq!(pulled[0].2, ReplicaId(1));
    let inbox = inbox.lock().expect("no test thread panicked holding it");
    let pulls: Vec<_> = inbox
        .iter()
        .filter_map(|(to, from, m)| match m {
            AvaMsg::InterPull { round, cluster } => Some((*to, *from, *round, *cluster)),
            _ => None,
        })
        .collect();
    assert_eq!(pulls, vec![(ReplicaId(1), UNDER_TEST, Round(1), ClusterId(2))]);
}

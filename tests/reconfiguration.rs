//! Integration tests of the reconfiguration path: joins, leaves, and the Byzantine
//! remote-leader-change scenario, exercised end to end through declarative
//! scenarios; and every cluster reconfiguring in the same or consecutive rounds,
//! which the per-cluster trailing view (`ava_hamava::Views`) keeps verifiable.

use hamava_repro::broker::AggregateLoad;
use hamava_repro::fuzz::CheckerSet;
use hamava_repro::hamava::harness::DeploymentOptions;
use hamava_repro::hamava::StateMachineKind;
use hamava_repro::scenario::{
    BrokerTier, ByzantineBehavior, Protocol, Scenario, ScenarioBuilder, ScenarioEvent,
};
use hamava_repro::simnet::{CostModel, LatencyModel};
use hamava_repro::store::StoreConfig;
use hamava_repro::types::{ClusterId, Duration, Output, Region, ReplicaId, SystemConfig, Time};
use hamava_repro::workload::WorkloadSpec;

fn quick_opts(seed: u64) -> DeploymentOptions {
    DeploymentOptions {
        seed,
        latency: LatencyModel::paper_table2().with_jitter(0.0),
        costs: CostModel::cloud_vm(),
        workload: WorkloadSpec { key_space: 1_000, ..WorkloadSpec::default() },
        clients_per_cluster: 1,
        client_concurrency: 48,
        store: None,
        state_machine: hamava_repro::hamava::StateMachineKind::Counter,
    }
}

fn scenario(protocol: Protocol, config: SystemConfig, seed: u64, secs: u64) -> ScenarioBuilder {
    Scenario::builder(protocol, config).options(quick_opts(seed)).run_for(Duration::from_secs(secs))
}

#[test]
fn a_replica_can_join_a_running_cluster() {
    let mut config = SystemConfig::homogeneous_regions(&[(4, Region::UsWest), (4, Region::Europe)]);
    config.params.batch_size = 20;
    let run = scenario(Protocol::AvaHotStuff, config, 11, 25)
        .join_at(Time::from_secs(5), ClusterId(0), Region::UsWest)
        .build()
        .run();
    let new_replica = run.joined[0];
    let joined = run.outputs.iter().any(|o| {
        matches!(o, Output::ReconfigApplied { replica, joined: true, cluster, .. }
            if *replica == new_replica && *cluster == ClusterId(0))
    });
    assert!(joined, "the joining replica was never added to the configuration");
    // Processing continues after the join.
    let late_commits = run
        .outputs
        .iter()
        .filter(|o| {
            matches!(o, Output::TxCompleted { completed_at, .. }
            if completed_at.as_secs_f64() > 15.0)
        })
        .count();
    assert!(late_commits > 0, "transaction processing stalled after the join");
}

#[test]
fn a_replica_can_leave_a_running_cluster() {
    let mut config = SystemConfig::homogeneous_regions(&[(5, Region::UsWest), (5, Region::Europe)]);
    config.params.batch_size = 20;
    let leaver = config.clusters[0].replicas[3].0;
    let run = scenario(Protocol::AvaBftSmart, config, 12, 25)
        .leave_at(Time::from_secs(5), leaver)
        .build()
        .run();
    let left = run.outputs.iter().any(|o| {
        matches!(o, Output::ReconfigApplied { replica, joined: false, .. } if *replica == leaver)
    });
    assert!(left, "the leave request was never applied");
    let late_commits = run
        .outputs
        .iter()
        .filter(|o| {
            matches!(o, Output::TxCompleted { completed_at, .. }
            if completed_at.as_secs_f64() > 15.0)
        })
        .count();
    assert!(late_commits > 0, "transaction processing stalled after the leave");
}

/// Cluster 0's initial leader turns Byzantine with `behavior` at 5 s of a
/// 35 s HotStuff run on 2 × 4 replicas: cluster 0 must move to another leader
/// and writes must commit after 20 s.
fn byzantine_leader_is_replaced(behavior: ByzantineBehavior) {
    let mut config = SystemConfig::homogeneous_regions(&[(4, Region::UsWest), (4, Region::Europe)]);
    config.params.batch_size = 20;
    config.params.remote_leader_timeout = Duration::from_secs(4);
    config.params.brd_timeout = Duration::from_secs(4);
    config.params.local_timeout = Duration::from_secs(4);
    let byzantine = config.initial_leader(ClusterId(0));
    let run = scenario(Protocol::AvaHotStuff, config, 13, 35)
        .corrupt_at(Time::from_secs(5), byzantine, behavior)
        .build()
        .run();
    let changed = run.outputs.iter().any(|o| {
        matches!(o, Output::LeaderChanged { cluster, new_leader, .. }
            if *cluster == ClusterId(0) && *new_leader != byzantine)
    });
    assert!(changed, "{behavior:?}: the Byzantine leader was never replaced");
    let recovery_commits = run
        .outputs
        .iter()
        .filter(|o| {
            matches!(o, Output::TxCompleted { completed_at, is_write: true, .. }
            if *completed_at > Time::from_secs(20))
        })
        .count();
    assert!(recovery_commits > 0, "{behavior:?}: no write committed after the leader change");
}

#[test]
fn silent_local_leader_is_replaced() {
    byzantine_leader_is_replaced(ByzantineBehavior::SilentLeader);
}

#[test]
fn byzantine_leader_withholding_inter_messages_is_replaced() {
    byzantine_leader_is_replaced(ByzantineBehavior::MuteInter);
}

#[test]
fn crashed_local_leader_is_replaced_by_election() {
    let mut config = SystemConfig::homogeneous_regions(&[(4, Region::UsWest), (4, Region::Europe)]);
    config.params.batch_size = 20;
    config.params.remote_leader_timeout = Duration::from_secs(4);
    config.params.brd_timeout = Duration::from_secs(4);
    config.params.local_timeout = Duration::from_secs(4);
    let leader = config.initial_leader(ClusterId(1));
    let run = scenario(Protocol::AvaBftSmart, config, 14, 35)
        .crash_initial_leader_at(Time::from_secs(5), ClusterId(1))
        .build()
        .run();
    let changed = run.outputs.iter().any(|o| {
        matches!(o, Output::LeaderChanged { cluster, new_leader, .. }
            if *cluster == ClusterId(1) && *new_leader != leader)
    });
    assert!(changed, "cluster 1 never elected a replacement leader");
    let recovery_commits = run
        .outputs
        .iter()
        .filter(|o| {
            matches!(o, Output::TxCompleted { completed_at, is_write: true, .. }
            if *completed_at > Time::from_secs(25))
        })
        .count();
    assert!(recovery_commits > 0, "no transactions committed after the leader crash");
}

/// Finding 2 (`benchmark/README.md`): one replica joins each of three
/// 7-replica clusters at 3 s and the three leave again, the `k`-th (`k` = 1,
/// 2, 3) at `8 s + k · leave_gap`, under open-loop broker load. A cluster that
/// applies its leave a round after another's still ships blocks its outgoing
/// members certified: the run must stay clean, and every cluster must still
/// execute rounds at its end.
fn views_every_cluster_churns(protocol: Protocol, seed: u64, leave_gap: Duration) {
    let regions = [Region::UsWest, Region::Europe, Region::AsiaSouth];
    let mut config = SystemConfig::even_split_multi_region(21, 3, &regions);
    config.params.remote_leader_timeout = Duration::from_secs(4);
    config.params.local_timeout = Duration::from_secs(4);
    config.params.brd_timeout = Duration::from_secs(4);
    let workload =
        WorkloadSpec { read_ratio: 0.5, key_space: 2_000, payload_size: 128, ..Default::default() };
    let opts = DeploymentOptions {
        seed,
        latency: LatencyModel::paper_table2(),
        costs: CostModel::cloud_vm(),
        workload: workload.clone(),
        clients_per_cluster: 0,
        client_concurrency: 128,
        store: Some(StoreConfig::every(8)),
        state_machine: StateMachineKind::Kv,
    };
    let tier = BrokerTier {
        brokers_per_cluster: 1,
        load: AggregateLoad {
            virtual_clients: 20_000,
            offered_tps: 750,
            issue_for: Duration::from_millis(15_900),
            workload,
            ..AggregateLoad::default()
        },
        ..BrokerTier::default()
    };
    let mut events = Vec::new();
    for cluster in &config.clusters {
        let region = cluster.replicas[0].1;
        events.push((Time::from_secs(3), ScenarioEvent::Join { cluster: cluster.id, region }));
    }
    for k in 1..=3u32 {
        let at = Time::from_secs(8) + Duration(leave_gap.as_micros() * u64::from(k));
        events.push((at, ScenarioEvent::Leave { replica: ReplicaId(20 + k) }));
    }
    let clusters: Vec<ClusterId> = config.clusters.iter().map(|c| c.id).collect();
    let end = Time::from_secs(16);
    let mut builder = Scenario::builder(protocol, config)
        .options(opts)
        .run_for(Duration::from_secs(16))
        .brokers(tier);
    for (at, event) in &events {
        builder = builder.at(*at, event.clone());
    }
    let run = builder.build().run();
    let violations = CheckerSet::replay(&run.outputs, &events, end);
    assert!(violations.is_empty(), "{protocol:?} seed {seed}: {violations:?}");
    for cluster in clusters {
        let late = run.outputs.iter().any(|o| {
            matches!(o, Output::RoundExecuted { cluster: c, at, .. }
                if *c == cluster && *at > Time::from_secs(14))
        });
        assert!(late, "{protocol:?} seed {seed}: cluster {cluster:?} stopped executing rounds");
    }
}

#[test]
fn views_keep_every_cluster_live_when_all_leave_at_once_bftsmart_seed_0() {
    views_every_cluster_churns(Protocol::AvaBftSmart, 0, Duration::ZERO);
}

#[test]
fn views_keep_every_cluster_live_when_all_leave_at_once_bftsmart_seed_15() {
    views_every_cluster_churns(Protocol::AvaBftSmart, 15, Duration::ZERO);
}

#[test]
fn views_keep_every_cluster_live_when_leaves_are_40ms_apart_hotstuff_seed_5() {
    views_every_cluster_churns(Protocol::AvaHotStuff, 5, Duration::from_millis(40));
}

/// The single-workflow ablation (E5.2: each round's reconfiguration set is
/// ordered through the local TOB instead of BRD) under joins and leaves in both
/// clusters of a 5 + 4 deployment. Every request must be applied and writes
/// must still commit after the last one; returns what the standard checkers
/// found. The fuzzer never draws this mode, so these runs are where its
/// checkers see it.
fn single_workflow_violations(protocol: Protocol, seed: u64) -> Vec<String> {
    let mut config = SystemConfig::homogeneous_regions(&[(5, Region::UsWest), (4, Region::Europe)]);
    config.params.batch_size = 20;
    config.params.parallel_reconfig_workflow = false;
    let leavers = [config.clusters[0].replicas[4].0, config.clusters[1].replicas[3].0];
    let mut checkers = CheckerSet::standard();
    let run = scenario(protocol, config, seed, 24)
        .join_at(Time::from_secs(3), ClusterId(0), Region::UsWest)
        .join_at(Time::from_secs(5), ClusterId(1), Region::Europe)
        .leave_at(Time::from_secs(9), leavers[0])
        .leave_at(Time::from_secs(11), leavers[1])
        .build()
        .run_observed(&mut [&mut checkers]);
    let applied = |who: ReplicaId, join: bool| {
        run.outputs.iter().any(|o| {
            matches!(o, Output::ReconfigApplied { replica, joined, .. }
                if *replica == who && *joined == join)
        })
    };
    assert_eq!(run.joined.len(), 2);
    for &joiner in &run.joined {
        assert!(applied(joiner, true), "{protocol:?} seed {seed}: {joiner} never joined");
    }
    for leaver in leavers {
        assert!(applied(leaver, false), "{protocol:?} seed {seed}: {leaver} never left");
    }
    let late_writes = run.outputs.iter().any(|o| {
        matches!(o, Output::TxCompleted { completed_at, is_write: true, .. }
            if *completed_at > Time::from_secs(18))
    });
    assert!(late_writes, "{protocol:?} seed {seed}: no write committed after the reconfigurations");
    checkers.violations().iter().map(|v| v.to_string()).collect()
}

#[test]
fn single_workflow_applies_joins_and_leaves_hotstuff() {
    let violations = single_workflow_violations(Protocol::AvaHotStuff, 21);
    assert!(violations.is_empty(), "{violations:?}");
}

/// Finding 19 (ROADMAP findings ledger), fixed: in the single workflow a
/// request's set commits past its round's cut, applies in the next round, and
/// is ordered again in that round's own set. Applied twice, it replaced the
/// cluster's trailing view, and a block its departed member certified was
/// rejected (`certificate-validity`). `Views::apply_round` now skips a request
/// that changes nothing, so the run is clean.
#[test]
fn single_workflow_applies_joins_and_leaves_bftsmart() {
    let violations = single_workflow_violations(Protocol::AvaBftSmart, 22);
    assert!(violations.is_empty(), "{violations:?}");
}

/// Finding 16 (ROADMAP findings ledger): a quick fuzz case, shrunk, in which
/// nothing is corrupted, yet the replica that joined cluster 1 rejects an
/// honest package, so `certificate-validity` fires. It is finding 1's symptom.
/// A known-failing case asserts that the checker still fires, so a fix turns
/// it red and it moves to the regression set, as seed 260's did once a
/// request that changes no membership stopped moving the trailing view.
/// Options are the quick fuzz profile's: a 12 s run, one client per cluster
/// with 32 outstanding requests.
fn finding_16_violations(
    protocol: Protocol,
    clusters: &[(usize, Region)],
    seed: u64,
    checkpoint_interval: u64,
    events: &[(Time, ScenarioEvent)],
) -> Vec<String> {
    let mut config = SystemConfig::homogeneous_regions(clusters);
    config.params.batch_size = 20;
    config.params.remote_leader_timeout = Duration::from_secs(4);
    config.params.brd_timeout = Duration::from_secs(4);
    config.params.local_timeout = Duration::from_secs(4);
    let opts = DeploymentOptions {
        seed,
        workload: WorkloadSpec { read_ratio: 0.9, key_space: 500, ..WorkloadSpec::default() },
        client_concurrency: 32,
        store: Some(StoreConfig::every(checkpoint_interval)),
        ..DeploymentOptions::default()
    };
    let mut builder =
        Scenario::builder(protocol, config).options(opts).run_for(Duration::from_secs(12));
    for (at, event) in events {
        builder = builder.at(*at, event.clone());
    }
    let mut checkers = CheckerSet::standard();
    builder.build().run_observed(&mut [&mut checkers]);
    checkers.violations().iter().map(|v| v.to_string()).collect()
}

/// The joined replica's rejection, asserted as still firing.
fn assert_finding_16(violations: &[String], joined: ReplicaId) {
    assert!(
        violations.iter().any(
            |v| v.contains("certificate-validity") && v.contains(&format!("{joined} rejected"))
        ),
        "finding 16 no longer reproduces (fixed? move the fixture to the regression set): \
         {violations:?}"
    );
}

#[test]
fn known_failing_finding_16_fuzz_seed_174_hotstuff() {
    let violations = finding_16_violations(
        Protocol::AvaHotStuff,
        &[(5, Region::UsEast), (5, Region::Europe)],
        992_839_049,
        4,
        &[
            (
                Time::from_millis(4_110),
                ScenarioEvent::Join { cluster: ClusterId(1), region: Region::AsiaNortheast },
            ),
            (Time::from_millis(5_849), ScenarioEvent::Crash { replica: ReplicaId(8) }),
            (Time::from_millis(6_798), ScenarioEvent::Leave { replica: ReplicaId(4) }),
        ],
    );
    assert_finding_16(&violations, ReplicaId(10));
}

#[test]
fn finding_16_fuzz_seed_260_bftsmart_runs_clean() {
    let violations = finding_16_violations(
        Protocol::AvaBftSmart,
        &[(5, Region::Europe), (4, Region::Europe)],
        768_381_261,
        3,
        &[
            (
                Time::from_millis(1_981),
                ScenarioEvent::Join { cluster: ClusterId(1), region: Region::UsWest },
            ),
            (Time::from_millis(6_241), ScenarioEvent::Leave { replica: ReplicaId(4) }),
        ],
    );
    assert!(violations.is_empty(), "{violations:?}");
}

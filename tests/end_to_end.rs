//! Cross-crate integration tests: full simulated deployments of AVA-HOTSTUFF and
//! AVA-BFTSMART processing transactions across heterogeneous geo-distributed
//! clusters, driven through the declarative scenario API.

use hamava_repro::hamava::harness::DeploymentOptions;
use hamava_repro::scenario::{Protocol, Scenario, ScenarioBuilder, ScenarioRun};
use hamava_repro::simnet::{CostModel, LatencyModel};
use hamava_repro::types::{ClusterId, Duration, Output, Region, StageKind, SystemConfig, Time};
use hamava_repro::workload::WorkloadSpec;

fn quick_opts(seed: u64) -> DeploymentOptions {
    DeploymentOptions {
        seed,
        latency: LatencyModel::paper_table2().with_jitter(0.0),
        costs: CostModel::cloud_vm(),
        workload: WorkloadSpec { key_space: 2_000, ..WorkloadSpec::default() },
        clients_per_cluster: 1,
        client_concurrency: 48,
        store: None,
        state_machine: hamava_repro::hamava::StateMachineKind::Counter,
    }
}

fn scenario(protocol: Protocol, config: SystemConfig, seed: u64, secs: u64) -> ScenarioBuilder {
    Scenario::builder(protocol, config).options(quick_opts(seed)).run_for(Duration::from_secs(secs))
}

fn completed_writes(outputs: &[Output]) -> usize {
    outputs.iter().filter(|o| matches!(o, Output::TxCompleted { is_write: true, .. })).count()
}

#[test]
fn hotstuff_two_heterogeneous_clusters_process_transactions() {
    let mut config =
        SystemConfig::heterogeneous(&[vec![Region::UsWest; 4], vec![Region::Europe; 7]]);
    config.params.batch_size = 25;
    let run = scenario(Protocol::AvaHotStuff, config, 1, 15).build().run();
    let outputs = &run.outputs;
    let rounds = outputs.iter().filter(|o| matches!(o, Output::RoundExecuted { .. })).count();
    assert!(rounds > 0, "no rounds executed");
    assert!(completed_writes(outputs) > 0, "no writes completed");
    // Reads complete too (served locally) and faster on average than writes.
    let (mut read_lat, mut write_lat) = (Vec::new(), Vec::new());
    for o in outputs {
        if let Output::TxCompleted { issued_at, completed_at, is_write, .. } = o {
            let lat = completed_at.since(*issued_at).as_millis_f64();
            if *is_write {
                write_lat.push(lat);
            } else {
                read_lat.push(lat);
            }
        }
    }
    let mean = |v: &Vec<f64>| v.iter().sum::<f64>() / v.len().max(1) as f64;
    assert!(!read_lat.is_empty() && !write_lat.is_empty());
    assert!(
        mean(&read_lat) < mean(&write_lat),
        "reads ({:.1} ms) should be faster than writes ({:.1} ms)",
        mean(&read_lat),
        mean(&write_lat)
    );
}

#[test]
fn bftsmart_deployment_also_processes_transactions() {
    let mut config =
        SystemConfig::homogeneous_regions(&[(4, Region::UsWest), (4, Region::AsiaSouth)]);
    config.params.batch_size = 25;
    let run = scenario(Protocol::AvaBftSmart, config, 2, 15).build().run();
    assert!(completed_writes(&run.outputs) > 0);
}

#[test]
fn all_three_stages_are_reported_per_round() {
    let mut config = SystemConfig::homogeneous_regions(&[(4, Region::UsWest), (4, Region::Europe)]);
    config.params.batch_size = 20;
    let run = scenario(Protocol::AvaHotStuff, config, 3, 12).build().run();
    for stage in StageKind::ALL {
        assert!(
            run.outputs
                .iter()
                .any(|o| matches!(o, Output::StageCompleted { stage: s, .. } if *s == stage)),
            "missing stage report for {stage:?}"
        );
    }
}

#[test]
fn clustering_reduces_inter_cluster_traffic_share() {
    // With clusters, the vast majority of messages must be intra-cluster: that is the
    // point of the protocol (Table I's local vs global complexity).
    let mut config = SystemConfig::even_split_multi_region(
        12,
        3,
        &[Region::UsWest, Region::Europe, Region::AsiaSouth],
    );
    config.params.batch_size = 20;
    let run = scenario(Protocol::AvaHotStuff, config, 4, 12).build().run();
    assert!(run.stats.local_messages > 0 && run.stats.global_messages > 0);
    assert!(
        run.stats.local_messages > run.stats.global_messages * 3,
        "local {} vs global {}",
        run.stats.local_messages,
        run.stats.global_messages
    );
}

#[test]
fn same_seed_is_deterministic_and_different_seeds_differ() {
    let run = |seed: u64| -> (u64, usize) {
        let mut config =
            SystemConfig::homogeneous_regions(&[(4, Region::UsWest), (4, Region::Europe)]);
        config.params.batch_size = 20;
        let r: ScenarioRun = scenario(Protocol::AvaHotStuff, config, seed, 8).build().run();
        (r.stats.total_messages(), completed_writes(&r.outputs))
    };
    assert_eq!(run(7), run(7));
    assert_ne!(run(7).0, run(8).0);
}

#[test]
fn non_leader_crashes_within_f_are_tolerated() {
    let mut config = SystemConfig::homogeneous_regions(&[(7, Region::UsWest), (7, Region::Europe)]);
    config.params.batch_size = 20;
    // Crash f = 2 non-leader replicas in cluster 0 five seconds in.
    let mut builder = scenario(Protocol::AvaHotStuff, config.clone(), 5, 20);
    for (id, _) in config.clusters[0].replicas.iter().skip(1).take(2) {
        builder = builder.crash_at(Time::from_secs(5), *id);
    }
    let run = builder.build().run();
    let before = run
        .outputs
        .iter()
        .filter(|o| {
            matches!(o, Output::TxCompleted { completed_at, is_write: true, .. }
            if completed_at.as_secs_f64() < 5.0)
        })
        .count();
    let after = run
        .outputs
        .iter()
        .filter(|o| {
            matches!(o, Output::TxCompleted { completed_at, is_write: true, .. }
            if completed_at.as_secs_f64() > 8.0)
        })
        .count();
    assert!(before > 0, "no progress before the crashes");
    assert!(after > 0, "progress must continue with f crashed replicas");
}

#[test]
fn geobft_baseline_and_hotstuff_both_commit_under_identical_workload() {
    let mut config = SystemConfig::even_split_single_region(8, 2, Region::UsWest);
    config.params.batch_size = 20;
    let geo = scenario(Protocol::GeoBft, config.clone(), 6, 10).build().run();
    let ava = scenario(Protocol::AvaHotStuff, config, 6, 10).build().run();
    assert!(completed_writes(&geo.outputs) > 0);
    assert!(completed_writes(&ava.outputs) > 0);
}

/// Mean write latency, in ms, of one 7-replica cluster priced by `costs`.
fn one_cluster_write_latency_ms(protocol: Protocol, costs: CostModel) -> f64 {
    let mut config = SystemConfig::homogeneous_regions(&[(7, Region::UsWest)]);
    config.params.batch_size = 20;
    let opts = DeploymentOptions { costs, ..quick_opts(5) };
    let run = Scenario::builder(protocol, config)
        .options(opts)
        .run_for(Duration::from_secs(4))
        .build()
        .run();
    let writes: Vec<f64> = run
        .outputs
        .iter()
        .filter_map(|o| match o {
            Output::TxCompleted { issued_at, completed_at, is_write: true, .. } => {
                Some(completed_at.since(*issued_at).as_millis_f64())
            }
            _ => None,
        })
        .collect();
    assert!(!writes.is_empty(), "{protocol}: no write completed");
    writes.iter().sum::<f64>() / writes.len() as f64
}

/// A signature has one price, the cost model's, and it reaches the local
/// order: with one cluster there is no Stage 2, so the TOB's votes and
/// certificate checks and BRD's signatures are where a pricier signature shows.
#[test]
fn the_cost_model_prices_every_signature_of_the_local_order() {
    for protocol in Protocol::AVA {
        let base = one_cluster_write_latency_ms(protocol, CostModel::cloud_vm());
        let mut verify = CostModel::cloud_vm();
        verify.per_sig_verify = verify.per_sig_verify.saturating_mul(4);
        let mut sign = CostModel::cloud_vm();
        sign.per_sign = sign.per_sign.saturating_mul(4);
        for (knob, costs) in [("per_sig_verify", verify), ("per_sign", sign)] {
            let priced = one_cluster_write_latency_ms(protocol, costs);
            assert!(
                priced > base,
                "{protocol}: {knob} x4 gave {priced:.3} ms against {base:.3} ms"
            );
        }
    }
}

#[test]
fn a_partition_blocks_inter_cluster_progress_until_healed() {
    // New scenario shape: an inter-region partition in the middle third of the run.
    // Writes need both clusters, so write completions stall while the clusters are
    // severed and resume after the heal.
    let mut config = SystemConfig::homogeneous_regions(&[(4, Region::UsWest), (4, Region::Europe)]);
    config.params.batch_size = 20;
    config.params.remote_leader_timeout = Duration::from_secs(4);
    config.params.brd_timeout = Duration::from_secs(4);
    config.params.local_timeout = Duration::from_secs(4);
    let run = scenario(Protocol::AvaHotStuff, config, 7, 24)
        .partition_at(Time::from_secs(8), ClusterId(0), ClusterId(1))
        .heal_at(Time::from_secs(16), ClusterId(0), ClusterId(1))
        .build()
        .run();
    assert!(run.stats.dropped_messages > 0, "the partition must drop traffic");
    let after_heal = run
        .outputs
        .iter()
        .filter(|o| {
            matches!(o, Output::TxCompleted { completed_at, is_write: true, .. }
            if completed_at.as_secs_f64() > 17.0)
        })
        .count();
    assert!(after_heal > 0, "writes must resume after the heal");
}

#[test]
fn membership_is_heterogeneous_and_thresholds_follow_cluster_sizes() {
    let config = SystemConfig::heterogeneous(&[vec![Region::UsWest; 4], vec![Region::Europe; 10]]);
    let m = config.membership();
    assert_eq!(m.f(ClusterId(0)), 1);
    assert_eq!(m.f(ClusterId(1)), 3);
    assert_eq!(m.quorum(ClusterId(1)), 7);
}

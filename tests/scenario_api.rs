//! Scenario-API integration tests: schedule-order invariance (property test),
//! cross-crate smoke of the new event kinds, and
//! a generator-drawn property: every schedule `ava_fuzz::ScheduleGenerator`
//! produces is valid builder input in any insertion order.

use hamava_repro::fuzz::{FuzzConfig, ScheduleGenerator};
use hamava_repro::hamava::harness::DeploymentOptions;
use hamava_repro::scenario::{Protocol, Scenario, ScenarioBuilder, ScenarioEvent};
use hamava_repro::simnet::{CostModel, LatencyModel};
use hamava_repro::types::{ClusterId, Duration, Output, Region, ReplicaId, SystemConfig, Time};
use hamava_repro::workload::WorkloadSpec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn quick_opts() -> DeploymentOptions {
    DeploymentOptions {
        seed: 77,
        latency: LatencyModel::paper_table2(),
        costs: CostModel::cloud_vm(),
        workload: WorkloadSpec { key_space: 500, ..WorkloadSpec::default() },
        clients_per_cluster: 1,
        client_concurrency: 32,
        store: None,
        state_machine: hamava_repro::hamava::StateMachineKind::Counter,
    }
}

fn small_config() -> SystemConfig {
    let mut config = SystemConfig::homogeneous_regions(&[(4, Region::UsWest), (4, Region::Europe)]);
    config.params.batch_size = 20;
    config.params.remote_leader_timeout = Duration::from_secs(4);
    config.params.brd_timeout = Duration::from_secs(4);
    config.params.local_timeout = Duration::from_secs(4);
    config
}

/// A fixed `(time, event)` multiset covering every event category: fault,
/// recovery, churn, client management, and network shaping.
fn event_multiset() -> Vec<(Time, ScenarioEvent)> {
    vec![
        (Time::from_secs(3), ScenarioEvent::Crash { replica: ReplicaId(1) }),
        (Time::from_secs(6), ScenarioEvent::Restart { replica: ReplicaId(1) }),
        (Time::from_secs(3), ScenarioEvent::Join { cluster: ClusterId(0), region: Region::UsWest }),
        (Time::from_secs(3), ScenarioEvent::Leave { replica: ReplicaId(6) }),
        (Time::from_secs(5), ScenarioEvent::Partition { a: ClusterId(0), b: ClusterId(1) }),
        (Time::from_secs(7), ScenarioEvent::Heal { a: ClusterId(0), b: ClusterId(1) }),
        (
            Time::from_secs(7),
            ScenarioEvent::ClientJoin {
                cluster: ClusterId(1),
                workload: WorkloadSpec { key_space: 500, ..WorkloadSpec::default() },
            },
        ),
        (
            Time::from_secs(9),
            ScenarioEvent::WorkloadSwitch {
                cluster: ClusterId(0),
                workload: WorkloadSpec { key_space: 500, ..WorkloadSpec::default() }.write_only(),
            },
        ),
        (Time::from_secs(9), ScenarioEvent::LatencyShift { latency: LatencyModel::uniform(100.0) }),
    ]
}

fn run_with_insertion_order(order: &[usize]) -> Vec<Output> {
    let events = event_multiset();
    let mut builder: ScenarioBuilder = Scenario::builder(Protocol::AvaHotStuff, small_config())
        .options(quick_opts())
        .store(hamava_repro::store::StoreConfig::every(4))
        .run_for(Duration::from_secs(12));
    for &i in order {
        let (at, ev) = events[i].clone();
        builder = builder.at(at, ev);
    }
    builder.build().run().outputs
}

fn canonical_outputs() -> &'static [Output] {
    static CANONICAL: std::sync::OnceLock<Vec<Output>> = std::sync::OnceLock::new();
    CANONICAL.get_or_init(|| run_with_insertion_order(&[0, 1, 2, 3, 4, 5, 6, 7, 8]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Any permutation of the same `(time, event)` multiset yields an identical
    /// `Output` stream: the schedule is a set, not a program, so how it was
    /// assembled cannot matter.
    #[test]
    fn schedule_permutations_yield_identical_output_streams(shuffle_seed in 1u64..1_000_000) {
        let mut order: Vec<usize> = (0..event_multiset().len()).collect();
        // Fisher–Yates with a per-case seed.
        let mut rng = StdRng::seed_from_u64(shuffle_seed);
        for i in (1..order.len()).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let permuted = run_with_insertion_order(&order);
        prop_assert_eq!(permuted.len(), canonical_outputs().len());
        prop_assert!(
            permuted == canonical_outputs(),
            "permuted insertion order {:?} diverged from the canonical stream",
            order
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Schedules drawn from the fuzzer's `ScheduleGenerator` are well-formed
    /// builder input in any insertion order: re-inserting the drawn
    /// `(time, event)` multiset shuffled must pass `try_build` validation and
    /// sort to the same canonical schedule the fuzz case itself builds. This
    /// pins the generator's well-formedness contract (fault budgets, healed
    /// partitions, restart-after-crash) against the builder's validator across
    /// every event kind the generator can draw — including `Restart`, which the
    /// hand-written multiset above covers only in one fixed position.
    #[test]
    fn generator_drawn_schedules_survive_builder_permutations(
        case_seed in 0u64..10_000,
        shuffle_seed in 1u64..1_000_000,
    ) {
        let generator = ScheduleGenerator::new(FuzzConfig::quick());
        let case = generator.case(case_seed);
        let entries = case.schedule.sorted();
        prop_assume!(!entries.is_empty());
        let mut order: Vec<usize> = (0..entries.len()).collect();
        let mut rng = StdRng::seed_from_u64(shuffle_seed);
        for i in (1..order.len()).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let mut builder: ScenarioBuilder = Scenario::builder(case.protocol, case.config.clone())
            .options(case.opts.clone())
            .run_for(case.run);
        for &i in &order {
            let (at, ev) = entries[i].clone();
            builder = builder.at(at, ev);
        }
        let built = builder.try_build();
        prop_assert!(
            built.is_ok(),
            "seed {} order {:?} failed validation: {:?}",
            case_seed,
            order,
            built.err()
        );
        let canonical = format!("{:?}", case.scenario().schedule().sorted());
        prop_assert_eq!(format!("{:?}", built.unwrap().schedule().sorted()), canonical);
    }
}

#[test]
fn the_canonical_scenario_made_progress_through_every_event_kind() {
    // Guard that the permutation property is not vacuously comparing empty runs.
    let outputs = canonical_outputs();
    assert!(outputs.iter().any(|o| matches!(o, Output::TxCompleted { .. })));
    assert!(
        outputs.iter().any(|o| matches!(o, Output::ReconfigApplied { joined: true, .. })),
        "the scheduled join must be applied"
    );
    assert!(
        outputs.iter().any(|o| matches!(o, Output::ReplicaRestarted { replica, .. }
            if *replica == ReplicaId(1))),
        "the scheduled restart must fire"
    );
    assert!(
        outputs.iter().any(|o| matches!(o, Output::RecoveryCompleted { replica, .. }
            if *replica == ReplicaId(1))),
        "the restarted replica must catch up"
    );
}

#[test]
fn latency_shift_scenario_runs_end_to_end() {
    // The two scenario shapes impossible before the redesign, smoke-tested from the
    // umbrella crate: a latency shift (here) and a partition+heal (end_to_end.rs).
    let run = Scenario::builder(Protocol::AvaBftSmart, small_config())
        .options(quick_opts())
        .run_for(Duration::from_secs(10))
        .latency_shift_at(Time::from_secs(5), LatencyModel::uniform(219.0))
        .build()
        .run();
    let before = run
        .outputs
        .iter()
        .filter(|o| {
            matches!(o, Output::TxCompleted { completed_at, .. }
                if completed_at.as_secs_f64() < 5.0)
        })
        .count();
    let after = run
        .outputs
        .iter()
        .filter(|o| {
            matches!(o, Output::TxCompleted { completed_at, .. }
                if completed_at.as_secs_f64() >= 5.0)
        })
        .count();
    assert!(before > 0 && after > 0, "progress on both sides of the shift");
}

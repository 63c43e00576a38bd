//! Determinism golden tests.
//!
//! A fixed-seed two-cluster scenario must produce a byte-identical `Output` stream
//! and identical `NetStats` on every run — and, crucially, across refactors: the
//! PR 2 zero-copy work and the PR 3 scenario-API redesign held the PR 2 captures
//! byte-identical, proving those changes behavior-preserving. The constants below
//! were re-captured at PR 6, whose deterministic round partition (height-anchored
//! packing + committed `RoundCut` markers, DESIGN.md §7) intentionally changes
//! every run's block-to-round assignment.
//!
//! If a change *intentionally* alters scheduling (new message kinds, different
//! timers), re-capture the constants by running
//! `cargo test --test determinism -- --nocapture` and copying the printed values —
//! and say so in the PR.

use hamava_repro::crypto::sha256::Sha256;
use hamava_repro::hamava::harness::DeploymentOptions;
use hamava_repro::scenario::{Protocol, Scenario, ScenarioRun};
use hamava_repro::simnet::{CostModel, LatencyModel, NetStats};
use hamava_repro::types::{Duration, Output, Region, SystemConfig, Time};
use hamava_repro::workload::WorkloadSpec;
use std::fmt::Write as _;

/// Fingerprint of the AVA-HOTSTUFF golden run. Captured at PR 2 (pre-refactor),
/// held byte-identical through PR 3/PR 5, re-captured at PR 6: the
/// deterministic round partition (height-anchored packing + committed
/// `RoundCut` markers, DESIGN.md §7) intentionally changes every run's
/// block-to-round assignment and message stream.
const HOTSTUFF_GOLDEN: &str = "03fb3aa5d5caa1dc0f9313c95d4e8c1de8918778462ddec0db3b6857d3cde693";

/// Fingerprint of the AVA-BFTSMART golden run, captured at PR 2 and re-captured
/// at PR 6 (same reason as [`HOTSTUFF_GOLDEN`]).
const BFTSMART_GOLDEN: &str = "a14686b45e2ffc921bb637979f9abb7cc20199aec15222a87d23447ca63e9e11";

fn golden_opts() -> DeploymentOptions {
    DeploymentOptions {
        seed: 2024,
        latency: LatencyModel::paper_table2(),
        costs: CostModel::cloud_vm(),
        workload: WorkloadSpec { key_space: 1_000, ..WorkloadSpec::default() },
        clients_per_cluster: 1,
        client_concurrency: 32,
        store: None,
        state_machine: hamava_repro::hamava::StateMachineKind::Counter,
    }
}

fn golden_config() -> SystemConfig {
    let mut config = SystemConfig::even_split_single_region(8, 2, Region::UsWest);
    config.params.batch_size = 20;
    config
}

fn fingerprint(outputs: &[Output], stats: &NetStats) -> String {
    let mut h = Sha256::new();
    let mut line = String::new();
    for o in outputs {
        line.clear();
        let _ = writeln!(line, "{o:?}");
        h.update(line.as_bytes());
    }
    h.update(
        format!(
            "local={} global={} bytes={} dropped={} events={}\n",
            stats.local_messages,
            stats.global_messages,
            stats.bytes_sent,
            stats.dropped_messages,
            stats.events_processed
        )
        .as_bytes(),
    );
    for ((from, to), count) in stats.per_group_pair() {
        h.update(format!("{from}->{to}={count}\n").as_bytes());
    }
    h.finalize().iter().map(|b| format!("{b:02x}")).collect()
}

fn run_protocol(protocol: Protocol) -> String {
    let run = Scenario::builder(protocol, golden_config())
        .options(golden_opts())
        .run_for(Duration::from_secs(8))
        .build()
        .run();
    fingerprint(&run.outputs, &run.stats)
}

#[test]
fn hotstuff_golden_fingerprint_is_stable() {
    let fp = run_protocol(Protocol::AvaHotStuff);
    println!("hotstuff fingerprint: {fp}");
    assert_eq!(fp, HOTSTUFF_GOLDEN, "AVA-HOTSTUFF golden run diverged from PR 2 capture");
}

#[test]
fn bftsmart_golden_fingerprint_is_stable() {
    let fp = run_protocol(Protocol::AvaBftSmart);
    println!("bftsmart fingerprint: {fp}");
    assert_eq!(fp, BFTSMART_GOLDEN, "AVA-BFTSMART golden run diverged from PR 2 capture");
}

/// The opt-in handler profile reads the host clock and nothing else: the same
/// deployment run with it on produces the outputs and `NetStats` of the run
/// with it off, byte for byte.
#[test]
fn handler_profile_does_not_change_the_run() {
    let run = |profiled: bool| {
        let mut dep = Protocol::AvaHotStuff.deploy(golden_config(), golden_opts());
        if profiled {
            dep.enable_profile();
        }
        dep.run_for(Duration::from_secs(8));
        let kinds = dep.handler_profile().map_or(0, |profile| profile.rows().count());
        (fingerprint(dep.outputs(), dep.net_stats()), kinds)
    };
    let (plain, no_kinds) = run(false);
    let (profiled, kinds) = run(true);
    assert_eq!(plain, HOTSTUFF_GOLDEN, "a bare deployment is the golden scenario run");
    assert_eq!(profiled, plain, "switching the profile on changed the run");
    assert_eq!(no_kinds, 0, "the profile is off unless switched on");
    assert!(kinds >= 8, "expected the TOB, BRD and client kinds, got {kinds} buckets");
}

#[test]
fn fingerprint_is_reproducible_within_a_process() {
    assert_eq!(run_protocol(Protocol::AvaHotStuff), run_protocol(Protocol::AvaHotStuff));
}

/// Fingerprint of the crash → restart → catch-up golden run (store enabled,
/// checkpoint every 4 rounds), captured at PR 5 and re-captured at PR 6 (same
/// reason as [`HOTSTUFF_GOLDEN`]; this one additionally picks up the
/// checkpoint-committed packing anchor).
const RECOVERY_GOLDEN: &str = "eb2ec0151f32967e5010031bee610ccc548dc0dce57adede28c3028e9d3fad60";

fn run_recovery_golden() -> String {
    let run = Scenario::builder(Protocol::AvaHotStuff, golden_config())
        .options(golden_opts())
        .store(hamava_repro::store::StoreConfig::every(4))
        .run_for(Duration::from_secs(8))
        .crash_at(hamava_repro::types::Time::from_secs(2), hamava_repro::types::ReplicaId(1))
        .restart_at(hamava_repro::types::Time::from_secs(4), hamava_repro::types::ReplicaId(1))
        .build()
        .run();
    assert!(
        run.outputs.iter().any(|o| matches!(o, Output::RecoveryCompleted { .. })),
        "the golden run must exercise the catch-up path"
    );
    fingerprint(&run.outputs, &run.stats)
}

#[test]
fn crash_restart_catch_up_golden_fingerprint_is_stable() {
    // A store-enabled crash → restart → catch-up run is as deterministic as a
    // plain run: the store appends, checkpoint digests, restart event and the
    // state-transfer exchange all replay identically under the same seed.
    let fp = run_recovery_golden();
    println!("recovery fingerprint: {fp}");
    assert_eq!(fp, RECOVERY_GOLDEN, "crash→restart→catch-up golden run diverged from PR 5 capture");
}

/// Schedule fingerprint of fuzz seed 42 under the quick profile — pins
/// `ScheduleGenerator`'s drawing order (a reordered draw would silently change
/// what every CI seed number means). Re-captured when the unused
/// operation-size parameter left the case encoding (the output golden below
/// did not move).
const FUZZ_SCHEDULE_GOLDEN: &str =
    "1364a20974a148d001e1d2d309f69b8a661e68f66ca30bcc3dfe596ef2bd6255";

/// Output fingerprint of running fuzz seed 42, captured at PR 6 — pins the
/// whole chain from seed to output stream, the property failing-seed
/// reproducibility rests on.
const FUZZ_OUTPUT_GOLDEN: &str = "ba53fe6b3e7938dd414ede2e950897b9a70f268bf731a01aed2a282312a872a1";

#[test]
fn fuzz_case_golden_fingerprints_are_stable() {
    use hamava_repro::fuzz::{run_case, FuzzConfig, ScheduleGenerator};
    let case = ScheduleGenerator::new(FuzzConfig::quick()).case(42);
    println!("fuzz schedule fingerprint: {}", case.fingerprint());
    let report = run_case(&case);
    println!("fuzz output fingerprint: {}", report.output_digest);
    assert!(report.passed(), "fuzz seed 42 must pass the checkers: {:?}", report.violations);
    assert_eq!(
        case.fingerprint(),
        FUZZ_SCHEDULE_GOLDEN,
        "fuzz schedule generation diverged from its capture"
    );
    assert_eq!(
        report.output_digest, FUZZ_OUTPUT_GOLDEN,
        "fuzz seed 42's run diverged from the PR 6 capture"
    );
}

/// Fingerprint of the keyed-KV golden run, captured at PR 10 when the
/// `ava-state` subsystem landed. Same scenario as [`HOTSTUFF_GOLDEN`] but with
/// `StateMachineKind::Kv`: versioned values, per-round `StateDigest` outputs
/// and value-byte execution costs all join the fingerprint, so any drift in
/// the KV machine's apply order, set-hash digest or snapshot-backed costs
/// shows up here even though the counter goldens above cannot see it.
/// Re-captured when the KV leaf hash moved from SHA-256 to BLAKE2s: only the
/// `StateDigest` digests changed ([`KV_DIGEST_BLIND_GOLDENS`] held).
const KV_GOLDEN: &str = "542188a97c621a9196f503a03424ebf4fac0c716cf93cd59584c491e6505f85b";

fn kv_golden_opts() -> DeploymentOptions {
    DeploymentOptions { state_machine: hamava_repro::hamava::StateMachineKind::Kv, ..golden_opts() }
}

fn run_kv_golden() -> ScenarioRun {
    let run = Scenario::builder(Protocol::AvaHotStuff, golden_config())
        .options(kv_golden_opts())
        .run_for(Duration::from_secs(8))
        .build()
        .run();
    assert!(
        run.outputs.iter().any(|o| matches!(o, Output::StateDigest { .. })),
        "the KV golden run must emit per-round state digests"
    );
    run
}

#[test]
fn kv_state_machine_golden_fingerprint_is_stable() {
    let run = run_kv_golden();
    let fp = fingerprint(&run.outputs, &run.stats);
    println!("kv fingerprint: {fp}");
    assert_eq!(fp, KV_GOLDEN, "keyed-KV golden run diverged from its capture");
}

/// Digest-blind fingerprints of the keyed-KV golden run, of the same
/// deployment through a checkpointing crash → restart → catch-up, and of the
/// `kv-join` entry golden: every `StateDigest` and `CheckpointInstalled`
/// digest is zeroed before fingerprinting. A change to how state is hashed moves [`KV_GOLDEN`] and
/// nothing else; these hold across it, which is the proof that such a change
/// touched only the digests — not scheduling, sizes, costs or outcomes.
/// Captured before the KV leaf hash moved from SHA-256 to BLAKE2s.
const KV_DIGEST_BLIND_GOLDENS: [&str; 3] = [
    "8d5e218ab2c4db3ee0fffa982daa4b2556615b6c651f62d38a6352affd5023c2",
    "819522b3c4e00944afe0f870282c7c679dbf96133c946127467b4935e48a6042",
    "22d938df69bcfdd55f0456dd74329a93dadf427ed09d6a7e3323b06151ea68f0",
];

/// `outputs` with the state and checkpoint digests zeroed.
fn digest_blind(outputs: &[Output]) -> Vec<Output> {
    let mut blind = outputs.to_vec();
    for o in &mut blind {
        if let Output::StateDigest { digest, .. } | Output::CheckpointInstalled { digest, .. } = o {
            **digest = [0; 32];
        }
    }
    blind
}

#[test]
fn kv_golden_runs_are_stable_apart_from_their_digests() {
    use hamava_repro::store::StoreConfig;
    use hamava_repro::types::{ReplicaId, Time};
    let checkpointed = Scenario::builder(Protocol::AvaHotStuff, golden_config())
        .options(kv_golden_opts())
        .store(StoreConfig::every(8))
        .run_for(Duration::from_secs(8))
        .crash_at(Time::from_secs(2), ReplicaId(1))
        .restart_at(Time::from_secs(4), ReplicaId(1))
        .build()
        .run();
    assert!(
        checkpointed.outputs.iter().any(|o| matches!(o, Output::CheckpointInstalled { .. })),
        "the crash → restart run must install checkpoints"
    );
    let runs = [run_kv_golden(), checkpointed, run_entry_golden("kv-join")];
    let fps: Vec<String> =
        runs.iter().map(|run| fingerprint(&digest_blind(&run.outputs), &run.stats)).collect();
    println!("kv digest-blind fingerprints: {fps:#?}");
    assert_eq!(fps, KV_DIGEST_BLIND_GOLDENS, "a keyed-KV run moved beyond its digests");
}

#[test]
fn parallel_executor_matches_serial_byte_for_byte() {
    // The PR 7 parallel-sweep contract: running a list of scenarios on a
    // `RunPool` with 8 workers must produce the same fingerprints, in the same
    // order, as running them one by one on one thread — including against the
    // committed goldens, so cross-thread execution can never silently fork the
    // deterministic schedule. Each scenario owns its whole simulation stack
    // (event queue, RNG, key registry). What scenarios on one thread do share
    // are the two per-thread memos under the KV write path (`ava-state`'s
    // committed entries, `ava-store`'s last checkpoint digest): both hold only
    // values of pure functions of a fully compared key, so they can save work
    // and cannot be observed in any output. The KV scenarios pin that: the
    // serial pass runs the golden twice on one thread (the second on a warm
    // memo, after other deployments that also started at round 1) and then a
    // checkpointing crash → restart run, while the 8 workers run mostly cold.
    use hamava_repro::scenario::RunPool;
    use hamava_repro::store::StoreConfig;
    use hamava_repro::types::{ReplicaId, Time};

    let scenarios = || -> Vec<Scenario> {
        let eight_seconds = |protocol, opts| {
            Scenario::builder(protocol, golden_config())
                .options(opts)
                .run_for(Duration::from_secs(8))
        };
        vec![
            eight_seconds(Protocol::AvaHotStuff, golden_opts()).build(),
            eight_seconds(Protocol::AvaBftSmart, golden_opts()).build(),
            eight_seconds(Protocol::AvaHotStuff, golden_opts()).build(),
            eight_seconds(Protocol::GeoBft, golden_opts()).build(),
            eight_seconds(Protocol::AvaHotStuff, kv_golden_opts()).build(),
            eight_seconds(Protocol::AvaHotStuff, kv_golden_opts())
                .store(StoreConfig::every(8))
                .crash_at(Time::from_secs(2), ReplicaId(1))
                .restart_at(Time::from_secs(4), ReplicaId(1))
                .build(),
            eight_seconds(Protocol::AvaHotStuff, kv_golden_opts()).build(),
        ]
    };
    let fingerprints = |jobs: usize| -> Vec<String> {
        let runs = RunPool::new(jobs).run_scenarios(scenarios());
        let recovered = |o: &Output| matches!(o, Output::RecoveryCompleted { .. });
        let checkpointed = |o: &Output| matches!(o, Output::CheckpointInstalled { .. });
        assert!(
            runs[5].outputs.iter().any(recovered) && runs[5].outputs.iter().any(checkpointed),
            "the crash → restart run must build checkpoints and catch up from one"
        );
        runs.iter().map(|run| fingerprint(&run.outputs, &run.stats)).collect()
    };

    let serial = fingerprints(1);
    let parallel = fingerprints(8);
    assert_eq!(serial, parallel, "8-worker pool diverged from the serial runs");
    assert_eq!(parallel[0], HOTSTUFF_GOLDEN, "pooled AVA-HOTSTUFF run diverged from the golden");
    assert_eq!(parallel[1], BFTSMART_GOLDEN, "pooled AVA-BFTSMART run diverged from the golden");
    // The GeoBFT label runs AVA-BFTSMART with reconfiguration refused; with no
    // join or leave scheduled it is the AVA-BFTSMART run byte for byte.
    assert_eq!(parallel[3], BFTSMART_GOLDEN, "pooled GeoBFT run diverged from AVA-BFTSMART");
    assert_eq!(parallel[0], parallel[2], "same scenario must fingerprint identically in one pool");
    assert_eq!(parallel[4], KV_GOLDEN, "pooled keyed-KV run diverged from the golden");
    assert_eq!(serial[6], KV_GOLDEN, "a warm memo changed the keyed-KV run");
}

#[test]
fn honest_corruption_is_byte_identical_to_the_plain_golden() {
    // The PR 9 adversary suite wraps every replica in a `CorruptReplica`
    // decorator; a `Corrupt` event carrying `ByzantineBehavior::Honest` arms the
    // decorator without any deviation. The equivalence contract: such a run must
    // reproduce the plain golden byte for byte — the decorator drains no sends,
    // draws no randomness and charges no costs while honest.
    use hamava_repro::scenario::ByzantineBehavior;
    use hamava_repro::types::{ReplicaId, Time};
    let run = Scenario::builder(Protocol::AvaHotStuff, golden_config())
        .options(golden_opts())
        .run_for(Duration::from_secs(8))
        .corrupt_at(Time::from_secs(2), ReplicaId(1), ByzantineBehavior::Honest)
        .corrupt_at(Time::from_secs(3), ReplicaId(5), ByzantineBehavior::Honest)
        .build()
        .run();
    assert_eq!(
        fingerprint(&run.outputs, &run.stats),
        HOTSTUFF_GOLDEN,
        "a Corrupt(Honest) run must be byte-identical to the plain golden"
    );
}

/// Fingerprint of a store-enabled AVA-HOTSTUFF run whose schedule holds every
/// `ScenarioEvent` kind once (the E4.3 mute and the silent leader as `Corrupt`
/// behaviors; re-captured when they stopped being events of their own): it
/// pins what each event does to the simulator, which the permutation property in
/// `scenario_api.rs` cannot see (two arms swapped would still permute alike).
const EVENTS_GOLDEN: &str = "b8601a99c3a3f32d725b108292b876accadd7a8ecdb60cc69a5e9538f65ee180";

/// The same schedule on AVA-BFTSMART: the golden that takes BFT-SMaRt through
/// a local leader change (the run asserts one).
const EVENTS_BFTSMART_GOLDEN: &str =
    "209a60a82c1792b5126c75e815d16d04dc19080b79c72737bbcdc3acd22bcf93";

fn run_events_golden(protocol: Protocol) -> String {
    use hamava_repro::scenario::{ByzantineBehavior, ScenarioEvent};
    use hamava_repro::types::{ClusterId, ReplicaId, Time};
    // Three clusters of 7 (f = 2): cluster 0 loses a crashed-then-restarted
    // replica and a corrupt one, cluster 1 a muted and a silenced one, and
    // cluster 2 swaps a leaving replica for a joining one.
    let mut config = SystemConfig::even_split_single_region(21, 3, Region::UsWest);
    config.params.batch_size = 20;
    config.params.remote_leader_timeout = Duration::from_secs(4);
    config.params.brd_timeout = Duration::from_secs(4);
    config.params.local_timeout = Duration::from_secs(4);
    let write_only = WorkloadSpec { key_space: 1_000, ..WorkloadSpec::default() }.write_only();
    let s = Time::from_secs;
    let events = [
        (s(2), ScenarioEvent::Crash { replica: ReplicaId(1) }),
        (
            s(2),
            ScenarioEvent::Corrupt {
                replica: ReplicaId(2),
                behavior: ByzantineBehavior::SuppressShares { permille: 500 },
            },
        ),
        (
            s(3),
            ScenarioEvent::Corrupt {
                replica: ReplicaId(8),
                behavior: ByzantineBehavior::MuteInter,
            },
        ),
        (
            s(3),
            ScenarioEvent::Corrupt {
                replica: ReplicaId(9),
                behavior: ByzantineBehavior::SilentLeader,
            },
        ),
        (s(3), ScenarioEvent::Join { cluster: ClusterId(2), region: Region::UsWest }),
        (s(3), ScenarioEvent::Leave { replica: ReplicaId(20) }),
        (s(4), ScenarioEvent::Restart { replica: ReplicaId(1) }),
        (s(5), ScenarioEvent::Partition { a: ClusterId(0), b: ClusterId(1) }),
        (
            s(5),
            ScenarioEvent::ClientJoin {
                cluster: ClusterId(1),
                workload: WorkloadSpec { key_space: 1_000, ..WorkloadSpec::default() },
            },
        ),
        (s(6), ScenarioEvent::Heal { a: ClusterId(0), b: ClusterId(1) }),
        (s(7), ScenarioEvent::WorkloadSwitch { cluster: ClusterId(2), workload: write_only }),
        (s(7), ScenarioEvent::LatencyShift { latency: LatencyModel::uniform(100.0) }),
    ];
    let kinds: std::collections::BTreeSet<&str> = events.iter().map(|(_, e)| e.kind()).collect();
    assert_eq!(kinds.len(), 10, "the schedule must hold every event kind");
    let mut builder = Scenario::builder(protocol, config)
        .options(golden_opts())
        .store(hamava_repro::store::StoreConfig::every(4))
        .run_for(Duration::from_secs(10));
    for (at, event) in events {
        builder = builder.at(at, event);
    }
    let run = builder.build().run();
    assert!(
        run.outputs.iter().any(|o| matches!(o, Output::TxCompleted { completed_at, .. }
            if *completed_at > s(7))),
        "the golden run must still commit after its last event"
    );
    assert!(
        run.outputs.iter().any(|o| matches!(o, Output::LeaderChanged { .. })),
        "the golden run must change a local leader"
    );
    fingerprint(&run.outputs, &run.stats)
}

#[test]
fn every_event_kind_golden_fingerprint_is_stable() {
    let fp = run_events_golden(Protocol::AvaHotStuff);
    println!("events fingerprint: {fp}");
    assert_eq!(fp, EVENTS_GOLDEN, "every-event-kind golden run diverged from its capture");
}

#[test]
fn every_event_kind_bftsmart_golden_fingerprint_is_stable() {
    let fp = run_events_golden(Protocol::AvaBftSmart);
    println!("events bftsmart fingerprint: {fp}");
    assert_eq!(
        fp, EVENTS_BFTSMART_GOLDEN,
        "every-event-kind AVA-BFTSMART run diverged from its capture"
    );
}

/// Fingerprints of the four ways a replica enters a round after start-up,
/// captured before join, catch-up adoption and the solo fallback shared one
/// `Replica::enter`. Each run asserts that its path fired. `kv-join` was
/// re-captured when the KV leaf hash moved from SHA-256 to BLAKE2s: only its
/// `StateDigest` digests changed ([`KV_DIGEST_BLIND_GOLDENS`] held).
const ENTRY_GOLDENS: [(&str, &str); 7] = [
    ("storeless-catch-up", "768e3440a39ac934c7e60ebde6f31599eeb2c569b96d096552031559d45331a2"),
    ("straggler-escape", "2793511770ccd7fe526710af13d1ffa75c3b7fc41e73a6ca05739a3f635f74d8"),
    ("solo-fallback/A.H", "5a3df4bb3c149f5d993d592a2564b795b417a1675766599fe574b42413619012"),
    ("solo-fallback/A.H/store", "a37fa2793dc906ed383fe122a8d4d3672fb94cc346eb98242397182a1f76cc41"),
    ("solo-fallback/A.B", "429be8bc516ce151b4a9c51e2644d026f12a360ca017f40dba5d229dab9c57b9"),
    ("solo-fallback/A.B/store", "fc85e2c9c0a184f7bc14257b297f05283656484f64c968360d27039cd03ac4df"),
    ("kv-join", "0a8306b6fb4cb3a24e6676c8d03ca00a4581f1c8de756af5cd1a35366aac9e01"),
];

fn custom_outputs<'a>(run: &'a ScenarioRun, name: &'a str) -> impl Iterator<Item = Time> + 'a {
    run.outputs.iter().filter_map(move |o| match o {
        Output::Custom { name: n, at, .. } if *n == name => Some(*at),
        _ => None,
    })
}

/// Runs the entry path `name` of [`ENTRY_GOLDENS`] and checks that it fired.
fn run_entry_golden(name: &str) -> ScenarioRun {
    use hamava_repro::store::StoreConfig;
    use hamava_repro::types::{ClusterId, ReplicaId};
    let s = Time::from_secs;
    let run = match name {
        // `tests/recovery.rs`'s storeless catch-up: peers synthesize checkpoints.
        "storeless-catch-up" => {
            let mut config =
                SystemConfig::homogeneous_regions(&[(7, Region::UsWest), (7, Region::Europe)]);
            config.params.batch_size = 20;
            config.params.remote_leader_timeout = Duration::from_secs(4);
            config.params.brd_timeout = Duration::from_secs(4);
            config.params.local_timeout = Duration::from_secs(4);
            let run = Scenario::builder(Protocol::AvaBftSmart, config)
                .seed(5)
                .workload(WorkloadSpec { key_space: 1_000, ..WorkloadSpec::default() })
                .run_for(Duration::from_secs(20))
                .crash_at(s(4), ReplicaId(1))
                .restart_at(s(8), ReplicaId(1))
                .build()
                .run();
            assert!(run.outputs.iter().any(|o| matches!(o, Output::RecoveryCompleted { .. })));
            run
        }
        // A replica back from a short crash lands in a round its cluster has
        // finished, and escapes by catching up in place, three times.
        "straggler-escape" => {
            let mut config = SystemConfig::even_split_single_region(11, 2, Region::UsWest);
            config.params.batch_size = 20;
            config.params.local_timeout = Duration::from_secs(4);
            let run = Scenario::builder(Protocol::AvaHotStuff, config)
                .seed(11)
                .workload(WorkloadSpec { key_space: 1_000, ..WorkloadSpec::default() })
                .store(StoreConfig::every(4))
                .run_for(Duration::from_secs(10))
                .crash_at(s(2), ReplicaId(1))
                .restart_at(s(4), ReplicaId(1))
                .crash_at(s(6), ReplicaId(2))
                .restart_at(Time::from_millis(6_300), ReplicaId(2))
                .build()
                .run();
            assert_eq!(custom_outputs(&run, "straggler_catch_up").count(), 3);
            run
        }
        // A whole cluster restarts: nobody can answer, so every member resumes
        // alone once `local_timeout` has passed.
        solo if solo.starts_with("solo-fallback/") => {
            let protocol =
                if solo.contains("A.H") { Protocol::AvaHotStuff } else { Protocol::AvaBftSmart };
            let mut config = golden_config();
            config.params.local_timeout = Duration::from_secs(2);
            let mut builder = Scenario::builder(protocol, config)
                .options(golden_opts())
                .run_for(Duration::from_secs(8));
            if solo.ends_with("/store") {
                builder = builder.store(StoreConfig::every(4));
            }
            for replica in (0..4).map(ReplicaId) {
                builder = builder.crash_at(s(3), replica).restart_at(s(5), replica);
            }
            let run = builder.build().run();
            let fallbacks: Vec<Time> = custom_outputs(&run, "recovery_solo_fallback").collect();
            assert_eq!(fallbacks, vec![s(7); 4], "{solo}");
            run
        }
        "kv-join" => {
            let run = Scenario::builder(Protocol::AvaHotStuff, golden_config())
                .options(kv_golden_opts())
                .run_for(Duration::from_secs(8))
                .join_at(s(3), ClusterId(0), Region::UsWest)
                .build()
                .run();
            let joiner = run.joined[0];
            assert!(run.outputs.iter().any(|o| matches!(o,
                Output::ReconfigApplied { replica, reporter, joined: true, .. }
                    if *replica == joiner && *reporter == joiner)));
            run
        }
        other => panic!("no entry golden named {other}"),
    };
    run
}

#[test]
fn entry_path_golden_fingerprints_are_stable() {
    for (name, golden) in ENTRY_GOLDENS {
        let run = run_entry_golden(name);
        let fp = fingerprint(&run.outputs, &run.stats);
        println!("entry fingerprint {name}: {fp}");
        assert_eq!(fp, golden, "entry path {name} diverged from its capture");
    }
}

#[test]
fn observers_and_ticks_do_not_perturb_the_run() {
    // Attaching observers chunks the run into tick-bounded `run_until` segments;
    // scheduling must be bit-identical to the unobserved run.
    struct Counter(usize);
    impl hamava_repro::scenario::RunObserver for Counter {
        fn on_output(&mut self, _output: &Output) {
            self.0 += 1;
        }
    }
    let mut counter = Counter(0);
    let observed = Scenario::builder(Protocol::AvaHotStuff, golden_config())
        .options(golden_opts())
        .run_for(Duration::from_secs(8))
        .tick_every(Duration::from_millis(500))
        .build()
        .run_observed(&mut [&mut counter]);
    let fp = fingerprint(&observed.outputs, &observed.stats);
    assert_eq!(fp, HOTSTUFF_GOLDEN, "tick-chunked run diverged from the golden capture");
    assert_eq!(counter.0, observed.outputs.len(), "observer must see every output exactly once");
}

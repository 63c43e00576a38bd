//! Crash → restart → catch-up integration tests: the `ava-store` round log +
//! checkpoint subsystem, the `Restart` scenario event, and the `RecoveryObserver`
//! probe working together, and the catch-up messages one replica at a time.

#[path = "common/recorders.rs"]
mod recorders;

use hamava_repro::hamava::AvaMsg;
use hamava_repro::scenario::{
    Protocol, RecoveryObserver, Scenario, ScenarioBuilder, ThroughputObserver,
};
use hamava_repro::simnet::SimMessage;
use hamava_repro::state::StateSnapshot;
use hamava_repro::store::{Checkpoint, StoreConfig};
use hamava_repro::types::{
    fault_threshold, Duration, Output, Region, ReplicaId, Round, SystemConfig, Time,
};
use hamava_repro::workload::WorkloadSpec;
use recorders::{one_replica_among_recorders, received};
use std::sync::Arc;

fn config() -> SystemConfig {
    let mut config = SystemConfig::homogeneous_regions(&[(7, Region::UsWest), (7, Region::Europe)]);
    config.params.batch_size = 20;
    config.params.remote_leader_timeout = Duration::from_secs(4);
    config.params.brd_timeout = Duration::from_secs(4);
    config.params.local_timeout = Duration::from_secs(4);
    config
}

/// E4.1-style shape with recovery: crash f non-leader replicas per cluster at 4 s,
/// restart them at `restart_secs`.
fn crash_restart_scenario(restart_secs: u64, run_secs: u64) -> ScenarioBuilder {
    let config = config();
    let crash_at = Time::from_secs(4);
    let restart_at = Time::from_secs(restart_secs);
    let mut builder = Scenario::builder(Protocol::AvaHotStuff, config.clone())
        .seed(11)
        .workload(WorkloadSpec { key_space: 1_000, ..WorkloadSpec::default() })
        .store(StoreConfig::every(4))
        .run_for(Duration::from_secs(run_secs));
    for cluster in &config.clusters {
        let f = fault_threshold(cluster.replicas.len());
        for (id, _) in cluster.replicas.iter().skip(1).take(f) {
            builder = builder.crash_at(crash_at, *id).restart_at(restart_at, *id);
        }
    }
    builder
}

#[test]
fn restarted_replicas_catch_up_via_checkpoint_and_log_suffix() {
    let mut recovery = RecoveryObserver::new();
    let run = crash_restart_scenario(8, 24).build().run_observed(&mut [&mut recovery]);

    // Four replicas (f=2 per cluster, two clusters) restarted and every one of
    // them completed its catch-up well before the run ended.
    assert_eq!(recovery.traces().len(), 4, "all four crashed replicas must restart");
    assert!(recovery.all_caught_up(), "every restarted replica must catch up: {recovery:?}");
    let ttc = recovery.max_time_to_caught_up().expect("all caught up");
    assert!(ttc < Duration::from_secs(8), "catch-up should finish within seconds, took {ttc}");
    // The crash window spans several rounds, so real state must have moved: a
    // checkpoint and/or log suffix was transferred, not just an empty handshake.
    assert!(recovery.total_rounds_transferred() > 0, "recovery must transfer rounds");
    assert!(recovery.total_bytes_transferred() > 0, "recovery must transfer bytes");
    // The restarted replicas rejoin ordering: they report executed rounds after
    // their catch-up round.
    for (replica, trace) in recovery.traces() {
        let caught_up = trace.caught_up_round.expect("caught up");
        assert!(
            run.outputs.iter().any(|o| matches!(o, Output::RoundExecuted { replica: r, round, .. }
                if r == replica && *round >= caught_up)),
            "{replica} must execute rounds after rejoining at {caught_up}"
        );
    }
}

#[test]
fn throughput_recovers_after_restart() {
    // Acceptance gate for the crash path: with crashed replicas restarted and
    // caught up, end-of-run throughput must recover to ≥ 80% of the pre-crash
    // rate (quick scale).
    let mut throughput = ThroughputObserver::new(Duration::from_secs(2));
    let mut recovery = RecoveryObserver::new();
    crash_restart_scenario(8, 24).build().run_observed(&mut [&mut throughput, &mut recovery]);
    assert!(recovery.all_caught_up());

    let series = throughput.series();
    // Pre-crash rate: the 2–4 s bucket (warm, before the 4 s crash). Post-recovery
    // rate: the best of the last three buckets (recovery ramp).
    let rate_at = |t: f64| {
        series
            .iter()
            .find(|(bucket_end, _)| (*bucket_end - t).abs() < 1e-9)
            .map(|(_, tps)| *tps)
            .unwrap_or(0.0)
    };
    let pre_crash = rate_at(4.0);
    let post_recovery = series.iter().rev().take(3).map(|(_, tps)| *tps).fold(0.0f64, f64::max);
    assert!(pre_crash > 0.0, "pre-crash throughput must be nonzero");
    assert!(
        post_recovery >= 0.8 * pre_crash,
        "post-recovery throughput {post_recovery:.1} must reach 80% of pre-crash {pre_crash:.1}; \
         series: {series:?}"
    );
}

#[test]
fn kv_machine_catch_up_transfers_snapshot_bytes_and_rejoins_with_matching_digest() {
    // PR 10: with the keyed KV machine the checkpoint carries a real state
    // snapshot (keys + versioned values), not just a counter — catch-up must
    // move those bytes, and the recovered replica's post-rejoin state digest
    // must agree with its peers' digest for the same round (the same property
    // the execution-agreement checker enforces globally).
    use hamava_repro::types::{ReplicaId, Round};
    use std::collections::BTreeMap;

    let mut recovery = RecoveryObserver::new();
    let run = crash_restart_scenario(8, 24)
        .state_machine(hamava_repro::hamava::StateMachineKind::Kv)
        .build()
        .run_observed(&mut [&mut recovery]);

    assert_eq!(recovery.traces().len(), 4, "all four crashed replicas must restart");
    assert!(recovery.all_caught_up(), "every restarted replica must catch up: {recovery:?}");

    // The adopted checkpoint carried a populated snapshot: every completed
    // recovery reports nonzero transferred bytes.
    for o in &run.outputs {
        if let Output::RecoveryCompleted { replica, bytes_transferred, .. } = o {
            assert!(
                *bytes_transferred > 0,
                "{replica} recovered without transferring snapshot bytes"
            );
        }
    }
    // And the snapshot was adopted from peers, not taken locally.
    assert!(
        run.outputs.iter().any(|o| matches!(o, Output::CheckpointInstalled { adopted: true, .. })),
        "catch-up must install an adopted peer checkpoint"
    );

    // Index every (replica, round) -> digest report.
    let mut digests: BTreeMap<(ReplicaId, Round), [u8; 32]> = BTreeMap::new();
    let mut entries_seen = 0u64;
    for o in &run.outputs {
        if let Output::StateDigest { replica, round, digest, entries, .. } = o {
            digests.insert((*replica, *round), **digest);
            entries_seen = entries_seen.max(*entries);
        }
    }
    assert!(entries_seen > 0, "the KV run must commit real keys");

    for (&replica, trace) in recovery.traces() {
        let caught_up = trace.caught_up_round.expect("caught up");
        // The recovered replica's latest digest report after rejoining...
        let (&(_, round), own) = digests
            .iter()
            .filter(|((r, round), _)| *r == replica && *round >= caught_up)
            .next_back()
            .unwrap_or_else(|| panic!("{replica} reported no state digest after {caught_up}"));
        // ...must match every peer that reported the same round.
        let peers = digests
            .iter()
            .filter(|((r, rd), _)| *r != replica && *rd == round)
            .map(|(_, d)| d)
            .collect::<Vec<_>>();
        assert!(!peers.is_empty(), "some peer must also report round {round}");
        for peer in peers {
            assert_eq!(
                peer, own,
                "{replica}'s post-recovery digest for {round} diverges from its peers"
            );
        }
    }
}

#[test]
fn storeless_deployments_still_recover_via_synthesized_checkpoints() {
    // Without a store, peers synthesize a current-state checkpoint; the restarted
    // replica adopts it once f+1 digests match (rounds move in lockstep).
    let config = config();
    let mut recovery = RecoveryObserver::new();
    Scenario::builder(Protocol::AvaBftSmart, config)
        .seed(5)
        .workload(WorkloadSpec { key_space: 1_000, ..WorkloadSpec::default() })
        .run_for(Duration::from_secs(20))
        .crash_at(Time::from_secs(4), hamava_repro::types::ReplicaId(1))
        .restart_at(Time::from_secs(8), hamava_repro::types::ReplicaId(1))
        .build()
        .run_observed(&mut [&mut recovery]);
    assert_eq!(recovery.traces().len(), 1);
    assert!(recovery.all_caught_up(), "storeless catch-up must still complete: {recovery:?}");
}

#[test]
fn lying_catch_up_peer_is_outvoted_by_digest_agreement() {
    // PR 9 regression: a Byzantine peer serves catch-up requesters a
    // self-consistent lie — a checkpoint rebuilt over tampered state whose
    // digest matches its (tampered) content, so it passes integrity
    // verification. The f+1 distinct-sender digest agreement must outvote it:
    // the restarted replica adopts the honest checkpoint, completes recovery,
    // and records the same-round digest conflict as Byzantine evidence.
    use hamava_repro::scenario::{ByzantineBehavior, ByzantineObserver};
    use hamava_repro::types::{RejectKind, ReplicaId, Time};
    let config = config();
    let mut recovery = RecoveryObserver::new();
    let mut evidence = ByzantineObserver::new();
    let run = Scenario::builder(Protocol::AvaHotStuff, config)
        .seed(11)
        .workload(WorkloadSpec { key_space: 1_000, ..WorkloadSpec::default() })
        .store(StoreConfig::every(4))
        .run_for(Duration::from_secs(24))
        .crash_at(Time::from_secs(4), ReplicaId(1))
        // Corrupt a same-cluster peer while the victim is down, so every
        // catch-up reply it serves after the restart is a lie (well within
        // f = 2 for the 7-replica cluster).
        .corrupt_at(Time::from_secs(5), ReplicaId(2), ByzantineBehavior::LyingCatchUp)
        .restart_at(Time::from_secs(8), ReplicaId(1))
        .build()
        .run_observed(&mut [&mut recovery, &mut evidence]);

    // Recovery still completes, from honest peers.
    assert_eq!(recovery.traces().len(), 1);
    assert!(recovery.all_caught_up(), "digest agreement must outvote the liar: {recovery:?}");
    // The lie was told and rejected: the same-round checkpoint-digest conflict
    // among the offers is recorded as catch-up-checkpoint evidence.
    assert!(
        evidence.rejections_of(RejectKind::CatchUpCheckpoint) > 0,
        "the fabricated checkpoint must surface as rejection evidence"
    );
    // And the rejoined replica executes real rounds afterwards — it adopted the
    // honest state, not the fabricated one.
    let caught_up = recovery.traces()[&ReplicaId(1)].caught_up_round.expect("caught up");
    assert!(
        run.outputs.iter().any(|o| matches!(o, Output::RoundExecuted { replica, round, .. }
            if *replica == ReplicaId(1) && *round >= caught_up)),
        "the recovered replica must rejoin ordering after {caught_up}"
    );
}

#[test]
#[should_panic(expected = "no earlier Crash")]
fn restart_without_crash_is_rejected_at_build_time() {
    let _ = Scenario::builder(Protocol::AvaHotStuff, config())
        .run_for(Duration::from_secs(10))
        .restart_at(Time::from_secs(5), hamava_repro::types::ReplicaId(1))
        .build();
}

#[test]
#[should_panic(expected = "no earlier Crash")]
fn restart_before_its_crash_is_rejected_at_build_time() {
    let _ = Scenario::builder(Protocol::AvaHotStuff, config())
        .run_for(Duration::from_secs(10))
        .crash_at(Time::from_secs(6), hamava_repro::types::ReplicaId(1))
        .restart_at(Time::from_secs(4), hamava_repro::types::ReplicaId(1))
        .build();
}

// ---- the catch-up messages, one real replica among recording stand-ins -----------

/// Three clusters of four; the replica under test is the first of cluster 1
/// (members 4–7, f = 1).
fn three_by_four() -> SystemConfig {
    SystemConfig::even_split_multi_region(
        12,
        3,
        &[Region::UsWest, Region::Europe, Region::AsiaSouth],
    )
}

const UNDER_TEST: ReplicaId = ReplicaId(4);

fn at(ms: u64) -> Time {
    Time::ZERO + Duration::from_millis(ms)
}

fn recovered_at(outputs: &[Output]) -> Option<Round> {
    outputs.iter().find_map(|o| match o {
        Output::RecoveryCompleted { replica, round, .. } if *replica == UNDER_TEST => Some(*round),
        _ => None,
    })
}

/// The `f + 1` agreement argues that one of `f + 1` matching senders is
/// correct, which holds for members of the recovering replica's cluster only:
/// two replicas of other clusters sending the same self-consistent forgery
/// must not be adopted, and the same reply from two members is.
#[test]
fn catch_up_replies_from_other_clusters_do_not_vote() {
    let config = three_by_four();
    let (mut sim, _) = one_replica_among_recorders(&config, UNDER_TEST);
    sim.crash_at(UNDER_TEST, at(10));
    sim.restart_at(UNDER_TEST, at(20));
    let forged = StateSnapshot::counters([(7, 7)]);
    let forged = Arc::new(Checkpoint::new(Round(50), forged, config.membership(), 0, 0));
    assert!(forged.verify(), "the forgery is self-consistent");
    let reply = || AvaMsg::CatchUpReply {
        checkpoint: Arc::clone(&forged),
        suffix: Vec::new(),
        round: Round(51),
        leader_ts: 0,
    };
    for outsider in [ReplicaId(0), ReplicaId(8)] {
        sim.external_send(outsider, UNDER_TEST, reply(), at(40));
    }
    sim.run_until(at(200));
    assert_eq!(recovered_at(sim.outputs()), None, "non-members outvoted the cluster");
    for member in [ReplicaId(5), ReplicaId(6)] {
        sim.external_send(member, UNDER_TEST, reply(), at(200));
    }
    sim.run_until(at(400));
    assert_eq!(recovered_at(sim.outputs()), Some(Round(51)));
}

/// A request names no one: the answer goes to whoever sent it, so no replica
/// can point a member's checkpoint and log suffix at a third node.
#[test]
fn a_catch_up_request_is_answered_to_its_sender() {
    let (mut sim, inbox) = one_replica_among_recorders(&three_by_four(), UNDER_TEST);
    let request: recorders::Msg = AvaMsg::CatchUpRequest;
    assert_eq!(request.size_bytes(), 72);
    sim.external_send(ReplicaId(8), UNDER_TEST, request, at(1));
    sim.run_until(at(100));
    assert_eq!(received(&inbox, 8, "CatchUpReply"), 1);
    assert_eq!(received(&inbox, 0, "CatchUpReply"), 0);
}

//! Canary mutations: deliberate corruptions of a recorded output stream, each of
//! which a specific checker must detect.
//!
//! The canaries are the fuzzer's own falsification test — a checker suite that
//! never fires is indistinguishable from one that cannot fire. Each canary takes
//! the clean output stream of a real run and plants one specific bug a real
//! protocol regression would produce (a forged checkpoint digest, a divergent
//! execution, a dropped recovery, …); replaying the doctored stream through
//! [`CheckerSet::replay`] must produce a violation from the expected checker.

use crate::checkers::{CheckerSet, Violation};
use ava_scenario::{BrokerTier, Protocol, Scenario, ScenarioEvent, Schedule};
use ava_store::StoreConfig;
use ava_types::{
    ClientId, ClusterId, Duration, Output, Region, ReplicaId, SystemConfig, Time, TxId,
};
use ava_workload::{AggregateLoad, WorkloadSpec};

/// One deliberate bug injection.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Canary {
    /// Two replicas report different txn counts for the same executed round
    /// (state divergence).
    DivergentRoundTxns,
    /// A replica reports executing a round it already executed, without a
    /// restart in between (broken prefix property / skipped-round bookkeeping).
    DuplicateRoundExecution,
    /// A replica installs a checkpoint whose digest disagrees with its peers'
    /// for the same round (forged or corrupted snapshot).
    ForgedCheckpointDigest,
    /// An executor applies a reconfiguration its peers did not apply in the
    /// same round (mismatched reconfig set).
    MismatchedReconfigSet,
    /// A restarted replica's `RecoveryCompleted` never arrives (catch-up lost).
    LostRecoveryCompletion,
    /// A virtual client is acked for a write no replica ever committed from a
    /// batch (the broker invented or misrouted an acknowledgement).
    PhantomBrokerAck,
    /// An honest run emits rejection evidence (`ByzantineRejected`) with no
    /// corruption ever scheduled — an honest artifact failed verification,
    /// i.e. a false positive in the evidence path.
    ForgedCertificateRejection,
    /// An honest run emits equivocation evidence (`EquivocationObserved`) with
    /// no package-mutating corruption ever scheduled — a false accusation.
    UnjustifiedEquivocationEvidence,
    /// Two replicas report different full-state digests for the same executed
    /// round (a planted value mismatch the txn-count arm cannot see: both
    /// executed the same *number* of transactions but diverged on the bytes).
    /// Needs the KV state machine — the legacy counter emits no `StateDigest`.
    DivergentStateDigest,
}

impl Canary {
    /// Every canary, in suite order.
    pub const ALL: [Canary; 9] = [
        Canary::DivergentRoundTxns,
        Canary::DuplicateRoundExecution,
        Canary::ForgedCheckpointDigest,
        Canary::MismatchedReconfigSet,
        Canary::LostRecoveryCompletion,
        Canary::PhantomBrokerAck,
        Canary::ForgedCertificateRejection,
        Canary::UnjustifiedEquivocationEvidence,
        Canary::DivergentStateDigest,
    ];

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Canary::DivergentRoundTxns => "divergent-round-txns",
            Canary::DuplicateRoundExecution => "duplicate-round-execution",
            Canary::ForgedCheckpointDigest => "forged-checkpoint-digest",
            Canary::MismatchedReconfigSet => "mismatched-reconfig-set",
            Canary::LostRecoveryCompletion => "lost-recovery-completion",
            Canary::PhantomBrokerAck => "phantom-broker-ack",
            Canary::ForgedCertificateRejection => "forged-certificate-rejection",
            Canary::UnjustifiedEquivocationEvidence => "unjustified-equivocation-evidence",
            Canary::DivergentStateDigest => "state-digest-divergence",
        }
    }

    /// The checker that must detect this canary.
    pub fn expected_checker(self) -> &'static str {
        match self {
            Canary::DivergentRoundTxns => "execution-agreement",
            Canary::DuplicateRoundExecution => "prefix",
            Canary::ForgedCheckpointDigest => "checkpoint-chain",
            Canary::MismatchedReconfigSet => "reconfig-agreement",
            Canary::LostRecoveryCompletion => "catch-up-liveness",
            Canary::PhantomBrokerAck => "broker-conservation",
            Canary::ForgedCertificateRejection => "certificate-validity",
            Canary::UnjustifiedEquivocationEvidence => "equivocation-exposure",
            Canary::DivergentStateDigest => "execution-agreement",
        }
    }

    /// Plant the bug in `outputs`. Returns `false` when the stream lacks the
    /// material the mutation needs (e.g. no checkpoints recorded) — the fixture
    /// scenario is built so that never happens for the standard suite.
    pub fn inject(self, outputs: &mut Vec<Output>) -> bool {
        match self {
            Canary::DivergentRoundTxns => {
                // Bump the txn count of the second report of the first round
                // reported by two replicas.
                let mut first: Option<Round2> = None;
                for o in outputs.iter_mut() {
                    if let Output::RoundExecuted { round, txns, .. } = o {
                        match first {
                            Some(r) if r.0 == round.0 => {
                                *txns += 1;
                                return true;
                            }
                            Some(_) => {}
                            None => first = Some(Round2(round.0)),
                        }
                    }
                }
                false
            }
            Canary::DuplicateRoundExecution => {
                // Rewrite a replica's later execution to repeat an earlier round
                // of the same incarnation (no restart of it in between).
                let mut seen: Option<(ReplicaId, u64)> = None;
                for i in 0..outputs.len() {
                    match &outputs[i] {
                        Output::ReplicaRestarted { replica, .. } => {
                            if seen.map(|(r, _)| r) == Some(*replica) {
                                seen = None;
                            }
                        }
                        Output::RoundExecuted { replica, round, .. } => match seen {
                            None => seen = Some((*replica, round.0)),
                            Some((r, first_round)) if r == *replica && round.0 > first_round => {
                                if let Output::RoundExecuted { round, .. } = &mut outputs[i] {
                                    round.0 = first_round;
                                }
                                return true;
                            }
                            Some(_) => {}
                        },
                        _ => {}
                    }
                }
                false
            }
            Canary::ForgedCheckpointDigest => {
                // Flip a byte in the second install of the first (cluster,
                // round) checkpointed by two replicas. The pair must come from
                // one cluster: digests commit the per-cluster packing anchor,
                // so sibling clusters' digests differ legitimately.
                let mut first: Option<(ClusterId, u64)> = None;
                for o in outputs.iter_mut() {
                    if let Output::CheckpointInstalled { cluster, round, digest, .. } = o {
                        match first {
                            Some((c, r)) if c == *cluster && r == round.0 => {
                                digest[0] ^= 0xff;
                                return true;
                            }
                            Some(_) => {}
                            None => first = Some((*cluster, round.0)),
                        }
                    }
                }
                false
            }
            Canary::MismatchedReconfigSet => {
                // Give one executor of a multi-executor round an extra phantom
                // leave its peers never applied.
                let mut counts: std::collections::BTreeMap<u64, Vec<(ReplicaId, ClusterId, Time)>> =
                    std::collections::BTreeMap::new();
                for o in outputs.iter() {
                    if let Output::RoundExecuted { replica, cluster, round, at, .. } = o {
                        counts.entry(round.0).or_default().push((*replica, *cluster, *at));
                    }
                }
                let Some((round, executors)) = counts.into_iter().find(|(_, e)| e.len() >= 2)
                else {
                    return false;
                };
                let (reporter, cluster, at) = executors[0];
                outputs.push(Output::ReconfigApplied {
                    replica: ReplicaId(9_999),
                    cluster,
                    joined: false,
                    round: ava_types::Round(round),
                    at,
                    reporter,
                });
                true
            }
            Canary::LostRecoveryCompletion => {
                // Drop EVERY RecoveryCompleted of the first restarted replica —
                // a straggler escape after rejoining can legitimately complete a
                // second catch-up, and any surviving completion would satisfy
                // the liveness checker.
                let Some(restarted) = outputs.iter().find_map(|o| match o {
                    Output::ReplicaRestarted { replica, .. } => Some(*replica),
                    _ => None,
                }) else {
                    return false;
                };
                let before = outputs.len();
                outputs.retain(|o| {
                    !matches!(o, Output::RecoveryCompleted { replica, .. } if *replica == restarted)
                });
                outputs.len() < before
            }
            Canary::PhantomBrokerAck => {
                // Ack a virtual-client write that never appears in the committed
                // batch traces. The conservation checker only judges streams
                // that carry batch commits, so a stream without any is missing
                // material.
                let Some((cluster, at)) = outputs.iter().find_map(|o| match o {
                    Output::BatchOpCommitted { cluster, at, .. } => Some((*cluster, *at)),
                    _ => None,
                }) else {
                    return false;
                };
                let client = ClientId(ava_workload::VIRTUAL_CLIENT_BASE + 99);
                outputs.push(Output::TxCompleted {
                    tx: TxId { client, seq: u64::MAX },
                    client,
                    cluster,
                    issued_at: at,
                    completed_at: at,
                    is_write: true,
                });
                true
            }
            Canary::ForgedCertificateRejection => {
                // Plant rejection evidence anchored on the first executed round.
                // The fixture schedule holds no Corrupt event, so the evidence
                // is unjustified by construction.
                let Some((replica, cluster, round, at)) = first_execution(outputs) else {
                    return false;
                };
                outputs.push(Output::ByzantineRejected {
                    replica,
                    cluster,
                    round,
                    kind: ava_types::RejectKind::PackageCert,
                    at,
                });
                true
            }
            Canary::UnjustifiedEquivocationEvidence => {
                // Plant conflicting-package evidence with no package-mutating
                // corruption anywhere in the schedule.
                let Some((replica, cluster, round, at)) = first_execution(outputs) else {
                    return false;
                };
                outputs.push(Output::EquivocationObserved {
                    replica,
                    cluster,
                    round,
                    first: Box::new([0x11; 32]),
                    second: Box::new([0x22; 32]),
                    at,
                });
                true
            }
            Canary::DivergentStateDigest => {
                // Flip a byte in the second state-digest report of the first
                // round reported by two replicas: a single value diverged on
                // one replica while its txn count stayed identical.
                let mut first: Option<Round2> = None;
                for o in outputs.iter_mut() {
                    if let Output::StateDigest { round, digest, .. } = o {
                        match first {
                            Some(r) if r.0 == round.0 => {
                                digest[0] ^= 0xff;
                                return true;
                            }
                            Some(_) => {}
                            None => first = Some(Round2(round.0)),
                        }
                    }
                }
                false
            }
        }
    }
}

/// The `(replica, cluster, round, at)` of the first `RoundExecuted` in the
/// stream — the anchor the evidence canaries attach their forgeries to.
fn first_execution(outputs: &[Output]) -> Option<(ReplicaId, ClusterId, ava_types::Round, Time)> {
    outputs.iter().find_map(|o| match o {
        Output::RoundExecuted { replica, cluster, round, at, .. } => {
            Some((*replica, *cluster, *round, *at))
        }
        _ => None,
    })
}

/// Round-number holder used by the divergent-txns scan (avoids borrowing the
/// output twice).
#[derive(Clone, Copy)]
struct Round2(u64);

/// The outcome of one canary check.
#[derive(Clone, Debug)]
pub struct CanaryResult {
    /// Which canary ran.
    pub canary: Canary,
    /// Whether the mutation found material to corrupt.
    pub injected: bool,
    /// Checkers that fired on the doctored stream.
    pub detected_by: Vec<&'static str>,
    /// Violations the doctored stream produced.
    pub violations: Vec<Violation>,
}

impl CanaryResult {
    /// Whether the canary was injected and the expected checker detected it.
    pub fn detected(&self) -> bool {
        self.injected && self.detected_by.contains(&self.canary.expected_checker())
    }
}

/// The fixture scenario the canary suite records: a store-backed run with a
/// crash→restart, a join and a broker tier, executing against the real KV
/// state machine, so the clean stream holds executions, checkpoints, per-round
/// state digests, a recovery, a reconfiguration and committed batch traces —
/// material for every canary. (The fixture is not a determinism golden; it
/// only needs to stay clean under the standard suite.)
pub fn fixture_scenario() -> Scenario {
    let mut config = SystemConfig::homogeneous_regions(&[(4, Region::UsWest), (4, Region::Europe)]);
    config.params.batch_size = 20;
    config.params.remote_leader_timeout = Duration::from_secs(4);
    config.params.brd_timeout = Duration::from_secs(4);
    config.params.local_timeout = Duration::from_secs(4);
    Scenario::builder(Protocol::AvaHotStuff, config)
        .seed(11)
        .workload(WorkloadSpec { key_space: 500, ..WorkloadSpec::default() })
        .state_machine(ava_hamava::StateMachineKind::Kv)
        .store(StoreConfig::every(4))
        .run_for(Duration::from_secs(14))
        .brokers(BrokerTier {
            // Modest aggregate load with retries disabled (timeout past the run
            // end), matching what fuzz-drawn tiers guarantee the conservation
            // checker.
            retry_timeout: Duration::from_secs(60),
            load: AggregateLoad {
                virtual_clients: 10_000,
                offered_tps: 300,
                issue_for: Duration::from_secs(9),
                ..AggregateLoad::default()
            },
            ..BrokerTier::default()
        })
        .crash_at(Time::from_secs(2), ReplicaId(1))
        .restart_at(Time::from_secs(4), ReplicaId(1))
        .join_at(Time::from_secs(3), ClusterId(1), Region::Europe)
        .build()
}

/// The fixture's schedule (what [`CheckerSet::replay`] is fed as scheduled
/// events) and end time.
pub fn fixture_events() -> (Vec<(Time, ScenarioEvent)>, Time) {
    let mut schedule = Schedule::new();
    schedule.add(Time::from_secs(2), ScenarioEvent::Crash { replica: ReplicaId(1) });
    schedule.add(Time::from_secs(4), ScenarioEvent::Restart { replica: ReplicaId(1) });
    schedule.add(
        Time::from_secs(3),
        ScenarioEvent::Join { cluster: ClusterId(1), region: Region::Europe },
    );
    (schedule.sorted(), Time::from_secs(14))
}

/// Run the full canary suite: record the fixture once, verify the clean stream
/// passes, then check every canary trips its checker on a doctored copy.
///
/// Returns `(clean_violations, results)`; the suite is healthy iff the clean
/// violations are empty and every result `detected()`.
pub fn canary_suite() -> (Vec<Violation>, Vec<CanaryResult>) {
    let run = fixture_scenario().run();
    let (events, end) = fixture_events();
    let clean = CheckerSet::replay(&run.outputs, &events, end);
    let results = Canary::ALL
        .iter()
        .map(|&canary| {
            let mut doctored = run.outputs.clone();
            let injected = canary.inject(&mut doctored);
            let violations =
                if injected { CheckerSet::replay(&doctored, &events, end) } else { Vec::new() };
            let mut detected_by: Vec<&'static str> = violations.iter().map(|v| v.checker).collect();
            detected_by.dedup();
            CanaryResult { canary, injected, detected_by, violations }
        })
        .collect();
    (clean, results)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn executed(replica: u32, round: u64, txns: usize) -> Output {
        Output::RoundExecuted {
            replica: ReplicaId(replica),
            cluster: ClusterId(0),
            round: ava_types::Round(round),
            txns,
            at: Time::from_millis(round * 100),
        }
    }

    #[test]
    fn divergent_txns_canary_trips_execution_agreement_on_a_synthetic_trace() {
        let mut outputs = vec![executed(0, 1, 20), executed(1, 1, 20), executed(0, 2, 20)];
        assert!(Canary::DivergentRoundTxns.inject(&mut outputs));
        let violations = CheckerSet::replay(&outputs, &[], Time::from_secs(10));
        assert!(violations.iter().any(|v| v.checker == "execution-agreement"));
    }

    #[test]
    fn duplicate_round_canary_trips_prefix_on_a_synthetic_trace() {
        let mut outputs = vec![executed(0, 1, 20), executed(0, 2, 20)];
        assert!(Canary::DuplicateRoundExecution.inject(&mut outputs));
        let violations = CheckerSet::replay(&outputs, &[], Time::from_secs(10));
        assert!(violations.iter().any(|v| v.checker == "prefix"));
    }

    #[test]
    fn forged_digest_canary_trips_checkpoint_chain_on_a_synthetic_trace() {
        let cp = |replica: u32| Output::CheckpointInstalled {
            replica: ReplicaId(replica),
            cluster: ClusterId(0),
            round: ava_types::Round(4),
            digest: Box::new([7; 32]),
            adopted: false,
            at: Time::from_secs(1),
        };
        let mut outputs = vec![cp(0), cp(1)];
        assert!(Canary::ForgedCheckpointDigest.inject(&mut outputs));
        let violations = CheckerSet::replay(&outputs, &[], Time::from_secs(10));
        assert!(violations.iter().any(|v| v.checker == "checkpoint-chain"));
    }

    #[test]
    fn mismatched_reconfig_canary_trips_reconfig_agreement_on_a_synthetic_trace() {
        let mut outputs = vec![executed(0, 3, 20), executed(1, 3, 20)];
        assert!(Canary::MismatchedReconfigSet.inject(&mut outputs));
        let violations = CheckerSet::replay(&outputs, &[], Time::from_secs(10));
        assert!(violations.iter().any(|v| v.checker == "reconfig-agreement"));
    }

    #[test]
    fn lost_recovery_canary_trips_catch_up_liveness_on_a_synthetic_trace() {
        let outputs_base = vec![
            Output::ReplicaRestarted {
                replica: ReplicaId(1),
                cluster: ClusterId(0),
                recovered_round: ava_types::Round(4),
                log_rounds_replayed: 1,
                at: Time::from_secs(4),
            },
            Output::RecoveryCompleted {
                replica: ReplicaId(1),
                cluster: ClusterId(0),
                round: ava_types::Round(9),
                rounds_transferred: 5,
                bytes_transferred: 1000,
                at: Time::from_secs(5),
            },
        ];
        // Clean stream passes.
        assert!(CheckerSet::replay(&outputs_base, &[], Time::from_secs(14)).is_empty());
        let mut outputs = outputs_base;
        assert!(Canary::LostRecoveryCompletion.inject(&mut outputs));
        let violations = CheckerSet::replay(&outputs, &[], Time::from_secs(14));
        assert!(violations.iter().any(|v| v.checker == "catch-up-liveness"));
    }

    #[test]
    fn phantom_ack_canary_trips_broker_conservation_on_a_synthetic_trace() {
        let client = ClientId(ava_workload::VIRTUAL_CLIENT_BASE);
        let committed = Output::BatchOpCommitted {
            replica: ReplicaId(0),
            cluster: ClusterId(0),
            broker: ReplicaId(2_000_000),
            batch: 1,
            tx: TxId { client, seq: 0 },
            at: Time::from_secs(1),
        };
        let acked = Output::TxCompleted {
            tx: TxId { client, seq: 0 },
            client,
            cluster: ClusterId(0),
            issued_at: Time::from_millis(900),
            completed_at: Time::from_secs(1),
            is_write: true,
        };
        let outputs_base = vec![committed, acked];
        assert!(CheckerSet::replay(&outputs_base, &[], Time::from_secs(14)).is_empty());
        let mut outputs = outputs_base;
        assert!(Canary::PhantomBrokerAck.inject(&mut outputs));
        let violations = CheckerSet::replay(&outputs, &[], Time::from_secs(14));
        assert!(violations.iter().any(|v| v.checker == "broker-conservation"));
    }

    #[test]
    fn forged_rejection_canary_trips_certificate_validity_on_a_synthetic_trace() {
        let outputs_base = vec![executed(0, 1, 20)];
        assert!(CheckerSet::replay(&outputs_base, &[], Time::from_secs(10)).is_empty());
        let mut outputs = outputs_base;
        assert!(Canary::ForgedCertificateRejection.inject(&mut outputs));
        let violations = CheckerSet::replay(&outputs, &[], Time::from_secs(10));
        assert!(violations.iter().any(|v| v.checker == "certificate-validity"));
    }

    #[test]
    fn unjustified_equivocation_canary_trips_equivocation_exposure_on_a_synthetic_trace() {
        let mut outputs = vec![executed(0, 1, 20)];
        assert!(Canary::UnjustifiedEquivocationEvidence.inject(&mut outputs));
        let violations = CheckerSet::replay(&outputs, &[], Time::from_secs(10));
        assert!(violations.iter().any(|v| v.checker == "equivocation-exposure"));
    }

    #[test]
    fn divergent_state_digest_canary_trips_execution_agreement_on_a_synthetic_trace() {
        let digest_of = |replica: u32| Output::StateDigest {
            replica: ReplicaId(replica),
            cluster: ClusterId(0),
            round: ava_types::Round(1),
            digest: Box::new([9; 32]),
            entries: 5,
            value_bytes: 5_120,
            at: Time::from_millis(100),
        };
        // Same txn counts everywhere: only the digest arm can see this bug.
        let outputs_base = vec![executed(0, 1, 20), executed(1, 1, 20), digest_of(0), digest_of(1)];
        assert!(CheckerSet::replay(&outputs_base, &[], Time::from_secs(10)).is_empty());
        let mut outputs = outputs_base;
        assert!(Canary::DivergentStateDigest.inject(&mut outputs));
        let violations = CheckerSet::replay(&outputs, &[], Time::from_secs(10));
        assert!(violations.iter().any(|v| v.checker == "execution-agreement"));
    }

    #[test]
    fn canaries_report_missing_material_instead_of_lying() {
        let mut outputs: Vec<Output> = Vec::new();
        for canary in Canary::ALL {
            assert!(!canary.inject(&mut outputs), "{:?} has nothing to corrupt", canary);
        }
    }
}

//! Run observers: probes the scenario runner invokes while a run executes.
//!
//! Observers see every [`Output`] in emission order *during* the run (instead of
//! reconstructing series from `take_outputs()` afterwards), plus periodic ticks and
//! the applied schedule events. The built-in observers cover the series the paper's
//! figures need — throughput over time, per-stage latency, and per-round
//! reconfiguration traces (the E5.2 diagnosis tool).

use crate::deployment::DynDeployment;
use crate::scenario::ScenarioEvent;
use ava_types::{ClusterId, Duration, Output, RejectKind, ReplicaId, Round, StageKind, Time};
use std::collections::BTreeMap;

/// A probe tapping a scenario run as it executes.
///
/// All methods have empty defaults, so an observer implements only what it needs.
pub trait RunObserver {
    /// The deployment was built; virtual time is zero.
    fn on_start(&mut self, dep: &dyn DynDeployment) {
        let _ = dep;
    }

    /// The run crossed a tick boundary (see `ScenarioBuilder::tick_every`).
    fn on_tick(&mut self, now: Time, dep: &dyn DynDeployment) {
        let _ = (now, dep);
    }

    /// A measurement event was emitted. Invoked for every output exactly once, in
    /// emission order, batched at tick/event boundaries and at the end of the run.
    fn on_output(&mut self, output: &Output) {
        let _ = output;
    }

    /// A scheduled event is about to be applied.
    fn on_event(&mut self, at: Time, event: &ScenarioEvent) {
        let _ = (at, event);
    }

    /// The run reached its end time.
    fn on_end(&mut self, dep: &dyn DynDeployment) {
        let _ = dep;
    }
}

/// Streams completed transactions into a bucketed throughput time series
/// (the series of the paper's Fig. 4f–h and Fig. 5a).
#[derive(Clone, Debug)]
pub struct ThroughputObserver {
    bucket: Duration,
    counts: BTreeMap<u64, usize>,
}

impl ThroughputObserver {
    /// Bucket completions into windows of `bucket` virtual time.
    pub fn new(bucket: Duration) -> Self {
        assert!(bucket > Duration::ZERO, "bucket must be positive");
        ThroughputObserver { bucket, counts: BTreeMap::new() }
    }

    /// The series so far: `(bucket_end_seconds, txns_per_second)` pairs.
    pub fn series(&self) -> Vec<(f64, f64)> {
        let bucket_secs = self.bucket.as_secs_f64();
        self.counts
            .iter()
            .map(|(idx, c)| (((idx + 1) as f64) * bucket_secs, *c as f64 / bucket_secs))
            .collect()
    }

    /// Total completed transactions observed.
    pub fn completed(&self) -> usize {
        self.counts.values().sum()
    }
}

impl RunObserver for ThroughputObserver {
    fn on_output(&mut self, output: &Output) {
        if let Output::TxCompleted { completed_at, .. } = output {
            let idx = completed_at.as_micros() / self.bucket.as_micros().max(1);
            *self.counts.entry(idx).or_insert(0) += 1;
        }
    }
}

/// Accumulates per-stage latency sums (the E2 breakdown) while the run executes.
#[derive(Clone, Debug, Default)]
pub struct StageBreakdownObserver {
    sums: [f64; 3],
    counts: [usize; 3],
}

impl StageBreakdownObserver {
    /// A fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Average per-stage latency in milliseconds, in protocol order
    /// `[intra-cluster, inter-cluster, execution]`.
    pub fn breakdown(&self) -> [f64; 3] {
        let mut out = [0.0; 3];
        for i in 0..3 {
            out[i] = if self.counts[i] == 0 { 0.0 } else { self.sums[i] / self.counts[i] as f64 };
        }
        out
    }
}

impl RunObserver for StageBreakdownObserver {
    fn on_output(&mut self, output: &Output) {
        if let Output::StageCompleted { stage, started_at, completed_at, .. } = output {
            let idx = StageKind::ALL.iter().position(|s| s == stage).expect("known stage");
            self.sums[idx] += completed_at.since(*started_at).as_millis_f64();
            self.counts[idx] += 1;
        }
    }
}

/// Per-round commit/reconfiguration activity of one cluster (aggregated over its
/// replicas), collected by [`ReconfigTraceObserver`].
#[derive(Clone, Debug, Default)]
pub struct RoundTrace {
    /// Replicas that reported executing the round.
    pub executions: usize,
    /// Transactions the round carried (as reported by the first executor).
    pub txns: usize,
    /// Per-stage completion reports `[intra, inter, execution]` across replicas —
    /// shows exactly which stage a stalled round is stuck in.
    pub stage_completions: [usize; 3],
    /// Reconfigurations applied in the round, as `(replica, joined)` pairs
    /// (deduplicated across reporting replicas).
    pub reconfigs: Vec<(ReplicaId, bool)>,
    /// First time any replica executed the round.
    pub first_at: Option<Time>,
    /// Last time any replica executed the round.
    pub last_at: Option<Time>,
}

/// Collects a per-round reconfiguration/commit trace: which rounds executed, when,
/// with how many transactions, which reconfigurations they applied, and every
/// leader change — the mid-run visibility the E5.2 "single workflow completes 0
/// txns" diagnosis needed.
#[derive(Clone, Debug, Default)]
pub struct ReconfigTraceObserver {
    rounds: BTreeMap<(ClusterId, Round), RoundTrace>,
    leader_changes: Vec<(Time, ClusterId, ReplicaId)>,
    /// Leader installs already recorded, as `(cluster, leader, timestamp)` — every
    /// replica of a cluster reports the same install once, and reports from
    /// different clusters interleave.
    seen_changes: std::collections::BTreeSet<(ClusterId, ReplicaId, u64)>,
    scheduled: Vec<(Time, String)>,
}

impl ReconfigTraceObserver {
    /// A fresh trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// The per-round traces, keyed by `(cluster, round)`.
    pub fn rounds(&self) -> &BTreeMap<(ClusterId, Round), RoundTrace> {
        &self.rounds
    }

    /// Leader changes seen so far, as `(at, cluster, new_leader)` — one entry per
    /// distinct `(cluster, leader, timestamp)` install, i.e. the first replica's
    /// report of each change.
    pub fn leader_changes(&self) -> &[(Time, ClusterId, ReplicaId)] {
        &self.leader_changes
    }

    /// Schedule events applied during the run, rendered for the trace.
    pub fn scheduled_events(&self) -> &[(Time, String)] {
        &self.scheduled
    }

    /// Render the trace as printable table rows:
    /// `[cluster, round, s1/s2/s3, executions, txns, reconfigs, first_at, last_at]`.
    pub fn trace_rows(&self) -> Vec<Vec<String>> {
        self.rounds
            .iter()
            .map(|((cluster, round), t)| {
                let recs = if t.reconfigs.is_empty() {
                    "-".to_string()
                } else {
                    t.reconfigs
                        .iter()
                        .map(|(r, joined)| format!("{r}{}", if *joined { "+" } else { "-" }))
                        .collect::<Vec<_>>()
                        .join(",")
                };
                let fmt_t =
                    |t: Option<Time>| t.map_or("-".into(), |t| format!("{:.1}", t.as_secs_f64()));
                vec![
                    cluster.0.to_string(),
                    round.0.to_string(),
                    format!(
                        "{}/{}/{}",
                        t.stage_completions[0], t.stage_completions[1], t.stage_completions[2]
                    ),
                    t.executions.to_string(),
                    t.txns.to_string(),
                    recs,
                    fmt_t(t.first_at),
                    fmt_t(t.last_at),
                ]
            })
            .collect()
    }
}

impl RunObserver for ReconfigTraceObserver {
    fn on_output(&mut self, output: &Output) {
        match output {
            Output::StageCompleted { cluster, round, stage, .. } => {
                let t = self.rounds.entry((*cluster, *round)).or_default();
                let idx = StageKind::ALL.iter().position(|s| s == stage).expect("known stage");
                t.stage_completions[idx] += 1;
            }
            Output::RoundExecuted { cluster, round, txns, at, .. } => {
                let t = self.rounds.entry((*cluster, *round)).or_default();
                t.executions += 1;
                if t.executions == 1 {
                    t.txns = *txns;
                }
                t.first_at = Some(t.first_at.map_or(*at, |f| f.min(*at)));
                t.last_at = Some(t.last_at.map_or(*at, |l| l.max(*at)));
            }
            Output::ReconfigApplied { replica, cluster, joined, round, .. } => {
                let t = self.rounds.entry((*cluster, *round)).or_default();
                if !t.reconfigs.contains(&(*replica, *joined)) {
                    t.reconfigs.push((*replica, *joined));
                }
            }
            Output::LeaderChanged { cluster, new_leader, timestamp, at, .. } => {
                if self.seen_changes.insert((*cluster, *new_leader, *timestamp)) {
                    self.leader_changes.push((*at, *cluster, *new_leader));
                }
            }
            _ => {}
        }
    }

    fn on_event(&mut self, at: Time, event: &ScenarioEvent) {
        self.scheduled.push((at, format!("{event:?}")));
    }
}

/// One replica's crash-recovery trajectory, collected by [`RecoveryObserver`].
#[derive(Clone, Debug)]
pub struct RecoveryTrace {
    /// When the replica restarted.
    pub restarted_at: Time,
    /// The round its durable store recovered to locally.
    pub recovered_round: Round,
    /// Rounds replayed from the local round log.
    pub log_rounds_replayed: u64,
    /// When catch-up completed (None = still catching up at run end).
    pub completed_at: Option<Time>,
    /// The round the replica rejoined at.
    pub caught_up_round: Option<Round>,
    /// Rounds obtained from peers (checkpoint gap + transferred log suffix).
    pub rounds_transferred: u64,
    /// Bytes of checkpoint + log-suffix payload adopted from peers.
    pub bytes_transferred: u64,
}

impl RecoveryTrace {
    /// Time from restart to caught-up, if the recovery completed.
    pub fn time_to_caught_up(&self) -> Option<Duration> {
        self.completed_at.map(|done| done.since(self.restarted_at))
    }
}

/// Collects crash-recovery probes: per restarted replica, the time-to-caught-up,
/// the rounds transferred and the bytes transferred (the `e10_recovery` series).
/// A replica that restarts more than once keeps the latest trajectory.
#[derive(Clone, Debug, Default)]
pub struct RecoveryObserver {
    traces: BTreeMap<ReplicaId, RecoveryTrace>,
}

impl RecoveryObserver {
    /// A fresh observer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recovery trajectories seen so far, keyed by replica.
    pub fn traces(&self) -> &BTreeMap<ReplicaId, RecoveryTrace> {
        &self.traces
    }

    /// Whether every observed restart completed its catch-up.
    pub fn all_caught_up(&self) -> bool {
        !self.traces.is_empty() && self.traces.values().all(|t| t.completed_at.is_some())
    }

    /// The slowest time-to-caught-up across replicas (None until every observed
    /// restart completed).
    pub fn max_time_to_caught_up(&self) -> Option<Duration> {
        if !self.all_caught_up() {
            return None;
        }
        self.traces.values().filter_map(RecoveryTrace::time_to_caught_up).max()
    }

    /// Total rounds transferred from peers across all recoveries.
    pub fn total_rounds_transferred(&self) -> u64 {
        self.traces.values().map(|t| t.rounds_transferred).sum()
    }

    /// Total bytes transferred from peers across all recoveries.
    pub fn total_bytes_transferred(&self) -> u64 {
        self.traces.values().map(|t| t.bytes_transferred).sum()
    }
}

impl RunObserver for RecoveryObserver {
    fn on_output(&mut self, output: &Output) {
        match output {
            Output::ReplicaRestarted {
                replica, recovered_round, log_rounds_replayed, at, ..
            } => {
                self.traces.insert(
                    *replica,
                    RecoveryTrace {
                        restarted_at: *at,
                        recovered_round: *recovered_round,
                        log_rounds_replayed: *log_rounds_replayed,
                        completed_at: None,
                        caught_up_round: None,
                        rounds_transferred: 0,
                        bytes_transferred: 0,
                    },
                );
            }
            Output::RecoveryCompleted {
                replica,
                round,
                rounds_transferred,
                bytes_transferred,
                at,
                ..
            } => {
                if let Some(trace) = self.traces.get_mut(replica) {
                    if trace.completed_at.is_none() {
                        trace.completed_at = Some(*at);
                        trace.caught_up_round = Some(*round);
                        trace.rounds_transferred = *rounds_transferred;
                        trace.bytes_transferred = *bytes_transferred;
                    }
                }
            }
            _ => {}
        }
    }
}

/// Aggregated broker-tier health of one broker, collected by
/// [`BrokerStatsObserver`].
#[derive(Clone, Debug, Default)]
pub struct BrokerTrace {
    /// Batches the broker flushed.
    pub flushes: u64,
    /// Operations across all flushed batches.
    pub ops: u64,
    /// Largest queue depth observed at a flush.
    pub max_queue: usize,
    /// Largest in-flight count observed at a flush.
    pub max_inflight: usize,
    /// Operations shed by the end of the run (monotonic counter's last value).
    pub shed: u64,
}

impl BrokerTrace {
    /// Mean operations per flushed batch (batch occupancy).
    pub fn mean_occupancy(&self) -> f64 {
        if self.flushes == 0 {
            0.0
        } else {
            self.ops as f64 / self.flushes as f64
        }
    }
}

/// Collects broker-tier health while the run executes: per-broker batch
/// occupancy, queue depth, in-flight high-water marks and shed counts, plus
/// the batch-commit total — the series the E11 saturation sweep reports.
#[derive(Clone, Debug, Default)]
pub struct BrokerStatsObserver {
    traces: BTreeMap<ReplicaId, BrokerTrace>,
    batch_ops_committed: u64,
}

impl BrokerStatsObserver {
    /// A fresh observer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Per-broker traces seen so far.
    pub fn traces(&self) -> &BTreeMap<ReplicaId, BrokerTrace> {
        &self.traces
    }

    /// Operations that committed via the batch path across all replicas
    /// (each op counted once, by the replica that admitted its batch).
    pub fn batch_ops_committed(&self) -> u64 {
        self.batch_ops_committed
    }

    /// Total operations shed across brokers.
    pub fn total_shed(&self) -> u64 {
        self.traces.values().map(|t| t.shed).sum()
    }

    /// Mean batch occupancy across all flushes of all brokers.
    pub fn mean_occupancy(&self) -> f64 {
        let (flushes, ops) =
            self.traces.values().fold((0u64, 0u64), |(f, o), t| (f + t.flushes, o + t.ops));
        if flushes == 0 {
            0.0
        } else {
            ops as f64 / flushes as f64
        }
    }
}

impl RunObserver for BrokerStatsObserver {
    fn on_output(&mut self, output: &Output) {
        match output {
            Output::BrokerFlushed { broker, ops, queue, inflight, shed_total, .. } => {
                let t = self.traces.entry(*broker).or_default();
                t.flushes += 1;
                t.ops += *ops as u64;
                t.max_queue = t.max_queue.max(*queue);
                t.max_inflight = t.max_inflight.max(*inflight);
                t.shed = t.shed.max(*shed_total);
            }
            Output::BatchOpCommitted { .. } => {
                self.batch_ops_committed += 1;
            }
            _ => {}
        }
    }
}

/// Collects Byzantine-evidence outputs while the run executes: how many forged or
/// stale artifacts honest replicas rejected (by [`RejectKind`]), how many
/// equivocations they exposed, and which `Corrupt` events the schedule applied —
/// the per-behavior evidence series the `e12_byzantine` sweep reports.
#[derive(Clone, Debug, Default)]
pub struct ByzantineObserver {
    rejections: BTreeMap<RejectKind, u64>,
    equivocations: u64,
    corrupt_events: Vec<(Time, ReplicaId)>,
}

impl ByzantineObserver {
    /// A fresh observer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total rejected-artifact evidence events across all kinds.
    pub fn total_rejections(&self) -> u64 {
        self.rejections.values().sum()
    }

    /// Rejected-artifact evidence events of one kind.
    pub fn rejections_of(&self, kind: RejectKind) -> u64 {
        self.rejections.get(&kind).copied().unwrap_or(0)
    }

    /// Equivocation-evidence events (same slot, conflicting package contents).
    pub fn equivocations(&self) -> u64 {
        self.equivocations
    }

    /// The `Corrupt` schedule events applied during the run, in application
    /// order, as `(at, replica)` pairs.
    pub fn corrupt_events(&self) -> &[(Time, ReplicaId)] {
        &self.corrupt_events
    }

    /// Whether any Byzantine evidence (rejection or equivocation) was recorded.
    pub fn any_evidence(&self) -> bool {
        self.equivocations > 0 || self.total_rejections() > 0
    }
}

impl RunObserver for ByzantineObserver {
    fn on_output(&mut self, output: &Output) {
        match output {
            Output::ByzantineRejected { kind, .. } => {
                *self.rejections.entry(*kind).or_insert(0) += 1;
            }
            Output::EquivocationObserved { .. } => {
                self.equivocations += 1;
            }
            _ => {}
        }
    }

    fn on_event(&mut self, at: Time, event: &ScenarioEvent) {
        if let ScenarioEvent::Corrupt { replica, .. } = event {
            self.corrupt_events.push((at, *replica));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ava_types::{ClientId, TxId};

    fn tx(completed_ms: u64) -> Output {
        Output::TxCompleted {
            tx: TxId { client: ClientId(0), seq: completed_ms },
            client: ClientId(0),
            cluster: ClusterId(0),
            issued_at: Time::ZERO,
            completed_at: Time::from_millis(completed_ms),
            is_write: true,
        }
    }

    #[test]
    fn throughput_observer_matches_posthoc_bucketing() {
        let mut obs = ThroughputObserver::new(Duration::from_secs(1));
        for o in [tx(500), tx(600), tx(1500)] {
            obs.on_output(&o);
        }
        assert_eq!(obs.series(), vec![(1.0, 2.0), (2.0, 1.0)]);
        assert_eq!(obs.completed(), 3);
    }

    #[test]
    fn stage_observer_averages_per_stage() {
        let stage = |kind, start, end| Output::StageCompleted {
            replica: ReplicaId(0),
            cluster: ClusterId(0),
            round: Round(1),
            stage: kind,
            started_at: Time::from_millis(start),
            completed_at: Time::from_millis(end),
        };
        let mut obs = StageBreakdownObserver::new();
        for o in [
            stage(StageKind::IntraCluster, 0, 100),
            stage(StageKind::IntraCluster, 0, 300),
            stage(StageKind::InterCluster, 100, 150),
        ] {
            obs.on_output(&o);
        }
        let b = obs.breakdown();
        assert!((b[0] - 200.0).abs() < 1e-9);
        assert!((b[1] - 50.0).abs() < 1e-9);
        assert_eq!(b[2], 0.0);
    }

    #[test]
    fn recovery_observer_tracks_restart_to_caught_up() {
        let mut obs = RecoveryObserver::new();
        obs.on_output(&Output::ReplicaRestarted {
            replica: ReplicaId(3),
            cluster: ClusterId(0),
            recovered_round: Round(9),
            log_rounds_replayed: 1,
            at: Time::from_secs(4),
        });
        assert!(!obs.all_caught_up());
        obs.on_output(&Output::RecoveryCompleted {
            replica: ReplicaId(3),
            cluster: ClusterId(0),
            round: Round(14),
            rounds_transferred: 5,
            bytes_transferred: 10_000,
            at: Time::from_secs(6),
        });
        assert!(obs.all_caught_up());
        assert_eq!(obs.max_time_to_caught_up(), Some(Duration::from_secs(2)));
        assert_eq!(obs.total_rounds_transferred(), 5);
        assert_eq!(obs.total_bytes_transferred(), 10_000);
        let trace = &obs.traces()[&ReplicaId(3)];
        assert_eq!(trace.caught_up_round, Some(Round(14)));
        assert_eq!(trace.log_rounds_replayed, 1);
    }

    #[test]
    fn broker_stats_observer_aggregates_flushes_and_commits() {
        let mut obs = BrokerStatsObserver::new();
        let flush = |ops, queue, inflight, shed_total| Output::BrokerFlushed {
            broker: ReplicaId(2_000_000),
            cluster: ClusterId(0),
            ops,
            queue,
            inflight,
            shed_total,
            at: Time::from_millis(5),
        };
        obs.on_output(&flush(100, 40, 2, 0));
        obs.on_output(&flush(60, 10, 1, 7));
        obs.on_output(&Output::BatchOpCommitted {
            replica: ReplicaId(0),
            cluster: ClusterId(0),
            broker: ReplicaId(2_000_000),
            batch: 0,
            tx: TxId { client: ClientId(10_000_000), seq: 0 },
            at: Time::from_millis(9),
        });
        let t = &obs.traces()[&ReplicaId(2_000_000)];
        assert_eq!(t.flushes, 2);
        assert_eq!(t.max_queue, 40);
        assert_eq!(t.max_inflight, 2);
        assert_eq!(t.shed, 7);
        assert!((t.mean_occupancy() - 80.0).abs() < 1e-9);
        assert!((obs.mean_occupancy() - 80.0).abs() < 1e-9);
        assert_eq!(obs.batch_ops_committed(), 1);
        assert_eq!(obs.total_shed(), 7);
    }

    #[test]
    fn byzantine_observer_tallies_evidence_by_kind() {
        use ava_hamava::ByzantineBehavior;
        let mut obs = ByzantineObserver::new();
        assert!(!obs.any_evidence());
        let reject = |kind| Output::ByzantineRejected {
            replica: ReplicaId(2),
            cluster: ClusterId(0),
            round: Round(4),
            kind,
            at: Time::from_secs(3),
        };
        obs.on_output(&reject(RejectKind::PackageCert));
        obs.on_output(&reject(RejectKind::PackageCert));
        obs.on_output(&reject(RejectKind::BrdSignature));
        obs.on_output(&Output::EquivocationObserved {
            replica: ReplicaId(5),
            cluster: ClusterId(1),
            round: Round(4),
            first: Box::new([1; 32]),
            second: Box::new([2; 32]),
            at: Time::from_secs(3),
        });
        obs.on_event(
            Time::from_secs(2),
            &ScenarioEvent::Corrupt {
                replica: ReplicaId(0),
                behavior: ByzantineBehavior::EquivocateLocal,
            },
        );
        assert_eq!(obs.total_rejections(), 3);
        assert_eq!(obs.rejections_of(RejectKind::PackageCert), 2);
        assert_eq!(obs.rejections_of(RejectKind::CatchUpCheckpoint), 0);
        assert_eq!(obs.equivocations(), 1);
        assert_eq!(obs.corrupt_events(), &[(Time::from_secs(2), ReplicaId(0))]);
        assert!(obs.any_evidence());
    }

    #[test]
    fn reconfig_trace_collects_rounds_and_reconfigs() {
        let mut obs = ReconfigTraceObserver::new();
        obs.on_output(&Output::RoundExecuted {
            replica: ReplicaId(0),
            cluster: ClusterId(0),
            round: Round(3),
            txns: 20,
            at: Time::from_secs(2),
        });
        obs.on_output(&Output::ReconfigApplied {
            replica: ReplicaId(9),
            cluster: ClusterId(0),
            joined: true,
            round: Round(3),
            at: Time::from_secs(2),
            reporter: ReplicaId(0),
        });
        obs.on_event(Time::from_secs(1), &ScenarioEvent::Leave { replica: ReplicaId(2) });
        let rows = obs.trace_rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][1], "3");
        assert_eq!(rows[0][4], "20");
        assert!(rows[0][5].contains("9+"));
        assert_eq!(obs.scheduled_events().len(), 1);
    }
}

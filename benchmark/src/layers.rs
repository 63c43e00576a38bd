//! Per-layer metrics taken from outside the program: counts and virtual times
//! folded from `Output` + `NetStats`, and the ledger that combines them with
//! the probes of `probes.rs` into an estimate of where the host CPU went.
//! A layer is a crate (or module) of the workspace; metric names start with it.

use crate::metrics::{median, percentile, Clock, MetricDef, Values, WindowOps};
use crate::run::RunData;
use ava_scenario::ScenarioEvent;
use ava_types::{ClusterId, Output, ReplicaId, Round, StageKind, Time};
use std::collections::{BTreeMap, BTreeSet};

const fn layer(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    higher_is_better: bool,
) -> MetricDef {
    MetricDef { name, unit, clock, higher_is_better, bound: None }
}

const V: Clock = Clock::Virtual;
const H: Clock = Clock::Host;

/// The per-layer metrics, reported by every workload with `--trace 1` (zero
/// where a workload does not exercise the layer).
pub const PER_LAYER: &[MetricDef] = &[
    // ava-simnet: the event loop, message routing and NetStats.
    layer("simnet.events_per_op", "count", V, false),
    layer("simnet.msgs_local_per_op", "count", V, false),
    layer("simnet.msgs_global_per_op", "count", V, false),
    layer("simnet.bytes_per_op", "B", V, false),
    layer("simnet.dropped_msgs", "count", V, false),
    layer("simnet.host_ns_per_event", "ns", H, false),
    layer("simnet.noop_event_ns", "ns", H, false),
    // ava-crypto, ava-types, ava-consensus: hashing, signatures, certs, encoding.
    layer("crypto.sha256_ns_per_kib", "ns", H, false),
    layer("crypto.sign_ns", "ns", H, false),
    layer("crypto.verify_ns", "ns", H, false),
    layer("crypto.qc_valid_cold_ns", "ns", H, false),
    layer("crypto.qc_valid_memo_ns", "ns", H, false),
    layer("types.encode_tx_ns", "ns", H, false),
    layer("consensus.block_digest_ns", "ns", H, false),
    // The two total-order-broadcast backends.
    layer("hotstuff.decision_ns", "ns", H, false),
    layer("bftsmart.decision_ns", "ns", H, false),
    // ava-hamava: the three-stage round pipeline.
    layer("hamava.rounds_per_s", "1/s", V, true),
    layer("hamava.txns_per_round", "count", V, true),
    layer("hamava.stage1_intra_ms_p50", "ms", V, false),
    layer("hamava.stage2_inter_ms_p50", "ms", V, false),
    layer("hamava.stage3_exec_ms_p50", "ms", V, false),
    layer("hamava.write_share", "ratio", V, true),
    // ava-hamava: leader change, reconfiguration, recovery.
    layer("hamava.leader_changes", "count", V, false),
    layer("hamava.leader_change_gap_ms", "ms", V, false),
    layer("hamava.reconfigs_applied", "count", V, true),
    layer("hamava.reconfig_apply_ms_p50", "ms", V, false),
    layer("hamava.catchup_ms", "ms", V, false),
    layer("hamava.catchup_rounds", "count", V, false),
    layer("hamava.catchup_bytes", "B", V, false),
    layer("hamava.evidence_outputs", "count", V, false),
    layer("hamava.brd_round_ns", "ns", H, false),
    // ava-state.
    layer("state.apply_write_ns", "ns", H, false),
    layer("state.apply_counter_ns", "ns", H, false),
    layer("state.read_len_ns", "ns", H, false),
    layer("state.scan_ns_per_key", "ns", H, false),
    layer("state.digest_ns", "ns", H, false),
    layer("state.snapshot_ns_per_mib", "ns", H, false),
    layer("state.entries", "count", V, false),
    layer("state.value_mb", "MB", V, false),
    layer("state.digest_outputs", "count", V, false),
    // ava-store.
    layer("store.checkpoints_installed", "count", V, false),
    layer("store.checkpoints_adopted", "count", V, false),
    layer("store.append_round_ns", "ns", H, false),
    layer("store.checkpoint_build_ns", "ns", H, false),
    layer("store.checkpoint_verify_ns", "ns", H, false),
    // ava-broker and ava-workload.
    layer("broker.flushes", "count", V, false),
    layer("broker.ops_per_batch_mean", "count", V, true),
    layer("broker.queue_depth_max", "count", V, false),
    layer("broker.inflight_max", "count", V, false),
    layer("broker.shed_ops", "count", V, false),
    layer("broker.shed_share", "ratio", V, false),
    layer("workload.gen_ns_per_tx", "ns", H, false),
    layer("workload.generator_lag_ms", "ms", V, false),
    // ava-scenario and ava-fuzz as the benchmark uses them: the harness's own
    // cost, so it is never mistaken for the program's.
    layer("scenario.deploy_s", "s", H, false),
    layer("scenario.warmup_s", "s", H, false),
    layer("scenario.slice_wall_ms_max", "ms", H, false),
    layer("scenario.observe_ns_per_output", "ns", H, false),
    layer("scenario.outputs_buffered", "count", V, false),
    layer("fuzz.check_replay_s", "s", H, false),
    layer("fuzz.checker_violations", "count", V, false),
    // The ledger: probe time x the layer's operation count / measured host CPU.
    layer("ledger.simnet_share", "ratio", H, false),
    layer("ledger.crypto_share", "ratio", H, false),
    layer("ledger.tob_share", "ratio", H, false),
    layer("ledger.state_share", "ratio", H, false),
    layer("ledger.store_share", "ratio", H, false),
    layer("ledger.workload_share", "ratio", H, false),
    layer("ledger.unattributed_share", "ratio", H, false),
    // The traced pass itself.
    layer("trace.spans", "count", H, false),
    layer("trace_overhead_share", "ratio", H, false),
];

/// Operation counts of the measured window, per layer: what the ledger
/// multiplies probe times by.
#[derive(Clone, Debug, Default)]
pub struct LayerCounts {
    pub events: u64,
    /// Distinct rounds executed.
    pub rounds: u64,
    /// Distinct `(cluster, round)` stage-1 completions: each took at least one
    /// local total-order decision and produced one certified round package.
    pub packages: u64,
    pub writes: u64,
    pub reads: u64,
    /// Operations issued or due in the window.
    pub issued: u64,
    /// Checkpoints replicas took at a cadence boundary / adopted from peers.
    pub checkpoints_installed: u64,
    pub checkpoints_adopted: u64,
}

/// Fold the window's outputs and `NetStats` into the count-type per-layer
/// metrics. Everything here is on the virtual clock except the three
/// `scenario.*` host times and `simnet.host_ns_per_event`.
pub fn fold(data: &RunData, window: &WindowOps, window_cpu_s: f64) -> (Values, LayerCounts) {
    let plan = &data.plan;
    let (start, end) = (plan.phases.window_start(), plan.phases.window_end());
    let in_window = |t: Time| t >= start && t < end;
    let ops = window.completed_in_window.max(1) as f64;
    let (s0, s1) = &data.window_stats;

    let mut rounds: BTreeMap<Round, usize> = BTreeMap::new();
    let mut packages: BTreeSet<(ClusterId, Round)> = BTreeSet::new();
    let mut stage_ms: [Vec<f64>; 3] = Default::default();
    let mut leader_changes: BTreeSet<(ClusterId, ReplicaId, u64)> = BTreeSet::new();
    let mut leader_change_times: BTreeMap<ClusterId, Vec<Time>> = BTreeMap::new();
    let mut reconfig_at: BTreeMap<(ReplicaId, bool), Time> = BTreeMap::new();
    let mut restarted_at: BTreeMap<ReplicaId, Time> = BTreeMap::new();
    let (mut catchup_ms, mut catchup_rounds, mut catchup_bytes) = (0.0f64, 0u64, 0u64);
    let mut evidence = 0u64;
    let (mut entries, mut value_bytes, mut digests) = (0u64, 0u64, 0u64);
    let (mut installed, mut adopted) = (0u64, 0u64);
    let (mut flushes, mut flushed_ops, mut queue_max, mut inflight_max) =
        (0u64, 0u64, 0usize, 0usize);
    let mut shed: BTreeMap<ReplicaId, (u64, u64)> = BTreeMap::new();
    for output in &data.outputs {
        match output {
            Output::RoundExecuted { round, txns, at, .. } if in_window(*at) => {
                rounds.entry(*round).or_insert(*txns);
            }
            Output::StageCompleted { cluster, round, stage, started_at, completed_at, .. }
                if in_window(*completed_at) =>
            {
                let idx = StageKind::ALL.iter().position(|s| s == stage).expect("known stage");
                stage_ms[idx].push(completed_at.since(*started_at).as_millis_f64());
                if *stage == StageKind::IntraCluster {
                    packages.insert((*cluster, *round));
                }
            }
            Output::LeaderChanged { cluster, new_leader, timestamp, at, .. } if in_window(*at) => {
                leader_changes.insert((*cluster, *new_leader, *timestamp));
                leader_change_times.entry(*cluster).or_default().push(*at);
            }
            Output::ReconfigApplied { replica, joined, at, .. } => {
                reconfig_at.entry((*replica, *joined)).or_insert(*at);
            }
            Output::ReplicaRestarted { replica, at, .. } => {
                restarted_at.insert(*replica, *at);
            }
            Output::RecoveryCompleted {
                replica,
                rounds_transferred,
                bytes_transferred,
                at,
                ..
            } => {
                if let Some(began) = restarted_at.get(replica) {
                    catchup_ms = catchup_ms.max(at.since(*began).as_millis_f64());
                    catchup_rounds += rounds_transferred;
                    catchup_bytes += bytes_transferred;
                }
            }
            Output::ByzantineRejected { .. } | Output::EquivocationObserved { .. } => evidence += 1,
            Output::StateDigest { entries: e, value_bytes: b, at, .. } if in_window(*at) => {
                (entries, value_bytes) = (*e, *b);
                digests += 1;
            }
            Output::CheckpointInstalled { adopted: a, at, .. } if in_window(*at) => {
                if *a {
                    adopted += 1;
                } else {
                    installed += 1;
                }
            }
            Output::BrokerFlushed { broker, ops, queue, inflight, shed_total, at, .. } => {
                let seen = shed.entry(*broker).or_insert((0, 0));
                if *at < start {
                    seen.0 = *shed_total;
                }
                if *at < end {
                    seen.1 = *shed_total;
                }
                if in_window(*at) {
                    flushes += 1;
                    flushed_ops += *ops as u64;
                    queue_max = queue_max.max(*queue);
                    inflight_max = inflight_max.max(*inflight);
                }
            }
            _ => {}
        }
    }

    // Scheduled event -> first `ReconfigApplied` naming the replica. The
    // runner reports joined replicas in the canonical order of their events.
    let mut joins: Vec<(Time, ClusterId)> = Vec::new();
    let mut apply_ms = Vec::new();
    let mut leader_gap_ms = 0.0f64;
    for (at, event) in &plan.events {
        match event {
            ScenarioEvent::Join { cluster, .. } => joins.push((*at, *cluster)),
            ScenarioEvent::Leave { replica } => {
                if let Some(applied) = reconfig_at.get(&(*replica, false)) {
                    apply_ms.push(applied.since(*at).as_millis_f64());
                }
            }
            ScenarioEvent::Crash { replica } => {
                let led = plan.config.clusters.iter().find(|c| c.replicas[0].0 == *replica);
                let next = led
                    .and_then(|c| leader_change_times.get(&c.id))
                    .and_then(|changes| changes.iter().filter(|t| **t > *at).min().copied());
                if let Some(next) = next {
                    leader_gap_ms = leader_gap_ms.max(next.since(*at).as_millis_f64());
                }
            }
            _ => {}
        }
    }
    joins.sort();
    for ((at, _), replica) in joins.iter().zip(&data.joined) {
        if let Some(applied) = reconfig_at.get(&(*replica, true)) {
            apply_ms.push(applied.since(*at).as_millis_f64());
        }
    }

    let events = s1.events_processed - s0.events_processed;
    let shed_ops: u64 = shed.values().map(|(before, by_end)| by_end - before).sum();
    let issued = window.ops.len() as u64;
    let window_s = plan.phases.window.as_secs_f64();
    let txns_per_round = if rounds.is_empty() {
        0.0
    } else {
        rounds.values().sum::<usize>() as f64 / rounds.len() as f64
    };
    let stage_p50 = |idx: usize| percentile(&sorted(&stage_ms[idx]), 50.0).unwrap_or(0.0);
    let slice_max = data.host.window_slices_s().fold(0.0, f64::max);
    let values = vec![
        ("simnet.events_per_op", events as f64 / ops),
        ("simnet.msgs_local_per_op", (s1.local_messages - s0.local_messages) as f64 / ops),
        ("simnet.msgs_global_per_op", (s1.global_messages - s0.global_messages) as f64 / ops),
        ("simnet.bytes_per_op", (s1.bytes_sent - s0.bytes_sent) as f64 / ops),
        ("simnet.dropped_msgs", (s1.dropped_messages - s0.dropped_messages) as f64),
        ("simnet.host_ns_per_event", window_cpu_s * 1e9 / events.max(1) as f64),
        ("hamava.rounds_per_s", rounds.len() as f64 / window_s),
        ("hamava.txns_per_round", txns_per_round),
        ("hamava.stage1_intra_ms_p50", stage_p50(0)),
        ("hamava.stage2_inter_ms_p50", stage_p50(1)),
        ("hamava.stage3_exec_ms_p50", stage_p50(2)),
        ("hamava.write_share", window.writes_in_window as f64 / ops),
        ("hamava.leader_changes", leader_changes.len() as f64),
        ("hamava.leader_change_gap_ms", leader_gap_ms),
        ("hamava.reconfigs_applied", reconfig_at.len() as f64),
        ("hamava.reconfig_apply_ms_p50", median(apply_ms)),
        ("hamava.catchup_ms", catchup_ms),
        ("hamava.catchup_rounds", catchup_rounds as f64),
        ("hamava.catchup_bytes", catchup_bytes as f64),
        ("hamava.evidence_outputs", evidence as f64),
        ("state.entries", entries as f64),
        ("state.value_mb", value_bytes as f64 / (1024.0 * 1024.0)),
        ("state.digest_outputs", digests as f64),
        ("store.checkpoints_installed", installed as f64),
        ("store.checkpoints_adopted", adopted as f64),
        ("broker.flushes", flushes as f64),
        ("broker.ops_per_batch_mean", flushed_ops as f64 / flushes.max(1) as f64),
        ("broker.queue_depth_max", queue_max as f64),
        ("broker.inflight_max", inflight_max as f64),
        ("broker.shed_ops", shed_ops as f64),
        ("broker.shed_share", shed_ops as f64 / issued.max(1) as f64),
        ("workload.generator_lag_ms", data.host.generator_lag_ms),
        ("scenario.deploy_s", data.host.deploy_s()),
        ("scenario.warmup_s", data.host.setup_s() - data.host.deploy_s()),
        ("scenario.slice_wall_ms_max", slice_max * 1e3),
        ("scenario.outputs_buffered", data.outputs.len() as f64),
    ];
    let counts = LayerCounts {
        events,
        rounds: rounds.len() as u64,
        packages: packages.len() as u64,
        writes: window.writes_in_window,
        reads: window.completed_in_window - window.writes_in_window,
        issued,
        checkpoints_installed: installed,
        checkpoints_adopted: adopted,
    };
    (values, counts)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Host nanoseconds the ledger attributes to each layer, before normalising.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LedgerEstimate {
    pub simnet: f64,
    pub crypto: f64,
    pub tob: f64,
    pub state: f64,
    pub store: f64,
    pub workload: f64,
}

/// Turn per-layer estimates into shares of the measured host CPU that sum to 1
/// with `ledger.unattributed_share`. The estimates are products of a probe time
/// and an operation count, so they can overshoot: when their sum exceeds the
/// measured CPU the shares are scaled to the sum and nothing is left unattributed.
pub fn ledger_shares(estimate: LedgerEstimate, measured_cpu_ns: f64) -> Values {
    let LedgerEstimate { simnet, crypto, tob, state, store, workload } = estimate;
    let attributed = simnet + crypto + tob + state + store + workload;
    let whole = measured_cpu_ns.max(attributed).max(f64::MIN_POSITIVE);
    vec![
        ("ledger.simnet_share", simnet / whole),
        ("ledger.crypto_share", crypto / whole),
        ("ledger.tob_share", tob / whole),
        ("ledger.state_share", state / whole),
        ("ledger.store_share", store / whole),
        ("ledger.workload_share", workload / whole),
        ("ledger.unattributed_share", (whole - attributed) / whole),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_shares_sum_to_one() {
        let estimate = LedgerEstimate {
            simnet: 3e9,
            crypto: 1e9,
            tob: 2e9,
            state: 0.5e9,
            store: 0.25e9,
            workload: 0.25e9,
        };
        for measured in [10e9, 7e9, 4e9, 0.0] {
            let shares = ledger_shares(estimate, measured);
            let sum: f64 = shares.iter().map(|(_, v)| v).sum();
            assert!((sum - 1.0).abs() < 1e-12, "shares sum to {sum} at {measured}");
            assert!(shares.iter().all(|(_, v)| (0.0..=1.0).contains(v)));
        }
        // Under-attribution leaves the rest visible instead of hiding it.
        let shares = ledger_shares(estimate, 14e9);
        assert_eq!(shares.last(), Some(&("ledger.unattributed_share", 0.5)));
        assert_eq!(ledger_shares(LedgerEstimate::default(), 1e9).last().unwrap().1, 1.0);
    }
}

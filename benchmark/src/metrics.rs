//! End-to-end metrics: the registry (name, unit, clock, direction, bound) and
//! their extraction from a run's `Output` stream.

use crate::workloads::Plan;
use ava_types::{ClientId, ClusterId, Duration, Output, Time, TxId};
use ava_workload::{is_virtual_client, AggregateStream};
use std::collections::{BTreeMap, HashMap};

/// Which clock a metric is read from. *Virtual* numbers are what the paper
/// reports: with a fixed seed they repeat bit for bit and only a protocol or
/// cost-model change may move them. *Host* numbers are what a run costs the
/// person running it: they are what code optimisations move.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Clock {
    Virtual,
    Host,
}

impl Clock {
    pub fn label(self) -> &'static str {
        match self {
            Clock::Virtual => "virtual",
            Clock::Host => "host",
        }
    }
}

/// One metric of the benchmark.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which an end-to-end metric may worsen
    /// before a change counts as a regression (`None` for per-layer metrics).
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    higher_is_better: bool,
    bound: f64,
) -> MetricDef {
    MetricDef { name, unit, clock, higher_is_better, bound: Some(bound) }
}

/// Latency limit of the service-level objective: an operation is on time when
/// it completes within this long of its issue (closed loop) or due (open loop) time.
pub const SLO: Duration = Duration(1_000_000);

/// The end-to-end metrics, reported by every workload. A bound is at least
/// three times the widest spread ten runs on ten seeds showed on any workload,
/// with room to spare, capped at the contract's 25 % (README "baseline");
/// `setup_s` carries the largest. The bounds judge runs on *different* seeds;
/// on one seed a virtual metric repeats exactly, and `--expect-fingerprints`
/// is the check that it did.
pub const END_TO_END: [MetricDef; 11] = [
    e2e("committed_tps", "op/s", Clock::Virtual, true, 0.15),
    e2e("commit_latency_p50_ms", "ms", Clock::Virtual, false, 0.25),
    e2e("commit_latency_p99_ms", "ms", Clock::Virtual, false, 0.2),
    e2e("read_latency_p99_ms", "ms", Clock::Virtual, false, 0.15),
    e2e("completed_ops_share", "ratio", Clock::Virtual, true, 0.05),
    e2e("slo_ok_share", "ratio", Clock::Virtual, true, 0.15),
    e2e("service_gap_max_ms", "ms", Clock::Virtual, false, 0.25),
    e2e("host_wall_us_per_op", "us", Clock::Host, false, 0.2),
    e2e("host_cpu_us_per_op", "us", Clock::Host, false, 0.2),
    e2e("peak_rss_mb", "MB", Clock::Host, false, 0.15),
    e2e("setup_s", "s", Clock::Host, false, 0.25),
];

/// Named values of one pass, in registry order.
pub type Values = Vec<(&'static str, f64)>;

/// The median of `samples` (the mean of the two middle ones; 0 for none).
pub fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => samples[n / 2],
        _ => (samples[n / 2 - 1] + samples[n / 2]) / 2.0,
    }
}

/// Host cost of a run: each figure the median over its replicates, at the
/// reference speed (`run::HostTimes`).
#[derive(Clone, Copy, Debug)]
pub struct HostCost {
    pub wall_us_per_op: f64,
    pub cpu_us_per_op: f64,
    pub setup_s: f64,
    /// `VmHWM` as the first replicate returned.
    pub peak_rss_mb: f64,
}

/// The `p`-th percentile (nearest rank) of `sorted`, refused unless at least
/// ten samples lie beyond it: a tail read off fewer is one outlier's value.
pub fn percentile(sorted: &[f64], p: f64) -> Result<f64, String> {
    assert!((0.0..100.0).contains(&p), "percentile out of range");
    let n = sorted.len();
    // `p * n` first: 99 * 1000 / 100 is exact where 0.99 * 1000 is not.
    let rank = ((p * n as f64 / 100.0) - 1e-9).ceil().max(1.0) as usize;
    if n < rank + 10 {
        return Err(format!(
            "p{p} needs 10 samples beyond it, {n} samples give {}",
            n - rank.min(n)
        ));
    }
    Ok(sorted[rank - 1])
}

/// One operation the load generator issued (closed loop) or was due to issue
/// (open loop) inside the measured window.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Op {
    pub due: Time,
    pub completed: Option<Time>,
    pub is_write: bool,
}

impl Op {
    fn latency_ms(&self) -> Option<f64> {
        self.completed.map(|done| done.since(self.due).as_millis_f64())
    }
}

/// Latency statistics over the window's operations, timed from their due time.
/// An operation that was shed, refused or still unfinished when the drain ended
/// has no latency: it counts against both shares.
#[derive(Clone, Debug)]
pub struct OpStats {
    pub attempted: u64,
    pub completed: u64,
    pub slo_ok: u64,
    pub write_ms: Vec<f64>,
    pub read_ms: Vec<f64>,
}

pub fn op_stats<'a>(ops: impl IntoIterator<Item = &'a Op>) -> OpStats {
    let mut stats = OpStats {
        attempted: 0,
        completed: 0,
        slo_ok: 0,
        write_ms: Vec::new(),
        read_ms: Vec::new(),
    };
    for op in ops {
        stats.attempted += 1;
        let Some(ms) = op.latency_ms() else { continue };
        stats.completed += 1;
        if ms <= SLO.as_millis_f64() {
            stats.slo_ok += 1;
        }
        if op.is_write {
            stats.write_ms.push(ms);
        } else {
            stats.read_ms.push(ms);
        }
    }
    stats.write_ms.sort_by(f64::total_cmp);
    stats.read_ms.sort_by(f64::total_cmp);
    stats
}

/// Longest interval inside `[start, end]` in which some cluster completed no
/// write, in milliseconds. `commits` holds each cluster's write completion
/// times; a cluster with none is silent for the whole window.
pub fn service_gap_max_ms(
    commits: &BTreeMap<ClusterId, Vec<Time>>,
    clusters: &[ClusterId],
    start: Time,
    end: Time,
) -> f64 {
    let mut worst = Duration::ZERO;
    for cluster in clusters {
        let mut times: Vec<Time> = commits
            .get(cluster)
            .map(|t| t.iter().copied().filter(|t| *t >= start && *t <= end).collect())
            .unwrap_or_default();
        times.sort();
        let mut prev = start;
        for t in times.into_iter().chain([end]) {
            worst = worst.max(t.since(prev));
            prev = t;
        }
    }
    worst.as_millis_f64()
}

/// The operations of the measured window and when each cluster committed writes.
pub struct WindowOps {
    pub ops: Vec<Op>,
    /// Operations (reads and writes) completed inside the window, whenever issued.
    pub completed_in_window: u64,
    /// Writes among `completed_in_window`.
    pub writes_in_window: u64,
    pub commits: BTreeMap<ClusterId, Vec<Time>>,
}

/// The arrivals the open-loop generators were due to issue in `[start, end)`:
/// regenerated outside the program from the same seed, so an operation the
/// program never acknowledged is still counted.
fn due_arrivals(plan: &Plan, start: Time, end: Time) -> HashMap<TxId, (Time, bool)> {
    let tier = plan.tier.as_ref().expect("open-loop plan has a broker tier");
    let mut due = HashMap::new();
    for index in 0..plan.config.clusters.len() as u32 {
        let mut stream = AggregateStream::new(
            tier.load.clone(),
            ava_workload::virtual_client_base(index),
            ava_broker::stream_seed(plan.opts.seed, index),
        );
        for (at, tx) in stream.drain_until(end) {
            if at >= start {
                due.insert(tx.id, (at, tx.kind.is_write()));
            }
        }
    }
    due
}

/// Fold the run's `TxCompleted` outputs into the window's operations.
///
/// Open loop: the population is the regenerated due set. Closed loop: a client
/// numbers its requests in issue order, so every sequence number between a
/// client's first and last request issued in the window was issued in it —
/// the ones with no completion record were abandoned (lost to a crash, or
/// dropped by the client's own 3 s retry timer).
pub fn window_ops(plan: &Plan, outputs: &[Output]) -> Result<WindowOps, String> {
    let (start, end) = (plan.phases.window_start(), plan.phases.window_end());
    let mut completed_in_window = 0;
    let mut writes_in_window = 0;
    let mut commits: BTreeMap<ClusterId, Vec<Time>> = BTreeMap::new();
    let mut due = if plan.tier.is_some() { due_arrivals(plan, start, end) } else { HashMap::new() };
    let mut ops = Vec::new();
    let mut seq_span: BTreeMap<ClientId, (u64, u64, u64)> = BTreeMap::new();
    for output in outputs {
        let Output::TxCompleted { tx, client, cluster, issued_at, completed_at, is_write } = output
        else {
            continue;
        };
        if *completed_at >= start && *completed_at < end {
            completed_in_window += 1;
            if *is_write {
                writes_in_window += 1;
                commits.entry(*cluster).or_default().push(*completed_at);
            }
        }
        if *issued_at < start || *issued_at >= end {
            continue;
        }
        if is_virtual_client(*client) {
            match due.remove(tx) {
                Some((at, write)) if at == *issued_at && write == *is_write => {}
                other => {
                    return Err(format!(
                        "{tx:?} acknowledged as issued at {issued_at} (write: {is_write}) but the \
                         seeded arrival stream holds {other:?}"
                    ))
                }
            }
        } else {
            let span = seq_span.entry(*client).or_insert((tx.seq, tx.seq, 0));
            *span = (span.0.min(tx.seq), span.1.max(tx.seq), span.2 + 1);
        }
        ops.push(Op { due: *issued_at, completed: Some(*completed_at), is_write: *is_write });
    }
    // Open loop: what is left of the due set was never acknowledged.
    ops.extend(due.into_values().map(|(at, is_write)| Op { due: at, completed: None, is_write }));
    // Closed loop: gaps in a client's sequence numbers were abandoned requests.
    for (first, last, seen) in seq_span.into_values() {
        let abandoned = (last - first + 1) - seen;
        ops.extend((0..abandoned).map(|_| Op { due: start, completed: None, is_write: true }));
    }
    Ok(WindowOps { ops, completed_in_window, writes_in_window, commits })
}

/// The eleven end-to-end metrics of one run. `windows` holds the folded window
/// of every replicate: their operations are pooled (`stats` is over all of
/// them), throughput is over their summed length, and the service gap is the
/// median of each replicate's longest.
pub fn end_to_end(
    plan: &Plan,
    windows: &[WindowOps],
    stats: &OpStats,
    host: HostCost,
) -> Result<Values, String> {
    let phases = plan.phases;
    let ops: u64 = windows.iter().map(|w| w.completed_in_window).sum();
    if ops == 0 || stats.attempted == 0 {
        return Err("no operation completed inside the measured window".into());
    }
    let clusters: Vec<ClusterId> = plan.config.clusters.iter().map(|c| c.id).collect();
    let commit = |p| percentile(&stats.write_ms, p).map_err(|e| format!("commit latency: {e}"));
    let read_p99 = percentile(&stats.read_ms, 99.0).map_err(|e| format!("read latency: {e}"))?;
    let (start, end) = (phases.window_start(), phases.window_end());
    let gaps_ms =
        windows.iter().map(|w| service_gap_max_ms(&w.commits, &clusters, start, end)).collect();
    Ok(vec![
        ("committed_tps", ops as f64 / (phases.window.as_secs_f64() * windows.len() as f64)),
        ("commit_latency_p50_ms", commit(50.0)?),
        ("commit_latency_p99_ms", commit(99.0)?),
        ("read_latency_p99_ms", read_p99),
        ("completed_ops_share", stats.completed as f64 / stats.attempted as f64),
        ("slo_ok_share", stats.slo_ok as f64 / stats.attempted as f64),
        ("service_gap_max_ms", median(gaps_ms)),
        ("host_wall_us_per_op", host.wall_us_per_op),
        ("host_cpu_us_per_op", host.cpu_us_per_op),
        ("peak_rss_mb", host.peak_rss_mb),
        ("setup_s", host.setup_s),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_a_tail_with_fewer_than_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 of 1000 samples is the 990th: exactly ten lie beyond it.
        assert_eq!(percentile(&samples, 99.0), Ok(990.0));
        assert!(percentile(&samples[..999], 99.0).is_err());
        assert_eq!(percentile(&samples[..20], 50.0), Ok(10.0));
        assert!(percentile(&samples[..19], 50.0).is_err());
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn median_of_an_even_count_is_the_mean_of_the_middle_two() {
        assert_eq!(median(vec![]), 0.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn shed_and_unfinished_ops_count_as_misses_from_their_due_time() {
        let op = |due_ms, done_ms: Option<u64>| Op {
            due: Time::from_millis(due_ms),
            completed: done_ms.map(Time::from_millis),
            is_write: true,
        };
        // Due at 0: on time. Due at 100, done at 1100: exactly at the limit.
        // Due at 200 but submitted late by a stall, done at 1500: late — the
        // wait counts because latency runs from the due time. Never done: a miss.
        let stats =
            op_stats(&[op(0, Some(400)), op(100, Some(1100)), op(200, Some(1500)), op(300, None)]);
        assert_eq!((stats.attempted, stats.completed, stats.slo_ok), (4, 3, 2));
        assert_eq!(stats.write_ms, vec![400.0, 1000.0, 1300.0]);
    }

    #[test]
    fn service_gap_spans_a_leader_crash_in_one_cluster() {
        let ms = Time::from_millis;
        let mut commits = BTreeMap::new();
        // Cluster 0 commits every 100 ms throughout; cluster 1 loses its leader
        // at 2 s and resumes at 6.5 s.
        commits.insert(ClusterId(0), (0..100).map(|i| ms(i * 100)).collect::<Vec<_>>());
        commits.insert(
            ClusterId(1),
            (0..100).map(|i| ms(i * 100)).filter(|t| *t <= ms(2000) || *t >= ms(6500)).collect(),
        );
        let clusters = [ClusterId(0), ClusterId(1)];
        assert_eq!(service_gap_max_ms(&commits, &clusters, ms(0), ms(10_000)), 4500.0);
        // A gap that runs into the window's edge counts up to the edge.
        assert_eq!(service_gap_max_ms(&commits, &clusters, ms(3000), ms(6000)), 3000.0);
        // A cluster that never commits is silent for the whole window.
        let all = [ClusterId(0), ClusterId(1), ClusterId(2)];
        assert_eq!(service_gap_max_ms(&commits, &all, ms(0), ms(10_000)), 10_000.0);
    }

    #[test]
    fn names_and_units_fit_the_benchmark_contract() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let per_layer = crate::layers::PER_LAYER;
        assert!(END_TO_END.len() <= 16 && per_layer.len() <= 128);
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(per_layer.iter()) {
            assert!(name_ok(def.name), "bad metric name {:?}", def.name);
            assert!(unit_ok(def.unit), "bad unit {:?} on {}", def.unit, def.name);
            assert!(seen.insert(def.name), "metric name {} used twice", def.name);
        }
        for def in END_TO_END {
            assert!(def.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "bound of {}", def.name);
        }
        assert!(per_layer.iter().all(|def| def.bound.is_none()));
        for workload in crate::workloads::Workload::ALL {
            assert!(name_ok(workload.name()) && seen.insert(workload.name()));
            assert!(workload.why().len() <= 200 && !workload.why().contains('\n'));
        }
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").expect("setup_s is required");
        assert!(setup.unit == "s" && !setup.higher_is_better);
        let widest = END_TO_END.iter().filter_map(|d| d.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s carries the largest bound");
    }
}

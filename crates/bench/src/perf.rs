//! Wall-clock performance harness for the simulation hot path.
//!
//! This module times *end-to-end* deployment shapes (E0/E1/E3 pipelines, the
//! GeoBFT baseline, the store-enabled E10 shapes, the broker-tier E11 shapes and
//! the KV E13 shapes) in real wall-clock time and emits a machine-readable
//! `BENCH_PR*.json` document, so a later PR cannot silently regress the hot path:
//! the `perf_wallclock` binary is the CLI front end and CI gates on it. It is a
//! gate, not a place to claim a gain — claims are made with the repo benchmark
//! (`benchmark/`), whose probes also time the micro-costs layer by layer.

use crate::experiments::{e3_setup, Protocol};
use crate::report::{fmt, print_table};
use ava_hamava::harness::DeploymentOptions;
use ava_scenario::{thread_cpu_time, BrokerTier, DynDeployment, RunPool, Scenario};
use ava_simnet::{CostModel, LatencyModel, ProfileRow};
use ava_store::StoreConfig;
use ava_types::{Duration, Output, Region, ReplicaId, SystemConfig, Time};
use ava_workload::{AggregateLoad, WorkloadSpec};
use std::collections::BTreeMap;
use std::time::Instant;

/// Timing record of one end-to-end shape.
#[derive(Clone, Debug)]
pub struct PerfRecord {
    /// Shape name (stable across PRs; used to join against baselines).
    pub name: String,
    /// Best-of-iterations wall-clock time in milliseconds.
    pub wall_ms: f64,
    /// Median of the per-iteration wall-clock times in milliseconds (equals
    /// `wall_ms` for a single iteration; the spread vs. `wall_ms` makes
    /// run-to-run noise visible in the BENCH json).
    pub wall_ms_median: f64,
    /// Mean of the per-iteration wall-clock times in milliseconds.
    pub wall_ms_mean: f64,
    /// Best-of-iterations *thread CPU time* in milliseconds, when the platform
    /// exposes per-thread CPU clocks (`None` elsewhere). Under `--jobs > 1`
    /// concurrent shapes contend for cores and inflate each other's wall-clock,
    /// so CPU time is the stable per-shape cost metric — the regression gate
    /// prefers it whenever both sides of a comparison have it.
    pub cpu_ms: Option<f64>,
    /// Simulator events processed during one run (0 when not tracked).
    pub events: u64,
    /// Events per wall-clock second (0 when not tracked).
    pub events_per_sec: f64,
    /// Transactions completed during one run (sanity check that work happened).
    pub completed_txns: usize,
}

fn opts(seed: u64) -> DeploymentOptions {
    DeploymentOptions {
        seed,
        latency: LatencyModel::paper_table2(),
        costs: CostModel::cloud_vm(),
        workload: WorkloadSpec { key_space: 1_000, ..WorkloadSpec::default() },
        clients_per_cluster: 1,
        client_concurrency: 32,
        store: None,
        state_machine: ava_hamava::StateMachineKind::Counter,
    }
}

fn small_config(clusters: usize) -> SystemConfig {
    let mut config = SystemConfig::even_split_single_region(4 * clusters, clusters, Region::UsWest);
    config.params.batch_size = 20;
    config
}

fn multi_region_config(clusters: usize) -> SystemConfig {
    let regions = [Region::UsWest, Region::Europe, Region::AsiaSouth];
    let mut config = SystemConfig::even_split_multi_region(4 * clusters, clusters, &regions);
    config.params.batch_size = 20;
    config
}

fn completed(outputs: &[Output]) -> usize {
    outputs.iter().filter(|o| matches!(o, Output::TxCompleted { .. })).count()
}

fn median(sorted: &[f64]) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 0 {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Time `run` (which returns `(events_processed, completed_txns)`) `iters` times and
/// record the fastest pass by wall-clock and by thread CPU time, plus the
/// median/mean of the wall-clock samples; counters come from the last pass (runs
/// are seed-deterministic, so every pass produces identical counters).
fn time_shape(name: &str, iters: u32, mut run: impl FnMut() -> (u64, usize)) -> PerfRecord {
    let mut walls = Vec::with_capacity(iters.max(1) as usize);
    let mut best_cpu = f64::INFINITY;
    let mut events = 0u64;
    let mut txns = 0usize;
    for _ in 0..iters.max(1) {
        let cpu_before = thread_cpu_time();
        let start = Instant::now();
        let (e, t) = run();
        walls.push(start.elapsed().as_secs_f64() * 1e3);
        if let (Some(before), Some(after)) = (cpu_before, thread_cpu_time()) {
            best_cpu = best_cpu.min(after.saturating_sub(before).as_secs_f64() * 1e3);
        }
        events = e;
        txns = t;
    }
    walls.sort_by(|a, b| a.total_cmp(b));
    let best = walls[0];
    PerfRecord {
        name: name.to_string(),
        wall_ms: best,
        wall_ms_median: median(&walls),
        wall_ms_mean: walls.iter().sum::<f64>() / walls.len() as f64,
        cpu_ms: (best_cpu.is_finite()).then_some(best_cpu),
        events,
        events_per_sec: if best > 0.0 { events as f64 / (best / 1e3) } else { 0.0 },
        completed_txns: txns,
    }
}

/// One nameable end-to-end shape: a label plus a runnable returning
/// `(events_processed, completed_txns)`. Boxed so heterogeneous shapes can ride
/// one list onto the worker pool.
type Shape = (String, Box<dyn Fn() -> (u64, usize) + Send>);

fn quick_shape_set() -> Vec<Shape> {
    let run_secs = Duration::from_secs(5);
    let deploy_shape = |name: &str, protocol: Protocol, config: SystemConfig, seed: u64| -> Shape {
        (
            name.to_string(),
            Box::new(move || {
                let mut dep = protocol.deploy(config.clone(), opts(seed));
                dep.run_for(run_secs);
                (dep.net_stats().events_processed, completed(dep.outputs()))
            }),
        )
    };
    let mut shapes = Vec::new();
    for clusters in [2usize, 3] {
        shapes.push(deploy_shape(
            &format!("e0/hotstuff_{clusters}clusters_5s"),
            Protocol::AvaHotStuff,
            small_config(clusters),
            1,
        ));
        shapes.push(deploy_shape(
            &format!("e0/bftsmart_{clusters}clusters_5s"),
            Protocol::AvaBftSmart,
            small_config(clusters),
            2,
        ));
    }
    shapes.push(deploy_shape(
        "e1/hotstuff_3clusters_multiregion_5s",
        Protocol::AvaHotStuff,
        multi_region_config(3),
        5,
    ));
    let mut hetero =
        SystemConfig::heterogeneous(&[vec![Region::AsiaSouth; 9], vec![Region::Europe; 5]]);
    hetero.params.batch_size = 20;
    shapes.push(deploy_shape("e3/heterogeneous_9asia_5eu_5s", Protocol::AvaHotStuff, hetero, 3));
    shapes.push(deploy_shape("e6/geobft_2clusters_5s", Protocol::GeoBft, small_config(2), 4));
    // Store-enabled hot path: the same E0 shape with the ava-store round log +
    // checkpoints on (every append pays the fsync cost model), and a
    // crash→restart→catch-up variant exercising the recovery path end to end.
    let store_opts = |seed: u64| {
        let mut o = opts(seed);
        o.store = Some(StoreConfig::every(8));
        o
    };
    shapes.push((
        "e10/hotstuff_2clusters_store_5s".to_string(),
        Box::new(move || {
            let mut dep = Protocol::AvaHotStuff.deploy(small_config(2), store_opts(6));
            dep.run_for(run_secs);
            (dep.net_stats().events_processed, completed(dep.outputs()))
        }),
    ));
    let store_opts7 = {
        let mut o = opts(7);
        o.store = Some(StoreConfig::every(8));
        o
    };
    shapes.push((
        "e10/hotstuff_crash_restart_5s".to_string(),
        Box::new(move || {
            let run = Scenario::builder(Protocol::AvaHotStuff, small_config(2))
                .options(store_opts7.clone())
                .run_for(run_secs)
                .crash_at(Time::from_secs(1), ReplicaId(1))
                .restart_at(Time::from_secs(3), ReplicaId(1))
                .build()
                .run();
            (run.stats.events_processed, completed(&run.outputs))
        }),
    ));
    // Broker-tier hot path (the PR8 subsystem): aggregate virtual-client load
    // through one broker per cluster. The second variant drives the tier well
    // past the replicas' execution ceiling (heavyweight state machine), so the
    // saturated bookkeeping — full batches, stalled in-flight slots, deep
    // pending-ack fan-back — is on the timed path too.
    let broker_shape =
        |name: &str, offered_tps: u64, per_tx_execute: Duration, seed: u64| -> Shape {
            let tier = BrokerTier {
                brokers_per_cluster: 1,
                queue_cap: 20_000,
                load: AggregateLoad {
                    virtual_clients: 20_000,
                    offered_tps,
                    issue_for: Duration::from_secs(4),
                    ..AggregateLoad::default()
                },
                ..BrokerTier::default()
            };
            (
                name.to_string(),
                Box::new(move || {
                    let mut o = opts(seed);
                    o.clients_per_cluster = 0;
                    o.costs.per_tx_execute = per_tx_execute;
                    let run = Scenario::builder(Protocol::AvaHotStuff, small_config(2))
                        .options(o)
                        .run_for(run_secs)
                        .brokers(tier.clone())
                        .build()
                        .run();
                    (run.stats.events_processed, completed(&run.outputs))
                }),
            )
        };
    shapes.push(broker_shape(
        "e11/hotstuff_2clusters_broker_2ktps_5s",
        2_000,
        Duration::from_micros(5),
        8,
    ));
    shapes.push(broker_shape(
        "e11/hotstuff_2clusters_broker_saturated_5s",
        16_000,
        Duration::from_micros(250),
        9,
    ));
    // KV state-machine hot path (the PR10 subsystem): real value bytes move
    // through execution, reads answer from versioned state, every round folds
    // the incremental set-hash digest, and the per-value-byte cost model is
    // live. One read-heavy shape (the cluster-local read path dominates) and
    // one write-heavy 1 KiB shape (apply + digest update dominate).
    let kv_shape = |name: &str, read_ratio: f64, seed: u64| -> Shape {
        let mut o = opts(seed);
        o.state_machine = ava_hamava::StateMachineKind::Kv;
        o.workload = WorkloadSpec { read_ratio, ..o.workload };
        (
            name.to_string(),
            Box::new(move || {
                let mut dep = Protocol::AvaHotStuff.deploy(small_config(2), o.clone());
                dep.run_for(run_secs);
                (dep.net_stats().events_processed, completed(dep.outputs()))
            }),
        )
    };
    shapes.push(kv_shape("e13/hotstuff_2clusters_kv_readheavy_5s", 0.95, 10));
    shapes.push(kv_shape("e13/hotstuff_2clusters_kv_writeheavy_1kib_5s", 0.1, 11));
    shapes
}

/// Run and time the quick end-to-end shapes on `jobs` worker threads. Each
/// shape is a full deployment driven for 5 s of virtual time; a shape's `iters`
/// passes run back-to-back on one worker (so its best-of wall-clock stays
/// comparable), while distinct shapes time concurrently — which is why
/// [`PerfRecord`] carries thread CPU time.
/// Returns the records (in the canonical shape order regardless of `jobs`) plus
/// the pool wall-clock for the whole set in milliseconds.
pub fn run_quick_shapes(iters: u32, jobs: usize) -> (Vec<PerfRecord>, f64) {
    let start = Instant::now();
    let records =
        RunPool::new(jobs).map(quick_shape_set(), |_, (name, run)| time_shape(&name, iters, run));
    (records, start.elapsed().as_secs_f64() * 1e3)
}

/// `perf_wallclock --profile`: run two deployments with the simulator's
/// handler profile on and print, for each, where the host time went — one row
/// per (actor kind × message kind) plus one for the queue pops, largest share
/// first.
///
/// 1. The paper's heterogeneous deployment — E3 setup 3 at scale 3, 15 + 12 +
///    15 replicas on Ava-HotStuff under the load of the repo benchmark's
///    `geo_hetero_counter` workload — for 35 s of virtual time (that
///    workload's warm-up, window and drain together).
/// 2. The KV write shape of the benchmark's `kv_write_1kib`: 2 × 4 replicas in
///    one region on Ava-HotStuff, `KvMachine`, a checkpoint every 8 rounds,
///    90 % 1 KiB writes uniform over 2 000 keys, for 1.24 s of virtual time.
///
/// Every replica executes every round, so each table is followed by the
/// executed-round memo's hit share (ideal (n − 1)/n: 41/42, then 7/8) and
/// the rounds it retains; the KV table also by the checkpoint digests reused.
pub fn profile_deployments() {
    let paper = DeploymentOptions {
        workload: WorkloadSpec::default().with_payload(1024),
        clients_per_cluster: 4,
        client_concurrency: 128,
        ..opts(7)
    };
    let (memo, config) = (ava_hamava::executed_round_stats(), e3_setup(3, 3));
    let replicas = config.total_replicas();
    let dep = Protocol::AvaHotStuff.deploy(config, paper);
    print_profile("paper deployment, counter machine", dep, Duration::from_secs(35));
    print_round_memo(memo, replicas);

    let kv = DeploymentOptions {
        workload: WorkloadSpec {
            read_ratio: 0.1,
            key_space: 2_000,
            zipf_theta: 0.0,
            payload_size: 1024,
            ..WorkloadSpec::default()
        },
        clients_per_cluster: 4,
        client_concurrency: 128,
        store: Some(StoreConfig::every(8)),
        state_machine: ava_hamava::StateMachineKind::Kv,
        ..opts(7)
    };
    let (memo, digests) =
        (ava_hamava::executed_round_stats(), ava_store::checkpoint_digest_stats());
    let config = SystemConfig::even_split_single_region(8, 2, Region::UsWest);
    let replicas = config.total_replicas();
    let dep = Protocol::AvaHotStuff.deploy(config, kv);
    print_profile("KV write shape, 2 x 4 replicas", dep, Duration::from_millis(1_240));
    print_round_memo(memo, replicas);
    let digests_after = ava_store::checkpoint_digest_stats();
    println!(
        "checkpoint digests: {} reused / {} built",
        digests_after.reused - digests.reused,
        digests_after.built - digests.built
    );
}

/// What the executed-round memo did since `before`, on a deployment of
/// `replicas` (its ideal hit share is (replicas − 1)/replicas).
fn print_round_memo(before: ava_hamava::ExecutedRoundStats, replicas: usize) {
    let now = ava_hamava::executed_round_stats();
    let (hits, misses) = (now.hits - before.hits, now.misses - before.misses);
    println!(
        "executed-round memo: {hits} hits / {misses} misses / share {:.4} (ideal {}/{replicas}) \
         / {} rounds retained",
        hits as f64 / (hits + misses).max(1) as f64,
        replicas - 1,
        now.retained
    );
}

fn print_profile(what: &str, mut dep: Box<dyn DynDeployment>, run_for: Duration) {
    dep.enable_profile();
    dep.run_for(run_for);
    let profile = dep.handler_profile().expect("switched on above");
    let events = dep.net_stats().events_processed;
    let pops = ProfileRow { events, post_ns: profile.pop_ns, ..ProfileRow::default() };
    let mut rows: Vec<(String, ProfileRow)> = profile
        .rows()
        .map(|(actor, kind, row)| (format!("{} {kind}", actor.label()), row))
        .chain([("(queue pop)".to_string(), pops)])
        .collect();
    rows.sort_by_key(|(_, r)| std::cmp::Reverse(r.handler_ns + r.post_ns));
    let total = profile.total_ns().max(1) as f64;
    let rows: Vec<Vec<String>> = rows
        .into_iter()
        .map(|(name, r)| {
            let per_event = |ns: u64| fmt(ns as f64 / r.events.max(1) as f64, 0);
            vec![
                name,
                r.events.to_string(),
                fmt(r.handler_ns as f64 / 1e6, 1),
                per_event(r.handler_ns),
                fmt(r.post_ns as f64 / 1e6, 1),
                per_event(r.post_ns),
                r.sends.to_string(),
                format!("{:.1} %", (r.handler_ns + r.post_ns) as f64 * 100.0 / total),
            ]
        })
        .collect();
    print_table(
        &format!("handler profile ({what}): {events} events, {:.0} ms of host time", total / 1e6),
        &[
            "actor · kind",
            "events",
            "handler ms",
            "handler ns/event",
            "post ms",
            "post ns/event",
            "sends",
            "share",
        ],
        &rows,
    );
}

/// Peak resident set size of this process in kiB (Linux `VmHWM`), if available.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// One side of a shape comparison as read back from a committed `BENCH_PR*.json`:
/// the best-of wall-clock plus, when the producing run recorded it, the best-of
/// thread CPU time. Older baselines (pre-PR7) carry only `wall_ms`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BaselineEntry {
    /// Best-of-iterations wall-clock milliseconds.
    pub wall_ms: f64,
    /// Best-of-iterations thread CPU milliseconds, if the baseline recorded it.
    pub cpu_ms: Option<f64>,
}

/// Serialize records into the `BENCH_PR*.json` document. `pool_wall_ms` is the
/// wall-clock of the whole shape set on the worker pool.
pub fn render_json(iters: u32, jobs: usize, pool_wall_ms: f64, records: &[PerfRecord]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"harness\": \"perf_wallclock\",\n");
    out.push_str("  \"mode\": \"quick\",\n");
    out.push_str(&format!("  \"iters\": {iters},\n"));
    out.push_str(&format!("  \"jobs\": {jobs},\n"));
    out.push_str(&format!("  \"pool_wall_ms\": {pool_wall_ms:.3},\n"));
    match peak_rss_kb() {
        Some(kb) => out.push_str(&format!("  \"peak_rss_kb\": {kb},\n")),
        None => out.push_str("  \"peak_rss_kb\": null,\n"),
    }
    out.push_str("  \"shapes\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str("    {");
        out.push_str(&format!("\"name\": \"{}\", ", r.name));
        out.push_str(&format!("\"wall_ms\": {:.3}, ", r.wall_ms));
        out.push_str(&format!("\"wall_ms_median\": {:.3}, ", r.wall_ms_median));
        out.push_str(&format!("\"wall_ms_mean\": {:.3}, ", r.wall_ms_mean));
        match r.cpu_ms {
            Some(cpu) => out.push_str(&format!("\"cpu_ms\": {cpu:.3}, ")),
            None => out.push_str("\"cpu_ms\": null, "),
        }
        out.push_str(&format!("\"events\": {}, ", r.events));
        out.push_str(&format!("\"events_per_sec\": {:.1}, ", r.events_per_sec));
        out.push_str(&format!("\"completed_txns\": {}", r.completed_txns));
        out.push('}');
        out.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Extract per-shape `name -> {wall_ms, cpu_ms}` from a `BENCH_PR*.json` document
/// produced by [`render_json`] (a hand-rolled scan; the format is our own
/// renderer's). Pre-PR7 documents have no `cpu_ms` field; the entry then carries
/// `cpu_ms: None` and comparisons fall back to wall-clock.
pub fn parse_bench_json(text: &str) -> BTreeMap<String, BaselineEntry> {
    fn number_after(line: &str, key: &str) -> Option<f64> {
        let at = line.find(key)?;
        let text: String = line[at + key.len()..]
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
            .collect();
        text.parse().ok()
    }
    let mut map = BTreeMap::new();
    for line in text.lines() {
        let Some(name_at) = line.find("\"name\": \"") else { continue };
        let rest = &line[name_at + 9..];
        let Some(name_end) = rest.find('"') else { continue };
        let name = &rest[..name_end];
        let Some(wall_ms) = number_after(line, "\"wall_ms\": ") else { continue };
        let cpu_ms = number_after(line, "\"cpu_ms\": ");
        map.insert(name.to_string(), BaselineEntry { wall_ms, cpu_ms });
    }
    map
}

/// Shapes that exist on only one side of a run/baseline comparison, as
/// `(missing_from_run, new_in_run)`. Neither direction is a regression: a shape
/// present only in the baseline was removed or renamed (the gate cannot time what
/// did not run), and a shape present only in the run is new and has no baseline
/// yet. `perf_wallclock --check` reports both informationally so adding or
/// retiring a shape can never fail the CI gate spuriously — the next baseline
/// regeneration re-syncs the sets.
pub fn unmatched_shapes(
    records: &[PerfRecord],
    baseline: &BTreeMap<String, BaselineEntry>,
) -> (Vec<String>, Vec<String>) {
    let run_names: Vec<&str> = records.iter().map(|r| r.name.as_str()).collect();
    let missing_from_run =
        baseline.keys().filter(|name| !run_names.contains(&name.as_str())).cloned().collect();
    let new_in_run = records
        .iter()
        .filter(|r| !baseline.contains_key(&r.name))
        .map(|r| r.name.clone())
        .collect();
    (missing_from_run, new_in_run)
}

/// Pick the comparable metric for one shape: thread CPU time when *both* the run
/// and the baseline recorded it (stable under `--jobs > 1` core contention and on
/// shared CI runners), otherwise wall-clock. Returns `(metric_label, run_ms,
/// baseline_ms)`.
fn comparison_metric(r: &PerfRecord, base: &BaselineEntry) -> (&'static str, f64, f64) {
    match (r.cpu_ms, base.cpu_ms) {
        (Some(run_cpu), Some(base_cpu)) => ("cpu", run_cpu, base_cpu),
        _ => ("wall", r.wall_ms, base.wall_ms),
    }
}

/// Compare `records` against committed per-shape baselines: any shape slower than
/// `baseline × (1 + threshold)` is a regression. The comparison runs on thread CPU
/// time when both sides recorded it and on wall-clock otherwise (see
/// `comparison_metric`). Returns one human-readable line per offending shape
/// (empty = gate passes). Only shapes present on both sides are compared — see
/// [`unmatched_shapes`] for the tolerated leftovers.
pub fn check_regressions(
    records: &[PerfRecord],
    baseline: &BTreeMap<String, BaselineEntry>,
    threshold: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    for r in records {
        if let Some(base) = baseline.get(&r.name) {
            let (metric, run_ms, base_ms) = comparison_metric(r, base);
            if base_ms > 0.0 && run_ms > base_ms * (1.0 + threshold) {
                failures.push(format!(
                    "{}: {:.1} ms vs baseline {:.1} ms ({metric}, +{:.0}%, budget +{:.0}%)",
                    r.name,
                    run_ms,
                    base_ms,
                    (run_ms / base_ms - 1.0) * 100.0,
                    threshold * 100.0
                ));
            }
        }
    }
    failures
}

/// One `±N%` comparison line per shape matched against the baseline, printed by
/// `perf_wallclock --check` even when the gate passes, so every CI log shows the
/// per-shape drift instead of a bare "ok". Uses the same metric selection as
/// [`check_regressions`].
pub fn delta_lines(
    records: &[PerfRecord],
    baseline: &BTreeMap<String, BaselineEntry>,
) -> Vec<String> {
    let mut lines = Vec::new();
    for r in records {
        if let Some(base) = baseline.get(&r.name) {
            let (metric, run_ms, base_ms) = comparison_metric(r, base);
            if base_ms > 0.0 {
                lines.push(format!(
                    "{}: {:.1} ms vs baseline {:.1} ms ({metric}, {:+.1}%)",
                    r.name,
                    run_ms,
                    base_ms,
                    (run_ms / base_ms - 1.0) * 100.0
                ));
            }
        }
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(name: &str, wall_ms: f64) -> PerfRecord {
        PerfRecord {
            name: name.to_string(),
            wall_ms,
            wall_ms_median: wall_ms,
            wall_ms_mean: wall_ms,
            cpu_ms: None,
            events: 10,
            events_per_sec: 100.0,
            completed_txns: 5,
        }
    }

    fn entry(wall_ms: f64) -> BaselineEntry {
        BaselineEntry { wall_ms, cpu_ms: None }
    }

    #[test]
    fn json_header_carries_iters_jobs_and_pool_wall_clock() {
        let json = render_json(3, 2, 20.0, &[record("x", 10.0), record("y", 10.0)]);
        assert!(json.contains("\"name\": \"x\"") && json.contains("\"name\": \"y\""));
        assert!(json.contains("\"iters\": 3"));
        assert!(json.contains("\"jobs\": 2"));
        assert!(json.contains("\"pool_wall_ms\": 20.000"));
    }

    #[test]
    fn bench_json_roundtrips_through_the_parser() {
        let mut with_cpu = record("e0/x_2c", 12.5);
        with_cpu.cpu_ms = Some(11.25);
        let records = vec![with_cpu, record("e6/y_3c", 1000.125)];
        let json = render_json(1, 1, 12.0, &records);
        let map = parse_bench_json(&json);
        assert_eq!(map.len(), 2);
        assert!((map["e0/x_2c"].wall_ms - 12.5).abs() < 1e-6);
        assert_eq!(map["e0/x_2c"].cpu_ms, Some(11.25));
        assert!((map["e6/y_3c"].wall_ms - 1000.125).abs() < 1e-6);
        assert_eq!(map["e6/y_3c"].cpu_ms, None);
    }

    #[test]
    fn parser_accepts_pre_pr7_documents_without_cpu_fields() {
        let legacy = r#"{
  "pr": 5,
  "shapes": [
    {"name": "e0/x_2c", "wall_ms": 42.500, "events": 10, "events_per_sec": 1.0, "completed_txns": 5}
  ]
}"#;
        let map = parse_bench_json(legacy);
        assert_eq!(map["e0/x_2c"], BaselineEntry { wall_ms: 42.5, cpu_ms: None });
    }

    #[test]
    fn regression_gate_flags_only_shapes_over_budget() {
        let mut baseline = BTreeMap::new();
        baseline.insert("slow".to_string(), entry(100.0));
        baseline.insert("ok".to_string(), entry(100.0));
        // "new" has no baseline and must be ignored.
        let records = vec![record("slow", 130.0), record("ok", 120.0), record("new", 9.9)];
        let failures = check_regressions(&records, &baseline, 0.25);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].starts_with("slow:"), "{failures:?}");
    }

    #[test]
    fn regression_gate_prefers_cpu_time_when_both_sides_have_it() {
        // Wall-clock looks like a 2x regression (core contention under --jobs),
        // but CPU time is flat — the gate must pass on CPU and say so.
        let mut baseline = BTreeMap::new();
        baseline.insert("s".to_string(), BaselineEntry { wall_ms: 100.0, cpu_ms: Some(90.0) });
        let mut r = record("s", 200.0);
        r.cpu_ms = Some(92.0);
        assert!(check_regressions(&[r.clone()], &baseline, 0.25).is_empty());
        // Against a legacy baseline without cpu_ms, the same record falls back to
        // wall-clock and fails.
        baseline.insert("s".to_string(), entry(100.0));
        let failures = check_regressions(&[r], &baseline, 0.25);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("(wall,"), "{failures:?}");
    }

    #[test]
    fn delta_lines_cover_every_matched_shape_even_when_faster() {
        let mut baseline = BTreeMap::new();
        baseline.insert("fast".to_string(), entry(100.0));
        baseline.insert("slow".to_string(), entry(100.0));
        let records = vec![record("fast", 50.0), record("slow", 150.0), record("new", 1.0)];
        let lines = delta_lines(&records, &baseline);
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("-50.0%"), "{lines:?}");
        assert!(lines[1].contains("+50.0%"), "{lines:?}");
    }

    #[test]
    fn unmatched_shapes_are_tolerated_in_both_directions() {
        // A baseline-only shape (retired) and a run-only shape (new, e.g. the
        // e10/store shapes) must be reported without failing the gate.
        let mut baseline = BTreeMap::new();
        baseline.insert("both".to_string(), entry(100.0));
        baseline.insert("retired".to_string(), entry(50.0));
        let records = vec![record("both", 90.0), record("e10/new_shape", 10.0)];
        let (missing, new) = unmatched_shapes(&records, &baseline);
        assert_eq!(missing, vec!["retired".to_string()]);
        assert_eq!(new, vec!["e10/new_shape".to_string()]);
        assert!(check_regressions(&records, &baseline, 0.25).is_empty());
    }

    #[test]
    fn time_shape_records_best_pass_and_counters() {
        let r = time_shape("t", 3, || (42, 7));
        assert_eq!(r.name, "t");
        assert_eq!(r.events, 42);
        assert_eq!(r.completed_txns, 7);
        assert!(r.wall_ms >= 0.0);
        assert!(r.wall_ms_median >= r.wall_ms);
        assert!(r.wall_ms_mean >= r.wall_ms);
    }
}

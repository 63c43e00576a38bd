//! Experiment runners for E0–E13 and Tables I/II.
//!
//! Every function regenerates one of the paper's figures/tables as a printed table
//! of rows (and returns the rows so tests and EXPERIMENTS.md generation can assert on
//! them). Configurations follow the paper; the `ExperimentScale` controls run length
//! and sweep density so that the default invocation finishes in seconds while
//! `ava-exp <name> --full` runs paper-scale parameters. [`crate::registry`] is the
//! table the `ava-exp` driver runs them from.
//!
//! All experiments are expressed through the declarative scenario API
//! ([`ava_scenario::Scenario`]): a protocol, a configuration, a schedule of typed
//! events, and observers collecting series mid-run. There are no per-protocol
//! deployment `match` arms here — [`Protocol::deploy`] is the single label-to-stack
//! mapping — and fault/churn injection is schedule construction, not generic free
//! functions.

use crate::complexity::complexity_table;
use crate::report::{fmt, print_table, summarize, RunMetrics};
use ava_fuzz::CheckerSet;
use ava_hamava::harness::DeploymentOptions;
use ava_scenario::{
    BrokerStatsObserver, BrokerTier, ByzantineBehavior, ByzantineObserver, ReconfigTraceObserver,
    RecoveryObserver, RunPool, Scenario, ScenarioBuilder, StageBreakdownObserver,
    ThroughputObserver,
};
use ava_simnet::{CostModel, LatencyModel};
use ava_store::StoreConfig;
use ava_types::{fault_threshold, ClusterId, Duration, Output, Region, SystemConfig, Time};
use ava_workload::{AggregateLoad, WorkloadSpec};

pub use ava_scenario::Protocol;

/// Scaling knobs for experiment runs.
#[derive(Clone, Copy, Debug)]
pub struct ExperimentScale {
    /// Virtual run length.
    pub run: Duration,
    /// Fraction of the run treated as warm-up (excluded from the measurement window).
    pub warmup_frac: f64,
    /// Whether to run the full paper-scale sweeps.
    pub full: bool,
    /// Worker threads the sweep fans independent runs out over (1 = serial; the
    /// results are byte-identical either way, see `ava_scenario::parallel`).
    pub jobs: usize,
}

impl ExperimentScale {
    /// Reduced scale: small deployments, 12 s virtual runs.
    pub fn quick() -> Self {
        ExperimentScale {
            run: Duration::from_secs(12),
            warmup_frac: 0.4,
            full: false,
            jobs: ava_scenario::default_jobs(),
        }
    }

    /// Paper scale: 96-node deployments, 3-minute virtual runs.
    pub fn paper() -> Self {
        ExperimentScale {
            run: Duration::from_secs(180),
            warmup_frac: 2.0 / 3.0,
            full: true,
            jobs: ava_scenario::default_jobs(),
        }
    }

    /// The run pool every sweep of this scale fans out on.
    pub fn pool(&self) -> RunPool {
        RunPool::new(self.jobs)
    }

    fn window(&self) -> (Time, Time) {
        let end = Time::ZERO + self.run;
        let start = Time(((self.run.as_micros() as f64) * self.warmup_frac) as u64);
        (start, end)
    }

    /// Total node count used by the E0/E1 sweeps.
    pub fn total_nodes(&self) -> usize {
        if self.full {
            96
        } else {
            24
        }
    }

    /// Cluster-count sweep used by E0/E1/E6.
    pub fn cluster_sweep(&self) -> Vec<usize> {
        if self.full {
            vec![2, 3, 4, 6, 8, 12]
        } else {
            vec![2, 3, 4]
        }
    }
}

fn default_opts(seed: u64, scale: &ExperimentScale) -> DeploymentOptions {
    DeploymentOptions {
        seed,
        latency: LatencyModel::paper_table2(),
        costs: CostModel::cloud_vm(),
        workload: WorkloadSpec {
            key_space: if scale.full { 100_000 } else { 10_000 },
            ..WorkloadSpec::default()
        },
        clients_per_cluster: 1,
        client_concurrency: if scale.full { 128 } else { 64 },
        store: None,
        state_machine: ava_hamava::StateMachineKind::Counter,
    }
}

fn adjust_batch(config: &mut SystemConfig, scale: &ExperimentScale) {
    if !scale.full {
        config.params.batch_size = 30;
    }
}

/// Tighten the failure/reconfiguration timeouts so recovery fits a reduced run.
fn adjust_timeouts(config: &mut SystemConfig, scale: &ExperimentScale) {
    if !scale.full {
        config.params.remote_leader_timeout = Duration::from_secs(4);
        config.params.local_timeout = Duration::from_secs(4);
        config.params.brd_timeout = Duration::from_secs(4);
    }
}

/// Start a scenario for one experiment run of `protocol`.
fn scenario(
    protocol: Protocol,
    config: SystemConfig,
    opts: DeploymentOptions,
    scale: &ExperimentScale,
) -> ScenarioBuilder {
    Scenario::builder(protocol, config).options(opts).run_for(scale.run)
}

/// Schedule E5-style churn: at each of `churn_count` evenly spaced boundaries, one
/// replica joins every cluster and one original member per cluster requests to
/// leave. Purely declarative — the runner applies the events at their times.
fn with_churn(
    mut builder: ScenarioBuilder,
    config: &SystemConfig,
    run: Duration,
    churn_count: usize,
) -> ScenarioBuilder {
    let segment = run.as_micros() / (churn_count as u64 + 1);
    for i in 0..churn_count {
        let at = Time(segment * (i as u64 + 1));
        for cluster in &config.clusters {
            let region = cluster.replicas[0].1;
            builder = builder.join_at(at, cluster.id, region);
            // Ask an original member (not the leader) to leave.
            if let Some((leaver, _)) = cluster.replicas.get(1 + i) {
                builder = builder.leave_at(at, *leaver);
            }
        }
    }
    builder
}

/// Run one plain deployment of `protocol` (empty schedule) and return its metrics
/// plus all raw outputs.
pub fn run_once(
    protocol: Protocol,
    config: SystemConfig,
    opts: DeploymentOptions,
    scale: &ExperimentScale,
) -> (RunMetrics, Vec<Output>) {
    let (start, end) = scale.window();
    let run = scenario(protocol, config, opts, scale).build().run();
    (summarize(&run.outputs, start, end), run.outputs)
}

// ---------------------------------------------------------------------------------
// Tables I and II
// ---------------------------------------------------------------------------------

/// Table I: best-case message complexity of the protocols, the paper's analytic
/// formulas evaluated at z = 3 clusters of n = 32 nodes (scale-independent).
pub fn table1_complexity(_scale: &ExperimentScale) -> Vec<Vec<String>> {
    let (z, n) = (3u64, 32u64);
    let rows: Vec<Vec<String>> = complexity_table(z, n)
        .into_iter()
        .map(|r| {
            vec![
                r.protocol.to_string(),
                r.decisions,
                r.local,
                r.global,
                if r.decentralized { "yes".into() } else { "no".into() },
                r.local_count.to_string(),
                r.global_count.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!("Table I: best-case complexity (z={z} clusters, n={n} nodes per cluster)"),
        &["protocol", "D", "local", "global", "decentralized", "local msgs", "global msgs"],
        &rows,
    );
    rows
}

/// Table II: the inter-region round-trip latency matrix the simulator uses
/// (scale-independent).
pub fn table2_latency(_scale: &ExperimentScale) -> Vec<Vec<String>> {
    let model = LatencyModel::paper_table2();
    let regions = [Region::UsWest, Region::Europe, Region::AsiaSouth];
    let rows: Vec<Vec<String>> = regions
        .iter()
        .map(|a| {
            let mut row = vec![a.zone_name().to_string()];
            row.extend(regions.iter().map(|b| {
                if a == b {
                    "0".to_string()
                } else {
                    format!("{:.0}", model.rtt_ms(*a, *b))
                }
            }));
            row
        })
        .collect();
    print_table(
        "Table II: inter-region round-trip latency (ms)",
        &["ms", "US (us-west1)", "EU (europe-west3)", "Asia (asia-south1)"],
        &rows,
    );
    rows
}

// ---------------------------------------------------------------------------------
// E0 / E1: throughput and latency vs. number of clusters
// ---------------------------------------------------------------------------------

/// E0 (Fig. 3, left): multi-cluster, single region.
pub fn e0_single_region(scale: &ExperimentScale) -> Vec<Vec<String>> {
    clusters_sweep(scale, false, "E0: multi-cluster, single region (Fig. 3 left)")
}

/// E1 (Fig. 3, right): multi-cluster, three regions.
pub fn e1_multi_region(scale: &ExperimentScale) -> Vec<Vec<String>> {
    clusters_sweep(scale, true, "E1: multi-cluster, multi-region (Fig. 3 right)")
}

fn clusters_sweep(scale: &ExperimentScale, multi_region: bool, title: &str) -> Vec<Vec<String>> {
    let total = scale.total_nodes();
    let regions = [Region::UsWest, Region::Europe, Region::AsiaSouth];
    let sweep = scale.cluster_sweep();
    // One independent run per (cluster count, protocol) cell, fanned out on the
    // pool; the map returns in input order, so row assembly below is identical to
    // the serial nested loop this replaces.
    let cells: Vec<(usize, Protocol)> =
        sweep.iter().flat_map(|&clusters| Protocol::AVA.map(|p| (clusters, p))).collect();
    let metrics = scale.pool().map(cells, |_, (clusters, protocol)| {
        let mut cfg = if multi_region {
            SystemConfig::even_split_multi_region(total, clusters, &regions)
        } else {
            SystemConfig::even_split_single_region(total, clusters, Region::UsWest)
        };
        adjust_batch(&mut cfg, scale);
        run_once(protocol, cfg, default_opts(1, scale), scale).0
    });
    let rows: Vec<Vec<String>> = sweep
        .iter()
        .zip(metrics.chunks(Protocol::AVA.len()))
        .map(|(clusters, per_protocol)| {
            let mut row = vec![clusters.to_string()];
            for m in per_protocol {
                row.push(fmt(m.throughput_tps, 1));
                row.push(fmt(m.avg_latency_ms / 1000.0, 3));
            }
            row
        })
        .collect();
    print_table(
        title,
        &["clusters", "A.H tput (txn/s)", "A.H latency (s)", "A.B tput (txn/s)", "A.B latency (s)"],
        &rows,
    );
    rows
}

// ---------------------------------------------------------------------------------
// E2: latency breakdown
// ---------------------------------------------------------------------------------

/// E2 (Fig. 4a): per-stage latency breakdown for 3 clusters × 4 nodes over 1, 2 and 3
/// regions, for both systems. The breakdown is collected by a
/// [`StageBreakdownObserver`] while the run executes.
pub fn e2_latency_breakdown(scale: &ExperimentScale) -> Vec<Vec<String>> {
    let region_sets: [(&str, Vec<Region>); 3] = [
        ("1 region", vec![Region::AsiaSouth; 3]),
        ("2 regions", vec![Region::Europe, Region::AsiaSouth, Region::AsiaSouth]),
        ("3 regions", vec![Region::Europe, Region::AsiaSouth, Region::UsWest]),
    ];
    let (start, end) = scale.window();
    let cells: Vec<(Protocol, &str, &Vec<Region>)> = [Protocol::AvaBftSmart, Protocol::AvaHotStuff]
        .iter()
        .flat_map(|&p| region_sets.iter().map(move |(label, regions)| (p, *label, regions)))
        .collect();
    // Observers are created inside the worker, so each run's breakdown is
    // collected independently; rows come back in input order.
    let rows = scale.pool().map(cells, |_, (protocol, label, regions)| {
        let cluster_regions: Vec<Vec<Region>> = regions.iter().map(|&r| vec![r; 4]).collect();
        let mut config = SystemConfig::heterogeneous(&cluster_regions);
        adjust_batch(&mut config, scale);
        let mut stages = StageBreakdownObserver::new();
        let run = scenario(protocol, config, default_opts(2, scale), scale)
            .build()
            .run_observed(&mut [&mut stages]);
        let metrics = summarize(&run.outputs, start, end);
        let breakdown = stages.breakdown();
        vec![
            protocol.label().to_string(),
            label.to_string(),
            fmt(breakdown[0], 1),
            fmt(breakdown[1], 1),
            fmt(breakdown[2], 1),
            fmt(metrics.read_latency_ms, 1),
            fmt(metrics.write_latency_ms, 1),
        ]
    });
    print_table(
        "E2: latency breakdown (Fig. 4a)",
        &[
            "system",
            "regions",
            "intra-cluster (ms)",
            "inter-cluster (ms)",
            "execution (ms)",
            "read latency (ms)",
            "write latency (ms)",
        ],
        &rows,
    );
    rows
}

// ---------------------------------------------------------------------------------
// E3: heterogeneity
// ---------------------------------------------------------------------------------

/// The three setups of E3 at scale factor `s`: (1) equal-sized clusters mixing
/// regions, (2) clusters partitioned by region, (3) region partition plus an
/// intra-region split.
pub fn e3_setup(setup: usize, s: usize) -> SystemConfig {
    let asia = Region::AsiaSouth;
    let eu = Region::Europe;
    let cluster_regions: Vec<Vec<Region>> = match setup {
        1 => vec![vec![asia; 7 * s], [vec![asia; 2 * s], vec![eu; 5 * s]].concat()],
        2 => vec![vec![asia; 9 * s], vec![eu; 5 * s]],
        3 => vec![vec![asia; 5 * s], vec![asia; 4 * s], vec![eu; 5 * s]],
        _ => panic!("unknown E3 setup {setup}"),
    };
    SystemConfig::heterogeneous(&cluster_regions)
}

/// E3 (Fig. 4b–e): impact of heterogeneity for both systems.
pub fn e3_heterogeneity(scale: &ExperimentScale) -> Vec<Vec<String>> {
    let scales: Vec<usize> = if scale.full { vec![1, 2, 3, 4, 5] } else { vec![1, 2] };
    let cells: Vec<(Protocol, usize, usize)> = Protocol::AVA
        .iter()
        .flat_map(|&p| scales.iter().flat_map(move |&s| (1..=3).map(move |setup| (p, s, setup))))
        .collect();
    let metrics = scale.pool().map(cells.clone(), |_, (protocol, s, setup)| {
        let mut config = e3_setup(setup, s);
        adjust_batch(&mut config, scale);
        run_once(protocol, config, default_opts(3, scale), scale).0
    });
    let rows: Vec<Vec<String>> = cells
        .chunks(3)
        .zip(metrics.chunks(3))
        .map(|(cell_chunk, per_setup)| {
            let (protocol, s, _) = cell_chunk[0];
            let mut row = vec![protocol.label().to_string(), s.to_string()];
            for m in per_setup {
                row.push(fmt(m.throughput_tps, 1));
                row.push(fmt(m.avg_latency_ms / 1000.0, 3));
            }
            row
        })
        .collect();
    print_table(
        "E3: heterogeneity (Fig. 4b-e)",
        &[
            "system",
            "scale s",
            "setup1 tput",
            "setup1 lat (s)",
            "setup2 tput",
            "setup2 lat (s)",
            "setup3 tput",
            "setup3 lat (s)",
        ],
        &rows,
    );
    rows
}

// ---------------------------------------------------------------------------------
// E4: failures
// ---------------------------------------------------------------------------------

/// Failure scenarios of E4.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FailureScenario {
    /// E4.1: crash up to f non-leader replicas per cluster.
    NonLeader,
    /// E4.2: crash the leader of one cluster.
    Leader,
    /// E4.3: Byzantine leader that withholds inter-cluster messages.
    ByzantineLeader,
}

/// E4 (Fig. 4f–h): throughput time series around a failure, for both systems.
///
/// The failure is a scheduled [`ava_scenario::ScenarioEvent`]; the series comes from
/// a [`ThroughputObserver`] attached to the run. The old harness silently ran a
/// BFT-SMaRt deployment when handed the GeoBFT label here — with [`Protocol::deploy`]
/// as the only label-to-stack mapping, that mismatch is unrepresentable.
pub fn e4_failures(scenario_kind: FailureScenario, scale: &ExperimentScale) -> Vec<Vec<String>> {
    let nodes_per_cluster = if scale.full { 10 } else { 7 };
    let fail_at = Time(scale.run.as_micros() / 3);
    let series: Vec<(Protocol, Vec<(f64, f64)>)> =
        scale.pool().map(Protocol::AVA.to_vec(), |_, protocol| {
            let mut config = SystemConfig::homogeneous_regions(&[
                (nodes_per_cluster, Region::UsWest),
                (nodes_per_cluster, Region::Europe),
            ]);
            adjust_batch(&mut config, scale);
            // Faster remote-leader/local timeouts so recovery fits the reduced run.
            adjust_timeouts(&mut config, scale);
            let mut builder = scenario(protocol, config.clone(), default_opts(4, scale), scale);
            builder = match scenario_kind {
                FailureScenario::NonLeader => {
                    // Crash f non-leader replicas in each cluster.
                    for cluster in &config.clusters {
                        let f = fault_threshold(cluster.replicas.len());
                        for (id, _) in cluster.replicas.iter().skip(1).take(f) {
                            builder = builder.crash_at(fail_at, *id);
                        }
                    }
                    builder
                }
                FailureScenario::Leader => builder.crash_initial_leader_at(fail_at, ClusterId(0)),
                FailureScenario::ByzantineLeader => {
                    // The leader keeps acting correctly locally but stops
                    // inter-cluster broadcasts; the remote cluster must trigger the
                    // remote leader change.
                    let leader = config.initial_leader(ClusterId(0));
                    builder.corrupt_at(fail_at, leader, ByzantineBehavior::MuteInter)
                }
            };
            let mut throughput = ThroughputObserver::new(Duration::from_secs(2));
            builder.build().run_observed(&mut [&mut throughput]);
            (protocol, throughput.series())
        });
    let mut rows = Vec::new();
    for (protocol, points) in &series {
        for (t, tps) in points {
            rows.push(vec![protocol.label().to_string(), fmt(*t, 0), fmt(*tps, 1)]);
        }
    }
    print_table(
        &format!(
            "E4 ({scenario_kind:?}): throughput over time, failure at {}s (Fig. 4f-h)",
            fail_at.as_secs_f64()
        ),
        &["system", "time (s)", "throughput (txn/s)"],
        &rows,
    );
    rows
}

// ---------------------------------------------------------------------------------
// E5: reconfiguration
// ---------------------------------------------------------------------------------

/// E5.1 (Fig. 5a): three joins and three leaves per cluster at marked times.
pub fn e5_joins_and_leaves(scale: &ExperimentScale) -> Vec<Vec<String>> {
    let nodes = if scale.full { 7 } else { 5 };
    let per_protocol = scale.pool().map(Protocol::AVA.to_vec(), |_, protocol| {
        let mut config =
            SystemConfig::homogeneous_regions(&[(nodes, Region::UsWest), (nodes, Region::Europe)]);
        adjust_batch(&mut config, scale);
        let builder = scenario(protocol, config.clone(), default_opts(5, scale), scale);
        let builder = with_churn(builder, &config, scale.run, 3);
        let mut throughput = ThroughputObserver::new(Duration::from_secs(2));
        let run = builder.build().run_observed(&mut [&mut throughput]);
        let applied =
            run.outputs.iter().filter(|o| matches!(o, Output::ReconfigApplied { .. })).count();
        (protocol, applied, throughput.series())
    });
    let mut rows = Vec::new();
    for (protocol, applied, series) in per_protocol {
        for (t, tps) in series {
            rows.push(vec![
                protocol.label().to_string(),
                fmt(t, 0),
                fmt(tps, 1),
                applied.to_string(),
            ]);
        }
    }
    print_table(
        "E5.1: join/leave churn (Fig. 5a)",
        &["system", "time (s)", "throughput (txn/s)", "reconfigs applied (total)"],
        &rows,
    );
    rows
}

fn e5_workflow_config(scale: &ExperimentScale, parallel: bool) -> SystemConfig {
    let mut config = SystemConfig::homogeneous_regions(&[
        (if scale.full { 10 } else { 6 }, Region::UsWest),
        (if scale.full { 8 } else { 5 }, Region::Europe),
    ]);
    adjust_batch(&mut config, scale);
    config.params.parallel_reconfig_workflow = parallel;
    config
}

/// E5.2 (Fig. 5b): parallel reconfiguration workflow vs. single workflow.
pub fn e5_workflow_comparison(scale: &ExperimentScale) -> Vec<Vec<String>> {
    let cells: Vec<(Protocol, bool)> =
        Protocol::AVA.iter().flat_map(|&p| [true, false].map(|w| (p, w))).collect();
    let rows = scale.pool().map(cells, |_, (protocol, parallel)| {
        let config = e5_workflow_config(scale, parallel);
        let mut opts = default_opts(6, scale);
        opts.workload = WorkloadSpec::default().write_only();
        let (start, end) = scale.window();
        let builder = scenario(protocol, config.clone(), opts, scale);
        let run = with_churn(builder, &config, scale.run, 2).build().run();
        let m = summarize(&run.outputs, start, end);
        vec![
            protocol.label().to_string(),
            if parallel { "parallel workflows".into() } else { "single workflow".into() },
            fmt(m.throughput_tps, 1),
            fmt(m.avg_latency_ms / 1000.0, 3),
        ]
    });
    print_table(
        "E5.2: parallel vs single reconfiguration workflow (Fig. 5b)",
        &["system", "workflow", "throughput (txn/s)", "latency (s)"],
        &rows,
    );
    rows
}

/// E5.2 diagnosis: run the "single workflow" ablation with a
/// [`ReconfigTraceObserver`] attached and print the per-round
/// reconfiguration/commit trace (which rounds executed, when, with how many
/// transactions, which reconfigurations they carried, plus leader changes). This is
/// the mid-run visibility the old `take_outputs()`-at-the-end harness could not
/// provide; see EXPERIMENTS.md for the resulting finding.
pub fn e5_workflow_trace(scale: &ExperimentScale) -> ReconfigTraceObserver {
    let config = e5_workflow_config(scale, false);
    let mut opts = default_opts(6, scale);
    opts.workload = WorkloadSpec::default().write_only();
    let builder = scenario(Protocol::AvaHotStuff, config.clone(), opts, scale);
    let mut trace = ReconfigTraceObserver::new();
    let mut throughput = ThroughputObserver::new(Duration::from_secs(2));
    let run = with_churn(builder, &config, scale.run, 2)
        .build()
        .run_observed(&mut [&mut trace, &mut throughput]);
    print_table(
        "E5.2 trace: per-round commit/reconfiguration activity (single workflow, A.H)",
        &[
            "cluster",
            "round",
            "s1/s2/s3",
            "executions",
            "txns",
            "reconfigs",
            "first (s)",
            "last (s)",
        ],
        &trace.trace_rows(),
    );
    let mut aux: Vec<Vec<String>> = trace
        .scheduled_events()
        .iter()
        .map(|(t, e)| vec![fmt(t.as_secs_f64(), 1), e.clone()])
        .collect();
    for (t, cluster, leader) in trace.leader_changes() {
        aux.push(vec![
            fmt(t.as_secs_f64(), 1),
            format!("LeaderChanged {{ cluster: {}, new_leader: {leader} }}", cluster.0),
        ]);
    }
    print_table("E5.2 trace: schedule + leader changes", &["time (s)", "event"], &aux);
    println!(
        "completed transactions: {} (throughput buckets: {})",
        throughput.completed(),
        throughput.series().len()
    );
    let _ = run;
    trace
}

// ---------------------------------------------------------------------------------
// E6: comparison with GeoBFT
// ---------------------------------------------------------------------------------

/// E6 (Fig. 6): AVA-HOTSTUFF vs GeoBFT, single- and multi-region.
pub fn e6_vs_geobft(scale: &ExperimentScale) -> Vec<Vec<String>> {
    let total = if scale.full { 48 } else { 16 };
    let regions = [Region::UsWest, Region::Europe, Region::AsiaSouth];
    let protocols = [Protocol::AvaHotStuff, Protocol::GeoBft];
    let shapes: Vec<(&str, bool, usize)> = [("single region", false), ("multi region", true)]
        .iter()
        .flat_map(|&(mode, multi)| {
            scale
                .cluster_sweep()
                .into_iter()
                .filter(|&clusters| clusters <= total / 4)
                .map(move |clusters| (mode, multi, clusters))
        })
        .collect();
    let cells: Vec<(&str, bool, usize, Protocol)> = shapes
        .iter()
        .flat_map(|&(mode, multi, clusters)| protocols.map(|p| (mode, multi, clusters, p)))
        .collect();
    let metrics = scale.pool().map(cells, |_, (_, multi, clusters, protocol)| {
        let mut cfg = if multi {
            SystemConfig::even_split_multi_region(total, clusters, &regions)
        } else {
            SystemConfig::even_split_single_region(total, clusters, Region::UsWest)
        };
        adjust_batch(&mut cfg, scale);
        run_once(protocol, cfg, default_opts(7, scale), scale).0
    });
    let rows: Vec<Vec<String>> = shapes
        .iter()
        .zip(metrics.chunks(protocols.len()))
        .map(|(&(mode, _, clusters), per_protocol)| {
            let mut row = vec![mode.to_string(), clusters.to_string()];
            for m in per_protocol {
                row.push(fmt(m.throughput_tps, 1));
                row.push(fmt(m.avg_latency_ms / 1000.0, 3));
            }
            row
        })
        .collect();
    print_table(
        "E6: Ava-HotStuff vs GeoBFT (Fig. 6)",
        &["placement", "clusters", "A.H tput", "A.H lat (s)", "GeoBFT tput", "GeoBFT lat (s)"],
        &rows,
    );
    rows
}

// ---------------------------------------------------------------------------------
// E7: reconfiguration frequency
// ---------------------------------------------------------------------------------

/// E7 (Fig. 7): impact of the reconfiguration request frequency.
pub fn e7_reconfig_frequency(scale: &ExperimentScale) -> Vec<Vec<String>> {
    let frequencies = [("none", 0usize), ("every 20s", 2), ("continuous", 6)];
    let cells: Vec<(Protocol, &str, usize)> = Protocol::AVA
        .iter()
        .flat_map(|&p| frequencies.map(|(label, churn)| (p, label, churn)))
        .collect();
    let rows = scale.pool().map(cells, |_, (protocol, label, churn_rounds)| {
        let mut config = SystemConfig::homogeneous_regions(&[
            (if scale.full { 10 } else { 6 }, Region::UsWest),
            (if scale.full { 10 } else { 6 }, Region::Europe),
        ]);
        adjust_batch(&mut config, scale);
        let (start, end) = scale.window();
        let builder = scenario(protocol, config.clone(), default_opts(8, scale), scale);
        let run = with_churn(builder, &config, scale.run, churn_rounds).build().run();
        let m = summarize(&run.outputs, start, end);
        vec![
            protocol.label().to_string(),
            label.to_string(),
            fmt(m.throughput_tps, 1),
            fmt(m.avg_latency_ms / 1000.0, 3),
        ]
    });
    print_table(
        "E7: reconfiguration frequency (Fig. 7)",
        &["system", "reconfig frequency", "throughput (txn/s)", "latency (s)"],
        &rows,
    );
    rows
}

// ---------------------------------------------------------------------------------
// E8: network latency during reconfiguration
// ---------------------------------------------------------------------------------

/// E8 (Fig. 8): impact of the inter-cluster network latency while reconfigurations
/// are issued continuously. The second cluster is placed at increasing RTT from the
/// first (52, 91, 142, 219 ms — the paper's us-east5, asia-northeast1, europe-west3,
/// asia-south1 zones).
pub fn e8_network_latency(scale: &ExperimentScale) -> Vec<Vec<String>> {
    let second_regions = [
        (Region::UsEast, 52.0),
        (Region::AsiaNortheast, 91.0),
        (Region::Europe, 142.0),
        (Region::AsiaSouth, 219.0),
    ];
    let cells: Vec<(Protocol, Region, f64)> = Protocol::AVA
        .iter()
        .flat_map(|&p| second_regions.map(|(region, rtt)| (p, region, rtt)))
        .collect();
    let rows = scale.pool().map(cells, |_, (protocol, region, rtt)| {
        let mut config = SystemConfig::homogeneous_regions(&[
            (if scale.full { 10 } else { 6 }, Region::UsWest),
            (if scale.full { 10 } else { 6 }, region),
        ]);
        adjust_batch(&mut config, scale);
        let mut opts = default_opts(9, scale);
        let mut latency = LatencyModel::paper_table2();
        latency.set_rtt(Region::UsWest, region, rtt);
        opts.latency = latency;
        let (start, end) = scale.window();
        let builder = scenario(protocol, config.clone(), opts, scale);
        let run = with_churn(builder, &config, scale.run, 2).build().run();
        let m = summarize(&run.outputs, start, end);
        vec![
            protocol.label().to_string(),
            format!("{rtt:.0} ms ({})", region.zone_name()),
            fmt(m.throughput_tps, 1),
            fmt(m.avg_latency_ms / 1000.0, 3),
        ]
    });
    print_table(
        "E8: network latency during reconfiguration (Fig. 8)",
        &["system", "inter-cluster RTT", "throughput (txn/s)", "latency (s)"],
        &rows,
    );
    rows
}

// ---------------------------------------------------------------------------------
// E9: partitions and latency shifts (scenario shapes beyond the paper)
// ---------------------------------------------------------------------------------

/// E9: scenario shapes the hand-wired harness could not express —
/// (a) a mid-run inter-region partition between the two clusters that heals after a
/// third of the run, (b) a mid-run latency-model shift that moves the
/// inter-cluster RTT from the paper's table to a uniform 219 ms WAN, and (c) the
/// partition of (a) between two of *three* clusters, where the third still holds
/// every package and the severed pair pull them from it (`ava_hamava::relay`).
/// All print an observer-produced throughput time series.
pub fn e9_partitions(scale: &ExperimentScale) -> Vec<Vec<String>> {
    let nodes = if scale.full { 7 } else { 5 };
    let third = Time(scale.run.as_micros() / 3);
    let two_thirds = Time(2 * scale.run.as_micros() / 3);
    let half = Time(scale.run.as_micros() / 2);
    const SHAPES: [&str; 3] =
        ["partition+heal", "latency shift 142->219ms", "partition+heal, 2 of 3 clusters"];
    let cells: Vec<(Protocol, &str)> =
        Protocol::AVA.iter().flat_map(|&p| SHAPES.map(|shape| (p, shape))).collect();
    let results = scale.pool().map(cells, |_, (protocol, shape)| {
        let mut regions = vec![(nodes, Region::UsWest), (nodes, Region::Europe)];
        if shape == SHAPES[2] {
            regions.push((nodes, Region::AsiaSouth));
        }
        // The last two clusters are the ones severed.
        let (a, b) = (ClusterId(regions.len() as u32 - 2), ClusterId(regions.len() as u32 - 1));
        let mut config = SystemConfig::homogeneous_regions(&regions);
        adjust_batch(&mut config, scale);
        adjust_timeouts(&mut config, scale);
        let builder = scenario(protocol, config, default_opts(10, scale), scale);
        let builder = if shape == SHAPES[1] {
            builder.latency_shift_at(half, LatencyModel::uniform(219.0))
        } else {
            builder.partition_at(third, a, b).heal_at(two_thirds, a, b)
        };
        let mut throughput = ThroughputObserver::new(Duration::from_secs(2));
        let run = builder.build().run_observed(&mut [&mut throughput]);
        (protocol, shape, throughput.series(), run.stats.dropped_messages)
    });
    let mut rows = Vec::new();
    let mut dropped = Vec::new();
    for (protocol, shape, series, dropped_messages) in results {
        for (t, tps) in series {
            rows.push(vec![
                protocol.label().to_string(),
                shape.to_string(),
                fmt(t, 0),
                fmt(tps, 1),
            ]);
        }
        dropped.push(vec![
            protocol.label().to_string(),
            shape.to_string(),
            dropped_messages.to_string(),
        ]);
    }
    print_table(
        "E9: mid-run partition/heal and latency shift (scenario API)",
        &["system", "shape", "time (s)", "throughput (txn/s)"],
        &rows,
    );
    print_table(
        "E9: messages dropped by the partition",
        &["system", "shape", "dropped messages"],
        &dropped,
    );
    rows
}

// ---------------------------------------------------------------------------------
// E10: crash → restart → catch-up recovery (the ava-store subsystem)
// ---------------------------------------------------------------------------------

/// E10: recovery-time curves for the crash → restart → catch-up path. Sweeps crash
/// duration × checkpoint interval on the E4.1 shape (f non-leader replicas per
/// cluster crash, then restart with only their persisted store): for each cell the
/// table reports the slowest time-to-caught-up, the rounds/bytes transferred from
/// peers, and end-of-run throughput relative to the pre-crash rate. The
/// `RecoveryObserver` supplies the recovery columns; the acceptance bar of the
/// subsystem is the recovery ratio returning to ≥ 80% at quick scale.
pub fn e10_recovery(scale: &ExperimentScale) -> Vec<Vec<String>> {
    let nodes_per_cluster = if scale.full { 10 } else { 7 };
    let crash_at = Time(scale.run.as_micros() / 3);
    let crash_durations: Vec<u64> = if scale.full { vec![5, 20, 60] } else { vec![1, 4] };
    let checkpoint_intervals: Vec<u64> = if scale.full { vec![4, 16, 64] } else { vec![4, 16] };
    let bucket = Duration::from_secs(2);
    let mut cells: Vec<(Protocol, u64, u64)> = Vec::new();
    for p in Protocol::AVA {
        for &crash_secs in &crash_durations {
            for &interval in &checkpoint_intervals {
                cells.push((p, crash_secs, interval));
            }
        }
    }
    let rows = scale.pool().map(cells, |_, (protocol, crash_secs, interval)| {
        let mut config = SystemConfig::homogeneous_regions(&[
            (nodes_per_cluster, Region::UsWest),
            (nodes_per_cluster, Region::Europe),
        ]);
        adjust_batch(&mut config, scale);
        adjust_timeouts(&mut config, scale);
        let restart_at = crash_at + Duration::from_secs(crash_secs);
        let mut builder = scenario(protocol, config.clone(), default_opts(13, scale), scale)
            .store(StoreConfig::every(interval));
        for cluster in &config.clusters {
            let f = fault_threshold(cluster.replicas.len());
            for (id, _) in cluster.replicas.iter().skip(1).take(f) {
                builder = builder.crash_at(crash_at, *id).restart_at(restart_at, *id);
            }
        }
        let mut throughput = ThroughputObserver::new(bucket);
        let mut recovery = RecoveryObserver::new();
        builder.build().run_observed(&mut [&mut throughput, &mut recovery]);

        let series = throughput.series();
        let pre_crash = series
            .iter()
            .filter(|(t, _)| *t <= crash_at.as_secs_f64())
            .map(|(_, tps)| *tps)
            .fold(0.0f64, f64::max);
        let end_rate = series.iter().rev().take(3).map(|(_, tps)| *tps).fold(0.0f64, f64::max);
        let ratio = if pre_crash > 0.0 { 100.0 * end_rate / pre_crash } else { 0.0 };
        let ttc = recovery
            .max_time_to_caught_up()
            .map(|d| fmt(d.as_millis_f64(), 1))
            .unwrap_or_else(|| "stalled".into());
        vec![
            protocol.label().to_string(),
            crash_secs.to_string(),
            interval.to_string(),
            ttc,
            recovery.total_rounds_transferred().to_string(),
            recovery.total_bytes_transferred().to_string(),
            fmt(pre_crash, 1),
            fmt(end_rate, 1),
            fmt(ratio, 1),
        ]
    });
    print_table(
        &format!(
            "E10: crash→restart recovery, crash at {}s (crash duration × checkpoint interval)",
            crash_at.as_secs_f64()
        ),
        &[
            "system",
            "crash dur (s)",
            "ckpt every (rounds)",
            "time-to-caught-up (ms)",
            "rounds transferred",
            "bytes transferred",
            "pre-crash tput",
            "end tput",
            "recovery %",
        ],
        &rows,
    );
    rows
}

// ---------------------------------------------------------------------------------
// E11: broker-tier saturation sweep (beyond the paper)
// ---------------------------------------------------------------------------------

/// One cell of the E11 saturation sweep.
#[derive(Clone, Debug)]
pub struct SaturationPoint {
    /// Total offered load across all clusters, in transactions per second.
    pub offered_tps: u64,
    /// Acked throughput over the steady-state window, in transactions per second.
    pub committed_tps: f64,
    /// Median ack latency over the window, in milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile ack latency over the window, in milliseconds.
    pub p99_ms: f64,
    /// Virtual-client acks over the whole run (issue window plus drain).
    pub acked: u64,
    /// Operations bounced by broker backpressure over the whole run.
    pub shed: u64,
    /// Mean operations per flushed batch across all brokers.
    pub batch_occupancy: f64,
}

/// Virtual clients collapsed into each broker's aggregate generator: the E11
/// acceptance bar is ≥ 10⁵ per broker actor even at quick scale.
pub fn e11_virtual_clients(scale: &ExperimentScale) -> u64 {
    if scale.full {
        250_000
    } else {
        100_000
    }
}

/// Per-cluster offered-rate sweep for E11, in transactions per second. The
/// sweep is sized to cross the tier's admission ceiling (see [`e11_cell`]) well
/// before its top cell, so the knee sits inside the sweep at either scale.
pub fn e11_offered_sweep(scale: &ExperimentScale) -> Vec<u64> {
    if scale.full {
        vec![1_000, 2_000, 4_000, 8_000, 16_000, 24_000]
    } else {
        vec![1_000, 2_000, 4_000, 8_000, 12_000, 16_000]
    }
}

fn e11_config(scale: &ExperimentScale) -> SystemConfig {
    let mut config = if scale.full {
        let regions = [Region::UsWest, Region::Europe, Region::AsiaSouth];
        SystemConfig::even_split_multi_region(24, 3, &regions)
    } else {
        SystemConfig::even_split_single_region(8, 2, Region::UsWest)
    };
    adjust_batch(&mut config, scale);
    config
}

/// Run one E11 cell: a broker tier per cluster (1 broker each) absorbing an
/// open-loop aggregate load of `offered_per_cluster` tps, measured over the
/// steady-state part of the issue window.
///
/// The broker tier itself is generously provisioned (default batch and
/// in-flight bounds; its pipelined admission ceiling sits near 10⁵ tps per
/// cluster under intra-region latencies), so the binding constraint is the
/// replicas' virtual CPU: the cell dials `per_tx_execute` up to 250 µs — a
/// heavyweight state machine — which puts the execution ceiling near the
/// middle of [`e11_offered_sweep`]. Below the ceiling the tier is transparent
/// (committed ≈ offered); above it the execution backlog delays admission
/// replies, the broker's in-flight slots stall, its bounded queue fills and
/// sheds, and committed throughput plateaus while ack latency inflates: that
/// crossover is the saturation knee E11 reports.
pub fn e11_cell(scale: &ExperimentScale, offered_per_cluster: u64) -> SaturationPoint {
    let config = e11_config(scale);
    let clusters = config.clusters.len() as u64;
    // Issue for two thirds of the run, then let the backlog drain; measure
    // steady state in the second three quarters of the issue window.
    let issue = Duration(scale.run.as_micros() * 2 / 3);
    let tier = BrokerTier {
        brokers_per_cluster: 1,
        queue_cap: 20_000,
        load: AggregateLoad {
            virtual_clients: e11_virtual_clients(scale),
            offered_tps: offered_per_cluster,
            issue_for: issue,
            ..AggregateLoad::default()
        },
        ..BrokerTier::default()
    };
    let mut opts = default_opts(14, scale);
    opts.clients_per_cluster = 0; // all load arrives through the broker tier
    opts.costs.per_tx_execute = Duration::from_micros(250); // heavyweight state machine
    let mut stats = BrokerStatsObserver::new();
    let run = scenario(Protocol::AvaHotStuff, config, opts, scale)
        .brokers(tier)
        .build()
        .run_observed(&mut [&mut stats]);
    let window_start = Time(issue.as_micros() / 4);
    let window_end = Time(issue.as_micros());
    let m = summarize(&run.outputs, window_start, window_end);
    let acked =
        run.outputs.iter().filter(|o| matches!(o, Output::TxCompleted { .. })).count() as u64;
    SaturationPoint {
        offered_tps: offered_per_cluster * clusters,
        committed_tps: m.throughput_tps,
        p50_ms: m.p50_latency_ms,
        p99_ms: m.p99_latency_ms,
        acked,
        shed: stats.total_shed(),
        batch_occupancy: stats.mean_occupancy(),
    }
}

/// The saturation knee: the first sweep point whose committed throughput falls
/// visibly (> 10%) short of its offered load. Everything before it is the linear
/// regime; everything from it on is the plateau.
pub fn e11_knee(points: &[SaturationPoint]) -> Option<u64> {
    points.iter().find(|p| p.committed_tps < 0.9 * p.offered_tps as f64).map(|p| p.offered_tps)
}

/// E11: offered-load sweep through the broker tier — committed throughput,
/// latency percentiles and shed counts per offered rate, plus the detected
/// saturation knee. Returns the sweep points and the knee.
pub fn e11_saturation(scale: &ExperimentScale) -> (Vec<SaturationPoint>, Option<u64>) {
    let points = scale.pool().map(e11_offered_sweep(scale), |_, offered| e11_cell(scale, offered));
    let knee = e11_knee(&points);
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.offered_tps.to_string(),
                fmt(p.committed_tps, 1),
                fmt(p.p50_ms, 1),
                fmt(p.p99_ms, 1),
                p.acked.to_string(),
                p.shed.to_string(),
                fmt(p.batch_occupancy, 1),
            ]
        })
        .collect();
    print_table(
        &format!(
            "E11: broker-tier saturation sweep ({} virtual clients per broker), knee at {}",
            e11_virtual_clients(scale),
            knee.map(|k| format!("{k} tps offered")).unwrap_or_else(|| "none".into()),
        ),
        &[
            "offered (txn/s)",
            "committed (txn/s)",
            "p50 (ms)",
            "p99 (ms)",
            "acked (total)",
            "shed",
            "batch occupancy",
        ],
        &rows,
    );
    (points, knee)
}

/// The JSON document of a sweep, as `ava-exp` prints it: the experiment's name
/// and scale, the sweep's own `header` fields (values already rendered), then
/// one object per cell under `array` (hand-rolled — the format is our own).
fn sweep_json(
    experiment: &str,
    scale: &ExperimentScale,
    header: &[(&str, String)],
    array: &str,
    cells: &[String],
) -> String {
    let mode = if scale.full { "full" } else { "quick" };
    let mut out = format!("{{\n  \"experiment\": \"{experiment}\",\n  \"mode\": \"{mode}\",\n");
    for (key, value) in header {
        out.push_str(&format!("  \"{key}\": {value},\n"));
    }
    out.push_str(&format!("  \"{array}\": [\n"));
    for (i, cell) in cells.iter().enumerate() {
        let comma = if i + 1 == cells.len() { "" } else { "," };
        out.push_str(&format!("    {{{cell}}}{comma}\n"));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Serialize an E11 sweep into its JSON document; CI checks that
/// `"knee_offered_tps"` is a number.
pub fn e11_json(scale: &ExperimentScale, points: &[SaturationPoint], knee: Option<u64>) -> String {
    let header = [
        ("virtual_clients_per_broker", e11_virtual_clients(scale).to_string()),
        ("knee_offered_tps", knee.map(|k| k.to_string()).unwrap_or_else(|| "null".into())),
    ];
    let cells: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "\"offered_tps\": {}, \"committed_tps\": {:.1}, \"p50_ms\": {:.1}, \
                 \"p99_ms\": {:.1}, \"acked\": {}, \"shed\": {}, \"batch_occupancy\": {:.2}",
                p.offered_tps,
                p.committed_tps,
                p.p50_ms,
                p.p99_ms,
                p.acked,
                p.shed,
                p.batch_occupancy,
            )
        })
        .collect();
    sweep_json("e11_saturation", scale, &header, "points", &cells)
}

// ---------------------------------------------------------------------------------
// E12: Byzantine adversary sweep (beyond the paper)
// ---------------------------------------------------------------------------------

/// One cell of the E12 Byzantine sweep: one behavior at one per-cluster
/// corruption count, with the full invariant-checker suite riding along.
#[derive(Clone, Debug)]
pub struct ByzantineCell {
    /// The adversary behavior every corrupted replica exhibits.
    pub behavior: ByzantineBehavior,
    /// Distinct replicas corrupted in each cluster (≤ f by construction).
    pub corrupted_per_cluster: usize,
    /// Committed throughput over the measurement window, in transactions per
    /// second.
    pub committed_tps: f64,
    /// Throughput loss relative to the `Honest` baseline cell at the same
    /// corruption count, in percent (0 for the baseline itself).
    pub degradation_pct: f64,
    /// `ByzantineRejected` evidence honest replicas emitted during the run.
    pub rejections: u64,
    /// `EquivocationObserved` evidence honest replicas emitted during the run.
    pub equivocations: u64,
    /// Safety-checker violations — the sweep's acceptance bar is that this is
    /// empty in every cell.
    pub violations: Vec<String>,
}

/// Per-cluster corruption counts the sweep covers: `1..=f` for the scale's
/// cluster size (quick: f = 1; full: f = 2).
pub fn e12_corrupt_counts(scale: &ExperimentScale) -> Vec<usize> {
    let f = fault_threshold(e12_nodes_per_cluster(scale));
    (1..=f).collect()
}

fn e12_nodes_per_cluster(scale: &ExperimentScale) -> usize {
    if scale.full {
        7
    } else {
        4
    }
}

fn e12_config(scale: &ExperimentScale) -> SystemConfig {
    let n = e12_nodes_per_cluster(scale);
    let mut config = SystemConfig::homogeneous_regions(&[(n, Region::UsWest), (n, Region::Europe)]);
    adjust_batch(&mut config, scale);
    // Corrupting a leader must be recoverable inside a reduced run: tighten the
    // leader-change and BRD timeouts the same way the E4 failure sweeps do.
    adjust_timeouts(&mut config, scale);
    config
}

/// Run one E12 cell: corrupt `corrupted_per_cluster` replicas in *every*
/// cluster (the initial leader first — the most disruptive target — then the
/// members after it) at 20% of the run, with `behavior`. The fuzzer's full
/// [`CheckerSet`] observes the run, so any safety regression a behavior causes
/// fails the sweep rather than hiding in a throughput number.
pub fn e12_cell(
    scale: &ExperimentScale,
    behavior: ByzantineBehavior,
    corrupted_per_cluster: usize,
) -> ByzantineCell {
    let config = e12_config(scale);
    let corrupt_at = Time(scale.run.as_micros() / 5);
    let mut builder =
        scenario(Protocol::AvaHotStuff, config.clone(), default_opts(12, scale), scale);
    for cluster in &config.clusters {
        let leader = config.initial_leader(cluster.id);
        let mut targets = vec![leader];
        targets.extend(cluster.replicas.iter().map(|(id, _)| *id).filter(|id| *id != leader));
        for id in targets.into_iter().take(corrupted_per_cluster) {
            builder = builder.corrupt_at(corrupt_at, id, behavior);
        }
    }
    let mut checkers = CheckerSet::standard();
    let mut evidence = ByzantineObserver::new();
    let run = builder.build().run_observed(&mut [&mut checkers, &mut evidence]);
    let (start, end) = scale.window();
    let m = summarize(&run.outputs, start, end);
    ByzantineCell {
        behavior,
        corrupted_per_cluster,
        committed_tps: m.throughput_tps,
        degradation_pct: 0.0, // filled in against the Honest baseline by the sweep
        rejections: evidence.total_rejections(),
        equivocations: evidence.equivocations(),
        violations: checkers.violations().iter().map(|v| v.to_string()).collect(),
    }
}

/// E12: behavior × corruption-count sweep. Every cell stays within the f-per-
/// cluster adversary model (the scenario builder enforces it), every cell runs
/// under the full checker suite, and the table reports the liveness price of
/// each behavior against the `Honest` decorator baseline.
pub fn e12_byzantine(scale: &ExperimentScale) -> Vec<ByzantineCell> {
    let grid: Vec<(ByzantineBehavior, usize)> = e12_corrupt_counts(scale)
        .into_iter()
        .flat_map(|count| ByzantineBehavior::ALL.into_iter().map(move |b| (b, count)))
        .collect();
    let mut cells = scale.pool().map(grid, |_, (b, count)| e12_cell(scale, b, count));
    // Degradation is relative to the Honest cell at the same corruption count:
    // same schedule shape, same decorators, zero deviation.
    let baselines: Vec<(usize, f64)> = cells
        .iter()
        .filter(|c| c.behavior == ByzantineBehavior::Honest)
        .map(|c| (c.corrupted_per_cluster, c.committed_tps))
        .collect();
    for cell in &mut cells {
        let base = baselines
            .iter()
            .find(|(count, _)| *count == cell.corrupted_per_cluster)
            .map(|(_, tps)| *tps)
            .unwrap_or(0.0);
        cell.degradation_pct =
            if base > 0.0 { ((base - cell.committed_tps) / base * 100.0).max(0.0) } else { 0.0 };
    }
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.behavior.label().to_string(),
                c.corrupted_per_cluster.to_string(),
                fmt(c.committed_tps, 1),
                fmt(c.degradation_pct, 1),
                c.rejections.to_string(),
                c.equivocations.to_string(),
                c.violations.len().to_string(),
            ]
        })
        .collect();
    let total_violations: usize = cells.iter().map(|c| c.violations.len()).sum();
    print_table(
        &format!(
            "E12: Byzantine adversary sweep, corruption at {}s ({} safety violations)",
            Time(scale.run.as_micros() / 5).as_secs_f64(),
            total_violations
        ),
        &[
            "behavior",
            "corrupt/cluster",
            "committed (txn/s)",
            "vs honest (%)",
            "rejections",
            "equivocations",
            "violations",
        ],
        &rows,
    );
    cells
}

/// Serialize an E12 sweep into its JSON document. The CI gate greps for
/// `"total_violations": 0` — the sweep's safety bar in one line.
pub fn e12_json(scale: &ExperimentScale, cells: &[ByzantineCell]) -> String {
    let total_violations: usize = cells.iter().map(|c| c.violations.len()).sum();
    let header = [("total_violations", total_violations.to_string())];
    let cells: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "\"behavior\": \"{}\", \"corrupted_per_cluster\": {}, \
                 \"committed_tps\": {:.1}, \"degradation_pct\": {:.1}, \"rejections\": {}, \
                 \"equivocations\": {}, \"violations\": {}",
                c.behavior.label(),
                c.corrupted_per_cluster,
                c.committed_tps,
                c.degradation_pct,
                c.rejections,
                c.equivocations,
                c.violations.len(),
            )
        })
        .collect();
    sweep_json("e12_byzantine", scale, &header, "cells", &cells)
}

// ---------------------------------------------------------------------------------
// E13: keyed KV state machine — read-ratio × skew workload sweep (beyond the paper)
// ---------------------------------------------------------------------------------

/// One cell of the E13 workload sweep: one YCSB-style mix executed against the
/// real keyed KV state machine, with the full invariant-checker suite (including
/// per-round state-digest agreement) riding along.
#[derive(Clone, Debug)]
pub struct WorkloadCell {
    /// Fraction of read transactions in the mix.
    pub read_ratio: f64,
    /// Zipfian skew parameter of the key-selection distribution.
    pub zipf_theta: f64,
    /// Committed throughput over the measurement window, in transactions per
    /// second.
    pub committed_tps: f64,
    /// Mean latency of reads (answered cluster-locally, E2's read path), in
    /// milliseconds.
    pub read_latency_ms: f64,
    /// Mean latency of writes (three-stage ordered), in milliseconds.
    pub write_latency_ms: f64,
    /// Distinct keys in the replicated state at the end of the run.
    pub state_entries: u64,
    /// Total stored value bytes at the end of the run (state-size growth).
    pub state_value_bytes: u64,
    /// Executed rounds that reported a state digest during the run.
    pub digest_rounds: u64,
    /// Safety-checker violations — the sweep's acceptance bar is that this is
    /// empty in every cell.
    pub violations: Vec<String>,
}

impl WorkloadCell {
    /// The cluster-local read advantage: write latency over read latency.
    /// Reads skip Stages 1–3 entirely (E2), so read-heavy mixes must show this
    /// well above 1.
    pub fn read_advantage(&self) -> f64 {
        if self.read_latency_ms > 0.0 {
            self.write_latency_ms / self.read_latency_ms
        } else {
            0.0
        }
    }
}

/// The E13 sweep grid: read ratio × Zipfian skew. The quick grid covers the
/// update-heavy / read-heavy / read-mostly corners at uniform and paper skew;
/// the full grid fills the YCSB-A/B/C axis in and adds hot-key contention
/// (θ = 1.2).
pub fn e13_grid(scale: &ExperimentScale) -> Vec<(f64, f64)> {
    let (ratios, thetas): (Vec<f64>, Vec<f64>) = if scale.full {
        (vec![0.5, 0.85, 0.9, 0.95, 0.99], vec![0.0, 0.9, 1.2])
    } else {
        (vec![0.5, 0.9, 0.95], vec![0.0, 0.9])
    };
    ratios.iter().flat_map(|&r| thetas.iter().map(move |&t| (r, t))).collect()
}

/// Run one E13 cell: the KV state machine under a YCSB-style mix with
/// `read_ratio` and `zipf_theta`, a 10% multi-key write fraction and 1 KiB
/// values, judged by the full [`CheckerSet`] (whose execution-agreement checker
/// now compares full state digests across replicas every round).
pub fn e13_cell(scale: &ExperimentScale, read_ratio: f64, zipf_theta: f64) -> WorkloadCell {
    let n = if scale.full { 7 } else { 4 };
    let mut config = SystemConfig::homogeneous_regions(&[(n, Region::UsWest), (n, Region::Europe)]);
    adjust_batch(&mut config, scale);
    let mut opts = default_opts(15, scale);
    opts.state_machine = ava_hamava::StateMachineKind::Kv;
    opts.workload = WorkloadSpec {
        key_space: if scale.full { 100_000 } else { 5_000 },
        ..WorkloadSpec::default()
    }
    .with_read_ratio(read_ratio)
    .with_zipf(zipf_theta)
    .with_multi_key(0.1, 4);
    let mut checkers = CheckerSet::standard();
    let run = scenario(Protocol::AvaHotStuff, config, opts, scale)
        .build()
        .run_observed(&mut [&mut checkers]);
    let (start, end) = scale.window();
    let m = summarize(&run.outputs, start, end);
    // The state machine reports its size with every per-round digest; the last
    // report of the run is the final state footprint.
    let (mut entries, mut value_bytes, mut digest_rounds) = (0u64, 0u64, 0u64);
    let mut seen_rounds = std::collections::BTreeSet::new();
    for o in &run.outputs {
        if let Output::StateDigest { round, entries: e, value_bytes: v, .. } = o {
            if seen_rounds.insert(*round) {
                digest_rounds += 1;
            }
            entries = *e;
            value_bytes = *v;
        }
    }
    WorkloadCell {
        read_ratio,
        zipf_theta,
        committed_tps: m.throughput_tps,
        read_latency_ms: m.read_latency_ms,
        write_latency_ms: m.write_latency_ms,
        state_entries: entries,
        state_value_bytes: value_bytes,
        digest_rounds,
        violations: checkers.violations().iter().map(|v| v.to_string()).collect(),
    }
}

/// E13: the read-ratio × skew sweep over the KV state machine. Every cell runs
/// under the full checker suite; the table reports the committed throughput,
/// the read/write latency split (the cluster-local read advantage of E2) and
/// the state-size growth per mix.
pub fn e13_workloads(scale: &ExperimentScale) -> Vec<WorkloadCell> {
    let cells = scale.pool().map(e13_grid(scale), |_, (r, t)| e13_cell(scale, r, t));
    let total_violations: usize = cells.iter().map(|c| c.violations.len()).sum();
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                fmt(c.read_ratio, 2),
                fmt(c.zipf_theta, 1),
                fmt(c.committed_tps, 1),
                fmt(c.read_latency_ms, 1),
                fmt(c.write_latency_ms, 1),
                fmt(c.read_advantage(), 1),
                c.state_entries.to_string(),
                c.state_value_bytes.to_string(),
                c.digest_rounds.to_string(),
                c.violations.len().to_string(),
            ]
        })
        .collect();
    print_table(
        &format!(
            "E13: KV state machine, read-ratio × skew sweep ({total_violations} safety violations)"
        ),
        &[
            "read ratio",
            "zipf θ",
            "committed (txn/s)",
            "read lat (ms)",
            "write lat (ms)",
            "read advantage",
            "state keys",
            "state bytes",
            "digest rounds",
            "violations",
        ],
        &rows,
    );
    cells
}

/// Serialize an E13 sweep into its JSON document. The CI gate greps for
/// `"total_violations": 0` — digest-level execution agreement held in every
/// cell.
pub fn e13_json(scale: &ExperimentScale, cells: &[WorkloadCell]) -> String {
    let total_violations: usize = cells.iter().map(|c| c.violations.len()).sum();
    let header = [
        ("state_machine", "\"kv\"".to_string()),
        ("total_violations", total_violations.to_string()),
    ];
    let cells: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "\"read_ratio\": {:.2}, \"zipf_theta\": {:.1}, \"committed_tps\": {:.1}, \
                 \"read_latency_ms\": {:.2}, \"write_latency_ms\": {:.2}, \
                 \"read_advantage\": {:.2}, \"state_entries\": {}, \"state_value_bytes\": {}, \
                 \"digest_rounds\": {}, \"violations\": {}",
                c.read_ratio,
                c.zipf_theta,
                c.committed_tps,
                c.read_latency_ms,
                c.write_latency_ms,
                c.read_advantage(),
                c.state_entries,
                c.state_value_bytes,
                c.digest_rounds,
                c.violations.len(),
            )
        })
        .collect();
    sweep_json("e13_workloads", scale, &header, "cells", &cells)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> ExperimentScale {
        ExperimentScale { run: Duration::from_secs(6), warmup_frac: 0.3, full: false, jobs: 2 }
    }

    #[test]
    fn e3_setups_match_paper_cluster_sizes() {
        let s2 = e3_setup(2, 1);
        let m = s2.membership();
        assert_eq!(m.size(ClusterId(0)), 9);
        assert_eq!(m.size(ClusterId(1)), 5);
        let s3 = e3_setup(3, 2);
        assert_eq!(s3.total_replicas(), 28);
        assert_eq!(s3.clusters.len(), 3);
        let s1 = e3_setup(1, 1);
        assert_eq!(s1.clusters[0].replicas.len(), s1.clusters[1].replicas.len());
    }

    #[test]
    fn run_once_produces_committed_transactions() {
        let scale = tiny_scale();
        let mut config = SystemConfig::even_split_single_region(8, 2, Region::UsWest);
        config.params.batch_size = 20;
        let (m, outputs) =
            run_once(Protocol::AvaHotStuff, config, default_opts(11, &scale), &scale);
        assert!(m.completed > 0, "no transactions completed");
        assert!(outputs.iter().any(|o| matches!(o, Output::RoundExecuted { .. })));
    }

    #[test]
    fn churn_schedule_matches_the_e5_shape() {
        let config = SystemConfig::homogeneous_regions(&[(5, Region::UsWest), (5, Region::Europe)]);
        let builder = Scenario::builder(Protocol::AvaHotStuff, config.clone())
            .run_for(Duration::from_secs(12));
        let s = with_churn(builder, &config, Duration::from_secs(12), 3).build();
        // 3 boundaries × 2 clusters × (join + leave) = 12 events.
        assert_eq!(s.schedule().len(), 12);
        assert_eq!(s.schedule().last_time(), Some(Time::from_secs(9)));
    }

    #[test]
    fn e11_cell_commits_through_the_broker_tier() {
        let scale = tiny_scale();
        let p = e11_cell(&scale, 200);
        assert_eq!(p.offered_tps, 400, "two clusters at 200 tps each");
        assert!(p.committed_tps > 200.0, "committed only {} tps", p.committed_tps);
        assert!(p.acked > 500, "only {} acks", p.acked);
        assert!(p.batch_occupancy >= 1.0);
    }

    #[test]
    fn e11_knee_detection_and_json_rendering() {
        let mk = |offered: u64, committed: f64| SaturationPoint {
            offered_tps: offered,
            committed_tps: committed,
            p50_ms: 5.0,
            p99_ms: 20.0,
            acked: 100,
            shed: 0,
            batch_occupancy: 8.0,
        };
        let points =
            vec![mk(1_000, 990.0), mk(2_000, 1_950.0), mk(4_000, 2_600.0), mk(8_000, 2_700.0)];
        assert_eq!(e11_knee(&points), Some(4_000));
        assert_eq!(e11_knee(&points[..2]), None);
        let json = e11_json(&ExperimentScale::quick(), &points, e11_knee(&points));
        assert!(json.contains("\"knee_offered_tps\": 4000"));
        assert!(json.contains("\"offered_tps\": 8000"));
        assert_eq!(json.matches("\"committed_tps\"").count(), 4);
        let no_knee = e11_json(&ExperimentScale::quick(), &points[..2], None);
        assert!(no_knee.contains("\"knee_offered_tps\": null"));
    }

    #[test]
    fn e13_cell_executes_kv_state_under_the_checker_suite() {
        let scale = tiny_scale();
        let c = e13_cell(&scale, 0.95, 0.9);
        assert!(c.committed_tps > 0.0, "no committed transactions");
        assert!(c.digest_rounds > 0, "KV runs must report per-round state digests");
        assert!(c.state_entries > 0, "writes must land in the state");
        assert!(c.state_value_bytes >= c.state_entries * 1024, "1 KiB values");
        assert!(c.violations.is_empty(), "checker violations: {:?}", c.violations);
        assert!(
            c.read_advantage() > 1.0,
            "cluster-local reads must beat ordered writes (read {} ms, write {} ms)",
            c.read_latency_ms,
            c.write_latency_ms
        );
    }

    #[test]
    fn e13_grid_and_json_rendering() {
        let quick = e13_grid(&ExperimentScale::quick());
        assert_eq!(quick.len(), 6, "3 read ratios × 2 skews at quick scale");
        let cell = WorkloadCell {
            read_ratio: 0.9,
            zipf_theta: 0.9,
            committed_tps: 1_000.0,
            read_latency_ms: 2.0,
            write_latency_ms: 400.0,
            state_entries: 500,
            state_value_bytes: 512_000,
            digest_rounds: 40,
            violations: Vec::new(),
        };
        assert!((cell.read_advantage() - 200.0).abs() < 1e-9);
        let json = e13_json(&ExperimentScale::quick(), &[cell]);
        assert!(json.contains("\"total_violations\": 0"));
        assert!(json.contains("\"state_machine\": \"kv\""));
        assert!(json.contains("\"read_advantage\": 200.00"));
    }
}

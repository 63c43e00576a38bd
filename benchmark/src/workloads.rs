//! The four benchmark workloads: names, sizes, deployments and fault schedules.
//!
//! Every size in this file is frozen: it was chosen once (see the calibration
//! record in `README.md`) and is never tuned per commit, so numbers taken at
//! two commits describe the same inputs. The only inputs that vary are the
//! seed (`--seed`) and the length of the measured window (`--seconds`, which
//! the frozen per-workload ratio turns into virtual time).

use ava_hamava::harness::DeploymentOptions;
use ava_hamava::StateMachineKind;
use ava_scenario::{BrokerTier, Protocol, Scenario, ScenarioEvent};
use ava_simnet::{CostModel, LatencyModel};
use ava_store::StoreConfig;
use ava_types::{ClusterId, Duration, Region, ReplicaId, SystemConfig, Time};
use ava_workload::{AggregateLoad, WorkloadSpec};

/// A benchmark workload. The names are the contract `BENCHMARK.json` lists.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    GeoHeteroCounter,
    KvWrite1Kib,
    KvReadScan,
    ChurnFaultsOpenLoop,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::GeoHeteroCounter,
        Workload::KvWrite1Kib,
        Workload::KvReadScan,
        Workload::ChurnFaultsOpenLoop,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::GeoHeteroCounter => "geo_hetero_counter",
            Workload::KvWrite1Kib => "kv_write_1kib",
            Workload::KvReadScan => "kv_read_scan",
            Workload::ChurnFaultsOpenLoop => "churn_faults_open_loop",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (one line; `BENCHMARK.json` carries the same text).
    pub fn why(self) -> &'static str {
        match self {
            Workload::GeoHeteroCounter => {
                "paper's headline 3-cluster Asia/Asia/Europe deployment: simnet, TOB, round \
                 pipeline and cert checks work; state, store and broker are idle"
            }
            Workload::KvWrite1Kib => {
                "CPU-bound 1 KiB overwrites on one region: state apply/digest and store \
                 append/checkpoint do most of the work"
            }
            Workload::KvReadScan => {
                "same populated KV state read the other way: point reads and 100-key scans \
                 bypass ordering, so a write-path gain bought with slower reads shows as a loss"
            }
            Workload::ChurnFaultsOpenLoop => {
                "open-loop Poisson load through brokers on BFT-SMaRt while a join, a leave, a crash \
                 and restart, a partition and a leader crash happen: reconfiguration and recovery"
            }
        }
    }

    /// Frozen ratio: virtual milliseconds of measured window per host second
    /// a replicate is sized for. Calibrated once so that a pass over the window
    /// costs about that long at the commit that defined the benchmark (README
    /// "calibration record"); a later, faster program simply finishes the
    /// same virtual window sooner.
    fn virtual_ms_per_host_sec(self) -> u64 {
        match self {
            Workload::GeoHeteroCounter => 4_700,
            Workload::KvWrite1Kib => 140,
            Workload::KvReadScan => 400,
            Workload::ChurnFaultsOpenLoop => 4_700,
        }
    }

    /// The three phases for a measured window meant to cost `host_seconds` per
    /// pass (rounded down to whole ticks).
    pub fn phases(self, host_seconds: f64) -> Phases {
        let tick = self.tick().as_micros();
        let window = (host_seconds * self.virtual_ms_per_host_sec() as f64 * 1e3) as u64;
        self.phases_with_window(Duration((window / tick).max(1) * tick))
    }

    /// The `--smoke` phases: half-size windows, far too short for claims. The
    /// open-loop workload keeps its full window: its fault schedule is only
    /// known to be survivable at that spacing (README "findings").
    pub fn smoke_phases(self) -> Phases {
        self.phases(if self == Workload::ChurnFaultsOpenLoop { 6.0 } else { 3.0 })
    }

    /// How often the host clock is stamped, in virtual time: sized so one
    /// slice costs some tens of host milliseconds. Phase edges fall on ticks.
    pub fn tick(self) -> Duration {
        Duration::from_millis(match self {
            Workload::GeoHeteroCounter | Workload::ChurnFaultsOpenLoop => 100,
            Workload::KvWrite1Kib => 5,
            Workload::KvReadScan => 10,
        })
    }

    /// The three phases around a measured window of `window` (whole ticks) of
    /// virtual time.
    pub fn phases_with_window(self, window: Duration) -> Phases {
        assert!(
            window.as_micros().is_multiple_of(self.tick().as_micros()),
            "window must be whole ticks"
        );
        let (warmup_ms, drain_ms) = match self {
            // Table II round trips: a write needs several 134 ms hops, and the
            // closed-loop client abandons a request after 3 s.
            Workload::GeoHeteroCounter => (3_000, 4_000),
            // Sub-millisecond links; the warm-up is what populates the keys.
            Workload::KvWrite1Kib | Workload::KvReadScan => (200, 200),
            // The drain must outlast a leader-change timeout plus a broker retry.
            Workload::ChurnFaultsOpenLoop => (3_000, 8_000),
        };
        Phases {
            warmup: Duration::from_millis(warmup_ms),
            window,
            drain: Duration::from_millis(drain_ms),
        }
    }
}

/// Most replicates a run may make (`--replicates`).
pub const MAX_REPLICATES: usize = 16;

/// The seed of replicate number `replicate` of a run on `seed`: a run pools
/// several replicates, each a full pass on a seed of its own, and runs on
/// different seeds never share one.
pub fn replicate_seed(seed: u64, replicate: usize) -> u64 {
    assert!(replicate < MAX_REPLICATES, "at most {MAX_REPLICATES} replicates");
    seed.wrapping_mul(MAX_REPLICATES as u64).wrapping_add(replicate as u64)
}

/// Virtual lengths of the three phases of a run.
#[derive(Clone, Copy, Debug)]
pub struct Phases {
    /// Set-up tail: caches, memos and KV keys fill here.
    pub warmup: Duration,
    /// The measured window.
    pub window: Duration,
    /// Fixed tail in which in-flight operations may finish.
    pub drain: Duration,
}

impl Phases {
    pub fn window_start(&self) -> Time {
        Time::ZERO + self.warmup
    }

    pub fn window_end(&self) -> Time {
        self.window_start() + self.window
    }

    pub fn end(&self) -> Time {
        self.window_end() + self.drain
    }
}

/// Inputs the benchmark owns that `--selfcheck` perturbs to show the numbers
/// follow the program and not the harness.
#[derive(Clone, Copy, Debug)]
pub struct Perturb {
    /// Multiplier on `CostModel::per_sig_verify`.
    pub sig_verify_x: u64,
    /// Replaces every workload's written value (payload) size.
    pub value_size: Option<u32>,
}

impl Default for Perturb {
    fn default() -> Self {
        Perturb { sig_verify_x: 1, value_size: None }
    }
}

/// Keys the KV workloads write and read.
pub const KV_KEYS: u64 = 2_000;
/// Virtual clients behind each broker of the open-loop workload.
pub const VIRTUAL_CLIENTS: u64 = 20_000;
/// Offered load per cluster of the open-loop workload, about half the measured
/// knee of this deployment (README "calibration record").
pub const OPEN_LOOP_TPS_PER_CLUSTER: u64 = 750;
/// The cluster of the open-loop workload that is reconfigured and whose
/// non-leader crashes. One cluster only: membership changes of two clusters
/// that land in consecutive rounds wedge the program (README "findings").
pub const CHURNED_CLUSTER: usize = 1;
/// When each scheduled event of the open-loop workload falls inside the
/// measured window, in thousandths of it.
#[derive(Clone, Copy, Debug)]
pub struct FaultSchedule {
    /// One replica joins the churned cluster.
    pub join: u64,
    /// Crash of one original non-leader of the churned cluster ...
    pub crash: u64,
    /// ... and its restart (catch-up).
    pub restart: u64,
    /// The joined replica asks to leave again.
    pub leave: u64,
    /// Clusters 1 and 2 are partitioned ...
    pub partition: u64,
    /// ... and healed.
    pub heal: u64,
    /// Crash of cluster 0's initial leader (it stays down).
    pub leader_crash: u64,
}

pub const FAULTS: FaultSchedule = FaultSchedule {
    join: 50,
    crash: 200,
    restart: 330,
    leave: 450,
    partition: 580,
    heal: 640,
    leader_crash: 800,
};

/// Everything needed to run one workload once: the deployment, the load and the
/// fault schedule, all derived from `(workload, seed, phases, perturb)`.
pub struct Plan {
    pub workload: Workload,
    pub phases: Phases,
    pub protocol: Protocol,
    pub config: SystemConfig,
    pub opts: DeploymentOptions,
    pub tier: Option<BrokerTier>,
    /// Scheduled events, all inside the measured window.
    pub events: Vec<(Time, ScenarioEvent)>,
}

fn kv_write_mix(value_size: u32) -> WorkloadSpec {
    WorkloadSpec {
        read_ratio: 0.1,
        key_space: KV_KEYS,
        zipf_theta: 0.0,
        payload_size: value_size,
        ..WorkloadSpec::default()
    }
}

fn kv_read_scan_mix(value_size: u32) -> WorkloadSpec {
    // 90 % point reads, 5 % scans, 5 % writes: scans are 5/95 of the reads.
    WorkloadSpec {
        read_ratio: 0.95,
        key_space: KV_KEYS,
        zipf_theta: 0.99,
        payload_size: value_size,
        ..WorkloadSpec::default()
    }
    .with_scans(5.0 / 95.0, 100)
}

fn closed_loop_opts(seed: u64, costs: CostModel, workload: WorkloadSpec) -> DeploymentOptions {
    DeploymentOptions {
        seed,
        latency: LatencyModel::paper_table2(),
        costs,
        workload,
        clients_per_cluster: 4,
        client_concurrency: 128,
        store: None,
        state_machine: StateMachineKind::Counter,
    }
}

impl Plan {
    pub fn new(workload: Workload, seed: u64, phases: Phases, perturb: Perturb) -> Plan {
        let mut costs = CostModel::cloud_vm();
        costs.per_sig_verify = costs.per_sig_verify.saturating_mul(perturb.sig_verify_x);
        let start = phases.window_start();
        let at = |permille: u64| start + Duration(phases.window.as_micros() * permille / 1000);
        match workload {
            Workload::GeoHeteroCounter => {
                // E3 setup 3 at scale 3: region partition plus an intra-region split.
                let config = SystemConfig::heterogeneous(&[
                    vec![Region::AsiaSouth; 15],
                    vec![Region::AsiaSouth; 12],
                    vec![Region::Europe; 15],
                ]);
                Plan {
                    workload,
                    phases,
                    protocol: Protocol::AvaHotStuff,
                    config,
                    opts: closed_loop_opts(
                        seed,
                        costs,
                        WorkloadSpec::default().with_payload(perturb.value_size.unwrap_or(1024)),
                    ),
                    tier: None,
                    events: Vec::new(),
                }
            }
            Workload::KvWrite1Kib | Workload::KvReadScan => {
                let value_size = perturb.value_size.unwrap_or(1024);
                let config = SystemConfig::even_split_single_region(8, 2, Region::UsWest);
                let mut opts = closed_loop_opts(seed, costs, kv_write_mix(value_size));
                opts.state_machine = StateMachineKind::Kv;
                opts.store = Some(StoreConfig::every(8));
                // The read workload shares the write workload's warm-up (that is
                // what populates the state) and switches mix as the window opens.
                let events = if workload == Workload::KvReadScan {
                    config
                        .clusters
                        .iter()
                        .map(|c| {
                            let event = ScenarioEvent::WorkloadSwitch {
                                cluster: c.id,
                                workload: kv_read_scan_mix(value_size),
                            };
                            (start, event)
                        })
                        .collect()
                } else {
                    Vec::new()
                };
                Plan {
                    workload,
                    phases,
                    protocol: Protocol::AvaHotStuff,
                    config,
                    opts,
                    tier: None,
                    events,
                }
            }
            Workload::ChurnFaultsOpenLoop => {
                let regions = [Region::UsWest, Region::Europe, Region::AsiaSouth];
                let mut config = SystemConfig::even_split_multi_region(21, 3, &regions);
                // The timeouts the repo's own fault experiments run with at
                // reduced scale (E4/E10): the shipped 20 s defaults are sized
                // for 180 s paper-scale runs.
                config.params.remote_leader_timeout = Duration::from_secs(4);
                config.params.local_timeout = Duration::from_secs(4);
                config.params.brd_timeout = Duration::from_secs(4);
                let spec = WorkloadSpec {
                    read_ratio: 0.5,
                    key_space: KV_KEYS,
                    payload_size: perturb.value_size.unwrap_or(128),
                    ..WorkloadSpec::default()
                };
                let mut opts = closed_loop_opts(seed, costs, spec.clone());
                opts.clients_per_cluster = 0; // all load arrives through the brokers
                opts.state_machine = StateMachineKind::Kv;
                opts.store = Some(StoreConfig::every(8));
                let tier = BrokerTier {
                    brokers_per_cluster: 1,
                    load: AggregateLoad {
                        virtual_clients: VIRTUAL_CLIENTS,
                        offered_tps: OPEN_LOOP_TPS_PER_CLUSTER,
                        // Arrivals keep coming through the drain, as the closed-loop
                        // clients' requests do: a stream that stops strands its
                        // last partial batch (the scenario caps this just short
                        // of the run's end).
                        issue_for: Duration(phases.end().as_micros()),
                        workload: spec,
                        ..AggregateLoad::default()
                    },
                    ..BrokerTier::default()
                };
                let sched = FAULTS;
                let mut events = Vec::new();
                let churned = &config.clusters[CHURNED_CLUSTER];
                let region = churned.replicas[0].1;
                events.push((at(sched.join), ScenarioEvent::Join { cluster: churned.id, region }));
                // The joined replica gets the next free id; it is the one that
                // leaves (never a broker target, README "findings").
                let joined = ReplicaId(config.max_replica_id() + 1);
                events.push((at(sched.leave), ScenarioEvent::Leave { replica: joined }));
                let straggler = churned.replicas[2].0;
                events.push((at(sched.crash), ScenarioEvent::Crash { replica: straggler }));
                events.push((at(sched.restart), ScenarioEvent::Restart { replica: straggler }));
                let (a, b) = (ClusterId(1), ClusterId(2));
                events.push((at(sched.partition), ScenarioEvent::Partition { a, b }));
                events.push((at(sched.heal), ScenarioEvent::Heal { a, b }));
                let leader = config.initial_leader(ClusterId(0));
                events.push((at(sched.leader_crash), ScenarioEvent::Crash { replica: leader }));
                Plan {
                    workload,
                    phases,
                    protocol: Protocol::AvaBftSmart,
                    config,
                    opts,
                    tier: Some(tier),
                    events,
                }
            }
        }
    }

    /// The scenario for this plan, run for `run` of virtual time: the full
    /// three phases for a measured pass, the warm-up alone for a set-up sample.
    /// Events at or past `run` are left out (the runner rejects them).
    pub fn scenario(&self, run: Duration) -> Scenario {
        let end = Time::ZERO + run;
        let mut builder = Scenario::builder(self.protocol, self.config.clone())
            .options(self.opts.clone())
            .run_for(run)
            .tick_every(self.workload.tick());
        if let Some(tier) = &self.tier {
            let mut tier = tier.clone();
            // The runner wants the issue window to end before the run does.
            let last = Duration(run.as_micros() - 1);
            tier.load.issue_for = tier.load.issue_for.min(last);
            builder = builder.brokers(tier);
        }
        for (at, event) in &self.events {
            if *at < end {
                builder = builder.at(*at, event.clone());
            }
        }
        builder.build()
    }

    /// The mix the clients run inside the measured window: the one they
    /// switch to as it opens, else the one they start with.
    pub fn window_mix(&self) -> &WorkloadSpec {
        let switched = self.events.iter().find_map(|(_, e)| match e {
            ScenarioEvent::WorkloadSwitch { workload, .. } => Some(workload),
            _ => None,
        });
        switched.unwrap_or(&self.opts.workload)
    }

    /// Replicas the schedule restarts, each of which must report `RecoveryCompleted`.
    pub fn scheduled_restarts(&self) -> Vec<ReplicaId> {
        self.events
            .iter()
            .filter_map(|(_, e)| match e {
                ScenarioEvent::Restart { replica } => Some(*replica),
                _ => None,
            })
            .collect()
    }
}

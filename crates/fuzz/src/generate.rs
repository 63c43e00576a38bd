//! Seed-driven generation of random well-formed fuzz cases.
//!
//! A [`FuzzCase`] is everything one run needs: protocol, topology, deployment
//! options and an event schedule. [`ScheduleGenerator::case`] derives all of it
//! deterministically from a single `u64` seed (same seed ⇒ byte-identical case ⇒
//! identical run), which is what makes failing seeds reproducible from nothing
//! but the seed number printed in a CI log.
//!
//! Generated schedules are *well-formed by construction*: per-cluster fault
//! budgets stay within `f = (n-1)/3`, every partition is healed, restarts only
//! follow crashes with a margin, and all events land in a window that leaves the
//! run time to quiesce — so a checker violation on a generated case is a protocol
//! bug, not a schedule that asked for the impossible.

use ava_scenario::{
    BrokerTier, ByzantineBehavior, Protocol, Scenario, ScenarioBuilder, ScenarioEvent, Schedule,
};
use ava_simnet::LatencyModel;
use ava_store::StoreConfig;
use ava_types::{ClusterId, Duration, Region, ReplicaId, SystemConfig, Time};
use ava_workload::{AggregateLoad, WorkloadSpec};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::BTreeSet;

/// Knobs bounding what [`ScheduleGenerator`] draws.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Virtual run length of every generated case.
    pub run: Duration,
    /// Tail window with no scheduled events, so injected faults have time to
    /// play out (recoveries complete, partitions drain) before the run ends.
    pub grace: Duration,
    /// Maximum number of events drawn per schedule (the draw may produce fewer:
    /// attempts that would break a well-formedness constraint are skipped).
    pub max_events: usize,
    /// Protocols drawn from (uniformly).
    pub protocols: Vec<Protocol>,
    /// Clusters per deployment (inclusive bounds).
    pub clusters: (usize, usize),
    /// Replicas per cluster (inclusive bounds).
    pub cluster_size: (usize, usize),
    /// Outstanding requests per client.
    pub client_concurrency: usize,
    /// Probability that a case deploys a broker tier (aggregate virtual-client
    /// load routed through per-cluster brokers). Drawn from an RNG derived
    /// *separately* from the schedule RNG, so turning this on never shifts the
    /// schedule/topology a seed generates. `0.0` in the quick profile — the
    /// fuzz determinism goldens pin quick-profile cases byte-for-byte.
    pub broker_probability: f64,
    /// Probability that a case corrupts replicas with Byzantine behaviors
    /// (`ScenarioEvent::Corrupt`). Like the broker knob, drawn from its own
    /// salted RNG stream so enabling it never shifts the schedule/topology a
    /// seed generates; the corrupt draws *do* share the per-cluster fault
    /// budget with crashes/mutes/leaves, so total faulty replicas stay ≤ f
    /// per cluster. `0.0` in the quick profile (golden-pinned).
    pub byzantine_probability: f64,
}

impl FuzzConfig {
    /// The CI smoke profile: short runs, small topologies — a seed takes well
    /// under a second, so hundreds fit in a smoke budget.
    pub fn quick() -> Self {
        FuzzConfig {
            run: Duration::from_secs(12),
            grace: Duration::from_secs(4),
            max_events: 6,
            protocols: Protocol::ALL.to_vec(),
            clusters: (2, 2),
            cluster_size: (4, 5),
            client_concurrency: 32,
            broker_probability: 0.0,
            byzantine_probability: 0.0,
        }
    }

    /// The overnight profile: longer runs, bigger topologies, more events.
    pub fn full() -> Self {
        FuzzConfig {
            run: Duration::from_secs(20),
            grace: Duration::from_secs(5),
            max_events: 10,
            protocols: Protocol::ALL.to_vec(),
            clusters: (2, 3),
            cluster_size: (4, 7),
            client_concurrency: 128,
            broker_probability: 0.35,
            byzantine_probability: 0.25,
        }
    }
}

/// One fully described fuzz run, derived deterministically from a seed.
#[derive(Clone, Debug)]
pub struct FuzzCase {
    /// The generator seed this case was derived from.
    pub seed: u64,
    /// Protocol under test.
    pub protocol: Protocol,
    /// Cluster recipe, as `(size, region)` per cluster (kept alongside the
    /// expanded config so reproducer snippets can restate the constructor call).
    pub clusters: Vec<(usize, Region)>,
    /// The expanded system configuration.
    pub config: SystemConfig,
    /// Deployment options (simulation seed, workload, store cadence, …).
    pub opts: ava_hamava::harness::DeploymentOptions,
    /// The event schedule.
    pub schedule: Schedule,
    /// Broker tier, when the case routes aggregate virtual-client load through
    /// brokers (always with batch retries disabled — see the conservation
    /// checker's exactly-once argument).
    pub brokers: Option<BrokerTier>,
    /// Virtual run length.
    pub run: Duration,
}

impl FuzzCase {
    /// The scenario this case describes.
    ///
    /// # Panics
    /// Panics if the schedule is invalid — generated schedules never are (the
    /// scenario-api property test pins this); shrunk candidates go through
    /// [`FuzzCase::try_scenario`] instead.
    pub fn scenario(&self) -> Scenario {
        self.try_scenario().expect("generated schedules are well-formed")
    }

    /// The scenario this case describes, or the build-time validation failure.
    pub fn try_scenario(&self) -> Result<Scenario, String> {
        self.builder().try_build()
    }

    fn builder(&self) -> ScenarioBuilder {
        let mut builder = Scenario::builder(self.protocol, self.config.clone())
            .options(self.opts.clone())
            .events(&self.schedule)
            .run_for(self.run);
        if let Some(tier) = &self.brokers {
            builder = builder.brokers(tier.clone());
        }
        builder
    }

    /// A copy of this case with `schedule` swapped in (the shrinker's candidate
    /// constructor).
    pub fn with_schedule(&self, schedule: Schedule) -> FuzzCase {
        FuzzCase { schedule, ..self.clone() }
    }

    /// Canonical byte encoding of the whole case (topology, options, sorted
    /// schedule). Two cases encode identically iff they describe the same run,
    /// so `sha256(encode())` is the schedule fingerprint the determinism goldens
    /// and failure reports use.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"ava-fuzz-case-v1");
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(self.protocol.label().as_bytes());
        out.push(self.clusters.len() as u8);
        for (size, region) in &self.clusters {
            out.extend_from_slice(&(*size as u64).to_le_bytes());
            out.push(region.index() as u8);
        }
        let p = &self.config.params;
        out.extend_from_slice(&(p.batch_size as u64).to_le_bytes());
        out.push(p.alpha_percent);
        for d in [p.remote_leader_timeout, p.brd_timeout, p.local_timeout, p.leader_change_grace] {
            out.extend_from_slice(&d.as_micros().to_le_bytes());
        }
        out.push(p.parallel_reconfig_workflow as u8);
        out.extend_from_slice(&self.opts.seed.to_le_bytes());
        out.extend_from_slice(&(self.opts.clients_per_cluster as u64).to_le_bytes());
        out.extend_from_slice(&(self.opts.client_concurrency as u64).to_le_bytes());
        out.extend_from_slice(&self.opts.store.map_or(0, |s| s.checkpoint_interval).to_le_bytes());
        encode_workload(&mut out, &self.opts.workload);
        encode_latency(&mut out, &self.opts.latency);
        // Broker bytes are appended only when a tier is present, so broker-free
        // cases (the entire quick profile) encode exactly as they did before
        // the broker tier existed — the fuzz determinism goldens stay valid.
        if let Some(tier) = &self.brokers {
            out.extend_from_slice(b"brokers");
            out.extend_from_slice(&(tier.brokers_per_cluster as u64).to_le_bytes());
            out.extend_from_slice(&(tier.max_batch_ops as u64).to_le_bytes());
            out.extend_from_slice(&tier.flush_interval.as_micros().to_le_bytes());
            out.extend_from_slice(&(tier.max_inflight as u64).to_le_bytes());
            out.extend_from_slice(&(tier.queue_cap as u64).to_le_bytes());
            out.extend_from_slice(&tier.retry_timeout.as_micros().to_le_bytes());
            out.extend_from_slice(&tier.load.virtual_clients.to_le_bytes());
            out.extend_from_slice(&tier.load.offered_tps.to_le_bytes());
            out.extend_from_slice(&tier.load.issue_for.as_micros().to_le_bytes());
            out.extend_from_slice(&tier.load.client_theta.to_bits().to_le_bytes());
            encode_workload(&mut out, &tier.load.workload);
        }
        out.extend_from_slice(&self.run.as_micros().to_le_bytes());
        let sorted = self.schedule.sorted();
        out.extend_from_slice(&(sorted.len() as u64).to_le_bytes());
        for (at, event) in sorted {
            out.extend_from_slice(&at.as_micros().to_le_bytes());
            encode_event(&mut out, &event);
        }
        out
    }

    /// Hex SHA-256 of [`FuzzCase::encode`] — the schedule fingerprint.
    pub fn fingerprint(&self) -> String {
        let digest = ava_crypto::sha256(&self.encode());
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Render the case as a compilable `ScenarioBuilder` snippet — the minimal
    /// reproducer printed when a shrunk failing case is reported.
    pub fn builder_snippet(&self) -> String {
        let mut s = String::new();
        let clusters = self
            .clusters
            .iter()
            .map(|(size, region)| format!("({size}, Region::{region:?})"))
            .collect::<Vec<_>>()
            .join(", ");
        s.push_str(&format!(
            "// fuzz seed {seed} ({proto})\n\
             let mut config = SystemConfig::homogeneous_regions(&[{clusters}]);\n",
            seed = self.seed,
            proto = self.protocol.label(),
        ));
        // Every parameter `encode` covers, so the snippet reproduces the case.
        let p = &self.config.params;
        s.push_str(&format!("config.params.batch_size = {};\n", p.batch_size));
        s.push_str(&format!("config.params.alpha_percent = {};\n", p.alpha_percent));
        for (field, value) in [
            ("remote_leader_timeout", p.remote_leader_timeout),
            ("brd_timeout", p.brd_timeout),
            ("local_timeout", p.local_timeout),
            ("leader_change_grace", p.leader_change_grace),
        ] {
            s.push_str(&format!(
                "config.params.{field} = Duration::from_micros({});\n",
                value.as_micros()
            ));
        }
        s.push_str(&format!(
            "config.params.parallel_reconfig_workflow = {};\n",
            p.parallel_reconfig_workflow
        ));
        // Likewise every deployment option `encode` covers.
        let o = &self.opts;
        let store = match o.store {
            Some(store) => format!("Some(StoreConfig::every({}))", store.checkpoint_interval),
            None => "None".to_string(),
        };
        let latency =
            latency_expr(&o.latency).map(|l| format!("latency: {l}, ")).unwrap_or_default();
        s.push_str(&format!(
            "let scenario = Scenario::builder(Protocol::{:?}, config)\n    \
             .options(DeploymentOptions {{ seed: {}, clients_per_cluster: {}, \
             client_concurrency: {}, store: {store}, workload: {}, {latency}\
             ..DeploymentOptions::default() }})\n",
            self.protocol,
            o.seed,
            o.clients_per_cluster,
            o.client_concurrency,
            workload_expr(&o.workload),
        ));
        if let Some(tier) = &self.brokers {
            s.push_str(&format!(
                "    .brokers(BrokerTier {{ brokers_per_cluster: {}, max_batch_ops: {}, \
                 max_inflight: {}, queue_cap: {}, retry_timeout: Duration::from_micros({}), \
                 load: AggregateLoad {{ virtual_clients: {}, offered_tps: {}, \
                 issue_for: Duration::from_micros({}), ..AggregateLoad::default() }}, \
                 ..BrokerTier::default() }})\n",
                tier.brokers_per_cluster,
                tier.max_batch_ops,
                tier.max_inflight,
                tier.queue_cap,
                tier.retry_timeout.as_micros(),
                tier.load.virtual_clients,
                tier.load.offered_tps,
                tier.load.issue_for.as_micros(),
            ));
        }
        s.push_str(&format!("    .run_for(Duration::from_micros({}))\n", self.run.as_micros()));
        for (at, event) in self.schedule.sorted() {
            s.push_str(&format!("    {}\n", event_call(at, &event)));
        }
        s.push_str("    .build();\n");
        s
    }
}

fn encode_workload(out: &mut Vec<u8>, w: &WorkloadSpec) {
    out.extend_from_slice(&w.read_ratio.to_bits().to_le_bytes());
    out.extend_from_slice(&w.key_space.to_le_bytes());
    out.extend_from_slice(&w.zipf_theta.to_bits().to_le_bytes());
    out.extend_from_slice(&w.payload_size.to_le_bytes());
}

fn encode_latency(out: &mut Vec<u8>, latency: &LatencyModel) {
    for a in Region::ALL {
        for b in Region::ALL {
            out.extend_from_slice(&latency.rtt_ms(a, b).to_bits().to_le_bytes());
        }
    }
}

fn encode_event(out: &mut Vec<u8>, event: &ScenarioEvent) {
    out.extend_from_slice(event.kind().as_bytes());
    match event {
        ScenarioEvent::Crash { replica }
        | ScenarioEvent::Restart { replica }
        | ScenarioEvent::Leave { replica } => out.extend_from_slice(&replica.0.to_le_bytes()),
        ScenarioEvent::Join { cluster, region } => {
            out.extend_from_slice(&cluster.0.to_le_bytes());
            out.push(region.index() as u8);
        }
        ScenarioEvent::ClientJoin { cluster, workload }
        | ScenarioEvent::WorkloadSwitch { cluster, workload } => {
            out.extend_from_slice(&cluster.0.to_le_bytes());
            encode_workload(out, workload);
        }
        ScenarioEvent::Partition { a, b } | ScenarioEvent::Heal { a, b } => {
            out.extend_from_slice(&a.0.to_le_bytes());
            out.extend_from_slice(&b.0.to_le_bytes());
        }
        ScenarioEvent::LatencyShift { latency } => encode_latency(out, latency),
        ScenarioEvent::Corrupt { replica, behavior } => {
            out.extend_from_slice(&replica.0.to_le_bytes());
            out.extend_from_slice(&behavior.to_tag().to_le_bytes());
        }
    }
}

fn workload_expr(w: &WorkloadSpec) -> String {
    format!(
        "WorkloadSpec {{ read_ratio: {:?}, key_space: {}, zipf_theta: {:?}, payload_size: {}, \
         ..WorkloadSpec::default() }}",
        w.read_ratio, w.key_space, w.zipf_theta, w.payload_size
    )
}

/// The latency model as an expression, or `None` for the default (the
/// paper's Table II): a block that overrides each region pair `encode` sees
/// differ from the table.
fn latency_expr(latency: &LatencyModel) -> Option<String> {
    let table = LatencyModel::paper_table2();
    let mut overrides = String::new();
    for (i, a) in Region::ALL.into_iter().enumerate() {
        for b in Region::ALL.into_iter().skip(i + 1) {
            let rtt = latency.rtt_ms(a, b);
            if rtt.to_bits() != table.rtt_ms(a, b).to_bits() {
                overrides.push_str(&format!("l.set_rtt(Region::{a:?}, Region::{b:?}, {rtt:?}); "));
            }
        }
    }
    (!overrides.is_empty())
        .then(|| format!("{{ let mut l = LatencyModel::paper_table2(); {overrides}l }}"))
}

fn event_call(at: Time, event: &ScenarioEvent) -> String {
    let us = at.as_micros();
    // Generated times sit on the millisecond grid; fall back to the exact tuple
    // constructor for anything that does not.
    let t = if us % 1_000 == 0 {
        format!("Time::from_millis({})", us / 1_000)
    } else {
        format!("Time({us})")
    };
    match event {
        ScenarioEvent::Crash { replica } => format!(".crash_at({t}, ReplicaId({}))", replica.0),
        ScenarioEvent::Restart { replica } => {
            format!(".restart_at({t}, ReplicaId({}))", replica.0)
        }
        ScenarioEvent::Join { cluster, region } => {
            format!(".join_at({t}, ClusterId({}), Region::{region:?})", cluster.0)
        }
        ScenarioEvent::Leave { replica } => format!(".leave_at({t}, ReplicaId({}))", replica.0),
        ScenarioEvent::ClientJoin { cluster, workload } => format!(
            ".at({t}, ScenarioEvent::ClientJoin {{ cluster: ClusterId({}), workload: {} }})",
            cluster.0,
            workload_expr(workload)
        ),
        ScenarioEvent::WorkloadSwitch { cluster, workload } => format!(
            ".at({t}, ScenarioEvent::WorkloadSwitch {{ cluster: ClusterId({}), workload: {} }})",
            cluster.0,
            workload_expr(workload)
        ),
        ScenarioEvent::Partition { a, b } => {
            format!(".partition_at({t}, ClusterId({}), ClusterId({}))", a.0, b.0)
        }
        ScenarioEvent::Heal { a, b } => {
            format!(".heal_at({t}, ClusterId({}), ClusterId({}))", a.0, b.0)
        }
        ScenarioEvent::LatencyShift { latency } => format!(
            ".latency_shift_at({t}, LatencyModel::uniform({:?}))",
            latency.rtt_ms(Region::UsWest, Region::Europe)
        ),
        ScenarioEvent::Corrupt { replica, behavior } => {
            format!(".corrupt_at({t}, ReplicaId({}), ByzantineBehavior::{behavior:?})", replica.0)
        }
    }
}

/// Deterministic generator of well-formed [`FuzzCase`]s.
pub struct ScheduleGenerator {
    cfg: FuzzConfig,
}

impl ScheduleGenerator {
    /// A generator drawing within `cfg`'s bounds.
    pub fn new(cfg: FuzzConfig) -> Self {
        ScheduleGenerator { cfg }
    }

    /// The bounds this generator draws within.
    pub fn config(&self) -> &FuzzConfig {
        &self.cfg
    }

    /// Derive the complete case for `seed`. Same seed ⇒ byte-identical case.
    pub fn case(&self, seed: u64) -> FuzzCase {
        // Salt the stream so case(0) and case(1) do not share a SplitMix64
        // prefix with the simulation seeds derived below.
        let mut rng = StdRng::seed_from_u64(seed ^ 0xa5a5_5a5a_f0f0_0f0f);
        let cfg = &self.cfg;

        let protocol = cfg.protocols[rng.gen_range(0..cfg.protocols.len())];
        let n_clusters = rng.gen_range(cfg.clusters.0..=cfg.clusters.1);
        let clusters: Vec<(usize, Region)> = (0..n_clusters)
            .map(|_| {
                let size = rng.gen_range(cfg.cluster_size.0..=cfg.cluster_size.1);
                let region = Region::ALL[rng.gen_range(0..Region::ALL.len())];
                (size, region)
            })
            .collect();
        let mut config = SystemConfig::homogeneous_regions(&clusters);
        config.params.batch_size = 20;
        // Short fault-recovery timeouts: generated schedules crash leaders and
        // partition clusters, and the run must re-stabilize inside the window.
        config.params.remote_leader_timeout = Duration::from_secs(4);
        config.params.brd_timeout = Duration::from_secs(4);
        config.params.local_timeout = Duration::from_secs(4);

        let store = if rng.gen_bool(0.75) {
            Some(StoreConfig::every(rng.gen_range(2u64..=6)))
        } else {
            None
        };
        let read_ratio = [0.3, 0.5, 0.7, 0.9][rng.gen_range(0..4usize)];
        let opts = ava_hamava::harness::DeploymentOptions {
            seed: rng.gen_range(1u64..1_000_000_000),
            workload: WorkloadSpec { read_ratio, key_space: 500, ..WorkloadSpec::default() },
            client_concurrency: cfg.client_concurrency,
            store,
            ..Default::default()
        };

        let membership = config.membership();
        let mut budget = FaultBudget {
            used_ms: BTreeSet::new(),
            harmed: vec![0; config.clusters.len()],
            harmed_replicas: BTreeSet::new(),
        };
        let mut schedule =
            self.draw_schedule(&mut rng, protocol, &config, store.is_some(), &mut budget);
        self.draw_byzantine(seed, &config, &membership, &mut schedule, &mut budget);
        let brokers = self.draw_brokers(seed);
        FuzzCase { seed, protocol, clusters, config, opts, schedule, brokers, run: cfg.run }
    }

    /// Draw 1–2 `Corrupt` events for `seed` from a *separately derived* RNG
    /// stream (same pattern as the broker draw): turning the knob on never
    /// shifts the schedule/topology a seed generates. Unlike the broker draw
    /// the corrupt targets *do* consume the shared fault budget, so crashes,
    /// mutes, leaves and corruptions together never exceed `f` faulty replicas
    /// in any cluster — the adversary model the safety checkers assume.
    fn draw_byzantine(
        &self,
        seed: u64,
        config: &SystemConfig,
        membership: &ava_types::Membership,
        schedule: &mut Schedule,
        budget: &mut FaultBudget,
    ) {
        let cfg = &self.cfg;
        if cfg.byzantine_probability <= 0.0 {
            return;
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6279_7a61_6e74_696e); // "byzantin"
        if !rng.gen_bool(cfg.byzantine_probability) {
            return;
        }
        let lo_ms = 1_000u64;
        let hi_ms = (cfg.run.as_micros() - cfg.grace.as_micros()) / 1_000;
        let n = rng.gen_range(1..=2usize);
        for _ in 0..n {
            let Some(at_ms) = fresh_time(&mut rng, &mut budget.used_ms, lo_ms, hi_ms) else {
                continue;
            };
            let Some((ci, replica)) = pick_harmable(
                &mut rng,
                config,
                membership,
                &budget.harmed,
                &budget.harmed_replicas,
            ) else {
                continue;
            };
            budget.harmed[ci] += 1;
            budget.harmed_replicas.insert(replica);
            let behavior = draw_behavior(&mut rng);
            schedule.add(Time::from_millis(at_ms), ScenarioEvent::Corrupt { replica, behavior });
        }
    }

    /// Draw an optional broker tier for `seed` from a *separately derived* RNG:
    /// the schedule/topology stream above must be unshifted by the broker knob,
    /// so enabling `broker_probability` reproduces the exact same faults with a
    /// broker tier layered on top.
    fn draw_brokers(&self, seed: u64) -> Option<BrokerTier> {
        let cfg = &self.cfg;
        if cfg.broker_probability <= 0.0 {
            return None;
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6272_6f6b_6572_6673);
        if !rng.gen_bool(cfg.broker_probability) {
            return None;
        }
        // Issue until the grace tail starts, like the scheduled events; the
        // grace window drains the in-flight backlog. Retries stay disabled
        // (timeout past the run end): a retry to a different replica can
        // double-admit a batch, which would make the conservation checker's
        // exactly-once committed-trace reading unsound.
        let issue_for = Duration(cfg.run.as_micros() - cfg.grace.as_micros());
        Some(BrokerTier {
            brokers_per_cluster: rng.gen_range(1..=2),
            max_batch_ops: [20, 50, 100][rng.gen_range(0..3usize)],
            max_inflight: rng.gen_range(2..=4),
            queue_cap: 10_000,
            retry_timeout: Duration(cfg.run.as_micros() * 2),
            load: AggregateLoad {
                virtual_clients: 20_000,
                offered_tps: [200, 500, 1_000][rng.gen_range(0..3usize)],
                issue_for,
                ..AggregateLoad::default()
            },
            ..BrokerTier::default()
        })
    }

    /// Draw a well-formed schedule for `config`. Attempts that would violate a
    /// constraint (fault budget exhausted, no healable window left, …) are
    /// skipped, so the schedule may hold fewer events than drawn.
    fn draw_schedule(
        &self,
        rng: &mut StdRng,
        protocol: Protocol,
        config: &SystemConfig,
        has_store: bool,
        budget: &mut FaultBudget,
    ) -> Schedule {
        let cfg = &self.cfg;
        let mut schedule = Schedule::new();
        let membership = config.membership();
        let lo_ms = 1_000u64;
        let hi_ms = (cfg.run.as_micros() - cfg.grace.as_micros()) / 1_000;
        // All event times are distinct, so the canonical (time, kind, ids) order
        // is total and payload-blind ties cannot occur.
        let used_ms = &mut budget.used_ms;
        // Per-cluster count of harmed replicas ({crash, mute, silence, leave}
        // targets); kept within f = (n-1)/3 so every cluster stays live. The
        // later byzantine draw spends from the same budget.
        let harmed = &mut budget.harmed;
        let harmed_replicas = &mut budget.harmed_replicas;
        let mut partitioned: BTreeSet<(u32, u32)> = BTreeSet::new();

        let n_events = rng.gen_range(0..=cfg.max_events);
        for _ in 0..n_events {
            let Some(at_ms) = fresh_time(rng, used_ms, lo_ms, hi_ms) else {
                continue;
            };
            let at = Time::from_millis(at_ms);
            let roll = rng.gen_range(0u32..100);
            match roll {
                // Crash (optionally followed by a restart when the store is on —
                // a storeless restart would re-execute from round 0).
                0..=21 => {
                    let Some((ci, replica)) =
                        pick_harmable(rng, config, &membership, &harmed, &harmed_replicas)
                    else {
                        continue;
                    };
                    harmed[ci] += 1;
                    harmed_replicas.insert(replica);
                    schedule.add(at, ScenarioEvent::Crash { replica });
                    if has_store && rng.gen_bool(0.7) {
                        let restart_ms = at_ms + rng.gen_range(1_500u64..3_500);
                        if restart_ms < hi_ms && used_ms.insert(restart_ms) {
                            schedule.add(
                                Time::from_millis(restart_ms),
                                ScenarioEvent::Restart { replica },
                            );
                        }
                    }
                }
                // Withhold inter-cluster traffic (the E4.3 Byzantine leader), or
                // silence the local ordering role.
                22..=41 => {
                    let Some((ci, replica)) =
                        pick_harmable(rng, config, &membership, harmed, harmed_replicas)
                    else {
                        continue;
                    };
                    harmed[ci] += 1;
                    harmed_replicas.insert(replica);
                    let behavior = if roll <= 33 {
                        ByzantineBehavior::MuteInter
                    } else {
                        ByzantineBehavior::SilentLeader
                    };
                    schedule.add(at, ScenarioEvent::Corrupt { replica, behavior });
                }
                // Join a fresh replica.
                42..=53 => {
                    if !protocol.reconfigurable() {
                        continue;
                    }
                    let cluster = ClusterId(rng.gen_range(0..config.clusters.len() as u32));
                    let region = Region::ALL[rng.gen_range(0..Region::ALL.len())];
                    schedule.add(at, ScenarioEvent::Join { cluster, region });
                }
                // An initial replica leaves.
                54..=61 => {
                    if !protocol.reconfigurable() {
                        continue;
                    }
                    let Some((ci, replica)) =
                        pick_harmable(rng, config, &membership, &harmed, &harmed_replicas)
                    else {
                        continue;
                    };
                    // The initial leader leaving mid-run is a leader change on
                    // top of a reconfig; allowed, but never the cluster's last
                    // fault budget — pick_harmable already guarantees ≤ f.
                    harmed[ci] += 1;
                    harmed_replicas.insert(replica);
                    schedule.add(at, ScenarioEvent::Leave { replica });
                }
                // Partition a cluster pair, always healed within the window.
                62..=71 => {
                    if !partitioned.is_empty() {
                        continue; // One active partition at a time.
                    }
                    let a = rng.gen_range(0..config.clusters.len() as u32);
                    let b = rng.gen_range(0..config.clusters.len() as u32);
                    if a == b {
                        continue;
                    }
                    let heal_ms = at_ms + rng.gen_range(800u64..2_400);
                    if heal_ms >= hi_ms || !used_ms.insert(heal_ms) {
                        continue;
                    }
                    partitioned.insert((a.min(b), a.max(b)));
                    schedule.add(at, ScenarioEvent::Partition { a: ClusterId(a), b: ClusterId(b) });
                    schedule.add(
                        Time::from_millis(heal_ms),
                        ScenarioEvent::Heal { a: ClusterId(a), b: ClusterId(b) },
                    );
                }
                // Switch a cluster's workload mix. Never to 100% reads: a round
                // only executes once every cluster contributes its stage 1, so a
                // write-free cluster would stall write completion system-wide.
                72..=81 => {
                    let cluster = ClusterId(rng.gen_range(0..config.clusters.len() as u32));
                    let read_ratio = [0.3, 0.6, 0.9][rng.gen_range(0..3usize)];
                    let workload =
                        WorkloadSpec { read_ratio, key_space: 500, ..WorkloadSpec::default() };
                    schedule.add(at, ScenarioEvent::WorkloadSwitch { cluster, workload });
                }
                // A new client joins a cluster.
                82..=90 => {
                    let cluster = ClusterId(rng.gen_range(0..config.clusters.len() as u32));
                    let workload = WorkloadSpec { key_space: 500, ..WorkloadSpec::default() };
                    schedule.add(at, ScenarioEvent::ClientJoin { cluster, workload });
                }
                // Shift the latency model (uniform RTT well under the timeouts).
                _ => {
                    let rtt = rng.gen_range(40u64..220) as f64;
                    schedule.add(
                        at,
                        ScenarioEvent::LatencyShift { latency: LatencyModel::uniform(rtt) },
                    );
                }
            }
        }
        schedule
    }
}

/// The shared fault-injection state one case's draws spend from: distinct
/// event times, per-cluster harm counts and the set of already-faulty replicas.
/// Both the schedule draw and the byzantine draw debit it, so their combined
/// targets stay within `f` per cluster.
struct FaultBudget {
    used_ms: BTreeSet<u64>,
    harmed: Vec<usize>,
    harmed_replicas: BTreeSet<ReplicaId>,
}

/// Draw one non-honest Byzantine behavior, uniformly across the adversary
/// families (suppression permilles from a small fixed set).
fn draw_behavior(rng: &mut StdRng) -> ByzantineBehavior {
    match rng.gen_range(0u32..7) {
        0 => ByzantineBehavior::EquivocateLocal,
        1 => ByzantineBehavior::EquivocateRemote,
        2 => ByzantineBehavior::InvalidCert,
        3 => ByzantineBehavior::StaleCert,
        4 => ByzantineBehavior::SuppressShares {
            permille: [250, 500, 800][rng.gen_range(0..3usize)],
        },
        5 => ByzantineBehavior::LyingCatchUp,
        _ => ByzantineBehavior::BrdForgery,
    }
}

/// Draw an event time in `[lo_ms, hi_ms)` not used yet (up to 16 attempts).
fn fresh_time(rng: &mut StdRng, used: &mut BTreeSet<u64>, lo_ms: u64, hi_ms: u64) -> Option<u64> {
    for _ in 0..16 {
        let t = rng.gen_range(lo_ms..hi_ms);
        if used.insert(t) {
            return Some(t);
        }
    }
    None
}

/// Pick a replica that can absorb one more fault: its cluster's harm count is
/// below `f = (n-1)/3` and the replica itself is unharmed. Returns the cluster
/// index alongside the replica.
fn pick_harmable(
    rng: &mut StdRng,
    config: &SystemConfig,
    membership: &ava_types::Membership,
    harmed: &[usize],
    harmed_replicas: &BTreeSet<ReplicaId>,
) -> Option<(usize, ReplicaId)> {
    let eligible: Vec<(usize, ReplicaId)> = config
        .clusters
        .iter()
        .enumerate()
        .filter(|(ci, spec)| harmed[*ci] < membership.f(spec.id))
        .flat_map(|(ci, spec)| {
            spec.replicas
                .iter()
                .map(move |(id, _)| (ci, *id))
                .filter(|(_, id)| !harmed_replicas.contains(id))
        })
        .collect();
    if eligible.is_empty() {
        None
    } else {
        Some(eligible[rng.gen_range(0..eligible.len())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_yields_byte_identical_cases() {
        let generator = ScheduleGenerator::new(FuzzConfig::quick());
        for seed in 0..40 {
            let a = generator.case(seed);
            let b = generator.case(seed);
            assert_eq!(a.encode(), b.encode(), "seed {seed} must be deterministic");
            assert_eq!(a.fingerprint(), b.fingerprint());
        }
    }

    #[test]
    fn distinct_seeds_yield_distinct_cases() {
        let generator = ScheduleGenerator::new(FuzzConfig::quick());
        let prints: BTreeSet<String> = (0..40).map(|s| generator.case(s).fingerprint()).collect();
        assert!(prints.len() >= 39, "seeds must not collide: {} distinct", prints.len());
    }

    #[test]
    fn generated_schedules_build_and_respect_budgets() {
        let generator = ScheduleGenerator::new(FuzzConfig::quick());
        for seed in 0..200 {
            let case = generator.case(seed);
            let scenario = case
                .try_scenario()
                .unwrap_or_else(|e| panic!("seed {seed} generated an invalid schedule: {e}"));
            // Fault budget: per cluster, harmed replicas stay within f.
            let membership = case.config.membership();
            for spec in &case.config.clusters {
                let harms = case
                    .schedule
                    .iter()
                    .filter(|(_, ev)| match ev {
                        ScenarioEvent::Crash { replica }
                        | ScenarioEvent::Corrupt { replica, .. }
                        | ScenarioEvent::Leave { replica } => {
                            spec.replicas.iter().any(|(id, _)| id == replica)
                        }
                        _ => false,
                    })
                    .count();
                assert!(
                    harms <= membership.f(spec.id),
                    "seed {seed}: cluster {} takes {harms} faults with f={}",
                    spec.id,
                    membership.f(spec.id)
                );
            }
            // Every partition is healed within the event window.
            let partitions = case
                .schedule
                .iter()
                .filter(|(_, ev)| matches!(ev, ScenarioEvent::Partition { .. }))
                .count();
            let heals = case
                .schedule
                .iter()
                .filter(|(_, ev)| matches!(ev, ScenarioEvent::Heal { .. }))
                .count();
            assert_eq!(partitions, heals, "seed {seed}: unhealed partition");
            drop(scenario);
        }
    }

    #[test]
    fn event_times_are_distinct_and_inside_the_window() {
        let generator = ScheduleGenerator::new(FuzzConfig::quick());
        let cfg = FuzzConfig::quick();
        let end = Time::ZERO + cfg.run;
        let grace_start = Time(end.as_micros() - cfg.grace.as_micros());
        for seed in 0..200 {
            let case = generator.case(seed);
            let mut times = BTreeSet::new();
            for (at, _) in case.schedule.iter() {
                assert!(times.insert(*at), "seed {seed}: duplicate event time {at}");
                assert!(*at >= Time::from_secs(1), "seed {seed}: event before 1s");
                assert!(*at < grace_start, "seed {seed}: event inside the grace tail");
            }
        }
    }

    #[test]
    fn broker_draws_never_shift_the_schedule_stream() {
        // Turning the broker knob on must reproduce the exact same topology,
        // options and schedule per seed — the tier rides on top.
        let plain = ScheduleGenerator::new(FuzzConfig::quick());
        let brokered =
            ScheduleGenerator::new(FuzzConfig { broker_probability: 1.0, ..FuzzConfig::quick() });
        for seed in 0..40 {
            let a = plain.case(seed);
            let b = brokered.case(seed);
            assert!(a.brokers.is_none(), "quick profile draws no brokers");
            assert!(b.brokers.is_some(), "probability 1.0 always draws a tier");
            assert_eq!(a.clusters, b.clusters, "seed {seed}: topology shifted");
            assert_eq!(a.opts.seed, b.opts.seed, "seed {seed}: sim seed shifted");
            assert_eq!(
                format!("{:?}", a.schedule.sorted()),
                format!("{:?}", b.schedule.sorted()),
                "seed {seed}: schedule shifted"
            );
            assert_ne!(a.fingerprint(), b.fingerprint(), "tier must be part of the encoding");
        }
    }

    #[test]
    fn byzantine_draws_share_the_fault_budget_and_never_shift_the_stream() {
        // Turning the byzantine knob on must reproduce the exact same topology,
        // options and plain schedule per seed (the knob only adds `Corrupt`
        // events), reproduce byte-for-byte from the seed, and keep total faulty
        // replicas (crash/leave/corrupt targets combined) within f per cluster.
        let plain = ScheduleGenerator::new(FuzzConfig::quick());
        let byz = ScheduleGenerator::new(FuzzConfig {
            byzantine_probability: 1.0,
            ..FuzzConfig::quick()
        });
        let mut corrupts_drawn = 0usize;
        for seed in 0..60 {
            let a = plain.case(seed);
            let b = byz.case(seed);
            assert_eq!(a.clusters, b.clusters, "seed {seed}: topology shifted");
            assert_eq!(a.opts.seed, b.opts.seed, "seed {seed}: sim seed shifted");
            let plain_events: Vec<String> =
                a.schedule.sorted().iter().map(|e| format!("{e:?}")).collect();
            let drawn: Vec<_> = b
                .schedule
                .sorted()
                .into_iter()
                .filter(|e| !plain_events.contains(&format!("{e:?}")))
                .collect();
            assert_eq!(
                b.schedule.len(),
                a.schedule.len() + drawn.len(),
                "seed {seed}: the plain schedule shifted"
            );
            assert!(
                drawn.iter().all(|(_, ev)| matches!(ev, ScenarioEvent::Corrupt { .. })),
                "seed {seed}: the knob drew a non-corrupt event"
            );
            corrupts_drawn += drawn.len();
            assert_eq!(b.encode(), byz.case(seed).encode(), "seed {seed}: not reproducible");
            b.try_scenario().unwrap_or_else(|e| panic!("seed {seed}: invalid scenario: {e}"));
            let membership = b.config.membership();
            for spec in &b.config.clusters {
                let faulty: BTreeSet<ReplicaId> = b
                    .schedule
                    .iter()
                    .filter_map(|(_, ev)| match ev {
                        ScenarioEvent::Crash { replica }
                        | ScenarioEvent::Leave { replica }
                        | ScenarioEvent::Corrupt { replica, .. }
                            if spec.replicas.iter().any(|(id, _)| id == replica) =>
                        {
                            Some(*replica)
                        }
                        _ => None,
                    })
                    .collect();
                assert!(
                    faulty.len() <= membership.f(spec.id),
                    "seed {seed}: cluster {} has {} faulty replicas with f={}",
                    spec.id,
                    faulty.len(),
                    membership.f(spec.id)
                );
            }
        }
        assert!(corrupts_drawn > 0, "probability 1.0 must actually draw corrupt events");
    }

    #[test]
    fn drawn_broker_tiers_are_well_formed_and_retry_free() {
        let generator =
            ScheduleGenerator::new(FuzzConfig { broker_probability: 1.0, ..FuzzConfig::quick() });
        for seed in 0..40 {
            let case = generator.case(seed);
            let tier = case.brokers.as_ref().expect("tier drawn");
            assert!(tier.load.issue_for < case.run, "seed {seed}: issue window too long");
            assert!(
                tier.retry_timeout.as_micros() > case.run.as_micros(),
                "seed {seed}: fuzz tiers must disable batch retries"
            );
            case.try_scenario().unwrap_or_else(|e| panic!("seed {seed}: invalid scenario: {e}"));
            let snippet = case.builder_snippet();
            assert!(snippet.contains(".brokers(BrokerTier {"), "snippet misses the tier");
        }
    }

    #[test]
    fn snippet_restates_the_case() {
        let generator = ScheduleGenerator::new(FuzzConfig::quick());
        // Find a seed with at least one event so the snippet has schedule lines.
        let case = (0..100)
            .map(|s| generator.case(s))
            .find(|c| !c.schedule.is_empty())
            .expect("some seed draws events");
        let snippet = case.builder_snippet();
        assert!(snippet.contains("SystemConfig::homogeneous_regions"));
        assert!(snippet.contains(&format!("seed: {},", case.opts.seed)));
        assert!(snippet.contains(".build();"));
        for (_, event) in case.schedule.iter() {
            // Every scheduled event appears in the snippet in some form.
            let needle = match event {
                ScenarioEvent::Crash { .. } => ".crash_at(",
                ScenarioEvent::Restart { .. } => ".restart_at(",
                ScenarioEvent::Join { .. } => ".join_at(",
                ScenarioEvent::Leave { .. } => ".leave_at(",
                ScenarioEvent::ClientJoin { .. } => "ClientJoin",
                ScenarioEvent::WorkloadSwitch { .. } => "WorkloadSwitch",
                ScenarioEvent::Partition { .. } => ".partition_at(",
                ScenarioEvent::Heal { .. } => ".heal_at(",
                ScenarioEvent::LatencyShift { .. } => ".latency_shift_at(",
                ScenarioEvent::Corrupt { .. } => ".corrupt_at(",
            };
            assert!(snippet.contains(needle), "snippet misses {event:?}");
        }
    }

    /// `encode` covers every protocol parameter; a reproducer that left one at
    /// its default would replay another run.
    #[test]
    fn snippet_restates_every_protocol_parameter() {
        let mut case = ScheduleGenerator::new(FuzzConfig::quick()).case(0);
        let defaults = ava_types::ProtocolParams::default();
        case.config.params = ava_types::ProtocolParams {
            batch_size: 7,
            alpha_percent: 33,
            remote_leader_timeout: Duration(1_000_001),
            brd_timeout: Duration(1_000_002),
            local_timeout: Duration(1_000_003),
            leader_change_grace: Duration(1_000_004),
            parallel_reconfig_workflow: false,
        };
        let p = &case.config.params;
        assert_ne!(p.batch_size, defaults.batch_size);
        assert_ne!(p.alpha_percent, defaults.alpha_percent);
        assert_ne!(p.remote_leader_timeout, defaults.remote_leader_timeout);
        assert_ne!(p.brd_timeout, defaults.brd_timeout);
        assert_ne!(p.local_timeout, defaults.local_timeout);
        assert_ne!(p.leader_change_grace, defaults.leader_change_grace);
        assert_ne!(p.parallel_reconfig_workflow, defaults.parallel_reconfig_workflow);
        let snippet = case.builder_snippet();
        for line in [
            "config.params.batch_size = 7;",
            "config.params.alpha_percent = 33;",
            "config.params.remote_leader_timeout = Duration::from_micros(1000001);",
            "config.params.brd_timeout = Duration::from_micros(1000002);",
            "config.params.local_timeout = Duration::from_micros(1000003);",
            "config.params.leader_change_grace = Duration::from_micros(1000004);",
            "config.params.parallel_reconfig_workflow = false;",
        ] {
            assert!(snippet.contains(line), "snippet misses `{line}`:\n{snippet}");
        }
    }

    /// The same for every deployment option `encode` covers: the shrunk
    /// reproducers of quick seeds 174 and 260 once replayed with the default
    /// 128 outstanding requests per client instead of the case's 32, and passed.
    #[test]
    fn snippet_restates_every_encoded_deployment_option() {
        let mut case = ScheduleGenerator::new(FuzzConfig::quick()).case(0);
        let defaults = ava_hamava::harness::DeploymentOptions::default();
        let mut latency = LatencyModel::paper_table2();
        latency.set_rtt(Region::Europe, Region::AsiaNortheast, 77.5);
        case.opts = ava_hamava::harness::DeploymentOptions {
            seed: 9_001,
            clients_per_cluster: 3,
            client_concurrency: 17,
            store: Some(StoreConfig::every(6)),
            workload: WorkloadSpec {
                read_ratio: 0.25,
                key_space: 321,
                zipf_theta: 0.5,
                payload_size: 64,
                ..WorkloadSpec::default()
            },
            latency,
            ..defaults.clone()
        };
        let o = &case.opts;
        assert_ne!(o.seed, defaults.seed);
        assert_ne!(o.clients_per_cluster, defaults.clients_per_cluster);
        assert_ne!(o.client_concurrency, defaults.client_concurrency);
        assert_ne!(o.store, defaults.store);
        assert_ne!(workload_expr(&o.workload), workload_expr(&defaults.workload));
        let rtt = |l: &LatencyModel| l.rtt_ms(Region::Europe, Region::AsiaNortheast);
        assert_ne!(rtt(&o.latency), rtt(&defaults.latency));
        let snippet = case.builder_snippet();
        for field in [
            "seed: 9001,".to_string(),
            "clients_per_cluster: 3,".to_string(),
            "client_concurrency: 17,".to_string(),
            "store: Some(StoreConfig::every(6)),".to_string(),
            format!("workload: {},", workload_expr(&o.workload)),
            "l.set_rtt(Region::Europe, Region::AsiaNortheast, 77.5);".to_string(),
            "..DeploymentOptions::default() })".to_string(),
        ] {
            assert!(snippet.contains(&field), "snippet misses `{field}`:\n{snippet}");
        }
        // The default latency model is left to the default.
        let plain = ScheduleGenerator::new(FuzzConfig::quick()).case(0).builder_snippet();
        assert!(!plain.contains("latency: "), "{plain}");
    }
}

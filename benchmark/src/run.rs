//! The run shape shared by all workloads: set-up (deploy + warm-up), the
//! measured window, the drain — driven through `Scenario::run_observed`, the
//! API users call, with the host clock stamped at every tick of virtual time.

use crate::trace::Trace;
use crate::workloads::Plan;
use ava_scenario::{DynDeployment, RunObserver, ScenarioEvent};
use ava_simnet::NetStats;
use ava_types::{Duration, Output, ReplicaId, Time};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::time::Instant;

/// Process CPU time (user + system) in seconds, from `/proc/self/stat`.
/// The benchmark runs the program on one thread, so this is the program's CPU
/// time plus the benchmark's own (reported apart as `scenario.*`).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields 14 (utime) and 15 (stime), counted after the `(comm)` field,
    // which may itself contain spaces.
    let Some((_, rest)) = stat.rsplit_once(')') else { return 0.0 };
    let mut fields = rest.split_ascii_whitespace();
    let utime: f64 = fields.nth(11).and_then(|v| v.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
    // USER_HZ is 100 on every Linux configuration Rust supports.
    (utime + stime) / 100.0
}

/// Peak resident set size of this process in MB (Linux `VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fixed unit of work that only the benchmark and the standard library take
/// part in — no program code, so nothing a later change to the program can
/// speed up. It is what a discrete-event simulation does all day (a priority
/// queue cycled, a hash map probed, a small buffer allocated and summed), and
/// the host clock is read against it: see `HostTimes`.
pub struct Reference {
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    map: HashMap<u64, u64>,
    x: u64,
}

impl Reference {
    /// Steps per unit: a little under half a millisecond on the sandbox the
    /// benchmark was calibrated on, 2-3 % of the slice it brackets.
    const STEPS: u32 = 2_000;

    pub fn new() -> Reference {
        let mut reference =
            Reference { heap: BinaryHeap::new(), map: HashMap::new(), x: 0x9E37_79B9_7F4A_7C15 };
        for i in 0..4_096u32 {
            let key = reference.next();
            reference.heap.push(Reverse((key, i)));
            reference.map.insert(key % 8_192, key);
        }
        reference.unit(); // untimed: the first timed unit finds warm caches
        reference
    }

    fn next(&mut self) -> u64 {
        // xorshift64
        self.x ^= self.x << 13;
        self.x ^= self.x >> 7;
        self.x ^= self.x << 17;
        self.x
    }

    /// Do one unit of work and return the seconds it took.
    pub fn unit(&mut self) -> f64 {
        let began = Instant::now();
        let mut sum = 0u64;
        for i in 0..Self::STEPS {
            let Reverse((key, _)) = self.heap.pop().expect("heap stays full");
            let fresh = key.wrapping_add(self.next() % 1_000_000);
            self.heap.push(Reverse((fresh, i)));
            let slot = self.map.entry(fresh % 8_192).or_insert(0);
            *slot = slot.wrapping_add(fresh);
            let buffer = vec![fresh as u8; 256];
            sum = sum.wrapping_add(buffer.iter().map(|b| *b as u64).sum::<u64>());
        }
        std::hint::black_box(sum);
        began.elapsed().as_secs_f64()
    }
}

/// One host-clock reading taken at a tick: when the tick fired, how long a
/// unit of reference work took right then, and when the run went on.
#[derive(Clone, Copy)]
struct Stamp {
    virt: Time,
    arrived: Instant,
    reference_s: f64,
    left: Instant,
}

/// The benchmark-side observer: at every tick it stamps the wall-clock and
/// times one unit of reference work; it reads process CPU and `NetStats` at the
/// window edges and, when tracing, records one span per tick and one instant
/// per applied schedule event.
/// It deliberately does not implement `on_output`: outputs are folded after
/// the run, outside every timed interval.
struct HostClock<'a> {
    window: (Time, Time),
    begun: Instant,
    reference: Reference,
    stamps: Vec<Stamp>,
    /// Process CPU seconds and `NetStats` at the window's start and end.
    at_start: Option<(f64, NetStats)>,
    at_end: Option<(f64, NetStats)>,
    max_lag: Duration,
    trace: Option<&'a mut Trace>,
}

impl HostClock<'_> {
    fn stamp(&mut self, virt: Time, arrived: Instant) -> Stamp {
        let reference_s = self.reference.unit();
        Stamp { virt, arrived, reference_s, left: Instant::now() }
    }
}

impl RunObserver for HostClock<'_> {
    fn on_start(&mut self, _dep: &dyn DynDeployment) {
        let now = Instant::now();
        if let Some(trace) = self.trace.as_deref_mut() {
            trace.span("setup.deploy", self.begun, now);
        }
        let stamp = self.stamp(Time::ZERO, now);
        self.stamps.push(stamp);
    }

    fn on_tick(&mut self, now: Time, dep: &dyn DynDeployment) {
        let arrived = Instant::now();
        self.max_lag = self.max_lag.max(dep.now().since(now));
        // CPU is read on the window's side of this tick's reference work.
        if now == self.window.1 {
            self.at_end = Some((process_cpu_s(), dep.net_stats().clone()));
        }
        if let Some(trace) = self.trace.as_deref_mut() {
            let prev = self.stamps.last().expect("on_start stamped first");
            let name = if now <= self.window.0 {
                "setup.warmup"
            } else if now <= self.window.1 {
                "measure.slice"
            } else {
                "drain"
            };
            trace.span(name, prev.left, arrived);
        }
        let stamp = self.stamp(now, arrived);
        if now == self.window.0 {
            self.at_start = Some((process_cpu_s(), dep.net_stats().clone()));
        }
        self.stamps.push(stamp);
    }

    fn on_event(&mut self, _at: Time, event: &ScenarioEvent) {
        if let Some(trace) = self.trace.as_deref_mut() {
            trace.instant(&format!("fault.{}", event.kind()), Instant::now());
        }
    }
}

/// What a unit of reference work takes on a quiet calibration sandbox
/// (README "calibration record"). Host times are reported as if every unit
/// took this long.
pub const REFERENCE_NOMINAL_S: f64 = 450e-6;

/// Host-clock results of one pass.
///
/// The sandbox this runs in is a few cores of a shared host: it slows down by
/// 20-60 % for seconds at a time and drifts by 30 % over minutes, which raw
/// wall-clock cannot tell from a regression. So the host clock is read
/// against the `Reference` unit: every tick-slice is bracketed by two timings
/// of the same fixed work, and its wall-clock is scaled by how much slower
/// than `REFERENCE_NOMINAL_S` that work ran just then. Twelve runs of one
/// workload during which the unit drifted between 428 and 562 us spread (quartile
/// distance / median) by 20 % pass for pass raw and by 2.7 % scaled.
#[derive(Clone, Debug, Default)]
pub struct HostTimes {
    /// Wall-clock of the set-up's parts: the deployment, then each warm-up tick.
    pub setup_slices_s: Vec<f64>,
    /// What a unit of reference work took around each of those parts.
    pub setup_reference_s: Vec<f64>,
    /// Wall-clock per tick of the measured window.
    pub slices_s: Vec<f64>,
    /// What a unit of reference work took around each of those slices.
    pub slice_reference_s: Vec<f64>,
    /// Process CPU of the measured window, as read (reference work taken out).
    pub window_cpu_s: f64,
    /// Largest distance between a tick's scheduled virtual time and the
    /// deployment clock when it fired (0 by construction).
    pub generator_lag_ms: f64,
}

/// `slices` as they would have read had every reference unit around them taken
/// `REFERENCE_NOMINAL_S`.
fn at_reference_speed<'a>(
    slices: &'a [f64],
    reference: &'a [f64],
) -> impl Iterator<Item = f64> + 'a {
    slices.iter().zip(reference).map(|(slice, unit)| slice * REFERENCE_NOMINAL_S / unit)
}

impl HostTimes {
    /// Set-up (deploy + warm-up) seconds at the reference speed.
    pub fn setup_s(&self) -> f64 {
        at_reference_speed(&self.setup_slices_s, &self.setup_reference_s).sum()
    }

    /// Deployment seconds at the reference speed (the set-up's first part).
    pub fn deploy_s(&self) -> f64 {
        at_reference_speed(&self.setup_slices_s, &self.setup_reference_s).next().unwrap_or(0.0)
    }

    /// The measured window's slices at the reference speed.
    pub fn window_slices_s(&self) -> impl Iterator<Item = f64> + '_ {
        at_reference_speed(&self.slices_s, &self.slice_reference_s)
    }

    /// Wall-clock seconds of the measured window at the reference speed.
    pub fn window_wall_s(&self) -> f64 {
        self.window_slices_s().sum()
    }

    /// Process-CPU seconds of the measured window at the reference speed: the
    /// scaled wall-clock times the share of raw wall-clock spent on a CPU
    /// (per-slice CPU readings are too coarse to scale one by one).
    pub fn window_cpu_s(&self) -> f64 {
        self.window_wall_s() * self.window_cpu_s / self.slices_s.iter().sum::<f64>()
    }
}

/// Everything one measured pass produced.
pub struct RunData {
    pub plan: Plan,
    /// Every output of the run (set-up, window and drain), in emission order.
    pub outputs: Vec<Output>,
    /// Network counters at the end of the run.
    pub stats: NetStats,
    /// Network counters at the start and the end of the measured window.
    pub window_stats: (NetStats, NetStats),
    /// Replicas created by `Join` events, in application order.
    pub joined: Vec<ReplicaId>,
    pub host: HostTimes,
    /// `VmHWM` read as the run returned, before anything is folded.
    pub peak_rss_mb: f64,
}

/// Run `plan` once, through all three phases. `begun` is when this pass's
/// set-up started (process start for a process's first).
pub fn measure(plan: Plan, begun: Instant, trace: Option<&mut Trace>) -> RunData {
    let phases = plan.phases;
    let mut clock = HostClock {
        window: (phases.window_start(), phases.window_end()),
        begun,
        reference: Reference::new(),
        stamps: Vec::new(),
        at_start: None,
        at_end: None,
        max_lag: Duration::ZERO,
        trace,
    };
    let scenario = plan.scenario(Duration(phases.end().as_micros()));
    let run = scenario.run_observed(&mut [&mut clock]);
    let peak_rss_mb = peak_rss_mb();

    let (w0, w1) = (phases.window_start(), phases.window_end());
    let (cpu0, stats0) = clock.at_start.expect("tick at window start");
    let (cpu1, stats1) = clock.at_end.expect("tick at window end");
    // A slice runs from one stamp's `left` to the next one's `arrived`; the
    // reference work at its two ends brackets it.
    let slices_between = |from: Time, to: Time| -> (Vec<f64>, Vec<f64>) {
        clock
            .stamps
            .windows(2)
            .filter(|pair| pair[0].virt >= from && pair[1].virt <= to)
            .map(|pair| {
                let slice = pair[1].arrived.duration_since(pair[0].left).as_secs_f64();
                (slice, (pair[0].reference_s + pair[1].reference_s) / 2.0)
            })
            .unzip()
    };
    let first = clock.stamps.first().expect("runner calls on_start");
    let deploy_s = first.arrived.duration_since(begun).as_secs_f64();
    let (warmup_slices_s, warmup_reference_s) = slices_between(Time::ZERO, w0);
    let (slices_s, slice_reference_s) = slices_between(w0, w1);
    // Reference work done at ticks strictly inside the window ran on the
    // window's CPU reading; take it out again.
    let reference_cpu_s: f64 =
        clock.stamps.iter().filter(|s| s.virt > w0 && s.virt < w1).map(|s| s.reference_s).sum();
    let mut setup_slices_s = vec![deploy_s];
    setup_slices_s.extend(&warmup_slices_s);
    let mut setup_reference_s = vec![first.reference_s];
    setup_reference_s.extend(&warmup_reference_s);
    let host = HostTimes {
        setup_slices_s,
        setup_reference_s,
        slices_s,
        slice_reference_s,
        window_cpu_s: cpu1 - cpu0 - reference_cpu_s,
        generator_lag_ms: clock.max_lag.as_millis_f64(),
    };
    RunData {
        plan,
        outputs: run.outputs,
        stats: run.stats,
        window_stats: (stats0, stats1),
        joined: run.joined,
        host,
        peak_rss_mb,
    }
}

/// How much slower the window ran with spans recorded: the median over the
/// window's slices of traced / untraced wall-clock at the reference speed,
/// minus one. Both passes do identical work slice by slice, and the median
/// shrugs off the slices during which the host was disturbed in either pass.
pub fn trace_overhead_share(untraced: &HostTimes, traced: &HostTimes) -> f64 {
    let ratios = untraced.window_slices_s().zip(traced.window_slices_s()).map(|(u, t)| t / u);
    crate::metrics::median(ratios.collect()) - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_times_are_read_against_the_reference_unit() {
        let nominal = REFERENCE_NOMINAL_S;
        // The host ran at the nominal speed for the first slice, at half of it
        // for the second (the same work took twice as long, and so did the unit).
        let host = HostTimes {
            setup_slices_s: vec![0.5, 0.25],
            setup_reference_s: vec![nominal, nominal * 2.5],
            slices_s: vec![1.0, 2.0],
            slice_reference_s: vec![nominal, nominal * 2.0],
            window_cpu_s: 2.7,
            generator_lag_ms: 0.0,
        };
        assert!((host.window_wall_s() - 2.0).abs() < 1e-12);
        // 90 % of the raw 3 s were spent on a CPU.
        assert!((host.window_cpu_s() - 1.8).abs() < 1e-12);
        assert!((host.setup_s() - 0.6).abs() < 1e-12);
        assert!((host.deploy_s() - 0.5).abs() < 1e-12);
        // A traced pass whose every slice took 10 % longer at the same speed.
        let traced = HostTimes { slices_s: vec![1.1, 2.2], ..host.clone() };
        assert!((trace_overhead_share(&host, &traced) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn the_reference_unit_is_fixed_work() {
        // Two fresh references do the same steps and end in the same state.
        let (mut a, mut b) = (Reference::new(), Reference::new());
        assert!(a.unit() > 0.0 && b.unit() > 0.0);
        assert_eq!(a.x, b.x);
        assert_eq!(a.heap.len(), 4_096);
        assert_eq!(a.heap.peek(), b.heap.peek());
    }
}

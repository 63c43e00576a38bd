//! The repo benchmark: four long workloads, end-to-end metrics on two clocks,
//! and a per-layer ledger taken from outside the program. See `README.md`.
//!
//! ```text
//! benchmark --workload NAME --seed S --seconds N --trace 0|1   one workload, one process
//!           [--replicates R]                                  fewer replicates, for seed sweeps
//! benchmark [--seed S] [--seconds N] [--expect-fingerprints F] all four, a fresh child each
//! benchmark --selfcheck | --manifest
//! ```

mod check;
mod layers;
mod metrics;
mod probes;
mod run;
mod trace;
mod workloads;

use layers::{LedgerEstimate, PER_LAYER};
use metrics::{MetricDef, Values, END_TO_END};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use trace::Trace;
use workloads::{replicate_seed, Perturb, Phases, Plan, Workload, MAX_REPLICATES};

/// The seed used when none is given.
const DEFAULT_SEED: u64 = 20250613;
/// Host seconds one run measures for, all replicates together (`run_seconds`
/// in `BENCHMARK.json`; `--seconds` overrides it).
const RUN_SECONDS: u64 = 24;
/// Replicates per untraced run, each a full pass on a seed of its own, sized
/// for `--seconds / REPLICATES` of host time and with its own set-up.
const REPLICATES: usize = 4;

/// What one run of one workload produced.
struct Report {
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    values: Values,
    attempted: u64,
    failed: u64,
    /// `ava_fuzz::fingerprint_outputs` of the run (of every replicate, joined
    /// by `+`): equal fingerprints mean the two runs' virtual statistics are
    /// identical.
    fingerprint: String,
}

/// Fold and check one full pass. Untimed; fails when an output check fails.
fn fold_and_check(data: &run::RunData) -> Result<(metrics::WindowOps, check::CheckReport), String> {
    let window = metrics::window_ops(&data.plan, &data.outputs)?;
    let report = check::check(data, &window);
    if report.failures.is_empty() {
        Ok((window, report))
    } else {
        Err(report.failures.join("\n"))
    }
}

/// Run `workload` untraced and return its end-to-end metrics, after checking
/// its outputs: `replicates` full passes, each on a seed of its own and each
/// folded and checked, reported pooled. `begun` is when the first set-up
/// started (process start).
fn run_end_to_end(
    workload: Workload,
    seed: u64,
    phases: Phases,
    perturb: Perturb,
    replicates: usize,
    begun: Instant,
) -> Result<Report, String> {
    let mut first_plan = None;
    let mut windows = Vec::new();
    let mut fingerprints = Vec::new();
    let mut hosts = Vec::new();
    let mut peak_rss_mb = 0.0;
    for replicate in 0..replicates {
        let begun = if replicate == 0 { begun } else { Instant::now() };
        let plan = Plan::new(workload, replicate_seed(seed, replicate), phases, perturb);
        let data = run::measure(plan, begun, None);
        if replicate == 0 {
            // Read as the first replicate returned: later readings would
            // include what the benchmark itself allocated to fold and check.
            peak_rss_mb = data.peak_rss_mb;
        }
        windows.push(fold_and_check(&data)?.0);
        fingerprints.push(ava_fuzz::fingerprint_outputs(&data.outputs, &data.stats));
        hosts.push(data.host);
        first_plan.get_or_insert(data.plan);
        // `data.outputs` is dropped here: the next replicate runs in the memory
        // a user's single run would have, not on top of this one's buffers.
    }
    let plan = first_plan.ok_or("at least one replicate")?;
    let per_op = |seconds: fn(&run::HostTimes) -> f64| {
        let each = hosts.iter().zip(&windows);
        metrics::median(
            each.map(|(h, w)| seconds(h) * 1e6 / w.completed_in_window as f64).collect(),
        )
    };
    let host = metrics::HostCost {
        wall_us_per_op: per_op(run::HostTimes::window_wall_s),
        cpu_us_per_op: per_op(run::HostTimes::window_cpu_s),
        setup_s: metrics::median(hosts.iter().map(run::HostTimes::setup_s).collect()),
        peak_rss_mb,
    };
    eprintln!(
        "{}: window seconds per replicate as read {:.2?}, at the reference speed {:.2?}",
        workload.name(),
        hosts.iter().map(|h| h.slices_s.iter().sum::<f64>()).collect::<Vec<_>>(),
        hosts.iter().map(run::HostTimes::window_wall_s).collect::<Vec<_>>(),
    );
    let stats = metrics::op_stats(windows.iter().flat_map(|w| &w.ops));
    let values = metrics::end_to_end(&plan, &windows, &stats, host)?;
    Ok(Report {
        values,
        attempted: stats.attempted,
        failed: stats.attempted - stats.completed,
        fingerprint: fingerprints.join("+"),
    })
}

/// Run the first replicate of `workload` twice — untraced for reference, then
/// with spans recorded — and return its per-layer metrics: counts folded from
/// the traced pass's outputs, the probes, the ledger and the tracing overhead.
/// The trace is written next to the executable.
fn run_per_layer(
    workload: Workload,
    seed: u64,
    phases: Phases,
    begun: Instant,
) -> Result<Report, String> {
    let perturb = Perturb::default();
    let seed = replicate_seed(seed, 0);
    let untraced = run::measure(Plan::new(workload, seed, phases, perturb), begun, None).host;

    let mut trace = Trace::new(begun);
    let begun = Instant::now();
    let plan = Plan::new(workload, seed, phases, perturb);
    let data = run::measure(plan, begun, Some(&mut trace));
    // The window's CPU time as the untraced pass read it: what the counts and
    // the ledger are set against.
    let window_cpu_s = untraced.window_cpu_s();
    let ((window, report), (mut values, counts)) = trace.timed("fold.outputs", || {
        let checked = fold_and_check(&data)?;
        let folded = layers::fold(&data, &checked.0, window_cpu_s);
        Ok::<_, String>((checked, folded))
    })?;
    values.push(("fuzz.check_replay_s", report.replay_s));
    values.push(("fuzz.checker_violations", report.checker_violations as f64));
    let fingerprint = ava_fuzz::fingerprint_outputs(&data.outputs, &data.stats);

    let probed = probes::run_all(&mut trace, &data);
    let ns = |name: &str| probed.iter().find(|(n, _)| *n == name).expect("probe ran").1;
    let plan = &data.plan;
    let replicas = plan.config.total_replicas() as f64;
    let decision_ns = match plan.protocol {
        ava_scenario::Protocol::AvaHotStuff => ns("hotstuff.decision_ns"),
        _ => ns("bftsmart.decision_ns"),
    };
    // Every ordered write is applied by every replica of every cluster; reads
    // are served once, by the replica the client asked.
    let kv = plan.opts.state_machine == ava_state::StateMachineKind::Kv;
    let apply_ns = if kv { ns("state.apply_write_ns") } else { ns("state.apply_counter_ns") };
    let mix = plan.window_mix();
    let (scan_share, scan_span) = (mix.scan_fraction, mix.scan_count as f64);
    let (reads, writes) = (counts.reads as f64, counts.writes as f64);
    let stored = if plan.opts.store.is_some() { 1.0 } else { 0.0 };
    let estimate = LedgerEstimate {
        simnet: ns("simnet.noop_event_ns") * counts.events as f64,
        // Outside the TOB: each round package's certificate is checked cold by
        // its first verifier and from the memo by every other replica.
        crypto: counts.packages as f64
            * (ns("crypto.qc_valid_cold_ns") + (replicas - 1.0) * ns("crypto.qc_valid_memo_ns")),
        // At least one local decision per certified round package, more when
        // the window's writes need more full batches than that.
        tob: decision_ns
            * (counts.packages as f64).max(writes / plan.config.params.batch_size as f64),
        state: writes * replicas * apply_ns
            + reads * (1.0 - scan_share) * ns("state.read_len_ns")
            + reads * scan_share * scan_span * ns("state.scan_ns_per_key"),
        // Every replica appends every round and builds (snapshots, hashes)
        // every checkpoint it installs.
        store: stored
            * (counts.rounds as f64 * replicas * ns("store.append_round_ns")
                + counts.checkpoints_installed as f64 * ns("store.checkpoint_build_ns")
                + counts.checkpoints_adopted as f64 * ns("store.checkpoint_verify_ns")),
        workload: counts.issued as f64 * ns("workload.gen_ns_per_tx"),
    };
    values.extend(probed);
    values.extend(layers::ledger_shares(estimate, window_cpu_s * 1e9));
    values.push(("trace.spans", trace.len() as f64));
    values.push(("trace_overhead_share", run::trace_overhead_share(&untraced, &data.host)));

    let dir = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|p| p.join("traces")))
        .ok_or("cannot locate the executable's directory")?;
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}.trace.json", workload.name()));
    std::fs::write(&path, trace.to_chrome_json(workload.name()))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("trace ({} spans) written to {}", trace.len(), path.display());

    let stats = metrics::op_stats(&window.ops);
    Ok(Report {
        values,
        attempted: stats.attempted,
        failed: stats.attempted - stats.completed,
        fingerprint,
    })
}

/// Values in registry order, every registered metric present exactly once.
fn in_registry_order(defs: &[MetricDef], values: &Values) -> Result<Vec<(MetricDef, f64)>, String> {
    if values.len() != defs.len() {
        return Err(format!("{} values for {} registered metrics", values.len(), defs.len()));
    }
    defs.iter()
        .map(|def| {
            let value = values.iter().find(|(name, _)| *name == def.name).map(|(_, v)| *v);
            match value {
                Some(v) if v.is_finite() => Ok((*def, v)),
                other => Err(format!("metric {} is {other:?}", def.name)),
            }
        })
        .collect()
}

/// The result line the driver reads: one JSON object, last on standard output.
fn result_json(report: &Report, rows: &[(MetricDef, f64)]) -> String {
    let mut out = format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.attempted, report.failed
    );
    for (i, (def, value)) in rows.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            def.name, def.unit
        );
    }
    out.push_str("}}");
    out
}

fn print_table(workload: Workload, phases: Phases, seed: u64, rows: &[(MetricDef, f64)]) {
    println!(
        "## {} (seed {seed}, virtual window {} s after {} s warm-up, {} s drain)",
        workload.name(),
        phases.window.as_secs_f64(),
        phases.warmup.as_secs_f64(),
        phases.drain.as_secs_f64()
    );
    for (def, value) in rows {
        let better = if def.higher_is_better { "higher is better" } else { "lower is better" };
        let bound = def.bound.map_or(String::new(), |b| format!(", bound {}%", b * 100.0));
        println!(
            "{:<34} {:>16.4} {:<6} [{} clock, {better}{bound}]",
            def.name,
            value,
            def.unit,
            def.clock.label()
        );
    }
}

/// `BENCHMARK.json`, generated from the registries so names cannot drift.
fn manifest() -> String {
    let mut out = String::from("{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in Workload::ALL.iter().enumerate() {
        let sep = if i + 1 < Workload::ALL.len() { "," } else { "" };
        let _ = writeln!(out, "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}", w.name(), w.why());
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    let better = |d: &MetricDef| if d.higher_is_better { "higher" } else { "lower" };
    for (i, d) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            d.name,
            d.unit,
            better(d),
            d.bound.expect("end-to-end metrics carry a bound")
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, d) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            d.name,
            d.unit,
            better(d)
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Parsed command line.
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    /// `None`: both passes (all-workloads mode only).
    trace: Option<bool>,
    smoke: bool,
    /// Replicates of an untraced run: `REPLICATES`, or fewer for a quick look
    /// or a sweep over many seeds (not for claims).
    replicates: usize,
    selfcheck: bool,
    manifest: bool,
    expect_fingerprints: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: None,
        smoke: false,
        replicates: REPLICATES,
        selfcheck: false,
        manifest: false,
        expect_fingerprints: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--expect-fingerprints" => args.expect_fingerprints = Some(value()?),
            "--smoke" => args.smoke = true,
            "--replicates" => {
                args.replicates = value()?.parse().map_err(|e| format!("--replicates: {e}"))?;
                if !(1..=MAX_REPLICATES).contains(&args.replicates) {
                    return Err(format!("--replicates must be between 1 and {MAX_REPLICATES}"));
                }
            }
            "--selfcheck" => args.selfcheck = true,
            "--manifest" => args.manifest = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// A `fingerprint` line: workload, seed, virtual window and the digest.
fn fingerprint_line(workload: Workload, seed: u64, phases: Phases, fingerprint: &str) -> String {
    format!(
        "fingerprint {} seed={seed} window_s={} {fingerprint}",
        workload.name(),
        phases.window.as_secs_f64()
    )
}

/// Check `line` against a file of earlier `fingerprint` lines: the line for the
/// same workload, seed and window must carry the same digest.
fn check_fingerprint(file: &str, line: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
    let key = line.rsplit_once(' ').expect("fingerprint line has a digest").0;
    match text.lines().find(|l| l.starts_with(key)) {
        Some(expected) if expected.trim_end() == line => Ok(()),
        Some(expected) => {
            Err(format!("virtual statistics changed:\n  expected {expected}\n  got      {line}"))
        }
        None => Err(format!("{file} holds no line starting with {key:?}")),
    }
}

fn phases_for(workload: Workload, args: &Args) -> Phases {
    if args.smoke {
        workload.smoke_phases()
    } else {
        workload.phases(args.seconds as f64 / REPLICATES as f64)
    }
}

/// One workload in this process (what the driver runs, and what the
/// all-workloads mode runs as a child).
fn run_one(workload: Workload, args: &Args, begun: Instant) -> Result<(), String> {
    let phases = phases_for(workload, args);
    let traced = args.trace.unwrap_or(false);
    let (defs, report): (&[MetricDef], Report) = if traced {
        (PER_LAYER, run_per_layer(workload, args.seed, phases, begun)?)
    } else {
        let perturb = Perturb::default();
        (&END_TO_END, run_end_to_end(workload, args.seed, phases, perturb, args.replicates, begun)?)
    };
    let rows = in_registry_order(defs, &report.values)?;
    let line = fingerprint_line(workload, args.seed, phases, &report.fingerprint);
    if let Some(file) = &args.expect_fingerprints {
        check_fingerprint(file, &line)?;
    }
    print_table(workload, phases, args.seed, &rows);
    println!("{line}");
    println!("{}", result_json(&report, &rows));
    Ok(())
}

/// All four workloads, sequentially, each metric set in a fresh single-threaded
/// child process (so `peak_rss_mb` and `setup_s` are one workload's own).
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let modes: &[bool] = match args.trace {
        Some(traced) => &[traced][..],
        None => &[false, true],
    };
    let mut failed = Vec::new();
    for workload in Workload::ALL {
        for traced in modes {
            let mut child = std::process::Command::new(&exe);
            child
                .args(["--workload", workload.name()])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if *traced { "1" } else { "0" }]);
            if args.smoke {
                child.arg("--smoke");
            }
            child.args(["--replicates", &args.replicates.to_string()]);
            if let Some(file) = &args.expect_fingerprints {
                child.args(["--expect-fingerprints", file]);
            }
            let status = child.status().map_err(|e| format!("{}: {e}", exe.display()))?;
            if !status.success() {
                failed.push(format!("{} (--trace {})", workload.name(), u8::from(*traced)));
            }
        }
    }
    if failed.is_empty() {
        Ok(())
    } else {
        Err(format!("failed: {}", failed.join(", ")))
    }
}

/// Perturb only inputs the benchmark owns and fail unless the numbers move as
/// predicted: evidence that the benchmark measures the program and not itself.
fn selfcheck() -> Result<(), String> {
    let seed = DEFAULT_SEED;
    let metric = |report: &Report, name: &str| {
        report.values.iter().find(|(n, _)| *n == name).expect("end-to-end metric").1
    };
    let run = |workload: Workload, perturb: Perturb| {
        let phases = workload.phases(RUN_SECONDS as f64 / REPLICATES as f64);
        run_end_to_end(workload, seed, phases, perturb, 2, Instant::now())
    };
    let bound = |name: &str| {
        END_TO_END.iter().find(|d| d.name == name).and_then(|d| d.bound).expect("bounded metric")
    };
    let base = Perturb::default();
    let slow_sigs = Perturb { sig_verify_x: 2, ..base };
    let big_values = Perturb { value_size: Some(4096), ..base };
    let mut failures = Vec::new();
    let mut expect = |what: String, ok: bool| {
        println!("{} {what}", if ok { "ok  " } else { "FAIL" });
        if !ok {
            failures.push(what);
        }
    };

    let geo = Workload::GeoHeteroCounter;
    let (geo_base, geo_sigs) = (run(geo, base)?, run(geo, slow_sigs)?);
    let (before, after) =
        (metric(&geo_base, "commit_latency_p50_ms"), metric(&geo_sigs, "commit_latency_p50_ms"));
    // A virtual metric repeats exactly on one seed, so any rise is the cost model's.
    expect(
        format!(
            "per_sig_verify x2 raises commit_latency_p50_ms on {}: {before:.1} -> {after:.1} ms",
            geo.name()
        ),
        after > before,
    );

    let kv = Workload::KvWrite1Kib;
    let (kv_base, kv_big) = (run(kv, base)?, run(kv, big_values)?);
    let cpu = "host_cpu_us_per_op";
    let (before, after) = (metric(&kv_base, cpu), metric(&kv_big, cpu));
    expect(
        format!("1 KiB -> 4 KiB values raise {cpu} on {} beyond its bound: {before:.2} -> {after:.2} us", kv.name()),
        after > before * (1.0 + bound(cpu)),
    );
    let geo_big = run(geo, big_values)?;
    let (before, after) = (metric(&geo_base, cpu), metric(&geo_big, cpu));
    expect(
        format!("1 KiB -> 4 KiB values leave {cpu} on {} inside its bound: {before:.2} -> {after:.2} us", geo.name()),
        after <= before * (1.0 + bound(cpu)),
    );
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!("{} selfcheck prediction(s) failed", failures.len()))
    }
}

fn main() -> ExitCode {
    let begun = Instant::now();
    let outcome = parse_args().and_then(|args| {
        if args.manifest {
            print!("{}", manifest());
            Ok(())
        } else if args.selfcheck {
            selfcheck()
        } else if let Some(workload) = args.workload {
            run_one(workload, &args, begun)
        } else {
            run_all(&args)
        }
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(reason) => {
            eprintln!("benchmark: {reason}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_matches_the_registries() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `benchmark --manifest > BENCHMARK.json`"
        );
        assert!(committed.len() <= 64 * 1024);
    }

    #[test]
    fn fingerprint_files_pin_the_virtual_statistics() {
        let phases = Workload::KvWrite1Kib.phases(6.0);
        let line = fingerprint_line(Workload::KvWrite1Kib, 7, phases, "abc123");
        let file = std::env::temp_dir().join(format!("bench-fp-{}.txt", std::process::id()));
        std::fs::write(&file, format!("## some table text\n{line}\n")).unwrap();
        let path = file.to_str().unwrap();
        assert!(check_fingerprint(path, &line).is_ok());
        let moved = fingerprint_line(Workload::KvWrite1Kib, 7, phases, "def456");
        assert!(check_fingerprint(path, &moved).unwrap_err().contains("changed"));
        let other_seed = fingerprint_line(Workload::KvWrite1Kib, 8, phases, "abc123");
        assert!(check_fingerprint(path, &other_seed).unwrap_err().contains("no line"));
        std::fs::remove_file(&file).unwrap();
    }

    /// `--smoke`: all four workloads end to end on short windows — every
    /// phase, every output check, both metric sets, the trace file. Not for
    /// claims; `cargo test --release` keeps it to about two minutes.
    #[test]
    fn smoke_runs_every_workload_end_to_end() {
        for workload in Workload::ALL {
            let phases = workload.smoke_phases();
            let perturb = Perturb::default();
            let report = run_end_to_end(workload, DEFAULT_SEED, phases, perturb, 2, Instant::now())
                .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
            let rows = in_registry_order(&END_TO_END, &report.values).unwrap();
            assert!(rows.iter().all(|(def, v)| *v > 0.0 || def.name == "host_cpu_us_per_op"));
            assert!(report.attempted > 0 && report.failed <= report.attempted);
            assert!(result_json(&report, &rows).starts_with("{\"correct\": true"));

            let layered = run_per_layer(workload, DEFAULT_SEED, phases, Instant::now())
                .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
            let rows = in_registry_order(PER_LAYER, &layered.values).unwrap();
            let shares: f64 =
                rows.iter().filter(|(d, _)| d.name.starts_with("ledger.")).map(|(_, v)| v).sum();
            assert!((shares - 1.0).abs() < 1e-9, "ledger shares sum to {shares}");
            // Same seed, same window: the traced pass saw the same virtual run
            // as the first replicate.
            assert!(report.fingerprint.starts_with(&layered.fingerprint));
            assert_eq!(report.fingerprint.matches('+').count(), 1);
        }
    }
}

//! Wall-clock perf gate CLI — times the end-to-end quick shapes (E0/E1/E3
//! pipelines + GeoBFT baseline + the store-enabled E10 shapes + the broker-tier
//! E11 shapes + the KV state-machine E13 shapes) and emits a `BENCH_PR*.json`
//! document.
//!
//! ```text
//! perf_wallclock [--quick] [--iters N] [--jobs N] [--out FILE] \
//!                [--check FILE.json] [--check-threshold PCT]
//! perf_wallclock --profile
//! ```
//!
//! * `--quick`: the 5 s-virtual-time shape set — the only one, so the flag
//!   changes nothing. Paper-scale wall-clock is `time ava-exp e0 --full`.
//! * `--jobs N`: worker threads for the shape set (default: available
//!   parallelism). Each shape's iterations stay on one worker; per-shape thread
//!   CPU time is recorded so timings stay comparable across `--jobs` settings.
//! * `--out FILE`: write the JSON document to `FILE` (default: print it on
//!   stdout).
//! * `--profile`: instead of timing shapes, run the paper's heterogeneous
//!   deployment and then the KV write shape (2 × 4 replicas, 1 KiB overwrites,
//!   a checkpoint every 8 rounds) once each with the simulator's handler
//!   profile on and print where the host time went, per (replica | client) ×
//!   message kind, sorted by share; after the KV table, the committed-entry
//!   memo's hits / misses / share and the checkpoint digests reused / built.
//! * `--check`: compare this run against the per-shape timings of a committed
//!   `BENCH_PR*.json` and exit non-zero if any shape regressed by more than
//!   `--check-threshold` percent (default 25). The comparison uses thread CPU
//!   time when both sides recorded it (stable on contended CI cores) and
//!   wall-clock otherwise, and a per-shape delta line is printed even when the
//!   gate passes. Only shapes present on both sides are gated; baseline-only
//!   (retired) and run-only (new) shapes are reported informationally, so adding
//!   or removing a shape cannot fail the gate spuriously. CI runs this against
//!   the repo-root baseline so hot-path regressions fail the build.

use ava_bench::perf::{
    check_regressions, delta_lines, parse_bench_json, peak_rss_kb, render_json, run_quick_shapes,
    unmatched_shapes,
};

fn main() {
    let mut iters = 3u32;
    let mut jobs = ava_scenario::default_jobs();
    let mut out: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut check_threshold = 25.0f64;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => {}
            "--profile" => {
                ava_bench::perf::profile_deployments();
                return;
            }
            "--iters" => iters = next_value(&mut args, "--iters").parse().expect("--iters N"),
            "--jobs" => {
                jobs = next_value(&mut args, "--jobs").parse::<usize>().expect("--jobs N").max(1)
            }
            "--out" => out = Some(next_value(&mut args, "--out")),
            "--check" => check_path = Some(next_value(&mut args, "--check")),
            "--check-threshold" => {
                check_threshold = next_value(&mut args, "--check-threshold")
                    .parse()
                    .expect("--check-threshold PCT")
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    eprintln!("perf_wallclock: iters={iters} jobs={jobs}");
    let (records, pool_wall_ms) = run_quick_shapes(iters, jobs);
    for r in &records {
        let cpu = r.cpu_ms.map(|c| format!("  cpu {c:>8.1} ms")).unwrap_or_default();
        eprintln!(
            "  {:<42} {:>10.1} ms{cpu}  {:>12.0} events/s  {:>7} txns",
            r.name, r.wall_ms, r.events_per_sec, r.completed_txns
        );
    }
    eprintln!("  pool wall-clock for the quick set: {pool_wall_ms:.1} ms on {jobs} job(s)");

    let json = render_json(iters, jobs, pool_wall_ms, &records);
    match &out {
        Some(path) => {
            std::fs::write(path, &json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            eprintln!("wrote {path} (peak RSS: {:?} kiB)", peak_rss_kb());
        }
        None => print!("{json}"),
    }

    if let Some(path) = check_path {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read check baseline {path}: {e}"));
        let committed = parse_bench_json(&text);
        let (missing_from_run, new_in_run) = unmatched_shapes(&records, &committed);
        for name in &missing_from_run {
            eprintln!("note: baseline shape {name} did not run (retired/renamed); not gated");
        }
        for name in &new_in_run {
            eprintln!("note: shape {name} has no baseline yet (new); not gated");
        }
        // Print the per-shape drift unconditionally: a passing gate should still
        // leave the deltas in the CI log for later archaeology.
        for line in delta_lines(&records, &committed) {
            eprintln!("  delta {line}");
        }
        let failures = check_regressions(&records, &committed, check_threshold / 100.0);
        if failures.is_empty() {
            eprintln!(
                "check against {path}: all {} shapes within +{check_threshold:.0}%",
                records.iter().filter(|r| committed.contains_key(&r.name)).count()
            );
        } else {
            eprintln!("check against {path} FAILED:");
            for f in &failures {
                eprintln!("  {f}");
            }
            std::process::exit(1);
        }
    }
}

fn next_value(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    args.next().unwrap_or_else(|| {
        eprintln!("{flag} requires a value");
        std::process::exit(2);
    })
}

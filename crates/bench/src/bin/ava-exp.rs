//! The experiment driver: runs rows of [`ava_bench::registry::EXPERIMENTS`].
//!
//! ```text
//! ava-exp <name>... [--full] [--jobs N] [--json PATH]
//! ava-exp list
//! ```
//!
//! * `<name>`: a row of the table (`ava-exp list` prints it), or a group — `e4`
//!   runs `e4.non-leader`, `e4.leader` and `e4.byzantine-leader` in that order,
//!   `e5` runs `e5.joins-leaves` and `e5.workflow`. Rows run in the order given
//!   and print their markdown tables on stdout.
//! * `--full`: paper scale (96 nodes, 180 s virtual runs) instead of the
//!   reduced scale that finishes in seconds.
//! * `--jobs N`: worker threads a sweep fans its independent runs out over
//!   (default: available parallelism; the output is byte-identical either way).
//! * `--json PATH`: also write the JSON document of the one selected sweep row
//!   (`e11`, `e12`, `e13` — each prints it on stdout after its table) to `PATH`.
//!
//! Exit code: 0; 1 if a safety checker fired in any row run (the violations go
//! to stderr); 2 on a usage error.

use ava_bench::registry::{listing, resolve, Experiment, Run, EXPERIMENTS};
use ava_bench::ExperimentScale;

fn main() {
    let mut rows: Vec<&Experiment> = Vec::new();
    let mut full = false;
    let mut jobs: Option<usize> = None;
    let mut json_path: Option<String> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["list"] {
        print!("{}", listing());
        return;
    }
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--full" => full = true,
            "--jobs" => match next_value(&mut args, "--jobs").parse::<usize>() {
                Ok(n) => jobs = Some(n.max(1)),
                Err(_) => usage("--jobs takes a number"),
            },
            "--json" => json_path = Some(next_value(&mut args, "--json")),
            name => match resolve(name) {
                Some(selected) => rows.extend(selected),
                None => usage(&format!("unknown experiment or flag: {name}")),
            },
        }
    }
    if rows.is_empty() {
        usage("no experiment named");
    }
    let is_sweep = |e: &&Experiment| matches!(e.run, Run::Sweep(_));
    let sweeps = rows.iter().copied().filter(is_sweep).count();
    if json_path.is_some() && sweeps != 1 {
        let names: Vec<&str> = EXPERIMENTS.iter().filter(is_sweep).map(|e| e.name).collect();
        usage(&format!("--json needs exactly one of {}; {sweeps} selected", names.join(", ")));
    }

    let mut scale = if full { ExperimentScale::paper() } else { ExperimentScale::quick() };
    if let Some(jobs) = jobs {
        scale.jobs = jobs;
    }
    let mut violated = false;
    for row in rows {
        match row.run {
            Run::Table(run) => {
                run(&scale);
            }
            Run::Sweep(run) => {
                let sweep = run(&scale);
                if let Some(path) = &json_path {
                    std::fs::write(path, &sweep.json)
                        .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
                    eprintln!("wrote {path}");
                }
                println!("{}", sweep.json);
                for block in &sweep.violations {
                    eprintln!("{block}");
                }
                violated |= !sweep.violations.is_empty();
            }
        }
    }
    if violated {
        std::process::exit(1);
    }
}

fn next_value(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    args.next().unwrap_or_else(|| usage(&format!("{flag} requires a value")))
}

fn usage(problem: &str) -> ! {
    eprintln!("{problem}");
    eprintln!("usage: ava-exp <name>... [--full] [--jobs N] [--json PATH] | ava-exp list");
    eprint!("{}", listing());
    std::process::exit(2);
}

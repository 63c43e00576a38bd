//! The experiment table: every figure and table of the evaluation as one named
//! row, run by the `ava-exp` driver (`ava-exp list` prints it).

use crate::experiments::{
    e0_single_region, e10_recovery, e11_json, e11_saturation, e12_byzantine, e12_json, e13_json,
    e13_workloads, e1_multi_region, e2_latency_breakdown, e3_heterogeneity, e4_failures,
    e5_joins_and_leaves, e5_workflow_comparison, e5_workflow_trace, e6_vs_geobft,
    e7_reconfig_frequency, e8_network_latency, e9_partitions, table1_complexity, table2_latency,
    ExperimentScale, FailureScenario,
};
use crate::perf::profile_deployments;

/// One row of the experiment table.
pub struct Experiment {
    /// The name `ava-exp` runs it by. Rows named `group.member` also run, in
    /// table order, under the bare `group`.
    pub name: &'static str,
    /// The figure or table of the paper it regenerates, or what it measures
    /// beyond the paper.
    pub figure: &'static str,
    /// How to run it.
    pub run: Run,
}

/// What running a row produces besides the tables it prints on stdout.
pub enum Run {
    /// The printed rows, nothing else.
    Table(fn(&ExperimentScale) -> Vec<Vec<String>>),
    /// A sweep with a machine-readable document (the rows `--json` applies to).
    Sweep(fn(&ExperimentScale) -> Sweep),
}

/// The machine-readable result of a [`Run::Sweep`] row.
pub struct Sweep {
    /// The JSON document `ava-exp` prints after the table and `--json` writes.
    pub json: String,
    /// One printable block per cell in which a safety checker fired; `ava-exp`
    /// exits 1 iff any row it ran reports one.
    pub violations: Vec<String>,
}

/// Every experiment, in the order `ava-exp list` prints them.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "e0",
        figure: "Fig. 3 left: throughput and latency vs. number of clusters, single region",
        run: Run::Table(e0_single_region),
    },
    Experiment {
        name: "e1",
        figure: "Fig. 3 right: throughput and latency vs. number of clusters, three regions",
        run: Run::Table(e1_multi_region),
    },
    Experiment {
        name: "e2",
        figure: "Fig. 4a: per-stage latency breakdown over 1, 2 and 3 regions",
        run: Run::Table(e2_latency_breakdown),
    },
    Experiment {
        name: "e3",
        figure: "Fig. 4b-e: heterogeneous cluster layouts",
        run: Run::Table(e3_heterogeneity),
    },
    Experiment {
        name: "e4.non-leader",
        figure: "Fig. 4f: throughput around the crash of f non-leaders per cluster",
        run: Run::Table(|scale| e4_failures(FailureScenario::NonLeader, scale)),
    },
    Experiment {
        name: "e4.leader",
        figure: "Fig. 4g: throughput around a leader crash",
        run: Run::Table(|scale| e4_failures(FailureScenario::Leader, scale)),
    },
    Experiment {
        name: "e4.byzantine-leader",
        figure: "Fig. 4h: throughput around a leader that withholds inter-cluster messages",
        run: Run::Table(|scale| e4_failures(FailureScenario::ByzantineLeader, scale)),
    },
    Experiment {
        name: "e5.joins-leaves",
        figure: "Fig. 5a: throughput under three joins and three leaves per cluster",
        run: Run::Table(e5_joins_and_leaves),
    },
    Experiment {
        name: "e5.workflow",
        figure: "Fig. 5b: parallel vs. single reconfiguration workflow",
        run: Run::Table(e5_workflow_comparison),
    },
    Experiment {
        name: "e5-trace",
        figure: "diagnosis: per-round commit/reconfiguration trace of the single workflow",
        run: Run::Table(|scale| e5_workflow_trace(scale).trace_rows()),
    },
    Experiment {
        name: "e6",
        figure: "Fig. 6: Ava-HotStuff vs. the GeoBFT-style baseline",
        run: Run::Table(e6_vs_geobft),
    },
    Experiment {
        name: "e7",
        figure: "Fig. 7: reconfiguration request frequency",
        run: Run::Table(e7_reconfig_frequency),
    },
    Experiment {
        name: "e8",
        figure: "Fig. 8: inter-cluster network latency during reconfiguration",
        run: Run::Table(e8_network_latency),
    },
    Experiment {
        name: "e9",
        figure: "beyond the paper: mid-run partition/heal and latency shift",
        run: Run::Table(e9_partitions),
    },
    Experiment {
        name: "e10",
        figure: "beyond the paper: crash -> restart -> catch-up recovery curves",
        run: Run::Table(e10_recovery),
    },
    Experiment {
        name: "e11",
        figure: "beyond the paper: broker-tier saturation sweep and its knee",
        run: Run::Sweep(|scale| {
            let (points, knee) = e11_saturation(scale);
            Sweep { json: e11_json(scale, &points, knee), violations: Vec::new() }
        }),
    },
    Experiment {
        name: "e12",
        figure: "beyond the paper: Byzantine behavior x corruption count under the checker suite",
        run: Run::Sweep(|scale| {
            let cells = e12_byzantine(scale);
            let violations = violation_blocks(cells.iter().map(|c| {
                let cell = format!(
                    "behavior={} corrupted={}",
                    c.behavior.label(),
                    c.corrupted_per_cluster
                );
                (cell, c.violations.as_slice())
            }));
            Sweep { json: e12_json(scale, &cells), violations }
        }),
    },
    Experiment {
        name: "e13",
        figure: "beyond the paper: KV state machine, read-ratio x skew under the checker suite",
        run: Run::Sweep(|scale| {
            let cells = e13_workloads(scale);
            let violations = violation_blocks(cells.iter().map(|c| {
                let cell = format!("read_ratio={} zipf_theta={}", c.read_ratio, c.zipf_theta);
                (cell, c.violations.as_slice())
            }));
            Sweep { json: e13_json(scale, &cells), violations }
        }),
    },
    Experiment {
        name: "table1",
        figure: "Table I: best-case message complexity",
        run: Run::Table(table1_complexity),
    },
    Experiment {
        name: "table2",
        figure: "Table II: inter-region round-trip latency matrix",
        run: Run::Table(table2_latency),
    },
    Experiment {
        name: "profile",
        figure: "diagnosis: host time per actor x message kind, paper deployment, KV writes, \
                 BFT-SMaRt",
        run: Run::Table(|_| {
            profile_deployments();
            Vec::new()
        }),
    },
];

/// One printable block per cell in which a safety checker fired.
fn violation_blocks<'a>(cells: impl Iterator<Item = (String, &'a [String])>) -> Vec<String> {
    cells
        .filter(|(_, violations)| !violations.is_empty())
        .map(|(cell, violations)| {
            let mut block = format!("SAFETY VIOLATION: {cell}:");
            for v in violations {
                block.push_str(&format!("\n  {v}"));
            }
            block
        })
        .collect()
}

/// The rows `name` selects: the row of that name, or — for a bare group name —
/// every `name.*` row in table order. `None` when it names nothing.
pub fn resolve(name: &str) -> Option<Vec<&'static Experiment>> {
    let prefix = format!("{name}.");
    let rows: Vec<&Experiment> =
        EXPERIMENTS.iter().filter(|e| e.name == name || e.name.starts_with(&prefix)).collect();
    (!rows.is_empty()).then_some(rows)
}

/// The table as `ava-exp list` prints it, one `name  figure` line per row.
pub fn listing() -> String {
    EXPERIMENTS.iter().map(|e| format!("{:<20} {}\n", e.name, e.figure)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(selector: &str) -> Vec<&'static str> {
        resolve(selector).unwrap_or_default().iter().map(|e| e.name).collect()
    }

    #[test]
    fn names_are_unique_and_groups_resolve_in_table_order() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert!(EXPERIMENTS[..i].iter().all(|o| o.name != e.name), "duplicate {}", e.name);
        }
        assert_eq!(names("e4"), ["e4.non-leader", "e4.leader", "e4.byzantine-leader"]);
        assert_eq!(names("e5"), ["e5.joins-leaves", "e5.workflow"], "e5-trace is not in the group");
        assert_eq!(names("e5-trace"), ["e5-trace"]);
        assert_eq!(names("e1"), ["e1"], "a prefix of e10..e13 is not a group");
        assert_eq!(names("e4.leader"), ["e4.leader"]);
        assert_eq!(names("profile"), ["profile"]);
        for unknown in ["e4.leader-typo", "leader", "e14", "e4.", "", "--full"] {
            assert!(resolve(unknown).is_none(), "{unknown:?} must not resolve");
        }
    }

    fn table_body(name: &str) -> String {
        let [row] = resolve(name).expect("known row")[..] else { panic!("{name} is one row") };
        let Run::Table(run) = row.run else { panic!("{name} prints a table") };
        run(&ExperimentScale::quick()).iter().map(|r| r.join(" | ") + "\n").collect()
    }

    #[test]
    fn tables_one_and_two_are_frozen() {
        assert_eq!(
            table_body("table1"),
            "Ava-HotStuff | z | O(8zn) | O(fz^2) | yes | 768 | 66\n\
             Ava-BftSmart | z | O(2zn^2) | O(fz^2) | yes | 6144 | 66\n\
             GeoBFT | z | O(4zn^2) | O(fz^2) | yes | 12288 | 66\n\
             Steward | 1 | O(2zn^2) | O(z^2) | no | 6144 | 9\n\
             PBFT | 1 | O(2(zn)^2) | - | no | 18432 | 0\n\
             Zyzzyva | 1 | O(zn) | - | no | 96 | 0\n"
        );
        assert_eq!(
            table_body("table2"),
            "us-west1-b | 0 | 148 | 214\n\
             europe-west3-c | 148 | 0 | 134\n\
             asia-south1-c | 214 | 134 | 0\n"
        );
    }

    /// The files that tell a reader what to run.
    const DOCS: [(&str, &str); 5] = [
        ("README.md", include_str!("../../../README.md")),
        ("EXPERIMENTS.md", include_str!("../../../EXPERIMENTS.md")),
        ("DESIGN.md", include_str!("../../../DESIGN.md")),
        ("SKILL.md", include_str!("../../../.claude/skills/verify/SKILL.md")),
        ("ci.yml", include_str!("../../../.github/workflows/ci.yml")),
    ];

    #[test]
    fn every_documented_invocation_names_a_row() {
        let mut seen = 0;
        for (file, text) in DOCS {
            for (at, _) in text.match_indices("ava-exp ") {
                let rest = text[at + "ava-exp ".len()..].lines().next().unwrap_or("");
                // `cargo run --bin ava-exp -- e0` and `ava-exp e0` are the same call.
                let rest = rest.strip_prefix("-- ").unwrap_or(rest);
                for word in rest.split_whitespace() {
                    // The names end with the inline code span, at a flag, a
                    // bracketed option or a shell comment.
                    let (word, closes_span) = match word.split_once('`') {
                        Some((before, _)) => (before, true),
                        None => (word, false),
                    };
                    let name = word.trim_end_matches([',', '.', ';', ':', ')', '…']);
                    if name.is_empty() || name.starts_with(['-', '[', '#']) {
                        break;
                    }
                    // `<name>` is the usage line's placeholder.
                    let known = name == "list" || name == "<name>" || resolve(name).is_some();
                    assert!(known, "{file}: `ava-exp {rest}` names unknown row {name:?}");
                    seen += 1;
                    if closes_span {
                        break;
                    }
                }
            }
        }
        assert!(seen >= 20, "only {seen} documented invocations found; did the scan break?");
    }

    #[test]
    fn no_retired_entry_point_survives_in_the_docs() {
        let retired = [
            "e0_single_region",
            "e1_multi_region",
            "e2_latency_breakdown",
            "e3_heterogeneity",
            "e4_failures",
            "e5_reconfiguration",
            "e6_vs_geobft",
            "e7_reconfig_frequency",
            "e8_network_latency",
            "e9_partitions",
            "e10_recovery",
            "e11_saturation",
            "e12_byzantine",
            "e13_workloads",
            "table1_complexity",
            "table2_latency",
            "cargo bench",
            "AVA_FULL",
            "AVA_JOBS",
            "perf_wallclock",
            "map_timed",
            "thread_cpu_time",
            "--check BENCH_PR",
            "prev_membership",
            "verify_either",
            "CurrStateViews",
            "LastBuilt",
            "MuteInterCluster",
            "SilenceLocalLeader",
            "SilentLocalLeader",
            "mute_inter_cluster_at",
            "op_size",
            "prev_package",
            "join_regions",
            "HmacKey",
            "hmac_sha256",
            "pending_clients",
            "pending_batch",
            "seen_batches",
            "ack_committed",
            "ordered_reconfig_sets",
            "adopt_ordered_reconfig_set",
            "SIGN_COST",
            "VERIFY_COST",
            "per_batch_verify",
            "geobft_config",
            "ava_geobft",
            // The named release test steps one `cargo test --release` replaced.
            "Cross-thread determinism",
            "Partition relay (release)",
            "Leader crash (release)",
            "Entry and recovery paths",
            "Reconfiguration across clusters",
            "Local TOB layer",
            "Byzantine adversaries (release)",
            "Output record size",
            "Signature memory",
            "Shared execution (release)",
        ];
        for (file, text) in DOCS {
            for name in retired {
                assert!(!text.contains(name), "{file} still mentions {name}");
            }
        }
    }
}

//! Fuzz-run execution: run one case through the checker suite, summarize, and
//! render machine-readable reports.

use crate::checkers::{CheckerSet, Violation};
use crate::generate::{FuzzCase, FuzzConfig, ScheduleGenerator};
use ava_simnet::NetStats;
use ava_types::Output;
use std::fmt::Write as _;

/// The outcome of running one fuzz case.
#[derive(Clone, Debug)]
pub struct CaseReport {
    /// The seed the case was generated from.
    pub seed: u64,
    /// Protocol label ("A.H", "A.B", "GeoBFT").
    pub protocol: &'static str,
    /// Events in the schedule.
    pub events: usize,
    /// Transactions completed during the run.
    pub completed_txns: usize,
    /// Violations the checker suite recorded (empty = pass).
    pub violations: Vec<Violation>,
    /// Hex SHA-256 of the case encoding (topology + options + schedule).
    pub schedule_digest: String,
    /// Hex SHA-256 of the run's output stream + net stats (the same shape as
    /// the determinism goldens) — two runs of the same case match iff their
    /// digests match, which is how failure reproducibility is confirmed.
    pub output_digest: String,
}

impl CaseReport {
    /// Whether the run passed every checker.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Fingerprint an output stream + net stats (hex SHA-256 over the `Debug`
/// rendering, the same scheme as the repo's determinism goldens).
pub fn fingerprint_outputs(outputs: &[Output], stats: &NetStats) -> String {
    let mut hasher = ava_crypto::Sha256::new();
    // One buffer for every line: a long run has a million outputs.
    let mut line = String::new();
    for o in outputs {
        line.clear();
        let _ = writeln!(line, "{o:?}");
        hasher.update(line.as_bytes());
    }
    hasher.update(
        format!(
            "msgs={} bytes={} dropped={}",
            stats.total_messages(),
            stats.bytes_sent,
            stats.dropped_messages
        )
        .as_bytes(),
    );
    hasher.finalize().iter().map(|b| format!("{b:02x}")).collect()
}

/// Run `case` through the standard checker suite.
pub fn run_case(case: &FuzzCase) -> CaseReport {
    let mut checkers = CheckerSet::standard();
    let run = case.scenario().run_observed(&mut [&mut checkers]);
    let completed_txns =
        run.outputs.iter().filter(|o| matches!(o, Output::TxCompleted { .. })).count();
    CaseReport {
        seed: case.seed,
        protocol: case.protocol.label(),
        events: case.schedule.len(),
        completed_txns,
        violations: checkers.violations(),
        schedule_digest: case.fingerprint(),
        output_digest: fingerprint_outputs(&run.outputs, &run.stats),
    }
}

/// Aggregate results of a fuzz campaign.
#[derive(Clone, Debug, Default)]
pub struct CampaignSummary {
    /// Every per-seed report, in seed order.
    pub reports: Vec<CaseReport>,
}

impl CampaignSummary {
    /// Seeds whose runs violated at least one invariant.
    pub fn failing_seeds(&self) -> Vec<u64> {
        self.reports.iter().filter(|r| !r.passed()).map(|r| r.seed).collect()
    }

    /// Whether every seed passed.
    pub fn all_passed(&self) -> bool {
        self.reports.iter().all(CaseReport::passed)
    }

    /// Render the machine-readable JSON summary (`{"seeds": …, "passed": …,
    /// "failed": [{seed, checker, details}, …]}`).
    pub fn to_json(&self, mode: &str) -> String {
        let failed: Vec<String> = self
            .reports
            .iter()
            .filter(|r| !r.passed())
            .map(|r| {
                let v = &r.violations[0];
                format!(
                    "{{\"seed\": {}, \"protocol\": {}, \"checker\": {}, \"details\": {}, \
                     \"schedule_digest\": {}, \"output_digest\": {}}}",
                    r.seed,
                    json_str(r.protocol),
                    json_str(v.checker),
                    json_str(&v.details),
                    json_str(&r.schedule_digest),
                    json_str(&r.output_digest)
                )
            })
            .collect();
        let total_txns: usize = self.reports.iter().map(|r| r.completed_txns).sum();
        format!(
            "{{\n  \"mode\": {},\n  \"seeds\": {},\n  \"passed\": {},\n  \"total_txns\": {},\n  \
             \"failed\": [{}]\n}}\n",
            json_str(mode),
            self.reports.len(),
            self.reports.iter().filter(|r| r.passed()).count(),
            total_txns,
            failed.join(", ")
        )
    }
}

/// Run seeds `start..start + count` of `cfg`'s generator on `jobs` worker
/// threads, invoking `progress` as each seed finishes (for per-seed pass/fail
/// lines; under `jobs > 1` the calls arrive in completion order, which is why
/// `progress` must be `Sync`). The summary's reports are always in seed order
/// and byte-identical to a `jobs = 1` run: every case owns its full simulation
/// stack, so fanning seeds out cannot perturb any run's schedule or digests.
pub fn fuzz_many(
    cfg: FuzzConfig,
    start: u64,
    count: u64,
    jobs: usize,
    progress: impl Fn(&CaseReport) + Sync,
) -> CampaignSummary {
    let generator = ScheduleGenerator::new(cfg);
    let seeds: Vec<u64> = (start..start + count).collect();
    let reports = ava_scenario::RunPool::new(jobs).map(seeds, |_, seed| {
        let report = run_case(&generator.case(seed));
        progress(&report);
        report
    });
    CampaignSummary { reports }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_summary_escapes_and_counts() {
        let mut summary = CampaignSummary::default();
        summary.reports.push(CaseReport {
            seed: 3,
            protocol: "A.H",
            events: 2,
            completed_txns: 100,
            violations: vec![],
            schedule_digest: "ab".into(),
            output_digest: "cd".into(),
        });
        summary.reports.push(CaseReport {
            seed: 4,
            protocol: "A.B",
            events: 1,
            completed_txns: 50,
            violations: vec![Violation { checker: "prefix", details: "round \"r3\" twice".into() }],
            schedule_digest: "ef".into(),
            output_digest: "01".into(),
        });
        assert_eq!(summary.failing_seeds(), vec![4]);
        assert!(!summary.all_passed());
        let json = summary.to_json("quick");
        assert!(json.contains("\"seeds\": 2"));
        assert!(json.contains("\"passed\": 1"));
        assert!(json.contains("\\\"r3\\\""));
        assert!(json.contains("\"total_txns\": 150"));
    }
}

//! Output checks: a workload's numbers are only printed when the program's
//! outputs are correct. Untimed — runs after the measured window and the drain.

use crate::metrics::WindowOps;
use crate::run::RunData;
use ava_fuzz::CheckerSet;
use ava_scenario::ScenarioEvent;
use ava_types::Output;
use std::time::Instant;

/// What the checks found.
pub struct CheckReport {
    /// Human-readable failures; empty means every check passed.
    pub failures: Vec<String>,
    /// Host seconds the `CheckerSet` replay took (`fuzz.check_replay_s`).
    pub replay_s: f64,
    /// Violations the eight invariant checkers recorded (`fuzz.checker_violations`).
    pub checker_violations: usize,
}

/// Replay all eight `ava_fuzz` invariant checkers over the run's outputs, then
/// check the schedule took effect: every scheduled join/leave was applied,
/// every restarted replica caught up, every cluster committed in the window,
/// and an honest run produced no Byzantine evidence.
pub fn check(data: &RunData, window: &WindowOps) -> CheckReport {
    let plan = &data.plan;
    let mut events = plan.events.clone();
    events.sort_by_key(|(at, _)| *at);
    let started = Instant::now();
    let mut violations = CheckerSet::replay(&data.outputs, &events, plan.phases.end());
    let replay_s = started.elapsed().as_secs_f64();
    if plan.tier.is_some() {
        // With broker retries on (the shipped default, which this workload
        // keeps) a resend to a different replica may legitimately double-admit
        // a batch; the TOB pool's digest dedup still prevents a double apply.
        // `ava_fuzz` documents this arm as unsound under retries; the
        // duplicate-ack and phantom-ack arms stay on.
        violations.retain(|v| {
            !(v.checker == "broker-conservation" && v.details.contains("committed twice"))
        });
    }
    let checker_violations = violations.len();
    let mut failures: Vec<String> = violations.iter().map(|v| v.to_string()).collect();

    let applied = |replica, joined| {
        data.outputs.iter().any(|o| {
            matches!(o, Output::ReconfigApplied { replica: r, joined: j, .. }
                if *r == replica && *j == joined)
        })
    };
    let scheduled_joins =
        plan.events.iter().filter(|(_, e)| matches!(e, ScenarioEvent::Join { .. })).count();
    if data.joined.len() != scheduled_joins {
        failures.push(format!(
            "{scheduled_joins} joins scheduled but {} replicas created",
            data.joined.len()
        ));
    }
    for replica in &data.joined {
        if !applied(*replica, true) {
            failures.push(format!("scheduled join of {replica} has no ReconfigApplied"));
        }
    }
    for (at, event) in &plan.events {
        if let ScenarioEvent::Leave { replica } = event {
            if !applied(*replica, false) {
                failures
                    .push(format!("leave of {replica} scheduled at {at} has no ReconfigApplied"));
            }
        }
    }
    for replica in plan.scheduled_restarts() {
        let recovered = data
            .outputs
            .iter()
            .any(|o| matches!(o, Output::RecoveryCompleted { replica: r, .. } if *r == replica));
        if !recovered {
            failures.push(format!("restarted {replica} has no RecoveryCompleted"));
        }
    }
    for cluster in &plan.config.clusters {
        if window.commits.get(&cluster.id).is_none_or(|c| c.is_empty()) {
            failures.push(format!("{} committed no write inside the measured window", cluster.id));
        }
    }
    let evidence = data
        .outputs
        .iter()
        .filter(|o| {
            matches!(o, Output::ByzantineRejected { .. } | Output::EquivocationObserved { .. })
        })
        .count();
    if evidence > 0 {
        failures.push(format!("{evidence} Byzantine-evidence outputs in an honest run"));
    }
    CheckReport { failures, replay_s, checker_violations }
}

//! Greedy schedule shrinking: given a violating case, remove events one at a
//! time (re-running after each removal) until no single removal keeps the
//! violation alive — the classic delta-debugging 1-minimal reduction.
//!
//! The judge is pluggable (`FnMut(&FuzzCase) -> Option<Violation>`) so the
//! algorithm itself is testable with synthetic judges; the fuzz binary passes a
//! judge that actually runs the scenario through the checker suite. Removals are
//! dependency-aware: removing a `Crash` drags the restarts that depend on it,
//! and removing a `Partition` drags its `Heal`, so every probed candidate is a
//! valid schedule.

use crate::checkers::Violation;
use crate::generate::FuzzCase;
use ava_scenario::{ScenarioEvent, Schedule};
use ava_types::Time;

/// The result of a shrink pass.
#[derive(Clone, Debug)]
pub struct ShrinkOutcome {
    /// The reduced case (identical to the input when nothing could be removed,
    /// or when the input did not violate at all).
    pub case: FuzzCase,
    /// The violation the reduced case still triggers (`None`: the input case
    /// passed, so shrinking was a no-op).
    pub violation: Option<Violation>,
    /// Events removed from the schedule.
    pub removed: usize,
    /// Judge invocations spent (including the initial one).
    pub attempts: usize,
}

/// Shrink `case` with a custom judge. The judge returns the violation a
/// candidate triggers (its first, by convention), or `None` for a passing run.
///
/// Invariants:
/// - a passing `case` returns immediately with `violation: None` (no-op);
/// - the returned case triggers a violation of the *same checker* as the
///   original (greedy steps that flip to a different checker are rejected, so
///   the reproducer reproduces the reported bug, not a different one);
/// - terminates: every accepted step strictly shrinks the schedule.
pub fn shrink_with(
    case: &FuzzCase,
    judge: &mut dyn FnMut(&FuzzCase) -> Option<Violation>,
) -> ShrinkOutcome {
    let mut attempts = 1;
    let Some(initial) = judge(case) else {
        return ShrinkOutcome { case: case.clone(), violation: None, removed: 0, attempts };
    };
    let target = initial.checker;
    let mut current = case.clone();
    let mut violation = initial;
    'pass: loop {
        let entries = current.schedule.sorted();
        for i in 0..entries.len() {
            let candidate_schedule = without(&entries, i);
            let candidate = current.with_schedule(candidate_schedule);
            if candidate.try_scenario().is_err() {
                continue;
            }
            attempts += 1;
            if let Some(v) = judge(&candidate) {
                if v.checker == target {
                    current = candidate;
                    violation = v;
                    continue 'pass;
                }
            }
        }
        break;
    }
    let removed = case.schedule.len() - current.schedule.len();
    ShrinkOutcome { case: current, violation: Some(violation), removed, attempts }
}

/// `entries` minus entry `i` and everything depending on it: restarts whose
/// only earlier crash it was, and the first heal of a removed partition.
fn without(entries: &[(Time, ScenarioEvent)], i: usize) -> Schedule {
    let mut kept: Vec<(Time, ScenarioEvent)> =
        entries.iter().enumerate().filter(|(j, _)| *j != i).map(|(_, e)| e.clone()).collect();
    if let ScenarioEvent::Partition { a, b } = &entries[i].1 {
        let (pa, pb) = (a.0.min(b.0), a.0.max(b.0));
        let heal = kept.iter().position(|(at, ev)| {
            *at > entries[i].0
                && matches!(ev, ScenarioEvent::Heal { a, b }
                    if a.0.min(b.0) == pa && a.0.max(b.0) == pb)
        });
        if let Some(j) = heal {
            kept.remove(j);
        }
    }
    // Drop restarts whose supporting crash is gone (removal above may have been
    // the crash itself).
    let mut schedule = Schedule::new();
    for (at, ev) in &kept {
        if let ScenarioEvent::Restart { replica } = ev {
            let supported = kept.iter().any(|(crash_at, e)| {
                matches!(e, ScenarioEvent::Crash { replica: r } if r == replica) && crash_at < at
            });
            if !supported {
                continue;
            }
        }
        schedule.add(*at, ev.clone());
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{FuzzConfig, ScheduleGenerator};
    use ava_scenario::{ByzantineBehavior, Protocol};
    use ava_types::{ClusterId, Duration, Region, ReplicaId, SystemConfig};

    /// A hand-built case: crash+restart, a partition+heal, a mute and a latency
    /// shift on a 2×4 topology.
    fn rich_case() -> FuzzCase {
        let mut config =
            SystemConfig::homogeneous_regions(&[(4, Region::UsWest), (4, Region::Europe)]);
        config.params.batch_size = 20;
        let mut schedule = Schedule::new();
        schedule.add(Time::from_secs(2), ScenarioEvent::Crash { replica: ReplicaId(1) });
        schedule.add(Time::from_secs(4), ScenarioEvent::Restart { replica: ReplicaId(1) });
        schedule
            .add(Time::from_secs(3), ScenarioEvent::Partition { a: ClusterId(0), b: ClusterId(1) });
        schedule.add(Time::from_secs(5), ScenarioEvent::Heal { a: ClusterId(0), b: ClusterId(1) });
        let behavior = ByzantineBehavior::MuteInter;
        schedule
            .add(Time::from_secs(6), ScenarioEvent::Corrupt { replica: ReplicaId(5), behavior });
        let generator = ScheduleGenerator::new(FuzzConfig::quick());
        let mut case = generator.case(0);
        case.protocol = Protocol::AvaHotStuff;
        case.clusters = vec![(4, Region::UsWest), (4, Region::Europe)];
        case.config = config;
        case.run = Duration::from_secs(12);
        case.with_schedule(schedule)
    }

    fn has_kind(case: &FuzzCase, kind: &str) -> bool {
        case.schedule.iter().any(|(_, ev)| ev.kind() == kind)
    }

    #[test]
    fn passing_case_is_a_no_op_and_terminates() {
        let case = rich_case();
        let mut judged = 0;
        let outcome = shrink_with(&case, &mut |_| {
            judged += 1;
            None
        });
        assert_eq!(judged, 1, "a passing case is judged exactly once");
        assert!(outcome.violation.is_none());
        assert_eq!(outcome.removed, 0);
        assert_eq!(outcome.case.schedule.len(), case.schedule.len());
    }

    #[test]
    fn shrinks_to_the_known_minimal_core() {
        // Synthetic judge: the "bug" fires whenever the schedule still contains
        // both the crash of p1 and the partition. Everything else is noise the
        // shrinker must strip: the mute, the latency events, the heal (dragged
        // with the partition only if the partition itself is removed — it stays
        // here), and the restart (dragged once the crash goes — it stays here
        // because the crash must stay).
        let case = rich_case();
        let mut judge = |c: &FuzzCase| {
            (has_kind(c, "crash") && has_kind(c, "partition"))
                .then(|| Violation { checker: "execution-agreement", details: "synthetic".into() })
        };
        let outcome = shrink_with(&case, &mut judge);
        let shrunk = outcome.case;
        assert!(outcome.violation.is_some());
        assert!(has_kind(&shrunk, "crash"), "the crash is load-bearing");
        assert!(has_kind(&shrunk, "partition"), "the partition is load-bearing");
        assert!(!has_kind(&shrunk, "corrupt"), "noise must be stripped");
        // The restart depends on the kept crash and is individually removable.
        assert!(!has_kind(&shrunk, "restart"), "removable dependents are stripped");
        // 1-minimal: removing any single remaining event (with dependents) kills
        // the violation.
        let entries = shrunk.schedule.sorted();
        for i in 0..entries.len() {
            let candidate = shrunk.with_schedule(super::without(&entries, i));
            if candidate.try_scenario().is_ok() {
                assert!(
                    judge(&candidate).is_none(),
                    "shrunk schedule is not 1-minimal: removing {:?} keeps the violation",
                    entries[i]
                );
            }
        }
        assert!(outcome.removed >= 2);
        assert!(outcome.attempts > 1);
    }

    #[test]
    fn removing_a_crash_drags_its_restart() {
        let case = rich_case();
        let entries = case.schedule.sorted();
        let crash_idx = entries
            .iter()
            .position(|(_, ev)| matches!(ev, ScenarioEvent::Crash { .. }))
            .expect("has a crash");
        let shrunk = super::without(&entries, crash_idx);
        assert!(
            !shrunk.iter().any(|(_, ev)| matches!(ev, ScenarioEvent::Restart { .. })),
            "orphaned restart must be dragged along"
        );
        // And the result still builds.
        assert!(case.with_schedule(shrunk).try_scenario().is_ok());
    }

    #[test]
    fn removing_a_partition_drags_its_heal() {
        let case = rich_case();
        let entries = case.schedule.sorted();
        let idx = entries
            .iter()
            .position(|(_, ev)| matches!(ev, ScenarioEvent::Partition { .. }))
            .expect("has a partition");
        let shrunk = super::without(&entries, idx);
        assert!(!shrunk.iter().any(|(_, ev)| matches!(ev, ScenarioEvent::Heal { .. })));
        assert_eq!(shrunk.len(), entries.len() - 2);
    }

    #[test]
    fn shrinker_rejects_steps_that_switch_checkers() {
        // The mute triggers checker A; crash+partition trigger checker B (the
        // one reported first). Removing the mute must be accepted; removals
        // that leave only checker A firing must be rejected.
        let case = rich_case();
        let mut judge = |c: &FuzzCase| {
            if has_kind(c, "crash") && has_kind(c, "partition") {
                Some(Violation { checker: "prefix", details: "b".into() })
            } else if has_kind(c, "corrupt") {
                Some(Violation { checker: "catch-up-liveness", details: "a".into() })
            } else {
                None
            }
        };
        let outcome = shrink_with(&case, &mut judge);
        let v = outcome.violation.expect("still violating");
        assert_eq!(v.checker, "prefix", "the reduced case reproduces the original checker");
        assert!(has_kind(&outcome.case, "crash") && has_kind(&outcome.case, "partition"));
    }
}

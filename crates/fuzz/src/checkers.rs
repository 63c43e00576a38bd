//! Always-on invariant checkers: observers that watch a run's [`Output`] stream
//! and record violations of the protocol's core guarantees.
//!
//! Each checker is a small state machine fed every output (and every scheduled
//! event) in emission order; violations are collected, never panicked, so one run
//! can report every broken invariant at once and the shrinker can re-judge
//! candidate schedules cheaply. [`CheckerSet::standard`] bundles the full suite
//! and plugs into the scenario runner as a single [`RunObserver`].
//!
//! The checkers deliberately know nothing about the schedule that produced a
//! run (beyond the crash forgiveness the liveness checker needs): they judge the
//! output stream alone, which is what lets the canary suite replay doctored
//! streams through them offline.

use ava_scenario::{DynDeployment, RunObserver, ScenarioEvent};
use ava_types::{ClusterId, Output, ReplicaId, Round, Time, TxId};
use std::collections::{BTreeMap, BTreeSet};

/// A detected invariant violation: which checker fired and a human-readable,
/// deterministic description (derived from event data only, so the same run
/// produces byte-identical violations).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Name of the checker that fired (see [`InvariantChecker::name`]).
    pub checker: &'static str,
    /// What went wrong, with the offending rounds/replicas/digests.
    pub details: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.checker, self.details)
    }
}

/// An invariant checker: fed the output stream (and scheduled events) of one
/// run, accumulates [`Violation`]s.
///
/// Implementors are plain state machines — no deployment access — so they can
/// run live (wired into [`CheckerSet`], a [`RunObserver`]) or offline over a
/// recorded stream (the canary suite).
pub trait InvariantChecker {
    /// Stable name used in reports and canary expectations.
    fn name(&self) -> &'static str;

    /// Feed one emitted output.
    fn observe(&mut self, output: &Output);

    /// Feed one applied schedule event (default: ignored).
    fn scheduled(&mut self, at: Time, event: &ScenarioEvent) {
        let _ = (at, event);
    }

    /// The run ended at virtual time `end`; check end-of-run invariants.
    fn finish(&mut self, end: Time) {
        let _ = end;
    }

    /// Violations recorded so far.
    fn violations(&self) -> &[Violation];
}

/// Cross-replica agreement on executed rounds: every replica that executes round
/// `r` must report the same global transaction count, and — when a real state
/// machine is deployed — the same full state digest. `RoundExecuted.txns` is
/// the number of transactions the round carried across *all* clusters, and
/// `StateDigest.digest` fingerprints the entire replicated state after Stage 3
/// of the round, so replicas disagreeing on either have diverged. The digest
/// comparison is global (not per-cluster): Stage 3 executes the union of every
/// cluster's batch deterministically, so all replicas of all clusters hold the
/// same state at the same round. Legacy counter-machine runs emit no
/// `StateDigest`, leaving the digest arm dormant.
#[derive(Default)]
pub struct ExecutionAgreementChecker {
    /// round -> (txns, first reporter).
    rounds: BTreeMap<Round, (usize, ReplicaId)>,
    /// round -> (state digest, first reporter).
    digests: BTreeMap<Round, ([u8; 32], ReplicaId)>,
    flagged: BTreeSet<Round>,
    digest_flagged: BTreeSet<Round>,
    violations: Vec<Violation>,
}

impl ExecutionAgreementChecker {
    /// A fresh checker.
    pub fn new() -> Self {
        Self::default()
    }
}

impl InvariantChecker for ExecutionAgreementChecker {
    fn name(&self) -> &'static str {
        "execution-agreement"
    }

    fn observe(&mut self, output: &Output) {
        match output {
            Output::RoundExecuted { replica, round, txns, .. } => match self.rounds.get(round) {
                None => {
                    self.rounds.insert(*round, (*txns, *replica));
                }
                Some((first_txns, first_replica)) => {
                    if txns != first_txns && self.flagged.insert(*round) {
                        self.violations.push(Violation {
                            checker: self.name(),
                            details: format!(
                                "round {round}: {replica} executed {txns} txns but \
                                 {first_replica} executed {first_txns}"
                            ),
                        });
                    }
                }
            },
            Output::StateDigest { replica, round, digest, .. } => match self.digests.get(round) {
                None => {
                    self.digests.insert(*round, (**digest, *replica));
                }
                Some((first_digest, first_replica)) => {
                    if **digest != *first_digest && self.digest_flagged.insert(*round) {
                        self.violations.push(Violation {
                            checker: self.name(),
                            details: format!(
                                "round {round}: {replica} reports state digest {} but \
                                     {first_replica} reports {}",
                                hex8(digest),
                                hex8(first_digest)
                            ),
                        });
                    }
                }
            },
            _ => {}
        }
    }

    fn violations(&self) -> &[Violation] {
        &self.violations
    }
}

/// The prefix property: within one incarnation, a replica executes rounds in
/// strictly increasing order — it never re-executes or goes back. A restart
/// resets the cursor (the replica may legitimately resume at a round it executed
/// just before crashing, when its peers had not yet finished that round);
/// catch-up *transfers* rounds without re-executing them, so gaps are fine.
#[derive(Default)]
pub struct PrefixChecker {
    last: BTreeMap<ReplicaId, Round>,
    violations: Vec<Violation>,
}

impl PrefixChecker {
    /// A fresh checker.
    pub fn new() -> Self {
        Self::default()
    }
}

impl InvariantChecker for PrefixChecker {
    fn name(&self) -> &'static str {
        "prefix"
    }

    fn observe(&mut self, output: &Output) {
        match output {
            Output::RoundExecuted { replica, round, .. } => {
                if let Some(prev) = self.last.get(replica) {
                    if round <= prev {
                        self.violations.push(Violation {
                            checker: self.name(),
                            details: format!(
                                "{replica} executed round {round} after already executing \
                                 round {prev} in the same incarnation"
                            ),
                        });
                    }
                }
                let entry = self.last.entry(*replica).or_insert(*round);
                *entry = (*entry).max(*round);
            }
            Output::ReplicaRestarted { replica, .. } => {
                self.last.remove(replica);
            }
            _ => {}
        }
    }

    fn violations(&self) -> &[Violation] {
        &self.violations
    }
}

/// Checkpoint-chain integrity: checkpoint digests are round-deterministic
/// within a cluster (see `ava-store` — the digest commits the per-cluster
/// packing anchor `next_height`, so sibling clusters legitimately differ), so
/// every replica of a cluster installing a checkpoint for round `r` must report
/// the same digest, and each replica's own chain must be strictly
/// round-monotonic (`ReplicaStore` rejects stale installs; seeing one emitted
/// means the store was bypassed).
#[derive(Default)]
pub struct CheckpointChecker {
    /// (cluster, round) -> (digest, first reporter).
    digests: BTreeMap<(ClusterId, Round), ([u8; 32], ReplicaId)>,
    /// replica -> last installed round.
    chains: BTreeMap<ReplicaId, Round>,
    flagged: BTreeSet<(ClusterId, Round)>,
    violations: Vec<Violation>,
}

impl CheckpointChecker {
    /// A fresh checker.
    pub fn new() -> Self {
        Self::default()
    }
}

impl InvariantChecker for CheckpointChecker {
    fn name(&self) -> &'static str {
        "checkpoint-chain"
    }

    fn observe(&mut self, output: &Output) {
        let Output::CheckpointInstalled { replica, cluster, round, digest, .. } = output else {
            return;
        };
        match self.digests.get(&(*cluster, *round)) {
            None => {
                self.digests.insert((*cluster, *round), (**digest, *replica));
            }
            Some((first_digest, first_replica)) => {
                if **digest != *first_digest && self.flagged.insert((*cluster, *round)) {
                    self.violations.push(Violation {
                        checker: self.name(),
                        details: format!(
                            "checkpoint digest mismatch at {cluster} round {round}: {replica} \
                             installed {} but {first_replica} installed {}",
                            hex8(digest),
                            hex8(first_digest)
                        ),
                    });
                }
            }
        }
        if let Some(prev) = self.chains.get(replica) {
            if round <= prev {
                self.violations.push(Violation {
                    checker: self.name(),
                    details: format!(
                        "{replica} installed checkpoint for round {round} after round {prev}: \
                         chain must be strictly round-monotonic"
                    ),
                });
            }
        }
        let entry = self.chains.entry(*replica).or_insert(*round);
        *entry = (*entry).max(*round);
    }

    fn violations(&self) -> &[Violation] {
        &self.violations
    }
}

/// Same-round reconfiguration-set agreement: every replica that *executes* round
/// `r` applies the same set of `(replica, cluster, joined)` reconfigurations in
/// it. Reporters that merely transferred the round via catch-up emit no
/// `ReconfigApplied`, so only reporters that also emitted `RoundExecuted` for
/// the round are compared. A joining replica's bootstrap self-report
/// (`joined && replica == reporter` — it learns its own join from the transfer
/// without executing the commit round) is excluded.
#[derive(Default)]
pub struct ReconfigAgreementChecker {
    /// (round, reporter) -> applied set.
    sets: BTreeMap<(Round, ReplicaId), BTreeSet<(u32, u32, bool)>>,
    /// (round, reporter) pairs that executed the round.
    executed: BTreeSet<(Round, ReplicaId)>,
    violations: Vec<Violation>,
}

impl ReconfigAgreementChecker {
    /// A fresh checker.
    pub fn new() -> Self {
        Self::default()
    }
}

impl InvariantChecker for ReconfigAgreementChecker {
    fn name(&self) -> &'static str {
        "reconfig-agreement"
    }

    fn observe(&mut self, output: &Output) {
        match output {
            Output::ReconfigApplied { replica, cluster, joined, round, reporter, .. } => {
                if *joined && replica == reporter {
                    // Bootstrap self-report of a joining replica: it reports its
                    // own join without having executed the commit round.
                    return;
                }
                self.sets
                    .entry((*round, *reporter))
                    .or_default()
                    .insert((replica.0, cluster.0, *joined));
            }
            Output::RoundExecuted { replica, round, .. } => {
                self.executed.insert((*round, *replica));
            }
            _ => {}
        }
    }

    fn finish(&mut self, _end: Time) {
        // Group recorded sets by round, keeping only reporters that executed the
        // round, and compare everyone against the first executor's set. An
        // executor with *no* recorded set applied the empty set — that counts.
        let rounds: BTreeSet<Round> = self.sets.keys().map(|(round, _)| *round).collect();
        for round in rounds {
            let executors: Vec<ReplicaId> = self
                .executed
                .iter()
                .filter(|(r, _)| *r == round)
                .map(|(_, reporter)| *reporter)
                .collect();
            let Some((first, rest)) = executors.split_first() else {
                continue;
            };
            let empty = BTreeSet::new();
            let reference = self.sets.get(&(round, *first)).unwrap_or(&empty);
            for reporter in rest {
                let set = self.sets.get(&(round, *reporter)).unwrap_or(&empty);
                if set != reference {
                    self.violations.push(Violation {
                        checker: self.name(),
                        details: format!(
                            "round {round}: {reporter} applied reconfig set {set:?} but {first} \
                             applied {reference:?}"
                        ),
                    });
                }
            }
        }
    }

    fn violations(&self) -> &[Violation] {
        &self.violations
    }
}

/// Catch-up liveness: every correct replica that restarts eventually completes
/// state-transfer catch-up (`RecoveryCompleted`). A restart too close to the end
/// of the run (within the grace window) is not judged, and a replica crashed
/// again after its restart is forgiven — it is no longer correct.
pub struct CatchUpChecker {
    grace: ava_types::Duration,
    /// replica -> restart time (pending recoveries).
    pending: BTreeMap<ReplicaId, Time>,
    /// Scheduled crash times per replica (for post-restart-crash forgiveness).
    crashes: Vec<(Time, ReplicaId)>,
    violations: Vec<Violation>,
}

impl Default for CatchUpChecker {
    fn default() -> Self {
        Self::new()
    }
}

impl CatchUpChecker {
    /// Default grace window: restarts within 3 s of the run end are not judged.
    pub fn new() -> Self {
        CatchUpChecker {
            grace: ava_types::Duration::from_secs(3),
            pending: BTreeMap::new(),
            crashes: Vec::new(),
            violations: Vec::new(),
        }
    }
}

impl InvariantChecker for CatchUpChecker {
    fn name(&self) -> &'static str {
        "catch-up-liveness"
    }

    fn observe(&mut self, output: &Output) {
        match output {
            Output::ReplicaRestarted { replica, at, .. } => {
                self.pending.insert(*replica, *at);
            }
            Output::RecoveryCompleted { replica, .. } => {
                self.pending.remove(replica);
            }
            _ => {}
        }
    }

    fn scheduled(&mut self, at: Time, event: &ScenarioEvent) {
        if let ScenarioEvent::Crash { replica } = event {
            self.crashes.push((at, *replica));
        }
    }

    fn finish(&mut self, end: Time) {
        for (replica, restarted_at) in &self.pending {
            if *restarted_at + self.grace > end {
                continue; // Too close to the end of the run to judge.
            }
            let crashed_again =
                self.crashes.iter().any(|(at, crashed)| crashed == replica && at > restarted_at);
            if crashed_again {
                continue;
            }
            self.violations.push(Violation {
                checker: self.name(),
                details: format!(
                    "{replica} restarted at {:.1}s but never completed catch-up by the end of \
                     the run ({:.1}s)",
                    restarted_at.as_secs_f64(),
                    end.as_secs_f64()
                ),
            });
        }
    }

    fn violations(&self) -> &[Violation] {
        &self.violations
    }
}

/// Broker-tier conservation: every operation a virtual client is *acked* for
/// exists exactly once in committed state. Three things can break it — a
/// duplicate ack (the broker demultiplexes one commit to the client twice), a
/// duplicate commit (a batch admitted twice, e.g. a retry double-ordered), and a
/// phantom ack (a write acked that no replica ever committed from a batch).
///
/// Fuzz-drawn broker tiers disable batch retries (`retry_timeout` longer than
/// the run): with retries, a resend to a *different* replica can legitimately
/// double-admit (admission dedup is per-replica; the TOB pool's digest dedup
/// still prevents double-apply) and duplicate `BatchOpCommitted` traces are
/// expected. Without retries, the committed trace is exactly-once.
///
/// The phantom-ack check judges virtual-client *write* acks only (reads are
/// acked straight from a `BatchReply` and never produce a commit trace) and
/// only on streams carrying at least one `BatchOpCommitted` — a stream with no
/// batch commits at all is a direct-path run this checker has no business
/// judging.
#[derive(Default)]
pub struct BrokerConservationChecker {
    /// Virtual-client acks seen: tx -> is_write.
    acked: BTreeMap<TxId, bool>,
    /// Batch-op commit traces seen (exactly-once under fuzz tiers).
    committed: BTreeSet<TxId>,
    saw_batch_commits: bool,
    violations: Vec<Violation>,
}

impl BrokerConservationChecker {
    /// A fresh checker.
    pub fn new() -> Self {
        Self::default()
    }
}

impl InvariantChecker for BrokerConservationChecker {
    fn name(&self) -> &'static str {
        "broker-conservation"
    }

    fn observe(&mut self, output: &Output) {
        match output {
            Output::TxCompleted { tx, client, is_write, .. }
                if ava_workload::is_virtual_client(*client) =>
            {
                if self.acked.insert(*tx, *is_write).is_some() {
                    self.violations.push(Violation {
                        checker: self.name(),
                        details: format!("virtual client {client} was acked twice for {tx:?}"),
                    });
                }
            }
            Output::BatchOpCommitted { replica, broker, batch, tx, .. } => {
                self.saw_batch_commits = true;
                if !self.committed.insert(*tx) {
                    self.violations.push(Violation {
                        checker: self.name(),
                        details: format!(
                            "{tx:?} committed twice from a batch ({replica} reporting \
                             {broker}/{batch}) — batch admission must be exactly-once"
                        ),
                    });
                }
            }
            _ => {}
        }
    }

    fn finish(&mut self, _end: Time) {
        if !self.saw_batch_commits {
            return;
        }
        for (tx, is_write) in &self.acked {
            if *is_write && !self.committed.contains(tx) {
                self.violations.push(Violation {
                    checker: self.name(),
                    details: format!(
                        "phantom ack: virtual-client write {tx:?} was acked but never appeared \
                         in committed state"
                    ),
                });
            }
        }
    }

    fn violations(&self) -> &[Violation] {
        &self.violations
    }
}

/// Certificate-validity soundness: honest runs never produce
/// [`Output::ByzantineRejected`] — every emission site sits on a path only
/// forged, tampered or lying artifacts can reach. Rejection evidence emitted
/// before a *forging* corruption
/// ([`ava_scenario::ByzantineBehavior::forges`]) was applied — or on a run
/// whose schedule holds none — means an honest artifact failed verification:
/// a false positive that would poison every adversary experiment built on the
/// evidence stream. A replica that only withholds, replays or stays silent
/// forges nothing, so its corruption justifies no rejection.
#[derive(Default)]
pub struct CertificateValidityChecker {
    first_forging_corrupt: Option<Time>,
    violations: Vec<Violation>,
}

impl CertificateValidityChecker {
    /// A fresh checker.
    pub fn new() -> Self {
        Self::default()
    }
}

impl InvariantChecker for CertificateValidityChecker {
    fn name(&self) -> &'static str {
        "certificate-validity"
    }

    fn observe(&mut self, output: &Output) {
        let Output::ByzantineRejected { replica, round, kind, at, .. } = output else {
            return;
        };
        let justified = self.first_forging_corrupt.is_some_and(|first| *at >= first);
        if !justified {
            self.violations.push(Violation {
                checker: self.name(),
                details: format!(
                    "{replica} rejected a {} artifact at {:.1}s round {round}, but {} — honest \
                     material must never fail verification",
                    kind.label(),
                    at.as_secs_f64(),
                    match self.first_forging_corrupt {
                        None => "no forging corruption was ever scheduled".to_string(),
                        Some(first) => format!(
                            "the first forging corruption applies at {:.1}s",
                            first.as_secs_f64()
                        ),
                    }
                ),
            });
        }
    }

    fn scheduled(&mut self, at: Time, event: &ScenarioEvent) {
        if let ScenarioEvent::Corrupt { behavior, .. } = event {
            if behavior.forges() {
                self.first_forging_corrupt =
                    Some(self.first_forging_corrupt.map_or(at, |f| f.min(at)));
            }
        }
    }

    fn violations(&self) -> &[Violation] {
        &self.violations
    }
}

/// Equivocation-exposure soundness: [`Output::EquivocationObserved`] must carry
/// genuinely conflicting contents (`first != second`) and must only appear
/// after a *package-mutating* corruption
/// ([`ava_scenario::ByzantineBehavior::mutates_packages`]) was applied —
/// suppression, stale replay, BRD forgery and lying catch-up never produce
/// conflicting same-slot packages, so evidence under those schedules is a
/// false accusation.
#[derive(Default)]
pub struct EquivocationExposureChecker {
    first_mutating_corrupt: Option<Time>,
    violations: Vec<Violation>,
}

impl EquivocationExposureChecker {
    /// A fresh checker.
    pub fn new() -> Self {
        Self::default()
    }
}

impl InvariantChecker for EquivocationExposureChecker {
    fn name(&self) -> &'static str {
        "equivocation-exposure"
    }

    fn observe(&mut self, output: &Output) {
        let Output::EquivocationObserved { replica, round, first, second, at, .. } = output else {
            return;
        };
        if first == second {
            self.violations.push(Violation {
                checker: self.name(),
                details: format!(
                    "{replica} reported an equivocation at {:.1}s round {round} with identical \
                     digests — same-content packages are not an equivocation",
                    at.as_secs_f64()
                ),
            });
            return;
        }
        let justified = self.first_mutating_corrupt.is_some_and(|f| *at >= f);
        if !justified {
            self.violations.push(Violation {
                checker: self.name(),
                details: format!(
                    "{replica} exposed an equivocation at {:.1}s round {round}, but no \
                     package-mutating corruption was active — honest replicas never ship \
                     conflicting packages for one slot",
                    at.as_secs_f64()
                ),
            });
        }
    }

    fn scheduled(&mut self, at: Time, event: &ScenarioEvent) {
        if let ScenarioEvent::Corrupt { behavior, .. } = event {
            if behavior.mutates_packages() {
                self.first_mutating_corrupt =
                    Some(self.first_mutating_corrupt.map_or(at, |f| f.min(at)));
            }
        }
    }

    fn violations(&self) -> &[Violation] {
        &self.violations
    }
}

/// The full checker suite, usable as one [`RunObserver`] (wire it into
/// `Scenario::run_observed`) or offline via [`CheckerSet::replay`].
pub struct CheckerSet {
    checkers: Vec<Box<dyn InvariantChecker>>,
    end: Time,
}

impl Default for CheckerSet {
    fn default() -> Self {
        Self::standard()
    }
}

impl CheckerSet {
    /// The standard always-on suite: execution agreement, prefix, checkpoint
    /// chain, reconfig-set agreement, catch-up liveness, broker conservation,
    /// certificate validity, equivocation exposure.
    pub fn standard() -> Self {
        CheckerSet {
            checkers: vec![
                Box::new(ExecutionAgreementChecker::new()),
                Box::new(PrefixChecker::new()),
                Box::new(CheckpointChecker::new()),
                Box::new(ReconfigAgreementChecker::new()),
                Box::new(CatchUpChecker::new()),
                Box::new(BrokerConservationChecker::new()),
                Box::new(CertificateValidityChecker::new()),
                Box::new(EquivocationExposureChecker::new()),
            ],
            end: Time::ZERO,
        }
    }

    /// A set holding exactly `checkers`.
    pub fn new(checkers: Vec<Box<dyn InvariantChecker>>) -> Self {
        CheckerSet { checkers, end: Time::ZERO }
    }

    /// Names of the standard checkers, in evaluation order.
    pub fn standard_names() -> Vec<&'static str> {
        Self::standard().checkers.iter().map(|c| c.name()).collect()
    }

    /// All violations recorded so far, in checker order then detection order.
    pub fn violations(&self) -> Vec<Violation> {
        self.checkers.iter().flat_map(|c| c.violations().iter().cloned()).collect()
    }

    /// Replay a recorded stream through a fresh standard suite: feed every
    /// scheduled event, then every output in order, then finish at `end`.
    /// This is how the canary suite judges doctored output streams offline.
    pub fn replay(
        outputs: &[Output],
        events: &[(Time, ScenarioEvent)],
        end: Time,
    ) -> Vec<Violation> {
        let mut set = Self::standard();
        for (at, event) in events {
            for checker in &mut set.checkers {
                checker.scheduled(*at, event);
            }
        }
        for output in outputs {
            for checker in &mut set.checkers {
                checker.observe(output);
            }
        }
        for checker in &mut set.checkers {
            checker.finish(end);
        }
        set.violations()
    }
}

impl RunObserver for CheckerSet {
    fn on_output(&mut self, output: &Output) {
        for checker in &mut self.checkers {
            checker.observe(output);
        }
    }

    fn on_event(&mut self, at: Time, event: &ScenarioEvent) {
        for checker in &mut self.checkers {
            checker.scheduled(at, event);
        }
    }

    fn on_end(&mut self, dep: &dyn DynDeployment) {
        self.end = dep.now();
        for checker in &mut self.checkers {
            checker.finish(self.end);
        }
    }
}

fn hex8(digest: &[u8; 32]) -> String {
    digest[..4].iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ava_types::{ClusterId, Duration};

    fn executed(replica: u32, round: u64, txns: usize) -> Output {
        Output::RoundExecuted {
            replica: ReplicaId(replica),
            cluster: ClusterId(0),
            round: Round(round),
            txns,
            at: Time::from_millis(round * 100),
        }
    }

    fn checkpoint(replica: u32, round: u64, digest: [u8; 32]) -> Output {
        Output::CheckpointInstalled {
            replica: ReplicaId(replica),
            cluster: ClusterId(0),
            round: Round(round),
            digest: Box::new(digest),
            adopted: false,
            at: Time::from_millis(round * 100),
        }
    }

    fn feed(checker: &mut dyn InvariantChecker, outputs: &[Output]) {
        for o in outputs {
            checker.observe(o);
        }
        checker.finish(Time::from_secs(60));
    }

    fn state_digest(replica: u32, round: u64, digest: [u8; 32]) -> Output {
        Output::StateDigest {
            replica: ReplicaId(replica),
            cluster: ClusterId(0),
            round: Round(round),
            digest: Box::new(digest),
            entries: 10,
            value_bytes: 1_000,
            at: Time::from_millis(round * 100),
        }
    }

    #[test]
    fn execution_agreement_flags_divergent_state_digests_once_per_round() {
        let mut c = ExecutionAgreementChecker::new();
        feed(
            &mut c,
            &[
                // Identical txn counts everywhere: the legacy arm stays quiet.
                executed(0, 1, 20),
                executed(1, 1, 20),
                state_digest(0, 1, [1; 32]),
                state_digest(1, 1, [1; 32]),
                state_digest(2, 1, [2; 32]),
                state_digest(3, 1, [3; 32]),
            ],
        );
        assert_eq!(c.violations().len(), 1, "one violation per divergent round");
        assert!(c.violations()[0].details.contains("state digest"));
        let mut ok = ExecutionAgreementChecker::new();
        feed(&mut ok, &[state_digest(0, 1, [1; 32]), state_digest(1, 1, [1; 32])]);
        assert!(ok.violations().is_empty(), "agreeing digests must not fire");
    }

    #[test]
    fn execution_agreement_flags_divergent_txn_counts_once_per_round() {
        let mut c = ExecutionAgreementChecker::new();
        feed(
            &mut c,
            &[executed(0, 1, 20), executed(1, 1, 20), executed(2, 1, 21), executed(3, 1, 22)],
        );
        assert_eq!(c.violations().len(), 1, "one violation per divergent round");
        assert!(c.violations()[0].details.contains("round r1"));
    }

    #[test]
    fn prefix_checker_flags_duplicates_but_forgives_restarts() {
        let mut c = PrefixChecker::new();
        feed(&mut c, &[executed(0, 1, 20), executed(0, 2, 20), executed(0, 2, 20)]);
        assert_eq!(c.violations().len(), 1);

        // Gaps are fine (catch-up transfers rounds without executing them)...
        let mut c = PrefixChecker::new();
        feed(&mut c, &[executed(0, 1, 20), executed(0, 7, 20)]);
        assert!(c.violations().is_empty());

        // ...and a restart resets the cursor.
        let mut c = PrefixChecker::new();
        c.observe(&executed(0, 5, 20));
        c.observe(&Output::ReplicaRestarted {
            replica: ReplicaId(0),
            cluster: ClusterId(0),
            recovered_round: Round(4),
            log_rounds_replayed: 1,
            at: Time::from_secs(2),
        });
        c.observe(&executed(0, 5, 20));
        assert!(c.violations().is_empty(), "re-execution across a restart is legitimate");
    }

    #[test]
    fn checkpoint_checker_flags_digest_mismatch_and_non_monotonic_chains() {
        let mut c = CheckpointChecker::new();
        feed(&mut c, &[checkpoint(0, 4, [1; 32]), checkpoint(1, 4, [2; 32])]);
        assert_eq!(c.violations().len(), 1);
        assert!(c.violations()[0].details.contains("digest mismatch"));

        let mut c = CheckpointChecker::new();
        feed(&mut c, &[checkpoint(0, 8, [1; 32]), checkpoint(0, 4, [2; 32])]);
        assert!(
            c.violations().iter().any(|v| v.details.contains("strictly round-monotonic")),
            "stale install must be flagged"
        );
    }

    #[test]
    fn reconfig_checker_compares_executors_and_skips_bootstrap_self_reports() {
        let rec = |replica: u32, reporter: u32, joined: bool| Output::ReconfigApplied {
            replica: ReplicaId(replica),
            cluster: ClusterId(0),
            joined,
            round: Round(3),
            at: Time::from_secs(1),
            reporter: ReplicaId(reporter),
        };
        // Two executors applying the same set, plus the joiner's bootstrap
        // self-report: no violation.
        let mut c = ReconfigAgreementChecker::new();
        feed(
            &mut c,
            &[
                rec(9, 0, true),
                rec(9, 1, true),
                rec(9, 9, true),
                executed(0, 3, 20),
                executed(1, 3, 20),
            ],
        );
        assert!(c.violations().is_empty());

        // Executor 1 misses the reconfig: violation.
        let mut c = ReconfigAgreementChecker::new();
        feed(&mut c, &[rec(9, 0, true), executed(0, 3, 20), executed(1, 3, 20)]);
        assert_eq!(c.violations().len(), 1);

        // A non-executor (catch-up transfer) with a different set: no violation.
        let mut c = ReconfigAgreementChecker::new();
        feed(&mut c, &[rec(9, 0, true), rec(8, 2, false), executed(0, 3, 20)]);
        assert!(c.violations().is_empty());
    }

    #[test]
    fn catch_up_checker_flags_stuck_recovery_with_grace_and_forgiveness() {
        let restarted = |replica: u32, at_s: u64| Output::ReplicaRestarted {
            replica: ReplicaId(replica),
            cluster: ClusterId(0),
            recovered_round: Round(0),
            log_rounds_replayed: 0,
            at: Time::from_secs(at_s),
        };
        // Stuck recovery well before the end: violation.
        let mut c = CatchUpChecker::new();
        c.observe(&restarted(3, 4));
        c.finish(Time::from_secs(20));
        assert_eq!(c.violations().len(), 1);

        // Completed recovery: clean.
        let mut c = CatchUpChecker::new();
        c.observe(&restarted(3, 4));
        c.observe(&Output::RecoveryCompleted {
            replica: ReplicaId(3),
            cluster: ClusterId(0),
            round: Round(9),
            rounds_transferred: 5,
            bytes_transferred: 1000,
            at: Time::from_secs(6),
        });
        c.finish(Time::from_secs(20));
        assert!(c.violations().is_empty());

        // Restart within the grace window of the end: not judged.
        let mut c = CatchUpChecker::new();
        c.observe(&restarted(3, 18));
        c.finish(Time::from_secs(20));
        assert!(c.violations().is_empty());

        // Crashed again after the restart: forgiven.
        let mut c = CatchUpChecker::new();
        c.scheduled(Time::from_secs(6), &ScenarioEvent::Crash { replica: ReplicaId(3) });
        c.observe(&restarted(3, 4));
        c.finish(Time::from_secs(20));
        assert!(c.violations().is_empty());
        let _ = Duration::from_secs(1);
    }

    #[test]
    fn standard_set_has_eight_named_checkers() {
        let names = CheckerSet::standard_names();
        assert_eq!(
            names,
            vec![
                "execution-agreement",
                "prefix",
                "checkpoint-chain",
                "reconfig-agreement",
                "catch-up-liveness",
                "broker-conservation",
                "certificate-validity",
                "equivocation-exposure"
            ]
        );
    }

    fn rejected(at_s: u64) -> Output {
        Output::ByzantineRejected {
            replica: ReplicaId(2),
            cluster: ClusterId(0),
            round: Round(5),
            kind: ava_types::RejectKind::PackageCert,
            at: Time::from_secs(at_s),
        }
    }

    fn equivocation(at_s: u64, first: [u8; 32], second: [u8; 32]) -> Output {
        Output::EquivocationObserved {
            replica: ReplicaId(2),
            cluster: ClusterId(0),
            round: Round(5),
            first: Box::new(first),
            second: Box::new(second),
            at: Time::from_secs(at_s),
        }
    }

    fn corrupt_event(behavior: ava_scenario::ByzantineBehavior) -> ScenarioEvent {
        ScenarioEvent::Corrupt { replica: ReplicaId(1), behavior }
    }

    #[test]
    fn certificate_validity_flags_unjustified_rejections() {
        use ava_scenario::ByzantineBehavior;
        // Rejection with no Corrupt scheduled at all: violation.
        let mut c = CertificateValidityChecker::new();
        feed(&mut c, &[rejected(5)]);
        assert_eq!(c.violations().len(), 1);
        assert!(c.violations()[0].details.contains("no forging corruption was ever scheduled"));

        // Rejection before the first corruption applies: violation.
        let mut c = CertificateValidityChecker::new();
        c.scheduled(Time::from_secs(8), &corrupt_event(ByzantineBehavior::InvalidCert));
        feed(&mut c, &[rejected(5)]);
        assert_eq!(c.violations().len(), 1);
        assert!(c.violations()[0].details.contains("first forging corruption applies at 8.0s"));

        // Rejection after the corruption: justified.
        let mut c = CertificateValidityChecker::new();
        c.scheduled(Time::from_secs(2), &corrupt_event(ByzantineBehavior::InvalidCert));
        feed(&mut c, &[rejected(5)]);
        assert!(c.violations().is_empty());
    }

    #[test]
    fn certificate_validity_needs_a_forging_corruption() {
        use ava_scenario::ByzantineBehavior;
        // A replica that withholds, replays or stays silent (`SuppressShares`,
        // `StaleCert`, `MuteInter`, `SilentLeader`) sends nothing an honest
        // receiver could reject, so its corruption justifies nothing.
        for behavior in ByzantineBehavior::ALL {
            let mut c = CertificateValidityChecker::new();
            c.scheduled(Time::from_secs(2), &corrupt_event(behavior));
            feed(&mut c, &[rejected(5)]);
            assert_eq!(c.violations().is_empty(), behavior.forges(), "{behavior:?}");
        }
    }

    #[test]
    fn equivocation_exposure_requires_conflict_and_a_mutating_corruption() {
        use ava_scenario::ByzantineBehavior;
        // Identical digests are never an equivocation, corruption or not.
        let mut c = EquivocationExposureChecker::new();
        c.scheduled(Time::from_secs(2), &corrupt_event(ByzantineBehavior::EquivocateLocal));
        feed(&mut c, &[equivocation(5, [7; 32], [7; 32])]);
        assert_eq!(c.violations().len(), 1);
        assert!(c.violations()[0].details.contains("identical digests"));

        // A non-package-mutating corruption cannot justify the evidence.
        let mut c = EquivocationExposureChecker::new();
        c.scheduled(
            Time::from_secs(2),
            &corrupt_event(ByzantineBehavior::SuppressShares { permille: 500 }),
        );
        feed(&mut c, &[equivocation(5, [1; 32], [2; 32])]);
        assert_eq!(c.violations().len(), 1);
        assert!(c.violations()[0].details.contains("no package-mutating corruption"));

        // Conflicting digests after a mutating corruption: sound evidence.
        let mut c = EquivocationExposureChecker::new();
        c.scheduled(Time::from_secs(2), &corrupt_event(ByzantineBehavior::EquivocateLocal));
        feed(&mut c, &[equivocation(5, [1; 32], [2; 32])]);
        assert!(c.violations().is_empty());
    }

    fn virtual_ack(client: u32, seq: u64, is_write: bool) -> Output {
        let client = ava_types::ClientId(ava_workload::VIRTUAL_CLIENT_BASE + client);
        Output::TxCompleted {
            tx: ava_types::TxId { client, seq },
            client,
            cluster: ClusterId(0),
            issued_at: Time::from_millis(10),
            completed_at: Time::from_millis(60),
            is_write,
        }
    }

    fn batch_committed(client: u32, seq: u64) -> Output {
        Output::BatchOpCommitted {
            replica: ReplicaId(0),
            cluster: ClusterId(0),
            broker: ReplicaId(2_000_000),
            batch: 1,
            tx: ava_types::TxId {
                client: ava_types::ClientId(ava_workload::VIRTUAL_CLIENT_BASE + client),
                seq,
            },
            at: Time::from_millis(50),
        }
    }

    #[test]
    fn broker_conservation_passes_a_balanced_stream() {
        let mut c = BrokerConservationChecker::new();
        feed(
            &mut c,
            &[
                batch_committed(0, 0),
                virtual_ack(0, 0, true),
                virtual_ack(1, 0, false), // read: acked without a commit trace
            ],
        );
        assert!(c.violations().is_empty(), "{:?}", c.violations());
    }

    #[test]
    fn broker_conservation_flags_duplicate_acks_and_commits() {
        let mut c = BrokerConservationChecker::new();
        feed(&mut c, &[batch_committed(0, 0), virtual_ack(0, 0, true), virtual_ack(0, 0, true)]);
        assert_eq!(c.violations().len(), 1);
        assert!(c.violations()[0].details.contains("acked twice"));

        let mut c = BrokerConservationChecker::new();
        feed(&mut c, &[batch_committed(0, 0), batch_committed(0, 0), virtual_ack(0, 0, true)]);
        assert_eq!(c.violations().len(), 1);
        assert!(c.violations()[0].details.contains("committed twice"));
    }

    #[test]
    fn broker_conservation_flags_phantom_write_acks_only_with_batch_material() {
        // A write acked with no commit trace, on a stream that has batch
        // commits: phantom.
        let mut c = BrokerConservationChecker::new();
        feed(&mut c, &[batch_committed(0, 0), virtual_ack(1, 3, true)]);
        assert_eq!(c.violations().len(), 1);
        assert!(c.violations()[0].details.contains("phantom ack"));

        // The same ack on a stream with no BatchOpCommitted at all (direct
        // path): not judged.
        let mut c = BrokerConservationChecker::new();
        feed(&mut c, &[virtual_ack(1, 3, true)]);
        assert!(c.violations().is_empty());

        // Real (non-virtual) client acks are never judged.
        let mut c = BrokerConservationChecker::new();
        let real = Output::TxCompleted {
            tx: ava_types::TxId { client: ava_types::ClientId(3), seq: 1 },
            client: ava_types::ClientId(3),
            cluster: ClusterId(0),
            issued_at: Time::from_millis(10),
            completed_at: Time::from_millis(60),
            is_write: true,
        };
        feed(&mut c, &[batch_committed(0, 0), real]);
        assert!(c.violations().is_empty());
    }
}

//! Evidence-driven package relay for stage 2, and the stash of packages that
//! arrived a round early.
//!
//! Alg. 1 sends a round package once, leader to `f + 1` remote replicas. If the
//! link between two clusters drops it, nothing re-sends it: both clusters — and
//! every cluster waiting on them — sit until a `remote_leader_timeout` fires.
//! With three or more clusters the package is usually *not* lost, only out of
//! reach: a third cluster received it. [`Relay`] lets a replica fetch it from
//! there, triggered by evidence rather than a clock:
//!
//! * **The rule.** A replica still in round `r` that receives a verified `Inter`
//!   for a round above `r` from a member of cluster `k` holds proof that `k`
//!   executed round `r` (a correct member sends round `r + 1` only after
//!   executing `r`), hence that the sender holds *every* round-`r` package. The
//!   replica asks that sender for each package it still misses
//!   ([`Relay::on_future_package`]) — never its own cluster's, never `k`'s own
//!   (the sender is the party that owes that one; if it is withholding it, asking
//!   again changes nothing), and once per `(round, cluster, sender)`.
//! * **Serving.** Clusters are never more than one round apart — `k` cannot
//!   execute `r + 1` without the requester's round-`r + 1` package — so the
//!   packages of the round a replica *just executed* are all a requester can
//!   need. [`Relay::on_round_executed`] keeps that one map (`Arc`s, no copy) and
//!   [`Relay::on_pull`] answers from it, each `(requester, round, cluster)` at
//!   most once. The caller sends the answer as an ordinary `Inter`, so it is
//!   certificate-checked and locally shared exactly like a leader's own send: a
//!   Byzantine server gains nothing that withholding an `Inter` does not already
//!   give it.
//! * **No timer.** Nothing here retransmits. With two clusters there is no third
//!   party, under total isolation no `Inter` arrives to prove anything, and a
//!   sender that proves it is ahead and then refuses to serve is silent: in all
//!   three nothing fires and the remote-leader-change path
//!   ([`crate::remote_leader`]) runs as it always did.
//!
//! The same struct owns the stash of early packages ([`Relay::stash`]): one entry
//! per `(round, cluster)`, inside the window the BRD stash uses, so neither the
//! `f + 1` honest copies of a package nor a Byzantine member naming far-future
//! rounds can grow it.

use crate::messages::RoundPackage;
use ava_types::{ClusterId, ReplicaId, Round};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// How many rounds ahead of the current one early traffic (BRD messages,
/// packages) is stashed for replay. Healthy skews are a round or two; the window
/// bounds the stashes and keeps a forged far-future round number from lingering
/// as fake straggler evidence.
pub const FUTURE_WINDOW: u64 = 8;

/// Whether `round` is close enough ahead of `current` to be stashed.
pub(crate) fn in_window(current: Round, round: Round) -> bool {
    round.0 <= current.0 + FUTURE_WINDOW
}

/// Pack a relay event into the one `f64` an `Output::Custom` carries:
/// `round · 10⁹ + cluster · 10⁶ + peer` (exact while `round < 9 · 10⁶`; `peer` is
/// the replica asked for `package_pulled`, the requester for `package_served`).
pub fn trace_value(round: Round, cluster: ClusterId, peer: ReplicaId) -> f64 {
    (round.0 * 1_000_000_000
        + u64::from(cluster.0 % 1_000) * 1_000_000
        + u64::from(peer.0) % 1_000_000) as f64
}

/// The inverse of [`trace_value`].
pub fn decode_trace_value(value: f64) -> (Round, ClusterId, ReplicaId) {
    let v = value as u64;
    (
        Round(v / 1_000_000_000),
        ClusterId((v / 1_000_000 % 1_000) as u32),
        ReplicaId((v % 1_000_000) as u32),
    )
}

/// The content digests `(held, new)` of two packages for one `(cluster, round)`
/// slot if they say different things — equivocation evidence — else `None`.
/// Honest duplicates share the originating leader's single `Arc` through every
/// fan-out, so pointer equality is the (free) common case.
pub(crate) fn conflict(
    held: &Arc<RoundPackage>,
    new: &Arc<RoundPackage>,
) -> Option<([u8; 32], [u8; 32])> {
    if Arc::ptr_eq(held, new) {
        return None;
    }
    let digests = (held.content_digest(), new.content_digest());
    (digests.0 != digests.1).then_some(digests)
}

/// Sans-I/O relay state of one replica: the caller sends, verifies and reports;
/// the relay only decides.
#[derive(Debug)]
pub struct Relay {
    own: ClusterId,
    /// The round last executed here with the packages it consumed — everything
    /// [`Relay::on_pull`] can serve.
    executed: Option<(Round, BTreeMap<ClusterId, Arc<RoundPackage>>)>,
    /// Pulls already sent, as `(round, cluster, asked)`.
    pulled: BTreeSet<(Round, ClusterId, ReplicaId)>,
    /// Pulls already answered for the executed round, as `(requester, cluster)`.
    served: BTreeSet<(ReplicaId, ClusterId)>,
    /// Packages that arrived for rounds not reached yet (a remote cluster can be
    /// one round ahead), replayed by [`Relay::take_stashed`].
    stashed: BTreeMap<(Round, ClusterId), Arc<RoundPackage>>,
    /// Packages this replica verified and shared with its cluster on receiving
    /// them as an `Inter`, by slot: a repeat is not paid for twice.
    shared: BTreeMap<(Round, ClusterId), Arc<RoundPackage>>,
}

impl Relay {
    /// The relay of a replica of cluster `own`.
    pub fn new(own: ClusterId) -> Self {
        Relay {
            own,
            executed: None,
            pulled: BTreeSet::new(),
            served: BTreeSet::new(),
            stashed: BTreeMap::new(),
            shared: BTreeMap::new(),
        }
    }

    /// A verified package of `its_cluster` for a round above `current` arrived
    /// as an `Inter` from `from`, a member of that cluster, while this replica is
    /// in round `current` and lacks the packages of the clusters in `missing`.
    /// Returns the clusters whose round-`current` package to ask `from` for.
    pub fn on_future_package(
        &mut self,
        current: Round,
        from: ReplicaId,
        its_cluster: ClusterId,
        missing: impl IntoIterator<Item = ClusterId>,
    ) -> Vec<ClusterId> {
        missing
            .into_iter()
            .filter(|&cluster| cluster != self.own && cluster != its_cluster)
            .filter(|&cluster| self.pulled.insert((current, cluster, from)))
            .collect()
    }

    /// `from` (a system member — the caller checks) asks for `cluster`'s package
    /// of `round`. Answered from the just-executed round only, and once.
    pub fn on_pull(
        &mut self,
        from: ReplicaId,
        round: Round,
        cluster: ClusterId,
    ) -> Option<Arc<RoundPackage>> {
        let (executed, packages) = self.executed.as_ref()?;
        if *executed != round {
            return None;
        }
        let package = packages.get(&cluster)?;
        self.served.insert((from, cluster)).then(|| Arc::clone(package))
    }

    /// Round `round` executed over `packages`: they replace the previous round's
    /// as what is served, and the bookkeeping of older rounds goes.
    pub fn on_round_executed(
        &mut self,
        round: Round,
        packages: BTreeMap<ClusterId, Arc<RoundPackage>>,
    ) {
        self.executed = Some((round, packages));
        self.served.clear();
        self.pulled.retain(|(pulled, _, _)| *pulled > round);
        self.shared = self.shared.split_off(&(round.next(), ClusterId(0)));
    }

    /// This cluster's own package of the round last executed here: what a new
    /// leader re-sends for the previous round (Alg. 8 line 17).
    pub fn executed_own(&self) -> Option<&Arc<RoundPackage>> {
        self.executed.as_ref().and_then(|(_, packages)| packages.get(&self.own))
    }

    /// The package already verified and shared for this slot, if any.
    pub fn shared(&self, round: Round, cluster: ClusterId) -> Option<&Arc<RoundPackage>> {
        self.shared.get(&(round, cluster))
    }

    /// `package` arrived as an `Inter`, verified, and is being shared with the
    /// cluster. Rounds beyond [`FUTURE_WINDOW`] of `current` are not recorded
    /// (a repeat of those is paid for again; the map stays bounded).
    pub fn on_shared(&mut self, current: Round, package: Arc<RoundPackage>) {
        if in_window(current, package.round) {
            self.shared.insert((package.round, package.cluster), package);
        }
    }

    /// Park a package that arrived before its round (`package.round > current`).
    /// One entry per `(round, cluster)`; rounds beyond [`FUTURE_WINDOW`] are
    /// refused. A second package with *different* content for an occupied slot
    /// is equivocation evidence, returned as the two content digests (held,
    /// new). Stashed packages are not verified until their round starts, so a
    /// forged first arrival must not shut the genuine package out: on a conflict
    /// the newcomer takes the slot iff it passes `verify` and the holder does not.
    pub fn stash(
        &mut self,
        current: Round,
        package: Arc<RoundPackage>,
        verify: impl Fn(&RoundPackage) -> bool,
    ) -> Option<([u8; 32], [u8; 32])> {
        if !in_window(current, package.round) {
            return None;
        }
        let key = (package.round, package.cluster);
        let Some(held) = self.stashed.get(&key) else {
            self.stashed.insert(key, package);
            return None;
        };
        let evidence = conflict(held, &package)?;
        if !verify(held) && verify(&package) {
            self.stashed.insert(key, package);
        }
        Some(evidence)
    }

    /// Round `round` starts: hand back what was stashed for it (ascending by
    /// cluster) and drop anything older.
    pub fn take_stashed(&mut self, round: Round) -> Vec<Arc<RoundPackage>> {
        let later = self.stashed.split_off(&(round.next(), ClusterId(0)));
        let due = std::mem::replace(&mut self.stashed, later);
        due.into_iter().filter(|((r, _), _)| *r == round).map(|(_, package)| package).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ava_types::Reconfig;
    use proptest::prelude::*;

    const OWN: ClusterId = ClusterId(1);

    /// A package of `cluster` for `round`; `salt` varies the content.
    fn package(cluster: u32, round: u64, salt: u32) -> Arc<RoundPackage> {
        let recs = (0..salt).map(|i| Reconfig::Leave { replica: ReplicaId(1_000 + i) }).collect();
        Arc::new(RoundPackage::new(ClusterId(cluster), Round(round), vec![], recs, None))
    }

    fn executed(round: u64, clusters: u32) -> BTreeMap<ClusterId, Arc<RoundPackage>> {
        (0..clusters).map(|c| (ClusterId(c), package(c, round, 0))).collect()
    }

    fn clusters(n: u32) -> impl Iterator<Item = ClusterId> {
        (0..n).map(ClusterId)
    }

    #[test]
    fn a_pull_asks_the_sender_once_for_what_is_missing_and_not_its_own() {
        let mut relay = Relay::new(OWN);
        let sender = ReplicaId(0);
        // Everything is missing, own package included (stage 1 still open):
        // neither ours nor the sender's is asked for.
        let pulls = relay.on_future_package(Round(5), sender, ClusterId(0), clusters(4));
        assert_eq!(pulls, vec![ClusterId(2), ClusterId(3)]);
        // The same evidence again (a re-send): nothing new to ask this sender.
        assert!(relay.on_future_package(Round(5), sender, ClusterId(0), clusters(4)).is_empty());
        // Another member of that cluster is another chance.
        let pulls = relay.on_future_package(Round(5), ReplicaId(1), ClusterId(0), clusters(4));
        assert_eq!(pulls, vec![ClusterId(2), ClusterId(3)]);
        // Evidence from cluster 2 names cluster 0's package, not cluster 2's.
        let pulls = relay.on_future_package(Round(5), ReplicaId(9), ClusterId(2), clusters(4));
        assert_eq!(pulls, vec![ClusterId(0), ClusterId(3)]);
        // Nothing missing, nothing asked.
        assert!(relay.on_future_package(Round(5), ReplicaId(2), ClusterId(0), []).is_empty());
        // The next round starts from a clean slate.
        relay.on_round_executed(Round(5), executed(5, 4));
        assert!(relay.pulled.is_empty());
        let pulls = relay.on_future_package(Round(6), sender, ClusterId(0), [ClusterId(3)]);
        assert_eq!(pulls, vec![ClusterId(3)]);
    }

    #[test]
    fn a_thousand_pulls_from_one_node_get_one_reply_and_grow_nothing() {
        let mut relay = Relay::new(OWN);
        let greedy = ReplicaId(8);
        // Before anything executed there is nothing to serve.
        assert!(relay.on_pull(greedy, Round(1), ClusterId(0)).is_none());
        relay.on_round_executed(Round(7), executed(7, 3));
        let mut replies = 0;
        for i in 0..1_000u64 {
            // Repeats of the one servable request, and requests out of range:
            // other rounds (past, current, far future) and unknown clusters.
            let (round, cluster) = match i % 4 {
                0 => (Round(7), ClusterId(2)),
                1 => (Round(i), ClusterId(2)),
                2 => (Round(8), ClusterId(0)),
                _ => (Round(7), ClusterId(3 + i as u32)),
            };
            replies += usize::from(relay.on_pull(greedy, round, cluster).is_some());
        }
        assert_eq!(replies, 1);
        assert_eq!(relay.served.len(), 1, "refused requests leave no trace");
        // A different package is a different request; a different requester too.
        assert!(relay.on_pull(greedy, Round(7), ClusterId(0)).is_some());
        assert!(relay.on_pull(ReplicaId(9), Round(7), ClusterId(2)).is_some());
    }

    #[test]
    fn nothing_is_retained_beyond_one_executed_round() {
        let mut relay = Relay::new(OWN);
        relay.on_round_executed(Round(3), executed(3, 3));
        relay.on_future_package(Round(4), ReplicaId(0), ClusterId(0), clusters(3));
        relay.on_shared(Round(4), package(0, 4, 0));
        relay.on_shared(Round(4), package(0, 5, 0));
        assert!(relay.on_pull(ReplicaId(8), Round(3), ClusterId(2)).is_some());
        relay.on_round_executed(Round(4), executed(4, 3));
        // Round 3 is gone: its packages, who was served, what was pulled and
        // shared for rounds up to the one executed.
        assert!(relay.on_pull(ReplicaId(9), Round(3), ClusterId(2)).is_none());
        assert_eq!(relay.executed.as_ref().map(|(round, _)| *round), Some(Round(4)));
        assert!(relay.served.is_empty() && relay.pulled.is_empty());
        assert!(relay.shared(Round(4), ClusterId(0)).is_none());
        assert!(relay.shared(Round(5), ClusterId(0)).is_some());
        // The served package is the very allocation that executed.
        let mine = relay.on_pull(ReplicaId(9), Round(4), ClusterId(2)).expect("served");
        assert!(Arc::ptr_eq(&mine, &relay.executed.as_ref().expect("kept").1[&ClusterId(2)]));
    }

    #[test]
    fn the_stash_keeps_one_package_per_slot_inside_the_window() {
        let mut relay = Relay::new(OWN);
        let current = Round(10);
        let genuine = package(2, 11, 0);
        // f + 1 honest copies — the same `Arc`, or an equal one rebuilt from the
        // wire — are one entry and no evidence.
        for copy in [Arc::clone(&genuine), Arc::clone(&genuine), package(2, 11, 0)] {
            assert!(relay.stash(current, copy, |_| true).is_none());
        }
        assert_eq!(relay.stashed.len(), 1);
        // Different content for the slot is equivocation evidence; the holder
        // stays when it verifies.
        let forged = package(2, 11, 1);
        let evidence = relay.stash(current, Arc::clone(&forged), |_| true);
        assert_eq!(evidence, Some((genuine.content_digest(), forged.content_digest())));
        assert!(Arc::ptr_eq(&relay.stashed[&(Round(11), ClusterId(2))], &genuine));
        // A Byzantine member naming far-future rounds parks nothing.
        for round in (11 + FUTURE_WINDOW)..(11 + FUTURE_WINDOW + 1_000) {
            assert!(relay.stash(current, package(2, round, 0), |_| true).is_none());
        }
        assert!(relay.stash(current, package(0, 10 + FUTURE_WINDOW, 0), |_| true).is_none());
        assert_eq!(relay.stashed.len(), 2);
        // A round's packages come back ascending by cluster, older ones are
        // dropped, later ones stay.
        relay.stash(current, package(0, 11, 0), |_| true);
        relay.stash(current, package(0, 12, 0), |_| true);
        let due = relay.take_stashed(Round(12));
        assert_eq!(
            due.iter().map(|p| (p.round, p.cluster)).collect::<Vec<_>>(),
            vec![(Round(12), ClusterId(0))]
        );
        assert_eq!(relay.stashed.keys().collect::<Vec<_>>(), vec![&(Round(18), ClusterId(0))]);
    }

    #[test]
    fn a_forged_first_arrival_does_not_shut_the_genuine_package_out() {
        let mut relay = Relay::new(OWN);
        let (forged, genuine) = (package(2, 11, 1), package(2, 11, 0));
        let verifies = |p: &RoundPackage| p.recs.is_empty();
        assert!(relay.stash(Round(10), Arc::clone(&forged), verifies).is_none());
        assert!(relay.stash(Round(10), Arc::clone(&genuine), verifies).is_some());
        assert!(Arc::ptr_eq(&relay.take_stashed(Round(11))[0], &genuine));
        // Neither verifying (a membership not reached yet): first come stays.
        relay.stash(Round(10), Arc::clone(&forged), |_| false);
        relay.stash(Round(10), Arc::clone(&genuine), |_| false);
        assert!(Arc::ptr_eq(&relay.take_stashed(Round(11))[0], &forged));
    }

    #[test]
    fn shared_slots_are_remembered_inside_the_window_only() {
        let mut relay = Relay::new(OWN);
        relay.on_shared(Round(10), package(2, 10, 0));
        relay.on_shared(Round(10), package(2, 10 + FUTURE_WINDOW, 0));
        relay.on_shared(Round(10), package(2, 11 + FUTURE_WINDOW, 0));
        assert!(relay.shared(Round(10), ClusterId(2)).is_some());
        assert!(relay.shared(Round(10 + FUTURE_WINDOW), ClusterId(2)).is_some());
        assert!(relay.shared(Round(11 + FUTURE_WINDOW), ClusterId(2)).is_none());
        assert!(relay.shared(Round(10), ClusterId(0)).is_none());
    }

    #[test]
    fn trace_values_round_trip() {
        for (round, cluster, peer) in [(1, 0, 0), (73, 2, 14), (8_999_999, 999, 999_999)] {
            let key = (Round(round), ClusterId(cluster), ReplicaId(peer));
            assert_eq!(decode_trace_value(trace_value(key.0, key.1, key.2)), key);
        }
    }

    /// A splitmix-style step for the property tests' private randomness.
    fn next(noise: &mut u64) -> u64 {
        *noise = noise.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *noise >> 33
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Over any sequence of evidence and executed rounds: a cluster is asked
        /// for iff it is missing, is neither ours nor the sender's, and this
        /// `(round, cluster, sender)` was not asked before.
        #[test]
        fn prop_pulls_are_exactly_the_missing_foreign_packages_not_yet_asked_for(
            n in 3u32..7, senders in 1u32..6, steps in 1usize..120, seed in 0u64..1000,
        ) {
            let own = ClusterId(seed as u32 % n);
            let mut relay = Relay::new(own);
            let mut asked: BTreeSet<(Round, ClusterId, ReplicaId)> = BTreeSet::new();
            let (mut noise, mut current) = (seed, Round(1));
            for _ in 0..steps {
                if next(&mut noise).is_multiple_of(5) {
                    relay.on_round_executed(current, executed(current.0, n));
                    current = current.next();
                    continue;
                }
                let from = ReplicaId(next(&mut noise) as u32 % senders);
                let its_cluster = ClusterId(next(&mut noise) as u32 % n);
                let mask = next(&mut noise);
                let missing: Vec<ClusterId> = clusters(n).filter(|c| mask >> c.0 & 1 == 1).collect();
                let pulls = relay.on_future_package(current, from, its_cluster, missing.clone());
                let expected: Vec<ClusterId> = missing
                    .into_iter()
                    .filter(|c| *c != own && *c != its_cluster)
                    .filter(|c| asked.insert((current, *c, from)))
                    .collect();
                prop_assert_eq!(pulls, expected);
                prop_assert!(relay.pulled.len() <= (n * senders) as usize, "one round's worth");
            }
        }

        /// Over any interleaving of pulls and executed rounds: only the round
        /// just executed is served, each `(requester, round, cluster)` once, and
        /// the bookkeeping never outgrows requesters × clusters.
        #[test]
        fn prop_each_request_is_served_at_most_once_from_the_executed_round(
            n in 2u32..6, requesters in 1u32..8, steps in 1usize..300, seed in 0u64..1000,
        ) {
            let mut relay = Relay::new(ClusterId(0));
            let mut replied: BTreeSet<(ReplicaId, Round, ClusterId)> = BTreeSet::new();
            let (mut noise, mut last) = (seed, None);
            for _ in 0..steps {
                if next(&mut noise).is_multiple_of(7) {
                    let round = Round(last.map_or(1, |r: Round| r.0 + 1));
                    relay.on_round_executed(round, executed(round.0, n));
                    last = Some(round);
                    continue;
                }
                let from = ReplicaId(next(&mut noise) as u32 % requesters);
                let round = Round(last.map_or(1, |r| r.0) + next(&mut noise) % 3 - 1);
                let cluster = ClusterId(next(&mut noise) as u32 % (n + 1));
                if let Some(package) = relay.on_pull(from, round, cluster) {
                    prop_assert_eq!(Some(round), last);
                    prop_assert_eq!((package.round, package.cluster), (round, cluster));
                    prop_assert!(replied.insert((from, round, cluster)), "served twice");
                }
                prop_assert!(relay.served.len() <= (requesters * n) as usize);
            }
        }
    }
}

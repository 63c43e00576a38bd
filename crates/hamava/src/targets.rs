//! Health-aware target selection for a broker submitting batches to its
//! cluster's replicas.
//!
//! A submitter cannot see crashes, recoveries or departures: a replica in any of
//! those states drops what it is sent without a word. What the submitter *can*
//! see is replies. [`TargetSet`] turns that one observation into a routing rule
//! with a single timing input, the submitter's existing `retry_timeout`:
//!
//! 1. Targets are tried round-robin, passing over one that already holds an
//!    unanswered submission while another eligible target holds none — so a
//!    replica that has gone silent pins one in-flight slot, never all of them.
//! 2. A target whose submission stays unanswered for `retry_timeout` is
//!    *demoted*: it leaves the rotation and the submission moves elsewhere.
//! 3. A demoted target is offered one live submission per `retry_timeout` as a
//!    probe (a real batch sent only there, so nothing is ever submitted twice
//!    on account of probing), and any reply from it re-admits it — which is how
//!    a restarted replica comes back.
//! 4. When every target is demoted the set degrades to the plain round-robin
//!    cursor rather than stall.
//!
//! With no timeout ever firing and replies arriving in send order, the pick
//! sequence is exactly that of a bare `cursor % n` walk.
//!
//! The list is fixed at construction. Adding replicas that *join* the cluster
//! needs a membership feed to the submitter; that waits for the epoch-indexed
//! membership module (ROADMAP item 2) rather than a message invented here.
//!
//! The module lives here rather than in `ava-broker` so the closed-loop
//! [`crate::Client`] can share it. It does not yet: a client's writes have no
//! admission reply, so its evidence has to be *relative* silence (a request
//! timed out while another target answered), and a prototype of exactly that
//! was measured and left out — see CHANGES.md, PR 23, for the numbers and for
//! what it ran into.

use ava_types::{Duration, ReplicaId, Time};

/// What the set knows about one target.
#[derive(Clone, Debug)]
struct Target {
    id: ReplicaId,
    /// Submissions sent here that are still unanswered.
    unanswered: usize,
    /// Out of the rotation after a timeout, until it replies to anything.
    demoted: bool,
    /// When a submission was last sent here (paces the probes).
    last_sent: Option<Time>,
}

/// Reply-driven selection over a fixed list of replicas. Sans-I/O: the caller
/// sends, times and reports; the set only decides.
#[derive(Clone, Debug)]
pub struct TargetSet {
    targets: Vec<Target>,
    /// Index the next round-robin walk starts from.
    cursor: usize,
    retry_timeout: Duration,
}

impl TargetSet {
    /// A set over `targets` (tried in this order), all admitted. `retry_timeout`
    /// is the caller's own re-submission timeout: a demoted target is probed at
    /// most once per such interval.
    pub fn new(targets: &[ReplicaId], retry_timeout: Duration) -> Self {
        assert!(!targets.is_empty(), "a target set needs at least one replica");
        let targets = targets
            .iter()
            .map(|&id| Target { id, unanswered: 0, demoted: false, last_sent: None })
            .collect();
        TargetSet { targets, cursor: 0, retry_timeout }
    }

    fn get_mut(&mut self, id: ReplicaId) -> Option<&mut Target> {
        self.targets.iter_mut().find(|t| t.id == id)
    }

    /// Choose where the next submission goes and record it as sent there at
    /// `now` (unanswered until [`TargetSet::on_reply`] or
    /// [`TargetSet::on_timeout`] names this target as its holder).
    pub fn pick(&mut self, now: Time) -> ReplicaId {
        let n = self.targets.len();
        let walk = || (0..n).map(|k| (self.cursor + k) % n);
        let probe_due =
            |t: &Target| t.last_sent.is_none_or(|sent| now.since(sent) >= self.retry_timeout);
        // First choice: an idle target — admitted, or demoted with its probe due.
        let idle = walk().find(|&i| {
            let t = &self.targets[i];
            t.unanswered == 0 && (!t.demoted || probe_due(t))
        });
        // Otherwise share the load among the admitted; with none left, the
        // bare cursor.
        let choice =
            idle.or_else(|| walk().find(|&i| !self.targets[i].demoted)).unwrap_or(self.cursor % n);
        self.cursor = (choice + 1) % n;
        let target = &mut self.targets[choice];
        target.unanswered += 1;
        target.last_sent = Some(now);
        target.id
    }

    /// `from` answered a submission; `holder` is the target that submission
    /// was last sent to (`None` if it had already been answered — a duplicate
    /// reply is still a sign of life). Returns whether `from` was re-admitted.
    pub fn on_reply(&mut self, from: ReplicaId, holder: Option<ReplicaId>) -> bool {
        if let Some(held) = holder.and_then(|id| self.get_mut(id)) {
            held.unanswered = held.unanswered.saturating_sub(1);
        }
        self.get_mut(from).is_some_and(|t| std::mem::take(&mut t.demoted))
    }

    /// The submission held by `silent` went unanswered for `retry_timeout`:
    /// demote `silent` and move the submission. Returns the target it now goes
    /// to (recorded as sent at `now`) and whether the demotion is new.
    pub fn on_timeout(&mut self, silent: ReplicaId, now: Time) -> (ReplicaId, bool) {
        let newly_demoted =
            self.get_mut(silent).is_some_and(|t| !std::mem::replace(&mut t.demoted, true));
        // Pick while `silent` still counts as holding the submission, so the
        // move cannot land back on it as its own probe.
        let next = self.pick(now);
        if let Some(t) = self.get_mut(silent) {
            t.unanswered = t.unanswered.saturating_sub(1);
        }
        (next, newly_demoted)
    }

    /// Whether `id` is currently out of the rotation.
    #[cfg(test)]
    fn is_demoted(&self, id: ReplicaId) -> bool {
        self.targets.iter().any(|t| t.id == id && t.demoted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    const RETRY_MS: u64 = 2000;

    fn set_over(n: u32) -> TargetSet {
        TargetSet::new(&ids(n), Duration::from_millis(RETRY_MS))
    }

    fn ids(n: u32) -> Vec<ReplicaId> {
        (0..n).map(ReplicaId).collect()
    }

    fn ms(t: u64) -> Time {
        Time::ZERO + Duration::from_millis(t)
    }

    /// A broker in miniature: `max_inflight` slots refilled every millisecond,
    /// live targets answering after `rtt` ms, silent ones never; overdue
    /// submissions re-submitted through `on_timeout`. Records every send.
    struct Submitter {
        set: TargetSet,
        max_inflight: usize,
        rtt: u64,
        silent: Vec<ReplicaId>,
        /// `(holder, sent at ms)` per unanswered submission.
        inflight: Vec<(ReplicaId, u64)>,
        /// `(target, at ms)` of every send, in order.
        sent: Vec<(ReplicaId, u64)>,
    }

    impl Submitter {
        fn new(n: u32, max_inflight: usize, rtt: u64, silent: &[u32]) -> Self {
            Submitter {
                set: set_over(n),
                max_inflight,
                rtt,
                silent: silent.iter().map(|&i| ReplicaId(i)).collect(),
                inflight: Vec::new(),
                sent: Vec::new(),
            }
        }

        fn held_by(&self, id: ReplicaId) -> usize {
            self.inflight.iter().filter(|(holder, _)| *holder == id).count()
        }

        fn step(&mut self, now: u64) {
            // Replies from live holders, oldest first.
            let mut i = 0;
            while i < self.inflight.len() {
                let (holder, at) = self.inflight[i];
                if !self.silent.contains(&holder) && now >= at + self.rtt {
                    self.inflight.remove(i);
                    self.set.on_reply(holder, Some(holder));
                } else {
                    i += 1;
                }
            }
            for slot in &mut self.inflight {
                if now - slot.1 >= RETRY_MS {
                    let (next, _) = self.set.on_timeout(slot.0, ms(now));
                    *slot = (next, now);
                    self.sent.push((next, now));
                }
            }
            while self.inflight.len() < self.max_inflight {
                let target = self.set.pick(ms(now));
                self.inflight.push((target, now));
                self.sent.push((target, now));
            }
        }
    }

    #[test]
    fn a_timeout_demotes_and_a_reply_readmits() {
        let mut set = set_over(3);
        assert_eq!(set.pick(ms(0)), ReplicaId(0));
        let (moved_to, newly) = set.on_timeout(ReplicaId(0), ms(2000));
        assert!(newly && set.is_demoted(ReplicaId(0)));
        assert_eq!(moved_to, ReplicaId(1), "the move never lands back on the silent target");
        // Its one probe is due (last offered 2 s ago) and goes out when the walk
        // reaches it; after that it is out of the rotation.
        assert_eq!(set.pick(ms(2001)), ReplicaId(2));
        assert_eq!(set.pick(ms(2002)), ReplicaId(0));
        assert_eq!(set.pick(ms(2003)), ReplicaId(1));
        assert_eq!(set.pick(ms(2004)), ReplicaId(2));
        // The probe timing out is not a new demotion.
        assert!(!set.on_timeout(ReplicaId(0), ms(4002)).1);
        // Any reply from it — here a late one to a submission since moved —
        // re-admits it, once.
        assert!(set.on_reply(ReplicaId(0), None));
        assert!(!set.is_demoted(ReplicaId(0)));
        assert!(!set.on_reply(ReplicaId(0), None));
    }

    #[test]
    fn a_demoted_target_is_probed_once_per_retry_timeout_with_a_live_submission() {
        let mut s = Submitter::new(5, 2, 3, &[2]);
        for now in 0..10_000 {
            s.step(now);
        }
        let probes: Vec<u64> =
            s.sent.iter().filter(|(t, _)| *t == ReplicaId(2)).map(|(_, at)| *at).collect();
        // One first submission, then a probe per retry timeout: 0, 2 s, 4 s, ...
        assert_eq!(probes.len(), 5, "sent to the silent target at {probes:?}");
        assert!(probes.windows(2).all(|w| w[1] - w[0] >= RETRY_MS));
        // Every submission was sent exactly once, or once more per timeout.
        assert!(s.set.is_demoted(ReplicaId(2)));
    }

    #[test]
    fn all_silent_degrades_to_round_robin() {
        let mut s = Submitter::new(3, 3, 1, &[0, 1, 2]);
        for now in 0..=2000 {
            s.step(now);
        }
        assert!((0..3).all(|i| s.set.is_demoted(ReplicaId(i))));
        // Nothing stalls: with every target demoted and no probe due, picks
        // walk the bare cursor.
        let picks: Vec<u32> = (0..6).map(|k| s.set.pick(ms(2001 + k)).0).collect();
        let first = picks[0];
        assert_eq!(picks, (0..6).map(|k| (first + k) % 3).collect::<Vec<_>>());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// One silent target among `n`, fewer slots than targets: it never holds
        /// more than one submission, and is offered at most one per retry timeout.
        #[test]
        fn prop_a_silent_target_pins_one_slot(
            n in 2u32..9, slots in 1usize..8, rtt in 1u64..40, silent in 0u32..9,
        ) {
            let (slots, silent) = (slots.min(n as usize - 1), ReplicaId(silent % n));
            let mut s = Submitter::new(n, slots, rtt, &[silent.0]);
            for now in 0..7_000 {
                s.step(now);
                prop_assert!(s.held_by(silent) <= 1, "silent target holds {} at {now}", s.held_by(silent));
            }
            let offers: Vec<u64> =
                s.sent.iter().filter(|(t, _)| *t == silent).map(|(_, at)| *at).collect();
            prop_assert!(offers.windows(2).all(|w| w[1] - w[0] >= RETRY_MS), "{offers:?}");
            prop_assert!(offers.len() >= 3, "probing stopped: {offers:?}");
        }

        /// No timeout ever fires and replies come in send order: the picks are
        /// those of the bare `cursor % n` walk this module replaced.
        #[test]
        fn prop_undisturbed_picks_equal_the_bare_cursor(
            n in 1u32..9, slots in 1usize..7, sends in 1usize..200, seed in 0u64..1000,
        ) {
            let mut set = set_over(n);
            let mut unanswered: VecDeque<ReplicaId> = VecDeque::new();
            let mut noise = seed;
            for k in 0..sends {
                // Answer some of the oldest submissions (always at least enough
                // to free a slot), in send order.
                noise = noise.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let answer = (noise >> 33) as usize % (unanswered.len() + 1);
                let must = (unanswered.len() + 1).saturating_sub(slots);
                for _ in 0..answer.max(must) {
                    let holder = unanswered.pop_front().expect("counted above");
                    set.on_reply(holder, Some(holder));
                }
                let picked = set.pick(ms(k as u64));
                prop_assert_eq!(picked, ReplicaId(k as u32 % n));
                unanswered.push_back(picked);
            }
        }
    }
}

//! Byzantine Reliable Dissemination (BRD) — Alg. 5 and 6 of the paper.
//!
//! BRD collects the reconfiguration requests every replica of a cluster gathered in
//! the current round, aggregates them at the leader, and disseminates the aggregated
//! *set* uniformly: every correct replica of the cluster delivers exactly the same
//! set, even if the leader is Byzantine or changes mid-dissemination. The delivered
//! set carries two certificates — `Σ` (the set was collected from a quorum) and `Σ'`
//! (a quorum voted to deliver it) — which Stage 2 ships to other clusters as proof.
//!
//! The module is a reusable sans-I/O state machine, independent of the rest of the
//! Hamava replica, exactly as the paper presents it ("a general reusable module, that
//! is of independent interest").

use ava_consensus::{send_pairs, SendAction, SIGN_COST, VERIFY_COST};
use ava_crypto::sha256::Sha256;
use ava_crypto::{Digest, KeyRegistry, Keypair, SigSet, Signature};
use ava_types::{Duration, Encode, EncodeSink, Reconfig, ReplicaId, Round, Time, Timestamp};
use std::cell::RefCell;
use std::collections::BTreeMap;

/// One replica's signed contribution of collected reconfiguration requests.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RecsContribution {
    /// The contributing replica.
    pub from: ReplicaId,
    /// The round the requests were collected in.
    pub round: Round,
    /// The collected reconfiguration requests.
    pub recs: Vec<Reconfig>,
    /// Signature over `(round, from, recs)`.
    pub sig: Signature,
}

/// One contribution's signing digest with the content it was hashed from.
struct HashedContribution {
    round: Round,
    from: ReplicaId,
    recs: Vec<Reconfig>,
    digest: Digest,
}

/// Slots of the contribution-digest memo, one per contributor id modulo the
/// count: more than the replicas of any deployment this workspace runs.
const CONTRIBUTION_SLOTS: usize = 256;

thread_local! {
    /// The signing digests of the contributions this thread hashed last, one
    /// slot per contributor id (modulo [`CONTRIBUTION_SLOTS`]). Every member
    /// of a cluster verifies the same quorum of contributions in each `Agg`,
    /// the leader each one as it arrives, and every replica of a deployment
    /// runs on one thread. A slot answers only when round, contributor and
    /// requests all equal what it was hashed from — the hash's whole input,
    /// whose domain tag is fixed — as `ava_store`'s checkpoint digest memo
    /// compares its stream: a comparison of content, not of a hash of it, so
    /// no collision assumption enters, and the digest is a pure function of
    /// what is compared. Nothing is taken from a message: a contribution's
    /// signature plays no part, and it is still verified against the digest.
    static CONTRIBUTION_DIGESTS: RefCell<Vec<Option<HashedContribution>>> =
        const { RefCell::new(Vec::new()) };
}

impl RecsContribution {
    /// The digest this contribution's signature covers: from the thread's
    /// contribution-digest memo when it hashed exactly this content last, else
    /// streamed straight into the hasher (no intermediate buffer).
    pub fn signing_digest(round: Round, from: ReplicaId, recs: &[Reconfig]) -> Digest {
        CONTRIBUTION_DIGESTS.with_borrow_mut(|slots| {
            if slots.is_empty() {
                slots.resize_with(CONTRIBUTION_SLOTS, || None);
            }
            let slot = &mut slots[from.0 as usize % CONTRIBUTION_SLOTS];
            match slot {
                Some(hashed)
                    if hashed.round == round && hashed.from == from && hashed.recs == recs =>
                {
                    hashed.digest
                }
                _ => {
                    let digest = Self::hash(round, from, recs);
                    *slot = Some(HashedContribution { round, from, recs: recs.to_vec(), digest });
                    digest
                }
            }
        })
    }

    fn hash(round: Round, from: ReplicaId, recs: &[Reconfig]) -> Digest {
        let mut h = Sha256::new();
        h.write(b"brd-contrib");
        round.encode(&mut h);
        from.encode(&mut h);
        recs.encode(&mut h);
        Digest(h.finalize())
    }

    /// Verify the contribution's signature.
    pub fn verify(&self, registry: &KeyRegistry) -> bool {
        self.sig.signer == self.from
            && registry.verify(&Self::signing_digest(self.round, self.from, &self.recs), &self.sig)
    }
}

/// Justification attached to an `Agg` broadcast: proof that the aggregated set is
/// legitimate (Alg. 5 line 23).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AggJustify {
    /// Signed contributions from at least a quorum of replicas (fresh aggregation).
    Contributions(Vec<RecsContribution>),
    /// At least a quorum of `Echo` signatures for the set (re-proposed by a new
    /// leader from a `valid` record).
    Echoes(SigSet),
    /// At least `f+1` `Ready` signatures for the set.
    Readies(SigSet),
}

/// Domain-separated digests for the Echo and Ready votes over a set of requests,
/// streamed straight into the hasher.
fn domain_digest(domain: &[u8], round: Round, recs: &[Reconfig]) -> Digest {
    let mut h = Sha256::new();
    h.write(domain);
    round.encode(&mut h);
    recs.encode(&mut h);
    Digest(h.finalize())
}

fn echo_digest(round: Round, recs: &[Reconfig]) -> Digest {
    domain_digest(b"brd-echo", round, recs)
}

fn ready_digest(round: Round, recs: &[Reconfig]) -> Digest {
    domain_digest(b"brd-ready", round, recs)
}

/// The certificate delivered alongside a reconfiguration set: `Σ` attests quorum
/// collection, `Σ'` attests quorum delivery votes. Remote clusters verify `Σ'`
/// against their view of this cluster's membership.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BrdCert {
    /// The round the set belongs to.
    pub round: Round,
    /// `Σ`: the contributions the set was aggregated from (may be empty if this
    /// replica only learned the set through Echo/Ready amplification).
    pub contributions: Vec<RecsContribution>,
    /// `Σ'`: Ready signatures from a quorum over the ready digest of the set.
    pub ready_sigs: SigSet,
}

impl BrdCert {
    /// Verify `Σ'` against a membership view of the originating cluster.
    pub fn verify_delivery(
        &self,
        registry: &KeyRegistry,
        recs: &[Reconfig],
        members: &[ReplicaId],
        quorum: usize,
    ) -> bool {
        self.ready_sigs.count_valid(registry, &ready_digest(self.round, recs), members) >= quorum
    }

    /// Approximate wire size in bytes.
    pub fn wire_size(&self) -> usize {
        self.contributions.iter().map(|c| 48 + c.recs.len() * 64).sum::<usize>()
            + self.ready_sigs.len() * 48
    }
}

/// BRD wire messages.
#[derive(Clone, Debug)]
pub enum BrdMsg {
    /// A replica's contribution sent to the leader (Alg. 5 line 15).
    Recs(RecsContribution),
    /// The leader's aggregated set (Alg. 5 line 22 / Alg. 6 line 57).
    Agg {
        /// Round of the dissemination.
        round: Round,
        /// The aggregated (union) set.
        recs: Vec<Reconfig>,
        /// Proof the set is legitimate.
        justify: AggJustify,
        /// Leader timestamp.
        ts: u64,
    },
    /// Echo vote (Alg. 5 line 25).
    Echo {
        /// Round of the dissemination.
        round: Round,
        /// The echoed set.
        recs: Vec<Reconfig>,
        /// Signature over the echo digest of the set.
        sig: Signature,
        /// Leader timestamp.
        ts: u64,
    },
    /// Ready vote (Alg. 5 line 28 / Alg. 6 line 32).
    Ready {
        /// Round of the dissemination.
        round: Round,
        /// The set being made ready.
        recs: Vec<Reconfig>,
        /// Signature over the ready digest of the set.
        sig: Signature,
        /// Leader timestamp.
        ts: u64,
    },
    /// A replica's `valid` record forwarded to a new leader (Alg. 6 line 47).
    Valid {
        /// Round of the dissemination.
        round: Round,
        /// The recorded set.
        recs: Vec<Reconfig>,
        /// Echo or Ready signatures attesting the record.
        proof: AggJustify,
        /// The leader timestamp under which the record was made.
        recorded_ts: u64,
    },
}

impl BrdMsg {
    /// The dissemination round the message belongs to (BRD instances are
    /// per-round; the replica uses this to stash messages that arrive for a round
    /// it has not reached yet).
    pub fn round(&self) -> Round {
        match self {
            BrdMsg::Recs(c) => c.round,
            BrdMsg::Agg { round, .. }
            | BrdMsg::Echo { round, .. }
            | BrdMsg::Ready { round, .. }
            | BrdMsg::Valid { round, .. } => *round,
        }
    }

    /// A short name for the message kind (the handler profile's bucket).
    pub fn kind_label(&self) -> &'static str {
        match self {
            BrdMsg::Recs(_) => "brd.Recs",
            BrdMsg::Agg { .. } => "brd.Agg",
            BrdMsg::Echo { .. } => "brd.Echo",
            BrdMsg::Ready { .. } => "brd.Ready",
            BrdMsg::Valid { .. } => "brd.Valid",
        }
    }

    /// Approximate wire size in bytes.
    pub fn wire_size(&self) -> usize {
        let recs_size = |recs: &Vec<Reconfig>| recs.len() * 64 + 48;
        let justify_size = |j: &AggJustify| match j {
            AggJustify::Contributions(cs) => cs.iter().map(|c| 96 + c.recs.len() * 64).sum(),
            AggJustify::Echoes(s) | AggJustify::Readies(s) => s.len() * 48,
        };
        match self {
            BrdMsg::Recs(c) => 96 + c.recs.len() * 64,
            BrdMsg::Agg { recs, justify, .. } => recs_size(recs) + justify_size(justify),
            BrdMsg::Echo { recs, .. } | BrdMsg::Ready { recs, .. } => recs_size(recs) + 64,
            BrdMsg::Valid { recs, proof, .. } => recs_size(recs) + justify_size(proof),
        }
    }
}

/// Side effects requested by the BRD state machine.
#[derive(Clone, Debug)]
pub enum BrdAction {
    /// Send a message to a replica of the local cluster.
    Send {
        /// Destination.
        to: ReplicaId,
        /// Message.
        msg: BrdMsg,
    },
    /// Send one message to every replica in `to`, in order: the `Agg`, `Echo`
    /// and `Ready` broadcasts, each one fan-out of a shared payload that stands
    /// for one [`BrdAction::Send`] per recipient.
    SendAll {
        /// The recipients (the members, in membership order).
        to: Vec<ReplicaId>,
        /// The message each recipient gets a clone of.
        msg: BrdMsg,
    },
    /// Deliver the uniformly agreed reconfiguration set with its certificate.
    Deliver {
        /// The delivered set (sorted, deduplicated).
        recs: Vec<Reconfig>,
        /// The accompanying certificate.
        cert: BrdCert,
    },
    /// Complain about the current leader (delivery is not timely).
    Complain {
        /// The leader complained about.
        leader: ReplicaId,
    },
    /// Charge CPU time for signature work.
    Consume(Duration),
    /// An `Echo`/`Ready` vote from a known member failed signature
    /// verification — Byzantine evidence. Honest members sign exactly what
    /// they send, so a cryptographically invalid vote can only be a forgery
    /// (a membership-view mismatch, which *can* occur honestly around a
    /// reconfiguration boundary, is dropped silently instead).
    Reject {
        /// The round the forged vote claimed.
        round: Round,
    },
}

impl SendAction for BrdAction {
    type Msg = BrdMsg;

    fn sends(&self) -> impl Iterator<Item = (ReplicaId, &BrdMsg)> {
        match self {
            BrdAction::Send { to, msg } => send_pairs(std::slice::from_ref(to), Some(msg)),
            BrdAction::SendAll { to, msg } => send_pairs(to, Some(msg)),
            _ => send_pairs(&[], None),
        }
    }
}

/// The Echo and Ready digests of one set of requests in one round.
#[derive(Clone, Debug)]
struct SetDigests {
    recs: Vec<Reconfig>,
    echo: Digest,
    ready: Digest,
}

/// A `valid` record: a set that is safe to re-propose under a new leader.
#[derive(Clone, Debug)]
struct ValidRecord {
    recs: Vec<Reconfig>,
    proof: AggJustify,
    ts: u64,
}

/// The BRD state machine for one replica and one round.
pub struct Brd {
    me: ReplicaId,
    members: Vec<ReplicaId>,
    keypair: Keypair,
    registry: KeyRegistry,
    leader: ReplicaId,
    ts: u64,
    round: Round,
    timeout: Duration,

    my_recs: Option<Vec<Reconfig>>,
    started_at: Option<Time>,
    echoed: bool,
    readied: bool,
    delivered: bool,
    complained: bool,
    valid: Option<ValidRecord>,
    /// Leader-side: collected contributions keyed by sender.
    contributions: BTreeMap<ReplicaId, RecsContribution>,
    /// Leader-side: senders seen since becoming leader (contributions or Valid).
    collected_from: Vec<ReplicaId>,
    /// Leader-side: best valid record received from a replica.
    high_valid: Option<ValidRecord>,
    /// Leader-side: whether this leader already broadcast an aggregation.
    aggregated: bool,
    /// Echo signatures per set digest.
    echo_votes: BTreeMap<Digest, (Vec<Reconfig>, SigSet)>,
    /// Ready signatures per set digest.
    ready_votes: BTreeMap<Digest, (Vec<Reconfig>, SigSet)>,
    /// The vote digests of the set last seen. Every correct member echoes and
    /// readies the *same* set, so an instance hashes it once instead of once per
    /// Echo and Ready it receives; a different set (a Byzantine vote, a
    /// re-proposal) just replaces the entry.
    digests: Option<SetDigests>,
}

impl Brd {
    /// Create a BRD instance for one round of one cluster.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        me: ReplicaId,
        members: Vec<ReplicaId>,
        keypair: Keypair,
        registry: KeyRegistry,
        leader: ReplicaId,
        ts: Timestamp,
        round: Round,
        timeout: Duration,
    ) -> Self {
        Brd {
            me,
            members,
            keypair,
            registry,
            leader,
            ts: ts.0,
            round,
            timeout,
            my_recs: None,
            started_at: None,
            echoed: false,
            readied: false,
            delivered: false,
            complained: false,
            valid: None,
            contributions: BTreeMap::new(),
            collected_from: Vec::new(),
            high_valid: None,
            aggregated: false,
            echo_votes: BTreeMap::new(),
            ready_votes: BTreeMap::new(),
            digests: None,
        }
    }

    fn f(&self) -> usize {
        if self.members.is_empty() {
            0
        } else {
            (self.members.len() - 1) / 3
        }
    }

    fn quorum(&self) -> usize {
        2 * self.f() + 1
    }

    /// The Echo and Ready digests of `recs` in this instance's round.
    fn digests_of(&mut self, recs: &[Reconfig]) -> &SetDigests {
        if self.digests.as_ref().is_none_or(|d| d.recs != recs) {
            self.digests = Some(SetDigests {
                recs: recs.to_vec(),
                echo: echo_digest(self.round, recs),
                ready: ready_digest(self.round, recs),
            });
        }
        self.digests.as_ref().expect("filled above")
    }

    /// The leader this instance currently follows.
    pub fn leader(&self) -> ReplicaId {
        self.leader
    }

    /// Alg. 5 line 13: broadcast this replica's collected requests (they go to the
    /// leader, which aggregates them).
    pub fn broadcast(&mut self, recs: Vec<Reconfig>, now: Time) -> Vec<BrdAction> {
        let mut out = Vec::new();
        let mut recs = recs;
        recs.sort();
        recs.dedup();
        self.my_recs = Some(recs.clone());
        self.started_at = Some(now);
        out.push(BrdAction::Consume(SIGN_COST));
        let sig = self.keypair.sign(&RecsContribution::signing_digest(self.round, self.me, &recs));
        let contribution = RecsContribution { from: self.me, round: self.round, recs, sig };
        out.push(BrdAction::Send { to: self.leader, msg: BrdMsg::Recs(contribution) });
        out
    }

    /// Handle a BRD message from `from`, appending the actions to carry out
    /// to `out`, a buffer the caller owns and drains.
    pub fn handle(&mut self, from: ReplicaId, msg: BrdMsg, now: Time, out: &mut Vec<BrdAction>) {
        match msg {
            BrdMsg::Recs(contribution) => self.handle_recs(from, contribution, out),
            BrdMsg::Agg { round, recs, justify, ts } => {
                self.handle_agg(from, round, recs, justify, ts, out);
            }
            BrdMsg::Echo { round, recs, sig, ts } => {
                self.handle_echo(round, recs, sig, ts, out);
            }
            BrdMsg::Ready { round, recs, sig, ts } => {
                self.handle_ready(round, recs, sig, ts, now, out);
            }
            BrdMsg::Valid { round, recs, proof, recorded_ts } => {
                self.handle_valid(round, recs, proof, recorded_ts, out);
            }
        }
    }

    /// [`Brd::handle`] into a fresh list with every fan-out spelled out as one
    /// [`BrdAction::Send`] per recipient, for a caller that routes one message
    /// at a time (the repo benchmark's BRD probe).
    pub fn on_message(&mut self, from: ReplicaId, msg: BrdMsg, now: Time) -> Vec<BrdAction> {
        let mut out = Vec::new();
        self.handle(from, msg, now, &mut out);
        let mut spelled = Vec::with_capacity(out.len());
        for action in out {
            match action {
                BrdAction::SendAll { to, msg } => spelled
                    .extend(to.into_iter().map(|to| BrdAction::Send { to, msg: msg.clone() })),
                action => spelled.push(action),
            }
        }
        spelled
    }

    /// Periodic tick: leader liveness watchdog (Alg. 6 line 38).
    pub fn on_tick(&mut self, now: Time, out: &mut Vec<BrdAction>) {
        if let Some(started) = self.started_at {
            if !self.delivered && !self.complained && now.since(started) >= self.timeout {
                self.complained = true;
                out.push(BrdAction::Complain { leader: self.leader });
            }
        }
    }

    /// Alg. 6 line 40: install a new leader.
    pub fn new_leader(
        &mut self,
        leader: ReplicaId,
        ts: Timestamp,
        now: Time,
        out: &mut Vec<BrdAction>,
    ) {
        if ts.0 <= self.ts && leader == self.leader {
            return;
        }
        self.leader = leader;
        self.ts = ts.0;
        self.echoed = false;
        self.readied = false;
        self.complained = false;
        self.contributions.clear();
        self.collected_from.clear();
        self.high_valid = None;
        self.aggregated = false;
        self.echo_votes.clear();
        self.ready_votes.clear();
        if self.started_at.is_some() {
            self.started_at = Some(now);
        }
        if self.delivered {
            return;
        }
        if let Some(valid) = self.valid.clone() {
            out.push(BrdAction::Send {
                to: self.leader,
                msg: BrdMsg::Valid {
                    round: self.round,
                    recs: valid.recs,
                    proof: valid.proof,
                    recorded_ts: valid.ts,
                },
            });
        } else if let Some(my_recs) = self.my_recs.clone() {
            out.push(BrdAction::Consume(SIGN_COST));
            let sig =
                self.keypair.sign(&RecsContribution::signing_digest(self.round, self.me, &my_recs));
            let contribution =
                RecsContribution { from: self.me, round: self.round, recs: my_recs, sig };
            out.push(BrdAction::Send { to: self.leader, msg: BrdMsg::Recs(contribution) });
        }
    }

    /// Update the member list (after a reconfiguration took effect).
    pub fn set_members(&mut self, members: Vec<ReplicaId>) {
        self.members = members;
    }

    fn handle_recs(&mut self, from: ReplicaId, c: RecsContribution, out: &mut Vec<BrdAction>) {
        if self.me != self.leader || c.round != self.round || c.from != from {
            return;
        }
        out.push(BrdAction::Consume(VERIFY_COST));
        if !self.members.contains(&from) || !c.verify(&self.registry) {
            return;
        }
        self.contributions.insert(from, c);
        if !self.collected_from.contains(&from) {
            self.collected_from.push(from);
        }
        self.maybe_aggregate(out);
    }

    fn handle_valid(
        &mut self,
        round: Round,
        recs: Vec<Reconfig>,
        proof: AggJustify,
        recorded_ts: u64,
        out: &mut Vec<BrdAction>,
    ) {
        if self.me != self.leader || round != self.round {
            return;
        }
        out.push(BrdAction::Consume(VERIFY_COST.saturating_mul(self.proof_len(&proof) as u64)));
        if !self.verify_justify(&recs, &proof, true) {
            return;
        }
        let sender_ok = match self.high_valid.as_ref() {
            Some(existing) => recorded_ts > existing.ts,
            None => true,
        };
        if sender_ok {
            self.high_valid = Some(ValidRecord { recs, proof, ts: recorded_ts });
        }
        // The sender counts toward the collection quorum even if its record is not
        // the highest (Alg. 6 line 54).
        if let Some(signer) = self.last_signer_of_high_valid() {
            if !self.collected_from.contains(&signer) {
                self.collected_from.push(signer);
            }
        }
        self.maybe_aggregate(out);
    }

    fn last_signer_of_high_valid(&self) -> Option<ReplicaId> {
        // Valid messages arrive over authenticated links; use any signer in the proof
        // as the representative sender for quorum counting.
        self.high_valid.as_ref().and_then(|v| match &v.proof {
            AggJustify::Contributions(cs) => cs.first().map(|c| c.from),
            AggJustify::Echoes(s) | AggJustify::Readies(s) => s.signers().first().copied(),
        })
    }

    fn proof_len(&self, proof: &AggJustify) -> usize {
        match proof {
            AggJustify::Contributions(cs) => cs.len(),
            AggJustify::Echoes(s) | AggJustify::Readies(s) => s.len(),
        }
    }

    /// Leader: once a quorum contributed (or a valid record is known together with a
    /// quorum of responses), broadcast the aggregation.
    fn maybe_aggregate(&mut self, out: &mut Vec<BrdAction>) {
        if self.aggregated || self.me != self.leader {
            return;
        }
        let responders = self.contributions.len().max(self.collected_from.len());
        if responders < self.quorum() {
            return;
        }
        self.aggregated = true;
        let (recs, justify) = if let Some(high) = self.high_valid.clone() {
            (high.recs, high.proof)
        } else {
            let contributions: Vec<RecsContribution> =
                self.contributions.values().cloned().collect();
            let mut union: Vec<Reconfig> =
                contributions.iter().flat_map(|c| c.recs.iter().copied()).collect();
            union.sort();
            union.dedup();
            (union, AggJustify::Contributions(contributions))
        };
        let msg = BrdMsg::Agg { round: self.round, recs, justify, ts: self.ts };
        out.push(BrdAction::SendAll { to: self.members.clone(), msg });
    }

    fn verify_justify(&self, recs: &[Reconfig], justify: &AggJustify, allow_ready: bool) -> bool {
        match justify {
            AggJustify::Contributions(contributions) => {
                let mut distinct: Vec<ReplicaId> = Vec::new();
                for c in contributions {
                    if c.round != self.round
                        || !self.members.contains(&c.from)
                        || !c.verify(&self.registry)
                    {
                        return false;
                    }
                    if !distinct.contains(&c.from) {
                        distinct.push(c.from);
                    }
                }
                if distinct.len() < self.quorum() {
                    return false;
                }
                let mut union: Vec<Reconfig> =
                    contributions.iter().flat_map(|c| c.recs.iter().copied()).collect();
                union.sort();
                union.dedup();
                union == recs
            }
            AggJustify::Echoes(sigs) => {
                sigs.count_valid(&self.registry, &echo_digest(self.round, recs), &self.members)
                    >= self.quorum()
            }
            AggJustify::Readies(sigs) => {
                allow_ready
                    && sigs.count_valid(
                        &self.registry,
                        &ready_digest(self.round, recs),
                        &self.members,
                    ) >= self.f() + 1
            }
        }
    }

    fn handle_agg(
        &mut self,
        from: ReplicaId,
        round: Round,
        recs: Vec<Reconfig>,
        justify: AggJustify,
        ts: u64,
        out: &mut Vec<BrdAction>,
    ) {
        if from != self.leader || ts != self.ts || round != self.round || self.echoed {
            return;
        }
        out.push(BrdAction::Consume(VERIFY_COST.saturating_mul(self.proof_len(&justify) as u64)));
        if !self.verify_justify(&recs, &justify, true) {
            return;
        }
        self.echoed = true;
        // Remember the contributions (Σ) if we saw them, so the delivery certificate
        // can carry them.
        if let AggJustify::Contributions(cs) = &justify {
            for c in cs {
                self.contributions.insert(c.from, c.clone());
            }
        }
        out.push(BrdAction::Consume(SIGN_COST));
        let digest = self.digests_of(&recs).echo;
        let sig = self.keypair.sign(&digest);
        let msg = BrdMsg::Echo { round: self.round, recs, sig, ts: self.ts };
        out.push(BrdAction::SendAll { to: self.members.clone(), msg });
    }

    fn handle_echo(
        &mut self,
        round: Round,
        recs: Vec<Reconfig>,
        sig: Signature,
        ts: u64,
        out: &mut Vec<BrdAction>,
    ) {
        if ts != self.ts || round != self.round {
            return;
        }
        out.push(BrdAction::Consume(VERIFY_COST));
        let digest = self.digests_of(&recs).echo;
        if !self.members.contains(&sig.signer) {
            return;
        }
        if !self.registry.verify(&digest, &sig) {
            out.push(BrdAction::Reject { round: self.round });
            return;
        }
        let quorum = self.quorum();
        let entry = self.echo_votes.entry(digest).or_insert_with(|| (recs.clone(), SigSet::new()));
        entry.1.insert(sig);
        let echo_count = entry.1.len();
        if echo_count >= quorum && !self.readied {
            self.readied = true;
            let echo_sigs = entry.1.clone();
            self.valid = Some(ValidRecord {
                recs: recs.clone(),
                proof: AggJustify::Echoes(echo_sigs),
                ts: self.ts,
            });
            self.send_ready(recs, out);
        }
    }

    fn handle_ready(
        &mut self,
        round: Round,
        recs: Vec<Reconfig>,
        sig: Signature,
        _ts: u64,
        _now: Time,
        out: &mut Vec<BrdAction>,
    ) {
        if round != self.round {
            return;
        }
        out.push(BrdAction::Consume(VERIFY_COST));
        let digest = self.digests_of(&recs).ready;
        if !self.members.contains(&sig.signer) {
            return;
        }
        if !self.registry.verify(&digest, &sig) {
            out.push(BrdAction::Reject { round: self.round });
            return;
        }
        let f_plus_one = self.f() + 1;
        let quorum = self.quorum();
        let entry = self.ready_votes.entry(digest).or_insert_with(|| (recs.clone(), SigSet::new()));
        entry.1.insert(sig);
        let count = entry.1.len();
        // Amplification (Alg. 6 line 30): f+1 Ready votes make a correct replica
        // ready even without a quorum of Echoes.
        if count >= f_plus_one && !self.readied {
            self.readied = true;
            let ready_sigs = self.ready_votes.get(&digest).expect("inserted above").1.clone();
            self.valid = Some(ValidRecord {
                recs: recs.clone(),
                proof: AggJustify::Readies(ready_sigs),
                ts: self.ts,
            });
            self.send_ready(recs.clone(), out);
        }
        // Delivery (Alg. 6 line 34).
        let entry = self.ready_votes.get(&digest).expect("inserted above");
        if entry.1.len() >= quorum && !self.delivered {
            self.delivered = true;
            let cert = BrdCert {
                round: self.round,
                contributions: self.contributions.values().cloned().collect(),
                ready_sigs: entry.1.clone(),
            };
            out.push(BrdAction::Deliver { recs, cert });
        }
    }

    fn send_ready(&mut self, recs: Vec<Reconfig>, out: &mut Vec<BrdAction>) {
        // Note: `ts` is not part of the ready digest so that Ready votes recorded
        // under an earlier leader still count toward delivery under a later one —
        // uniformity across leader changes (Alg. 6's `valid` mechanism).
        out.push(BrdAction::Consume(SIGN_COST));
        let digest = self.digests_of(&recs).ready;
        let sig = self.keypair.sign(&digest);
        let msg = BrdMsg::Ready { round: self.round, recs, sig, ts: self.ts };
        out.push(BrdAction::SendAll { to: self.members.clone(), msg });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ava_consensus::sends;
    use std::collections::{BTreeMap, VecDeque};

    struct Net {
        nodes: BTreeMap<ReplicaId, Brd>,
        queue: VecDeque<(ReplicaId, ReplicaId, BrdMsg)>,
        delivered: BTreeMap<ReplicaId, Vec<(Vec<Reconfig>, BrdCert)>>,
        complaints: BTreeMap<ReplicaId, usize>,
        down: Vec<ReplicaId>,
        now: Time,
        /// Per action that sent: its message kind and recipients, in order.
        sent: Vec<(&'static str, Vec<ReplicaId>)>,
    }

    fn join(r: u32) -> Reconfig {
        Reconfig::Join { replica: ReplicaId(100 + r), region: ava_types::Region::Europe }
    }

    fn make_net(n: u32, leader: u32) -> (Net, KeyRegistry) {
        make_net_of((0..n).map(ReplicaId).collect(), ReplicaId(leader))
    }

    /// A network of `members`, in that membership order, led by `leader`.
    fn make_net_of(members: Vec<ReplicaId>, leader: ReplicaId) -> (Net, KeyRegistry) {
        let registry = KeyRegistry::new();
        let nodes: BTreeMap<ReplicaId, Brd> = members
            .iter()
            .map(|&id| {
                let kp = registry.register(id);
                (
                    id,
                    Brd::new(
                        id,
                        members.clone(),
                        kp,
                        registry.clone(),
                        leader,
                        Timestamp(0),
                        Round(1),
                        Duration::from_secs(5),
                    ),
                )
            })
            .collect();
        let delivered = members.iter().map(|&id| (id, Vec::new())).collect();
        let complaints = members.iter().map(|&id| (id, 0)).collect();
        (
            Net {
                nodes,
                queue: VecDeque::new(),
                delivered,
                complaints,
                down: Vec::new(),
                now: Time::ZERO,
                sent: Vec::new(),
            },
            registry,
        )
    }

    impl Net {
        fn apply(&mut self, at: ReplicaId, actions: Vec<BrdAction>) {
            for action in &actions {
                let pairs: Vec<_> = action.sends().collect();
                if let Some((_, msg)) = pairs.first() {
                    self.sent.push((msg.kind_label(), pairs.iter().map(|(to, _)| *to).collect()));
                }
            }
            for (to, msg) in sends(&actions) {
                self.queue.push_back((at, to, msg.clone()));
            }
            for a in actions {
                match a {
                    BrdAction::Send { .. } | BrdAction::SendAll { .. } => {}
                    BrdAction::Deliver { recs, cert } => {
                        self.delivered.get_mut(&at).unwrap().push((recs, cert))
                    }
                    BrdAction::Complain { .. } => *self.complaints.get_mut(&at).unwrap() += 1,
                    BrdAction::Consume(_) => {}
                    BrdAction::Reject { .. } => {}
                }
            }
        }

        fn broadcast_all(&mut self, recs_of: impl Fn(ReplicaId) -> Vec<Reconfig>) {
            let ids: Vec<ReplicaId> = self.nodes.keys().copied().collect();
            let now = self.now;
            for id in ids {
                if self.down.contains(&id) {
                    continue;
                }
                let actions = self.nodes.get_mut(&id).unwrap().broadcast(recs_of(id), now);
                self.apply(id, actions);
            }
        }

        fn run(&mut self, max: usize) {
            for _ in 0..max {
                let Some((from, to, msg)) = self.queue.pop_front() else { return };
                if self.down.contains(&from) || self.down.contains(&to) {
                    continue;
                }
                self.deliver(from, to, msg);
            }
            panic!("BRD test network did not quiesce");
        }

        fn deliver(&mut self, from: ReplicaId, to: ReplicaId, msg: BrdMsg) {
            let (now, mut actions) = (self.now, Vec::new());
            self.nodes.get_mut(&to).unwrap().handle(from, msg, now, &mut actions);
            self.apply(to, actions);
        }

        fn drop_messages_from_leader_except(&mut self, leader: ReplicaId, keep: &[ReplicaId]) {
            self.queue.retain(|(from, to, _)| *from != leader || keep.contains(to));
        }

        fn install_leader(&mut self, leader: ReplicaId, ts: Timestamp) {
            let ids: Vec<ReplicaId> = self.nodes.keys().copied().collect();
            let now = self.now;
            for id in ids {
                if self.down.contains(&id) {
                    continue;
                }
                let mut actions = Vec::new();
                self.nodes.get_mut(&id).unwrap().new_leader(leader, ts, now, &mut actions);
                self.apply(id, actions);
            }
        }

        fn tick_all(&mut self, advance: Duration) {
            self.now = self.now + advance;
            let ids: Vec<ReplicaId> = self.nodes.keys().copied().collect();
            let now = self.now;
            for id in ids {
                if self.down.contains(&id) {
                    continue;
                }
                let mut actions = Vec::new();
                self.nodes.get_mut(&id).unwrap().on_tick(now, &mut actions);
                self.apply(id, actions);
            }
        }
    }

    #[test]
    fn correct_leader_delivers_same_set_everywhere() {
        let (mut net, _) = make_net(4, 1);
        net.broadcast_all(|id| if id == ReplicaId(0) { vec![join(0)] } else { vec![join(1)] });
        net.run(100_000);
        let expected: Vec<Reconfig> = vec![join(0), join(1)];
        for (id, delivered) in &net.delivered {
            assert_eq!(delivered.len(), 1, "replica {id} deliveries");
            let mut got = delivered[0].0.clone();
            got.sort();
            assert_eq!(got, expected, "replica {id} set");
        }
    }

    #[test]
    fn delivery_certificate_verifies_remotely() {
        let (mut net, registry) = make_net(7, 0);
        net.broadcast_all(|_| vec![join(3)]);
        net.run(200_000);
        let members: Vec<ReplicaId> = (0..7).map(ReplicaId).collect();
        let (recs, cert) = &net.delivered[&ReplicaId(4)][0];
        assert!(cert.verify_delivery(&registry, recs, &members, 5));
        assert!(!cert.verify_delivery(&registry, &[join(9)], &members, 5));
    }

    #[test]
    fn integrity_set_is_union_of_quorum_contributions() {
        // Every replica requests a different reconfiguration; the delivered set must
        // contain at least a quorum's worth of them and nothing invented.
        let (mut net, _) = make_net(4, 2);
        net.broadcast_all(|id| vec![join(id.0)]);
        net.run(100_000);
        let all: Vec<Reconfig> = (0..4).map(join).collect();
        for delivered in net.delivered.values() {
            let set = &delivered[0].0;
            assert!(set.len() >= 3, "set should contain a quorum of contributions");
            assert!(set.iter().all(|rc| all.contains(rc)), "no invented requests");
        }
    }

    #[test]
    fn empty_sets_still_terminate() {
        let (mut net, _) = make_net(4, 0);
        net.broadcast_all(|_| vec![]);
        net.run(100_000);
        for delivered in net.delivered.values() {
            assert_eq!(delivered.len(), 1);
            assert!(delivered[0].0.is_empty());
        }
    }

    #[test]
    fn no_duplicate_delivery() {
        let (mut net, _) = make_net(4, 0);
        net.broadcast_all(|_| vec![join(1)]);
        net.run(100_000);
        // Re-run a tick storm; nothing further should be delivered.
        net.tick_all(Duration::from_secs(1));
        net.run(100_000);
        for delivered in net.delivered.values() {
            assert_eq!(delivered.len(), 1);
        }
    }

    #[test]
    fn byzantine_leader_partial_dissemination_stays_uniform_after_leader_change() {
        // Reproduces Fig. 2b: the leader p2 aggregates correctly (it cannot forge)
        // but only sends the aggregation to a subset {p0, p3}. Some replica may
        // deliver early; after complaints, the new leader adopts the valid set and
        // every correct replica delivers the SAME set.
        let (mut net, _) = make_net(4, 2);
        net.broadcast_all(|id| vec![join(id.0)]);
        // Let the leader receive contributions and emit the Agg, then censor the Agg
        // so that only p0 and p3 receive leader messages.
        net.run_partial_until_agg();
        net.drop_messages_from_leader_except(ReplicaId(2), &[ReplicaId(0), ReplicaId(3)]);
        net.run(100_000);
        // Timeout fires at replicas that have not delivered, leader changes to p3.
        net.tick_all(Duration::from_secs(6));
        net.install_leader(ReplicaId(3), Timestamp(1));
        net.run(100_000);
        let sets: Vec<Vec<Reconfig>> = net
            .delivered
            .values()
            .filter(|d| !d.is_empty())
            .map(|d| {
                let mut s = d[0].0.clone();
                s.sort();
                s
            })
            .collect();
        assert!(sets.len() >= 3, "at least the correct replicas deliver ({} did)", sets.len());
        assert!(sets.windows(2).all(|w| w[0] == w[1]), "uniformity violated: {sets:?}");
    }

    impl Net {
        /// Deliver messages until the leader's Agg broadcast is sitting in the queue.
        fn run_partial_until_agg(&mut self) {
            for _ in 0..100_000 {
                if self.queue.iter().any(|(_, _, m)| matches!(m, BrdMsg::Agg { .. })) {
                    return;
                }
                let Some((from, to, msg)) = self.queue.pop_front() else { return };
                self.deliver(from, to, msg);
            }
        }
    }

    #[test]
    fn silent_leader_triggers_complaints() {
        let (mut net, _) = make_net(4, 1);
        net.down.push(ReplicaId(1));
        net.broadcast_all(|_| vec![join(0)]);
        net.run(100_000);
        net.tick_all(Duration::from_secs(6));
        let complainers = net.complaints.values().filter(|&&c| c > 0).count();
        assert_eq!(complainers, 3, "all live replicas should complain");
        // After electing p2, dissemination completes.
        net.install_leader(ReplicaId(2), Timestamp(1));
        net.run(100_000);
        for (&id, delivered) in &net.delivered {
            if id != ReplicaId(1) {
                assert_eq!(delivered.len(), 1, "replica {id}");
            }
        }
    }

    #[test]
    fn forged_aggregation_without_quorum_is_rejected() {
        let registry = KeyRegistry::new();
        let members: Vec<ReplicaId> = (0..4).map(ReplicaId).collect();
        let kps: Vec<Keypair> = members.iter().map(|&id| registry.register(id)).collect();
        let recs = vec![join(9)];
        let contribution = |kp: &Keypair| RecsContribution {
            from: kp.id,
            round: Round(1),
            recs: recs.clone(),
            sig: kp.sign(&RecsContribution::signing_digest(Round(1), kp.id, &recs)),
        };
        let echoes = |contributions: Vec<RecsContribution>| {
            let mut brd = Brd::new(
                ReplicaId(0),
                members.clone(),
                kps[0].clone(),
                registry.clone(),
                ReplicaId(3),
                Timestamp(0),
                Round(1),
                Duration::from_secs(5),
            );
            let justify = AggJustify::Contributions(contributions);
            let agg = BrdMsg::Agg { round: Round(1), recs: recs.clone(), justify, ts: 0 };
            let mut actions = Vec::new();
            brd.handle(ReplicaId(3), agg, Time::ZERO, &mut actions);
            sends(&actions).iter().filter(|(_, m)| matches!(m, BrdMsg::Echo { .. })).count()
        };
        // Leader 3 claims a set justified by a single contribution (its own): below
        // quorum, so no Echo may be produced ...
        assert_eq!(echoes(vec![contribution(&kps[3])]), 0, "under-justified aggregation echoed");
        // ... while the same set justified by a quorum is echoed to every member.
        let quorum = kps[1..].iter().map(contribution).collect();
        assert_eq!(echoes(quorum), members.len(), "a justified aggregation was not echoed");
    }

    #[test]
    fn quorum_broadcasts_are_one_fan_out_to_every_member_in_membership_order() {
        let members: Vec<ReplicaId> = [2, 0, 3, 1].map(ReplicaId).to_vec();
        let (mut net, _) = make_net_of(members.clone(), ReplicaId(3));
        net.broadcast_all(|id| vec![join(id.0)]);
        net.run(100_000);
        // The leader aggregates once, every member echoes and readies once.
        for (kind, senders) in [("brd.Agg", 1), ("brd.Echo", 4), ("brd.Ready", 4)] {
            let actions: Vec<_> = net.sent.iter().filter(|(k, _)| *k == kind).collect();
            assert_eq!(actions.len(), senders, "{kind}: one action per broadcast");
            assert!(actions.iter().all(|(_, to)| *to == members), "{kind} recipients");
        }
    }

    #[test]
    fn on_message_spells_out_each_fan_out_as_the_sends_it_stands_for() {
        let (mut net, _) = make_net(4, 0);
        net.broadcast_all(|id| vec![join(id.0)]);
        net.run_partial_until_agg();
        let agg = net.queue.iter().position(|(.., m)| matches!(m, BrdMsg::Agg { .. }));
        let (from, to, msg) = net.queue.remove(agg.expect("an Agg is queued")).unwrap();
        let mut twin = Brd::new(
            to,
            (0..4).map(ReplicaId).collect(),
            net.nodes[&to].keypair.clone(),
            net.nodes[&to].registry.clone(),
            ReplicaId(0),
            Timestamp(0),
            Round(1),
            Duration::from_secs(5),
        );
        let spelled = twin.on_message(from, msg.clone(), Time::ZERO);
        let mut handled = Vec::new();
        net.nodes.get_mut(&to).unwrap().handle(from, msg, Time::ZERO, &mut handled);
        assert!(handled.iter().any(|a| matches!(a, BrdAction::SendAll { .. })));
        assert!(!spelled.iter().any(|a| matches!(a, BrdAction::SendAll { .. })));
        let pairs = |actions: &[BrdAction]| -> Vec<(ReplicaId, &'static str, usize)> {
            sends(actions).iter().map(|(to, m)| (*to, m.kind_label(), m.wire_size())).collect()
        };
        assert_eq!(pairs(&spelled), pairs(&handled));
        assert_eq!(spelled.len(), handled.len() + 3, "one fan-out became four sends");
    }

    #[test]
    fn contribution_digests_answer_as_hashing_does() {
        let recs = [vec![], vec![join(1)], vec![join(1), join(2)]];
        for round in [Round(1), Round(2)] {
            for from in [ReplicaId(0), ReplicaId(1), ReplicaId(CONTRIBUTION_SLOTS as u32)] {
                for recs in &recs {
                    // A miss fills the slot, the repeat hits it: both hash's answer.
                    for _ in 0..2 {
                        assert_eq!(
                            RecsContribution::signing_digest(round, from, recs),
                            RecsContribution::hash(round, from, recs)
                        );
                    }
                }
            }
        }
        let digests: std::collections::BTreeSet<Digest> = recs
            .iter()
            .map(|recs| RecsContribution::signing_digest(Round(1), ReplicaId(0), recs))
            .collect();
        assert_eq!(digests.len(), recs.len(), "different requests, different digests");
    }

    #[test]
    fn forged_votes_yield_reject_evidence_but_membership_skew_stays_silent() {
        let registry = KeyRegistry::new();
        let members: Vec<ReplicaId> = (0..4).map(ReplicaId).collect();
        let kp1 = registry.register(ReplicaId(1));
        let kp0 = registry.register(ReplicaId(0));
        let outsider = registry.register(ReplicaId(9));
        let mut brd = Brd::new(
            ReplicaId(0),
            members,
            kp0,
            registry.clone(),
            ReplicaId(3),
            Timestamp(0),
            Round(1),
            Duration::from_secs(5),
        );
        // A member's honest Echo signature re-attached to a tampered set fails
        // cryptographic verification: forgery evidence.
        let honest = vec![join(7)];
        let sig = kp1.sign(&echo_digest(Round(1), &honest));
        let mut forged = honest.clone();
        forged.push(join(8));
        let handle = |brd: &mut Brd, from, msg| {
            let mut actions = Vec::new();
            brd.handle(from, msg, Time::ZERO, &mut actions);
            actions
        };
        let actions = handle(
            &mut brd,
            ReplicaId(1),
            BrdMsg::Echo { round: Round(1), recs: forged.clone(), sig, ts: 0 },
        );
        assert!(actions.iter().any(|a| matches!(a, BrdAction::Reject { .. })));
        // A well-signed vote from a non-member (honest around reconfiguration
        // boundaries) is dropped without evidence.
        let sig = outsider.sign(&echo_digest(Round(1), &honest));
        let actions = handle(
            &mut brd,
            ReplicaId(9),
            BrdMsg::Echo { round: Round(1), recs: honest.clone(), sig, ts: 0 },
        );
        assert!(!actions.iter().any(|a| matches!(a, BrdAction::Reject { .. })));
        // Forged Ready votes produce the same evidence.
        let sig = kp1.sign(&ready_digest(Round(1), &honest));
        let actions = handle(
            &mut brd,
            ReplicaId(1),
            BrdMsg::Ready { round: Round(1), recs: forged, sig, ts: 0 },
        );
        assert!(actions.iter().any(|a| matches!(a, BrdAction::Reject { .. })));
    }
}

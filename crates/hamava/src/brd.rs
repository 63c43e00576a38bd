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

use ava_consensus::{SIGN_COST, VERIFY_COST};
use ava_crypto::sha256::Sha256;
use ava_crypto::{Digest, KeyRegistry, Keypair, SigSet, Signature};
use ava_types::{Duration, Encode, EncodeSink, Reconfig, ReplicaId, Round, Time, Timestamp};
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

impl RecsContribution {
    /// The digest this contribution's signature covers. Streamed straight into the
    /// hasher (no intermediate buffer).
    pub fn signing_digest(round: Round, from: ReplicaId, recs: &[Reconfig]) -> Digest {
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

    /// Handle a BRD message from `from`.
    pub fn on_message(&mut self, from: ReplicaId, msg: BrdMsg, now: Time) -> Vec<BrdAction> {
        let mut out = Vec::new();
        match msg {
            BrdMsg::Recs(contribution) => self.handle_recs(from, contribution, &mut out),
            BrdMsg::Agg { round, recs, justify, ts } => {
                self.handle_agg(from, round, recs, justify, ts, &mut out);
            }
            BrdMsg::Echo { round, recs, sig, ts } => {
                self.handle_echo(round, recs, sig, ts, &mut out);
            }
            BrdMsg::Ready { round, recs, sig, ts } => {
                self.handle_ready(round, recs, sig, ts, now, &mut out);
            }
            BrdMsg::Valid { round, recs, proof, recorded_ts } => {
                self.handle_valid(round, recs, proof, recorded_ts, &mut out);
            }
        }
        out
    }

    /// Periodic tick: leader liveness watchdog (Alg. 6 line 38).
    pub fn on_tick(&mut self, now: Time) -> Vec<BrdAction> {
        let mut out = Vec::new();
        if let Some(started) = self.started_at {
            if !self.delivered && !self.complained && now.since(started) >= self.timeout {
                self.complained = true;
                out.push(BrdAction::Complain { leader: self.leader });
            }
        }
        out
    }

    /// Alg. 6 line 40: install a new leader.
    pub fn new_leader(&mut self, leader: ReplicaId, ts: Timestamp, now: Time) -> Vec<BrdAction> {
        let mut out = Vec::new();
        if ts.0 <= self.ts && leader == self.leader {
            return out;
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
            return out;
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
        out
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
        for &member in &self.members {
            out.push(BrdAction::Send { to: member, msg: msg.clone() });
        }
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
        for &member in &self.members {
            out.push(BrdAction::Send { to: member, msg: msg.clone() });
        }
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
        for &member in &self.members {
            out.push(BrdAction::Send { to: member, msg: msg.clone() });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, VecDeque};

    struct Net {
        nodes: BTreeMap<ReplicaId, Brd>,
        queue: VecDeque<(ReplicaId, ReplicaId, BrdMsg)>,
        delivered: BTreeMap<ReplicaId, Vec<(Vec<Reconfig>, BrdCert)>>,
        complaints: BTreeMap<ReplicaId, usize>,
        down: Vec<ReplicaId>,
        now: Time,
    }

    fn join(r: u32) -> Reconfig {
        Reconfig::Join { replica: ReplicaId(100 + r), region: ava_types::Region::Europe }
    }

    fn make_net(n: u32, leader: u32) -> (Net, KeyRegistry) {
        let registry = KeyRegistry::new();
        let members: Vec<ReplicaId> = (0..n).map(ReplicaId).collect();
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
                        ReplicaId(leader),
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
            },
            registry,
        )
    }

    impl Net {
        fn apply(&mut self, at: ReplicaId, actions: Vec<BrdAction>) {
            for a in actions {
                match a {
                    BrdAction::Send { to, msg } => self.queue.push_back((at, to, msg)),
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
                let now = self.now;
                let actions = self.nodes.get_mut(&to).unwrap().on_message(from, msg, now);
                self.apply(to, actions);
            }
            panic!("BRD test network did not quiesce");
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
                let actions = self.nodes.get_mut(&id).unwrap().new_leader(leader, ts, now);
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
                let actions = self.nodes.get_mut(&id).unwrap().on_tick(now);
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
                let now = self.now;
                let actions = self.nodes.get_mut(&to).unwrap().on_message(from, msg, now);
                self.apply(to, actions);
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
        let kp3 = registry.register(ReplicaId(3));
        let kp0 = registry.register(ReplicaId(0));
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
        // Leader 3 claims a set justified by a single contribution (its own): below
        // quorum, so no Echo may be produced.
        let recs = vec![join(9)];
        let sig = kp3.sign(&RecsContribution::signing_digest(Round(1), ReplicaId(3), &recs));
        let contribution =
            RecsContribution { from: ReplicaId(3), round: Round(1), recs: recs.clone(), sig };
        let actions = brd.on_message(
            ReplicaId(3),
            BrdMsg::Agg {
                round: Round(1),
                recs,
                justify: AggJustify::Contributions(vec![contribution]),
                ts: 0,
            },
            Time::ZERO,
        );
        assert!(
            !actions.iter().any(|a| matches!(a, BrdAction::Send { msg: BrdMsg::Echo { .. }, .. })),
            "under-justified aggregation must not be echoed"
        );
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
        let actions = brd.on_message(
            ReplicaId(1),
            BrdMsg::Echo { round: Round(1), recs: forged.clone(), sig, ts: 0 },
            Time::ZERO,
        );
        assert!(actions.iter().any(|a| matches!(a, BrdAction::Reject { .. })));
        // A well-signed vote from a non-member (honest around reconfiguration
        // boundaries) is dropped without evidence.
        let sig = outsider.sign(&echo_digest(Round(1), &honest));
        let actions = brd.on_message(
            ReplicaId(9),
            BrdMsg::Echo { round: Round(1), recs: honest.clone(), sig, ts: 0 },
            Time::ZERO,
        );
        assert!(!actions.iter().any(|a| matches!(a, BrdAction::Reject { .. })));
        // Forged Ready votes produce the same evidence.
        let sig = kp1.sign(&ready_digest(Round(1), &honest));
        let actions = brd.on_message(
            ReplicaId(1),
            BrdMsg::Ready { round: Round(1), recs: forged, sig, ts: 0 },
            Time::ZERO,
        );
        assert!(actions.iter().any(|a| matches!(a, BrdAction::Reject { .. })));
    }
}

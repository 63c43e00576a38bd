//! # ava-hotstuff
//!
//! A from-scratch implementation of (basic, non-pipelined) HotStuff used as the local
//! total-order broadcast of AVA-HOTSTUFF.
//!
//! Per decision the protocol runs the four HotStuff phases — *prepare*, *pre-commit*,
//! *commit*, *decide* — each consisting of a leader broadcast followed by replica
//! votes back to the leader, i.e. `O(8·n)` messages per decision (Table I of the
//! paper) and four round trips of latency (the paper's E2 notes "local ordering
//! involves 4 rounds of messages").
//!
//! This crate holds the phases only; leader, pool, watchdog and the leader
//! hand-over are the shared [`ava_consensus::regency`] layer, which makes
//! [`HotStuff`] a [`TotalOrderBroadcast`](ava_consensus::TotalOrderBroadcast).
//!
//! ## Simplifications relative to production HotStuff
//!
//! * Blocks are decided one at a time (no pipelining/chaining); Hamava drives one
//!   batch per round, so pipelining would not change the round structure.
//! * `Commit`-phase votes sign the block digest, so the final quorum certificate is
//!   directly the cross-cluster commit certificate Hamava ships in Stage 2; votes
//!   of the two earlier phases sign the digest *and the leader timestamp*
//!   ([`prepared_digest`]) and never leave the cluster.
//! * The pacemaker is externalised: liveness complaints are reported through
//!   [`TobAction::Complain`] and leader changes arrive through `new_leader`,
//!   matching Hamava's leader-election module (Alg. 8/9). What HotStuff's
//!   new-view message carries over — the highest quorum certificate a replica
//!   has seen — is the [`ava_consensus::regency`] hand-over: a replica *locks* a
//!   block when the `Commit` phase message proves a quorum pre-committed it, and
//!   reports its locks to the new leader. Replicas do not check the new
//!   leader's choice against the reports.
//!
//! These simplifications preserve the message/latency complexity that the paper's
//! evaluation depends on, which is what this reproduction needs from the substrate.

use ava_consensus::handover::{prepared_digest, Prepared, Report};
use ava_consensus::regency::forward_wire_size;
use ava_consensus::{
    Block, CommittedBlock, Phases, Regency, RegencyMsg, TobAction, TobConfig, WireSize,
};
use ava_crypto::{Digest, KeyRegistry, Keypair, QuorumCert, SigSet, Signature};
use ava_types::{Operation, ReplicaId, Time};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// The HotStuff phases.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Phase {
    /// Leader proposes a block; replicas vote on it.
    Prepare,
    /// Leader relays the prepare QC; replicas vote again.
    PreCommit,
    /// Leader relays the pre-commit QC; replicas vote again.
    Commit,
    /// Leader relays the commit QC; replicas deliver.
    Decide,
}

impl Phase {
    fn next(self) -> Option<Phase> {
        match self {
            Phase::Prepare => Some(Phase::PreCommit),
            Phase::PreCommit => Some(Phase::Commit),
            Phase::Commit => Some(Phase::Decide),
            Phase::Decide => None,
        }
    }

    /// What a vote cast in this phase signs: the bare block digest in `Commit`
    /// (those votes become the certificate that leaves the cluster), the digest
    /// bound to the leader timestamp before it.
    fn signed(self, digest: Digest, ts: u64) -> Digest {
        match self {
            Phase::Prepare | Phase::PreCommit => prepared_digest(&digest, ts),
            Phase::Commit | Phase::Decide => digest,
        }
    }
}

/// HotStuff wire messages.
#[derive(Clone, Debug)]
pub enum HotStuffMsg {
    /// A replica forwards an operation to the leader for ordering.
    Forward(Operation),
    /// Leader proposal for the `Prepare` phase. The block is `Arc`-shared: the
    /// leader's broadcast clones a pointer per member, not the operation batch.
    Proposal {
        /// The proposed block.
        block: Arc<Block>,
        /// Leader timestamp the proposal belongs to.
        ts: u64,
    },
    /// Leader phase message carrying the quorum certificate of the previous phase.
    PhaseCert {
        /// The phase this message starts (`PreCommit`, `Commit` or `Decide`).
        phase: Phase,
        /// Height of the block.
        height: u64,
        /// Digest of the block.
        digest: Digest,
        /// The votes of the previous phase, over what it signs
        /// (`Phase::signed`). `Arc`-shared: the leader builds it once and
        /// every member checks the one certificate, so the first check
        /// computes its verdict and the others replay it.
        justify: Arc<QuorumCert>,
        /// Leader timestamp.
        ts: u64,
    },
    /// Replica vote sent to the leader.
    Vote {
        /// The phase being voted in.
        phase: Phase,
        /// Height of the block.
        height: u64,
        /// Digest of the block.
        digest: Digest,
        /// The voter's signature over what the phase signs (`Phase::signed`).
        sig: Signature,
        /// Leader timestamp.
        ts: u64,
    },
    /// A replica entering a leader timestamp tells the new leader what it has
    /// decided and locked (boxed: rare, and every queued message pays for the
    /// largest variant).
    Report(Box<Report>),
    /// The new leader's last decided block, for replicas that missed it.
    Decided(Box<CommittedBlock>),
}

impl WireSize for HotStuffMsg {
    fn wire_size(&self) -> usize {
        match self {
            HotStuffMsg::Forward(op) => forward_wire_size(op),
            HotStuffMsg::Proposal { block, .. } => block.wire_size(),
            HotStuffMsg::PhaseCert { justify, .. } => 96 + justify.signature_count() * 48,
            HotStuffMsg::Vote { .. } => 120,
            HotStuffMsg::Report(report) => report.wire_size(),
            HotStuffMsg::Decided(decided) => decided.wire_size(),
        }
    }

    fn kind_label(&self) -> &'static str {
        match self {
            HotStuffMsg::Forward(_) => "hs.Forward",
            HotStuffMsg::Proposal { .. } => "hs.Proposal",
            HotStuffMsg::PhaseCert { .. } => "hs.PhaseCert",
            HotStuffMsg::Vote { .. } => "hs.Vote",
            HotStuffMsg::Report(_) => "hs.Report",
            HotStuffMsg::Decided(_) => "hs.Decided",
        }
    }
}

impl RegencyMsg for HotStuffMsg {
    fn forward(op: Operation) -> Self {
        HotStuffMsg::Forward(op)
    }

    fn report(report: Report) -> Self {
        HotStuffMsg::Report(Box::new(report))
    }

    fn decided(decided: CommittedBlock) -> Self {
        HotStuffMsg::Decided(Box::new(decided))
    }
}

/// State the leader keeps for the block currently being decided.
#[derive(Debug)]
struct InFlight {
    block: Arc<Block>,
    digest: Digest,
    phase: Phase,
    votes: SigSet,
}

/// The HotStuff total-order broadcast state machine for one replica.
pub struct HotStuff {
    regency: Regency,
    /// Leader-side: block currently going through the phases.
    in_flight: Option<InFlight>,
    /// Replica-side: blocks received in `Prepare` and not yet delivered past,
    /// keyed by digest, so that the `Decide` phase can deliver the full block.
    known_blocks: HashMap<Digest, Arc<Block>>,
    /// Next height to propose / accept; every height below it is delivered.
    next_height: u64,
    /// Replica-side: the `(height, phase, timestamp)`s this replica voted in
    /// (no double voting within a timestamp), from the next height on — ordered,
    /// so delivery cuts the delivered heights off in one split.
    voted: BTreeSet<(u64, Phase, u64)>,
    /// Locks: undelivered blocks a quorum is known to have pre-committed, with
    /// that quorum's votes as proof; kept across timestamps until delivered.
    locked: BTreeMap<u64, Prepared>,
}

impl HotStuff {
    /// Create a HotStuff instance for `cfg.me`, initially led by `leader`.
    pub fn new(cfg: TobConfig, keypair: Keypair, registry: KeyRegistry, leader: ReplicaId) -> Self {
        HotStuff {
            regency: Regency::new(cfg, keypair, registry, leader),
            in_flight: None,
            known_blocks: HashMap::new(),
            next_height: 0,
            voted: BTreeSet::new(),
            locked: BTreeMap::new(),
        }
    }

    /// Replica: vote for `digest` in `phase`.
    fn vote(&mut self, phase: Phase, height: u64, digest: Digest, out: &mut Vec<Action>) {
        let ts = self.regency.ts();
        if !self.voted.insert((height, phase, ts)) {
            return;
        }
        out.push(TobAction::Sign);
        let sig = self.regency.keypair.sign(&phase.signed(digest, ts));
        let msg = HotStuffMsg::Vote { phase, height, digest, sig, ts };
        out.push(TobAction::Send { to: self.regency.leader(), msg });
    }

    /// Deliver a block once its decide certificate is known. Nothing looks a
    /// block or a vote below the next height up again, so both memos drop them.
    fn deliver(&mut self, decided: CommittedBlock, now: Time, out: &mut Vec<Action>) {
        let height = decided.block.height;
        if height < self.next_height {
            return;
        }
        self.next_height = height + 1;
        self.known_blocks.retain(|_, block| block.height > height);
        self.voted = self.voted.split_off(&(self.next_height, Phase::Prepare, 0));
        self.locked = self.locked.split_off(&self.next_height);
        self.regency.deliver(decided, false, now, out);
    }

    /// Leader: count a vote; once a quorum voted, relay the votes as the next
    /// phase's certificate — after `Commit`, deliver and propose the next block.
    fn on_vote(&mut self, from: ReplicaId, vote: HotStuffMsg, now: Time, out: &mut Vec<Action>) {
        let HotStuffMsg::Vote { phase, height, digest, sig, ts } = vote else {
            return;
        };
        let (cfg, registry) = (&self.regency.cfg, &self.regency.registry);
        let Some(inflight) = self.in_flight.as_mut() else {
            return;
        };
        if !self.regency.is_leader()
            || ts != self.regency.ts()
            || (inflight.phase, inflight.digest, inflight.block.height) != (phase, digest, height)
        {
            return;
        }
        out.push(TobAction::Verify(1));
        if !registry.verify(&phase.signed(digest, ts), &sig) || !cfg.members.contains(&from) {
            return;
        }
        inflight.votes.insert(sig);
        if inflight.votes.len() < cfg.quorum() {
            return;
        }
        let next = inflight.phase.next().expect("Decide collects no votes");
        inflight.phase = next;
        let (votes, block) = (std::mem::take(&mut inflight.votes), inflight.block.clone());
        let justify = Arc::new(QuorumCert::new(cfg.cluster, phase.signed(digest, ts), votes));
        let cert = (next == Phase::Decide).then(|| Arc::clone(&justify));
        self.regency
            .to_members(HotStuffMsg::PhaseCert { phase: next, height, digest, justify, ts }, out);
        if let Some(cert) = cert {
            // The leader's own Decide handling happens via its loopback message,
            // but clear the in-flight slot now so the next block can be proposed
            // as soon as the decide is delivered locally.
            self.in_flight = None;
            self.deliver(CommittedBlock { block, cert }, now, out);
            self.propose(out);
        }
    }
}

type Action = TobAction<HotStuffMsg>;

impl Phases for HotStuff {
    type Msg = HotStuffMsg;

    const NAME: &'static str = "HotStuff";

    fn regency(&self) -> &Regency {
        &self.regency
    }

    fn regency_mut(&mut self) -> &mut Regency {
        &mut self.regency
    }

    fn handle(&mut self, from: ReplicaId, msg: HotStuffMsg, now: Time, out: &mut Vec<Action>) {
        let (leader, current) = (self.regency.leader(), self.regency.ts());
        match msg {
            HotStuffMsg::Forward(op) => self.on_forward(op, out),
            HotStuffMsg::Report(report) => self.on_report(from, *report, now, out),
            HotStuffMsg::Decided(decided) => self.on_decided(*decided, now, out),
            HotStuffMsg::Proposal { block, ts } => {
                if from != leader || ts != current || block.height < self.next_height {
                    return;
                }
                // Charge checking the proposal as one signature check.
                out.push(TobAction::Verify(1));
                let digest = block.digest();
                let height = block.height;
                self.known_blocks.insert(digest, block);
                self.vote(Phase::Prepare, height, digest, out);
            }
            HotStuffMsg::PhaseCert { phase, height, digest, justify, ts } => {
                if from != leader || ts != current {
                    return;
                }
                // Verify the quorum certificate of the previous phase: the
                // votes of the phase before.
                out.push(TobAction::Verify(justify.signature_count()));
                let voted_in = match phase {
                    Phase::Prepare | Phase::PreCommit => Phase::Prepare,
                    Phase::Commit => Phase::PreCommit,
                    Phase::Decide => Phase::Commit,
                };
                let (cfg, signed) = (&self.regency.cfg, voted_in.signed(digest, ts));
                if justify.cluster() != cfg.cluster
                    || !justify.is_valid(
                        &self.regency.registry,
                        &signed,
                        &cfg.members,
                        cfg.quorum(),
                    )
                {
                    return;
                }
                match phase {
                    Phase::PreCommit => self.vote(phase, height, digest, out),
                    Phase::Commit => {
                        // A quorum pre-committed this block: a `Commit` vote may
                        // decide it, so hold the proof until the height is delivered.
                        if let Some(block) = self.known_blocks.get(&digest).cloned() {
                            let proof =
                                Prepared { block, regency: ts, proof: justify.sigs().clone() };
                            self.locked.insert(height, proof);
                        }
                        self.vote(phase, height, digest, out);
                    }
                    Phase::Decide => {
                        if let Some(block) = self.known_blocks.get(&digest).cloned() {
                            self.deliver(CommittedBlock { block, cert: justify }, now, out);
                        }
                    }
                    Phase::Prepare => {}
                }
            }
            vote @ HotStuffMsg::Vote { .. } => self.on_vote(from, vote, now, out),
        }
    }

    fn propose(&mut self, out: &mut Vec<Action>) {
        if self.in_flight.is_some() {
            return;
        }
        let Some(block) = self.regency.next_block(self.next_height, out) else {
            return;
        };
        let (digest, phase, votes) = (block.digest(), Phase::Prepare, SigSet::new());
        self.in_flight = Some(InFlight { block: Arc::clone(&block), digest, phase, votes });
        self.regency.to_members(HotStuffMsg::Proposal { block, ts: self.regency.ts() }, out);
    }

    fn next_height(&self) -> u64 {
        self.next_height
    }

    fn adopt(&mut self, decided: CommittedBlock, now: Time, out: &mut Vec<Action>) {
        if self.in_flight.as_ref().is_some_and(|f| f.block.height <= decided.block.height) {
            // A leader re-proposing this very block learnt it was decided
            // already (an earlier new leader's `Decided` arriving late): the
            // replicas that adopted it too will never vote on the proposal.
            self.in_flight = None;
        }
        self.deliver(decided, now, out);
        self.propose(out);
    }

    fn abandon(&mut self) -> (Option<Arc<Block>>, Vec<Prepared>) {
        (self.in_flight.take().map(|f| f.block), self.locked.values().cloned().collect())
    }

    fn reset_phases(&mut self) {
        self.in_flight = None;
        self.known_blocks.clear();
        // Height 0 accepts any next proposal (`height < next_height` rejects).
        self.next_height = 0;
        self.voted.clear();
        self.locked.clear();
    }
}

#[cfg(test)]
mod tests;

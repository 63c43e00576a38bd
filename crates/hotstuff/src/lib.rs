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
//! ## Simplifications relative to production HotStuff
//!
//! * Blocks are decided one at a time (no pipelining/chaining); Hamava drives one
//!   batch per round, so pipelining would not change the round structure.
//! * `Commit`-phase votes sign the block digest, so the final quorum certificate is
//!   directly the cross-cluster commit certificate Hamava ships in Stage 2; votes
//!   of the two earlier phases sign the digest *and the leader timestamp*
//!   ([`prepared_digest`]) and never leave the cluster.
//! * The pacemaker is externalised: liveness complaints are reported through
//!   [`TobAction::Complain`] and leader changes arrive through
//!   [`TotalOrderBroadcast::new_leader`], matching Hamava's leader-election module
//!   (Alg. 8/9). What HotStuff's new-view message carries over — the highest
//!   quorum certificate a replica has seen — is the [`ava_consensus::handover`]:
//!   a replica *locks* a block when the `Commit` phase message proves a quorum
//!   pre-committed it, reports its last decided block and its locks to the new
//!   leader, and the new leader proposes nothing until `2f + 1` reports let it
//!   adopt what was decided and re-propose what may have been. Replicas do not
//!   check the new leader's choice against the reports.
//!
//! These simplifications preserve the message/latency complexity that the paper's
//! evaluation depends on, which is what this reproduction needs from the substrate.

use ava_consensus::handover::{prepared_digest, Prepared, Report, Reports};
use ava_consensus::{
    Block, CommittedBlock, FaultMode, PendingPool, TobAction, TobConfig, TotalOrderBroadcast,
    WireSize,
};
use ava_crypto::{Digest, KeyRegistry, Keypair, QuorumCert, SigSet, Signature};
use ava_types::{Operation, ReplicaId, Time, Timestamp};
use std::collections::{BTreeMap, HashMap};
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
        /// Signatures collected in the previous phase.
        justify: SigSet,
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
            HotStuffMsg::Forward(op) => match op {
                Operation::Trans(t) => t.payload_size as usize + 48,
                Operation::ReconfigSet { recs, .. } => recs.len() * 64 + 56,
                Operation::RoundCut { .. } => 32,
            },
            HotStuffMsg::Proposal { block, .. } => block.wire_size(),
            HotStuffMsg::PhaseCert { justify, .. } => 96 + justify.len() * 48,
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
    cfg: TobConfig,
    keypair: Keypair,
    registry: KeyRegistry,
    leader: ReplicaId,
    ts: u64,
    fault: FaultMode,
    pool: PendingPool,
    /// Leader-side: block currently going through the phases.
    in_flight: Option<InFlight>,
    /// Replica-side: blocks received in `Prepare`, keyed by digest, so that the
    /// `Decide` phase can deliver the full block contents.
    known_blocks: HashMap<Digest, Arc<Block>>,
    /// Next height to propose / accept.
    next_height: u64,
    /// Height of the last delivered block.
    delivered_height: Option<u64>,
    /// Replica-side: the phase this replica last voted in per height (prevents double
    /// voting within a timestamp).
    voted: HashMap<(u64, Phase, u64), ()>,
    /// The last block delivered, as reported at the next leader change.
    last_decided: Option<CommittedBlock>,
    /// Locks: undelivered blocks a quorum is known to have pre-committed, with
    /// that quorum's votes as proof; kept across timestamps until delivered.
    locked: BTreeMap<u64, Prepared>,
    /// Leader side of the hand-over: the replicas' reports, ...
    reports: Reports,
    /// ... whether a quorum of them has been resolved (until then: no proposals), ...
    synced: bool,
    /// ... and the possibly-decided blocks to re-propose, by height.
    carry: BTreeMap<u64, Arc<Block>>,
}

impl HotStuff {
    /// Create a HotStuff instance for `cfg.me`, initially led by `leader`.
    pub fn new(cfg: TobConfig, keypair: Keypair, registry: KeyRegistry, leader: ReplicaId) -> Self {
        HotStuff {
            cfg,
            keypair,
            registry,
            leader,
            ts: 0,
            fault: FaultMode::Correct,
            pool: PendingPool::new(),
            in_flight: None,
            known_blocks: HashMap::new(),
            next_height: 0,
            delivered_height: None,
            voted: HashMap::new(),
            last_decided: None,
            locked: BTreeMap::new(),
            reports: Reports::default(),
            synced: true,
            carry: BTreeMap::new(),
        }
    }

    fn is_leader(&self) -> bool {
        self.leader == self.cfg.me
    }

    fn broadcast_to_members(&self, msg: HotStuffMsg, out: &mut Vec<TobAction<HotStuffMsg>>) {
        for &member in &self.cfg.members {
            out.push(TobAction::Send { to: member, msg: msg.clone() });
        }
    }

    /// Leader: propose the next block if idle and work is pending.
    fn maybe_propose(&mut self, out: &mut Vec<TobAction<HotStuffMsg>>) {
        if !self.is_leader()
            || self.fault == FaultMode::SilentLeader
            || self.in_flight.is_some()
            || !self.synced
        {
            return;
        }
        let block = match self.carry.remove(&self.next_height) {
            Some(carried) => carried,
            None if self.pool.pending_len() == 0 => return,
            None => {
                let ops = self.pool.take_batch(self.cfg.max_block_size);
                Arc::new(Block::new(self.cfg.cluster, self.next_height, self.cfg.me, ops))
            }
        };
        let digest = block.digest();
        out.push(TobAction::Consume(self.cfg.sign_cost));
        self.in_flight = Some(InFlight {
            block: Arc::clone(&block),
            digest,
            phase: Phase::Prepare,
            votes: SigSet::new(),
        });
        self.broadcast_to_members(HotStuffMsg::Proposal { block, ts: self.ts }, out);
    }

    /// Replica: vote for `digest` in `phase`.
    fn vote(
        &mut self,
        phase: Phase,
        height: u64,
        digest: Digest,
        out: &mut Vec<TobAction<HotStuffMsg>>,
    ) {
        if self.voted.contains_key(&(height, phase, self.ts)) {
            return;
        }
        self.voted.insert((height, phase, self.ts), ());
        out.push(TobAction::Consume(self.cfg.sign_cost));
        let sig = self.keypair.sign(&phase.signed(digest, self.ts));
        out.push(TobAction::Send {
            to: self.leader,
            msg: HotStuffMsg::Vote { phase, height, digest, sig, ts: self.ts },
        });
    }

    /// Deliver a block once the decide certificate is known.
    fn deliver(
        &mut self,
        block: Arc<Block>,
        cert: QuorumCert,
        now: Time,
        out: &mut Vec<TobAction<HotStuffMsg>>,
    ) {
        if self.delivered_height.is_some_and(|h| h >= block.height) {
            return;
        }
        self.delivered_height = Some(block.height);
        self.next_height = block.height + 1;
        self.pool.mark_delivered(&block.ops, now);
        if !self.is_leader() {
            self.pool.drop_pending(&block.ops);
        }
        self.known_blocks.remove(&cert.digest);
        self.locked.retain(|height, _| *height >= self.next_height);
        let decided = CommittedBlock { block, cert };
        self.last_decided = Some(decided.clone());
        out.push(TobAction::Deliver(decided));
    }

    /// Leader: once a quorum has reported for this timestamp, catch up to the
    /// highest decided block, queue the possibly-decided ones for re-proposal,
    /// and start proposing.
    fn resolve_handover(&mut self, now: Time, out: &mut Vec<TobAction<HotStuffMsg>>) {
        if self.synced || !self.is_leader() {
            return;
        }
        let Some(resolution) = self.reports.resolve(self.ts, self.cfg.quorum()) else {
            return;
        };
        if let Some(CommittedBlock { block, cert }) = resolution.decided {
            self.deliver(block, cert, now, out);
        }
        self.carry = resolution.carry;
        for block in self.carry.values() {
            self.pool.note_ordered(&block.ops);
        }
        if let Some(decided) = &self.last_decided {
            // A replica one block behind re-forwards that block's operations; the
            // pool must know them as ordered whether or not it ever held them.
            self.pool.note_ordered(&decided.block.ops);
            self.broadcast_to_members(HotStuffMsg::Decided(Box::new(decided.clone())), out);
        }
        self.synced = true;
        self.maybe_propose(out);
    }
}

impl TotalOrderBroadcast for HotStuff {
    type Msg = HotStuffMsg;

    fn name(&self) -> &'static str {
        "HotStuff"
    }

    fn broadcast(&mut self, op: Operation, now: Time) -> Vec<TobAction<HotStuffMsg>> {
        let mut out = Vec::new();
        self.pool.record_my_broadcast(op.clone(), now);
        if self.is_leader() {
            self.pool.enqueue(op);
            self.maybe_propose(&mut out);
        } else {
            out.push(TobAction::Send { to: self.leader, msg: HotStuffMsg::Forward(op) });
        }
        out
    }

    fn on_message(
        &mut self,
        from: ReplicaId,
        msg: HotStuffMsg,
        now: Time,
    ) -> Vec<TobAction<HotStuffMsg>> {
        let mut out = Vec::new();
        match msg {
            HotStuffMsg::Forward(op) => {
                // A non-leader keeps it too: a member re-forwards to a new
                // leader as soon as it installs the change, which can be
                // before the new leader has. Delivery drops it from here.
                self.pool.enqueue(op);
                self.maybe_propose(&mut out);
            }
            HotStuffMsg::Proposal { block, ts } => {
                if from != self.leader || ts != self.ts || block.height < self.next_height {
                    return out;
                }
                // Charge hashing/validation of the proposal.
                out.push(TobAction::Consume(self.cfg.verify_cost));
                let digest = block.digest();
                let height = block.height;
                self.known_blocks.insert(digest, block);
                self.vote(Phase::Prepare, height, digest, &mut out);
            }
            HotStuffMsg::PhaseCert { phase, height, digest, justify, ts } => {
                if from != self.leader || ts != self.ts {
                    return out;
                }
                // Verify the quorum certificate of the previous phase.
                out.push(TobAction::Consume(
                    self.cfg.verify_cost.saturating_mul(justify.len() as u64),
                ));
                // The justification is the votes of the phase before.
                let voted_in = match phase {
                    Phase::Prepare | Phase::PreCommit => Phase::Prepare,
                    Phase::Commit => Phase::PreCommit,
                    Phase::Decide => Phase::Commit,
                };
                let signed = voted_in.signed(digest, ts);
                let valid = justify.count_valid(&self.registry, &signed, &self.cfg.members)
                    >= self.cfg.quorum();
                if !valid {
                    return out;
                }
                match phase {
                    Phase::PreCommit => self.vote(phase, height, digest, &mut out),
                    Phase::Commit => {
                        // A quorum pre-committed this block: a `Commit` vote may
                        // decide it, so hold the proof until the height is delivered.
                        if let Some(block) = self.known_blocks.get(&digest).cloned() {
                            self.locked
                                .insert(height, Prepared { block, regency: ts, proof: justify });
                        }
                        self.vote(phase, height, digest, &mut out);
                    }
                    Phase::Decide => {
                        if let Some(block) = self.known_blocks.get(&digest).cloned() {
                            let cert = QuorumCert::new(self.cfg.cluster, digest, justify);
                            self.deliver(block, cert, now, &mut out);
                        }
                    }
                    Phase::Prepare => {}
                }
            }
            HotStuffMsg::Vote { phase, height, digest, sig, ts } => {
                if !self.is_leader() || ts != self.ts {
                    return out;
                }
                let Some(inflight) = self.in_flight.as_mut() else {
                    return out;
                };
                if inflight.phase != phase
                    || inflight.digest != digest
                    || inflight.block.height != height
                {
                    return out;
                }
                out.push(TobAction::Consume(self.cfg.verify_cost));
                if !self.registry.verify(&phase.signed(digest, ts), &sig)
                    || !self.cfg.members.contains(&from)
                {
                    return out;
                }
                inflight.votes.insert(sig);
                if inflight.votes.len() >= self.cfg.quorum() {
                    let justify = std::mem::take(&mut inflight.votes);
                    let next = inflight.phase.next().expect("Decide collects no votes");
                    inflight.phase = next;
                    let block = inflight.block.clone();
                    let msg = HotStuffMsg::PhaseCert {
                        phase: next,
                        height,
                        digest,
                        justify: justify.clone(),
                        ts: self.ts,
                    };
                    self.broadcast_to_members(msg, &mut out);
                    if next == Phase::Decide {
                        // The leader's own Decide handling happens via its loopback
                        // message, but clear the in-flight slot now so the next block
                        // can be proposed as soon as the decide is delivered locally.
                        let cert = QuorumCert::new(self.cfg.cluster, digest, justify);
                        self.in_flight = None;
                        self.deliver(block, cert, now, &mut out);
                        self.maybe_propose(&mut out);
                    }
                }
            }
            HotStuffMsg::Report(report) => {
                if report.regency >= self.ts && self.cfg.members.contains(&from) {
                    let sigs = report.signature_count() as u64;
                    out.push(TobAction::Consume(self.cfg.verify_cost.saturating_mul(sigs)));
                    if self.reports.accept(from, *report, &self.cfg, &self.registry) {
                        self.resolve_handover(now, &mut out);
                    }
                }
            }
            HotStuffMsg::Decided(decided) => {
                if self.delivered_height.is_none_or(|h| h < decided.block.height)
                    && decided.block.cluster == self.cfg.cluster
                {
                    let sigs = decided.cert.signature_count() as u64;
                    out.push(TobAction::Consume(self.cfg.verify_cost.saturating_mul(sigs)));
                    if decided.verify(&self.registry, &self.cfg.members, self.cfg.quorum()) {
                        let CommittedBlock { block, cert } = *decided;
                        if self.in_flight.as_ref().is_some_and(|f| f.block.height <= block.height) {
                            // A leader re-proposing this very block learnt it was
                            // decided already (an earlier new leader's `Decided`
                            // arriving late): the replicas that adopted it too
                            // will never vote on the proposal.
                            self.in_flight = None;
                        }
                        self.deliver(block, cert, now, &mut out);
                        self.maybe_propose(&mut out);
                    }
                }
            }
        }
        out
    }

    fn on_tick(&mut self, now: Time) -> Vec<TobAction<HotStuffMsg>> {
        let mut out = Vec::new();
        self.maybe_propose(&mut out);
        let (floor, ceiling) = (self.cfg.timeout_floor, self.cfg.timeout);
        if let Some(silent_for) = self.pool.should_complain(now, floor, ceiling) {
            out.push(TobAction::Complain { leader: self.leader, silent_for });
        }
        out
    }

    fn new_leader(
        &mut self,
        leader: ReplicaId,
        ts: Timestamp,
        now: Time,
    ) -> Vec<TobAction<HotStuffMsg>> {
        let mut out = Vec::new();
        if ts.0 <= self.ts && leader == self.leader {
            return out;
        }
        // Abandon any in-flight proposal; its operations go back to the pool if we
        // become the leader, and every replica re-forwards its own undelivered
        // operations to the new leader so nothing is lost.
        if let Some(inflight) = self.in_flight.take() {
            self.pool.requeue_front(inflight.block.ops.clone());
        }
        self.leader = leader;
        self.ts = ts.0;
        self.synced = false;
        self.carry.clear();
        self.pool.reset_watch(now);
        let report = Report {
            regency: self.ts,
            decided: self.last_decided.clone(),
            prepared: self.locked.values().cloned().collect(),
        };
        if self.is_leader() {
            for op in self.pool.my_undelivered().to_vec() {
                self.pool.enqueue(op);
            }
            self.reports.insert(self.cfg.me, report);
            self.resolve_handover(now, &mut out);
        } else {
            out.push(TobAction::Send {
                to: self.leader,
                msg: HotStuffMsg::Report(Box::new(report)),
            });
            for op in self.pool.my_undelivered() {
                let msg = HotStuffMsg::Forward(op.clone());
                out.push(TobAction::Send { to: self.leader, msg });
            }
        }
        out
    }

    fn set_membership(&mut self, members: Vec<ReplicaId>) {
        self.cfg.members = members;
    }

    fn leader(&self) -> ReplicaId {
        self.leader
    }

    fn set_fault_mode(&mut self, mode: FaultMode) {
        self.fault = mode;
    }

    fn reset(&mut self) {
        self.ts = 0;
        self.fault = FaultMode::Correct;
        self.pool = PendingPool::new();
        self.in_flight = None;
        self.known_blocks.clear();
        // Height 0 accepts any next proposal (`height < next_height` rejects);
        // `delivered_height` re-seeds from the first post-restart delivery.
        self.next_height = 0;
        self.delivered_height = None;
        self.voted.clear();
        self.last_decided = None;
        self.locked.clear();
        self.reports = Reports::default();
        self.synced = true;
        self.carry.clear();
    }
}

#[cfg(test)]
mod tests;

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
//! * Votes sign the block digest in every phase, so the final quorum certificate is
//!   directly the cross-cluster commit certificate Hamava ships in Stage 2.
//! * The pacemaker is externalised: liveness complaints are reported through
//!   [`TobAction::Complain`] and leader changes arrive through
//!   [`TotalOrderBroadcast::new_leader`], matching Hamava's leader-election module
//!   (Alg. 8/9).
//!
//! These simplifications preserve the message/latency complexity that the paper's
//! evaluation depends on, which is what this reproduction needs from the substrate.

use ava_consensus::{
    Block, CommittedBlock, FaultMode, PendingPool, TobAction, TobConfig, TotalOrderBroadcast,
    WireSize,
};
use ava_crypto::{Digest, KeyRegistry, Keypair, QuorumCert, SigSet, Signature};
use ava_types::{Operation, ReplicaId, Time, Timestamp};
use std::collections::HashMap;
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
        /// The voter's signature over the block digest.
        sig: Signature,
        /// Leader timestamp.
        ts: u64,
    },
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
        }
    }

    fn kind_label(&self) -> &'static str {
        match self {
            HotStuffMsg::Forward(_) => "hs.Forward",
            HotStuffMsg::Proposal { .. } => "hs.Proposal",
            HotStuffMsg::PhaseCert { .. } => "hs.PhaseCert",
            HotStuffMsg::Vote { .. } => "hs.Vote",
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
            || self.pool.pending_len() == 0
        {
            return;
        }
        let ops = self.pool.take_batch(self.cfg.max_block_size);
        let block = Arc::new(Block::new(self.cfg.cluster, self.next_height, self.cfg.me, ops));
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
        let sig = self.keypair.sign(&digest);
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
        self.known_blocks.remove(&cert.digest);
        out.push(TobAction::Deliver(CommittedBlock { block, cert }));
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
                if self.is_leader() {
                    self.pool.enqueue(op);
                    self.maybe_propose(&mut out);
                }
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
                let valid = justify.count_valid(&self.registry, &digest, &self.cfg.members)
                    >= self.cfg.quorum();
                if !valid {
                    return out;
                }
                match phase {
                    Phase::PreCommit | Phase::Commit => {
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
                if !self.registry.verify(&digest, &sig) || !self.cfg.members.contains(&from) {
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
        }
        out
    }

    fn on_tick(&mut self, now: Time) -> Vec<TobAction<HotStuffMsg>> {
        let mut out = Vec::new();
        self.maybe_propose(&mut out);
        if self.pool.should_complain(now, self.cfg.timeout) {
            out.push(TobAction::Complain { leader: self.leader });
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
        self.pool.reset_watch(now);
        for op in self.pool.my_undelivered().to_vec() {
            if self.is_leader() {
                self.pool.enqueue(op);
            } else {
                out.push(TobAction::Send { to: self.leader, msg: HotStuffMsg::Forward(op) });
            }
        }
        self.maybe_propose(&mut out);
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
    }
}

#[cfg(test)]
mod tests;

//! # ava-bftsmart
//!
//! A from-scratch PBFT-style total-order broadcast modelled on BFT-SMaRt's MOD-SMaRt
//! consensus, used as the local replication protocol of AVA-BFTSMART.
//!
//! Per decision the protocol runs three communication steps: a leader *pre-prepare*
//! broadcast followed by all-to-all *prepare* and *commit* rounds, i.e. `O(2·n²)`
//! messages per decision (Table I of the paper) but only ~1.5 round trips of latency.
//! Compared to the HotStuff substrate this gives the asymmetry the paper's
//! evaluation shows: lower latency at small cluster sizes, lower throughput at large
//! ones because every replica handles `O(n)` messages per decision.
//!
//! ## Simplifications relative to BFT-SMaRt
//!
//! * One consensus instance at a time (no out-of-order instances); Hamava drives one
//!   batch per round so this does not change the round structure.
//! * The view-synchronization phase is externalised to Hamava's leader election
//!   module, exactly like the HotStuff pacemaker: liveness complaints surface as
//!   [`TobAction::Complain`] and the new regency arrives via `new_leader`.
//! * Prepare/commit votes sign the block digest, so the commit certificate doubles as
//!   the cross-cluster certificate shipped by Hamava's Stage 2.

use ava_consensus::{
    Block, CommittedBlock, FaultMode, PendingPool, TobAction, TobConfig, TotalOrderBroadcast,
    WireSize,
};
use ava_crypto::{Digest, KeyRegistry, Keypair, QuorumCert, SigSet, Signature};
use ava_types::{Operation, ReplicaId, Time, Timestamp};
use std::collections::HashMap;
use std::sync::Arc;

/// BFT-SMaRt-style wire messages.
#[derive(Clone, Debug)]
pub enum BftSmartMsg {
    /// A replica forwards an operation to the leader for ordering.
    Forward(Operation),
    /// Leader proposal starting a consensus instance (PBFT pre-prepare). The block
    /// is `Arc`-shared: the broadcast clones a pointer per member, not the batch.
    PrePrepare {
        /// The proposed block.
        block: Arc<Block>,
        /// Leader regency (timestamp) the proposal belongs to.
        regency: u64,
    },
    /// All-to-all prepare vote (PBFT prepare / BFT-SMaRt WRITE).
    Prepare {
        /// Height of the block being voted on.
        height: u64,
        /// Digest of the block.
        digest: Digest,
        /// Voter signature over the digest.
        sig: Signature,
        /// Leader regency.
        regency: u64,
    },
    /// All-to-all commit vote (PBFT commit / BFT-SMaRt ACCEPT).
    Commit {
        /// Height of the block being voted on.
        height: u64,
        /// Digest of the block.
        digest: Digest,
        /// Voter signature over the digest.
        sig: Signature,
        /// Leader regency.
        regency: u64,
    },
}

impl WireSize for BftSmartMsg {
    fn wire_size(&self) -> usize {
        match self {
            BftSmartMsg::Forward(op) => match op {
                Operation::Trans(t) => t.payload_size as usize + 48,
                Operation::ReconfigSet { recs, .. } => recs.len() * 64 + 56,
                Operation::RoundCut { .. } => 32,
            },
            BftSmartMsg::PrePrepare { block, .. } => block.wire_size(),
            BftSmartMsg::Prepare { .. } | BftSmartMsg::Commit { .. } => 120,
        }
    }

    fn kind_label(&self) -> &'static str {
        match self {
            BftSmartMsg::Forward(_) => "bs.Forward",
            BftSmartMsg::PrePrepare { .. } => "bs.PrePrepare",
            BftSmartMsg::Prepare { .. } => "bs.Prepare",
            BftSmartMsg::Commit { .. } => "bs.Commit",
        }
    }
}

/// Per-instance voting state.
#[derive(Debug, Default)]
struct Instance {
    block: Option<Arc<Block>>,
    digest: Option<Digest>,
    prepares: SigSet,
    commits: SigSet,
    sent_commit: bool,
    delivered: bool,
}

/// The BFT-SMaRt-style total-order broadcast state machine for one replica.
pub struct BftSmart {
    cfg: TobConfig,
    keypair: Keypair,
    registry: KeyRegistry,
    leader: ReplicaId,
    regency: u64,
    fault: FaultMode,
    pool: PendingPool,
    /// Voting state per height.
    instances: HashMap<u64, Instance>,
    /// Next height the leader proposes at.
    next_propose_height: u64,
    /// Next height to deliver (deliveries are strictly in height order).
    next_deliver_height: u64,
    /// Whether the leader currently has an undecided proposal outstanding.
    proposal_outstanding: bool,
    /// Set by [`TotalOrderBroadcast::reset`]: the delivery cursor re-bases on the
    /// height of the first pre-prepare seen after a restart (the restarted replica
    /// learns the missed heights' effects via checkpoint/state transfer, not by
    /// re-running consensus for them).
    resync_delivery: bool,
}

impl BftSmart {
    /// Create a BFT-SMaRt instance for `cfg.me`, initially led by `leader`.
    pub fn new(cfg: TobConfig, keypair: Keypair, registry: KeyRegistry, leader: ReplicaId) -> Self {
        BftSmart {
            cfg,
            keypair,
            registry,
            leader,
            regency: 0,
            fault: FaultMode::Correct,
            pool: PendingPool::new(),
            instances: HashMap::new(),
            next_propose_height: 0,
            next_deliver_height: 0,
            proposal_outstanding: false,
            resync_delivery: false,
        }
    }

    fn is_leader(&self) -> bool {
        self.leader == self.cfg.me
    }

    fn broadcast_to_members(&self, msg: BftSmartMsg, out: &mut Vec<TobAction<BftSmartMsg>>) {
        for &member in &self.cfg.members {
            out.push(TobAction::Send { to: member, msg: msg.clone() });
        }
    }

    fn maybe_propose(&mut self, out: &mut Vec<TobAction<BftSmartMsg>>) {
        if !self.is_leader()
            || self.fault == FaultMode::SilentLeader
            || self.proposal_outstanding
            || self.pool.pending_len() == 0
        {
            return;
        }
        let ops = self.pool.take_batch(self.cfg.max_block_size);
        let block =
            Arc::new(Block::new(self.cfg.cluster, self.next_propose_height, self.cfg.me, ops));
        self.next_propose_height += 1;
        self.proposal_outstanding = true;
        out.push(TobAction::Consume(self.cfg.sign_cost));
        self.broadcast_to_members(BftSmartMsg::PrePrepare { block, regency: self.regency }, out);
    }

    fn handle_pre_prepare(
        &mut self,
        from: ReplicaId,
        block: Arc<Block>,
        regency: u64,
        out: &mut Vec<TobAction<BftSmartMsg>>,
    ) {
        if from != self.leader || regency != self.regency {
            return;
        }
        if self.resync_delivery {
            self.resync_delivery = false;
            self.next_deliver_height = self.next_deliver_height.max(block.height);
        }
        if block.height < self.next_deliver_height {
            return;
        }
        out.push(TobAction::Consume(self.cfg.verify_cost));
        let digest = block.digest();
        let height = block.height;
        let instance = self.instances.entry(height).or_default();
        if instance.block.is_some() {
            return;
        }
        instance.block = Some(block);
        instance.digest = Some(digest);
        out.push(TobAction::Consume(self.cfg.sign_cost));
        let sig = self.keypair.sign(&digest);
        let msg = BftSmartMsg::Prepare { height, digest, sig, regency: self.regency };
        self.broadcast_to_members(msg, out);
    }

    fn handle_vote(
        &mut self,
        from: ReplicaId,
        height: u64,
        digest: Digest,
        sig: Signature,
        regency: u64,
        is_commit: bool,
        now: Time,
        out: &mut Vec<TobAction<BftSmartMsg>>,
    ) {
        if regency != self.regency
            || height < self.next_deliver_height
            || !self.cfg.members.contains(&from)
        {
            return;
        }
        out.push(TobAction::Consume(self.cfg.verify_cost));
        if !self.registry.verify(&digest, &sig) {
            return;
        }
        let quorum = self.cfg.quorum();
        let me = self.keypair.clone();
        let instance = self.instances.entry(height).or_default();
        if instance.digest.is_some_and(|d| d != digest) {
            // Conflicting digest for the same height within a regency: ignore; only
            // the digest matching the leader's pre-prepare is voted on.
            return;
        }
        if is_commit {
            instance.commits.insert(sig);
        } else {
            instance.prepares.insert(sig);
        }
        // Move to the commit phase once a prepare quorum is known.
        if !instance.sent_commit
            && instance.prepares.len() >= quorum
            && instance.digest == Some(digest)
        {
            instance.sent_commit = true;
            out.push(TobAction::Consume(self.cfg.sign_cost));
            let my_sig = me.sign(&digest);
            let msg = BftSmartMsg::Commit { height, digest, sig: my_sig, regency };
            self.broadcast_to_members(msg, out);
        }
        self.try_deliver(now, out);
    }

    fn try_deliver(&mut self, now: Time, out: &mut Vec<TobAction<BftSmartMsg>>) {
        loop {
            let height = self.next_deliver_height;
            let quorum = self.cfg.quorum();
            let ready = {
                let Some(instance) = self.instances.get(&height) else { break };
                !instance.delivered && instance.block.is_some() && instance.commits.len() >= quorum
            };
            if !ready {
                break;
            }
            let mut instance = self.instances.remove(&height).expect("checked above");
            instance.delivered = true;
            let block = instance.block.take().expect("checked above");
            let digest = instance.digest.expect("digest set with block");
            let cert = QuorumCert::new(self.cfg.cluster, digest, instance.commits.clone());
            self.pool.mark_delivered(&block.ops, now);
            self.next_deliver_height = height + 1;
            if self.is_leader() {
                self.proposal_outstanding = false;
            }
            out.push(TobAction::Deliver(CommittedBlock { block, cert }));
            self.maybe_propose(out);
        }
    }
}

impl TotalOrderBroadcast for BftSmart {
    type Msg = BftSmartMsg;

    fn name(&self) -> &'static str {
        "BFT-SMaRt"
    }

    fn broadcast(&mut self, op: Operation, now: Time) -> Vec<TobAction<BftSmartMsg>> {
        let mut out = Vec::new();
        self.pool.record_my_broadcast(op.clone(), now);
        if self.is_leader() {
            self.pool.enqueue(op);
            self.maybe_propose(&mut out);
        } else {
            out.push(TobAction::Send { to: self.leader, msg: BftSmartMsg::Forward(op) });
        }
        out
    }

    fn on_message(
        &mut self,
        from: ReplicaId,
        msg: BftSmartMsg,
        now: Time,
    ) -> Vec<TobAction<BftSmartMsg>> {
        let mut out = Vec::new();
        match msg {
            BftSmartMsg::Forward(op) => {
                if self.is_leader() {
                    self.pool.enqueue(op);
                    self.maybe_propose(&mut out);
                }
            }
            BftSmartMsg::PrePrepare { block, regency } => {
                self.handle_pre_prepare(from, block, regency, &mut out);
            }
            BftSmartMsg::Prepare { height, digest, sig, regency } => {
                self.handle_vote(from, height, digest, sig, regency, false, now, &mut out);
            }
            BftSmartMsg::Commit { height, digest, sig, regency } => {
                self.handle_vote(from, height, digest, sig, regency, true, now, &mut out);
            }
        }
        out
    }

    fn on_tick(&mut self, now: Time) -> Vec<TobAction<BftSmartMsg>> {
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
    ) -> Vec<TobAction<BftSmartMsg>> {
        let mut out = Vec::new();
        if ts.0 <= self.regency && leader == self.leader {
            return out;
        }
        self.leader = leader;
        self.regency = ts.0;
        // Abandon undecided instances; their operations are re-forwarded below by the
        // replicas that originally broadcast them (BFT-SMaRt's view synchronization
        // re-proposes pending requests the same way).
        self.instances.retain(|_, inst| inst.delivered);
        self.next_propose_height = self.next_deliver_height;
        self.proposal_outstanding = false;
        self.pool.reset_watch(now);
        for op in self.pool.my_undelivered().to_vec() {
            if self.is_leader() {
                self.pool.enqueue(op);
            } else {
                out.push(TobAction::Send { to: self.leader, msg: BftSmartMsg::Forward(op) });
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
        self.regency = 0;
        self.fault = FaultMode::Correct;
        self.pool = PendingPool::new();
        self.instances.clear();
        self.next_propose_height = 0;
        self.next_deliver_height = 0;
        self.proposal_outstanding = false;
        self.resync_delivery = true;
    }
}

#[cfg(test)]
mod tests;

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
//! * *Electing* the next regency is externalised to Hamava's leader election
//!   module, exactly like the HotStuff pacemaker: liveness complaints surface as
//!   [`TobAction::Complain`] and the new regency arrives via `new_leader`. What a
//!   regency change must carry over — BFT-SMaRt's synchronization phase — is the
//!   [`ava_consensus::handover`]: every member reports its last decided block and
//!   its [`Prepared`] proofs to the new leader, which proposes nothing until it
//!   holds `2f + 1` reports, adopts a decided block it lacks, sends its last
//!   decided block round for laggards, and re-proposes a possibly-decided block
//!   unchanged. Members do not check the new leader's choice against the reports
//!   (no new-view certificate).
//! * Commit votes sign the block digest, so the commit certificate doubles as the
//!   cross-cluster certificate shipped by Hamava's Stage 2; prepare votes sign the
//!   digest *and the regency* ([`prepared_digest`]) and never leave the cluster.

use ava_consensus::handover::{prepared_digest, Prepared, Report, Reports};
use ava_consensus::{
    Block, CommittedBlock, FaultMode, PendingPool, TobAction, TobConfig, TotalOrderBroadcast,
    WireSize,
};
use ava_crypto::{Digest, KeyRegistry, Keypair, QuorumCert, SigSet, Signature};
use ava_types::{Operation, ReplicaId, Time, Timestamp};
use std::collections::{BTreeMap, HashMap};
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
        /// Voter signature over [`prepared_digest`]`(digest, regency)`.
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
    /// A member entering a regency tells its leader what it has decided and
    /// prepared (boxed: regency changes are rare and every queued message pays
    /// for the largest variant).
    Report(Box<Report>),
    /// The new leader's last decided block, for members that missed it.
    Decided(Box<CommittedBlock>),
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
            BftSmartMsg::Report(report) => report.wire_size(),
            BftSmartMsg::Decided(decided) => decided.wire_size(),
        }
    }

    fn kind_label(&self) -> &'static str {
        match self {
            BftSmartMsg::Forward(_) => "bs.Forward",
            BftSmartMsg::PrePrepare { .. } => "bs.PrePrepare",
            BftSmartMsg::Prepare { .. } => "bs.Prepare",
            BftSmartMsg::Commit { .. } => "bs.Commit",
            BftSmartMsg::Report(_) => "bs.Report",
            BftSmartMsg::Decided(_) => "bs.Decided",
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
    /// The leader's undecided proposal, if one is outstanding.
    outstanding: Option<Arc<Block>>,
    /// The last block delivered, as reported at the next regency change.
    last_decided: Option<CommittedBlock>,
    /// Proofs for undelivered heights this replica sent `Commit` at in an earlier
    /// regency, kept until the height is delivered.
    prepared: BTreeMap<u64, Prepared>,
    /// Leader side of the hand-over: the members' reports, ...
    reports: Reports,
    /// ... whether a quorum of them has been resolved (until then: no proposals), ...
    synced: bool,
    /// ... and the possibly-decided blocks to re-propose, by height.
    carry: BTreeMap<u64, Arc<Block>>,
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
            outstanding: None,
            last_decided: None,
            prepared: BTreeMap::new(),
            reports: Reports::default(),
            synced: true,
            carry: BTreeMap::new(),
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
            || self.outstanding.is_some()
            || !self.synced
        {
            return;
        }
        let height = self.next_propose_height;
        let block = match self.carry.remove(&height) {
            Some(carried) => carried,
            None if self.pool.pending_len() == 0 => return,
            None => {
                let ops = self.pool.take_batch(self.cfg.max_block_size);
                Arc::new(Block::new(self.cfg.cluster, height, self.cfg.me, ops))
            }
        };
        self.next_propose_height += 1;
        self.outstanding = Some(Arc::clone(&block));
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
        let sig = self.keypair.sign(&prepared_digest(&digest, regency));
        let msg = BftSmartMsg::Prepare { height, digest, sig, regency };
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
        let quorum = self.cfg.quorum();
        let instance = self.instances.entry(height).or_default();
        let signed = if is_commit { digest } else { prepared_digest(&digest, regency) };
        if !self.registry.verify(&signed, &sig) {
            return;
        }
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
            let my_sig = self.keypair.sign(&digest);
            let msg = BftSmartMsg::Commit { height, digest, sig: my_sig, regency };
            self.broadcast_to_members(msg, out);
        }
        self.try_deliver(now, out);
    }

    fn try_deliver(&mut self, now: Time, out: &mut Vec<TobAction<BftSmartMsg>>) {
        loop {
            let height = self.next_deliver_height;
            let quorum = self.cfg.quorum();
            let ready = self
                .instances
                .get(&height)
                .is_some_and(|i| i.block.is_some() && i.commits.len() >= quorum);
            if !ready {
                break;
            }
            let instance = self.instances.remove(&height).expect("checked above");
            let block = instance.block.expect("checked above");
            let digest = instance.digest.expect("digest set with block");
            let cert = QuorumCert::new(self.cfg.cluster, digest, instance.commits);
            self.pool.mark_delivered(&block.ops, now);
            self.next_deliver_height = height + 1;
            if self.is_leader() {
                self.outstanding = None;
            } else {
                self.pool.drop_pending(&block.ops);
            }
            let decided = CommittedBlock { block, cert };
            self.last_decided = Some(decided.clone());
            out.push(TobAction::Deliver(decided));
            self.maybe_propose(out);
        }
    }

    /// Deliver a block decided without this replica (its certificate already
    /// verified): the hand-over's answer to having missed the last commits of a
    /// regency. A height beyond the next one is accepted too — the cursor jumps,
    /// as after a restart, and the skipped heights' effects arrive by Hamava's
    /// catch-up.
    fn adopt(&mut self, decided: CommittedBlock, now: Time, out: &mut Vec<TobAction<BftSmartMsg>>) {
        let height = decided.block.height;
        if height < self.next_deliver_height {
            return;
        }
        self.instances.retain(|h, _| *h > height);
        self.pool.drop_pending(&decided.block.ops);
        self.pool.mark_delivered(&decided.block.ops, now);
        self.next_deliver_height = height + 1;
        if self.outstanding.as_ref().is_some_and(|proposed| proposed.height <= height) {
            // A leader re-proposing this very block learnt it was decided
            // already (an earlier new leader's `Decided` arriving late): the
            // members that adopted it too will never vote on the proposal.
            self.outstanding = None;
        }
        self.next_propose_height = self.next_propose_height.max(height + 1);
        self.last_decided = Some(decided.clone());
        out.push(TobAction::Deliver(decided));
        self.try_deliver(now, out);
        self.maybe_propose(out);
    }

    /// Leader: once a quorum has reported for this regency, catch up to the
    /// highest decided block, queue the possibly-decided ones for re-proposal,
    /// and start proposing.
    fn resolve_handover(&mut self, now: Time, out: &mut Vec<TobAction<BftSmartMsg>>) {
        if self.synced || !self.is_leader() {
            return;
        }
        let Some(resolution) = self.reports.resolve(self.regency, self.cfg.quorum()) else {
            return;
        };
        if let Some(decided) = resolution.decided {
            self.adopt(decided, now, out);
        }
        self.carry = resolution.carry;
        for block in self.carry.values() {
            self.pool.note_ordered(&block.ops);
        }
        if let Some(decided) = &self.last_decided {
            // A member one block behind re-forwards that block's operations; the
            // pool must know them as ordered whether or not it ever held them.
            self.pool.note_ordered(&decided.block.ops);
            self.broadcast_to_members(BftSmartMsg::Decided(Box::new(decided.clone())), out);
        }
        self.next_propose_height = self.next_deliver_height;
        self.synced = true;
        self.maybe_propose(out);
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
                // A non-leader keeps it too: a member re-forwards to a new
                // leader as soon as it installs the change, which can be
                // before the new leader has. Delivery drops it from here.
                self.pool.enqueue(op);
                self.maybe_propose(&mut out);
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
            BftSmartMsg::Report(report) => {
                if report.regency >= self.regency && self.cfg.members.contains(&from) {
                    let sigs = report.signature_count() as u64;
                    out.push(TobAction::Consume(self.cfg.verify_cost.saturating_mul(sigs)));
                    if self.reports.accept(from, *report, &self.cfg, &self.registry) {
                        self.resolve_handover(now, &mut out);
                    }
                }
            }
            BftSmartMsg::Decided(decided) => {
                if decided.block.height >= self.next_deliver_height
                    && decided.block.cluster == self.cfg.cluster
                {
                    let sigs = decided.cert.signature_count() as u64;
                    out.push(TobAction::Consume(self.cfg.verify_cost.saturating_mul(sigs)));
                    if decided.verify(&self.registry, &self.cfg.members, self.cfg.quorum()) {
                        self.adopt(*decided, now, &mut out);
                    }
                }
            }
        }
        out
    }

    fn on_tick(&mut self, now: Time) -> Vec<TobAction<BftSmartMsg>> {
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
    ) -> Vec<TobAction<BftSmartMsg>> {
        let mut out = Vec::new();
        if ts.0 <= self.regency && leader == self.leader {
            return out;
        }
        // Abandon undecided instances, keeping the proof of every one this replica
        // sent `Commit` in: that block may be decided elsewhere. The operations of
        // the rest are re-forwarded below by the replicas that broadcast them.
        self.prepared = self.prepared.split_off(&self.next_deliver_height);
        for (height, instance) in self.instances.drain() {
            if let (true, Some(block)) = (instance.sent_commit, instance.block) {
                let proof = instance.prepares;
                self.prepared.insert(height, Prepared { block, regency: self.regency, proof });
            }
        }
        if let Some(abandoned) = self.outstanding.take() {
            // Its operations left the pool for good when it was proposed: take
            // them back, in case the lead returns before they are ordered.
            self.pool.requeue_front(abandoned.ops.clone());
        }
        self.leader = leader;
        self.regency = ts.0;
        self.synced = false;
        self.carry.clear();
        self.pool.reset_watch(now);
        let report = Report {
            regency: self.regency,
            decided: self.last_decided.clone(),
            prepared: self.prepared.values().cloned().collect(),
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
                msg: BftSmartMsg::Report(Box::new(report)),
            });
            for op in self.pool.my_undelivered() {
                let msg = BftSmartMsg::Forward(op.clone());
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
        self.regency = 0;
        self.fault = FaultMode::Correct;
        self.pool = PendingPool::new();
        self.instances.clear();
        self.next_propose_height = 0;
        self.next_deliver_height = 0;
        self.outstanding = None;
        self.last_decided = None;
        self.prepared.clear();
        self.reports = Reports::default();
        self.synced = true;
        self.carry.clear();
        self.resync_delivery = true;
    }
}

#[cfg(test)]
mod tests;

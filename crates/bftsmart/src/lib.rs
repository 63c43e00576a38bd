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
//! This crate holds the phases only; leader, pool, watchdog and the leader
//! hand-over are the shared [`ava_consensus::regency`] layer, which makes
//! [`BftSmart`] a [`TotalOrderBroadcast`](ava_consensus::TotalOrderBroadcast).
//!
//! ## Simplifications relative to BFT-SMaRt
//!
//! * One consensus instance at a time (no out-of-order instances); Hamava drives one
//!   batch per round so this does not change the round structure.
//! * *Electing* the next regency is externalised to Hamava's leader election
//!   module, exactly like the HotStuff pacemaker: liveness complaints surface as
//!   [`TobAction::Complain`] and the new regency arrives via `new_leader`. What a
//!   regency change must carry over — BFT-SMaRt's synchronization phase — is the
//!   [`ava_consensus::regency`] hand-over, to which this crate contributes the
//!   [`Prepared`] proof of every instance it sent `Commit` in. Members do not
//!   check the new leader's choice against the reports (no new-view
//!   certificate).
//! * Commit votes sign the block digest, so the commit certificate doubles as the
//!   cross-cluster certificate shipped by Hamava's Stage 2; prepare votes sign the
//!   digest *and the regency* ([`prepared_digest`]) and never leave the cluster.

use ava_consensus::handover::{prepared_digest, Prepared, Report};
use ava_consensus::regency::forward_wire_size;
use ava_consensus::{
    Block, CommittedBlock, Phases, Regency, RegencyMsg, TobAction, TobConfig, WireSize, SIGN_COST,
    VERIFY_COST,
};
use ava_crypto::{Digest, KeyRegistry, Keypair, QuorumCert, SigSet, Signature};
use ava_types::{Operation, ReplicaId, Time};
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
            BftSmartMsg::Forward(op) => forward_wire_size(op),
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

impl RegencyMsg for BftSmartMsg {
    fn forward(op: Operation) -> Self {
        BftSmartMsg::Forward(op)
    }

    fn report(report: Report) -> Self {
        BftSmartMsg::Report(Box::new(report))
    }

    fn decided(decided: CommittedBlock) -> Self {
        BftSmartMsg::Decided(Box::new(decided))
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
    regency: Regency,
    /// Voting state per height.
    instances: HashMap<u64, Instance>,
    /// Next height the leader proposes at.
    next_propose_height: u64,
    /// Next height to deliver (deliveries are strictly in height order).
    next_deliver_height: u64,
    /// The leader's undecided proposal, if one is outstanding.
    outstanding: Option<Arc<Block>>,
    /// Proofs for undelivered heights this replica sent `Commit` at in an earlier
    /// regency, kept until the height is delivered.
    prepared: BTreeMap<u64, Prepared>,
    /// Set by a restart: the delivery cursor re-bases on the height of the
    /// first pre-prepare seen after it (the restarted replica learns the
    /// missed heights' effects via checkpoint/state transfer, not by re-running
    /// consensus for them).
    resync_delivery: bool,
}

impl BftSmart {
    /// Create a BFT-SMaRt instance for `cfg.me`, initially led by `leader`.
    pub fn new(cfg: TobConfig, keypair: Keypair, registry: KeyRegistry, leader: ReplicaId) -> Self {
        BftSmart {
            regency: Regency::new(cfg, keypair, registry, leader),
            instances: HashMap::new(),
            next_propose_height: 0,
            next_deliver_height: 0,
            outstanding: None,
            prepared: BTreeMap::new(),
            resync_delivery: false,
        }
    }

    /// A `Prepare` or `Commit` vote.
    fn on_vote(&mut self, from: ReplicaId, vote: BftSmartMsg, now: Time, out: &mut Vec<Action>) {
        let is_commit = matches!(vote, BftSmartMsg::Commit { .. });
        let (BftSmartMsg::Prepare { height, digest, sig, regency }
        | BftSmartMsg::Commit { height, digest, sig, regency }) = vote
        else {
            return;
        };
        let cfg = &self.regency.cfg;
        if regency != self.regency.ts()
            || height < self.next_deliver_height
            || !cfg.members.contains(&from)
        {
            return;
        }
        out.push(TobAction::Consume(VERIFY_COST));
        let quorum = cfg.quorum();
        let instance = self.instances.entry(height).or_default();
        let signed = if is_commit { digest } else { prepared_digest(&digest, regency) };
        if !self.regency.registry.verify(&signed, &sig) {
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
            out.push(TobAction::Consume(SIGN_COST));
            let sig = self.regency.keypair.sign(&digest);
            self.regency.to_members(BftSmartMsg::Commit { height, digest, sig, regency }, out);
        }
        self.try_deliver(now, out);
    }

    fn try_deliver(&mut self, now: Time, out: &mut Vec<Action>) {
        loop {
            let height = self.next_deliver_height;
            let quorum = self.regency.cfg.quorum();
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
            let cert = QuorumCert::new(self.regency.cfg.cluster, digest, instance.commits);
            self.next_deliver_height = height + 1;
            if self.regency.is_leader() {
                self.outstanding = None;
            }
            self.regency.deliver(CommittedBlock { block, cert }, false, now, out);
            self.propose(out);
        }
    }
}

type Action = TobAction<BftSmartMsg>;

impl Phases for BftSmart {
    type Msg = BftSmartMsg;

    const NAME: &'static str = "BFT-SMaRt";

    fn regency(&self) -> &Regency {
        &self.regency
    }

    fn regency_mut(&mut self) -> &mut Regency {
        &mut self.regency
    }

    fn handle(&mut self, from: ReplicaId, msg: BftSmartMsg, now: Time, out: &mut Vec<Action>) {
        match msg {
            BftSmartMsg::Forward(op) => self.on_forward(op, out),
            BftSmartMsg::Report(report) => self.on_report(from, *report, now, out),
            BftSmartMsg::Decided(decided) => self.on_decided(*decided, now, out),
            vote @ (BftSmartMsg::Prepare { .. } | BftSmartMsg::Commit { .. }) => {
                self.on_vote(from, vote, now, out);
            }
            BftSmartMsg::PrePrepare { block, regency } => {
                if from != self.regency.leader() || regency != self.regency.ts() {
                    return;
                }
                if self.resync_delivery {
                    self.resync_delivery = false;
                    self.next_deliver_height = self.next_deliver_height.max(block.height);
                }
                if block.height < self.next_deliver_height {
                    return;
                }
                out.push(TobAction::Consume(VERIFY_COST));
                let (digest, height) = (block.digest(), block.height);
                let instance = self.instances.entry(height).or_default();
                if instance.block.is_some() {
                    return;
                }
                instance.block = Some(block);
                instance.digest = Some(digest);
                out.push(TobAction::Consume(SIGN_COST));
                let sig = self.regency.keypair.sign(&prepared_digest(&digest, regency));
                self.regency.to_members(BftSmartMsg::Prepare { height, digest, sig, regency }, out);
            }
        }
    }

    fn propose(&mut self, out: &mut Vec<Action>) {
        if self.outstanding.is_some() {
            return;
        }
        let Some(block) = self.regency.next_block(self.next_propose_height, out) else {
            return;
        };
        self.next_propose_height += 1;
        self.outstanding = Some(Arc::clone(&block));
        let regency = self.regency.ts();
        self.regency.to_members(BftSmartMsg::PrePrepare { block, regency }, out);
    }

    fn next_height(&self) -> u64 {
        self.next_deliver_height
    }

    /// A height beyond the next one is accepted too — the cursor jumps, as
    /// after a restart, and the skipped heights' effects arrive by Hamava's
    /// catch-up.
    fn adopt(&mut self, decided: CommittedBlock, now: Time, out: &mut Vec<Action>) {
        let height = decided.block.height;
        if height < self.next_deliver_height {
            return;
        }
        self.instances.retain(|h, _| *h > height);
        self.next_deliver_height = height + 1;
        if self.outstanding.as_ref().is_some_and(|proposed| proposed.height <= height) {
            // A leader re-proposing this very block learnt it was decided
            // already (an earlier new leader's `Decided` arriving late): the
            // members that adopted it too will never vote on the proposal.
            self.outstanding = None;
        }
        self.next_propose_height = self.next_propose_height.max(height + 1);
        self.regency.deliver(decided, true, now, out);
        self.try_deliver(now, out);
        self.propose(out);
    }

    /// Abandon undecided instances, keeping the proof of every one this replica
    /// sent `Commit` in: that block may be decided elsewhere. The operations of
    /// the rest are re-forwarded by the replicas that broadcast them.
    fn abandon(&mut self) -> (Option<Arc<Block>>, Vec<Prepared>) {
        self.prepared = self.prepared.split_off(&self.next_deliver_height);
        let regency = self.regency.ts();
        for (height, instance) in self.instances.drain() {
            if let (true, Some(block)) = (instance.sent_commit, instance.block) {
                let proof = instance.prepares;
                self.prepared.insert(height, Prepared { block, regency, proof });
            }
        }
        (self.outstanding.take(), self.prepared.values().cloned().collect())
    }

    fn on_synced(&mut self) {
        self.next_propose_height = self.next_deliver_height;
    }

    fn reset_phases(&mut self) {
        self.instances.clear();
        self.next_propose_height = 0;
        self.next_deliver_height = 0;
        self.outstanding = None;
        self.prepared.clear();
        self.resync_delivery = true;
    }
}

#[cfg(test)]
mod tests;

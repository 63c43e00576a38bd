//! The layer both local protocols share outside their voting phases: leader
//! and regency, the operation pool and its watchdog, the client side of
//! `broadcast`, and the driver of the leader hand-over (DESIGN.md §12: a new
//! leader proposes nothing until `2f + 1` [`Reports`] let it adopt the highest
//! decided block and re-propose the possibly-decided ones; members do not check
//! its choice against the reports).
//!
//! A backend is a [`Phases`] impl — its voting state plus a [`Regency`] — and a
//! message enum that builds this layer's three messages ([`RegencyMsg`]). Every
//! `Phases` is a [`TotalOrderBroadcast`], driven by the entry points below.

use crate::block::{Block, CommittedBlock};
use crate::handover::{Prepared, Report, Reports};
use crate::pool::PendingPool;
use crate::tob::{
    FaultMode, TobAction, TobConfig, TotalOrderBroadcast, WireSize, SIGN_COST, VERIFY_COST,
};
use ava_crypto::{KeyRegistry, Keypair};
use ava_types::{Operation, ReplicaId, Time, Timestamp};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The three messages of the regency layer, as a backend's enum carries them.
pub trait RegencyMsg: Clone + WireSize + Send {
    /// An operation forwarded to the leader.
    fn forward(op: Operation) -> Self;
    /// A member's report to the leader of the regency it enters.
    fn report(report: Report) -> Self;
    /// The new leader's last decided block, for members that missed it.
    fn decided(decided: CommittedBlock) -> Self;
}

/// The buffer an entry point appends its actions to, in order.
pub type Actions<M> = Vec<TobAction<M>>;

/// Wire size of a forwarded operation.
pub fn forward_wire_size(op: &Operation) -> usize {
    match op {
        Operation::Trans(t) => t.payload_size as usize + 48,
        Operation::ReconfigSet { recs, .. } => recs.len() * 64 + 56,
        Operation::RoundCut { .. } => 32,
    }
}

/// What a local TOB holds outside its voting phases.
pub struct Regency {
    /// The configuration, with the current membership.
    pub cfg: TobConfig,
    /// This replica's signing key.
    pub keypair: Keypair,
    /// The cluster's keys.
    pub registry: KeyRegistry,
    leader: ReplicaId,
    /// The regency (leader timestamp) this replica is in.
    ts: u64,
    fault: FaultMode,
    pool: PendingPool,
    /// The last block delivered, as reported at the next leader change.
    last_decided: Option<CommittedBlock>,
    /// Leader side of the hand-over: the members' reports, ...
    reports: Reports,
    /// ... whether a quorum of them has been resolved (until then: no proposals), ...
    synced: bool,
    /// ... and the possibly-decided blocks to re-propose, by height.
    carry: BTreeMap<u64, Arc<Block>>,
}

impl Regency {
    /// The regency layer of `cfg.me`, in regency 0 under `leader`.
    pub fn new(cfg: TobConfig, keypair: Keypair, registry: KeyRegistry, leader: ReplicaId) -> Self {
        Regency {
            cfg,
            keypair,
            registry,
            leader,
            ts: 0,
            fault: FaultMode::Correct,
            pool: PendingPool::new(),
            last_decided: None,
            reports: Reports::default(),
            synced: true,
            carry: BTreeMap::new(),
        }
    }

    /// The leader this replica follows.
    pub fn leader(&self) -> ReplicaId {
        self.leader
    }

    /// The regency this replica is in.
    pub fn ts(&self) -> u64 {
        self.ts
    }

    /// Whether this replica leads its regency.
    pub fn is_leader(&self) -> bool {
        self.leader == self.cfg.me
    }

    /// Send `msg` to every member, this replica included: one fan-out.
    pub fn to_members<M>(&self, msg: M, out: &mut Actions<M>) {
        out.push(TobAction::SendAll { to: self.cfg.members.clone(), msg });
    }

    /// Leader: the block to propose at `height` — a carried one first, else a
    /// batch from the pool — with its signature charged; `None` if this replica
    /// may not propose (not the leader, silenced, hand-over unresolved) or has
    /// nothing to. The caller checks that no proposal of its own is in flight.
    pub fn next_block<M>(&mut self, height: u64, out: &mut Actions<M>) -> Option<Arc<Block>> {
        if !self.is_leader() || self.fault == FaultMode::SilentLeader || !self.synced {
            return None;
        }
        let block = match self.carry.remove(&height) {
            Some(carried) => carried,
            None if self.pool.pending_len() == 0 => return None,
            None => {
                let ops = self.pool.take_batch(self.cfg.max_block_size);
                Arc::new(Block::new(self.cfg.cluster, height, self.cfg.me, ops))
            }
        };
        out.push(TobAction::Consume(SIGN_COST));
        Some(block)
    }

    /// Deliver `decided`, the block at this replica's next height: its
    /// operations leave this replica's undelivered list (feeding the
    /// watchdog's pace) and a non-leader's queue — every queue if `forget`
    /// — and it becomes the block reported at the next leader change.
    pub fn deliver<M>(
        &mut self,
        decided: CommittedBlock,
        forget: bool,
        now: Time,
        out: &mut Actions<M>,
    ) {
        if forget || !self.is_leader() {
            self.pool.drop_pending(&decided.block.ops);
        }
        self.pool.mark_delivered(&decided.block.ops, now);
        self.last_decided = Some(decided.clone());
        out.push(TobAction::Deliver(decided));
    }

    /// Forget what a crash loses; configuration, keys and leader stay.
    fn reset(&mut self) {
        let (cfg, keypair) = (self.cfg.clone(), self.keypair.clone());
        *self = Regency::new(cfg, keypair, self.registry.clone(), self.leader);
    }
}

/// A backend's voting phases: what is left of a local TOB once a [`Regency`]
/// holds the rest. Every `Phases` is a [`TotalOrderBroadcast`].
pub trait Phases: Send {
    /// The wire message type.
    type Msg: RegencyMsg;

    /// Human-readable protocol name.
    const NAME: &'static str;

    /// The regency layer.
    fn regency(&self) -> &Regency;

    /// The regency layer, mutably.
    fn regency_mut(&mut self) -> &mut Regency;

    /// Handle a message: the phase messages here, the three shared ones by
    /// [`Phases::on_forward`], [`Phases::on_report`] and [`Phases::on_decided`].
    fn handle(&mut self, from: ReplicaId, msg: Self::Msg, now: Time, out: &mut Actions<Self::Msg>);

    /// Leader: propose [`Regency::next_block`] unless a proposal is in flight.
    fn propose(&mut self, out: &mut Actions<Self::Msg>);

    /// The next height this replica delivers.
    fn next_height(&self) -> u64;

    /// Deliver `decided` — its certificate verified — unless already past its
    /// height: a block decided without this replica.
    fn adopt(&mut self, decided: CommittedBlock, now: Time, out: &mut Actions<Self::Msg>);

    /// Leave the current regency: drop the undecided state, returning this
    /// replica's own proposal if one was in flight and the proofs to report.
    fn abandon(&mut self) -> (Option<Arc<Block>>, Vec<Prepared>);

    /// The hand-over resolved: this replica leads and may propose from now.
    fn on_synced(&mut self) {}

    /// Forget the phase state, as a restart does.
    fn reset_phases(&mut self);

    /// An operation forwarded to this replica. A non-leader keeps it too: a
    /// member re-forwards to a new leader as soon as it installs the change,
    /// which can be before the new leader has. Delivery drops it from here.
    fn on_forward(&mut self, op: Operation, out: &mut Actions<Self::Msg>) {
        self.regency_mut().pool.enqueue(op);
        self.propose(out);
    }

    /// A member's report for a regency this replica entered or will enter.
    fn on_report(
        &mut self,
        from: ReplicaId,
        report: Report,
        now: Time,
        out: &mut Actions<Self::Msg>,
    ) {
        let regency = self.regency_mut();
        if report.regency < regency.ts || !regency.cfg.members.contains(&from) {
            return;
        }
        out.push(TobAction::Consume(VERIFY_COST.saturating_mul(report.signature_count() as u64)));
        if regency.reports.accept(from, report, &regency.cfg, &regency.registry) {
            hand_over(self, now, out);
        }
    }

    /// A new leader's last decided block: adopted if it is ahead of this
    /// replica and its certificate holds.
    fn on_decided(&mut self, decided: CommittedBlock, now: Time, out: &mut Actions<Self::Msg>) {
        let regency = self.regency();
        if decided.block.height < self.next_height() || decided.block.cluster != regency.cfg.cluster
        {
            return;
        }
        out.push(TobAction::Consume(
            VERIFY_COST.saturating_mul(decided.cert.signature_count() as u64),
        ));
        if decided.verify(&regency.registry, &regency.cfg.members, regency.cfg.quorum()) {
            self.adopt(decided, now, out);
        }
    }
}

/// Leader: once a quorum has reported for this regency, catch up to the
/// highest decided block, queue the possibly-decided ones for re-proposal,
/// send the last decided block round, and start proposing.
fn hand_over<P: Phases + ?Sized>(p: &mut P, now: Time, out: &mut Actions<P::Msg>) {
    let regency = p.regency_mut();
    if regency.synced || !regency.is_leader() {
        return;
    }
    let Some(resolution) = regency.reports.resolve(regency.ts, regency.cfg.quorum()) else {
        return;
    };
    if let Some(decided) = resolution.decided {
        p.adopt(decided, now, out);
    }
    let regency = p.regency_mut();
    regency.carry = resolution.carry;
    for block in regency.carry.values() {
        regency.pool.note_ordered(&block.ops);
    }
    if let Some(decided) = &regency.last_decided {
        // A member one block behind re-forwards that block's operations; the
        // pool must know them as ordered whether or not it ever held them.
        regency.pool.note_ordered(&decided.block.ops);
        regency.to_members(P::Msg::decided(decided.clone()), out);
    }
    regency.synced = true;
    p.on_synced();
    p.propose(out);
}

impl<P: Phases> TotalOrderBroadcast for P {
    type Msg = P::Msg;

    fn name(&self) -> &'static str {
        P::NAME
    }

    fn broadcast(&mut self, op: Operation, now: Time, out: &mut Actions<P::Msg>) {
        let regency = self.regency_mut();
        regency.pool.record_my_broadcast(op.clone(), now);
        if regency.is_leader() {
            regency.pool.enqueue(op);
            self.propose(out);
        } else {
            out.push(TobAction::Send { to: regency.leader, msg: P::Msg::forward(op) });
        }
    }

    fn on_message(&mut self, from: ReplicaId, msg: P::Msg, now: Time, out: &mut Actions<P::Msg>) {
        self.handle(from, msg, now, out);
    }

    fn on_tick(&mut self, now: Time, out: &mut Actions<P::Msg>) {
        self.propose(out);
        let regency = self.regency_mut();
        let (floor, ceiling) = (regency.cfg.timeout_floor, regency.cfg.timeout);
        if let Some(silent_for) = regency.pool.should_complain(now, floor, ceiling) {
            out.push(TobAction::Complain { leader: regency.leader, silent_for });
        }
    }

    fn new_leader(
        &mut self,
        leader: ReplicaId,
        ts: Timestamp,
        now: Time,
        out: &mut Actions<P::Msg>,
    ) {
        let regency = self.regency();
        if ts.0 <= regency.ts && leader == regency.leader {
            return;
        }
        let (abandoned, prepared) = self.abandon();
        let regency = self.regency_mut();
        if let Some(block) = abandoned {
            // Its operations left the pool for good when it was proposed: take
            // them back, in case the lead returns before they are ordered.
            regency.pool.requeue_front(block.ops.clone());
        }
        regency.leader = leader;
        regency.ts = ts.0;
        regency.synced = false;
        regency.carry.clear();
        regency.pool.reset_watch(now);
        let report = Report { regency: ts.0, decided: regency.last_decided.clone(), prepared };
        // Every replica re-forwards its own undelivered operations to the new
        // leader (the leader re-queues its own), so nothing is lost.
        if regency.is_leader() {
            for op in regency.pool.my_undelivered().to_vec() {
                regency.pool.enqueue(op);
            }
            regency.reports.insert(regency.cfg.me, report);
            hand_over(self, now, out);
        } else {
            out.push(TobAction::Send { to: leader, msg: P::Msg::report(report) });
            for op in regency.pool.my_undelivered() {
                out.push(TobAction::Send { to: leader, msg: P::Msg::forward(op.clone()) });
            }
        }
    }

    fn set_membership(&mut self, members: Vec<ReplicaId>) {
        self.regency_mut().cfg.members = members;
    }

    fn leader(&self) -> ReplicaId {
        self.regency().leader
    }

    fn set_fault_mode(&mut self, mode: FaultMode) {
        self.regency_mut().fault = mode;
    }

    fn reset(&mut self) {
        self.regency_mut().reset();
        self.reset_phases();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ava_types::ClusterId;

    #[test]
    fn to_members_is_one_fan_out_to_every_member_in_membership_order() {
        let registry = KeyRegistry::new();
        let members: Vec<ReplicaId> = [5, 2, 7, 0].map(ReplicaId).to_vec();
        let keypair = registry.register(ReplicaId(2));
        let cfg = TobConfig::new(ClusterId(0), ReplicaId(2), members.clone());
        let regency = Regency::new(cfg, keypair, registry, ReplicaId(5));
        let mut out: Actions<&str> = Vec::new();
        regency.to_members("vote", &mut out);
        assert_eq!(out.len(), 1);
        assert!(matches!(&out[0], TobAction::SendAll { to, msg: "vote" } if *to == members));
    }
}

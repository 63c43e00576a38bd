//! Catch-up: how a replica that restarted, or fell behind its own cluster, gets
//! back the rounds it missed (DESIGN.md §6). Sans-I/O in the idiom of
//! [`crate::relay`]: the replica sends and enters the round, this module decides.
//!
//! * **Store replay** ([`replay_store`]). A restarted replica first rebuilds what
//!   its own store covers: the checkpoint, then the log records after it.
//! * **The reply** ([`reply`]). It then asks the members of its cluster for the
//!   rest. A member answers with its latest checkpoint and the log suffix after
//!   it; a storeless member synthesizes a checkpoint of what it executed.
//! * **The vote** ([`CatchUp::offer`]). A checkpoint is adopted once `f + 1`
//!   distinct *members* report the same `(round, digest)`: with at most `f`
//!   Byzantine members, one of them is correct. The members and `f` are those of
//!   the view the catch-up started in. A reply from anyone else does not vote.
//! * **The adoption** ([`CatchUp::adoption`]). On the agreed checkpoint (or on
//!   the replica's own state, when that is not behind it) one agreeing member's
//!   suffix is replayed, the member furthest ahead first. Every record is
//!   verified against the views as of its round; a suffix with a gap, an
//!   unverifiable record, or that stops short of its sender's round drops that
//!   candidate, and the next one is tried.
//! * **The clock** ([`CatchUp::on_tick`]). The request is re-sent every
//!   [`RECOVERY_RESEND`]. After `local_timeout` without an adoption the replica
//!   gives up and resumes alone from what it has: the solo fallback.
//!
//! Protocol traffic that arrives meanwhile is buffered ([`CatchUp::buffer`]) and
//! replayed once the replica is back in a round. The replica enters that round
//! through its one `enter`, with the adopted [`View`] (or none, on the solo
//! fallback): the view's state, views and leader timestamp are installed
//! together, so a replica back after a leader change complains at the
//! timestamp its peers count. Every replay applies its
//! records' reconfigurations through [`Views::apply_round`], the rule live
//! execution follows, so each path keeps the same per-cluster trailing view.

use crate::messages::{RoundPackage, RoundRecord};
use crate::views::Views;
use ava_crypto::KeyRegistry;
use ava_state::{
    machine_for, machine_from_snapshot, StateMachine, StateMachineKind, StateSnapshot,
};
use ava_store::{Checkpoint, CheckpointCollector, ReplicaStore};
use ava_types::{
    ClusterId, Duration, Membership, Operation, Reconfig, ReplicaId, Round, Time, Transaction,
};
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::sync::Arc;

/// How often a catching-up replica re-broadcasts its `CatchUpRequest` (peers
/// may themselves be down, or a checkpoint boundary may need to pass before
/// enough digests match). 500 ms.
pub const RECOVERY_RESEND: Duration = Duration(500_000);

/// Upper bound on protocol messages buffered while catching up (the window is
/// normally a local round trip; the cap only matters if every peer is down).
pub const RECOVERY_BUFFER_CAP: usize = 10_000;

/// A replica's durable store: its round log and checkpoints.
pub type Store = ReplicaStore<Arc<RoundRecord>>;

/// The one walk over a committed round (Alg. 10), which live execution, log
/// replay, transferred-suffix replay and the post-recovery client acks all
/// share: every transaction goes to `on_tx` in execution order — `packages`
/// ascending by cluster (the paper's predefined order), blocks and operations
/// in package order — and the reconfiguration sets come back in the order they
/// apply, after all of the round's transactions: per cluster the block-carried
/// `ReconfigSet`s, then the package-level set. Replayed replicas must compute
/// the state and checkpoint digests live ones do, or f + 1 agreement breaks.
pub(crate) fn walk_round<'a>(
    packages: impl IntoIterator<Item = &'a Arc<RoundPackage>>,
    mut on_tx: impl FnMut(&'a Transaction),
) -> Vec<(ClusterId, Vec<Reconfig>)> {
    let mut all_recs = Vec::new();
    for package in packages {
        for block in &package.blocks {
            for op in &block.block.ops {
                match op {
                    Operation::Trans(tx) => on_tx(tx),
                    Operation::ReconfigSet { recs, .. } => {
                        all_recs.push((package.cluster, recs.clone()));
                    }
                    Operation::RoundCut { .. } => {}
                }
            }
        }
        if !package.recs.is_empty() {
            all_recs.push((package.cluster, package.recs.clone()));
        }
    }
    all_recs
}

/// Apply one round record to a machine and views exactly as live execution
/// applies the round (both go through [`walk_round`],
/// [`StateMachine::apply_round`] and [`Views::apply_round`]).
fn apply_record(record: &RoundRecord, machine: &mut dyn StateMachine, views: &mut Views) {
    let mut txs = Vec::new();
    let all_recs = walk_round(&record.packages, |tx| txs.push(tx));
    machine.apply_round(record.round, &txs);
    views.apply_round(&all_recs);
}

/// The packing anchor a round record implies for `cluster`'s own log: one past
/// the highest own-cluster block height it packs, or `None` when it packs none
/// (its round boundary then adds nothing beyond the previous one).
fn record_next_height(record: &RoundRecord, cluster: ClusterId) -> Option<u64> {
    record
        .packages
        .iter()
        .filter(|p| p.cluster == cluster)
        .flat_map(|p| p.blocks.iter().map(|b| b.block.height + 1))
        .max()
}

/// The replicated state an entry path hands to the replica.
pub struct View {
    /// The state machine.
    pub machine: Box<dyn StateMachine>,
    /// The membership views.
    pub views: Views,
    /// The cluster's leader timestamp.
    pub leader_ts: u64,
    /// The first own-cluster log height the state does not cover.
    pub next_height: u64,
}

/// What a replica has executed: the base of a catch-up that needs no
/// checkpoint, and what a storeless member serves.
pub struct Executed<'a> {
    /// The state machine.
    pub machine: &'a dyn StateMachine,
    /// The membership views.
    pub views: &'a Views,
    /// The round in progress; every round before it executed.
    pub round: Round,
    /// The cluster's leader timestamp.
    pub leader_ts: u64,
    /// The packing anchor after the last executed round. Not the live anchor,
    /// which may already include blocks packed into the round in flight.
    pub next_height: u64,
}

/// Local durable recovery: the store's checkpoint (without one, an empty `kind`
/// machine under the `initial` membership), then every log record after it.
/// Returns the view, the first round the store does not cover, and how many log
/// rounds were replayed.
pub fn replay_store(
    store: Option<&Store>,
    cluster: ClusterId,
    kind: StateMachineKind,
    initial: &Membership,
) -> (View, Round, u64) {
    let (checkpoint, suffix) = store.map(Store::recover).unwrap_or_default();
    let base = checkpoint.as_deref();
    let mut view = View {
        machine: base.map_or_else(|| machine_for(kind), |cp| machine_from_snapshot(&cp.state)),
        views: Views::new(base.map_or(initial, |cp| &cp.membership).clone()),
        leader_ts: base.map_or(0, |cp| cp.leader_ts),
        next_height: base.map_or(0, |cp| cp.next_height),
    };
    let mut round = base.map_or(Round(1), |cp| cp.round.next());
    let mut replayed = 0u64;
    for record in suffix {
        if record.round < round {
            continue;
        }
        apply_record(&record, view.machine.as_mut(), &mut view.views);
        if let Some(h) = record_next_height(&record, cluster) {
            view.next_height = view.next_height.max(h);
        }
        round = record.round.next();
        replayed += 1;
    }
    (view, round, replayed)
}

/// A member's answer to a catch-up request: its latest checkpoint and the log
/// suffix after it. With a store but no checkpoint yet, the whole log anchored
/// on the empty round-0 snapshot every replica agrees on. Without a store, a
/// checkpoint of what it `executed` and no suffix (rounds advance in lockstep,
/// so same-round senders' synthesized snapshots match digest-wise).
pub fn reply(
    store: Option<&Store>,
    initial: &Membership,
    executed: Executed<'_>,
) -> (Arc<Checkpoint>, Vec<Arc<RoundRecord>>) {
    let Some(store) = store else {
        let checkpoint = Checkpoint::new(
            Round(executed.round.0.saturating_sub(1)),
            executed.machine.snapshot(),
            executed.views.current().clone(),
            executed.leader_ts,
            executed.next_height,
        );
        return (Arc::new(checkpoint), Vec::new());
    };
    match store.latest_checkpoint() {
        Some(checkpoint) => {
            let suffix = store.suffix(checkpoint.round);
            (checkpoint, suffix)
        }
        None => {
            let empty = StateSnapshot::empty(executed.machine.kind());
            let genesis = Checkpoint::new(Round(0), empty, initial.clone(), 0, 0);
            (Arc::new(genesis), store.suffix(Round(0)))
        }
    }
}

/// One member's catch-up reply, kept until enough members agree on a checkpoint.
pub struct CatchUpOffer {
    /// The member's checkpoint.
    pub checkpoint: Arc<Checkpoint>,
    /// Its log records after the checkpoint, ascending.
    pub suffix: Vec<Arc<RoundRecord>>,
    /// Its current round: where an adopting replica resumes.
    pub round: Round,
    /// Its leader timestamp.
    pub leader_ts: u64,
}

/// What became of a reply handed to [`CatchUp::offer`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Offered {
    /// Not from a member: it does not vote.
    Ignored,
    /// Its checkpoint's digest does not match its content. Honest members never
    /// send one, so this is Byzantine evidence.
    Corrupt,
    /// Counted towards the vote.
    Counted,
}

/// What the periodic tick asks of a catching-up replica.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Tick {
    /// Keep waiting.
    Wait,
    /// Re-broadcast the request.
    Resend,
    /// Stop waiting and resume alone at the locally recovered round.
    GiveUp(Round),
}

/// A transferred state that passed the vote and the replay.
pub struct Adoption {
    /// The state to install.
    pub view: View,
    /// The round to resume at: the sender's current round.
    pub round: Round,
    /// The agreed checkpoint, if the replay started from it.
    pub checkpoint: Option<Arc<Checkpoint>>,
    /// The records replayed on top of the base.
    pub records: Vec<Arc<RoundRecord>>,
    /// Rounds covered by the transfer (checkpoint gap plus records).
    pub rounds_transferred: u64,
    /// Bytes of checkpoint and records used.
    pub bytes_transferred: u64,
    /// Whether a member offered another digest for a round. Correct replicas'
    /// snapshots are round-deterministic, so one of them lied, and the `f + 1`
    /// agreement outvoted it: Byzantine evidence.
    pub outvoted: bool,
}

/// An in-progress catch-up, after a restart or as a straggler's escape. `M` is
/// the type of the protocol messages it buffers.
pub struct CatchUp<M> {
    started_at: Time,
    /// The round covered locally (store checkpoint + log replay, or the
    /// straggler's current round); members only need to cover rounds from here.
    recovered_round: Round,
    /// The members of the view whose `f` sets the threshold: the request goes
    /// to them, and only they vote.
    members: Vec<ReplicaId>,
    /// Collects members' checkpoints until `f + 1` digests match.
    collector: CheckpointCollector,
    /// Latest reply per member.
    offers: BTreeMap<ReplicaId, CatchUpOffer>,
    /// When the request was last (re-)broadcast.
    last_request_at: Time,
    /// Protocol traffic that arrived meanwhile, replayed on resuming.
    buffered: Vec<(ReplicaId, M)>,
}

impl<M> CatchUp<M> {
    /// A catch-up started at `now` from `recovered_round`, voted on by the
    /// members of `cluster` in `membership`. The request goes out now.
    pub fn new(
        now: Time,
        recovered_round: Round,
        membership: &Membership,
        cluster: ClusterId,
    ) -> Self {
        CatchUp {
            started_at: now,
            recovered_round,
            members: membership.member_ids(cluster),
            collector: CheckpointCollector::new(membership.f(cluster) + 1),
            offers: BTreeMap::new(),
            last_request_at: now,
            buffered: Vec::new(),
        }
    }

    /// Whom to send the request to: every member but `me`.
    pub fn peers(&self, me: ReplicaId) -> Vec<ReplicaId> {
        self.members.iter().copied().filter(|member| *member != me).collect()
    }

    /// Keep `msg` for replay, up to [`RECOVERY_BUFFER_CAP`] messages.
    pub fn buffer(&mut self, from: ReplicaId, msg: M) {
        if self.buffered.len() < RECOVERY_BUFFER_CAP {
            self.buffered.push((from, msg));
        }
    }

    /// `from` replied with `offer`.
    pub fn offer(&mut self, from: ReplicaId, offer: CatchUpOffer) -> Offered {
        if !self.members.contains(&from) {
            return Offered::Ignored;
        }
        if !self.collector.offer(from, Arc::clone(&offer.checkpoint)) {
            return Offered::Corrupt;
        }
        self.offers.insert(from, offer);
        Offered::Counted
    }

    /// Once `f + 1` members agree on a checkpoint, the first candidate whose
    /// suffix replays (see the module doc), on top of the agreed checkpoint if
    /// it is ahead of the local recovery, else on `executed`. Also returns the
    /// certificate signatures checked on the way, for the caller to charge.
    pub fn adoption(
        &self,
        registry: &KeyRegistry,
        cluster: ClusterId,
        executed: Executed<'_>,
    ) -> (Option<Adoption>, u64) {
        let Some(agreed) = self.collector.agreed() else {
            return (None, 0);
        };
        let mut candidates: Vec<&CatchUpOffer> = self
            .offers
            .values()
            .filter(|o| o.checkpoint.round == agreed.round && o.checkpoint.digest == agreed.digest)
            .collect();
        candidates.sort_by_key(|o| Reverse(o.round));
        let use_checkpoint = agreed.round.next() > self.recovered_round;
        let gap_rounds =
            if use_checkpoint { agreed.round.next().0 - self.recovered_round.0 } else { 0 };
        let mut sigs = 0u64;
        'candidates: for offer in candidates {
            let (mut machine, mut views, mut next, mut bytes, mut next_height) = if use_checkpoint {
                (
                    machine_from_snapshot(&agreed.state),
                    Views::new(agreed.membership.clone()),
                    agreed.round.next(),
                    agreed.wire_size() as u64,
                    agreed.next_height,
                )
            } else {
                let base = executed.views.clone();
                (executed.machine.fork(), base, self.recovered_round, 0, executed.next_height)
            };
            let mut records = Vec::new();
            for record in &offer.suffix {
                if record.round < next {
                    continue;
                }
                if record.round > next {
                    continue 'candidates; // a gap: this member cannot cover our range
                }
                let (valid, record_sigs) = views.verify_record(registry, record);
                sigs += record_sigs;
                if !valid {
                    continue 'candidates;
                }
                apply_record(record, machine.as_mut(), &mut views);
                if let Some(h) = record_next_height(record, cluster) {
                    next_height = next_height.max(h);
                }
                bytes += record.wire_size() as u64;
                next = record.round.next();
                records.push(Arc::clone(record));
            }
            // Resuming short of the sender's round would leave this replica
            // behind its cluster with no way to fetch the missing rounds.
            if next < offer.round {
                continue;
            }
            let view = View { machine, views, leader_ts: offer.leader_ts, next_height };
            let adoption = Adoption {
                view,
                round: next,
                checkpoint: use_checkpoint.then(|| Arc::clone(&agreed)),
                rounds_transferred: gap_rounds + records.len() as u64,
                records,
                bytes_transferred: bytes,
                outvoted: self.collector.conflicting(),
            };
            return (Some(adoption), sigs);
        }
        (None, sigs)
    }

    /// The periodic tick at `now`: resend every [`RECOVERY_RESEND`], give up
    /// once `local_timeout` has passed since the catch-up began.
    pub fn on_tick(&mut self, now: Time, local_timeout: Duration) -> Tick {
        if now.since(self.started_at) >= local_timeout {
            Tick::GiveUp(self.recovered_round)
        } else if now.since(self.last_request_at) >= RECOVERY_RESEND {
            self.last_request_at = now;
            Tick::Resend
        } else {
            Tick::Wait
        }
    }

    /// The buffered traffic, in arrival order.
    pub fn into_buffered(self) -> Vec<(ReplicaId, M)> {
        self.buffered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ava_store::StoreConfig;
    use ava_types::{Region, ReplicaInfo};

    const OWN: ClusterId = ClusterId(0);
    const TIMEOUT: Duration = Duration(4_000_000);

    /// Cluster 0 of seven (f = 2, so three matching members adopt) and
    /// cluster 1 of four.
    fn membership() -> Membership {
        let mut m = Membership::new();
        for (cluster, ids) in [(OWN, 0..7), (ClusterId(1), 7..11)] {
            for id in ids {
                m.add(cluster, ReplicaInfo { id: ReplicaId(id), region: Region::UsWest });
            }
        }
        m
    }

    /// A checkpoint of `round`; `salt` varies the state, so two salts are two
    /// digests for one round.
    fn checkpoint(round: u64, salt: u64) -> Arc<Checkpoint> {
        let state = StateSnapshot::counters([(salt, salt)]);
        Arc::new(Checkpoint::new(Round(round), state, membership(), 0, round * 10))
    }

    /// A record of `round` holding one empty package of this cluster. An empty
    /// package verifies; one carrying a leave without a BRD certificate cannot.
    fn record(round: u64, valid: bool) -> Arc<RoundRecord> {
        let recs = if valid { vec![] } else { vec![Reconfig::Leave { replica: ReplicaId(1) }] };
        let package = RoundPackage::new(OWN, Round(round), vec![], recs, None);
        Arc::new(RoundRecord::new(Round(round), vec![Arc::new(package)]))
    }

    /// A reply with `checkpoint`, valid records of `rounds`, and current
    /// `round`; the leader timestamp names the sender's round, to tell
    /// candidates apart.
    fn offer(checkpoint: &Arc<Checkpoint>, rounds: &[u64], round: u64) -> CatchUpOffer {
        let suffix = rounds.iter().map(|&r| record(r, true)).collect();
        CatchUpOffer {
            checkpoint: Arc::clone(checkpoint),
            suffix,
            round: Round(round),
            leader_ts: round,
        }
    }

    fn catch_up(recovered: u64) -> CatchUp<u32> {
        CatchUp::new(Time::ZERO, Round(recovered), &membership(), OWN)
    }

    /// Runs the adoption on top of a fresh counter machine at `round`.
    fn adopt(catch_up: &CatchUp<u32>, round: u64) -> Option<Adoption> {
        let (machine, views) = (machine_for(StateMachineKind::Counter), Views::new(membership()));
        let executed = Executed {
            machine: machine.as_ref(),
            views: &views,
            round: Round(round),
            leader_ts: 0,
            next_height: 3,
        };
        catch_up.adoption(&KeyRegistry::new(), OWN, executed).0
    }

    #[test]
    fn replies_from_outside_the_cluster_do_not_vote() {
        let mut c = catch_up(1);
        let forged = checkpoint(5, 1);
        // Members of another cluster, and nodes of none, are ignored however
        // many of them agree.
        for outsider in [7, 8, 9, 10, 99] {
            assert_eq!(c.offer(ReplicaId(outsider), offer(&forged, &[], 6)), Offered::Ignored);
        }
        assert!(adopt(&c, 1).is_none());
        assert!(c.offers.is_empty());
        // Members vote; the request goes to all of them but the sender.
        for member in [1, 2] {
            assert_eq!(c.offer(ReplicaId(member), offer(&forged, &[], 6)), Offered::Counted);
        }
        assert!(adopt(&c, 1).is_none(), "two of f + 1 = 3");
        assert_eq!(c.peers(ReplicaId(0)), (1..7).map(ReplicaId).collect::<Vec<_>>());
        // A corrupted snapshot from a member is evidence, not a vote.
        let mut corrupt = (*forged).clone();
        corrupt.next_height += 1;
        let corrupt = CatchUpOffer { checkpoint: Arc::new(corrupt), ..offer(&forged, &[], 6) };
        assert_eq!(c.offer(ReplicaId(3), corrupt), Offered::Corrupt);
        assert!(adopt(&c, 1).is_none());
    }

    #[test]
    fn f_plus_one_members_adopt_and_outvote_a_liar() {
        let mut c = catch_up(1);
        let (honest, lie) = (checkpoint(5, 1), checkpoint(5, 2));
        c.offer(ReplicaId(1), offer(&honest, &[6], 7));
        c.offer(ReplicaId(2), offer(&lie, &[6], 7));
        c.offer(ReplicaId(3), offer(&honest, &[6], 7));
        assert!(adopt(&c, 1).is_none());
        c.offer(ReplicaId(4), offer(&honest, &[6], 7));
        let adoption = adopt(&c, 1).expect("three members agree");
        assert_eq!(adoption.checkpoint.map(|cp| cp.digest), Some(honest.digest));
        assert_eq!(adoption.round, Round(7));
        assert_eq!(adoption.view.next_height, 50);
        assert_eq!(adoption.view.machine.snapshot(), honest.state);
        assert_eq!(adoption.rounds_transferred, 5 + 1, "rounds 1–5 by checkpoint, 6 by record");
        assert_eq!(adoption.records.len(), 1);
        assert!(adoption.outvoted, "two digests for round 5 is evidence");
    }

    #[test]
    fn a_suffix_that_cannot_cover_the_range_drops_its_candidate() {
        let mut c = catch_up(1);
        let agreed = checkpoint(5, 1);
        // Tried newest first: a suffix that stops at round 8 of 10, one with a
        // gap at 7, one with an unverifiable record 7, then one that covers
        // rounds 6 up to its sender's round 7.
        c.offer(ReplicaId(1), offer(&agreed, &[6, 7], 10));
        c.offer(ReplicaId(2), offer(&agreed, &[6, 8], 9));
        let mut bad = offer(&agreed, &[6], 8);
        bad.suffix.push(record(7, false));
        c.offer(ReplicaId(3), bad);
        c.offer(ReplicaId(4), offer(&agreed, &[6], 7));
        let adoption = adopt(&c, 1).expect("the last candidate covers its range");
        assert_eq!((adoption.round, adoption.view.leader_ts), (Round(7), 7));
        assert!(!adoption.outvoted);
        // Without it, nobody covers the range.
        c.offers.remove(&ReplicaId(4));
        assert!(adopt(&c, 1).is_none());
    }

    #[test]
    fn the_member_furthest_ahead_is_tried_first() {
        let mut c = catch_up(1);
        let agreed = checkpoint(5, 1);
        c.offer(ReplicaId(1), offer(&agreed, &[6], 7));
        c.offer(ReplicaId(2), offer(&agreed, &[6, 7, 8], 9));
        c.offer(ReplicaId(3), offer(&agreed, &[6, 7], 8));
        let adoption = adopt(&c, 1).expect("all three cover their range");
        assert_eq!((adoption.round, adoption.view.leader_ts), (Round(9), 9));
        assert_eq!(adoption.records.len(), 3);
    }

    #[test]
    fn a_replica_not_behind_the_checkpoint_replays_on_its_own_state() {
        // Recovered through round 6 locally; the agreed checkpoint is of round 5.
        let mut c = catch_up(7);
        let agreed = checkpoint(5, 1);
        for member in 1..4 {
            c.offer(ReplicaId(member), offer(&agreed, &[6, 7, 8], 9));
        }
        let adoption = adopt(&c, 7).expect("records 7 and 8 cover the range");
        assert!(adoption.checkpoint.is_none());
        assert_eq!(adoption.records.iter().map(|r| r.round.0).collect::<Vec<_>>(), [7, 8]);
        assert_eq!(adoption.rounds_transferred, 2);
        assert_eq!(adoption.bytes_transferred, 2 * record(7, true).wire_size() as u64);
        assert_eq!(adoption.view.next_height, 3, "the executed anchor, not the checkpoint's");
    }

    #[test]
    fn the_request_is_resent_every_500_ms_until_local_timeout() {
        let mut c = catch_up(3);
        let mut resends = Vec::new();
        let mut ms = 0;
        let gave_up = loop {
            ms += 10;
            match c.on_tick(Time::ZERO + Duration::from_millis(ms), TIMEOUT) {
                Tick::Wait => {}
                Tick::Resend => resends.push(ms),
                Tick::GiveUp(round) => break round,
            }
        };
        assert_eq!(resends, (1..8).map(|i| i * 500).collect::<Vec<_>>());
        assert_eq!((ms, gave_up), (4_000, Round(3)));
    }

    #[test]
    fn the_buffer_keeps_arrival_order_up_to_its_cap() {
        let mut c = catch_up(1);
        for i in 0..RECOVERY_BUFFER_CAP as u32 + 5 {
            c.buffer(ReplicaId(i % 7), i);
        }
        let buffered = c.into_buffered();
        assert_eq!(buffered.len(), RECOVERY_BUFFER_CAP);
        assert!(buffered.iter().enumerate().all(|(i, (_, m))| *m == i as u32));
    }

    #[test]
    fn a_reply_comes_from_the_store_or_from_what_was_executed() {
        let (m, views) = (membership(), Views::new(membership()));
        let mut machine = machine_for(StateMachineKind::Counter);
        machine.apply(Round(1), &Transaction::write(ava_types::ClientId(0), 0, 5, 8));
        let executed = || Executed {
            machine: machine.as_ref(),
            views: &views,
            round: Round(7),
            leader_ts: 2,
            next_height: 40,
        };
        // Storeless: a checkpoint of round 6 at the executed anchor.
        let (cp, suffix) = reply(None, &m, executed());
        assert_eq!((cp.round, cp.next_height, cp.leader_ts), (Round(6), 40, 2));
        assert_eq!(cp.state, machine.snapshot());
        assert!(suffix.is_empty());
        // A store without a checkpoint: the whole log on the empty round 0.
        let mut store = Store::new(StoreConfig::every(100));
        for round in 1..4 {
            store.append_round(record(round, true));
        }
        let (cp, suffix) = reply(Some(&store), &m, executed());
        assert_eq!(
            (cp.round, cp.state.clone()),
            (Round(0), StateSnapshot::empty(StateMachineKind::Counter))
        );
        assert_eq!(suffix.len(), 3);
        // With one: it and the log after it.
        store.install_checkpoint(checkpoint(2, 1));
        let (cp, suffix) = reply(Some(&store), &m, executed());
        assert_eq!(cp.digest, checkpoint(2, 1).digest);
        assert_eq!(suffix.iter().map(|r| r.round).collect::<Vec<_>>(), [Round(3)]);
    }

    #[test]
    fn store_replay_rebuilds_from_the_checkpoint_and_the_log_after_it() {
        let initial = membership();
        // No store: genesis.
        let (view, round, replayed) = replay_store(None, OWN, StateMachineKind::Counter, &initial);
        assert_eq!((round, replayed, view.leader_ts, view.next_height), (Round(1), 0, 0, 0));
        // A checkpoint of round 4 and records 5 and 6 after it.
        let mut store = Store::new(StoreConfig::every(100));
        let cp = checkpoint(4, 1);
        store.install_checkpoint(Arc::clone(&cp));
        for round in 5..7 {
            store.append_round(record(round, true));
        }
        let (view, round, replayed) =
            replay_store(Some(&store), OWN, StateMachineKind::Counter, &Membership::new());
        assert_eq!((round, replayed, view.next_height), (Round(7), 2, 40));
        assert_eq!(view.machine.snapshot(), cp.state);
        assert_eq!(view.views, Views::new(cp.membership.clone()));
    }
}

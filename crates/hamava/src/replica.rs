//! The Hamava replica: composition of all sub-protocols into the three-stage round
//! structure of the paper (Alg. 7–10), generic over the local total-order broadcast.

use crate::brd::{Brd, BrdAction, BrdCert};
use crate::leader_election::{ElectionAction, LeaderElection};
use crate::messages::{AvaMsg, ControlCmd, CurrStateViews, RoundPackage, RoundRecord, TxBatch};
use crate::relay::{self, trace_value, Relay};
use crate::remote_leader::{RemoteLeaderAction, RemoteLeaderChange};
use ava_consensus::{CommittedBlock, FaultMode, TobAction, TotalOrderBroadcast};
use ava_crypto::{KeyRegistry, Keypair};
use ava_simnet::{Actor, Context, SimMessage};
use ava_state::{
    machine_for, machine_from_snapshot, StateMachine, StateMachineKind, StateSnapshot,
};
use ava_store::{Checkpoint, CheckpointCollector, ReplicaStore, StoreConfig};
use ava_types::{
    ClientId, ClusterId, Duration, Membership, Operation, Output, ProtocolParams, Reconfig, Region,
    RejectKind, ReplicaId, Round, StageKind, Time, Timestamp, Transaction, TxId, TxKind,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// Timer kind used for the replica's periodic tick.
const TICK: u64 = 1;

/// How often a recovering replica re-broadcasts its `CatchUpRequest` until the
/// catch-up completes (peers may themselves be down, or a checkpoint boundary may
/// need to pass before enough digests match). 500 ms.
const RECOVERY_RESEND: Duration = Duration(500_000);

/// Lifecycle status of a replica.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ReplicaStatus {
    /// Participating in replication.
    Active,
    /// Trying to join a cluster (Alg. 3 requester side).
    Joining {
        /// The cluster being joined.
        target: ClusterId,
        /// Acks received so far.
        acks: BTreeSet<ReplicaId>,
        /// CurrState senders seen, by round.
        state_senders: BTreeMap<Round, BTreeSet<ReplicaId>>,
    },
    /// Has left the system (stops processing).
    Left,
    /// Restarted after a crash and catching up via checkpoint + log-suffix state
    /// transfer (the recovery bookkeeping lives in `Replica::recovery`).
    Recovering,
}

/// Per-round bookkeeping.
#[derive(Debug, Default)]
struct RoundState {
    /// Blocks delivered by the local TOB this round.
    blocks: Vec<CommittedBlock>,
    /// Transactions delivered this round (across blocks).
    tx_count: usize,
    /// The reconfiguration set delivered by BRD for this round.
    recs: Option<(Vec<Reconfig>, Option<BrdCert>)>,
    /// Whether `send-recs` was called already (Alg. 7 line 20).
    sent_recs: bool,
    /// Whether Stage 1 is complete at this replica.
    stage1_done: bool,
    /// A committed `RoundCut` marker for this round asked to close the batch.
    cut_requested: bool,
    /// Whether this replica (as leader) already ordered a `RoundCut` marker for
    /// this round.
    sent_cut_marker: bool,
    /// Whether this replica (as leader) already ran the inter-cluster broadcast.
    inter_broadcast_done: bool,
    /// Packages received per cluster (the paper's `operations_j`), Arc-shared with
    /// the messages they arrived in.
    packages: BTreeMap<ClusterId, Arc<RoundPackage>>,
    /// When the round started.
    started_at: Time,
    /// When Stage 1 finished.
    stage1_end: Option<Time>,
}

/// Configuration of a single replica.
#[derive(Clone)]
pub struct ReplicaConfig {
    /// This replica's id.
    pub me: ReplicaId,
    /// This replica's region.
    pub region: Region,
    /// The cluster this replica belongs to (or wants to join).
    pub cluster: ClusterId,
    /// Protocol parameters.
    pub params: ProtocolParams,
    /// Initial membership map of the whole system.
    pub membership: Membership,
    /// Interval of the periodic tick driving timeouts and batching.
    pub tick_interval: Duration,
    /// Maximum time Stage 1 waits for a full batch before closing the round with a
    /// partial batch (keeps rounds progressing under light load).
    pub stage1_max_wait: Duration,
    /// If true, start in joining mode (the replica is not yet a member).
    pub joining: bool,
    /// Which deterministic state machine executes committed transactions. The
    /// default counter machine keeps legacy runs byte-identical; the keyed KV
    /// machine stores real versioned values and emits per-round state digests.
    pub machine: StateMachineKind,
    /// Durable-store configuration. `None` (the default) runs the replica without
    /// persistence: nothing is logged, no fsync cost is charged, and a crashed
    /// replica can only rejoin via a full current-state transfer — behaviour is
    /// bit-identical to pre-store builds.
    pub store: Option<StoreConfig>,
}

impl ReplicaConfig {
    /// Reasonable defaults for an active replica.
    pub fn new(
        me: ReplicaId,
        region: Region,
        cluster: ClusterId,
        params: ProtocolParams,
        membership: Membership,
    ) -> Self {
        ReplicaConfig {
            me,
            region,
            cluster,
            params,
            membership,
            tick_interval: Duration::from_millis(10),
            stage1_max_wait: Duration::from_millis(1500),
            joining: false,
            machine: StateMachineKind::default(),
            store: None,
        }
    }
}

/// One peer's catch-up reply, kept until enough peers agree on a checkpoint.
struct CatchUpOffer {
    checkpoint: Arc<Checkpoint>,
    suffix: Vec<Arc<RoundRecord>>,
    round: Round,
    leader_ts: u64,
}

/// Upper bound on protocol messages buffered while catching up (the window is
/// normally a local round trip; the cap only matters if every peer is down).
const RECOVERY_BUFFER_CAP: usize = 10_000;

/// Bookkeeping of an in-progress catch-up (post-restart recovery or an active
/// replica's straggler escape).
struct RecoveryState<TM> {
    /// When the catch-up began (for time-to-caught-up accounting).
    started_at: Time,
    /// The round covered locally (store checkpoint + log replay, or the straggler's
    /// current round); peers only need to cover rounds from here on.
    recovered_round: Round,
    /// Collects peer checkpoints until `f + 1` digests match.
    collector: CheckpointCollector,
    /// Latest reply per peer.
    offers: BTreeMap<ReplicaId, CatchUpOffer>,
    /// When the catch-up request was last (re-)broadcast.
    last_request_at: Time,
    /// Suffix records rejected because a certificate failed verification against
    /// the membership of its round (corrupted or stale transfers).
    rejected_records: u64,
    /// Protocol traffic (TOB, BRD, packages) that arrived while catching up,
    /// replayed once the replica rejoins so in-flight decisions are not lost.
    buffered: Vec<(ReplicaId, AvaMsg<TM>)>,
}

impl<TM> RecoveryState<TM> {
    fn new(now: Time, recovered_round: Round, threshold: usize) -> Self {
        RecoveryState {
            started_at: now,
            recovered_round,
            collector: CheckpointCollector::new(threshold),
            offers: BTreeMap::new(),
            last_request_at: now,
            rejected_records: 0,
            buffered: Vec::new(),
        }
    }
}

/// A Hamava replica, generic over the local total-order broadcast `T`.
pub struct Replica<T: TotalOrderBroadcast> {
    cfg: ReplicaConfig,
    keypair: Keypair,
    registry: KeyRegistry,
    status: ReplicaStatus,
    membership: Membership,
    /// Membership as it stood immediately before the most recent reconfiguration
    /// (equal to `membership` until one applies). Blocks committed by the TOB
    /// just before a reconfiguration boundary legitimately strand past the cut
    /// and pack into the *next* round (see `consume_ready_blocks`), so a round's
    /// package can carry certificates signed by the previous membership — remote
    /// verification accepts either view (see `verify_package`).
    prev_membership: Membership,
    round: Round,
    round_state: RoundState,
    tob: T,
    election: LeaderElection,
    brd: Brd,
    rlc: RemoteLeaderChange,
    leader: ReplicaId,
    leader_ts: Timestamp,
    /// Reconfiguration requests collected this round (Alg. 3 member side).
    collected_recs: BTreeSet<Reconfig>,
    /// Regions of replicas that requested to join (needed to build `Reconfig::Join`).
    join_regions: HashMap<ReplicaId, Region>,
    /// Client write requests waiting for execution, keyed by transaction id.
    pending_clients: HashMap<TxId, (ReplicaId, ClientId)>,
    /// For writes admitted via a broker batch: which `(broker, batch id)` the
    /// operation arrived in, so execution can emit the batch-commit trace the
    /// broker-conservation checker audits.
    pending_batch: HashMap<TxId, (ReplicaId, u64)>,
    /// Broker batches already admitted, keyed by `(broker, batch id)`. A broker
    /// that re-submits after a reply was lost (or slow) gets an idempotent ack
    /// instead of a double admission.
    seen_batches: BTreeSet<(ReplicaId, u64)>,
    /// The replicated deterministic state machine (counter or keyed KV,
    /// per `ReplicaConfig::machine`). Execution, log replay and snapshot
    /// adoption all mutate state exclusively through `StateMachine::apply`,
    /// so live and replayed replicas cannot diverge.
    machine: Box<dyn StateMachine>,
    /// Blocks delivered by the local TOB but not yet packed into a round, keyed
    /// by height. Rounds consume this queue in contiguous height order (see
    /// `consume_ready_blocks`), so the block→round partition is a pure function
    /// of the cluster's totally-ordered block stream rather than of each
    /// replica's delivery timing.
    pending_blocks: BTreeMap<u64, CommittedBlock>,
    /// The next local-log height to pack into a round. Blocks below it are
    /// already covered (executed locally, or applied via checkpoint / record
    /// transfer) and are dropped on delivery; a delivered height above it parks
    /// in `pending_blocks` until the gap fills (or a catch-up moves the anchor
    /// past it). Recovery paths re-anchor this from `Checkpoint::next_height`,
    /// transferred round records, or `CurrState`.
    next_local_height: u64,
    /// `next_local_height` as of the current round's start — the height boundary
    /// after the last *executed* round. A storeless catch-up reply synthesizes a
    /// checkpoint of executed state and must report this boundary (not the live
    /// anchor, which may already include blocks packed into the in-flight
    /// round), or same-round senders' synthesized digests would split.
    round_base_height: u64,
    /// Package of the previous round (re-sent by a new leader, Alg. 8 line 17).
    prev_package: Option<Arc<RoundPackage>>,
    /// Stage-2 package bookkeeping beyond the current round: the stash of
    /// packages that arrived early, and the evidence-driven pull of a package
    /// this replica misses from a cluster that is provably a round ahead.
    relay: Relay,
    /// Reconfiguration sets ordered through the TOB (single-workflow mode only),
    /// keyed by the round they were agreed for. A set can commit while this replica
    /// is still finishing the previous round; stashing it here instead of dropping
    /// it keeps Stage 1 of the tagged round live.
    ordered_reconfig_sets: BTreeMap<Round, Vec<Reconfig>>,
    /// E4.3-style Byzantine behaviour: withhold inter-cluster messages.
    mute_inter: bool,
    /// Whether this replica asked to leave.
    leave_requested: bool,
    /// The durable store (round log + checkpoints). This is the one field a
    /// restart does not wipe — it models the on-disk state of the process.
    store: Option<ReplicaStore<Arc<RoundRecord>>>,
    /// In-progress crash recovery, present iff `status == Recovering`.
    recovery: Option<RecoveryState<T::Msg>>,
    /// BRD messages that arrived for rounds this replica has not reached yet
    /// (BRD instances are per-round); replayed when the round starts, so a replica
    /// entering a round late still completes the round's dissemination. Members
    /// only disseminate for their current round, so a non-empty stash is also the
    /// straggler-escape evidence that this replica fell behind its own cluster.
    future_brd: BTreeMap<Round, Vec<(ReplicaId, crate::brd::BrdMsg)>>,
}

/// The one walk over a committed round (Alg. 10), which live execution, log
/// replay, transferred-suffix replay and the post-recovery client acks all
/// share: every transaction goes to `on_tx` in execution order — `packages`
/// ascending by cluster (the paper's predefined order), blocks and operations
/// in package order — and the reconfiguration sets come back in the order they
/// apply, after all of the round's transactions: per cluster the block-carried
/// `ReconfigSet`s, then the package-level set. Replayed replicas must compute
/// the state and checkpoint digests live ones do, or f + 1 agreement breaks.
fn walk_round<'a>(
    packages: impl IntoIterator<Item = &'a Arc<RoundPackage>>,
    mut on_tx: impl FnMut(&Transaction),
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

impl<T: TotalOrderBroadcast> Replica<T> {
    /// Create a replica around an already-constructed TOB instance.
    pub fn new(cfg: ReplicaConfig, keypair: Keypair, registry: KeyRegistry, tob: T) -> Self {
        let members = cfg.membership.member_ids(cfg.cluster);
        let leader = members.first().copied().unwrap_or(cfg.me);
        let election = LeaderElection::new(cfg.me, members.clone());
        let brd = Brd::new(
            cfg.me,
            members,
            keypair.clone(),
            registry.clone(),
            leader,
            Timestamp(0),
            Round(1),
            cfg.params.brd_timeout,
        );
        let rlc = RemoteLeaderChange::new(
            cfg.me,
            cfg.cluster,
            cfg.membership.clone(),
            keypair.clone(),
            registry.clone(),
            cfg.params.remote_leader_timeout,
            cfg.params.leader_change_grace,
        );
        let status = if cfg.joining {
            ReplicaStatus::Joining {
                target: cfg.cluster,
                acks: BTreeSet::new(),
                state_senders: BTreeMap::new(),
            }
        } else {
            ReplicaStatus::Active
        };
        let machine = machine_for(cfg.machine);
        let relay = Relay::new(cfg.cluster);
        let mut replica = Replica {
            membership: cfg.membership.clone(),
            prev_membership: cfg.membership.clone(),
            cfg,
            keypair,
            registry,
            status,
            round: Round(1),
            round_state: RoundState::default(),
            tob,
            election,
            brd,
            rlc,
            leader,
            leader_ts: Timestamp(0),
            collected_recs: BTreeSet::new(),
            join_regions: HashMap::new(),
            pending_clients: HashMap::new(),
            pending_batch: HashMap::new(),
            seen_batches: BTreeSet::new(),
            machine,
            pending_blocks: BTreeMap::new(),
            next_local_height: 0,
            round_base_height: 0,
            prev_package: None,
            relay,
            ordered_reconfig_sets: BTreeMap::new(),
            mute_inter: false,
            leave_requested: false,
            store: None,
            recovery: None,
            future_brd: BTreeMap::new(),
        };
        replica.store = replica.cfg.store.map(ReplicaStore::new);
        replica
    }

    /// Current status (for tests).
    pub fn status(&self) -> &ReplicaStatus {
        &self.status
    }

    /// Current membership view (for tests).
    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    /// The replicated state machine (for tests).
    pub fn machine(&self) -> &dyn StateMachine {
        self.machine.as_ref()
    }

    fn my_members(&self) -> Vec<ReplicaId> {
        self.membership.member_ids(self.cfg.cluster)
    }

    fn is_leader(&self) -> bool {
        self.leader == self.cfg.me
    }

    // ---- action plumbing -------------------------------------------------------

    fn apply_tob_actions(
        &mut self,
        actions: Vec<TobAction<T::Msg>>,
        ctx: &mut Context<'_, AvaMsg<T::Msg>>,
    ) {
        for action in actions {
            match action {
                TobAction::Send { to, msg } => ctx.send(to, AvaMsg::Tob(msg)),
                TobAction::Consume(d) => ctx.consume(d),
                TobAction::Complain { silent_for, .. } => {
                    // How long the local watchdog waited, for timelines and
                    // fuzz dumps: shows which bound fired.
                    let value = silent_for.as_millis_f64();
                    ctx.emit(Output::Custom { name: "leader_suspected", value, at: ctx.now() });
                    let actions = self.election.complain();
                    self.apply_election_actions(actions, ctx);
                }
                TobAction::Deliver(block) => self.on_local_block(block, ctx),
            }
        }
    }

    /// Route a BRD message: deliver to the current round's instance, stash
    /// messages for rounds this replica has not reached yet (replayed by
    /// `start_round`), drop messages for past rounds or beyond the stash window.
    fn on_brd_msg(
        &mut self,
        from: ReplicaId,
        msg: crate::brd::BrdMsg,
        ctx: &mut Context<'_, AvaMsg<T::Msg>>,
    ) {
        let round = msg.round();
        if round > self.round {
            if relay::in_window(self.round, round) {
                self.future_brd.entry(round).or_default().push((from, msg));
            }
            return;
        }
        let actions = self.brd.on_message(from, msg, ctx.now());
        self.apply_brd_actions(actions, ctx);
    }

    /// Straggler evidence: `f + 1` distinct members disseminating for the same
    /// future round. Members only run BRD for their current round, and with at
    /// most `f` Byzantine members at least one of `f + 1` senders is correct —
    /// so a single forged message can never demote a healthy replica.
    fn cluster_moved_past_this_round(&self) -> bool {
        let f = self.membership.f(self.cfg.cluster);
        self.future_brd.values().any(|msgs| {
            let mut senders: Vec<ReplicaId> = msgs.iter().map(|(from, _)| *from).collect();
            senders.sort();
            senders.dedup();
            senders.len() >= f + 1
        })
    }

    fn apply_brd_actions(
        &mut self,
        actions: Vec<BrdAction>,
        ctx: &mut Context<'_, AvaMsg<T::Msg>>,
    ) {
        for action in actions {
            match action {
                BrdAction::Send { to, msg } => ctx.send(to, AvaMsg::Brd(msg)),
                BrdAction::Consume(d) => ctx.consume(d),
                BrdAction::Complain { .. } => {
                    let actions = self.election.complain();
                    self.apply_election_actions(actions, ctx);
                }
                BrdAction::Deliver { recs, cert } => {
                    if self.round_state.recs.is_none() {
                        self.round_state.recs = Some((recs, Some(cert)));
                        self.check_stage1(ctx);
                    }
                }
                BrdAction::Reject { round } => {
                    ctx.emit(Output::ByzantineRejected {
                        replica: self.cfg.me,
                        cluster: self.cfg.cluster,
                        round,
                        kind: RejectKind::BrdSignature,
                        at: ctx.now(),
                    });
                }
            }
        }
    }

    fn apply_election_actions(
        &mut self,
        actions: Vec<ElectionAction>,
        ctx: &mut Context<'_, AvaMsg<T::Msg>>,
    ) {
        for action in actions {
            match action {
                ElectionAction::Send { to, msg } => ctx.send(to, AvaMsg::Election(msg)),
                ElectionAction::NewLeader { leader, ts } => self.install_leader(leader, ts, ctx),
            }
        }
    }

    fn apply_rlc_actions(
        &mut self,
        actions: Vec<RemoteLeaderAction>,
        ctx: &mut Context<'_, AvaMsg<T::Msg>>,
    ) {
        for action in actions {
            match action {
                RemoteLeaderAction::Send { to, msg } => ctx.send(to, AvaMsg::RemoteLeader(msg)),
                RemoteLeaderAction::Consume(d) => ctx.consume(d),
                RemoteLeaderAction::RequestNextLeader => {
                    let actions = self.election.next_leader();
                    self.apply_election_actions(actions, ctx);
                }
            }
        }
    }

    // ---- leader changes --------------------------------------------------------

    fn install_leader(
        &mut self,
        leader: ReplicaId,
        ts: Timestamp,
        ctx: &mut Context<'_, AvaMsg<T::Msg>>,
    ) {
        self.leader = leader;
        self.leader_ts = ts;
        let now = ctx.now();
        let tob_actions = self.tob.new_leader(leader, ts, now);
        self.apply_tob_actions(tob_actions, ctx);
        let brd_actions = self.brd.new_leader(leader, ts, now);
        self.apply_brd_actions(brd_actions, ctx);
        self.rlc.note_local_leader_change(now);
        ctx.emit(Output::LeaderChanged {
            cluster: self.cfg.cluster,
            new_leader: leader,
            timestamp: ts.0,
            at: now,
            replica: self.cfg.me,
        });
        // Alg. 8 lines 14–18: a new leader re-runs the inter-cluster broadcast for
        // the current round (if Stage 1 is already complete) and for the previous
        // round, in case the failed leader never communicated them.
        if self.is_leader() {
            // Capture the previous round's package first: inter_broadcast below
            // updates `prev_package` to the current round's package.
            let previous = self.prev_package.clone();
            if self.round_state.stage1_done {
                self.round_state.inter_broadcast_done = false;
                self.inter_broadcast(ctx);
            }
            if let Some(prev) = previous {
                if prev.round != self.round {
                    self.send_package_to_remotes(&prev, ctx);
                }
            }
        }
    }

    // ---- stage 1: local ordering + reconfiguration ------------------------------

    /// A block committed by the local TOB. Delivery order is per-replica timing;
    /// the round partition must not be. So blocks are parked in `pending_blocks`
    /// and packed strictly in local-log height order from `next_local_height`,
    /// making each round's `operations_i` a deterministic function of the
    /// cluster's block stream — identical at every correct replica regardless of
    /// when (or in what burst, e.g. a post-recovery replay) deliveries land.
    fn on_local_block(&mut self, block: CommittedBlock, ctx: &mut Context<'_, AvaMsg<T::Msg>>) {
        // Single-workflow mode: a committed reconfiguration set is final the
        // moment the TOB orders it, independent of which round its carrying
        // block packs into. The set is broadcast near the batch tail, so its
        // block routinely commits *after* the cut — with the batch closed it
        // can no longer pack, and stage 1 would deadlock waiting on a set it
        // will never see. Harvest at delivery; the block itself still packs
        // normally (into the next round if it landed past the cut).
        if !self.cfg.params.parallel_reconfig_workflow {
            for op in &block.block.ops {
                if let Operation::ReconfigSet { round, recs } = op {
                    if *round >= self.round {
                        self.ordered_reconfig_sets.entry(*round).or_insert_with(|| recs.clone());
                    }
                }
            }
        }
        self.pending_blocks.entry(block.block.height).or_insert(block);
        self.consume_ready_blocks(ctx);
        if !self.cfg.params.parallel_reconfig_workflow
            && matches!(self.status, ReplicaStatus::Active)
        {
            self.adopt_ordered_reconfig_set();
            self.check_stage1(ctx);
        }
    }

    /// Pack queued blocks into the current round while the next contiguous
    /// height is available and the round is still collecting (stage 1 open).
    /// Heights below the anchor were already covered by an executed round, a
    /// checkpoint, or transferred records — drop them. A height above the anchor
    /// is a gap: stall until the missing delivery arrives or a straggler
    /// catch-up moves the anchor past it.
    fn consume_ready_blocks(&mut self, ctx: &mut Context<'_, AvaMsg<T::Msg>>) {
        while matches!(self.status, ReplicaStatus::Active)
            && !self.round_state.stage1_done
            && !self.batch_closed()
        {
            let Some((&height, _)) = self.pending_blocks.first_key_value() else {
                return;
            };
            if height > self.next_local_height {
                return;
            }
            let block = self.pending_blocks.pop_first().expect("peeked entry").1;
            if height < self.next_local_height {
                continue;
            }
            self.next_local_height = height + 1;
            self.pack_block(block, ctx);
        }
    }

    fn pack_block(&mut self, block: CommittedBlock, ctx: &mut Context<'_, AvaMsg<T::Msg>>) {
        // Reconfiguration sets ordered through the TOB (single-workflow mode;
        // normally already harvested at delivery in `on_local_block`, but
        // recycled blocks re-enter through the pending queue alone, so this is
        // the safety net — `or_insert` makes the double harvest idempotent),
        // and round-cut markers closing the current round's batch. A marker for
        // any other round raced a batch-full (or earlier-marker) cut and is
        // stale — the block carrying it still packs into the round normally.
        let mut reconfig_sets = Vec::new();
        for op in &block.block.ops {
            match op {
                Operation::ReconfigSet { round, recs } => {
                    reconfig_sets.push((*round, recs.clone()));
                }
                Operation::RoundCut { round } if *round == self.round => {
                    self.round_state.cut_requested = true;
                }
                _ => {}
            }
        }
        self.round_state.tx_count += block.block.tx_count();
        self.round_state.blocks.push(block);
        if !self.cfg.params.parallel_reconfig_workflow {
            for (round, recs) in reconfig_sets {
                if round >= self.round {
                    self.ordered_reconfig_sets.entry(round).or_insert(recs);
                }
            }
            self.adopt_ordered_reconfig_set();
        }
        // Alg. 7 line 20: once a large fraction of the batch is ordered, start the
        // reconfiguration dissemination so it overlaps the tail of local ordering.
        if self.round_state.tx_count >= self.cfg.params.alpha_threshold()
            && !self.round_state.sent_recs
        {
            self.send_recs(ctx);
        }
        self.check_stage1(ctx);
    }

    fn send_recs(&mut self, ctx: &mut Context<'_, AvaMsg<T::Msg>>) {
        if self.round_state.sent_recs {
            return;
        }
        self.round_state.sent_recs = true;
        let recs: Vec<Reconfig> = self.collected_recs.iter().copied().collect();
        if self.cfg.params.parallel_reconfig_workflow {
            let actions = self.brd.broadcast(recs, ctx.now());
            self.apply_brd_actions(actions, ctx);
        } else {
            // Single-workflow ablation (E5.2): the reconfiguration set competes with
            // transactions for slots in the total order. The round tag keeps each
            // round's set distinct in the TOB's dedup pool (see `Operation`).
            let actions =
                self.tob.broadcast(Operation::ReconfigSet { round: self.round, recs }, ctx.now());
            self.apply_tob_actions(actions, ctx);
        }
    }

    /// Single-workflow mode: adopt the ordered reconfiguration set for the current
    /// round, if one has committed.
    fn adopt_ordered_reconfig_set(&mut self) {
        if self.round_state.recs.is_none() {
            if let Some(recs) = self.ordered_reconfig_sets.remove(&self.round) {
                self.round_state.recs = Some((recs, None));
            }
        }
    }

    /// Whether the current round's batch is closed: no more blocks may pack
    /// into it. True once the batch filled or a committed `RoundCut` marker cut
    /// it (see `Operation::RoundCut` — the cut is a point of the block stream,
    /// never the local clock, so it is identical at every replica). Crucially
    /// this is decided by the block stream alone: stage 1 may still be waiting
    /// on the round's BRD reconfiguration set, whose arrival time is
    /// per-replica, and blocks consumed during that wait must NOT slip into the
    /// round or peers' packages diverge.
    fn batch_closed(&self) -> bool {
        self.round_state.tx_count >= self.cfg.params.batch_size
            || (self.round_state.cut_requested && self.round_state.tx_count > 0)
    }

    fn check_stage1(&mut self, ctx: &mut Context<'_, AvaMsg<T::Msg>>) {
        if self.round_state.stage1_done {
            return;
        }
        let now = ctx.now();
        if !self.batch_closed() {
            return;
        }
        if !self.round_state.sent_recs {
            self.send_recs(ctx);
        }
        let Some((recs, cert)) = self.round_state.recs.clone() else {
            return;
        };
        // Single-workflow mode: the set already travels inside the TOB-certified
        // blocks, so the package-level copy stays empty — it has no BRD delivery
        // certificate (remote verifiers would reject the package) and would be
        // applied a second time at execution.
        let (recs, cert) = if self.cfg.params.parallel_reconfig_workflow {
            (recs, cert)
        } else {
            (Vec::new(), None)
        };
        self.round_state.stage1_done = true;
        self.round_state.stage1_end = Some(now);
        ctx.emit(Output::StageCompleted {
            replica: self.cfg.me,
            cluster: self.cfg.cluster,
            round: self.round,
            stage: StageKind::IntraCluster,
            started_at: self.round_state.started_at,
            completed_at: now,
        });
        // `operations_i`: every replica records its own cluster's package locally.
        let own = Arc::new(RoundPackage::new(
            self.cfg.cluster,
            self.round,
            self.round_state.blocks.clone(),
            recs,
            cert,
        ));
        self.round_state.packages.insert(self.cfg.cluster, own);
        // Alg. 7 line 23: the leader starts the inter-cluster broadcast.
        if self.is_leader() {
            self.inter_broadcast(ctx);
        }
        self.check_stage2(ctx);
    }

    // ---- stage 2: inter-cluster communication -----------------------------------

    fn inter_broadcast(&mut self, ctx: &mut Context<'_, AvaMsg<T::Msg>>) {
        if self.round_state.inter_broadcast_done {
            return;
        }
        self.round_state.inter_broadcast_done = true;
        let Some(own) = self.round_state.packages.get(&self.cfg.cluster).cloned() else {
            return;
        };
        self.prev_package = Some(Arc::clone(&own));
        self.send_package_to_remotes(&own, ctx);
    }

    fn send_package_to_remotes(
        &mut self,
        package: &Arc<RoundPackage>,
        ctx: &mut Context<'_, AvaMsg<T::Msg>>,
    ) {
        if self.mute_inter {
            // E4.3 Byzantine leader: behaves correctly locally but never sends Inter.
            return;
        }
        for cluster in self.membership.cluster_ids() {
            if cluster == self.cfg.cluster {
                continue;
            }
            // Alg. 1 line 13: send to f_j + 1 distinct replicas of the remote cluster
            // so that at least one correct replica receives the package. The payload
            // is shared: each recipient costs an `Arc` bump, not a package copy.
            let targets = self.membership.first_k(cluster, self.membership.one_correct(cluster));
            ctx.broadcast(targets, AvaMsg::Inter(Arc::clone(package)));
        }
    }

    /// Verify a remote package against the current membership view, falling back
    /// to the pre-reconfiguration view: around a reconfiguration boundary a
    /// round's package carries head blocks that the TOB certified under the
    /// outgoing membership (they committed before the boundary and stranded past
    /// the previous round's cut), and rejecting those would wedge stage 2 at
    /// every replica of the receiving cluster.
    fn verify_package(&self, package: &RoundPackage) -> bool {
        package.verify_either(&self.registry, &self.membership, &self.prev_membership)
    }

    /// Report `conflict` — the content digests of the package already in
    /// `package`'s `(cluster, round)` slot and of `package`, if they differ (see
    /// [`relay::conflict`]): two packages claiming one slot cannot both be honest.
    fn report_equivocation(
        &self,
        package: &RoundPackage,
        conflict: Option<([u8; 32], [u8; 32])>,
        ctx: &mut Context<'_, AvaMsg<T::Msg>>,
    ) {
        if let Some((first, second)) = conflict {
            ctx.emit(Output::EquivocationObserved {
                replica: self.cfg.me,
                cluster: package.cluster,
                round: package.round,
                first,
                second,
                at: ctx.now(),
            });
        }
    }

    fn on_inter(
        &mut self,
        from: ReplicaId,
        package: Arc<RoundPackage>,
        ctx: &mut Context<'_, AvaMsg<T::Msg>>,
    ) {
        if package.round < self.round || package.cluster == self.cfg.cluster {
            return;
        }
        // A slot this replica already verified and shared (a new leader's
        // re-send, a second served pull, a flood) is settled before it is paid
        // for: no verification, no second cluster-wide `LocalShare`. Merely
        // *holding* the package is not enough to stay quiet — it may have come
        // from a Byzantine peer that shared it with this replica alone, and
        // Alg. 1 counts on every correct `Inter` recipient forwarding once.
        if let Some(shared) = self.relay.shared(package.round, package.cluster) {
            self.report_equivocation(&package, relay::conflict(shared, &package), ctx);
            return;
        }
        ctx.consume(
            ctx.costs().per_sig_verify.saturating_mul(
                package.blocks.iter().map(|b| b.cert.signature_count() as u64).sum(),
            ),
        );
        if !self.verify_package(&package) {
            // Only a failure at our *current* round is sound Byzantine
            // evidence: having executed every earlier round, we hold the exact
            // certifying view (and the previous-view fallback covers the
            // reconfiguration boundary). A future-round package may be honestly
            // certified under a membership we have not executed up to yet — a
            // straggler racing a cross-cluster reconfig hits exactly this — so
            // those drop silently and the sender's retry path recovers them.
            if package.round == self.round {
                ctx.emit(Output::ByzantineRejected {
                    replica: self.cfg.me,
                    cluster: package.cluster,
                    round: package.round,
                    kind: RejectKind::PackageCert,
                    at: ctx.now(),
                });
            }
            return;
        }
        self.relay.on_shared(self.round, Arc::clone(&package));
        if package.round > self.round {
            self.pull_missing(from, package.cluster, ctx);
        }
        // Alg. 1 line 16: re-broadcast as a Local message within the local cluster,
        // sharing the verified package.
        let members = self.my_members();
        ctx.broadcast(members, AvaMsg::LocalShare(package));
    }

    /// A verified package of a later round, straight from `from`, a member of
    /// `its_cluster`, proves that cluster executed our round: ask the sender for
    /// what we still miss of it (see `relay`).
    fn pull_missing(
        &mut self,
        from: ReplicaId,
        its_cluster: ClusterId,
        ctx: &mut Context<'_, AvaMsg<T::Msg>>,
    ) {
        if !self.membership.contains(its_cluster, from)
            && !self.prev_membership.contains(its_cluster, from)
        {
            return;
        }
        let held = &self.round_state.packages;
        let missing = self.membership.cluster_ids().into_iter().filter(|c| !held.contains_key(c));
        let round = self.round;
        for cluster in self.relay.on_future_package(round, from, its_cluster, missing) {
            ctx.send(from, AvaMsg::InterPull { round, cluster });
            let value = trace_value(round, cluster, from);
            ctx.emit(Output::Custom { name: "package_pulled", value, at: ctx.now() });
        }
    }

    /// Serve a package of the round just executed to a replica that proved it
    /// misses it (see `relay`). The answer is an ordinary `Inter`.
    fn on_inter_pull(
        &mut self,
        from: ReplicaId,
        round: Round,
        cluster: ClusterId,
        ctx: &mut Context<'_, AvaMsg<T::Msg>>,
    ) {
        let known = |m: &Membership| m.cluster_of(from).is_some();
        if !known(&self.membership) && !known(&self.prev_membership) {
            return;
        }
        if let Some(package) = self.relay.on_pull(from, round, cluster) {
            ctx.send(from, AvaMsg::Inter(package));
            let value = trace_value(round, cluster, from);
            ctx.emit(Output::Custom { name: "package_served", value, at: ctx.now() });
        }
    }

    fn on_local_share(
        &mut self,
        package: Arc<RoundPackage>,
        ctx: &mut Context<'_, AvaMsg<T::Msg>>,
    ) {
        if package.cluster == self.cfg.cluster {
            return;
        }
        if package.round > self.round {
            let (registry, current, prev) =
                (&self.registry, &self.membership, &self.prev_membership);
            let verify = |p: &RoundPackage| p.verify_either(registry, current, prev);
            let conflict = self.relay.stash(self.round, Arc::clone(&package), verify);
            self.report_equivocation(&package, conflict, ctx);
            return;
        }
        if package.round < self.round {
            return;
        }
        if let Some(held) = self.round_state.packages.get(&package.cluster) {
            self.report_equivocation(&package, relay::conflict(held, &package), ctx);
            return;
        }
        ctx.consume(
            ctx.costs().per_sig_verify.saturating_mul(
                package.blocks.iter().map(|b| b.cert.signature_count() as u64).sum(),
            ),
        );
        if !self.verify_package(&package) {
            ctx.emit(Output::ByzantineRejected {
                replica: self.cfg.me,
                cluster: package.cluster,
                round: package.round,
                kind: RejectKind::PackageCert,
                at: ctx.now(),
            });
            return;
        }
        self.rlc.mark_received(package.cluster);
        self.round_state.packages.insert(package.cluster, package);
        self.check_stage2(ctx);
    }

    fn check_stage2(&mut self, ctx: &mut Context<'_, AvaMsg<T::Msg>>) {
        if !self.round_state.stage1_done {
            return;
        }
        let expected = self.membership.cluster_count();
        if self.round_state.packages.len() < expected {
            return;
        }
        let now = ctx.now();
        ctx.emit(Output::StageCompleted {
            replica: self.cfg.me,
            cluster: self.cfg.cluster,
            round: self.round,
            stage: StageKind::InterCluster,
            started_at: self.round_state.stage1_end.unwrap_or(self.round_state.started_at),
            completed_at: now,
        });
        self.execute(ctx);
    }

    // ---- stage 3: execution (Alg. 10) -------------------------------------------

    fn execute(&mut self, ctx: &mut Context<'_, AvaMsg<T::Msg>>) {
        let now = ctx.now();
        let stage_start = now;
        let packages = std::mem::take(&mut self.round_state.packages);
        // Write-ahead persistence: log the round's certified inputs before applying
        // them, so a post-crash restart can replay this round from its own store.
        if self.store.is_some() {
            let record =
                Arc::new(RoundRecord::new(self.round, packages.values().cloned().collect()));
            self.persist_record(record, ctx);
        }
        let mut executed_txns = 0usize;
        let mut value_bytes = 0u64;
        let all_recs = walk_round(packages.values(), |tx| {
            value_bytes += self.machine.apply(self.round, tx).value_bytes;
            self.ack_committed(tx, ctx);
            executed_txns += 1;
        });
        ctx.consume(ctx.costs().per_tx_execute.saturating_mul(executed_txns as u64));
        // Value movement is charged separately so counter deployments (zero
        // value bytes) never reach this consume and stay golden-stable.
        if value_bytes > 0 {
            ctx.consume(ctx.costs().value_cost(value_bytes));
        }

        // Then reconfigurations, uniformly, updating membership and thresholds.
        // Keep the outgoing view around: blocks certified under it are still in
        // flight (stranded past this round's cut) and will pack into the next
        // round's package, which remote verifiers must accept.
        if all_recs.iter().any(|(_, recs)| !recs.is_empty()) {
            self.prev_membership = self.membership.clone();
        }
        let mut local_recs: Vec<Reconfig> = Vec::new();
        for (cluster, recs) in &all_recs {
            self.membership.apply_set(*cluster, recs);
            if *cluster == self.cfg.cluster {
                local_recs.extend(recs.iter().copied());
            }
            for rc in recs {
                ctx.emit(Output::ReconfigApplied {
                    replica: rc.replica(),
                    cluster: *cluster,
                    joined: rc.is_join(),
                    round: self.round,
                    at: now,
                    reporter: self.cfg.me,
                });
            }
        }

        // Kick-start joining replicas of the local cluster and handle own leave.
        let next_round = self.round.next();
        for rc in &local_recs {
            match rc {
                Reconfig::Join { replica, .. } => {
                    ctx.send(
                        *replica,
                        AvaMsg::CurrState {
                            state: self.machine.snapshot(),
                            views: Box::new(CurrStateViews {
                                membership: self.membership.clone(),
                                prev_membership: self.prev_membership.clone(),
                            }),
                            round: next_round,
                            leader_ts: self.leader_ts.0,
                            next_height: self.next_local_height,
                        },
                    );
                }
                Reconfig::Leave { replica } => {
                    if *replica == self.cfg.me {
                        self.status = ReplicaStatus::Left;
                    }
                }
            }
        }

        ctx.emit(Output::StageCompleted {
            replica: self.cfg.me,
            cluster: self.cfg.cluster,
            round: self.round,
            stage: StageKind::Execution,
            started_at: stage_start,
            completed_at: ctx.now(),
        });
        ctx.emit(Output::RoundExecuted {
            replica: self.cfg.me,
            cluster: self.cfg.cluster,
            round: self.round,
            txns: executed_txns,
            at: ctx.now(),
        });
        // KV deployments publish the machine's history-independent digest each
        // round; the fuzzer's execution-agreement checker compares these across
        // replicas (including snapshot-recovered ones). Counter deployments
        // never emit it, keeping their output streams golden-stable.
        if self.machine.kind() == StateMachineKind::Kv {
            ctx.emit(Output::StateDigest {
                replica: self.cfg.me,
                cluster: self.cfg.cluster,
                round: self.round,
                digest: self.machine.digest(),
                entries: self.machine.entries(),
                value_bytes: self.machine.value_bytes(),
                at: ctx.now(),
            });
        }

        // Remember own package for Alg. 8's previous-round re-broadcast, and all
        // of them for replicas that prove they miss one.
        if let Some(own) = packages.get(&self.cfg.cluster) {
            self.prev_package = Some(Arc::clone(own));
        }
        self.relay.on_round_executed(self.round, packages);

        // Clear per-round reconfiguration collection state (Alg. 10 line 36).
        for rc in &local_recs {
            self.collected_recs.remove(rc);
        }

        // Checkpoint cadence: snapshot executed state at interval boundaries so the
        // log can be truncated (every replica checkpoints at the same rounds, so
        // checkpoint digests match across the cluster).
        self.maybe_checkpoint(ctx);

        if self.status == ReplicaStatus::Left {
            return;
        }
        self.start_round(next_round, ctx);
    }

    fn persist_record(&mut self, record: Arc<RoundRecord>, ctx: &mut Context<'_, AvaMsg<T::Msg>>) {
        let Some(store) = &mut self.store else {
            return;
        };
        let bytes = store.append_round(record);
        if bytes > 0 {
            ctx.consume(ctx.costs().persist_cost(bytes));
        }
    }

    fn maybe_checkpoint(&mut self, ctx: &mut Context<'_, AvaMsg<T::Msg>>) {
        let should = self.store.as_ref().is_some_and(|s| s.should_checkpoint(self.round));
        if !should {
            return;
        }
        let checkpoint = Arc::new(Checkpoint::new(
            self.round,
            self.machine.snapshot(),
            self.membership.clone(),
            self.leader_ts.0,
            self.next_local_height,
        ));
        let store = self.store.as_mut().expect("checked above");
        let digest = checkpoint.digest;
        let round = checkpoint.round;
        let bytes = store.install_checkpoint(checkpoint);
        if bytes > 0 {
            ctx.consume(ctx.costs().persist_cost(bytes));
            ctx.emit(Output::CheckpointInstalled {
                replica: self.cfg.me,
                cluster: self.cfg.cluster,
                round,
                digest: digest.0,
                adopted: false,
                at: ctx.now(),
            });
        }
    }

    /// Answer whoever is waiting on a transaction that has just committed here
    /// (writes complete at execution): its pending client and, for an operation
    /// admitted from a broker batch, the per-op commit output.
    fn ack_committed(&mut self, tx: &Transaction, ctx: &mut Context<'_, AvaMsg<T::Msg>>) {
        if let Some((client_node, _client)) = self.pending_clients.remove(&tx.id) {
            ctx.send(
                client_node,
                AvaMsg::ClientResponse { tx: tx.id, is_write: tx.kind.is_write(), value_len: 0 },
            );
        }
        if let Some((broker, batch)) = self.pending_batch.remove(&tx.id) {
            ctx.emit(Output::BatchOpCommitted {
                replica: self.cfg.me,
                cluster: self.cfg.cluster,
                broker,
                batch,
                tx: tx.id,
                at: ctx.now(),
            });
        }
    }

    fn start_round(&mut self, round: Round, ctx: &mut Context<'_, AvaMsg<T::Msg>>) {
        self.round = round;
        self.round_base_height = self.next_local_height;
        self.round_state = RoundState { started_at: ctx.now(), ..Default::default() };
        if !self.cfg.params.parallel_reconfig_workflow {
            // Drop stale sets and adopt one that committed while the previous round
            // was finishing.
            self.ordered_reconfig_sets.retain(|r, _| *r >= round);
            self.adopt_ordered_reconfig_set();
        }
        // Membership may have changed: propagate to every sub-protocol.
        let members = self.my_members();
        self.tob.set_membership(members.clone());
        self.election.set_members(members.clone());
        self.rlc.set_membership(self.membership.clone());
        self.rlc.start_round(round, ctx.now());
        self.brd = Brd::new(
            self.cfg.me,
            members,
            self.keypair.clone(),
            self.registry.clone(),
            self.leader,
            self.leader_ts,
            round,
            self.cfg.params.brd_timeout,
        );
        // Re-deliver packages and BRD messages that arrived early for this round.
        for package in self.relay.take_stashed(round) {
            self.on_local_share(package, ctx);
        }
        self.future_brd = self.future_brd.split_off(&round);
        if let Some(msgs) = self.future_brd.remove(&round) {
            for (from, msg) in msgs {
                let actions = self.brd.on_message(from, msg, ctx.now());
                self.apply_brd_actions(actions, ctx);
            }
        }
        // Blocks delivered after the previous round's cut carried over in
        // `pending_blocks`; pack the contiguous prefix into this round now.
        self.consume_ready_blocks(ctx);
    }

    // ---- reconfiguration collection (Alg. 3, member side) -----------------------

    fn on_request_join(
        &mut self,
        replica: ReplicaId,
        region: Region,
        ctx: &mut Context<'_, AvaMsg<T::Msg>>,
    ) {
        self.join_regions.insert(replica, region);
        self.collected_recs.insert(Reconfig::Join { replica, region });
        ctx.send(replica, AvaMsg::Ack { members: self.my_members(), round: self.round });
    }

    fn on_request_leave(&mut self, replica: ReplicaId, ctx: &mut Context<'_, AvaMsg<T::Msg>>) {
        self.collected_recs.insert(Reconfig::Leave { replica });
        ctx.send(replica, AvaMsg::Ack { members: self.my_members(), round: self.round });
    }

    // ---- joining-replica side ----------------------------------------------------

    fn send_join_request(&mut self, ctx: &mut Context<'_, AvaMsg<T::Msg>>) {
        let ReplicaStatus::Joining { target, .. } = &self.status else {
            return;
        };
        let msg = AvaMsg::RequestJoin {
            replica: self.cfg.me,
            region: self.cfg.region,
            round: self.round,
        };
        let members = self.membership.member_ids(*target);
        ctx.broadcast(members, msg);
    }

    #[allow(clippy::too_many_arguments)]
    fn on_curr_state(
        &mut self,
        from: ReplicaId,
        state: StateSnapshot,
        views: CurrStateViews,
        round: Round,
        leader_ts: u64,
        next_height: u64,
        ctx: &mut Context<'_, AvaMsg<T::Msg>>,
    ) {
        let quorum_needed = {
            let ReplicaStatus::Joining { target, state_senders, .. } = &mut self.status else {
                return;
            };
            let senders = state_senders.entry(round).or_default();
            senders.insert(from);
            // A quorum of the cluster we are joining must report the same round
            // (Alg. 10 line 39).
            senders.len() >= 2 * self.cfg.membership.f(*target) + 1
        };
        if !quorum_needed {
            return;
        }
        // Adopt the state and become an active member starting at `round`. The
        // sender's packing anchor comes with it: heights below `next_height` are
        // already folded into `state`, and the joiner must cut its first rounds
        // at the same height boundaries as its new peers.
        self.machine = machine_from_snapshot(&state);
        self.membership = views.membership;
        // Adopt the sender's trailing window too: packages certified under the
        // outgoing view are still in flight, and the joiner must verify them
        // exactly like its established peers do.
        self.prev_membership = views.prev_membership;
        self.round = round;
        self.leader_ts = Timestamp(leader_ts);
        self.next_local_height = next_height;
        self.pending_blocks = self.pending_blocks.split_off(&next_height);
        let members = self.my_members();
        self.leader = LeaderElection::leader_for(&members, leader_ts);
        self.election = LeaderElection::new(self.cfg.me, members.clone());
        self.tob.set_membership(members);
        let leader = self.leader;
        let ts = self.leader_ts;
        let now = ctx.now();
        let tob_actions = self.tob.new_leader(leader, ts, now);
        self.apply_tob_actions(tob_actions, ctx);
        self.status = ReplicaStatus::Active;
        self.start_round(round, ctx);
        ctx.emit(Output::ReconfigApplied {
            replica: self.cfg.me,
            cluster: self.cfg.cluster,
            joined: true,
            round,
            at: ctx.now(),
            reporter: self.cfg.me,
        });
    }

    // ---- crash restart & catch-up (state transfer) --------------------------------

    /// Rebuild the replica after a simulated process restart: every sub-protocol is
    /// reconstructed from static configuration, volatile state is discarded, and
    /// the durable store (the one surviving field) seeds local recovery before the
    /// catch-up protocol fills the gap from peers.
    fn restart(&mut self, ctx: &mut Context<'_, AvaMsg<T::Msg>>) {
        let members = self.cfg.membership.member_ids(self.cfg.cluster);
        self.membership = self.cfg.membership.clone();
        self.prev_membership = self.cfg.membership.clone();
        self.round = Round(1);
        self.round_state = RoundState { started_at: ctx.now(), ..Default::default() };
        self.tob.reset();
        self.election = LeaderElection::new(self.cfg.me, members.clone());
        self.leader = members.first().copied().unwrap_or(self.cfg.me);
        self.leader_ts = Timestamp(0);
        self.brd = Brd::new(
            self.cfg.me,
            members,
            self.keypair.clone(),
            self.registry.clone(),
            self.leader,
            self.leader_ts,
            self.round,
            self.cfg.params.brd_timeout,
        );
        self.rlc = RemoteLeaderChange::new(
            self.cfg.me,
            self.cfg.cluster,
            self.membership.clone(),
            self.keypair.clone(),
            self.registry.clone(),
            self.cfg.params.remote_leader_timeout,
            self.cfg.params.leader_change_grace,
        );
        self.collected_recs.clear();
        self.join_regions.clear();
        self.pending_clients.clear();
        self.pending_batch.clear();
        self.seen_batches.clear();
        self.machine = machine_for(self.cfg.machine);
        self.prev_package = None;
        self.relay = Relay::new(self.cfg.cluster);
        self.ordered_reconfig_sets.clear();
        self.mute_inter = false;
        self.leave_requested = false;
        self.future_brd.clear();
        self.pending_blocks.clear();
        self.next_local_height = 0;
        self.round_base_height = 0;

        let (recovered_round, replayed) = self.recover_from_store();
        self.round_base_height = self.next_local_height;
        self.round = recovered_round;

        ctx.set_timer(self.cfg.tick_interval, TICK);
        ctx.emit(Output::ReplicaRestarted {
            replica: self.cfg.me,
            cluster: self.cfg.cluster,
            recovered_round,
            log_rounds_replayed: replayed,
            at: ctx.now(),
        });
        let f = self.membership.f(self.cfg.cluster);
        self.recovery = Some(RecoveryState::new(ctx.now(), recovered_round, f + 1));
        self.status = ReplicaStatus::Recovering;
        self.send_catch_up_request(ctx);
    }

    /// Straggler escape: this replica fell behind its own cluster (a verified or
    /// claimed remote package proves a later round is in progress) and its current
    /// round can no longer complete — the round's BRD exchange and package
    /// forwarding are over at its peers. Re-run the catch-up protocol *without*
    /// wiping state: fetch the missed rounds' certified records, then rejoin.
    fn begin_straggler_catch_up(&mut self, ctx: &mut Context<'_, AvaMsg<T::Msg>>) {
        let f = self.membership.f(self.cfg.cluster);
        self.recovery = Some(RecoveryState::new(ctx.now(), self.round, f + 1));
        self.status = ReplicaStatus::Recovering;
        ctx.emit(Output::Custom {
            name: "straggler_catch_up",
            value: self.round.0 as f64,
            at: ctx.now(),
        });
        self.send_catch_up_request(ctx);
    }

    /// Local durable recovery: adopt the store's checkpoint, replay the log suffix,
    /// and refresh the leader view for the recovered membership. Returns the first
    /// round the store cannot cover and how many log rounds were replayed.
    fn recover_from_store(&mut self) -> (Round, u64) {
        let Some(store) = &self.store else {
            return (Round(1), 0);
        };
        let (checkpoint, suffix) = store.recover();
        let mut round = Round(1);
        if let Some(cp) = checkpoint {
            self.machine = machine_from_snapshot(&cp.state);
            self.membership = cp.membership.clone();
            self.prev_membership = cp.membership.clone();
            self.leader_ts = Timestamp(cp.leader_ts);
            round = cp.round.next();
            self.next_local_height = cp.next_height;
        }
        let mut replayed = 0u64;
        for record in suffix {
            if record.round < round {
                continue;
            }
            Self::apply_record_contents(&record, self.machine.as_mut(), &mut self.membership);
            if let Some(h) = Self::record_next_height(&record, self.cfg.cluster) {
                self.next_local_height = self.next_local_height.max(h);
            }
            round = record.round.next();
            replayed += 1;
        }
        let members = self.membership.member_ids(self.cfg.cluster);
        self.leader = LeaderElection::leader_for(&members, self.leader_ts.0);
        self.election = LeaderElection::new(self.cfg.me, members.clone());
        self.tob.set_membership(members);
        (round, replayed)
    }

    fn send_catch_up_request(&mut self, ctx: &mut Context<'_, AvaMsg<T::Msg>>) {
        let Some(rec) = &mut self.recovery else {
            return;
        };
        rec.last_request_at = ctx.now();
        let from_round = rec.recovered_round;
        let me = self.cfg.me;
        let members: Vec<ReplicaId> =
            self.membership.member_ids(self.cfg.cluster).into_iter().filter(|m| *m != me).collect();
        ctx.broadcast(members, AvaMsg::CatchUpRequest { replica: me, from_round });
    }

    /// Member side of catch-up: ship the latest checkpoint plus the log suffix
    /// after it. A storeless replica synthesizes a checkpoint of its current state
    /// (rounds advance in lockstep, so concurrent synthesized snapshots still
    /// match digest-wise whenever the senders are in the same round).
    fn on_catch_up_request(
        &mut self,
        from: ReplicaId,
        _from_round: Round,
        ctx: &mut Context<'_, AvaMsg<T::Msg>>,
    ) {
        let (checkpoint, suffix) = match &self.store {
            Some(store) => match store.latest_checkpoint() {
                Some(cp) => {
                    let suffix = store.suffix(cp.round);
                    (cp, suffix)
                }
                None => {
                    // No checkpoint yet: the whole history is in the log; anchor it
                    // with the empty round-0 snapshot every replica agrees on.
                    let cp = Arc::new(Checkpoint::new(
                        Round(0),
                        StateSnapshot::empty(self.machine.kind()),
                        self.cfg.membership.clone(),
                        0,
                        0,
                    ));
                    let suffix = store.suffix(Round(0));
                    (cp, suffix)
                }
            },
            None => {
                let last_executed = Round(self.round.0.saturating_sub(1));
                let cp = Arc::new(Checkpoint::new(
                    last_executed,
                    self.machine.snapshot(),
                    self.membership.clone(),
                    self.leader_ts.0,
                    self.round_base_height,
                ));
                (cp, Vec::new())
            }
        };
        ctx.send(
            from,
            AvaMsg::CatchUpReply {
                checkpoint,
                suffix,
                round: self.round,
                leader_ts: self.leader_ts.0,
            },
        );
    }

    fn on_catch_up_reply(
        &mut self,
        from: ReplicaId,
        checkpoint: Arc<Checkpoint>,
        suffix: Vec<Arc<RoundRecord>>,
        round: Round,
        leader_ts: u64,
        ctx: &mut Context<'_, AvaMsg<T::Msg>>,
    ) {
        let Some(rec) = &mut self.recovery else {
            return;
        };
        // Corrupted snapshots (digest ≠ content) are dropped before they can vote.
        // Honest senders never ship one, so the rejection is Byzantine evidence.
        if !rec.collector.offer(from, Arc::clone(&checkpoint)) {
            ctx.emit(Output::ByzantineRejected {
                replica: self.cfg.me,
                cluster: self.cfg.cluster,
                round: checkpoint.round,
                kind: RejectKind::CatchUpCheckpoint,
                at: ctx.now(),
            });
            return;
        }
        rec.offers.insert(from, CatchUpOffer { checkpoint, suffix, round, leader_ts });
        self.try_complete_recovery(ctx);
    }

    /// Once `f + 1` peers agree on a checkpoint digest, try to adopt it plus one
    /// agreeing peer's log suffix (newest peer first). Every transferred record's
    /// certificates are verified against the membership of its round; a candidate
    /// with a gap or an unverifiable record is rejected and the next one is tried.
    fn try_complete_recovery(&mut self, ctx: &mut Context<'_, AvaMsg<T::Msg>>) {
        struct Adoption {
            machine: Box<dyn StateMachine>,
            membership: Membership,
            // The view one reconfig behind `membership` (the replay's trailing
            // window), preserved so the recovered replica keeps verifying
            // honest in-flight packages certified just before its adopted view
            // — flattening it to `membership` would turn those drops into
            // false Byzantine evidence.
            prev_membership: Membership,
            round: Round,
            leader_ts: u64,
            checkpoint: Option<Arc<Checkpoint>>,
            records: Vec<Arc<RoundRecord>>,
            rounds_transferred: u64,
            bytes_transferred: u64,
            next_height: u64,
        }
        let adoption = {
            let Some(rec) = &mut self.recovery else {
                return;
            };
            let Some(agreed) = rec.collector.agreed() else {
                return;
            };
            let mut candidates: Vec<ReplicaId> = rec
                .offers
                .iter()
                .filter(|(_, o)| {
                    o.checkpoint.round == agreed.round && o.checkpoint.digest == agreed.digest
                })
                .map(|(id, _)| *id)
                .collect();
            candidates.sort_by_key(|id| std::cmp::Reverse(rec.offers[id].round));
            let mut sig_cost = 0u64;
            let mut adoption = None;
            for id in candidates {
                let offer = &rec.offers[&id];
                // Base: the agreed checkpoint if it is ahead of local recovery,
                // else the locally recovered state.
                let use_checkpoint = agreed.round.next() > rec.recovered_round;
                let (mut machine, mut membership, mut next, mut bytes) = if use_checkpoint {
                    (
                        machine_from_snapshot(&agreed.state),
                        agreed.membership.clone(),
                        agreed.round.next(),
                        agreed.wire_size() as u64,
                    )
                } else {
                    (self.machine.fork(), self.membership.clone(), rec.recovered_round, 0)
                };
                let gap_rounds =
                    if use_checkpoint { agreed.round.next().0 - rec.recovered_round.0 } else { 0 };
                // Re-anchor block packing at the adopted base, then advance it
                // past every own-cluster block the transferred records cover.
                // The no-checkpoint base is the boundary after the last round
                // this replica *executed* (not the live anchor): blocks it had
                // consumed into its now-abandoned in-flight round are recycled
                // into `pending_blocks` at commit and re-packed from here.
                let mut next_height =
                    if use_checkpoint { agreed.next_height } else { self.round_base_height };
                let mut records = Vec::new();
                let mut ok = true;
                // Trails `membership` by one record: a record's head blocks may
                // be certified under the view that preceded the previous
                // record's reconfigurations (see `verify_package`).
                let mut replay_prev = membership.clone();
                for record in &offer.suffix {
                    if record.round < next {
                        continue;
                    }
                    if record.round > next {
                        ok = false; // gap: this peer cannot cover our range
                        break;
                    }
                    let (valid, sigs) =
                        record.verify_either(&self.registry, &membership, &replay_prev);
                    sig_cost += sigs;
                    if !valid {
                        rec.rejected_records += 1;
                        ok = false;
                        break;
                    }
                    replay_prev = membership.clone();
                    Self::apply_record_contents(record, machine.as_mut(), &mut membership);
                    if let Some(h) = Self::record_next_height(record, self.cfg.cluster) {
                        next_height = next_height.max(h);
                    }
                    bytes += record.wire_size() as u64;
                    next = record.round.next();
                    records.push(Arc::clone(record));
                }
                // The suffix must reach the peer's current round, else we would
                // rejoin behind the cluster with no way to fetch the missing rounds.
                if ok && next >= offer.round {
                    adoption = Some(Adoption {
                        machine,
                        membership,
                        prev_membership: replay_prev,
                        round: next,
                        leader_ts: offer.leader_ts,
                        checkpoint: use_checkpoint.then(|| Arc::clone(&agreed)),
                        rounds_transferred: gap_rounds + records.len() as u64,
                        records,
                        bytes_transferred: bytes,
                        next_height,
                    });
                    break;
                }
            }
            if sig_cost > 0 {
                ctx.consume(ctx.costs().per_sig_verify.saturating_mul(sig_cost));
            }
            let Some(adoption) = adoption else {
                return;
            };
            adoption
        };

        // Commit: adopt the transferred state and make it durable in one batch.
        self.machine = adoption.machine;
        self.membership = adoption.membership;
        self.prev_membership = adoption.prev_membership;
        self.leader_ts = Timestamp(adoption.leader_ts);
        // Recycle blocks consumed into the abandoned in-flight round — the
        // transferred records may stop short of them — then re-anchor. Covered
        // heights fall below the new anchor and are pruned; the rest re-pack
        // into the resumed round in height order.
        for block in std::mem::take(&mut self.round_state.blocks) {
            self.pending_blocks.entry(block.block.height).or_insert(block);
        }
        self.next_local_height = self.round_base_height.max(adoption.next_height);
        self.pending_blocks = self.pending_blocks.split_off(&self.next_local_height);
        let mut persist_bytes = 0usize;
        if let Some(store) = &mut self.store {
            if let Some(cp) = &adoption.checkpoint {
                let installed = store.install_checkpoint(Arc::clone(cp));
                if installed > 0 {
                    ctx.emit(Output::CheckpointInstalled {
                        replica: self.cfg.me,
                        cluster: self.cfg.cluster,
                        round: cp.round,
                        digest: cp.digest.0,
                        adopted: true,
                        at: ctx.now(),
                    });
                }
                persist_bytes += installed;
            }
            for record in &adoption.records {
                persist_bytes += store.append_round(Arc::clone(record));
            }
        }
        if persist_bytes > 0 {
            ctx.consume(ctx.costs().persist_cost(persist_bytes));
        }
        // Transactions pending at this replica that executed inside transferred
        // rounds get their responses now (a straggler kept its client bookkeeping).
        for record in &adoption.records {
            walk_round(&record.packages, |tx| self.ack_committed(tx, ctx));
        }
        let rec = self.recovery.take();
        // Two same-round checkpoint digests among the offers is sound evidence a
        // peer fabricated one (snapshots are round-deterministic at correct
        // replicas): the f+1 agreement outvoted it; record that it happened.
        let conflicting = rec.as_ref().map(|r| r.collector.conflicting()).unwrap_or(false);
        let buffered = rec.map(|r| r.buffered).unwrap_or_default();
        if conflicting {
            ctx.emit(Output::ByzantineRejected {
                replica: self.cfg.me,
                cluster: self.cfg.cluster,
                round: adoption.round,
                kind: RejectKind::CatchUpCheckpoint,
                at: ctx.now(),
            });
        }
        self.status = ReplicaStatus::Active;
        ctx.emit(Output::RecoveryCompleted {
            replica: self.cfg.me,
            cluster: self.cfg.cluster,
            round: adoption.round,
            rounds_transferred: adoption.rounds_transferred,
            bytes_transferred: adoption.bytes_transferred,
            at: ctx.now(),
        });
        self.resume_active(adoption.round, ctx);
        self.dispatch_buffered(buffered, ctx);
    }

    /// Replay protocol traffic buffered while catching up, in arrival order.
    fn dispatch_buffered(
        &mut self,
        buffered: Vec<(ReplicaId, AvaMsg<T::Msg>)>,
        ctx: &mut Context<'_, AvaMsg<T::Msg>>,
    ) {
        for (from, msg) in buffered {
            match msg {
                AvaMsg::Tob(m) => {
                    let actions = self.tob.on_message(from, m, ctx.now());
                    self.apply_tob_actions(actions, ctx);
                }
                AvaMsg::Brd(m) => self.on_brd_msg(from, m, ctx),
                AvaMsg::Inter(package) => self.on_inter(from, package, ctx),
                AvaMsg::LocalShare(package) => self.on_local_share(package, ctx),
                _ => {}
            }
        }
    }

    /// Apply one round record to a machine/membership pair exactly as
    /// [`Replica::execute`] applies the round live (both go through
    /// [`walk_round`]). Used for local log replay and for replaying transferred
    /// suffixes — no client responses, no outputs.
    fn apply_record_contents(
        record: &RoundRecord,
        machine: &mut dyn StateMachine,
        membership: &mut Membership,
    ) {
        let all_recs = walk_round(&record.packages, |tx| {
            machine.apply(record.round, tx);
        });
        for (cluster, recs) in &all_recs {
            membership.apply_set(*cluster, recs);
        }
    }

    /// The packing anchor implied by a round record for `cluster`'s own log:
    /// one past the highest own-cluster block height the record packs, or `None`
    /// when the record carries no own-cluster blocks (its round boundary then
    /// adds nothing beyond the previous one).
    fn record_next_height(record: &RoundRecord, cluster: ClusterId) -> Option<u64> {
        record
            .packages
            .iter()
            .filter(|p| p.cluster == cluster)
            .flat_map(|p| p.blocks.iter().map(|b| b.block.height + 1))
            .max()
    }

    /// Rejoin local ordering and inter-cluster forwarding at `round` with the
    /// already-adopted membership and leader timestamp (shared by peer-driven
    /// catch-up and the solo fallback).
    fn resume_active(&mut self, round: Round, ctx: &mut Context<'_, AvaMsg<T::Msg>>) {
        let members = self.my_members();
        self.election = LeaderElection::new(self.cfg.me, members.clone());
        self.leader = LeaderElection::leader_for(&members, self.leader_ts.0);
        self.tob.set_membership(members);
        let leader = self.leader;
        let ts = self.leader_ts;
        let now = ctx.now();
        let actions = self.tob.new_leader(leader, ts, now);
        self.apply_tob_actions(actions, ctx);
        self.start_round(round, ctx);
    }

    // ---- client requests ---------------------------------------------------------

    fn on_client_request(
        &mut self,
        from: ReplicaId,
        tx: Transaction,
        client: ClientId,
        ctx: &mut Context<'_, AvaMsg<T::Msg>>,
    ) {
        match tx.kind {
            TxKind::Read { key } => {
                // Reads are served locally without going through the three stages
                // (the paper's E2 latency breakdown relies on this).
                let value_len = self.machine.read_len(key);
                ctx.consume(ctx.costs().per_tx_execute);
                if value_len > 0 {
                    ctx.consume(ctx.costs().value_cost(value_len as u64));
                }
                ctx.send(from, AvaMsg::ClientResponse { tx: tx.id, is_write: false, value_len });
            }
            TxKind::Scan { start_key, count } => {
                // Range reads are served cluster-locally from committed state,
                // exactly like point reads.
                let bytes = self.machine.scan_bytes(start_key, count);
                ctx.consume(ctx.costs().per_tx_execute);
                if bytes > 0 {
                    ctx.consume(ctx.costs().value_cost(bytes));
                }
                let value_len = bytes.min(u32::MAX as u64) as u32;
                ctx.send(from, AvaMsg::ClientResponse { tx: tx.id, is_write: false, value_len });
            }
            TxKind::Write { .. } | TxKind::MultiWrite { .. } => {
                self.pending_clients.insert(tx.id, (from, client));
                let actions = self.tob.broadcast(Operation::Trans(tx), ctx.now());
                self.apply_tob_actions(actions, ctx);
            }
        }
    }

    /// Admit one broker-certified batch (broker tier fast path): verify the
    /// batch signature once, serve reads immediately, and feed writes into the
    /// local TOB. The reply releases the broker's in-flight slot and carries the
    /// read acks; write acks ride the ordinary per-operation execution path
    /// (`apply_transaction`), addressed to the broker node recorded in
    /// `pending_clients`.
    fn on_batch_submit(
        &mut self,
        from: ReplicaId,
        batch: Arc<TxBatch>,
        ctx: &mut Context<'_, AvaMsg<T::Msg>>,
    ) {
        ctx.consume(ctx.costs().batch_cost(batch.ops.len()));
        if !batch.verify(&self.registry) {
            return;
        }
        if !self.seen_batches.insert((batch.broker, batch.id)) {
            // Duplicate submission (retry after a lost or slow reply): ack
            // idempotently, never re-admit. Writes of the original admission are
            // either still pending or already acked per-operation.
            ctx.send(from, AvaMsg::BatchReply { batch: batch.id, reads: Vec::new() });
            return;
        }
        let mut reads = Vec::new();
        let mut read_bytes = 0u64;
        for tx in &batch.ops {
            match tx.kind {
                TxKind::Read { key } => {
                    read_bytes += self.machine.read_len(key) as u64;
                    reads.push(tx.id);
                }
                TxKind::Scan { start_key, count } => {
                    read_bytes += self.machine.scan_bytes(start_key, count);
                    reads.push(tx.id);
                }
                TxKind::Write { .. } | TxKind::MultiWrite { .. } => {
                    self.pending_clients.insert(tx.id, (from, tx.id.client));
                    self.pending_batch.insert(tx.id, (batch.broker, batch.id));
                    let actions = self.tob.broadcast(Operation::Trans(tx.clone()), ctx.now());
                    self.apply_tob_actions(actions, ctx);
                }
            }
        }
        ctx.consume(ctx.costs().per_tx_execute.saturating_mul(reads.len() as u64));
        if read_bytes > 0 {
            ctx.consume(ctx.costs().value_cost(read_bytes));
        }
        ctx.send(from, AvaMsg::BatchReply { batch: batch.id, reads });
    }

    // ---- control commands ---------------------------------------------------------

    fn on_control(&mut self, cmd: ControlCmd, ctx: &mut Context<'_, AvaMsg<T::Msg>>) {
        match cmd {
            ControlCmd::RequestLeave => {
                if !self.leave_requested {
                    self.leave_requested = true;
                    let msg = AvaMsg::RequestLeave { replica: self.cfg.me, round: self.round };
                    let members = self.my_members();
                    ctx.broadcast(members, msg);
                }
            }
            ControlCmd::MuteInterCluster => {
                self.mute_inter = true;
            }
            ControlCmd::SilentLocalLeader => {
                self.tob.set_fault_mode(FaultMode::SilentLeader);
            }
        }
    }
}

impl<T: TotalOrderBroadcast> Actor<AvaMsg<T::Msg>> for Replica<T>
where
    AvaMsg<T::Msg>: SimMessage,
{
    fn on_start(&mut self, ctx: &mut Context<'_, AvaMsg<T::Msg>>) {
        ctx.set_timer(self.cfg.tick_interval, TICK);
        match self.status {
            ReplicaStatus::Active => {
                self.round_state.started_at = ctx.now();
                self.rlc.start_round(self.round, ctx.now());
            }
            ReplicaStatus::Joining { .. } => self.send_join_request(ctx),
            ReplicaStatus::Left | ReplicaStatus::Recovering => {}
        }
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, AvaMsg<T::Msg>>) {
        if self.status == ReplicaStatus::Left {
            return;
        }
        self.restart(ctx);
    }

    fn on_message(
        &mut self,
        from: ReplicaId,
        msg: AvaMsg<T::Msg>,
        ctx: &mut Context<'_, AvaMsg<T::Msg>>,
    ) {
        if self.status == ReplicaStatus::Left {
            return;
        }
        if self.status == ReplicaStatus::Recovering {
            // A recovering replica only acts on state transfers; in-flight protocol
            // traffic is buffered and replayed once it rejoins, so decisions made
            // while it caught up are not lost.
            match msg {
                AvaMsg::CatchUpReply { checkpoint, suffix, round, leader_ts } => {
                    self.on_catch_up_reply(from, checkpoint, suffix, round, leader_ts, ctx);
                }
                m
                @ (AvaMsg::Tob(_) | AvaMsg::Brd(_) | AvaMsg::Inter(_) | AvaMsg::LocalShare(_)) => {
                    if let Some(rec) = &mut self.recovery {
                        if rec.buffered.len() < RECOVERY_BUFFER_CAP {
                            rec.buffered.push((from, m));
                        }
                    }
                }
                _ => {}
            }
            return;
        }
        if let ReplicaStatus::Joining { .. } = self.status {
            match msg {
                AvaMsg::Ack { .. } => {
                    if let ReplicaStatus::Joining { acks, .. } = &mut self.status {
                        acks.insert(from);
                    }
                }
                AvaMsg::CurrState { state, views, round, leader_ts, next_height } => {
                    self.on_curr_state(from, state, *views, round, leader_ts, next_height, ctx);
                }
                _ => {}
            }
            return;
        }
        match msg {
            AvaMsg::Tob(m) => {
                let actions = self.tob.on_message(from, m, ctx.now());
                self.apply_tob_actions(actions, ctx);
            }
            AvaMsg::Brd(m) => self.on_brd_msg(from, m, ctx),
            AvaMsg::Election(m) => {
                let actions = self.election.on_message(from, m);
                self.apply_election_actions(actions, ctx);
            }
            AvaMsg::RemoteLeader(m) => {
                let actions = self.rlc.on_message(from, m, ctx.now());
                self.apply_rlc_actions(actions, ctx);
            }
            AvaMsg::Inter(package) => self.on_inter(from, package, ctx),
            AvaMsg::LocalShare(package) => self.on_local_share(package, ctx),
            AvaMsg::InterPull { round, cluster } => self.on_inter_pull(from, round, cluster, ctx),
            AvaMsg::RequestJoin { replica, region, .. } => {
                self.on_request_join(replica, region, ctx)
            }
            AvaMsg::RequestLeave { replica, .. } => self.on_request_leave(replica, ctx),
            AvaMsg::Ack { .. } => {}
            AvaMsg::CurrState { .. } => {}
            AvaMsg::CatchUpRequest { replica, from_round } => {
                self.on_catch_up_request(replica, from_round, ctx)
            }
            AvaMsg::CatchUpReply { .. } => {}
            AvaMsg::ClientRequest { tx, client } => self.on_client_request(from, tx, client, ctx),
            AvaMsg::ClientResponse { .. } => {}
            AvaMsg::BatchSubmit(batch) => self.on_batch_submit(from, batch, ctx),
            // Broker-tier traffic addressed to brokers or aggregate generators.
            AvaMsg::BrokerSubmit { .. }
            | AvaMsg::BatchReply { .. }
            | AvaMsg::BrokerDeliver { .. } => {}
            AvaMsg::Control(cmd) => self.on_control(cmd, ctx),
            // Client-directed control traffic is not for replicas.
            AvaMsg::ClientControl(_) => {}
        }
    }

    fn on_timer(&mut self, kind: u64, ctx: &mut Context<'_, AvaMsg<T::Msg>>) {
        if kind != TICK || self.status == ReplicaStatus::Left {
            return;
        }
        ctx.set_timer(self.cfg.tick_interval, TICK);
        if self.status == ReplicaStatus::Recovering {
            let now = ctx.now();
            let (resend, give_up) = match &self.recovery {
                Some(rec) => (
                    now.since(rec.last_request_at) >= RECOVERY_RESEND,
                    now.since(rec.started_at) >= self.cfg.params.local_timeout,
                ),
                None => (false, false),
            };
            if give_up {
                // Solo fallback: no quorum of peers answered within the local
                // timeout (e.g. the whole cluster restarted). Resume from the
                // locally recovered state; live rounds re-align the stragglers.
                // This is NOT a completed catch-up — `RecoveryCompleted` stays
                // reserved for a real state transfer (the `RecoveryObserver`
                // keeps the replica marked not-caught-up until one happens).
                let (round, buffered) = match self.recovery.take() {
                    Some(r) => (r.recovered_round, r.buffered),
                    None => (self.round, Vec::new()),
                };
                self.status = ReplicaStatus::Active;
                ctx.emit(Output::Custom {
                    name: "recovery_solo_fallback",
                    value: round.0 as f64,
                    at: now,
                });
                // Return any blocks consumed into the abandoned in-flight round
                // to the queue and rewind the anchor to the round boundary, so
                // the resumed round re-packs them in height order.
                for block in std::mem::take(&mut self.round_state.blocks) {
                    self.pending_blocks.entry(block.block.height).or_insert(block);
                }
                self.next_local_height = self.round_base_height;
                self.resume_active(round, ctx);
                self.dispatch_buffered(buffered, ctx);
            } else if resend {
                self.send_catch_up_request(ctx);
            }
            return;
        }
        if let ReplicaStatus::Joining { acks, .. } = &self.status {
            // Alg. 3's client timer: keep re-sending the join request until a quorum
            // acknowledged it.
            let target_quorum = self.cfg.membership.quorum(self.cfg.cluster);
            if acks.len() < target_quorum {
                self.send_join_request(ctx);
            }
            return;
        }
        let now = ctx.now();
        let tob_actions = self.tob.on_tick(now);
        self.apply_tob_actions(tob_actions, ctx);
        let brd_actions = self.brd.on_tick(now);
        self.apply_brd_actions(brd_actions, ctx);
        let rlc_actions = self.rlc.on_tick(now);
        self.apply_rlc_actions(rlc_actions, ctx);
        // Drive Stage 1 completion under light load (partial batches): after the
        // stage-1 grace the leader orders a round-cut marker through the TOB, and
        // the round closes wherever the marker commits — the same point of the
        // block stream at every replica. (A new leader after a mid-round leader
        // change sends its own marker; a raced duplicate lands stale and is
        // skipped by `pack_block`.)
        if matches!(self.status, ReplicaStatus::Active)
            && self.is_leader()
            && !self.round_state.stage1_done
            && !self.round_state.sent_cut_marker
            && self.round_state.tx_count > 0
            && now.since(self.round_state.started_at) >= self.cfg.stage1_max_wait
        {
            self.round_state.sent_cut_marker = true;
            let actions = self.tob.broadcast(Operation::RoundCut { round: self.round }, now);
            self.apply_tob_actions(actions, ctx);
        }
        self.check_stage1(ctx);
        // Straggler escape: f+1 cluster members disseminating for a later round
        // (stashed in `future_brd`) prove the cluster executed this round without
        // us — a round still open after the stage-1 grace can never complete here,
        // because its BRD exchange and package forwarding are over at the peers.
        // Catch the missed rounds up from a peer's store instead. (A whole cluster
        // stuck in one round — e.g. under a partition — shows no future BRD and
        // correctly keeps waiting: peers have nothing newer to transfer.)
        if now.since(self.round_state.started_at) >= self.cfg.stage1_max_wait
            && self.cluster_moved_past_this_round()
        {
            self.begin_straggler_catch_up(ctx);
        }
    }
}

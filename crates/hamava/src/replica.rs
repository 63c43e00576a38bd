//! The Hamava replica: composition of all sub-protocols into the three-stage round
//! structure of the paper (Alg. 7–10), generic over the local total-order broadcast.

use crate::brd::{Brd, BrdAction, BrdCert};
use crate::catchup::{self, walk_round, CatchUp, CatchUpOffer, Executed, Offered, Tick, View};
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
use ava_store::{Checkpoint, ReplicaStore, StoreConfig};
use ava_types::{
    ClientId, ClusterId, Duration, Membership, Operation, Output, ProtocolParams, Reconfig, Region,
    RejectKind, ReplicaId, Round, StageKind, Time, Timestamp, Transaction, TxId, TxKind,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// Timer kind used for the replica's periodic tick.
const TICK: u64 = 1;

/// Lifecycle status of a replica; `M` is its message type.
enum ReplicaStatus<M> {
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
    /// Catching up via checkpoint + log-suffix state transfer, after a restart
    /// or as a straggler.
    Recovering(CatchUp<M>),
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

/// A Hamava replica, generic over the local total-order broadcast `T`.
pub struct Replica<T: TotalOrderBroadcast> {
    cfg: ReplicaConfig,
    keypair: Keypair,
    registry: KeyRegistry,
    status: ReplicaStatus<AvaMsg<T::Msg>>,
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
    store: Option<catchup::Store>,
    /// BRD messages that arrived for rounds this replica has not reached yet
    /// (BRD instances are per-round); replayed when the round starts, so a replica
    /// entering a round late still completes the round's dissemination. Members
    /// only disseminate for their current round, so a non-empty stash is also the
    /// straggler-escape evidence that this replica fell behind its own cluster.
    future_brd: BTreeMap<Round, Vec<(ReplicaId, crate::brd::BrdMsg)>>,
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
            future_brd: BTreeMap::new(),
        };
        replica.store = replica.cfg.store.map(ReplicaStore::new);
        replica
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
                    self.reject(self.cfg.cluster, round, RejectKind::BrdSignature, ctx);
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

    /// Charge for and verify a remote package against the current membership
    /// view, falling back to the pre-reconfiguration view: around a
    /// reconfiguration boundary a round's package carries head blocks that the
    /// TOB certified under the outgoing membership (they committed before the
    /// boundary and stranded past the previous round's cut), and rejecting those
    /// would wedge stage 2 at every replica of the receiving cluster.
    fn verify_package(
        &self,
        package: &RoundPackage,
        ctx: &mut Context<'_, AvaMsg<T::Msg>>,
    ) -> bool {
        let sigs = package.blocks.iter().map(|b| b.cert.signature_count() as u64).sum();
        ctx.consume(ctx.costs().per_sig_verify.saturating_mul(sigs));
        package.verify_either(&self.registry, &self.membership, &self.prev_membership)
    }

    /// Report Byzantine evidence about `cluster`'s `round`.
    fn reject(
        &self,
        cluster: ClusterId,
        round: Round,
        kind: RejectKind,
        ctx: &mut Context<'_, AvaMsg<T::Msg>>,
    ) {
        let at = ctx.now();
        ctx.emit(Output::ByzantineRejected { replica: self.cfg.me, cluster, round, kind, at });
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
        if !self.verify_package(&package, ctx) {
            // Only a failure at our *current* round is sound Byzantine
            // evidence: having executed every earlier round, we hold the exact
            // certifying view (and the previous-view fallback covers the
            // reconfiguration boundary). A future-round package may be honestly
            // certified under a membership we have not executed up to yet — a
            // straggler racing a cross-cluster reconfig hits exactly this — so
            // those drop silently and the sender's retry path recovers them.
            if package.round == self.round {
                self.reject(package.cluster, package.round, RejectKind::PackageCert, ctx);
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
        if !self.verify_package(&package, ctx) {
            self.reject(package.cluster, package.round, RejectKind::PackageCert, ctx);
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

        if !matches!(self.status, ReplicaStatus::Left) {
            self.start_round(next_round, ctx);
        }
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
        let ReplicaStatus::Joining { target, state_senders, .. } = &mut self.status else {
            return;
        };
        let senders = state_senders.entry(round).or_default();
        senders.insert(from);
        // A quorum of the cluster we are joining must report the same round
        // (Alg. 10 line 39).
        if senders.len() < 2 * self.cfg.membership.f(*target) + 1 {
            return;
        }
        // Adopt the state and become an active member starting at `round`. The
        // sender's packing anchor comes with it: heights below `next_height` are
        // already folded into `state`, and the joiner must cut its first rounds
        // at the same height boundaries as its new peers. So does the sender's
        // trailing view: packages certified under the outgoing view are still in
        // flight, and the joiner must verify them exactly like its peers do.
        let view = View {
            machine: machine_from_snapshot(&state),
            membership: views.membership,
            prev_membership: views.prev_membership,
            leader_ts,
            next_height,
        };
        let anchor = self.install(view);
        self.round = round;
        self.next_local_height = anchor;
        self.pending_blocks = self.pending_blocks.split_off(&anchor);
        self.enter(round, ctx);
        ctx.emit(Output::ReconfigApplied {
            replica: self.cfg.me,
            cluster: self.cfg.cluster,
            joined: true,
            round,
            at: ctx.now(),
            reporter: self.cfg.me,
        });
    }

    // ---- entering a round ----------------------------------------------------------

    /// Install an entry path's state. Returns its packing anchor, which each
    /// path applies in its own way.
    fn install(&mut self, view: View) -> u64 {
        self.machine = view.machine;
        self.membership = view.membership;
        self.prev_membership = view.prev_membership;
        self.leader_ts = Timestamp(view.leader_ts);
        view.next_height
    }

    /// Enter `round` as an active member of the installed view: its leader, a
    /// fresh election, the TOB on the view's members and leader, then the
    /// round. The one way into a round after start-up, shared by the join, a
    /// catch-up's adoption and the solo fallback.
    fn enter(&mut self, round: Round, ctx: &mut Context<'_, AvaMsg<T::Msg>>) {
        let members = self.my_members();
        self.leader = LeaderElection::leader_for(&members, self.leader_ts.0);
        self.election = LeaderElection::new(self.cfg.me, members.clone());
        self.tob.set_membership(members);
        let actions = self.tob.new_leader(self.leader, self.leader_ts, ctx.now());
        self.apply_tob_actions(actions, ctx);
        self.status = ReplicaStatus::Active;
        self.start_round(round, ctx);
    }

    /// The end of a catch-up, adopted or not: the blocks the abandoned
    /// in-flight round consumed go back to the queue, packing re-anchors at
    /// `anchor` (covered heights are pruned, the rest re-pack in height order),
    /// the replica enters `round`, and the traffic buffered meanwhile replays.
    fn resume(&mut self, round: Round, anchor: u64, ctx: &mut Context<'_, AvaMsg<T::Msg>>) {
        let buffered = match std::mem::replace(&mut self.status, ReplicaStatus::Active) {
            ReplicaStatus::Recovering(catch_up) => catch_up.into_buffered(),
            _ => Vec::new(),
        };
        for block in std::mem::take(&mut self.round_state.blocks) {
            self.pending_blocks.entry(block.block.height).or_insert(block);
        }
        self.next_local_height = anchor;
        self.pending_blocks = self.pending_blocks.split_off(&anchor);
        self.enter(round, ctx);
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

    // ---- crash restart & catch-up (state transfer, see `catchup`) ------------------

    /// Rebuild the replica after a simulated process restart: volatile state is
    /// discarded, the durable store (the one surviving field) seeds local
    /// recovery, and the catch-up protocol fills the gap from peers. The leader,
    /// election and BRD instance are left for `enter` to rebuild: nothing reads
    /// them while catching up.
    fn restart(&mut self, ctx: &mut Context<'_, AvaMsg<T::Msg>>) {
        self.round_state = RoundState { started_at: ctx.now(), ..Default::default() };
        self.tob.reset();
        self.rlc = RemoteLeaderChange::new(
            self.cfg.me,
            self.cfg.cluster,
            self.cfg.membership.clone(),
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
        self.prev_package = None;
        self.relay = Relay::new(self.cfg.cluster);
        self.ordered_reconfig_sets.clear();
        self.mute_inter = false;
        self.leave_requested = false;
        self.future_brd.clear();
        self.pending_blocks.clear();
        let (view, recovered_round, replayed) = catchup::replay_store(
            self.store.as_ref(),
            self.cfg.cluster,
            self.cfg.machine,
            &self.cfg.membership,
        );
        let anchor = self.install(view);
        self.next_local_height = anchor;
        self.round_base_height = anchor;
        self.round = recovered_round;

        ctx.set_timer(self.cfg.tick_interval, TICK);
        ctx.emit(Output::ReplicaRestarted {
            replica: self.cfg.me,
            cluster: self.cfg.cluster,
            recovered_round,
            log_rounds_replayed: replayed,
            at: ctx.now(),
        });
        self.begin_catch_up(recovered_round, ctx);
    }

    /// Start catching up from `recovered_round`, voted on by the current view.
    fn begin_catch_up(&mut self, recovered_round: Round, ctx: &mut Context<'_, AvaMsg<T::Msg>>) {
        let catch_up = CatchUp::new(ctx.now(), recovered_round, &self.membership, self.cfg.cluster);
        ctx.broadcast(catch_up.peers(self.cfg.me), AvaMsg::CatchUpRequest);
        self.status = ReplicaStatus::Recovering(catch_up);
    }

    /// What this replica has executed (see [`Executed`]).
    fn executed(&self) -> Executed<'_> {
        Executed {
            machine: self.machine.as_ref(),
            membership: &self.membership,
            round: self.round,
            leader_ts: self.leader_ts.0,
            next_height: self.round_base_height,
        }
    }

    fn on_catch_up_reply(
        &mut self,
        from: ReplicaId,
        offer: CatchUpOffer,
        ctx: &mut Context<'_, AvaMsg<T::Msg>>,
    ) {
        let ReplicaStatus::Recovering(catch_up) = &mut self.status else {
            return;
        };
        let round = offer.checkpoint.round;
        match catch_up.offer(from, offer) {
            Offered::Ignored => return,
            // Honest members never send a corrupted checkpoint: evidence.
            Offered::Corrupt => {
                self.reject(self.cfg.cluster, round, RejectKind::CatchUpCheckpoint, ctx);
                return;
            }
            Offered::Counted => {}
        }
        let ReplicaStatus::Recovering(catch_up) = &self.status else {
            return;
        };
        let (adoption, sigs) = catch_up.adoption(&self.registry, self.cfg.cluster, self.executed());
        if sigs > 0 {
            ctx.consume(ctx.costs().per_sig_verify.saturating_mul(sigs));
        }
        let Some(adoption) = adoption else {
            return;
        };
        let anchor = self.round_base_height.max(self.install(adoption.view));
        // Make the transferred state durable in one batch.
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
        if adoption.outvoted {
            self.reject(self.cfg.cluster, adoption.round, RejectKind::CatchUpCheckpoint, ctx);
        }
        ctx.emit(Output::RecoveryCompleted {
            replica: self.cfg.me,
            cluster: self.cfg.cluster,
            round: adoption.round,
            rounds_transferred: adoption.rounds_transferred,
            bytes_transferred: adoption.bytes_transferred,
            at: ctx.now(),
        });
        self.resume(adoption.round, anchor, ctx);
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
            ReplicaStatus::Left | ReplicaStatus::Recovering(_) => {}
        }
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, AvaMsg<T::Msg>>) {
        if !matches!(self.status, ReplicaStatus::Left) {
            self.restart(ctx);
        }
    }

    fn on_message(
        &mut self,
        from: ReplicaId,
        msg: AvaMsg<T::Msg>,
        ctx: &mut Context<'_, AvaMsg<T::Msg>>,
    ) {
        if matches!(self.status, ReplicaStatus::Left) {
            return;
        }
        if let ReplicaStatus::Recovering(catch_up) = &mut self.status {
            // A recovering replica only acts on state transfers; in-flight protocol
            // traffic is buffered and replayed once it rejoins, so decisions made
            // while it caught up are not lost.
            match msg {
                AvaMsg::CatchUpReply { checkpoint, suffix, round, leader_ts } => {
                    let offer = CatchUpOffer { checkpoint, suffix, round, leader_ts };
                    self.on_catch_up_reply(from, offer, ctx);
                }
                m
                @ (AvaMsg::Tob(_) | AvaMsg::Brd(_) | AvaMsg::Inter(_) | AvaMsg::LocalShare(_)) => {
                    catch_up.buffer(from, m);
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
            AvaMsg::CatchUpRequest => {
                let executed = self.executed();
                let (checkpoint, suffix) =
                    catchup::reply(self.store.as_ref(), &self.cfg.membership, executed);
                let (round, leader_ts) = (self.round, self.leader_ts.0);
                ctx.send(from, AvaMsg::CatchUpReply { checkpoint, suffix, round, leader_ts });
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
        if kind != TICK || matches!(self.status, ReplicaStatus::Left) {
            return;
        }
        ctx.set_timer(self.cfg.tick_interval, TICK);
        if let ReplicaStatus::Recovering(catch_up) = &mut self.status {
            match catch_up.on_tick(ctx.now(), self.cfg.params.local_timeout) {
                Tick::Wait => {}
                Tick::Resend => ctx.broadcast(catch_up.peers(self.cfg.me), AvaMsg::CatchUpRequest),
                // Solo fallback: no quorum of peers answered within the local
                // timeout (e.g. the whole cluster restarted). Resume from the
                // locally recovered state at the round boundary; live rounds
                // re-align the stragglers. This is NOT a completed catch-up —
                // `RecoveryCompleted` stays reserved for a real state transfer
                // (the `RecoveryObserver` keeps the replica marked
                // not-caught-up until one happens).
                Tick::GiveUp(round) => {
                    let (value, at) = (round.0 as f64, ctx.now());
                    ctx.emit(Output::Custom { name: "recovery_solo_fallback", value, at });
                    self.resume(round, self.round_base_height, ctx);
                }
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
            let value = self.round.0 as f64;
            ctx.emit(Output::Custom { name: "straggler_catch_up", value, at: now });
            self.begin_catch_up(self.round, ctx);
        }
    }
}

//! Byzantine adversary behaviors: a [`CorruptReplica`] decorator that wraps an
//! honest [`Replica`] and mutates its *outbound* traffic according to a
//! [`ByzantineBehavior`].
//!
//! The paper's safety claims are made against exactly these adversaries —
//! equivocating leaders, forged certificates, suppressed shares, lying
//! state-transfer peers — so the suite implements each as a message-level
//! mutation of otherwise-correct protocol execution. Wrapping (rather than
//! forking the replica) keeps the adversary honest about everything it does not
//! explicitly corrupt: timers, local ordering, cost accounting and RNG usage are
//! the wrapped replica's own, which is what lets a `Corrupt` event carrying
//! [`ByzantineBehavior::Honest`] reproduce a plain run byte for byte (the
//! determinism goldens pin this).
//!
//! Design rules the behaviors follow:
//!
//! * **Safety must stay green.** Every mutation is either detectable by the
//!   receiving replica's existing verification (tampered certificates, forged
//!   votes, inconsistent checkpoints) or purely suppressive (withheld shares or
//!   inter-cluster messages, stale replays, a leader that never proposes).
//!   None may cause honest replicas to execute divergent state — the fuzzer's
//!   always-on checkers and the E12 sweep (`ava-exp e12`) assert this.
//! * **No schedule perturbation while dormant.** A wrapped replica with no
//!   behavior (or `Honest`) never touches the context: no sends are drained, no
//!   randomness is drawn, no costs are charged.
//! * **Private randomness.** [`ByzantineBehavior::SuppressShares`] draws from a
//!   decorator-internal LCG, never from the simulation RNG, so activating a
//!   suppression adversary cannot shift any honest actor's random draws.

use crate::messages::{AvaMsg, RoundPackage};
use crate::replica::Replica;
use ava_consensus::{FaultMode, TotalOrderBroadcast, WireSize};
use ava_simnet::{Actor, CapturedSend, Context, SimMessage};
use ava_store::Checkpoint;
use ava_types::{ClientId, Reconfig, ReplicaId, Transaction};
use std::sync::Arc;

/// A Byzantine behavior a corrupted replica exhibits from its corruption time
/// onward. Encodable to/from an opaque `u64` tag (the simulator's
/// `corrupt_at` transport; see [`ByzantineBehavior::to_tag`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ByzantineBehavior {
    /// No deviation: the decorator passes everything through untouched. A
    /// `Corrupt` event carrying this behavior is the equivalence baseline — it
    /// must reproduce a plain run byte for byte.
    Honest,
    /// Equivocate within the local cluster: when re-broadcasting a remote
    /// package as a `LocalShare`, send the genuine package to half the members
    /// and a content-tampered one to the rest. The tampered copy fails
    /// certificate verification (rejected), and members that already accepted
    /// the genuine copy observe the conflict as equivocation evidence.
    EquivocateLocal,
    /// Equivocate across clusters: alternate between the genuine round package
    /// and a tampered one on successive `Inter` fan-outs, so different remote
    /// clusters receive different packages for the same round.
    EquivocateRemote,
    /// Ship a content-tampered (certificate-invalid) package on every `Inter`
    /// and `LocalShare` send.
    InvalidCert,
    /// Replay the newest *previously sent* genuine package instead of the
    /// current one on `Inter` sends. The replay is unmodified — its
    /// certificates verify — but receivers drop it as stale, so the effect is
    /// pure liveness degradation (the remote-leader-change path recovers it).
    /// Deliberately *not* a round-relabel: `BrdCert` round binding is by value,
    /// and relabeling old content into the current round could split execution
    /// across clusters — a genuine safety violation, not an always-green fault.
    StaleCert,
    /// Withhold each `LocalShare` from each destination independently with
    /// probability `permille`/1000, drawn from the decorator's private LCG.
    SuppressShares {
        /// Per-destination suppression probability in permille (0–1000).
        permille: u16,
    },
    /// Serve catch-up requesters a *self-consistent* lie: a checkpoint rebuilt
    /// over tampered state whose digest matches its (tampered) content. It
    /// passes integrity verification, so only the `f + 1` distinct-sender
    /// digest agreement rejects it — exactly the mechanism the recovery
    /// regression test pins.
    LyingCatchUp,
    /// Forge BRD `Echo`/`Ready` votes: keep the original signature but alter
    /// the reconfiguration set it supposedly signs. Receivers' signature
    /// verification fails and emits rejection evidence.
    BrdForgery,
    /// The paper's E4.3 Byzantine leader: correct inside its cluster, but it
    /// withholds every inter-cluster message — the leader's fan-out, the
    /// Alg. 8 re-send and packages served to a relay pull. Remote clusters
    /// see a silent leader and replace it by remote leader change.
    MuteInter,
    /// Never propose in the local total-order broadcast while leader (the
    /// TOB's `FaultMode::SilentLeader`); the cluster's watchdog replaces it.
    SilentLeader,
}

impl ByzantineBehavior {
    /// Every behavior, `Honest` first (index 0 ⇒ tag 0).
    pub const ALL: [ByzantineBehavior; 10] = [
        ByzantineBehavior::Honest,
        ByzantineBehavior::EquivocateLocal,
        ByzantineBehavior::EquivocateRemote,
        ByzantineBehavior::InvalidCert,
        ByzantineBehavior::StaleCert,
        ByzantineBehavior::SuppressShares { permille: 500 },
        ByzantineBehavior::LyingCatchUp,
        ByzantineBehavior::BrdForgery,
        ByzantineBehavior::MuteInter,
        ByzantineBehavior::SilentLeader,
    ];

    /// Human-readable label used in schedules, reports and the e12 JSON.
    pub fn label(self) -> &'static str {
        match self {
            ByzantineBehavior::Honest => "honest",
            ByzantineBehavior::EquivocateLocal => "equivocate-local",
            ByzantineBehavior::EquivocateRemote => "equivocate-remote",
            ByzantineBehavior::InvalidCert => "invalid-cert",
            ByzantineBehavior::StaleCert => "stale-cert",
            ByzantineBehavior::SuppressShares { .. } => "suppress-shares",
            ByzantineBehavior::LyingCatchUp => "lying-catch-up",
            ByzantineBehavior::BrdForgery => "brd-forgery",
            ByzantineBehavior::MuteInter => "mute-inter",
            ByzantineBehavior::SilentLeader => "silent-leader",
        }
    }

    /// Whether the behavior sends *content-mutated* round packages — the only
    /// behaviors that can legitimately produce `EquivocationObserved` evidence
    /// (the fuzzer's equivocation-exposure checker keys on this).
    pub fn mutates_packages(self) -> bool {
        matches!(
            self,
            ByzantineBehavior::EquivocateLocal
                | ByzantineBehavior::EquivocateRemote
                | ByzantineBehavior::InvalidCert
        )
    }

    /// Whether the behavior sends forged or tampered artifacts an honest
    /// receiver must reject — the only behaviors that can justify
    /// `ByzantineRejected` evidence (the fuzzer's certificate-validity checker
    /// keys on this). Withholding, replaying genuine material and staying
    /// silent forge nothing.
    pub fn forges(self) -> bool {
        matches!(
            self,
            ByzantineBehavior::EquivocateLocal
                | ByzantineBehavior::EquivocateRemote
                | ByzantineBehavior::InvalidCert
                | ByzantineBehavior::LyingCatchUp
                | ByzantineBehavior::BrdForgery
        )
    }

    /// Encode the behavior as the opaque tag `Simulation::corrupt_at` carries:
    /// the variant index in the low byte, the `SuppressShares` permille in the
    /// next two bytes.
    pub fn to_tag(self) -> u64 {
        match self {
            ByzantineBehavior::Honest => 0,
            ByzantineBehavior::EquivocateLocal => 1,
            ByzantineBehavior::EquivocateRemote => 2,
            ByzantineBehavior::InvalidCert => 3,
            ByzantineBehavior::StaleCert => 4,
            ByzantineBehavior::SuppressShares { permille } => 5 | ((permille as u64) << 8),
            ByzantineBehavior::LyingCatchUp => 6,
            ByzantineBehavior::BrdForgery => 7,
            ByzantineBehavior::MuteInter => 8,
            ByzantineBehavior::SilentLeader => 9,
        }
    }

    /// Decode a tag produced by [`ByzantineBehavior::to_tag`]. Unknown variant
    /// indices decode to `Honest` (an unrecognized corruption must not turn
    /// into an arbitrary one).
    pub fn from_tag(tag: u64) -> Self {
        match tag & 0xff {
            1 => ByzantineBehavior::EquivocateLocal,
            2 => ByzantineBehavior::EquivocateRemote,
            3 => ByzantineBehavior::InvalidCert,
            4 => ByzantineBehavior::StaleCert,
            5 => ByzantineBehavior::SuppressShares { permille: ((tag >> 8) & 0xffff) as u16 },
            6 => ByzantineBehavior::LyingCatchUp,
            7 => ByzantineBehavior::BrdForgery,
            8 => ByzantineBehavior::MuteInter,
            9 => ByzantineBehavior::SilentLeader,
            _ => ByzantineBehavior::Honest,
        }
    }
}

/// An actor decorating an honest [`Replica`] with a switchable
/// [`ByzantineBehavior`]. Every replica of a deployment is wrapped; until a
/// scheduled corruption delivers a behavior, the wrapper is a transparent
/// pass-through with zero observable effect on the run.
pub struct CorruptReplica<T: TotalOrderBroadcast> {
    inner: Replica<T>,
    behavior: Option<ByzantineBehavior>,
    /// Newest genuine package previously shipped on `Inter` (StaleCert replay
    /// material).
    stale: Option<Arc<RoundPackage>>,
    /// Private LCG state for SuppressShares (never the simulation RNG).
    lcg: u64,
    /// EquivocateRemote alternation: genuine / tampered on successive sends.
    flip: bool,
}

impl<T: TotalOrderBroadcast> CorruptReplica<T> {
    /// Wrap `inner`. The wrapper starts dormant (no behavior).
    pub fn new(inner: Replica<T>) -> Self {
        CorruptReplica {
            inner,
            behavior: None,
            stale: None,
            lcg: 0x5eed_cafe_f00d_d00d,
            flip: false,
        }
    }

    /// Put the wrapped TOB in the fault mode the behavior asks for: only
    /// [`ByzantineBehavior::SilentLeader`] asks for one, and a later behavior
    /// replaces it.
    fn arm_tob(&mut self) {
        let silent = self.behavior == Some(ByzantineBehavior::SilentLeader);
        let mode = if silent { FaultMode::SilentLeader } else { FaultMode::Correct };
        self.inner.set_tob_fault_mode(mode);
    }

    /// One step of a 64-bit LCG (Knuth's MMIX constants); returns a value in
    /// `0..1000`.
    fn draw_permille(&mut self) -> u16 {
        self.lcg = self.lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((self.lcg >> 33) % 1000) as u16
    }
}

/// A content-tampered copy of `package`: one bogus reconfiguration appended,
/// certificates kept. The BRD delivery certificate (or its absence) no longer
/// matches the set, so every verifying receiver rejects the copy.
fn tamper(package: &RoundPackage) -> RoundPackage {
    let mut recs = package.recs.clone();
    recs.push(Reconfig::Leave { replica: ReplicaId(u32::MAX) });
    RoundPackage::new(
        package.cluster,
        package.round,
        package.blocks.clone(),
        recs,
        package.recs_cert.clone(),
    )
}

/// A self-consistent checkpoint lie: a fork of the genuine state with one
/// more write to key `u64::MAX` (8 value bytes under KV), digest computed over
/// the forked content. Passes `Checkpoint::verify()`; only `f + 1` digest
/// agreement across distinct senders exposes it.
fn lying_checkpoint(genuine: &Checkpoint) -> Checkpoint {
    let mut forked = genuine.state.machine().fork();
    forked.apply(genuine.round, &Transaction::write(ClientId(u32::MAX), 0, u64::MAX, 8));
    Checkpoint::new(
        genuine.round,
        forked.snapshot(),
        genuine.membership.clone(),
        genuine.leader_ts,
        genuine.next_height,
    )
}

impl<T: TotalOrderBroadcast> CorruptReplica<T>
where
    T::Msg: Clone + WireSize,
    AvaMsg<T::Msg>: SimMessage,
{
    /// Intercept the sends the wrapped handler buffered and re-queue them,
    /// mutated per the active behavior. Dormant/honest wrappers return without
    /// touching the context at all.
    fn corrupt_sends(&mut self, ctx: &mut Context<'_, AvaMsg<T::Msg>>) {
        let Some(behavior) = self.behavior else {
            return;
        };
        if matches!(behavior, ByzantineBehavior::Honest | ByzantineBehavior::SilentLeader) {
            return;
        }
        let sends = ctx.take_sends();
        for CapturedSend { to, msg } in self.rewrite(behavior, sends) {
            ctx.broadcast(to, msg);
        }
    }

    /// The sends `behavior` turns the captured `sends` into, in order: mutated,
    /// split, withheld or passed through unchanged.
    fn rewrite(
        &mut self,
        behavior: ByzantineBehavior,
        sends: Vec<CapturedSend<AvaMsg<T::Msg>>>,
    ) -> Vec<CapturedSend<AvaMsg<T::Msg>>> {
        let mut out = Vec::with_capacity(sends.len());
        let mut send = |to: Vec<ReplicaId>, msg| out.push(CapturedSend { to, msg });
        for CapturedSend { to, msg } in sends {
            match (&behavior, msg) {
                (ByzantineBehavior::EquivocateLocal, AvaMsg::LocalShare(package)) => {
                    let half = to.len().div_ceil(2);
                    let (genuine, lied_to) = to.split_at(half);
                    send(genuine.to_vec(), AvaMsg::LocalShare(Arc::clone(&package)));
                    send(lied_to.to_vec(), AvaMsg::LocalShare(Arc::new(tamper(&package))));
                }
                (ByzantineBehavior::EquivocateRemote, AvaMsg::Inter(package)) => {
                    self.flip = !self.flip;
                    let shipped = if self.flip { package } else { Arc::new(tamper(&package)) };
                    send(to, AvaMsg::Inter(shipped));
                }
                (ByzantineBehavior::InvalidCert, AvaMsg::Inter(package)) => {
                    send(to, AvaMsg::Inter(Arc::new(tamper(&package))));
                }
                (ByzantineBehavior::InvalidCert, AvaMsg::LocalShare(package)) => {
                    send(to, AvaMsg::LocalShare(Arc::new(tamper(&package))));
                }
                (ByzantineBehavior::StaleCert, AvaMsg::Inter(package)) => {
                    let shipped = match &self.stale {
                        Some(old) if old.round < package.round => Arc::clone(old),
                        _ => Arc::clone(&package),
                    };
                    if self.stale.as_ref().is_none_or(|old| old.round < package.round) {
                        self.stale = Some(Arc::clone(&package));
                    }
                    send(to, AvaMsg::Inter(shipped));
                }
                (ByzantineBehavior::SuppressShares { permille }, AvaMsg::LocalShare(package)) => {
                    let permille = *permille;
                    let kept: Vec<ReplicaId> =
                        to.into_iter().filter(|_| self.draw_permille() >= permille).collect();
                    send(kept, AvaMsg::LocalShare(package));
                }
                (
                    ByzantineBehavior::LyingCatchUp,
                    AvaMsg::CatchUpReply { checkpoint, suffix, round, leader_ts },
                ) => {
                    send(
                        to,
                        AvaMsg::CatchUpReply {
                            checkpoint: Arc::new(lying_checkpoint(&checkpoint)),
                            suffix,
                            round,
                            leader_ts,
                        },
                    );
                }
                (ByzantineBehavior::BrdForgery, AvaMsg::Brd(msg)) => {
                    let forged = match msg {
                        crate::brd::BrdMsg::Echo { round, mut recs, sig, ts } => {
                            recs.push(Reconfig::Leave { replica: ReplicaId(u32::MAX) });
                            crate::brd::BrdMsg::Echo { round, recs, sig, ts }
                        }
                        crate::brd::BrdMsg::Ready { round, mut recs, sig, ts } => {
                            recs.push(Reconfig::Leave { replica: ReplicaId(u32::MAX) });
                            crate::brd::BrdMsg::Ready { round, recs, sig, ts }
                        }
                        other => other,
                    };
                    send(to, AvaMsg::Brd(forged));
                }
                (ByzantineBehavior::MuteInter, AvaMsg::Inter(_)) => {}
                (_, msg) => send(to, msg),
            }
        }
        out
    }
}

impl<T: TotalOrderBroadcast> Actor<AvaMsg<T::Msg>> for CorruptReplica<T>
where
    T::Msg: Clone + WireSize,
    AvaMsg<T::Msg>: SimMessage,
{
    fn on_start(&mut self, ctx: &mut Context<'_, AvaMsg<T::Msg>>) {
        self.inner.on_start(ctx);
        self.corrupt_sends(ctx);
    }

    fn on_message(
        &mut self,
        from: ReplicaId,
        msg: AvaMsg<T::Msg>,
        ctx: &mut Context<'_, AvaMsg<T::Msg>>,
    ) {
        self.inner.on_message(from, msg, ctx);
        self.corrupt_sends(ctx);
    }

    fn on_timer(&mut self, kind: u64, ctx: &mut Context<'_, AvaMsg<T::Msg>>) {
        self.inner.on_timer(kind, ctx);
        self.corrupt_sends(ctx);
    }

    /// The restart rebuilds the wrapped TOB, so a silent leader is silenced
    /// again: the fault belongs to the process, not to one uptime interval.
    fn on_restart(&mut self, ctx: &mut Context<'_, AvaMsg<T::Msg>>) {
        self.inner.on_restart(ctx);
        self.arm_tob();
        self.corrupt_sends(ctx);
    }

    /// A scheduled corruption arms (or re-arms) the behavior. The fault is
    /// assigned to the process: it persists across crash/restart.
    fn on_corrupt(&mut self, tag: u64) {
        self.behavior = Some(ByzantineBehavior::from_tag(tag));
        self.arm_tob();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{hotstuff_factory, Deployment, DeploymentOptions};
    use crate::messages::ControlCmd;
    use crate::replica::ReplicaConfig;
    use ava_consensus::TobConfig;
    use ava_types::{ClusterId, Duration, Output, Region, Round, SystemConfig, Time};
    use std::collections::BTreeSet;

    type Msg = AvaMsg<ava_hotstuff::HotStuffMsg>;

    /// `p0` of a 2 × 4 deployment, wrapped and dormant.
    fn wrapped_replica() -> CorruptReplica<ava_hotstuff::HotStuff> {
        let config = SystemConfig::homogeneous_regions(&[(4, Region::UsWest), (4, Region::Europe)]);
        let (me, cluster) = (ReplicaId(0), ClusterId(0));
        let registry = ava_crypto::KeyRegistry::new();
        let keypair = registry.register(me);
        let members = config.membership().member_ids(cluster);
        let tob_cfg = TobConfig::new(cluster, me, members.clone());
        let tob = hotstuff_factory()(tob_cfg, keypair.clone(), registry.clone(), members[0]);
        let membership = config.membership();
        let cfg = ReplicaConfig::new(me, Region::UsWest, cluster, config.params, membership);
        CorruptReplica::new(Replica::new(cfg, keypair, registry, tob))
    }

    #[test]
    fn a_muted_replica_withholds_exactly_the_inter_cluster_sends() {
        let package = Arc::new(RoundPackage::new(ClusterId(0), Round(3), vec![], vec![], None));
        let captured = || -> Vec<CapturedSend<Msg>> {
            let send = |to: &[u32], msg| CapturedSend {
                to: to.iter().map(|&id| ReplicaId(id)).collect(),
                msg,
            };
            vec![
                // The leader's fan-out to f + 1 members of the other cluster.
                send(&[4, 5], AvaMsg::Inter(Arc::clone(&package))),
                send(&[1, 2, 3], AvaMsg::LocalShare(Arc::clone(&package))),
                // A package served to a relay pull.
                send(&[6], AvaMsg::Inter(Arc::clone(&package))),
                send(&[7], AvaMsg::InterPull { round: Round(3), cluster: ClusterId(1) }),
                send(&[1, 2, 3], AvaMsg::Control(ControlCmd::RequestLeave)),
            ]
        };
        let render = |sends: &[CapturedSend<Msg>]| -> Vec<String> {
            sends.iter().map(|s| format!("{:?} {:?}", s.to, s.msg)).collect()
        };
        let kept = wrapped_replica().rewrite(ByzantineBehavior::MuteInter, captured());
        let others: Vec<CapturedSend<Msg>> =
            captured().into_iter().filter(|s| !matches!(s.msg, AvaMsg::Inter(_))).collect();
        assert_eq!(others.len(), 3);
        assert_eq!(render(&kept), render(&others), "only the two `Inter` sends may go");
    }

    /// Cluster 0's `p1` is corrupted with `behavior` at 1 s, crashes at 2 s
    /// and restarts from its store at 3 s; the leader `p0` crashes at 6 s, which
    /// makes `p1` the next leader in the rotation. Returns the leaders cluster
    /// 0 installs after 6 s, and whether `p1` completed its recovery first.
    fn leaders_after_the_leader_crash(behavior: ByzantineBehavior) -> (BTreeSet<ReplicaId>, bool) {
        let mut config =
            SystemConfig::homogeneous_regions(&[(4, Region::UsWest), (4, Region::UsWest)]);
        config.params.batch_size = 20;
        config.params.remote_leader_timeout = Duration::from_secs(4);
        config.params.brd_timeout = Duration::from_secs(4);
        config.params.local_timeout = Duration::from_secs(4);
        let opts = DeploymentOptions {
            seed: 3,
            workload: ava_workload::WorkloadSpec { key_space: 500, ..Default::default() },
            client_concurrency: 32,
            store: Some(ava_store::StoreConfig::every(4)),
            ..DeploymentOptions::default()
        };
        let mut dep = Deployment::build(config, opts, hotstuff_factory());
        let (leader, next) = (ReplicaId(0), ReplicaId(1));
        dep.sim.corrupt_at(next, Time::from_secs(1), behavior.to_tag());
        dep.sim.crash_at(next, Time::from_secs(2));
        dep.sim.restart_at(next, Time::from_secs(3));
        dep.sim.crash_at(leader, Time::from_secs(6));
        dep.sim.run_until(Time::from_secs(14));
        let outputs = dep.sim.outputs();
        let leaders = outputs
            .iter()
            .filter_map(|o| match o {
                Output::LeaderChanged { cluster: ClusterId(0), new_leader, at, .. }
                    if *at > Time::from_secs(6) =>
                {
                    Some(*new_leader)
                }
                _ => None,
            })
            .collect();
        let recovered = outputs.iter().any(|o| {
            matches!(o, Output::RecoveryCompleted { replica, at, .. }
                if *replica == next && *at < Time::from_secs(6))
        });
        (leaders, recovered)
    }

    #[test]
    fn a_silent_leader_stays_silent_across_a_restart() {
        let (honest, recovered) = leaders_after_the_leader_crash(ByzantineBehavior::Honest);
        assert!(recovered, "p1 must be back before the leader crash");
        assert_eq!(honest, BTreeSet::from([ReplicaId(1)]), "an honest p1 takes over and keeps it");
        let (silent, recovered) = leaders_after_the_leader_crash(ByzantineBehavior::SilentLeader);
        assert!(recovered, "p1 must be back before the leader crash");
        assert!(
            silent.contains(&ReplicaId(2)),
            "the restarted silent p1 must be passed over, got {silent:?}"
        );
    }

    #[test]
    fn behavior_tags_round_trip() {
        for behavior in ByzantineBehavior::ALL {
            assert_eq!(ByzantineBehavior::from_tag(behavior.to_tag()), behavior);
            assert!(!behavior.label().is_empty());
        }
        // SuppressShares carries its permille through the tag.
        let b = ByzantineBehavior::SuppressShares { permille: 837 };
        assert_eq!(ByzantineBehavior::from_tag(b.to_tag()), b);
        // Unknown variant indices decode to Honest, never to an arbitrary fault.
        assert_eq!(ByzantineBehavior::from_tag(0xfe), ByzantineBehavior::Honest);
    }

    #[test]
    fn only_package_mutating_behaviors_report_as_such() {
        let mutating: Vec<ByzantineBehavior> =
            ByzantineBehavior::ALL.into_iter().filter(|b| b.mutates_packages()).collect();
        assert_eq!(
            mutating,
            vec![
                ByzantineBehavior::EquivocateLocal,
                ByzantineBehavior::EquivocateRemote,
                ByzantineBehavior::InvalidCert,
            ]
        );
    }

    #[test]
    fn only_forging_behaviors_report_as_such() {
        let forging: Vec<ByzantineBehavior> =
            ByzantineBehavior::ALL.into_iter().filter(|b| b.forges()).collect();
        assert_eq!(
            forging,
            vec![
                ByzantineBehavior::EquivocateLocal,
                ByzantineBehavior::EquivocateRemote,
                ByzantineBehavior::InvalidCert,
                ByzantineBehavior::LyingCatchUp,
                ByzantineBehavior::BrdForgery,
            ]
        );
    }

    #[test]
    fn tampered_packages_change_content_but_keep_slot() {
        let package =
            RoundPackage::new(ava_types::ClusterId(1), ava_types::Round(4), vec![], vec![], None);
        let tampered = tamper(&package);
        assert_eq!(tampered.cluster, package.cluster);
        assert_eq!(tampered.round, package.round);
        assert_ne!(tampered.content_digest(), package.content_digest());
        // A certificate-less package with a nonempty rec set never verifies,
        // though its cluster is known and the untampered package verifies.
        let mut membership = ava_types::Membership::new();
        let region = ava_types::Region::UsWest;
        membership.add(package.cluster, ava_types::ReplicaInfo { id: ReplicaId(0), region });
        let views = crate::Views::new(membership);
        let registry = ava_crypto::KeyRegistry::new();
        assert!(views.verify(&registry, &package));
        assert!(!views.verify(&registry, &tampered));
    }

    #[test]
    fn lying_checkpoints_are_self_consistent_but_digest_distinct() {
        let genuine = Checkpoint::new(
            ava_types::Round(6),
            ava_state::StateSnapshot::counters([(1, 2), (3, 4)]),
            ava_types::Membership::new(),
            9,
            18,
        );
        let lie = lying_checkpoint(&genuine);
        assert!(lie.verify(), "the lie must pass single-checkpoint integrity verification");
        assert_eq!(lie.round, genuine.round);
        assert_ne!(lie.digest, genuine.digest, "f+1 digest agreement is what rejects it");
    }

    #[test]
    fn lying_checkpoints_poison_kv_snapshots_too() {
        let mut machine = ava_state::machine_for(ava_state::StateMachineKind::Kv);
        let tx = ava_types::Transaction::write(ava_types::ClientId(0), 0, 5, 128);
        machine.apply(ava_types::Round(3), &tx);
        let genuine = Checkpoint::new(
            ava_types::Round(6),
            machine.snapshot(),
            ava_types::Membership::new(),
            9,
            18,
        );
        let lie = lying_checkpoint(&genuine);
        assert!(lie.verify(), "the KV lie must also pass integrity verification");
        assert_ne!(lie.digest, genuine.digest);
    }
}

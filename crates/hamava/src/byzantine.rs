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
//!   votes, inconsistent checkpoints) or purely suppressive (withheld shares,
//!   stale replays). None may cause honest replicas to execute divergent state —
//!   the fuzzer's always-on checkers and the `e12_byzantine` sweep assert this.
//! * **No schedule perturbation while dormant.** A wrapped replica with no
//!   behavior (or `Honest`) never touches the context: no sends are drained, no
//!   randomness is drawn, no costs are charged.
//! * **Private randomness.** [`ByzantineBehavior::SuppressShares`] draws from a
//!   decorator-internal LCG, never from the simulation RNG, so activating a
//!   suppression adversary cannot shift any honest actor's random draws.

use crate::messages::{AvaMsg, RoundPackage};
use crate::replica::Replica;
use ava_consensus::{TotalOrderBroadcast, WireSize};
use ava_simnet::{Actor, CapturedSend, Context, SimMessage};
use ava_state::{KvEntry, StateSnapshot};
use ava_store::Checkpoint;
use ava_types::{Reconfig, ReplicaId};
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
}

impl ByzantineBehavior {
    /// Every behavior, `Honest` first (index 0 ⇒ tag 0).
    pub const ALL: [ByzantineBehavior; 8] = [
        ByzantineBehavior::Honest,
        ByzantineBehavior::EquivocateLocal,
        ByzantineBehavior::EquivocateRemote,
        ByzantineBehavior::InvalidCert,
        ByzantineBehavior::StaleCert,
        ByzantineBehavior::SuppressShares { permille: 500 },
        ByzantineBehavior::LyingCatchUp,
        ByzantineBehavior::BrdForgery,
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

/// A self-consistent checkpoint lie: tampered state, digest recomputed over the
/// tampered content. Passes `Checkpoint::verify()`; only `f + 1` digest
/// agreement across distinct senders exposes it.
fn lying_checkpoint(genuine: &Checkpoint) -> Checkpoint {
    let state = match &genuine.state {
        StateSnapshot::Counter(map) => {
            let mut map = map.clone();
            let poisoned = map.get(&u64::MAX).copied().unwrap_or(0) + 1;
            map.insert(u64::MAX, poisoned);
            StateSnapshot::Counter(map)
        }
        StateSnapshot::Kv(map) => {
            let mut map = map.clone();
            let version = map.get(&u64::MAX).map(|e| e.version).unwrap_or(0) + 1;
            map.insert(
                u64::MAX,
                KvEntry::new(u64::MAX, version, genuine.round.0, [0xab; 8].into()),
            );
            StateSnapshot::Kv(map)
        }
    };
    Checkpoint::new(
        genuine.round,
        state,
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
        if behavior == ByzantineBehavior::Honest {
            return;
        }
        let sends = ctx.take_sends();
        for CapturedSend { to, msg } in sends {
            match (&behavior, msg) {
                (ByzantineBehavior::EquivocateLocal, AvaMsg::LocalShare(package)) => {
                    let half = to.len().div_ceil(2);
                    let (genuine, lied_to) = to.split_at(half);
                    ctx.broadcast(genuine.to_vec(), AvaMsg::LocalShare(Arc::clone(&package)));
                    ctx.broadcast(lied_to.to_vec(), AvaMsg::LocalShare(Arc::new(tamper(&package))));
                }
                (ByzantineBehavior::EquivocateRemote, AvaMsg::Inter(package)) => {
                    self.flip = !self.flip;
                    let shipped = if self.flip { package } else { Arc::new(tamper(&package)) };
                    ctx.broadcast(to, AvaMsg::Inter(shipped));
                }
                (ByzantineBehavior::InvalidCert, AvaMsg::Inter(package)) => {
                    ctx.broadcast(to, AvaMsg::Inter(Arc::new(tamper(&package))));
                }
                (ByzantineBehavior::InvalidCert, AvaMsg::LocalShare(package)) => {
                    ctx.broadcast(to, AvaMsg::LocalShare(Arc::new(tamper(&package))));
                }
                (ByzantineBehavior::StaleCert, AvaMsg::Inter(package)) => {
                    let shipped = match &self.stale {
                        Some(old) if old.round < package.round => Arc::clone(old),
                        _ => Arc::clone(&package),
                    };
                    if self.stale.as_ref().is_none_or(|old| old.round < package.round) {
                        self.stale = Some(Arc::clone(&package));
                    }
                    ctx.broadcast(to, AvaMsg::Inter(shipped));
                }
                (ByzantineBehavior::SuppressShares { permille }, AvaMsg::LocalShare(package)) => {
                    let permille = *permille;
                    let kept: Vec<ReplicaId> =
                        to.into_iter().filter(|_| self.draw_permille() >= permille).collect();
                    ctx.broadcast(kept, AvaMsg::LocalShare(package));
                }
                (
                    ByzantineBehavior::LyingCatchUp,
                    AvaMsg::CatchUpReply { checkpoint, suffix, round, leader_ts },
                ) => {
                    ctx.broadcast(
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
                    ctx.broadcast(to, AvaMsg::Brd(forged));
                }
                (_, msg) => ctx.broadcast(to, msg),
            }
        }
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

    fn on_restart(&mut self, ctx: &mut Context<'_, AvaMsg<T::Msg>>) {
        self.inner.on_restart(ctx);
        self.corrupt_sends(ctx);
    }

    /// A scheduled corruption arms (or re-arms) the behavior. The fault is
    /// assigned to the process: it persists across crash/restart.
    fn on_corrupt(&mut self, tag: u64) {
        self.behavior = Some(ByzantineBehavior::from_tag(tag));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn tampered_packages_change_content_but_keep_slot() {
        let package =
            RoundPackage::new(ava_types::ClusterId(1), ava_types::Round(4), vec![], vec![], None);
        let tampered = tamper(&package);
        assert_eq!(tampered.cluster, package.cluster);
        assert_eq!(tampered.round, package.round);
        assert_ne!(tampered.content_digest(), package.content_digest());
        // A certificate-less package with a nonempty rec set never verifies.
        let nobody = ava_types::Membership::new();
        assert!(!tampered.verify_either(&ava_crypto::KeyRegistry::new(), &nobody, &nobody));
    }

    #[test]
    fn lying_checkpoints_are_self_consistent_but_digest_distinct() {
        let genuine = Checkpoint::new(
            ava_types::Round(6),
            StateSnapshot::Counter(std::collections::BTreeMap::from([(1, 2), (3, 4)])),
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

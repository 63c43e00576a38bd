//! Checkpoints: digest-certified snapshots of executed state at a round boundary.
//!
//! Every replica of a cluster executes the same rounds in the same order, so the
//! state after round `r` is identical at every correct replica and a checkpoint's
//! digest is a cluster-wide commitment. A restarted replica does not trust any
//! single peer's checkpoint: the [`CheckpointCollector`] requires `f + 1` distinct
//! senders to report the *same* `(round, digest)` before a checkpoint is adopted —
//! with at most `f` Byzantine replicas, at least one of the matching senders is
//! correct (BFT-SMaRt's collaborative state transfer uses the same argument).

use ava_crypto::{Digest, Sha256};
use ava_state::StateSnapshot;
use ava_types::{EncodeSink, Membership, ReplicaId, Round};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A snapshot of the replicated state after executing round [`Checkpoint::round`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Checkpoint {
    /// The last executed round the snapshot covers.
    pub round: Round,
    /// The replicated state image after `round` (counter map or keyed KV
    /// entries — see `ava-state`). The counter variant's digest byte stream
    /// and wire size are bit-identical to the pre-`ava-state` format.
    pub state: StateSnapshot,
    /// The membership map after applying every reconfiguration up to `round`.
    pub membership: Membership,
    /// The cluster's leader timestamp as of `round` (so a replica recovering
    /// from its *own* store rejoins with a consistent leader view). Not part of
    /// the digest: leader changes land at different instants at different
    /// replicas, so committing the timestamp would split otherwise-identical
    /// same-round snapshots below the `f + 1` agreement threshold. Peer-driven
    /// catch-up takes its leader context from the reply, not the snapshot.
    pub leader_ts: u64,
    /// The first local-log height NOT yet packed into an executed round as of
    /// `round`. Every correct replica packs its cluster's block stream into
    /// rounds at the same height boundaries, so this is round-deterministic and
    /// committed in the digest. A replica adopting the snapshot resumes packing
    /// its local block stream exactly here — without the anchor, a recovered
    /// replica would re-pack (or drop) blocks its peers already assigned to
    /// earlier rounds and silently diverge.
    pub next_height: u64,
    /// Canonical digest over the round-deterministic content (round, state,
    /// membership, next_height), computed at construction time.
    pub digest: Digest,
}

/// The canonical byte stream a checkpoint digest is the SHA-256 of: round,
/// `next_height`, the snapshot's stream, the membership. `BTreeMap` iteration
/// (inside the snapshot's stream) and the membership map's sorted per-cluster
/// member lists make it deterministic across replicas.
fn digest_stream(
    out: &mut impl EncodeSink,
    round: Round,
    state: &StateSnapshot,
    membership: &Membership,
    next_height: u64,
) {
    out.write(&round.0.to_le_bytes());
    out.write(&next_height.to_le_bytes());
    state.hash_into(out);
    for (cluster, info) in membership.iter() {
        out.write(&cluster.0.to_le_bytes());
        out.write(&info.id.0.to_le_bytes());
        out.write(&[info.region.index() as u8]);
    }
}

/// The digest stream of the last checkpoint this thread *built*, with its
/// digest. Every replica of a deployment checkpoints the same state at the
/// same rounds, and they all live on one thread: [`Checkpoint::new`] writes
/// out the stream it is about to hash and, when it equals this one byte for
/// byte, takes the digest instead of hashing the same 40 bytes per entry
/// again. A comparison of the hasher's whole input, not of a hash of it, so
/// no collision assumption enters; the value is a pure function of the
/// compared bytes. Consulted only when a replica builds a checkpoint of its
/// own state: [`Checkpoint::verify`] and [`CheckpointCollector::offer`] judge
/// checkpoints that came from elsewhere and always hash
/// ([`Checkpoint::digest_of`]). It outlives a deployment (a thread runs them
/// back to back) and holds one stream, so it is bounded by the largest
/// checkpoint built.
#[derive(Default)]
struct LastBuilt {
    /// Empty until the first build; a real stream never is (round and
    /// `next_height` lead it), so the initial state matches nothing.
    stream: Vec<u8>,
    digest: Digest,
    /// The stream under comparison, kept for its allocation.
    scratch: Vec<u8>,
    reused: u64,
    built: u64,
}

thread_local! {
    static LAST_BUILT: RefCell<LastBuilt> = RefCell::default();
}

/// What [`Checkpoint::new`] has done on the calling thread since the thread
/// started (see [`checkpoint_digest_stats`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CheckpointDigestStats {
    /// Digests taken from the thread's last build.
    pub reused: u64,
    /// Digests hashed.
    pub built: u64,
}

/// The calling thread's [`CheckpointDigestStats`]. For profiles and tests:
/// nothing in a run depends on it.
pub fn checkpoint_digest_stats() -> CheckpointDigestStats {
    LAST_BUILT.with_borrow(|last| CheckpointDigestStats { reused: last.reused, built: last.built })
}

impl Checkpoint {
    /// Build a checkpoint of the caller's own state, with its canonical
    /// digest: [`Checkpoint::digest_of`] the content, hashed unless the
    /// thread's last build fed the hasher exactly the same bytes (see
    /// `LastBuilt`). `leader_ts` is not part of the stream, so two
    /// replicas that differ only there share a digest and each keeps its own
    /// timestamp.
    pub fn new(
        round: Round,
        state: StateSnapshot,
        membership: Membership,
        leader_ts: u64,
        next_height: u64,
    ) -> Self {
        let digest = LAST_BUILT.with_borrow_mut(|last| {
            last.scratch.clear();
            digest_stream(&mut last.scratch, round, &state, &membership, next_height);
            if last.scratch == last.stream {
                last.reused += 1;
            } else {
                last.built += 1;
                last.digest = Digest::of_bytes(&last.scratch);
                std::mem::swap(&mut last.stream, &mut last.scratch);
            }
            last.digest
        });
        Checkpoint { round, state, membership, leader_ts, next_height, digest }
    }

    /// The canonical digest of a checkpoint's round-deterministic content,
    /// hashed from scratch (SHA-256 of the digest stream: round, next_height,
    /// state, membership). KV state enters as `(key, leaf)` pairs
    /// (`StateSnapshot::hash_into`), so building a checkpoint re-reads no
    /// value bytes. The machine's XOR set-hash is deliberately *not* the
    /// commitment: it is an agreement checksum among honest replicas, and a
    /// lying catch-up peer could forge a colliding state by generalised
    /// birthday search over entry hashes; a SHA-256 over the ordered leaves
    /// is as collision-resistant as hashing the values inline.
    pub fn digest_of(
        round: Round,
        state: &StateSnapshot,
        membership: &Membership,
        next_height: u64,
    ) -> Digest {
        let mut h = Sha256::new();
        digest_stream(&mut h, round, state, membership, next_height);
        Digest(h.finalize())
    }

    /// Whether the stored digest matches the content (detects a corrupted or
    /// tampered snapshot). Reads every state byte: the cached KV leaves the
    /// digest is built from are recomputed first, never taken on trust.
    pub fn verify(&self) -> bool {
        self.state.leaves_valid()
            && self.digest
                == Self::digest_of(self.round, &self.state, &self.membership, self.next_height)
    }

    /// Approximate wire size of the snapshot in bytes (state body + membership
    /// entries + header), used for transfer-size accounting.
    pub fn wire_size(&self) -> usize {
        64 + self.state.wire_bytes() + self.membership.total_replicas() * 12
    }
}

/// Collects peer-reported checkpoints during catch-up until `threshold` distinct
/// senders agree on the same `(round, digest)`.
///
/// Offers carrying a corrupted snapshot (stored digest ≠ content digest) are
/// rejected outright and counted, so a Byzantine peer cannot poison the vote with a
/// snapshot that would fail verification after adoption.
#[derive(Clone, Debug, Default)]
pub struct CheckpointCollector {
    threshold: usize,
    votes: BTreeMap<(Round, Digest), BTreeSet<ReplicaId>>,
    snapshots: BTreeMap<(Round, Digest), Arc<Checkpoint>>,
    rejected: usize,
}

impl CheckpointCollector {
    /// A collector requiring `threshold` matching reports (use `f + 1` for the
    /// cluster being rejoined).
    pub fn new(threshold: usize) -> Self {
        CheckpointCollector { threshold: threshold.max(1), ..Self::default() }
    }

    /// Record `sender`'s checkpoint. Returns `false` (and counts the rejection) when
    /// the snapshot fails integrity verification; duplicate reports by the same
    /// sender for the same `(round, digest)` are idempotent.
    pub fn offer(&mut self, sender: ReplicaId, checkpoint: Arc<Checkpoint>) -> bool {
        if !checkpoint.verify() {
            self.rejected += 1;
            return false;
        }
        let key = (checkpoint.round, checkpoint.digest);
        self.votes.entry(key).or_default().insert(sender);
        self.snapshots.entry(key).or_insert(checkpoint);
        true
    }

    /// The highest-round checkpoint that `threshold` distinct senders agree on, if
    /// any.
    pub fn agreed(&self) -> Option<Arc<Checkpoint>> {
        self.votes
            .iter()
            .rev()
            .find(|(_, senders)| senders.len() >= self.threshold)
            .and_then(|(key, _)| self.snapshots.get(key).cloned())
    }

    /// Number of corrupted offers rejected so far.
    pub fn rejected(&self) -> usize {
        self.rejected
    }

    /// Whether two *same-round* candidates with different digests have been
    /// offered. Correct replicas compute round-deterministic snapshots, so two
    /// digests for one round is sound evidence that some sender lied (a
    /// self-consistent fabrication passes `verify()` but cannot match the
    /// honest digest). Candidates at *different* rounds are not evidence —
    /// peers legitimately straddle a checkpoint cadence boundary.
    pub fn conflicting(&self) -> bool {
        let mut rounds: Vec<Round> = self.votes.keys().map(|(round, _)| *round).collect();
        rounds.sort();
        rounds.windows(2).any(|w| w[0] == w[1])
    }

    /// Number of distinct `(round, digest)` candidates seen.
    pub fn candidates(&self) -> usize {
        self.votes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ava_types::{ClusterId, Region, ReplicaInfo};

    fn membership(n: u32) -> Membership {
        let mut m = Membership::new();
        for i in 0..n {
            m.add(ClusterId(0), ReplicaInfo { id: ReplicaId(i), region: Region::UsWest });
        }
        m
    }

    fn counter_state(writes: u64) -> StateSnapshot {
        StateSnapshot::Counter((0..writes).map(|k| (k, k + 1)).collect())
    }

    fn checkpoint(round: u64, writes: u64) -> Checkpoint {
        Checkpoint::new(Round(round), counter_state(writes), membership(4), 2, round * 3)
    }

    fn corrupt(cp: &mut Checkpoint) {
        let StateSnapshot::Counter(state) = &mut cp.state else {
            panic!("test checkpoints carry counter state");
        };
        state.insert(99, 7); // mutate the snapshot after digest computation
    }

    #[test]
    fn digest_commits_to_round_deterministic_content() {
        let base = checkpoint(8, 3);
        assert_ne!(base.digest, checkpoint(9, 3).digest, "round must be committed");
        assert_ne!(base.digest, checkpoint(8, 4).digest, "state must be committed");
        let grown = Checkpoint::new(Round(8), base.state.clone(), membership(5), 2, 24);
        assert_ne!(base.digest, grown.digest, "membership must be committed");
        let moved = Checkpoint::new(Round(8), base.state.clone(), membership(4), 2, 25);
        assert_ne!(base.digest, moved.digest, "next_height must be committed");
        assert_eq!(base.digest, checkpoint(8, 3).digest, "equal content, equal digest");
        // Leader timestamps land at different instants at different replicas, so
        // they must NOT split same-round digests (the f+1 agreement depends on it).
        let other_ts = Checkpoint::new(Round(8), base.state.clone(), membership(4), 3, 24);
        assert_eq!(base.digest, other_ts.digest, "leader_ts must not be committed");
    }

    #[test]
    fn counter_digest_matches_the_legacy_byte_stream() {
        // The pre-`ava-state` digest hashed round, next_height, state.len(),
        // each (key, counter) pair, then the membership — all LE. A counter
        // snapshot must reproduce that stream exactly, or every historical
        // checkpoint digest (and the determinism goldens built on them) moves.
        let cp = checkpoint(8, 3);
        let mut h = Sha256::new();
        h.update(&8u64.to_le_bytes());
        h.update(&24u64.to_le_bytes());
        let StateSnapshot::Counter(state) = &cp.state else { unreachable!() };
        h.update(&(state.len() as u64).to_le_bytes());
        for (k, v) in state {
            h.update(&k.to_le_bytes());
            h.update(&v.to_le_bytes());
        }
        for (cluster, info) in cp.membership.iter() {
            h.update(&cluster.0.to_le_bytes());
            h.update(&info.id.0.to_le_bytes());
            h.update(&[info.region.index() as u8]);
        }
        assert_eq!(cp.digest, Digest(h.finalize()));
        assert_eq!(cp.wire_size(), 64 + 3 * 16 + 4 * 12, "legacy wire accounting");
    }

    #[test]
    fn kv_checkpoints_carry_value_bytes_and_chunk_cleanly() {
        use ava_state::{machine_for, StateMachineKind};
        use ava_types::{ClientId, Transaction};
        let mut m = machine_for(StateMachineKind::Kv);
        for seq in 0..40u64 {
            m.apply(Round(2), &Transaction::write(ClientId(1), seq, seq % 16, 128));
        }
        let cp = Checkpoint::new(Round(8), m.snapshot(), membership(4), 2, 24);
        assert!(cp.verify());
        assert!(
            cp.wire_size() > 16 * 128,
            "kv snapshots must account real value bytes, got {}",
            cp.wire_size()
        );
        // Same logical content under the two machines must NOT collide.
        let counter = checkpoint(8, 16);
        assert_ne!(cp.digest, counter.digest);
    }

    fn kv_checkpoint() -> (Box<dyn ava_state::StateMachine>, Checkpoint) {
        use ava_types::{ClientId, Transaction};
        let mut m = ava_state::machine_for(ava_state::StateMachineKind::Kv);
        for key in 0..6u64 {
            m.apply(Round(2 + key % 3), &Transaction::write(ClientId(1), key, key, 100));
        }
        let cp = Checkpoint::new(Round(8), m.snapshot(), membership(4), 2, 24);
        (m, cp)
    }

    #[test]
    fn kv_digest_matches_the_two_level_byte_stream() {
        // Pins the `kv-state-v2` stream: round, next_height, tag, entry count,
        // then per entry the key and the SHA-256 of (entry tag, key, version,
        // last-writer round, value length, value) — all LE — then the
        // membership. Checkpoint digests are compared across replicas, so any
        // change here is a protocol change.
        let (_, cp) = kv_checkpoint();
        let mut h = Sha256::new();
        h.update(&8u64.to_le_bytes());
        h.update(&24u64.to_le_bytes());
        let StateSnapshot::Kv(state) = &cp.state else { unreachable!() };
        h.update(b"kv-state-v2");
        h.update(&(state.len() as u64).to_le_bytes());
        for (k, e) in state {
            let mut leaf = Sha256::new();
            leaf.update(b"ava-kv-entry");
            leaf.update(&k.to_le_bytes());
            leaf.update(&e.version.to_le_bytes());
            leaf.update(&e.last_writer_round.to_le_bytes());
            leaf.update(&(e.value.len() as u32).to_le_bytes());
            leaf.update(&e.value);
            h.update(&k.to_le_bytes());
            h.update(&leaf.finalize());
        }
        for (cluster, info) in cp.membership.iter() {
            h.update(&cluster.0.to_le_bytes());
            h.update(&info.id.0.to_le_bytes());
            h.update(&[info.region.index() as u8]);
        }
        assert_eq!(cp.digest, Digest(h.finalize()));
        assert_eq!(cp.wire_size(), 64 + 6 * (28 + 100) + 4 * 12, "value bytes are accounted");
    }

    #[test]
    fn kv_checkpoint_is_unchanged_by_later_overwrites() {
        use ava_types::{ClientId, Transaction};
        let (mut m, cp) = kv_checkpoint();
        // A deep copy: the value bytes themselves, not the `Arc`s that share them.
        let values = |cp: &Checkpoint| -> Vec<(u64, u64, u64, Vec<u8>)> {
            let StateSnapshot::Kv(state) = &cp.state else { unreachable!() };
            state
                .iter()
                .map(|(k, e)| (*k, e.version, e.last_writer_round, e.value.to_vec()))
                .collect()
        };
        let before = values(&cp);
        // The checkpoint shares its value bytes with the live map; overwriting
        // every key (other sizes too) must replace them there, not in place.
        for key in 0..6u64 {
            m.apply(Round(9), &Transaction::write(ClientId(1), 10 + key, key, 40 + key as u32));
        }
        assert_eq!(values(&cp), before, "checkpoint content moved under later writes");
        assert!(cp.verify());
        let later = Checkpoint::new(Round(16), m.snapshot(), membership(4), 2, 48);
        assert!(later.verify());
        assert_ne!(later.state, cp.state);
    }

    #[test]
    fn tampered_kv_content_fails_verification_and_the_collector() {
        // A peer pairs changed content with the honest digest and the honest
        // cached leaves; every field the leaf covers must be caught.
        type Tamper = fn(&mut ava_state::KvEntry);
        let tampers: [(&str, Tamper); 3] = [
            ("value byte", |e| {
                let mut bytes = e.value.to_vec();
                bytes[17] ^= 1;
                e.value = bytes.into();
            }),
            ("version", |e| e.version += 1),
            ("last_writer_round", |e| e.last_writer_round += 1),
        ];
        for (what, tamper) in tampers {
            let (_, mut cp) = kv_checkpoint();
            let StateSnapshot::Kv(state) = &mut cp.state else { unreachable!() };
            tamper(state.get_mut(&3).expect("key 3 was written"));
            assert!(!cp.verify(), "a changed {what} must fail verification");
            let mut c = CheckpointCollector::new(1);
            assert!(!c.offer(ReplicaId(1), Arc::new(cp)), "a changed {what} must not vote");
            assert_eq!(c.rejected(), 1);
        }
        // An entry moved under another key keeps a leaf that is honest for the
        // old key only.
        let (_, mut cp) = kv_checkpoint();
        let StateSnapshot::Kv(state) = &mut cp.state else { unreachable!() };
        let moved = state.remove(&3).expect("key 3 was written");
        state.insert(33, moved);
        assert!(!cp.verify());
        // And a replaced entry whose leaf is honest for its new content no
        // longer matches the digest.
        let (_, mut cp) = kv_checkpoint();
        let StateSnapshot::Kv(state) = &mut cp.state else { unreachable!() };
        state.insert(3, ava_state::KvEntry::new(3, 1, 2, [7u8; 100].into()));
        assert!(cp.state.leaves_valid() && !cp.verify());
    }

    /// What a checkpoint digest commits to: the arguments of
    /// `Checkpoint::new` without `leader_ts`.
    type Committed = (Round, StateSnapshot, Membership, u64);

    /// `Checkpoint::new` on `args`, checked against the from-scratch digest;
    /// also whether the digest was taken from the thread's last build.
    fn build(args: &Committed) -> (Checkpoint, bool) {
        let (round, state, members, next_height) = args;
        let before = checkpoint_digest_stats();
        let cp = Checkpoint::new(*round, state.clone(), members.clone(), 2, *next_height);
        let after = checkpoint_digest_stats();
        assert_eq!(cp.digest, Checkpoint::digest_of(*round, state, members, *next_height));
        assert_eq!(after.reused + after.built, before.reused + before.built + 1);
        (cp, after.reused == before.reused + 1)
    }

    fn kv_entries(args: &mut Committed) -> &mut BTreeMap<u64, ava_state::KvEntry> {
        let StateSnapshot::Kv(entries) = &mut args.1 else { panic!("a kv snapshot") };
        entries
    }

    #[test]
    fn new_reuses_the_last_digest_for_the_same_stream_and_no_other() {
        use ava_state::KvEntry;
        let (_, cp) = kv_checkpoint();
        let base: Committed = (cp.round, cp.state, cp.membership, cp.next_height);
        let vary = |change: &dyn Fn(&mut Committed)| {
            let mut args = base.clone();
            change(&mut args);
            args
        };
        // The base, then eight that differ from it in exactly one thing the
        // digest commits to: round, next_height, membership, one leaf, one key
        // (the entry re-hashed honestly under it), one entry fewer, one more,
        // the other machine kind.
        let variants = [
            base.clone(),
            vary(&|v| v.0 = Round(9)),
            vary(&|v| v.3 += 1),
            vary(&|v| v.2 = membership(5)),
            vary(&|v| drop(kv_entries(v).insert(3, KvEntry::new(3, 2, 9, [7; 100].into())))),
            vary(&|v| {
                let e = kv_entries(v).remove(&3).expect("key 3 was written");
                let moved = KvEntry::new(33, e.version, e.last_writer_round, e.value);
                kv_entries(v).insert(33, moved);
            }),
            vary(&|v| drop(kv_entries(v).remove(&5))),
            vary(&|v| drop(kv_entries(v).insert(100, KvEntry::new(100, 1, 2, [1; 8].into())))),
            vary(&|v| {
                v.1 = StateSnapshot::Counter(kv_entries(v).keys().map(|k| (*k, 1)).collect())
            }),
        ];
        // Every ordered pair: the second build reuses the first's digest
        // exactly when it repeats its arguments, and is right either way.
        for (i, first) in variants.iter().enumerate() {
            for (j, second) in variants.iter().enumerate() {
                let (built, _) = build(first);
                let (again, reused) = build(second);
                assert_eq!(reused, i == j, "variant {j} right after variant {i}");
                assert_eq!(built.digest == again.digest, i == j);
            }
        }
        // `leader_ts` is not committed: the digest is reused, the timestamp is
        // the caller's own.
        let (first, _) = build(&base);
        let (round, state, members, next_height) = base;
        let before = checkpoint_digest_stats();
        let other_ts = Checkpoint::new(round, state, members, 77, next_height);
        assert_eq!(checkpoint_digest_stats().reused, before.reused + 1);
        assert_eq!((other_ts.leader_ts, first.leader_ts), (77, 2));
        assert_eq!(other_ts.digest, first.digest);
    }

    #[test]
    fn a_tampered_twin_of_the_checkpoint_just_built_is_still_rejected() {
        // The honest checkpoint is the thread's last build when its tampered
        // copies are judged: `verify` and `offer` must hash what they were
        // given, whatever this thread remembers.
        let (_, honest) = kv_checkpoint();
        let mut c = CheckpointCollector::new(1);
        let mut stale_leaf = honest.clone();
        let StateSnapshot::Kv(state) = &mut stale_leaf.state else { unreachable!() };
        state.get_mut(&3).expect("key 3 was written").version += 1;
        let mut swapped = honest.clone();
        let StateSnapshot::Kv(state) = &mut swapped.state else { unreachable!() };
        state.insert(3, ava_state::KvEntry::new(3, 1, 2, [7u8; 100].into()));
        assert!(swapped.state.leaves_valid(), "the swapped entry's leaf is honest for its bytes");
        let mut moved_round = honest.clone();
        moved_round.round = Round(16);
        for (what, twin) in [("leaf", stale_leaf), ("entry", swapped), ("round", moved_round)] {
            assert_eq!(twin.digest, honest.digest);
            assert!(!twin.verify(), "a changed {what} under the honest digest verified");
            assert!(!c.offer(ReplicaId(1), Arc::new(twin)), "a changed {what} voted");
        }
        assert!(c.offer(ReplicaId(2), Arc::new(honest)));
        assert_eq!((c.rejected(), c.candidates()), (3, 1));
    }

    #[test]
    fn tampered_checkpoint_fails_verification() {
        let mut cp = checkpoint(8, 3);
        assert!(cp.verify());
        corrupt(&mut cp);
        assert!(!cp.verify());
    }

    #[test]
    fn collector_requires_threshold_matching_reports() {
        let mut c = CheckpointCollector::new(2);
        assert!(c.offer(ReplicaId(1), Arc::new(checkpoint(8, 3))));
        assert!(c.agreed().is_none(), "one report is not agreement");
        // A duplicate report by the same sender must not count twice.
        assert!(c.offer(ReplicaId(1), Arc::new(checkpoint(8, 3))));
        assert!(c.agreed().is_none());
        assert!(c.offer(ReplicaId(2), Arc::new(checkpoint(8, 3))));
        assert_eq!(c.agreed().expect("agreed").round, Round(8));
    }

    #[test]
    fn collector_rejects_corrupted_offers() {
        let mut c = CheckpointCollector::new(1);
        let mut bad = checkpoint(8, 3);
        corrupt(&mut bad); // forged state under the old digest
        assert!(!c.offer(ReplicaId(1), Arc::new(bad)));
        assert_eq!(c.rejected(), 1);
        assert!(c.agreed().is_none());
    }

    #[test]
    fn collector_prefers_the_highest_agreed_round() {
        let mut c = CheckpointCollector::new(2);
        for sender in [1, 2, 3] {
            assert!(c.offer(ReplicaId(sender), Arc::new(checkpoint(8, 3))));
        }
        // A newer checkpoint reaches the threshold later; it must win.
        assert!(c.offer(ReplicaId(4), Arc::new(checkpoint(16, 5))));
        assert_eq!(c.agreed().expect("agreed").round, Round(8), "r16 has one vote");
        assert!(c.offer(ReplicaId(5), Arc::new(checkpoint(16, 5))));
        assert_eq!(c.agreed().expect("agreed").round, Round(16));
        assert_eq!(c.candidates(), 2);
    }

    #[test]
    fn conflicting_flags_same_round_digest_splits_only() {
        let mut c = CheckpointCollector::new(2);
        assert!(c.offer(ReplicaId(1), Arc::new(checkpoint(8, 3))));
        // Different rounds: a cadence-boundary straddle, not a lie.
        assert!(c.offer(ReplicaId(2), Arc::new(checkpoint(16, 5))));
        assert!(!c.conflicting());
        // Same round, different state ⇒ different digest ⇒ someone fabricated one.
        assert!(c.offer(ReplicaId(3), Arc::new(checkpoint(8, 4))));
        assert!(c.conflicting());
    }

    #[test]
    fn mismatched_digests_do_not_pool_votes() {
        // Two senders at different rounds (e.g. one straddling a checkpoint
        // boundary) must not be counted as agreeing.
        let mut c = CheckpointCollector::new(2);
        assert!(c.offer(ReplicaId(1), Arc::new(checkpoint(8, 3))));
        assert!(c.offer(ReplicaId(2), Arc::new(checkpoint(16, 3))));
        assert!(c.agreed().is_none());
    }
}

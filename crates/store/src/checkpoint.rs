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
use ava_state::{StateSnapshot, WeakStateVersion};
use ava_types::{EncodeSink, Membership, ReplicaId, Round};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
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

/// The digests of the last [`MEMO_CAPACITY`] checkpoints this thread *built*,
/// with what each committed to. Every replica of a deployment checkpoints the
/// same state at the same rounds, they all live on one thread, and they share
/// one executed state version (`ava_hamava::round_memo`): [`Checkpoint::new`]
/// takes the digest from here when the snapshot holds the very version an
/// entry names and round, `next_height` and membership are equal by value.
/// A round's clusters may differ in `next_height` (each packs its own block
/// stream) and their replicas checkpoint interleaved, hence more than one
/// entry; the capacity is a constant, never a round window, because the memo
/// outlives a deployment (see DESIGN.md §4). The version is an identity,
/// never a content comparison, and exact (see [`WeakStateVersion`]): a version
/// built apart with equal content misses and is hashed, and so does every
/// tampered image — a fork with one write, or entries given as-is, is a
/// version of its own. The version is held weakly, so the memo pins no state:
/// once the last checkpoint holding it drops, its pages are freed and only the
/// root's few words stay reserved. Consulted only when a replica builds a
/// checkpoint of its own state: [`Checkpoint::verify`] and
/// [`CheckpointCollector::offer`] judge checkpoints that came from elsewhere
/// and always hash ([`Checkpoint::digest_of`]). Its value is a pure function
/// of what the key names.
#[derive(Default)]
struct DigestMemo {
    /// Oldest first.
    entries: VecDeque<Built>,
    reused: u64,
    built: u64,
}

/// How many built checkpoints [`DigestMemo`] remembers.
const MEMO_CAPACITY: usize = 4;

/// One built checkpoint's key and digest.
struct Built {
    version: WeakStateVersion,
    round: Round,
    next_height: u64,
    membership: Membership,
    digest: Digest,
}

thread_local! {
    static DIGEST_MEMO: RefCell<DigestMemo> = RefCell::default();
}

/// What [`Checkpoint::new`] has done on the calling thread since the thread
/// started (see [`checkpoint_digest_stats`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CheckpointDigestStats {
    /// Digests taken from the thread's memo.
    pub reused: u64,
    /// Digests hashed.
    pub built: u64,
}

/// The calling thread's [`CheckpointDigestStats`]. For profiles and tests:
/// nothing in a run depends on it.
pub fn checkpoint_digest_stats() -> CheckpointDigestStats {
    DIGEST_MEMO.with_borrow(|memo| CheckpointDigestStats { reused: memo.reused, built: memo.built })
}

impl Checkpoint {
    /// Build a checkpoint of the caller's own state, with its canonical
    /// digest: [`Checkpoint::digest_of`] the content, hashed unless one of
    /// the thread's last builds covered the same state version at the same
    /// round, `next_height` and membership (see `DigestMemo`). `leader_ts` is
    /// not committed, so two replicas that differ only there share a digest
    /// and each keeps its own timestamp. The snapshot is the machine's own
    /// version, so a checkpoint costs O(1) on a hit and pins the pages of
    /// that version while it is retained.
    pub fn new(
        round: Round,
        state: StateSnapshot,
        membership: Membership,
        leader_ts: u64,
        next_height: u64,
    ) -> Self {
        let version = state.version();
        let digest = DIGEST_MEMO.with_borrow_mut(|memo| {
            let hit = memo.entries.iter().find(|built| {
                built.version.names(&version)
                    && built.round == round
                    && built.next_height == next_height
                    && built.membership == membership
            });
            if let Some(built) = hit {
                let digest = built.digest;
                memo.reused += 1;
                return digest;
            }
            memo.built += 1;
            let digest = Self::digest_of(round, &state, &membership, next_height);
            if memo.entries.len() == MEMO_CAPACITY {
                memo.entries.pop_front();
            }
            let version = version.downgrade();
            let membership = membership.clone();
            memo.entries.push_back(Built { version, round, next_height, membership, digest });
            digest
        });
        Checkpoint { round, state, membership, leader_ts, next_height, digest }
    }

    /// The canonical digest of a checkpoint's round-deterministic content,
    /// hashed from scratch: SHA-256 over round, `next_height`, the snapshot's
    /// stream (`StateSnapshot::hash_into`) and the membership, whose sorted
    /// per-cluster member lists make it deterministic across replicas. KV
    /// state enters as `(key, leaf)` pairs, so building a checkpoint re-reads
    /// no value bytes. The machine's XOR set-hash is deliberately *not* the
    /// commitment: it is an agreement checksum among honest replicas, and a
    /// lying catch-up peer could forge a colliding state by generalised
    /// birthday search over entry hashes; a SHA-256 over the ordered BLAKE2s
    /// leaves is as collision-resistant as hashing the values inline (a forged
    /// state needs a collision in SHA-256 or in BLAKE2s).
    pub fn digest_of(
        round: Round,
        state: &StateSnapshot,
        membership: &Membership,
        next_height: u64,
    ) -> Digest {
        let mut h = Sha256::new();
        h.write(&round.0.to_le_bytes());
        h.write(&next_height.to_le_bytes());
        state.hash_into(&mut h);
        for (cluster, info) in membership.iter() {
            h.write(&cluster.0.to_le_bytes());
            h.write(&info.id.0.to_le_bytes());
            h.write(&[info.region.index() as u8]);
        }
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
    use ava_state::{
        machine_for, machine_from_snapshot, KvEntry, KvMachine, StateMachine, StateMachineKind,
    };
    use ava_types::{ClientId, ClusterId, Region, ReplicaInfo, Transaction, TxKind};
    use proptest::{proptest, ProptestConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn membership(n: u32) -> Membership {
        let mut m = Membership::new();
        for i in 0..n {
            m.add(ClusterId(0), ReplicaInfo { id: ReplicaId(i), region: Region::UsWest });
        }
        m
    }

    fn counter_state(writes: u64) -> StateSnapshot {
        StateSnapshot::counters((0..writes).map(|k| (k, k + 1)))
    }

    fn checkpoint(round: u64, writes: u64) -> Checkpoint {
        Checkpoint::new(Round(round), counter_state(writes), membership(4), 2, round * 3)
    }

    fn corrupt(cp: &mut Checkpoint) {
        let StateSnapshot::Counter(state) = &cp.state else {
            panic!("test checkpoints carry counter state");
        };
        // mutate the snapshot after digest computation
        cp.state = StateSnapshot::counters(state.iter().chain([(99, 7)]));
    }

    /// `state`, a KV image, rebuilt from its entries as given (cached leaves
    /// kept) after `edit`: what a peer that tampers with an image can send.
    fn edit_kv(state: &mut StateSnapshot, edit: impl FnOnce(&mut BTreeMap<u64, KvEntry>)) {
        let StateSnapshot::Kv(image) = &*state else { panic!("a kv snapshot") };
        let mut entries: BTreeMap<u64, KvEntry> =
            image.iter().map(|(k, e)| (k, e.clone())).collect();
        edit(&mut entries);
        *state = StateSnapshot::kv_entries(entries);
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
        let state: BTreeMap<u64, u64> = (0..3).map(|k| (k, k + 1)).collect();
        let mut h = Sha256::new();
        h.update(&8u64.to_le_bytes());
        h.update(&24u64.to_le_bytes());
        h.update(&(state.len() as u64).to_le_bytes());
        for (k, v) in &state {
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

    fn kv_checkpoint() -> (Box<dyn StateMachine>, Checkpoint) {
        let mut m = machine_for(StateMachineKind::Kv);
        for key in 0..6u64 {
            m.apply(Round(2 + key % 3), &Transaction::write(ClientId(1), key, key, 100));
        }
        let cp = Checkpoint::new(Round(8), m.snapshot(), membership(4), 2, 24);
        (m, cp)
    }

    #[test]
    fn kv_digest_matches_the_two_level_byte_stream() {
        // Pins the `kv-state-v2` stream: round, next_height, tag, entry count,
        // then per entry the key and the BLAKE2s of (entry tag, key, version,
        // last-writer round, value length, value) — all LE — then the
        // membership. Checkpoint digests are compared across replicas, so any
        // change here is a protocol change.
        let (_, cp) = kv_checkpoint();
        let mut h = Sha256::new();
        h.update(&8u64.to_le_bytes());
        h.update(&24u64.to_le_bytes());
        let StateSnapshot::Kv(state) = &cp.state else { unreachable!() };
        h.update(b"kv-state-v2");
        h.update(&(state.iter().count() as u64).to_le_bytes());
        for (k, e) in state.iter() {
            let mut leaf = b"ava-kv-entry".to_vec();
            leaf.extend(k.to_le_bytes());
            leaf.extend(e.version.to_le_bytes());
            leaf.extend(e.last_writer_round.to_le_bytes());
            leaf.extend((e.value.len() as u32).to_le_bytes());
            leaf.extend(e.value.iter());
            h.update(&k.to_le_bytes());
            h.update(&ava_crypto::blake2s(&leaf));
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
        let (mut m, cp) = kv_checkpoint();
        // A deep copy: the value bytes themselves, not the `Arc`s that share them.
        let values = |cp: &Checkpoint| -> Vec<(u64, u64, u64, Vec<u8>)> {
            let StateSnapshot::Kv(state) = &cp.state else { unreachable!() };
            state
                .iter()
                .map(|(k, e)| (k, e.version, e.last_writer_round, e.value.to_vec()))
                .collect()
        };
        let before = values(&cp);
        // The checkpoint holds the live machine's version; overwriting every
        // key (other sizes too) must copy the pages, not write them in place.
        for key in 0..6u64 {
            m.apply(Round(9), &Transaction::write(ClientId(1), 10 + key, key, 40 + key as u32));
        }
        assert_eq!(values(&cp), before, "checkpoint content moved under later writes");
        assert_eq!(cp.state.wire_bytes(), 6 * (28 + 100), "and so did its totals");
        assert!(cp.verify());
        let later = Checkpoint::new(Round(16), m.snapshot(), membership(4), 2, 48);
        assert!(later.verify());
        assert_ne!(later.state, cp.state);
    }

    #[test]
    fn tampered_kv_content_fails_verification_and_the_collector() {
        // A peer pairs changed content with the honest digest and the honest
        // cached leaves; every field the leaf covers must be caught.
        type Tamper = fn(&mut KvEntry);
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
            edit_kv(&mut cp.state, |state| tamper(state.get_mut(&3).expect("key 3 was written")));
            assert!(!cp.verify(), "a changed {what} must fail verification");
            let mut c = CheckpointCollector::new(1);
            assert!(!c.offer(ReplicaId(1), Arc::new(cp)), "a changed {what} must not vote");
            assert_eq!(c.rejected(), 1);
        }
        // An entry moved under another key keeps a leaf that is honest for the
        // old key only.
        let (_, mut cp) = kv_checkpoint();
        edit_kv(&mut cp.state, |state| {
            let moved = state.remove(&3).expect("key 3 was written");
            state.insert(33, moved);
        });
        assert!(!cp.verify());
        // And a replaced entry whose leaf is honest for its new content no
        // longer matches the digest.
        let (_, mut cp) = kv_checkpoint();
        edit_kv(&mut cp.state, |state| {
            state.insert(3, KvEntry::new(3, 1, 2, [7u8; 100].into()));
        });
        assert!(cp.state.leaves_valid() && !cp.verify());
    }

    /// What a checkpoint digest commits to: the arguments of
    /// `Checkpoint::new` without `leader_ts`.
    type Committed = (Round, StateSnapshot, Membership, u64);

    /// `Checkpoint::new` on `args`, checked against the from-scratch digest;
    /// also whether the digest was taken from the thread's memo.
    fn build(args: &Committed) -> (Checkpoint, bool) {
        let (round, state, members, next_height) = args;
        let before = checkpoint_digest_stats();
        let cp = Checkpoint::new(*round, state.clone(), members.clone(), 2, *next_height);
        let after = checkpoint_digest_stats();
        assert_eq!(cp.digest, Checkpoint::digest_of(*round, state, members, *next_height));
        assert_eq!(after.reused + after.built, before.reused + before.built + 1);
        (cp, after.reused == before.reused + 1)
    }

    #[test]
    fn new_reuses_the_memoised_digest_for_the_same_version_and_no_other() {
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
            vary(&|v| {
                edit_kv(&mut v.1, |s| drop(s.insert(3, KvEntry::new(3, 2, 9, [7; 100].into()))))
            }),
            vary(&|v| {
                edit_kv(&mut v.1, |s| {
                    let e = s.remove(&3).expect("key 3 was written");
                    s.insert(33, KvEntry::new(33, e.version, e.last_writer_round, e.value));
                })
            }),
            vary(&|v| edit_kv(&mut v.1, |s| drop(s.remove(&5)))),
            vary(&|v| {
                edit_kv(&mut v.1, |s| drop(s.insert(100, KvEntry::new(100, 1, 2, [1; 8].into()))))
            }),
            vary(&|v| {
                let StateSnapshot::Kv(image) = &v.1 else { unreachable!() };
                v.1 = StateSnapshot::counters(image.iter().map(|(k, _)| (k, 1)));
            }),
        ];
        // Every ordered pair, on an empty memo: the second build reuses the
        // first's digest exactly when it repeats its arguments, and is right
        // either way.
        for (i, first) in variants.iter().enumerate() {
            for (j, second) in variants.iter().enumerate() {
                DIGEST_MEMO.with_borrow_mut(|memo| memo.entries.clear());
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

    /// A deterministic random log of writes, multi-key writes and reads.
    fn random_log(seed: u64, n: usize) -> Vec<(Round, Transaction)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n as u64)
            .map(|seq| {
                let (key, value_size) = (rng.gen_range(0..1_500u64), rng.gen_range(0..200u32));
                let kind = match rng.gen_range(0..4u32) {
                    0 => TxKind::Read { key },
                    1 => TxKind::MultiWrite { keys: vec![key, key / 3, key * 7], value_size },
                    _ => TxKind::Write { key, value_size },
                };
                let tx = Transaction {
                    id: ava_types::TxId { client: ClientId(1), seq },
                    kind,
                    payload_size: 64,
                };
                (Round(1 + seq / 5), tx)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn a_version_built_apart_with_equal_content_is_hashed_to_the_same_digest(
            seed in 0u64..1_000_000,
            n in 0usize..80,
        ) {
            // The memo names a version, not a content: the same log replayed
            // on another lineage misses, and hashing gives it the digest the
            // memoised one carries.
            let log = random_log(seed, n);
            for kind in [StateMachineKind::Counter, StateMachineKind::Kv] {
                let mut own = machine_for(kind);
                let mut apart = machine_from_snapshot(&StateSnapshot::empty(kind));
                for (round, tx) in &log {
                    own.apply(*round, tx);
                    apart.apply(*round, tx);
                }
                assert!(!apart.version().same(&own.version()));
                let args = |m: &dyn StateMachine| (Round(8), m.snapshot(), membership(4), 24);
                let (first, _) = build(&args(own.as_ref()));
                let (again, reused) = build(&args(own.as_ref()));
                assert!(reused, "{kind:?}: the same version again is a hit");
                assert_eq!(again.digest, first.digest);
                let (other, reused) = build(&args(apart.as_ref()));
                assert!(!reused, "{kind:?}: a version built apart is hashed");
                assert_eq!(other.digest, first.digest, "{kind:?}: equal content, equal digest");
            }
        }
    }

    #[test]
    fn a_tampered_twin_of_the_checkpoint_just_built_is_still_rejected() {
        // The honest checkpoint is the thread's last build when its tampered
        // copies are built and judged: `new` must hash them, and `verify` and
        // `offer` must hash what they were given, whatever this thread
        // remembers.
        let (machine, honest) = kv_checkpoint();
        let honest_args: Committed =
            (honest.round, honest.state.clone(), honest.membership.clone(), honest.next_height);
        let mut stale_leaf = honest.state.clone();
        edit_kv(&mut stale_leaf, |s| s.get_mut(&3).expect("key 3 was written").version += 1);
        assert!(!stale_leaf.leaves_valid(), "entries given as-is keep a leaf their bytes lost");
        let mut swapped = honest.state.clone();
        edit_kv(&mut swapped, |s| drop(s.insert(3, KvEntry::new(3, 1, 2, [7u8; 100].into()))));
        assert!(swapped.leaves_valid(), "the swapped entry's leaf is honest for its bytes");
        let mut forked = machine.fork();
        forked.apply(Round(8), &Transaction::write(ClientId(2), 0, 3, 100));
        let forked = forked.snapshot();
        let mut c = CheckpointCollector::new(1);
        for (what, image) in [("leaf", stale_leaf), ("entry", swapped), ("write", forked)] {
            // Built right after its honest twin: hashed, never the memo's.
            build(&honest_args);
            assert!(build(&honest_args).1, "the honest build is memoised");
            let args = (honest.round, image.clone(), honest.membership.clone(), honest.next_height);
            let (rebuilt, reused) = build(&args);
            assert!(!reused, "a changed {what} took the memoised digest");
            assert_eq!(rebuilt.digest == honest.digest, what == "leaf", "{what}");
            // Carrying the honest digest: rejected.
            let twin = Checkpoint { state: image, ..honest.clone() };
            assert!(!twin.verify(), "a changed {what} under the honest digest verified");
            assert!(!c.offer(ReplicaId(1), Arc::new(twin)), "a changed {what} voted");
        }
        let mut moved_round = honest.clone();
        moved_round.round = Round(16);
        assert_eq!(moved_round.digest, honest.digest);
        assert!(!moved_round.verify(), "a changed round under the honest digest verified");
        assert!(!c.offer(ReplicaId(1), Arc::new(moved_round)), "a changed round voted");
        assert!(c.offer(ReplicaId(2), Arc::new(honest)));
        assert_eq!((c.rejected(), c.candidates()), (4, 1));
    }

    #[test]
    fn the_digest_memo_pins_no_state() {
        let writes = |m: &mut KvMachine| {
            for key in 0..6u64 {
                m.apply(Round(2), &Transaction::write(ClientId(1), key, key, 100));
            }
        };
        let mut m = KvMachine::default();
        writes(&mut m);
        let values: Vec<_> = m.iter().map(|(_, e)| Arc::downgrade(&e.value)).collect();
        let cp = Checkpoint::new(Round(8), m.snapshot(), membership(4), 2, 24);
        drop(m);
        assert!(values.iter().all(|v| v.upgrade().is_some()), "the checkpoint holds its version");
        drop(cp);
        assert!(values.iter().all(|v| v.upgrade().is_none()), "the version's values are freed");
        DIGEST_MEMO.with_borrow(|memo| {
            assert!(!memo.entries.is_empty(), "while the memo keeps its entry")
        });
        // A version allocated afterwards, equal content and all, misses.
        let mut again = KvMachine::default();
        writes(&mut again);
        let (cp, reused) = build(&(Round(8), again.snapshot(), membership(4), 24));
        assert!(!reused);
        assert!(cp.verify());
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

//! Keypairs, signatures and the shared key registry.
//!
//! See the crate-level documentation for why this is a *simulation-grade* scheme:
//! signatures are keyed BLAKE2s-256 tags over message digests under per-replica secrets,
//! and verification looks the secret up in a registry shared by the whole simulated
//! deployment. Replicas can only sign through their own [`Keypair`] handle, which is
//! what enforces unforgeability inside the simulation.
//!
//! Every verifier of a broadcast signature would compute the same expected tag,
//! so expected tags are memoised per thread, keyed by (registry, signer,
//! digest): a deployment runs on one thread, and a memo another thread cannot
//! see only makes that thread recompute. Signing leaves its tag there, so a
//! signature costs one MAC, its verifications one lookup each, and neither
//! takes a lock; the registry's lock guards the secrets alone, which only
//! registration and a verification the memo cannot answer read. Only a tag
//! computed from the registered secret is ever written to the memo (see
//! `RegistryInner`), so a forged signature cannot poison it.

use crate::blake2s::Blake2sKey;
use crate::sha256::Digest;
use ava_types::{BuildIdHasher, Encode, EncodeSink, ReplicaId};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, RwLock};

/// A signature produced by a replica over a digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Signature {
    /// The signing replica.
    pub signer: ReplicaId,
    /// Keyed BLAKE2s-256 tag over the signed digest.
    pub tag: [u8; 32],
}

impl Encode for Signature {
    fn encode(&self, out: &mut dyn EncodeSink) {
        self.signer.encode(out);
        out.write(&self.tag);
    }
}

/// Key of the expected-tag memo: the registry the tag belongs to, the signer
/// and the digest. Its hash is the digest's own leading bytes mixed with the
/// registry and the signer: the digests are SHA-256 outputs computed inside
/// this process, already uniform, so running SipHash over all 40 bytes per
/// lookup (several million per run) buys nothing. Equality still compares the
/// whole key, so a collision costs a probe, never a wrong tag.
#[derive(Clone, Copy, PartialEq, Eq)]
struct TagKey {
    registry: u32,
    signer: ReplicaId,
    digest: [u8; 32],
}

impl Hash for TagKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let lead = u64::from_le_bytes(self.digest[..8].try_into().expect("eight bytes"));
        let ids = u64::from(self.registry) << 32 | u64::from(self.signer.0);
        state.write_u64(lead ^ ids.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    }
}

/// Keyed through [`BuildIdHasher`]: [`TagKey`]'s one `write_u64` is the hash.
type TagMap = HashMap<TagKey, [u8; 32], BuildIdHasher>;

/// Memo of *expected* tags by `(registry, signer, digest)`, in two
/// generations of at most [`TAG_GENERATION`] entries each, one per thread
/// and shared by every registry used on it.
///
/// A lookup tries the current generation, then the previous one. When the
/// current one is full it becomes the previous one, and the old previous one
/// is cleared and reused as the new current one (its table keeps its
/// buckets), so the memo holds at most `2 · TAG_GENERATION` tags, and a tag
/// stays findable for at least `TAG_GENERATION` later writes. Most tags are
/// looked up within a round of being signed; one older than both
/// generations costs its verifier one MAC, which puts it back.
#[derive(Default)]
struct TagMemo {
    current: TagMap,
    previous: TagMap,
}

impl TagMemo {
    fn get(&self, key: &TagKey) -> Option<&[u8; 32]> {
        self.current.get(key).or_else(|| self.previous.get(key))
    }

    fn remember(&mut self, key: TagKey, expected: [u8; 32]) {
        if self.current.len() >= TAG_GENERATION {
            std::mem::swap(&mut self.current, &mut self.previous);
            self.current.clear();
            count(|stats| stats.generations_retired += 1);
        }
        self.current.insert(key, expected);
    }
}

/// Tags one memo generation holds: 7/8 of 16 384, the most a table of 16 384
/// buckets takes before it doubles, so the memo is two such tables (≈ 2.4 MB).
/// Sized by A/B on the repo benchmark's `churn_faults_open_loop`, where some
/// tags are looked up ten thousand signs after they were made: at 7 168 (two
/// 8 192-bucket tables) its verifications computed 0.3–1.1 % of their tags,
/// more than the single 2¹⁶-entry table it replaced (0.37–0.48 %); at 14 336
/// they compute 0.0002–0.04 %. The other workloads miss nothing at either.
#[cfg(not(test))]
const TAG_GENERATION: usize = 14_336;
/// Small under test, so the unit tests cross many generation rolls.
#[cfg(test)]
const TAG_GENERATION: usize = 8;

/// What the tag memos did on the calling thread since it started.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct TagMemoStats {
    /// Verifications answered from the memo.
    pub hits: u64,
    /// Verifications that computed the expected tag (one MAC each).
    pub misses: u64,
    /// Tags [`Keypair::sign`] computed (one MAC each).
    pub signed: u64,
    /// Generation rolls: a full current generation became the previous one,
    /// and the tags of the previous one were dropped.
    pub generations_retired: u64,
}

thread_local! {
    /// The calling thread's expected tags, for every registry.
    static MEMO: RefCell<TagMemo> = RefCell::default();
    static STATS: Cell<TagMemoStats> = const {
        Cell::new(TagMemoStats { hits: 0, misses: 0, signed: 0, generations_retired: 0 })
    };
}

fn count(bump: impl FnOnce(&mut TagMemoStats)) {
    STATS.with(|cell| {
        let mut stats = cell.get();
        bump(&mut stats);
        cell.set(stats);
    });
}

/// What the calling thread's expected-tag memo has done since the thread
/// started, over every [`KeyRegistry`]: verifications it answered, MACs
/// verification computed instead, tags signing computed, and generations it
/// retired. For profiles and tests: nothing in a run depends on it.
pub fn tag_memo_stats() -> TagMemoStats {
    STATS.get()
}

/// What a registry and its clones share: an identity and the secrets.
///
/// The expected-tag memo is not here but in a thread-local keyed by the
/// registry's id, so signing and a verification the memo answers take no
/// lock. The memo cannot be poisoned: two code paths write it and both derive
/// the tag from the registered secret itself. [`Keypair::sign`] stores the tag
/// it just computed (a keypair is only ever made by [`KeyRegistry::register`],
/// holds that registry's secret for its replica and writes only under that
/// registry's id), and [`KeyRegistry::verify`] computes it from `secrets` on a
/// miss. A tag that arrives in a message is only ever *compared* against the
/// memo, never written to it, so every entry, in either generation and on any
/// thread, is `MAC(secret[signer], digest)` under the registry its key names.
/// A generation roll only forgets tags, and a forgotten tag is recomputed; a
/// thread that never saw a tag computes it the same way.
struct RegistryInner {
    /// Identifier unique to this registry instance for the whole process lifetime
    /// (monotonic counter, never reused — unlike a heap address).
    id: u32,
    secrets: RwLock<HashMap<ReplicaId, Blake2sKey>>,
}

impl Default for RegistryInner {
    fn default() -> Self {
        static NEXT_ID: AtomicU32 = AtomicU32::new(0);
        let id = NEXT_ID
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |id| id.checked_add(1))
            .expect("registry ids exhausted");
        RegistryInner { id, secrets: RwLock::default() }
    }
}

/// The 32-byte secret of `replica`: SHA-256 of `"ava-secret-"` and its id.
/// Deterministic secrets keep simulation runs reproducible; unforgeability is
/// structural (only the owning replica holds the [`Keypair`]), not
/// cryptographic.
fn secret_of(replica: ReplicaId) -> [u8; 32] {
    let mut bytes = b"ava-secret-".to_vec();
    replica.encode(&mut bytes);
    crate::sha256::sha256(&bytes)
}

/// Registry mapping replica ids to their secrets.
///
/// Cloning the registry is cheap (it is an `Arc`); every replica of a simulated
/// deployment holds a clone and uses it to verify signatures from any other replica.
#[derive(Clone, Default)]
pub struct KeyRegistry {
    inner: Arc<RegistryInner>,
}

impl KeyRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Generate (deterministically from the replica id) and register a keypair for
    /// `replica`. Returns the keypair handle the replica signs with.
    pub fn register(&self, replica: ReplicaId) -> Keypair {
        let key = Blake2sKey::new(&secret_of(replica));
        self.inner.secrets.write().expect("registry lock poisoned").insert(replica, key);
        Keypair { id: replica, key, registry: self.inner.id }
    }

    fn secrets(&self) -> std::sync::RwLockReadGuard<'_, HashMap<ReplicaId, Blake2sKey>> {
        self.inner.secrets.read().expect("registry lock poisoned")
    }

    /// Whether `replica` has a registered key.
    pub fn is_registered(&self, replica: ReplicaId) -> bool {
        self.secrets().contains_key(&replica)
    }

    /// An identifier unique to this registry instance (and its clones) for the
    /// whole process lifetime, used to key per-certificate verification memos so
    /// results from one registry are never replayed against another (a monotonic
    /// id, so a dropped registry's identity is never reused the way a heap address
    /// can be).
    pub fn instance_id(&self) -> u32 {
        self.inner.id
    }

    /// Verify `sig` over `digest`: its tag must equal the expected tag,
    /// `MAC(secret[signer], digest)`, the keyed BLAKE2s-256 of the digest.
    ///
    /// The expected tag is memoised per `(registry, signer, digest)` on the
    /// calling thread, and the signer's own [`Keypair::sign`] call has normally
    /// put it there already, so verification is a lookup and a comparison with
    /// no lock; only a signature this thread never saw this registry produce (a
    /// forgery, a foreign keypair, another thread's signature) or one older
    /// than the memo's two generations pays the read lock and the MAC. The
    /// memo never takes a tag from `sig` — see `RegistryInner` for why it
    /// cannot be poisoned. (Replicas still *charge themselves* the modelled
    /// `per_sig_verify` CPU time — the memo changes wall-clock, not virtual
    /// time.)
    pub fn verify(&self, digest: &Digest, sig: &Signature) -> bool {
        let key = TagKey { registry: self.inner.id, signer: sig.signer, digest: digest.0 };
        let hit = MEMO.with_borrow(|memo| memo.get(&key).map(|expected| *expected == sig.tag));
        if let Some(valid) = hit {
            count(|stats| stats.hits += 1);
            return valid;
        }
        let Some(expected) = self.secrets().get(&sig.signer).map(|secret| secret.mac(&digest.0))
        else {
            return false;
        };
        count(|stats| stats.misses += 1);
        MEMO.with_borrow_mut(|memo| memo.remember(key, expected));
        expected == sig.tag
    }

    /// Number of registered keys.
    pub fn len(&self) -> usize {
        self.secrets().len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A replica's signing handle: the replica's id, its keyed secret, and the id
/// of the registry that issued it (so signing can leave the tag where that
/// registry's verifiers on this thread will look for it). Cloning copies 32
/// bytes of key state.
#[derive(Clone)]
pub struct Keypair {
    /// The replica this keypair belongs to.
    pub id: ReplicaId,
    key: Blake2sKey,
    registry: u32,
}

impl Keypair {
    /// Sign a digest, and record the tag in the calling thread's expected-tag
    /// memo under the issuing registry: every verifier would otherwise
    /// recompute the identical `MAC(secret, digest)` from the same secret.
    /// Takes no lock.
    pub fn sign(&self, digest: &Digest) -> Signature {
        let tag = self.key.mac(&digest.0);
        count(|stats| stats.signed += 1);
        let key = TagKey { registry: self.registry, signer: self.id, digest: digest.0 };
        MEMO.with_borrow_mut(|memo| memo.remember(key, tag));
        Signature { signer: self.id, tag }
    }

    /// Sign the canonical encoding of a value.
    pub fn sign_value<T: Encode + ?Sized>(&self, value: &T) -> Signature {
        self.sign(&Digest::of(value))
    }
}

impl std::fmt::Debug for Keypair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print the secret.
        write!(f, "Keypair({})", self.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_and_verify_roundtrip() {
        let reg = KeyRegistry::new();
        let kp = reg.register(ReplicaId(1));
        let digest = Digest::of(&"hello".to_string());
        let sig = kp.sign(&digest);
        assert!(reg.verify(&digest, &sig));
    }

    #[test]
    fn verification_fails_for_wrong_digest_or_signer() {
        let reg = KeyRegistry::new();
        let kp1 = reg.register(ReplicaId(1));
        reg.register(ReplicaId(2));
        let digest = Digest::of(&1u64);
        let other = Digest::of(&2u64);
        let sig = kp1.sign(&digest);
        assert!(!reg.verify(&other, &sig));
        // Claiming another signer with the same tag must fail.
        let forged = Signature { signer: ReplicaId(2), ..sig };
        assert!(!reg.verify(&digest, &forged));
    }

    #[test]
    fn unregistered_signer_is_rejected() {
        let reg = KeyRegistry::new();
        let rogue_reg = KeyRegistry::new();
        let rogue = rogue_reg.register(ReplicaId(9));
        let digest = Digest::of(&3u64);
        let sig = rogue.sign(&digest);
        // The thread's memo holds the tag, but under the rogue's registry only.
        assert!(memo_holds(&rogue_reg, 9, &digest) && !memo_holds(&reg, 9, &digest));
        assert!(!reg.verify(&digest, &sig));
        assert!(!reg.is_registered(ReplicaId(9)));
        assert!(rogue_reg.verify(&digest, &sig));
    }

    #[test]
    fn two_registries_on_one_thread_never_answer_each_others_lookups() {
        let (a, b) = (KeyRegistry::new(), KeyRegistry::new());
        // Replica 3's secret is derived from its id, so both registries hold it.
        let a3 = a.register(ReplicaId(3));
        b.register(ReplicaId(3));
        let digest = Digest::of(&14u64);
        let sig = a3.sign(&digest);
        assert!(memo_holds(&a, 3, &digest) && !memo_holds(&b, 3, &digest));
        let before = tag_memo_stats();
        assert!(b.verify(&digest, &sig));
        let after = tag_memo_stats();
        assert_eq!((after.hits, after.misses), (before.hits, before.misses + 1), "B computed it");
        // Each answers from its own entry now; a forgery fails under both.
        let forged = Signature { tag: [7; 32], ..sig };
        for reg in [&a, &b] {
            assert!(memo_holds(reg, 3, &digest));
            assert!(reg.verify(&digest, &sig) && !reg.verify(&digest, &forged));
        }
        assert_eq!(tag_memo_stats().misses, after.misses, "both answered by the memo");
    }

    #[test]
    fn a_signature_made_on_one_thread_verifies_on_another_through_a_miss() {
        let reg = KeyRegistry::new();
        let kp = reg.register(ReplicaId(6));
        let digest = Digest::of(&15u64);
        let sig = kp.sign(&digest);
        let mut forged = sig;
        forged.tag[0] ^= 1;
        assert!(reg.verify(&digest, &sig) && !reg.verify(&digest, &forged));
        let other = reg.clone();
        std::thread::spawn(move || {
            assert!(!memo_holds(&other, 6, &digest), "another thread's memo is its own");
            let before = tag_memo_stats();
            // The first lookup misses and computes the tag from the secret,
            // not from the forgery it was asked about.
            assert!(!other.verify(&digest, &forged));
            assert!(other.verify(&digest, &sig) && !other.verify(&digest, &forged));
            let after = tag_memo_stats();
            assert_eq!((after.hits - before.hits, after.misses - before.misses), (2, 1));
            assert_eq!(after.signed, before.signed, "nothing was signed on this thread");
        })
        .join()
        .expect("the verifying thread panicked");
        assert!(reg.verify(&digest, &sig) && !reg.verify(&digest, &forged));
    }

    fn memo_holds(reg: &KeyRegistry, signer: u32, digest: &Digest) -> bool {
        generation_of(reg, signer, digest).is_some()
    }

    /// `(current, previous)` generation sizes of the calling thread's memo.
    fn generations() -> (usize, usize) {
        MEMO.with_borrow(|memo| (memo.current.len(), memo.previous.len()))
    }

    /// Which generation of the calling thread's memo holds `(signer, digest)`
    /// under `reg`: 0 current, 1 previous.
    fn generation_of(reg: &KeyRegistry, signer: u32, digest: &Digest) -> Option<usize> {
        let key = TagKey { registry: reg.inner.id, signer: ReplicaId(signer), digest: digest.0 };
        MEMO.with_borrow(|memo| {
            [&memo.current, &memo.previous].iter().position(|g| g.contains_key(&key))
        })
    }

    /// Tags the calling thread's memo holds under `reg`.
    fn entries_of(reg: &KeyRegistry) -> usize {
        MEMO.with_borrow(|memo| {
            let keys = memo.current.keys().chain(memo.previous.keys());
            keys.filter(|key| key.registry == reg.inner.id).count()
        })
    }

    /// `n` distinct digests, none equal to another `tag`'s or to a
    /// `Digest::of` a plain integer.
    fn digests(tag: u64, n: usize) -> Vec<Digest> {
        (0..n as u64).map(|i| Digest::of(&(tag, i))).collect()
    }

    #[test]
    fn tag_memo_never_validates_forged_tags() {
        let reg = KeyRegistry::new();
        let kp = reg.register(ReplicaId(1));
        let digest = Digest::of(&5u64);
        // Signing seeds the memo, so the very first verification of this
        // (signer, digest) — here of a forged tag — is already a memo hit.
        let good = kp.sign(&digest);
        assert!(memo_holds(&reg, 1, &digest));
        let forged = Signature { signer: ReplicaId(1), tag: [0u8; 32] };
        assert!(!reg.verify(&digest, &forged));
        assert!(reg.verify(&digest, &good));
        // The rejected forgery left the memo's entry as it was.
        assert!(!reg.verify(&digest, &forged));
        // A forgery for a digest nobody signed goes through the miss path, which
        // memoises the registry-derived tag, not the forged one.
        let unsigned = Digest::of(&6u64);
        assert!(!reg.verify(&unsigned, &forged));
        assert!(memo_holds(&reg, 1, &unsigned));
        assert!(!reg.verify(&unsigned, &forged));
        assert!(reg.verify(&unsigned, &kp.sign(&unsigned)));
    }

    #[test]
    fn a_keypair_signs_into_its_own_registry_only() {
        let a = KeyRegistry::new();
        let b = KeyRegistry::new();
        let a9 = a.register(ReplicaId(9));
        let b1 = b.register(ReplicaId(1));
        let digest = Digest::of(&7u64);
        let sig = a9.sign(&digest);
        assert!(memo_holds(&a, 9, &digest) && a.verify(&digest, &sig));
        // Registry B never registered replica 9: nothing A's keypair signs
        // validates there, and signing left nothing under B.
        assert_eq!(entries_of(&b), 0, "a foreign sign must not seed");
        assert!(!b.verify(&digest, &sig));
        assert!(!memo_holds(&b, 9, &digest));
        // A clone of the keypair still signs into A.
        let other = Digest::of(&8u64);
        let sig = a9.clone().sign(&other);
        assert!(memo_holds(&a, 9, &other) && !memo_holds(&b, 9, &other));
        assert!(a.verify(&other, &sig) && !b.verify(&other, &sig));
        // A's signs roll the thread's generations many times over. B learns
        // none of A's tags, and its own tag, rolled out with the rest, is
        // recomputed from B's secret.
        let mine = b1.sign(&digest);
        for d in digests(1, 5 * TAG_GENERATION) {
            assert!(!b.verify(&d, &a9.sign(&d)));
        }
        assert_eq!(entries_of(&b), 0);
        let before = tag_memo_stats();
        assert!(b.verify(&digest, &mine));
        assert_eq!(tag_memo_stats().misses, before.misses + 1);
        assert_eq!(generation_of(&b, 1, &digest), Some(0), "the miss put it back");
        assert!(!a.verify(&digest, &mine), "A never registered B's replica 1");
    }

    #[test]
    fn the_memo_never_holds_more_than_two_generations() {
        let reg = KeyRegistry::new();
        let kp = reg.register(ReplicaId(0));
        let before = tag_memo_stats();
        let n = 40 * TAG_GENERATION;
        for d in digests(2, n) {
            kp.sign(&d);
            let (current, previous) = generations();
            assert!(current <= TAG_GENERATION && previous <= TAG_GENERATION);
        }
        assert_eq!(generations(), (TAG_GENERATION, TAG_GENERATION));
        // A roll at every TAG_GENERATION-th sign after the first generation.
        let rolls = (n / TAG_GENERATION - 1) as u64;
        assert_eq!(tag_memo_stats().generations_retired - before.generations_retired, rolls);
    }

    #[test]
    fn a_tag_signed_one_generation_back_verifies_without_an_hmac() {
        let reg = KeyRegistry::new();
        let kp = reg.register(ReplicaId(4));
        let old = Digest::of(&"old".to_string());
        let sig = kp.sign(&old);
        // The generation `old` is in fills up, and the next sign rolls it.
        let later = digests(3, 2 * TAG_GENERATION);
        for d in &later[..TAG_GENERATION] {
            kp.sign(d);
        }
        assert_eq!(generation_of(&reg, 4, &old), Some(1));
        let before = tag_memo_stats();
        assert!(reg.verify(&old, &sig));
        let after = tag_memo_stats();
        assert_eq!((after.hits, after.misses), (before.hits + 1, before.misses), "no MAC");
        // One generation further on it is gone: the verifier recomputes it.
        for d in &later[TAG_GENERATION..] {
            kp.sign(d);
        }
        assert_eq!(generation_of(&reg, 4, &old), None);
        assert!(reg.verify(&old, &sig));
        assert_eq!(tag_memo_stats().misses, after.misses + 1);
        assert_eq!(generation_of(&reg, 4, &old), Some(0), "the miss put it back");
    }

    #[test]
    fn a_forged_tag_is_rejected_on_every_memo_path() {
        let reg = KeyRegistry::new();
        let kp = reg.register(ReplicaId(2));
        let forge = |mut sig: Signature| {
            sig.tag[0] ^= 1;
            sig
        };
        let old = Digest::of(&10u64);
        let old_sig = kp.sign(&old);
        for d in digests(4, TAG_GENERATION) {
            kp.sign(&d);
        }
        let new = Digest::of(&11u64);
        let new_sig = kp.sign(&new);
        // Replica 2's secret is derived from its id, so another registry signs
        // the genuine tag of a digest this registry's memo has never seen.
        let unseen = Digest::of(&12u64);
        let unseen_sig = KeyRegistry::new().register(ReplicaId(2)).sign(&unseen);
        let paths = [(new, new_sig, Some(0)), (old, old_sig, Some(1)), (unseen, unseen_sig, None)];
        for (digest, sig, generation) in paths {
            assert_eq!(generation_of(&reg, 2, &digest), generation);
            let before = tag_memo_stats();
            assert!(!reg.verify(&digest, &forge(sig)), "forgery on path {generation:?}");
            let after = tag_memo_stats();
            let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
            assert_eq!((hits, misses), if generation.is_some() { (1, 0) } else { (0, 1) });
            // The rejection left the registry's own tag behind, never the forged one.
            assert!(reg.verify(&digest, &sig) && !reg.verify(&digest, &forge(sig)));
            assert_eq!(tag_memo_stats().misses, after.misses, "both answered by the memo");
        }
    }

    #[test]
    fn memo_reset_at_capacity_loses_no_correctness() {
        let reg = KeyRegistry::new();
        let kps: Vec<Keypair> = (0..3).map(|i| reg.register(ReplicaId(i))).collect();
        // Far more (signer, digest) pairs than the (test-sized) memo holds, so its
        // generations roll many times over, between a sign and its verification too.
        let digests: Vec<Digest> =
            (0..10 * TAG_GENERATION as u64).map(|i| Digest::of(&i)).collect();
        let sigs: Vec<Vec<Signature>> =
            kps.iter().map(|kp| digests.iter().map(|d| kp.sign(d)).collect()).collect();
        let bounded = |(current, previous)| current <= TAG_GENERATION && previous <= TAG_GENERATION;
        assert!(bounded(generations()));
        for (signer, sigs) in sigs.iter().enumerate() {
            for (i, (digest, sig)) in digests.iter().zip(sigs).enumerate() {
                assert!(reg.verify(digest, sig), "genuine signature {i} of signer {signer}");
                let mut forged = *sig;
                forged.tag[i % 32] ^= 1;
                assert!(!reg.verify(digest, &forged), "forged tag {i} of signer {signer}");
                let misattributed =
                    Signature { signer: ReplicaId((signer as u32 + 1) % 3), ..*sig };
                assert!(!reg.verify(digest, &misattributed));
                assert!(bounded(generations()));
            }
        }
    }

    #[test]
    fn a_signature_tag_is_the_keyed_blake2s_of_the_digest() {
        let reg = KeyRegistry::new();
        for id in [0, 1, 41] {
            let kp = reg.register(ReplicaId(id));
            let key = Blake2sKey::new(&secret_of(ReplicaId(id)));
            for digest in [Digest::of(&0u64), Digest::of(&"round".to_string())] {
                assert_eq!(kp.sign(&digest).tag, key.mac(&digest.0), "replica {id}");
            }
        }
    }

    #[test]
    fn replica_0_signs_the_known_answer_tag() {
        // The key of `blake2s.rs`'s known answers is this derived secret, and
        // the tag is Python's `hashlib.blake2s(bytes(32), key=secret)`.
        let hex = |bytes: &[u8]| bytes.iter().map(|b| format!("{b:02x}")).collect::<String>();
        assert_eq!(
            hex(&secret_of(ReplicaId(0))),
            "5e838ffc91e3fdc30256921a238d0ff615097dfd2c2206bf1eacfeb779558b2a"
        );
        let sig = KeyRegistry::new().register(ReplicaId(0)).sign(&Digest([0; 32]));
        assert_eq!(
            hex(&sig.tag),
            "709db9ef43d4280d6f6b65d184f577afaecfcef4aa5e32cf5e0bec3af70f23ea"
        );
    }

    #[test]
    fn one_sign_computes_one_tag_and_no_verification() {
        let reg = KeyRegistry::new();
        let kp = reg.register(ReplicaId(5));
        let before = tag_memo_stats();
        let sig = kp.sign(&Digest::of(&13u64));
        let after = tag_memo_stats();
        assert_eq!(after.signed, before.signed + 1);
        assert_eq!((after.hits, after.misses), (before.hits, before.misses));
        // Verifying it is a memo hit: no tag is computed on either count.
        assert!(reg.verify(&Digest::of(&13u64), &sig));
        let verified = tag_memo_stats();
        assert_eq!((verified.signed, verified.misses), (after.signed, after.misses));
        assert_eq!(verified.hits, after.hits + 1);
    }

    #[test]
    fn registry_counts_keys() {
        let reg = KeyRegistry::new();
        assert!(reg.is_empty());
        reg.register(ReplicaId(0));
        reg.register(ReplicaId(1));
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn debug_does_not_leak_secret() {
        let reg = KeyRegistry::new();
        let kp = reg.register(ReplicaId(3));
        let s = format!("{kp:?}");
        assert!(s.contains("p3"));
        assert!(!s.contains("secret"));
    }
}

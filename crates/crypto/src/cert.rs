//! Signature sets and quorum certificates.
//!
//! Hamava's inter-cluster messages carry certificates proving that a payload was
//! approved by a quorum of the originating cluster: commit certificates from the
//! local total-order broadcast, the BRD certificates `Σ` (collected from a quorum)
//! and `Σ'` (voted for delivery), and the complaint signature sets of the remote
//! leader change. All of them are a [`SigSet`] over a digest, and validity is always
//! judged against the membership of the *claimed* cluster.

use crate::keys::{KeyRegistry, Signature};
use crate::sha256::Digest;
use ava_types::{ClusterId, Encode, EncodeSink, ReplicaId};
use std::cell::Cell;
use std::fmt;
use std::sync::OnceLock;

/// A set of signatures over a single digest, at most one per signer.
///
/// Held as a vector sorted by signer: a set has a few dozen signers at most, so
/// a binary search finds one, and a set kept in a certificate is one
/// allocation of exactly its signatures ([`QuorumCert::new`] trims it).
/// Iteration and [`Encode`] go in ascending signer order.
#[derive(Clone, PartialEq, Eq, Default, Debug)]
pub struct SigSet {
    sigs: Vec<Signature>,
}

impl SigSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty set with room for `signers` signatures: a vote table that knows
    /// its membership fills it without reallocating.
    pub fn with_capacity(signers: usize) -> Self {
        SigSet { sigs: Vec::with_capacity(signers) }
    }

    /// Insert a signature (replaces any previous signature by the same signer).
    pub fn insert(&mut self, sig: Signature) {
        match self.position(sig.signer) {
            Ok(at) => self.sigs[at] = sig,
            Err(at) => self.sigs.insert(at, sig),
        }
    }

    fn position(&self, signer: ReplicaId) -> Result<usize, usize> {
        self.sigs.binary_search_by_key(&signer, |sig| sig.signer)
    }

    /// Number of distinct signers.
    pub fn len(&self) -> usize {
        self.sigs.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.sigs.is_empty()
    }

    /// Whether `signer` has signed.
    pub fn contains(&self, signer: ReplicaId) -> bool {
        self.position(signer).is_ok()
    }

    /// The signers, in ascending id order.
    pub fn signers(&self) -> Vec<ReplicaId> {
        self.sigs.iter().map(|sig| sig.signer).collect()
    }

    /// Iterate over the signatures, in ascending signer order.
    pub fn iter(&self) -> impl Iterator<Item = &Signature> {
        self.sigs.iter()
    }

    /// Count how many signatures verify over `digest`, only counting signers in
    /// `allowed` (the membership of the claimed cluster).
    pub fn count_valid(
        &self,
        registry: &KeyRegistry,
        digest: &Digest,
        allowed: &[ReplicaId],
    ) -> usize {
        self.sigs
            .iter()
            .filter(|sig| allowed.contains(&sig.signer) && registry.verify(digest, sig))
            .count()
    }

    /// Merge another signature set into this one.
    pub fn merge(&mut self, other: &SigSet) {
        for sig in other.iter() {
            self.insert(*sig);
        }
    }
}

impl Encode for SigSet {
    fn encode(&self, out: &mut dyn EncodeSink) {
        (self.sigs.len() as u64).encode(out);
        for sig in &self.sigs {
            sig.encode(out);
        }
    }
}

impl FromIterator<Signature> for SigSet {
    fn from_iter<I: IntoIterator<Item = Signature>>(iter: I) -> Self {
        let mut set = SigSet::new();
        for sig in iter {
            set.insert(sig);
        }
        set
    }
}

/// A certificate that a quorum of a specific cluster signed a digest.
///
/// This is the unit attached to operations in inter-cluster messages (Alg. 1: "a
/// certificate for an operation contains at least `2·f_i + 1` signatures").
///
/// Verification carries a verdict memo: when the same certificate value is
/// shared by reference across many verifiers (the `Arc`-shared round packages of
/// the Stage 2 fan-out, a HotStuff phase certificate sent to every member), only
/// the first verifier pays the per-signature lookups for a given `(registry,
/// members, threshold)` context; the rest hit the memo. The memo keeps the
/// *first* verdict and that context exactly (a copy of the member list, not a
/// hash of it), so a hit can only replay a verdict computed for the identical
/// question; a verification in another context recomputes and stores nothing.
/// The memo is a `OnceLock`, so a hit takes no lock and the certificate stays
/// `Sync`. It does not participate in equality, hashing or encoding.
///
/// The fields are private and immutable after [`QuorumCert::new`]: the memo
/// key leaves the digest and the signatures out, so a certificate whose content
/// could be rewritten after a verdict (a clone carries the verdict) would replay
/// it for content nobody checked.
#[derive(Clone)]
pub struct QuorumCert {
    cluster: ClusterId,
    digest: Digest,
    sigs: SigSet,
    /// The context and verdict of the first `is_valid` evaluation.
    verdict: OnceLock<Verdict>,
}

/// One `is_valid` answer and the exact context it was computed for. The
/// expected digest needs no place here: `is_valid` only gets this far when it
/// equals the certificate's own. 32 bytes: every certificate a replica
/// keeps carries one.
#[derive(Clone)]
struct Verdict {
    members: Box<[ReplicaId]>,
    threshold: usize,
    registry: u32,
    valid: bool,
}

/// What the certificate verdict memos did on the calling thread since it
/// started: `is_valid` answers replayed from a memo, and answers computed
/// (one signature check per signature each). Answers refused before the memo
/// (a digest other than the certificate's own) count as neither.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct VerdictStats {
    /// Answers replayed from a certificate's memo.
    pub hits: u64,
    /// Answers computed from the signatures.
    pub misses: u64,
}

thread_local! {
    static VERDICTS: Cell<VerdictStats> = const { Cell::new(VerdictStats { hits: 0, misses: 0 }) };
}

/// What every certificate's verdict memo did on the calling thread since the
/// thread started. For profiles and tests: nothing in a run depends on it.
pub fn verdict_stats() -> VerdictStats {
    VERDICTS.get()
}

fn count(bump: impl FnOnce(&mut VerdictStats)) {
    VERDICTS.with(|cell| {
        let mut stats = cell.get();
        bump(&mut stats);
        cell.set(stats);
    });
}

impl QuorumCert {
    /// Build a certificate from parts. The signature set is trimmed to its
    /// length: a certificate lives as long as the block or package it
    /// certifies, while the set was grown vote by vote.
    pub fn new(cluster: ClusterId, digest: Digest, mut sigs: SigSet) -> Self {
        sigs.sigs.shrink_to_fit();
        QuorumCert { cluster, digest, sigs, verdict: OnceLock::new() }
    }

    /// The cluster whose quorum signed.
    pub fn cluster(&self) -> ClusterId {
        self.cluster
    }

    /// The signed digest.
    pub fn digest(&self) -> &Digest {
        &self.digest
    }

    /// The signatures.
    pub fn sigs(&self) -> &SigSet {
        &self.sigs
    }

    /// Verify that the certificate carries at least `threshold` valid signatures from
    /// members of `members` over `expected` (which must equal the certificate's
    /// digest).
    pub fn is_valid(
        &self,
        registry: &KeyRegistry,
        expected: &Digest,
        members: &[ReplicaId],
        threshold: usize,
    ) -> bool {
        if self.digest != *expected {
            return false;
        }
        let registry_id = registry.instance_id();
        if let Some(v) = self.verdict.get() {
            if v.registry == registry_id && v.threshold == threshold && *v.members == *members {
                count(|stats| stats.hits += 1);
                return v.valid;
            }
        }
        count(|stats| stats.misses += 1);
        let valid = self.sigs.count_valid(registry, expected, members) >= threshold;
        // The first verdict stays; checking first only saves copying the members.
        if self.verdict.get().is_none() {
            let members = members.into();
            let _ = self.verdict.set(Verdict { members, threshold, registry: registry_id, valid });
        }
        valid
    }

    /// Number of signatures carried (valid or not).
    pub fn signature_count(&self) -> usize {
        self.sigs.len()
    }
}

impl PartialEq for QuorumCert {
    fn eq(&self, other: &Self) -> bool {
        self.cluster == other.cluster && self.digest == other.digest && self.sigs == other.sigs
    }
}

impl Eq for QuorumCert {}

impl fmt::Debug for QuorumCert {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QuorumCert")
            .field("cluster", &self.cluster)
            .field("digest", &self.digest)
            .field("sigs", &self.sigs)
            .finish()
    }
}

impl Encode for QuorumCert {
    fn encode(&self, out: &mut dyn EncodeSink) {
        self.cluster.encode(out);
        self.digest.encode(out);
        self.sigs.encode(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::Keypair;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    fn setup(n: u32) -> (KeyRegistry, Vec<Keypair>, Vec<ReplicaId>) {
        let reg = KeyRegistry::new();
        let kps: Vec<Keypair> = (0..n).map(|i| reg.register(ReplicaId(i))).collect();
        let ids: Vec<ReplicaId> = (0..n).map(ReplicaId).collect();
        (reg, kps, ids)
    }

    #[test]
    fn sigset_deduplicates_signers() {
        let (_, kps, _) = setup(2);
        let digest = Digest::of(&1u64);
        let mut set = SigSet::new();
        set.insert(kps[0].sign(&digest));
        set.insert(kps[0].sign(&digest));
        set.insert(kps[1].sign(&digest));
        assert_eq!(set.len(), 2);
        assert!(set.contains(ReplicaId(0)));
    }

    #[test]
    fn count_valid_ignores_outsiders_and_bad_sigs() {
        let (reg, kps, ids) = setup(4);
        let digest = Digest::of(&7u64);
        let other = Digest::of(&8u64);
        let mut set = SigSet::new();
        set.insert(kps[0].sign(&digest));
        set.insert(kps[1].sign(&other)); // wrong digest
        set.insert(kps[3].sign(&digest));
        // Only members 0..3 allowed: kps[3] excluded.
        assert_eq!(set.count_valid(&reg, &digest, &ids[..3]), 1);
        assert_eq!(set.count_valid(&reg, &digest, &ids), 2);
    }

    #[test]
    fn quorum_cert_valid_iff_threshold_met() {
        let (reg, kps, ids) = setup(4); // f=1, quorum=3
        let digest = Digest::of(&"ops".to_string());
        let sigs: SigSet = kps[..3].iter().map(|kp| kp.sign(&digest)).collect();
        let cert = QuorumCert::new(ClusterId(0), digest, sigs);
        assert!(cert.is_valid(&reg, &digest, &ids, 3));
        assert!(!cert.is_valid(&reg, &digest, &ids, 4));
        assert!(!cert.is_valid(&reg, &Digest::of(&"other".to_string()), &ids, 3));
        assert_eq!(cert.signature_count(), 3);
    }

    #[test]
    fn stale_threshold_attack_is_rejected_with_updated_membership() {
        // Section II-B attack: after C1 grows from 4 to 7 replicas (f': 2, quorum 5),
        // a certificate with only 3 signatures must be rejected by a replica that has
        // applied the reconfiguration, even though 3 was a quorum for the old size.
        let (reg, kps, _) = setup(7);
        let digest = Digest::of(&"forged-ops".to_string());
        let sigs: SigSet = kps[..3].iter().map(|kp| kp.sign(&digest)).collect();
        let cert = QuorumCert::new(ClusterId(0), digest, sigs);
        let new_members: Vec<ReplicaId> = (0..7).map(ReplicaId).collect();
        let old_quorum = 3;
        let new_quorum = 5;
        assert!(cert.is_valid(&reg, &digest, &new_members, old_quorum));
        assert!(!cert.is_valid(&reg, &digest, &new_members, new_quorum));
    }

    #[test]
    fn the_verdict_memo_misses_on_another_member_list_of_the_same_size() {
        let (reg, kps, ids) = setup(4);
        let digest = Digest::of(&"package".to_string());
        let sigs: SigSet = kps[..3].iter().map(|kp| kp.sign(&digest)).collect();
        let cert = QuorumCert::new(ClusterId(0), digest, sigs);
        let signers = &ids[..3];
        let other = [ids[0], ids[1], ids[3]];
        let memo = || cert.verdict.get().map(|v| (v.members.to_vec(), v.valid));
        let before = verdict_stats();
        assert!(cert.is_valid(&reg, &digest, signers, 3));
        assert_eq!(memo(), Some((signers.to_vec(), true)));
        // Same length and threshold, one member swapped: recomputed, not
        // replayed, and the first verdict stays.
        assert!(!cert.is_valid(&reg, &digest, &other, 3));
        assert_eq!(memo(), Some((signers.to_vec(), true)));
        assert!(!cert.is_valid(&reg, &digest, &other, 3));
        assert!(cert.is_valid(&reg, &digest, signers, 3));
        let after = verdict_stats();
        assert_eq!((after.hits - before.hits, after.misses - before.misses), (1, 3));
    }

    #[test]
    fn a_clone_keeps_its_verdict_and_a_rebuilt_forgery_fails() {
        let (reg, kps, ids) = setup(4);
        let digest = Digest::of(&"block".to_string());
        let sigs: SigSet = kps[..3].iter().map(|kp| kp.sign(&digest)).collect();
        let cert = QuorumCert::new(ClusterId(2), digest, sigs);
        assert!(cert.is_valid(&reg, &digest, &ids, 3));
        let before = verdict_stats();
        let clone = cert.clone();
        assert!(clone.is_valid(&reg, &digest, &ids, 3));
        assert_eq!(verdict_stats().hits, before.hits + 1, "the clone replayed the verdict");
        // The same certificate with one signature's tag forged can only be
        // built anew, with no verdict: it is checked, and fails.
        let mut sigs = clone.sigs().clone();
        let mut forged = *sigs.iter().next().expect("three signatures");
        forged.tag[0] ^= 1;
        sigs.insert(forged);
        let rebuilt = QuorumCert::new(clone.cluster(), *clone.digest(), sigs);
        assert_eq!(rebuilt, QuorumCert::new(ClusterId(2), digest, rebuilt.sigs().clone()));
        assert_ne!(rebuilt, cert);
        assert!(!rebuilt.is_valid(&reg, &digest, &ids, 3));
        assert!(rebuilt.is_valid(&reg, &digest, &ids, 2), "two genuine signatures remain");
        assert_eq!(verdict_stats().misses, before.misses + 2);
    }

    #[test]
    fn a_certificate_holds_exactly_its_signatures() {
        let (_, kps, _) = setup(22);
        let digest = Digest::of(&"block".to_string());
        for q in 1..=kps.len() {
            // Votes arrive one at a time, in no particular order, into a set
            // grown vote by vote or sized for the whole membership.
            for mut votes in [SigSet::new(), SigSet::with_capacity(kps.len())] {
                for kp in kps[..q].iter().rev() {
                    votes.insert(kp.sign(&digest));
                }
                let cert = QuorumCert::new(ClusterId(0), digest, votes);
                assert_eq!((cert.sigs().sigs.len(), cert.sigs().sigs.capacity()), (q, q));
                assert_eq!(cert.clone().sigs().sigs.capacity(), q, "a clone is exact too");
            }
        }
    }

    /// `set` answers every query and encodes as the map `model` does.
    fn assert_same(set: &SigSet, model: &BTreeMap<ReplicaId, Signature>, signers: u32) {
        assert_eq!((set.len(), set.is_empty()), (model.len(), model.is_empty()));
        assert_eq!(set.signers(), model.keys().copied().collect::<Vec<_>>());
        assert!(set.iter().eq(model.values()), "iteration in ascending signer order");
        for id in (0..=signers).map(ReplicaId) {
            assert_eq!(set.contains(id), model.contains_key(&id));
        }
        let mut expected = Vec::new();
        (model.len() as u64).encode(&mut expected);
        model.values().for_each(|sig| sig.encode(&mut expected));
        let mut bytes = Vec::new();
        set.encode(&mut bytes);
        assert_eq!(bytes, expected);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn sigset_behaves_as_a_map_by_signer(seed in 0u64..1_000_000, n in 0usize..80) {
            const SIGNERS: u32 = 12;
            let (_, kps, _) = setup(SIGNERS);
            let mut rng = StdRng::seed_from_u64(seed);
            // Few digests, so a signer often re-signs: an insert that replaces.
            let sign = |rng: &mut StdRng| {
                let kp = &kps[rng.gen_range(0..SIGNERS) as usize];
                kp.sign(&Digest::of(&rng.gen_range(0..3u64)))
            };
            let (mut set, mut model) = (SigSet::new(), BTreeMap::new());
            let (mut other, mut other_model) = (SigSet::new(), BTreeMap::new());
            let mut drawn = Vec::new();
            for _ in 0..n {
                let sig = sign(&mut rng);
                drawn.push(sig);
                match rng.gen_range(0..4u32) {
                    0 | 1 => {
                        set.insert(sig);
                        model.insert(sig.signer, sig);
                    }
                    2 => {
                        other.insert(sig);
                        other_model.insert(sig.signer, sig);
                    }
                    _ => {
                        set.merge(&other);
                        model.extend(other_model.iter().map(|(k, v)| (*k, *v)));
                    }
                }
                assert_same(&set, &model, SIGNERS);
                assert_same(&other, &other_model, SIGNERS);
            }
            // Collecting keeps the last signature of each signer, as inserting does.
            let collected: SigSet = drawn.iter().copied().collect();
            let collected_model: BTreeMap<_, _> = drawn.iter().map(|sig| (sig.signer, *sig)).collect();
            assert_same(&collected, &collected_model, SIGNERS);
            let cert = QuorumCert::new(ClusterId(1), Digest::of(&seed), collected.clone());
            prop_assert_eq!(cert.sigs(), &collected);
        }
    }

    #[test]
    fn merge_unions_signers() {
        let (_, kps, _) = setup(3);
        let digest = Digest::of(&1u64);
        let mut a: SigSet = kps[..1].iter().map(|kp| kp.sign(&digest)).collect();
        let b: SigSet = kps[1..].iter().map(|kp| kp.sign(&digest)).collect();
        a.merge(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.signers(), vec![ReplicaId(0), ReplicaId(1), ReplicaId(2)]);
    }
}

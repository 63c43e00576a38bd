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
use std::fmt;
use std::sync::Mutex;

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
/// Verification carries a single-entry memo: when the same certificate value is
/// shared by reference across many verifiers (the `Arc`-shared round packages of the
/// Stage 2 fan-out), only the first verifier pays the per-signature HMAC cost for a
/// given `(registry, digest, members, threshold)` context; the rest hit the memo.
/// The memo is interior state only — it does not participate in equality, hashing or
/// encoding; the `Mutex` keeps the certificate `Sync` (it is uncontended in the
/// single-threaded simulator).
pub struct QuorumCert {
    /// The cluster whose quorum signed.
    pub cluster: ClusterId,
    /// The signed digest.
    pub digest: Digest,
    /// The signatures.
    pub sigs: SigSet,
    /// `(context key, verdict)` of the most recent `is_valid` evaluation.
    valid_memo: Mutex<Option<(u64, bool)>>,
}

impl Clone for QuorumCert {
    fn clone(&self) -> Self {
        QuorumCert {
            cluster: self.cluster,
            digest: self.digest,
            sigs: self.sigs.clone(),
            valid_memo: Mutex::new(*self.valid_memo.lock().expect("memo lock poisoned")),
        }
    }
}

/// FNV-1a over the full verification context, so a memo hit can only replay a
/// verdict computed for the identical question.
fn memo_key(registry: &KeyRegistry, expected: &Digest, members: &[ReplicaId], t: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    mix(&registry.instance_id().to_le_bytes());
    mix(&expected.0);
    mix(&(t as u64).to_le_bytes());
    mix(&(members.len() as u64).to_le_bytes());
    for m in members {
        mix(&m.0.to_le_bytes());
    }
    h
}

impl QuorumCert {
    /// Build a certificate from parts. The signature set is trimmed to its
    /// length: a certificate lives as long as the block or package it
    /// certifies, while the set was grown vote by vote.
    pub fn new(cluster: ClusterId, digest: Digest, mut sigs: SigSet) -> Self {
        sigs.sigs.shrink_to_fit();
        QuorumCert { cluster, digest, sigs, valid_memo: Mutex::new(None) }
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
        let key = memo_key(registry, expected, members, threshold);
        if let Some((cached_key, verdict)) = *self.valid_memo.lock().expect("memo lock poisoned") {
            if cached_key == key {
                return verdict;
            }
        }
        let verdict = self.sigs.count_valid(registry, expected, members) >= threshold;
        *self.valid_memo.lock().expect("memo lock poisoned") = Some((key, verdict));
        verdict
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
                assert_eq!((cert.sigs.sigs.len(), cert.sigs.sigs.capacity()), (q, q));
                assert_eq!(cert.clone().sigs.sigs.capacity(), q, "a clone is exact too");
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
            prop_assert_eq!(&cert.sigs, &collected);
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

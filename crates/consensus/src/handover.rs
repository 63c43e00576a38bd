//! The leader hand-over both local protocols run when the regency changes:
//! what a member reports to the new leader, and how the leader turns a quorum
//! of reports into "the block I must adopt" and "the blocks I must re-propose".
//! [`crate::regency`] drives it for both.
//!
//! Without it a leader change mid-commit forks the log: replicas that already
//! delivered height `h` keep their block, the rest follow the new leader's
//! *different* block at `h`, and both carry a valid quorum certificate. The
//! hand-over is PBFT's view change (BFT-SMaRt's synchronization phase) cut
//! down to this workspace's one-decision-at-a-time protocols.
//!
//! **Safety in five lines.** A block `B` is decided at height `h` in regency
//! `r` only once `2f + 1` members cast their final vote for it, so at least
//! `f + 1` *honest* members hold a [`Prepared`] proof for `(B, r)` — and keep it
//! until they deliver `h`. The new leader proposes nothing until it holds
//! `2f + 1` reports; any such set intersects those `f + 1` honest members.
//! The one in the intersection reports either a decided block at or above `h`
//! (the leader adopts it and never proposes at `h`) or its proof for `B`, and
//! by induction over regencies no proof at `h` with a regency above `r` names
//! a different block — so the highest-regency proof at `h` is `B`, and `B` is
//! what the leader re-proposes.
//!
//! **What a Byzantine member can do through a report.** Withhold it (it then
//! counts as silent; the argument above needs only the honest ones). Report a
//! genuine but stale decided block or proof (harmless: a lower height is
//! ignored, a lower regency loses to the honest proof). It cannot make the
//! leader adopt or re-propose a block the cluster never voted for: a decided
//! block needs `2f + 1` commit signatures over its digest, a proof `2f + 1`
//! signatures over [`prepared_digest`] — the digest *and the regency* — and a
//! report with any evidence that fails to verify is discarded whole. What the
//! hand-over does **not** defend against is a Byzantine *new leader*: members
//! do not check that its first proposal follows from the reports (PBFT's
//! new-view certificate), so that remains out of scope with the rest of the
//! local protocols' Byzantine-leader behaviour.

use crate::block::{Block, CommittedBlock};
use crate::tob::TobConfig;
use ava_crypto::{Digest, KeyRegistry, SigSet};
use ava_types::{ClusterId, ReplicaId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// What the votes of the phases *before* the final one sign: the block digest
/// bound to the regency it was proposed in. Only final-phase votes sign the bare
/// digest, so only they can ever form the commit certificate that leaves the
/// cluster — and a [`Prepared`] proof cannot be passed off under another regency.
///
/// The binding is an XOR of a tag and the regency into the digest's leading
/// bytes, not a second hash (every member derives this once per decision): two
/// `(digest, regency)` pairs collide, or one collides with a bare block digest,
/// only if some block hashes to a chosen 32-byte value — a SHA-256 preimage.
pub fn prepared_digest(block: &Digest, regency: u64) -> Digest {
    let mut signed = *block;
    let regency = regency.to_le_bytes();
    for (byte, bound) in signed.0.iter_mut().zip(b"prepared".iter().chain(&regency)) {
        *byte ^= bound;
    }
    signed
}

/// Proof that a quorum accepted `block` as the proposal of `regency`: the
/// precondition of a member's final vote, kept until the height is delivered.
#[derive(Clone, Debug)]
pub struct Prepared {
    /// The block.
    pub block: Arc<Block>,
    /// The regency it was proposed and voted in.
    pub regency: u64,
    /// `2f + 1` signatures over [`prepared_digest`]`(block.digest(), regency)`.
    pub proof: SigSet,
}

/// A member's report to the leader of a new regency.
#[derive(Clone, Debug)]
pub struct Report {
    /// The regency being entered.
    pub regency: u64,
    /// The last block this member delivered, with its certificate.
    pub decided: Option<CommittedBlock>,
    /// Proofs for the undelivered heights it cast a final vote at.
    pub prepared: Vec<Prepared>,
}

impl Report {
    /// Approximate wire size in bytes.
    pub fn wire_size(&self) -> usize {
        64 + self.decided.as_ref().map_or(0, CommittedBlock::wire_size)
            + self.prepared.iter().map(|p| p.block.wire_size() + p.proof.len() * 48).sum::<usize>()
    }

    /// Signatures a verifier checks (for charging virtual CPU).
    pub fn signature_count(&self) -> usize {
        self.decided.as_ref().map_or(0, |d| d.cert.signature_count())
            + self.prepared.iter().map(|p| p.proof.len()).sum::<usize>()
    }

    /// Whether every piece of evidence verifies against `members`: the decided
    /// block exactly as a remote cluster would check it, each proof over the
    /// regency it claims.
    pub fn verify(
        &self,
        cluster: ClusterId,
        registry: &KeyRegistry,
        members: &[ReplicaId],
        quorum: usize,
    ) -> bool {
        let decided_ok = self
            .decided
            .as_ref()
            .is_none_or(|d| d.block.cluster == cluster && d.verify(registry, members, quorum));
        decided_ok
            && self.prepared.iter().all(|p| {
                let signed = prepared_digest(&p.block.digest(), p.regency);
                p.block.cluster == cluster
                    && p.proof.count_valid(registry, &signed, members) >= quorum
            })
    }
}

/// What a quorum of reports obliges the new leader to do.
#[derive(Debug, Default)]
pub struct Resolution {
    /// The highest decided block reported: adopt it if not yet delivered.
    pub decided: Option<CommittedBlock>,
    /// Per height above it, the block of the highest-regency proof: re-propose
    /// exactly these before anything fresh.
    pub carry: BTreeMap<u64, Arc<Block>>,
}

/// The new leader's collection of reports. Members enter a regency at
/// different moments, so a report may arrive before the leader itself has
/// entered: the latest report of each member is kept whatever its regency, and
/// only those of the regency being resolved count.
#[derive(Debug, Default)]
pub struct Reports {
    latest: BTreeMap<ReplicaId, Report>,
}

impl Reports {
    /// Keep `report` as `from`'s, unless `from` has reported for a later regency.
    /// The caller vouches for it: it is the leader's own, or was verified.
    pub fn insert(&mut self, from: ReplicaId, report: Report) {
        if self.latest.get(&from).is_none_or(|old| old.regency <= report.regency) {
            self.latest.insert(from, report);
        }
    }

    /// Verify member `from`'s `report` against `cfg`'s membership and keep it if
    /// every piece of evidence holds; returns whether it was kept.
    pub fn accept(
        &mut self,
        from: ReplicaId,
        report: Report,
        cfg: &TobConfig,
        registry: &KeyRegistry,
    ) -> bool {
        let valid = report.verify(cfg.cluster, registry, &cfg.members, cfg.quorum());
        if valid {
            self.insert(from, report);
        }
        valid
    }

    /// Once `quorum` members have reported for `regency`, fold their reports
    /// (consuming them) into what the leader must do; `None` until then.
    pub fn resolve(&mut self, regency: u64, quorum: usize) -> Option<Resolution> {
        if self.latest.values().filter(|r| r.regency == regency).count() < quorum {
            return None;
        }
        let mut decided: Option<CommittedBlock> = None;
        let mut proofs: BTreeMap<u64, Prepared> = BTreeMap::new();
        for report in std::mem::take(&mut self.latest).into_values() {
            if report.regency != regency {
                continue;
            }
            if let Some(d) = report.decided {
                if decided.as_ref().is_none_or(|best| best.block.height < d.block.height) {
                    decided = Some(d);
                }
            }
            for p in report.prepared {
                if proofs.get(&p.block.height).is_none_or(|best| best.regency < p.regency) {
                    proofs.insert(p.block.height, p);
                }
            }
        }
        let above = decided.as_ref().map_or(0, |d| d.block.height + 1);
        let carry = proofs.split_off(&above).into_iter().map(|(h, p)| (h, p.block)).collect();
        Some(Resolution { decided, carry })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ava_crypto::QuorumCert;
    use ava_types::{ClientId, Operation, Transaction};

    const CLUSTER: ClusterId = ClusterId(0);

    fn block(height: u64, seq: u64) -> Arc<Block> {
        let op = Operation::Trans(Transaction::write(ClientId(0), seq, seq, 64));
        Arc::new(Block::new(CLUSTER, height, ReplicaId(0), vec![op]))
    }

    struct Cluster {
        registry: KeyRegistry,
        keys: Vec<ava_crypto::Keypair>,
        members: Vec<ReplicaId>,
    }

    fn cluster() -> Cluster {
        let registry = KeyRegistry::new();
        let members: Vec<ReplicaId> = (0..4).map(ReplicaId).collect();
        let keys = members.iter().map(|&id| registry.register(id)).collect();
        Cluster { registry, keys, members }
    }

    impl Cluster {
        fn decided(&self, b: &Arc<Block>) -> CommittedBlock {
            let d = b.digest();
            let sigs = self.keys[..3].iter().map(|k| k.sign(&d)).collect();
            let cert = Arc::new(QuorumCert::new(CLUSTER, d, sigs));
            CommittedBlock { block: Arc::clone(b), cert }
        }

        fn prepared(&self, b: &Arc<Block>, regency: u64, signers: usize) -> Prepared {
            let d = prepared_digest(&b.digest(), regency);
            let proof = self.keys[..signers].iter().map(|k| k.sign(&d)).collect();
            Prepared { block: Arc::clone(b), regency, proof }
        }

        fn ok(&self, report: &Report) -> bool {
            report.verify(CLUSTER, &self.registry, &self.members, 3)
        }
    }

    #[test]
    fn a_proof_is_bound_to_its_regency_and_needs_a_quorum() {
        let c = cluster();
        let b = block(5, 1);
        let good = Report { regency: 3, decided: None, prepared: vec![c.prepared(&b, 2, 3)] };
        assert!(c.ok(&good));
        // The same signatures passed off as a later regency's do not verify.
        let mut relabelled = good.clone();
        relabelled.prepared[0].regency = 9;
        assert!(!c.ok(&relabelled));
        // Nor does a proof short of a quorum.
        let thin = Report { regency: 3, decided: None, prepared: vec![c.prepared(&b, 2, 2)] };
        assert!(!c.ok(&thin));
        // Commit signatures (bare digest) are not a proof either.
        let d = b.digest();
        let commits: SigSet = c.keys[..3].iter().map(|k| k.sign(&d)).collect();
        let forged = Report {
            regency: 3,
            decided: None,
            prepared: vec![Prepared { block: b, regency: 2, proof: commits }],
        };
        assert!(!c.ok(&forged));
    }

    #[test]
    fn a_decided_block_is_checked_like_a_remote_certificate() {
        let c = cluster();
        let b = block(4, 1);
        let mut report = Report { regency: 1, decided: Some(c.decided(&b)), prepared: vec![] };
        assert!(c.ok(&report));
        assert!(!report.verify(ClusterId(7), &c.registry, &c.members, 3));
        report.decided.as_mut().unwrap().block = block(4, 2);
        assert!(!c.ok(&report));
    }

    #[test]
    fn resolution_waits_for_a_quorum_of_the_regency() {
        let mut reports = Reports::default();
        let empty = |regency| Report { regency, decided: None, prepared: vec![] };
        reports.insert(ReplicaId(0), empty(2));
        reports.insert(ReplicaId(1), empty(2));
        reports.insert(ReplicaId(2), empty(1));
        assert!(reports.resolve(2, 3).is_none());
        // A later report replaces an earlier one; an earlier one never does.
        reports.insert(ReplicaId(2), empty(2));
        reports.insert(ReplicaId(1), empty(1));
        let resolution = reports.resolve(2, 3).expect("three reports for regency 2");
        assert!(resolution.decided.is_none() && resolution.carry.is_empty());
        assert!(reports.resolve(2, 1).is_none(), "reports are consumed");
    }

    #[test]
    fn resolution_adopts_the_highest_decision_and_carries_the_highest_regency_proof() {
        let c = cluster();
        let (b4, b5, b6, b6_stale) = (block(4, 1), block(5, 2), block(6, 3), block(6, 4));
        let mut reports = Reports::default();
        reports.insert(
            ReplicaId(0),
            Report { regency: 4, decided: Some(c.decided(&b4)), prepared: vec![] },
        );
        reports.insert(
            ReplicaId(1),
            Report {
                regency: 4,
                decided: Some(c.decided(&b5)),
                prepared: vec![c.prepared(&b6_stale, 1, 3)],
            },
        );
        reports.insert(
            ReplicaId(2),
            Report {
                regency: 4,
                decided: Some(c.decided(&b4)),
                // A proof at a height someone has since delivered is dropped.
                prepared: vec![c.prepared(&b5, 2, 3), c.prepared(&b6, 3, 3)],
            },
        );
        let resolution = reports.resolve(4, 3).unwrap();
        assert_eq!(resolution.decided.unwrap().block.digest(), b5.digest());
        assert_eq!(resolution.carry.len(), 1);
        assert_eq!(resolution.carry[&6].digest(), b6.digest());
    }
}

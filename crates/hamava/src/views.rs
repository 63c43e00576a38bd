//! The membership views a replica verifies remote traffic against: the current
//! [`Membership`] and, per cluster, the members that cluster had before its own
//! last reconfiguration. Sans-I/O in the idiom of [`crate::relay`].
//!
//! * **Why a trailing view.** Blocks a TOB commits just before a
//!   reconfiguration strand past the round's cut and pack into the next round's
//!   package, certified by the outgoing members, while its tail blocks and BRD
//!   certificate are signed by the new ones. So each component verifies against
//!   its cluster's current members, else its outgoing ones ([`Views::verify`]).
//! * **Per cluster, by one rule.** A cluster's outgoing slot changes only when
//!   *that* cluster reconfigures ([`Views::apply_round`]), which live execution
//!   and the suffix and store replays all call; a joiner adopts its sender's.
//! * **One slot.** No verifier checks a package of a round older than its own,
//!   so no older view is kept: a cluster that reconfigures twice while blocks
//!   certified before the first change are in flight rejects them (ROADMAP
//!   item 4).

use crate::messages::{RoundPackage, RoundRecord};
use ava_crypto::KeyRegistry;
use ava_types::{ClusterId, Membership, Reconfig, ReplicaId};

/// The current membership and each cluster's outgoing members.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Views {
    current: Membership,
    /// Per cluster, its members before its own last reconfiguration; a cluster
    /// that never reconfigured keeps its current members here.
    outgoing: Membership,
}

impl Views {
    /// Views with no reconfiguration behind them.
    pub fn new(membership: Membership) -> Self {
        Views { outgoing: membership.clone(), current: membership }
    }

    /// The current membership.
    pub fn current(&self) -> &Membership {
        &self.current
    }

    /// Apply one executed round's reconfiguration sets, in the order
    /// `catchup::walk_round` returns them, and return the requests that took
    /// effect. A request applies only if it changes the membership — a join of
    /// a non-member, a leave of a member — checked in order against the
    /// membership the requests before it left, so a set applied a second time
    /// is a no-op (the single workflow orders a request in two rounds, ROADMAP
    /// finding 19). A cluster's first effective request of the round first
    /// keeps the members it had as the round began as its outgoing slot.
    pub fn apply_round(
        &mut self,
        sets: &[(ClusterId, Vec<Reconfig>)],
    ) -> Vec<(ClusterId, Reconfig)> {
        let mut applied: Vec<(ClusterId, Reconfig)> = Vec::new();
        for (cluster, recs) in sets {
            for rc in recs {
                if self.current.contains(*cluster, rc.replica()) == rc.is_join() {
                    continue;
                }
                if !applied.iter().any(|(c, _)| c == cluster) {
                    for id in self.outgoing.member_ids(*cluster) {
                        self.outgoing.remove(*cluster, id);
                    }
                    for &member in self.current.members(*cluster) {
                        self.outgoing.add(*cluster, member);
                    }
                }
                self.current.apply(*cluster, rc);
                applied.push((*cluster, *rc));
            }
        }
        applied
    }

    /// Whether every certificate of `package` verifies: each block, and the BRD
    /// delivery certificate of its reconfiguration set, against its cluster's
    /// current members or else its outgoing members. A cluster unknown to both
    /// never verifies.
    pub fn verify(&self, registry: &KeyRegistry, package: &RoundPackage) -> bool {
        let signers = |m: &Membership| (m.member_ids(package.cluster), m.quorum(package.cluster));
        let views = [signers(&self.current), signers(&self.outgoing)];
        if views.iter().all(|(members, _)| members.is_empty()) {
            return false;
        }
        let blocks_ok = package.blocks.iter().all(|b| {
            views.iter().any(|(members, quorum)| {
                !members.is_empty() && b.verify(registry, members, *quorum)
            })
        });
        let recs_ok = match &package.recs_cert {
            Some(cert) => views.iter().any(|(members, quorum)| {
                cert.verify_delivery(registry, &package.recs, members, *quorum)
            }),
            None => package.recs.is_empty(),
        };
        blocks_ok && recs_ok
    }

    /// Whether every package of `record` verifies ([`Views::verify`]), with the
    /// record's signature count for the caller to charge. Replays verify a
    /// record against the views as of its round.
    pub fn verify_record(&self, registry: &KeyRegistry, record: &RoundRecord) -> (bool, u64) {
        let sigs = record
            .packages
            .iter()
            .flat_map(|p| p.blocks.iter())
            .map(|b| b.cert.signature_count() as u64)
            .sum();
        (record.packages.iter().all(|p| self.verify(registry, p)), sigs)
    }

    /// Whether `replica` is a current or outgoing member of `cluster`.
    pub fn has_member(&self, cluster: ClusterId, replica: ReplicaId) -> bool {
        self.current.contains(cluster, replica) || self.outgoing.contains(cluster, replica)
    }

    /// Whether `replica` is a current or outgoing member of any cluster.
    pub fn knows(&self, replica: ReplicaId) -> bool {
        self.current.cluster_of(replica).is_some() || self.outgoing.cluster_of(replica).is_some()
    }

    /// Approximate wire size in bytes of both views.
    pub fn wire_size(&self) -> usize {
        (self.current.total_replicas() + self.outgoing.total_replicas()) * 12
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catchup::{replay_store, CatchUp, CatchUpOffer, Executed, Store};
    use ava_consensus::{Block, CommittedBlock};
    use ava_crypto::{QuorumCert, SigSet};
    use ava_state::{machine_for, StateMachineKind, StateSnapshot};
    use ava_store::{Checkpoint, StoreConfig};
    use ava_types::{Operation, Region, ReplicaInfo, Round, Time};
    use std::sync::Arc;

    const A: ClusterId = ClusterId(0);
    const B: ClusterId = ClusterId(1);

    /// A = {0, 1, 2, 3} and B = {4, 5, 6, 7}: f = 1, quorum 3 each.
    fn membership() -> Membership {
        let mut m = Membership::new();
        for (cluster, ids) in [(A, 0..4), (B, 4..8)] {
            for id in ids {
                m.add(cluster, ReplicaInfo { id: ReplicaId(id), region: Region::UsWest });
            }
        }
        m
    }

    /// The cluster's lowest member leaves and one joins: A becomes {1, 2, 3, 8},
    /// B {5, 6, 7, 9}. Three outgoing members are no quorum of the new ones.
    fn swap(cluster: ClusterId) -> Vec<Reconfig> {
        let (leaver, joiner) = if cluster == A { (0, 8) } else { (4, 9) };
        let join = Reconfig::Join { replica: ReplicaId(joiner), region: Region::UsWest };
        vec![join, Reconfig::Leave { replica: ReplicaId(leaver) }]
    }

    /// A block of `cluster` carrying `ops`, certified by `signers`.
    fn block(
        registry: &KeyRegistry,
        cluster: ClusterId,
        ops: Vec<Operation>,
        signers: &[u32],
    ) -> CommittedBlock {
        let block = Block::new(cluster, 0, ReplicaId(signers[0]), ops);
        let digest = block.digest();
        let sigs: SigSet =
            signers.iter().map(|&id| registry.register(ReplicaId(id)).sign(&digest)).collect();
        let cert = Arc::new(QuorumCert::new(cluster, digest, sigs));
        CommittedBlock { block: Arc::new(block), cert }
    }

    /// A package of `cluster` without a reconfiguration set.
    fn package(cluster: ClusterId, round: u64, blocks: Vec<CommittedBlock>) -> RoundPackage {
        RoundPackage::new(cluster, Round(round), blocks, vec![], None)
    }

    #[test]
    fn views_reject_a_package_of_a_cluster_neither_view_knows() {
        let registry = KeyRegistry::new();
        let unknown = package(ClusterId(5), 1, vec![]);
        assert!(!Views::new(Membership::new()).verify(&registry, &unknown));
        assert!(!Views::new(membership()).verify(&registry, &unknown));
        assert!(Views::new(membership()).verify(&registry, &package(A, 1, vec![])));
    }

    #[test]
    fn views_keep_a_clusters_outgoing_members_when_another_cluster_reconfigures_next() {
        let registry = KeyRegistry::new();
        let stranded = || block(&registry, A, vec![], &[0, 1, 2]);
        let mut views = Views::new(membership());
        views.apply_round(&[(A, swap(A))]);
        views.apply_round(&[(B, swap(B))]);
        // A's package mixes a block its outgoing members certified with one
        // its new members did; a quorum of neither never verifies.
        let tail = block(&registry, A, vec![], &[1, 2, 8]);
        assert!(views.verify(&registry, &package(A, 3, vec![stranded(), tail])));
        let neither = block(&registry, A, vec![], &[0, 8]);
        assert!(!views.verify(&registry, &package(A, 3, vec![stranded(), neither])));
        // One slot per cluster: A's own next change retires its first members.
        let join = Reconfig::Join { replica: ReplicaId(10), region: Region::UsWest };
        views.apply_round(&[(A, vec![join, Reconfig::Leave { replica: ReplicaId(1) }])]);
        assert!(!views.verify(&registry, &package(A, 4, vec![stranded()])));
    }

    #[test]
    fn views_apply_a_set_a_second_time_as_a_no_op() {
        let registry = KeyRegistry::new();
        let stranded = || package(A, 2, vec![block(&registry, A, vec![], &[0, 1, 2])]);
        let mut views = Views::new(membership());
        let first = views.apply_round(&[(A, swap(A))]);
        assert_eq!(first, swap(A).into_iter().map(|rc| (A, rc)).collect::<Vec<_>>());
        let once = views.clone();
        // The single workflow orders the set again in the next round (and a
        // round may carry it twice): nothing applies, the outgoing slot stays.
        assert!(views.apply_round(&[(A, swap(A)), (A, swap(A))]).is_empty());
        assert_eq!(views, once);
        assert!(views.verify(&registry, &stranded()));
        // Within one set, a request the ones before it made moot is skipped.
        let join = Reconfig::Join { replica: ReplicaId(10), region: Region::UsWest };
        let applied = views.apply_round(&[(B, vec![join, join])]);
        assert_eq!(applied, vec![(B, join)]);
    }

    #[test]
    fn views_never_let_one_clusters_outgoing_members_verify_another_cluster() {
        let registry = KeyRegistry::new();
        for order in [[A, B], [B, A]] {
            let mut views = Views::new(membership());
            for cluster in order {
                views.apply_round(&[(cluster, swap(cluster))]);
            }
            // Whichever changed last, B's outgoing members still certify B's
            // package and A's never do.
            let own = package(B, 3, vec![block(&registry, B, vec![], &[4, 5, 6])]);
            assert!(views.verify(&registry, &own), "{order:?}");
            let foreign = package(B, 3, vec![block(&registry, B, vec![], &[0, 1, 2])]);
            assert!(!views.verify(&registry, &foreign), "{order:?}");
            assert!(views.has_member(B, ReplicaId(4)) && !views.has_member(B, ReplicaId(0)));
            assert!(views.knows(ReplicaId(0)) && !views.knows(ReplicaId(10)));
        }
    }

    #[test]
    fn views_a_suffix_and_a_store_replay_keep_outgoing_members_past_a_quiet_record() {
        let registry = KeyRegistry::new();
        // Record 5: A reconfigures (its set rides in a block its members
        // certified); record 6 changes nothing; record 7 still carries a block
        // A's members before record 5 certified.
        let reconfig = Operation::ReconfigSet { round: Round(5), recs: swap(A) };
        let record = |round: u64, blocks| {
            Arc::new(RoundRecord::new(Round(round), vec![Arc::new(package(A, round, blocks))]))
        };
        let suffix = vec![
            record(5, vec![block(&registry, A, vec![reconfig], &[0, 1, 2])]),
            record(6, vec![]),
            record(7, vec![block(&registry, A, vec![], &[0, 1, 2])]),
        ];
        let empty = StateSnapshot::empty(StateMachineKind::Counter);
        let checkpoint = Arc::new(Checkpoint::new(Round(4), empty, membership(), 0, 0));
        let mut live = Views::new(membership());
        live.apply_round(&[(A, swap(A))]);

        // A member of B catching up adopts the offer B's other members make.
        let mut catch_up: CatchUp<()> = CatchUp::new(Time::ZERO, Round(1), &membership(), B);
        for member in [5, 6] {
            let checkpoint = Arc::clone(&checkpoint);
            let offer =
                CatchUpOffer { checkpoint, suffix: suffix.clone(), round: Round(8), leader_ts: 0 };
            catch_up.offer(ReplicaId(member), offer);
        }
        let (machine, views) = (machine_for(StateMachineKind::Counter), Views::new(membership()));
        let executed = Executed {
            machine: machine.as_ref(),
            views: &views,
            round: Round(1),
            leader_ts: 0,
            next_height: 0,
        };
        let adoption = catch_up.adoption(&registry, B, executed).0.expect("every record verifies");
        assert_eq!((adoption.round, adoption.records.len()), (Round(8), 3));
        assert_eq!(adoption.view.views, live);

        // A restart replaying the same records from its store ends in the same views.
        let mut store = Store::new(StoreConfig::every(100));
        store.install_checkpoint(checkpoint);
        for record in suffix {
            store.append_round(record);
        }
        let (view, round, _) =
            replay_store(Some(&store), B, StateMachineKind::Counter, &membership());
        assert_eq!((round, view.views), (Round(8), live));
    }
}

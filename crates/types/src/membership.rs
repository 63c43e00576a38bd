//! Cluster membership: which replicas belong to which cluster, where they are, and
//! the per-cluster failure thresholds derived from cluster sizes.
//!
//! Heterogeneity is the central point of the paper: every quorum computation goes
//! through [`Membership`] so that it always reflects the *current* size of each
//! cluster (`f_j = ⌊(|C_j|−1)/3⌋`), never a stale or global constant.

use crate::ids::{ClusterId, Region, ReplicaId};
use crate::operation::Reconfig;
use std::collections::BTreeMap;

/// The failure threshold of a cluster of `n` replicas: `f = ⌊(n−1)/3⌋`, and 0
/// for an empty cluster. Every quorum in the workspace derives from it.
pub fn fault_threshold(n: usize) -> usize {
    n.saturating_sub(1) / 3
}

/// Static information about a replica.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ReplicaInfo {
    /// The replica's identifier.
    pub id: ReplicaId,
    /// The region the replica is deployed in.
    pub region: Region,
}

/// The membership map: for every cluster, the ordered set of its current replicas.
///
/// Replicas within a cluster are kept in a deterministic order (ascending id), which
/// the protocol uses for round-robin leader election and for choosing the "first
/// f+1 replicas" sender sets of the remote-leader-change protocol.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Membership {
    clusters: BTreeMap<ClusterId, Vec<ReplicaInfo>>,
}

impl Membership {
    /// Create an empty membership map.
    pub fn new() -> Self {
        Membership { clusters: BTreeMap::new() }
    }

    /// Add a replica to a cluster (idempotent). Keeps the per-cluster order sorted by
    /// replica id.
    pub fn add(&mut self, cluster: ClusterId, replica: ReplicaInfo) {
        let members = self.clusters.entry(cluster).or_default();
        if !members.iter().any(|m| m.id == replica.id) {
            members.push(replica);
            members.sort_by_key(|m| m.id);
        }
    }

    /// Remove a replica from a cluster. Returns true if it was present.
    pub fn remove(&mut self, cluster: ClusterId, replica: ReplicaId) -> bool {
        if let Some(members) = self.clusters.get_mut(&cluster) {
            let before = members.len();
            members.retain(|m| m.id != replica);
            return members.len() != before;
        }
        false
    }

    /// All cluster ids, in ascending order (the paper's "predefined order of
    /// clusters" used by Stage 3 execution).
    pub fn cluster_ids(&self) -> Vec<ClusterId> {
        self.clusters.keys().copied().collect()
    }

    /// Number of clusters.
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// Members of `cluster`, in ascending replica-id order.
    pub fn members(&self, cluster: ClusterId) -> &[ReplicaInfo] {
        self.clusters.get(&cluster).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Member ids of `cluster`, in ascending order.
    pub fn member_ids(&self, cluster: ClusterId) -> Vec<ReplicaId> {
        self.members(cluster).iter().map(|m| m.id).collect()
    }

    /// Size of `cluster`.
    pub fn size(&self, cluster: ClusterId) -> usize {
        self.members(cluster).len()
    }

    /// Whether `replica` is currently a member of `cluster`.
    pub fn contains(&self, cluster: ClusterId, replica: ReplicaId) -> bool {
        self.members(cluster).iter().any(|m| m.id == replica)
    }

    /// The cluster `replica` currently belongs to, if any.
    pub fn cluster_of(&self, replica: ReplicaId) -> Option<ClusterId> {
        self.clusters.iter().find(|(_, ms)| ms.iter().any(|m| m.id == replica)).map(|(c, _)| *c)
    }

    /// Failure threshold of `cluster`: `f_j = ⌊(|C_j|−1)/3⌋` (Alg. 10, line 28).
    pub fn f(&self, cluster: ClusterId) -> usize {
        fault_threshold(self.size(cluster))
    }

    /// Quorum size of `cluster`: `2·f_j + 1`.
    pub fn quorum(&self, cluster: ClusterId) -> usize {
        2 * self.f(cluster) + 1
    }

    /// "At least one correct replica" set size for `cluster`: `f_j + 1`.
    pub fn one_correct(&self, cluster: ClusterId) -> usize {
        self.f(cluster) + 1
    }

    /// The first `k` replicas of `cluster` by the predefined (ascending id) order.
    /// Used as the sender set of the remote-leader-change protocol (Alg. 2 line 16)
    /// and as the inter-cluster broadcast target set (Alg. 1 line 13).
    pub fn first_k(&self, cluster: ClusterId, k: usize) -> Vec<ReplicaId> {
        self.members(cluster).iter().take(k).map(|m| m.id).collect()
    }

    /// The leader of `cluster` for leader timestamp `ts`: round-robin over the
    /// deterministic member order (Alg. 9 line 27).
    pub fn leader_for(&self, cluster: ClusterId, ts: u64) -> Option<ReplicaId> {
        let members = self.members(cluster);
        if members.is_empty() {
            None
        } else {
            Some(members[(ts as usize) % members.len()].id)
        }
    }

    /// Apply one reconfiguration to `cluster` (Alg. 10 `reconfigure`): joins add the
    /// replica, leaves remove it. The failure threshold is implicitly updated because
    /// it is always derived from the current size.
    pub fn apply(&mut self, cluster: ClusterId, rc: &Reconfig) {
        match *rc {
            Reconfig::Join { replica, region } => {
                self.add(cluster, ReplicaInfo { id: replica, region })
            }
            Reconfig::Leave { replica } => {
                self.remove(cluster, replica);
            }
        }
    }

    /// Total number of replicas across all clusters.
    pub fn total_replicas(&self) -> usize {
        self.clusters.values().map(|v| v.len()).sum()
    }

    /// Iterate over `(cluster, replica)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ClusterId, &ReplicaInfo)> {
        self.clusters.iter().flat_map(|(c, ms)| ms.iter().map(move |m| (*c, m)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(id: u32) -> ReplicaInfo {
        ReplicaInfo { id: ReplicaId(id), region: Region::UsWest }
    }

    fn cluster_of_size(n: u32) -> Membership {
        let mut m = Membership::new();
        for i in 0..n {
            m.add(ClusterId(0), info(i));
        }
        m
    }

    #[test]
    fn thresholds_match_paper_examples() {
        // The paper's running example: clusters of 4 and 7 replicas with f=1 and f=2.
        let m4 = cluster_of_size(4);
        let m7 = cluster_of_size(7);
        assert_eq!(m4.f(ClusterId(0)), 1);
        assert_eq!(m7.f(ClusterId(0)), 2);
        assert_eq!(m4.quorum(ClusterId(0)), 3);
        assert_eq!(m7.quorum(ClusterId(0)), 5);
        assert_eq!(m4.one_correct(ClusterId(0)), 2);
        assert_eq!(m7.one_correct(ClusterId(0)), 3);
    }

    #[test]
    fn fault_threshold_is_zero_for_an_empty_cluster() {
        let f: Vec<usize> = (0..=8).map(fault_threshold).collect();
        assert_eq!(f, [0, 0, 0, 0, 1, 1, 1, 2, 2]);
        assert_eq!(Membership::new().f(ClusterId(3)), 0);
    }

    #[test]
    fn add_is_idempotent_and_sorted() {
        let mut m = Membership::new();
        m.add(ClusterId(1), info(5));
        m.add(ClusterId(1), info(2));
        m.add(ClusterId(1), info(5));
        assert_eq!(m.member_ids(ClusterId(1)), vec![ReplicaId(2), ReplicaId(5)]);
    }

    #[test]
    fn remove_and_cluster_of() {
        let mut m = cluster_of_size(4);
        assert_eq!(m.cluster_of(ReplicaId(2)), Some(ClusterId(0)));
        assert!(m.remove(ClusterId(0), ReplicaId(2)));
        assert!(!m.remove(ClusterId(0), ReplicaId(2)));
        assert_eq!(m.cluster_of(ReplicaId(2)), None);
        assert_eq!(m.size(ClusterId(0)), 3);
    }

    #[test]
    fn leader_rotation_is_round_robin_over_sorted_members() {
        let m = cluster_of_size(4);
        assert_eq!(m.leader_for(ClusterId(0), 0), Some(ReplicaId(0)));
        assert_eq!(m.leader_for(ClusterId(0), 1), Some(ReplicaId(1)));
        assert_eq!(m.leader_for(ClusterId(0), 5), Some(ReplicaId(1)));
        assert_eq!(m.leader_for(ClusterId(9), 0), None);
    }

    #[test]
    fn stale_threshold_attack_scenario_sizes() {
        // Section II-B: C1 grows from 4 to 7 replicas; its threshold must move from
        // f=1 (quorum 3) to f=2 (quorum 5) as soon as the joins are applied.
        let mut m = cluster_of_size(4);
        let joins: Vec<Reconfig> = (10..13)
            .map(|i| Reconfig::Join { replica: ReplicaId(i), region: Region::AsiaSouth })
            .collect();
        for rc in &joins {
            m.apply(ClusterId(0), rc);
        }
        assert_eq!(m.size(ClusterId(0)), 7);
        assert_eq!(m.f(ClusterId(0)), 2);
        assert_eq!(m.quorum(ClusterId(0)), 5);
    }

    #[test]
    fn first_k_uses_predefined_order() {
        let m = cluster_of_size(7);
        assert_eq!(m.first_k(ClusterId(0), 3), vec![ReplicaId(0), ReplicaId(1), ReplicaId(2)]);
        assert_eq!(m.first_k(ClusterId(0), 100).len(), 7);
    }

    #[test]
    fn totals_and_iteration() {
        let mut m = cluster_of_size(4);
        m.add(ClusterId(1), info(100));
        assert_eq!(m.total_replicas(), 5);
        assert_eq!(m.iter().count(), 5);
        assert_eq!(m.cluster_ids(), vec![ClusterId(0), ClusterId(1)]);
    }
}

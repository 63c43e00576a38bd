//! System configuration: cluster layout, protocol parameters and timeouts.

use crate::ids::{ClusterId, Region, ReplicaId};
use crate::membership::{Membership, ReplicaInfo};
use crate::time::Duration;

/// Specification of one cluster in the initial configuration.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ClusterSpec {
    /// Cluster identifier.
    pub id: ClusterId,
    /// Initial replicas and their regions.
    pub replicas: Vec<(ReplicaId, Region)>,
}

/// Protocol-level parameters (the knobs the paper's evaluation section mentions).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ProtocolParams {
    /// Transactions per round per cluster (the paper batches 100 transactions).
    pub batch_size: usize,
    /// Fraction (in percent) of the batch after which `send-recs` is called so that
    /// reconfiguration dissemination overlaps the tail of local ordering (the paper's
    /// α, Alg. 7 line 20). Expressed in percent to keep the type `Copy + Eq`.
    pub alpha_percent: u8,
    /// Timeout after which a replica complains about a remote cluster's leader
    /// (Alg. 2, the paper's Δ; E4 uses 20 s).
    pub remote_leader_timeout: Duration,
    /// Timeout of the BRD leader watchdog (Alg. 5 line 12).
    pub brd_timeout: Duration,
    /// Ceiling of the local total-order-broadcast leader watchdog: a replica
    /// waiting this long for a delivery always suspects its leader. It suspects
    /// it sooner once the cluster has shown its pace — after 4 × the longest
    /// delivery gap the replica has seen, but never before ε
    /// (`leader_change_grace`; DESIGN.md §14).
    pub local_timeout: Duration,
    /// Grace period ε after a leader change during which further remote complaints do
    /// not trigger another change (Alg. 2 line 25). ε is also the floor of the
    /// local leader watchdog: however fast the cluster has been, a replica waits
    /// at least ε before suspecting its leader. ε = 0 removes the floor.
    pub leader_change_grace: Duration,
    /// Operation payload size in bytes (the paper uses 1 KB operations).
    pub op_size: u32,
    /// If false, reconfigurations are ordered through the transaction total-order
    /// broadcast instead of the parallel collection/BRD workflow. This is the
    /// "single workflow" ablation of experiment E5.2.
    pub parallel_reconfig_workflow: bool,
}

impl Default for ProtocolParams {
    fn default() -> Self {
        ProtocolParams {
            batch_size: 100,
            alpha_percent: 75,
            remote_leader_timeout: Duration::from_secs(20),
            brd_timeout: Duration::from_secs(5),
            local_timeout: Duration::from_secs(20),
            leader_change_grace: Duration::from_millis(500),
            op_size: 1024,
            parallel_reconfig_workflow: true,
        }
    }
}

impl ProtocolParams {
    /// Number of ordered transactions after which `send-recs` fires.
    pub fn alpha_threshold(&self) -> usize {
        (self.batch_size * self.alpha_percent as usize) / 100
    }
}

/// Complete initial configuration of a replicated system.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SystemConfig {
    /// The clusters and their initial members.
    pub clusters: Vec<ClusterSpec>,
    /// Protocol parameters.
    pub params: ProtocolParams,
}

impl SystemConfig {
    /// Build a configuration with `sizes.len()` clusters, where cluster `i` has
    /// `sizes[i].0` replicas in region `sizes[i].1`. Replica ids are assigned
    /// sequentially starting at 0.
    pub fn homogeneous_regions(sizes: &[(usize, Region)]) -> Self {
        let mut next = 0u32;
        let clusters = sizes
            .iter()
            .enumerate()
            .map(|(ci, &(n, region))| {
                let replicas = (0..n)
                    .map(|_| {
                        let id = ReplicaId(next);
                        next += 1;
                        (id, region)
                    })
                    .collect();
                ClusterSpec { id: ClusterId(ci as u32), replicas }
            })
            .collect();
        SystemConfig { clusters, params: ProtocolParams::default() }
    }

    /// Build a configuration where cluster `i` is given explicitly as a list of
    /// regions (one entry per replica). Used for the heterogeneous setups of E3.
    pub fn heterogeneous(clusters: &[Vec<Region>]) -> Self {
        let mut next = 0u32;
        let clusters = clusters
            .iter()
            .enumerate()
            .map(|(ci, regions)| {
                let replicas = regions
                    .iter()
                    .map(|&region| {
                        let id = ReplicaId(next);
                        next += 1;
                        (id, region)
                    })
                    .collect();
                ClusterSpec { id: ClusterId(ci as u32), replicas }
            })
            .collect();
        SystemConfig { clusters, params: ProtocolParams::default() }
    }

    /// Split `total` replicas evenly into `clusters` clusters, all in `region`.
    /// Used by E0 (96 nodes, varying cluster counts, single region).
    pub fn even_split_single_region(total: usize, clusters: usize, region: Region) -> Self {
        assert!(clusters > 0 && total >= clusters);
        let base = total / clusters;
        let extra = total % clusters;
        let sizes: Vec<(usize, Region)> =
            (0..clusters).map(|i| (base + usize::from(i < extra), region)).collect();
        SystemConfig::homogeneous_regions(&sizes)
    }

    /// Split `total` replicas evenly into `clusters` clusters, assigning whole
    /// clusters round-robin to `regions`. Used by E1 (96 nodes over 3 regions).
    pub fn even_split_multi_region(total: usize, clusters: usize, regions: &[Region]) -> Self {
        assert!(clusters > 0 && total >= clusters && !regions.is_empty());
        let base = total / clusters;
        let extra = total % clusters;
        let sizes: Vec<(usize, Region)> = (0..clusters)
            .map(|i| (base + usize::from(i < extra), regions[i % regions.len()]))
            .collect();
        SystemConfig::homogeneous_regions(&sizes)
    }

    /// The initial membership map.
    pub fn membership(&self) -> Membership {
        let mut m = Membership::new();
        for spec in &self.clusters {
            for &(id, region) in &spec.replicas {
                m.add(spec.id, ReplicaInfo { id, region });
            }
        }
        m
    }

    /// Total number of replicas.
    pub fn total_replicas(&self) -> usize {
        self.clusters.iter().map(|c| c.replicas.len()).sum()
    }

    /// The largest replica id used by the initial configuration (new ids for joining
    /// replicas should start above this).
    pub fn max_replica_id(&self) -> u32 {
        self.clusters.iter().flat_map(|c| c.replicas.iter().map(|(id, _)| id.0)).max().unwrap_or(0)
    }

    /// The spec of `cluster`, if it is part of the initial configuration.
    pub fn cluster(&self, cluster: ClusterId) -> Option<&ClusterSpec> {
        self.clusters.iter().find(|c| c.id == cluster)
    }

    /// The initial leader of `cluster` (by convention its first configured member).
    ///
    /// # Panics
    /// Panics if `cluster` is unknown or empty.
    pub fn initial_leader(&self, cluster: ClusterId) -> ReplicaId {
        self.cluster(cluster)
            .and_then(|c| c.replicas.first().map(|(id, _)| *id))
            .unwrap_or_else(|| panic!("unknown or empty cluster {cluster:?}"))
    }

    /// The region of the first configured replica of `cluster` (the "home" region
    /// used when placing new clients or joining replicas).
    ///
    /// # Panics
    /// Panics if `cluster` is unknown or empty.
    pub fn home_region(&self, cluster: ClusterId) -> Region {
        self.cluster(cluster)
            .and_then(|c| c.replicas.first().map(|(_, region)| *region))
            .unwrap_or_else(|| panic!("unknown or empty cluster {cluster:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_params_match_paper() {
        let p = ProtocolParams::default();
        assert_eq!(p.batch_size, 100);
        assert_eq!(p.op_size, 1024);
        assert_eq!(p.remote_leader_timeout, Duration::from_secs(20));
        assert!(p.parallel_reconfig_workflow);
        assert_eq!(p.alpha_threshold(), 75);
    }

    #[test]
    fn even_split_single_region_distributes_remainder() {
        let cfg = SystemConfig::even_split_single_region(96, 10, Region::UsWest);
        let sizes: Vec<usize> = cfg.clusters.iter().map(|c| c.replicas.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 96);
        assert_eq!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap(), 1);
        assert_eq!(cfg.total_replicas(), 96);
    }

    #[test]
    fn even_split_multi_region_round_robins_clusters() {
        let regions = [Region::UsWest, Region::Europe, Region::AsiaSouth];
        let cfg = SystemConfig::even_split_multi_region(96, 4, &regions);
        assert_eq!(cfg.clusters[0].replicas[0].1, Region::UsWest);
        assert_eq!(cfg.clusters[1].replicas[0].1, Region::Europe);
        assert_eq!(cfg.clusters[2].replicas[0].1, Region::AsiaSouth);
        assert_eq!(cfg.clusters[3].replicas[0].1, Region::UsWest);
    }

    #[test]
    fn heterogeneous_setup_2_from_e3() {
        // Setup 2, scale 1: C1 = 9 Asia nodes, C2 = 5 EU nodes.
        let cfg =
            SystemConfig::heterogeneous(&[vec![Region::AsiaSouth; 9], vec![Region::Europe; 5]]);
        let m = cfg.membership();
        assert_eq!(m.size(ClusterId(0)), 9);
        assert_eq!(m.size(ClusterId(1)), 5);
        assert_eq!(m.f(ClusterId(0)), 2);
        assert_eq!(m.f(ClusterId(1)), 1);
    }

    #[test]
    fn initial_leader_and_home_region_follow_the_first_member() {
        let cfg = SystemConfig::homogeneous_regions(&[(4, Region::UsWest), (3, Region::Europe)]);
        assert_eq!(cfg.initial_leader(ClusterId(0)), ReplicaId(0));
        assert_eq!(cfg.initial_leader(ClusterId(1)), ReplicaId(4));
        assert_eq!(cfg.home_region(ClusterId(1)), Region::Europe);
        assert!(cfg.cluster(ClusterId(2)).is_none());
    }

    #[test]
    fn membership_ids_are_unique() {
        let cfg = SystemConfig::even_split_single_region(24, 3, Region::Europe);
        let m = cfg.membership();
        let mut ids: Vec<_> = m.iter().map(|(_, r)| r.id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 24);
        assert_eq!(cfg.max_replica_id(), 23);
    }
}

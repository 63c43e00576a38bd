//! # ava-geobft
//!
//! The GeoBFT-style baseline of experiment E6. GeoBFT (ResilientDB) partitions
//! replicas into clusters, runs PBFT locally, and has the local leader share each
//! locally certified batch with `f+1` replicas of every remote cluster, which
//! re-broadcast it locally — exactly the structure Hamava generalises (§ Related
//! Work: "the inspiring work GeoBFT"). The crucial difference is that GeoBFT's
//! membership is *fixed*: no reconfiguration, no heterogeneous cluster sizes by
//! design. The comparator is therefore the same clustered machinery on the
//! PBFT-style BFT-SMaRt local consensus with reconfiguration refused, which
//! reproduces GeoBFT's message and latency structure while making the "GeoBFT
//! cannot reconfigure" distinction explicit.
//!
//! `ava_scenario::Protocol::GeoBft` builds it: [`geobft_config`] over the same
//! [`ava_hamava::Deployment`] harness as the two Hamava instantiations, so the
//! experiments sweep all three with identical workloads.

use ava_types::SystemConfig;

/// Adjust `config` for a GeoBFT-style run.
///
/// The one change pins `parallel_reconfig_workflow` to `true`, its default, so
/// a caller's single-workflow ablation setting (E5.2) never reaches the
/// baseline. On default parameters the GeoBFT label therefore runs AVA-BFTSMART
/// unchanged; what makes it GeoBFT is that it is never driven with join/leave
/// requests — GeoBFT has no reconfiguration path, and that is precisely the
/// capability gap E6 highlights. `ava_scenario::ScenarioBuilder::try_build`
/// rejects every such event for `Protocol::GeoBft`, so the BRD round of every
/// round closes with an empty set.
pub fn geobft_config(mut config: SystemConfig) -> SystemConfig {
    config.params.parallel_reconfig_workflow = true;
    config
}

#[cfg(test)]
mod tests {
    use super::*;
    use ava_hamava::harness::{bftsmart_factory, Deployment, DeploymentOptions};
    use ava_simnet::{CostModel, LatencyModel};
    use ava_types::{Duration, Output, Region};
    use ava_workload::WorkloadSpec;

    fn small_opts() -> DeploymentOptions {
        DeploymentOptions {
            seed: 7,
            latency: LatencyModel::paper_table2().with_jitter(0.0),
            costs: CostModel::cloud_vm(),
            workload: WorkloadSpec { key_space: 1000, ..WorkloadSpec::default() },
            clients_per_cluster: 1,
            client_concurrency: 32,
            store: None,
            state_machine: ava_hamava::StateMachineKind::Counter,
        }
    }

    #[test]
    fn geobft_deployment_processes_transactions() {
        let mut config = SystemConfig::even_split_single_region(8, 2, Region::UsWest);
        config.params.batch_size = 20;
        let mut dep = Deployment::build(geobft_config(config), small_opts(), bftsmart_factory());
        dep.sim.run_for(Duration::from_secs(10));
        let committed =
            dep.sim.outputs().iter().filter(|o| matches!(o, Output::TxCompleted { .. })).count();
        assert!(committed > 0, "GeoBFT baseline should commit transactions");
    }
}

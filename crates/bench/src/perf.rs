//! Where host time goes: the simulator's handler profile over three
//! deployments, printed by `ava-exp profile`.
//!
//! A diagnosis view, not a gate and not a place to claim a gain: host-time
//! claims and the CI regression gate are the repo benchmark's (`benchmark/`,
//! read through `scripts/ab`), whose probes also time the micro-costs layer by
//! layer.

use crate::experiments::{e3_setup, Protocol};
use crate::report::{fmt, print_table};
use ava_hamava::harness::DeploymentOptions;
use ava_scenario::DynDeployment;
use ava_simnet::{CostModel, HandlerProfile, LatencyModel, ProfileRow};
use ava_store::StoreConfig;
use ava_types::{Duration, Region, SystemConfig};
use ava_workload::WorkloadSpec;

fn opts(seed: u64) -> DeploymentOptions {
    DeploymentOptions {
        seed,
        latency: LatencyModel::paper_table2(),
        costs: CostModel::cloud_vm(),
        workload: WorkloadSpec { key_space: 1_000, ..WorkloadSpec::default() },
        clients_per_cluster: 1,
        client_concurrency: 32,
        store: None,
        state_machine: ava_hamava::StateMachineKind::Counter,
    }
}

/// `ava-exp profile`: run three deployments with the simulator's
/// handler profile on and print, for each, where the host time went — one row
/// per (actor kind × message kind) plus one for the queue pops, largest share
/// first.
///
/// 1. The paper's heterogeneous deployment — E3 setup 3 at scale 3, 15 + 12 +
///    15 replicas on Ava-HotStuff under the load of the repo benchmark's
///    `geo_hetero_counter` workload — for 35 s of virtual time (that
///    workload's warm-up, window and drain together).
/// 2. The KV write shape of the benchmark's `kv_write_1kib`: 2 × 4 replicas in
///    one region on Ava-HotStuff, `KvMachine`, a checkpoint every 8 rounds,
///    90 % 1 KiB writes uniform over 2 000 keys, for 1.24 s of virtual time.
/// 3. The local protocol of the benchmark's `churn_faults_open_loop`:
///    Ava-BFT-SMaRt on 3 × 7 replicas over UsWest / Europe / AsiaSouth with
///    that workload's timeouts, `KvMachine`, store and 50 % reads of 128 B
///    over 2 000 keys — but closed-loop clients instead of its brokers, and
///    none of its faults — for 10 s of virtual time. Its `bs.*` rows are the
///    all-to-all prepare and commit phases.
///
/// Every replica executes every round, so each table is followed by the
/// executed-round memo's hit share (ideal (n − 1)/n: 41/42, 7/8, 20/21) and
/// the rounds it retains, then by the expected-tag memo's verifications
/// answered, MACs computed on verify, and tags signed, then by the
/// certificate verdicts replayed and computed, then by the footprint
/// of the pools' seen indexes (transactions indexed, words, bytes); the KV
/// table also by the checkpoint digests reused and the KV leaves hashed (one
/// per key a round writes, since the replicas share each executed round) and
/// the writes a later one in their round superseded, with how full the lane
/// groups the leaves were hashed in ran.
pub fn profile_deployments() {
    let paper = DeploymentOptions {
        workload: WorkloadSpec::default().with_payload(1024),
        clients_per_cluster: 4,
        client_concurrency: 128,
        ..opts(7)
    };
    let (memo, tags, verdicts, seen, config) = (
        ava_hamava::executed_round_stats(),
        ava_crypto::tag_memo_stats(),
        ava_crypto::verdict_stats(),
        ava_consensus::seen_index_stats(),
        e3_setup(3, 3),
    );
    let replicas = config.total_replicas();
    let dep = Protocol::AvaHotStuff.deploy(config, paper);
    let events = print_profile("paper deployment, counter machine", dep, Duration::from_secs(35));
    print_round_memo(memo, replicas);
    print_tag_memo(tags, events);
    print_verdicts(verdicts);
    print_seen_index(seen);

    let kv = DeploymentOptions {
        workload: WorkloadSpec {
            read_ratio: 0.1,
            key_space: 2_000,
            zipf_theta: 0.0,
            payload_size: 1024,
            ..WorkloadSpec::default()
        },
        clients_per_cluster: 4,
        client_concurrency: 128,
        store: Some(StoreConfig::every(8)),
        state_machine: ava_hamava::StateMachineKind::Kv,
        ..opts(7)
    };
    let (memo, tags, verdicts, seen, digests, leaves) = (
        ava_hamava::executed_round_stats(),
        ava_crypto::tag_memo_stats(),
        ava_crypto::verdict_stats(),
        ava_consensus::seen_index_stats(),
        ava_store::checkpoint_digest_stats(),
        ava_state::leaf_hash_stats(),
    );
    let config = SystemConfig::even_split_single_region(8, 2, Region::UsWest);
    let replicas = config.total_replicas();
    let dep = Protocol::AvaHotStuff.deploy(config, kv);
    let events = print_profile("KV write shape, 2 x 4 replicas", dep, Duration::from_millis(1_240));
    print_round_memo(memo, replicas);
    print_tag_memo(tags, events);
    print_verdicts(verdicts);
    print_seen_index(seen);
    let digests_after = ava_store::checkpoint_digest_stats();
    println!(
        "checkpoint digests: {} reused / {} built",
        digests_after.reused - digests.reused,
        digests_after.built - digests.built
    );
    let leaves_after = ava_state::leaf_hash_stats();
    let (hashed, bytes) = (leaves_after.leaves - leaves.leaves, leaves_after.bytes - leaves.bytes);
    let groups = leaves_after.groups - leaves.groups;
    let superseded = leaves_after.superseded - leaves.superseded;
    println!(
        "KV leaves hashed: {hashed} ({superseded} writes superseded in their round) / {:.1} MB \
         / {} B per leaf / {:.2} leaves per lane group (of {})",
        bytes as f64 / 1e6,
        bytes / hashed.max(1),
        hashed as f64 / groups.max(1) as f64,
        ava_crypto::blake2s::LANES
    );

    let churn = DeploymentOptions {
        workload: WorkloadSpec {
            read_ratio: 0.5,
            key_space: 2_000,
            payload_size: 128,
            ..WorkloadSpec::default()
        },
        clients_per_cluster: 4,
        client_concurrency: 32,
        store: Some(StoreConfig::every(8)),
        state_machine: ava_hamava::StateMachineKind::Kv,
        ..opts(7)
    };
    let (memo, tags, verdicts, seen) = (
        ava_hamava::executed_round_stats(),
        ava_crypto::tag_memo_stats(),
        ava_crypto::verdict_stats(),
        ava_consensus::seen_index_stats(),
    );
    let regions = [Region::UsWest, Region::Europe, Region::AsiaSouth];
    let mut config = SystemConfig::even_split_multi_region(21, 3, &regions);
    config.params.remote_leader_timeout = Duration::from_secs(4);
    config.params.local_timeout = Duration::from_secs(4);
    config.params.brd_timeout = Duration::from_secs(4);
    let replicas = config.total_replicas();
    let dep = Protocol::AvaBftSmart.deploy(config, churn);
    let events =
        print_profile("Ava-BFT-SMaRt, 3 x 7 replicas, KV machine", dep, Duration::from_secs(10));
    print_round_memo(memo, replicas);
    print_tag_memo(tags, events);
    print_verdicts(verdicts);
    print_seen_index(seen);
}

/// What the executed-round memo did since `before`, on a deployment of
/// `replicas` (its ideal hit share is (replicas − 1)/replicas).
fn print_round_memo(before: ava_hamava::ExecutedRoundStats, replicas: usize) {
    let now = ava_hamava::executed_round_stats();
    let (hits, misses) = (now.hits - before.hits, now.misses - before.misses);
    println!(
        "executed-round memo: {hits} hits / {misses} misses / share {:.4} (ideal {}/{replicas}) \
         / {} rounds retained",
        hits as f64 / (hits + misses).max(1) as f64,
        replicas - 1,
        now.retained
    );
}

/// What the expected-tag memo did since `before`: verifications it
/// answered, MACs verification computed instead and their share, and its
/// generation rolls; then the tags signing computed over the run's `events`.
fn print_tag_memo(before: ava_crypto::TagMemoStats, events: u64) {
    let now = ava_crypto::tag_memo_stats();
    let (hits, misses) = (now.hits - before.hits, now.misses - before.misses);
    let signed = now.signed - before.signed;
    println!(
        "tag memo: {hits} hits / {misses} misses (MACs on verify) / miss share {:.6} \
         / {} generations retired / {signed} tags signed ({:.3} per event)",
        misses as f64 / (hits + misses).max(1) as f64,
        now.generations_retired - before.generations_retired,
        signed as f64 / events.max(1) as f64
    );
}

/// What the certificates' verdict memos did since `before`: answers replayed
/// and answers computed from the signatures, and the replayed share (ideal
/// (n − 1)/n of a cluster of n for a HotStuff phase certificate: 14/15, 11/12).
fn print_verdicts(before: ava_crypto::VerdictStats) {
    let now = ava_crypto::verdict_stats();
    let (hits, misses) = (now.hits - before.hits, now.misses - before.misses);
    println!(
        "certificate verdicts: {hits} hits / {misses} misses (computed) / hit share {:.4}",
        hits as f64 / (hits + misses).max(1) as f64
    );
}

/// What the pools' seen indexes recorded since `before`: transaction ids
/// indexed over every replica's pool, the words they took (one per client
/// and 64 consecutive sequence numbers) and the bytes those hold.
fn print_seen_index(before: ava_consensus::SeenIndexStats) {
    let now = ava_consensus::seen_index_stats();
    let (transactions, words) = (now.transactions - before.transactions, now.words - before.words);
    println!(
        "seen index: {transactions} transactions / {words} words / {:.2} MB ({:.1} transactions \
         per word)",
        (now.bytes() - before.bytes()) as f64 / 1e6,
        transactions as f64 / words.max(1) as f64
    );
}

/// Run `dep` for `run_for` with the handler profile on and print its table;
/// returns the events the run processed.
fn print_profile(what: &str, mut dep: Box<dyn DynDeployment>, run_for: Duration) -> u64 {
    dep.enable_profile();
    dep.run_for(run_for);
    let profile = dep.handler_profile().expect("switched on above");
    let events = dep.net_stats().events_processed;
    let buckets = profile_buckets(profile, events);
    let total = buckets.iter().map(|(_, r)| r.handler_ns + r.post_ns).sum::<u64>().max(1) as f64;
    let rows: Vec<Vec<String>> = buckets
        .into_iter()
        .map(|(name, r)| {
            let per_event = |ns: u64| fmt(ns as f64 / r.events.max(1) as f64, 0);
            vec![
                name,
                r.events.to_string(),
                fmt(r.handler_ns as f64 / 1e6, 1),
                per_event(r.handler_ns),
                fmt(r.post_ns as f64 / 1e6, 1),
                per_event(r.post_ns),
                r.sends.to_string(),
                format!("{:.1} %", (r.handler_ns + r.post_ns) as f64 * 100.0 / total),
            ]
        })
        .collect();
    print_table(
        &format!(
            "handler profile ({what}): {events} events, {:.0} ms of host time net of the \
             profile's clock ({} ns a lap, {:.0} ms netted out)",
            total / 1e6,
            profile.lap_ns,
            (profile.total_ns() as f64 - total) / 1e6
        ),
        &[
            "actor · kind",
            "events",
            "handler ms",
            "handler ns/event",
            "post ms",
            "post ns/event",
            "sends",
            "share",
        ],
        &rows,
    );
    events
}

/// The rows of a handler-profile table: one per (actor kind × event kind)
/// bucket of `profile`, named "<actor> <kind>", plus one for the queue pops
/// over all `events`; largest host time (handler + post) first. Every pop,
/// handler and post time is net of the profile's own clock: one calibrated
/// lap per event each.
fn profile_buckets(profile: &HandlerProfile, events: u64) -> Vec<(String, ProfileRow)> {
    let net = |ns: u64, events: u64| ns.saturating_sub(profile.lap_ns * events);
    let pops = ProfileRow { events, post_ns: net(profile.pop_ns, events), ..ProfileRow::default() };
    let mut rows: Vec<(String, ProfileRow)> = profile
        .rows()
        .map(|(actor, kind, row)| {
            let handler_ns = net(row.handler_ns, row.events);
            let row = ProfileRow { handler_ns, post_ns: net(row.post_ns, row.events), ..row };
            (format!("{} {kind}", actor.label()), row)
        })
        .chain([("(queue pop)".to_string(), pops)])
        .collect();
    rows.sort_by_key(|(_, r)| std::cmp::Reverse(r.handler_ns + r.post_ns));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The buckets of a short profiled run of the KV shape's deployment
    /// (2 × 4 replicas, one region), with the run's total profiled host time.
    fn small_profile() -> (Vec<(String, ProfileRow)>, u64, u64, u64) {
        let config = SystemConfig::even_split_single_region(8, 2, Region::UsWest);
        let mut dep = Protocol::AvaHotStuff.deploy(config, opts(7));
        dep.enable_profile();
        dep.run_for(Duration::from_millis(300));
        let profile = dep.handler_profile().expect("switched on above");
        let events = dep.net_stats().events_processed;
        (profile_buckets(profile, events), profile.total_ns(), events, profile.lap_ns)
    }

    #[test]
    fn profile_buckets_account_for_all_host_time_largest_first() {
        let (buckets, total_ns, events, lap_ns) = small_profile();
        assert!(events > 0, "the run processed no events");
        let cost = |r: &ProfileRow| r.handler_ns + r.post_ns;
        // Net of one clock lap per interval: a pop per event, a handler and
        // a post per handled one (a bucket that reads less is clamped at 0).
        let handled: u64 = buckets.iter().map(|(_, r)| r.events).sum::<u64>() - events;
        let netted = buckets.iter().map(|(_, r)| cost(r)).sum::<u64>();
        assert!(netted <= total_ns && netted + lap_ns * (events + 2 * handled) >= total_ns);
        assert!(buckets.windows(2).all(|w| cost(&w[0].1) >= cost(&w[1].1)));
        let pops: Vec<_> = buckets.iter().filter(|(name, _)| name == "(queue pop)").collect();
        assert_eq!(pops.len(), 1);
        assert_eq!(pops[0].1.events, events);
        assert_eq!(pops[0].1.handler_ns, 0);
    }

    #[test]
    fn profile_buckets_name_the_actor_tier_of_every_handler_row() {
        let (buckets, _, events, _) = small_profile();
        let handled: Vec<_> = buckets.iter().filter(|(name, _)| name != "(queue pop)").collect();
        for tier in ["replica ", "client "] {
            assert!(
                handled.iter().any(|(name, _)| name.starts_with(tier)),
                "no {tier:?} row among {:?}",
                handled.iter().map(|(name, _)| name).collect::<Vec<_>>()
            );
        }
        assert!(handled
            .iter()
            .all(|(name, _)| name.starts_with("replica ") || name.starts_with("client ")));
        // Events dropped before a handler are popped but not handled.
        assert!(handled.iter().map(|(_, r)| r.events).sum::<u64>() <= events);
    }
}

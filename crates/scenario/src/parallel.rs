//! The parallel run executor: fan independent scenario runs out across a
//! std::thread worker pool.
//!
//! Every run of a sweep (deployments × seeds × configs) is an isolated
//! [`crate::Scenario`]: it owns its simulator, RNG, key registry and actors, and
//! shares nothing mutable with any other run. That makes sweeps embarrassingly
//! parallel — the only requirements are that a prepared scenario can *move* to a
//! worker thread (`Send`, enforced at compile time across the whole actor stack)
//! and that results come back in the order the scenarios were submitted, so a
//! parallel sweep is byte-identical to the serial loop it replaces.
//!
//! [`RunPool::map`] is the primitive: a work-stealing ordered parallel map. Workers
//! pull the next unclaimed index from a shared atomic cursor (long runs never
//! block short ones behind a static partition) and write each result into the slot
//! of its input index, so the output order never depends on scheduling. DESIGN.md
//! §8 has the full determinism argument and the path from this pool to
//! cluster-sharded PDES.

use crate::scenario::{Scenario, ScenarioRun};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Default worker count: the machine's available parallelism (1 if unknown).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// A work-stealing pool executing independent runs on `jobs` threads, returning
/// results in canonical input order.
///
/// The pool is stateless between calls: threads are scoped to each `map`, so a
/// `RunPool` is cheap to construct wherever a sweep needs one.
#[derive(Clone, Copy, Debug)]
pub struct RunPool {
    jobs: usize,
}

impl RunPool {
    /// A pool with `jobs` worker threads (clamped to at least 1).
    pub fn new(jobs: usize) -> Self {
        RunPool { jobs: jobs.max(1) }
    }

    /// A pool sized to the machine: one worker per available core.
    pub fn with_available_parallelism() -> Self {
        Self::new(default_jobs())
    }

    /// The number of worker threads `map` will use.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Ordered work-stealing parallel map: apply `work` to every item on up to
    /// [`RunPool::jobs`] threads and return the results **in input order**.
    ///
    /// `work` receives `(index, item)`; items are claimed through a shared atomic
    /// cursor in input order, but items may *complete* in any order — each result
    /// is written to the slot of its input index, so the returned `Vec` never
    /// depends on thread scheduling. With `jobs == 1` (or a single item) the map
    /// runs inline on the caller's thread: the serial path is the parallel path.
    ///
    /// A panicking `work` call aborts the map and propagates the panic to the
    /// caller once all workers have stopped.
    pub fn map<T, R, F>(&self, items: Vec<T>, work: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = items.len();
        if self.jobs == 1 || n <= 1 {
            return items.into_iter().enumerate().map(|(i, item)| work(i, item)).collect();
        }
        // One slot per item: workers take the input from its slot and write the
        // result into the matching output slot. The mutexes are uncontended (a
        // slot is touched by exactly one claim), they only exist to make the
        // slot vectors shareable across the scope.
        let inputs: Vec<Mutex<Option<T>>> =
            items.into_iter().map(|i| Mutex::new(Some(i))).collect();
        let outputs: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..self.jobs.min(n) {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = inputs[i]
                        .lock()
                        .expect("input slot poisoned")
                        .take()
                        .expect("every index is claimed exactly once");
                    let result = work(i, item);
                    *outputs[i].lock().expect("output slot poisoned") = Some(result);
                });
            }
        });
        outputs
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("output slot poisoned")
                    .expect("every slot is filled before the scope ends")
            })
            .collect()
    }

    /// Execute prepared scenarios on the pool; results in input order, so
    /// `pool.run_scenarios(v)` is output-for-output identical to
    /// `v.into_iter().map(Scenario::run).collect()`.
    pub fn run_scenarios(&self, scenarios: Vec<Scenario>) -> Vec<ScenarioRun> {
        self.map(scenarios, |_, scenario| scenario.run())
    }
}

impl Default for RunPool {
    fn default() -> Self {
        Self::with_available_parallelism()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::{DynDeployment, Protocol};
    use ava_hamava::harness::Deployment;
    use ava_hamava::{AvaMsg, Client, Replica};
    use ava_simnet::Simulation;
    use ava_types::{Duration as SimDuration, Region, SystemConfig};
    use ava_workload::WorkloadSpec;
    use std::time::Duration;

    fn assert_send<T: Send>() {}

    /// Compile-time Send audit of every actor stack the executor moves across
    /// threads: the simulators, the protocol deployments (generic and erased),
    /// the per-node actors, and the prepared/finished scenario types.
    #[test]
    fn every_actor_stack_is_send() {
        // Simulators, parameterized by each protocol's full message enum.
        assert_send::<Simulation<AvaMsg<ava_hotstuff::HotStuffMsg>>>();
        assert_send::<Simulation<AvaMsg<ava_bftsmart::BftSmartMsg>>>();
        // Protocol actors.
        assert_send::<Replica<ava_hotstuff::HotStuff>>();
        assert_send::<Replica<ava_bftsmart::BftSmart>>();
        assert_send::<Client<AvaMsg<ava_hotstuff::HotStuffMsg>>>();
        assert_send::<Client<AvaMsg<ava_bftsmart::BftSmartMsg>>>();
        // Deployments, generic and protocol-erased (GeoBFT runs the BFT-SMaRt
        // stack behind the same erased deployment).
        assert_send::<Deployment<ava_hotstuff::HotStuff>>();
        assert_send::<Deployment<ava_bftsmart::BftSmart>>();
        assert_send::<Box<dyn DynDeployment>>();
        // The executor's working currency.
        assert_send::<Scenario>();
        assert_send::<ScenarioRun>();
    }

    #[test]
    fn map_returns_results_in_input_order() {
        let pool = RunPool::new(8);
        // Uneven work so completion order differs from claim order.
        let results = pool.map((0..64u64).collect(), |i, x| {
            if i % 7 == 0 {
                std::thread::sleep(Duration::from_millis(2));
            }
            x * x
        });
        let expected: Vec<u64> = (0..64).map(|x| x * x).collect();
        assert_eq!(results, expected);
    }

    #[test]
    fn map_handles_degenerate_shapes() {
        let pool = RunPool::new(4);
        assert_eq!(pool.map(Vec::<u32>::new(), |_, x| x), Vec::<u32>::new());
        assert_eq!(pool.map(vec![9], |i, x: u32| x + i as u32), vec![9]);
        // More workers than items.
        assert_eq!(RunPool::new(16).map(vec![1, 2, 3], |_, x| x * 10), vec![10, 20, 30]);
        // Zero requested jobs clamps to one.
        assert_eq!(RunPool::new(0).jobs(), 1);
    }

    #[test]
    fn map_calls_work_once_per_item_with_its_input_index() {
        let calls = AtomicUsize::new(0);
        let results = RunPool::new(4).map((0..50u32).map(|x| x + 100).collect(), |i, x| {
            calls.fetch_add(1, Ordering::Relaxed);
            (i, x)
        });
        assert_eq!(calls.into_inner(), 50);
        assert!(results.iter().enumerate().all(|(n, &(i, x))| i == n && x == n as u32 + 100));
    }

    #[test]
    fn single_job_map_runs_inline_on_the_callers_thread() {
        let caller = std::thread::current().id();
        let on_caller = |_, _: u8| std::thread::current().id() == caller;
        assert!(RunPool::new(1).map(vec![0; 8], on_caller).into_iter().all(|inline| inline));
        // A single item runs inline whatever the pool size.
        assert_eq!(RunPool::new(8).map(vec![0], on_caller), [true]);
    }

    #[test]
    fn map_spreads_over_at_most_jobs_worker_threads() {
        let caller = std::thread::current().id();
        let threads = Mutex::new(std::collections::HashSet::new());
        RunPool::new(3).map((0..40).collect(), |_, _: u32| {
            threads.lock().unwrap().insert(std::thread::current().id());
            std::thread::sleep(Duration::from_millis(1));
        });
        let threads = threads.into_inner().unwrap();
        assert!((1..=3).contains(&threads.len()), "{} worker threads", threads.len());
        assert!(!threads.contains(&caller), "the parallel path ran work on the caller");
    }

    #[test]
    fn map_propagates_a_panicking_work_call() {
        let outcome = std::panic::catch_unwind(|| {
            RunPool::new(4).map((0..16u32).collect(), |_, x| {
                assert_ne!(x, 11, "work fails on item 11");
                x
            })
        });
        assert!(outcome.is_err());
    }

    #[test]
    fn default_pool_has_one_worker_per_available_core() {
        assert!(default_jobs() >= 1);
        assert_eq!(RunPool::default().jobs(), default_jobs());
        assert_eq!(RunPool::with_available_parallelism().jobs(), default_jobs());
    }

    fn tiny_scenarios() -> Vec<Scenario> {
        let mut config = SystemConfig::even_split_single_region(8, 2, Region::UsWest);
        config.params.batch_size = 20;
        Protocol::AVA
            .into_iter()
            .map(|protocol| {
                Scenario::builder(protocol, config.clone())
                    .seed(11)
                    .workload(WorkloadSpec { key_space: 500, ..WorkloadSpec::default() })
                    .run_for(SimDuration::from_secs(2))
                    .build()
            })
            .collect()
    }

    #[test]
    fn parallel_scenario_runs_match_serial_byte_for_byte() {
        let serial: Vec<ScenarioRun> = tiny_scenarios().into_iter().map(Scenario::run).collect();
        let parallel = RunPool::new(8).run_scenarios(tiny_scenarios());
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.protocol, p.protocol);
            assert_eq!(format!("{:?}", s.outputs), format!("{:?}", p.outputs));
            assert_eq!(s.stats.total_messages(), p.stats.total_messages());
            assert_eq!(s.stats.bytes_sent, p.stats.bytes_sent);
            assert_eq!(s.stats.events_processed, p.stats.events_processed);
        }
    }
}

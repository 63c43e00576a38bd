//! The per-replica store: round log + latest checkpoint + persistence accounting.

use crate::checkpoint::Checkpoint;
use crate::log::{RoundLog, StoredEntry};
use ava_crypto::Digest;
use ava_types::Round;
use std::sync::Arc;

/// Configuration of a replica's durable store.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StoreConfig {
    /// Take a checkpoint (and truncate the log) every this many rounds. The cadence
    /// is round-number based (`round % interval == 0`), so every replica of a
    /// cluster checkpoints at the same boundaries and checkpoint digests match
    /// across peers.
    pub checkpoint_interval: u64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig { checkpoint_interval: 8 }
    }
}

impl StoreConfig {
    /// A config checkpointing every `interval` rounds.
    pub fn every(interval: u64) -> Self {
        StoreConfig { checkpoint_interval: interval.max(1) }
    }
}

/// Persistence counters (what the `RecoveryObserver` and `e10_recovery` report).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct StoreStats {
    /// Log entries appended.
    pub appends: u64,
    /// Checkpoints installed.
    pub checkpoints: u64,
    /// Log entries dropped by checkpoint truncation.
    pub truncated_entries: u64,
    /// Total bytes persisted (log appends + checkpoint snapshots).
    pub bytes_persisted: u64,
    /// Appends rejected as duplicate or stale.
    pub rejected_appends: u64,
}

/// A replica's durable store: the only replica state that survives a crash →
/// restart cycle. Everything volatile is wiped by the restart hook; recovery
/// starts from [`ReplicaStore::recover`] and fills the gap via catch-up.
#[derive(Clone, Debug)]
pub struct ReplicaStore<P> {
    cfg: StoreConfig,
    log: RoundLog<P>,
    checkpoint: Option<Arc<Checkpoint>>,
    /// `(round, digest)` of every checkpoint ever installed, in installation
    /// order — the checkpoint *chain*. The snapshots themselves are dropped when
    /// superseded; the digests are kept so post-hoc integrity checks (the fuzzer's
    /// checkpoint-chain checker, forensic debugging) can audit the full history
    /// cheaply.
    chain: Vec<(Round, Digest)>,
    stats: StoreStats,
}

impl<P: StoredEntry> ReplicaStore<P> {
    /// An empty store with the given config.
    pub fn new(cfg: StoreConfig) -> Self {
        ReplicaStore {
            cfg,
            log: RoundLog::new(),
            checkpoint: None,
            chain: Vec::new(),
            stats: StoreStats::default(),
        }
    }

    /// The store's configuration.
    pub fn config(&self) -> StoreConfig {
        self.cfg
    }

    /// Append the record of an executed round (write-ahead: call before applying
    /// its effects). Returns the bytes persisted so the caller can charge the
    /// simulated fsync cost; rejected (duplicate/stale) appends persist nothing.
    pub fn append_round(&mut self, entry: P) -> usize {
        match self.log.append(entry) {
            Some(bytes) => {
                self.stats.appends += 1;
                self.stats.bytes_persisted += bytes as u64;
                bytes
            }
            None => {
                self.stats.rejected_appends += 1;
                0
            }
        }
    }

    /// Whether the checkpoint cadence says round `round` should end with a
    /// checkpoint. A zero interval (possible via a struct-literal `StoreConfig`)
    /// is treated as 1 — checkpoint every round — rather than dividing by zero.
    pub fn should_checkpoint(&self, round: Round) -> bool {
        round.0 > 0 && round.0 % self.cfg.checkpoint_interval.max(1) == 0
    }

    /// Install a checkpoint and truncate the log through its round. Returns the
    /// bytes persisted for the snapshot. A checkpoint older than the current one is
    /// rejected (returns 0).
    pub fn install_checkpoint(&mut self, checkpoint: Arc<Checkpoint>) -> usize {
        if self.checkpoint.as_ref().is_some_and(|cur| cur.round >= checkpoint.round) {
            return 0;
        }
        let bytes = checkpoint.wire_size();
        self.stats.checkpoints += 1;
        self.stats.bytes_persisted += bytes as u64;
        self.stats.truncated_entries += self.log.truncate_through(checkpoint.round) as u64;
        self.chain.push((checkpoint.round, checkpoint.digest));
        self.checkpoint = Some(checkpoint);
        bytes
    }

    /// The most recent checkpoint, if any.
    pub fn latest_checkpoint(&self) -> Option<Arc<Checkpoint>> {
        self.checkpoint.clone()
    }

    /// The `(round, digest)` chain of every checkpoint installed so far, in
    /// installation order. Rounds are strictly increasing (older installs are
    /// rejected), so any non-monotonic chain is itself an integrity violation.
    pub fn checkpoint_chain(&self) -> &[(Round, Digest)] {
        &self.chain
    }

    /// The log entries with round > `after`, ascending (the catch-up suffix).
    pub fn suffix(&self, after: Round) -> Vec<P> {
        self.log.suffix(after)
    }

    /// What a restarting replica recovers from disk: the latest checkpoint plus
    /// every log entry after it.
    pub fn recover(&self) -> (Option<Arc<Checkpoint>>, Vec<P>) {
        let after = self.checkpoint.as_ref().map(|c| c.round).unwrap_or(Round(0));
        (self.checkpoint.clone(), self.log.suffix(after))
    }

    /// Number of log entries currently held.
    pub fn log_len(&self) -> usize {
        self.log.len()
    }

    /// Persistence counters.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ava_types::Membership;

    #[derive(Clone, Debug, PartialEq)]
    struct Entry(u64);

    impl StoredEntry for Entry {
        fn round(&self) -> Round {
            Round(self.0)
        }
        fn wire_size(&self) -> usize {
            50
        }
    }

    fn checkpoint(round: u64) -> Arc<Checkpoint> {
        Arc::new(Checkpoint::new(
            Round(round),
            ava_state::StateSnapshot::empty(ava_state::StateMachineKind::Counter),
            Membership::new(),
            0,
            0,
        ))
    }

    #[test]
    fn cadence_fires_on_interval_boundaries_only() {
        let store: ReplicaStore<Entry> = ReplicaStore::new(StoreConfig::every(4));
        assert!(!store.should_checkpoint(Round(0)));
        assert!(!store.should_checkpoint(Round(3)));
        assert!(store.should_checkpoint(Round(4)));
        assert!(store.should_checkpoint(Round(8)));
        assert!(!store.should_checkpoint(Round(9)));
    }

    #[test]
    fn checkpoint_truncates_log_and_recover_returns_the_suffix() {
        let mut store = ReplicaStore::new(StoreConfig::every(4));
        for r in 1..=6 {
            assert_eq!(store.append_round(Entry(r)), 50);
        }
        assert!(store.install_checkpoint(checkpoint(4)) > 0);
        assert_eq!(store.log_len(), 2);
        let (cp, suffix) = store.recover();
        assert_eq!(cp.expect("checkpoint").round, Round(4));
        assert_eq!(suffix, vec![Entry(5), Entry(6)]);
        let stats = store.stats();
        assert_eq!(stats.appends, 6);
        assert_eq!(stats.checkpoints, 1);
        assert_eq!(stats.truncated_entries, 4);
        assert_eq!(stats.bytes_persisted, 6 * 50 + checkpoint(4).wire_size() as u64);
    }

    #[test]
    fn stale_appends_and_old_checkpoints_are_rejected() {
        let mut store = ReplicaStore::new(StoreConfig::every(4));
        store.append_round(Entry(5));
        store.install_checkpoint(checkpoint(4));
        // A round covered by the checkpoint is stale; a duplicate append likewise.
        assert_eq!(store.append_round(Entry(3)), 0);
        assert_eq!(store.append_round(Entry(5)), 0);
        assert_eq!(store.stats().rejected_appends, 2);
        // Installing an older checkpoint must not roll the store back.
        assert_eq!(store.install_checkpoint(checkpoint(2)), 0);
        assert_eq!(store.latest_checkpoint().expect("kept").round, Round(4));
    }

    #[test]
    fn checkpoint_chain_records_installs_in_order_and_skips_rejects() {
        let mut store: ReplicaStore<Entry> = ReplicaStore::new(StoreConfig::every(4));
        assert!(store.checkpoint_chain().is_empty());
        store.install_checkpoint(checkpoint(4));
        store.install_checkpoint(checkpoint(8));
        // A stale install is rejected and must not pollute the chain.
        assert_eq!(store.install_checkpoint(checkpoint(4)), 0);
        let chain = store.checkpoint_chain();
        assert_eq!(chain.len(), 2);
        assert_eq!(chain[0].0, Round(4));
        assert_eq!(chain[1].0, Round(8));
        assert_eq!(chain[0].1, checkpoint(4).digest, "chain keeps the canonical digest");
        assert!(chain.windows(2).all(|w| w[0].0 < w[1].0), "chain rounds strictly increase");
    }

    #[test]
    fn recover_without_checkpoint_returns_the_whole_log() {
        let mut store = ReplicaStore::new(StoreConfig::default());
        store.append_round(Entry(1));
        store.append_round(Entry(2));
        let (cp, suffix) = store.recover();
        assert!(cp.is_none());
        assert_eq!(suffix.len(), 2);
    }
}

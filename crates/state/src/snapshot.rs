//! Point-in-time state images.
//!
//! A [`StateSnapshot`] is what a checkpoint folds (see `ava-store`) and what a
//! recovering replica restores a machine from. The **counter** variant's hash
//! and wire-size contributions are bit-identical to the pre-`ava-state`
//! checkpoint format, which is what keeps the historical determinism goldens
//! byte-stable. The **kv** variant carries real value bytes, so checkpoint
//! sizes, catch-up transfer accounting and digests are all meaningful; those
//! bytes are `Arc`-shared with the machine the snapshot was taken from, so a
//! snapshot costs one map clone, not a copy of the state. A snapshot travels as
//! that in-memory object (a catch-up reply carries the checkpoint behind one
//! `Arc`, charged by its wire size at the receiver); there is no byte
//! serialisation.

use crate::machine::{CounterMachine, KvEntry, KvMachine, StateMachine, StateMachineKind};
use ava_types::EncodeSink;
use std::collections::BTreeMap;

/// A point-in-time image of a state machine's replicated state.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StateSnapshot {
    /// Legacy counter state: key → write counter.
    Counter(BTreeMap<u64, u64>),
    /// Keyed KV state: key → versioned value entry.
    Kv(BTreeMap<u64, KvEntry>),
}

impl StateSnapshot {
    /// An empty snapshot of `kind` (the round-0 catch-up anchor).
    pub fn empty(kind: StateMachineKind) -> Self {
        match kind {
            StateMachineKind::Counter => StateSnapshot::Counter(BTreeMap::new()),
            StateMachineKind::Kv => StateSnapshot::Kv(BTreeMap::new()),
        }
    }

    /// Which machine kind produced (and can restore from) this snapshot.
    pub fn kind(&self) -> StateMachineKind {
        match self {
            StateSnapshot::Counter(_) => StateMachineKind::Counter,
            StateSnapshot::Kv(_) => StateMachineKind::Kv,
        }
    }

    /// Number of keys in the snapshot.
    pub fn entries(&self) -> usize {
        match self {
            StateSnapshot::Counter(state) => state.len(),
            StateSnapshot::Kv(state) => state.len(),
        }
    }

    /// Approximate wire size of the snapshot body in bytes. The counter
    /// variant is exactly the legacy `state.len() * 16` so historical transfer
    /// accounting (and the goldens that pin it) is unchanged.
    pub fn wire_bytes(&self) -> usize {
        match self {
            StateSnapshot::Counter(state) => state.len() * 16,
            StateSnapshot::Kv(state) => state.values().map(KvEntry::wire_bytes).sum(),
        }
    }

    /// Feed the snapshot's canonical byte stream into `out` — a running hash,
    /// or a buffer when the stream itself is wanted (`ava-store` compares the
    /// stream of a checkpoint it is about to build with the last one it
    /// hashed; both get their bytes here, so "same stream" and "same bytes
    /// fed to the hasher" cannot come apart). The counter stream (length +
    /// key/counter pairs, all LE) is byte-identical to the legacy checkpoint
    /// digest input. The kv stream is two-level: domain tag, length, then
    /// `(key, leaf)` per entry, where the leaf is the entry's cached SHA-256
    /// — 40 bytes per entry instead of the value bytes, and as
    /// collision-resistant as hashing them inline. It trusts the cached
    /// leaves: check [`StateSnapshot::leaves_valid`] first on a snapshot this
    /// process did not take itself.
    pub fn hash_into(&self, out: &mut impl EncodeSink) {
        match self {
            StateSnapshot::Counter(state) => {
                out.write(&(state.len() as u64).to_le_bytes());
                for (k, v) in state {
                    out.write(&k.to_le_bytes());
                    out.write(&v.to_le_bytes());
                }
            }
            StateSnapshot::Kv(state) => {
                out.write(b"kv-state-v2");
                out.write(&(state.len() as u64).to_le_bytes());
                for (k, e) in state {
                    out.write(&k.to_le_bytes());
                    out.write(&e.leaf);
                }
            }
        }
    }

    /// Whether every entry's cached leaf is the hash of its bytes under its
    /// key, recomputed from scratch (reads the whole state). A leaf is never
    /// serialised, so on a real wire this is the hashing a receiver does while
    /// parsing; here, where snapshots travel as in-memory objects, it is what
    /// stops a peer from pairing tampered bytes with an honest leaf.
    pub fn leaves_valid(&self) -> bool {
        match self {
            StateSnapshot::Counter(_) => true,
            StateSnapshot::Kv(state) => state.iter().all(|(k, e)| e.leaf == e.leaf_for(*k)),
        }
    }
}

/// Build a machine pre-loaded with `snapshot`'s state (leaves, digest and
/// byte totals recomputed from the bytes, so it agrees with peers that
/// executed the full history whatever the snapshot's sender cached). For a
/// copy of a machine's own state use [`StateMachine::fork`].
pub fn machine_from_snapshot(snapshot: &StateSnapshot) -> Box<dyn StateMachine> {
    match snapshot {
        StateSnapshot::Counter(state) => Box::new(CounterMachine::from_state(state.clone())),
        StateSnapshot::Kv(state) => Box::new(KvMachine::from_state(state.clone())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{machine_for, StateMachine};
    use ava_crypto::{sha256, Sha256};
    use ava_types::{ClientId, Round, Transaction, TxId, TxKind};
    use proptest::{proptest, ProptestConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A deterministic random op sequence: the "log" the property tests replay.
    fn random_ops(seed: u64, n: usize) -> Vec<(Round, Transaction)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let round = Round(1 + (i as u64) / 5);
                let key = rng.gen_range(0..64u64);
                let kind = match rng.gen_range(0..3u32) {
                    0 => TxKind::Write { key, value_size: rng.gen_range(1..200u32) },
                    1 => TxKind::MultiWrite {
                        keys: vec![key, (key + 7) % 64, (key + 13) % 64],
                        value_size: rng.gen_range(1..100u32),
                    },
                    _ => TxKind::Read { key },
                };
                let tx = Transaction {
                    id: TxId { client: ClientId(1), seq: i as u64 },
                    kind,
                    payload_size: 64,
                };
                (round, tx)
            })
            .collect()
    }

    fn replay(kind: StateMachineKind, ops: &[(Round, Transaction)]) -> Box<dyn StateMachine> {
        let mut m = machine_for(kind);
        for (round, tx) in ops {
            m.apply(*round, tx);
        }
        m
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn snapshot_restore_equals_replay_from_log(seed in 0u64..1_000_000, n in 1usize..120) {
            for kind in [StateMachineKind::Counter, StateMachineKind::Kv] {
                let ops = random_ops(seed, n);
                let live = replay(kind, &ops);
                // Restore from the snapshot...
                let restored = machine_from_snapshot(&live.snapshot());
                // ...and independently replay the log on a fresh machine.
                let replayed = replay(kind, &ops);
                assert_eq!(restored.digest(), live.digest(), "{kind:?}: restore must match live");
                assert_eq!(replayed.digest(), live.digest(), "{kind:?}: replay must match live");
                assert_eq!(restored.entries(), live.entries());
                assert_eq!(restored.value_bytes(), live.value_bytes());
                assert_eq!(restored.snapshot(), live.snapshot());
            }
        }
    }

    /// What `hash_into` commits to, typed: the kind and the ordered
    /// `(key, counter | leaf)` pairs.
    fn committed_pairs(snapshot: &StateSnapshot) -> (StateMachineKind, Vec<(u64, Vec<u8>)>) {
        let pairs = match snapshot {
            StateSnapshot::Counter(state) => {
                state.iter().map(|(k, v)| (*k, v.to_le_bytes().to_vec())).collect()
            }
            StateSnapshot::Kv(state) => state.iter().map(|(k, e)| (*k, e.leaf.to_vec())).collect(),
        };
        (snapshot.kind(), pairs)
    }

    fn stream(snapshot: &StateSnapshot) -> Vec<u8> {
        let mut bytes = Vec::new();
        snapshot.hash_into(&mut bytes);
        bytes
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn same_stream_iff_same_bytes_fed_to_the_hasher(
            seed in 0u64..1_000_000,
            n in 1usize..60,
            change in 0u32..7,
        ) {
            // `ava-store` reuses a checkpoint digest when the stream written
            // into a buffer equals the last one hashed. That is sound only if
            // the buffer holds exactly what the hasher is fed, and useful only
            // if snapshots that commit to the same pairs write the same bytes.
            let kind = if seed % 2 == 0 { StateMachineKind::Kv } else { StateMachineKind::Counter };
            // Key 7 is always present, so no state is empty.
            let mut ops = random_ops(seed, n);
            ops.push((Round(50), Transaction::write(ClientId(1), n as u64, 7, 21)));
            let a = replay(kind, &ops).snapshot();
            let mut later = replay(kind, &ops);
            let b = match change {
                // The same state, built again (KV: other `Arc`s, equal leaves).
                0 => later.snapshot(),
                // One pair rewritten, one pair added.
                1 | 2 => {
                    let key = if change == 1 { 7 } else { 1_000 };
                    let tx = Transaction::write(ClientId(2), 0, key, 33);
                    later.apply(Round(99), &tx);
                    later.snapshot()
                }
                // One pair gone; one pair under another key.
                3 | 4 => match later.snapshot() {
                    StateSnapshot::Counter(mut state) => {
                        let (_, v) = state.pop_first().expect("key 7");
                        if change == 4 {
                            state.insert(2_000, v);
                        }
                        StateSnapshot::Counter(state)
                    }
                    StateSnapshot::Kv(mut state) => {
                        let (_, e) = state.pop_first().expect("key 7");
                        if change == 4 {
                            state.insert(2_000, e);
                        }
                        StateSnapshot::Kv(state)
                    }
                },
                // The other machine's image of the same log; an empty one.
                5 => {
                    let other = match kind {
                        StateMachineKind::Kv => StateMachineKind::Counter,
                        StateMachineKind::Counter => StateMachineKind::Kv,
                    };
                    replay(other, &ops).snapshot()
                }
                _ => StateSnapshot::empty(kind),
            };
            for snapshot in [&a, &b] {
                let mut h = Sha256::new();
                snapshot.hash_into(&mut h);
                assert_eq!(sha256(&stream(snapshot)), h.finalize(), "buffer and hasher differ");
            }
            assert_eq!(
                stream(&a) == stream(&b),
                committed_pairs(&a) == committed_pairs(&b),
                "change {change}: equal streams must mean equal committed pairs, and back"
            );
            assert_eq!(stream(&a) == stream(&b), change == 0, "change {change}");
        }
    }

    #[test]
    fn counter_snapshot_wire_bytes_match_legacy_accounting() {
        // The legacy checkpoint charged exactly 16 bytes per state entry; the
        // counter snapshot must keep that, or transfer-size goldens move.
        let ops = random_ops(3, 60);
        let snapshot = replay(StateMachineKind::Counter, &ops).snapshot();
        assert_eq!(snapshot.wire_bytes(), snapshot.entries() * 16);
    }
}

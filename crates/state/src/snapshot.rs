//! Point-in-time state images.
//!
//! A [`StateSnapshot`] is what a checkpoint folds (see `ava-store`) and what a
//! recovering replica restores a machine from. It *is* the machine's version:
//! each variant holds a [`CounterMachine`] or [`KvMachine`] value, one `Arc`
//! root, so [`StateMachine::snapshot`] clones a pointer, and every checkpoint,
//! catch-up reply and `CurrState` taken from one version shares one set of
//! pages. A retained image pins the pages of its version — the ones later
//! writes to the live machine copied instead of writing in place. The
//! **counter** variant's hash and wire-size contributions are bit-identical
//! to the pre-`ava-state` checkpoint format, which is what keeps the
//! historical determinism goldens byte-stable. The **kv** variant carries real
//! value bytes, so checkpoint sizes, catch-up transfer accounting and digests
//! are all meaningful. A snapshot travels as that in-memory object (a catch-up
//! reply carries the checkpoint behind one `Arc`, charged by its wire size at
//! the receiver); there is no byte serialisation.

use crate::machine::{
    CounterMachine, KvEntry, KvMachine, StateMachine, StateMachineKind, StateVersion,
};
use ava_types::EncodeSink;

/// A point-in-time image of a state machine's replicated state: the machine's
/// own copy-on-write version (see the module docs). An image of state from
/// elsewhere is built with [`StateSnapshot::counters`] or
/// [`StateSnapshot::kv_entries`], which take what they are given on trust —
/// check [`StateSnapshot::leaves_valid`] before relying on its cached leaves.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StateSnapshot {
    /// Legacy counter state: key → write counter.
    Counter(CounterMachine),
    /// Keyed KV state: key → versioned value entry.
    Kv(KvMachine),
}

impl StateSnapshot {
    /// An empty snapshot of `kind` (the round-0 catch-up anchor): the
    /// thread's shared empty version.
    pub fn empty(kind: StateMachineKind) -> Self {
        match kind {
            StateMachineKind::Counter => StateSnapshot::Counter(CounterMachine::default()),
            StateMachineKind::Kv => StateSnapshot::Kv(KvMachine::default()),
        }
    }

    /// A counter image of `pairs` (key → write counter), as a version of its
    /// own. A zero counter is unrepresentable and is dropped.
    pub fn counters(pairs: impl IntoIterator<Item = (u64, u64)>) -> Self {
        StateSnapshot::Counter(CounterMachine::from_state(pairs))
    }

    /// A KV image of `entries` exactly as given — cached leaves included, and
    /// untrusted — as a version of its own. A key given twice keeps its last
    /// entry.
    pub fn kv_entries(entries: impl IntoIterator<Item = (u64, KvEntry)>) -> Self {
        StateSnapshot::Kv(KvMachine::build(entries))
    }

    /// The machine value the image holds.
    pub fn machine(&self) -> &dyn StateMachine {
        match self {
            StateSnapshot::Counter(m) => m,
            StateSnapshot::Kv(m) => m,
        }
    }

    /// The version the image holds (see [`StateVersion`]).
    pub fn version(&self) -> StateVersion {
        self.machine().version()
    }

    /// Which machine kind produced (and can restore from) this snapshot.
    pub fn kind(&self) -> StateMachineKind {
        self.machine().kind()
    }

    /// Number of keys in the snapshot: the machine's running count, O(1).
    pub fn entries(&self) -> usize {
        self.machine().entries() as usize
    }

    /// Approximate wire size of the snapshot body in bytes, O(1) from the
    /// running totals: [`KvEntry::wire_bytes`] per KV entry (28 bytes plus
    /// the value), and exactly the legacy 16 bytes per counter entry, so
    /// historical transfer accounting (and the goldens that pin it) is
    /// unchanged.
    pub fn wire_bytes(&self) -> usize {
        match self {
            StateSnapshot::Counter(m) => m.entries() as usize * 16,
            StateSnapshot::Kv(m) => m.entries() as usize * 28 + m.value_bytes() as usize,
        }
    }

    /// Feed the snapshot's canonical byte stream into `out` — a running hash,
    /// or a buffer when the stream itself is wanted — walking the pages in key
    /// order. The counter stream (length + key/counter pairs, all LE) is
    /// byte-identical to the legacy checkpoint digest input. The kv stream is
    /// two-level: domain tag, length, then `(key, leaf)` per entry, where the
    /// leaf is the entry's cached BLAKE2s — 40 bytes per entry instead of the
    /// value bytes, and as collision-resistant as hashing them inline. It
    /// trusts the cached leaves: check [`StateSnapshot::leaves_valid`] first
    /// on a snapshot this process did not take itself.
    pub fn hash_into(&self, out: &mut impl EncodeSink) {
        match self {
            StateSnapshot::Counter(m) => {
                out.write(&m.entries().to_le_bytes());
                for (k, v) in m.iter() {
                    out.write(&k.to_le_bytes());
                    out.write(&v.to_le_bytes());
                }
            }
            StateSnapshot::Kv(m) => {
                out.write(b"kv-state-v2");
                out.write(&m.entries().to_le_bytes());
                for (k, e) in m.iter() {
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
            StateSnapshot::Kv(m) => m.leaves_valid(),
        }
    }
}

/// Build a machine pre-loaded with `snapshot`'s state, as a version of its
/// own (leaves, digest and byte totals recomputed from the bytes, so it agrees
/// with peers that executed the full history whatever the snapshot's sender
/// cached). For a copy of a machine's own state use [`StateMachine::fork`].
pub fn machine_from_snapshot(snapshot: &StateSnapshot) -> Box<dyn StateMachine> {
    match snapshot {
        StateSnapshot::Counter(m) => Box::new(CounterMachine::from_state(m.iter())),
        StateSnapshot::Kv(m) => {
            Box::new(KvMachine::from_state(m.iter().map(|(k, e)| (k, e.clone()))))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{machine_for, StateMachine};
    use ava_crypto::{blake2s, sha256, Sha256};
    use ava_types::{ClientId, Round, Transaction, TxId, TxKind};
    use proptest::{proptest, ProptestConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

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
            StateSnapshot::Counter(m) => {
                m.iter().map(|(k, v)| (k, v.to_le_bytes().to_vec())).collect()
            }
            StateSnapshot::Kv(m) => m.iter().map(|(k, e)| (k, e.leaf.to_vec())).collect(),
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
            // A checkpoint digest is the SHA-256 of this stream: a buffer must
            // hold exactly what the hasher is fed, and two snapshots must write
            // the same bytes exactly when they commit to the same pairs.
            let kind = if seed % 2 == 0 { StateMachineKind::Kv } else { StateMachineKind::Counter };
            // Key 7 is always present, so no state is empty.
            let mut ops = random_ops(seed, n);
            ops.push((Round(50), Transaction::write(ClientId(1), n as u64, 7, 21)));
            let a = replay(kind, &ops).snapshot();
            let mut later = replay(kind, &ops);
            let b = match change {
                // The same state, built again (another version, equal leaves).
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
                    StateSnapshot::Counter(m) => {
                        let (_, v) = m.iter().next().expect("key 7");
                        let moved = (change == 4).then_some((2_000, v));
                        StateSnapshot::counters(m.iter().skip(1).chain(moved))
                    }
                    StateSnapshot::Kv(m) => {
                        let (_, e) = m.iter().next().expect("key 7");
                        let moved = (change == 4).then(|| (2_000, e.clone()));
                        let kept = m.iter().skip(1).map(|(k, e)| (k, e.clone()));
                        StateSnapshot::kv_entries(kept.chain(moved))
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

    /// What a per-entry model of `ops` holds: key → write counter, and key →
    /// (version, last-writer round, value size).
    #[allow(clippy::type_complexity)]
    fn model(ops: &[(Round, Transaction)]) -> (BTreeMap<u64, u64>, BTreeMap<u64, (u64, u64, u32)>) {
        let (mut counters, mut kv) = (BTreeMap::new(), BTreeMap::new());
        for (round, tx) in ops {
            let (keys, size) = match &tx.kind {
                TxKind::Write { key, value_size } => (vec![*key], *value_size),
                TxKind::MultiWrite { keys, value_size } => (keys.clone(), *value_size),
                TxKind::Read { .. } | TxKind::Scan { .. } => continue,
            };
            for key in keys {
                *counters.entry(key).or_insert(0) += 1;
                let entry = kv.entry(key).or_insert((0, 0, 0));
                *entry = (entry.0 + 1, round.0, size);
            }
        }
        (counters, kv)
    }

    /// `entries()`, `wire_bytes()` and the `hash_into` stream of a model,
    /// recomputed entry by entry from the bytes.
    fn model_accounting(
        kind: StateMachineKind,
        ops: &[(Round, Transaction)],
    ) -> (usize, usize, Vec<u8>) {
        let (counters, kv) = model(ops);
        let mut stream = Vec::new();
        match kind {
            StateMachineKind::Counter => {
                stream.extend((counters.len() as u64).to_le_bytes());
                for (k, v) in &counters {
                    stream.extend(k.to_le_bytes());
                    stream.extend(v.to_le_bytes());
                }
                (counters.len(), counters.len() * 16, stream)
            }
            StateMachineKind::Kv => {
                stream.extend(b"kv-state-v2");
                stream.extend((kv.len() as u64).to_le_bytes());
                let mut wire = 0;
                for (&k, &(version, round, size)) in &kv {
                    let value = KvMachine::fill_value(k, version, size);
                    let mut leaf = b"ava-kv-entry".to_vec();
                    leaf.extend(k.to_le_bytes());
                    leaf.extend(version.to_le_bytes());
                    leaf.extend(round.to_le_bytes());
                    leaf.extend(size.to_le_bytes());
                    leaf.extend(value.iter());
                    stream.extend(k.to_le_bytes());
                    stream.extend(blake2s(&leaf));
                    wire += 8 + 8 + 8 + 4 + value.len();
                }
                (kv.len(), wire, stream)
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn image_accounting_equals_a_per_entry_recompute(
            seed in 0u64..1_000_000,
            n in 0usize..120,
            later in 1usize..40,
        ) {
            // The totals an image reports in O(1) and the stream it hashes,
            // against a model rebuilt entry by entry; and an image taken
            // before later writes keeps reporting the state it was taken of.
            let ops = random_ops(seed, n + later);
            for kind in [StateMachineKind::Counter, StateMachineKind::Kv] {
                let mut live = replay(kind, &ops[..n]);
                let image = live.snapshot();
                let check = |image: &StateSnapshot, ops: &[(Round, Transaction)]| {
                    let (entries, wire, model_stream) = model_accounting(kind, ops);
                    assert_eq!(image.entries(), entries, "{kind:?}: entries");
                    assert_eq!(image.wire_bytes(), wire, "{kind:?}: wire bytes");
                    assert_eq!(stream(image), model_stream, "{kind:?}: stream");
                    assert!(image.leaves_valid());
                };
                check(&image, &ops[..n]);
                for (round, tx) in &ops[n..] {
                    live.apply(*round, tx);
                }
                check(&live.snapshot(), &ops);
                check(&image, &ops[..n]);
            }
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

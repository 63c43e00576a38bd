//! The [`StateMachine`] trait and its two implementations: the legacy
//! [`CounterMachine`] and the real keyed [`KvMachine`].

use crate::snapshot::StateSnapshot;
use ava_crypto::Sha256;
use ava_types::{Round, Transaction, TxKind};
use std::cell::RefCell;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Which replicated state machine a deployment executes against.
///
/// `Counter` is the default: every configuration that predates `ava-state`
/// behaves byte-identically under it (the determinism goldens pin this).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum StateMachineKind {
    /// Legacy placeholder: key → write counter, no value bytes.
    #[default]
    Counter,
    /// Real keyed KV store: key → versioned value bytes.
    Kv,
}

impl StateMachineKind {
    /// Short label used in reports and bench shape names.
    pub fn label(self) -> &'static str {
        match self {
            StateMachineKind::Counter => "counter",
            StateMachineKind::Kv => "kv",
        }
    }
}

/// What applying one transaction did to the state, for cost accounting.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ApplyOutcome {
    /// Value bytes materialised by the write (0 for reads and for the counter
    /// machine — the execution layer charges `CostModel::per_value_byte_ns`
    /// only when this is nonzero, which keeps legacy runs cost-identical).
    pub value_bytes: u64,
    /// Number of keys written (>1 for `TxKind::MultiWrite`).
    pub keys_written: u32,
}

/// A deterministic replicated state machine: Stage 3 applies the globally
/// ordered transaction stream through this interface, and the read path serves
/// committed values from it cluster-locally (E2 semantics).
///
/// Implementations must be deterministic functions of the applied `(round, tx)`
/// sequence — every correct replica applies the same stream and must land on
/// the same [`StateMachine::digest`]. The digest must also be
/// history-independent (a function of the current state only), so a replica
/// that restores from a peer snapshot agrees with peers that executed the full
/// history.
pub trait StateMachine: Send {
    /// Which machine this is.
    fn kind(&self) -> StateMachineKind;

    /// Apply one committed transaction for `round`. Read-only kinds
    /// (`Read`/`Scan`) are no-ops — they never enter the ordered stream, but a
    /// machine must tolerate them defensively.
    fn apply(&mut self, round: Round, tx: &Transaction) -> ApplyOutcome;

    /// Length in bytes of the committed value under `key` (0 if absent, and
    /// always 0 for the counter machine — read replies carry no value bytes).
    fn read_len(&self, key: u64) -> u32;

    /// Total value bytes a `Scan { start_key, count }` would return: the
    /// values of the first `count` present keys at or after `start_key`.
    fn scan_bytes(&self, start_key: u64, count: u32) -> u64;

    /// Number of keys present.
    fn entries(&self) -> u64;

    /// Total committed value bytes across all keys (0 for the counter machine).
    fn value_bytes(&self) -> u64;

    /// History-independent digest of the current state (XOR set-hash of
    /// per-entry SHA-256 hashes).
    fn digest(&self) -> [u8; 32];

    /// A serialisable point-in-time image of the state.
    fn snapshot(&self) -> StateSnapshot;

    /// An independent working copy of this machine that keeps its derived
    /// state (cached leaves, accumulator, byte total) — for replaying records
    /// speculatively on the replica's *own* state. State received from
    /// elsewhere goes through [`crate::machine_from_snapshot`], which
    /// recomputes everything derived.
    fn fork(&self) -> Box<dyn StateMachine>;
}

/// Build a fresh, empty machine of `kind`.
pub fn machine_for(kind: StateMachineKind) -> Box<dyn StateMachine> {
    match kind {
        StateMachineKind::Counter => Box::new(CounterMachine::default()),
        StateMachineKind::Kv => Box::new(KvMachine::default()),
    }
}

fn xor_acc(acc: &mut [u8; 32], h: &[u8; 32]) {
    for (a, b) in acc.iter_mut().zip(h) {
        *a ^= *b;
    }
}

/// Keys per counter page: `key >> PAGE_BITS` names the page, the low bits the
/// slot. Settled by interleaved A/B on the paper's deployment
/// (`geo_hetero_counter`, 100 000 Zipf keys × 42 replicas, six pairs each,
/// `host_cpu_us_per_op` against 512 slots): 64 slots +7.2 % (0 of 6 pairs — a
/// 1 563-entry page map to walk per write); 4 096 slots −1.5 % (6 of 6, but
/// inside the runs' own quartile distance) for eight times the sparse worst
/// case below. 512 it is.
const PAGE_BITS: u32 = 9;
const PAGE_SLOTS: usize = 1 << PAGE_BITS;

/// One dense run of `PAGE_SLOTS` consecutive keys' counters; `0` = absent.
type CounterPage = Box<[u64; PAGE_SLOTS]>;

/// The legacy placeholder machine: `key → write counter`. Kept bit-compatible
/// with the pre-`ava-state` execution layer — same snapshot map, same
/// snapshot byte stream, zero value bytes. Its digest is computed on demand,
/// not incrementally: counter deployments never emit `StateDigest` outputs, so
/// a per-write hash would tax the hot execute loop for a value nobody reads
/// (the KV machine, whose digest *is* read every round, pays the incremental
/// set-hash instead).
///
/// **Layout.** Counters live in dense 4 KiB pages of 512 consecutive keys,
/// found through a small ordered page map. Every generator in the tree draws
/// keys from a dense `0..key_space` through `Zipfian::sample` (key = rank, so
/// the hot keys are the low ones): the page map of a 100 000-key space has 196
/// entries, the Zipf head of every replica of a deployment sits in a handful
/// of pages that stay cache-resident, and a write is a short map walk plus
/// one indexed add — where the former per-key `BTreeMap<u64, u64>` walked a
/// cold 100 000-entry tree once per write in each of the 42 replicas. A count
/// of zero means "absent" (`apply` only ever increments, so a present key is
/// never zero), and [`StateMachine::entries`] is a running count. Everything
/// observable — `entries()`, `digest()`, the `StateSnapshot::Counter` map —
/// is produced by in-order iteration over the non-zero slots, so it is what
/// the per-key map produced, byte for byte.
///
/// **Sparse worst case.** A key with no neighbour within its 512-key page
/// holds a whole page: 4 KiB for one counter, against ≈ 16 bytes + node
/// overhead in a per-key map, i.e. *n* isolated keys cost *n* × 4 KiB. No
/// workload in the tree does that (a test pins the bound); a sparse key space
/// would want a smaller page.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct CounterMachine {
    pages: BTreeMap<u64, CounterPage>,
    entries: u64,
}

impl CounterMachine {
    /// Restore from a counter snapshot map. A zero counter is unrepresentable
    /// (no apply history produces one) and is dropped.
    pub fn from_state(state: BTreeMap<u64, u64>) -> Self {
        let mut machine = CounterMachine::default();
        for (key, count) in state {
            if count > 0 {
                *machine.slot(key) = count;
                machine.entries += 1;
            }
        }
        machine
    }

    fn entry_hash(key: u64, count: u64) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(b"ava-counter-entry");
        h.update(&key.to_le_bytes());
        h.update(&count.to_le_bytes());
        h.finalize()
    }

    fn slot(&mut self, key: u64) -> &mut u64 {
        let page = self.pages.entry(key >> PAGE_BITS).or_insert_with(|| Box::new([0; PAGE_SLOTS]));
        &mut page[(key & (PAGE_SLOTS as u64 - 1)) as usize]
    }

    fn bump(&mut self, key: u64) {
        let slot = self.slot(key);
        let first_write = *slot == 0;
        *slot += 1;
        self.entries += first_write as u64;
    }

    /// The present `(key, count)` pairs in ascending key order.
    fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.pages.iter().flat_map(|(page, slots)| {
            let base = page << PAGE_BITS;
            slots
                .iter()
                .enumerate()
                .filter(|(_, c)| **c > 0)
                .map(move |(i, c)| (base | i as u64, *c))
        })
    }
}

impl StateMachine for CounterMachine {
    fn kind(&self) -> StateMachineKind {
        StateMachineKind::Counter
    }

    fn apply(&mut self, _round: Round, tx: &Transaction) -> ApplyOutcome {
        match &tx.kind {
            TxKind::Write { key, .. } => {
                self.bump(*key);
                ApplyOutcome { value_bytes: 0, keys_written: 1 }
            }
            TxKind::MultiWrite { keys, .. } => {
                for key in keys {
                    self.bump(*key);
                }
                ApplyOutcome { value_bytes: 0, keys_written: keys.len() as u32 }
            }
            TxKind::Read { .. } | TxKind::Scan { .. } => ApplyOutcome::default(),
        }
    }

    fn read_len(&self, _key: u64) -> u32 {
        0
    }

    fn scan_bytes(&self, _start_key: u64, _count: u32) -> u64 {
        0
    }

    fn entries(&self) -> u64 {
        self.entries
    }

    fn value_bytes(&self) -> u64 {
        0
    }

    fn digest(&self) -> [u8; 32] {
        let mut acc = [0u8; 32];
        for (k, v) in self.iter() {
            xor_acc(&mut acc, &Self::entry_hash(k, v));
        }
        acc
    }

    fn snapshot(&self) -> StateSnapshot {
        StateSnapshot::Counter(self.iter().collect())
    }

    fn fork(&self) -> Box<dyn StateMachine> {
        Box::new(self.clone())
    }
}

/// One committed KV entry: a versioned value and the round of its last writer.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct KvEntry {
    /// Monotone per-key write counter (1 on first write).
    pub version: u64,
    /// The round whose execution last wrote the key.
    pub last_writer_round: u64,
    /// The committed value bytes (deterministically materialised — see
    /// [`KvMachine::fill_value`]), shared between the live map and every
    /// snapshot, checkpoint and restored machine that holds this entry.
    pub value: Arc<[u8]>,
    /// SHA-256 over `(key, version, last_writer_round, value)`, computed once
    /// by [`KvEntry::new`]: what the machine XORs in and out of its set-hash
    /// and what a checkpoint digest commits to. Derived state — never
    /// serialised, and never trusted on entries that arrive from elsewhere
    /// (the content fields are public, so a stale leaf is constructible:
    /// [`StateSnapshot::leaves_valid`] and [`KvMachine::from_state`] recompute
    /// it from the bytes).
    pub(crate) leaf: [u8; 32],
}

impl KvEntry {
    /// The entry stored under `key`, with its leaf hash computed from the
    /// bytes: one SHA-256 pass over the value. A write a replica commits itself
    /// pays it once per *process*, not once per replica (see `EntryMemo`);
    /// an entry that arrives from elsewhere pays it every time.
    pub fn new(key: u64, version: u64, last_writer_round: u64, value: Arc<[u8]>) -> Self {
        let mut entry = KvEntry { version, last_writer_round, value, leaf: [0; 32] };
        entry.leaf = entry.leaf_for(key);
        entry
    }

    /// The leaf hash this entry's content has under `key`, from scratch.
    pub(crate) fn leaf_for(&self, key: u64) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(b"ava-kv-entry");
        h.update(&key.to_le_bytes());
        h.update(&self.version.to_le_bytes());
        h.update(&self.last_writer_round.to_le_bytes());
        h.update(&(self.value.len() as u32).to_le_bytes());
        h.update(&self.value);
        h.finalize()
    }

    /// Wire size of the entry: key (8) + version (8) + round (8) + length
    /// prefix (4) + value bytes.
    pub fn wire_bytes(&self) -> usize {
        28 + self.value.len()
    }
}

/// Everything a committed entry is a pure function of: `(key, version,
/// last-writer round, value size)`. [`KvMachine::fill_value`] derives the bytes
/// from the first, second and fourth; the leaf covers all four and the bytes.
type WriteId = (u64, u64, u64, u32);

/// What one generation of the [`EntryMemo`] may pin, counting every entry as
/// its value bytes plus [`MEMO_ENTRY_CHARGE`]. Settled by interleaved A/B on
/// `kv_write_1kib` and `churn_faults_open_loop` (CHANGES.md, PR 19), a
/// constant and not a knob: the replicas of a deployment commit a write within
/// a few rounds of each other, so the memo only has to span that lag, and
/// every byte beyond it is a dead value kept resident.
const MEMO_GENERATION_BYTES: usize = 2 << 20;

/// What an entry costs a generation beside its value: the map slot (key,
/// entry, control byte) and the `Arc` header. Charging it is what bounds the
/// entry count when values are small or empty: a generation holds at most
/// `MEMO_GENERATION_BYTES / MEMO_ENTRY_CHARGE` = 16 384 entries.
const MEMO_ENTRY_CHARGE: usize = 128;

/// The per-thread memo of committed entries: what makes a write cost one
/// materialise-and-hash pass per *process*, where every replica of every
/// cluster executes it (Stage 3, Alg. 10) with bit-identical results.
///
/// **Exact.** An entry is stored under its whole [`WriteId`] and a lookup
/// compares all four fields, so a hit returns precisely what
/// `KvEntry::new(key, version, round, fill_value(key, version, size))` would
/// compute — no hash of the identity is trusted, and there is no collision to
/// assume away. The shared bytes are immutable behind `Arc<[u8]>`.
///
/// **Only for what the caller derived itself.** [`KvMachine::apply`] is the
/// one reader, with a version it read from its own map and a round and size
/// from the transaction it is executing. Every path that handles state from
/// elsewhere — [`KvMachine::from_state`], [`StateSnapshot::leaves_valid`] —
/// hashes the bytes it was given and neither reads nor fills the memo.
///
/// **Bounded by capacity, never by round.** Two generations: a miss inserts
/// into the young one; when that would pass [`MEMO_GENERATION_BYTES`] the old
/// generation is dropped and the young one takes its place. So the memo pins
/// at most 2 × 2 MiB (values plus the per-entry charge), and an entry lives
/// for one to two generations after its first commit. Round numbers play no
/// part: a thread runs deployments back to back (the benchmark's replicates,
/// a `RunPool` worker's scenarios), each restarting at round 1, and a memo
/// that kept "the last two rounds" would never hit again after the first. A
/// value too large for a generation by itself is committed and not kept.
#[derive(Default)]
struct EntryMemo {
    young: HashMap<WriteId, KvEntry>,
    old: HashMap<WriteId, KvEntry>,
    /// What the young generation has been charged so far.
    young_bytes: usize,
    hits: u64,
    misses: u64,
}

impl EntryMemo {
    fn get_or_commit(&mut self, key: u64, version: u64, round: u64, value_size: u32) -> KvEntry {
        let id = (key, version, round, value_size);
        if let Some(hit) = self.young.get(&id).or_else(|| self.old.get(&id)) {
            self.hits += 1;
            return hit.clone();
        }
        self.misses += 1;
        let entry =
            KvEntry::new(key, version, round, KvMachine::fill_value(key, version, value_size));
        let charge = MEMO_ENTRY_CHARGE + entry.value.len();
        if charge <= MEMO_GENERATION_BYTES {
            if self.young_bytes + charge > MEMO_GENERATION_BYTES {
                std::mem::swap(&mut self.young, &mut self.old);
                self.young.clear();
                self.young_bytes = 0;
            }
            self.young_bytes += charge;
            self.young.insert(id, entry.clone());
        }
        entry
    }
}

thread_local! {
    static ENTRY_MEMO: RefCell<EntryMemo> = RefCell::default();
}

/// The entry a replica commits for a write it executed itself, from this
/// thread's [`EntryMemo`].
fn committed_entry(key: u64, version: u64, round: u64, value_size: u32) -> KvEntry {
    ENTRY_MEMO.with_borrow_mut(|memo| memo.get_or_commit(key, version, round, value_size))
}

/// Counters and present size of the calling thread's committed-entry memo
/// (see [`entry_memo_stats`]): the per-thread, exactly keyed, capacity-bounded
/// map through which the replicas of a deployment share one materialised and
/// hashed [`KvEntry`] per committed write.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct EntryMemoStats {
    /// Writes that took an entry another machine on this thread had committed.
    pub hits: u64,
    /// Writes that materialised and hashed their value.
    pub misses: u64,
    /// Entries the memo holds now (both generations).
    pub entries: usize,
    /// Bytes the memo pins now: the held values plus 128 per entry.
    pub pinned_bytes: usize,
}

/// What the calling thread's committed-entry memo has done since the thread
/// started, and what it holds. For profiles and tests: nothing in a run
/// depends on it.
pub fn entry_memo_stats() -> EntryMemoStats {
    ENTRY_MEMO.with_borrow(|memo| {
        let held = || memo.young.values().chain(memo.old.values());
        EntryMemoStats {
            hits: memo.hits,
            misses: memo.misses,
            entries: held().count(),
            pinned_bytes: held().map(|e| MEMO_ENTRY_CHARGE + e.value.len()).sum(),
        }
    })
}

/// The real keyed KV machine: `key → {version, value bytes, last-writer
/// round}`, with multi-key writes and range reads.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct KvMachine {
    entries: BTreeMap<u64, KvEntry>,
    acc: [u8; 32],
    value_bytes: u64,
}

impl KvMachine {
    /// Restore from a KV snapshot map that came from elsewhere (a peer, the
    /// store), recomputing every leaf, the set-hash accumulator and the byte
    /// total from the bytes (O(state), paid once at adoption time). The value
    /// bytes themselves stay shared with the snapshot.
    pub fn from_state(mut entries: BTreeMap<u64, KvEntry>) -> Self {
        let mut acc = [0u8; 32];
        let mut value_bytes = 0u64;
        for (k, e) in &mut entries {
            e.leaf = e.leaf_for(*k);
            xor_acc(&mut acc, &e.leaf);
            value_bytes += e.value.len() as u64;
        }
        KvMachine { entries, acc, value_bytes }
    }

    /// The underlying entry map.
    pub fn entries_map(&self) -> &BTreeMap<u64, KvEntry> {
        &self.entries
    }

    /// The committed entry under `key`, if any.
    pub fn get(&self, key: u64) -> Option<&KvEntry> {
        self.entries.get(&key)
    }

    /// Deterministic value content for `(key, version)`: the simulator carries
    /// real bytes (so snapshot/transfer sizes and digests are meaningful)
    /// without shipping client payloads through the ordering path. Always a
    /// fresh allocation; the write path materialises a committed value once
    /// per process and shares it (see `EntryMemo`).
    pub fn fill_value(key: u64, version: u64, size: u32) -> Arc<[u8]> {
        let seed = key.wrapping_mul(31).wrapping_add(version) as u8;
        (0..size as usize).map(|i| seed.wrapping_add(i as u8)).collect()
    }

    /// Commit one write: a single walk of the map finds the key's slot, reads
    /// the version it holds and replaces the entry in place.
    fn write_one(&mut self, round: Round, key: u64, value_size: u32) -> u64 {
        let committed = match self.entries.entry(key) {
            Entry::Occupied(mut slot) => {
                let next = slot.get().version + 1;
                let old = slot.insert(committed_entry(key, next, round.0, value_size));
                self.value_bytes -= old.value.len() as u64;
                xor_acc(&mut self.acc, &old.leaf);
                slot.into_mut()
            }
            Entry::Vacant(slot) => slot.insert(committed_entry(key, 1, round.0, value_size)),
        };
        let written = committed.value.len() as u64;
        xor_acc(&mut self.acc, &committed.leaf);
        self.value_bytes += written;
        written
    }
}

impl StateMachine for KvMachine {
    fn kind(&self) -> StateMachineKind {
        StateMachineKind::Kv
    }

    fn apply(&mut self, round: Round, tx: &Transaction) -> ApplyOutcome {
        match &tx.kind {
            TxKind::Write { key, value_size } => {
                let value_bytes = self.write_one(round, *key, *value_size);
                ApplyOutcome { value_bytes, keys_written: 1 }
            }
            TxKind::MultiWrite { keys, value_size } => {
                let mut value_bytes = 0;
                for key in keys {
                    value_bytes += self.write_one(round, *key, *value_size);
                }
                ApplyOutcome { value_bytes, keys_written: keys.len() as u32 }
            }
            TxKind::Read { .. } | TxKind::Scan { .. } => ApplyOutcome::default(),
        }
    }

    fn read_len(&self, key: u64) -> u32 {
        self.entries.get(&key).map_or(0, |e| e.value.len() as u32)
    }

    fn scan_bytes(&self, start_key: u64, count: u32) -> u64 {
        self.entries
            .range(start_key..)
            .take(count as usize)
            .map(|(_, e)| e.value.len() as u64)
            .sum()
    }

    fn entries(&self) -> u64 {
        self.entries.len() as u64
    }

    fn value_bytes(&self) -> u64 {
        self.value_bytes
    }

    fn digest(&self) -> [u8; 32] {
        self.acc
    }

    fn snapshot(&self) -> StateSnapshot {
        StateSnapshot::Kv(self.entries.clone())
    }

    fn fork(&self) -> Box<dyn StateMachine> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ava_types::{ClientId, TxId};
    use proptest::{proptest, ProptestConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn write(seq: u64, key: u64, size: u32) -> Transaction {
        Transaction::write(ClientId(1), seq, key, size)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn cached_leaves_and_totals_equal_a_from_scratch_recompute(
            seed in 0u64..1_000_000,
            n in 1usize..150,
        ) {
            // Few keys, so most writes are overwrites; sizes change (down to
            // empty values); a MultiWrite may name one key more than once.
            let mut rng = StdRng::seed_from_u64(seed);
            let mut live = KvMachine::default();
            for seq in 0..n as u64 {
                let value_size = rng.gen_range(0..300u32);
                let kind = if rng.gen_range(0..2u32) == 0 {
                    TxKind::Write { key: rng.gen_range(0..12u64), value_size }
                } else {
                    let keys = (0..rng.gen_range(1..6u32)).map(|_| rng.gen_range(0..12u64));
                    TxKind::MultiWrite { keys: keys.collect(), value_size }
                };
                let tx = Transaction {
                    id: TxId { client: ClientId(1), seq },
                    kind,
                    payload_size: 64,
                };
                live.apply(Round(1 + seq / 4), &tx);
            }
            for (k, e) in live.entries_map() {
                assert_eq!(e.leaf, e.leaf_for(*k), "cached leaf of key {k} is stale");
            }
            // `from_state` must not lean on what the entries cached, nor on
            // the memo: it neither reads nor fills it.
            let mut foreign = live.entries_map().clone();
            for e in foreign.values_mut() {
                e.leaf = [0; 32];
            }
            let memo = entry_memo_stats();
            assert_eq!(KvMachine::from_state(foreign), live);
            assert_eq!(entry_memo_stats(), memo, "from_state touched the committed-entry memo");
        }
    }

    /// One write of a shared op stream: `(round, key, value_size)`.
    type Op = (u64, u64, u32);

    fn op_stream(rng: &mut StdRng, n: usize) -> Vec<Op> {
        // Few keys, so versions climb; sizes vary down to empty values.
        (0..n as u64)
            .map(|i| (1 + i / 4, rng.gen_range(0..12u64), rng.gen_range(0..300u32)))
            .collect()
    }

    fn replay(ops: &[Op]) -> KvMachine {
        let mut m = KvMachine::default();
        for (seq, (round, key, size)) in ops.iter().enumerate() {
            m.apply(Round(*round), &write(seq as u64, *key, *size));
        }
        m
    }

    /// Every entry is what `KvEntry::new` computes from scratch for the last
    /// write `ops` made to its key — fields, bytes and leaf.
    fn assert_from_scratch(m: &KvMachine, ops: &[Op]) {
        let mut last: BTreeMap<u64, (u64, u64, u32)> = BTreeMap::new();
        for (round, key, size) in ops {
            let version = last.get(key).map_or(1, |(v, ..)| v + 1);
            last.insert(*key, (version, *round, *size));
        }
        assert_eq!(m.entries(), last.len() as u64);
        for (key, (version, round, size)) in last {
            let e = m.get(key).expect("written");
            let scratch =
                KvEntry::new(key, version, round, KvMachine::fill_value(key, version, size));
            assert_eq!(*e, scratch, "key {key}: the memo returned another write's entry");
            assert_eq!(e.leaf, e.leaf_for(key), "key {key}: stale leaf");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn memo_hands_every_machine_the_from_scratch_entry(
            seed in 0u64..1_000_000,
            n in 1usize..150,
            k in 2usize..6,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let ops = op_stream(&mut rng, n);
            // Same keys in the same order, so the same versions — but every
            // write differs from its twin in the round or in the size.
            let diverging: Vec<Op> = ops
                .iter()
                .map(|&(round, key, size)| match rng.gen_range(0..2u32) {
                    0 => (round + 1_000, key, size),
                    _ => (round, key, size + 1),
                })
                .collect();
            // The replicas of a deployment: one stream, k machines, one thread.
            // The diverging machine runs between them, on a warm memo.
            let first = replay(&ops);
            let other = replay(&diverging);
            let rest: Vec<KvMachine> = (1..k).map(|_| replay(&ops)).collect();
            assert_from_scratch(&first, &ops);
            assert_from_scratch(&other, &diverging);
            for m in &rest {
                assert_eq!(*m, first);
                assert_from_scratch(m, &ops);
                for (key, e) in m.entries_map() {
                    let shared = &first.get(*key).expect("same stream").value;
                    assert!(Arc::ptr_eq(&e.value, shared), "key {key}: committed twice");
                    let foreign = &other.get(*key).expect("same keys").value;
                    assert!(!Arc::ptr_eq(&e.value, foreign), "key {key}: crossed streams");
                }
            }
        }
    }

    #[test]
    fn memo_is_bounded_in_entries_and_bytes_and_evicts_by_capacity() {
        let generation_entries = MEMO_GENERATION_BYTES / MEMO_ENTRY_CHARGE;
        let within_bounds = || {
            let s = entry_memo_stats();
            assert!(s.pinned_bytes <= 2 * MEMO_GENERATION_BYTES, "pins {} bytes", s.pinned_bytes);
            assert!(s.entries <= 2 * generation_entries, "holds {} entries", s.entries);
            s
        };
        // All in one round no other test writes in: the round plays no part in
        // eviction, and nothing a test thread ran before can hit.
        let round = Round(190_019);
        let base = within_bounds();
        // More than three generations of distinct 1 KiB writes (the byte
        // bound), then of empty ones (the entry bound).
        let mut m = KvMachine::default();
        let kib_writes = 3 * MEMO_GENERATION_BYTES as u64 / 1024 + 100;
        for key in 0..kib_writes {
            m.apply(round, &write(key, key, 1024));
            within_bounds();
        }
        assert!(within_bounds().pinned_bytes > MEMO_GENERATION_BYTES, "both generations in use");
        let empty_writes = 3 * generation_entries as u64 + 100;
        for key in 0..empty_writes {
            m.apply(round, &write(key, kib_writes + key, 0));
        }
        let s = within_bounds();
        assert!(s.entries > generation_entries, "both generations in use");
        assert_eq!(s.hits, base.hits, "every write was distinct");
        assert_eq!(s.misses, base.misses + m.entries());

        // The first write is long evicted: a second machine commits it again,
        // equal to the first machine's entry and sharing nothing with it.
        let mut again = KvMachine::default();
        again.apply(round, &write(0, 0, 1024));
        assert_eq!(entry_memo_stats().misses, s.misses + 1, "an evicted entry cannot hit");
        assert_eq!(again.get(0), m.get(0));
        let (first, recommitted) = (m.get(0).expect("written"), again.get(0).expect("written"));
        assert!(!Arc::ptr_eq(&first.value, &recommitted.value));
        // The last write is still held.
        again.apply(round, &write(1, kib_writes + empty_writes - 1, 0));
        assert_eq!(entry_memo_stats().hits, s.hits + 1);

        // A value no generation could hold is committed and not kept.
        let before = within_bounds();
        let huge = MEMO_GENERATION_BYTES as u32;
        m.apply(round, &write(0, u64::MAX, huge));
        again.apply(round, &write(0, u64::MAX, huge));
        let after = within_bounds();
        assert_eq!((after.entries, after.pinned_bytes), (before.entries, before.pinned_bytes));
        assert_eq!((after.hits, after.misses), (before.hits, before.misses + 2));
        assert_eq!(again.get(u64::MAX), m.get(u64::MAX));
    }

    #[test]
    fn a_cold_thread_and_a_warm_thread_build_equal_machines() {
        let ops = op_stream(&mut StdRng::seed_from_u64(19), 200);
        let warm_up = replay(&ops);
        let before = entry_memo_stats();
        let warm = replay(&ops);
        let after = entry_memo_stats();
        assert_eq!(
            (after.hits, after.misses),
            (before.hits + ops.len() as u64, before.misses),
            "the second replay ran on a warm memo"
        );
        let cold = std::thread::scope(|scope| {
            let spawned = scope.spawn(|| {
                assert_eq!(entry_memo_stats(), EntryMemoStats::default(), "memos are per thread");
                let cold = replay(&ops);
                assert_eq!(entry_memo_stats().hits, 0);
                cold
            });
            spawned.join().expect("the cold replay panicked")
        });
        assert_eq!(cold, warm);
        assert_eq!(warm, warm_up);
        assert_eq!(entry_memo_stats(), after, "another thread's writes never land here");
    }

    #[test]
    fn snapshots_and_forks_share_value_bytes_and_stay_isolated() {
        let mut m = KvMachine::default();
        m.apply(Round(1), &write(0, 7, 256));
        let StateSnapshot::Kv(snap) = m.snapshot() else { panic!("kv snapshot") };
        let restored = KvMachine::from_state(snap.clone());
        let mut fork = m.fork();
        let live = &m.get(7).expect("written").value;
        assert!(Arc::ptr_eq(live, &snap[&7].value), "a snapshot must not copy value bytes");
        assert!(Arc::ptr_eq(live, &restored.get(7).expect("restored").value));
        assert_eq!(restored, m);

        // Writes to the fork and to the original leave the other, and the
        // snapshot, as they were.
        let before = m.digest();
        fork.apply(Round(2), &write(1, 7, 64));
        assert_eq!(m.digest(), before);
        assert_ne!(fork.digest(), before);
        m.apply(Round(3), &write(2, 7, 32));
        assert_eq!((snap[&7].version, snap[&7].value.len()), (1, 256));
        assert_eq!((fork.read_len(7), fork.value_bytes()), (64, 64));
        let mut replayed = KvMachine::default();
        replayed.apply(Round(1), &write(0, 7, 256));
        replayed.apply(Round(2), &write(1, 7, 64));
        assert_eq!(fork.digest(), replayed.digest(), "a fork keeps a correct accumulator");
    }

    #[test]
    fn counter_machine_matches_legacy_semantics() {
        let mut m = CounterMachine::default();
        m.apply(Round(1), &write(0, 7, 1024));
        m.apply(Round(2), &write(1, 7, 1024));
        m.apply(Round(2), &write(2, 9, 1024));
        assert_eq!(m.snapshot(), StateSnapshot::Counter(BTreeMap::from([(7, 2), (9, 1)])));
        assert_eq!(m.value_bytes(), 0, "counter writes carry no value bytes");
        assert_eq!(m.read_len(7), 0, "counter reads return no value bytes");
        // Reads are defensive no-ops.
        let before = m.digest();
        m.apply(Round(3), &Transaction::read(ClientId(1), 3, 7));
        assert_eq!(m.digest(), before);
    }

    /// A key stream that exercises every page shape: the dense Zipf-like head
    /// the generators produce, scattered sparse keys, and both ends of `u64`.
    fn counter_key(rng: &mut StdRng) -> u64 {
        match rng.gen_range(0..10u32) {
            0 => 0,
            1 => u64::MAX,
            2 => u64::MAX - rng.gen_range(0..600u64),
            3 | 4 => rng.gen::<u64>(),
            // Squaring a uniform draw skews toward the low keys.
            _ => {
                let u: f64 = rng.gen();
                (u * u * 3_000.0) as u64
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn counter_table_equals_a_per_key_map(seed in 0u64..1_000_000, n in 1usize..400) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut live = CounterMachine::default();
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            for seq in 0..n as u64 {
                let kind = match rng.gen_range(0..4u32) {
                    0 => TxKind::Read { key: counter_key(&mut rng) },
                    1 => {
                        // May name one key more than once.
                        let first = counter_key(&mut rng);
                        let keys = (0..rng.gen_range(1..6u32))
                            .map(|i| if i % 2 == 0 { first } else { counter_key(&mut rng) });
                        TxKind::MultiWrite { keys: keys.collect(), value_size: 64 }
                    }
                    _ => TxKind::Write { key: counter_key(&mut rng), value_size: 64 },
                };
                match &kind {
                    TxKind::Write { key, .. } => *model.entry(*key).or_insert(0) += 1,
                    TxKind::MultiWrite { keys, .. } => {
                        keys.iter().for_each(|k| *model.entry(*k).or_insert(0) += 1)
                    }
                    TxKind::Read { .. } | TxKind::Scan { .. } => {}
                }
                let tx = Transaction { id: TxId { client: ClientId(1), seq }, kind, payload_size: 64 };
                live.apply(Round(1 + seq / 4), &tx);
            }
            let model_digest = model.iter().fold([0u8; 32], |mut acc, (k, v)| {
                xor_acc(&mut acc, &CounterMachine::entry_hash(*k, *v));
                acc
            });
            assert_eq!(live.entries(), model.len() as u64);
            assert_eq!(live.digest(), model_digest);
            let snapshot = live.snapshot();
            assert_eq!(snapshot.wire_bytes(), model.len() * 16);
            assert_eq!(snapshot, StateSnapshot::Counter(model.clone()));

            let restored = CounterMachine::from_state(model.clone());
            assert_eq!(restored, live, "from_state(snapshot) must rebuild the same table");

            // A fork is a working copy: a write to either side stays there.
            let (fork_key, live_key) = (counter_key(&mut rng), counter_key(&mut rng));
            let mut fork = live.fork();
            fork.apply(Round(99), &write(n as u64, fork_key, 64));
            assert_eq!(live.snapshot(), snapshot, "a write to the fork reached the original");
            live.apply(Round(99), &write(n as u64 + 1, live_key, 64));
            *model.entry(fork_key).or_insert(0) += 1;
            assert_eq!(fork.snapshot(), StateSnapshot::Counter(model));
        }
    }

    #[test]
    fn isolated_keys_hold_one_page_each() {
        // The documented sparse worst case: n keys with no neighbour within
        // their 512-key page cost n pages of 4 KiB; dense keys share pages.
        let page_bytes = std::mem::size_of::<[u64; PAGE_SLOTS]>();
        assert_eq!(page_bytes, 4096);
        let mut sparse = CounterMachine::default();
        for i in 0..100u64 {
            sparse.apply(Round(1), &write(i, i * 1_000_003, 64));
        }
        assert_eq!(sparse.entries(), 100);
        assert_eq!(sparse.pages.len() * page_bytes, 100 * 4096);
        let mut dense = CounterMachine::default();
        for key in 0..100_000u64 {
            dense.apply(Round(1), &write(key, key, 64));
        }
        assert_eq!(dense.entries(), 100_000);
        assert_eq!(dense.pages.len() * page_bytes, 196 * 4096, "8.03 bytes per dense key");
        // A zero counter cannot be represented and is not restored.
        let with_zero = CounterMachine::from_state(BTreeMap::from([(5, 0), (6, 2)]));
        assert_eq!((with_zero.entries(), with_zero.pages.len()), (1, 1));
    }

    #[test]
    fn kv_machine_versions_values_and_tracks_bytes() {
        let mut m = KvMachine::default();
        let out = m.apply(Round(4), &write(0, 7, 256));
        assert_eq!(out.value_bytes, 256);
        let e = m.get(7).expect("written");
        assert_eq!((e.version, e.last_writer_round, e.value.len()), (1, 4, 256));

        // Overwrite bumps the version, replaces the bytes, moves the round.
        let out = m.apply(Round(9), &write(1, 7, 64));
        assert_eq!(out.value_bytes, 64);
        let e = m.get(7).expect("rewritten");
        assert_eq!((e.version, e.last_writer_round, e.value.len()), (2, 9, 64));
        assert_eq!(m.value_bytes(), 64, "old value bytes must be released");
        assert_eq!(m.read_len(7), 64);
        assert_eq!(m.entries(), 1);
    }

    #[test]
    fn kv_multiwrite_and_scan() {
        let mut m = KvMachine::default();
        let tx = Transaction {
            id: TxId { client: ClientId(1), seq: 0 },
            kind: TxKind::MultiWrite { keys: vec![3, 5, 9], value_size: 100 },
            payload_size: 300,
        };
        let out = m.apply(Round(2), &tx);
        assert_eq!((out.keys_written, out.value_bytes), (3, 300));
        assert_eq!(m.scan_bytes(4, 2), 200, "scan takes the first present keys >= start");
        assert_eq!(m.scan_bytes(0, 10), 300);
        assert_eq!(m.scan_bytes(10, 4), 0);
    }

    #[test]
    fn digest_is_history_independent() {
        // Same final state via different histories → same digest.
        let mut a = KvMachine::default();
        a.apply(Round(1), &write(0, 1, 100));
        a.apply(Round(2), &write(1, 2, 100));
        a.apply(Round(3), &write(2, 1, 100)); // key 1 reaches version 2 in round 3

        let mut b = KvMachine::default();
        b.apply(Round(2), &write(5, 2, 100));
        b.apply(Round(1), &write(6, 1, 100));
        b.apply(Round(3), &write(7, 1, 100));
        assert_eq!(a.digest(), b.digest());

        // Restoring from the snapshot recomputes the identical digest.
        let restored = match a.snapshot() {
            StateSnapshot::Kv(entries) => KvMachine::from_state(entries),
            s => panic!("kv machine must produce a kv snapshot, got {s:?}"),
        };
        assert_eq!(restored.digest(), a.digest());
        assert_eq!(restored.value_bytes(), a.value_bytes());

        // And a diverging value is visible.
        let mut c = KvMachine::default();
        c.apply(Round(1), &write(0, 1, 100));
        c.apply(Round(2), &write(1, 2, 101));
        c.apply(Round(3), &write(2, 1, 100));
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn fill_value_is_deterministic() {
        assert_eq!(KvMachine::fill_value(7, 2, 64), KvMachine::fill_value(7, 2, 64));
        assert_ne!(KvMachine::fill_value(7, 2, 64), KvMachine::fill_value(7, 3, 64));
    }
}

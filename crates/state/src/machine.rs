//! The [`StateMachine`] trait and its two implementations: the legacy
//! [`CounterMachine`] and the real keyed [`KvMachine`].

use crate::snapshot::StateSnapshot;
use ava_crypto::blake2s::{blake2s_lanes, blake2s_many};
use ava_crypto::Sha256;
use ava_types::{Round, Transaction, TxKind};
use std::any::Any;
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Weak};

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

/// What applying transactions did to the state, for cost accounting.
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
///
/// Both machines are **copy-on-write values**: the state sits behind one `Arc`
/// root, its entries in `Arc`'d pages of `key >> 9`. [`StateMachine::fork`]
/// copies a pointer, and a write copies the root and the one page it touches
/// only while another holder shares them. A new machine must keep that shape,
/// and its `Default` must start from the thread's shared empty state, or the
/// replicas that execute the same rounds stop sharing one result (see
/// [`StateVersion`]).
pub trait StateMachine: Send {
    /// Which machine this is.
    fn kind(&self) -> StateMachineKind;

    /// Apply one committed round's transactions, `txs` in execution order:
    /// the state and the summed outcome are what applying them one by one
    /// would give, but the machine may do the round's work together (the KV
    /// machine hashes the round's leaves side by side). Read-only kinds
    /// (`Read`/`Scan`) are no-ops — they never enter the ordered stream, but a
    /// machine must tolerate them defensively. A round that writes nothing
    /// leaves the version as it was.
    fn apply_round(&mut self, round: Round, txs: &[&Transaction]) -> ApplyOutcome;

    /// Apply one committed transaction for `round`: the one-transaction round.
    fn apply(&mut self, round: Round, tx: &Transaction) -> ApplyOutcome {
        self.apply_round(round, &[tx])
    }

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

    /// History-independent digest of the current state: the XOR set-hash of
    /// one hash per entry (the counter machine's SHA-256 of key and count, the
    /// KV machine's BLAKE2s leaf — see [`KvEntry::new`]).
    fn digest(&self) -> [u8; 32];

    /// A point-in-time image of the state, in O(1): the image holds this
    /// very version (see [`StateSnapshot`]), so later writes to the machine
    /// copy what they touch and leave the image as it was.
    fn snapshot(&self) -> StateSnapshot;

    /// An independent working copy of this machine, in O(1): it shares the
    /// root and every page with `self` (derived state included — cached
    /// leaves, accumulator, byte total), and a later write on either side
    /// copies only what it touches. For replaying records speculatively on
    /// the replica's *own* state, and for adopting a round another replica
    /// executed from the same version. State received from elsewhere goes
    /// through [`crate::machine_from_snapshot`], which recomputes everything
    /// derived.
    fn fork(&self) -> Box<dyn StateMachine>;

    /// The identity of the state this machine holds now.
    fn version(&self) -> StateVersion;
}

/// The identity of one state version: a handle on the copy-on-write root a
/// machine holds. [`StateVersion::same`] is pointer equality, never a content
/// comparison. It is exact because a root is written in place only while it
/// has a single owner: a handle is an owner, so the root it names is never
/// written again — every machine that shares it copies it before its first
/// write. Holding a handle thus pins both the root's address (no other state
/// can be allocated there) and its content. Equal states built apart are
/// different versions.
#[derive(Clone, Debug)]
pub struct StateVersion(Arc<dyn Any + Send + Sync>);

impl StateVersion {
    /// Whether both handles name the very same root.
    pub fn same(&self, other: &StateVersion) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// A handle on this version that does not keep its state alive.
    pub fn downgrade(&self) -> WeakStateVersion {
        WeakStateVersion(Arc::downgrade(&self.0))
    }
}

/// A [`StateVersion`] that pins nothing: once the last owner of the root
/// drops, the root's pages and values are freed, and only the root's
/// allocation (a few words) stays reserved while this handle lives.
/// [`WeakStateVersion::names`] is as exact as [`StateVersion::same`]: no
/// other root can be allocated at the reserved address, and a root observed by
/// a weak handle is never written in place — `Arc::make_mut` moves a sole
/// owner's root to a new allocation when weak handles exist, so the write
/// lands at another address and this handle names a dead version.
#[derive(Clone, Debug)]
pub struct WeakStateVersion(Weak<dyn Any + Send + Sync>);

impl WeakStateVersion {
    /// Whether `version` is the very root this handle was taken from.
    pub fn names(&self, version: &StateVersion) -> bool {
        std::ptr::addr_eq(self.0.as_ptr(), Arc::as_ptr(&version.0))
    }
}

/// Build a fresh, empty machine of `kind`: on one thread, every such machine
/// of a kind starts from the same empty version.
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

/// Keys per page, in both machines: `key / PAGE_SLOTS` names the page, the
/// low bits the slot. Settled by interleaved A/B, `host_cpu_us_per_op`
/// against 512 slots:
/// - counters, on the paper's deployment (`geo_hetero_counter`, 100 000 Zipf
///   keys × 42 replicas, six pairs each): 64 slots +7.2 % (0 of 6 pairs — a
///   1 563-entry page map to walk per write); 4 096 slots −1.5 % (6 of 6, but
///   inside the runs' own quartile distance) for eight times the sparse worst
///   case below;
/// - KV entries (six pairs each, seed 7): 64 slots +2.9 % on `kv_write_1kib`
///   (0 of 6 — its rounds of ≈ 99 writes over 2 000 uniform keys touch
///   nearly every page of any size down to 64, so a smaller page copies as
///   much and walks a longer page map) and +2.0 % on `kv_read_scan` (2 of 6).
///
/// 512 it is. A page is also the copy-on-write unit: the first write to a
/// shared page copies that page (4 KiB of counters, or 32 KiB of
/// `Option<KvEntry>` slots) and no other.
const PAGE_SLOTS: usize = 512;

/// What a page holds per key: a present value, or the absent slot.
trait Slot: Clone {
    /// What a present key holds.
    type Value;
    /// The slot of an absent key.
    const ABSENT: Self;
    /// The value, if the key is present.
    fn value(&self) -> Option<&Self::Value>;
}

/// A counter slot: `0` is absent (no apply history makes a zero counter).
impl Slot for u64 {
    type Value = u64;
    const ABSENT: u64 = 0;
    fn value(&self) -> Option<&u64> {
        (*self != 0).then_some(self)
    }
}

/// A KV slot: the committed entry, if any.
impl Slot for Option<KvEntry> {
    type Value = KvEntry;
    const ABSENT: Self = None;
    fn value(&self) -> Option<&KvEntry> {
        self.as_ref()
    }
}

/// The copy-on-write key → slot map both machines keep their state in: dense
/// `Arc`-shared pages of [`PAGE_SLOTS`] consecutive keys, found through an
/// ordered page map. A read is a page lookup and an index; a write copies
/// the page first only while another holder shares it, as one array clone.
/// A page exists only once a key in it was written, and no write empties a
/// slot, so equal states have equal page maps.
#[derive(Clone, PartialEq, Eq, Debug)]
struct Pages<T> {
    pages: BTreeMap<u64, Arc<[T; PAGE_SLOTS]>>,
}

impl<T> Default for Pages<T> {
    fn default() -> Self {
        Pages { pages: BTreeMap::new() }
    }
}

/// The page of `key` and its slot there.
fn page_of(key: u64) -> (u64, usize) {
    (key / PAGE_SLOTS as u64, (key % PAGE_SLOTS as u64) as usize)
}

impl<T: Slot> Pages<T> {
    /// The value under `key`, if present.
    fn get(&self, key: u64) -> Option<&T::Value> {
        let (page, slot) = page_of(key);
        self.pages.get(&page)?[slot].value()
    }

    /// The slot of `key`, to write: its page is made on first use, and
    /// copied first while another holder shares it.
    fn slot_mut(&mut self, key: u64) -> &mut T {
        let (page, slot) = page_of(key);
        let page =
            self.pages.entry(page).or_insert_with(|| Arc::new([const { T::ABSENT }; PAGE_SLOTS]));
        &mut Arc::make_mut(page)[slot]
    }

    /// The present keys at or after `start` and their values, in key order.
    fn iter_from(&self, start: u64) -> impl Iterator<Item = (u64, &T::Value)> + '_ {
        let (first, skip) = page_of(start);
        self.pages.range(first..).flat_map(move |(&page, slots)| {
            let from = if page == first { skip } else { 0 };
            let base = page * PAGE_SLOTS as u64;
            slots[from..]
                .iter()
                .zip(from as u64..)
                .filter_map(move |(slot, i)| slot.value().map(|value| (base + i, value)))
        })
    }

    /// The present keys and their values, in key order.
    fn iter(&self) -> impl Iterator<Item = (u64, &T::Value)> + '_ {
        self.iter_from(0)
    }
}

thread_local! {
    /// The empty state every `CounterMachine::default()` on this thread holds,
    /// so all replicas of a deployment start from one version.
    static EMPTY_COUNTER: Arc<CounterState> = Arc::default();
    /// The same for `KvMachine::default()`.
    static EMPTY_KV: Arc<KvState> = Arc::default();
    /// The leaves hashed on this thread (see [`leaf_hash_stats`]).
    static LEAF_HASHES: Cell<LeafHashStats> = Cell::default();
}

/// What [`KvEntry`] leaf hashing has done on the calling thread since the
/// thread started (see [`leaf_hash_stats`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct LeafHashStats {
    /// Leaves hashed: one per key an applied round writes, entries restored
    /// from elsewhere and leaves re-checked.
    pub leaves: u64,
    /// Bytes hashed into them, each leaf's 40 bytes before the value
    /// (domain tag, key, version, round, value length) included.
    pub bytes: u64,
    /// Lane groups they were hashed in: [`ava_crypto::blake2s::LANES`]
    /// leaves of one length side by side, or one leaf alone. `leaves /
    /// groups` is `LANES` when every group is full.
    pub groups: u64,
    /// Writes an applied round never built or hashed, because a later
    /// write of the same round overwrote them: a round's writes are its
    /// leaves plus these.
    pub superseded: u64,
}

/// The calling thread's [`LeafHashStats`]. For profiles and tests: nothing in
/// a run depends on it.
pub fn leaf_hash_stats() -> LeafHashStats {
    LEAF_HASHES.get()
}

/// The legacy placeholder machine: `key → write counter`. Kept bit-compatible
/// with the pre-`ava-state` execution layer — same snapshot entries, same
/// snapshot byte stream, zero value bytes. Its digest is computed on demand,
/// not incrementally: counter deployments never emit `StateDigest` outputs, so
/// a per-write hash would tax the hot execute loop for a value nobody reads
/// (the KV machine, whose digest *is* read every round, pays the incremental
/// set-hash instead).
///
/// **Layout.** Counters live in dense 4 KiB pages of 512 consecutive keys,
/// found through a small ordered page map (the `Pages` map the KV machine
/// also uses). Every generator in the tree draws
/// keys from a dense `0..key_space` through `Zipfian::sample` (key = rank, so
/// the hot keys are the low ones): the page map of a 100 000-key space has 196
/// entries, the Zipf head sits in a handful of pages that stay cache-resident,
/// and a write is a short map walk plus one indexed add — where the former
/// per-key `BTreeMap<u64, u64>` walked a cold 100 000-entry tree once per
/// write. A count of zero means "absent" (`apply` only ever increments, so a
/// present key is never zero), and [`StateMachine::entries`] is a running
/// count. Everything observable — `entries()`, `digest()`, the snapshot's
/// byte stream — is produced by in-order iteration over the non-zero slots,
/// so it is what the per-key map produced, byte for byte.
/// The page map and the pages are `Arc`-shared copy-on-write (see
/// [`StateMachine`]).
///
/// **Sparse worst case.** A key with no neighbour within its 512-key page
/// holds a whole page: 4 KiB for one counter, against ≈ 16 bytes + node
/// overhead in a per-key map, i.e. *n* isolated keys cost *n* × 4 KiB. No
/// workload in the tree does that (a test pins the bound); a sparse key space
/// would want a smaller page.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CounterMachine {
    state: Arc<CounterState>,
}

#[derive(Clone, PartialEq, Eq, Debug, Default)]
struct CounterState {
    pages: Pages<u64>,
    entries: u64,
}

impl Default for CounterMachine {
    fn default() -> Self {
        CounterMachine { state: EMPTY_COUNTER.with(Arc::clone) }
    }
}

impl CounterMachine {
    /// Build from `(key, counter)` pairs, as a version of its own. A zero
    /// counter is unrepresentable (no apply history produces one) and is
    /// dropped.
    pub fn from_state(state: impl IntoIterator<Item = (u64, u64)>) -> Self {
        let mut restored = CounterState::default();
        for (key, count) in state {
            if count > 0 {
                let first = std::mem::replace(restored.pages.slot_mut(key), count) == 0;
                restored.entries += first as u64;
            }
        }
        CounterMachine { state: Arc::new(restored) }
    }

    fn entry_hash(key: u64, count: u64) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(b"ava-counter-entry");
        h.update(&key.to_le_bytes());
        h.update(&count.to_le_bytes());
        h.finalize()
    }

    /// The present `(key, count)` pairs in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.state.pages.iter().map(|(key, count)| (key, *count))
    }
}

impl CounterState {
    fn bump(&mut self, key: u64) {
        let slot = self.pages.slot_mut(key);
        let first_write = *slot == 0;
        *slot += 1;
        self.entries += first_write as u64;
    }
}

impl StateMachine for CounterMachine {
    fn kind(&self) -> StateMachineKind {
        StateMachineKind::Counter
    }

    fn apply_round(&mut self, _round: Round, txs: &[&Transaction]) -> ApplyOutcome {
        let mut keys_written = 0;
        for tx in txs {
            let (keys, _) = writes(tx);
            if !keys.is_empty() {
                let state = Arc::make_mut(&mut self.state);
                keys.iter().for_each(|key| state.bump(*key));
                keys_written += keys.len() as u32;
            }
        }
        ApplyOutcome { value_bytes: 0, keys_written }
    }

    fn read_len(&self, _key: u64) -> u32 {
        0
    }

    fn scan_bytes(&self, _start_key: u64, _count: u32) -> u64 {
        0
    }

    fn entries(&self) -> u64 {
        self.state.entries
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
        StateSnapshot::Counter(self.clone())
    }

    fn fork(&self) -> Box<dyn StateMachine> {
        Box::new(self.clone())
    }

    fn version(&self) -> StateVersion {
        StateVersion(self.state.clone())
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
    /// [`KvMachine::fill_value`]), shared between the live pages and every
    /// snapshot, checkpoint and restored machine that holds this entry.
    pub value: Arc<[u8]>,
    /// BLAKE2s over `(key, version, last_writer_round, value)`, computed once
    /// when the entry is made — by [`KvEntry::new`], or with the rest of its
    /// round's leaves by [`StateMachine::apply_round`]: what the machine XORs
    /// in and out of its set-hash
    /// and what a checkpoint digest commits to. Derived state — never
    /// serialised, and never trusted on entries that arrive from elsewhere
    /// (the content fields are public, so a stale leaf is constructible:
    /// [`StateSnapshot::leaves_valid`] and [`KvMachine::from_state`] recompute
    /// it from the bytes).
    pub(crate) leaf: [u8; 32],
}

impl KvEntry {
    /// The entry stored under `key`, with its leaf hash computed from the
    /// bytes: one BLAKE2s-256 pass over
    /// `"ava-kv-entry" ‖ key ‖ version ‖ last_writer_round ‖ len ‖ value`,
    /// the integers little-endian, `len` the value's length as a `u32`.
    pub fn new(key: u64, version: u64, last_writer_round: u64, value: Arc<[u8]>) -> Self {
        let mut entry = KvEntry { version, last_writer_round, value, leaf: [0; 32] };
        entry.leaf = entry.leaf_for(key);
        entry
    }

    /// The leaf hash this entry's content has under `key`, from scratch.
    pub(crate) fn leaf_for(&self, key: u64) -> [u8; 32] {
        count_leaves(1, 40 + self.value.len() as u64, 1);
        blake2s_lanes([(&self.leaf_head(key), &self.value[..])])[0]
    }

    /// The 40 bytes a leaf hashes before the value:
    /// `"ava-kv-entry" ‖ key ‖ version ‖ last_writer_round ‖ len`.
    fn leaf_head(&self, key: u64) -> [u8; 40] {
        let mut head = [0u8; 40];
        head[..12].copy_from_slice(b"ava-kv-entry");
        head[12..20].copy_from_slice(&key.to_le_bytes());
        head[20..28].copy_from_slice(&self.version.to_le_bytes());
        head[28..36].copy_from_slice(&self.last_writer_round.to_le_bytes());
        head[36..].copy_from_slice(&(self.value.len() as u32).to_le_bytes());
        head
    }

    /// Wire size of the entry: key (8) + version (8) + round (8) + length
    /// prefix (4) + value bytes.
    pub fn wire_bytes(&self) -> usize {
        28 + self.value.len()
    }
}

/// Hash the leaves of `entries`, each under its key, and hand them to `leaf`
/// in order: consecutive leaves of one length side by side in lane groups
/// ([`blake2s_many`]), the value bytes read where they lie. Counted in the
/// thread's [`LeafHashStats`].
fn hash_leaves<'e>(
    entries: impl IntoIterator<Item = (u64, &'e KvEntry)>,
    leaf: impl FnMut([u8; 32]),
) {
    let (mut leaves, mut bytes) = (0, 0);
    let messages = entries.into_iter().map(|(key, e)| {
        leaves += 1;
        bytes += 40 + e.value.len() as u64;
        (e.leaf_head(key), &e.value[..])
    });
    let groups = blake2s_many(messages, leaf);
    count_leaves(leaves, bytes, groups);
}

/// Add leaves hashed to the thread's [`LeafHashStats`].
fn count_leaves(leaves: u64, bytes: u64, groups: u64) {
    let stats = LEAF_HASHES.get();
    LEAF_HASHES.set(LeafHashStats {
        leaves: stats.leaves + leaves,
        bytes: stats.bytes + bytes,
        groups: stats.groups + groups,
        ..stats
    });
}

/// Hash the leaf of every entry under its key and cache it in the entry.
fn cache_leaves(entries: &mut [(u64, KvEntry)]) {
    let mut leaves = Vec::with_capacity(entries.len());
    hash_leaves(entries.iter().map(|(k, e)| (*k, e)), |leaf| leaves.push(leaf));
    for ((_, e), leaf) in entries.iter_mut().zip(leaves) {
        e.leaf = leaf;
    }
}

/// The keys `tx` writes, in order, and the size of each value: no keys for
/// a read or a scan.
fn writes(tx: &Transaction) -> (&[u64], u32) {
    match &tx.kind {
        TxKind::Write { key, value_size } => (std::slice::from_ref(key), *value_size),
        TxKind::MultiWrite { keys, value_size } => (keys, *value_size),
        TxKind::Read { .. } | TxKind::Scan { .. } => (&[], 0),
    }
}

/// The real keyed KV machine: `key → {version, value bytes, last-writer
/// round}`, with multi-key writes and range reads.
///
/// **Layout.** Entries live in the counter machine's dense pages: 512 slots
/// of `Option<KvEntry>` (64 bytes each, the value bytes behind their own
/// `Arc`) per page, the page named by `key >> 9` and the slot by the low
/// bits, `Arc`-shared copy-on-write (see [`StateMachine`]). A write after a
/// fork copies the page map once and the page it lands in — one 32 KiB array
/// clone, which bumps the count of each present value and copies no value
/// bytes — never the whole state; a read, a commit and the start of a scan
/// are a page lookup and an index.
///
/// **Sparse worst case.** A key with no neighbour within its page holds a
/// whole page: 32 KiB of slots for one entry, so *n* isolated keys cost *n* ×
/// 32 KiB beside their values (a test pins it). The workloads in the tree
/// draw keys from a dense `0..key_space`, where a page of 512 written keys
/// costs 64 bytes per key.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct KvMachine {
    state: Arc<KvState>,
}

#[derive(Clone, PartialEq, Eq, Debug, Default)]
struct KvState {
    pages: Pages<Option<KvEntry>>,
    entries: u64,
    acc: [u8; 32],
    value_bytes: u64,
}

impl Default for KvMachine {
    fn default() -> Self {
        KvMachine { state: EMPTY_KV.with(Arc::clone) }
    }
}

impl KvMachine {
    /// Restore from entries that came from elsewhere (a peer, the store), as
    /// a version of its own, recomputing every leaf, the set-hash
    /// accumulator and the byte total from the bytes (O(state), paid once at
    /// adoption time). The value bytes themselves stay shared with the
    /// entries given. A key given twice keeps its last entry.
    pub fn from_state(entries: impl IntoIterator<Item = (u64, KvEntry)>) -> Self {
        let mut entries: Vec<(u64, KvEntry)> = entries.into_iter().collect();
        cache_leaves(&mut entries);
        Self::build(entries)
    }

    /// Whether every entry's cached leaf is the hash of its bytes under its
    /// key, recomputed from scratch.
    pub(crate) fn leaves_valid(&self) -> bool {
        let mut cached = self.iter().map(|(_, e)| e.leaf);
        let mut valid = true;
        hash_leaves(self.iter(), |leaf| valid &= cached.next() == Some(leaf));
        valid
    }

    /// Entries exactly as given, cached leaves included and untrusted, as a
    /// version of its own: the accumulator folds the given leaves. For
    /// images of state from elsewhere (see [`StateSnapshot::kv_entries`]).
    pub(crate) fn build(entries: impl IntoIterator<Item = (u64, KvEntry)>) -> Self {
        let mut state = KvState::default();
        for (k, e) in entries {
            *state.pages.slot_mut(k) = Some(e);
        }
        for (_, e) in state.pages.iter() {
            state.entries += 1;
            xor_acc(&mut state.acc, &e.leaf);
            state.value_bytes += e.value.len() as u64;
        }
        KvMachine { state: Arc::new(state) }
    }

    /// The committed entries in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &KvEntry)> + '_ {
        self.state.pages.iter()
    }

    /// The committed entry under `key`, if any.
    pub fn get(&self, key: u64) -> Option<&KvEntry> {
        self.state.pages.get(key)
    }

    /// Deterministic value content for `(key, version)`: the simulator carries
    /// real bytes (so snapshot/transfer sizes and digests are meaningful)
    /// without shipping client payloads through the ordering path. Always a
    /// fresh allocation.
    pub fn fill_value(key: u64, version: u64, size: u32) -> Arc<[u8]> {
        let seed = key.wrapping_mul(31).wrapping_add(version) as u8;
        (0..size as usize).map(|i| seed.wrapping_add(i as u8)).collect()
    }
}

impl KvState {
    /// Commit one write, its leaf hashed: the entry replaces the key's slot
    /// in place, and the old leaf leaves the accumulator as the new one
    /// enters it.
    fn commit(&mut self, key: u64, entry: KvEntry) {
        xor_acc(&mut self.acc, &entry.leaf);
        self.value_bytes += entry.value.len() as u64;
        match self.pages.slot_mut(key).replace(entry) {
            Some(old) => {
                self.value_bytes -= old.value.len() as u64;
                xor_acc(&mut self.acc, &old.leaf);
            }
            None => self.entries += 1,
        }
    }
}

impl StateMachine for KvMachine {
    fn kind(&self) -> StateMachineKind {
        StateMachineKind::Kv
    }

    /// Three passes: every write's version resolved (one past the key's last
    /// write, in this round or before it), the leaves of the round's last
    /// write of each key hashed in lane groups, then those entries committed.
    /// A version a later write of the round overwrites is never built: one by
    /// one, its leaf would enter the set-hash and leave it again, so only the
    /// last write of each key changes the state. The outcome still counts
    /// every write's value bytes.
    fn apply_round(&mut self, round: Round, txs: &[&Transaction]) -> ApplyOutcome {
        let mut outcome = ApplyOutcome::default();
        let mut planned: Vec<(u64, u64, u32)> = Vec::with_capacity(txs.len());
        let mut versions: HashMap<u64, u64> = HashMap::new();
        for tx in txs {
            let (keys, value_size) = writes(tx);
            outcome.keys_written += keys.len() as u32;
            outcome.value_bytes += u64::from(value_size) * keys.len() as u64;
            for &key in keys {
                let version = *versions
                    .entry(key)
                    .and_modify(|last| *last += 1)
                    .or_insert_with(|| self.get(key).map_or(1, |e| e.version + 1));
                planned.push((key, version, value_size));
            }
        }
        if planned.is_empty() {
            return outcome;
        }
        let applied = planned.len();
        let mut written: Vec<(u64, KvEntry)> = planned
            .into_iter()
            .filter(|(key, version, _)| versions[key] == *version)
            .map(|(key, version, value_size)| {
                let value = Self::fill_value(key, version, value_size);
                (key, KvEntry { version, last_writer_round: round.0, value, leaf: [0; 32] })
            })
            .collect();
        let stats = LEAF_HASHES.get();
        let superseded = stats.superseded + (applied - written.len()) as u64;
        LEAF_HASHES.set(LeafHashStats { superseded, ..stats });
        cache_leaves(&mut written);
        let state = Arc::make_mut(&mut self.state);
        for (key, entry) in written {
            state.commit(key, entry);
        }
        outcome
    }

    fn read_len(&self, key: u64) -> u32 {
        self.get(key).map_or(0, |e| e.value.len() as u32)
    }

    fn scan_bytes(&self, start_key: u64, count: u32) -> u64 {
        self.state
            .pages
            .iter_from(start_key)
            .take(count as usize)
            .map(|(_, e)| e.value.len() as u64)
            .sum()
    }

    fn entries(&self) -> u64 {
        self.state.entries
    }

    fn value_bytes(&self) -> u64 {
        self.state.value_bytes
    }

    fn digest(&self) -> [u8; 32] {
        self.state.acc
    }

    fn snapshot(&self) -> StateSnapshot {
        StateSnapshot::Kv(self.clone())
    }

    fn fork(&self) -> Box<dyn StateMachine> {
        Box::new(self.clone())
    }

    fn version(&self) -> StateVersion {
        StateVersion(self.state.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine_from_snapshot;
    use ava_crypto::blake2s::LANES;
    use ava_types::{ClientId, TxId};
    use proptest::{proptest, ProptestConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashSet;

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
            for (k, e) in live.iter() {
                assert_eq!(e.leaf, e.leaf_for(k), "cached leaf of key {k} is stale");
            }
            // `from_state` must not lean on what the entries cached.
            let foreign = live.iter().map(|(k, e)| (k, KvEntry { leaf: [0; 32], ..e.clone() }));
            assert_eq!(KvMachine::from_state(foreign), live);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn a_round_applied_at_once_equals_its_transactions_one_by_one(
            seed in 0u64..1_000_000,
            rounds in 1u64..6,
        ) {
            // Rounds of fewer, as many and more writes than there are lanes,
            // over few keys (so keys repeat within a round, and a MultiWrite
            // may name one twice), values 0–300 bytes across 64-byte edges.
            let mut rng = StdRng::seed_from_u64(seed);
            for kind in [StateMachineKind::Counter, StateMachineKind::Kv] {
                let (mut at_once, mut one_by_one) = (machine_for(kind), machine_for(kind));
                let mut seq = 0;
                for round in (1..=rounds).map(Round) {
                    let len = rng.gen_range(0..3 * LANES as u32 + 2);
                    let txs: Vec<Transaction> = (0..len)
                        .map(|_| {
                            seq += 1;
                            let value_size = rng.gen_range(0..301u32);
                            let kind = match rng.gen_range(0..5u32) {
                                0 => TxKind::Read { key: rng.gen_range(0..20u64) },
                                1 => {
                                    let keys = (0..rng.gen_range(1..5u32))
                                        .map(|_| rng.gen_range(0..20u64));
                                    TxKind::MultiWrite { keys: keys.collect(), value_size }
                                }
                                _ => TxKind::Write { key: rng.gen_range(0..20u64), value_size },
                            };
                            Transaction { id: TxId { client: ClientId(1), seq }, kind, payload_size: 64 }
                        })
                        .collect();
                    let written: Vec<u64> =
                        txs.iter().flat_map(|tx| writes(tx).0.iter().copied()).collect();
                    let keys = written.iter().collect::<HashSet<_>>().len() as u64;
                    let before = leaf_hash_stats();
                    let round_outcome = at_once.apply_round(round, &txs.iter().collect::<Vec<_>>());
                    let after = leaf_hash_stats();
                    let hashed = after.leaves - before.leaves;
                    let superseded = after.superseded - before.superseded;
                    let kv = u64::from(kind == StateMachineKind::Kv);
                    assert_eq!(hashed, kv * keys, "{kind:?}: one leaf per key the round writes");
                    assert_eq!(superseded, kv * (written.len() as u64 - keys), "{kind:?}");
                    let mut summed = ApplyOutcome::default();
                    for tx in &txs {
                        let outcome = one_by_one.apply(round, tx);
                        summed.value_bytes += outcome.value_bytes;
                        summed.keys_written += outcome.keys_written;
                    }
                    assert_eq!(round_outcome, summed, "{kind:?} {round:?}");
                    assert_eq!(at_once.digest(), one_by_one.digest(), "{kind:?} {round:?}");
                    assert_eq!(at_once.entries(), one_by_one.entries());
                    assert_eq!(at_once.value_bytes(), one_by_one.value_bytes());
                    assert_eq!(at_once.snapshot(), one_by_one.snapshot(), "{kind:?} {round:?}");
                }
                if let StateSnapshot::Kv(m) = at_once.snapshot() {
                    for (k, e) in m.iter() {
                        assert_eq!(e.leaf, e.leaf_for(k), "cached leaf of key {k}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_round_hashes_its_leaves_in_lane_groups() {
        // Two full groups of 1 KiB leaves and three left over, each alone;
        // the 64-byte leaves of the round go in a group of their own.
        let mut txs: Vec<Transaction> =
            (0..2 * LANES as u64 + 3).map(|key| write(key, key, 1024)).collect();
        txs.extend((0..LANES as u64).map(|key| write(100 + key, 100 + key, 64)));
        let before = leaf_hash_stats();
        KvMachine::default().apply_round(Round(1), &txs.iter().collect::<Vec<_>>());
        let after = leaf_hash_stats();
        let leaves = 3 * LANES as u64 + 3;
        assert_eq!(
            (after.leaves - before.leaves, after.groups - before.groups),
            (leaves, 2 + 3 + 1)
        );
    }

    #[test]
    fn a_round_that_writes_nothing_keeps_the_version() {
        for kind in [StateMachineKind::Counter, StateMachineKind::Kv] {
            let mut m = machine_for(kind);
            let version = m.version();
            let read = Transaction::read(ClientId(1), 0, 7);
            m.apply_round(Round(1), &[]);
            m.apply_round(Round(1), &[&read]);
            assert!(m.version().same(&version), "{kind:?}");
        }
    }

    #[test]
    fn snapshots_and_forks_share_value_bytes_and_stay_isolated() {
        let mut m = KvMachine::default();
        m.apply(Round(1), &write(0, 7, 256));
        let StateSnapshot::Kv(snap) = m.snapshot() else { panic!("kv snapshot") };
        let restored = KvMachine::from_state(snap.iter().map(|(k, e)| (k, e.clone())));
        let mut fork = m.fork();
        let live = &m.get(7).expect("written").value;
        let snapped = || snap.get(7).expect("in the snapshot");
        assert!(Arc::ptr_eq(live, &snapped().value), "a snapshot must not copy value bytes");
        assert!(Arc::ptr_eq(live, &restored.get(7).expect("restored").value));
        assert_eq!(restored, m);

        // Writes to the fork and to the original leave the other, and the
        // snapshot, as they were.
        let before = m.digest();
        fork.apply(Round(2), &write(1, 7, 64));
        assert_eq!(m.digest(), before);
        assert_ne!(fork.digest(), before);
        m.apply(Round(3), &write(2, 7, 32));
        assert_eq!((snapped().version, snapped().value.len()), (1, 256));
        assert_eq!((fork.read_len(7), fork.value_bytes()), (64, 64));
        let mut replayed = KvMachine::default();
        replayed.apply(Round(1), &write(0, 7, 256));
        replayed.apply(Round(2), &write(1, 7, 64));
        assert_eq!(fork.digest(), replayed.digest(), "a fork keeps a correct accumulator");
    }

    /// Every third key of the first `pages` pages, written once.
    fn populated<M: StateMachine + Default>(pages: u64) -> M {
        let mut m = M::default();
        for key in (0..pages * PAGE_SLOTS as u64).step_by(3) {
            m.apply(Round(1), &write(key, key, 16));
        }
        m
    }

    #[test]
    fn a_write_to_a_fork_reaches_neither_the_original_nor_a_snapshot() {
        fn check<M: StateMachine + Default>() {
            let mut original: M = populated(3);
            let (digest, snapshot) = (original.digest(), original.snapshot());
            let mut fork = original.fork();
            assert!(fork.version().same(&original.version()), "a fork is the same version");
            fork.apply(Round(2), &write(1, 5, 32));
            fork.apply(Round(2), &write(2, 4 * PAGE_SLOTS as u64, 32));
            assert!(!fork.version().same(&original.version()), "a write makes a new version");
            assert_eq!((original.digest(), original.snapshot()), (digest, snapshot.clone()));
            assert_ne!(fork.digest(), digest);
            // And the other way round.
            let fork_snapshot = fork.snapshot();
            original.apply(Round(3), &write(3, 6, 8));
            assert_eq!(fork.snapshot(), fork_snapshot);
            assert_ne!(original.snapshot(), snapshot);
        }
        check::<CounterMachine>();
        check::<KvMachine>();
    }

    #[test]
    fn a_weak_version_pins_nothing_and_sees_no_write_in_place() {
        let mut m: KvMachine = populated(2);
        let weak = m.version().downgrade();
        assert!(weak.names(&m.version()));
        let old_value = Arc::downgrade(&m.get(6).expect("populated").value);
        // `m` is the root's sole owner, so without the weak handle this write
        // would land in place; with it, the root moves and the version dies.
        m.apply(Round(2), &write(1, 6, 32));
        assert!(!weak.names(&m.version()), "a write moved the root");
        assert!(old_value.upgrade().is_none(), "the old version and its value are freed");
        // A version allocated afterwards is another one.
        let fresh: KvMachine = populated(2);
        assert!(!weak.names(&fresh.version()));
    }

    #[test]
    fn a_write_after_a_fork_copies_exactly_the_touched_page() {
        let touched = 1u64;
        let key = touched * PAGE_SLOTS as u64 + 7;

        let base: CounterMachine = populated(4);
        let mut fork = base.clone();
        fork.apply(Round(2), &write(1, key, 16));
        assert!(!Arc::ptr_eq(&fork.state, &base.state), "the root is copied once");
        for (page, slots) in &base.state.pages.pages {
            let forked = &fork.state.pages.pages[page];
            assert_eq!(Arc::ptr_eq(slots, forked), *page != touched, "counter page {page}");
        }
        // The copy is now the fork's own: a second write there copies nothing.
        let own = Arc::as_ptr(&fork.state.pages.pages[&touched]);
        fork.apply(Round(2), &write(2, key + 1, 16));
        assert_eq!(Arc::as_ptr(&fork.state.pages.pages[&touched]), own);

        let base: KvMachine = populated(4);
        let mut fork = base.clone();
        fork.apply(Round(2), &write(1, key, 16));
        for (page, entries) in &base.state.pages.pages {
            let forked = &fork.state.pages.pages[page];
            assert_eq!(Arc::ptr_eq(entries, forked), *page != touched, "kv page {page}");
        }
        // A value is never copied: the copied page points at the same bytes.
        let neighbour = key - 3;
        let (a, b) = (base.get(neighbour).expect("populated"), fork.get(neighbour).expect("kept"));
        assert!(Arc::ptr_eq(&a.value, &b.value));
    }

    #[test]
    fn fresh_machines_share_one_empty_state_per_thread() {
        for kind in [StateMachineKind::Counter, StateMachineKind::Kv] {
            let (a, b) = (machine_for(kind), machine_for(kind));
            assert!(a.version().same(&b.version()), "{kind:?}: two fresh machines");
            let restored = machine_from_snapshot(&StateSnapshot::empty(kind));
            assert!(!restored.version().same(&a.version()), "{kind:?}: from_state is its own");
            let elsewhere = std::thread::scope(|s| s.spawn(|| machine_for(kind)).join().unwrap());
            assert!(!elsewhere.version().same(&a.version()), "{kind:?}: another thread's");
            assert_eq!(elsewhere.snapshot(), a.snapshot());
        }
        let counter = CounterMachine::default();
        assert!(counter.version().same(&machine_for(StateMachineKind::Counter).version()));
        let kv = KvMachine::default();
        assert!(kv.version().same(&machine_for(StateMachineKind::Kv).version()));
        assert!(!kv.version().same(&counter.version()));
    }

    /// A random round of up to eleven transactions over `keys` keys.
    fn random_round(rng: &mut StdRng, seq: &mut u64, keys: u64) -> Vec<Transaction> {
        (0..rng.gen_range(0..12u32))
            .map(|_| {
                *seq += 1;
                let value_size = rng.gen_range(0..200u32);
                let kind = match rng.gen_range(0..4u32) {
                    0 => TxKind::Read { key: rng.gen_range(0..keys) },
                    1 => TxKind::MultiWrite {
                        keys: (0..3).map(|_| rng.gen_range(0..keys)).collect(),
                        value_size,
                    },
                    _ => TxKind::Write { key: rng.gen_range(0..keys), value_size },
                };
                Transaction { id: TxId { client: ClientId(1), seq: *seq }, kind, payload_size: 64 }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn an_adopted_round_equals_a_from_scratch_replay(seed in 0u64..1_000_000, n in 1u64..20) {
            // One replica executes each round; another adopts a fork of its
            // result (what an executed-round hit hands it). A third replays
            // every round on a version of its own.
            let mut rng = StdRng::seed_from_u64(seed);
            let keys = [1_500u64, 100_000][seed as usize % 2];
            for kind in [StateMachineKind::Counter, StateMachineKind::Kv] {
                let mut first = machine_for(kind);
                let mut scratch = machine_from_snapshot(&StateSnapshot::empty(kind));
                let mut seq = 0;
                for round in (1..=n).map(Round) {
                    for tx in random_round(&mut rng, &mut seq, keys) {
                        first.apply(round, &tx);
                        scratch.apply(round, &tx);
                    }
                    let adopted = first.fork();
                    for m in [&adopted, &scratch] {
                        assert_eq!(m.digest(), first.digest(), "{kind:?} {round:?}");
                        assert_eq!(m.snapshot(), first.snapshot());
                        assert_eq!(m.entries(), first.entries());
                        assert_eq!(m.value_bytes(), first.value_bytes());
                    }
                    // Later writes by the executing replica leave the
                    // adopted result as it was.
                    let kept = adopted.snapshot();
                    let extra = write(u64::MAX - round.0, round.0 % keys, 5);
                    first.apply(round, &extra);
                    scratch.apply(round, &extra);
                    assert_eq!(adopted.snapshot(), kept, "{kind:?}: a shared result moved");
                }
            }
        }
    }

    #[test]
    fn counter_machine_matches_legacy_semantics() {
        let mut m = CounterMachine::default();
        m.apply(Round(1), &write(0, 7, 1024));
        m.apply(Round(2), &write(1, 7, 1024));
        m.apply(Round(2), &write(2, 9, 1024));
        assert_eq!(m.snapshot(), StateSnapshot::counters([(7, 2), (9, 1)]));
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
            assert_eq!(snapshot, StateSnapshot::counters(model.clone()));

            let restored = CounterMachine::from_state(model.clone());
            assert_eq!(restored, live, "from_state(snapshot) must rebuild the same table");

            // A fork is a working copy: a write to either side stays there.
            let (fork_key, live_key) = (counter_key(&mut rng), counter_key(&mut rng));
            let mut fork = live.fork();
            fork.apply(Round(99), &write(n as u64, fork_key, 64));
            assert_eq!(live.snapshot(), snapshot, "a write to the fork reached the original");
            live.apply(Round(99), &write(n as u64 + 1, live_key, 64));
            *model.entry(fork_key).or_insert(0) += 1;
            assert_eq!(fork.snapshot(), StateSnapshot::counters(model));
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
        assert_eq!(sparse.state.pages.pages.len() * page_bytes, 100 * 4096);
        let mut dense = CounterMachine::default();
        for key in 0..100_000u64 {
            dense.apply(Round(1), &write(key, key, 64));
        }
        assert_eq!(dense.entries(), 100_000);
        assert_eq!(
            dense.state.pages.pages.len() * page_bytes,
            196 * 4096,
            "8.03 bytes per dense key"
        );
        // A zero counter cannot be represented and is not restored.
        let with_zero = CounterMachine::from_state(BTreeMap::from([(5, 0), (6, 2)]));
        assert_eq!((with_zero.entries(), with_zero.state.pages.pages.len()), (1, 1));
    }

    #[test]
    fn isolated_kv_keys_hold_one_page_each() {
        // The KV twin of the counter's sparse worst case: a key with no
        // neighbour within its 512-key page holds 32 KiB of slots beside its
        // value; a page of 512 written keys costs 64 bytes a key.
        let page_bytes = std::mem::size_of::<[Option<KvEntry>; PAGE_SLOTS]>();
        assert_eq!((std::mem::size_of::<Option<KvEntry>>(), page_bytes), (64, 32 * 1024));
        let mut sparse = KvMachine::default();
        for i in 0..100u64 {
            sparse.apply(Round(1), &write(i, i * 1_000_003, 16));
        }
        assert_eq!(sparse.entries(), 100);
        let per_key = sparse.state.pages.pages.len() * page_bytes / 100;
        assert_eq!(per_key, 32 * 1024, "bytes of slots per isolated key");
        let mut dense = KvMachine::default();
        let txs: Vec<Transaction> = (0..2_048u64).map(|key| write(key, key, 16)).collect();
        dense.apply_round(Round(1), &txs.iter().collect::<Vec<_>>());
        assert_eq!(dense.entries(), 2_048);
        assert_eq!(dense.state.pages.pages.len() * page_bytes / 2_048, 64, "bytes per dense key");
    }

    /// A key in one of pages 0, 1, 3 and 7 (2, 4, 5 and 6 stay absent), at
    /// or next to a page edge or anywhere in the page.
    fn paged_key(rng: &mut StdRng) -> u64 {
        let page = [0u64, 1, 3, 7][rng.gen_range(0..4usize)];
        let slot = match rng.gen_range(0..4u32) {
            0 => 0,
            1 => PAGE_SLOTS as u64 - 1,
            2 => rng.gen_range(0..3u64),
            _ => rng.gen_range(0..PAGE_SLOTS as u64),
        };
        page * PAGE_SLOTS as u64 + slot
    }

    /// The per-key reference: key → (version, last-writer round, value size).
    type KvModel = BTreeMap<u64, (u64, u64, u32)>;

    /// The snapshot stream of a model, each leaf hashed from its documented
    /// layout by the plain one-message BLAKE2s.
    fn model_stream(model: &KvModel) -> Vec<u8> {
        let mut stream = b"kv-state-v2".to_vec();
        stream.extend((model.len() as u64).to_le_bytes());
        for (&key, &(version, round, size)) in model {
            let mut leaf = b"ava-kv-entry".to_vec();
            for word in [key, version, round] {
                leaf.extend(word.to_le_bytes());
            }
            leaf.extend(size.to_le_bytes());
            leaf.extend(KvMachine::fill_value(key, version, size).iter());
            stream.extend(key.to_le_bytes());
            stream.extend(ava_crypto::blake2s(&leaf));
        }
        stream
    }

    /// Every read of `m` against `model`: the totals, the digest, the
    /// snapshot stream, point reads and scans from mid-page, page edges and
    /// absent pages.
    fn check_against_model(m: &KvMachine, model: &KvModel, rng: &mut StdRng, what: &str) {
        let stream = model_stream(model);
        let mut bytes = Vec::new();
        m.snapshot().hash_into(&mut bytes);
        assert_eq!(bytes, stream, "{what}: snapshot stream");
        let mut digest = [0u8; 32];
        for leaf in stream[19..].chunks_exact(40).map(|pair| pair[8..].try_into().unwrap()) {
            xor_acc(&mut digest, &leaf);
        }
        assert_eq!(m.digest(), digest, "{what}: digest");
        assert_eq!(m.entries(), model.len() as u64, "{what}: entries");
        let total: u64 = model.values().map(|(_, _, size)| u64::from(*size)).sum();
        assert_eq!(m.value_bytes(), total, "{what}: value bytes");
        let edges = [0u64, 1, 2, 3, 4, 7, 8].map(|page| page * PAGE_SLOTS as u64);
        let starts = edges
            .iter()
            .flat_map(|&edge| [edge, edge.saturating_sub(1), edge + 1, edge + 255])
            .chain((0..8).map(|_| paged_key(rng)))
            .collect::<Vec<_>>();
        for start in starts {
            let count = [0u32, 1, 7, 600, 2_000][rng.gen_range(0..5usize)];
            let expected: u64 =
                model.range(start..).take(count as usize).map(|(_, e)| u64::from(e.2)).sum();
            assert_eq!(m.scan_bytes(start, count), expected, "{what}: scan {start} +{count}");
            let len = model.get(&start).map_or(0, |e| e.2);
            assert_eq!(m.read_len(start), len, "{what}: read {start}");
            let entry = m.get(start).map(|e| (e.version, e.last_writer_round, e.value.len()));
            assert_eq!(entry, model.get(&start).map(|e| (e.0, e.1, e.2 as usize)), "{what}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn random_rounds_across_forks_equal_a_per_key_map(seed in 0u64..1_000_000, steps in 1usize..24) {
            // Forks of forks, each applying rounds of its own: every one must
            // read as its own per-key map, whatever the others wrote to the
            // pages they shared.
            let mut rng = StdRng::seed_from_u64(seed);
            let mut forks = vec![(KvMachine::default(), KvModel::new())];
            let mut seq = 0;
            for step in 0..steps as u64 {
                let at = rng.gen_range(0..forks.len());
                if rng.gen_range(0..4u32) == 0 {
                    let fork = forks[at].clone();
                    forks.push(fork);
                    continue;
                }
                let round = Round(step + 1);
                let txs: Vec<Transaction> = (0..rng.gen_range(0..3 * LANES))
                    .map(|_| {
                        seq += 1;
                        let value_size = rng.gen_range(0..200u32);
                        let kind = match rng.gen_range(0..4u32) {
                            0 => TxKind::Scan { start_key: paged_key(&mut rng), count: 9 },
                            1 => {
                                let keys = (0..rng.gen_range(1..5u32)).map(|_| paged_key(&mut rng));
                                TxKind::MultiWrite { keys: keys.collect(), value_size }
                            }
                            _ => TxKind::Write { key: paged_key(&mut rng), value_size },
                        };
                        Transaction { id: TxId { client: ClientId(1), seq }, kind, payload_size: 64 }
                    })
                    .collect();
                let (machine, model) = &mut forks[at];
                machine.apply_round(round, &txs.iter().collect::<Vec<_>>());
                for tx in &txs {
                    let (keys, size) = writes(tx);
                    for &key in keys {
                        let version = model.get(&key).map_or(0, |e| e.0) + 1;
                        model.insert(key, (version, round.0, size));
                    }
                }
                for (i, (machine, model)) in forks.iter().enumerate() {
                    check_against_model(machine, model, &mut rng, &format!("step {step}, fork {i}"));
                }
            }
        }
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn paged_reads_equal_a_per_key_map(seed in 0u64..1_000_000, n in 1usize..200) {
            // Keys in clumps a page or more apart, so scans cross page
            // boundaries and skip absent pages.
            let mut rng = StdRng::seed_from_u64(seed);
            let mut m = KvMachine::default();
            let mut model: BTreeMap<u64, u32> = BTreeMap::new();
            for seq in 0..n as u64 {
                let key = rng.gen_range(0..8u64) * 700 + rng.gen_range(0..40u64);
                let size = rng.gen_range(0..100u32);
                m.apply(Round(1), &write(seq, key, size));
                model.insert(key, size);
            }
            for _ in 0..20 {
                let (start, count) = (rng.gen_range(0..6_000u64), rng.gen_range(0..60u32));
                let expected: u64 =
                    model.range(start..).take(count as usize).map(|(_, s)| *s as u64).sum();
                assert_eq!(m.scan_bytes(start, count), expected, "scan {start} +{count}");
                assert_eq!(m.read_len(start), model.get(&start).copied().unwrap_or(0));
            }
            let keys: Vec<u64> = m.iter().map(|(k, _)| k).collect();
            assert_eq!(keys, model.keys().copied().collect::<Vec<_>>());
            assert_eq!(m.entries(), model.len() as u64);
        }
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
            StateSnapshot::Kv(image) => {
                KvMachine::from_state(image.iter().map(|(k, e)| (k, e.clone())))
            }
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
    fn a_leaf_is_the_blake2s_of_its_documented_layout() {
        // `"ava-kv-entry" ‖ key ‖ version ‖ round ‖ len ‖ value`, hashed by
        // Python's `hashlib.blake2s` over the 1 064 bytes built with
        // `struct.pack("<QQQI", 7, 3, 42, 1024)` and value byte i = (220 + i) % 256.
        let before = leaf_hash_stats();
        let entry = KvEntry::new(7, 3, 42, KvMachine::fill_value(7, 3, 1024));
        let hex: String = entry.leaf.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, "57237ba20d3d6e9cc0a97345af538b32dec0a671654e9a0dea801a2956079bf7");
        let after = leaf_hash_stats();
        let hashed = (after.leaves - before.leaves, after.bytes - before.bytes);
        assert_eq!((hashed, after.groups - before.groups), ((1, 1_064), 1), "one leaf alone");
    }

    #[test]
    fn fill_value_is_deterministic() {
        assert_eq!(KvMachine::fill_value(7, 2, 64), KvMachine::fill_value(7, 2, 64));
        assert_ne!(KvMachine::fill_value(7, 2, 64), KvMachine::fill_value(7, 3, 64));
    }
}

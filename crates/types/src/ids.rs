//! Strongly-typed identifiers used across the system.
//!
//! Newtypes keep replica/cluster/round/view numbers from being mixed up and give the
//! rest of the workspace a single place to change representations.

use crate::encode::{Encode, EncodeSink};
use std::fmt;

/// Identifier of a replica (a process participating in replication).
///
/// Replica identifiers are globally unique across all clusters; the cluster a replica
/// currently belongs to is tracked by [`crate::membership::Membership`], not by the id.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct ReplicaId(pub u32);

/// Identifier of a cluster (a geographically co-located group of replicas).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct ClusterId(pub u32);

/// Identifier of a client process issuing transactions or reconfiguration requests.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct ClientId(pub u32);

/// Globally unique transaction identifier (client id, client-local sequence number).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct TxId {
    /// Issuing client.
    pub client: ClientId,
    /// Client-local sequence number.
    pub seq: u64,
}

/// Protocol round number. A round spans the three Hamava stages (intra-cluster
/// replication, inter-cluster communication, execution).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Round(pub u64);

/// Monotonically increasing leader timestamp used by leader election (the paper's
/// `ts`). Distinct from [`Round`]: several leaders may succeed each other within one
/// round.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Timestamp(pub u64);

/// Geographic regions used in the paper's evaluation (Google Cloud regions).
///
/// The associated round-trip latencies live in `ava-simnet`'s latency model; the
/// region itself is pure data so protocol crates can reason about placement without
/// depending on the simulator.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Region {
    /// `us-west1-b`
    UsWest,
    /// `europe-west3-c`
    Europe,
    /// `asia-south1-c`
    AsiaSouth,
    /// `us-east5-c` (used in E8)
    UsEast,
    /// `asia-northeast1-b` (used in E8)
    AsiaNortheast,
}

impl Default for Region {
    fn default() -> Self {
        Region::UsWest
    }
}

impl Region {
    /// All regions known to the latency model, in a stable order.
    pub const ALL: [Region; 5] =
        [Region::UsWest, Region::Europe, Region::AsiaSouth, Region::UsEast, Region::AsiaNortheast];

    /// Stable index of the region, usable to address latency matrices.
    pub fn index(self) -> usize {
        match self {
            Region::UsWest => 0,
            Region::Europe => 1,
            Region::AsiaSouth => 2,
            Region::UsEast => 3,
            Region::AsiaNortheast => 4,
        }
    }

    /// Human readable Google Cloud zone name as used in the paper.
    pub fn zone_name(self) -> &'static str {
        match self {
            Region::UsWest => "us-west1-b",
            Region::Europe => "europe-west3-c",
            Region::AsiaSouth => "asia-south1-c",
            Region::UsEast => "us-east5-c",
            Region::AsiaNortheast => "asia-northeast1-b",
        }
    }
}

impl Round {
    /// The next round.
    pub fn next(self) -> Round {
        Round(self.0 + 1)
    }
}

impl Timestamp {
    /// The next leader timestamp.
    pub fn next(self) -> Timestamp {
        Timestamp(self.0 + 1)
    }
}

impl fmt::Display for ReplicaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for ClusterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cl{}", self.0)
    }
}

impl fmt::Display for Round {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.zone_name())
    }
}

impl Encode for ReplicaId {
    fn encode(&self, out: &mut dyn EncodeSink) {
        out.write(&self.0.to_le_bytes());
    }
}

impl Encode for ClusterId {
    fn encode(&self, out: &mut dyn EncodeSink) {
        out.write(&self.0.to_le_bytes());
    }
}

impl Encode for ClientId {
    fn encode(&self, out: &mut dyn EncodeSink) {
        out.write(&self.0.to_le_bytes());
    }
}

impl Encode for TxId {
    fn encode(&self, out: &mut dyn EncodeSink) {
        self.client.encode(out);
        out.write(&self.seq.to_le_bytes());
    }
}

impl Encode for Round {
    fn encode(&self, out: &mut dyn EncodeSink) {
        out.write(&self.0.to_le_bytes());
    }
}

impl Encode for Timestamp {
    fn encode(&self, out: &mut dyn EncodeSink) {
        out.write(&self.0.to_le_bytes());
    }
}

impl Encode for Region {
    fn encode(&self, out: &mut dyn EncodeSink) {
        out.write(&[self.index() as u8]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_and_timestamp_increment() {
        assert_eq!(Round(3).next(), Round(4));
        assert_eq!(Timestamp(0).next(), Timestamp(1));
    }

    #[test]
    fn region_indices_are_unique_and_stable() {
        let mut seen = std::collections::HashSet::new();
        for r in Region::ALL {
            assert!(seen.insert(r.index()), "duplicate index for {r:?}");
        }
        assert_eq!(Region::UsWest.index(), 0);
        assert_eq!(Region::AsiaNortheast.index(), 4);
    }

    #[test]
    fn display_formats() {
        assert_eq!(ReplicaId(7).to_string(), "p7");
        assert_eq!(ClusterId(2).to_string(), "C2");
        assert_eq!(Round(5).to_string(), "r5");
        assert_eq!(Region::Europe.to_string(), "europe-west3-c");
    }

    #[test]
    fn txid_orders_by_client_then_seq() {
        let a = TxId { client: ClientId(1), seq: 9 };
        let b = TxId { client: ClientId(2), seq: 0 };
        assert!(a < b);
    }

    #[test]
    fn encode_is_deterministic() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        TxId { client: ClientId(3), seq: 42 }.encode(&mut a);
        TxId { client: ClientId(3), seq: 42 }.encode(&mut b);
        assert_eq!(a, b);
        assert_eq!(a.len(), 12);
    }
}

/// The hasher of the program's own keys in hot `HashMap`s, where SipHash's
/// resistance to chosen keys buys nothing: node ids this program hands out
/// (replicas count up from 0; clients, brokers and load generators from fixed
/// bases), and keys that already mix their bits.
///
/// A key that hashes itself into one `write_u64` (the signature memo's
/// `(registry, signer, digest)`, a [`TxKey`], the pool's sequence words)
/// passes through as the hash;
/// a node id's `write_u32` is spread over the table with one multiply.
#[derive(Default)]
pub struct IdHasher(u64);

/// Builds [`IdHasher`]s: the `S` of a `HashMap<K, V, S>` keyed as above.
pub type BuildIdHasher = std::hash::BuildHasherDefault<IdHasher>;

impl std::hash::Hasher for IdHasher {
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("IdHasher keys hash through write_u32 or write_u64 only");
    }

    #[inline]
    fn write_u32(&mut self, id: u32) {
        self.0 = (self.0.rotate_left(32) ^ u64::from(id)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.0 = value;
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A transaction id as a hash-table key through [`BuildIdHasher`]: it hashes
/// itself with [`fold_mul`], so a client's consecutive sequence numbers spread
/// over the table with no SipHash rounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TxKey(pub TxId);

impl std::hash::Hash for TxKey {
    #[inline]
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(fold_mul(self.0.seq, self.0.client.0));
    }
}

/// One folded 64 × 64 → 128-bit multiply of `wide` and `client`, each offset
/// by a constant: consecutive values of `wide` and different clients' equal
/// values both spread over the low bits a table indexes by.
#[inline]
pub fn fold_mul(wide: u64, client: u32) -> u64 {
    let product = u128::from(wide ^ 0x243f_6a88_85a3_08d3)
        * u128::from(u64::from(client) ^ 0x1319_8a2e_0370_7345);
    product as u64 ^ (product >> 64) as u64
}

//! Tests of the BFT-SMaRt-style total-order broadcast: the conformance suite
//! every local TOB runs, and what is this protocol's own.

use super::*;
use ava_types::{ClientId, Transaction};

ava_consensus::tob_conformance_suite!(
    BftSmart::new,
    trace = "61a7e5fef2991f5d881d84010571bda3dc6fb365870676f9e049d2ea32b163c5"
);

#[test]
fn uses_quadratic_message_pattern() {
    // One decision in a 4-replica cluster: pre-prepare (4 sends) + prepare (4×4) +
    // commit (4×4) ≈ 36 messages, clearly above HotStuff's linear pattern. The test
    // pins the order of magnitude rather than the exact constant.
    let (mut net, _) = ava_consensus::testkit::cluster(BftSmart::new, 4);
    net.broadcast(ReplicaId(0), Operation::Trans(Transaction::write(ClientId(2), 0, 0, 512)));
    net.run_to_quiescence(10_000);
    // `LocalNet` does not count messages, so re-derive from delivered certificates:
    // every replica must have seen commit votes from a quorum of distinct replicas.
    let blocks = net.delivered_at(ReplicaId(2));
    assert_eq!(blocks.len(), 1);
    assert!(blocks[0].cert.signature_count() >= 3);
}

/// Every queued simulator event carries a message of this type: a fat variant is
/// paid for by every `Prepare` and `Commit` (the hand-over payloads are boxed).
#[test]
fn message_size_is_pinned() {
    assert_eq!(std::mem::size_of::<BftSmartMsg>(), 88);
}

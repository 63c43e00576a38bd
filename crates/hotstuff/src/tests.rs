//! Tests of the HotStuff total-order broadcast: the conformance suite every
//! local TOB runs.

use super::*;

ava_consensus::tob_conformance_suite!(
    HotStuff::new,
    trace = "cfcb84c8af3875243d7ccd4ea97dd229df3506faf9d7f45561e5cd776ae91f89"
);

/// Both memos forget what lies below the delivered height: they used to grow
/// by three votes per decision, plus every proposal a leader change
/// abandoned, for the whole run.
#[test]
fn vote_and_block_memos_stay_bounded() {
    use ava_types::{ClientId, Timestamp, Transaction};
    let (mut net, _) = ava_consensus::testkit::cluster(HotStuff::new, 4);
    let op = |seq| Operation::Trans(Transaction::write(ClientId(1), seq, seq % 16, 512));
    for seq in 0..200u64 {
        net.broadcast(ReplicaId(seq as u32 % 4), op(seq));
        if seq % 50 == 49 {
            // Cut this decision short: its proposal is abandoned mid-vote.
            let change = seq / 50 + 1;
            net.deliver(6);
            net.install_leader(ReplicaId(change as u32 % 4), Timestamp(change));
        }
        net.run_to_quiescence(100_000);
    }
    assert_eq!(net.delivered_ops(ReplicaId(3)).len(), 200);
    for (id, node) in &net.nodes {
        let (voted, known) = (node.voted.len(), node.known_blocks.len());
        assert!(voted <= 3 && known <= 1, "{id} holds {voted} votes and {known} blocks");
    }
}

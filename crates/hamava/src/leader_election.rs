//! The classical leader election module (Alg. 9 of the paper).
//!
//! Each cluster runs one instance per replica. Replicas complain about the current
//! leader; once a quorum complains (with `f+1` amplification), every correct replica
//! moves to the next leader, chosen round-robin over the cluster members with a
//! monotonically increasing timestamp. A `next-leader` request (issued by the remote
//! leader change protocol, Alg. 2 line 26) advances the leader directly.

use ava_consensus::{send_pairs, SendAction};
use ava_types::{ReplicaId, Timestamp};
use std::collections::BTreeSet;

/// Wire message of the leader election module.
#[derive(Clone, Debug)]
pub enum ElectionMsg {
    /// A complaint about the leader of timestamp `ts` (the paper's `Complaint(ts)`).
    Complaint {
        /// The timestamp being complained about.
        ts: u64,
    },
}

impl ElectionMsg {
    /// Approximate wire size in bytes.
    pub fn wire_size(&self) -> usize {
        72
    }
}

/// Side effects requested by the leader election module.
#[derive(Clone, Debug)]
pub enum ElectionAction {
    /// Send one message to every replica in `to` (the members, in membership
    /// order): one fan-out of a shared payload.
    SendAll {
        /// The recipients.
        to: Vec<ReplicaId>,
        /// The message each recipient gets a clone of.
        msg: ElectionMsg,
    },
    /// A new leader was elected (Alg. 9 line 27).
    NewLeader {
        /// The elected leader.
        leader: ReplicaId,
        /// Its timestamp.
        ts: Timestamp,
    },
}

impl SendAction for ElectionAction {
    type Msg = ElectionMsg;

    fn sends(&self) -> impl Iterator<Item = (ReplicaId, &ElectionMsg)> {
        match self {
            ElectionAction::SendAll { to, msg } => send_pairs(to, Some(msg)),
            ElectionAction::NewLeader { .. } => send_pairs(&[], None),
        }
    }
}

/// Leader election state machine for one replica.
#[derive(Debug)]
pub struct LeaderElection {
    me: ReplicaId,
    members: Vec<ReplicaId>,
    ts: u64,
    complainers: BTreeSet<ReplicaId>,
    complained: bool,
}

impl LeaderElection {
    /// Create an instance. The initial leader has timestamp 0 and is `members[0]`.
    pub fn new(me: ReplicaId, members: Vec<ReplicaId>) -> Self {
        LeaderElection { me, members, ts: 0, complainers: BTreeSet::new(), complained: false }
    }

    /// The current leader timestamp.
    pub fn timestamp(&self) -> Timestamp {
        Timestamp(self.ts)
    }

    /// The leader for the current timestamp (round-robin over the member order).
    pub fn current_leader(&self) -> ReplicaId {
        Self::leader_for(&self.members, self.ts)
    }

    /// The leader a given member list and timestamp map to.
    pub fn leader_for(members: &[ReplicaId], ts: u64) -> ReplicaId {
        assert!(!members.is_empty(), "cluster has no members");
        members[(ts as usize) % members.len()]
    }

    fn f(&self) -> usize {
        if self.members.is_empty() {
            0
        } else {
            (self.members.len() - 1) / 3
        }
    }

    /// Update the member list after a reconfiguration.
    pub fn set_members(&mut self, members: Vec<ReplicaId>) {
        self.members = members;
    }

    /// Request: complain about the current leader (Alg. 9 line 11).
    pub fn complain(&mut self) -> Vec<ElectionAction> {
        if self.complained {
            return Vec::new();
        }
        self.send_complain()
    }

    /// Request: move directly to the next leader (Alg. 9 line 28), used by the remote
    /// leader change protocol once a valid remote complaint is accepted.
    pub fn next_leader(&mut self) -> Vec<ElectionAction> {
        self.change()
    }

    /// Handle a complaint from another member.
    pub fn on_message(&mut self, from: ReplicaId, msg: ElectionMsg) -> Vec<ElectionAction> {
        let ElectionMsg::Complaint { ts } = msg;
        if ts != self.ts || !self.members.contains(&from) {
            return Vec::new();
        }
        self.complainers.insert(from);
        let mut out = Vec::new();
        if self.complainers.len() >= self.f() + 1 && !self.complained {
            out.extend(self.send_complain());
        }
        if self.complainers.len() >= 2 * self.f() + 1 {
            out.extend(self.change());
        }
        out
    }

    fn send_complain(&mut self) -> Vec<ElectionAction> {
        self.complained = true;
        self.complainers.insert(self.me);
        let msg = ElectionMsg::Complaint { ts: self.ts };
        vec![ElectionAction::SendAll { to: self.members.clone(), msg }]
    }

    fn change(&mut self) -> Vec<ElectionAction> {
        self.ts += 1;
        self.complainers.clear();
        self.complained = false;
        vec![ElectionAction::NewLeader { leader: self.current_leader(), ts: Timestamp(self.ts) }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ava_consensus::sends;

    fn members(n: u32) -> Vec<ReplicaId> {
        (0..n).map(ReplicaId).collect()
    }

    fn new_leaders(actions: &[ElectionAction]) -> Vec<(ReplicaId, u64)> {
        actions
            .iter()
            .filter_map(|a| match a {
                ElectionAction::NewLeader { leader, ts } => Some((*leader, ts.0)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn quorum_of_complaints_elects_next_leader() {
        let ms = members(4);
        let mut le = LeaderElection::new(ReplicaId(3), ms.clone());
        assert_eq!(le.current_leader(), ReplicaId(0));
        let mut all = Vec::new();
        all.extend(le.complain());
        all.extend(le.on_message(ReplicaId(1), ElectionMsg::Complaint { ts: 0 }));
        // Two complaints (f+1) amplify but do not change yet.
        assert!(new_leaders(&all).is_empty());
        all.extend(le.on_message(ReplicaId(2), ElectionMsg::Complaint { ts: 0 }));
        assert_eq!(new_leaders(&all), vec![(ReplicaId(1), 1)]);
        assert_eq!(le.current_leader(), ReplicaId(1));
    }

    #[test]
    fn amplification_complains_after_f_plus_one() {
        let mut le = LeaderElection::new(ReplicaId(3), members(7));
        // f = 2: three remote complaints trigger amplification (a complaint
        // to every member).
        let a1 = le.on_message(ReplicaId(0), ElectionMsg::Complaint { ts: 0 });
        let a2 = le.on_message(ReplicaId(1), ElectionMsg::Complaint { ts: 0 });
        assert!(a1.is_empty() && a2.is_empty());
        let a3 = le.on_message(ReplicaId(2), ElectionMsg::Complaint { ts: 0 });
        let to: Vec<ReplicaId> = sends(&a3).iter().map(|(to, _)| *to).collect();
        assert_eq!(to, members(7));
    }

    #[test]
    fn a_complaint_is_one_fan_out_to_every_member_in_membership_order() {
        let ms: Vec<ReplicaId> = [5, 2, 9, 0].map(ReplicaId).to_vec();
        let mut le = LeaderElection::new(ReplicaId(2), ms.clone());
        let actions = le.complain();
        assert_eq!(actions.len(), 1, "{actions:?}");
        assert!(
            matches!(&actions[0], ElectionAction::SendAll { to, msg: ElectionMsg::Complaint { ts: 0 } } if *to == ms)
        );
    }

    #[test]
    fn stale_and_foreign_complaints_are_ignored() {
        let mut le = LeaderElection::new(ReplicaId(0), members(4));
        assert!(le.on_message(ReplicaId(1), ElectionMsg::Complaint { ts: 5 }).is_empty());
        assert!(le.on_message(ReplicaId(99), ElectionMsg::Complaint { ts: 0 }).is_empty());
    }

    #[test]
    fn next_leader_request_advances_round_robin() {
        let mut le = LeaderElection::new(ReplicaId(0), members(4));
        assert_eq!(new_leaders(&le.next_leader()), vec![(ReplicaId(1), 1)]);
        assert_eq!(new_leaders(&le.next_leader()), vec![(ReplicaId(2), 2)]);
        assert_eq!(new_leaders(&le.next_leader()), vec![(ReplicaId(3), 3)]);
        assert_eq!(new_leaders(&le.next_leader()), vec![(ReplicaId(0), 4)]);
    }

    #[test]
    fn membership_change_affects_future_leaders() {
        let mut le = LeaderElection::new(ReplicaId(0), members(4));
        le.set_members(vec![ReplicaId(0), ReplicaId(5), ReplicaId(6)]);
        assert_eq!(new_leaders(&le.next_leader()), vec![(ReplicaId(5), 1)]);
    }
}

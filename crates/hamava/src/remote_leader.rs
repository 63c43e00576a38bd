//! Heterogeneous remote leader change (Alg. 2 of the paper).
//!
//! When a cluster does not receive the operations of a remote cluster in a round —
//! because the remote leader is Byzantine and withholds its `Inter` messages — the
//! local replicas complain locally, aggregate a quorum of complaint signatures, and a
//! sender set of `f_i + 1` replicas forwards the complaint to `f_j + 1` replicas of
//! the remote cluster, which then changes its leader. Complaint numbers (`cn_j`,
//! `rcn_j`) stop replay attacks, and all quorum sizes are taken from the *current*
//! per-cluster membership — this is where heterogeneity matters for liveness.

use ava_consensus::VERIFY_COST;
use ava_crypto::{Digest, KeyRegistry, Keypair, SigSet, Signature};
use ava_types::{ClusterId, Duration, Encode, Membership, ReplicaId, Round, Time};
use std::collections::BTreeMap;

/// Digest signed by a local complaint about remote cluster `about`.
fn lcomplaint_digest(about: ClusterId, cn: u64, round: Round) -> Digest {
    let mut bytes = b"lcomplaint".to_vec();
    about.encode(&mut bytes);
    cn.encode(&mut bytes);
    round.encode(&mut bytes);
    Digest::of_bytes(&bytes)
}

/// Wire messages of the remote leader change protocol.
#[derive(Clone, Debug)]
pub enum RemoteLeaderMsg {
    /// Local complaint about a remote cluster, broadcast within the complaining
    /// cluster (Alg. 2 line 8).
    LComplaint {
        /// The remote cluster being complained about.
        about: ClusterId,
        /// The complaint number `cn_about`.
        cn: u64,
        /// The round.
        round: Round,
        /// Signature over the complaint digest.
        sig: Signature,
    },
    /// Remote complaint carried to the complained-about cluster by the sender set
    /// (Alg. 2 line 18).
    RComplaint {
        /// The complaining cluster.
        from_cluster: ClusterId,
        /// The complaint number.
        cn: u64,
        /// The round.
        round: Round,
        /// `2·f+1` local complaint signatures from the complaining cluster.
        sigs: SigSet,
    },
    /// The remote complaint re-broadcast inside the complained-about cluster
    /// (Alg. 2 line 22, the paper's `Complaint`).
    Complaint {
        /// The complaining cluster.
        from_cluster: ClusterId,
        /// The complaint number.
        cn: u64,
        /// The round.
        round: Round,
        /// The complaint signatures.
        sigs: SigSet,
    },
}

impl RemoteLeaderMsg {
    /// Approximate wire size in bytes.
    pub fn wire_size(&self) -> usize {
        match self {
            RemoteLeaderMsg::LComplaint { .. } => 120,
            RemoteLeaderMsg::RComplaint { sigs, .. } | RemoteLeaderMsg::Complaint { sigs, .. } => {
                96 + sigs.len() * 48
            }
        }
    }
}

/// Side effects requested by the remote leader change state machine.
#[derive(Clone, Debug)]
pub enum RemoteLeaderAction {
    /// Send a message to a replica (local or remote).
    Send {
        /// Destination.
        to: ReplicaId,
        /// Message.
        msg: RemoteLeaderMsg,
    },
    /// Ask the local leader election module to move to the next leader (Alg. 2
    /// line 26).
    RequestNextLeader,
    /// Charge CPU time for signature work.
    Consume(Duration),
}

/// Per-remote-cluster complaint state.
#[derive(Debug, Default)]
struct ClusterWatch {
    deadline: Option<Time>,
    received: bool,
    cn: u64,
    rcn: u64,
    complaint_sigs: SigSet,
    complained: bool,
    /// Whether this replica already forwarded an RComplaint for the current cn.
    forwarded: bool,
}

/// Remote leader change state machine for one replica.
pub struct RemoteLeaderChange {
    me: ReplicaId,
    my_cluster: ClusterId,
    membership: Membership,
    keypair: Keypair,
    registry: KeyRegistry,
    round: Round,
    timeout: Duration,
    grace: Duration,
    watches: BTreeMap<ClusterId, ClusterWatch>,
    last_local_leader_change: Option<Time>,
}

impl RemoteLeaderChange {
    /// Create an instance for `me` in `my_cluster`.
    pub fn new(
        me: ReplicaId,
        my_cluster: ClusterId,
        membership: Membership,
        keypair: Keypair,
        registry: KeyRegistry,
        timeout: Duration,
        grace: Duration,
    ) -> Self {
        RemoteLeaderChange {
            me,
            my_cluster,
            membership,
            keypair,
            registry,
            round: Round(0),
            timeout,
            grace,
            watches: BTreeMap::new(),
            last_local_leader_change: None,
        }
    }

    /// Begin a round: reset timers and complaint state for every remote cluster
    /// (Alg. 10 lines 16–19 reset `timer_j`, `cn_j`, `rcn_j`).
    pub fn start_round(&mut self, round: Round, now: Time) {
        self.round = round;
        self.watches.clear();
        for cluster in self.membership.cluster_ids() {
            if cluster != self.my_cluster {
                self.watches.insert(
                    cluster,
                    ClusterWatch { deadline: Some(now + self.timeout), ..Default::default() },
                );
            }
        }
    }

    /// Update the membership map (after reconfigurations execute).
    pub fn set_membership(&mut self, membership: Membership) {
        self.membership = membership;
    }

    /// Note that the local cluster just changed its leader (the ε grace period of
    /// Alg. 2 line 25 starts now).
    pub fn note_local_leader_change(&mut self, now: Time) {
        self.last_local_leader_change = Some(now);
    }

    /// The operations of remote cluster `j` arrived: stop its timer (Alg. 1 line 19).
    pub fn mark_received(&mut self, cluster: ClusterId) {
        if let Some(watch) = self.watches.get_mut(&cluster) {
            watch.received = true;
            watch.deadline = None;
        }
    }

    /// Periodic tick: emit local complaints for remote clusters whose timer expired.
    pub fn on_tick(&mut self, now: Time) -> Vec<RemoteLeaderAction> {
        let mut out = Vec::new();
        let clusters: Vec<ClusterId> = self.watches.keys().copied().collect();
        for cluster in clusters {
            let (expired, cn) = {
                let watch = self.watches.get(&cluster).expect("watch exists");
                let expired = !watch.received
                    && !watch.complained
                    && watch.deadline.is_some_and(|d| now >= d);
                (expired, watch.cn)
            };
            if expired {
                self.watches.get_mut(&cluster).expect("watch exists").complained = true;
                self.broadcast_lcomplaint(cluster, cn, &mut out);
            }
        }
        out
    }

    fn broadcast_lcomplaint(&self, about: ClusterId, cn: u64, out: &mut Vec<RemoteLeaderAction>) {
        let sig = self.keypair.sign(&lcomplaint_digest(about, cn, self.round));
        let msg = RemoteLeaderMsg::LComplaint { about, cn, round: self.round, sig };
        for member in self.membership.member_ids(self.my_cluster) {
            out.push(RemoteLeaderAction::Send { to: member, msg: msg.clone() });
        }
    }

    /// Handle a protocol message.
    pub fn on_message(
        &mut self,
        from: ReplicaId,
        msg: RemoteLeaderMsg,
        now: Time,
    ) -> Vec<RemoteLeaderAction> {
        let mut out = Vec::new();
        match msg {
            RemoteLeaderMsg::LComplaint { about, cn, round, sig } => {
                self.handle_lcomplaint(from, about, cn, round, sig, now, &mut out);
            }
            RemoteLeaderMsg::RComplaint { from_cluster, cn, round, sigs } => {
                self.handle_rcomplaint(from_cluster, cn, round, sigs, &mut out);
            }
            RemoteLeaderMsg::Complaint { from_cluster, cn, round, sigs } => {
                self.handle_complaint(from_cluster, cn, round, sigs, now, &mut out);
            }
        }
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_lcomplaint(
        &mut self,
        from: ReplicaId,
        about: ClusterId,
        cn: u64,
        round: Round,
        sig: Signature,
        now: Time,
        out: &mut Vec<RemoteLeaderAction>,
    ) {
        if round != self.round || !self.membership.contains(self.my_cluster, from) {
            return;
        }
        out.push(RemoteLeaderAction::Consume(VERIFY_COST));
        if sig.signer != from || !self.registry.verify(&lcomplaint_digest(about, cn, round), &sig) {
            return;
        }
        let fi = self.membership.f(self.my_cluster);
        let my_members = self.membership.member_ids(self.my_cluster);
        let fj = self.membership.f(about);
        let remote_targets = self.membership.first_k(about, fj + 1);
        let Some(watch) = self.watches.get_mut(&about) else {
            return;
        };
        // Alg. 2 line 10: only count complaints with the expected number, and only
        // while the remote operations are still missing.
        if cn != watch.cn || watch.received {
            return;
        }
        watch.complaint_sigs.insert(sig);
        let count = watch.complaint_sigs.len();
        // Amplification (line 12): f_i + 1 complaints make this replica complain too.
        if count >= fi + 1 && !watch.complained {
            watch.complained = true;
            let my_cn = watch.cn;
            let _ = watch;
            // Re-borrow after the broadcast (broadcast_lcomplaint needs &self only).
            self.broadcast_lcomplaint(about, my_cn, out);
            let watch = self.watches.get_mut(&about).expect("watch exists");
            let my_sig = self.keypair.sign(&lcomplaint_digest(about, my_cn, self.round));
            watch.complaint_sigs.insert(my_sig);
            self.accept_if_quorum(about, fi, &my_members, &remote_targets, now, out);
            return;
        }
        self.accept_if_quorum(about, fi, &my_members, &remote_targets, now, out);
    }

    fn accept_if_quorum(
        &mut self,
        about: ClusterId,
        fi: usize,
        my_members: &[ReplicaId],
        remote_targets: &[ReplicaId],
        now: Time,
        out: &mut Vec<RemoteLeaderAction>,
    ) {
        let Some(watch) = self.watches.get_mut(&about) else { return };
        // Alg. 2 line 15: a quorum of complaint signatures accepts the complaint.
        if watch.complaint_sigs.len() < 2 * fi + 1 || watch.forwarded {
            return;
        }
        watch.forwarded = true;
        // The first f_i + 1 replicas of the local cluster are the sender set.
        let sender_set: Vec<ReplicaId> = my_members.iter().take(fi + 1).copied().collect();
        if sender_set.contains(&self.me) {
            let msg = RemoteLeaderMsg::RComplaint {
                from_cluster: self.my_cluster,
                cn: watch.cn,
                round: self.round,
                sigs: watch.complaint_sigs.clone(),
            };
            for &target in remote_targets {
                out.push(RemoteLeaderAction::Send { to: target, msg: msg.clone() });
            }
        }
        // Lines 19–20: bump the complaint number and reset for the next complaint.
        watch.cn += 1;
        watch.complaint_sigs = SigSet::new();
        watch.complained = false;
        watch.deadline = Some(now + self.timeout);
        watch.forwarded = false;
    }

    fn handle_rcomplaint(
        &mut self,
        from_cluster: ClusterId,
        cn: u64,
        round: Round,
        sigs: SigSet,
        out: &mut Vec<RemoteLeaderAction>,
    ) {
        // Clusters can be at most one round apart (the complaining cluster is stuck in
        // the round whose operations it never received), so accept complaints for the
        // current round and the immediately preceding one.
        if !(round == self.round || round.next() == self.round) || from_cluster == self.my_cluster {
            return;
        }
        out.push(RemoteLeaderAction::Consume(VERIFY_COST.saturating_mul(sigs.len() as u64)));
        if !self.verify_remote_complaint(from_cluster, cn, round, &sigs) {
            return;
        }
        // Accept the expected complaint number *or newer*: when a forward is lost
        // (a partition), the complaining cluster re-complains with a
        // bumped cn, and pinning to equality would desynchronize the two clusters'
        // counters forever. Older numbers stay rejected (replay protection).
        let expected = self.watches.entry(from_cluster).or_default().rcn;
        if cn < expected {
            return;
        }
        // Alg. 2 line 22: re-broadcast inside the local cluster.
        let msg = RemoteLeaderMsg::Complaint { from_cluster, cn, round, sigs };
        for member in self.membership.member_ids(self.my_cluster) {
            out.push(RemoteLeaderAction::Send { to: member, msg: msg.clone() });
        }
    }

    fn handle_complaint(
        &mut self,
        from_cluster: ClusterId,
        cn: u64,
        round: Round,
        sigs: SigSet,
        now: Time,
        out: &mut Vec<RemoteLeaderAction>,
    ) {
        if !(round == self.round || round.next() == self.round) || from_cluster == self.my_cluster {
            return;
        }
        out.push(RemoteLeaderAction::Consume(VERIFY_COST.saturating_mul(sigs.len() as u64)));
        if !self.verify_remote_complaint(from_cluster, cn, round, &sigs) {
            return;
        }
        let watch = self.watches.entry(from_cluster).or_default();
        // Alg. 2 line 24: accept each complaint number at most once (replay
        // protection), but tolerate skipped numbers — lost forwards advance the
        // complaining cluster's cn without this side ever seeing the old one.
        if cn < watch.rcn {
            return;
        }
        watch.rcn = cn + 1;
        // Line 25: skip the change if the local leader was changed very recently so
        // that simultaneous complaints from several clusters only change it once.
        let recently_changed =
            self.last_local_leader_change.is_some_and(|t| now.since(t) < self.grace);
        if !recently_changed {
            out.push(RemoteLeaderAction::RequestNextLeader);
        }
    }

    /// A remote complaint is valid if it carries a quorum (of the *complaining*
    /// cluster) of signatures over the local complaint digest that names this
    /// replica's cluster, for the round the complaint was raised in.
    fn verify_remote_complaint(
        &self,
        from_cluster: ClusterId,
        cn: u64,
        round: Round,
        sigs: &SigSet,
    ) -> bool {
        let members = self.membership.member_ids(from_cluster);
        let quorum = self.membership.quorum(from_cluster);
        let digest = lcomplaint_digest(self.my_cluster, cn, round);
        sigs.count_valid(&self.registry, &digest, &members) >= quorum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ava_types::{Region, ReplicaInfo};
    use std::collections::VecDeque;

    /// Two heterogeneous clusters as in Fig. 1: C0 with 4 replicas (p0..p3) and C1
    /// with 7 replicas (p10..p16).
    fn membership() -> Membership {
        let mut m = Membership::new();
        for i in 0..4 {
            m.add(ClusterId(0), ReplicaInfo { id: ReplicaId(i), region: Region::UsWest });
        }
        for i in 10..17 {
            m.add(ClusterId(1), ReplicaInfo { id: ReplicaId(i), region: Region::Europe });
        }
        m
    }

    struct Net {
        nodes: BTreeMap<ReplicaId, RemoteLeaderChange>,
        queue: VecDeque<(ReplicaId, ReplicaId, RemoteLeaderMsg)>,
        next_leader_requests: BTreeMap<ReplicaId, usize>,
        now: Time,
    }

    fn make_net() -> (Net, KeyRegistry) {
        let registry = KeyRegistry::new();
        let m = membership();
        let mut nodes = BTreeMap::new();
        for (cluster, info) in m.iter() {
            let kp = registry.register(info.id);
            let mut rlc = RemoteLeaderChange::new(
                info.id,
                cluster,
                m.clone(),
                kp,
                registry.clone(),
                Duration::from_secs(20),
                Duration::from_millis(500),
            );
            rlc.start_round(Round(1), Time::ZERO);
            nodes.insert(info.id, rlc);
        }
        let next_leader_requests = nodes.keys().map(|&id| (id, 0)).collect();
        (Net { nodes, queue: VecDeque::new(), next_leader_requests, now: Time::ZERO }, registry)
    }

    impl Net {
        fn apply(&mut self, at: ReplicaId, actions: Vec<RemoteLeaderAction>) {
            for a in actions {
                match a {
                    RemoteLeaderAction::Send { to, msg } => self.queue.push_back((at, to, msg)),
                    RemoteLeaderAction::RequestNextLeader => {
                        *self.next_leader_requests.get_mut(&at).unwrap() += 1
                    }
                    RemoteLeaderAction::Consume(_) => {}
                }
            }
        }

        fn tick_all(&mut self, at: Time) {
            self.now = at;
            let ids: Vec<ReplicaId> = self.nodes.keys().copied().collect();
            for id in ids {
                let actions = self.nodes.get_mut(&id).unwrap().on_tick(at);
                self.apply(id, actions);
            }
        }

        fn run(&mut self, max: usize) {
            for _ in 0..max {
                let Some((from, to, msg)) = self.queue.pop_front() else { return };
                let now = self.now;
                let actions = self.nodes.get_mut(&to).unwrap().on_message(from, msg, now);
                self.apply(to, actions);
            }
            panic!("remote leader change network did not quiesce");
        }
    }

    #[test]
    fn missing_remote_operations_trigger_remote_leader_change() {
        // Cluster 1 (7 replicas) never receives cluster 0's operations. Its replicas
        // complain locally, forward the complaint to cluster 0, and cluster 0's
        // replicas request a local leader change.
        let (mut net, _) = make_net();
        // Cluster 0 received cluster 1's operations (so it stays quiet).
        for i in 0..4 {
            net.nodes.get_mut(&ReplicaId(i)).unwrap().mark_received(ClusterId(1));
        }
        net.tick_all(Time::from_secs(21));
        net.run(100_000);
        let requests: usize = (0..4).map(|i| net.next_leader_requests[&ReplicaId(i)]).sum();
        assert!(requests >= 3, "correct replicas of cluster 0 should request a new leader");
        // Cluster 1's replicas must not have asked their own cluster to change.
        let c1_requests: usize = (10..17).map(|i| net.next_leader_requests[&ReplicaId(i)]).sum();
        assert_eq!(c1_requests, 0);
    }

    #[test]
    fn received_operations_suppress_complaints() {
        let (mut net, _) = make_net();
        for (_, node) in net.nodes.iter_mut() {
            node.mark_received(ClusterId(0));
            node.mark_received(ClusterId(1));
        }
        net.tick_all(Time::from_secs(30));
        net.run(10_000);
        assert!(net.next_leader_requests.values().all(|&c| c == 0));
    }

    #[test]
    fn replayed_remote_complaint_is_accepted_only_once() {
        let (mut net, registry) = make_net();
        // Build a genuine quorum of LComplaint signatures from cluster 1 about
        // cluster 0 (cn = 0).
        let mut sigs = SigSet::new();
        for i in 10..15 {
            let kp = registry.register(ReplicaId(i)); // re-register returns same key
            sigs.insert(kp.sign(&lcomplaint_digest(ClusterId(0), 0, Round(1))));
        }
        let msg = RemoteLeaderMsg::RComplaint {
            from_cluster: ClusterId(1),
            cn: 0,
            round: Round(1),
            sigs,
        };
        // Deliver the same remote complaint to p0 twice (a Byzantine replica replays
        // it); the local Complaint is re-broadcast, but each replica accepts it once.
        let p0 = ReplicaId(0);
        let actions1 =
            net.nodes.get_mut(&p0).unwrap().on_message(ReplicaId(14), msg.clone(), Time::ZERO);
        net.apply(p0, actions1);
        let actions2 = net.nodes.get_mut(&p0).unwrap().on_message(ReplicaId(14), msg, Time::ZERO);
        net.apply(p0, actions2);
        net.run(10_000);
        for i in 0..4 {
            assert!(
                net.next_leader_requests[&ReplicaId(i)] <= 1,
                "replay attack must not change the leader repeatedly"
            );
        }
    }

    #[test]
    fn under_signed_remote_complaint_is_rejected() {
        let (mut net, registry) = make_net();
        // Only 2 signatures (< quorum of 5 for cluster 1) — a Byzantine coalition.
        let mut sigs = SigSet::new();
        for i in 10..12 {
            let kp = registry.register(ReplicaId(i));
            sigs.insert(kp.sign(&lcomplaint_digest(ClusterId(0), 0, Round(1))));
        }
        let msg = RemoteLeaderMsg::RComplaint {
            from_cluster: ClusterId(1),
            cn: 0,
            round: Round(1),
            sigs,
        };
        let p0 = ReplicaId(0);
        let actions = net.nodes.get_mut(&p0).unwrap().on_message(ReplicaId(10), msg, Time::ZERO);
        net.apply(p0, actions);
        net.run(10_000);
        assert!(net.next_leader_requests.values().all(|&c| c == 0));
    }

    #[test]
    fn grace_period_suppresses_back_to_back_changes() {
        let (mut net, registry) = make_net();
        let p0 = ReplicaId(0);
        net.nodes.get_mut(&p0).unwrap().note_local_leader_change(Time::from_millis(100));
        let mut sigs = SigSet::new();
        for i in 10..15 {
            let kp = registry.register(ReplicaId(i));
            sigs.insert(kp.sign(&lcomplaint_digest(ClusterId(0), 0, Round(1))));
        }
        let msg =
            RemoteLeaderMsg::Complaint { from_cluster: ClusterId(1), cn: 0, round: Round(1), sigs };
        let actions =
            net.nodes.get_mut(&p0).unwrap().on_message(ReplicaId(1), msg, Time::from_millis(200));
        assert!(
            !actions.iter().any(|a| matches!(a, RemoteLeaderAction::RequestNextLeader)),
            "a just-changed leader must not be changed again immediately"
        );
    }
}

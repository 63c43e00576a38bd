//! The [`TotalOrderBroadcast`] trait (the paper's `tob` module, Alg. 7) and its
//! action/configuration types.

use crate::block::CommittedBlock;
use ava_types::{ClusterId, Duration, Operation, ReplicaId, Time, Timestamp};

/// Approximate wire size of a protocol message, used by the simulator's latency and
/// CPU cost models.
pub trait WireSize {
    /// Size of the message in bytes when encoded for the wire.
    fn wire_size(&self) -> usize;

    /// A short name for the kind of message this is, for the simulator's opt-in
    /// handler profile (`ava_simnet::SimMessage::kind_label`).
    fn kind_label(&self) -> &'static str {
        "tob"
    }
}

/// Side effects requested by a total-order-broadcast state machine.
#[derive(Clone, Debug)]
pub enum TobAction<M> {
    /// Send a protocol message to a replica of the local cluster.
    Send {
        /// Destination replica.
        to: ReplicaId,
        /// The message.
        msg: M,
    },
    /// Deliver a committed block (uniform order across correct replicas).
    Deliver(CommittedBlock),
    /// Complain about the current leader (forwarded to the leader election module).
    Complain {
        /// The leader being complained about.
        leader: ReplicaId,
        /// How long this replica had waited for a delivery when the watchdog
        /// fired (at least the bound it fired at).
        silent_for: Duration,
    },
    /// Charge the hosting replica CPU time (signature checks, hashing).
    Consume(Duration),
}

/// Fault behaviours a test or experiment can inject into a TOB instance.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum FaultMode {
    /// Behave correctly.
    #[default]
    Correct,
    /// When leader, never propose blocks (crash-like leader misbehaviour confined to
    /// the local protocol; used by leader-failure experiments).
    SilentLeader,
}

/// Static configuration of a TOB instance.
#[derive(Clone, Debug)]
pub struct TobConfig {
    /// The cluster this instance replicates for.
    pub cluster: ClusterId,
    /// The replica hosting this instance.
    pub me: ReplicaId,
    /// Current members of the cluster (kept up to date across reconfigurations).
    pub members: Vec<ReplicaId>,
    /// Maximum number of operations per block.
    pub max_block_size: usize,
    /// Ceiling of the leader watchdog: a broadcast value not delivered within
    /// this duration always makes the instance emit a [`TobAction::Complain`]
    /// (sooner once the cluster has shown its pace, see
    /// [`PendingPool::watchdog_bound`](crate::PendingPool::watchdog_bound)).
    pub timeout: Duration,
    /// Floor of the leader watchdog (the paper's ε): however fast the cluster
    /// has been, the instance waits at least this long before complaining.
    pub timeout_floor: Duration,
}

/// Modelled CPU cost of verifying one signature, charged alike by the local
/// TOBs, BRD (`ava_hamava::brd`) and the remote-leader module.
pub const VERIFY_COST: Duration = Duration::from_micros(40);

/// Modelled CPU cost of producing one signature.
pub const SIGN_COST: Duration = Duration::from_micros(20);

impl TobConfig {
    /// A config with paper-like defaults for the given cluster membership.
    pub fn new(cluster: ClusterId, me: ReplicaId, members: Vec<ReplicaId>) -> Self {
        TobConfig {
            cluster,
            me,
            members,
            max_block_size: 100,
            timeout: Duration::from_secs(20),
            timeout_floor: Duration::from_millis(500),
        }
    }

    /// Failure threshold `f = ⌊(n−1)/3⌋` for the current membership.
    pub fn f(&self) -> usize {
        if self.members.is_empty() {
            0
        } else {
            (self.members.len() - 1) / 3
        }
    }

    /// Quorum size `2f + 1` for the current membership.
    pub fn quorum(&self) -> usize {
        2 * self.f() + 1
    }
}

/// A local total-order broadcast: the abstraction Hamava is parametric over.
///
/// Implementations are sans-I/O state machines: every entry point returns the actions
/// the caller (the Hamava replica, or a test harness) must carry out.
///
/// Both the protocol state and its messages must be `Send`: the parallel run
/// executor (`ava_scenario::parallel`) moves whole deployments — replicas with
/// their embedded TOB instances and in-flight messages — onto worker threads.
/// Nothing ever runs a single TOB concurrently, so `Sync` is not required.
pub trait TotalOrderBroadcast: Send {
    /// The protocol's wire message type.
    type Msg: Clone + WireSize + Send;

    /// Human-readable protocol name (used in reports: "HotStuff", "BFT-SMaRt").
    fn name(&self) -> &'static str;

    /// Request to order `op` (Alg. 7 line 16). The value reaches the current leader
    /// and is eventually delivered at every correct replica in a uniform order.
    fn broadcast(&mut self, op: Operation, now: Time) -> Vec<TobAction<Self::Msg>>;

    /// Handle a protocol message from `from`.
    fn on_message(
        &mut self,
        from: ReplicaId,
        msg: Self::Msg,
        now: Time,
    ) -> Vec<TobAction<Self::Msg>>;

    /// Periodic tick: drives batching, retransmission and leader liveness checks.
    fn on_tick(&mut self, now: Time) -> Vec<TobAction<Self::Msg>>;

    /// Install a new leader elected with timestamp `ts` (Alg. 7 `new-leader`).
    fn new_leader(
        &mut self,
        leader: ReplicaId,
        ts: Timestamp,
        now: Time,
    ) -> Vec<TobAction<Self::Msg>>;

    /// Update the cluster membership after a reconfiguration took effect.
    fn set_membership(&mut self, members: Vec<ReplicaId>);

    /// The leader this instance currently believes in.
    fn leader(&self) -> ReplicaId;

    /// Inject a fault behaviour (tests and failure experiments only).
    fn set_fault_mode(&mut self, mode: FaultMode);

    /// Discard all volatile protocol state, as a process that crashed and lost its
    /// memory would: pending operations, in-flight decisions, vote bookkeeping and
    /// delivery cursors. Configuration (cluster, membership view, cost parameters)
    /// is retained; the caller re-installs leader context via
    /// [`TotalOrderBroadcast::new_leader`] once recovery establishes it. After a
    /// reset the instance must accept whatever height the cluster proposes next.
    fn reset(&mut self);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_thresholds() {
        let members: Vec<ReplicaId> = (0..7).map(ReplicaId).collect();
        let cfg = TobConfig::new(ClusterId(0), ReplicaId(0), members);
        assert_eq!(cfg.f(), 2);
        assert_eq!(cfg.quorum(), 5);
        let empty = TobConfig::new(ClusterId(0), ReplicaId(0), vec![]);
        assert_eq!(empty.f(), 0);
        assert_eq!(empty.quorum(), 1);
    }

    #[test]
    fn default_fault_mode_is_correct() {
        assert_eq!(FaultMode::default(), FaultMode::Correct);
    }
}

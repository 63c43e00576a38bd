//! Closed-loop client actor.
//!
//! Each cluster in the paper's evaluation has one client with multiple threads that
//! issue YCSB requests back-to-back. The client actor models those threads as a fixed
//! number of outstanding requests: whenever a response arrives a new request is
//! issued immediately. Reads are answered locally by the contacted replica; writes
//! complete when the round that ordered them executes.

use crate::messages::{AvaMsg, ClientCtl};
use ava_consensus::WireSize;
use ava_simnet::{Actor, Context, SimMessage};
use ava_types::{BuildIdHasher, ClientId, ClusterId, Duration, Output, ReplicaId, Time, TxKey};
use ava_workload::ClientWorkload;
use rand::seq::SliceRandom;
use std::collections::HashMap;
use std::marker::PhantomData;

const TICK: u64 = 1;

/// Re-issue a fresh request if an outstanding one has not completed within this
/// time (keeps the closed loop alive across leader changes and crashes: requests
/// stuck at a crashed replica are abandoned and replayed against another one).
const RETRY_TIMEOUT: Duration = Duration::from_secs(3);

/// Configuration of a closed-loop client.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// The client's identifier.
    pub id: ClientId,
    /// The cluster the client talks to.
    pub cluster: ClusterId,
    /// Replicas the client may contact (members of its cluster).
    pub targets: Vec<ReplicaId>,
    /// Number of outstanding requests ("client threads" in the paper).
    pub concurrency: usize,
}

impl ClientConfig {
    /// Defaults: enough concurrency to keep one batch in flight.
    pub fn new(id: ClientId, cluster: ClusterId, targets: Vec<ReplicaId>) -> Self {
        ClientConfig { id, cluster, targets, concurrency: 128 }
    }
}

/// The closed-loop client actor, generic over the TOB message type only so it can run
/// in the same simulation as any replica flavour.
pub struct Client<TM> {
    cfg: ClientConfig,
    workload: ClientWorkload,
    /// Issue time and kind of each request not yet answered, by id.
    outstanding: HashMap<TxKey, (Time, bool), BuildIdHasher>,
    completed: u64,
    _marker: PhantomData<TM>,
}

impl<TM> Client<TM> {
    /// Create a client with the given workload generator.
    pub fn new(cfg: ClientConfig, workload: ClientWorkload) -> Self {
        let outstanding = HashMap::default();
        Client { cfg, workload, outstanding, completed: 0, _marker: PhantomData }
    }

    /// Number of completed transactions (for tests).
    pub fn completed(&self) -> u64 {
        self.completed
    }
}

impl<TM: Clone + WireSize> Client<TM> {
    fn issue_one(&mut self, ctx: &mut Context<'_, AvaMsg<TM>>) {
        if self.cfg.targets.is_empty() {
            return;
        }
        let tx = self.workload.next_tx(ctx.rng());
        let target = *self.cfg.targets.choose(ctx.rng()).expect("targets not empty");
        self.outstanding.insert(TxKey(tx.id), (ctx.now(), tx.kind.is_write()));
        ctx.send(target, AvaMsg::ClientRequest { tx });
    }

    fn fill_pipeline(&mut self, ctx: &mut Context<'_, AvaMsg<TM>>) {
        while self.outstanding.len() < self.cfg.concurrency {
            self.issue_one(ctx);
        }
    }
}

impl<TM: Clone + WireSize> Actor<AvaMsg<TM>> for Client<TM>
where
    AvaMsg<TM>: SimMessage,
{
    fn on_start(&mut self, ctx: &mut Context<'_, AvaMsg<TM>>) {
        ctx.set_timer(Duration::from_millis(250), TICK);
        self.fill_pipeline(ctx);
    }

    fn on_message(&mut self, _from: ReplicaId, msg: AvaMsg<TM>, ctx: &mut Context<'_, AvaMsg<TM>>) {
        match msg {
            AvaMsg::ClientResponse { tx, is_write, .. } => {
                if let Some((issued_at, _)) = self.outstanding.remove(&TxKey(tx)) {
                    self.completed += 1;
                    ctx.emit(Output::TxCompleted {
                        tx,
                        client: self.cfg.id,
                        cluster: self.cfg.cluster,
                        issued_at,
                        completed_at: ctx.now(),
                        is_write,
                    });
                    self.issue_one(ctx);
                }
            }
            AvaMsg::ClientControl(ClientCtl::SwitchWorkload(spec)) => {
                // Outstanding requests complete under the old mix; everything issued
                // from now on follows the new spec.
                self.workload.switch_spec(spec);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, kind: u64, ctx: &mut Context<'_, AvaMsg<TM>>) {
        if kind != TICK {
            return;
        }
        ctx.set_timer(Duration::from_millis(250), TICK);
        // Drop requests that have been outstanding for too long (lost to a crashed
        // replica or a leader change) and replace them to keep the load constant.
        let now = ctx.now();
        let stale: Vec<TxKey> = self
            .outstanding
            .iter()
            .filter(|(_, (issued, _))| now.since(*issued) >= RETRY_TIMEOUT)
            .map(|(id, _)| *id)
            .collect();
        for id in stale {
            self.outstanding.remove(&id);
        }
        self.fill_pipeline(ctx);
    }
}

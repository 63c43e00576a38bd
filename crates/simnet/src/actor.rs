//! The [`Actor`] trait implemented by protocol state machines and the [`Context`]
//! through which they interact with the simulated world.

use crate::cost::CostModel;
use ava_types::{Duration, Output, ReplicaId, Time};
use rand::rngs::StdRng;

/// Messages exchanged by actors.
///
/// `size_bytes` feeds the latency/CPU cost model; implementations should return a
/// value roughly proportional to what a wire encoding of the message would be (the
/// protocol crates account for payloads and signature sets).
///
/// Messages must be `Send`: a whole [`crate::Simulation`] moves across threads when
/// the parallel run executor fans independent runs out over a worker pool, and the
/// event queue owns in-flight messages. `Arc`-backed payloads satisfy this as long
/// as their interior mutability is thread-safe (`OnceLock`/`Mutex`, not `Cell`).
pub trait SimMessage: Clone + Send {
    /// Approximate wire size of the message in bytes.
    fn size_bytes(&self) -> usize {
        256
    }

    /// A short name for the kind of message this is — the bucket the opt-in
    /// handler profile ([`crate::HandlerProfile`]) files its handling under.
    fn kind_label(&self) -> &'static str {
        "msg"
    }
}

impl SimMessage for () {}

/// A protocol state machine driven by the simulator.
///
/// Handlers receive a [`Context`] used to send messages, set timers, consume CPU
/// time, emit measurement events and draw randomness. All side effects go through the
/// context, which is what keeps runs deterministic and replayable.
pub trait Actor<M: SimMessage> {
    /// Called once when the node is added to the simulation.
    fn on_start(&mut self, ctx: &mut Context<'_, M>) {
        let _ = ctx;
    }

    /// Called when a message from `from` is delivered to this node.
    fn on_message(&mut self, from: ReplicaId, msg: M, ctx: &mut Context<'_, M>);

    /// Called when a timer previously set with [`Context::set_timer`] fires.
    fn on_timer(&mut self, kind: u64, ctx: &mut Context<'_, M>) {
        let _ = (kind, ctx);
    }

    /// Called when the node restarts after a crash (see `Simulation::restart_at`).
    ///
    /// A restarting actor models a process that lost its memory: implementations
    /// must discard all volatile state and rebuild from whatever they treat as
    /// persistent (e.g. an `ava-store` round log). Timers armed before the crash
    /// were dropped with the crash, so the hook must re-arm any periodic tick it
    /// needs. The default treats the restart as a fresh boot.
    fn on_restart(&mut self, ctx: &mut Context<'_, M>) {
        self.on_start(ctx);
    }

    /// Called when the node is scheduled to turn Byzantine (see
    /// `Simulation::corrupt_at`). `tag` is an opaque behavior code the scheduling
    /// layer and the actor agree on; the default ignores it — honest actors stay
    /// honest. No [`Context`] is passed: like a scheduled crash, corruption flips
    /// actor-internal state without producing events, costs or RNG draws, so a
    /// schedule whose corruption is a no-op stays byte-identical to a plain run.
    fn on_corrupt(&mut self, tag: u64) {
        let _ = tag;
    }
}

/// One buffered send request: either a point-to-point message or a fan-out sharing
/// a single payload. Keeping both in one ordered list preserves the exact event
/// scheduling order a sequence of plain `send` calls would produce.
pub(crate) enum SendOp<M> {
    /// Send `msg` to one replica.
    One(ReplicaId, M),
    /// Send clones of one shared `msg` to each target, in order. The simulator
    /// computes the payload size once for the whole fan-out.
    Many(Vec<ReplicaId>, M),
}

/// One send request drained out of a handler's buffered effects by
/// [`Context::take_sends`], in a shape a decorating actor can inspect and
/// mutate: the target list and the shared payload. Requeuing an unmodified
/// captured send via [`Context::broadcast`] reproduces the original scheduling
/// byte-for-byte — the simulator sizes the payload once per operation and
/// routes the targets in order in both cases.
pub struct CapturedSend<M> {
    /// The recipients, in the order the wrapped actor listed them.
    pub to: Vec<ReplicaId>,
    /// The message each recipient gets a clone of.
    pub msg: M,
}

/// Buffered side effects of one handler invocation, applied by the simulator after
/// the handler returns.
pub(crate) struct Effects<M> {
    pub sends: Vec<SendOp<M>>,
    pub timers: Vec<(Duration, u64)>,
    pub consumed: Duration,
    pub outputs: Vec<Output>,
}

impl<M> Default for Effects<M> {
    fn default() -> Self {
        Effects {
            sends: Vec::new(),
            timers: Vec::new(),
            consumed: Duration::ZERO,
            outputs: Vec::new(),
        }
    }
}

/// The world as seen by an actor while handling one event.
pub struct Context<'a, M> {
    pub(crate) node: ReplicaId,
    pub(crate) now: Time,
    pub(crate) costs: CostModel,
    pub(crate) rng: &'a mut StdRng,
    pub(crate) effects: &'a mut Effects<M>,
}

impl<'a, M> Context<'a, M> {
    /// The id of the node whose handler is running.
    pub fn node(&self) -> ReplicaId {
        self.node
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The CPU cost model (so actors can charge themselves for signature checks and
    /// execution work via [`Context::consume`]).
    pub fn costs(&self) -> CostModel {
        self.costs
    }

    /// Send `msg` to `to`. Delivery is scheduled after this handler's processing time
    /// plus the network latency between the two nodes' regions.
    pub fn send(&mut self, to: ReplicaId, msg: M) {
        self.effects.sends.push(SendOp::One(to, msg));
    }

    /// Send `msg` to every node in `targets`, sharing one payload: the message's
    /// wire size is computed once for the whole fan-out and each recipient gets a
    /// clone (a pointer bump for `Arc`-backed payloads). Delivery order and latency
    /// are identical to calling [`Context::send`] once per target.
    pub fn send_many<I: IntoIterator<Item = ReplicaId>>(&mut self, targets: I, msg: M)
    where
        M: Clone,
    {
        self.broadcast(targets.into_iter().collect(), msg);
    }

    /// Like [`Context::send_many`], taking the target list by value.
    pub fn broadcast(&mut self, targets: Vec<ReplicaId>, msg: M) {
        if targets.is_empty() {
            return;
        }
        self.effects.sends.push(SendOp::Many(targets, msg));
    }

    /// Arrange for [`Actor::on_timer`] to be called with `kind` after `delay`.
    pub fn set_timer(&mut self, delay: Duration, kind: u64) {
        self.effects.timers.push((delay, kind));
    }

    /// Charge the node `amount` of CPU time on top of the per-event cost.
    pub fn consume(&mut self, amount: Duration) {
        self.effects.consumed += amount;
    }

    /// Record a measurement event.
    pub fn emit(&mut self, output: Output) {
        self.effects.outputs.push(output);
    }

    /// Deterministic per-simulation random number generator.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Drain every send buffered so far into an inspectable list, in order.
    /// Decorating actors (the Byzantine behavior wrappers) use this to intercept
    /// a wrapped handler's outbound traffic, mutate or drop individual sends,
    /// and requeue the rest via [`Context::broadcast`] — which preserves the
    /// original scheduling exactly for unmodified sends.
    pub fn take_sends(&mut self) -> Vec<CapturedSend<M>> {
        std::mem::take(&mut self.effects.sends)
            .into_iter()
            .map(|op| match op {
                SendOp::One(to, msg) => CapturedSend { to: vec![to], msg },
                SendOp::Many(to, msg) => CapturedSend { to, msg },
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn context_buffers_effects() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut effects = Effects::<()>::default();
        let mut ctx = Context {
            node: ReplicaId(3),
            now: Time::from_millis(5),
            costs: CostModel::zero(),
            rng: &mut rng,
            effects: &mut effects,
        };
        ctx.send(ReplicaId(1), ());
        ctx.send_many([ReplicaId(2), ReplicaId(4)], ());
        ctx.send_many([], ()); // empty fan-outs are dropped
        ctx.set_timer(Duration::from_millis(10), 7);
        ctx.consume(Duration::from_micros(30));
        ctx.emit(Output::Custom { name: "x", value: 1.0, at: ctx.now() });
        assert_eq!(ctx.node(), ReplicaId(3));
        assert_eq!(effects.sends.len(), 2);
        assert!(matches!(&effects.sends[0], SendOp::One(to, ()) if *to == ReplicaId(1)));
        assert!(
            matches!(&effects.sends[1], SendOp::Many(ts, ()) if ts == &[ReplicaId(2), ReplicaId(4)])
        );
        assert_eq!(effects.timers, vec![(Duration::from_millis(10), 7)]);
        assert_eq!(effects.consumed, Duration::from_micros(30));
        assert_eq!(effects.outputs.len(), 1);
    }

    #[test]
    fn take_sends_drains_and_requeue_preserves_targets() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut effects = Effects::<()>::default();
        let mut ctx = Context {
            node: ReplicaId(3),
            now: Time::from_millis(5),
            costs: CostModel::zero(),
            rng: &mut rng,
            effects: &mut effects,
        };
        ctx.send(ReplicaId(1), ());
        ctx.send_many([ReplicaId(2), ReplicaId(4)], ());
        let captured = ctx.take_sends();
        assert_eq!(captured.len(), 2);
        assert_eq!(captured[0].to, vec![ReplicaId(1)]);
        assert_eq!(captured[1].to, vec![ReplicaId(2), ReplicaId(4)]);
        // The buffer is empty after the drain; requeuing restores the fan-outs.
        assert!(ctx.effects.sends.is_empty());
        for send in captured {
            ctx.broadcast(send.to, send.msg);
        }
        assert_eq!(ctx.effects.sends.len(), 2);
        assert!(matches!(&ctx.effects.sends[0], SendOp::Many(ts, ()) if ts == &[ReplicaId(1)]));
    }
}

//! The opt-in handler profile: where a run's *host* time goes, bucketed by who
//! handled what.
//!
//! Switched on with [`crate::Simulation::enable_profile`], the event loop reads
//! the host clock around every queue pop, every [`crate::Actor`] call and the
//! work that follows it (collecting outputs, arming timers, routing sends), and
//! accumulates the readings per (actor kind × [`crate::SimMessage::kind_label`]).
//! Each of those three intervals holds one clock read of its own;
//! [`HandlerProfile::lap_ns`], calibrated when the profile is switched on, is
//! what a reader nets out per interval.
//! Switched off — the default — the loop runs a copy of itself compiled without
//! the clock reads, chosen by one branch per event, so a run's outputs,
//! [`crate::NetStats`] and cost are what they were without this module.

use ava_types::ReplicaId;
use std::collections::BTreeMap;
use std::time::Instant;

/// Which tier of the deployment a node belongs to, as far as the profile cares.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum ActorKind {
    /// A protocol replica (ids below the client range).
    Replica,
    /// A client-tier node: clients, brokers and load generators, which all live
    /// at or above [`crate::client_node_id`]`(ClientId(0))`.
    Client,
}

impl ActorKind {
    pub(crate) fn of(node: ReplicaId) -> Self {
        if node < crate::client_node_id(ava_types::ClientId(0)) {
            ActorKind::Replica
        } else {
            ActorKind::Client
        }
    }

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            ActorKind::Replica => "replica",
            ActorKind::Client => "client",
        }
    }
}

/// Totals of one (actor kind, event kind) bucket.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ProfileRow {
    /// Events handled.
    pub events: u64,
    /// Host nanoseconds inside the actor's handler.
    pub handler_ns: u64,
    /// Host nanoseconds after the handler returned: outputs collected, timers
    /// armed, sends routed and queued.
    pub post_ns: u64,
    /// Messages the handlers sent (each recipient of a fan-out counts).
    pub sends: u64,
}

/// The accumulated profile of a run (see the module docs).
#[derive(Clone, Debug, Default)]
pub struct HandlerProfile {
    rows: BTreeMap<(ActorKind, &'static str), ProfileRow>,
    /// Host nanoseconds popping events off the queue, all events together
    /// (events dropped before reaching a handler included).
    pub pop_ns: u64,
    /// What one lap of the clock costs on this host, calibrated when the
    /// profile was switched on: each pop, handler and post interval of an
    /// event holds one, so `pop_ns`, `handler_ns` and `post_ns` each read
    /// `lap_ns` per event above the work they time.
    pub lap_ns: u64,
}

impl HandlerProfile {
    pub(crate) fn row(&mut self, actor: ActorKind, kind: &'static str) -> &mut ProfileRow {
        self.rows.entry((actor, kind)).or_default()
    }

    /// Every bucket, ordered by actor kind then event kind.
    pub fn rows(&self) -> impl Iterator<Item = (ActorKind, &'static str, ProfileRow)> + '_ {
        self.rows.iter().map(|((actor, kind), row)| (*actor, *kind, *row))
    }

    /// All host nanoseconds the profile accounts for: pops, handlers and
    /// post-handler work.
    pub fn total_ns(&self) -> u64 {
        self.pop_ns + self.rows.values().map(|r| r.handler_ns + r.post_ns).sum::<u64>()
    }

    /// An empty profile, its clock lap calibrated on this host: the mean of
    /// 2 000 back-to-back laps, the lowest of five such batches (a batch the
    /// host preempted reads high).
    pub(crate) fn calibrated() -> Self {
        let lap_ns = (0..5)
            .map(|_| {
                let mut watch = Instant::start();
                (0..2_000).map(|_| watch.lap_ns()).sum::<u64>() / 2_000
            })
            .min()
            .unwrap_or(0);
        HandlerProfile { lap_ns, ..HandlerProfile::default() }
    }
}

/// The host clock as the event loop reads it. The loop is generic over this:
/// `Instant` reads the clock, `()` is the switched-off stand-in whose every
/// method compiles to nothing.
pub(crate) trait Stopwatch {
    /// Whether readings mean anything (lets the loop skip bookkeeping too).
    const ON: bool;
    fn start() -> Self;
    /// Nanoseconds since the last lap (or the start).
    fn lap_ns(&mut self) -> u64;
}

impl Stopwatch for () {
    const ON: bool = false;
    fn start() {}
    fn lap_ns(&mut self) -> u64 {
        0
    }
}

impl Stopwatch for Instant {
    const ON: bool = true;
    fn start() -> Self {
        Instant::now()
    }
    fn lap_ns(&mut self) -> u64 {
        let now = Instant::now();
        let ns = now.duration_since(*self).as_nanos() as u64;
        *self = now;
        ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ava_types::ClientId;

    #[test]
    fn actor_kind_splits_at_the_client_id_range() {
        assert_eq!(ActorKind::of(ReplicaId(0)), ActorKind::Replica);
        let first_client = crate::client_node_id(ClientId(0));
        assert_eq!(ActorKind::of(ReplicaId(first_client.0 - 1)), ActorKind::Replica);
        assert_eq!(ActorKind::of(first_client), ActorKind::Client);
        assert_eq!(ActorKind::of(crate::client_node_id(ClientId(41))), ActorKind::Client);
    }

    #[test]
    fn the_calibrated_lap_is_a_clock_read() {
        // A lap is one clock read: far less than a microsecond on any host
        // the profile is meant for. A profile not built calibrated nets
        // nothing out.
        let lap = HandlerProfile::calibrated().lap_ns;
        assert!(lap < 1_000, "{lap} ns per lap");
        assert_eq!(HandlerProfile::default().lap_ns, 0);
    }

    #[test]
    fn total_ns_counts_pops_handlers_and_post_work() {
        let mut profile = HandlerProfile { pop_ns: 5, ..HandlerProfile::default() };
        assert_eq!(profile.total_ns(), 5);
        let row = profile.row(ActorKind::Replica, "propose");
        row.handler_ns += 100;
        row.post_ns += 20;
        row.sends += 9;
        profile.row(ActorKind::Client, "reply").handler_ns += 7;
        assert_eq!(profile.total_ns(), 5 + 100 + 20 + 7);
    }

    #[test]
    fn rows_accumulate_per_bucket_ordered_by_actor_then_kind() {
        let mut profile = HandlerProfile::default();
        for (actor, kind) in [
            (ActorKind::Client, "reply"),
            (ActorKind::Replica, "vote"),
            (ActorKind::Replica, "propose"),
            (ActorKind::Replica, "vote"),
        ] {
            profile.row(actor, kind).events += 1;
        }
        let rows: Vec<_> =
            profile.rows().map(|(actor, kind, row)| (actor, kind, row.events)).collect();
        assert_eq!(
            rows,
            [
                (ActorKind::Replica, "propose", 1),
                (ActorKind::Replica, "vote", 2),
                (ActorKind::Client, "reply", 1),
            ]
        );
    }
}

//! The simulator's event queue entries.

use ava_types::{ReplicaId, Time};
use std::cmp::Ordering;

/// The [`Event::slot`] of an event addressed to a node the simulation did not
/// know when the event was scheduled. No node ever has this slot, so the event
/// is counted and dropped when its time comes.
pub const NO_NODE: u32 = u32::MAX;

/// What happens when an event fires.
#[derive(Clone, Debug)]
pub enum EventKind<M> {
    /// A node starts (its `on_start` hook runs).
    Start,
    /// A message from `from` is delivered.
    Deliver {
        /// Sending node.
        from: ReplicaId,
        /// The message.
        msg: M,
        /// Payload size used for cost accounting.
        size: usize,
    },
    /// A timer set by the node fires.
    Timer {
        /// The timer kind the node passed to `set_timer`.
        kind: u64,
        /// The node's lifecycle epoch when the timer was armed. A restart bumps
        /// the node's epoch, so timers armed before a crash die with it instead
        /// of firing into the restarted actor.
        epoch: u64,
    },
    /// A crashed node restarts (its `on_restart` hook runs with only whatever
    /// state the actor treats as persistent).
    Restart,
}

/// A scheduled event.
#[derive(Clone, Debug)]
pub struct Event<M> {
    /// When the event is scheduled.
    pub at: Time,
    /// Tie-breaking sequence number (FIFO among simultaneous events).
    pub seq: u64,
    /// The node the event is addressed to, as its position in the simulation's
    /// node table — resolved once, when the event is scheduled, so firing it is
    /// an indexed load ([`NO_NODE`] if there was no such node).
    pub slot: u32,
    /// What the event is.
    pub kind: EventKind<M>,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<M> Eq for Event<M> {}

impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering so that BinaryHeap pops the earliest event first.
        other.at.cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    #[test]
    fn heap_pops_earliest_event_first() {
        let mut heap: BinaryHeap<Event<()>> = BinaryHeap::new();
        for (at, seq) in [(30u64, 0u64), (10, 1), (20, 2), (10, 0)] {
            heap.push(Event { at: Time(at), seq, slot: 0, kind: EventKind::Start });
        }
        let order: Vec<(u64, u64)> =
            std::iter::from_fn(|| heap.pop().map(|e| (e.at.0, e.seq))).collect();
        assert_eq!(order, vec![(10, 0), (10, 1), (20, 2), (30, 0)]);
    }
}

//! Network statistics collected by the simulator.
//!
//! Table I of the paper compares protocols by local vs. global (inter-cluster)
//! message complexity; the simulator counts both by tagging every node with a group
//! (its cluster).

use std::collections::HashMap;

/// Counters of simulated network traffic.
#[derive(Clone, Debug, Default)]
pub struct NetStats {
    /// Messages sent between nodes of the same group (intra-cluster).
    pub local_messages: u64,
    /// Messages sent between nodes of different groups (inter-cluster).
    pub global_messages: u64,
    /// Total payload bytes sent.
    pub bytes_sent: u64,
    /// Messages dropped by fault-injection rules or crashes.
    pub dropped_messages: u64,
    /// Total events processed.
    pub events_processed: u64,
    /// Messages sent per group pair `(from_group, to_group)`, local pairs
    /// (`from == to`) included. Not broken down by message kind.
    pub per_group_pair: HashMap<(u32, u32), u64>,
}

impl NetStats {
    /// Total messages sent (local + global).
    pub fn total_messages(&self) -> u64 {
        self.local_messages + self.global_messages
    }

    /// Record one sent message.
    pub fn record_send(&mut self, from_group: u32, to_group: u32, bytes: usize) {
        if from_group == to_group {
            self.local_messages += 1;
        } else {
            self.global_messages += 1;
        }
        self.bytes_sent += bytes as u64;
        *self.per_group_pair.entry((from_group, to_group)).or_insert(0) += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_send_classifies_local_and_global() {
        let mut s = NetStats::default();
        s.record_send(0, 0, 100);
        s.record_send(0, 1, 200);
        s.record_send(1, 0, 300);
        assert_eq!(s.local_messages, 1);
        assert_eq!(s.global_messages, 2);
        assert_eq!(s.total_messages(), 3);
        assert_eq!(s.bytes_sent, 600);
        assert_eq!(s.per_group_pair[&(0, 1)], 1);
    }
}

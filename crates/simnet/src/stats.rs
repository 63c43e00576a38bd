//! Network statistics collected by the simulator.
//!
//! Table I of the paper compares protocols by local vs. global (inter-cluster)
//! message complexity; the simulator counts both by tagging every node with a group
//! (its cluster).

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
    /// The group ids met so far, in the order met: `groups[i]` labels row and
    /// column `i` of `pair_counts`. The simulator resolves a node's index once,
    /// when the node is added, so counting a send is one indexed add.
    groups: Vec<u32>,
    /// Messages sent per (from, to) group pair: a row-major
    /// `groups.len()` × `groups.len()` matrix.
    pair_counts: Vec<u64>,
}

impl NetStats {
    /// Total messages sent (local + global).
    pub fn total_messages(&self) -> u64 {
        self.local_messages + self.global_messages
    }

    /// The pair-matrix index of `group`, which is added (and the matrix re-laid
    /// out one row and column wider) when it is new.
    pub(crate) fn group_index(&mut self, group: u32) -> usize {
        if let Some(index) = self.groups.iter().position(|g| *g == group) {
            return index;
        }
        let old = self.groups.len();
        let mut wider = vec![0; (old + 1) * (old + 1)];
        for (row, counts) in self.pair_counts.chunks_exact(old.max(1)).enumerate() {
            wider[row * (old + 1)..][..old].copy_from_slice(counts);
        }
        self.pair_counts = wider;
        self.groups.push(group);
        old
    }

    /// Record one sent message between the groups at pair-matrix indices `from`
    /// and `to` (see [`NetStats::group_index`]).
    pub(crate) fn record_send(&mut self, from: usize, to: usize, bytes: usize) {
        if from == to {
            self.local_messages += 1;
        } else {
            self.global_messages += 1;
        }
        self.bytes_sent += bytes as u64;
        self.pair_counts[from * self.groups.len() + to] += 1;
    }

    /// Messages sent per group pair `(from_group, to_group)`, local pairs
    /// (`from == to`) included, in ascending pair order; pairs that carried no
    /// message are left out. Senders the simulation does not know (see
    /// `Simulation::external_send`) count under group `u32::MAX`. Not broken
    /// down by message kind.
    pub fn per_group_pair(&self) -> Vec<((u32, u32), u64)> {
        let width = self.groups.len();
        let mut pairs: Vec<((u32, u32), u64)> = self
            .pair_counts
            .iter()
            .enumerate()
            .filter(|(_, count)| **count > 0)
            .map(|(cell, count)| ((self.groups[cell / width], self.groups[cell % width]), *count))
            .collect();
        pairs.sort_unstable();
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_send_classifies_local_and_global() {
        let mut s = NetStats::default();
        let (g0, g1) = (s.group_index(0), s.group_index(1));
        s.record_send(g0, g0, 100);
        s.record_send(g0, g1, 200);
        s.record_send(g1, g0, 300);
        assert_eq!(s.local_messages, 1);
        assert_eq!(s.global_messages, 2);
        assert_eq!(s.total_messages(), 3);
        assert_eq!(s.bytes_sent, 600);
        assert_eq!(s.per_group_pair(), vec![((0, 0), 1), ((0, 1), 1), ((1, 0), 1)]);
    }

    #[test]
    fn pair_counts_survive_new_groups_and_list_in_ascending_order() {
        // Groups met in no particular order, each arriving after traffic was
        // already counted: the re-laid-out matrix keeps every count, and the
        // listing is by group id, not by arrival.
        let mut s = NetStats::default();
        let g7 = s.group_index(7);
        s.record_send(g7, g7, 1);
        let g2 = s.group_index(2);
        s.record_send(g7, g2, 1);
        s.record_send(g2, g7, 1);
        s.record_send(g2, g7, 1);
        let unknown = s.group_index(u32::MAX);
        s.record_send(unknown, g2, 1);
        assert_eq!(s.group_index(7), g7, "a known group keeps its index");
        assert_eq!(
            s.per_group_pair(),
            vec![((2, 7), 2), ((7, 2), 1), ((7, 7), 1), ((u32::MAX, 2), 1)]
        );
        assert_eq!((s.local_messages, s.global_messages), (1, 4));
    }
}

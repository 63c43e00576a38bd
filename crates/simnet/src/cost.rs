//! Per-node CPU cost model.
//!
//! The paper's servers are 2-core Google Cloud VMs; local consensus is CPU-bound on
//! message handling and signature verification. Each simulated node is a
//! single-threaded server whose event handling consumes virtual CPU time according to
//! this model, so protocols with more messages per decision (e.g. PBFT-style
//! all-to-all) are slower per node than linear ones (HotStuff) — the asymmetry the
//! paper's A.H/A.B comparison relies on.

use ava_types::Duration;

/// CPU cost parameters for one node.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Fixed cost of handling any event (message dispatch, bookkeeping).
    pub per_event: Duration,
    /// Cost per payload byte (deserialization, hashing, copying), in nanoseconds.
    pub per_byte_ns: u64,
    /// Cost of verifying one signature (see [`CostModel::sig_cost`]).
    pub per_sig_verify: Duration,
    /// Cost of producing one signature (see [`CostModel::sig_cost`]).
    pub per_sign: Duration,
    /// Cost of executing one transaction against the state machine in Stage 3.
    pub per_tx_execute: Duration,
    /// Latency of one durable write barrier (fsync). Replicas with an `ava-store`
    /// round log charge this once per log append / checkpoint, so persistence has
    /// a measurable price; deployments without a store never pay it.
    pub per_fsync: Duration,
    /// Cost per byte persisted to the store, in nanoseconds (serialization + page
    /// writes), charged on top of `per_fsync`.
    pub persist_byte_ns: u64,
    /// Amortized per-operation cost of unpacking a batch, in nanoseconds
    /// (deserializing and routing one operation out of an already-verified
    /// batch; far cheaper than `per_event` dispatch of a standalone request).
    pub per_batch_op_ns: u64,
    /// Cost per committed value byte materialised or served by the state
    /// machine, in nanoseconds (value copies on write, value serving on read).
    /// The legacy counter machine moves zero value bytes, so it never pays
    /// this — which keeps pre-`ava-state` runs cost-identical.
    pub per_value_byte_ns: u64,
}

impl CostModel {
    /// Defaults calibrated to a small cloud VM: ~10 µs per message, 1 ns per byte,
    /// ~40 µs per signature verification, ~20 µs per signing, ~5 µs per executed
    /// transaction, ~100 µs per fsync barrier (NVMe-class flush with group
    /// commit — one barrier covers a whole round record) at 1 ns per persisted
    /// byte.
    pub fn cloud_vm() -> Self {
        CostModel {
            per_event: Duration::from_micros(10),
            per_byte_ns: 1,
            per_sig_verify: Duration::from_micros(40),
            per_sign: Duration::from_micros(20),
            per_tx_execute: Duration::from_micros(5),
            per_fsync: Duration::from_micros(100),
            persist_byte_ns: 1,
            per_batch_op_ns: 500,
            per_value_byte_ns: 1,
        }
    }

    /// A zero-cost model (pure message-passing semantics). Used by protocol unit
    /// tests where virtual CPU time is irrelevant.
    pub fn zero() -> Self {
        CostModel {
            per_event: Duration::ZERO,
            per_byte_ns: 0,
            per_sig_verify: Duration::ZERO,
            per_sign: Duration::ZERO,
            per_tx_execute: Duration::ZERO,
            per_fsync: Duration::ZERO,
            persist_byte_ns: 0,
            per_batch_op_ns: 0,
            per_value_byte_ns: 0,
        }
    }

    /// Service time of handling an event whose payload is `bytes` long, excluding
    /// explicitly consumed cost.
    pub fn event_cost(&self, bytes: usize) -> Duration {
        self.per_event + Duration::from_micros((bytes as u64 * self.per_byte_ns) / 1_000)
    }

    /// Service time of durably writing `bytes` to the store: one fsync barrier
    /// plus the per-byte persistence cost.
    pub fn persist_cost(&self, bytes: usize) -> Duration {
        self.per_fsync + Duration::from_micros((bytes as u64 * self.persist_byte_ns) / 1_000)
    }

    /// Service time of producing `signed` signatures and checking `checked`:
    /// the one price of a signature. The sans-I/O layers count the signatures
    /// they make and check, and their host charges the counts through this.
    pub fn sig_cost(&self, signed: u64, checked: u64) -> Duration {
        self.per_sign.saturating_mul(signed) + self.per_sig_verify.saturating_mul(checked)
    }

    /// Service time of admitting one broker batch of `ops` operations: one
    /// signature check over the batch digest, charged once per batch whatever
    /// its occupancy (the amortization the broker tier buys), plus the
    /// amortized per-operation unpacking cost.
    pub fn batch_cost(&self, ops: usize) -> Duration {
        self.sig_cost(0, 1) + Duration::from_micros((ops as u64 * self.per_batch_op_ns) / 1_000)
    }

    /// Service time of moving `bytes` committed value bytes through the state
    /// machine (zero for zero bytes — the counter machine never pays it).
    pub fn value_cost(&self, bytes: u64) -> Duration {
        Duration::from_micros((bytes * self.per_value_byte_ns) / 1_000)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::cloud_vm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cloud_vm_costs_are_nonzero() {
        let c = CostModel::cloud_vm();
        assert!(c.event_cost(1024) > Duration::ZERO);
        assert!(c.per_sig_verify > c.per_tx_execute);
    }

    #[test]
    fn zero_model_costs_nothing() {
        let c = CostModel::zero();
        assert_eq!(c.event_cost(4096), Duration::ZERO);
        assert_eq!(c.persist_cost(4096), Duration::ZERO);
    }

    #[test]
    fn persist_cost_charges_fsync_plus_bytes() {
        let c = CostModel::cloud_vm();
        assert_eq!(c.persist_cost(0), c.per_fsync);
        assert!(c.persist_cost(1_000_000) > c.persist_cost(100));
    }

    #[test]
    fn event_cost_scales_with_size() {
        let c = CostModel::cloud_vm();
        assert!(c.event_cost(100_000) > c.event_cost(100));
    }

    #[test]
    fn value_cost_is_zero_for_zero_bytes() {
        let c = CostModel::cloud_vm();
        assert_eq!(c.value_cost(0), Duration::ZERO);
        assert!(c.value_cost(1_000_000) > Duration::ZERO);
        assert_eq!(CostModel::zero().value_cost(1 << 20), Duration::ZERO);
    }

    #[test]
    fn batch_cost_amortizes_over_operations() {
        let c = CostModel::cloud_vm();
        assert_eq!(c.batch_cost(0), c.per_sig_verify);
        assert!(c.batch_cost(200) > c.batch_cost(1));
        // The whole point of the broker tier: admitting a 100-op batch is far
        // cheaper than dispatching 100 standalone client requests.
        assert!(c.batch_cost(100) < c.per_event.saturating_mul(100));
        assert_eq!(CostModel::zero().batch_cost(1_000), Duration::ZERO);
    }
}

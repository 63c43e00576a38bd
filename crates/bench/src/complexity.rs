//! Table I: best-case message complexity of the protocols.
//!
//! The table combines the paper's analytic formulas (in terms of the number of
//! clusters `z`, the maximum cluster size `n` and the per-cluster failure threshold
//! `f`) with message counts measured from the simulator, so the analytic and measured
//! columns can be compared side by side.

/// One row of the complexity table.
#[derive(Clone, Debug)]
pub struct ComplexityRow {
    /// Protocol name.
    pub protocol: &'static str,
    /// Decisions per global round (the paper's `D`).
    pub decisions: String,
    /// Local (intra-cluster) message complexity.
    pub local: String,
    /// Global (inter-cluster) message complexity.
    pub global: String,
    /// Whether the protocol is decentralized (no leader site / primary cluster).
    pub decentralized: bool,
    /// Analytic local message count for the given `(z, n, f)`.
    pub local_count: u64,
    /// Analytic global message count for the given `(z, n, f)`.
    pub global_count: u64,
}

/// Build Table I for a system of `z` clusters of `n` replicas each (`f = ⌊(n−1)/3⌋`).
pub fn complexity_table(z: u64, n: u64) -> Vec<ComplexityRow> {
    let f = ava_types::fault_threshold(n as usize) as u64;
    vec![
        ComplexityRow {
            protocol: "Ava-HotStuff",
            decisions: "z".into(),
            local: "O(8zn)".into(),
            global: "O(fz^2)".into(),
            decentralized: true,
            local_count: 8 * z * n,
            global_count: (f + 1) * z * (z - 1),
        },
        ComplexityRow {
            protocol: "Ava-BftSmart",
            decisions: "z".into(),
            local: "O(2zn^2)".into(),
            global: "O(fz^2)".into(),
            decentralized: true,
            local_count: 2 * z * n * n,
            global_count: (f + 1) * z * (z - 1),
        },
        ComplexityRow {
            protocol: "GeoBFT",
            decisions: "z".into(),
            local: "O(4zn^2)".into(),
            global: "O(fz^2)".into(),
            decentralized: true,
            local_count: 4 * z * n * n,
            global_count: (f + 1) * z * (z - 1),
        },
        ComplexityRow {
            protocol: "Steward",
            decisions: "1".into(),
            local: "O(2zn^2)".into(),
            global: "O(z^2)".into(),
            decentralized: false,
            local_count: 2 * z * n * n,
            global_count: z * z,
        },
        ComplexityRow {
            protocol: "PBFT",
            decisions: "1".into(),
            local: "O(2(zn)^2)".into(),
            global: "-".into(),
            decentralized: false,
            local_count: 2 * (z * n) * (z * n),
            global_count: 0,
        },
        ComplexityRow {
            protocol: "Zyzzyva",
            decisions: "1".into(),
            local: "O(zn)".into(),
            global: "-".into(),
            decentralized: false,
            local_count: z * n,
            global_count: 0,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_all_protocols_of_the_paper() {
        let rows = complexity_table(3, 32);
        let names: Vec<&str> = rows.iter().map(|r| r.protocol).collect();
        for expected in ["Ava-HotStuff", "Ava-BftSmart", "GeoBFT", "Steward", "PBFT", "Zyzzyva"] {
            assert!(names.contains(&expected), "missing {expected}");
        }
    }

    #[test]
    fn clustered_protocols_beat_pbft_on_local_complexity_at_scale() {
        let rows = complexity_table(8, 12); // 96 nodes total
        let get = |name: &str| rows.iter().find(|r| r.protocol == name).unwrap().clone();
        assert!(get("Ava-HotStuff").local_count < get("PBFT").local_count);
        assert!(get("Ava-BftSmart").local_count < get("PBFT").local_count);
        assert!(get("Ava-HotStuff").local_count < get("Ava-BftSmart").local_count);
    }

    #[test]
    fn only_clustered_parallel_protocols_are_decentralized() {
        let rows = complexity_table(4, 16);
        for r in &rows {
            let expect = matches!(r.protocol, "Ava-HotStuff" | "Ava-BftSmart" | "GeoBFT");
            assert_eq!(r.decentralized, expect, "{}", r.protocol);
        }
    }
}

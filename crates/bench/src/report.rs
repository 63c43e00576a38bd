//! Turning the simulator's measurement events into the numbers the paper reports:
//! throughput and latency (average and percentiles, split by read/write) over a
//! measurement window. Per-stage breakdowns and throughput time series are
//! collected mid-run by `ava_scenario`'s observers.

use ava_types::{Output, Time};

/// Summary statistics of one run over a measurement window.
#[derive(Clone, Debug, Default)]
pub struct RunMetrics {
    /// Completed transactions per second of virtual time.
    pub throughput_tps: f64,
    /// Mean end-to-end latency over all transactions, in milliseconds.
    pub avg_latency_ms: f64,
    /// Median latency in milliseconds.
    pub p50_latency_ms: f64,
    /// 99th percentile latency in milliseconds.
    pub p99_latency_ms: f64,
    /// Mean latency of read transactions, in milliseconds.
    pub read_latency_ms: f64,
    /// Mean latency of write transactions, in milliseconds.
    pub write_latency_ms: f64,
    /// Number of completed transactions in the window.
    pub completed: usize,
    /// Number of completed writes in the window.
    pub writes: usize,
}

/// Summarize completed transactions within `[window_start, window_end)`.
///
/// The paper measures "the last minute" of each three-minute run; callers pass the
/// corresponding window.
pub fn summarize(outputs: &[Output], window_start: Time, window_end: Time) -> RunMetrics {
    let mut latencies_ms: Vec<f64> = Vec::new();
    let mut read_lat = Vec::new();
    let mut write_lat = Vec::new();
    for o in outputs {
        if let Output::TxCompleted { issued_at, completed_at, is_write, .. } = o {
            if *completed_at < window_start || *completed_at >= window_end {
                continue;
            }
            let lat = completed_at.since(*issued_at).as_millis_f64();
            latencies_ms.push(lat);
            if *is_write {
                write_lat.push(lat);
            } else {
                read_lat.push(lat);
            }
        }
    }
    let window_secs = window_end.since(window_start).as_secs_f64().max(1e-9);
    let mean = |v: &[f64]| if v.is_empty() { 0.0 } else { v.iter().sum::<f64>() / v.len() as f64 };
    let mut sorted = latencies_ms.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let pct = |p: f64| -> f64 {
        if sorted.is_empty() {
            0.0
        } else {
            sorted[((sorted.len() as f64 - 1.0) * p).round() as usize]
        }
    };
    RunMetrics {
        throughput_tps: latencies_ms.len() as f64 / window_secs,
        avg_latency_ms: mean(&latencies_ms),
        p50_latency_ms: pct(0.5),
        p99_latency_ms: pct(0.99),
        read_latency_ms: mean(&read_lat),
        write_latency_ms: mean(&write_lat),
        completed: latencies_ms.len(),
        writes: write_lat.len(),
    }
}

/// Print a fixed-width table (markdown-ish) to stdout.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    println!("| {} |", headers.join(" | "));
    println!("|{}|", headers.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
}

/// Format a float with a fixed number of decimals (helper for report rows).
pub fn fmt(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ava_types::{ClientId, ClusterId, TxId};

    fn tx_output(seq: u64, issued_ms: u64, completed_ms: u64, is_write: bool) -> Output {
        Output::TxCompleted {
            tx: TxId { client: ClientId(0), seq },
            client: ClientId(0),
            cluster: ClusterId(0),
            issued_at: Time::from_millis(issued_ms),
            completed_at: Time::from_millis(completed_ms),
            is_write,
        }
    }

    #[test]
    fn summarize_computes_throughput_and_latency() {
        let outputs = vec![
            tx_output(0, 0, 100, true),
            tx_output(1, 0, 200, false),
            tx_output(2, 100, 400, true),
            // outside the window
            tx_output(3, 0, 5_000, true),
        ];
        let m = summarize(&outputs, Time::ZERO, Time::from_secs(1));
        assert_eq!(m.completed, 3);
        assert_eq!(m.writes, 2);
        assert!((m.throughput_tps - 3.0).abs() < 1e-9);
        assert!((m.avg_latency_ms - 200.0).abs() < 1e-9);
        assert!((m.read_latency_ms - 200.0).abs() < 1e-9);
        assert!((m.write_latency_ms - 200.0).abs() < 1e-9);
        assert!(m.p99_latency_ms >= m.p50_latency_ms);
    }

    #[test]
    fn empty_window_yields_zeroes() {
        let m = summarize(&[], Time::ZERO, Time::from_secs(1));
        assert_eq!(m.completed, 0);
        assert_eq!(m.throughput_tps, 0.0);
    }
}

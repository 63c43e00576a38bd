//! Region-to-region latency model.
//!
//! The defaults reproduce the paper's Table II (round-trip times between
//! `us-west1-b`, `europe-west3-c` and `asia-south1-c`) and the additional zones used
//! in experiment E8 (`us-east5-c`, `asia-northeast1-b`).

use ava_types::{Duration, Region};
use rand::Rng;

/// Latency model: symmetric region-to-region round-trip times plus intra-region and
/// loopback latencies, with optional multiplicative jitter.
#[derive(Clone, Debug)]
pub struct LatencyModel {
    /// Symmetric RTT matrix in milliseconds, indexed by [`Region::index`].
    rtt_ms: [[f64; 5]; 5],
    /// RTT between two distinct nodes in the same region, in milliseconds.
    intra_region_rtt_ms: f64,
    /// Latency of a message a node sends to itself, in microseconds.
    loopback_us: u64,
    /// Multiplicative jitter amplitude (0.05 = ±5%).
    jitter: f64,
}

impl LatencyModel {
    /// The paper's Table II RTTs plus the E8 zones.
    ///
    /// | ms | US-West | EU | Asia-South | US-East | Asia-NE |
    /// |---|---|---|---|---|---|
    /// | US-West | 0 | 148 | 214 | 52 | 91 |
    /// | EU | 148 | 0 | 134 | 95 | 230 |
    /// | Asia-South | 214 | 134 | 0 | 230 | 120 |
    /// | US-East | 52 | 95 | 230 | 0 | 150 |
    /// | Asia-NE | 91 | 230 | 120 | 150 | 0 |
    pub fn paper_table2() -> Self {
        let mut m = LatencyModel {
            rtt_ms: [[0.0; 5]; 5],
            intra_region_rtt_ms: 1.0,
            loopback_us: 20,
            jitter: 0.05,
        };
        let pairs = [
            (Region::UsWest, Region::Europe, 148.0),
            (Region::UsWest, Region::AsiaSouth, 214.0),
            (Region::Europe, Region::AsiaSouth, 134.0),
            (Region::UsWest, Region::UsEast, 52.0),
            (Region::UsWest, Region::AsiaNortheast, 91.0),
            (Region::Europe, Region::UsEast, 95.0),
            (Region::Europe, Region::AsiaNortheast, 230.0),
            (Region::AsiaSouth, Region::UsEast, 230.0),
            (Region::AsiaSouth, Region::AsiaNortheast, 120.0),
            (Region::UsEast, Region::AsiaNortheast, 150.0),
        ];
        for (a, b, rtt) in pairs {
            m.set_rtt(a, b, rtt);
        }
        m
    }

    /// A model in which every pair of regions has the same round-trip time. Useful
    /// for single-region experiments and for E8-style sweeps.
    pub fn uniform(rtt_ms: f64) -> Self {
        let mut m = Self::paper_table2();
        for a in Region::ALL {
            for b in Region::ALL {
                if a != b {
                    m.rtt_ms[a.index()][b.index()] = rtt_ms;
                }
            }
        }
        m
    }

    /// Override the RTT between two regions (both directions).
    pub fn set_rtt(&mut self, a: Region, b: Region, rtt_ms: f64) {
        self.rtt_ms[a.index()][b.index()] = rtt_ms;
        self.rtt_ms[b.index()][a.index()] = rtt_ms;
    }

    /// Set the jitter amplitude (0 disables jitter; runs stay deterministic either
    /// way because jitter is drawn from the simulation RNG).
    pub fn with_jitter(mut self, jitter: f64) -> Self {
        self.jitter = jitter;
        self
    }

    /// Round-trip time between two regions in milliseconds.
    pub fn rtt_ms(&self, a: Region, b: Region) -> f64 {
        if a == b {
            self.intra_region_rtt_ms
        } else {
            self.rtt_ms[a.index()][b.index()]
        }
    }

    /// Sample the one-way latency of a message from `from` to `to`.
    pub fn one_way<R: Rng + ?Sized>(
        &self,
        from: Region,
        to: Region,
        same_node: bool,
        rng: &mut R,
    ) -> Duration {
        if same_node {
            return Duration::from_micros(self.loopback_us);
        }
        let base_ms = self.rtt_ms(from, to) / 2.0;
        let factor =
            if self.jitter > 0.0 { 1.0 + rng.gen_range(-self.jitter..self.jitter) } else { 1.0 };
        Duration::from_millis_f64(base_ms * factor)
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self::paper_table2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::mock::StepRng;

    #[test]
    fn table2_values_match_paper() {
        let m = LatencyModel::paper_table2();
        assert_eq!(m.rtt_ms(Region::UsWest, Region::Europe), 148.0);
        assert_eq!(m.rtt_ms(Region::UsWest, Region::AsiaSouth), 214.0);
        assert_eq!(m.rtt_ms(Region::Europe, Region::AsiaSouth), 134.0);
        // Symmetry.
        assert_eq!(m.rtt_ms(Region::Europe, Region::UsWest), 148.0);
    }

    #[test]
    fn one_way_is_half_rtt_without_jitter() {
        let m = LatencyModel::paper_table2().with_jitter(0.0);
        let mut rng = StepRng::new(0, 1);
        let d = m.one_way(Region::UsWest, Region::Europe, false, &mut rng);
        assert_eq!(d, Duration::from_millis(74));
    }

    #[test]
    fn intra_region_and_loopback_are_fast() {
        let m = LatencyModel::paper_table2().with_jitter(0.0);
        let mut rng = StepRng::new(0, 1);
        let intra = m.one_way(Region::UsWest, Region::UsWest, false, &mut rng);
        let lo = m.one_way(Region::UsWest, Region::UsWest, true, &mut rng);
        assert!(lo < intra);
        assert!(intra < Duration::from_millis(2));
    }

    #[test]
    fn uniform_model_sets_all_pairs() {
        let m = LatencyModel::uniform(52.0);
        for a in Region::ALL {
            for b in Region::ALL {
                if a != b {
                    assert_eq!(m.rtt_ms(a, b), 52.0);
                }
            }
        }
    }

    #[test]
    fn jitter_stays_within_bounds() {
        let m = LatencyModel::paper_table2().with_jitter(0.1);
        let mut rng = rand::thread_rng();
        for _ in 0..100 {
            let d = m.one_way(Region::UsWest, Region::Europe, false, &mut rng);
            let ms = d.as_millis_f64();
            assert!(ms >= 74.0 * 0.9 - 0.01 && ms <= 74.0 * 1.1 + 0.01, "{ms}");
        }
    }
}

//! Zipfian key sampler (the distribution YCSB uses for skewed access patterns).
//!
//! Implements the standard rejection-free inverse-CDF approximation from Gray et al.
//! ("Quickly generating billion-record synthetic databases"), the same construction
//! YCSB's `ZipfianGenerator` uses.

use rand::Rng;

/// A Zipfian distribution over `0..n` with skew parameter `theta`.
#[derive(Clone, Debug)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    zeta2: f64,
    /// `0.5^theta`: the width of key 1's slice of the CDF, past key 0's.
    half_pow_theta: f64,
}

impl Zipfian {
    /// Create a sampler over `0..n` with skew `theta` (YCSB default 0.99; the paper's
    /// runs use the YCSB Zipfian default).
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "key space must be non-empty");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0, 1)");
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipfian { n, theta, alpha, zetan, eta, zeta2, half_pow_theta: 0.5f64.powf(theta) }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Direct summation; key spaces in the experiments are at most ~1e6.
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// Number of keys.
    pub fn key_space(&self) -> u64 {
        self.n
    }

    /// The skew parameter.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Sample a key in `0..n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + self.half_pow_theta {
            return 1;
        }
        let spread = (self.eta * u - self.eta + 1.0).powf(self.alpha);
        let key = (self.n as f64 * spread) as u64;
        key.min(self.n - 1)
    }

    /// The zeta constant for 2 items (exposed for tests).
    pub fn zeta2(&self) -> f64 {
        self.zeta2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn samples_stay_in_range() {
        let z = Zipfian::new(1000, 0.9);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 1000);
        }
    }

    #[test]
    fn distribution_is_skewed_toward_small_keys() {
        let z = Zipfian::new(10_000, 0.99);
        let mut rng = StdRng::seed_from_u64(7);
        let mut hot = 0usize;
        let samples = 50_000;
        for _ in 0..samples {
            if z.sample(&mut rng) < 100 {
                hot += 1;
            }
        }
        // With theta=0.99, far more than 1% of accesses hit the hottest 1% of keys.
        assert!(hot as f64 / samples as f64 > 0.2, "hot fraction {}", hot as f64 / samples as f64);
    }

    #[test]
    fn low_theta_is_close_to_uniform() {
        let z = Zipfian::new(1000, 0.01);
        let mut rng = StdRng::seed_from_u64(3);
        let mut hot = 0usize;
        let samples = 50_000;
        for _ in 0..samples {
            if z.sample(&mut rng) < 10 {
                hot += 1;
            }
        }
        let frac = hot as f64 / samples as f64;
        assert!(frac < 0.1, "near-uniform sampler put {frac} of mass on 1% of keys");
    }

    #[test]
    fn deterministic_given_seed() {
        let z = Zipfian::new(500, 0.9);
        let sample = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..100).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(sample(42), sample(42));
        assert_ne!(sample(42), sample(43));
    }

    #[test]
    #[should_panic(expected = "key space")]
    fn rejects_empty_key_space() {
        let _ = Zipfian::new(0, 0.9);
    }
}

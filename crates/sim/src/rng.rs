//! Seeded randomness and the distribution samplers the workload models use.
//!
//! Everything random in the simulator flows through [`SimRng`], a seeded
//! xoshiro256++ generator implemented here, so a seed fixes every stream
//! bit for bit. The heavy-tailed samplers (log-normal, bounded Pareto)
//! are implemented from first principles too; they are exactly what the
//! tenant-population model needs to reproduce the paper's extreme skew
//! (Fig. 4 / Table 1: P9999 utilization ~20–64× the average).

use crate::time::SimDuration;
use std::fmt;

/// Derives a named RNG stream from a base seed.
///
/// Every `SimRng` outside this module should be seeded through here (or
/// [`derive_seed_indexed`]) with a unique, human-readable stream name:
/// `SimRng::new(derive_seed(cfg.seed, "cluster.faults"))`. Named streams
/// make each component's randomness independent of every other's — and
/// they are the static precondition for sharded region execution, where
/// each shard must be able to re-derive exactly its own streams.
/// `nezha-lint` rule D9 enforces the discipline.
///
/// The mix is an FNV-1a fold of the stream name into the base seed,
/// finished with splitmix64 — deterministic, allocation-free, and stable
/// across platforms.
pub fn derive_seed(base: u64, stream: &str) -> u64 {
    let mut h = base ^ 0xcbf2_9ce4_8422_2325;
    for b in stream.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    splitmix64(h)
}

/// [`derive_seed`] for per-instance streams: one stream name, many
/// indexed members (per shard, per server, per tenant).
pub fn derive_seed_indexed(base: u64, stream: &str, index: u64) -> u64 {
    splitmix64(derive_seed(base, stream) ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// One round of splitmix64 finalisation.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic random source: xoshiro256++ with its state expanded
/// from the 64-bit seed by splitmix64.
pub struct SimRng {
    s: [u64; 4],
}

impl fmt::Debug for SimRng {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimRng").finish_non_exhaustive()
    }
}

impl SimRng {
    /// Creates an RNG from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let step = |i: u64| splitmix64(seed.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
        SimRng {
            s: [step(0), step(1), step(2), step(3)],
        }
    }

    /// The next 64 uniform bits (one xoshiro256++ step).
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, span)` by modulo. Panics if `span == 0`.
    fn below(&mut self, span: u64) -> u64 {
        assert!(span > 0, "SimRng: empty range");
        self.next_u64() % span
    }

    /// Derives an independent child RNG; used to give each component its
    /// own stream so adding randomness in one place never perturbs another.
    pub fn fork(&mut self, label: u64) -> SimRng {
        let s = self.next_u64() ^ label.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        SimRng::new(s)
    }

    /// Uniform in `[0, 1)`: the top 53 bits as the mantissa.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[lo, hi)`. Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "SimRng: empty range");
        lo + self.below(hi - lo)
    }

    /// Uniform choice of an index in `[0, n)`. Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// Bernoulli trial with probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p.clamp(0.0, 1.0)
    }

    /// Exponentially distributed value with the given mean.
    ///
    /// Inter-arrival times of a Poisson process — the natural model for
    /// new-connection arrivals in the CPS workloads.
    pub fn exp(&mut self, mean: f64) -> f64 {
        // Inverse CDF; guard the log away from 0.
        let u = self.f64().max(1e-300);
        -mean * u.ln()
    }

    /// Standard normal via Box–Muller.
    pub fn normal(&mut self) -> f64 {
        let u1 = self.f64().max(1e-300);
        let u2 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Log-normal with the given parameters of the underlying normal.
    ///
    /// `mu`/`sigma` are the mean and stddev of `ln X`. Log-normals are the
    /// workhorse for resource-demand skew and config-push latencies.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.normal()).exp()
    }

    /// Bounded Pareto on `[lo, hi]` with tail index `alpha`.
    ///
    /// Heavy-tailed demand with a hard cap: most samples near `lo`, rare
    /// samples orders of magnitude larger — the Fig. 4 shape.
    pub fn bounded_pareto(&mut self, alpha: f64, lo: f64, hi: f64) -> f64 {
        assert!(alpha > 0.0 && lo > 0.0 && hi > lo);
        let u = self.f64();
        let la = lo.powf(alpha);
        let ha = hi.powf(alpha);
        // Inverse CDF of the bounded Pareto.
        (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / alpha)
    }

    /// An exponentially distributed duration with the given mean.
    pub fn exp_duration(&mut self, mean: SimDuration) -> SimDuration {
        SimDuration::from_secs_f64(self.exp(mean.as_secs_f64()))
    }

    /// A log-normal duration specified by its *median* and the sigma of the
    /// underlying normal (median · e^{σZ}); convenient for modelling config
    /// push latencies where the paper reports medians and tail percentiles.
    pub fn lognormal_duration(&mut self, median: SimDuration, sigma: f64) -> SimDuration {
        SimDuration::from_secs_f64(median.as_secs_f64() * (sigma * self.normal()).exp())
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_seed_is_deterministic_and_stream_sensitive() {
        assert_eq!(derive_seed(7, "cluster.rng"), derive_seed(7, "cluster.rng"));
        assert_ne!(
            derive_seed(7, "cluster.rng"),
            derive_seed(7, "cluster.faults")
        );
        assert_ne!(derive_seed(7, "cluster.rng"), derive_seed(8, "cluster.rng"));
        // Streams must differ from the raw base seed too.
        assert_ne!(derive_seed(7, "cluster.rng"), 7);
    }

    #[test]
    fn derive_seed_indexed_separates_members() {
        let a = derive_seed_indexed(7, "shard.rng", 0);
        let b = derive_seed_indexed(7, "shard.rng", 1);
        assert_ne!(a, b);
        assert_eq!(a, derive_seed_indexed(7, "shard.rng", 0));
        assert_ne!(a, derive_seed(7, "shard.rng"));
    }

    #[test]
    fn stream_is_pinned_bit_for_bit() {
        // xoshiro256++ seeded through splitmix64: every golden fixture
        // and benchmark pin depends on exactly this stream.
        let mut rng = SimRng::new(42);
        let first: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            first,
            [
                0xd076_4d4f_4476_689f,
                0x519e_4174_576f_3791,
                0xfbe0_7cfb_0c24_ed8c,
                0xb37d_9f60_0cd8_35b8
            ]
        );
        let mut rng = SimRng::new(42);
        assert_eq!(
            rng.f64().to_bits(),
            ((first[0] >> 11) as f64 / (1u64 << 53) as f64).to_bits()
        );
        assert_eq!(rng.range(10, 17), 10 + first[1] % 7);
        assert_eq!(rng.index(5), (first[2] % 5) as usize);
    }

    #[test]
    fn determinism_same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.f64().to_bits(), b.f64().to_bits());
        }
    }

    #[test]
    fn forked_streams_are_independent_but_deterministic() {
        let mut root1 = SimRng::new(7);
        let mut root2 = SimRng::new(7);
        let mut c1 = root1.fork(1);
        let mut c2 = root2.fork(1);
        assert_eq!(c1.range(0, 1000), c2.range(0, 1000));
        let mut d = root1.fork(2);
        // Different labels after identical fork histories diverge (with
        // overwhelming probability for any reasonable sample count).
        let same = (0..32).all(|_| c1.f64().to_bits() == d.f64().to_bits());
        assert!(!same);
    }

    #[test]
    fn exp_mean_is_right() {
        let mut rng = SimRng::new(1);
        let n = 40_000;
        let mean: f64 = (0..n).map(|_| rng.exp(5.0)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.15, "mean={mean}");
    }

    #[test]
    fn normal_moments() {
        let mut rng = SimRng::new(2);
        let n = 40_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean={mean}");
        assert!((var - 1.0).abs() < 0.1, "var={var}");
    }

    #[test]
    fn lognormal_median() {
        let mut rng = SimRng::new(3);
        let n = 20_001;
        let mut samples: Vec<f64> = (0..n).map(|_| rng.lognormal(2.0, 1.0)).collect();
        samples.sort_by(f64::total_cmp);
        let median = samples[n / 2];
        // Median of lognormal is e^mu.
        assert!(
            (median - 2.0f64.exp()).abs() / 2.0f64.exp() < 0.1,
            "median={median}"
        );
    }

    #[test]
    fn bounded_pareto_respects_bounds_and_skew() {
        let mut rng = SimRng::new(4);
        let (lo, hi) = (1.0, 1000.0);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.bounded_pareto(1.2, lo, hi)).collect();
        assert!(samples.iter().all(|&x| (lo..=hi).contains(&x)));
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        let p50 = sorted[n / 2];
        let p9999 = sorted[n - 2];
        // Extreme skew: top sample far above the median.
        assert!(p9999 / p50 > 50.0, "p50={p50} p9999={p9999}");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(5);
        assert!((0..100).all(|_| rng.chance(1.1)));
        assert!((0..100).all(|_| !rng.chance(-0.5)));
    }

    #[test]
    fn durations_are_nonnegative_and_scaled() {
        let mut rng = SimRng::new(6);
        let mean = SimDuration::from_millis(100);
        let n = 20_000;
        let total: f64 = (0..n).map(|_| rng.exp_duration(mean).as_secs_f64()).sum();
        assert!((total / n as f64 - 0.1).abs() < 0.005);
        let med = SimDuration::from_millis(200);
        let d = rng.lognormal_duration(med, 0.3);
        assert!(d.nanos() > 0);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SimRng::new(9);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "astronomically unlikely");
    }
}

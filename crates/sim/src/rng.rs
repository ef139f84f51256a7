//! Deterministic, splittable random number generation.
//!
//! Every stochastic decision in the simulator (peer selection, link loss,
//! jitter) draws from a [`SimRng`], a PCG-XSH-RR 64/32 generator seeded
//! from a single master seed. Substreams created with [`SimRng::fork`] are
//! statistically independent, so adding a new consumer of randomness does
//! not perturb existing ones — a property the experiment harness relies on
//! when comparing protocol variants under identical network conditions.

/// SplitMix64 step; used for seeding and stream derivation.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic PCG-XSH-RR 64/32 random number generator.
///
/// Not cryptographically secure; chosen for speed, tiny state, and
/// excellent statistical quality for simulation workloads.
#[derive(Clone, Debug)]
pub struct SimRng {
    state: u64,
    inc: u64,
}

const PCG_MULT: u64 = 6_364_136_223_846_793_005;

impl SimRng {
    /// Create a generator from a master seed.
    pub fn new(seed: u64) -> SimRng {
        let mut sm = seed;
        let state = splitmix64(&mut sm);
        let inc = splitmix64(&mut sm) | 1; // stream selector must be odd
        let mut rng = SimRng { state: 0, inc };
        rng.state = state.wrapping_add(inc);
        rng.next_u32();
        rng
    }

    /// Derive an independent substream identified by `stream`.
    ///
    /// Forking with the same `stream` twice yields identical generators;
    /// different streams are statistically independent.
    pub fn fork(&self, stream: u64) -> SimRng {
        let mut sm =
            self.state ^ self.inc.rotate_left(17) ^ stream.wrapping_mul(0xA24B_AED4_963E_E407);
        let seed = splitmix64(&mut sm) ^ splitmix64(&mut sm).rotate_left(31);
        SimRng::new(seed)
    }

    /// Next 32 random bits.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        (u64::from(self.next_u32()) << 32) | u64::from(self.next_u32())
    }

    /// Uniform integer in `[0, bound)` using Lemire's rejection method
    /// (unbiased). `bound` must be nonzero.
    pub fn gen_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_below(0)");
        // Widening-multiply rejection sampling.
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `usize` in `[0, bound)`.
    #[inline]
    pub fn gen_index(&mut self, bound: usize) -> usize {
        self.gen_below(bound as u64) as usize
    }

    /// Uniform integer in `[lo, hi)`.
    #[inline]
    pub fn gen_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.gen_below(hi - lo)
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0,1]`).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.gen_f64() < p
        }
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.gen_index(i + 1);
            items.swap(i, j);
        }
    }

    /// Sample `k` distinct elements from `pool` uniformly without
    /// replacement (partial Fisher–Yates). If `k >= pool.len()` the whole
    /// pool is returned in random order.
    pub fn sample<T: Copy>(&mut self, pool: &[T], k: usize) -> Vec<T> {
        let mut scratch: Vec<T> = pool.to_vec();
        let k = k.min(scratch.len());
        for i in 0..k {
            let j = i + self.gen_index(scratch.len() - i);
            scratch.swap(i, j);
        }
        scratch.truncate(k);
        scratch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_is_reproducible_and_independent() {
        let root = SimRng::new(7);
        let mut f1 = root.fork(1);
        let mut f1b = root.fork(1);
        let mut f2 = root.fork(2);
        for _ in 0..100 {
            assert_eq!(f1.next_u64(), f1b.next_u64());
        }
        let mut f1 = root.fork(1);
        let collisions = (0..64).filter(|_| f1.next_u64() == f2.next_u64()).count();
        assert_eq!(collisions, 0);
    }

    #[test]
    fn gen_below_respects_bound_and_covers() {
        let mut rng = SimRng::new(3);
        let mut seen = [false; 7];
        for _ in 0..10_000 {
            let v = rng.gen_below(7) as usize;
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut rng = SimRng::new(9);
        for _ in 0..10_000 {
            let x = rng.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn bernoulli_rate_close_to_p() {
        let mut rng = SimRng::new(11);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.3)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.3).abs() < 0.01, "rate={rate}");
    }

    #[test]
    fn bernoulli_extremes() {
        let mut rng = SimRng::new(1);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
        assert!(!rng.gen_bool(-0.5));
        assert!(rng.gen_bool(1.5));
    }

    #[test]
    fn sample_without_replacement_is_distinct() {
        let pool: Vec<u32> = (0..50).collect();
        let mut rng = SimRng::new(5);
        for k in [0, 1, 10, 50, 80] {
            let s = rng.sample(&pool, k);
            assert_eq!(s.len(), k.min(50));
            let mut sorted = s.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), s.len(), "duplicates in sample");
        }
    }

    #[test]
    fn sample_is_uniformish() {
        // Each of 10 elements should appear in a 3-sample about 30% of runs.
        let pool: Vec<u32> = (0..10).collect();
        let mut rng = SimRng::new(6);
        let mut counts = [0u32; 10];
        let trials = 20_000;
        for _ in 0..trials {
            for v in rng.sample(&pool, 3) {
                counts[v as usize] += 1;
            }
        }
        for &c in &counts {
            let freq = c as f64 / trials as f64;
            assert!((freq - 0.3).abs() < 0.02, "freq={freq}");
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SimRng::new(8);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut s = v.clone();
        s.sort_unstable();
        assert_eq!(s, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn gen_range_bounds() {
        let mut rng = SimRng::new(12);
        for _ in 0..1000 {
            let v = rng.gen_range(10, 20);
            assert!((10..20).contains(&v));
        }
    }
}

//! Deterministic pseudo-random number generators.
//!
//! Everything in this workspace that needs randomness — graph generators,
//! feature noise, neighbour sampling — takes one of these generators
//! explicitly. There is no global RNG and no entropy source: the same seed
//! always yields the same graph, the same training run, and the same sampled
//! neighbourhood. The consistency experiments (paper Fig. 7) vary *only* the
//! sampling seed between runs, so seed plumbing has to be airtight.
//!
//! `SplitMix64` is used to expand a single `u64` seed into independent
//! streams; `Xoshiro256**` is the workhorse generator (fast, 256-bit state,
//! good statistical quality for simulation purposes).

/// SplitMix64: a tiny, well-mixed generator used primarily to seed
/// [`Xoshiro256`] streams from a single user-provided seed.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed.
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

/// Xoshiro256** — the default deterministic generator for the workspace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Seed via SplitMix64 expansion, per the xoshiro authors' guidance.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        // All-zero state is invalid; SplitMix64 cannot produce four zero
        // outputs in a row, but guard anyway for safety with adversarial seeds.
        let s = if s == [0, 0, 0, 0] { [1, 2, 3, 4] } else { s };
        Xoshiro256 { s }
    }

    /// Derive an independent child stream. Used to hand each simulated
    /// worker / each training epoch its own generator without correlation.
    pub fn fork(&mut self, tag: u64) -> Xoshiro256 {
        let mixed = self.next_u64() ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Xoshiro256::seed_from_u64(mixed)
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
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
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[0, 1)`.
    #[inline]
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Uniform integer in `[0, bound)` using Lemire's multiply-shift method
    /// (unbiased; the rejection loop triggers with negligible probability).
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let low = m as u64;
            if low >= bound || low >= low.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform integer in `[lo, hi)`.
    #[inline]
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.below(hi - lo)
    }

    /// Uniform `usize` index into a slice of length `len`.
    #[inline]
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }

    /// Standard-normal sample via Box–Muller (one value per call; the twin is
    /// discarded to keep the generator state trajectory simple to reason
    /// about in tests).
    pub fn gaussian(&mut self) -> f64 {
        // Avoid ln(0).
        let u1 = loop {
            let u = self.next_f64();
            if u > 1e-300 {
                break u;
            }
        };
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Gaussian with the given mean and standard deviation, as `f32`.
    pub fn gaussian_f32(&mut self, mean: f32, std: f32) -> f32 {
        mean + std * self.gaussian() as f32
    }

    /// Bernoulli trial with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below((i + 1) as u64) as usize;
            slice.swap(i, j);
        }
    }

    /// Sample `k` distinct indices from `[0, n)` (reservoir when `k < n`,
    /// identity permutation prefix otherwise). Output order is unspecified
    /// but deterministic.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        if k >= n {
            return (0..n).collect();
        }
        // Reservoir sampling keeps memory at O(k) even for huge `n`.
        let mut reservoir: Vec<usize> = (0..k).collect();
        for i in k..n {
            let j = self.below((i + 1) as u64) as usize;
            if j < k {
                reservoir[j] = i;
            }
        }
        reservoir
    }

    /// Zipf-like sample in `[0, n)`: probability of rank `r` proportional to
    /// `(r+1)^(-alpha)`. Continuous inverse-CDF approximation of bounded
    /// Zipf, which is the standard tool for generating skewed degree
    /// sequences; exact discrete normalisation is irrelevant for that use.
    pub fn zipf(&mut self, n: u64, alpha: f64) -> u64 {
        debug_assert!(n > 0);
        if alpha <= 0.0 || n == 1 {
            return self.below(n);
        }
        let u = self.next_f64().max(1e-12);
        let x = if (alpha - 1.0).abs() < 1e-9 {
            // F(x) = ln(x)/ln(n)  =>  x = n^u
            (n as f64).powf(u)
        } else {
            // F(x) = (x^{1-a} - 1)/(n^{1-a} - 1)  =>
            // x = (1 + u (n^{1-a} - 1))^{1/(1-a)}; valid for a<1 and a>1.
            let one_minus = 1.0 - alpha;
            (1.0 + u * ((n as f64).powf(one_minus) - 1.0)).powf(1.0 / one_minus)
        };
        ((x as u64).max(1) - 1).min(n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Xoshiro256::seed_from_u64(42);
        let mut b = Xoshiro256::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Xoshiro256::seed_from_u64(1);
        let mut b = Xoshiro256::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forked_streams_are_independent_and_deterministic() {
        let mut root1 = Xoshiro256::seed_from_u64(7);
        let mut root2 = Xoshiro256::seed_from_u64(7);
        let mut c1 = root1.fork(11);
        let mut c2 = root2.fork(11);
        for _ in 0..100 {
            assert_eq!(c1.next_u64(), c2.next_u64());
        }
        let mut other = root1.fork(12);
        assert_ne!(other.next_u64(), c2.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Xoshiro256::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_in_range_and_roughly_uniform() {
        let mut r = Xoshiro256::seed_from_u64(9);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[r.below(10) as usize] += 1;
        }
        for &c in &counts {
            // each bucket expects 10_000; allow generous 10% tolerance
            assert!((9_000..=11_000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn gaussian_moments() {
        let mut r = Xoshiro256::seed_from_u64(5);
        let n = 200_000;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for _ in 0..n {
            let x = r.gaussian();
            sum += x;
            sumsq += x * x;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Xoshiro256::seed_from_u64(100);
        let mut v: Vec<u32> = (0..1000).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..1000).collect::<Vec<_>>());
        // And it actually moved things.
        assert_ne!(v, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct_and_bounded() {
        let mut r = Xoshiro256::seed_from_u64(8);
        let s = r.sample_indices(1000, 50);
        assert_eq!(s.len(), 50);
        let mut dedup = s.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 50);
        assert!(s.iter().all(|&i| i < 1000));
        // k >= n degenerates to all indices
        assert_eq!(r.sample_indices(5, 10), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn zipf_is_skewed_toward_low_ranks() {
        let mut r = Xoshiro256::seed_from_u64(77);
        let n = 100_000;
        let mut low = 0usize;
        for _ in 0..n {
            if r.zipf(10_000, 1.2) < 100 {
                low += 1;
            }
        }
        // With alpha=1.2, the first 1% of ranks should absorb far more than
        // 1% of the mass.
        assert!(low as f64 / n as f64 > 0.2, "low-rank mass {low}");
    }

    #[test]
    fn zipf_zero_alpha_is_uniformish() {
        let mut r = Xoshiro256::seed_from_u64(78);
        let mut low = 0usize;
        for _ in 0..100_000 {
            if r.zipf(10_000, 0.0) < 100 {
                low += 1;
            }
        }
        let frac = low as f64 / 100_000.0;
        assert!((0.005..0.02).contains(&frac), "frac {frac}");
    }
}

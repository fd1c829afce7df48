//! Workload randomness: the TPC-C uniform helpers and NURand skew
//! function, plus the splitmix64 stream behind every seeded harness.

use rand::rngs::StdRng;
use rand::RngExt;

/// splitmix64: the one seeded stream of the chaos harness, the threaded
/// driver and the overload bench. It yields the same sequence on every
/// platform, so a seed names one run.
#[derive(Clone, Debug)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// The next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// True with probability `ppm` parts per million.
    pub fn chance_ppm(&mut self, ppm: u32) -> bool {
        self.next_u64() % 1_000_000 < u64::from(ppm)
    }

    /// Zipf(s=1) sample over `0..n`: rank `i` drawn with probability
    /// ∝ 1/(i+1). Fixed-point cumulative walk — deterministic, no
    /// floats, meant for small `n` (constraint-pair counts).
    pub fn zipf(&mut self, n: u64) -> u64 {
        let n = n.max(1);
        let total: u64 = (1..=n).map(|i| 1_000_000 / i).sum();
        let mut r = self.next_u64() % total.max(1);
        for i in 0..n {
            let w = 1_000_000 / (i + 1);
            if r < w {
                return i;
            }
            r -= w;
        }
        n - 1
    }
}

/// The non-uniform random function of TPC-C §2.1.6:
/// `NURand(A, x, y) = (((rand(0,A) | rand(x,y)) + C) % (y - x + 1)) + x`.
///
/// `A` must be a power of two minus one spanning roughly the value range;
/// `c` is the run constant.
pub fn nurand(rng: &mut StdRng, a: u64, x: u64, y: u64, c: u64) -> u64 {
    let lhs = rng.random_range(0..=a);
    let rhs = rng.random_range(x..=y);
    (((lhs | rhs) + c) % (y - x + 1)) + x
}

/// Picks the NURand `A` constant for a given cardinality: the largest
/// `2^k - 1` not exceeding the cardinality (mirrors the spec's 1023 for
/// 3000 customers and 8191 for 100 000 items, proportionally).
pub fn nurand_a(cardinality: u64) -> u64 {
    let mut a = 1u64;
    while a * 2 <= cardinality {
        a *= 2;
    }
    a - 1
}

/// Uniform in `lo..=hi`.
pub fn uniform(rng: &mut StdRng, lo: u64, hi: u64) -> u64 {
    rng.random_range(lo..=hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn nurand_stays_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = nurand(&mut rng, 255, 1, 1000, 123);
            assert!((1..=1000).contains(&v));
        }
    }

    #[test]
    fn nurand_is_skewed() {
        // The OR construction makes some values far more likely than a
        // uniform draw: measure concentration of the top decile.
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = vec![0u32; 1001];
        for _ in 0..100_000 {
            counts[nurand(&mut rng, 1023, 1, 1000, 0) as usize] += 1;
        }
        let mut sorted: Vec<u32> = counts.to_vec();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let top_100: u32 = sorted[..100].iter().sum();
        assert!(
            top_100 > 20_000,
            "top 10% of values should absorb well over 10% of draws, got {top_100}"
        );
    }

    #[test]
    fn nurand_a_matches_spec_scale() {
        assert_eq!(nurand_a(3000), 2047);
        assert_eq!(nurand_a(100_000), 65_535);
        assert_eq!(nurand_a(1000), 511);
        assert_eq!(nurand_a(1), 0);
    }

    #[test]
    fn uniform_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let v = uniform(&mut rng, 5, 15);
            assert!((5..=15).contains(&v));
        }
    }
}

//! Sample statistics and process facts the report is built from.

use std::time::{Duration, Instant};

/// Latency samples of one kind, in nanoseconds.
#[derive(Clone, Default)]
pub struct Samples(Vec<u64>);

impl Samples {
    pub fn push(&mut self, ns: u64) {
        self.0.push(ns);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank quantile in nanoseconds; 0 when empty.
    pub fn quantile_ns(&mut self, q: f64) -> u64 {
        if self.0.is_empty() {
            return 0;
        }
        self.0.sort_unstable();
        let rank = (q * self.0.len() as f64).ceil() as usize;
        self.0[rank.clamp(1, self.0.len()) - 1]
    }

    pub fn quantile_us(&mut self, q: f64) -> f64 {
        self.quantile_ns(q) as f64 / 1e3
    }
}

/// Latency samples stamped with when each one ended (nanoseconds since
/// the recorder's origin), so that a pass can be cut into windows.
#[derive(Clone, Default)]
pub struct Stamped(Vec<(u64, u64)>);

impl Stamped {
    /// Records a call that started at `start` and ends now.
    pub fn push_since(&mut self, origin: Instant, start: Instant) {
        let end = Instant::now();
        self.0.push((nanos(end.duration_since(origin)), nanos(end.duration_since(start))));
    }

    pub fn extend(&mut self, other: Stamped) {
        self.0.extend(other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The samples at even and at odd positions, in recording order.
    pub fn split_alternate(self) -> (Stamped, Stamped) {
        let (even, odd): (Vec<_>, Vec<_>) =
            self.0.into_iter().enumerate().partition(|(i, _)| i % 2 == 0);
        let strip = |v: Vec<(usize, (u64, u64))>| Stamped(v.into_iter().map(|(_, s)| s).collect());
        (strip(even), strip(odd))
    }

    /// Every duration, whenever it ended.
    pub fn all(&self) -> Samples {
        Samples(self.0.iter().map(|&(_, d)| d).collect())
    }

    /// Samples per second in `[lo, hi)`, from the first to the last one
    /// that ended there (a count over the whole window would be a whole
    /// number, the same on many runs).
    pub fn rate_in(&self, lo: u64, hi: u64) -> f64 {
        let (n, first, last) = self
            .0
            .iter()
            .filter(|&&(at, _)| (lo..hi).contains(&at))
            .fold((0u64, u64::MAX, 0u64), |(n, f, l), &(at, _)| (n + 1, f.min(at), l.max(at)));
        if n < 2 || last == first {
            return n as f64 * 1e9 / (hi - lo).max(1) as f64;
        }
        (n - 1) as f64 * 1e9 / (last - first) as f64
    }

    /// The durations of the samples that ended in `[lo, hi)`.
    pub fn window(&self, lo: u64, hi: u64) -> Samples {
        Samples(self.0.iter().filter(|&&(at, _)| (lo..hi).contains(&at)).map(|&(_, d)| d).collect())
    }
}

pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Median of a non-empty list of measurements.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `part / whole`, 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// splitmix64: the generator every workload stream is drawn from.
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, stream)`; distinct streams never share state.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut s = Samples::default();
        for v in 1..=100 {
            s.push(v * 1000);
        }
        assert_eq!(s.quantile_ns(0.5), 50_000);
        assert_eq!(s.quantile_ns(0.99), 99_000);
        assert_eq!(s.quantile_ns(1.0), 100_000);
        assert_eq!(Samples::default().quantile_ns(0.5), 0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn streams_repeat_per_seed() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next(), Rng::new(7, 2).next());
    }
}

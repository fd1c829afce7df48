//! The three metric primitives: counters, gauges, and log-bucketed
//! histograms. All recording is lock-free (relaxed atomics) and
//! allocation-free, so instrumented hot paths pay a handful of
//! uncontended atomic RMWs at most.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub fn new() -> Self {
        Counter::default()
    }

    #[inline]
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Point-in-time signed level (active transactions, resident bytes).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    pub fn new() -> Self {
        Gauge::default()
    }

    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    #[inline]
    pub fn sub(&self, delta: i64) {
        self.value.fetch_sub(delta, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket 0 holds exact zeros, bucket `i`
/// (1..=64) holds values in `[2^(i-1), 2^i)`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Log2-bucketed histogram of `u64` observations (latencies in
/// nanoseconds, sizes in bytes, depths in hops). Fixed bucket layout, so
/// recording is two relaxed `fetch_add`s plus a `fetch_max` — no locks,
/// no allocation, bounded error on quantiles (one power of two).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// Maps a value to its bucket: 0 -> 0, v in [2^(i-1), 2^i) -> i.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Lower bound (inclusive) of bucket `i`.
pub fn bucket_lo(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Upper bound (inclusive) of bucket `i`.
pub fn bucket_hi(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram::default()
    }

    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Release);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a wall-clock duration in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Acquire)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Quantile estimate from the bucket distribution: finds the bucket
    /// holding the q-th ranked observation and interpolates linearly
    /// inside it. Exact for single-valued buckets (e.g. small depths),
    /// within one power of two otherwise.
    pub fn quantile(&self, q: f64) -> u64 {
        let counts = self.bucket_counts();
        quantile_from_counts(&counts, self.max(), q)
    }

    /// Raw bucket counts (tests, exporters).
    pub fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Full capture for snapshots: summary plus raw buckets.
    pub fn sample(&self) -> crate::snapshot::HistogramSample {
        crate::snapshot::HistogramSample { summary: self.summary(), buckets: self.bucket_counts() }
    }

    /// Condensed view for snapshots.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }
}

/// Quantile estimate over a raw bucket-count array — the math behind
/// [`Histogram::quantile`], usable on *interval* distributions built by
/// diffing two cumulative snapshots (the time-series sampler does this).
/// `observed_max` caps interpolation in the top occupied bucket; pass
/// `u64::MAX` when unknown.
pub fn quantile_from_counts(counts: &[u64], observed_max: u64, q: f64) -> u64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        if c == 0 {
            continue;
        }
        if seen + c >= rank {
            let lo = bucket_lo(i);
            let hi = bucket_hi(i).min(observed_max);
            if hi <= lo || c == 1 {
                return lo;
            }
            let frac = (rank - seen - 1) as f64 / (c - 1) as f64;
            // Saturate: for the top bucket lo + frac*(hi-lo) can round
            // past u64::MAX.
            return lo.saturating_add((frac * (hi - lo) as f64) as u64);
        }
        seen += c;
    }
    observed_max
}

/// Point-in-time digest of a [`Histogram`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
}

impl HistogramSummary {
    /// Mean observation, zero when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn gauge_basics() {
        let g = Gauge::new();
        g.set(10);
        g.add(5);
        g.sub(3);
        assert_eq!(g.get(), 12);
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 0..HISTOGRAM_BUCKETS {
            assert_eq!(bucket_index(bucket_lo(i)), i);
            assert_eq!(bucket_index(bucket_hi(i)), i);
        }
    }

    #[test]
    fn histogram_summary_and_quantiles() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 5050);
        assert_eq!(s.max, 100);
        assert!(s.p50 >= 32 && s.p50 <= 64, "p50={}", s.p50);
        assert!(s.p99 >= 64 && s.p99 <= 100, "p99={}", s.p99);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
    }

    #[test]
    fn histogram_zero_and_empty() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        h.record(0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(0.99), 0);
    }
}

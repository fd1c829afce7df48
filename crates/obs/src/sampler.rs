//! Time-series sampling: periodic registry snapshots reduced to
//! per-interval deltas — throughput over time and per-interval latency
//! quantiles, instead of one cumulative number per run.
//!
//! The core ([`Sampler`]) is synchronous and clock-free: callers decide
//! when a tick happens and what the timestamp is, which makes it usable
//! from the virtual-clock benchmark drivers and deterministic in tests.
//! [`SamplerHandle`] wraps it in a background thread on a wall-clock
//! interval for the threaded benches.
//!
//! Each tick is one [`MetricsSnapshot::since`] diff against the
//! previous tick: per-interval histogram quantiles come from
//! *bucket-count diffs* — cumulative log2 bucket counts are monotone, so
//! subtracting the previous tick's counts yields the interval's own
//! distribution.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::metric::HistogramSummary;
use crate::snapshot::{push_json_string, MetricsSnapshot, SampleValue};
use crate::Registry;

/// Per-interval digest of one histogram.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IntervalHistogram {
    /// Observations recorded during the interval.
    pub count: u64,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
}

/// One sampling tick: counter deltas, gauge levels, histogram interval
/// digests. Metrics that did not move during the interval are omitted
/// from `counters`/`histograms` (gauges are always reported — a level
/// holding steady is information).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SeriesPoint {
    /// Tick timestamp in nanoseconds on the caller's timeline.
    pub t_ns: u64,
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, i64>,
    pub histograms: BTreeMap<String, IntervalHistogram>,
}

/// The collected series.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TimeSeries {
    pub points: Vec<SeriesPoint>,
}

impl TimeSeries {
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Serializes as a JSON object:
    ///
    /// ```json
    /// {"points": [
    ///   {"t_ns": 1000000, "counters": {"workload.driver.commits": 42},
    ///    "gauges": {"txn.manager.active": 3},
    ///    "histograms": {"workload.driver.response_us":
    ///                   {"count": 42, "p50": 180, "p95": 900, "p99": 1800}}}
    /// ]}
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"points\": [");
        for (i, p) in self.points.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n  ");
            push_point(&mut out, p);
        }
        out.push_str("\n]}\n");
        out
    }
}

fn push_point(out: &mut String, p: &SeriesPoint) {
    out.push_str(&format!("{{\"t_ns\": {}, \"counters\": {{", p.t_ns));
    for (i, (name, v)) in p.counters.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_json_string(out, name);
        out.push_str(&format!(": {v}"));
    }
    out.push_str("}, \"gauges\": {");
    for (i, (name, v)) in p.gauges.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_json_string(out, name);
        out.push_str(&format!(": {v}"));
    }
    out.push_str("}, \"histograms\": {");
    for (i, (name, h)) in p.histograms.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_json_string(out, name);
        out.push_str(&format!(
            ": {{\"count\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
            h.count, h.p50, h.p95, h.p99
        ));
    }
    out.push_str("}}");
}

/// Synchronous sampling core: call [`Sampler::tick`] every K units of
/// whatever clock the caller runs on.
pub struct Sampler {
    registry: Arc<Registry>,
    last: MetricsSnapshot,
    series: TimeSeries,
}

impl Sampler {
    /// The first tick's deltas are relative to the registry state here.
    pub fn new(registry: Arc<Registry>) -> Self {
        let last = registry.snapshot();
        Sampler { registry, last, series: TimeSeries::default() }
    }

    /// Takes a snapshot, records the interval since the previous tick as
    /// a [`SeriesPoint`] stamped `t_ns`.
    pub fn tick(&mut self, t_ns: u64) {
        let now = self.registry.snapshot();
        let mut point = SeriesPoint { t_ns, ..SeriesPoint::default() };
        for s in now.since(&self.last).samples() {
            match s.value {
                SampleValue::Counter(0) => {}
                SampleValue::Counter(delta) => {
                    point.counters.insert(s.name.clone(), delta);
                }
                SampleValue::Gauge(v) => {
                    point.gauges.insert(s.name.clone(), v);
                }
                SampleValue::Histogram(h) if h.summary.count > 0 => {
                    let HistogramSummary { count, p50, p95, p99, .. } = h.summary;
                    let interval = IntervalHistogram { count, p50, p95, p99 };
                    point.histograms.insert(s.name.clone(), interval);
                }
                SampleValue::Histogram(_) => {}
            }
        }
        self.last = now;
        self.series.points.push(point);
    }

    pub fn series(&self) -> &TimeSeries {
        &self.series
    }

    pub fn into_series(self) -> TimeSeries {
        self.series
    }
}

/// Background wall-clock sampler: snapshots the registry every
/// `interval` until stopped. Stopping takes one final tick so the tail
/// interval is never lost.
pub struct SamplerHandle {
    stop: Arc<AtomicBool>,
    join: std::thread::JoinHandle<TimeSeries>,
}

impl SamplerHandle {
    /// The baseline snapshot is taken here, on the caller's thread, so
    /// every update the caller makes after `spawn` returns is counted.
    pub fn spawn(registry: Arc<Registry>, interval: Duration) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let start = Instant::now();
        let mut sampler = Sampler::new(registry);
        let join = std::thread::Builder::new()
            .name("obs-sampler".into())
            .spawn(move || {
                // Sleep in small slices so stop() returns promptly even
                // with a long interval.
                let slice = interval.min(Duration::from_millis(20)).max(Duration::from_millis(1));
                let mut next = start + interval;
                while !stop2.load(Ordering::Relaxed) {
                    std::thread::sleep(slice);
                    let now = Instant::now();
                    if now >= next {
                        sampler.tick(ns_u64(now - start));
                        next += interval;
                    }
                }
                sampler.tick(ns_u64(start.elapsed()));
                sampler.into_series()
            })
            .expect("spawn obs-sampler thread");
        SamplerHandle { stop, join }
    }

    /// Signals the thread, waits for it, returns the collected series.
    pub fn stop(self) -> TimeSeries {
        self.stop.store(true, Ordering::Relaxed);
        self.join.join().unwrap_or_default()
    }
}

fn ns_u64(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_record_interval_deltas_not_cumulative() {
        let reg = Registry::new_shared();
        let c = reg.counter("w.commits");
        let h = reg.histogram("w.lat");
        c.add(5);
        h.record(100);

        let mut sampler = Sampler::new(reg.clone()); // baseline: 5 commits already in
        c.add(10);
        h.record(200);
        h.record(200);
        sampler.tick(1_000);
        c.add(3);
        sampler.tick(2_000);

        let series = sampler.into_series();
        assert_eq!(series.len(), 2);
        assert_eq!(series.points[0].counters.get("w.commits"), Some(&10));
        assert_eq!(series.points[0].histograms.get("w.lat").unwrap().count, 2);
        assert_eq!(series.points[1].counters.get("w.commits"), Some(&3));
        // No histogram activity in interval 2 -> omitted.
        assert!(series.points[1].histograms.is_empty());
    }

    #[test]
    fn interval_quantiles_reflect_only_the_interval() {
        let reg = Registry::new_shared();
        let h = reg.histogram("lat");
        for _ in 0..1000 {
            h.record(1_000_000); // slow history
        }
        let mut sampler = Sampler::new(reg.clone());
        for _ in 0..100 {
            h.record(10); // fast interval
        }
        sampler.tick(1);
        let p = &sampler.series().points[0];
        let ih = p.histograms.get("lat").unwrap();
        assert_eq!(ih.count, 100);
        // Cumulative p50 would be ~1ms; the interval's is in [8, 16).
        assert!(ih.p50 < 100, "p50={}", ih.p50);
    }

    #[test]
    fn json_shape() {
        let reg = Registry::new_shared();
        reg.counter("c").add(1);
        reg.gauge("g").set(-4);
        let mut sampler = Sampler::new(reg.clone());
        reg.counter("c").add(2);
        sampler.tick(1_000_000);
        let j = sampler.into_series().to_json();
        assert!(j.starts_with("{\"points\": ["));
        assert!(j.contains("\"t_ns\": 1000000"));
        assert!(j.contains("\"c\": 2"));
        assert!(j.contains("\"g\": -4"));
    }

    #[test]
    fn background_sampler_collects_and_stops() {
        let reg = Registry::new_shared();
        let c = reg.counter("bg.events");
        let handle = SamplerHandle::spawn(reg.clone(), Duration::from_millis(5));
        for _ in 0..10 {
            c.add(1);
            std::thread::sleep(Duration::from_millis(2));
        }
        let series = handle.stop();
        assert!(!series.is_empty());
        let total: u64 = series.points.iter().filter_map(|p| p.counters.get("bg.events")).sum();
        assert_eq!(total, 10);
    }
}

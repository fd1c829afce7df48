//! # sias-obs — unified metrics and tracing for the SIAS stack
//!
//! One registry per engine instance holding named counters, gauges, and
//! log-bucketed histograms. Names follow `<crate>.<component>.<name>` —
//! e.g. `storage.buffer.hits`, `core.engine.chain_depth`,
//! `txn.manager.aborts_write_conflict` — and the SIAS engine and the SI
//! baseline register the *same* names so their snapshots are directly
//! comparable.
//!
//! Hot paths resolve their handles once (an `Arc` per metric) and then
//! record with relaxed atomics: no locks, no allocation, no formatting.
//! [`Registry::snapshot`] captures everything into a [`MetricsSnapshot`]
//! that serializes to JSON ([`MetricsSnapshot::to_json`]) and Prometheus
//! text ([`MetricsSnapshot::to_prometheus`]).
//!
//! Each registry also owns a [`FlightRecorder`] ([`Registry::tracer`]).
//! A span ([`FlightRecorder::span`]) is the one timer: its guard records
//! the duration into the registry histogram `span.<name>` when it drops,
//! always, for the whole latency chain (`admission.delay` → `txn.begin`
//! → `engine.*` → `pool.miss` → `wal.append` → `wal.force_wait` /
//! `wal.force` → `txn.commit`). Enabled, the recorder also keeps the
//! last N span events per thread shard in a bounded, lock-free ring for
//! causality and post-hoc dumps ([`export::to_jsonl`],
//! [`export::to_chrome_trace`]). The [`sampler`] module turns periodic
//! snapshots into time series.
//!
//! ```
//! use sias_obs::{Registry, SpanName};
//!
//! let reg = Registry::new();
//! reg.counter("storage.buffer.hits").inc();
//! {
//!     let _span = reg.tracer().span(SpanName::TxnCommit).txn(7);
//!     // ... commit critical path ...
//! }
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter("storage.buffer.hits"), Some(1));
//! assert_eq!(snap.histogram("span.txn.commit").unwrap().count, 1);
//! assert!(reg.tracer().capture().is_empty(), "the ring is off by default");
//!
//! reg.tracer().set_enabled(true);
//! drop(reg.tracer().span(SpanName::TxnCommit));
//! assert_eq!(reg.tracer().capture().len(), 1);
//! ```

#![forbid(unsafe_code)]

mod metric;
mod snapshot;

pub mod export;
mod recorder;
pub mod sampler;
mod span;

pub use metric::{
    bucket_hi, bucket_index, bucket_lo, quantile_from_counts, Counter, Gauge, Histogram,
    HistogramSummary, HISTOGRAM_BUCKETS,
};
pub use recorder::{FlightRecorder, TraceConfig};
pub use sampler::{IntervalHistogram, Sampler, SamplerHandle, SeriesPoint, TimeSeries};
pub use snapshot::{push_json_string, HistogramSample, MetricSample, MetricsSnapshot, SampleValue};
pub use span::{EventKind, SpanGuard, SpanName, TraceEvent, SPAN_NAME_COUNT};

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock, RwLock, RwLockWriteGuard};

#[derive(Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

type MetricMap = BTreeMap<Arc<str>, Metric>;

fn intern_counter(map: &mut MetricMap, name: &str) -> Arc<Counter> {
    // Look up by &str first: the key is only allocated on genuine first
    // registration, never on the re-resolve path.
    if let Some(m) = map.get(name) {
        match m {
            Metric::Counter(c) => return c.clone(),
            _ => panic!("metric {name:?} is not a counter"),
        }
    }
    let c = Arc::new(Counter::new());
    map.insert(Arc::from(name), Metric::Counter(c.clone()));
    c
}

fn intern_gauge(map: &mut MetricMap, name: &str) -> Arc<Gauge> {
    if let Some(m) = map.get(name) {
        match m {
            Metric::Gauge(g) => return g.clone(),
            _ => panic!("metric {name:?} is not a gauge"),
        }
    }
    let g = Arc::new(Gauge::new());
    map.insert(Arc::from(name), Metric::Gauge(g.clone()));
    g
}

fn intern_histogram(map: &mut MetricMap, name: &str) -> Arc<Histogram> {
    if let Some(m) = map.get(name) {
        match m {
            Metric::Histogram(h) => return h.clone(),
            _ => panic!("metric {name:?} is not a histogram"),
        }
    }
    let h = Arc::new(Histogram::new());
    map.insert(Arc::from(name), Metric::Histogram(h.clone()));
    h
}

/// A named collection of metrics. Lookups take a read lock; recording
/// through the returned handles is lock-free. Engines own one registry
/// each (shared via `Arc` with their storage stack), so two engines in
/// one process never mix their numbers.
///
/// Names are interned as `Arc<str>`: re-resolving an existing metric
/// never allocates, and [`Registry::handles`] resolves a whole batch
/// under one lock acquisition (engine init registers dozens of metrics).
#[derive(Default)]
pub struct Registry {
    metrics: RwLock<MetricMap>,
    tracer: OnceLock<Arc<FlightRecorder>>,
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    /// A new registry behind an `Arc`, ready to share across subsystems.
    pub fn new_shared() -> Arc<Self> {
        Arc::new(Registry::new())
    }

    /// Returns the counter registered under `name`, creating it on first
    /// use. Panics if `name` is already registered as a different kind —
    /// that is a programming error, not a runtime condition.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(Metric::Counter(c)) = self.lookup_checked(name, "counter") {
            return c;
        }
        let mut map = self.metrics.write().unwrap_or_else(|e| e.into_inner());
        intern_counter(&mut map, name)
    }

    /// Returns the gauge registered under `name`, creating it on first
    /// use. Panics if `name` is registered as a different kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(Metric::Gauge(g)) = self.lookup_checked(name, "gauge") {
            return g;
        }
        let mut map = self.metrics.write().unwrap_or_else(|e| e.into_inner());
        intern_gauge(&mut map, name)
    }

    /// Returns the histogram registered under `name`, creating it on
    /// first use. Panics if `name` is registered as a different kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(Metric::Histogram(h)) = self.lookup_checked(name, "histogram") {
            return h;
        }
        let mut map = self.metrics.write().unwrap_or_else(|e| e.into_inner());
        intern_histogram(&mut map, name)
    }

    /// Fast-path lookup under the read lock; panics on a kind mismatch
    /// so the caller only sees its own variant or `None`.
    fn lookup_checked(&self, name: &str, want: &str) -> Option<Metric> {
        let m = self.metrics.read().unwrap_or_else(|e| e.into_inner()).get(name).cloned()?;
        let ok = matches!(
            (&m, want),
            (Metric::Counter(_), "counter")
                | (Metric::Gauge(_), "gauge")
                | (Metric::Histogram(_), "histogram")
        );
        if !ok {
            panic!("metric {name:?} is not a {want}");
        }
        Some(m)
    }

    /// Resolves many handles under a single lock acquisition. Engine
    /// init registers dozens of metrics; doing it one `counter()` call
    /// at a time takes and releases the write lock per name.
    ///
    /// ```
    /// # let reg = sias_obs::Registry::new();
    /// let mut h = reg.handles();
    /// let hits = h.counter("storage.buffer.hits");
    /// let depth = h.histogram("core.engine.chain_depth");
    /// drop(h); // releases the registry lock
    /// ```
    pub fn handles(&self) -> BulkResolver<'_> {
        BulkResolver { map: self.metrics.write().unwrap_or_else(|e| e.into_inner()) }
    }

    /// This registry's flight recorder. The first call creates it and
    /// registers its 25 `span.*` histograms here; its ring stays off
    /// (and unallocated) until [`FlightRecorder::set_enabled`].
    pub fn tracer(&self) -> &Arc<FlightRecorder> {
        self.tracer.get_or_init(|| Arc::new(FlightRecorder::new(TraceConfig::default(), self)))
    }

    /// Captures every registered metric. Concurrent recorders may land
    /// increments during the capture; each individual metric is read
    /// atomically, so committed increments are never lost or torn.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let map = self.metrics.read().unwrap_or_else(|e| e.into_inner());
        let samples = map
            .iter()
            .map(|(name, m)| MetricSample {
                name: name.to_string(),
                value: match m {
                    Metric::Counter(c) => SampleValue::Counter(c.get()),
                    Metric::Gauge(g) => SampleValue::Gauge(g.get()),
                    Metric::Histogram(h) => SampleValue::Histogram(h.sample()),
                },
            })
            .collect();
        drop(map);
        MetricsSnapshot::from_samples(samples)
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.read().unwrap_or_else(|e| e.into_inner()).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry").field("metrics", &self.len()).finish()
    }
}

/// Batch handle resolver holding the registry's write lock; see
/// [`Registry::handles`]. Drop it as soon as the batch is resolved.
pub struct BulkResolver<'a> {
    map: RwLockWriteGuard<'a, MetricMap>,
}

impl BulkResolver<'_> {
    /// As [`Registry::counter`], without re-locking.
    pub fn counter(&mut self, name: &str) -> Arc<Counter> {
        intern_counter(&mut self.map, name)
    }

    /// As [`Registry::gauge`], without re-locking.
    pub fn gauge(&mut self, name: &str) -> Arc<Gauge> {
        intern_gauge(&mut self.map, name)
    }

    /// As [`Registry::histogram`], without re-locking.
    pub fn histogram(&mut self, name: &str) -> Arc<Histogram> {
        intern_histogram(&mut self.map, name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_same_instance() {
        let reg = Registry::new();
        let a = reg.counter("x.y.z");
        let b = reg.counter("x.y.z");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter("x.y.z").get(), 3);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    #[should_panic(expected = "is not a gauge")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.counter("a.b.c");
        reg.gauge("a.b.c");
    }

    #[test]
    #[should_panic(expected = "is not a counter")]
    fn kind_mismatch_panics_on_fast_path_too() {
        let reg = Registry::new();
        reg.gauge("a.b.c");
        reg.counter("a.b.c"); // hits the read-lock fast path
    }

    #[test]
    fn bulk_resolver_shares_instances_with_single_resolves() {
        let reg = Registry::new();
        let single = reg.counter("c.one");
        {
            let mut h = reg.handles();
            h.counter("c.one").add(2);
            h.gauge("g.one").set(5);
            h.histogram("h.one").record(9);
        }
        assert_eq!(single.get(), 2);
        assert_eq!(reg.len(), 3);
        assert_eq!(reg.gauge("g.one").get(), 5);
        assert_eq!(reg.histogram("h.one").count(), 1);
    }

    #[test]
    #[should_panic(expected = "is not a histogram")]
    fn bulk_resolver_checks_kinds() {
        let reg = Registry::new();
        reg.counter("a");
        reg.handles().histogram("a");
    }

    #[test]
    fn tracer_is_shared_and_lazy() {
        let reg = Registry::new();
        let t1 = Arc::clone(reg.tracer());
        let t2 = Arc::clone(reg.tracer());
        assert!(Arc::ptr_eq(&t1, &t2));
        assert!(!t1.is_enabled());
        assert_eq!(t1.memory_bytes(), 0); // no rings until first enable
        assert_eq!(reg.len(), 25, "the span histograms exist before any span");
    }

    #[test]
    fn snapshot_covers_all_kinds() {
        let reg = Registry::new();
        reg.counter("c").add(7);
        reg.gauge("g").set(-2);
        reg.histogram("h").record(31);
        let s = reg.snapshot();
        assert_eq!(s.len(), 3);
        assert_eq!(s.counter("c"), Some(7));
        assert_eq!(s.gauge("g"), Some(-2));
        let h = s.histogram("h").unwrap();
        assert_eq!((h.count, h.sum, h.max), (1, 31, 31));
    }
}

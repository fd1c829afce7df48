//! Point-in-time view of a registry, serializable to JSON and to
//! Prometheus text exposition. Both serializers are hand-rolled — the
//! formats are small and this crate takes no dependencies.

use crate::metric::{bucket_hi, quantile_from_counts, HistogramSummary, HISTOGRAM_BUCKETS};

/// A histogram capture: the condensed summary plus the raw cumulative
/// bucket counts. The buckets make snapshots *diffable* — the
/// time-series sampler subtracts consecutive snapshots to get exact
/// per-interval distributions — and let the Prometheus exporter emit
/// real `_bucket` series instead of pre-baked quantiles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramSample {
    pub summary: HistogramSummary,
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl HistogramSample {
    /// A sample with empty buckets (tests and synthetic snapshots that
    /// only care about the summary).
    pub fn from_summary(summary: HistogramSummary) -> Self {
        HistogramSample { summary, buckets: [0; HISTOGRAM_BUCKETS] }
    }

    /// The observations recorded between `before` and `self`: bucket
    /// counts subtracted, quantiles re-derived from the interval's own
    /// distribution. `max` is the running max capped at the top of the
    /// interval's highest non-empty bucket: exact when the interval
    /// holds the running max, otherwise an upper bound within that
    /// bucket, and never an observation from before the interval; zero
    /// for an empty interval.
    fn since(&self, before: &HistogramSample) -> HistogramSample {
        let buckets: [u64; HISTOGRAM_BUCKETS] =
            std::array::from_fn(|i| self.buckets[i].saturating_sub(before.buckets[i]));
        let count = buckets.iter().sum();
        let max = buckets
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, |top| self.summary.max.min(bucket_hi(top)));
        let q = |q| quantile_from_counts(&buckets, max, q);
        let summary = HistogramSummary {
            count,
            sum: self.summary.sum.saturating_sub(before.summary.sum),
            max,
            p50: q(0.50),
            p95: q(0.95),
            p99: q(0.99),
        };
        HistogramSample { summary, buckets }
    }
}

/// One exported metric value. The histogram variant is deliberately
/// large (the raw bucket array rides along): snapshots are cold-path
/// values taken a handful of times per run, and keeping the variant
/// inline keeps `SampleValue` `Copy`.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SampleValue {
    Counter(u64),
    Gauge(i64),
    Histogram(HistogramSample),
}

/// A named metric value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricSample {
    pub name: String,
    pub value: SampleValue,
}

/// An ordered, immutable capture of every metric in a registry.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    samples: Vec<MetricSample>,
}

impl MetricsSnapshot {
    /// Builds a snapshot from samples, sorting by metric name.
    pub fn from_samples(mut samples: Vec<MetricSample>) -> Self {
        samples.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsSnapshot { samples }
    }

    pub fn samples(&self) -> &[MetricSample] {
        &self.samples
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// The interval from `before` to `self`, as a snapshot of the same
    /// names: counter deltas, gauge levels as of `self`, and histograms
    /// reduced to the observations recorded in between. A metric absent
    /// from `before` counts from zero. Registry metrics only ever grow,
    /// so this diff is how a measured interval is read — nothing is
    /// reset.
    pub fn since(&self, before: &MetricsSnapshot) -> MetricsSnapshot {
        let samples = self
            .samples
            .iter()
            .map(|s| {
                let value = match (&s.value, before.get(&s.name)) {
                    (SampleValue::Counter(v), Some(SampleValue::Counter(b))) => {
                        SampleValue::Counter(v.saturating_sub(*b))
                    }
                    (SampleValue::Histogram(h), Some(SampleValue::Histogram(b))) => {
                        SampleValue::Histogram(h.since(b))
                    }
                    (v, _) => *v,
                };
                MetricSample { name: s.name.clone(), value }
            })
            .collect();
        MetricsSnapshot { samples }
    }

    /// All metric names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.samples.iter().map(|s| s.name.as_str()).collect()
    }

    /// Looks up a sample by exact name.
    pub fn get(&self, name: &str) -> Option<&SampleValue> {
        self.samples
            .binary_search_by(|s| s.name.as_str().cmp(name))
            .ok()
            .map(|i| &self.samples[i].value)
    }

    /// Counter value by name, `None` if absent or not a counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            SampleValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Gauge value by name, `None` if absent or not a gauge.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        match self.get(name)? {
            SampleValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// Histogram summary by name, `None` if absent or not a histogram.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        match self.get(name)? {
            SampleValue::Histogram(h) => Some(&h.summary),
            _ => None,
        }
    }

    /// Raw cumulative bucket counts by name.
    pub fn histogram_buckets(&self, name: &str) -> Option<&[u64; HISTOGRAM_BUCKETS]> {
        match self.get(name)? {
            SampleValue::Histogram(h) => Some(&h.buckets),
            _ => None,
        }
    }

    /// Serializes to a JSON object keyed by metric name:
    ///
    /// ```json
    /// {
    ///   "core.engine.update": {"type": "histogram", "count": 2, "sum": 840,
    ///                          "max": 512, "p50": 328, "p95": 512, "p99": 512},
    ///   "storage.wal.forces": {"type": "counter", "value": 5},
    ///   "txn.manager.active": {"type": "gauge", "value": 0}
    /// }
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, s) in self.samples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            out.push_str("  ");
            push_json_string(&mut out, &s.name);
            out.push_str(": ");
            match &s.value {
                SampleValue::Counter(v) => {
                    out.push_str(&format!("{{\"type\": \"counter\", \"value\": {v}}}"));
                }
                SampleValue::Gauge(v) => {
                    out.push_str(&format!("{{\"type\": \"gauge\", \"value\": {v}}}"));
                }
                SampleValue::Histogram(h) => {
                    let h = &h.summary;
                    out.push_str(&format!(
                        "{{\"type\": \"histogram\", \"count\": {}, \"sum\": {}, \"max\": {}, \
                         \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
                        h.count, h.sum, h.max, h.p50, h.p95, h.p99
                    ));
                }
            }
        }
        out.push_str("\n}");
        out
    }

    /// Serializes to Prometheus text exposition. Dots become
    /// underscores; histograms export as native `histogram` metrics:
    /// cumulative `_bucket{le="..."}` series over the non-empty log2
    /// buckets plus the mandatory `le="+Inf"`, `_sum`, and `_count`,
    /// with the observed maximum as an extra `_max` series:
    ///
    /// ```text
    /// # HELP core_engine_update SIAS metric core.engine.update
    /// # TYPE core_engine_update histogram
    /// core_engine_update_bucket{le="511"} 1
    /// core_engine_update_bucket{le="1023"} 2
    /// core_engine_update_bucket{le="+Inf"} 2
    /// core_engine_update_sum 840
    /// core_engine_update_count 2
    /// core_engine_update_max 512
    /// ```
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for s in &self.samples {
            let name: String =
                s.name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect();
            out.push_str(&format!("# HELP {name} "));
            push_prom_help(&mut out, &format!("SIAS metric {}", s.name));
            out.push('\n');
            match &s.value {
                SampleValue::Counter(v) => {
                    out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
                }
                SampleValue::Gauge(v) => {
                    out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
                }
                SampleValue::Histogram(h) => {
                    out.push_str(&format!("# TYPE {name} histogram\n"));
                    let mut cumulative = 0u64;
                    for (i, &c) in h.buckets.iter().enumerate() {
                        if c == 0 {
                            continue;
                        }
                        cumulative += c;
                        out.push_str(&format!("{name}_bucket{{le=\""));
                        // le is inclusive, matching bucket_hi exactly.
                        push_prom_label_value(&mut out, &bucket_hi(i).to_string());
                        out.push_str(&format!("\"}} {cumulative}\n"));
                    }
                    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.summary.count));
                    out.push_str(&format!("{name}_sum {}\n", h.summary.sum));
                    out.push_str(&format!("{name}_count {}\n", h.summary.count));
                    out.push_str(&format!("{name}_max {}\n", h.summary.max));
                }
            }
        }
        out
    }
}

/// Escapes a HELP line per the exposition format: backslash and
/// line-feed only (quotes are legal in help text).
fn push_prom_help(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// Escapes a label value: backslash, double-quote, and line-feed.
fn push_prom_label_value(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// Appends `s` as a JSON string literal: quoted, with `"`, `\` and
/// every control character escaped.
pub fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::Histogram;

    fn sample_snapshot() -> MetricsSnapshot {
        let hist = Histogram::new();
        hist.record(328);
        hist.record(512);
        MetricsSnapshot::from_samples(vec![
            MetricSample { name: "txn.manager.active".into(), value: SampleValue::Gauge(3) },
            MetricSample { name: "storage.wal.forces".into(), value: SampleValue::Counter(5) },
            MetricSample {
                name: "core.engine.update".into(),
                value: SampleValue::Histogram(hist.sample()),
            },
        ])
    }

    #[test]
    fn lookup_by_name_and_kind() {
        let s = sample_snapshot();
        assert_eq!(s.counter("storage.wal.forces"), Some(5));
        assert_eq!(s.gauge("txn.manager.active"), Some(3));
        assert_eq!(s.histogram("core.engine.update").unwrap().count, 2);
        assert_eq!(s.counter("txn.manager.active"), None);
        assert_eq!(s.get("no.such.metric"), None);
        // Sorted by name.
        assert_eq!(
            s.names(),
            vec!["core.engine.update", "storage.wal.forces", "txn.manager.active"]
        );
    }

    #[test]
    fn json_format() {
        let j = sample_snapshot().to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"storage.wal.forces\": {\"type\": \"counter\", \"value\": 5}"));
        assert!(j.contains("\"txn.manager.active\": {\"type\": \"gauge\", \"value\": 3}"));
        assert!(j.contains("\"p95\": 512"));
    }

    #[test]
    fn prometheus_format() {
        let p = sample_snapshot().to_prometheus();
        assert!(p.contains("# HELP storage_wal_forces SIAS metric storage.wal.forces\n"));
        assert!(p.contains("# TYPE storage_wal_forces counter\nstorage_wal_forces 5\n"));
        assert!(p.contains("# TYPE txn_manager_active gauge\ntxn_manager_active 3\n"));
        assert!(p.contains("# TYPE core_engine_update histogram\n"));
        // 328 -> bucket [256,512) le=511; 512 -> bucket [512,1024) le=1023.
        assert!(p.contains("core_engine_update_bucket{le=\"511\"} 1\n"));
        assert!(p.contains("core_engine_update_bucket{le=\"1023\"} 2\n"));
        assert!(p.contains("core_engine_update_bucket{le=\"+Inf\"} 2\n"));
        assert!(p.contains("core_engine_update_sum 840\n"));
        assert!(p.contains("core_engine_update_count 2\n"));
        assert!(p.contains("core_engine_update_max 512\n"));
        // No stale summary-style quantile labels.
        assert!(!p.contains("quantile="));
    }

    #[test]
    fn prometheus_buckets_are_cumulative_and_sparse() {
        let hist = Histogram::new();
        for _ in 0..3 {
            hist.record(1); // bucket le="1"
        }
        hist.record(1_000_000); // bucket [2^19, 2^20) le="1048575"
        let s = MetricsSnapshot::from_samples(vec![MetricSample {
            name: "m".into(),
            value: SampleValue::Histogram(hist.sample()),
        }]);
        let p = s.to_prometheus();
        assert!(p.contains("m_bucket{le=\"1\"} 3\n"));
        assert!(p.contains("m_bucket{le=\"1048575\"} 4\n"));
        assert!(p.contains("m_bucket{le=\"+Inf\"} 4\n"));
        // Empty buckets between the two are not emitted.
        assert_eq!(p.matches("m_bucket{").count(), 3);
    }

    #[test]
    fn since_diffs_counters_and_histograms_and_keeps_gauge_levels() {
        let hist = Histogram::new();
        hist.record(1_000_000);
        let sample = |c, g, h: &Histogram| {
            MetricsSnapshot::from_samples(vec![
                MetricSample { name: "c".into(), value: SampleValue::Counter(c) },
                MetricSample { name: "g".into(), value: SampleValue::Gauge(g) },
                MetricSample { name: "h".into(), value: SampleValue::Histogram(h.sample()) },
            ])
        };
        let before = sample(5, 7, &hist);
        for _ in 0..4 {
            hist.record(10);
        }
        let after = sample(12, -1, &hist);
        let d = after.since(&before);
        assert_eq!(d.names(), after.names());
        assert_eq!(d.counter("c"), Some(7));
        assert_eq!(d.gauge("g"), Some(-1), "a gauge is a level, not a delta");
        let h = d.histogram("h").unwrap();
        assert_eq!((h.count, h.sum), (4, 40));
        assert!(h.p99 < 16, "the slow pre-interval sample is not in the interval: {}", h.p99);
        assert_eq!(h.max, 15, "the interval max stays inside the interval's top bucket");
        // A metric the baseline lacks counts from zero.
        let empty = MetricsSnapshot::default();
        assert_eq!(after.since(&empty).counter("c"), Some(12));
        // An interval with no observations reads as an empty histogram.
        assert_eq!(after.since(&after).histogram("h").unwrap().max, 0);
    }

    #[test]
    fn prometheus_help_is_escaped() {
        let s = MetricsSnapshot::from_samples(vec![MetricSample {
            name: "weird\\name\nwith.newline".into(),
            value: SampleValue::Counter(1),
        }]);
        let p = s.to_prometheus();
        // The raw backslash and newline never appear unescaped in HELP.
        assert!(p.contains("SIAS metric weird\\\\name\\nwith.newline\n"));
    }
}

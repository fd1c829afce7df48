//! What one measured pass produced, the metrics derived from it, and
//! how they are printed.

use std::collections::BTreeMap;
use std::time::Instant;

use sias_core::MaintenanceTotals;

use crate::client::Merged;
use crate::counters::{Counters, Delta, PAGE_BYTES};
use crate::spans::{analyse, NameStats, Span};
use crate::stats::{nanos, ratio, Stamped};

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// What the value was computed over (sample count, denominator).
    pub base: String,
}

pub fn metric(
    name: impl Into<String>,
    value: f64,
    unit: &'static str,
    base: impl Into<String>,
) -> Metric {
    Metric { name: name.into(), value, unit, base: base.into() }
}

/// Width of the windows a pass is cut into. The timed end-to-end
/// metrics are medians over the windows of all passes, so a burst of
/// host noise moves only the windows it falls in.
pub const WINDOW_NS: u64 = 1_000_000_000;

/// The timed end-to-end metrics, in the order of `BENCHMARK.json`.
pub const WINDOWED: [(&str, &str); 5] = [
    ("commits_per_s", "1/s"),
    ("txn_p50_us", "us"),
    ("txn_p99_us", "us"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
];

/// One window's values of [`WINDOWED`].
pub type Window = [f64; 5];

/// Where a measured interval starts, in nanoseconds after the origin its
/// samples are stamped from, and how long it ran.
pub struct Interval {
    pub origin_ns: u64,
    pub wall_s: f64,
}

impl Interval {
    /// From `start` until now, with samples stamped from `t0`.
    pub fn since(t0: Instant, start: Instant) -> Self {
        Interval {
            origin_ns: nanos(start.duration_since(t0)),
            wall_s: start.elapsed().as_secs_f64(),
        }
    }
}

/// One measured interval of a workload.
pub struct Pass {
    pub origin_ns: u64,
    pub wall_s: f64,
    pub commits: u64,
    /// Logical client transactions started (a retried one counts once).
    pub attempted: u64,
    /// Logical transactions that ended in an error rather than a commit.
    pub failed: u64,
    /// Transaction attempts, retries included, and how many aborted
    /// (retryable conflicts and errors; not the workload's own rollbacks).
    pub attempts: u64,
    pub aborted: u64,
    /// Every commit of every client; the duration is the transaction's.
    pub committed: Stamped,
    /// The transactions whose latency the workload reports.
    pub txn: Stamped,
    /// The workload's read call (see `read_what`).
    pub read: Stamped,
    pub read_what: &'static str,
    pub host_write_pages: u64,
    pub flash_write_pages: u64,
    pub space_amp: f64,
    pub violations: Vec<String>,
    /// Workload-specific end-to-end figures, printed beside the common ones.
    pub extra: Vec<Metric>,
    pub layers: Vec<Metric>,
}

impl Pass {
    /// The figures every workload derives the same way from its clients
    /// and the counters around its measured interval; `live_bytes` is the
    /// visible payload at the end. The caller adds what its clients
    /// attempted, its checks and its own figures.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        before: &Counters,
        after: &Counters,
        mut merged: Merged,
        maint: Option<MaintenanceTotals>,
        interval: Interval,
        live_bytes: u64,
        read: Stamped,
        read_what: &'static str,
    ) -> (Pass, Vec<Vec<Span>>) {
        let delta = Delta { before, after };
        let names = analyse(&merged.spans);
        let layers = layer_metrics(&LayerInput {
            delta: Delta { before, after },
            spans: &names,
            commits: merged.commits,
            engine_ops: merged.engine_ops,
            rows_read: merged.rows_read,
            maint,
            live_bytes,
        });
        let txn = std::mem::take(&mut merged.txn);
        let pass = Pass {
            origin_ns: interval.origin_ns,
            wall_s: interval.wall_s,
            commits: merged.commits,
            attempted: merged.attempts,
            failed: 0,
            attempts: merged.attempts,
            aborted: merged.aborts,
            committed: txn.clone(),
            txn,
            read,
            read_what,
            host_write_pages: delta.host_write_pages(),
            flash_write_pages: delta.host_write_pages() + delta.internal_write_pages(),
            space_amp: after.all_pages as f64 * PAGE_BYTES / live_bytes.max(1) as f64,
            violations: Vec::new(),
            extra: Vec::new(),
            layers,
        };
        (pass, merged.spans)
    }

    pub fn commits_per_s(&self) -> f64 {
        ratio(self.commits as f64, self.wall_s)
    }

    /// The timed figures of every whole window of the pass, in the order
    /// of [`WINDOWED`]. The first window is warm-up and left out; a pass
    /// too short for a whole window after it is one window.
    pub fn windows(&self) -> Vec<Window> {
        let end = self.origin_ns + (self.wall_s * 1e9) as u64;
        let mut out = Vec::new();
        let mut lo = self.origin_ns + WINDOW_NS;
        while lo + WINDOW_NS <= end {
            out.push(self.window(lo, lo + WINDOW_NS));
            lo += WINDOW_NS;
        }
        if out.is_empty() {
            out.push(self.window(self.origin_ns, end.max(self.origin_ns + 1)));
        }
        out
    }

    fn window(&self, lo: u64, hi: u64) -> Window {
        let (mut txn, mut read) = (self.txn.window(lo, hi), self.read.window(lo, hi));
        [
            self.committed.rate_in(lo, hi),
            txn.quantile_us(0.50),
            txn.quantile_us(0.99),
            read.quantile_us(0.50),
            read.quantile_us(0.99),
        ]
    }

    /// The end-to-end metrics counted over the whole pass, in the order
    /// of `BENCHMARK.json`.
    pub fn counted(&self) -> Vec<Metric> {
        let commits = format!("{} commits", self.commits);
        vec![
            metric(
                "host_write_bytes_per_commit",
                ratio(self.host_write_pages as f64 * PAGE_BYTES, self.commits as f64),
                "B",
                format!("{} host pages / {commits}", self.host_write_pages),
            ),
            metric(
                "flash_write_bytes_per_commit",
                ratio(self.flash_write_pages as f64 * PAGE_BYTES, self.commits as f64),
                "B",
                format!("{} programmed pages / {commits}", self.flash_write_pages),
            ),
            metric("space_amp", self.space_amp, "ratio", "relation bytes / live payload bytes"),
        ]
    }

    pub fn fail_ratio(&self) -> Metric {
        metric(
            "txn_fail_ratio",
            ratio(self.aborted as f64, self.attempts as f64),
            "ratio",
            format!("{} aborted / {} attempts", self.aborted, self.attempts),
        )
    }
}

/// Everything the per-layer metrics are computed from.
struct LayerInput<'a> {
    delta: Delta<'a>,
    spans: &'a BTreeMap<&'static str, NameStats>,
    commits: u64,
    engine_ops: u64,
    rows_read: u64,
    maint: Option<MaintenanceTotals>,
    live_bytes: u64,
}

/// `(p50, p99, n)` of a span's durations, in `scale` nanoseconds.
fn span_q(spans: &BTreeMap<&'static str, NameStats>, name: &str, scale: f64) -> (f64, f64, u64) {
    match spans.get(name) {
        Some(s) => {
            let mut d = s.durations.clone();
            (d.quantile_ns(0.5) as f64 / scale, d.quantile_ns(0.99) as f64 / scale, s.count)
        }
        None => (0.0, 0.0, 0),
    }
}

/// The per-layer metrics, one fixed set for every workload so that a
/// layer a workload does not load reads 0 rather than going missing.
fn layer_metrics(x: &LayerInput) -> Vec<Metric> {
    let d = &x.delta;
    let commits = x.commits as f64;
    let kc = format!("{} commits", x.commits);
    let per_kcommit = |v: u64| ratio(v as f64 * 1000.0, commits);
    let mut out = Vec::new();

    // Timed calls and probes, with the sample count of each percentile.
    let timed: [(&str, &str, f64, &'static str, bool); 10] = [
        ("txn.begin_us", "txn.begin", 1e3, "us", true),
        ("txn.commit_us", "txn.commit", 1e3, "us", true),
        ("engine.get_us", "engine.get", 1e3, "us", true),
        ("engine.update_us", "engine.update", 1e3, "us", true),
        ("engine.scan_range_us", "engine.scan_range", 1e3, "us", true),
        ("index.lookup_ns", "probe.index.lookup", 1.0, "ns", true),
        ("index.range_us", "probe.index.range", 1e3, "us", false),
        ("vidmap.get_ns", "probe.vidmap.get", 1.0, "ns", false),
        ("chain.read_item_us", "probe.chain.read_item", 1e3, "us", true),
        ("buffer.with_page_ns", "probe.buffer.with_page", 1.0, "ns", false),
    ];
    for (name, span, scale, unit, with_p99) in timed {
        let (p50, p99, n) = span_q(x.spans, span, scale);
        let base = format!("n={n} spans {span}");
        out.push(metric(format!("{name}.p50"), p50, unit, base.clone()));
        if with_p99 {
            out.push(metric(format!("{name}.p99"), p99, unit, base.clone()));
        }
        out.push(metric(format!("{name}.n"), n as f64, "count", base));
    }

    // sias-txn
    let (hits, misses) =
        (d.counter("txn.snapshot.memo_hits"), d.counter("txn.snapshot.memo_misses"));
    out.push(metric(
        "txn.memo_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
        "ratio",
        format!("{hits} hits / {} memo lookups", hits + misses),
    ));
    let conflicts = d.counter("txn.manager.aborts_write_conflict");
    out.push(metric(
        "txn.conflict_aborts_per_kcommit",
        per_kcommit(conflicts),
        "1/kcommit",
        format!("{conflicts} conflicts / {kc}"),
    ));

    // sias-core::vidmap and chain
    let lookups = d.counter("core.vidmap.lookups");
    out.push(metric(
        "vidmap.lookups_per_op",
        ratio(lookups as f64, x.engine_ops as f64),
        "ratio",
        format!("{lookups} lookups / {} engine calls", x.engine_ops),
    ));
    let (p50, p99, max, n) = d.histogram_quantiles("core.engine.chain_depth");
    let base = format!("n={n} chain walks (log2 buckets, interpolated)");
    out.push(metric("chain.depth.p50", p50 as f64, "versions", base.clone()));
    out.push(metric("chain.depth.p99", p99 as f64, "versions", base.clone()));
    out.push(metric("chain.depth.max", max as f64, "versions", base.clone()));
    out.push(metric("chain.depth.n", n as f64, "count", base));

    // sias-core::append and the tablespace
    let grown = d.after.data_pages.saturating_sub(d.before.data_pages);
    out.push(metric(
        "append.pages_per_kcommit",
        per_kcommit(grown),
        "1/kcommit",
        format!("{grown} data pages grown / {kc}"),
    ));
    out.push(metric(
        "append.live_bytes_per_page",
        ratio(x.live_bytes as f64, d.after.data_pages as f64),
        "B",
        format!("{} live payload bytes / {} data pages", x.live_bytes, d.after.data_pages),
    ));

    // sias-core::gc and maintenance
    let maint = x.maint.unwrap_or_default();
    let gc = maint.gc;
    let (examined, reclaimed, relocated) =
        (gc.pages_examined, gc.pages_reclaimed, gc.versions_relocated);
    out.push(metric("gc.pages_examined", examined as f64, "count", "GC passes"));
    out.push(metric("gc.pages_reclaimed", reclaimed as f64, "count", "GC passes"));
    out.push(metric(
        "gc.reclaim_ratio",
        ratio(reclaimed as f64, examined as f64),
        "ratio",
        format!("{reclaimed} reclaimed / {examined} examined"),
    ));
    out.push(metric(
        "gc.relocated_per_reclaimed_page",
        ratio(relocated as f64, reclaimed as f64),
        "ratio",
        format!("{relocated} versions relocated / {reclaimed} pages reclaimed"),
    ));
    out.push(metric(
        "gc.items_contended",
        gc.items_contended as f64,
        "count",
        "items skipped under a writer",
    ));
    out.push(metric("maint.ticks", maint.ticks as f64, "count", "GC passes run"));
    out.push(metric("maint.checkpoints", maint.checkpoints as f64, "count", "paced checkpoints"));

    // sias-core::checkpoint and buffer write-back
    out.push(metric("ckpt.runs", d.counter("storage.ckpt.runs") as f64, "count", "checkpoints"));
    out.push(metric(
        "ckpt.pages_flushed",
        d.counter("storage.ckpt.pages_flushed") as f64,
        "count",
        "pages written by checkpoints",
    ));
    for kind in ["bgwriter", "checkpoint", "eviction"] {
        let v = d.counter(&format!("storage.buffer.{kind}_writes"));
        out.push(metric(
            format!("buffer.{kind}_writes_per_kcommit"),
            per_kcommit(v),
            "1/kcommit",
            format!("{v} writes / {kc}"),
        ));
    }

    // sias-storage::buffer
    let (hits, misses) = (d.counter("storage.buffer.hits"), d.counter("storage.buffer.misses"));
    out.push(metric(
        "buffer.hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
        "ratio",
        format!("{hits} hits / {} page lookups", hits + misses),
    ));
    out.push(metric(
        "buffer.misses_per_kop",
        ratio(misses as f64 * 1000.0, x.engine_ops as f64),
        "1/kop",
        format!("{misses} misses / {} engine calls", x.engine_ops),
    ));
    out.push(metric(
        "buffer.evictions",
        d.counter("storage.buffer.evictions") as f64,
        "count",
        "victim frames recycled",
    ));

    // sias-storage::wal
    let forces = d.counter("storage.wal.forces");
    out.push(metric(
        "wal.forces_per_commit",
        ratio(forces as f64, commits),
        "ratio",
        format!("{forces} forces / {kc}"),
    ));
    let (g50, _, gmax, gn) = d.histogram_quantiles("storage.wal.group_size");
    let base = format!("n={gn} forces (log2 buckets, interpolated)");
    out.push(metric("wal.group_size.p50", g50 as f64, "commits", base.clone()));
    out.push(metric("wal.group_size.max", gmax as f64, "commits", base.clone()));
    out.push(metric("wal.group_size.n", gn as f64, "count", base));
    let wal_bytes = d.counter("storage.wal.bytes_appended");
    out.push(metric(
        "wal.bytes_per_commit",
        ratio(wal_bytes as f64, commits),
        "B",
        format!("{wal_bytes} bytes / {kc}"),
    ));

    // sias-storage::device (the simulated SSD's FTL)
    let (host_w, internal_w) = (d.host_write_pages(), d.internal_write_pages());
    out.push(metric(
        "device.host_read_pages_per_krow",
        ratio(d.host_read_pages() as f64 * 1000.0, x.rows_read as f64),
        "1/krow",
        format!("{} page reads / {} rows read", d.host_read_pages(), x.rows_read),
    ));
    out.push(metric("device.host_write_pages", host_w as f64, "count", "host page writes"));
    out.push(metric("device.internal_write_pages", internal_w as f64, "count", "FTL relocations"));
    out.push(metric("device.erases", d.erases() as f64, "count", "erase-block erases"));
    out.push(metric("device.trims", d.trims() as f64, "count", "TRIM commands"));
    out.push(metric(
        "device.ftl_write_amp",
        if host_w == 0 { 1.0 } else { (host_w + internal_w) as f64 / host_w as f64 },
        "ratio",
        format!("{} programs / {host_w} host writes", host_w + internal_w),
    ));

    // Self time by layer, per commit.
    for layer in ["client", "txn", "engine", "probe", "maint"] {
        let ns: u64 = x
            .spans
            .iter()
            .filter(|(name, _)| name.split('.').next() == Some(layer))
            .map(|(_, s)| s.self_ns)
            .sum();
        out.push(metric(
            format!("self_us_per_commit.{layer}"),
            ratio(ns as f64 / 1e3, commits),
            "us",
            format!("{:.1} ms self time / {kc}", ns as f64 / 1e6),
        ));
    }
    out
}

pub fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!("  {:<36} {:>16} {:<10} {}", m.name, fmt_value(m.value), m.unit, m.base);
    }
}

/// The per-span self-time table of a traced pass.
pub fn print_self_times(spans: &BTreeMap<&'static str, NameStats>, commits: u64, wall_s: f64) {
    println!("self time by span (traced pass, {commits} commits over {wall_s:.3} s):");
    println!(
        "  {:<26} {:>10} {:>12} {:>14} {:>10}",
        "span", "count", "self_ms", "self_us/commit", "p50_us"
    );
    for (name, s) in spans {
        let mut d = s.durations.clone();
        println!(
            "  {:<26} {:>10} {:>12.1} {:>14.2} {:>10.2}",
            name,
            s.count,
            s.self_ns as f64 / 1e6,
            ratio(s.self_ns as f64 / 1e3, commits as f64),
            d.quantile_us(0.5)
        );
    }
}

fn fmt_value(v: f64) -> String {
    if v != 0.0 && v.abs() < 0.01 {
        format!("{v:.6}")
    } else {
        format!("{v:.3}")
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

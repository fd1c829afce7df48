//! Layer counters as before/after diffs of `metrics_snapshot()` and the
//! data device's `stats()`. Nothing is ever reset: the engine's counters
//! are shared, so a reset would corrupt any other reader.

use sias_common::PAGE_SIZE;
use sias_core::SiasDb;
use sias_obs::{quantile_from_counts, MetricsSnapshot, HISTOGRAM_BUCKETS};
use sias_storage::DeviceStats;
use sias_txn::MvccEngine;

pub struct Counters {
    metrics: MetricsSnapshot,
    device: DeviceStats,
    /// Pages of every relation in the tablespace (data, index, VID map).
    pub all_pages: u64,
    /// Pages of the SIAS data relations only.
    pub data_pages: u64,
}

impl Counters {
    pub fn take(db: &SiasDb) -> Self {
        let space = &db.stack().space;
        let blocks = |rels: Vec<sias_common::RelId>| -> u64 {
            rels.into_iter().map(|r| u64::from(space.relation_blocks(r))).sum()
        };
        Counters {
            metrics: db.metrics_snapshot(),
            device: db.stack().data.stats(),
            all_pages: blocks(space.relations()),
            data_pages: blocks(db.relation_handles().iter().map(|r| r.rel).collect()),
        }
    }
}

/// What changed between two [`Counters`].
pub struct Delta<'a> {
    pub before: &'a Counters,
    pub after: &'a Counters,
}

impl Delta<'_> {
    pub fn counter(&self, name: &str) -> u64 {
        let get = |c: &Counters| c.metrics.counter(name).unwrap_or(0);
        get(self.after).saturating_sub(get(self.before))
    }

    /// Bucket counts recorded in between, with the histogram's maximum
    /// at the end (exact when the interval contains it).
    fn histogram(&self, name: &str) -> ([u64; HISTOGRAM_BUCKETS], u64) {
        let zero = [0u64; HISTOGRAM_BUCKETS];
        let a = self.before.metrics.histogram_buckets(name).unwrap_or(&zero);
        let b = self.after.metrics.histogram_buckets(name).unwrap_or(&zero);
        let max = self.after.metrics.histogram(name).map_or(0, |h| h.max);
        (std::array::from_fn(|i| b[i].saturating_sub(a[i])), max)
    }

    /// `(p50, p99, max, count)` of a histogram over the interval.
    pub fn histogram_quantiles(&self, name: &str) -> (u64, u64, u64, u64) {
        let (counts, max) = self.histogram(name);
        let n = counts.iter().sum();
        let q = |q| quantile_from_counts(&counts, max, q);
        (q(0.5), q(0.99), if n == 0 { 0 } else { max }, n)
    }

    pub fn host_write_pages(&self) -> u64 {
        self.after.device.host_write_pages - self.before.device.host_write_pages
    }

    pub fn internal_write_pages(&self) -> u64 {
        self.after.device.internal_write_pages - self.before.device.internal_write_pages
    }

    pub fn host_read_pages(&self) -> u64 {
        self.after.device.host_read_pages - self.before.device.host_read_pages
    }

    pub fn erases(&self) -> u64 {
        self.after.device.erases - self.before.device.erases
    }

    pub fn trims(&self) -> u64 {
        self.after.device.trims - self.before.device.trims
    }
}

pub const PAGE_BYTES: f64 = PAGE_SIZE as f64;

/// Visible payload bytes over every data relation, read at a fresh
/// snapshot after the run (for tables whose size the workload does not
/// fix).
pub fn live_payload_bytes(db: &SiasDb) -> u64 {
    let txn = db.begin();
    let mut bytes = 0u64;
    for r in db.relation_handles() {
        let rows = db.scan_all(&txn, r.rel).expect("post-run scan of a relation");
        bytes += rows.iter().map(|(_, p)| p.len() as u64).sum::<u64>();
    }
    db.commit(txn).expect("read-only commit");
    bytes
}

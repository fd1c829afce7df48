//! Shared engine metric handles.
//!
//! Both engines (SIAS and the SI baseline) must expose the **same**
//! metric names so a benchmark can diff their snapshots directly. This
//! module is the single place those names are registered: each engine
//! calls [`EngineMetrics::register`] against its storage stack's
//! registry, getting back pre-resolved handles for the hot paths.
//!
//! Naming follows `<crate>.<component>.<name>`; the operation
//! histograms record wall-clock nanoseconds, `chain_depth` records the
//! number of versions traversed to find the visible one (for SI: index
//! candidates probed), and the GC, scrub and checkpoint families count
//! maintenance work, each outcome under exactly one name. Metrics that
//! do not apply to one engine (e.g. GC under SI) simply stay zero — they
//! are registered here, eagerly, so both snapshots have identical shape
//! whatever either engine has run.

use std::sync::Arc;

use sias_obs::{BulkResolver, Counter, FlightRecorder, Gauge, Histogram, Registry};

/// Handles of the `core.admission.*` family. Registered with the rest
/// of [`EngineMetrics`], so an engine without an admission gate (the SI
/// baseline) still exposes the same names, at zero.
#[derive(Clone)]
pub struct AdmissionMetrics {
    /// `core.admission.admitted` — begins admitted, with or without delay.
    pub admitted: Arc<Counter>,
    /// `core.admission.delayed` — begins parked at least one tick.
    pub delayed: Arc<Counter>,
    /// `core.admission.shed` — begins refused with a typed `Overloaded`
    /// error (try path only).
    pub shed: Arc<Counter>,
    /// `core.admission.delay_us` — microseconds parked before admission
    /// or shed.
    pub delay_us: Arc<Histogram>,
    /// `core.admission.pressure` — bitmask of signals currently over
    /// limit (1 txns, 2 wal, 4 dirty).
    pub pressure: Arc<Gauge>,
}

impl AdmissionMetrics {
    fn register(h: &mut BulkResolver<'_>) -> Self {
        AdmissionMetrics {
            admitted: h.counter("core.admission.admitted"),
            delayed: h.counter("core.admission.delayed"),
            shed: h.counter("core.admission.shed"),
            delay_us: h.histogram("core.admission.delay_us"),
            pressure: h.gauge("core.admission.pressure"),
        }
    }
}

/// Pre-resolved handles for everything an engine records.
pub struct EngineMetrics {
    /// `core.engine.insert` — insert latency (ns); count doubles as ops.
    pub insert: Arc<Histogram>,
    /// `core.engine.update` — update latency (ns).
    pub update: Arc<Histogram>,
    /// `core.engine.delete` — delete latency (ns).
    pub delete: Arc<Histogram>,
    /// `core.engine.get` — point-lookup latency (ns).
    pub get: Arc<Histogram>,
    /// `core.engine.scan` — range/full scan latency (ns).
    pub scan: Arc<Histogram>,
    /// `core.engine.chain_depth` — versions traversed per visibility
    /// resolution (the paper's chain-length cost).
    pub chain_depth: Arc<Histogram>,
    /// `core.engine.scan_page_visits` — pages pinned by batched scans,
    /// key-range and VID-map (one pin serves every cursor resident on
    /// the page; stays zero on scalar paths and on the SI baseline).
    pub scan_page_visits: Arc<Counter>,
    /// `core.engine.scan_versions_fetched` — tuple versions fetched and
    /// decoded by key-range and VID-map scans (the paper's `C_R` count
    /// for scans).
    pub scan_versions_fetched: Arc<Counter>,
    /// `core.vidmap.lookups` — VID map (or SI index) entrypoint lookups.
    pub vidmap_lookups: Arc<Counter>,
    /// `core.vidmap.resizes` — VID map bucket-directory growth events.
    pub vidmap_resizes: Arc<Counter>,
    /// `core.gc.runs` — vacuum passes completed.
    pub gc_runs: Arc<Counter>,
    /// `core.gc.pages_examined` — pages inspected by vacuum.
    pub gc_pages_examined: Arc<Counter>,
    /// `core.gc.pages_reclaimed` — pages recycled.
    pub gc_pages_reclaimed: Arc<Counter>,
    /// `core.gc.versions_discarded` — dead versions dropped.
    pub gc_versions_discarded: Arc<Counter>,
    /// `core.gc.versions_relocated` — live versions re-appended.
    pub gc_versions_relocated: Arc<Counter>,
    /// `core.gc.items_cleared` — data items erased entirely.
    pub gc_items_cleared: Arc<Counter>,
    /// `core.gc.pause` — vacuum pass duration (ns).
    pub gc_pause: Arc<Histogram>,
    /// `storage.gc.slices` — incremental GC slices run (a subset of
    /// `core.gc.runs`).
    pub gc_slices: Arc<Counter>,
    /// `storage.gc.pages_deferred` — victims parked for a horizon-gated
    /// recycle.
    pub gc_pages_deferred: Arc<Counter>,
    /// `storage.gc.cas_skipped` — items skipped because a writer held
    /// them (retried on a later slice).
    pub gc_items_contended: Arc<Counter>,
    /// `storage.scrub.slice_runs` — incremental scrub slices run.
    pub scrub_slice_runs: Arc<Counter>,
    /// `storage.scrub.scanned` — blocks probed by scrub, slices and
    /// whole passes alike.
    pub scrub_scanned: Arc<Counter>,
    /// `storage.scrub.corrupt` — probed blocks that failed verification.
    pub scrub_corrupt: Arc<Counter>,
    /// `storage.scrub.repaired` — corrupt blocks rebuilt and reclaimed.
    pub scrub_repaired: Arc<Counter>,
    /// `storage.ckpt.runs` — checkpoints taken.
    pub ckpt_runs: Arc<Counter>,
    /// `storage.ckpt.pages_flushed` — pages written by checkpoints.
    pub ckpt_pages_flushed: Arc<Counter>,
    /// `storage.ckpt.paced_skipped` — paced checkpoints below their WAL
    /// threshold.
    pub ckpt_paced_skipped: Arc<Counter>,
    /// `storage.ckpt.paced_runs` — paced checkpoints taken.
    pub ckpt_paced_runs: Arc<Counter>,
    /// `storage.ckpt.paced_pages` — pages flushed by paced checkpoints.
    pub ckpt_paced_pages: Arc<Counter>,
    /// `core.scan.parallel_workers` — live parallel-scan workers.
    pub scan_parallel_workers: Arc<Gauge>,
    /// `txn.manager.aborts_write_conflict` — first-updater-wins losers.
    pub write_conflicts: Arc<Counter>,
    /// The `core.admission.*` family (see [`AdmissionMetrics`]).
    pub admission: AdmissionMetrics,
    /// The registry's flight recorder, so engines open spans without a
    /// registry round-trip. Inert until the host enables tracing.
    pub tracer: Arc<FlightRecorder>,
}

impl EngineMetrics {
    /// Registers (or re-resolves) the full engine metric family in `obs`.
    /// Uses the registry's bulk resolver: one lock acquisition for the
    /// whole family instead of one per name.
    pub fn register(obs: &Registry) -> Self {
        let tracer = Arc::clone(obs.tracer());
        let mut h = obs.handles();
        EngineMetrics {
            insert: h.histogram("core.engine.insert"),
            update: h.histogram("core.engine.update"),
            delete: h.histogram("core.engine.delete"),
            get: h.histogram("core.engine.get"),
            scan: h.histogram("core.engine.scan"),
            chain_depth: h.histogram("core.engine.chain_depth"),
            scan_page_visits: h.counter("core.engine.scan_page_visits"),
            scan_versions_fetched: h.counter("core.engine.scan_versions_fetched"),
            vidmap_lookups: h.counter("core.vidmap.lookups"),
            vidmap_resizes: h.counter("core.vidmap.resizes"),
            gc_runs: h.counter("core.gc.runs"),
            gc_pages_examined: h.counter("core.gc.pages_examined"),
            gc_pages_reclaimed: h.counter("core.gc.pages_reclaimed"),
            gc_versions_discarded: h.counter("core.gc.versions_discarded"),
            gc_versions_relocated: h.counter("core.gc.versions_relocated"),
            gc_items_cleared: h.counter("core.gc.items_cleared"),
            gc_pause: h.histogram("core.gc.pause"),
            gc_slices: h.counter("storage.gc.slices"),
            gc_pages_deferred: h.counter("storage.gc.pages_deferred"),
            gc_items_contended: h.counter("storage.gc.cas_skipped"),
            scrub_slice_runs: h.counter("storage.scrub.slice_runs"),
            scrub_scanned: h.counter("storage.scrub.scanned"),
            scrub_corrupt: h.counter("storage.scrub.corrupt"),
            scrub_repaired: h.counter("storage.scrub.repaired"),
            ckpt_runs: h.counter("storage.ckpt.runs"),
            ckpt_pages_flushed: h.counter("storage.ckpt.pages_flushed"),
            ckpt_paced_skipped: h.counter("storage.ckpt.paced_skipped"),
            ckpt_paced_runs: h.counter("storage.ckpt.paced_runs"),
            ckpt_paced_pages: h.counter("storage.ckpt.paced_pages"),
            scan_parallel_workers: h.gauge("core.scan.parallel_workers"),
            write_conflicts: h.counter("txn.manager.aborts_write_conflict"),
            admission: AdmissionMetrics::register(&mut h),
            tracer,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registers_one_family_idempotently() {
        let obs = Registry::new();
        let a = EngineMetrics::register(&obs);
        let n = obs.len();
        let b = EngineMetrics::register(&obs);
        assert_eq!(obs.len(), n, "re-registration must not add metrics");
        a.insert.record(10);
        assert_eq!(b.insert.count(), 1, "handles alias the same metric");
    }

    #[test]
    fn both_engine_registrations_have_identical_names() {
        let sias = Registry::new();
        let si = Registry::new();
        EngineMetrics::register(&sias);
        EngineMetrics::register(&si);
        assert_eq!(sias.snapshot().names(), si.snapshot().names());
    }
}

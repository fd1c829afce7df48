//! Background maintenance under load.
//!
//! Production systems never get the quiescent window the paper's
//! deterministic GC assumes, so the three maintenance subsystems each
//! have an incremental, bounded form safe to run beside foreground
//! transactions:
//!
//! * **GC** — [`SiasDb::vacuum_slice`]: a few candidate pages per call,
//!   CAS-published relocations, horizon-gated page recycling;
//! * **scrubbing** — [`SiasDb::scrub_slice`]: a few probed blocks per
//!   call, lock-guarded CAS-published repairs;
//! * **checkpoints** — [`SiasDb::maybe_checkpoint`]: fuzzy checkpoints
//!   paced by WAL volume since the last one.
//!
//! [`MaintenanceScheduler`] drives all three from one dedicated thread,
//! metering the *combined* page traffic through a token bucket refilled
//! at [`MaintenanceConfig::pages_per_sec`] — the knob that trades
//! reclamation rate against foreground tail latency (the `maintbench`
//! binary measures exactly that trade). Pause/resume hooks let an
//! operator (or a latency-sensitive phase of a benchmark) shed the
//! background load instantly without tearing the thread down.
//!
//! Every slice is bounded: it never holds a buffer-pool pin, a tuple
//! lock or the deferred-queue mutex across a yield, so the scheduler
//! can be throttled arbitrarily hard without wedging foreground work.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use sias_common::{BlockId, RelId, SiasResult, Xid};
use sias_obs::SpanName;

use crate::engine::{SiasDb, SiasRelation};
use crate::gc::{GcSliceOpts, GcStats, DEFAULT_VACUUM_THRESHOLD};
use crate::scrub::ScrubStats;

/// A victim page whose live versions were relocated but whose physical
/// recycle waits for the oldest active snapshot to pass the relocation
/// epoch.
#[derive(Clone, Copy, Debug)]
pub(crate) struct DeferredPage {
    pub(crate) rel: RelId,
    pub(crate) block: BlockId,
    /// Xid high-water mark at relocation time; the page is recyclable
    /// once `TransactionManager::horizon_passed(epoch)`.
    pub(crate) epoch: Xid,
}

/// Engine-resident state shared by the maintenance subsystems.
pub(crate) struct MaintState {
    /// Relocated victim pages awaiting their horizon-gated recycle.
    pub(crate) deferred: Mutex<Vec<DeferredPage>>,
    /// WAL byte LSN at the last checkpoint (pacing watermark).
    pub(crate) last_ckpt_lsn: AtomicU64,
    /// Configured scheduler throttle ([`StorageConfig::maint_pages_per_sec`]).
    ///
    /// [`StorageConfig::maint_pages_per_sec`]: sias_storage::StorageConfig
    pub(crate) pages_per_sec: u64,
}

impl Default for MaintState {
    fn default() -> Self {
        MaintState::new(sias_storage::DEFAULT_MAINT_PAGES_PER_SEC)
    }
}

impl MaintState {
    pub(crate) fn new(pages_per_sec: u64) -> Self {
        MaintState {
            deferred: Mutex::new(Vec::new()),
            last_ckpt_lsn: AtomicU64::new(0),
            pages_per_sec,
        }
    }
}

/// The block order of every GC and scrub sweep, slice or whole pass:
/// up to `max` blocks from a caller-held cursor, wrapping around the
/// relation at most once. The open append page, free blocks and blocks
/// parked for a deferred recycle are skipped — a parked block's
/// versions are unreachable by construction, and recycling it twice
/// could free a page a later allocation already uses. Each block is
/// checked as it comes up, so a sweep sees the blocks its own earlier
/// steps opened or recycled, and one that passes stays sealed until a
/// recycle frees it.
pub(crate) struct BlockSweep<'a> {
    r: &'a SiasRelation,
    cursor: &'a mut BlockId,
    nblocks: BlockId,
    considered: BlockId,
    left: usize,
    parked: BTreeSet<BlockId>,
}

impl SiasDb {
    /// Starts a [`BlockSweep`] of `r` over the blocks it has now.
    pub(crate) fn sweep_blocks<'a>(
        &self,
        r: &'a SiasRelation,
        cursor: &'a mut BlockId,
        max: usize,
    ) -> BlockSweep<'a> {
        let parked =
            self.maint.deferred.lock().iter().filter(|p| p.rel == r.rel).map(|p| p.block).collect();
        let nblocks = self.stack.space.relation_blocks(r.rel);
        BlockSweep { r, cursor, nblocks, considered: 0, left: max, parked }
    }
}

impl Iterator for BlockSweep<'_> {
    type Item = BlockId;

    fn next(&mut self) -> Option<BlockId> {
        while self.left > 0 && self.considered < self.nblocks {
            let block = *self.cursor % self.nblocks;
            *self.cursor = (block + 1) % self.nblocks;
            self.considered += 1;
            if self.r.append.is_sealed(block) && !self.parked.contains(&block) {
                self.left -= 1;
                return Some(block);
            }
        }
        None
    }
}

/// Tuning of the background maintenance scheduler.
#[derive(Clone, Copy, Debug)]
pub struct MaintenanceConfig {
    /// Token-bucket refill rate: pages of maintenance traffic (GC
    /// candidates examined + scrub probes + checkpoint flushes) per
    /// second of wall-clock time. `0` = unthrottled.
    pub pages_per_sec: u64,
    /// GC candidate pages examined per relation per tick.
    pub gc_slice_pages: usize,
    /// Dead-space fraction that makes a page a GC victim.
    pub gc_threshold: f64,
    /// Blocks the scrubber probes per relation per tick.
    pub scrub_slice_blocks: usize,
    /// WAL bytes between paced fuzzy checkpoints.
    pub ckpt_wal_bytes: u64,
    /// Scheduler sleep when a tick finds nothing to do (or is paused).
    pub idle_sleep: Duration,
    /// Ceiling on the scheduler thread's CPU duty cycle, percent of
    /// wall clock (1–100; 100 disables it). Page tokens meter the
    /// *traffic* a tick generates, but a tick's dominant cost is often
    /// pure CPU — chain-walk classification that examines pages and
    /// reclaims nothing — which the bucket cannot see. On few-core
    /// boxes that CPU time is stolen directly from foreground commit
    /// latency, so after every productive tick the thread also sleeps
    /// `elapsed × (100 − duty_pct) / duty_pct`. Applies only when
    /// throttled (`pages_per_sec > 0`); unthrottled runs stay greedy.
    pub duty_pct: u32,
}

impl Default for MaintenanceConfig {
    fn default() -> Self {
        MaintenanceConfig {
            pages_per_sec: sias_storage::DEFAULT_MAINT_PAGES_PER_SEC,
            // Small slices keep the worst-case foreground collision (a
            // commit preempted for one whole tick) short; the duty
            // floor, not the slice size, sets sustained throughput.
            gc_slice_pages: 2,
            gc_threshold: DEFAULT_VACUUM_THRESHOLD,
            scrub_slice_blocks: 2,
            ckpt_wal_bytes: 4 << 20, // 4 MiB of log per fuzzy checkpoint
            idle_sleep: Duration::from_millis(2),
            duty_pct: 10,
        }
    }
}

impl MaintenanceConfig {
    /// Defaults with the throttle the database was opened with
    /// (`StorageConfig::maint_pages_per_sec`).
    pub fn for_db(db: &SiasDb) -> Self {
        MaintenanceConfig { pages_per_sec: db.maint.pages_per_sec, ..Default::default() }
    }

    /// Overrides the throttle (pages/s of wall-clock; 0 = unthrottled).
    pub fn with_pages_per_sec(mut self, pages: u64) -> Self {
        self.pages_per_sec = pages;
        self
    }
}

/// Work accumulated by a scheduler (or by manual slice driving).
#[derive(Clone, Copy, Debug, Default)]
pub struct MaintenanceTotals {
    /// Scheduler ticks that ran (not counting idle sleeps).
    pub ticks: u64,
    /// GC slice totals.
    pub gc: GcStats,
    /// Scrub slice totals.
    pub scrub: ScrubStats,
    /// Paced checkpoints taken.
    pub checkpoints: u64,
    /// Slices that failed (error swallowed, work retried later).
    pub errors: u64,
}

/// Caller-held sweep positions, one GC and one scrub cursor per
/// relation, so consecutive slices cover the whole relation instead of
/// rescanning its head.
#[derive(Debug, Default)]
pub struct MaintCursors {
    gc: HashMap<RelId, BlockId>,
    scrub: HashMap<RelId, BlockId>,
}

impl SiasDb {
    /// Runs one maintenance tick inline: a GC slice and a scrub slice
    /// per relation, then a WAL-paced checkpoint check. Returns the
    /// pages of maintenance traffic generated (the unit the scheduler's
    /// token bucket meters). Safe under live foreground traffic.
    pub fn maintenance_slice(
        &self,
        cfg: &MaintenanceConfig,
        cursors: &mut MaintCursors,
        totals: &mut MaintenanceTotals,
    ) -> SiasResult<u64> {
        let mut span = self.metrics.tracer.span(SpanName::MaintTick);
        let mut pages = 0u64;
        let opts = GcSliceOpts {
            max_pages: cfg.gc_slice_pages,
            threshold: cfg.gc_threshold,
            ..GcSliceOpts::default()
        };
        for r in self.relation_handles() {
            let cur = cursors.gc.entry(r.rel).or_insert(0);
            let gcs = self.vacuum_slice(r.rel, cur, &opts)?;
            pages += gcs.pages_examined + gcs.pages_reclaimed;
            totals.gc.merge(gcs);
            if cfg.scrub_slice_blocks > 0 {
                let cur = cursors.scrub.entry(r.rel).or_insert(0);
                let ss = self.scrub_slice(r.rel, cur, cfg.scrub_slice_blocks)?;
                pages += ss.pages_scanned;
                totals.scrub.merge(&ss);
            }
        }
        if cfg.ckpt_wal_bytes > 0 {
            if let Some(ck) = self.maybe_checkpoint(cfg.ckpt_wal_bytes)? {
                pages += ck.pages_flushed;
                totals.checkpoints += 1;
            }
        }
        totals.ticks += 1;
        span.set_arg(pages);
        Ok(pages)
    }
}

/// The background maintenance scheduler: one dedicated thread driving
/// incremental GC, throttled scrubbing and WAL-paced checkpoints
/// against a shared [`SiasDb`]. Construction spawns the thread;
/// [`MaintenanceScheduler::stop`] (or drop) joins it.
pub struct MaintenanceScheduler {
    stop: Arc<AtomicBool>,
    pause: Arc<AtomicBool>,
    join: Option<JoinHandle<MaintenanceTotals>>,
}

impl MaintenanceScheduler {
    /// Spawns the scheduler thread over `db` with tuning `cfg`.
    pub fn spawn(db: Arc<SiasDb>, cfg: MaintenanceConfig) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let pause = Arc::new(AtomicBool::new(false));
        let stop_t = Arc::clone(&stop);
        let pause_t = Arc::clone(&pause);
        let join = std::thread::Builder::new()
            .name("sias-maint".into())
            .spawn(move || run_scheduler(&db, &cfg, &stop_t, &pause_t))
            .expect("spawn maintenance scheduler thread");
        MaintenanceScheduler { stop, pause, join: Some(join) }
    }

    /// Suspends slice dispatch (the thread idles; state is kept).
    pub fn pause(&self) {
        self.pause.store(true, Ordering::Release);
    }

    /// Resumes slice dispatch after [`MaintenanceScheduler::pause`].
    pub fn resume(&self) {
        self.pause.store(false, Ordering::Release);
    }

    /// `true` while dispatch is suspended.
    pub fn is_paused(&self) -> bool {
        self.pause.load(Ordering::Acquire)
    }

    /// Stops the thread and returns the accumulated work totals.
    pub fn stop(mut self) -> MaintenanceTotals {
        self.stop.store(true, Ordering::Release);
        self.join.take().map(|j| j.join().expect("maintenance thread panicked")).unwrap_or_default()
    }
}

impl Drop for MaintenanceScheduler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

/// Scheduler loop: token bucket + tick dispatch. Tokens are pages; the
/// bucket refills at `pages_per_sec` and may run into deficit by one
/// slice (slices are bounded, so the deficit is too) — the loop then
/// sleeps until the refill clears it, which is what paces maintenance
/// without ever blocking a foreground thread. Throttled ticks
/// additionally respect [`MaintenanceConfig::duty_pct`]: a tick that
/// burned `t` of wall clock is followed by a sleep that keeps the
/// thread's CPU share under the duty ceiling, so classification CPU —
/// invisible to the page tokens — cannot crowd foreground threads off
/// the cores either.
fn run_scheduler(
    db: &SiasDb,
    cfg: &MaintenanceConfig,
    stop: &AtomicBool,
    pause: &AtomicBool,
) -> MaintenanceTotals {
    let mut cursors = MaintCursors::default();
    let mut totals = MaintenanceTotals::default();
    let mut tokens: f64 = cfg.pages_per_sec as f64; // start with one second of burst
    let mut last_refill = Instant::now();
    while !stop.load(Ordering::Acquire) {
        if pause.load(Ordering::Acquire) {
            std::thread::sleep(cfg.idle_sleep);
            last_refill = Instant::now(); // paused time earns no tokens
            continue;
        }
        if cfg.pages_per_sec > 0 {
            let now = Instant::now();
            tokens += now.duration_since(last_refill).as_secs_f64() * cfg.pages_per_sec as f64;
            tokens = tokens.min(cfg.pages_per_sec as f64); // burst cap: one second
            last_refill = now;
            if tokens < 1.0 {
                let deficit = 1.0 - tokens;
                let wait = Duration::from_secs_f64(deficit / cfg.pages_per_sec as f64);
                std::thread::sleep(wait.min(Duration::from_millis(50)));
                continue;
            }
        }
        let tick_start = Instant::now();
        match db.maintenance_slice(cfg, &mut cursors, &mut totals) {
            Ok(pages) => {
                tokens -= pages as f64;
                let duty = cfg.duty_pct.clamp(1, 100);
                if pages == 0 {
                    std::thread::sleep(cfg.idle_sleep); // nothing to do
                } else if cfg.pages_per_sec > 0 && duty < 100 {
                    // Duty-cycle floor: pay back the tick's CPU time.
                    let owed =
                        tick_start.elapsed().mul_f64(f64::from(100 - duty) / f64::from(duty));
                    std::thread::sleep(owed.min(Duration::from_millis(100)));
                } else if cfg.pages_per_sec == 0 {
                    // Unthrottled still cedes the core between slices so
                    // foreground threads keep winning lock races.
                    std::thread::yield_now();
                }
            }
            Err(_) => {
                totals.errors += 1;
                std::thread::sleep(cfg.idle_sleep);
            }
        }
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::append::FlushPolicy;
    use sias_storage::StorageConfig;
    use sias_txn::MvccEngine;

    fn garbage_heavy_db() -> (Arc<SiasDb>, RelId) {
        let db = SiasDb::open_with_policy(StorageConfig::in_memory(), FlushPolicy::T2);
        let rel = db.create_relation("t");
        let t = db.begin();
        for k in 0..32u64 {
            db.insert(&t, rel, k, &[0u8; 512]).unwrap();
        }
        db.commit(t).unwrap();
        for round in 0..40u8 {
            let t = db.begin();
            for k in 0..32u64 {
                db.update(&t, rel, k, &[round; 512]).unwrap();
            }
            db.commit(t).unwrap();
        }
        (Arc::new(db), rel)
    }

    #[test]
    fn manual_slices_reclaim_garbage() {
        let (db, rel) = garbage_heavy_db();
        let mut cursors = MaintCursors::default();
        let mut totals = MaintenanceTotals::default();
        let cfg = MaintenanceConfig { scrub_slice_blocks: 0, ..Default::default() };
        for _ in 0..200 {
            db.maintenance_slice(&cfg, &mut cursors, &mut totals).unwrap();
        }
        assert!(totals.gc.pages_deferred > 0, "slices must find victims: {totals:?}");
        assert!(totals.gc.pages_reclaimed > 0, "deferred pages must drain: {totals:?}");
        assert!(totals.errors == 0, "{totals:?}");
        db.debug_validate_index(rel).unwrap();
    }

    #[test]
    fn scheduler_reclaims_while_reads_run() {
        let (db, rel) = garbage_heavy_db();
        let before: Vec<(u64, bytes::Bytes)> = {
            let t = db.begin();
            let v = db.scan_all(&t, rel).unwrap();
            db.commit(t).unwrap();
            v
        };
        let sched = MaintenanceScheduler::spawn(
            Arc::clone(&db),
            MaintenanceConfig::for_db(&db).with_pages_per_sec(0),
        );
        // Foreground reads keep running while the scheduler chews.
        for _ in 0..50 {
            let t = db.begin();
            let now = db.scan_all(&t, rel).unwrap();
            db.commit(t).unwrap();
            assert_eq!(before, now, "maintenance must never change visible state");
        }
        std::thread::sleep(Duration::from_millis(100));
        let totals = sched.stop();
        assert!(totals.ticks > 0);
        assert!(
            totals.gc.pages_reclaimed > 0,
            "an unthrottled scheduler must reclaim this much garbage: {totals:?}"
        );
        assert_eq!(totals.errors, 0, "{totals:?}");
        let t = db.begin();
        let after = db.scan_all(&t, rel).unwrap();
        db.commit(t).unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn pause_stops_dispatch_and_resume_restarts_it() {
        let (db, _rel) = garbage_heavy_db();
        let sched = MaintenanceScheduler::spawn(
            Arc::clone(&db),
            MaintenanceConfig::for_db(&db).with_pages_per_sec(0),
        );
        sched.pause();
        assert!(sched.is_paused());
        std::thread::sleep(Duration::from_millis(20));
        let examined_paused = db.metrics_snapshot().counter("core.gc.pages_examined");
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(
            examined_paused,
            db.metrics_snapshot().counter("core.gc.pages_examined"),
            "no slices may run while paused"
        );
        sched.resume();
        std::thread::sleep(Duration::from_millis(50));
        let totals = sched.stop();
        assert!(totals.ticks > 0, "resume must restart dispatch: {totals:?}");
    }

    #[test]
    fn throttle_meters_slice_rate() {
        let (db, _rel) = garbage_heavy_db();
        // 100 pages/s for 200 ms ≈ 20 pages of budget (plus the 1 s
        // initial burst) — far below what unthrottled slices would chew
        // through on this workload.
        let throttled = MaintenanceScheduler::spawn(
            Arc::clone(&db),
            MaintenanceConfig::for_db(&db).with_pages_per_sec(100),
        );
        std::thread::sleep(Duration::from_millis(200));
        let totals = throttled.stop();
        let touched =
            totals.gc.pages_examined + totals.gc.pages_reclaimed + totals.scrub.pages_scanned;
        assert!(
            touched <= 300,
            "throttle must bound maintenance traffic: {touched} pages in 200ms {totals:?}"
        );
    }

    #[test]
    fn paced_checkpoints_track_wal_volume() {
        let db = SiasDb::open(StorageConfig::in_memory());
        let rel = db.create_relation("t");
        // Below the pacing threshold: no checkpoint.
        let t = db.begin();
        db.insert(&t, rel, 1, &[1u8; 64]).unwrap();
        db.commit(t).unwrap();
        assert!(db.maybe_checkpoint(1 << 20).unwrap().is_none());
        // Enough WAL volume: the paced checkpoint fires, then re-arms.
        for k in 0..200u64 {
            let t = db.begin();
            db.insert(&t, rel, 100 + k, &[2u8; 2048]).unwrap();
            db.commit(t).unwrap();
        }
        let first = db.maybe_checkpoint(64 << 10).unwrap();
        assert!(first.is_some(), "400 KiB of log must trip a 64 KiB pacer");
        assert!(db.maybe_checkpoint(64 << 10).unwrap().is_none(), "watermark reset");
        let snap = db.metrics_snapshot();
        assert_eq!(snap.counter("storage.ckpt.paced_runs"), Some(1));
        assert!(snap.counter("storage.ckpt.paced_skipped") >= Some(2));
    }
}

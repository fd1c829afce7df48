//! Storage stack assembly.
//!
//! Bundles a data device (with trace + clock), a tablespace, a buffer
//! pool and a WAL on its own log device into one [`StorageStack`] that
//! the engines build on. [`StorageConfig`] provides presets matching the
//! paper's three testbeds:
//!
//! * [`StorageConfig::ssd_raid`]`(2)` — the Core2Duo box with a two-SSD
//!   software stripe (Figure 5);
//! * [`StorageConfig::ssd_raid`]`(6)` — the "Sylt" server with six SSDs
//!   (Figure 6);
//! * [`StorageConfig::hdd`] — the Seagate 7200 rpm disk (Table 2);
//! * [`StorageConfig::in_memory`] — zero-latency backing for unit tests.

use std::path::PathBuf;
use std::sync::Arc;

use sias_common::{SiasResult, VirtualClock, PAGE_SIZE};
use sias_obs::{Gauge, Registry};

use crate::buffer::BufferPool;
use crate::device::{
    Device, DeviceCounters, DeviceEnv, DeviceRef, FaultPlan, FaultyDevice, FileDevice, FlashConfig,
    FlashDevice, HddConfig, HddDevice, MemDevice, Raid0, RetryBudget, RetryClock,
};
use crate::health::Health;
use crate::io_queue::IoQueue;
use crate::tablespace::Tablespace;
use crate::trace::{TraceCollector, DEFAULT_TRACE_CAPACITY};
use crate::wal::{Wal, WalConfig};

/// The kind of data device to build.
#[derive(Clone, Debug)]
pub enum Media {
    /// Zero-latency in-memory device (tests).
    Mem,
    /// RAID-0 of `members` Flash SSDs.
    SsdRaid {
        /// Number of stripe members.
        members: usize,
        /// Per-member Flash parameters.
        flash: FlashConfig,
    },
    /// Single spinning disk.
    Hdd(HddConfig),
    /// A real file on the host filesystem (O_DIRECT when the filesystem
    /// allows it, buffered otherwise). Virtual time stands still; I/O
    /// costs wall-clock time instead.
    File {
        /// Backing file path (created/extended on open).
        path: PathBuf,
    },
    /// Page-granular stripe over several real files — the file-backed
    /// twin of [`Media::SsdRaid`]. Place the paths on different devices
    /// to get genuine hardware parallelism.
    Striped {
        /// Backing file paths, one per stripe member.
        paths: Vec<PathBuf>,
    },
}

impl Media {
    /// `true` for real-file media, where retries must sleep wall-clock
    /// time and I/O queues pay off.
    fn is_file_backed(&self) -> bool {
        matches!(self, Media::File { .. } | Media::Striped { .. })
    }

    /// Stripe width (1 for everything that is not striped).
    fn stripe_width(&self) -> usize {
        match self {
            Media::Striped { paths } => paths.len().max(1),
            Media::SsdRaid { members, .. } => (*members).max(1),
            _ => 1,
        }
    }
}

/// Space accounting for the log device: a quota on *live* WAL bytes
/// (appended minus checkpoint-truncated) with two watermarks.
///
/// Crossing the **low** watermark marks the stack Degraded and is the
/// cue for emergency maintenance (paced checkpoint + GC slices) to
/// reclaim log space; crossing the **hard** watermark flips the stack
/// to ReadOnly — further writes fail fast with a typed error rather
/// than running the device into the ground. The WAL's physical
/// capacity check in `lead_force` remains the backstop underneath.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpaceConfig {
    /// Quota on live WAL bytes, in pages. `0` = the whole log device.
    pub wal_quota_pages: u64,
    /// Percent of quota at which the stack goes Degraded (emergency
    /// reclaim starts).
    pub low_watermark_pct: u64,
    /// Percent of quota at which writes fail fast (ReadOnly).
    pub hard_watermark_pct: u64,
}

/// Physical size of every stack's log device, in pages (32 GiB).
const WAL_DEVICE_PAGES: u64 = 1 << 22;

impl Default for SpaceConfig {
    fn default() -> Self {
        SpaceConfig { wal_quota_pages: 0, low_watermark_pct: 70, hard_watermark_pct: 90 }
    }
}

impl SpaceConfig {
    /// The quota in bytes (defaulting to the whole device).
    pub fn quota_bytes(&self) -> u64 {
        let pages = if self.wal_quota_pages == 0 { WAL_DEVICE_PAGES } else { self.wal_quota_pages };
        pages * PAGE_SIZE as u64
    }
}

/// Where the stack currently sits relative to its space watermarks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpaceStatus {
    /// Below the low watermark.
    Ok,
    /// Past the low watermark: reclaim urgently.
    Low,
    /// Past the hard watermark: writes fail fast.
    Exhausted,
}

/// Configuration of a full storage stack.
#[derive(Clone, Debug)]
pub struct StorageConfig {
    /// Data-device media.
    pub media: Media,
    /// Buffer pool size in 8 KiB frames.
    pub pool_frames: usize,
    /// Page-table lock stripes in the buffer pool (0 = automatic).
    pub pool_shards: usize,
    /// Logical data capacity in pages (per RAID member for SSD).
    pub capacity_pages: u64,
    /// Fault injection for the data and WAL devices (default: none).
    pub faults: FaultPlan,
    /// WAL group-commit knobs.
    pub wal: WalConfig,
    /// Block-trace ring-buffer bound in events.
    pub trace_capacity: usize,
    /// Async I/O queue depth **per stripe member** (0 disables the
    /// queue; all I/O is synchronous). Matches per-device NCQ semantics:
    /// a 2-wide stripe at depth 8 keeps up to 16 operations in flight.
    pub io_queue_depth: usize,
    /// Live-WAL-byte quota and ENOSPC watermarks.
    pub space: SpaceConfig,
}

impl StorageConfig {
    /// Zero-latency in-memory stack (unit tests, doctests).
    pub fn in_memory() -> Self {
        StorageConfig {
            media: Media::Mem,
            pool_frames: 1024,
            pool_shards: 0,
            capacity_pages: 1 << 20,
            faults: FaultPlan::none(),
            wal: WalConfig::default(),
            trace_capacity: DEFAULT_TRACE_CAPACITY,
            io_queue_depth: 0,
            space: SpaceConfig::default(),
        }
    }

    /// RAID-0 over `members` SLC-class SSDs.
    pub fn ssd_raid(members: usize) -> Self {
        StorageConfig {
            media: Media::SsdRaid { members, flash: FlashConfig::default() },
            pool_frames: 8192, // 64 MiB
            pool_shards: 0,
            capacity_pages: 1 << 18,
            faults: FaultPlan::none(),
            wal: WalConfig::default(),
            trace_capacity: DEFAULT_TRACE_CAPACITY,
            io_queue_depth: 0,
            space: SpaceConfig::default(),
        }
    }

    /// Single SSD.
    pub fn ssd() -> Self {
        Self::ssd_raid(1)
    }

    /// A real file at `path` (hardware-grounded runs). The WAL goes to
    /// `<path>.wal`. Queue depth defaults to 8 — override with
    /// [`StorageConfig::with_io_queue_depth`] (0 = synchronous).
    pub fn file(path: impl Into<PathBuf>) -> Self {
        StorageConfig {
            media: Media::File { path: path.into() },
            pool_frames: 8192,
            pool_shards: 0,
            capacity_pages: 1 << 18,
            faults: FaultPlan::none(),
            wal: WalConfig::default(),
            trace_capacity: DEFAULT_TRACE_CAPACITY,
            io_queue_depth: 8,
            space: SpaceConfig::default(),
        }
    }

    /// A stripe over several real files — one per member. The WAL goes
    /// to `<first path>.wal`. `capacity_pages` is per member, as with
    /// [`StorageConfig::ssd_raid`].
    pub fn striped(paths: Vec<PathBuf>) -> Self {
        assert!(!paths.is_empty(), "striped media needs at least one path");
        StorageConfig {
            media: Media::Striped { paths },
            pool_frames: 8192,
            pool_shards: 0,
            capacity_pages: 1 << 18,
            faults: FaultPlan::none(),
            wal: WalConfig::default(),
            trace_capacity: DEFAULT_TRACE_CAPACITY,
            io_queue_depth: 8,
            space: SpaceConfig::default(),
        }
    }

    /// Single 7200 rpm HDD.
    pub fn hdd() -> Self {
        StorageConfig {
            media: Media::Hdd(HddConfig::default()),
            pool_frames: 8192,
            pool_shards: 0,
            capacity_pages: 1 << 21,
            faults: FaultPlan::none(),
            wal: WalConfig::default(),
            trace_capacity: DEFAULT_TRACE_CAPACITY,
            io_queue_depth: 0,
            space: SpaceConfig::default(),
        }
    }

    /// Overrides the buffer pool size.
    pub fn with_pool_frames(mut self, frames: usize) -> Self {
        self.pool_frames = frames;
        self
    }

    /// Overrides the logical capacity (pages; per member for RAID).
    pub fn with_capacity_pages(mut self, pages: u64) -> Self {
        self.capacity_pages = pages;
        self
    }

    /// Enables fault injection on the data and/or WAL device.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Overrides the buffer-pool shard count (0 = automatic).
    pub fn with_pool_shards(mut self, shards: usize) -> Self {
        self.pool_shards = shards;
        self
    }

    /// Overrides the WAL group-commit knobs.
    pub fn with_wal_config(mut self, wal: WalConfig) -> Self {
        self.wal = wal;
        self
    }

    /// Overrides the block-trace ring bound (events).
    pub fn with_trace_capacity(mut self, events: usize) -> Self {
        self.trace_capacity = events;
        self
    }

    /// Overrides the per-member async I/O queue depth (0 = synchronous).
    pub fn with_io_queue_depth(mut self, depth: usize) -> Self {
        self.io_queue_depth = depth;
        self
    }

    /// Overrides the live-WAL-byte quota (pages; 0 = whole device).
    pub fn with_wal_quota_pages(mut self, pages: u64) -> Self {
        self.space.wal_quota_pages = pages;
        self
    }

    /// Overrides the space watermarks (percent of quota).
    pub fn with_space_watermarks(mut self, low_pct: u64, hard_pct: u64) -> Self {
        assert!(low_pct <= hard_pct, "low watermark must not exceed hard");
        self.space.low_watermark_pct = low_pct;
        self.space.hard_watermark_pct = hard_pct;
        self
    }
}

/// A fully-assembled storage stack.
pub struct StorageStack {
    /// The shared virtual clock.
    pub clock: Arc<VirtualClock>,
    /// Block trace of the **data** device only (the paper traces the data
    /// volume; the WAL lived on a separate device). A bounded window for
    /// scatter plots and locality; totals come from `storage.device.*`.
    pub trace: Arc<TraceCollector>,
    /// The data device. Its I/O counts into `storage.device.*` of `obs`,
    /// and its `stats()` reads those counters.
    pub data: Arc<dyn Device>,
    /// Tablespace mapping relation blocks onto the data device.
    pub space: Arc<Tablespace>,
    /// The buffer pool.
    pub pool: Arc<BufferPool>,
    /// The write-ahead log (own device, not in `trace`).
    pub wal: Arc<Wal>,
    /// Metrics registry the pool and WAL report into (`storage.*`).
    /// Engines layer their own metrics onto the same registry.
    pub obs: Arc<Registry>,
    /// Async I/O queue over the data device (`io_queue_depth > 0`),
    /// shared by the buffer pool's prefetch and checkpoint paths.
    pub io: Option<Arc<IoQueue>>,
    /// Stack-level health state machine (Healthy/Degraded/ReadOnly).
    pub health: Arc<Health>,
    /// Shared success-funded retry budget (WAL + pool retry sites).
    pub budget: Arc<RetryBudget>,
    /// Space watermarks the accountant evaluates against.
    pub space_cfg: SpaceConfig,
    /// `storage.space.wal_used_pct` — live WAL bytes as % of quota.
    wal_used_pct_gauge: Arc<Gauge>,
}

impl StorageStack {
    /// Builds a stack from a configuration, with a fresh metrics registry.
    pub fn new(cfg: &StorageConfig) -> Self {
        Self::with_registry(cfg, Registry::new_shared())
    }

    /// Builds a stack whose pool and WAL report into `obs`.
    pub fn with_registry(cfg: &StorageConfig, obs: Arc<Registry>) -> Self {
        let clock = VirtualClock::new();
        let trace = TraceCollector::with_registry(cfg.trace_capacity, &obs);
        let health = Arc::new(Health::default().with_registry(&obs));
        let budget = Arc::new(
            RetryBudget::default_budget()
                .with_counter(obs.counter("storage.retry.budget_exhausted")),
        );
        // The data device's I/O lands in `storage.device.*`; RAID members
        // share the one set and the trace, with their own trace ids.
        let env = DeviceEnv {
            clock: Arc::clone(&clock),
            trace: Arc::clone(&trace),
            device_id: 0,
            counters: DeviceCounters::register(&obs),
        };
        let data: Arc<dyn Device> = match &cfg.media {
            Media::Mem => Arc::new(MemDevice::new(cfg.capacity_pages, env)),
            Media::SsdRaid { members, flash } => {
                let flash = FlashConfig { capacity_pages: cfg.capacity_pages, ..*flash };
                if *members == 1 {
                    Arc::new(FlashDevice::new(flash, env))
                } else {
                    Arc::new(
                        Raid0::new(*members, &env, |_, e| {
                            Ok(Arc::new(FlashDevice::new(flash, e)) as DeviceRef)
                        })
                        .expect("simulated members open infallibly"),
                    )
                }
            }
            Media::Hdd(h) => Arc::new(HddDevice::new(
                HddConfig { capacity_pages: cfg.capacity_pages, ..*h },
                env,
            )),
            Media::File { path } => {
                Arc::new(FileDevice::open(path, cfg.capacity_pages, env).expect("open data file"))
            }
            // `capacity_pages` is per member (as for `ssd_raid`);
            // `open_stripe` takes the set's total.
            Media::Striped { paths } => Arc::new(
                FileDevice::open_stripe(paths, cfg.capacity_pages * paths.len() as u64, env)
                    .expect("open striped data files"),
            ),
        };
        let data: Arc<dyn Device> = if cfg.faults.data.enabled() {
            Arc::new(FaultyDevice::new(data, cfg.faults.data, Arc::clone(&clock), &obs))
        } else {
            data
        };
        let space = Arc::new(Tablespace::new(data.capacity_pages()));
        // Real-file media charge retry backoff (and everything else) to
        // wall-clock time; simulated media keep the virtual clock.
        let retry_clock = if cfg.media.is_file_backed() {
            RetryClock::Wall
        } else {
            RetryClock::Virtual(Arc::clone(&clock))
        };
        // The async queue sits on top of the (possibly fault-wrapped)
        // data device. Depth is per stripe member: total in-flight =
        // io_queue_depth × stripe width, the per-device NCQ framing the
        // paper's per-SSD queues use.
        let io = if cfg.io_queue_depth > 0 {
            Some(IoQueue::new(
                Arc::clone(&data),
                cfg.io_queue_depth * cfg.media.stripe_width(),
                &obs,
            ))
        } else {
            None
        };
        let mut pool = BufferPool::with_registry_sharded(
            cfg.pool_frames,
            cfg.pool_shards,
            Arc::clone(&data),
            Arc::clone(&space),
            &obs,
        )
        .with_retry_clock(retry_clock.clone())
        .with_budget(Arc::clone(&budget));
        if let Some(io) = &io {
            pool = pool.with_io_queue(Arc::clone(io));
        }
        let pool = Arc::new(pool);
        // The WAL gets its own device of the same media class, sharing the
        // clock (commit latency is real) but neither the data trace nor
        // the `storage.device.*` counters: log pages are counted by
        // `storage.wal.*`. File media put the log in a sibling file at
        // `<path>.wal`.
        let wal_env = DeviceEnv { clock: Arc::clone(&clock), ..DeviceEnv::fresh() };
        let wal_dev: Arc<dyn Device> = match &cfg.media {
            Media::Mem => Arc::new(MemDevice::new(WAL_DEVICE_PAGES, wal_env)),
            Media::SsdRaid { flash, .. } => Arc::new(FlashDevice::new(
                FlashConfig { capacity_pages: WAL_DEVICE_PAGES, ..*flash },
                wal_env,
            )),
            Media::Hdd(h) => Arc::new(HddDevice::new(
                HddConfig { capacity_pages: WAL_DEVICE_PAGES, ..*h },
                wal_env,
            )),
            Media::File { .. } | Media::Striped { .. } => {
                let base = match &cfg.media {
                    Media::File { path } => path.clone(),
                    Media::Striped { paths } => paths[0].clone(),
                    _ => unreachable!(),
                };
                let mut wal_path = base.into_os_string();
                wal_path.push(".wal");
                Arc::new(
                    FileDevice::open(PathBuf::from(wal_path), WAL_DEVICE_PAGES, wal_env)
                        .expect("open wal file"),
                )
            }
        };
        let wal_dev: Arc<dyn Device> = if cfg.faults.wal.enabled() {
            Arc::new(FaultyDevice::new(wal_dev, cfg.faults.wal, Arc::clone(&clock), &obs))
        } else {
            wal_dev
        };
        let mut wal = Wal::with_registry(Arc::clone(&wal_dev), &obs)
            .with_config(cfg.wal)
            .with_retry_clock(retry_clock)
            .with_budget(Arc::clone(&budget))
            .with_health(Arc::clone(&health));
        if cfg.media.is_file_backed() && cfg.io_queue_depth > 0 {
            // The WAL gets its own small queue over its own device, so
            // multi-page group-commit forces overlap too. Simulated
            // media keep the synchronous path (virtual-time accounting).
            wal = wal.with_io_queue(IoQueue::new(wal_dev, cfg.io_queue_depth.min(4), &obs));
        }
        let wal = Arc::new(wal);
        let wal_used_pct_gauge = obs.gauge("storage.space.wal_used_pct");
        StorageStack {
            clock,
            trace,
            data,
            space,
            pool,
            wal,
            obs,
            io,
            health,
            budget,
            space_cfg: cfg.space,
            wal_used_pct_gauge,
        }
    }

    /// Live WAL bytes as a percentage of the configured quota.
    pub fn wal_used_pct(&self) -> u64 {
        self.wal.live_bytes() * 100 / self.space_cfg.quota_bytes().max(1)
    }

    /// Evaluates the space accountant: compares live WAL bytes against
    /// the quota watermarks, updates the `storage.space.wal_used_pct`
    /// gauge, and drives the health machine — past the hard watermark
    /// the stack flips to ReadOnly; dropping back below the low
    /// watermark (after checkpoint truncation) cures space-caused
    /// distress. Called from the engine's append paths and the
    /// maintenance loop; cheap enough for both.
    pub fn space_status(&self) -> SpaceStatus {
        let pct = self.wal_used_pct();
        self.wal_used_pct_gauge.set(pct as i64);
        if pct >= self.space_cfg.hard_watermark_pct {
            self.health.mark_space_exhausted(pct);
            SpaceStatus::Exhausted
        } else if pct >= self.space_cfg.low_watermark_pct {
            self.health.mark_space_low(pct);
            SpaceStatus::Low
        } else {
            self.health.mark_reclaimed();
            SpaceStatus::Ok
        }
    }

    /// Write gate for the engine's append paths: re-evaluates the space
    /// accountant, then asks the health machine. Fails with
    /// [`sias_common::SiasError::ReadOnly`] while the stack is in
    /// read-only mode.
    pub fn write_allowed(&self) -> SiasResult<()> {
        self.space_status();
        self.health.allow_writes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sias_common::RelId;

    #[test]
    fn in_memory_stack_works() {
        let s = StorageStack::new(&StorageConfig::in_memory());
        let rel = RelId(1);
        s.space.create_relation(rel);
        let b = s.pool.allocate_block(rel).unwrap();
        s.pool
            .with_page_mut(rel, b, |p| {
                p.add_item(b"stack").unwrap().unwrap();
            })
            .unwrap();
        assert_eq!(s.clock.now_us(), 0);
    }

    #[test]
    fn ssd_stack_charges_time_on_misses() {
        let cfg = StorageConfig::ssd().with_pool_frames(2).with_capacity_pages(1 << 14);
        let s = StorageStack::new(&cfg);
        let rel = RelId(1);
        s.space.create_relation(rel);
        let blocks: Vec<_> = (0..8).map(|_| s.pool.allocate_block(rel).unwrap()).collect();
        for &b in &blocks {
            s.pool.with_page_mut(rel, b, |p| p.set_lsn(1)).unwrap();
        }
        // Cycling through more blocks than frames forces device traffic.
        for &b in &blocks {
            s.pool.with_page(rel, b, |_| ()).unwrap();
        }
        assert!(s.clock.now_us() > 0);
        assert!(s.data.stats().host_write_pages > 0);
    }

    #[test]
    fn raid_width_builds() {
        let s = StorageStack::new(&StorageConfig::ssd_raid(6).with_capacity_pages(1 << 12));
        assert_eq!(s.data.capacity_pages(), 6 * (1 << 12));
    }

    #[test]
    fn hdd_stack_builds() {
        let s = StorageStack::new(&StorageConfig::hdd().with_capacity_pages(1 << 14));
        assert_eq!(s.data.capacity_pages(), 1 << 14);
    }

    #[test]
    fn faulty_stack_still_round_trips() {
        use crate::device::FaultConfig;
        let cfg = StorageConfig::in_memory().with_pool_frames(4).with_faults(FaultPlan {
            data: FaultConfig { seed: 77, transient_error_ppm: 200_000, ..FaultConfig::none() },
            wal: FaultConfig::none(),
        });
        let s = StorageStack::new(&cfg);
        let rel = RelId(1);
        s.space.create_relation(rel);
        let blocks: Vec<_> = (0..12).map(|_| s.pool.allocate_block(rel).unwrap()).collect();
        for (i, &b) in blocks.iter().enumerate() {
            s.pool
                .with_page_mut(rel, b, |p| {
                    p.add_item(&[i as u8; 4]).unwrap().unwrap();
                })
                .unwrap();
        }
        for (i, &b) in blocks.iter().enumerate() {
            let v = s.pool.with_page(rel, b, |p| p.item(0).unwrap().to_vec()).unwrap();
            assert_eq!(v, vec![i as u8; 4]);
        }
    }

    #[test]
    fn file_backed_stack_round_trips_and_survives_reopen() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("sias-stack-{}.dat", std::process::id()));
        let wal_path = {
            let mut p = path.clone().into_os_string();
            p.push(".wal");
            std::path::PathBuf::from(p)
        };
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&wal_path);
        let cfg = StorageConfig::file(&path)
            .with_pool_frames(8)
            .with_capacity_pages(1 << 12)
            .with_io_queue_depth(2);
        let rel = RelId(1);
        let blocks: Vec<_> = {
            let s = StorageStack::new(&cfg);
            assert!(s.io.is_some(), "file media should build an IoQueue");
            s.space.create_relation(rel);
            let blocks: Vec<_> = (0..4).map(|_| s.pool.allocate_block(rel).unwrap()).collect();
            for (i, &b) in blocks.iter().enumerate() {
                s.pool
                    .with_page_mut(rel, b, |p| {
                        p.add_item(&[i as u8; 8]).unwrap().unwrap();
                    })
                    .unwrap();
            }
            assert_eq!(s.pool.flush_all(), blocks.len());
            blocks
        };
        // A brand-new stack over the same file sees the flushed pages.
        // Re-running the (deterministic) allocation sequence rebuilds the
        // identical block → LBA mapping, so reads hit the old images.
        let s2 = StorageStack::new(&cfg);
        s2.space.create_relation(rel);
        for _ in 0..blocks.len() {
            s2.space.allocate_block(rel).unwrap();
        }
        for (i, &b) in blocks.iter().enumerate() {
            let v = s2.pool.with_page(rel, b, |p| p.item(0).unwrap().to_vec()).unwrap();
            assert_eq!(v, vec![i as u8; 8]);
        }
        drop(s2);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&wal_path);
    }

    #[test]
    fn space_watermarks_round_trip_through_readonly() {
        use crate::health::HealthState;
        use crate::wal::WalRecord;
        use sias_common::Xid;
        // Tiny quota (4 pages) so a handful of records sweeps the
        // watermarks; a big device underneath so the quota, not the
        // physical backstop, is what fires.
        let cfg = StorageConfig::in_memory().with_wal_quota_pages(4).with_space_watermarks(50, 75);
        let s = StorageStack::new(&cfg);
        assert_eq!(s.space_status(), SpaceStatus::Ok);
        assert!(s.write_allowed().is_ok());
        let payload = vec![0u8; PAGE_SIZE];
        let rec = |x| WalRecord::Insert {
            xid: Xid(x),
            rel: sias_common::RelId(1),
            tid: sias_common::Tid::new(0, 0),
            vid: sias_common::Vid(0),
            payload: payload.clone(),
        };
        s.wal.append(&rec(1));
        s.wal.append(&rec(2));
        assert_eq!(s.space_status(), SpaceStatus::Low, "2/4 pages past the 50% watermark");
        assert_eq!(s.health.state(), HealthState::Degraded);
        assert!(s.write_allowed().is_ok(), "degraded still admits writes");
        s.wal.append(&rec(3));
        assert_eq!(s.space_status(), SpaceStatus::Exhausted);
        let err = s.write_allowed().unwrap_err();
        assert!(matches!(err, sias_common::SiasError::ReadOnly(_)), "{err:?}");
        // Reclaim: force + truncate everything (a checkpoint's effect).
        s.wal.force().unwrap();
        s.wal.truncate_before(s.wal.current_lsn());
        assert_eq!(s.space_status(), SpaceStatus::Ok);
        assert_eq!(s.health.state(), HealthState::Healthy, "reclaim cures space ReadOnly");
        assert!(s.write_allowed().is_ok());
        assert!(s.obs.snapshot().counter("storage.health.recovered").unwrap_or(0) >= 1);
    }

    #[test]
    fn data_device_counts_every_page_the_trace_ring_drops() {
        let cfg = StorageConfig::in_memory().with_trace_capacity(8);
        let s = StorageStack::new(&cfg);
        s.trace.enable();
        let img = vec![1u8; PAGE_SIZE];
        for lba in 0..20 {
            s.data.write_page(lba, &img, false);
        }
        let snap = s.obs.snapshot();
        assert_eq!(snap.counter("storage.device.host_write_pages"), Some(20));
        assert_eq!(s.data.stats().host_write_pages, 20);
        assert_eq!(s.trace.len(), 8, "the ring is a window");
        assert_eq!(snap.counter("storage.trace.dropped"), Some(12));
    }

    #[test]
    fn stack_shares_one_retry_budget() {
        let s = StorageStack::new(&StorageConfig::in_memory());
        assert!(s.budget.tokens() > 0);
        assert!(s.budget.try_spend());
    }

    #[test]
    fn wal_commit_advances_clock_on_real_media() {
        use crate::wal::WalRecord;
        use sias_common::Xid;
        let s = StorageStack::new(&StorageConfig::ssd());
        s.wal.append(&WalRecord::Begin(Xid(1)));
        s.wal.append(&WalRecord::Commit(Xid(1)));
        s.wal.force().unwrap();
        assert!(s.clock.now_us() > 0);
        // ... but leaves no events in the data trace, and no pages in the
        // data device's counters.
        s.trace.enable();
        assert!(s.trace.is_empty());
        assert_eq!(s.obs.snapshot().counter("storage.device.host_write_pages"), Some(0));
        assert!(s.wal.device().stats().host_write_pages > 0);
    }
}

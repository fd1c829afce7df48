//! Storage device models.
//!
//! The paper evaluates SIAS on enterprise SLC Flash SSDs (Intel X25-E,
//! single drives and 2-/6-drive software RAID-0) and on a 7200 rpm SATA
//! HDD. The reproduction cannot assume that hardware, so this module
//! provides discrete-event device models that expose exactly the
//! properties the paper's analysis relies on:
//!
//! * **Flash** ([`flash::FlashDevice`]): fast reads, slower page
//!   programs, no in-place overwrite — a page-mapping FTL redirects every
//!   write to a clean page and garbage-collects erase blocks, so random
//!   overwrites cause relocation traffic and erases (write amplification,
//!   endurance wear). Multiple channels serve requests in parallel.
//! * **HDD** ([`hdd::HddDevice`]): a single head with symmetric random
//!   access cost (seek + rotational latency) and cheap sequential access.
//! * **RAID-0** ([`raid::Raid0`]): page-granular striping over N devices,
//!   as in the paper's 2- and 6-SSD software stripe sets.
//! * **In-memory** ([`mem::MemDevice`]): zero-latency backing store for
//!   pure-logic unit tests.
//!
//! Every device stores real page images (the buffer pool evicts to and
//! re-reads from them), charges virtual time on the shared
//! [`VirtualClock`], counts every I/O once in the [`DeviceCounters`] of
//! its [`DeviceEnv`] (`storage.device.*` in the registry for a stack's
//! data device), and records host I/Os in a [`TraceCollector`].
//! Synchronous operations advance the clock (the "host" blocks);
//! asynchronous writes (background writer, checkpointer) only occupy
//! device channels.

pub mod faulty;
pub mod file;
pub mod flash;
pub mod hdd;
pub mod mem;
pub mod raid;

use std::sync::atomic::Ordering;
use std::sync::Arc;

pub use faulty::{FaultConfig, FaultPlan, FaultyDevice};
pub use file::FileDevice;
pub use flash::{FlashConfig, FlashDevice};
pub use hdd::{HddConfig, HddDevice};
pub use mem::MemDevice;
pub use raid::Raid0;

use sias_common::{SiasResult, VirtualClock};
use sias_obs::{Counter, Histogram, Registry};

use crate::trace::TraceCollector;

/// Shared handle to any device model.
pub type DeviceRef = Arc<dyn Device>;

/// A block device addressed in [`sias_common::PAGE_SIZE`]-byte pages.
pub trait Device: Send + Sync {
    /// Synchronously reads one page into `buf` (exactly `PAGE_SIZE`
    /// bytes), advancing the virtual clock by the access latency.
    fn read_page(&self, lba: u64, buf: &mut [u8]);

    /// Writes one page. When `sync` the host blocks (clock advances);
    /// otherwise the write only occupies device time in the background.
    fn write_page(&self, lba: u64, data: &[u8], sync: bool);

    /// Copies the stored image of one page into `buf` without charging
    /// time, counting a host read or tracing it: [`FaultyDevice`]
    /// builds what a torn or dropped write leaves on the media from it.
    fn peek_page(&self, lba: u64, buf: &mut [u8]);

    /// Fallible read. The hardware models never fail (they panic on
    /// contract violations instead), so the default delegates to
    /// [`Device::read_page`]; [`FaultyDevice`] overrides this to inject
    /// transient errors that callers retry via [`RetryPolicy`].
    fn try_read_page(&self, lba: u64, buf: &mut [u8]) -> SiasResult<()> {
        self.read_page(lba, buf);
        Ok(())
    }

    /// Fallible write; see [`Device::try_read_page`].
    fn try_write_page(&self, lba: u64, data: &[u8], sync: bool) -> SiasResult<()> {
        self.write_page(lba, data, sync);
        Ok(())
    }

    /// Total logical capacity in pages.
    fn capacity_pages(&self) -> u64;

    /// Declares a logical page's contents dead (TRIM/discard). Flash
    /// devices drop the FTL mapping so garbage collection never relocates
    /// the page again — the §6 integration of database GC with the
    /// device ("transfers yet more control over the Flash storage into
    /// the MV-DBMS", as in the NoFTL line of work the paper cites).
    /// Default: no-op (HDDs, memory).
    fn trim(&self, lba: u64) {
        let _ = lba;
    }

    /// Durability barrier: blocks until every previously acknowledged
    /// write (including `sync: false` ones) is on stable media. Real
    /// file devices issue `fdatasync`; the simulated models are
    /// implicitly durable, so the default is a no-op. Checkpoint
    /// write-back and the async WAL force path call this once per batch
    /// instead of paying a sync per page.
    fn flush(&self) -> SiasResult<()> {
        Ok(())
    }

    /// A read of the device's counters. They only grow: a measured
    /// interval is the difference of two reads.
    fn stats(&self) -> DeviceStats;
}

/// Monotonic device counters.
///
/// `host_*` counts I/O the database issued; `internal_write_pages` and
/// `erases` count FTL garbage-collection work — the difference is the
/// write amplification the paper's endurance discussion (§6) is about.
/// `after - before` is the interval between two reads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Pages read by the host.
    pub host_read_pages: u64,
    /// Pages written by the host.
    pub host_write_pages: u64,
    /// Pages relocated internally by FTL garbage collection.
    pub internal_write_pages: u64,
    /// Erase-block erases performed.
    pub erases: u64,
    /// TRIM commands received.
    pub trims: u64,
}

impl DeviceStats {
    /// Host write volume in MiB.
    pub fn host_write_mb(&self) -> f64 {
        self.host_write_pages as f64 * sias_common::PAGE_SIZE as f64 / (1024.0 * 1024.0)
    }

    /// Host read volume in MiB.
    pub fn host_read_mb(&self) -> f64 {
        self.host_read_pages as f64 * sias_common::PAGE_SIZE as f64 / (1024.0 * 1024.0)
    }

    /// Write amplification factor: physical page programs per host page
    /// write (1.0 = no amplification).
    pub fn write_amplification(&self) -> f64 {
        if self.host_write_pages == 0 {
            return 1.0;
        }
        (self.host_write_pages + self.internal_write_pages) as f64 / self.host_write_pages as f64
    }
}

impl std::ops::Sub for DeviceStats {
    type Output = DeviceStats;

    fn sub(self, before: DeviceStats) -> DeviceStats {
        DeviceStats {
            host_read_pages: self.host_read_pages - before.host_read_pages,
            host_write_pages: self.host_write_pages - before.host_write_pages,
            internal_write_pages: self.internal_write_pages - before.internal_write_pages,
            erases: self.erases - before.erases,
            trims: self.trims - before.trims,
        }
    }
}

/// Handles of the five device counters, resolved once. A stack's data
/// device counts into `storage.device.*` of the stack's registry; RAID
/// members share their set, so the stripe's total is one read.
#[derive(Clone)]
pub struct DeviceCounters {
    /// `storage.device.host_read_pages`.
    pub host_read_pages: Arc<Counter>,
    /// `storage.device.host_write_pages`.
    pub host_write_pages: Arc<Counter>,
    /// `storage.device.internal_write_pages` — FTL relocations.
    pub internal_write_pages: Arc<Counter>,
    /// `storage.device.erases`.
    pub erases: Arc<Counter>,
    /// `storage.device.trims`.
    pub trims: Arc<Counter>,
}

impl DeviceCounters {
    /// Registers (or re-resolves) `storage.device.*` in `obs`.
    pub fn register(obs: &Registry) -> Self {
        let mut h = obs.handles();
        DeviceCounters {
            host_read_pages: h.counter("storage.device.host_read_pages"),
            host_write_pages: h.counter("storage.device.host_write_pages"),
            internal_write_pages: h.counter("storage.device.internal_write_pages"),
            erases: h.counter("storage.device.erases"),
            trims: h.counter("storage.device.trims"),
        }
    }

    /// A set in no registry (log devices, standalone devices, tests).
    pub fn detached() -> Self {
        Self::register(&Registry::new())
    }

    /// Current values.
    pub fn read(&self) -> DeviceStats {
        DeviceStats {
            host_read_pages: self.host_read_pages.get(),
            host_write_pages: self.host_write_pages.get(),
            internal_write_pages: self.internal_write_pages.get(),
            erases: self.erases.get(),
            trims: self.trims.get(),
        }
    }
}

/// Everything a device needs from its environment.
#[derive(Clone)]
pub struct DeviceEnv {
    /// The shared virtual clock.
    pub clock: Arc<VirtualClock>,
    /// The shared trace collector.
    pub trace: Arc<TraceCollector>,
    /// Trace/device id (distinguishes RAID members).
    pub device_id: u16,
    /// The counters every I/O of the device lands in.
    pub counters: DeviceCounters,
}

impl DeviceEnv {
    /// Environment with a fresh clock and trace and detached counters
    /// (tests, standalone use).
    pub fn fresh() -> Self {
        DeviceEnv {
            clock: VirtualClock::new(),
            trace: TraceCollector::new(),
            device_id: 0,
            counters: DeviceCounters::detached(),
        }
    }
}

/// Bounded retry policy for transient device errors, with exponential
/// backoff and deterministic seeded jitter.
///
/// The WAL and the buffer pool wrap their `try_*` I/O in [`retry_io`];
/// with [`FaultConfig::max_error_burst`] kept below `max_attempts` (the
/// defaults are 2 and 4) every injected transient fault is absorbed and
/// surfaces only as an `io_retries` counter tick. Retry `k` (1-based)
/// waits `base_backoff_us << (k-1)` µs, capped at `max_backoff_us`,
/// plus up to 50% jitter drawn from a splitmix64 stream keyed by
/// `(jitter_seed, k)` — fully deterministic, so seeded chaos runs stay
/// reproducible. Where the wait is charged depends on the
/// [`RetryClock`] in the [`RetryCtx`]: simulated devices advance the
/// virtual clock (no real time passes), real file devices sleep
/// wall-clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try included) before the error propagates.
    pub max_attempts: u32,
    /// Backoff before the first retry, in virtual microseconds. `0`
    /// disables backoff entirely (attempts are immediate).
    pub base_backoff_us: u64,
    /// Cap on the exponential term, in virtual microseconds.
    pub max_backoff_us: u64,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 4, base_backoff_us: 50, max_backoff_us: 10_000, jitter_seed: 1 }
    }
}

/// splitmix64 — the workspace's standard deterministic mixer.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl RetryPolicy {
    /// Virtual-time backoff before retry `retry` (1-based): exponential
    /// in the retry number, capped, with deterministic +0..50% jitter.
    pub fn backoff_us(&self, retry: u32) -> u64 {
        if self.base_backoff_us == 0 || retry == 0 {
            return 0;
        }
        let exp = self
            .base_backoff_us
            .saturating_mul(1u64 << (retry - 1).min(32))
            .min(self.max_backoff_us.max(self.base_backoff_us));
        let jitter = mix64(self.jitter_seed ^ u64::from(retry)) % (exp / 2 + 1);
        exp + jitter
    }
}

/// Where [`retry_io`] charges backoff waits. Simulated devices advance
/// the shared [`VirtualClock`] (deterministic, no real time passes);
/// real file devices must actually sleep wall-clock, or the backoff is
/// a lie and a busy-loop hammers the failing device.
#[derive(Clone, Debug, Default)]
pub enum RetryClock {
    /// Record the histogram but wait nowhere (standalone tests).
    #[default]
    Disabled,
    /// Charge waits to the virtual clock (simulated devices).
    Virtual(Arc<VirtualClock>),
    /// Sleep the calling thread for the backoff (real file devices).
    Wall,
}

impl RetryClock {
    /// Applies a backoff wait of `us` microseconds to this clock source.
    pub fn wait_us(&self, us: u64) {
        if us == 0 {
            return;
        }
        match self {
            RetryClock::Disabled => {}
            RetryClock::Virtual(clock) => {
                clock.advance_us(us);
            }
            RetryClock::Wall => std::thread::sleep(std::time::Duration::from_micros(us)),
        }
    }
}

/// Shared success-funded retry budget (Finagle/GFS style): every
/// successful I/O earns a fraction of a token, every retry spends a
/// whole one. Under healthy operation the bucket sits at its cap and
/// retries are free; during an error storm successes dry up, the
/// bucket drains, and further retries **fail fast** with the original
/// error instead of multiplying the offered load by `max_attempts`.
///
/// One budget is shared by every retry site on a storage stack (WAL
/// force, buffer-pool eviction/miss I/O), which is the point: the
/// per-op [`RetryPolicy`] bounds a single op's attempts, the budget
/// bounds the *aggregate* retry amplification. Fully deterministic —
/// no clocks, only op counts — so seeded chaos runs stay reproducible.
pub struct RetryBudget {
    /// Current balance, in millitokens (1 token = 1000).
    millitokens: std::sync::atomic::AtomicI64,
    /// Bucket cap in millitokens.
    cap: i64,
    /// Millitokens earned per successful op.
    earn: i64,
    /// `storage.retry.budget_exhausted` — retries denied by an empty
    /// bucket.
    pub exhausted: Arc<Counter>,
}

impl RetryBudget {
    /// A budget holding at most `cap_tokens` retries, refilled at
    /// `earn_permille`/1000 of a token per successful I/O (so a steady
    /// 10% error rate is sustainable at `earn_permille = 100`).
    pub fn new(cap_tokens: u32, earn_permille: u32) -> Self {
        let cap = i64::from(cap_tokens) * 1000;
        RetryBudget {
            millitokens: std::sync::atomic::AtomicI64::new(cap),
            cap,
            earn: i64::from(earn_permille),
            exhausted: Arc::new(Counter::new()),
        }
    }

    /// Default production shape: 10 retries of burst, 10% earn ratio.
    pub fn default_budget() -> Self {
        RetryBudget::new(10, 100)
    }

    /// Replaces the exhaustion counter with a registry-backed one.
    pub fn with_counter(mut self, exhausted: Arc<Counter>) -> Self {
        self.exhausted = exhausted;
        self
    }

    /// Credits one successful I/O.
    pub fn record_success(&self) {
        let prev = self.millitokens.fetch_add(self.earn, Ordering::Relaxed);
        // Clamp back to the cap. Benign race: concurrent earns may
        // overshoot by a few millitokens before the clamp lands.
        if prev + self.earn > self.cap {
            self.millitokens.store(self.cap, Ordering::Relaxed);
        }
    }

    /// Tries to spend one retry token. `false` = budget exhausted; the
    /// caller must give up and surface its error.
    pub fn try_spend(&self) -> bool {
        let mut cur = self.millitokens.load(Ordering::Relaxed);
        loop {
            if cur < 1000 {
                self.exhausted.inc();
                return false;
            }
            match self.millitokens.compare_exchange_weak(
                cur,
                cur - 1000,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(now) => cur = now,
            }
        }
    }

    /// Whole tokens currently in the bucket (diagnostics).
    pub fn tokens(&self) -> i64 {
        self.millitokens.load(Ordering::Relaxed) / 1000
    }
}

/// Clock and metrics context threaded through [`retry_io`]: the retry
/// counter of the calling subsystem, the shared
/// `storage.io.retry_backoff_ticks` histogram, and the clock source
/// that backoff waits are charged to.
#[derive(Clone)]
pub struct RetryCtx {
    /// Per-subsystem transient-retry counter (`storage.wal.io_retries`,
    /// `storage.buffer.io_retries`).
    pub retries: Arc<Counter>,
    /// Histogram of backoff waits in µs (virtual or wall, per the
    /// clock), shared across subsystems as
    /// `storage.io.retry_backoff_ticks`.
    pub backoff_ticks: Arc<Histogram>,
    /// Clock source backoff waits are charged to.
    pub clock: RetryClock,
    /// Stack-wide retry budget; `None` = unbudgeted (standalone tests).
    pub budget: Option<Arc<RetryBudget>>,
}

impl RetryCtx {
    /// Context with fresh, unregistered metrics and no clock (tests and
    /// standalone construction; registered variants come from the owning
    /// subsystem's `with_registry`).
    pub fn detached() -> Self {
        RetryCtx {
            retries: Arc::new(Counter::new()),
            backoff_ticks: Arc::new(Histogram::new()),
            clock: RetryClock::Disabled,
            budget: None,
        }
    }

    /// Attaches a shared retry budget.
    pub fn with_budget(mut self, budget: Arc<RetryBudget>) -> Self {
        self.budget = Some(budget);
        self
    }
}

/// `true` for errors that retrying cannot fix: out of space and
/// read-only mode are states, not transients, so [`retry_io`] surfaces
/// them on the first attempt instead of burning the backoff schedule
/// (and the shared budget) on a foregone conclusion.
fn is_permanent(e: &sias_common::SiasError) -> bool {
    e.is_resource_exhausted()
}

/// Runs `op` up to `policy.max_attempts` times, counting each retry in
/// `ctx.retries` and charging the policy's backoff schedule to the
/// context's clock source between attempts. Returns the last error if
/// every attempt fails. Retries beyond the first attempt each spend a
/// token from the shared [`RetryBudget`] (when one is attached); an
/// empty bucket fails the op fast with the first error. Permanent
/// errors ([`SiasError::DiskFull`], [`SiasError::ReadOnly`]) are never
/// retried.
///
/// [`SiasError::DiskFull`]: sias_common::SiasError::DiskFull
/// [`SiasError::ReadOnly`]: sias_common::SiasError::ReadOnly
pub fn retry_io<T>(
    policy: RetryPolicy,
    ctx: &RetryCtx,
    mut op: impl FnMut() -> SiasResult<T>,
) -> SiasResult<T> {
    let attempts = policy.max_attempts.max(1);
    let mut last = None;
    for attempt in 0..attempts {
        if attempt > 0 {
            if let Some(budget) = &ctx.budget {
                if !budget.try_spend() {
                    break;
                }
            }
            ctx.retries.inc();
            let wait = policy.backoff_us(attempt);
            ctx.backoff_ticks.record(wait);
            ctx.clock.wait_us(wait);
        }
        match op() {
            Ok(v) => {
                if let Some(budget) = &ctx.budget {
                    budget.record_success();
                }
                return Ok(v);
            }
            Err(e) => {
                let permanent = is_permanent(&e);
                last = Some(e);
                if permanent {
                    break;
                }
            }
        }
    }
    Err(last.expect("at least one attempt ran"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_amplification_math() {
        let s =
            DeviceStats { host_write_pages: 100, internal_write_pages: 50, ..Default::default() };
        assert!((s.write_amplification() - 1.5).abs() < 1e-9);
        assert_eq!(DeviceStats::default().write_amplification(), 1.0);
    }

    #[test]
    fn interval_is_a_subtraction() {
        let before = DeviceStats { host_write_pages: 5, erases: 1, ..Default::default() };
        let after = DeviceStats { host_write_pages: 12, erases: 1, trims: 2, ..Default::default() };
        let d = after - before;
        assert_eq!((d.host_write_pages, d.erases, d.trims), (7, 0, 2));
    }

    #[test]
    fn mb_conversion() {
        let s = DeviceStats { host_write_pages: 128, ..Default::default() };
        assert!((s.host_write_mb() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn retry_io_counts_retries_and_recovers() {
        let ctx = RetryCtx::detached();
        let mut fails_left = 2;
        let out = retry_io(RetryPolicy::default(), &ctx, || {
            if fails_left > 0 {
                fails_left -= 1;
                Err(sias_common::SiasError::Device("transient".into()))
            } else {
                Ok(7u32)
            }
        });
        assert_eq!(out.unwrap(), 7);
        assert_eq!(ctx.retries.get(), 2);
        assert_eq!(ctx.backoff_ticks.count(), 2, "every retry records its backoff");
    }

    #[test]
    fn retry_io_gives_up_after_max_attempts() {
        let ctx = RetryCtx::detached();
        let mut calls = 0;
        let policy = RetryPolicy { max_attempts: 3, ..RetryPolicy::default() };
        let out: SiasResult<()> = retry_io(policy, &ctx, || {
            calls += 1;
            Err(sias_common::SiasError::Device("hard".into()))
        });
        assert!(out.is_err());
        assert_eq!(calls, 3);
        assert_eq!(ctx.retries.get(), 2);
    }

    #[test]
    fn backoff_is_exponential_capped_and_deterministic() {
        let p = RetryPolicy {
            max_attempts: 8,
            base_backoff_us: 100,
            max_backoff_us: 800,
            jitter_seed: 42,
        };
        // Exponential core: retry k waits at least base << (k-1), capped.
        assert!(p.backoff_us(1) >= 100 && p.backoff_us(1) <= 150);
        assert!(p.backoff_us(2) >= 200 && p.backoff_us(2) <= 300);
        assert!(p.backoff_us(3) >= 400 && p.backoff_us(3) <= 600);
        assert!(p.backoff_us(4) >= 800 && p.backoff_us(4) <= 1200, "capped at max");
        assert!(p.backoff_us(7) >= 800 && p.backoff_us(7) <= 1200, "stays capped");
        // Deterministic: same seed, same schedule.
        let q = RetryPolicy { ..p };
        for k in 1..8 {
            assert_eq!(p.backoff_us(k), q.backoff_us(k));
        }
        // Zero base disables the wait.
        let z = RetryPolicy { base_backoff_us: 0, ..p };
        assert_eq!(z.backoff_us(3), 0);
    }

    #[test]
    fn retry_backoff_is_charged_on_the_virtual_clock() {
        let clock = VirtualClock::new();
        let ctx =
            RetryCtx { clock: RetryClock::Virtual(Arc::clone(&clock)), ..RetryCtx::detached() };
        let policy =
            RetryPolicy { max_attempts: 3, base_backoff_us: 100, ..RetryPolicy::default() };
        let before = clock.now_us();
        let out: SiasResult<()> =
            retry_io(policy, &ctx, || Err(sias_common::SiasError::Device("hard".into())));
        assert!(out.is_err());
        let elapsed = clock.now_us() - before;
        // Two retries: ≥ 100 + 200 µs of virtual backoff, jitter on top.
        assert!(elapsed >= 300, "virtual clock advanced by backoff: {elapsed}");
        assert_eq!(ctx.backoff_ticks.count(), 2);
        assert_eq!(ctx.backoff_ticks.sum(), elapsed, "histogram mirrors the charged wait");
    }

    #[test]
    fn retry_backoff_sleeps_wall_clock_on_real_devices() {
        let ctx = RetryCtx { clock: RetryClock::Wall, ..RetryCtx::detached() };
        let policy = RetryPolicy {
            max_attempts: 3,
            base_backoff_us: 2_000,
            max_backoff_us: 4_000,
            jitter_seed: 1,
        };
        let start = std::time::Instant::now();
        let out: SiasResult<()> =
            retry_io(policy, &ctx, || Err(sias_common::SiasError::Device("hard".into())));
        assert!(out.is_err());
        // Two retries: ≥ 2 + 4 ms of real sleep (jitter adds more).
        assert!(start.elapsed() >= std::time::Duration::from_micros(6_000));
        assert_eq!(ctx.backoff_ticks.count(), 2);
    }

    #[test]
    fn retry_budget_fails_fast_when_exhausted() {
        let budget = Arc::new(RetryBudget::new(2, 0)); // 2 retries, no earn
        let ctx = RetryCtx::detached().with_budget(Arc::clone(&budget));
        let mut calls = 0;
        let policy = RetryPolicy { max_attempts: 10, base_backoff_us: 0, ..Default::default() };
        let out: SiasResult<()> = retry_io(policy, &ctx, || {
            calls += 1;
            Err(sias_common::SiasError::Device("storm".into()))
        });
        assert!(out.is_err());
        // First attempt is free; only 2 budgeted retries ran.
        assert_eq!(calls, 3, "budget must cap the storm at first+2 attempts");
        assert_eq!(budget.exhausted.get(), 1, "the denied retry is counted");
        assert_eq!(ctx.retries.get(), 2);

        // A second op under the same empty budget fails after its first
        // attempt — the storm no longer amplifies.
        let mut calls2 = 0;
        let out2: SiasResult<()> = retry_io(policy, &ctx, || {
            calls2 += 1;
            Err(sias_common::SiasError::Device("storm".into()))
        });
        assert!(out2.is_err());
        assert_eq!(calls2, 1);
        assert_eq!(budget.exhausted.get(), 2);
    }

    #[test]
    fn retry_budget_refills_from_successes() {
        let budget = Arc::new(RetryBudget::new(1, 500)); // 0.5 token per success
        let ctx = RetryCtx::detached().with_budget(Arc::clone(&budget));
        let policy = RetryPolicy { max_attempts: 4, base_backoff_us: 0, ..Default::default() };
        // Drain the single token.
        let _ = retry_io::<()>(policy, &ctx, || Err(sias_common::SiasError::Device("x".into())));
        assert_eq!(budget.tokens(), 0);
        // Two successes earn a fresh token; it cannot exceed the cap.
        for _ in 0..10 {
            retry_io(policy, &ctx, || Ok(())).unwrap();
        }
        assert_eq!(budget.tokens(), 1, "earn is clamped at the cap");
        let mut fails_left = 1;
        let out = retry_io(policy, &ctx, || {
            if fails_left > 0 {
                fails_left -= 1;
                Err(sias_common::SiasError::Device("t".into()))
            } else {
                Ok(3u8)
            }
        });
        assert_eq!(out.unwrap(), 3, "refilled budget allows the retry");
    }

    #[test]
    fn permanent_errors_are_never_retried() {
        let ctx = RetryCtx::detached();
        let policy = RetryPolicy { max_attempts: 5, base_backoff_us: 0, ..Default::default() };
        let mut calls = 0;
        let out: SiasResult<()> = retry_io(policy, &ctx, || {
            calls += 1;
            Err(sias_common::SiasError::DiskFull { needed_pages: 1, free_pages: 0 })
        });
        assert!(matches!(out, Err(sias_common::SiasError::DiskFull { .. })));
        assert_eq!(calls, 1, "DiskFull must not be retried");
        assert_eq!(ctx.retries.get(), 0);
        let mut calls2 = 0;
        let out2: SiasResult<()> = retry_io(policy, &ctx, || {
            calls2 += 1;
            Err(sias_common::SiasError::ReadOnly("degraded".into()))
        });
        assert!(matches!(out2, Err(sias_common::SiasError::ReadOnly(_))));
        assert_eq!(calls2, 1);
    }

    #[test]
    fn disabled_retry_clock_waits_nowhere() {
        let ctx = RetryCtx::detached();
        let policy =
            RetryPolicy { max_attempts: 2, base_backoff_us: 1_000_000, ..RetryPolicy::default() };
        let start = std::time::Instant::now();
        let out: SiasResult<()> =
            retry_io(policy, &ctx, || Err(sias_common::SiasError::Device("hard".into())));
        assert!(out.is_err());
        assert!(start.elapsed() < std::time::Duration::from_millis(500), "no real sleep");
        assert_eq!(ctx.backoff_ticks.count(), 1, "histogram still records");
    }
}

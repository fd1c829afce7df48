//! Deterministic fault injection for device models.
//!
//! [`FaultyDevice`] wraps any [`Device`] and injects media faults drawn
//! from a seeded deterministic stream: every decision is a pure hash of
//! `(seed, operation counter, virtual-clock tick, lba, op kind)`, so a
//! given `(seed, workload)` pair reproduces the exact same fault
//! sequence bit-for-bit — the property the crash-matrix harness
//! (`sias-workload::chaos`) and the `crashmatrix` bench binary build on.
//!
//! Injectable faults:
//!
//! * **torn page writes** — only a prefix of the page's 512-byte sectors
//!   reaches the media; the tail keeps the *old* on-device contents, as
//!   after a power cut mid-program;
//! * **dropped writes** — the write is acknowledged but never persisted
//!   (a lying `fsync`, a lost flash program);
//! * **transient I/O errors** — `try_read_page` / `try_write_page` fail
//!   with [`SiasError::Device`] for a bounded burst, then recover; the
//!   WAL and buffer pool retry these (see [`super::RetryPolicy`]);
//! * **read bit-rot** — a single deterministic bit of the returned page
//!   image is flipped (transient read disturb: a retried read re-rolls).
//!
//! Every injection increments the `storage.faults.*` counters in the
//! registry the device was built with. Whatever a fault makes of a host
//! write, the wrapped device sees exactly one page write (and no read),
//! so its `storage.device.*` counters count what the host issued.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use sias_common::{SiasError, SiasResult, VirtualClock, PAGE_SIZE};
use sias_obs::{Counter, Registry};

use super::{Device, DeviceStats};

/// Sector granularity of torn writes (a Flash page is programmed in
/// 512-byte units on the modelled SLC parts).
pub const SECTOR_SIZE: usize = 512;

/// Fault probabilities in parts-per-million, plus the fault seed.
///
/// Integer ppm (not floats) keeps the decision `roll % 1_000_000 < ppm`
/// exactly reproducible across platforms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultConfig {
    /// Seed of the deterministic fault stream.
    pub seed: u64,
    /// Probability of a torn (partial-sector) page write, in ppm.
    pub torn_write_ppm: u32,
    /// Probability of a silently dropped page write, in ppm.
    pub dropped_write_ppm: u32,
    /// Probability of a transient I/O error on the fallible paths, in ppm.
    pub transient_error_ppm: u32,
    /// Probability of a single-bit flip in a page read, in ppm.
    pub bitrot_ppm: u32,
    /// Probability of an ENOSPC failure on a fallible write, in ppm.
    /// Unlike transient errors these are **not** retried ([`retry_io`]
    /// treats [`SiasError::DiskFull`] as permanent), so every append
    /// site must handle the typed error cleanly — which is exactly what
    /// the `crashmatrix --enospc` sweep exercises.
    ///
    /// [`retry_io`]: super::retry_io
    pub enospc_ppm: u32,
    /// Deterministic hard-full trigger: after this many fallible write
    /// operations the device latches "full" and every further fallible
    /// write fails with [`SiasError::DiskFull`] until
    /// [`FaultyDevice::set_full`]`(false)`. `0` disables. This is the
    /// boundary-sweep knob: setting it to *k* injects ENOSPC at exactly
    /// the *k*-th write of a deterministic workload.
    pub enospc_after_writes: u64,
    /// Maximum consecutive transient errors before the device recovers
    /// (keeps bounded retries sufficient).
    pub max_error_burst: u32,
    /// Virtual time charged per injected transient error (the host sees
    /// the failed command's latency before it can retry).
    pub error_latency_us: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::none()
    }
}

impl FaultConfig {
    /// No faults at all (the identity wrapper).
    pub fn none() -> Self {
        FaultConfig {
            seed: 0,
            torn_write_ppm: 0,
            dropped_write_ppm: 0,
            transient_error_ppm: 0,
            bitrot_ppm: 0,
            enospc_ppm: 0,
            enospc_after_writes: 0,
            max_error_burst: 2,
            error_latency_us: 200,
        }
    }

    /// A moderately hostile preset used by the chaos harness: torn and
    /// dropped writes plus transient errors, all keyed on `seed`.
    pub fn hostile(seed: u64) -> Self {
        FaultConfig {
            seed,
            torn_write_ppm: 20_000,      // 2 %
            dropped_write_ppm: 10_000,   // 1 %
            transient_error_ppm: 50_000, // 5 %
            bitrot_ppm: 5_000,           // 0.5 %
            enospc_ppm: 0,
            enospc_after_writes: 0,
            max_error_burst: 2,
            error_latency_us: 200,
        }
    }

    /// True when any fault class has a non-zero probability.
    pub fn enabled(&self) -> bool {
        self.torn_write_ppm != 0
            || self.dropped_write_ppm != 0
            || self.transient_error_ppm != 0
            || self.bitrot_ppm != 0
            || self.enospc_ppm != 0
            || self.enospc_after_writes != 0
    }
}

/// Which fault classes a device wrapped with fault injection may see.
/// Data and WAL devices are configured independently (a torn WAL tail
/// and a torn relation page have very different blast radii).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Faults of the data device (buffer-pool traffic).
    pub data: FaultConfig,
    /// Faults of the WAL device (log forces).
    pub wal: FaultConfig,
}

impl FaultPlan {
    /// No injection on either device.
    pub fn none() -> Self {
        FaultPlan::default()
    }
}

/// splitmix64 — the standard 64-bit finalizer; a pure function of its
/// input, which is all the determinism guarantee needs.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Registry-backed fault counters (`storage.faults.*`).
struct FaultCounters {
    injected: Arc<Counter>,
    torn_writes: Arc<Counter>,
    dropped_writes: Arc<Counter>,
    transient_errors: Arc<Counter>,
    bitrot: Arc<Counter>,
    enospc: Arc<Counter>,
}

impl FaultCounters {
    fn register(obs: &Registry) -> Self {
        FaultCounters {
            injected: obs.counter("storage.faults.io_faults_injected"),
            torn_writes: obs.counter("storage.faults.torn_writes"),
            dropped_writes: obs.counter("storage.faults.dropped_writes"),
            transient_errors: obs.counter("storage.faults.transient_errors"),
            bitrot: obs.counter("storage.faults.bitrot"),
            enospc: obs.counter("storage.faults.enospc"),
        }
    }
}

/// A fault-injecting wrapper around any device model.
pub struct FaultyDevice {
    inner: Arc<dyn Device>,
    cfg: FaultConfig,
    clock: Arc<VirtualClock>,
    /// Monotonic operation counter — the main determinism key.
    ops: AtomicU64,
    /// Consecutive transient errors delivered (bounds the burst).
    consecutive_errors: AtomicU32,
    /// Power-cut switch: once frozen, every write is dropped silently.
    frozen: AtomicBool,
    /// Fallible writes attempted so far (the `enospc_after_writes` key).
    writes_attempted: AtomicU64,
    /// Latched "device full" switch: while set, every fallible write
    /// fails with [`SiasError::DiskFull`].
    full: AtomicBool,
    counters: FaultCounters,
}

impl FaultyDevice {
    /// Wraps `inner`, drawing fault decisions from `cfg.seed` and
    /// recording injections in `obs` (`storage.faults.*`).
    pub fn new(
        inner: Arc<dyn Device>,
        cfg: FaultConfig,
        clock: Arc<VirtualClock>,
        obs: &Registry,
    ) -> Self {
        FaultyDevice {
            inner,
            cfg,
            clock,
            ops: AtomicU64::new(0),
            consecutive_errors: AtomicU32::new(0),
            frozen: AtomicBool::new(false),
            writes_attempted: AtomicU64::new(0),
            full: AtomicBool::new(false),
            counters: FaultCounters::register(obs),
        }
    }

    /// Latches or clears the "device full" state. Clearing it models the
    /// operator (or emergency maintenance) reclaiming space; the chaos
    /// harness uses it to verify the ReadOnly → Healthy round-trip.
    pub fn set_full(&self, full: bool) {
        self.full.store(full, Ordering::SeqCst);
        if !full {
            // Reclaim grants another `enospc_after_writes` writes;
            // without the reset every post-reclaim write would re-latch
            // immediately.
            self.writes_attempted.store(0, Ordering::SeqCst);
        }
    }

    /// True while the device is latched full.
    pub fn is_full(&self) -> bool {
        self.full.load(Ordering::SeqCst)
    }

    /// ENOSPC gate for the fallible write path. Checked before the
    /// transient-error roll: a full device is full regardless of the
    /// random stream, and the deterministic `enospc_after_writes`
    /// boundary knob must not be perturbed by ppm draws.
    fn enospc_check(&self, lba: u64) -> SiasResult<()> {
        let full = if self.full.load(Ordering::SeqCst) {
            true
        } else if self.cfg.enospc_after_writes > 0 {
            let n = self.writes_attempted.fetch_add(1, Ordering::SeqCst) + 1;
            if n >= self.cfg.enospc_after_writes {
                self.full.store(true, Ordering::SeqCst);
                true
            } else {
                false
            }
        } else if self.cfg.enospc_ppm != 0 {
            // Only draw from the stream when the knob is on: a zero-ppm
            // roll would still bump the op counter and perturb every
            // other fault class's deterministic sequence.
            Self::fires(self.roll(13, lba), self.cfg.enospc_ppm)
        } else {
            false
        };
        if full {
            self.counters.injected.inc();
            self.counters.enospc.inc();
            return Err(SiasError::DiskFull { needed_pages: 1, free_pages: 0 });
        }
        Ok(())
    }

    /// The wrapped device.
    pub fn inner(&self) -> &Arc<dyn Device> {
        &self.inner
    }

    /// Simulates a power cut: every subsequent write is acknowledged but
    /// dropped. Reads keep working (the survived media image).
    pub fn freeze(&self) {
        self.frozen.store(true, Ordering::SeqCst);
    }

    /// One deterministic draw for the current operation. `kind` salts
    /// read/write decisions apart so the streams do not alias.
    fn roll(&self, kind: u64, lba: u64) -> u64 {
        let op = self.ops.fetch_add(1, Ordering::Relaxed);
        splitmix64(
            self.cfg
                .seed
                .wrapping_mul(0xA24B_AED4_963E_E407)
                .wrapping_add(op)
                .wrapping_add(self.clock.now_us().rotate_left(17))
                .wrapping_add(kind.rotate_left(41))
                .wrapping_add(lba.rotate_left(23)),
        )
    }

    fn fires(roll: u64, ppm: u32) -> bool {
        ppm != 0 && roll % 1_000_000 < ppm as u64
    }

    /// Injects a transient error when the stream says so, respecting the
    /// burst bound so bounded retries always recover.
    fn transient_error(&self, roll: u64, lba: u64, dir: &str) -> SiasResult<()> {
        if Self::fires(roll, self.cfg.transient_error_ppm) {
            let burst = self.consecutive_errors.fetch_add(1, Ordering::Relaxed);
            if burst < self.cfg.max_error_burst {
                self.counters.injected.inc();
                self.counters.transient_errors.inc();
                self.clock.advance_us(self.cfg.error_latency_us);
                return Err(SiasError::Device(format!(
                    "injected transient {dir} error at lba {lba}"
                )));
            }
        }
        self.consecutive_errors.store(0, Ordering::Relaxed);
        Ok(())
    }

    fn do_read(&self, lba: u64, buf: &mut [u8]) {
        self.inner.read_page(lba, buf);
        let roll = self.roll(3, lba);
        if Self::fires(roll, self.cfg.bitrot_ppm) {
            self.counters.injected.inc();
            self.counters.bitrot.inc();
            let bit = (roll >> 24) as usize % (PAGE_SIZE * 8);
            buf[bit / 8] ^= 1 << (bit % 8);
        }
    }

    /// How many leading sectors of this write reach the media: none
    /// when frozen or dropped, 1..=15 when torn, all of them otherwise.
    fn persisted_sectors(&self, lba: u64) -> usize {
        const ALL: usize = PAGE_SIZE / SECTOR_SIZE;
        if self.frozen.load(Ordering::SeqCst) {
            return 0;
        }
        let roll = self.roll(5, lba);
        if Self::fires(roll, self.cfg.dropped_write_ppm) {
            self.counters.injected.inc();
            self.counters.dropped_writes.inc();
            return 0;
        }
        if Self::fires(roll.rotate_right(20), self.cfg.torn_write_ppm) {
            self.counters.injected.inc();
            self.counters.torn_writes.inc();
            return 1 + (roll >> 40) as usize % (ALL - 1);
        }
        ALL
    }

    /// A faulted write still reaches the wrapped device as one write, of
    /// the stored image with the persisted sector prefix of `data` over
    /// it: the tail keeps whatever the media held before the interrupted
    /// program, and a dropped write rewrites the old image unchanged.
    fn do_write(&self, lba: u64, data: &[u8], sync: bool) {
        let persisted = self.persisted_sectors(lba) * SECTOR_SIZE;
        if persisted == PAGE_SIZE {
            self.inner.write_page(lba, data, sync);
            return;
        }
        let mut image = vec![0u8; PAGE_SIZE];
        self.inner.peek_page(lba, &mut image);
        image[..persisted].copy_from_slice(&data[..persisted]);
        self.inner.write_page(lba, &image, sync);
    }
}

impl Device for FaultyDevice {
    fn read_page(&self, lba: u64, buf: &mut [u8]) {
        self.do_read(lba, buf);
    }

    fn write_page(&self, lba: u64, data: &[u8], sync: bool) {
        self.do_write(lba, data, sync);
    }

    fn peek_page(&self, lba: u64, buf: &mut [u8]) {
        self.inner.peek_page(lba, buf);
    }

    fn try_read_page(&self, lba: u64, buf: &mut [u8]) -> SiasResult<()> {
        self.transient_error(self.roll(7, lba), lba, "read")?;
        self.do_read(lba, buf);
        Ok(())
    }

    fn try_write_page(&self, lba: u64, data: &[u8], sync: bool) -> SiasResult<()> {
        self.enospc_check(lba)?;
        self.transient_error(self.roll(11, lba), lba, "write")?;
        self.do_write(lba, data, sync);
        Ok(())
    }

    fn capacity_pages(&self) -> u64 {
        self.inner.capacity_pages()
    }

    fn trim(&self, lba: u64) {
        self.inner.trim(lba);
    }

    fn flush(&self) -> SiasResult<()> {
        // A frozen (power-cut) device can no longer make anything
        // durable; the dropped writes are already gone.
        if self.frozen.load(Ordering::SeqCst) {
            return Ok(());
        }
        self.inner.flush()
    }

    fn stats(&self) -> DeviceStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::MemDevice;

    fn faulty(cfg: FaultConfig) -> (FaultyDevice, Arc<Registry>) {
        let obs = Registry::new_shared();
        let clock = VirtualClock::new();
        let inner: Arc<dyn Device> = Arc::new(MemDevice::standalone(1 << 10));
        (FaultyDevice::new(inner, cfg, clock, &obs), obs)
    }

    fn run_script(cfg: FaultConfig) -> (Vec<Vec<u8>>, u64) {
        let (d, obs) = faulty(cfg);
        let mut images = Vec::new();
        for i in 0..200u64 {
            let lba = i % 64;
            let page = vec![(i % 251) as u8; PAGE_SIZE];
            let _ = d.try_write_page(lba, &page, true); // errors allowed
            d.write_page(lba, &page, true);
        }
        for lba in 0..64u64 {
            let mut buf = vec![0u8; PAGE_SIZE];
            d.read_page(lba, &mut buf);
            images.push(buf);
        }
        (images, obs.snapshot().counter("storage.faults.io_faults_injected").unwrap())
    }

    #[test]
    fn same_seed_same_faults_same_images() {
        let cfg = FaultConfig { seed: 42, ..FaultConfig::hostile(42) };
        let (a, fa) = run_script(cfg);
        let (b, fb) = run_script(cfg);
        assert!(fa > 0, "the hostile preset must inject something in 400 ops");
        assert_eq!(fa, fb, "fault counts must reproduce");
        assert_eq!(a, b, "media images must reproduce bit-for-bit");
    }

    #[test]
    fn different_seed_different_stream() {
        let (_, fa) = run_script(FaultConfig::hostile(1));
        let (im_a, _) = run_script(FaultConfig::hostile(1));
        let (im_b, fb) = run_script(FaultConfig::hostile(2));
        // Counts may coincide, images across 64 pages essentially cannot.
        let _ = (fa, fb);
        assert_ne!(im_a, im_b);
    }

    #[test]
    fn torn_write_keeps_old_tail() {
        // 100 % torn writes: the new image lands only partially.
        let cfg = FaultConfig { seed: 7, torn_write_ppm: 1_000_000, ..FaultConfig::none() };
        let (d, _) = faulty(cfg);
        let old = vec![0xAAu8; PAGE_SIZE];
        d.inner().write_page(3, &old, true); // pristine pre-image
        let new = vec![0x55u8; PAGE_SIZE];
        d.write_page(3, &new, true);
        let s = d.stats();
        assert_eq!(
            (s.host_write_pages, s.host_read_pages),
            (2, 0),
            "pre-image and torn write only"
        );
        let mut buf = vec![0u8; PAGE_SIZE];
        d.inner().read_page(3, &mut buf);
        let torn_at = buf.iter().position(|&b| b == 0xAA).expect("old tail must survive");
        assert!(torn_at >= SECTOR_SIZE, "at least one sector of the new image persists");
        assert_eq!(torn_at % SECTOR_SIZE, 0, "tears happen at sector granularity");
        assert!(buf[..torn_at].iter().all(|&b| b == 0x55));
        assert!(buf[torn_at..].iter().all(|&b| b == 0xAA));
    }

    #[test]
    fn dropped_write_leaves_old_image() {
        let cfg = FaultConfig { seed: 9, dropped_write_ppm: 1_000_000, ..FaultConfig::none() };
        let (d, obs) = faulty(cfg);
        let old = vec![1u8; PAGE_SIZE];
        d.inner().write_page(0, &old, true);
        d.write_page(0, &vec![2u8; PAGE_SIZE], true);
        let s = d.stats();
        assert_eq!((s.host_write_pages, s.host_read_pages), (2, 0), "the host issued two writes");
        let mut buf = vec![0u8; PAGE_SIZE];
        d.read_page(0, &mut buf);
        assert_eq!(buf, old);
        assert_eq!(obs.snapshot().counter("storage.faults.dropped_writes"), Some(1));
    }

    #[test]
    fn transient_errors_are_burst_bounded() {
        let cfg = FaultConfig {
            seed: 3,
            transient_error_ppm: 1_000_000,
            max_error_burst: 2,
            ..FaultConfig::none()
        };
        let (d, _) = faulty(cfg);
        let page = vec![9u8; PAGE_SIZE];
        let mut errors = 0;
        for _ in 0..3 {
            if d.try_write_page(0, &page, true).is_err() {
                errors += 1;
            }
        }
        assert_eq!(errors, 2, "third attempt must succeed (burst bound)");
        let mut buf = vec![0u8; PAGE_SIZE];
        d.read_page(0, &mut buf);
        assert_eq!(buf, page);
    }

    #[test]
    fn transient_errors_charge_virtual_time() {
        let cfg = FaultConfig { seed: 3, transient_error_ppm: 1_000_000, ..FaultConfig::none() };
        let (d, _) = faulty(cfg);
        let before = d.clock.now_us();
        let _ = d.try_read_page(0, &mut vec![0u8; PAGE_SIZE]);
        assert_eq!(d.clock.now_us(), before + cfg.error_latency_us);
    }

    #[test]
    fn bitrot_flips_exactly_one_bit() {
        let cfg = FaultConfig { seed: 5, bitrot_ppm: 1_000_000, ..FaultConfig::none() };
        let (d, obs) = faulty(cfg);
        let page = vec![0u8; PAGE_SIZE];
        d.inner().write_page(0, &page, true);
        let mut buf = vec![0u8; PAGE_SIZE];
        d.read_page(0, &mut buf);
        let flipped: u32 = buf.iter().map(|b| b.count_ones()).sum();
        assert_eq!(flipped, 1);
        assert_eq!(obs.snapshot().counter("storage.faults.bitrot"), Some(1));
    }

    #[test]
    fn freeze_drops_every_write() {
        let (d, _) = faulty(FaultConfig::none());
        let page = vec![4u8; PAGE_SIZE];
        d.write_page(0, &page, true);
        d.freeze();
        d.write_page(0, &vec![8u8; PAGE_SIZE], true);
        assert_eq!(d.stats().host_write_pages, 2, "a post-freeze write is still a host write");
        let mut buf = vec![0u8; PAGE_SIZE];
        d.read_page(0, &mut buf);
        assert_eq!(buf, page, "post-freeze writes must not reach the media");
    }

    #[test]
    fn enospc_after_writes_latches_until_cleared() {
        let cfg = FaultConfig { seed: 1, enospc_after_writes: 3, ..FaultConfig::none() };
        let (d, obs) = faulty(cfg);
        let page = vec![6u8; PAGE_SIZE];
        d.try_write_page(0, &page, true).unwrap();
        d.try_write_page(1, &page, true).unwrap();
        let err = d.try_write_page(2, &page, true).unwrap_err();
        assert!(matches!(err, SiasError::DiskFull { .. }), "{err:?}");
        assert!(d.is_full(), "third write latches the device full");
        // Latched: every further write fails, reads keep working.
        assert!(d.try_write_page(3, &page, true).is_err());
        let mut buf = vec![0u8; PAGE_SIZE];
        d.try_read_page(0, &mut buf).unwrap();
        assert_eq!(buf, page);
        assert_eq!(obs.snapshot().counter("storage.faults.enospc"), Some(2));
        // Reclaim: writes flow again.
        d.set_full(false);
        d.try_write_page(2, &page, true).unwrap();
    }

    #[test]
    fn enospc_ppm_is_deterministic() {
        let cfg = FaultConfig { seed: 11, enospc_ppm: 300_000, ..FaultConfig::none() };
        let outcomes = |cfg: FaultConfig| {
            let (d, _) = faulty(cfg);
            (0..100u64)
                .map(|i| d.try_write_page(i % 16, &vec![1u8; PAGE_SIZE], true).is_err())
                .collect::<Vec<_>>()
        };
        let a = outcomes(cfg);
        let b = outcomes(cfg);
        assert_eq!(a, b, "enospc stream must reproduce");
        assert!(a.iter().any(|&e| e), "30% ppm must fire in 100 writes");
        assert!(!a.iter().all(|&e| e), "and must not fire every time");
    }

    #[test]
    fn no_faults_is_transparent() {
        let (d, obs) = faulty(FaultConfig::none());
        for lba in 0..32u64 {
            let page = vec![lba as u8; PAGE_SIZE];
            d.try_write_page(lba, &page, true).unwrap();
            let mut buf = vec![0u8; PAGE_SIZE];
            d.try_read_page(lba, &mut buf).unwrap();
            assert_eq!(buf, page);
        }
        assert_eq!(obs.snapshot().counter("storage.faults.io_faults_injected"), Some(0));
    }
}

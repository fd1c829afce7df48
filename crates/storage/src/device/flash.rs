//! Flash SSD model with a page-mapping FTL.
//!
//! Models the properties §1 and §6 of the paper build on:
//!
//! * read/write asymmetry — page reads are several times faster than page
//!   programs;
//! * no in-place update — a logical overwrite invalidates the old
//!   physical page and programs a new one at the write frontier;
//! * erase-before-rewrite — space is reclaimed in erase-block granularity
//!   by garbage collection, which relocates still-valid pages (write
//!   amplification) and performs slow erases;
//! * internal parallelism — `channels` independent service queues; the
//!   physical page number selects the channel, so sequential appends
//!   stripe across channels just like real SSD write frontiers.
//!
//! Latency defaults approximate the Intel X25-E SLC drives of the paper's
//! testbed (fast SLC reads, ~4× slower programs, millisecond erases).

use parking_lot::Mutex;
use sias_common::PAGE_SIZE;

use super::{Device, DeviceCounters, DeviceEnv, DeviceStats};
use crate::trace::{IoDir, TraceEvent};

/// Flash device geometry and timing.
#[derive(Clone, Copy, Debug)]
pub struct FlashConfig {
    /// Logical capacity in pages.
    pub capacity_pages: u64,
    /// Pages per erase block.
    pub pages_per_block: u32,
    /// Physical over-provisioning fraction (extra blocks beyond logical
    /// capacity; real SSDs reserve ~7–28 %).
    pub overprovision: f64,
    /// Page read latency, µs.
    pub read_us: u64,
    /// Page program latency, µs.
    pub program_us: u64,
    /// Block erase latency, µs.
    pub erase_us: u64,
    /// Independent service channels.
    pub channels: usize,
}

impl Default for FlashConfig {
    fn default() -> Self {
        // Calibrated to the Intel X25-E datasheet: ~35 k random read
        // IOPS and ~3.3 k random write IOPS. With 4 independent service
        // units that is ≈ 120 µs per page read and ≈ 1.2 ms per
        // effective page program (FTL and SATA overheads folded into the
        // service time), millisecond-class erases.
        FlashConfig {
            capacity_pages: 64 * 1024, // 512 MiB logical
            pages_per_block: 64,
            overprovision: 0.10,
            read_us: 120,
            program_us: 1200,
            erase_us: 2000,
            channels: 4,
        }
    }
}

struct Ftl {
    /// logical page -> physical page (u64::MAX = unmapped).
    map: Vec<u64>,
    /// physical page -> owning logical page (u64::MAX = free/invalid).
    owner: Vec<u64>,
    /// valid-page count per erase block.
    valid: Vec<u32>,
    /// blocks with no valid data, fully erased, ready for programming.
    free_blocks: Vec<u32>,
    /// the block currently being programmed and the next page within it.
    active_block: u32,
    next_in_block: u32,
    /// per-channel busy-until times (µs).
    channel_free: Vec<u64>,
    /// round-robin cursor used to spread GC relocations.
    phys_blocks: u32,
}

/// A Flash SSD with page-mapping FTL, greedy garbage collection and
/// channel parallelism. Stores real page images keyed by *logical* page
/// number.
pub struct FlashDevice {
    cfg: FlashConfig,
    env: DeviceEnv,
    ftl: Mutex<Ftl>,
    data: Mutex<Vec<Option<Box<[u8]>>>>,
}

impl FlashDevice {
    /// Creates a device with the given geometry.
    pub fn new(cfg: FlashConfig, env: DeviceEnv) -> Self {
        let logical_blocks = cfg.capacity_pages.div_ceil(cfg.pages_per_block as u64);
        let phys_blocks = ((logical_blocks as f64 * (1.0 + cfg.overprovision)).ceil() as u32)
            .max(logical_blocks as u32 + 2);
        let phys_pages = phys_blocks as u64 * cfg.pages_per_block as u64;
        let ftl = Ftl {
            map: vec![u64::MAX; cfg.capacity_pages as usize],
            owner: vec![u64::MAX; phys_pages as usize],
            valid: vec![0; phys_blocks as usize],
            free_blocks: (1..phys_blocks).rev().collect(),
            active_block: 0,
            next_in_block: 0,
            channel_free: vec![0; cfg.channels.max(1)],
            phys_blocks,
        };
        FlashDevice {
            env,
            ftl: Mutex::new(ftl),
            data: Mutex::new(vec![None; cfg.capacity_pages as usize]),
            cfg,
        }
    }

    /// Device with default config and a fresh environment (tests).
    pub fn default_standalone() -> Self {
        FlashDevice::new(FlashConfig::default(), DeviceEnv::fresh())
    }

    fn charge(&self, phys_hint: u64, cost_us: u64, sync: bool) {
        let now = self.env.clock.now_us();
        let mut ftl = self.ftl.lock();
        let nch = ftl.channel_free.len() as u64;
        let ch = (phys_hint % nch) as usize;
        let start = now.max(ftl.channel_free[ch]);
        let done = start + cost_us;
        ftl.channel_free[ch] = done;
        drop(ftl);
        if sync {
            self.env.clock.advance_to_us(done);
        }
    }

    /// Allocates the next physical page at the write frontier, running
    /// garbage collection when the active block fills and no free block
    /// remains. Returns the physical page number. Caller holds the FTL
    /// lock.
    ///
    /// GC model: pick the sealed block with the fewest valid pages, read
    /// its survivors, erase the block, and program the survivors back at
    /// the front of the now-clean block, which then becomes the new
    /// active block (a copy-back-style greedy collector). Progress is
    /// guaranteed by over-provisioning: total valid pages ≤ logical
    /// capacity < physical capacity, so the minimum-valid sealed block is
    /// never completely full.
    fn alloc_phys(
        ftl: &mut Ftl,
        cfg: &FlashConfig,
        counters: &DeviceCounters,
        busy: &mut u64,
    ) -> u64 {
        while ftl.next_in_block >= cfg.pages_per_block {
            if let Some(b) = ftl.free_blocks.pop() {
                ftl.active_block = b;
                ftl.next_in_block = 0;
            } else {
                // Greedy GC: victim = sealed block with fewest valid pages.
                let active = ftl.active_block;
                let victim = (0..ftl.phys_blocks)
                    .filter(|&b| b != active)
                    .min_by_key(|&b| ftl.valid[b as usize])
                    .expect("device has more than one block");
                let relocated = ftl.valid[victim as usize] as u64;
                debug_assert!(
                    relocated < cfg.pages_per_block as u64,
                    "over-provisioning guarantees a non-full victim"
                );
                counters.internal_write_pages.add(relocated);
                counters.erases.inc();
                *busy += relocated * (cfg.read_us + cfg.program_us) + cfg.erase_us;
                // Erase + copy survivors back to the front of the block.
                let base = victim as u64 * cfg.pages_per_block as u64;
                let mut kept = 0u32;
                for i in 0..cfg.pages_per_block as u64 {
                    let p = base + i;
                    let l = ftl.owner[p as usize];
                    if l != u64::MAX {
                        let np = base + kept as u64;
                        ftl.owner[p as usize] = u64::MAX;
                        ftl.owner[np as usize] = l;
                        ftl.map[l as usize] = np;
                        kept += 1;
                    }
                }
                ftl.valid[victim as usize] = kept;
                ftl.active_block = victim;
                ftl.next_in_block = kept;
            }
        }
        let phys = ftl.active_block as u64 * cfg.pages_per_block as u64 + ftl.next_in_block as u64;
        ftl.next_in_block += 1;
        phys
    }
}

impl Device for FlashDevice {
    fn read_page(&self, lba: u64, buf: &mut [u8]) {
        assert!(lba < self.cfg.capacity_pages, "read past device capacity");
        assert_eq!(buf.len(), PAGE_SIZE);
        self.env.counters.host_read_pages.inc();
        self.env.trace.record(TraceEvent {
            time_us: self.env.clock.now_us(),
            device: self.env.device_id,
            lba,
            pages: 1,
            dir: IoDir::Read,
        });
        let phys = {
            let ftl = self.ftl.lock();
            let p = ftl.map[lba as usize];
            if p == u64::MAX {
                lba
            } else {
                p
            }
        };
        self.charge(phys, self.cfg.read_us, true);
        self.peek_page(lba, buf);
    }

    fn peek_page(&self, lba: u64, buf: &mut [u8]) {
        match &self.data.lock()[lba as usize] {
            Some(img) => buf.copy_from_slice(img),
            None => buf.fill(0),
        }
    }

    fn write_page(&self, lba: u64, data: &[u8], sync: bool) {
        assert!(lba < self.cfg.capacity_pages, "write past device capacity");
        assert_eq!(data.len(), PAGE_SIZE);
        self.env.counters.host_write_pages.inc();
        self.env.trace.record(TraceEvent {
            time_us: self.env.clock.now_us(),
            device: self.env.device_id,
            lba,
            pages: 1,
            dir: IoDir::Write,
        });
        let mut gc_busy = 0u64;
        let phys = {
            let mut ftl = self.ftl.lock();
            // Invalidate the previous physical location (out-of-place).
            let old = ftl.map[lba as usize];
            if old != u64::MAX {
                let blk = (old / self.cfg.pages_per_block as u64) as usize;
                ftl.valid[blk] = ftl.valid[blk].saturating_sub(1);
                ftl.owner[old as usize] = u64::MAX;
            }
            let phys = Self::alloc_phys(&mut ftl, &self.cfg, &self.env.counters, &mut gc_busy);
            ftl.map[lba as usize] = phys;
            ftl.owner[phys as usize] = lba;
            let blk = (phys / self.cfg.pages_per_block as u64) as usize;
            ftl.valid[blk] += 1;
            phys
        };
        self.charge(phys, self.cfg.program_us + gc_busy, sync);
        let mut store = self.data.lock();
        store[lba as usize] = Some(data.to_vec().into_boxed_slice());
    }

    fn capacity_pages(&self) -> u64 {
        self.cfg.capacity_pages
    }

    fn trim(&self, lba: u64) {
        if lba >= self.cfg.capacity_pages {
            return;
        }
        self.env.counters.trims.inc();
        let mut ftl = self.ftl.lock();
        let phys = ftl.map[lba as usize];
        if phys != u64::MAX {
            let blk = (phys / self.cfg.pages_per_block as u64) as usize;
            ftl.valid[blk] = ftl.valid[blk].saturating_sub(1);
            ftl.owner[phys as usize] = u64::MAX;
            ftl.map[lba as usize] = u64::MAX;
        }
        drop(ftl);
        self.data.lock()[lba as usize] = None;
    }

    fn stats(&self) -> DeviceStats {
        self.env.counters.read()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sias_common::PAGE_SIZE;

    fn small_flash() -> FlashDevice {
        FlashDevice::new(
            FlashConfig {
                capacity_pages: 256,
                pages_per_block: 16,
                overprovision: 0.25,
                ..Default::default()
            },
            DeviceEnv::fresh(),
        )
    }

    #[test]
    fn read_of_unwritten_page_is_zeroes() {
        let d = small_flash();
        let mut buf = vec![0xFFu8; PAGE_SIZE];
        d.read_page(3, &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn write_then_read_roundtrip() {
        let d = small_flash();
        let img = vec![0xABu8; PAGE_SIZE];
        d.write_page(7, &img, true);
        let mut buf = vec![0u8; PAGE_SIZE];
        d.read_page(7, &mut buf);
        assert_eq!(buf, img);
        let s = d.stats();
        assert_eq!(s.host_write_pages, 1);
        assert_eq!(s.host_read_pages, 1);
    }

    #[test]
    fn sync_read_advances_clock() {
        let d = small_flash();
        let t0 = d.env.clock.now_us();
        let mut buf = vec![0u8; PAGE_SIZE];
        d.read_page(0, &mut buf);
        assert!(d.env.clock.now_us() >= t0 + d.cfg.read_us);
    }

    #[test]
    fn async_write_does_not_advance_clock() {
        let d = small_flash();
        let t0 = d.env.clock.now_us();
        d.write_page(0, &vec![0u8; PAGE_SIZE], false);
        assert_eq!(d.env.clock.now_us(), t0);
        assert_eq!(d.stats().host_write_pages, 1);
    }

    #[test]
    fn overwrites_trigger_gc_and_amplification() {
        let d = small_flash();
        let img = vec![1u8; PAGE_SIZE];
        // Hammer a small logical range so the FTL must erase and relocate.
        for round in 0..40 {
            for lba in 0..64u64 {
                let mut img = img.clone();
                img[0] = round as u8;
                d.write_page(lba, &img, false);
            }
        }
        let s = d.stats();
        assert_eq!(s.host_write_pages, 40 * 64);
        assert!(s.erases > 0, "GC must have erased blocks");
        assert!(s.write_amplification() >= 1.0);
        // Data still correct after all the relocation bookkeeping.
        let mut buf = vec![0u8; PAGE_SIZE];
        d.read_page(5, &mut buf);
        assert_eq!(buf[0], 39);
    }

    #[test]
    fn random_overwrites_amplify_more_than_sequential() {
        // The endurance argument of §6: scattered small overwrites cause
        // more GC relocation than bulk sequential (append-style) writes.
        use rand::prelude::*;
        let seq = small_flash();
        let img = vec![2u8; PAGE_SIZE];
        for round in 0..30 {
            let _ = round;
            for lba in 0..256u64 {
                seq.write_page(lba, &img, false);
            }
        }
        let rnd = small_flash();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..(30 * 256) {
            let lba = rng.random_range(0..256u64);
            rnd.write_page(lba, &img, false);
        }
        // Sequential whole-device rewrites free entire blocks at once:
        // amplification stays at 1.0. Random overwrites relocate.
        assert!(
            rnd.stats().write_amplification() >= seq.stats().write_amplification(),
            "random WA {} < sequential WA {}",
            rnd.stats().write_amplification(),
            seq.stats().write_amplification()
        );
    }

    #[test]
    fn channel_parallelism_overlaps_requests() {
        // Two devices, same workload, different channel counts: more
        // channels => less total elapsed virtual time for scattered reads.
        let mk = |channels| {
            FlashDevice::new(
                FlashConfig { capacity_pages: 1024, channels, ..Default::default() },
                DeviceEnv::fresh(),
            )
        };
        let elapsed = |d: &FlashDevice| {
            let mut buf = vec![0u8; PAGE_SIZE];
            // Interleave across LBAs; each read is sync but lands on a
            // different channel, so busy channels overlap less.
            for lba in 0..100u64 {
                d.read_page(lba * 7 % 1024, &mut buf);
            }
            d.env.clock.now_us()
        };
        let t1 = elapsed(&mk(1));
        let t8 = elapsed(&mk(8));
        assert!(t8 <= t1, "8-channel device should not be slower: {t8} vs {t1}");
    }

    #[test]
    fn trim_drops_mapping_and_reads_zero() {
        let d = small_flash();
        d.write_page(5, &vec![0xAAu8; PAGE_SIZE], true);
        d.trim(5);
        assert_eq!(d.stats().trims, 1);
        let mut buf = vec![0xFFu8; PAGE_SIZE];
        d.read_page(5, &mut buf);
        assert!(buf.iter().all(|&b| b == 0), "trimmed page reads as zeroes");
    }

    #[test]
    fn trimmed_pages_are_never_relocated() {
        // Two identical overwrite workloads; one TRIMs half the range
        // between rounds. The trimmed run must relocate fewer pages.
        let run = |trim: bool| {
            let d = small_flash();
            let img = vec![1u8; PAGE_SIZE];
            for round in 0..40 {
                for lba in 0..64u64 {
                    d.write_page(lba, &img, false);
                }
                if trim && round % 2 == 0 {
                    for lba in 0..32u64 {
                        d.trim(lba);
                    }
                }
            }
            d.stats()
        };
        let without = run(false);
        let with = run(true);
        assert!(
            with.internal_write_pages <= without.internal_write_pages,
            "TRIM must not increase relocation: {} vs {}",
            with.internal_write_pages,
            without.internal_write_pages
        );
    }

    #[test]
    fn capacity_is_reported() {
        assert_eq!(small_flash().capacity_pages(), 256);
    }
}

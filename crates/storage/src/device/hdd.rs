//! Spinning-disk model.
//!
//! The paper's §5.4 HDD experiment (Seagate ST3320613AS, 7200 rpm) relies
//! on two properties this model reproduces:
//!
//! * random accesses pay a seek plus half a rotation, and the cost is
//!   **symmetric** for reads and writes ("random access costs are
//!   symmetric");
//! * sequential accesses (the next LBA after the previous request) pay
//!   only transfer time — which is what makes SIAS's append pattern cheap
//!   on HDD too.
//!
//! A single head position serializes all requests (no parallelism).

use parking_lot::Mutex;
use sias_common::PAGE_SIZE;
use std::collections::HashMap;

use super::{Device, DeviceEnv, DeviceStats};
use crate::trace::{IoDir, TraceEvent};

/// HDD timing parameters.
#[derive(Clone, Copy, Debug)]
pub struct HddConfig {
    /// Logical capacity in pages.
    pub capacity_pages: u64,
    /// Average seek time, µs.
    pub seek_us: u64,
    /// Average rotational delay (half a revolution), µs.
    pub rotational_us: u64,
    /// Transfer time per 8 KiB page, µs.
    pub transfer_us: u64,
}

impl Default for HddConfig {
    fn default() -> Self {
        // 7200 rpm SATA drive: ~8.5 ms avg seek, 4.17 ms half-rotation,
        // ~110 MB/s media rate => ~72 µs per 8 KiB page.
        HddConfig {
            capacity_pages: 256 * 1024,
            seek_us: 8500,
            rotational_us: 4170,
            transfer_us: 72,
        }
    }
}

struct Head {
    /// LBA immediately after the last transferred page.
    next_seq_lba: u64,
    /// Busy-until time, µs.
    free_at: u64,
}

/// A single-spindle hard disk storing real page images.
pub struct HddDevice {
    cfg: HddConfig,
    env: DeviceEnv,
    head: Mutex<Head>,
    data: Mutex<HashMap<u64, Box<[u8]>>>,
}

impl HddDevice {
    /// Creates a disk with the given parameters.
    pub fn new(cfg: HddConfig, env: DeviceEnv) -> Self {
        HddDevice {
            cfg,
            env,
            head: Mutex::new(Head { next_seq_lba: 0, free_at: 0 }),
            data: Mutex::new(HashMap::new()),
        }
    }

    /// Disk with default config and a fresh environment (tests).
    pub fn default_standalone() -> Self {
        HddDevice::new(HddConfig::default(), DeviceEnv::fresh())
    }

    fn access(&self, lba: u64, sync: bool) {
        let now = self.env.clock.now_us();
        let mut head = self.head.lock();
        let positioning =
            if lba == head.next_seq_lba { 0 } else { self.cfg.seek_us + self.cfg.rotational_us };
        let start = now.max(head.free_at);
        let done = start + positioning + self.cfg.transfer_us;
        head.free_at = done;
        head.next_seq_lba = lba + 1;
        drop(head);
        if sync {
            self.env.clock.advance_to_us(done);
        }
    }
}

impl Device for HddDevice {
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
        self.access(lba, true);
        match self.data.lock().get(&lba) {
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
        self.access(lba, sync);
        self.data.lock().insert(lba, data.to_vec().into_boxed_slice());
    }

    fn capacity_pages(&self) -> u64 {
        self.cfg.capacity_pages
    }

    fn stats(&self) -> DeviceStats {
        self.env.counters.read()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let d = HddDevice::default_standalone();
        let img = vec![9u8; PAGE_SIZE];
        d.write_page(11, &img, true);
        let mut buf = vec![0u8; PAGE_SIZE];
        d.read_page(11, &mut buf);
        assert_eq!(buf, img);
    }

    #[test]
    fn sequential_much_cheaper_than_random() {
        let seq = HddDevice::default_standalone();
        let mut buf = vec![0u8; PAGE_SIZE];
        for lba in 0..100u64 {
            seq.read_page(lba, &mut buf);
        }
        let t_seq = seq.env.clock.now_us();

        let rnd = HddDevice::default_standalone();
        for i in 0..100u64 {
            rnd.read_page((i * 7919) % 100_000, &mut buf);
        }
        let t_rnd = rnd.env.clock.now_us();
        assert!(t_rnd > 10 * t_seq, "random ({t_rnd}µs) should dwarf sequential ({t_seq}µs)");
    }

    #[test]
    fn random_read_and_write_costs_are_symmetric() {
        let r = HddDevice::default_standalone();
        let w = HddDevice::default_standalone();
        let mut buf = vec![0u8; PAGE_SIZE];
        let img = vec![0u8; PAGE_SIZE];
        for i in 0..50u64 {
            r.read_page((i * 104729) % 200_000, &mut buf);
            w.write_page((i * 104729) % 200_000, &img, true);
        }
        assert_eq!(r.env.clock.now_us(), w.env.clock.now_us());
    }

    #[test]
    fn first_access_at_lba0_is_sequential_by_convention() {
        let d = HddDevice::default_standalone();
        let mut buf = vec![0u8; PAGE_SIZE];
        d.read_page(0, &mut buf);
        assert_eq!(d.env.clock.now_us(), d.cfg.transfer_us);
    }
}

//! Zero-latency in-memory device for pure-logic tests.
//!
//! Behaves like a perfect disk: stores page images, counts I/Os, never
//! advances the clock. Unit tests of the engines use it so that
//! correctness assertions do not depend on the timing model.

use parking_lot::Mutex;
use sias_common::{SiasError, SiasResult, PAGE_SIZE};
use std::collections::HashMap;

use super::{Device, DeviceEnv, DeviceStats};
use crate::trace::{IoDir, TraceEvent};

/// An in-memory page store with zero access latency.
pub struct MemDevice {
    capacity_pages: u64,
    env: DeviceEnv,
    data: Mutex<HashMap<u64, Box<[u8]>>>,
}

impl MemDevice {
    /// Creates a device of `capacity_pages` pages.
    pub fn new(capacity_pages: u64, env: DeviceEnv) -> Self {
        MemDevice { capacity_pages, env, data: Mutex::new(HashMap::new()) }
    }

    /// Device with a fresh environment (tests).
    pub fn standalone(capacity_pages: u64) -> Self {
        MemDevice::new(capacity_pages, DeviceEnv::fresh())
    }

    /// Pages currently holding data (sparse backing: trimmed and
    /// never-written pages cost nothing).
    pub fn resident_pages(&self) -> u64 {
        self.data.lock().len() as u64
    }
}

impl Device for MemDevice {
    fn read_page(&self, lba: u64, buf: &mut [u8]) {
        assert!(lba < self.capacity_pages, "read past device capacity");
        assert_eq!(buf.len(), PAGE_SIZE);
        self.env.counters.host_read_pages.inc();
        self.env.trace.record(TraceEvent {
            time_us: self.env.clock.now_us(),
            device: self.env.device_id,
            lba,
            pages: 1,
            dir: IoDir::Read,
        });
        self.peek_page(lba, buf);
    }

    fn peek_page(&self, lba: u64, buf: &mut [u8]) {
        match self.data.lock().get(&lba) {
            Some(img) => buf.copy_from_slice(img),
            None => buf.fill(0),
        }
    }

    fn write_page(&self, lba: u64, data: &[u8], _sync: bool) {
        assert!(lba < self.capacity_pages, "write past device capacity");
        assert_eq!(data.len(), PAGE_SIZE);
        self.env.counters.host_write_pages.inc();
        self.env.trace.record(TraceEvent {
            time_us: self.env.clock.now_us(),
            device: self.env.device_id,
            lba,
            pages: 1,
            dir: IoDir::Write,
        });
        self.data.lock().insert(lba, data.to_vec().into_boxed_slice());
    }

    /// Capacity-seam contract: the fallible paths return typed errors
    /// instead of panicking, so WAL/pool retry machinery can surface
    /// [`SiasError::DiskFull`] to the caller. The infallible
    /// `read_page`/`write_page` keep the hardware-model assert — an
    /// out-of-range access there is a caller bug, not a runtime state.
    fn try_read_page(&self, lba: u64, buf: &mut [u8]) -> SiasResult<()> {
        if lba >= self.capacity_pages {
            return Err(SiasError::Device(format!(
                "read past device capacity: lba {lba} >= {}",
                self.capacity_pages
            )));
        }
        self.read_page(lba, buf);
        Ok(())
    }

    fn try_write_page(&self, lba: u64, data: &[u8], sync: bool) -> SiasResult<()> {
        if lba >= self.capacity_pages {
            return Err(SiasError::DiskFull {
                needed_pages: lba + 1 - self.capacity_pages,
                free_pages: 0,
            });
        }
        self.write_page(lba, data, sync);
        Ok(())
    }

    fn capacity_pages(&self) -> u64 {
        self.capacity_pages
    }

    fn trim(&self, lba: u64) {
        if self.data.lock().remove(&lba).is_some() {
            self.env.counters.trims.inc();
        }
    }

    fn stats(&self) -> DeviceStats {
        self.env.counters.read()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_counters() {
        let d = MemDevice::standalone(128);
        let img = vec![3u8; PAGE_SIZE];
        d.write_page(5, &img, true);
        let mut buf = vec![0u8; PAGE_SIZE];
        d.read_page(5, &mut buf);
        assert_eq!(buf, img);
        let s = d.stats();
        assert_eq!((s.host_read_pages, s.host_write_pages), (1, 1));
        assert_eq!(s.erases, 0);
    }

    #[test]
    fn never_advances_clock() {
        let d = MemDevice::standalone(8);
        d.write_page(0, &vec![0u8; PAGE_SIZE], true);
        let mut buf = vec![0u8; PAGE_SIZE];
        d.read_page(0, &mut buf);
        assert_eq!(d.env.clock.now_us(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn out_of_range_access_panics() {
        let d = MemDevice::standalone(8);
        let mut buf = vec![0u8; PAGE_SIZE];
        d.read_page(8, &mut buf);
    }

    #[test]
    fn fallible_paths_return_typed_errors_at_capacity() {
        let d = MemDevice::standalone(8);
        let img = vec![1u8; PAGE_SIZE];
        d.try_write_page(7, &img, true).unwrap();
        let err = d.try_write_page(8, &img, true).unwrap_err();
        assert!(matches!(err, SiasError::DiskFull { needed_pages: 1, free_pages: 0 }), "{err:?}");
        let mut buf = vec![0u8; PAGE_SIZE];
        let err = d.try_read_page(9, &mut buf).unwrap_err();
        assert!(matches!(err, SiasError::Device(_)), "{err:?}");
    }

    #[test]
    fn trim_frees_backing_and_reads_as_zero() {
        let d = MemDevice::standalone(8);
        d.write_page(3, &vec![9u8; PAGE_SIZE], true);
        assert_eq!(d.resident_pages(), 1);
        d.trim(3);
        assert_eq!(d.resident_pages(), 0);
        assert_eq!(d.stats().trims, 1);
        let mut buf = vec![7u8; PAGE_SIZE];
        d.read_page(3, &mut buf);
        assert!(buf.iter().all(|&b| b == 0), "trimmed page reads as zeros");
    }
}

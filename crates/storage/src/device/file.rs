//! Real-file devices: page-aligned single files, and round-robin stripe
//! sets over several of them.
//!
//! This is the first backend in `device/` that touches actual hardware.
//! [`FileDevice`] stores pages in a regular file (or a raw block device
//! path) opened with `O_DIRECT` when the filesystem allows it, so reads
//! and writes bypass the OS page cache and measure the device, not
//! DRAM. `O_DIRECT` requires sector-aligned user buffers; the crate
//! forbids `unsafe`, so alignment comes from a `#[repr(align(4096))]`
//! bounce buffer the device copies through on every call. `sync` writes
//! and [`Device::flush`] are honored via `fdatasync`.
//!
//! [`FileDevice::open_stripe`] opens one file per path and stripes them
//! with [`Raid0`], the same stripe the simulated 2-/6-SSD testbeds use;
//! it forwards the fallible `try_*` calls and the durability barrier, so
//! real files (whose I/O can genuinely fail) keep their error paths.

use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::os::unix::fs::OpenOptionsExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use sias_common::{SiasError, SiasResult, PAGE_SIZE};

use super::{Device, DeviceEnv, DeviceRef, DeviceStats, Raid0};
use crate::trace::{IoDir, TraceEvent};

/// `O_DIRECT` on Linux (x86_64/aarch64). `std` does not re-export it
/// and the workspace vendors no `libc`, so the constant lives here.
const O_DIRECT: i32 = 0o40000;

/// Sector alignment `O_DIRECT` requires of user buffers. 4096 covers
/// both 512e and 4Kn logical sector sizes.
const DIRECT_ALIGN: usize = 4096;

/// A page-sized bounce buffer whose alignment satisfies `O_DIRECT`.
#[repr(align(4096))]
struct AlignedPage([u8; PAGE_SIZE]);

impl AlignedPage {
    fn zeroed() -> Box<AlignedPage> {
        Box::new(AlignedPage([0u8; PAGE_SIZE]))
    }
}

/// A real file (or raw block device) addressed in `PAGE_SIZE` pages.
pub struct FileDevice {
    file: File,
    path: PathBuf,
    capacity_pages: u64,
    direct: bool,
    env: DeviceEnv,
}

impl FileDevice {
    /// Opens (creating if absent) `path` as a device of
    /// `capacity_pages` pages. Tries `O_DIRECT` first and falls back to
    /// buffered I/O on filesystems that refuse it (tmpfs); the file is
    /// extended sparsely to the capacity, and existing contents are
    /// preserved, so reopening an image is how crash recovery reads it
    /// back.
    pub fn open(
        path: impl AsRef<Path>,
        capacity_pages: u64,
        env: DeviceEnv,
    ) -> SiasResult<FileDevice> {
        let path = path.as_ref().to_path_buf();
        let mut opts = OpenOptions::new();
        opts.read(true).write(true).create(true);
        let direct_attempt = {
            let mut direct_opts = opts.clone();
            direct_opts.custom_flags(O_DIRECT);
            direct_opts.open(&path)
        };
        let (file, direct) = match direct_attempt {
            Ok(f) => (f, true),
            Err(_) => {
                let f = opts
                    .open(&path)
                    .map_err(|e| SiasError::Device(format!("open {}: {e}", path.display())))?;
                (f, false)
            }
        };
        let bytes = capacity_pages.saturating_mul(PAGE_SIZE as u64);
        let len = file
            .metadata()
            .map_err(|e| SiasError::Device(format!("stat {}: {e}", path.display())))?
            .len();
        if len < bytes {
            file.set_len(bytes)
                .map_err(|e| SiasError::Device(format!("set_len {}: {e}", path.display())))?;
        }
        Ok(FileDevice { file, path, capacity_pages, direct, env })
    }

    /// Opens one device per path and stripes across them; the set's
    /// total capacity is at least `capacity_pages` (each member gets the
    /// rounded-up per-member share). Members share `env`'s counters and
    /// trace, with trace ids `env.device_id + i`.
    pub fn open_stripe(
        paths: &[PathBuf],
        capacity_pages: u64,
        env: DeviceEnv,
    ) -> SiasResult<Raid0> {
        assert!(!paths.is_empty(), "stripe set needs at least one path");
        let per_member = capacity_pages.div_ceil(paths.len() as u64);
        Raid0::new(paths.len(), &env, |i, e| {
            Ok(Arc::new(FileDevice::open(&paths[i], per_member, e)?) as DeviceRef)
        })
    }

    /// Device with a fresh environment (tests, benches).
    pub fn standalone(path: impl AsRef<Path>, capacity_pages: u64) -> SiasResult<FileDevice> {
        FileDevice::open(path, capacity_pages, DeviceEnv::fresh())
    }

    /// The backing file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether the file is open with `O_DIRECT` (false = buffered
    /// fallback, e.g. on tmpfs).
    pub fn is_direct(&self) -> bool {
        self.direct
    }

    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
        let mut done = 0usize;
        while done < buf.len() {
            match self.file.read_at(&mut buf[done..], offset + done as u64) {
                Ok(0) => {
                    // Past EOF (capacity grew without set_len catching
                    // up): sparse semantics, the hole reads as zeros.
                    buf[done..].fill(0);
                    return Ok(());
                }
                Ok(n) => done += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    fn write_all_at(&self, buf: &[u8], offset: u64) -> std::io::Result<()> {
        let mut done = 0usize;
        while done < buf.len() {
            match self.file.write_at(&buf[done..], offset + done as u64) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "write_at returned 0",
                    ))
                }
                Ok(n) => done += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

impl Device for FileDevice {
    fn read_page(&self, lba: u64, buf: &mut [u8]) {
        self.try_read_page(lba, buf).expect("file read");
    }

    fn write_page(&self, lba: u64, data: &[u8], sync: bool) {
        self.try_write_page(lba, data, sync).expect("file write");
    }

    fn try_read_page(&self, lba: u64, buf: &mut [u8]) -> SiasResult<()> {
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
        let offset = lba * PAGE_SIZE as u64;
        let mut bounce = AlignedPage::zeroed();
        self.read_exact_at(&mut bounce.0, offset).map_err(|e| {
            SiasError::Device(format!("read {} lba {lba}: {e}", self.path.display()))
        })?;
        buf.copy_from_slice(&bounce.0);
        Ok(())
    }

    fn try_write_page(&self, lba: u64, data: &[u8], sync: bool) -> SiasResult<()> {
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
        let offset = lba * PAGE_SIZE as u64;
        let mut bounce = AlignedPage::zeroed();
        bounce.0.copy_from_slice(data);
        self.write_all_at(&bounce.0, offset).map_err(|e| {
            SiasError::Device(format!("write {} lba {lba}: {e}", self.path.display()))
        })?;
        if sync {
            self.file.sync_data().map_err(|e| {
                SiasError::Device(format!("fdatasync {}: {e}", self.path.display()))
            })?;
        }
        Ok(())
    }

    fn capacity_pages(&self) -> u64 {
        self.capacity_pages
    }

    fn flush(&self) -> SiasResult<()> {
        self.file
            .sync_data()
            .map_err(|e| SiasError::Device(format!("fdatasync {}: {e}", self.path.display())))
    }

    fn stats(&self) -> DeviceStats {
        self.env.counters.read()
    }
}

/// Keep the alignment constant honest: `PAGE_SIZE` offsets must stay
/// sector-aligned or every `O_DIRECT` call would fail with `EINVAL`.
const _: () = assert!(PAGE_SIZE.is_multiple_of(DIRECT_ALIGN));

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Unique temp path per call (no tempfile crate in the workspace).
    pub(crate) fn tmp_path(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("sias-file-{}-{tag}-{n}.img", std::process::id()))
    }

    struct Cleanup(Vec<PathBuf>);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            for p in &self.0 {
                let _ = std::fs::remove_file(p);
            }
        }
    }

    #[test]
    fn roundtrip_counters_and_reopen() {
        let p = tmp_path("rt");
        let _c = Cleanup(vec![p.clone()]);
        {
            let d = FileDevice::standalone(&p, 64).unwrap();
            let img = vec![7u8; PAGE_SIZE];
            d.write_page(5, &img, true);
            let mut buf = vec![0u8; PAGE_SIZE];
            d.read_page(5, &mut buf);
            assert_eq!(buf, img);
            // Unwritten page reads as zeros (sparse hole).
            d.read_page(6, &mut buf);
            assert!(buf.iter().all(|b| *b == 0));
            let s = d.stats();
            assert_eq!((s.host_read_pages, s.host_write_pages), (2, 1));
            d.flush().unwrap();
        }
        // Reopen preserves the image — this is the recovery path.
        let d = FileDevice::standalone(&p, 64).unwrap();
        let mut buf = vec![0u8; PAGE_SIZE];
        d.read_page(5, &mut buf);
        assert_eq!(buf, vec![7u8; PAGE_SIZE]);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn out_of_range_access_panics() {
        let p = tmp_path("oob");
        let _c = Cleanup(vec![p.clone()]);
        let d = FileDevice::standalone(&p, 8).unwrap();
        let mut buf = vec![0u8; PAGE_SIZE];
        d.read_page(8, &mut buf);
    }

    fn striped(paths: &[PathBuf], pages: u64, env: DeviceEnv) -> Raid0 {
        FileDevice::open_stripe(paths, pages, env).unwrap()
    }

    #[test]
    fn stripe_roundtrip_and_balance() {
        let paths = vec![tmp_path("s0"), tmp_path("s1")];
        let _c = Cleanup(paths.clone());
        let env = DeviceEnv::fresh();
        env.trace.enable();
        let d = striped(&paths, 64, env.clone());
        assert_eq!(d.width(), 2);
        assert!(d.capacity_pages() >= 64);
        for lba in 0..40u64 {
            let img = vec![lba as u8; PAGE_SIZE];
            d.write_page(lba, &img, false);
        }
        d.flush().unwrap();
        let mut buf = vec![0u8; PAGE_SIZE];
        for lba in 0..40u64 {
            d.read_page(lba, &mut buf);
            assert_eq!(buf[0], lba as u8, "lba {lba}");
        }
        assert_eq!(d.stats().host_write_pages, 40, "one shared counter set");
        let writes_on = |id: u16| {
            env.trace.events().iter().filter(|e| e.device == id && e.dir == IoDir::Write).count()
        };
        assert_eq!((writes_on(0), writes_on(1)), (20, 20), "round-robin balances writes");
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]
            /// A striped image is byte-identical to a single-file image
            /// under the same write sequence.
            #[test]
            fn striped_image_matches_single_file(
                writes in proptest::collection::vec((0u64..48, any::<u8>()), 1..40),
            ) {
                let single_p = tmp_path("prop-single");
                let s0 = tmp_path("prop-s0");
                let s1 = tmp_path("prop-s1");
                let _c = Cleanup(vec![single_p.clone(), s0.clone(), s1.clone()]);
                let single = FileDevice::standalone(&single_p, 48).unwrap();
                let striped = striped(&[s0, s1], 48, DeviceEnv::fresh());
                for &(lba, fill) in &writes {
                    let img = vec![fill; PAGE_SIZE];
                    single.write_page(lba, &img, false);
                    striped.write_page(lba, &img, false);
                }
                let mut a = vec![0u8; PAGE_SIZE];
                let mut b = vec![0u8; PAGE_SIZE];
                for lba in 0..48u64 {
                    single.read_page(lba, &mut a);
                    striped.read_page(lba, &mut b);
                    prop_assert_eq!(&a, &b, "page {} diverged", lba);
                }
            }
        }
    }
}

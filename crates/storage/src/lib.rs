//! Storage substrate for the SIAS reproduction.
//!
//! The paper prototypes SIAS inside PostgreSQL and measures it on Flash
//! SSD RAID sets and a spinning disk. This crate rebuilds the substrate
//! that evaluation depends on, from the page format up:
//!
//! * [`page`] — 8 KiB slotted pages with in-place overwrite (the
//!   operation SI needs and SIAS avoids);
//! * [`device`] — discrete-event models of Flash SSDs (page-mapping FTL,
//!   channel parallelism, erase-block GC), HDDs (seek + rotation) and
//!   RAID-0 stripes, all storing real page images and charging virtual
//!   time;
//! * [`trace`] — the `blktrace` equivalent: every host I/O is recorded
//!   for the Figure 3/4 scatter plots and the Table 1 write totals;
//! * [`tablespace`] — extent-based relation placement (per-relation
//!   "swimlanes" on the device);
//! * [`buffer`] — clock-sweep buffer pool with background-writer (t1) and
//!   checkpoint (t2) flush paths;
//! * [`fsm`] — the free-space map giving the SI baseline its
//!   "any page with enough space" placement;
//! * [`wal`] — a group-commit write-ahead log on a dedicated device;
//! * [`stack`] — assembly of the above into the paper's three testbed
//!   configurations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buffer;
mod checksum;
pub mod device;
pub mod fsm;
pub mod health;
pub mod io_queue;
pub mod page;
pub mod stack;
pub mod tablespace;
pub mod trace;
pub mod wal;

pub use buffer::{BufferPool, BufferStats};
pub use device::{
    retry_io, Device, DeviceRef, DeviceStats, FaultConfig, FaultPlan, FaultyDevice, FileDevice,
    FlashConfig, HddConfig, Raid0, RetryBudget, RetryClock, RetryCtx, RetryPolicy,
};
pub use fsm::FreeSpaceMap;
pub use health::{Health, HealthConfig, HealthState};
pub use io_queue::{IoCompletion, IoOp, IoQueue};
pub use page::Page;
pub use stack::{
    Media, SpaceConfig, SpaceStatus, StorageConfig, StorageStack, DEFAULT_MAINT_PAGES_PER_SEC,
};
pub use tablespace::Tablespace;
pub use trace::{IoDir, TraceCollector, TraceEvent, DEFAULT_TRACE_CAPACITY};
pub use wal::{Wal, WalConfig, WalRecord, WalStats};

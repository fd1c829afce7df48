//! # SIAS — Snapshot Isolation Append Storage (core engine)
//!
//! The primary contribution of the reproduced paper: a multi-version
//! storage manager that organizes the versions of each data item as a
//! backwards **singly-linked chain**, invalidates versions **implicitly**
//! by appending successors (never touching the old version), and manages
//! storage as **tuple-granular append regions** — converting the small
//! in-place invalidation writes of classical SI into bulk appends that
//! suit Flash.
//!
//! Module map (paper section in parentheses):
//!
//! * [`version`] — on-tuple information: create timestamp, VID, `*ptr`,
//!   tombstones (§4.1.1);
//! * [`vidmap`] — the VID → entrypoint map, a bucketed latch-free hash
//!   table (§4.1.2–4.1.3);
//! * [`chain`] — chain traversal and the visibility walk (Algorithm 1);
//! * [`append`] — the tuple-granular LbSM with the t1/t2 flush
//!   thresholds (§1, §5.2);
//! * [`engine`] — insert/update/delete/scan, first-updater-wins,
//!   ⟨key, VID⟩ indexing, recovery (Algorithms 1–3, §4.2–4.3, §6);
//! * [`gc`] — victim-page space reclamation (§6): one per-block step,
//!   driven by horizon-based incremental slices that run concurrently
//!   with foreground transactions and by the quiescent whole-relation
//!   vacuum;
//! * [`checkpoint`] — fuzzy checkpoints bounding restart work (§6),
//!   including WAL-volume-paced triggering;
//! * [`scrub`] — integrity sweeps and WAL-history self-repair (§6);
//! * [`maintenance`] — the background scheduler driving incremental GC,
//!   throttled scrubbing and paced checkpoints under load.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod append;
pub mod chain;
pub mod checkpoint;
pub mod engine;
pub mod gc;
pub mod maintenance;
pub mod recovery;
pub mod scanpool;
pub mod scrub;
pub mod version;
pub mod vidmap;

pub use admission::{AdmissionConfig, AdmissionGate, PressureSignals};
pub use append::{AppendRegion, FlushPolicy};
pub use checkpoint::CheckpointStats;
pub use engine::{SiasDb, SiasRelation};
pub use gc::{GcCrashPoint, GcSliceOpts, GcStats, DEFAULT_VACUUM_THRESHOLD};
pub use maintenance::{
    MaintCursors, MaintenanceConfig, MaintenanceScheduler, MaintenanceTotals,
    DEFAULT_MAINT_PAGES_PER_SEC,
};
pub use recovery::RecoveryStats;
pub use scanpool::ScanPool;
pub use scrub::ScrubStats;
pub use version::TupleVersion;
pub use vidmap::{VidMap, VidMapCounters};

//! Trace event model: interned span names, fixed-size events, and the
//! RAII guard that times a span and records it on drop.
//!
//! Events are fixed-size (six `u64` words in the ring, one struct here)
//! so recording never allocates. Span names are a closed enum rather
//! than strings: the SIAS engine and the SI baseline must emit the
//! *same* names for the same logical operations (as with metrics), and
//! an interned `u16` keeps the hot path free of pointer chasing.

use std::time::{Duration, Instant};

use crate::recorder::FlightRecorder;

/// Interned span/event names. The numeric value is stored in ring
/// slots; [`SpanName::as_str`] is the exported dotted name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum SpanName {
    /// Transaction lifetime from begin to commit/abort acknowledgement.
    TxnBegin = 0,
    /// Commit critical path (WAL commit record + force + release).
    TxnCommit = 1,
    /// Abort path.
    TxnAbort = 2,
    /// Engine-level operations (one span per `MvccEngine` call).
    EngineInsert = 3,
    EngineUpdate = 4,
    EngineDelete = 5,
    EngineGet = 6,
    EngineScanRange = 7,
    EngineScanAll = 8,
    /// WAL record append (buffered, before force).
    WalAppend = 9,
    /// Group-commit leader flushing a batch; `arg` = commits in batch.
    WalForce = 10,
    /// Follower waiting for a leader's force to cover its LSN.
    WalForceWait = 11,
    /// Checkpoint (fuzzy two-phase); `arg` = pages written.
    CkptRun = 12,
    /// GC vacuum pass; `arg` = versions reclaimed.
    GcVacuum = 13,
    /// Scrubber sweep; `arg` = pages scanned.
    ScrubSweep = 14,
    /// Buffer-pool miss read-through; `arg` = block number.
    PoolMiss = 15,
    /// Maintenance tick (bgwriter/checkpoint dispatch).
    Maintenance = 16,
    /// Instant: chaos harness injected a crash here.
    ChaosCrash = 17,
    /// Instant: the anomaly checker flagged a violation; `txn` = xid.
    AnomalyFlag = 18,
    /// I/O queue batch submit; `arg` = ops in the batch.
    IoSubmit = 19,
    /// I/O queue completion reap; `arg` = completions reaped.
    IoReap = 20,
    /// One incremental GC slice (concurrent with foreground traffic);
    /// `arg` = pages examined.
    GcSlice = 21,
    /// One incremental scrub slice; `arg` = blocks probed.
    ScrubSlice = 22,
    /// WAL-volume-paced fuzzy checkpoint; `arg` = pages written.
    CkptPaced = 23,
    /// One maintenance-scheduler tick; `arg` = throttle tokens spent.
    MaintTick = 24,
    /// Admission gate delaying a begin under pressure; `arg` = waits.
    AdmissionDelay = 25,
    /// Instant: admission gate shed a begin (typed Overloaded error).
    AdmissionShed = 26,
    /// Emergency space reclaim (checkpoint + GC slices past the low
    /// watermark); `arg` = bytes reclaimed.
    EmergencyReclaim = 27,
}

/// Number of distinct span names (table size for exporters).
pub const SPAN_NAME_COUNT: u16 = 28;

impl SpanName {
    /// The exported dotted name, shared by both engines.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanName::TxnBegin => "txn.begin",
            SpanName::TxnCommit => "txn.commit",
            SpanName::TxnAbort => "txn.abort",
            SpanName::EngineInsert => "engine.insert",
            SpanName::EngineUpdate => "engine.update",
            SpanName::EngineDelete => "engine.delete",
            SpanName::EngineGet => "engine.get",
            SpanName::EngineScanRange => "engine.scan_range",
            SpanName::EngineScanAll => "engine.scan_all",
            SpanName::WalAppend => "wal.append",
            SpanName::WalForce => "wal.force",
            SpanName::WalForceWait => "wal.force_wait",
            SpanName::CkptRun => "ckpt.run",
            SpanName::GcVacuum => "gc.vacuum",
            SpanName::ScrubSweep => "scrub.sweep",
            SpanName::PoolMiss => "pool.miss",
            SpanName::Maintenance => "maintenance",
            SpanName::ChaosCrash => "chaos.crash",
            SpanName::AnomalyFlag => "anomaly.flag",
            SpanName::IoSubmit => "io.submit",
            SpanName::IoReap => "io.reap",
            SpanName::GcSlice => "gc.slice",
            SpanName::ScrubSlice => "scrub.slice",
            SpanName::CkptPaced => "ckpt.paced",
            SpanName::MaintTick => "maint.tick",
            SpanName::AdmissionDelay => "admission.delay",
            SpanName::AdmissionShed => "admission.shed",
            SpanName::EmergencyReclaim => "maint.emergency_reclaim",
        }
    }

    /// The registry histogram every span of this name records its
    /// duration (ns) into: `span.<as_str>`. `None` for the three point
    /// events, which have no duration.
    pub fn histogram_name(self) -> Option<String> {
        match self {
            SpanName::ChaosCrash | SpanName::AnomalyFlag | SpanName::AdmissionShed => None,
            _ => Some(format!("span.{}", self.as_str())),
        }
    }

    /// Decodes the ring encoding; `None` for out-of-range values (a
    /// corrupt or future-format slot).
    pub fn from_u16(v: u16) -> Option<SpanName> {
        use SpanName::*;
        Some(match v {
            0 => TxnBegin,
            1 => TxnCommit,
            2 => TxnAbort,
            3 => EngineInsert,
            4 => EngineUpdate,
            5 => EngineDelete,
            6 => EngineGet,
            7 => EngineScanRange,
            8 => EngineScanAll,
            9 => WalAppend,
            10 => WalForce,
            11 => WalForceWait,
            12 => CkptRun,
            13 => GcVacuum,
            14 => ScrubSweep,
            15 => PoolMiss,
            16 => Maintenance,
            17 => ChaosCrash,
            18 => AnomalyFlag,
            19 => IoSubmit,
            20 => IoReap,
            21 => GcSlice,
            22 => ScrubSlice,
            23 => CkptPaced,
            24 => MaintTick,
            25 => AdmissionDelay,
            26 => AdmissionShed,
            27 => EmergencyReclaim,
            _ => return None,
        })
    }
}

/// What an event records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A completed span: `[start_ns, start_ns + dur_ns)`.
    Span,
    /// A point event (crash injected, anomaly flagged); `dur_ns` = 0.
    Instant,
}

/// One decoded trace event. `start_ns` is relative to the recorder's
/// epoch (its construction instant), so events from one recorder share
/// a timeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Ring ticket: a per-shard sequence. Monotone within a shard;
    /// combined with `start_ns` it gives a stable global order.
    pub seq: u64,
    pub kind: EventKind,
    pub name: SpanName,
    /// Recording thread (process-wide small id, not the OS tid).
    pub tid: u16,
    /// Span nesting depth on the recording thread at open time.
    pub depth: u8,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Transaction id the event belongs to; 0 = none.
    pub txn: u64,
    /// Name-specific payload (batch size, pages, block number…).
    pub arg: u64,
}

/// RAII span: created by [`FlightRecorder::span`]. It always takes its
/// start instant and, when dropped, records its duration into the
/// `span.<name>` histogram; it also writes one [`EventKind::Span`]
/// event to the ring if tracing was enabled when it opened.
pub struct SpanGuard<'r> {
    pub(crate) rec: &'r FlightRecorder,
    pub(crate) name: SpanName,
    pub(crate) start: Instant,
    pub(crate) txn: u64,
    pub(crate) arg: u64,
    /// Nesting depth at open; `None` when the ring was off at open.
    pub(crate) depth: Option<u8>,
}

impl SpanGuard<'_> {
    /// Tags the span with a transaction id.
    #[inline]
    pub fn txn(mut self, xid: u64) -> Self {
        self.txn = xid;
        self
    }

    /// Sets the name-specific payload word.
    #[inline]
    pub fn arg(mut self, arg: u64) -> Self {
        self.arg = arg;
        self
    }

    /// Updates the payload on an existing guard (for values only known
    /// at the end of the span, e.g. batch sizes).
    #[inline]
    pub fn set_arg(&mut self, arg: u64) {
        self.arg = arg;
    }

    /// Tags an existing guard with a transaction id (for ids only known
    /// mid-span, e.g. `begin` allocating the xid it reports).
    #[inline]
    pub fn set_txn(&mut self, xid: u64) {
        self.txn = xid;
    }

    /// Time since the span opened (for code bounded by its own span,
    /// e.g. the admission gate's delay budget).
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.rec.close_span(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_round_trip() {
        for v in 0..SPAN_NAME_COUNT {
            let n = SpanName::from_u16(v).expect("in range");
            assert_eq!(n as u16, v);
            assert!(!n.as_str().is_empty());
        }
        assert_eq!(SpanName::from_u16(SPAN_NAME_COUNT), None);
        assert_eq!(SpanName::from_u16(u16::MAX), None);
    }

    #[test]
    fn names_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for v in 0..SPAN_NAME_COUNT {
            assert!(seen.insert(SpanName::from_u16(v).unwrap().as_str()));
        }
    }
}

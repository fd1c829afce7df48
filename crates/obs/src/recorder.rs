//! The flight recorder: one always-on latency histogram per span name,
//! plus sharded, bounded, lock-free rings of fixed-size trace events.
//!
//! # Histograms and ring
//!
//! Every span records its duration into the `span.<name>` histogram of
//! the registry the recorder was built with, whether or not tracing is
//! on: that is the latency record, and it cannot drop data. The ring
//! only adds causality (which span ran inside which, on which thread,
//! for which transaction) while [`FlightRecorder::set_enabled`] is on.
//!
//! # Design
//!
//! Each shard is a power-of-two ring of six-word slots guarded by a
//! per-slot sequence header (a seqlock). Writers claim a ticket with
//! one `fetch_add` on the shard's claim counter, then write:
//!
//! ```text
//! header <- 2*ticket + 1   (odd: write in progress)
//! meta, start, dur, txn, arg
//! header <- 2*ticket + 2   (even: slot complete)
//! ```
//!
//! Readers accept a slot only if the header reads the *same even value*
//! before and after reading the payload. All slot accesses are `SeqCst`
//! atomics: the single total order makes the seqlock argument exact —
//! if both header loads return the same even value, no writer's header
//! store lies between them, and a writer's payload stores are fenced
//! between its two header stores, so the payload cannot be torn. This
//! costs a handful of fenced stores per event, which is noise against
//! the microsecond-scale operations being traced, and it keeps the
//! crate `#![forbid(unsafe_code)]`.
//!
//! # Memory bound and drop accounting
//!
//! Rings are allocated lazily on the first `set_enabled(true)` —
//! engines that never trace (e.g. the dozens of throwaway recovery
//! engines the crash matrix builds) pay only the struct header. Once
//! allocated, memory is fixed: `shards * capacity * 48` bytes plus the
//! slow ring. Overwritten events are *dropped by construction*; the
//! exact count is `claims - capacity` per shard (claims only grow), so
//! [`FlightRecorder::dropped`] is sound — it can never under-report.

use std::sync::atomic::{AtomicBool, AtomicU16, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use crate::span::{EventKind, SpanGuard, SpanName, TraceEvent, SPAN_NAME_COUNT};
use crate::{Histogram, Registry};

/// Words per ring slot: header, meta, start_ns, dur_ns, txn, arg.
const WORDS: usize = 6;

/// Sizing and slow-op policy of a recorder.
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    /// Ring shards; writers pick `tid % shards`.
    pub shards: usize,
    /// Events retained per shard (the flight-recorder window).
    pub capacity: usize,
    /// Events retained in the slow-op ring.
    pub slow_capacity: usize,
    /// Spans at least this long (ns) are copied into the slow ring;
    /// 0 disables slow capture.
    pub slow_threshold_ns: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        // 16 shards x 1024 events x 48 B = 768 KiB main window, plus a
        // 512-event slow ring: bounded and small next to the buffer pool.
        TraceConfig { shards: 16, capacity: 1024, slow_capacity: 512, slow_threshold_ns: 0 }
    }
}

struct Shard {
    claims: AtomicU64,
    slots: Box<[AtomicU64]>,
}

impl Shard {
    fn new(capacity: usize) -> Shard {
        Shard {
            claims: AtomicU64::new(0),
            slots: (0..capacity * WORDS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn capacity(&self) -> usize {
        self.slots.len() / WORDS
    }

    fn write(&self, meta: u64, start_ns: u64, dur_ns: u64, txn: u64, arg: u64) {
        let cap = self.capacity();
        let ticket = self.claims.fetch_add(1, Ordering::SeqCst);
        let base = (ticket as usize % cap) * WORDS;
        self.slots[base].store(ticket * 2 + 1, Ordering::SeqCst);
        self.slots[base + 1].store(meta, Ordering::SeqCst);
        self.slots[base + 2].store(start_ns, Ordering::SeqCst);
        self.slots[base + 3].store(dur_ns, Ordering::SeqCst);
        self.slots[base + 4].store(txn, Ordering::SeqCst);
        self.slots[base + 5].store(arg, Ordering::SeqCst);
        self.slots[base].store(ticket * 2 + 2, Ordering::SeqCst);
    }

    fn read_into(&self, out: &mut Vec<TraceEvent>) {
        let cap = self.capacity();
        for slot in 0..cap {
            let base = slot * WORDS;
            let h1 = self.slots[base].load(Ordering::SeqCst);
            if h1 == 0 || h1 % 2 == 1 {
                continue; // never written, or write in progress
            }
            let meta = self.slots[base + 1].load(Ordering::SeqCst);
            let start_ns = self.slots[base + 2].load(Ordering::SeqCst);
            let dur_ns = self.slots[base + 3].load(Ordering::SeqCst);
            let txn = self.slots[base + 4].load(Ordering::SeqCst);
            let arg = self.slots[base + 5].load(Ordering::SeqCst);
            let h2 = self.slots[base].load(Ordering::SeqCst);
            if h1 != h2 {
                continue; // torn: a writer landed mid-read
            }
            let Some(event) = decode(h1 / 2 - 1, meta, start_ns, dur_ns, txn, arg) else {
                continue;
            };
            out.push(event);
        }
    }

    fn clear(&self) {
        for slot in 0..self.capacity() {
            self.slots[slot * WORDS].store(0, Ordering::SeqCst);
        }
        self.claims.store(0, Ordering::SeqCst);
    }
}

struct Rings {
    shards: Vec<Shard>,
    slow: Shard,
}

fn pack_meta(kind: EventKind, name: SpanName, tid: u16, depth: u8) -> u64 {
    let kind_bit: u64 = match kind {
        EventKind::Span => 0,
        EventKind::Instant => 1,
    };
    (name as u16 as u64) | ((tid as u64) << 16) | ((depth as u64) << 32) | (kind_bit << 40)
}

fn decode(
    seq: u64,
    meta: u64,
    start_ns: u64,
    dur_ns: u64,
    txn: u64,
    arg: u64,
) -> Option<TraceEvent> {
    let name = SpanName::from_u16((meta & 0xFFFF) as u16)?;
    let tid = ((meta >> 16) & 0xFFFF) as u16;
    let depth = ((meta >> 32) & 0xFF) as u8;
    let kind = if (meta >> 40) & 1 == 1 { EventKind::Instant } else { EventKind::Span };
    Some(TraceEvent { seq, kind, name, tid, depth, start_ns, dur_ns, txn, arg })
}

// Process-wide small thread ids: stable for a thread's lifetime, shared
// by every recorder (the id is a label, not an index into anything
// recorder-specific).
static NEXT_TID: AtomicU16 = AtomicU16::new(1);

thread_local! {
    static TID: std::cell::Cell<u16> = const { std::cell::Cell::new(0) };
    // Per-thread span nesting depth. Global across recorders: a thread
    // inside spans of two engines at once (which does not happen on the
    // hot paths) would merely report a deeper depth.
    static DEPTH: std::cell::Cell<u8> = const { std::cell::Cell::new(0) };
}

fn current_tid() -> u16 {
    TID.with(|t| {
        let v = t.get();
        if v != 0 {
            v
        } else {
            let v = NEXT_TID.fetch_add(1, Ordering::Relaxed).max(1);
            t.set(v);
            v
        }
    })
}

/// The span sink of one registry. With the ring disabled a span costs
/// two clock reads and one histogram record, an instant one relaxed
/// load.
pub struct FlightRecorder {
    enabled: AtomicBool,
    epoch: Instant,
    config: TraceConfig,
    slow_threshold_ns: AtomicU64,
    rings: OnceLock<Rings>,
    spans_opened: AtomicU64,
    spans_closed: AtomicU64,
    /// `span.<name>` per name, indexed by `SpanName as usize`; `None`
    /// for the instants.
    latency: [Option<Arc<Histogram>>; SPAN_NAME_COUNT as usize],
}

impl FlightRecorder {
    /// A recorder whose span histograms live in `obs`, which gains all
    /// 25 `span.*` names now, before any span opens.
    pub fn new(config: TraceConfig, obs: &Registry) -> Self {
        let mut h = obs.handles();
        let latency = std::array::from_fn(|i| {
            let name = SpanName::from_u16(i as u16).expect("every index below the count is a name");
            name.histogram_name().map(|n| h.histogram(&n))
        });
        FlightRecorder {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            slow_threshold_ns: AtomicU64::new(config.slow_threshold_ns),
            config,
            rings: OnceLock::new(),
            spans_opened: AtomicU64::new(0),
            spans_closed: AtomicU64::new(0),
            latency,
        }
    }

    /// Turns recording on or off. The first enable allocates the rings;
    /// disable keeps their contents (the flight-recorder window
    /// survives for a post-hoc dump).
    pub fn set_enabled(&self, on: bool) {
        if on {
            self.rings_or_init();
        }
        self.enabled.store(on, Ordering::SeqCst);
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Sets the slow-span promotion threshold (ns); 0 disables.
    pub fn set_slow_threshold_ns(&self, ns: u64) {
        self.slow_threshold_ns.store(ns, Ordering::Relaxed);
    }

    pub fn slow_threshold_ns(&self) -> u64 {
        self.slow_threshold_ns.load(Ordering::Relaxed)
    }

    fn rings_or_init(&self) -> &Rings {
        self.rings.get_or_init(|| Rings {
            shards: (0..self.config.shards.max(1))
                .map(|_| Shard::new(self.config.capacity.max(1)))
                .collect(),
            slow: Shard::new(self.config.slow_capacity.max(1)),
        })
    }

    /// Opens a span; the returned guard records its duration on drop,
    /// and writes it to the ring too if tracing is enabled now.
    #[inline]
    pub fn span(&self, name: SpanName) -> SpanGuard<'_> {
        let depth = self.is_enabled().then(|| {
            self.spans_opened.fetch_add(1, Ordering::Relaxed);
            DEPTH.with(|d| {
                let v = d.get();
                d.set(v.saturating_add(1));
                v
            })
        });
        SpanGuard { rec: self, name, start: Instant::now(), txn: 0, arg: 0, depth }
    }

    /// Records a point event (no duration).
    pub fn instant(&self, name: SpanName, txn: u64, arg: u64) {
        if !self.is_enabled() {
            return;
        }
        let Some(rings) = self.rings.get() else { return };
        let tid = current_tid();
        let start_ns = ns_since(self.epoch, Instant::now());
        let meta = pack_meta(EventKind::Instant, name, tid, DEPTH.with(|d| d.get()));
        let shard = &rings.shards[tid as usize % rings.shards.len()];
        shard.write(meta, start_ns, 0, txn, arg);
    }

    /// Called by [`SpanGuard::drop`]; not public API.
    pub(crate) fn close_span(&self, span: &SpanGuard<'_>) {
        let dur_ns = ns_since(span.start, Instant::now());
        if let Some(h) = &self.latency[span.name as usize] {
            h.record(dur_ns);
        }
        let Some(depth) = span.depth else { return };
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        self.spans_closed.fetch_add(1, Ordering::Relaxed);
        let Some(rings) = self.rings.get() else { return };
        let start_ns = ns_since(self.epoch, span.start);
        let tid = current_tid();
        let meta = pack_meta(EventKind::Span, span.name, tid, depth);
        let shard = &rings.shards[tid as usize % rings.shards.len()];
        shard.write(meta, start_ns, dur_ns, span.txn, span.arg);
        let threshold = self.slow_threshold_ns.load(Ordering::Relaxed);
        if threshold > 0 && dur_ns >= threshold {
            rings.slow.write(meta, start_ns, dur_ns, span.txn, span.arg);
        }
    }

    /// Reads the retained window of every shard: a consistent-per-slot,
    /// globally unordered sample, returned sorted by start time. Safe
    /// to call while writers run (torn slots are skipped, not blocked).
    pub fn capture(&self) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        if let Some(rings) = self.rings.get() {
            for shard in &rings.shards {
                shard.read_into(&mut out);
            }
        }
        out.sort_by_key(|e| (e.start_ns, e.tid, e.seq));
        out
    }

    /// The retained slow-op ring, sorted by start time.
    pub fn capture_slow(&self) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        if let Some(rings) = self.rings.get() {
            rings.slow.read_into(&mut out);
        }
        out.sort_by_key(|e| (e.start_ns, e.tid, e.seq));
        out
    }

    /// Events evicted from the main window (exact; never
    /// under-reports).
    pub fn dropped(&self) -> u64 {
        self.rings
            .get()
            .map(|r| {
                r.shards
                    .iter()
                    .map(|s| s.claims.load(Ordering::SeqCst).saturating_sub(s.capacity() as u64))
                    .sum()
            })
            .unwrap_or(0)
    }

    /// Total events ever recorded into the main window (claims across
    /// shards). Zero while tracing has never been enabled.
    pub fn total_recorded(&self) -> u64 {
        self.rings
            .get()
            .map(|r| r.shards.iter().map(|s| s.claims.load(Ordering::SeqCst)).sum())
            .unwrap_or(0)
    }

    /// Spans opened minus spans closed: 0 when quiescent. A sustained
    /// nonzero value on an idle system means a guard leak.
    pub fn open_spans(&self) -> u64 {
        self.spans_opened
            .load(Ordering::Relaxed)
            .saturating_sub(self.spans_closed.load(Ordering::Relaxed))
    }

    pub fn spans_opened(&self) -> u64 {
        self.spans_opened.load(Ordering::Relaxed)
    }

    /// Fixed memory of the allocated rings in bytes (0 until first
    /// enable).
    pub fn memory_bytes(&self) -> usize {
        self.rings
            .get()
            .map(|r| {
                (r.shards.iter().map(|s| s.slots.len()).sum::<usize>() + r.slow.slots.len()) * 8
            })
            .unwrap_or(0)
    }

    /// Empties the window and zeroes the drop accounting (benchmark
    /// warmup boundary). Not linearizable against concurrent writers;
    /// call it on quiescent boundaries.
    pub fn clear(&self) {
        if let Some(rings) = self.rings.get() {
            for shard in &rings.shards {
                shard.clear();
            }
            rings.slow.clear();
        }
        self.spans_opened.store(0, Ordering::Relaxed);
        self.spans_closed.store(0, Ordering::Relaxed);
    }

    /// Nanoseconds elapsed since this recorder's epoch.
    pub fn now_ns(&self) -> u64 {
        ns_since(self.epoch, Instant::now())
    }
}

fn ns_since(epoch: Instant, t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("enabled", &self.is_enabled())
            .field("recorded", &self.total_recorded())
            .field("dropped", &self.dropped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (FlightRecorder, Registry) {
        let obs = Registry::new();
        let cfg = TraceConfig { shards: 2, capacity: 8, slow_capacity: 4, slow_threshold_ns: 0 };
        (FlightRecorder::new(cfg, &obs), obs)
    }

    fn span_count(obs: &Registry, name: &str) -> u64 {
        obs.snapshot().histogram(name).expect("registered with the recorder").count
    }

    #[test]
    fn disabled_recorder_keeps_histograms_but_no_ring() {
        let (rec, obs) = tiny();
        {
            let _g = rec.span(SpanName::TxnCommit);
        }
        rec.instant(SpanName::ChaosCrash, 1, 2);
        assert_eq!(rec.total_recorded(), 0);
        assert_eq!(rec.memory_bytes(), 0);
        assert!(rec.capture().is_empty());
        assert_eq!(rec.dropped(), 0);
        assert_eq!(span_count(&obs, "span.txn.commit"), 1);
        assert_eq!(obs.len(), 25, "one histogram per duration name, none for instants");
    }

    #[test]
    fn records_and_captures_span_fields() {
        let (rec, _obs) = tiny();
        rec.set_enabled(true);
        {
            let _g = rec.span(SpanName::WalForce).txn(42).arg(7);
        }
        let events = rec.capture();
        assert_eq!(events.len(), 1);
        let e = events[0];
        assert_eq!(e.name, SpanName::WalForce);
        assert_eq!(e.kind, EventKind::Span);
        assert_eq!(e.txn, 42);
        assert_eq!(e.arg, 7);
        assert_eq!(rec.open_spans(), 0);
    }

    #[test]
    fn nesting_depth_is_recorded() {
        let (rec, _obs) = tiny();
        rec.set_enabled(true);
        {
            let _outer = rec.span(SpanName::TxnCommit);
            {
                let _inner = rec.span(SpanName::WalAppend);
            }
        }
        let events = rec.capture();
        let outer = events.iter().find(|e| e.name == SpanName::TxnCommit).unwrap();
        let inner = events.iter().find(|e| e.name == SpanName::WalAppend).unwrap();
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert!(inner.start_ns >= outer.start_ns);
    }

    #[test]
    fn window_is_bounded_and_drops_are_counted() {
        let (rec, obs) = tiny(); // 2 shards x 8 slots
        rec.set_enabled(true);
        for i in 0..100u64 {
            rec.instant(SpanName::ChaosCrash, i, 0);
            let _g = rec.span(SpanName::WalAppend).txn(i);
        }
        // This thread maps to one shard: 200 claims, 8 retained.
        assert_eq!(rec.total_recorded(), 200);
        assert_eq!(rec.dropped(), 192);
        let events = rec.capture();
        assert_eq!(events.len(), 8);
        // The window holds the *latest* events.
        assert!(events.iter().all(|e| e.txn >= 96));
        // The histogram kept every span the ring dropped.
        assert_eq!(span_count(&obs, "span.wal.append"), 100);
    }

    #[test]
    fn slow_ring_captures_above_threshold() {
        let (rec, _obs) = tiny();
        rec.set_enabled(true);
        rec.set_slow_threshold_ns(1); // everything with nonzero duration
        {
            let _g = rec.span(SpanName::CkptRun);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let slow = rec.capture_slow();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].name, SpanName::CkptRun);
        assert!(slow[0].dur_ns >= 1);
    }

    #[test]
    fn clear_resets_window_and_accounting() {
        let (rec, _obs) = tiny();
        rec.set_enabled(true);
        rec.instant(SpanName::ChaosCrash, 0, 0);
        rec.clear();
        assert!(rec.capture().is_empty());
        assert_eq!(rec.total_recorded(), 0);
        assert_eq!(rec.dropped(), 0);
    }
}

//! Block-trace recording — the reproduction's `blktrace`/`blkparse`.
//!
//! The paper visualizes device behaviour by recording a block trace of a
//! TPC-C run (Figures 3 and 4). Every host-visible I/O submitted to a
//! device model is recorded here with its virtual timestamp, logical
//! block address and direction, and can be exported as CSV for plotting.
//! The ring is a bounded *window* on the trace, for the scatter and for
//! locality statistics: volumes and op counts (the paper's `blkparse`
//! totals, Table 1) come from the device counters, `storage.device.*`,
//! which count every I/O the ring may have dropped.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use sias_obs::{Counter, Registry};

/// Direction of a traced I/O.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IoDir {
    /// Host read.
    Read,
    /// Host write.
    Write,
}

/// One traced host I/O.
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    /// Virtual time of submission, microseconds.
    pub time_us: u64,
    /// Device id within a RAID set (0 for single devices).
    pub device: u16,
    /// Logical block address in pages.
    pub lba: u64,
    /// Length in pages.
    pub pages: u32,
    /// Direction.
    pub dir: IoDir,
}

/// Default ring-buffer bound: 2²⁰ events (≈ 24 MiB) — enough for every
/// figure in the paper, small enough that a days-long chaos run cannot
/// grow memory without bound.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 20;

/// Shared, optionally-enabled trace collector.
///
/// Tracing is off by default; the experiment binaries enable it around the
/// measured interval exactly like `blktrace` is started around a benchmark
/// run. The event store is a bounded ring: once `capacity` events are
/// held, each new event evicts the oldest and bumps the
/// `storage.trace.dropped` counter, so long chaos runs keep the *tail*
/// of the trace at a fixed memory ceiling.
#[derive(Debug)]
pub struct TraceCollector {
    enabled: AtomicBool,
    capacity: usize,
    events: Mutex<VecDeque<TraceEvent>>,
    dropped: Arc<Counter>,
}

impl Default for TraceCollector {
    fn default() -> Self {
        TraceCollector {
            enabled: AtomicBool::new(false),
            capacity: DEFAULT_TRACE_CAPACITY,
            events: Mutex::new(VecDeque::new()),
            // Detached counter; `with_registry` shares a real one.
            dropped: Registry::new().counter("storage.trace.dropped"),
        }
    }
}

impl TraceCollector {
    /// Creates a disabled collector with the default ring capacity and a
    /// private drop counter.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Creates a disabled collector bounded at `capacity` events whose
    /// `storage.trace.dropped` counter lives in `obs`.
    pub fn with_registry(capacity: usize, obs: &Registry) -> Arc<Self> {
        assert!(capacity > 0, "trace ring needs room for at least one event");
        Arc::new(TraceCollector {
            enabled: AtomicBool::new(false),
            capacity,
            events: Mutex::new(VecDeque::new()),
            dropped: obs.counter("storage.trace.dropped"),
        })
    }

    /// The ring-buffer bound in events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// Starts recording.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Stops recording (events are kept).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// True when recording.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Records one event if enabled, evicting the oldest event once the
    /// ring is full. Called by device models only.
    pub fn record(&self, ev: TraceEvent) {
        if self.is_enabled() {
            let mut events = self.events.lock();
            if events.len() >= self.capacity {
                events.pop_front();
                self.dropped.inc();
            }
            events.push_back(ev);
        }
    }

    /// Drops all recorded events.
    pub fn clear(&self) {
        self.events.lock().clear();
    }

    /// Snapshot of the recorded events (oldest first).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().iter().copied().collect()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// True when no events are recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders the trace as CSV (`time_s,device,lba,pages,dir`), sorted by
    /// time — the input format of the Figure 3/4 scatter plots.
    pub fn to_csv(&self) -> String {
        let mut events = self.events();
        events.sort_by_key(|e| e.time_us);
        let mut out = String::with_capacity(events.len() * 32 + 32);
        out.push_str("time_s,device,lba,pages,dir\n");
        for e in &events {
            let dir = match e.dir {
                IoDir::Read => 'R',
                IoDir::Write => 'W',
            };
            out.push_str(&format!(
                "{:.6},{},{},{},{}\n",
                e.time_us as f64 / 1e6,
                e.device,
                e.lba,
                e.pages,
                dir
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, lba: u64, dir: IoDir) -> TraceEvent {
        TraceEvent { time_us: t, device: 0, lba, pages: 1, dir }
    }

    #[test]
    fn disabled_collector_records_nothing() {
        let c = TraceCollector::new();
        c.record(ev(1, 2, IoDir::Read));
        assert!(c.is_empty());
    }

    #[test]
    fn enabled_collector_records() {
        let c = TraceCollector::new();
        c.enable();
        c.record(ev(1, 2, IoDir::Read));
        c.record(ev(2, 3, IoDir::Write));
        c.disable();
        c.record(ev(3, 4, IoDir::Write));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn csv_sorted_and_formatted() {
        let c = TraceCollector::new();
        c.enable();
        c.record(ev(2_000_000, 7, IoDir::Write));
        c.record(ev(1_000_000, 9, IoDir::Read));
        let csv = c.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "time_s,device,lba,pages,dir");
        assert_eq!(lines[1], "1.000000,0,9,1,R");
        assert_eq!(lines[2], "2.000000,0,7,1,W");
    }

    #[test]
    fn ring_bound_evicts_oldest_and_counts_drops() {
        let obs = Registry::new_shared();
        let c = TraceCollector::with_registry(4, &obs);
        c.enable();
        for i in 0..10 {
            c.record(ev(i, i, IoDir::Write));
        }
        assert_eq!(c.len(), 4, "ring holds only the newest `capacity` events");
        assert_eq!(c.dropped(), 6);
        let kept: Vec<u64> = c.events().iter().map(|e| e.time_us).collect();
        assert_eq!(kept, vec![6, 7, 8, 9], "tail of the trace survives");
        assert_eq!(obs.snapshot().counter("storage.trace.dropped"), Some(6));
    }

    #[test]
    fn clear_resets() {
        let c = TraceCollector::new();
        c.enable();
        c.record(ev(1, 1, IoDir::Read));
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn csv_roundtrip_preserves_every_event() {
        let c = TraceCollector::new();
        c.enable();
        for i in 0..50u64 {
            c.record(TraceEvent {
                time_us: i * 1000,
                device: (i % 3) as u16,
                lba: i * 7,
                pages: 1 + (i % 4) as u32,
                dir: if i % 2 == 0 { IoDir::Write } else { IoDir::Read },
            });
        }
        let csv = c.to_csv();

        // Parse the CSV back into events.
        let mut parsed = Vec::new();
        for line in csv.lines().skip(1) {
            let f: Vec<&str> = line.split(',').collect();
            assert_eq!(f.len(), 5, "bad row: {line}");
            parsed.push(TraceEvent {
                time_us: (f[0].parse::<f64>().unwrap() * 1e6).round() as u64,
                device: f[1].parse().unwrap(),
                lba: f[2].parse().unwrap(),
                pages: f[3].parse().unwrap(),
                dir: if f[4] == "R" { IoDir::Read } else { IoDir::Write },
            });
        }
        let key = |e: &TraceEvent| (e.time_us, e.device, e.lba, e.pages, e.dir == IoDir::Read);
        let original: Vec<_> = c.events().iter().map(key).collect();
        assert_eq!(parsed.iter().map(key).collect::<Vec<_>>(), original);
    }
}

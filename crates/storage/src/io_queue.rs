//! io_uring-shaped asynchronous I/O queue: submit a batch of page
//! operations, reap completions out of order.
//!
//! Real flash earns its throughput from queue depth — a single
//! blocking `pread` per page leaves the device idle while the host
//! thinks. This queue gives the buffer pool, the checkpointer, and the
//! WAL leader a way to keep many page operations in flight: `submit`
//! enqueues a tagged batch and returns immediately; worker threads
//! (one per slot of queue depth) drain the shared queue against the
//! device; `reap_exact` blocks until a batch's completions arrive, in
//! whatever order the device finished them. The shape matches
//! io_uring's SQ/CQ split, implemented portably with a worker pool so
//! it runs on any platform and over any [`Device`](crate::Device) —
//! including the simulated ones in tests.
//!
//! Batches are isolated: every `submit` returns a batch id and
//! `reap_exact` only ever returns that batch's completions, so
//! concurrent users (a prefetching reader, the checkpointer, the WAL
//! leader) can share one queue without stealing each other's
//! completions.
//!
//! Each operation is attempted exactly once — retry policy stays with
//! the caller ([`crate::device::retry_io`]), which knows whose retry
//! counter to charge.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use parking_lot::{Condvar, Mutex};
use sias_common::{SiasResult, PAGE_SIZE};
use sias_obs::{Counter, Gauge, Histogram, Registry, SpanName};

use crate::device::DeviceRef;

/// One asynchronous page operation.
#[derive(Clone, Debug)]
pub enum IoOp {
    /// Read the page at `lba`; the completion carries the page image.
    Read {
        /// Logical page address.
        lba: u64,
    },
    /// Write `data` to `lba`; `sync` asks the device to make this
    /// single write durable before completing (most batch users write
    /// `sync: false` and issue one [`crate::device::Device::flush`]
    /// barrier at the end instead).
    Write {
        /// Logical page address.
        lba: u64,
        /// Page image to write (exactly `PAGE_SIZE` bytes).
        data: Vec<u8>,
        /// Per-write durability (fdatasync on file devices).
        sync: bool,
    },
}

impl IoOp {
    fn lba(&self) -> u64 {
        match self {
            IoOp::Read { lba } | IoOp::Write { lba, .. } => *lba,
        }
    }
}

/// A finished operation, delivered by [`IoQueue::reap_exact`].
#[derive(Debug)]
pub struct IoCompletion {
    /// Caller-assigned tag from `submit` (typically an index into the
    /// caller's batch bookkeeping).
    pub tag: u64,
    /// The operation's logical page address.
    pub lba: u64,
    /// `Ok(Some(page))` for reads, `Ok(None)` for writes, or the
    /// device error.
    pub result: SiasResult<Option<Vec<u8>>>,
}

struct PendingOp {
    batch: u64,
    tag: u64,
    op: IoOp,
    enqueued: Instant,
}

#[derive(Default)]
struct QueueState {
    pending: VecDeque<PendingOp>,
    done: HashMap<u64, Vec<(IoCompletion, Instant)>>,
    shutdown: bool,
}

struct Inner {
    device: DeviceRef,
    state: Mutex<QueueState>,
    work_cv: Condvar,
    comp_cv: Condvar,
    submitted: Arc<Counter>,
    reaped: Arc<Counter>,
    batches: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    submit_to_reap_us: Arc<Histogram>,
    tracer: Arc<sias_obs::FlightRecorder>,
}

impl Inner {
    fn worker(&self) {
        loop {
            let job = {
                let mut st = self.state.lock();
                loop {
                    if let Some(j) = st.pending.pop_front() {
                        break Some(j);
                    }
                    if st.shutdown {
                        break None;
                    }
                    self.work_cv.wait(&mut st);
                }
            };
            let Some(job) = job else { return };
            let result = match &job.op {
                IoOp::Read { lba } => {
                    let mut buf = vec![0u8; PAGE_SIZE];
                    self.device.try_read_page(*lba, &mut buf).map(|()| Some(buf))
                }
                IoOp::Write { lba, data, sync } => {
                    self.device.try_write_page(*lba, data, *sync).map(|()| None)
                }
            };
            self.queue_depth.sub(1);
            let completion = IoCompletion { tag: job.tag, lba: job.op.lba(), result };
            let mut st = self.state.lock();
            st.done.entry(job.batch).or_default().push((completion, job.enqueued));
            drop(st);
            self.comp_cv.notify_all();
        }
    }
}

/// The submit/reap queue. Dropping it drains in-flight work and joins
/// the workers.
pub struct IoQueue {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    depth: usize,
    next_batch: AtomicU64,
}

impl IoQueue {
    /// Builds a queue of `depth` worker slots over `device`, with
    /// metrics registered in `registry` (`storage.io.*`).
    pub fn new(device: DeviceRef, depth: usize, registry: &Registry) -> Arc<IoQueue> {
        let depth = depth.max(1);
        let inner = Arc::new(Inner {
            device,
            state: Mutex::new(QueueState::default()),
            work_cv: Condvar::new(),
            comp_cv: Condvar::new(),
            submitted: registry.counter("storage.io.submitted"),
            reaped: registry.counter("storage.io.reaped"),
            batches: registry.counter("storage.io.batches"),
            queue_depth: registry.gauge("storage.io.queue_depth"),
            submit_to_reap_us: registry.histogram("storage.io.submit_to_reap_us"),
            tracer: Arc::clone(registry.tracer()),
        });
        let workers = (0..depth)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("sias-io-{i}"))
                    .spawn(move || inner.worker())
                    .expect("spawn io worker")
            })
            .collect();
        Arc::new(IoQueue {
            inner,
            workers: Mutex::new(workers),
            depth,
            next_batch: AtomicU64::new(1),
        })
    }

    /// Queue over a throwaway registry (tests, standalone benches).
    pub fn detached(device: DeviceRef, depth: usize) -> Arc<IoQueue> {
        IoQueue::new(device, depth, &Registry::new())
    }

    /// The queue-depth knob this queue was built with (worker slots =
    /// max operations in flight).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Submits a batch of `(tag, op)` pairs and returns the batch id to
    /// reap with. Returns immediately; ops run on the worker pool in
    /// arrival order but complete in device order.
    pub fn submit(&self, ops: Vec<(u64, IoOp)>) -> u64 {
        let batch = self.next_batch.fetch_add(1, Ordering::Relaxed);
        let _span = self.inner.tracer.span(SpanName::IoSubmit).arg(ops.len() as u64);
        self.inner.batches.inc();
        self.inner.submitted.add(ops.len() as u64);
        self.inner.queue_depth.add(ops.len() as i64);
        let now = Instant::now();
        {
            let mut st = self.inner.state.lock();
            st.done.entry(batch).or_default();
            for (tag, op) in ops {
                st.pending.push_back(PendingOp { batch, tag, op, enqueued: now });
            }
        }
        self.inner.work_cv.notify_all();
        batch
    }

    /// Blocks until `want` completions of `batch` are available and
    /// returns them, in completion (not submission) order. The batch's
    /// bucket is freed once its last completion is reaped.
    pub fn reap_exact(&self, batch: u64, want: usize) -> Vec<IoCompletion> {
        let _span = self.inner.tracer.span(SpanName::IoReap).arg(want as u64);
        let mut st = self.inner.state.lock();
        loop {
            let have = st.done.get(&batch).map_or(0, |v| v.len());
            if have >= want {
                break;
            }
            self.inner.comp_cv.wait(&mut st);
        }
        let bucket = st.done.get_mut(&batch).expect("batch bucket exists");
        let rest = bucket.split_off(want);
        let taken = std::mem::replace(bucket, rest);
        if st.done.get(&batch).is_some_and(|v| v.is_empty()) {
            st.done.remove(&batch);
        }
        drop(st);
        self.inner.reaped.add(taken.len() as u64);
        let now = Instant::now();
        taken
            .into_iter()
            .map(|(c, enqueued)| {
                self.inner
                    .submit_to_reap_us
                    .record(now.saturating_duration_since(enqueued).as_micros() as u64);
                c
            })
            .collect()
    }
}

impl Drop for IoQueue {
    fn drop(&mut self) {
        {
            let mut st = self.inner.state.lock();
            st.shutdown = true;
        }
        self.inner.work_cv.notify_all();
        for w in self.workers.lock().drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::MemDevice;

    fn mem_queue(depth: usize) -> Arc<IoQueue> {
        IoQueue::detached(Arc::new(MemDevice::standalone(4096)), depth)
    }

    #[test]
    fn write_then_read_roundtrip() {
        let q = mem_queue(4);
        let writes: Vec<(u64, IoOp)> = (0..16u64)
            .map(|i| (i, IoOp::Write { lba: i, data: vec![i as u8; PAGE_SIZE], sync: false }))
            .collect();
        let b = q.submit(writes);
        let comps = q.reap_exact(b, 16);
        assert_eq!(comps.len(), 16);
        assert!(comps.iter().all(|c| c.result.is_ok()));

        let reads: Vec<(u64, IoOp)> = (0..16u64).map(|i| (i, IoOp::Read { lba: i })).collect();
        let b = q.submit(reads);
        let mut comps = q.reap_exact(b, 16);
        comps.sort_by_key(|c| c.tag);
        for (i, c) in comps.iter().enumerate() {
            assert_eq!(c.tag, i as u64);
            assert_eq!(c.lba, i as u64);
            let page = c.result.as_ref().unwrap().as_ref().unwrap();
            assert_eq!(page[0], i as u8);
        }
    }

    #[test]
    fn batches_are_isolated() {
        let q = mem_queue(2);
        let a = q.submit((0..8u64).map(|i| (i, IoOp::Read { lba: i })).collect());
        let b = q.submit((0..8u64).map(|i| (100 + i, IoOp::Read { lba: 64 + i })).collect());
        let got_b = q.reap_exact(b, 8);
        let got_a = q.reap_exact(a, 8);
        assert!(got_b.iter().all(|c| c.tag >= 100 && c.lba >= 64));
        assert!(got_a.iter().all(|c| c.tag < 100 && c.lba < 64));
    }

    #[test]
    fn gauge_returns_to_zero_and_counters_add_up() {
        let registry = Registry::new();
        let q = IoQueue::new(Arc::new(MemDevice::standalone(256)), 3, &registry);
        let b = q.submit((0..32u64).map(|i| (i, IoOp::Read { lba: i })).collect());
        let comps = q.reap_exact(b, 32);
        assert_eq!(comps.len(), 32);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("storage.io.submitted"), Some(32));
        assert_eq!(snap.counter("storage.io.reaped"), Some(32));
        assert_eq!(snap.counter("storage.io.batches"), Some(1));
        assert_eq!(snap.gauge("storage.io.queue_depth"), Some(0));
        let lat = snap.histogram("storage.io.submit_to_reap_us").expect("latency histogram");
        assert_eq!(lat.count, 32);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]
            /// Eight concurrent submitters over one queue: every thread
            /// gets exactly its own batch back, with its own tags and
            /// correct page images, regardless of completion order.
            #[test]
            fn eight_concurrent_submitters(
                per_thread in 1usize..24,
                depth in 1usize..12,
            ) {
                const THREADS: u64 = 8;
                let q = mem_queue(depth);
                let mut handles = Vec::new();
                for t in 0..THREADS {
                    let q = Arc::clone(&q);
                    handles.push(std::thread::spawn(move || {
                        // Disjoint LBA range per thread; fill byte encodes
                        // (thread, index) so cross-talk is detectable.
                        let base = t * 128;
                        let writes: Vec<(u64, IoOp)> = (0..per_thread as u64)
                            .map(|i| {
                                let fill = (t * 32 + i) as u8;
                                (i, IoOp::Write { lba: base + i, data: vec![fill; PAGE_SIZE], sync: false })
                            })
                            .collect();
                        let b = q.submit(writes);
                        let comps = q.reap_exact(b, per_thread);
                        assert_eq!(comps.len(), per_thread);
                        assert!(comps.iter().all(|c| c.result.is_ok()));

                        let reads: Vec<(u64, IoOp)> = (0..per_thread as u64)
                            .map(|i| (i, IoOp::Read { lba: base + i }))
                            .collect();
                        let b = q.submit(reads);
                        let mut comps = q.reap_exact(b, per_thread);
                        comps.sort_by_key(|c| c.tag);
                        for (i, c) in comps.iter().enumerate() {
                            assert_eq!(c.tag, i as u64, "thread {t} got a foreign tag");
                            assert_eq!(c.lba, base + i as u64);
                            let page = c.result.as_ref().unwrap().as_ref().unwrap();
                            assert_eq!(page[0], (t * 32 + i as u64) as u8, "thread {t} read foreign data");
                        }
                    }));
                }
                for h in handles {
                    h.join().expect("submitter thread");
                }
            }
        }
    }
}

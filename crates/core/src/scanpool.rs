//! Shared worker pool for parallel VID-map scans.
//!
//! §4.2.1 notes the VID-map access path "is parallelizable and therefore
//! complements the parallelism of the Flash storage". The first cut of
//! the parallel VID-map scan ([`crate::SiasDb::scan`] with more than one
//! thread) spawned fresh OS threads on every call, which dominates the
//! cost of short scans and thrashes the scheduler under concurrent
//! terminals. This pool keeps a small set of long-lived workers that all
//! scans share: jobs are boxed closures fed through an MPMC hand-off (an
//! [`std::sync::mpsc`] channel behind a mutex-guarded receiver), and each
//! call collects its own results over a private response channel, so
//! concurrent scans interleave safely.
//!
//! Workers are spawned lazily — a pool that is never used costs nothing —
//! and capped at construction. The current worker count is published on
//! the `core.scan.parallel_workers` gauge, whose handle the engine
//! resolves with the rest of its metrics.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread;

use parking_lot::Mutex;
use sias_obs::Gauge;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-capacity, lazily populated pool of scan workers.
pub struct ScanPool {
    tx: Mutex<Option<Sender<Job>>>,
    shared_rx: Arc<Mutex<Receiver<Job>>>,
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
    max_workers: usize,
    /// `core.scan.parallel_workers`.
    workers_gauge: Arc<Gauge>,
}

impl ScanPool {
    /// Creates a pool that will grow up to `max_workers` threads,
    /// reporting its size on `workers_gauge`.
    pub fn new(max_workers: usize, workers_gauge: Arc<Gauge>) -> Self {
        let (tx, rx) = channel::<Job>();
        ScanPool {
            tx: Mutex::new(Some(tx)),
            shared_rx: Arc::new(Mutex::new(rx)),
            workers: Mutex::new(Vec::new()),
            max_workers: max_workers.max(1),
            workers_gauge,
        }
    }

    /// Current number of live workers.
    pub fn worker_count(&self) -> usize {
        self.workers.lock().len()
    }

    /// Maximum number of workers this pool will ever run.
    pub fn max_workers(&self) -> usize {
        self.max_workers
    }

    /// Spawns workers until `wanted` (capped at `max_workers`) exist.
    fn ensure_workers(&self, wanted: usize) {
        let wanted = wanted.clamp(1, self.max_workers);
        let mut workers = self.workers.lock();
        while workers.len() < wanted {
            let rx = Arc::clone(&self.shared_rx);
            let handle = thread::Builder::new()
                .name(format!("sias-scan-{}", workers.len()))
                .spawn(move || loop {
                    // Take the receiver lock only for the hand-off; the
                    // job itself runs with no pool-wide lock held.
                    let job = rx.lock().recv();
                    match job {
                        Ok(job) => job(),
                        Err(_) => break, // pool dropped: sender closed
                    }
                })
                .expect("spawn scan worker");
            workers.push(handle);
        }
        self.workers_gauge.set(workers.len() as i64);
    }

    /// Runs `f` over every input on the shared workers and returns the
    /// outputs in input order. Blocks until all inputs are processed.
    pub fn run<In, Out, F>(&self, inputs: Vec<In>, f: F) -> Vec<Out>
    where
        In: Send + 'static,
        Out: Send + 'static,
        F: Fn(In) -> Out + Send + Sync + 'static,
    {
        let n = inputs.len();
        if n == 0 {
            return Vec::new();
        }
        self.ensure_workers(n);
        let f = Arc::new(f);
        let (rtx, rrx) = channel::<(usize, Out)>();
        {
            let tx = self.tx.lock();
            let tx = tx.as_ref().expect("scan pool not shut down");
            for (i, input) in inputs.into_iter().enumerate() {
                let f = Arc::clone(&f);
                let rtx = rtx.clone();
                tx.send(Box::new(move || {
                    let _ = rtx.send((i, f(input)));
                }))
                .expect("scan pool alive");
            }
        }
        drop(rtx);
        let mut out: Vec<Option<Out>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            let (i, v) = rrx.recv().expect("scan worker delivered a result");
            out[i] = Some(v);
        }
        out.into_iter().map(|o| o.expect("every index resolved")).collect()
    }
}

impl Drop for ScanPool {
    fn drop(&mut self) {
        // Close the job channel so idle workers observe Err and exit.
        *self.tx.lock() = None;
        for handle in self.workers.lock().drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn pool(max_workers: usize) -> ScanPool {
        ScanPool::new(max_workers, Arc::default())
    }

    #[test]
    fn results_come_back_in_input_order() {
        let pool = pool(4);
        let out = pool.run((0..100u64).collect(), |x| x * 2);
        assert_eq!(out, (0..100u64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn workers_are_reused_across_calls_and_capped() {
        let gauge = Arc::new(Gauge::new());
        let pool = ScanPool::new(3, Arc::clone(&gauge));
        let seen = Arc::new(Mutex::new(HashSet::new()));
        for _ in 0..5 {
            let seen = Arc::clone(&seen);
            pool.run((0..8).collect::<Vec<i32>>(), move |x| {
                seen.lock().insert(thread::current().name().map(String::from));
                x
            });
        }
        assert_eq!(pool.worker_count(), 3, "pool must not grow past its cap");
        assert!(seen.lock().len() <= 3, "jobs must run on pooled threads only");
        assert_eq!(gauge.get(), 3);
    }

    #[test]
    fn lazy_spawn_means_an_unused_pool_has_no_threads() {
        let pool = pool(8);
        assert_eq!(pool.worker_count(), 0);
        pool.run(vec![1], |x: i32| x);
        assert_eq!(pool.worker_count(), 1);
    }

    #[test]
    fn concurrent_callers_get_their_own_results() {
        let pool = Arc::new(pool(2));
        let done = Arc::new(AtomicUsize::new(0));
        thread::scope(|s| {
            for caller in 0..4usize {
                let pool = Arc::clone(&pool);
                let done = Arc::clone(&done);
                s.spawn(move || {
                    let out = pool.run((0..50usize).collect(), move |x| caller * 1000 + x);
                    assert_eq!(out, (0..50).map(|x| caller * 1000 + x).collect::<Vec<_>>());
                    done.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(done.load(Ordering::Relaxed), 4);
    }
}

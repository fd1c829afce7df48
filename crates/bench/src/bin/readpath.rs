//! Read-path ablation: scalar vs batched (page-grouped) chain traversal
//! and locked vs lock-free CLOG.
//!
//! Sweeps chain depth × scan threads on a SIAS relation whose reader
//! holds a snapshot **older than every update**, so each scan walks the
//! full chain of every item — the paper's worst-case selective-read
//! pattern (§4.2.1). The batched side is the engine's VID-map scan,
//! `SiasDb::scan`; the scalar side is the ablation baseline
//! [`scan_scalar`], the same partitions on the same threads walked one
//! chain at a time. Every cell asserts both, at 1 thread and at the
//! cell's thread count, are byte-identical to the serial scalar walk
//! (the CI smoke job relies on the process exiting non-zero on
//! disagreement), then reports wall-clock and the pin/fetch accounting
//! from `core.engine.scan_*` counters. Gate: batched ≥ 1.5× scalar at
//! depth ≥ 4 on the widest thread count.
//!
//! A second micro-section hammers `Clog::status` from many threads and
//! compares against a `RwLock<Vec<u8>>` CLOG equivalent to the
//! pre-overhaul implementation.
//!
//! ```text
//! cargo run --release -p sias-bench --bin readpath -- [--items N]
//!     [--reps N] [--quick] [--metrics-out PATH]
//!     [--trace-out PATH] [--series-out PATH]
//! ```
//!
//! `--trace-out` / `--series-out` run one extra instrumented cell
//! (tracing plus sampler enabled) after the timed sweep — the timed
//! cells themselves always run untraced — and dump its flight-recorder
//! window and sampled time series.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use parking_lot::RwLock;
use sias_bench::report::{best_of, field, num, Gate, Op, Report, Row};
use sias_bench::{Args, Backend, ObsArgs};
use sias_common::{RelId, Tid, Vid, Xid};
use sias_core::chain::visible_version;
use sias_core::SiasDb;
use sias_storage::StorageConfig;
use sias_txn::{Clog, MvccEngine, Txn, TxnStatus};

/// The pre-overhaul CLOG shape: 2-bit statuses packed four per byte
/// behind a reader-writer lock that every probe acquires.
struct LockedClog {
    bytes: RwLock<Vec<u8>>,
}

impl LockedClog {
    fn new() -> Self {
        LockedClog { bytes: RwLock::new(Vec::new()) }
    }

    fn set(&self, xid: Xid, v: u8) {
        let byte = (xid.0 / 4) as usize;
        let shift = ((xid.0 % 4) * 2) as u32;
        let mut bytes = self.bytes.write();
        if bytes.len() <= byte {
            bytes.resize(byte + 1, 0);
        }
        bytes[byte] = (bytes[byte] & !(0b11 << shift)) | (v << shift);
    }

    fn status(&self, xid: Xid) -> u8 {
        let byte = (xid.0 / 4) as usize;
        let shift = ((xid.0 % 4) * 2) as u32;
        let bytes = self.bytes.read();
        bytes.get(byte).map_or(0, |b| (b >> shift) & 0b11)
    }
}

/// Builds a relation of `items` rows whose chains are exactly `depth`
/// versions deep, plus a reader snapshot that predates every update (so
/// its scans walk each chain to the bottom). Returns the db, relation,
/// and the reader transaction.
fn build_history(storage_cfg: &StorageConfig, items: usize, depth: u64) -> (SiasDb, RelId, Txn) {
    let db = SiasDb::open(storage_cfg.clone());
    let rel = db.create_relation("readpath");
    let t = db.begin();
    let vids: Vec<_> =
        (0..items).map(|i| db.insert_item(&t, rel, &(i as u64).to_le_bytes()).unwrap()).collect();
    db.commit(t).unwrap();
    let reader = db.begin(); // old snapshot: every later update is invisible
    for round in 1..depth {
        let t = db.begin();
        for &vid in &vids {
            db.update_item(&t, rel, vid, &round.to_le_bytes()).unwrap();
        }
        db.commit(t).unwrap();
    }
    (db, rel, reader)
}

/// The scalar-traversal ablation of [`SiasDb::scan`]: the same
/// contiguous partitions and the same thread placement (one partition
/// on the caller's thread, otherwise one per shared scan worker), but
/// each item's chain is walked on its own with the scalar walker, one
/// pin per version. It records no engine metrics.
fn scan_scalar(db: &SiasDb, reader: &Txn, rel: RelId, threads: usize) -> Vec<(Vid, Bytes)> {
    let mut entries: Vec<(Vid, Tid)> = Vec::new();
    db.relation_handle(rel).expect("relation").vidmap.for_each(|vid, tid| entries.push((vid, tid)));
    let len = entries.len();
    let threads = threads.clamp(1, len.max(1));
    let chunk = len.div_ceil(threads).max(1);
    let entries = Arc::new(entries);
    let pool = Arc::clone(&db.stack().pool);
    let txm = Arc::clone(db.txm());
    let snapshot = reader.snapshot.clone();
    let walk = move |lo: usize| -> Vec<(Vid, Bytes)> {
        let part = &entries[lo..(lo + chunk).min(len)];
        part.iter()
            .filter_map(|&(vid, entry)| {
                let (found, _) =
                    visible_version(&pool, rel, entry, &snapshot, &txm.clog).expect("scalar walk");
                found.filter(|(_, v)| !v.tombstone).map(|(_, v)| (vid, v.payload))
            })
            .collect()
    };
    if threads == 1 {
        return walk(0);
    }
    db.scan_pool().run((0..len).step_by(chunk).collect(), walk).into_iter().flatten().collect()
}

/// One (depth, threads) sweep cell.
fn run_cell(
    storage_cfg: &StorageConfig,
    items: usize,
    depth: u64,
    threads: usize,
    reps: usize,
) -> Row {
    let (db, rel, reader) = build_history(storage_cfg, items, depth);
    // Correctness gate: the batched scan on 1 and on `threads` threads
    // and the scalar ablation must agree byte-for-byte with the serial
    // scalar walk.
    let serial = scan_scalar(&db, &reader, rel, 1);
    assert_eq!(serial.len(), items, "old reader must see every item");
    for (scan, label) in [
        (db.scan(&reader, rel, 1).expect("batched"), "batched"),
        (db.scan(&reader, rel, threads).expect("parallel"), "parallel"),
        (scan_scalar(&db, &reader, rel, threads), "parallel-scalar"),
    ] {
        assert_eq!(scan, serial, "{label} scan diverged from scalar at depth {depth}");
    }

    let (scalar_ns, _) = best_of(reps, || scan_scalar(&db, &reader, rel, threads));
    // Count one batched scan's pins/fetches before timing it.
    let before = db.metrics_snapshot();
    db.scan(&reader, rel, threads).expect("batched");
    let after = db.metrics_snapshot();
    let counter = |name: &str| after.counter(name).expect(name) - before.counter(name).expect(name);
    let (page_visits, versions_fetched) =
        (counter("core.engine.scan_page_visits"), counter("core.engine.scan_versions_fetched"));
    assert!(
        page_visits <= versions_fetched,
        "page visits ({page_visits}) must not exceed versions fetched ({versions_fetched})"
    );
    let (batched_ns, _) = best_of(reps, || db.scan(&reader, rel, threads).expect("batched"));
    let memo = reader.snapshot.memo();
    let row = vec![
        ("depth", depth.into()),
        ("threads", threads.into()),
        ("items", items.into()),
        ("scalar_ns", (scalar_ns as u64).into()),
        ("batched_ns", (batched_ns as u64).into()),
        ("speedup", num(scalar_ns as f64 / batched_ns.max(1) as f64, 3)),
        ("page_visits", page_visits.into()),
        ("versions_fetched", versions_fetched.into()),
        ("memo_hits", memo.hits().into()),
        ("memo_misses", memo.misses().into()),
    ];
    db.commit(reader).unwrap();
    row
}

/// Locked-vs-lock-free CLOG status probes: `threads` workers each replay
/// `probes` status loads over a 4096-xid window (every byte shared by
/// four lanes), with one commit per 64 probes mixed in.
fn clog_ops_per_sec(threads: usize, probes: u64, lock_free: bool) -> f64 {
    let locked = Arc::new(LockedClog::new());
    let atomic = Arc::new(Clog::new());
    for x in 0..4096u64 {
        if x % 3 == 0 {
            locked.set(Xid(x), 0b01);
            atomic.commit(Xid(x));
        }
    }
    let sink = Arc::new(AtomicU64::new(0));
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let locked = Arc::clone(&locked);
            let atomic = Arc::clone(&atomic);
            let sink = Arc::clone(&sink);
            s.spawn(move || {
                let mut acc = 0u64;
                let mut x = t as u64 * 97;
                for i in 0..probes {
                    x = (x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407)
                        >> 33)
                        % 4096;
                    if lock_free {
                        acc += (atomic.status(Xid(x)) == TxnStatus::Committed) as u64;
                        if i % 64 == 0 {
                            atomic.commit(Xid(x));
                        }
                    } else {
                        acc += (locked.status(Xid(x)) == 0b01) as u64;
                        if i % 64 == 0 {
                            locked.set(Xid(x), 0b01);
                        }
                    }
                }
                sink.fetch_add(acc, Ordering::Relaxed);
            });
        }
    });
    let secs = t0.elapsed().as_secs_f64();
    (threads as u64 * probes) as f64 / secs.max(1e-9)
}

fn main() {
    let args = Args::from_env();
    let obs_args = ObsArgs::parse(&args);
    let quick = args.flag("--quick");
    let items: usize = args.get("--items", if quick { 512 } else { 2048 });
    let reps: usize = args.get("--reps", 5);
    let depths: Vec<u64> = if quick { vec![1, 4] } else { vec![1, 2, 4, 8] };
    let threads: Vec<usize> = if quick { vec![1, 8] } else { vec![1, 2, 4, 8] };
    let max_threads = *threads.iter().max().expect("threads");
    let clog_probes: u64 = if quick { 200_000 } else { 1_000_000 };
    let backend = args.backend(Backend::Mem);
    let storage_cfg = backend.storage(4096, args.opt("--io-depth"));

    let mut report = Report::new(
        "readpath",
        vec![
            ("backend", backend.label().into()),
            ("io_queue_depth", storage_cfg.io_queue_depth.into()),
            ("items", items.into()),
            ("reps", reps.into()),
            ("quick", quick.into()),
            ("clog_probes_per_thread", clog_probes.into()),
            ("gate_threads", max_threads.into()),
        ],
    );
    for &depth in &depths {
        for &th in &threads {
            report.row("cells", run_cell(&storage_cfg, items, depth, th, reps));
        }
    }
    // CLOG probes, {status : commit} = 64:1.
    for &th in &threads {
        let locked = clog_ops_per_sec(th, clog_probes, false);
        let free = clog_ops_per_sec(th, clog_probes, true);
        report.row(
            "clog",
            vec![
                ("threads", th.into()),
                ("locked_ops_per_sec", num(locked, 0)),
                ("lock_free_ops_per_sec", num(free, 0)),
                ("ratio", num(free / locked, 3)),
            ],
        );
    }

    // Acceptance: batched ≥ 1.5× scalar at depth ≥ 4 on the widest sweep.
    let gate_speedup = report
        .rows("cells")
        .iter()
        .filter(|c| field(c, "depth") >= 4.0 && field(c, "threads") == max_threads as f64)
        .map(|c| field(c, "speedup"))
        .fold(f64::INFINITY, f64::min);
    report.gates([Gate::new("min_speedup_depth_ge_4", gate_speedup, Op::Ge, 1.5)]);

    // One extra instrumented cell for the observability dumps: the timed
    // sweep above stays untraced so its numbers are clean.
    if obs_args.requested() {
        let (db, rel, reader) = build_history(&storage_cfg, items.min(512), 4);
        let registry = db.obs_registry().expect("sias registry");
        obs_args
            .observe(registry, false, || db.scan(&reader, rel, max_threads).expect("metrics scan"));
        db.commit(reader).unwrap();
        obs_args.dump_metrics(&[("readpath/metrics".to_string(), db.metrics_snapshot())]);
    }
    report.finish(&backend.results_name("readpath"));
}

//! **I/O backend bench** — hardware-grounded numbers for the real-file
//! storage path: batched (submit/reap) vs blocking per-page reads,
//! stripe-width scaling, and a recovery byte-identity check between the
//! in-memory and file-backed stacks.
//!
//! Three sections, each with an acceptance check (the process exits
//! non-zero on a miss):
//!
//! 1. **Queue depth sweep** (device level): cold random single-page
//!    reads over an O_DIRECT-opened file, blocking loop vs [`IoQueue`]
//!    batches at each `--depths` entry. Asserts the batched path is
//!    ≥ 1.5× the blocking path at queue depth ≥ 8 — worker threads
//!    overlap genuine device waits, so this holds even on one core.
//! 2. **Stripe sweep**: the same cold scan over 1-wide vs N-wide
//!    file stripes ([`FileDevice::open_stripe`], a `Raid0` over files)
//!    at equal **per-member** depth (per-device NCQ framing, as the
//!    paper's per-SSD queues). Asserts 2-stripe beats 1-stripe at
//!    per-member depth 1.
//! 3. **Recovery byte-identity**: the same seeded workload runs on an
//!    in-memory stack and a file-backed stack; both checkpoint, the
//!    file image is reopened, the WAL is scanned and replayed, and
//!    every allocated data page of the two recovered stacks must match
//!    byte for byte.
//!
//! ```text
//! cargo run --release -p sias-bench --bin iobench -- \
//!     [--pages 4096] [--depths 2,4,8,16] [--stripes 1,2] \
//!     [--quick] [--dir /path/for/files]
//! ```
//!
//! Writes `results/BENCH_file_io.json`.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use sias_bench::report::{field, num, Gate, Op, Report};
use sias_bench::Args;
use sias_common::{RelId, PAGE_SIZE};
use sias_core::{FlushPolicy, SiasDb};
use sias_storage::{Device, DeviceRef, FileDevice, IoOp, IoQueue, StorageConfig, Wal};
use sias_txn::MvccEngine;

/// Deterministic page-fill pattern (also the read-back check).
fn fill(lba: u64) -> u8 {
    (lba.wrapping_mul(2654435761) >> 16) as u8
}

/// Pseudo-random permutation walk over `[0, n)`: visits every page once
/// in scattered order (cold random reads, no locality for readahead).
fn shuffled(n: u64, seed: u64) -> Vec<u64> {
    let mut order: Vec<u64> = (0..n).collect();
    let mut s = seed.max(1);
    for i in (1..order.len()).rev() {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let j = (s >> 33) as usize % (i + 1);
        order.swap(i, j);
    }
    order
}

/// Writes the fill pattern to all `pages` and syncs, so every later
/// read is against real on-disk data.
fn prepare(dev: &dyn Device, pages: u64) {
    let mut img = vec![0u8; PAGE_SIZE];
    for lba in 0..pages {
        img.fill(fill(lba));
        dev.write_page(lba, &img, false);
    }
    dev.flush().expect("prepare flush");
}

/// Blocking baseline: one synchronous read per page, in `order`.
fn blocking_read_ns(dev: &dyn Device, order: &[u64]) -> u128 {
    let mut buf = vec![0u8; PAGE_SIZE];
    let t0 = Instant::now();
    for &lba in order {
        dev.read_page(lba, &mut buf);
        assert_eq!(buf[0], fill(lba), "page {lba} corrupt");
    }
    t0.elapsed().as_nanos()
}

/// Queued path: submit/reap waves of `2 × depth` reads over an
/// [`IoQueue`] with `depth` workers.
fn queued_read_ns(dev: &DeviceRef, order: &[u64], depth: usize) -> u128 {
    let io = IoQueue::detached(Arc::clone(dev), depth);
    let wave = (depth * 2).max(2);
    let t0 = Instant::now();
    for chunk in order.chunks(wave) {
        let ops: Vec<(u64, IoOp)> =
            chunk.iter().enumerate().map(|(i, &lba)| (i as u64, IoOp::Read { lba })).collect();
        let want = ops.len();
        let batch = io.submit(ops);
        for comp in io.reap_exact(batch, want) {
            let data = comp.result.expect("queued read").expect("read payload");
            assert_eq!(data[0], fill(comp.lba), "page {} corrupt via queue", comp.lba);
        }
    }
    t0.elapsed().as_nanos()
}

fn pages_per_sec(pages: usize, ns: u128) -> f64 {
    pages as f64 / (ns as f64 / 1e9)
}

/// Opens a stripe set of `width` files under `dir` (width 1 = a plain
/// [`FileDevice`]), pre-filled and synced.
fn open_striped(dir: &std::path::Path, tag: &str, width: usize, pages: u64) -> DeviceRef {
    let paths: Vec<PathBuf> =
        (0..width).map(|m| dir.join(format!("iobench-{tag}-{width}w-m{m}.dat"))).collect();
    for p in &paths {
        let _ = std::fs::remove_file(p);
    }
    let dev: DeviceRef = if width == 1 {
        Arc::new(FileDevice::standalone(&paths[0], pages).expect("open file"))
    } else {
        Arc::new(
            FileDevice::open_stripe(&paths, pages, sias_storage::device::DeviceEnv::fresh())
                .expect("open stripe"),
        )
    };
    prepare(dev.as_ref(), pages);
    dev
}

fn cleanup(dir: &std::path::Path) {
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            if e.file_name().to_string_lossy().starts_with("iobench-") {
                let _ = std::fs::remove_file(e.path());
            }
        }
    }
}

/// Runs the same seeded update workload on `db`, checkpoints, and
/// returns the relation used.
fn seeded_workload(db: &SiasDb, txns: u64, keys: u64) -> RelId {
    let rel = db.create_relation("iobench");
    let t = db.begin();
    for k in 0..keys {
        db.insert(&t, rel, k, format!("seed {k}").as_bytes()).unwrap();
    }
    db.commit(t).unwrap();
    for i in 0..txns {
        let t = db.begin();
        db.update(&t, rel, i % keys, format!("txn {i}").as_bytes()).unwrap();
        db.update(&t, rel, (i * 7 + 3) % keys, format!("txn {i} b").as_bytes()).unwrap();
        db.commit(t).unwrap();
    }
    db.checkpoint().expect("checkpoint");
    rel
}

/// Reads every allocated data page of a stack straight off its device.
fn device_image(db: &SiasDb) -> Vec<Vec<u8>> {
    let stack = db.stack();
    let space = &stack.space;
    let mut pages = Vec::new();
    let mut buf = vec![0u8; PAGE_SIZE];
    for rel in space.relations() {
        for block in 0..space.relation_blocks(rel) {
            let lba = space.resolve(rel, block).expect("resolve");
            stack.data.read_page(lba, &mut buf);
            pages.push(buf.clone());
        }
    }
    pages
}

/// Section 3: same workload on mem and file stacks, crash-style reopen
/// of the file image, WAL scan + replay, byte-compare all data pages.
/// Returns (pages compared, wal records replayed).
fn recovery_identity(dir: &std::path::Path, txns: u64, keys: u64) -> (usize, usize) {
    let file_path = dir.join("iobench-recovery.dat");
    let wal_path = dir.join("iobench-recovery.dat.wal");
    let _ = std::fs::remove_file(&file_path);
    let _ = std::fs::remove_file(&wal_path);

    // Run the workload on both backings.
    let mem_db = SiasDb::open(StorageConfig::in_memory().with_pool_frames(256));
    seeded_workload(&mem_db, txns, keys);

    let file_cfg = StorageConfig::file(&file_path)
        .with_pool_frames(256)
        .with_capacity_pages(1 << 14)
        .with_io_queue_depth(4);
    let records = {
        let file_db = SiasDb::open(file_cfg.clone());
        seeded_workload(&file_db, txns, keys);
        file_db.stack().wal.force().unwrap();
        drop(file_db); // "crash": only the on-disk image survives
        let wal_dev = FileDevice::standalone(&wal_path, 1 << 22).expect("reopen wal");
        let (records, _) = Wal::scan_device(&wal_dev);
        records
    };
    assert!(!records.is_empty(), "wal scan of the file image found no records");

    // Replay the scanned log onto a fresh in-memory stack and compare
    // against the directly-built one: recovery from the *file* image
    // must land byte-identical to the in-memory reference.
    let (rec_db, stats) = SiasDb::recover_from_wal(
        &records,
        StorageConfig::in_memory().with_pool_frames(256),
        FlushPolicy::T2,
    )
    .expect("recover from file wal");
    rec_db.checkpoint().expect("recovered checkpoint");
    mem_db.checkpoint().expect("reference checkpoint");
    let reference = device_image(&mem_db);
    let recovered = device_image(&rec_db);
    assert_eq!(reference.len(), recovered.len(), "allocated page counts differ");
    for (i, (a, b)) in reference.iter().zip(&recovered).enumerate() {
        assert_eq!(a, b, "data page {i} differs between in-memory and file-recovered stacks");
    }
    let _ = std::fs::remove_file(&file_path);
    let _ = std::fs::remove_file(&wal_path);
    (reference.len(), stats.records_scanned as usize)
}

fn main() {
    let args = Args::from_env();
    let quick = args.flag("--quick");
    let pages: u64 = args.get("--pages", if quick { 1024 } else { 4096 });
    let depths: Vec<usize> =
        args.list("--depths", if quick { vec![2, 8] } else { vec![2, 4, 8, 16] });
    let stripes: Vec<usize> = args.list("--stripes", vec![1, 2]);
    let dir = args.raw("--dir").map_or_else(std::env::temp_dir, PathBuf::from);
    std::fs::create_dir_all(&dir).expect("create bench dir");
    let mut report = Report::new(
        "iobench",
        vec![
            ("pages", pages.into()),
            ("quick", quick.into()),
            ("dir", dir.display().to_string().into()),
        ],
    );

    // ---- Section 1: queue-depth sweep on a single file -------------
    // Cold random reads; the speedup is over the blocking loop.
    let dev = open_striped(&dir, "depth", 1, pages);
    let order = shuffled(pages, 7);
    let blocking_ns = blocking_read_ns(dev.as_ref(), &order);
    let blocking_pps = pages_per_sec(order.len(), blocking_ns);
    for &d in &depths {
        let ns = queued_read_ns(&dev, &order, d);
        report.row(
            "depth_cells",
            vec![
                ("depth", d.into()),
                ("pages_per_sec", num(pages_per_sec(order.len(), ns), 0)),
                ("blocking_pages_per_sec", num(blocking_pps, 0)),
                ("speedup", num(blocking_ns as f64 / ns as f64, 3)),
            ],
        );
    }
    drop(dev);

    // ---- Section 2: stripe sweep at equal per-member depth ---------
    // Per-member queue depth: per-device NCQ framing.
    let member_depths: Vec<usize> = if quick { vec![1, 2] } else { vec![1, 2, 4] };
    for &pm in &member_depths {
        let mut one_wide_pps = 0.0;
        for &w in &stripes {
            let dev = open_striped(&dir, "stripe", w, pages);
            let order = shuffled(pages, 11);
            let ns = queued_read_ns(&dev, &order, pm * w);
            let pps = pages_per_sec(order.len(), ns);
            if w == 1 {
                one_wide_pps = pps;
            }
            let rel = if one_wide_pps > 0.0 { pps / one_wide_pps } else { 1.0 };
            report.row(
                "stripe_cells",
                vec![
                    ("stripes", w.into()),
                    ("per_member_depth", pm.into()),
                    ("pages_per_sec", num(pps, 0)),
                    ("vs_one_wide", num(rel, 3)),
                ],
            );
            drop(dev);
        }
    }

    // ---- Section 3: recovery byte-identity -------------------------
    let (rec_txns, rec_keys) = if quick { (60, 16) } else { (200, 32) };
    let (pages_compared, records_replayed) = recovery_identity(&dir, rec_txns, rec_keys);
    report.row(
        "recovery",
        vec![
            ("pages_compared", pages_compared.into()),
            ("records_replayed", records_replayed.into()),
        ],
    );
    cleanup(&dir);

    // ---- Acceptance -------------------------------------------------
    let best_deep = report
        .rows("depth_cells")
        .iter()
        .filter(|c| field(c, "depth") >= 8.0)
        .map(|c| field(c, "speedup"))
        .fold(f64::NEG_INFINITY, f64::max);
    let stripe2 = report
        .rows("stripe_cells")
        .iter()
        .find(|c| field(c, "stripes") == 2.0 && field(c, "per_member_depth") == 1.0)
        .map(|c| Gate::new("stripe2_vs_stripe1_pm_depth_1", field(c, "vs_one_wide"), Op::Gt, 1.0));
    report.gates([Gate::new("batched_speedup_depth_ge_8", best_deep, Op::Ge, 1.5)]);
    report.gates(stripe2);
    report.finish("BENCH_file_io.json");
}

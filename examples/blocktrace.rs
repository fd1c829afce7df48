//! Blocktrace: a miniature Figures 3–4 — run a short TPC-C burst on the
//! Flash model under both engines and print their I/O patterns side by
//! side: SIAS appends (read-mostly device traffic, sequential writes),
//! SI scatters in-place updates.
//!
//! ```text
//! cargo run --release --example blocktrace
//! ```

use sias::core::SiasDb;
use sias::si::SiDb;
use sias::storage::{IoDir, StorageConfig, StorageStack};
use sias::txn::MvccEngine;
use sias::workload::{load, run_benchmark, DriverConfig, TpccConfig};

fn run<E: MvccEngine>(engine: &E, stack: &StorageStack) {
    let cfg = TpccConfig::scaled(5);
    let tables = load(engine, &cfg).expect("load");
    engine.maintenance(true);
    let before = stack.data.stats();
    stack.trace.clear();
    stack.trace.enable();
    let dcfg = DriverConfig::for_warehouses(5).with_duration(60).with_think_scale(0.2);
    let res = run_benchmark(engine, &tables, &cfg, &dcfg, &stack.clock).expect("bench");
    stack.trace.disable();

    // Totals from the device counters; the trace ring is the window the
    // pattern lines and the scatter come from.
    let s = stack.data.stats() - before;
    let events = stack.trace.events();
    let total = (s.host_read_pages + s.host_write_pages).max(1) as f64;
    let writes: Vec<u64> = events.iter().filter(|e| e.dir == IoDir::Write).map(|e| e.lba).collect();
    let distinct: std::collections::BTreeSet<u64> = writes.iter().copied().collect();
    println!("--- {} ---", engine.name());
    println!("  NOTPM {:.0}", res.notpm);
    println!(
        "  device ops: {:.1}% reads / {:.1}% writes  ({} + {})",
        100.0 * s.host_read_pages as f64 / total,
        100.0 * s.host_write_pages as f64 / total,
        s.host_read_pages,
        s.host_write_pages
    );
    println!("  write volume: {:.1} MB", s.host_write_mb());
    if !writes.is_empty() {
        let rewrite = writes.len() as f64 / distinct.len() as f64;
        println!(
            "  write pattern: {} writes over {} distinct pages — {:.1} writes/page: {}",
            writes.len(),
            distinct.len(),
            rewrite,
            if rewrite < 3.0 {
                "write-mostly-once appends (Figure 3)"
            } else {
                "in-place rewrites (Figure 4)"
            }
        );
    }
    // A low-fi scatter plot: time on x, LBA bucket on y.
    let (t_max, lba_max) =
        events.iter().fold((1u64, 1u64), |(t, l), e| (t.max(e.time_us), l.max(e.lba)));
    const W: usize = 72;
    const H: usize = 14;
    let mut grid = vec![[b' '; W]; H];
    for e in &events {
        let x = (e.time_us as usize * (W - 1)) / t_max as usize;
        let y = H - 1 - (e.lba as usize * (H - 1)) / lba_max as usize;
        let c = match e.dir {
            IoDir::Read => b'.',
            IoDir::Write => b'#',
        };
        if grid[y][x] != b'#' {
            grid[y][x] = c;
        }
    }
    println!("  LBA x time  ('.' read, '#' write):");
    for row in &grid {
        println!("  |{}|", std::str::from_utf8(row).unwrap());
    }
    println!();
}

fn main() {
    let sias = SiasDb::open(StorageConfig::ssd().with_pool_frames(256));
    run(&sias, sias.stack());
    let si = SiDb::open(StorageConfig::ssd().with_pool_frames(256));
    run(&si, si.stack());
}

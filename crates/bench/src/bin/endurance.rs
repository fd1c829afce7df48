//! **Ablation A6** — Flash endurance (§6 *Flash Endurance*).
//!
//! "Since wear on the device is measured using the average amount of
//! erases, avoidance of small updates … becomes more important. The I/O
//! pattern, as created by SIAS-Chains, suggests an increased endurance of
//! the Flash memories."
//!
//! This ablation runs the same TPC-C interval on a deliberately small
//! SSD (so the FTL must garbage-collect) and reports what the device
//! endured: host writes, internal relocation writes, erases, and the
//! write-amplification factor — SI's scattered overwrites fragment erase
//! blocks and force relocation; SIAS's appends invalidate whole blocks
//! at once.
//!
//! ```text
//! cargo run --release -p sias-bench --bin endurance [-- --wh 20 --duration 300]
//! ```

use sias_bench::{arg_value, build_on, write_results, EngineKind, ObsArgs};
use sias_obs::MetricsSnapshot;
use sias_storage::{DeviceStats, FlashConfig, Media, StorageConfig};
use sias_workload::{load, run_benchmark, DriverConfig, TpccConfig};

fn small_ssd() -> StorageConfig {
    // A tight device: little spare capacity, so sustained write traffic
    // forces erase-block GC within the run. (Capacity must still cover
    // the tablespace's per-relation extents: ~27 relations × 1024 pages.)
    StorageConfig {
        media: Media::SsdRaid {
            members: 1,
            flash: FlashConfig {
                capacity_pages: 32 * 1024, // 256 MiB
                overprovision: 0.08,
                ..FlashConfig::default()
            },
        },
        pool_frames: 512,
        pool_shards: 0,
        capacity_pages: 32 * 1024,
        faults: sias_storage::FaultPlan::none(),
        wal: sias_storage::WalConfig::default(),
        trace_capacity: sias_storage::DEFAULT_TRACE_CAPACITY,
        io_queue_depth: 0,
        maint_pages_per_sec: sias_storage::DEFAULT_MAINT_PAGES_PER_SEC,
        space: sias_storage::SpaceConfig::default(),
    }
}

/// Device and engine counters over the measured interval.
fn run(kind: EngineKind, wh: u32, duration: u64) -> (DeviceStats, MetricsSnapshot) {
    let any = build_on(kind, small_ssd());
    let (db, stack) = (any.engine(), any.stack());
    let cfg = TpccConfig::scaled(wh);
    let tables = load(db, &cfg).expect("load");
    db.maintenance(true);
    let (device_before, metrics_before) = (stack.data.stats(), db.metrics_snapshot());
    let dcfg = DriverConfig::for_warehouses(wh).with_duration(duration);
    run_benchmark(db, &tables, &cfg, &dcfg, &stack.clock).expect("bench");
    (stack.data.stats() - device_before, db.metrics_snapshot().since(&metrics_before))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let wh: u32 = arg_value(&args, "--wh").and_then(|v| v.parse().ok()).unwrap_or(20);
    let duration: u64 = arg_value(&args, "--duration").and_then(|v| v.parse().ok()).unwrap_or(300);

    println!("Ablation: Flash endurance on a 256 MiB SSD ({wh} WH, {duration}s)\n");
    println!(
        "{:<10} {:>12} {:>14} {:>8} {:>8}",
        "engine", "host writes", "FTL relocs", "erases", "WA"
    );
    let obs_args = ObsArgs::parse(&args);
    let mut mruns = Vec::new();
    let mut csv =
        String::from("engine,host_write_pages,internal_write_pages,erases,write_amplification\n");
    for kind in [EngineKind::Si, EngineKind::SiasT1, EngineKind::SiasT2] {
        let (s, metrics) = run(kind, wh, duration);
        mruns.push((kind.label().to_string(), metrics));
        println!(
            "{:<10} {:>12} {:>14} {:>8} {:>8.2}",
            kind.label(),
            s.host_write_pages,
            s.internal_write_pages,
            s.erases,
            s.write_amplification()
        );
        csv.push_str(&format!(
            "{},{},{},{},{:.3}\n",
            kind.label(),
            s.host_write_pages,
            s.internal_write_pages,
            s.erases,
            s.write_amplification()
        ));
    }
    let path = write_results("endurance.csv", &csv);
    println!("\nwrote {}", path.display());
    if let Some(p) = obs_args.dump_metrics(&mruns) {
        println!("wrote metrics to {}", p.display());
    }
    println!("\nWear ∝ erases; SIAS's append pattern needs fewer host writes *and*");
    println!("amplifies each one less — the §6 endurance argument, quantified.");
}

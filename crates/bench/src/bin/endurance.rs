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

use sias_bench::report::{num, Report};
use sias_bench::{run_cell, Args, EngineKind, ObsArgs};
use sias_storage::{FlashConfig, Media, StorageConfig};
use sias_workload::DriverConfig;

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

fn main() {
    let args = Args::from_env();
    let obs_args = ObsArgs::parse(&args);
    let wh: u32 = args.get("--wh", 20);
    let duration: u64 = args.get("--duration", 300);

    // Flash endurance on a 256 MiB SSD.
    let mut report =
        Report::new("endurance", vec![("warehouses", wh.into()), ("duration_s", duration.into())]);
    let mut mruns = Vec::new();
    let dcfg = DriverConfig::for_warehouses(wh).with_duration(duration);
    for kind in [EngineKind::Si, EngineKind::SiasT1, EngineKind::SiasT2] {
        let cell = run_cell(kind, small_ssd(), wh, &dcfg);
        assert_eq!(cell.violations, 0, "consistency");
        let s = cell.device;
        report.row(
            "rows",
            vec![
                ("engine", kind.label().into()),
                ("host_write_pages", s.host_write_pages.into()),
                ("internal_write_pages", s.internal_write_pages.into()),
                ("erases", s.erases.into()),
                ("write_amplification", num(s.write_amplification(), 3)),
            ],
        );
        mruns.push((kind.label().to_string(), cell.metrics));
    }
    report.write_csv("endurance.csv");
    obs_args.dump_metrics(&mruns);
    println!("\nWear ∝ erases; SIAS's append pattern needs fewer host writes *and*");
    println!("amplifies each one less — the §6 endurance argument, quantified.");
}

//! **Table 1** — Write Amount (MB) and Reduction (%).
//!
//! Paper setup: TPC-C at 100 warehouses on SSD, `blkparse` write totals
//! over 600 / 900 / 1800-second runs, for SI, SIAS with threshold t1
//! (background-writer default) and SIAS with threshold t2 (checkpoint
//! piggy-back). Paper values: t1 ≈ 65 % reduction, t2 ≈ 97 %. The write
//! amount is the data device's host pages over the measured interval
//! (`storage.device.host_write_pages`).
//!
//! ```text
//! cargo run --release -p sias-bench --bin table1 [-- --wh 50 --pool 1024 --durations 600,900,1800]
//! ```

use sias_bench::report::{num, Report};
use sias_bench::{run_cell, Args, EngineKind, ObsArgs, Testbed, EXPERIMENT_POOL_FRAMES};
use sias_workload::DriverConfig;

fn main() {
    let args = Args::from_env();
    let obs_args = ObsArgs::parse(&args);
    let mut mruns = Vec::new();
    let wh: u32 = args.get("--wh", 50);
    let pool: usize = args.get("--pool", EXPERIMENT_POOL_FRAMES);
    let durations: Vec<u64> = args.list("--durations", vec![600, 900, 1800]);

    // Table 1: write amount (MB) and reduction (%), TPC-C on a single SSD.
    let mut report = Report::new("table1", vec![("warehouses", wh.into()), ("pool", pool.into())]);
    for &secs in &durations {
        let dcfg = DriverConfig::for_warehouses(wh).with_duration(secs);
        let cell = |kind| run_cell(kind, Testbed::Ssd.storage(pool), wh, &dcfg);
        let (si, t1, t2) =
            (cell(EngineKind::Si), cell(EngineKind::SiasT1), cell(EngineKind::SiasT2));
        assert_eq!(si.violations + t1.violations + t2.violations, 0, "consistency");
        mruns.push((format!("SI/{secs}s"), si.metrics.clone()));
        mruns.push((format!("SIAS-t1/{secs}s"), t1.metrics.clone()));
        mruns.push((format!("SIAS-t2/{secs}s"), t2.metrics.clone()));
        let (si_mb, t1_mb, t2_mb) =
            (si.device.host_write_mb(), t1.device.host_write_mb(), t2.device.host_write_mb());
        let red = |x: f64| num(if si_mb > 0.0 { 100.0 * (1.0 - x / si_mb) } else { 0.0 }, 1);
        report.row(
            "rows",
            vec![
                ("duration_s", secs.into()),
                ("si_mb", num(si_mb, 2)),
                ("sias_t1_mb", num(t1_mb, 2)),
                ("sias_t2_mb", num(t2_mb, 2)),
                ("red_t1_pct", red(t1_mb)),
                ("red_t2_pct", red(t2_mb)),
                ("si_space_pages", si.space_pages.into()),
                ("sias_t2_space_pages", t2.space_pages.into()),
            ],
        );
        if secs == *durations.last().unwrap() {
            println!(
                "\nspace consumption (pages): SI {}  SIAS-t1 {}  SIAS-t2 {}  (t2 vs t1: {:+.1}%)",
                si.space_pages,
                t1.space_pages,
                t2.space_pages,
                100.0 * (t2.space_pages as f64 / t1.space_pages as f64 - 1.0)
            );
            println!(
                "erases: SI {}  SIAS-t1 {}  SIAS-t2 {}   (Flash endurance, §6)",
                si.device.erases, t1.device.erases, t2.device.erases
            );
        }
    }
    report.write_csv("table1.csv");
    obs_args.dump_metrics(&mruns);
}

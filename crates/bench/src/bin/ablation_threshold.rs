//! **Ablation A1** — the append-page fill threshold (§5.2).
//!
//! "The amount of write reduction depends on the filling degree of each
//! appended page, determined by a threshold … Threshold t1 is less
//! suitable: sparsely filled pages are persisted too frequently, leading
//! to a poor overall space consumption, wasted space and a higher amount
//! of write requests. … The optimal threshold for write efficiency is
//! the maximum filling degree of a page."
//!
//! This ablation sweeps the aggressiveness of the t1 background writer
//! (tick interval) against the t2 checkpoint-piggy-back policy, showing
//! the write amount converging to the t2 optimum as flushes get lazier.
//!
//! ```text
//! cargo run --release -p sias-bench --bin ablation_threshold [-- --wh 25 --duration 300]
//! ```

use sias_bench::report::{num, Report};
use sias_bench::{run_cell, Args, EngineKind, ObsArgs, Testbed, EXPERIMENT_POOL_FRAMES};
use sias_workload::DriverConfig;

fn main() {
    let args = Args::from_env();
    let obs_args = ObsArgs::parse(&args);
    let wh: u32 = args.get("--wh", 25);
    let duration: u64 = args.get("--duration", 300);
    let pool: usize = args.get("--pool", EXPERIMENT_POOL_FRAMES);

    // Append-page flush threshold: t1 at six bgwriter cadences, then t2.
    let mut report = Report::new(
        "ablation_threshold",
        vec![("warehouses", wh.into()), ("duration_s", duration.into()), ("pool", pool.into())],
    );
    let mut mruns = Vec::new();
    let cells =
        [50u64, 100, 200, 500, 1000, 2000].map(|ms| (format!("t1-{ms}ms"), EngineKind::SiasT1, ms));
    // t2 runs at the driver's default 200 ms bgwriter cadence.
    for (policy, kind, bg_ms) in
        cells.into_iter().chain([("t2".to_string(), EngineKind::SiasT2, 200)])
    {
        let mut dcfg = DriverConfig::for_warehouses(wh).with_duration(duration);
        dcfg.bgwriter_interval_ms = bg_ms;
        let cell = run_cell(kind, Testbed::Ssd.storage(pool), wh, &dcfg);
        assert_eq!(cell.violations, 0, "consistency");
        report.row(
            "rows",
            vec![
                ("policy", policy.clone().into()),
                ("write_mb", num(cell.device.host_write_mb(), 2)),
                ("space_pages", cell.space_pages.into()),
            ],
        );
        mruns.push((policy, cell.metrics));
    }
    report.write_csv("ablation_threshold.csv");
    obs_args.dump_metrics(&mruns);
}

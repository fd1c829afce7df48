//! **Table 2** — TPC-C on HDD: throughput (NOTPM) and response time (s).
//!
//! Paper setup: Seagate ST3320613AS 7200 rpm disk, warehouses
//! {30, 40, 50, 60, 75, 100}. SIAS scales while reads stay cached and
//! keeps response times orders of magnitude lower; SI throughput
//! *decreases* with warehouse count and its response time explodes
//! (11.7 s at 30 WH to 123 s at 100 WH). "The system stays responsive
//! below 30 WHs \[SI\]; SIAS provides a responsive system with up to 75
//! WHs."
//!
//! ```text
//! cargo run --release -p sias-bench --bin table2 [-- --whs 30,40,50,60,75,100 --duration 120]
//! ```

use sias_bench::report::{num, Report};
use sias_bench::{run_cell, Args, EngineKind, ObsArgs, Testbed, EXPERIMENT_POOL_FRAMES};
use sias_workload::DriverConfig;

fn main() {
    let args = Args::from_env();
    let obs_args = ObsArgs::parse(&args);
    let mut mruns = Vec::new();
    let whs: Vec<u32> = args.list("--whs", vec![30, 40, 50, 60, 75, 100]);
    let duration: u64 = args.get("--duration", 120);
    // The HDD testbed pairs a larger pool with the slow disk (the
    // paper's HDD box cached aggressively; SIAS "scales on HDD as long
    // as most reads are cached").
    let pool: usize = args.get("--pool", 2 * EXPERIMENT_POOL_FRAMES);

    // Table 2: TPC-C on HDD, throughput (NOTPM) and response time (s).
    let mut report =
        Report::new("table2", vec![("duration_s", duration.into()), ("pool", pool.into())]);
    for &wh in &whs {
        let dcfg = DriverConfig::for_warehouses(wh).with_duration(duration);
        let sias = run_cell(EngineKind::SiasT2, Testbed::Hdd.storage(pool), wh, &dcfg);
        let si = run_cell(EngineKind::Si, Testbed::Hdd.storage(pool), wh, &dcfg);
        assert_eq!(si.violations + sias.violations, 0);
        mruns.push((format!("SIAS-t2/{wh}wh"), sias.metrics.clone()));
        mruns.push((format!("SI/{wh}wh"), si.metrics.clone()));
        report.row(
            "rows",
            vec![
                ("warehouses", wh.into()),
                ("sias_notpm", num(sias.bench.notpm, 1)),
                ("si_notpm", num(si.bench.notpm, 1)),
                ("sias_resp_s", num(sias.bench.avg_response_s, 4)),
                ("si_resp_s", num(si.bench.avg_response_s, 4)),
            ],
        );
    }
    report.write_csv("table2.csv");
    obs_args.dump_metrics(&mruns);
}

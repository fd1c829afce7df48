//! **Figure 5** — TPC-C throughput and response time on a two-SSD RAID-0.
//!
//! Paper setup: warehouse sweep on the Core2Duo box with a software
//! stripe of two X25-E SSDs; SIAS sustains ~30 % higher NOTPM and lower
//! response times, with its advantage growing at higher warehouse counts.
//!
//! ```text
//! cargo run --release -p sias-bench --bin figure5 [-- --whs 10,25,50,100,150,200 --duration 120]
//! ```

use sias_bench::report::{num, Report};
use sias_bench::{run_cell, Args, EngineKind, ObsArgs, Testbed, EXPERIMENT_POOL_FRAMES};
use sias_workload::DriverConfig;

fn main() {
    let args = Args::from_env();
    let obs_args = ObsArgs::parse(&args);
    let mut mruns = Vec::new();
    let whs: Vec<u32> = args.list("--whs", vec![25, 50, 100, 200, 300, 400, 500]);
    let duration: u64 = args.get("--duration", 120);
    let pool: usize = args.get("--pool", EXPERIMENT_POOL_FRAMES);

    // Figure 5: TPC-C on a two-SSD RAID-0 (NOTPM, response time in s).
    let mut report =
        Report::new("figure5", vec![("duration_s", duration.into()), ("pool", pool.into())]);
    for &wh in &whs {
        let dcfg = DriverConfig::for_warehouses(wh).with_duration(duration);
        let si = run_cell(EngineKind::Si, Testbed::SsdRaid2.storage(pool), wh, &dcfg);
        let sias = run_cell(EngineKind::SiasT2, Testbed::SsdRaid2.storage(pool), wh, &dcfg);
        assert_eq!(si.violations + sias.violations, 0);
        mruns.push((format!("SI/{wh}wh"), si.metrics.clone()));
        mruns.push((format!("SIAS-t2/{wh}wh"), sias.metrics.clone()));
        report.row(
            "rows",
            vec![
                ("warehouses", wh.into()),
                ("si_notpm", num(si.bench.notpm, 1)),
                ("sias_notpm", num(sias.bench.notpm, 1)),
                ("si_resp_s", num(si.bench.avg_response_s, 4)),
                ("sias_resp_s", num(sias.bench.avg_response_s, 4)),
                ("si_p90_s", num(si.bench.p90_response_s, 4)),
                ("sias_p90_s", num(sias.bench.p90_response_s, 4)),
            ],
        );
    }
    report.write_csv("figure5.csv");
    obs_args.dump_metrics(&mruns);
}

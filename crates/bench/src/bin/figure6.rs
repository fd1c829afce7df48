//! **Figure 6** — TPC-C on six SSDs in software RAID-0 (the "Sylt"
//! server).
//!
//! Paper setup: warehouse sweep through the peak-throughput region. SI
//! peaks at 450 WH (4862 NOTPM, 4.8 s response); SIAS peaks later, at
//! 530 WH (6182 NOTPM, 3.3 s) — ≈ +30 % throughput and a higher
//! tolerable load. The sweep below covers the same rise-peak-decline
//! shape at the reproduction's scale.
//!
//! ```text
//! cargo run --release -p sias-bench --bin figure6 [-- --whs 25,50,100,200,300,400,500 --duration 120]
//! ```

use sias_bench::report::{num, Report};
use sias_bench::{run_cell, Args, EngineKind, ObsArgs, Testbed, EXPERIMENT_POOL_FRAMES};
use sias_workload::DriverConfig;

fn main() {
    let args = Args::from_env();
    let obs_args = ObsArgs::parse(&args);
    let mut mruns = Vec::new();
    let whs: Vec<u32> = args.list("--whs", vec![50, 100, 200, 300, 400, 500, 600, 700]);
    let duration: u64 = args.get("--duration", 120);
    let pool: usize = args.get("--pool", EXPERIMENT_POOL_FRAMES);

    // Figure 6: TPC-C on six SSDs in software RAID-0.
    let mut report =
        Report::new("figure6", vec![("duration_s", duration.into()), ("pool", pool.into())]);
    for &wh in &whs {
        let dcfg = DriverConfig::for_warehouses(wh).with_duration(duration);
        let si = run_cell(EngineKind::Si, Testbed::SsdRaid6.storage(pool), wh, &dcfg);
        let sias = run_cell(EngineKind::SiasT2, Testbed::SsdRaid6.storage(pool), wh, &dcfg);
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
            ],
        );
    }
    report.write_csv("figure6.csv");
    obs_args.dump_metrics(&mruns);
}

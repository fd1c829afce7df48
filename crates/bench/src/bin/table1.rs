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

use sias_bench::{
    arg_value, run_cell, write_results, EngineKind, ObsArgs, Testbed, EXPERIMENT_POOL_FRAMES,
};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let obs_args = ObsArgs::parse(&args);
    let mut mruns = Vec::new();
    let wh: u32 = arg_value(&args, "--wh").and_then(|v| v.parse().ok()).unwrap_or(50);
    let pool: usize =
        arg_value(&args, "--pool").and_then(|v| v.parse().ok()).unwrap_or(EXPERIMENT_POOL_FRAMES);
    let durations: Vec<u64> = arg_value(&args, "--durations")
        .map(|v| v.split(',').filter_map(|s| s.parse().ok()).collect())
        .unwrap_or_else(|| vec![600, 900, 1800]);

    println!("Table 1: Write Amount (MB) and Reduction (%)");
    println!("TPC-C, {wh} warehouses, single SSD, pool {pool} frames\n");
    println!(
        "{:>9} {:>10} {:>10} {:>10} {:>8} {:>8}",
        "time(s)", "SI", "SIAS-t1", "SIAS-t2", "Red-t1", "Red-t2"
    );

    let mut csv = String::from("duration_s,si_mb,sias_t1_mb,sias_t2_mb,red_t1_pct,red_t2_pct,si_space_pages,sias_t2_space_pages\n");
    for &secs in &durations {
        let si = run_cell(EngineKind::Si, Testbed::Ssd, wh, secs, pool);
        let t1 = run_cell(EngineKind::SiasT1, Testbed::Ssd, wh, secs, pool);
        let t2 = run_cell(EngineKind::SiasT2, Testbed::Ssd, wh, secs, pool);
        assert_eq!(si.violations + t1.violations + t2.violations, 0, "consistency");
        mruns.push((format!("SI/{secs}s"), si.metrics.clone()));
        mruns.push((format!("SIAS-t1/{secs}s"), t1.metrics.clone()));
        mruns.push((format!("SIAS-t2/{secs}s"), t2.metrics.clone()));
        let (si_mb, t1_mb, t2_mb) =
            (si.device.host_write_mb(), t1.device.host_write_mb(), t2.device.host_write_mb());
        let red = |x: f64| if si_mb > 0.0 { 100.0 * (1.0 - x / si_mb) } else { 0.0 };
        println!(
            "{:>9} {:>10.1} {:>10.1} {:>10.1} {:>7.0}% {:>7.0}%",
            secs,
            si_mb,
            t1_mb,
            t2_mb,
            red(t1_mb),
            red(t2_mb)
        );
        csv.push_str(&format!(
            "{secs},{si_mb:.2},{t1_mb:.2},{t2_mb:.2},{:.1},{:.1},{},{}\n",
            red(t1_mb),
            red(t2_mb),
            si.space_pages,
            t2.space_pages
        ));
        if secs == *durations.last().unwrap() {
            println!();
            println!(
                "space consumption (pages): SI {}  SIAS-t1 {}  SIAS-t2 {}  (t2 vs t1: {:+.1}%)",
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
    let path = write_results("table1.csv", &csv);
    println!("\nwrote {}", path.display());
    if let Some(p) = obs_args.dump_metrics(&mruns) {
        println!("wrote metrics to {}", p.display());
    }
}

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

use sias_bench::{
    arg_value, run_cell, write_results, EngineKind, ObsArgs, Testbed, EXPERIMENT_POOL_FRAMES,
};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let obs_args = ObsArgs::parse(&args);
    let mut mruns = Vec::new();
    let whs: Vec<u32> = arg_value(&args, "--whs")
        .map(|v| v.split(',').filter_map(|s| s.parse().ok()).collect())
        .unwrap_or_else(|| vec![30, 40, 50, 60, 75, 100]);
    let duration: u64 = arg_value(&args, "--duration").and_then(|v| v.parse().ok()).unwrap_or(120);
    // The HDD testbed pairs a larger pool with the slow disk (the
    // paper's HDD box cached aggressively; SIAS "scales on HDD as long
    // as most reads are cached").
    let pool: usize = arg_value(&args, "--pool")
        .and_then(|v| v.parse().ok())
        .unwrap_or(2 * EXPERIMENT_POOL_FRAMES);

    println!("Table 2: TPC-C on HDD - Throughput (NOTPM) and Response Time (sec.)\n");
    let mut si_rows = Vec::new();
    let mut sias_rows = Vec::new();
    for &wh in &whs {
        let sias = run_cell(EngineKind::SiasT2, Testbed::Hdd, wh, duration, pool);
        let si = run_cell(EngineKind::Si, Testbed::Hdd, wh, duration, pool);
        assert_eq!(si.violations + sias.violations, 0);
        mruns.push((format!("SIAS-t2/{wh}wh"), sias.metrics.clone()));
        mruns.push((format!("SI/{wh}wh"), si.metrics.clone()));
        sias_rows.push((wh, sias.bench.notpm, sias.bench.avg_response_s));
        si_rows.push((wh, si.bench.notpm, si.bench.avg_response_s));
    }
    // Paper layout: warehouses as columns.
    print!("{:<14}", "Warehouses");
    for &wh in &whs {
        print!("{wh:>10}");
    }
    println!();
    print!("{:<14}", "SIAS (NOTPM)");
    for r in &sias_rows {
        print!("{:>10.0}", r.1);
    }
    println!();
    print!("{:<14}", "SI (NOTPM)");
    for r in &si_rows {
        print!("{:>10.0}", r.1);
    }
    println!();
    print!("{:<14}", "SIAS (sec.)");
    for r in &sias_rows {
        print!("{:>10.3}", r.2);
    }
    println!();
    print!("{:<14}", "SI (sec.)");
    for r in &si_rows {
        print!("{:>10.3}", r.2);
    }
    println!();

    let mut csv = String::from("warehouses,sias_notpm,si_notpm,sias_resp_s,si_resp_s\n");
    for (s, i) in sias_rows.iter().zip(&si_rows) {
        csv.push_str(&format!("{},{:.1},{:.1},{:.4},{:.4}\n", s.0, s.1, i.1, s.2, i.2));
    }
    let path = write_results("table2.csv", &csv);
    println!("\nwrote {}", path.display());
    if let Some(p) = obs_args.dump_metrics(&mruns) {
        println!("wrote metrics to {}", p.display());
    }
}

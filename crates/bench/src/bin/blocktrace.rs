//! **Figures 3 and 4** — I/O block traces.
//!
//! Paper setup: blktrace of a 300-second, 100-warehouse TPC-C run on a
//! single SSD. Figure 3 (SIAS): "almost only read access is issued",
//! appends form per-relation swimlanes. Figure 4 (SI): "read and write
//! access is mixed", writes scattered over the whole relation.
//!
//! Emits the scatter data as CSV (`time_s,device,lba,pages,dir`) and
//! prints pattern statistics that quantify the visual difference. Op
//! counts and volumes are the device counters over the run; the trace
//! ring is the window the scatter and the locality lines come from.
//!
//! ```text
//! cargo run --release -p sias-bench --bin blocktrace [-- --engine sias|si --wh 50 --duration 300]
//! ```

use std::collections::BTreeSet;

use sias_bench::{
    arg_value, build, write_results, EngineKind, ObsArgs, Testbed, EXPERIMENT_POOL_FRAMES,
};
use sias_obs::MetricsSnapshot;
use sias_storage::IoDir;
use sias_workload::{load, run_benchmark, DriverConfig, TpccConfig};

fn run_one(kind: EngineKind, wh: u32, duration: u64, pool: usize) -> MetricsSnapshot {
    let any = build(kind, Testbed::Ssd, pool);
    let engine = any.engine();
    let cfg = TpccConfig::scaled(wh);
    let tables = load(engine, &cfg).expect("load");
    engine.maintenance(true);
    let stack = any.stack();
    let (device_before, metrics_before) = (stack.data.stats(), engine.metrics_snapshot());
    stack.trace.clear();
    stack.trace.enable();
    let dcfg = DriverConfig::for_warehouses(wh).with_duration(duration);
    let bench = run_benchmark(engine, &tables, &cfg, &dcfg, &stack.clock).expect("bench");
    stack.trace.disable();

    let events = stack.trace.events();
    let device = stack.data.stats() - device_before;
    let (reads, writes_total) = (device.host_read_pages, device.host_write_pages);
    let total_ops = (reads + writes_total) as f64;
    let write_lbas: BTreeSet<u64> =
        events.iter().filter(|e| e.dir == IoDir::Write).map(|e| e.lba).collect();
    let read_lbas: BTreeSet<u64> =
        events.iter().filter(|e| e.dir == IoDir::Read).map(|e| e.lba).collect();
    // The append-storage signature: SIAS writes each page (at most) once
    // — monotonically growing append regions — while SI re-writes hot
    // pages over and over (in-place invalidation + bgwriter rounds).
    let writes: Vec<u64> = events.iter().filter(|e| e.dir == IoDir::Write).map(|e| e.lba).collect();
    let rewrite_ratio =
        if write_lbas.is_empty() { 0.0 } else { writes.len() as f64 / write_lbas.len() as f64 };

    let figure = match kind {
        EngineKind::Si => "figure4_si",
        _ => "figure3_sias",
    };
    let label = match kind {
        EngineKind::Si => "SI",
        _ => "SIAS",
    };
    println!("--- {label} blocktrace ({wh} WH, {duration}s, SSD) ---");
    println!("NOTPM {:.0}", bench.notpm);
    println!(
        "ops: {} reads ({:.1}%), {} writes ({:.1}%)",
        reads,
        100.0 * reads as f64 / total_ops,
        writes_total,
        100.0 * writes_total as f64 / total_ops
    );
    println!(
        "volume: {:.1} MB read, {:.1} MB written",
        device.host_read_mb(),
        device.host_write_mb()
    );
    println!(
        "write locality: {} write ops over {} distinct LBAs — {:.2} writes/page",
        writes.len(),
        write_lbas.len(),
        rewrite_ratio
    );
    println!("read spread: {} distinct LBAs", read_lbas.len());
    let path = write_results(&format!("{figure}.csv"), &stack.trace.to_csv());
    println!("wrote {}\n", path.display());
    engine.metrics_snapshot().since(&metrics_before)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let wh: u32 = arg_value(&args, "--wh").and_then(|v| v.parse().ok()).unwrap_or(50);
    let duration: u64 = arg_value(&args, "--duration").and_then(|v| v.parse().ok()).unwrap_or(300);
    let pool: usize =
        arg_value(&args, "--pool").and_then(|v| v.parse().ok()).unwrap_or(EXPERIMENT_POOL_FRAMES);
    let engines: Vec<EngineKind> = match arg_value(&args, "--engine").as_deref() {
        Some(e) => vec![EngineKind::parse(e).expect("--engine sias|si")],
        None => vec![EngineKind::SiasT2, EngineKind::Si],
    };
    let obs_args = ObsArgs::parse(&args);
    let mut mruns = Vec::new();
    for kind in engines {
        let metrics = run_one(kind, wh, duration, pool);
        mruns.push((kind.label().to_string(), metrics));
    }
    if let Some(p) = obs_args.dump_metrics(&mruns) {
        println!("wrote metrics to {}", p.display());
    }
}

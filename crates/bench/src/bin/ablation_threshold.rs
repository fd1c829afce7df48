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

use sias_bench::{arg_value, write_results, ObsArgs, EXPERIMENT_POOL_FRAMES};
use sias_core::{FlushPolicy, SiasDb};
use sias_obs::MetricsSnapshot;
use sias_storage::StorageConfig;
use sias_txn::MvccEngine;
use sias_workload::{load, run_benchmark, DriverConfig, TpccConfig};

fn run(
    policy: FlushPolicy,
    bg_ms: u64,
    wh: u32,
    duration: u64,
    pool: usize,
) -> (f64, u64, MetricsSnapshot) {
    let storage = StorageConfig::ssd().with_pool_frames(pool).with_capacity_pages(1 << 17);
    let db = SiasDb::open_with_policy(storage, policy);
    let cfg = TpccConfig::scaled(wh);
    let tables = load(&db, &cfg).expect("load");
    db.maintenance(true);
    let (device_before, metrics_before) = (db.stack().data.stats(), db.metrics_snapshot());
    let mut dcfg = DriverConfig::for_warehouses(wh).with_duration(duration);
    dcfg.bgwriter_interval_ms = bg_ms;
    run_benchmark(&db, &tables, &cfg, &dcfg, &db.stack().clock).expect("bench");
    let space: u64 = {
        let space = &db.stack().space;
        space.relations().iter().map(|&r| space.relation_blocks(r) as u64).sum()
    };
    let written = (db.stack().data.stats() - device_before).host_write_mb();
    (written, space, db.metrics_snapshot().since(&metrics_before))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let wh: u32 = arg_value(&args, "--wh").and_then(|v| v.parse().ok()).unwrap_or(25);
    let duration: u64 = arg_value(&args, "--duration").and_then(|v| v.parse().ok()).unwrap_or(300);
    let pool: usize =
        arg_value(&args, "--pool").and_then(|v| v.parse().ok()).unwrap_or(EXPERIMENT_POOL_FRAMES);

    println!("Ablation: append-page flush threshold (SIAS, {wh} WH, {duration}s, SSD)\n");
    println!("{:<28} {:>12} {:>12}", "policy", "writes (MB)", "space (pages)");
    let obs_args = ObsArgs::parse(&args);
    let mut mruns = Vec::new();
    let mut csv = String::from("policy,write_mb,space_pages\n");
    for &bg_ms in &[50u64, 100, 200, 500, 1000, 2000] {
        let (mb, space, metrics) = run(FlushPolicy::T1, bg_ms, wh, duration, pool);
        println!("{:<28} {:>12.1} {:>12}", format!("t1 (bgwriter every {bg_ms} ms)"), mb, space);
        csv.push_str(&format!("t1-{bg_ms}ms,{mb:.2},{space}\n"));
        mruns.push((format!("t1-{bg_ms}ms"), metrics));
    }
    let (mb, space, metrics) = run(FlushPolicy::T2, 200, wh, duration, pool);
    println!("{:<28} {:>12.1} {:>12}", "t2 (checkpoint piggy-back)", mb, space);
    csv.push_str(&format!("t2,{mb:.2},{space}\n"));
    mruns.push(("t2".to_string(), metrics));
    let path = write_results("ablation_threshold.csv", &csv);
    println!("\nwrote {}", path.display());
    if let Some(p) = obs_args.dump_metrics(&mruns) {
        println!("wrote metrics to {}", p.display());
    }
}

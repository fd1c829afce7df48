//! **Ablation A8** — write reduction vs. update share.
//!
//! §5.2 ties SIAS's write reduction to the update intensity of the
//! workload ("standard update-intensive workload"). This ablation leaves
//! TPC-C aside and drives a plain key-value microworkload — N items,
//! uniform point operations, a configurable update fraction — measuring
//! device write volume per million operations for both engines. At 0 %
//! updates the engines converge (nothing to invalidate); as the update
//! share grows, SI pays in-place stamps + scattered placements + index
//! records per update while SIAS pays one append, so the gap widens
//! toward the Table-1 ratio.
//!
//! ```text
//! cargo run --release -p sias-bench --bin ablation_update_ratio [-- --items 20000 --ops 200000]
//! ```

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sias_bench::report::{num, Report};
use sias_bench::{build, Args, EngineKind, ObsArgs, Testbed};
use sias_obs::MetricsSnapshot;

/// Runs `ops` point operations with the given update share; returns the
/// data-device write volume (MiB) and the engine's metrics over the
/// measured phase.
fn run(kind: EngineKind, items: u64, ops: u64, update_pct: u32) -> (f64, MetricsSnapshot) {
    let any = build(kind, Testbed::Ssd, 1024);
    let engine = any.engine();
    let rel = engine.create_relation("kv");
    let payload = [0x5Au8; 200];
    let t = engine.begin();
    for k in 0..items {
        engine.insert(&t, rel, k, &payload).unwrap();
    }
    engine.commit(t).unwrap();
    engine.maintenance(true);
    let stack = any.stack();
    let (device_before, metrics_before) = (stack.data.stats(), engine.metrics_snapshot());
    let mut rng = StdRng::seed_from_u64(7 + update_pct as u64);
    let mut since_tick = 0u64;
    for _ in 0..ops {
        let k = rng.random_range(0..items);
        let t = engine.begin();
        if rng.random_range(0..100u32) < update_pct {
            engine.update(&t, rel, k, &payload).unwrap();
        } else {
            let _ = engine.get(&t, rel, k).unwrap();
        }
        engine.commit(t).unwrap();
        since_tick += 1;
        if since_tick == 500 {
            // Emulate the 200 ms background-writer cadence relative to a
            // ~2.5 kops/s client.
            engine.maintenance(false);
            since_tick = 0;
        }
    }
    engine.maintenance(true);
    let written = (stack.data.stats() - device_before).host_write_mb();
    (written, engine.metrics_snapshot().since(&metrics_before))
}

fn main() {
    let args = Args::from_env();
    let obs_args = ObsArgs::parse(&args);
    let items: u64 = args.get("--items", 20_000);
    let ops: u64 = args.get("--ops", 200_000);

    // Device writes vs. update share, uniform point ops.
    let mut report =
        Report::new("ablation_update_ratio", vec![("items", items.into()), ("ops", ops.into())]);
    let mut mruns = Vec::new();
    for pct in [0u32, 5, 20, 50, 80, 100] {
        let (si, si_metrics) = run(EngineKind::Si, items, ops, pct);
        let (sias, sias_metrics) = run(EngineKind::SiasT2, items, ops, pct);
        mruns.push((format!("SI/{pct}pct"), si_metrics));
        mruns.push((format!("SIAS-t2/{pct}pct"), sias_metrics));
        let red = if si > 0.0 { 100.0 * (1.0 - sias / si) } else { 0.0 };
        report.row(
            "rows",
            vec![
                ("update_pct", pct.into()),
                ("si_write_mb", num(si, 2)),
                ("sias_write_mb", num(sias, 2)),
                ("reduction_pct", num(red, 1)),
            ],
        );
    }
    report.write_csv("ablation_update_ratio.csv");
    obs_args.dump_metrics(&mruns);
}

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
use std::path::Path;

use sias_bench::report::{num, write_file, Report};
use sias_bench::{build, Args, EngineKind, ObsArgs, Testbed, EXPERIMENT_POOL_FRAMES};
use sias_obs::MetricsSnapshot;
use sias_storage::IoDir;
use sias_workload::{load, run_benchmark, DriverConfig, TpccConfig};

fn run_one(
    report: &mut Report,
    kind: EngineKind,
    wh: u32,
    duration: u64,
    pool: usize,
) -> MetricsSnapshot {
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
    let pct = |n: u64| num(100.0 * n as f64 / (reads + writes_total) as f64, 1);
    let lbas = |dir: IoDir| events.iter().filter(move |e| e.dir == dir).map(|e| e.lba);
    // The append-storage signature: SIAS writes each page (at most) once
    // — monotonically growing append regions — while SI re-writes hot
    // pages over and over (in-place invalidation + bgwriter rounds).
    let (write_ops, write_lbas) =
        (lbas(IoDir::Write).count(), lbas(IoDir::Write).collect::<BTreeSet<_>>().len());
    let rewrite_ratio = if write_lbas == 0 { 0.0 } else { write_ops as f64 / write_lbas as f64 };
    let (figure, label) = match kind {
        EngineKind::Si => ("figure4_si", "SI"),
        _ => ("figure3_sias", "SIAS"),
    };
    report.row(
        "patterns",
        vec![
            ("engine", label.into()),
            ("notpm", num(bench.notpm, 0)),
            ("reads", reads.into()),
            ("read_pct", pct(reads)),
            ("writes", writes_total.into()),
            ("write_pct", pct(writes_total)),
            ("read_mb", num(device.host_read_mb(), 1)),
            ("write_mb", num(device.host_write_mb(), 1)),
            ("write_ops", write_ops.into()),
            ("write_lbas", write_lbas.into()),
            ("writes_per_page", num(rewrite_ratio, 2)),
            ("read_lbas", lbas(IoDir::Read).collect::<BTreeSet<_>>().len().into()),
        ],
    );
    let path =
        write_file(&Path::new("results").join(format!("{figure}.csv")), &stack.trace.to_csv());
    println!("wrote {}", path.display());
    engine.metrics_snapshot().since(&metrics_before)
}

fn main() {
    let args = Args::from_env();
    let obs_args = ObsArgs::parse(&args);
    let wh: u32 = args.get("--wh", 50);
    let duration: u64 = args.get("--duration", 300);
    let pool: usize = args.get("--pool", EXPERIMENT_POOL_FRAMES);
    let engines = match args.read("--engine", |e| EngineKind::parse(e).ok_or(())) {
        Some(kind) => vec![kind],
        None => vec![EngineKind::SiasT2, EngineKind::Si],
    };
    // Block-trace pattern statistics on a single SSD; the scatter data
    // goes to one CSV per engine.
    let mut report = Report::new(
        "blocktrace",
        vec![("warehouses", wh.into()), ("duration_s", duration.into()), ("pool", pool.into())],
    );
    let mruns: Vec<_> = engines
        .into_iter()
        .map(|kind| (kind.label().to_string(), run_one(&mut report, kind, wh, duration, pool)))
        .collect();
    obs_args.dump_metrics(&mruns);
}

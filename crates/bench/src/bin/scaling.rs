//! **Multi-core scaling** — commit throughput vs. terminal threads.
//!
//! The paper's experiments are device-bound; this experiment is
//! engine-bound: it measures how the *hot paths* — sharded buffer pool,
//! leader/follower WAL group commit, lock-free VID map — scale when real
//! OS threads drive one shared engine. The WAL device is given a
//! real-time force latency (`force_sleep_us`), the cost every durable
//! commit must pay, so single-terminal throughput is force-latency-bound
//! while concurrent terminals amortize each force across a whole commit
//! group — the classic group-commit win, and the reason the 4-thread
//! cell must beat the 1-thread cell even on one core.
//!
//! Sweeps SIAS-t2 and the SI baseline over 1/2/4/8 threads and writes
//! `results/BENCH_scaling.json`. The sweep itself runs with tracing
//! *off*; afterwards one extra SIAS cell at the widest thread count
//! re-runs with the flight recorder on, and the throughput delta is
//! recorded in `results/BENCH_trace_overhead.json` — the measured cost
//! of always-on tracing.
//!
//! ```text
//! cargo run --release -p sias-bench --bin scaling \
//!     [-- --threads 8 --txns 200 --quick --engine both \
//!          --metrics-out m.json --trace-out t.jsonl --series-out s.json]
//! ```
//!
//! `--threads N` sweeps the powers of two up to `N`; `--quick` shrinks
//! the per-thread transaction count for CI smoke runs. `--trace-out` /
//! `--series-out` dump the tracing-on run's flight-recorder window and
//! sampled time series; `--slow-us N` additionally dumps spans that ran
//! for at least N µs at `<trace_out>.slow.jsonl`. `--ssi` runs every
//! cell under serializable snapshot isolation over zipfian constraint
//! pairs, so the sweep also reports the pivot-abort cost of SSI.

use sias_bench::report::{field, get, num, Report, Row};
use sias_bench::{build_on, Args, Backend, EngineKind, ObsArgs};
use sias_obs::MetricsSnapshot;
use sias_storage::{StorageConfig, WalConfig};
use sias_workload::{drive_threaded, ThreadedConfig};

/// WAL force latency (µs of real time per device force). Chosen near a
/// fast SSD's fsync so group-commit amortization, not raw CPU, decides
/// the sweep.
const FORCE_SLEEP_US: u64 = 150;

fn storage(backend: &Backend, io_depth: Option<usize>) -> StorageConfig {
    // Real files pay their own fsync latency; only simulated media get
    // the modelled force sleep.
    let force_sleep_us = if backend.is_file_backed() { 0 } else { FORCE_SLEEP_US };
    backend.storage(1024, io_depth).with_wal_config(WalConfig {
        group_timeout_ticks: 64,
        max_batch: 64,
        force_sleep_us,
    })
}

/// One cell on a fresh engine; `obs` runs it observed, with the flight
/// recorder on. Returns the row, the engine's metrics and the recorder's
/// (recorded, dropped, captured) event counts.
fn run(
    kind: EngineKind,
    storage_cfg: &StorageConfig,
    tcfg: &ThreadedConfig,
    obs: Option<&ObsArgs>,
) -> (Row, MetricsSnapshot, [u64; 3]) {
    let any = build_on(kind, storage_cfg.clone());
    let db = any.engine();
    let registry = db.obs_registry().expect("engine registry");
    let go = || drive_threaded(db, tcfg);
    let run = match obs {
        Some(obs) => obs.observe(registry, true, go),
        None => go(),
    };
    let tracer = registry.tracer();
    let events = [tracer.total_recorded(), tracer.dropped(), tracer.capture().len() as u64];
    let snap = db.metrics_snapshot();
    let group = snap.histogram("storage.wal.group_size");
    let row = vec![
        ("engine", kind.label().into()),
        ("threads", tcfg.threads.into()),
        ("committed", run.committed.into()),
        ("aborted", run.aborted.into()),
        ("conflicts", run.conflicts.into()),
        ("serialization_aborts", run.serialization_aborts.into()),
        ("wall_secs", num(run.wall.as_secs_f64(), 6)),
        ("commits_per_sec", num(run.commits_per_sec(), 1)),
        ("wal_forces", snap.counter("storage.wal.forces").unwrap_or(0).into()),
        ("wal_group_size_p50", group.map_or(0, |h| h.p50).into()),
        ("wal_group_size_max", group.map_or(0, |h| h.max).into()),
        ("pool_shards", any.stack().pool.shard_count().into()),
    ];
    (row, snap, events)
}

fn main() {
    let args = Args::from_env();
    let obs_args = ObsArgs::parse(&args);
    let quick = args.flag("--quick");
    let max_threads: usize = args.get("--threads", 8);
    let txns_per_thread: usize = args.get("--txns", if quick { 100 } else { 400 });
    let seed: u64 = args.get("--seed", 42);
    let ssi = args.flag("--ssi");
    let backend = args.backend(Backend::Mem);
    let storage_cfg = storage(&backend, args.opt("--io-depth"));
    // `--engine`: both (default), or one of the two engines the sweep runs.
    let kinds = match args.raw("--engine").unwrap_or("both") {
        "both" => vec![EngineKind::SiasT2, EngineKind::Si],
        v => match EngineKind::parse(v) {
            Some(kind @ (EngineKind::SiasT2 | EngineKind::Si)) => vec![kind],
            _ => panic!("bad --engine value {v:?}: scaling runs si, sias-t2 or both"),
        },
    };

    let mut sweep: Vec<usize> = Vec::new();
    let mut t = 1;
    while t <= max_threads.max(1) {
        sweep.push(t);
        t *= 2;
    }
    if *sweep.last().unwrap() != max_threads.max(1) {
        sweep.push(max_threads);
    }
    let tcfg = |threads| ThreadedConfig {
        threads,
        txns_per_thread,
        keys: 256,
        ops_per_txn: 4,
        update_pct: 60,
        abort_ppm: 0,
        seed,
        serializable: ssi,
        constraint_pairs: ssi,
    };

    let mut report = Report::new(
        "scaling",
        vec![
            ("backend", backend.label().into()),
            ("io_queue_depth", storage_cfg.io_queue_depth.into()),
            ("txns_per_thread", txns_per_thread.into()),
            ("keys", 256u64.into()),
            ("ops_per_txn", 4u64.into()),
            ("update_pct", 60u64.into()),
            ("seed", seed.into()),
            ("force_sleep_us", storage_cfg.wal.force_sleep_us.into()),
            ("group_timeout_ticks", 64u64.into()),
            ("max_batch", 64u64.into()),
            ("quick", quick.into()),
            ("serializable", ssi.into()),
        ],
    );
    let mut snaps: Vec<(String, MetricsSnapshot)> = Vec::new();
    for &kind in &kinds {
        for &threads in &sweep {
            let (row, snap, _) = run(kind, &storage_cfg, &tcfg(threads), None);
            snaps.push((format!("{}-t{threads}", kind.label()), snap));
            report.row("cells", row);
        }
    }
    // Commit throughput of a swept cell.
    let cps = |kind: EngineKind, threads: usize| {
        let row = report.rows("cells").iter().find(|c| {
            *get(c, "engine") == kind.label().into() && field(c, "threads") == threads as f64
        });
        row.map(|c| field(c, "commits_per_sec"))
    };
    // SIAS 4-thread vs 1-thread commit throughput.
    let speedup = match (cps(EngineKind::SiasT2, 1), cps(EngineKind::SiasT2, 4)) {
        (Some(t1), Some(t4)) if t1 > 0.0 => Some(num(t4 / t1, 3)),
        _ => None,
    };
    // Tracing overhead pair: re-run the widest cell of the first swept
    // engine with the flight recorder enabled (plus the sampler when
    // `--series-out` asks for it) and compare commit throughput against
    // the tracing-off cell the sweep already produced.
    let (kind, threads) = (kinds[0], *sweep.last().unwrap());
    let off_cps = cps(kind, threads).unwrap_or(0.0);
    report.row("summary", vec![("sias_speedup_4_over_1", speedup.into())]);
    let (on, _, [recorded, dropped, captured]) =
        run(kind, &storage_cfg, &tcfg(threads), Some(&obs_args));
    let on_cps = field(&on, "commits_per_sec");
    let overhead_pct = if off_cps > 0.0 { (off_cps - on_cps) / off_cps * 100.0 } else { 0.0 };
    let mut overhead = Report::new(
        "trace_overhead",
        vec![("txns_per_thread", txns_per_thread.into()), ("quick", quick.into())],
    );
    overhead.row(
        "cells",
        vec![
            ("engine", kind.label().into()),
            ("threads", threads.into()),
            ("commits_per_sec_tracing_off", num(off_cps, 1)),
            ("commits_per_sec_tracing_on", num(on_cps, 1)),
            ("overhead_pct", num(overhead_pct, 3)),
            ("events_recorded", recorded.into()),
            ("events_dropped", dropped.into()),
            ("events_captured", captured.into()),
        ],
    );
    obs_args.dump_metrics(&snaps);
    overhead.finish("BENCH_trace_overhead.json");
    report.finish(&backend.results_name("scaling"));
}

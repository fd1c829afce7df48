//! **Online maintenance pricing** — foreground tail latency vs.
//! background GC/scrub/checkpoint pressure.
//!
//! The maintenance scheduler relocates live versions, probes sealed
//! pages and takes WAL-paced fuzzy checkpoints *while* terminal threads
//! commit. This bench prices that interference: it drives the same
//! 8-thread update-heavy workload with maintenance OFF (baseline) and
//! ON at several token-bucket throttle levels, and reports the p50 /
//! p99 / p99.9 commit-latency deltas plus the page-reclaim rate each
//! throttle buys.
//!
//! Acceptance gate (the process exits 1 on a miss): at the **default**
//! throttle (`DEFAULT_MAINT_PAGES_PER_SEC`) the maintenance-ON p99
//! commit latency must stay within 20% of the OFF baseline while
//! reclaiming pages at a nonzero rate. The OFF/ON-default pair is
//! measured up to four times before the gate is declared failed, since
//! a single noisy scheduling hiccup on a shared CI box should not fail
//! the run.
//!
//! ```text
//! cargo run --release -p sias-bench --bin maintbench \
//!     [-- --threads 8 --txns 300 --quick --seed 42 --metrics-out m.json]
//! ```
//!
//! Writes `results/BENCH_maintenance.json`.

use std::sync::Arc;

use sias_bench::report::{field, num, Gate, Op, Report, Row};
use sias_bench::{Args, ObsArgs};
use sias_core::{MaintenanceConfig, SiasDb};
use sias_obs::MetricsSnapshot;
use sias_storage::{StorageConfig, WalConfig, DEFAULT_MAINT_PAGES_PER_SEC};
use sias_txn::MvccEngine;
use sias_workload::{drive_threaded, drive_threaded_with_maintenance, ThreadedConfig};

/// WAL force latency (µs of real time per device force), matching the
/// scaling bench: every durable commit pays it, so commit latency is
/// device-bound the way the paper's flash experiments are.
const FORCE_SLEEP_US: u64 = 150;

/// Gate: ON p99 at the default throttle must stay within this factor of
/// the OFF baseline.
const P99_LIMIT: f64 = 1.20;

fn storage_cfg() -> StorageConfig {
    StorageConfig::in_memory().with_wal_config(WalConfig {
        group_timeout_ticks: 64,
        max_batch: 64,
        force_sleep_us: FORCE_SLEEP_US,
    })
}

/// One cell; `throttle` is the token-bucket refill in pages/s (`None`
/// = maintenance off, `Some(0)` = unthrottled).
fn run_cell(
    label: &'static str,
    throttle: Option<u64>,
    tcfg: &ThreadedConfig,
) -> (Row, MetricsSnapshot) {
    // A fresh engine per cell: the commit-latency histogram and the GC
    // counters live on the engine's registry, so reusing a db would
    // smear cells together.
    let db = Arc::new(SiasDb::open(storage_cfg()));
    let (run, totals) = match throttle {
        None => (drive_threaded(db.as_ref(), tcfg), None),
        Some(pps) => {
            let maint = MaintenanceConfig::for_db(&db).with_pages_per_sec(pps);
            let (run, totals) = drive_threaded_with_maintenance(&db, tcfg, maint);
            (run, Some(totals))
        }
    };
    let hist =
        db.obs_registry().expect("sias registry").histogram("workload.threaded.commit_latency");
    let snap = db.metrics_snapshot();
    let c = |name: &str| snap.counter(name).unwrap_or(0);
    let wall = run.wall.as_secs_f64();
    let reclaimed = c("core.gc.pages_reclaimed");
    let us = |q: f64| num(hist.quantile(q) as f64 / 1_000.0, 1);
    let row = vec![
        ("cell", label.into()),
        ("pages_per_sec", throttle.into()),
        ("committed", run.committed.into()),
        ("aborted", run.aborted.into()),
        ("conflicts", run.conflicts.into()),
        ("wall_secs", num(wall, 6)),
        ("commits_per_sec", num(run.commits_per_sec(), 1)),
        ("commit_p50_us", us(0.50)),
        ("commit_p99_us", us(0.99)),
        ("commit_p999_us", us(0.999)),
        ("gc_pages_examined", c("core.gc.pages_examined").into()),
        ("gc_pages_reclaimed", reclaimed.into()),
        ("gc_versions_relocated", c("core.gc.versions_relocated").into()),
        ("scrub_blocks", c("storage.scrub.scanned").into()),
        ("paced_checkpoints", c("storage.ckpt.paced_runs").into()),
        ("reclaimed_pages_per_sec", num(if wall > 0.0 { reclaimed as f64 / wall } else { 0.0 }, 2)),
        ("maint_ticks", totals.map_or(0, |t| t.ticks).into()),
        ("maint_errors", totals.map_or(0, |t| t.errors).into()),
    ];
    (row, snap)
}

fn main() {
    let args = Args::from_env();
    let obs_args = ObsArgs::parse(&args);
    let quick = args.flag("--quick");
    let threads: usize = args.get("--threads", 8);
    let txns_per_thread: usize = args.get("--txns", if quick { 160 } else { 300 });
    let seed: u64 = args.get("--seed", 42);

    let tcfg = ThreadedConfig {
        threads,
        txns_per_thread,
        keys: 256,
        ops_per_txn: 4,
        update_pct: 60,
        abort_ppm: 0,
        seed,
        serializable: false,
        constraint_pairs: false,
    };
    let mut report = Report::new(
        "maintbench",
        vec![
            ("threads", threads.into()),
            ("txns_per_thread", txns_per_thread.into()),
            ("keys", 256u64.into()),
            ("ops_per_txn", 4u64.into()),
            ("update_pct", 60u64.into()),
            ("seed", seed.into()),
            ("force_sleep_us", FORCE_SLEEP_US.into()),
            ("default_pages_per_sec", DEFAULT_MAINT_PAGES_PER_SEC.into()),
            ("quick", quick.into()),
        ],
    );

    // Warmup cell, discarded: the first run in a process pays one-time
    // costs (page-cache, allocator arenas) that would otherwise inflate
    // whichever measured cell happens to go first.
    let warm_cfg = ThreadedConfig { txns_per_thread: txns_per_thread / 4, ..tcfg.clone() };
    let _ = run_cell("warmup", None, &warm_cfg);

    // Gate pair first: OFF baseline vs ON at the configured default
    // throttle, re-measured as a pair on a noisy miss.
    let (off, on_def) = report.remeasure(
        4,
        |_| {
            let off = run_cell("maint-off", None, &tcfg);
            (off, run_cell("maint-default", Some(DEFAULT_MAINT_PAGES_PER_SEC), &tcfg))
        },
        |(off, on)| {
            let p99 = |cell: &(Row, MetricsSnapshot)| field(&cell.0, "commit_p99_us");
            vec![
                Gate::new("p99_ratio", p99(on) / p99(off), Op::Le, P99_LIMIT),
                Gate::new("gc_pages_reclaimed", field(&on.0, "gc_pages_reclaimed"), Op::Gt, 0.0),
            ]
        },
    );
    // The rest of the sweep: a tight throttle (maintenance starved) and
    // an unthrottled run (maintenance greedy) bracket the default.
    let tight = run_cell("maint-tight", Some(512), &tcfg);
    let greedy = run_cell("maint-greedy", Some(0), &tcfg);
    let labels = ["maint-off", "maint-default", "maint-tight", "maint-greedy"];
    let mut snaps = Vec::new();
    for (label, (row, snap)) in labels.into_iter().zip([off, on_def, tight, greedy]) {
        snaps.push((label.to_string(), snap));
        report.row("cells", row);
    }
    obs_args.dump_metrics(&snaps);
    report.finish("BENCH_maintenance.json");
}

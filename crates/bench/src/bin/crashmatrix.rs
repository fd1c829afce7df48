//! **Crash matrix** — deterministic fault-injection sweep.
//!
//! Runs one chaos scenario (`sias_workload::chaos::run`) per seed — per
//! seed and crash point under `--gc`, per seed and isolation level
//! under `--skew` — prints each run's summary, checker violations and
//! gate failures, and exits non-zero on any of them. Every run is
//! reproducible from its arguments: the same records, the same verdicts
//! and the same fingerprints, bit for bit.
//!
//! ```text
//! cargo run --release -p sias-bench --bin crashmatrix -- \
//!     [--seeds 8] [--crash-every 16] [--txns 48] [--keys 12] \
//!     [--terminals 4] [--hostile] [--plant-bug] [--ssi] \
//!     [--scrub] [--rot-pages 3] [--skew] [--pairs 4] [--gc] \
//!     [--enospc] [--quota-pages 24] [--low-watermark 50]
//! ```
//!
//! Modes (the scenario's gate is in `sias_workload::chaos`):
//!
//! * default — the multi-terminal workload, crashed at every
//!   `--crash-every`th WAL-record boundary; each prefix is recovered and
//!   checked for durability. `--hostile` adds a faulty data device,
//!   `--ssi` runs serializable (no G2 cycle may survive), and
//!   `--plant-bug` impersonates an ack-before-force engine: the run then
//!   exits non-zero unless the checker *catches* it (DUR-ACK).
//! * `--scrub` — flip one bit in each of `--rot-pages` sealed pages, then
//!   scrub: every corrupt page must be repaired, the history clean.
//! * `--gc` — kill an incremental GC slice at each of its three
//!   relocation crash points: recovery must lose no committed version,
//!   and the surviving engine must finish GC with a clean history.
//! * `--skew` — `--pairs` planted write skews under plain SI (one G2
//!   cycle per pair) and under SSI (one pivot aborted per pair, no G2).
//! * `--enospc` — fill a `--quota-pages` WAL quota: the engine must turn
//!   typed read-only, keep serving reads, reclaim and heal.
//!
//! Every run records into an always-on flight recorder; whenever the
//! checker finds violations the retained span window (including the
//! `anomaly.flag` instants stamped per violation) is dumped to
//! `results/TRACE_crashmatrix_seed<seed>.jsonl` plus a Chrome
//! `trace_event` twin — no flag needed. `--trace-out <path>` also dumps
//! the last run's window to an explicit path, and `--metrics-out` writes
//! per-run metrics snapshots.

use sias_core::GcCrashPoint;
use sias_obs::export;
use sias_storage::FaultConfig;
use sias_workload::chaos::{self, ChaosConfig, Scenario};

use sias_bench::report::write_file;
use sias_bench::{Args, ObsArgs};

fn main() {
    let args = Args::from_env();
    let obs_args = ObsArgs::parse(&args);
    let seeds: u64 = args.get("--seeds", 8);
    let (hostile, plant_bug, ssi) =
        (args.flag("--hostile"), args.flag("--plant-bug"), args.flag("--ssi"));
    // Under --hostile, default to a working set the 48-frame chaos pool
    // cannot cache, large enough that every seed's faulty device injects
    // faults (the sweep's gate fails a seed that saw none).
    let (default_txns, default_keys) = if hostile { (400, 2000) } else { (48, 12) };
    let txns: usize = args.get("--txns", default_txns);
    let keys: u64 = args.get("--keys", default_keys);
    let terminals: usize = args.get("--terminals", 4);

    // Per mode: the header, the runs of one seed as (serializable,
    // scenario), what a failure counts, and the line a pass prints.
    let (header, runs, noun, pass) = if args.flag("--enospc") {
        let (quota_pages, low_watermark_pct) =
            (args.get("--quota-pages", 24), args.get("--low-watermark", 50));
        (
            format!(
                "ENOSPC gate: {seeds} seeds, {quota_pages}-page WAL quota, \
                 low watermark {low_watermark_pct}%"
            ),
            vec![(ssi, Scenario::Enospc { quota_pages, low_watermark_pct })],
            "ENOSPC gate failures",
            "every full-log run degraded to typed read-only, kept serving reads, \
             reclaimed space and healed with zero anomalies",
        )
    } else if args.flag("--skew") {
        let pairs = args.get("--pairs", 4);
        (
            format!("Write-skew gate: {seeds} seeds, {pairs} constraint pairs per run"),
            vec![(false, Scenario::WriteSkew { pairs }), (true, Scenario::WriteSkew { pairs })],
            "write-skew gate failures",
            "SI saw every planted skew as G2; SSI aborted one pivot per pair, zero G2",
        )
    } else if args.flag("--gc") {
        let points = [
            GcCrashPoint::AfterRelocationAppend,
            GcCrashPoint::AfterCasPublish,
            GcCrashPoint::BeforeRecycle,
        ];
        (
            format!(
                "GC crash gate: {seeds} seeds x {} crash points, {txns} txns over {keys} keys",
                points.len()
            ),
            points.map(|p| (ssi, Scenario::GcCrash(p))).to_vec(),
            "GC crash-gate failures",
            "every mid-relocation crash recovered with zero anomalies and no lost versions",
        )
    } else if args.flag("--scrub") {
        let rot_pages = args.get("--rot-pages", 3);
        (
            format!(
                "Scrub matrix: {seeds} seeds, {rot_pages} rotted pages per run, \
                 {txns} txns over {keys} keys"
            ),
            vec![(ssi, Scenario::Scrub { rot_pages })],
            "scrub failures",
            "every rotted page was detected, repaired and reclaimed; histories stayed clean",
        )
    } else {
        let every = args.get("--crash-every", 16);
        (
            format!(
                "Crash matrix: {seeds} seeds, crash every {every} records, {txns} txns \
                 x {terminals} terminals over {keys} keys{}{}{}",
                if hostile { ", hostile data device" } else { "" },
                if plant_bug { ", planted ack-before-force bug" } else { "" },
                if ssi { ", serializable (SSI)" } else { "" },
            ),
            vec![(ssi, Scenario::CrashSweep { every })],
            "crash-matrix failures",
            "no violations: every acknowledged commit survived every crash point",
        )
    };
    println!("{header}\n");

    let (mut violations, mut failures, mut caught_planted_bug) = (0usize, 0usize, false);
    let mut snaps: Vec<(String, sias_obs::MetricsSnapshot)> = Vec::new();
    let mut last_trace: Vec<sias_obs::TraceEvent> = Vec::new();
    for seed in 1..=seeds {
        for &(serializable, scenario) in &runs {
            let cfg = ChaosConfig {
                seed,
                txns,
                keys,
                terminals,
                // The chaos pool is tiny but its device traffic is still
                // modest, so --hostile uses rates well above the storage
                // layer's `hostile` preset to make faults actually land.
                data_faults: if hostile {
                    FaultConfig {
                        torn_write_ppm: 200_000,
                        dropped_write_ppm: 100_000,
                        transient_error_ppm: 150_000,
                        bitrot_ppm: 50_000,
                        ..FaultConfig::hostile(seed)
                    }
                } else {
                    FaultConfig::none()
                },
                plant_durability_bug: plant_bug,
                serializable,
                ..ChaosConfig::default()
            };
            let report = chaos::run(&cfg, scenario);
            println!("{}", report.summary);
            for (point, v) in &report.violations {
                match point {
                    Some(point) => println!("    crash@{point}: [{}] {}", v.condition, v.detail),
                    None => println!("    [{}] {}", v.condition, v.detail),
                }
            }
            for f in &report.failures {
                println!("    FAIL: {f}");
            }
            caught_planted_bug |= report.violations.iter().any(|(_, v)| v.condition == "DUR-ACK");
            violations += report.violations.len();
            failures += report.failures.len();
            // The flight recorder's contract: an anomaly verdict dumps the
            // retained window without being asked.
            if !report.violations.is_empty() {
                let stem = format!("TRACE_crashmatrix_seed{seed}");
                let events = &report.trace_events;
                let path =
                    |ext: &str| std::path::Path::new("results").join(format!("{stem}.{ext}"));
                let p = write_file(&path("jsonl"), &export::to_jsonl(events));
                write_file(&path("chrome.json"), &export::to_chrome_trace(events));
                println!("    flight recorder: dumped {} events to {}", events.len(), p.display());
            }
            snaps.push((format!("seed{seed}"), report.metrics));
            last_trace = report.trace_events;
        }
    }

    obs_args.dump_trace(&last_trace);
    obs_args.dump_metrics(&snaps);
    // Under --plant-bug violations are the point; gate failures still
    // count.
    if plant_bug && !caught_planted_bug {
        println!("\nFAIL: planted durability bug was NOT caught");
        std::process::exit(1);
    }
    let failed = failures + if plant_bug { 0 } else { violations };
    if failed > 0 {
        println!("\nFAIL: {failed} {noun}");
        std::process::exit(1);
    }
    println!(
        "\n{}",
        if plant_bug { "planted durability bug caught: checker is alive" } else { pass }
    );
}

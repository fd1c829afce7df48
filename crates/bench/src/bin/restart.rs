//! Restart bench: recovery time and replay work vs log length, with and
//! without a fuzzy checkpoint.
//!
//! For each log size the same serial update workload is logged twice —
//! once straight through, once with a checkpoint taken after ~90% of the
//! transactions — and each durable record stream is recovered from a
//! device scan while timing the replay. The checkpointed run must report
//! a replay suffix (`records_after_checkpoint`) strictly smaller than
//! the whole log: that inequality is the bounded-restart contract, and
//! the process exits non-zero if any cell breaks it.
//!
//! ```text
//! cargo run --release -p sias-bench --bin restart -- \
//!     [--keys 64] [--reps 3] [--quick] \
//!     [--metrics-out m.json] [--trace-out t.jsonl] [--series-out s.json]
//! ```
//!
//! Writes `results/BENCH_restart.json`. `--metrics-out` dumps one
//! metrics snapshot per logging run; `--trace-out` / `--series-out`
//! enable the flight recorder and the time-series sampler on the
//! logging engines and dump the *last* (largest, checkpointed) cell's
//! span window and series — recovery engines never enable tracing, so
//! the timed replay itself stays uninstrumented.

use sias_bench::report::{best_of, field, Gate, Op, Report};
use sias_bench::{Args, Backend, ObsArgs};
use sias_core::{FlushPolicy, SiasDb};
use sias_obs::MetricsSnapshot;
use sias_storage::{StorageConfig, Wal, WalRecord};
use sias_txn::MvccEngine;

/// Re-tags a file backend's paths with `tag`, so every cell gets its own
/// backing files (a shorter log over a stale longer one could otherwise
/// scan past its own tail). Simulated backends are returned unchanged.
fn derive(backend: &Backend, tag: &str) -> Backend {
    let retag = |p: &std::path::PathBuf| {
        let mut s = p.clone().into_os_string();
        s.push(".");
        s.push(tag);
        std::path::PathBuf::from(s)
    };
    match backend {
        Backend::File(p) => Backend::File(retag(p)),
        Backend::Striped(ps) => Backend::Striped(ps.iter().map(retag).collect()),
        other => other.clone(),
    }
}

/// Logs `txns` serial two-key update transactions over `keys` keys,
/// checkpointing after 90% of them when asked, and returns the durable
/// record stream a post-crash process would scan off the device plus
/// the run's metrics. The run is observed as `obs` asks.
fn build_log(
    storage_cfg: &StorageConfig,
    txns: u64,
    keys: u64,
    checkpoint: bool,
    obs: &ObsArgs,
) -> (Vec<WalRecord>, MetricsSnapshot) {
    let db = SiasDb::open(storage_cfg.clone());
    let registry = db.obs_registry().expect("sias registry");
    let records = obs.observe(registry, false, || {
        let rel = db.create_relation("restart");
        let t = db.begin();
        for k in 0..keys {
            db.insert(&t, rel, k, format!("init {k}").as_bytes()).unwrap();
        }
        db.commit(t).unwrap();

        let ckpt_at = txns * 9 / 10;
        for i in 0..txns {
            if checkpoint && i == ckpt_at {
                let stats = db.checkpoint().expect("checkpoint");
                assert!(stats.redo_records > 0, "checkpoint must cover the prefix");
            }
            let t = db.begin();
            for (slot, key) in [(i * 2) % keys, (i * 2 + 1) % keys].into_iter().enumerate() {
                db.update(&t, rel, key, format!("txn {i} slot {slot}").as_bytes()).unwrap();
            }
            db.commit(t).unwrap();
        }
        db.stack().wal.force().unwrap();
        Wal::scan_device(db.stack().wal.device().as_ref()).0
    });
    (records, registry.snapshot())
}

fn main() {
    let args = Args::from_env();
    let obs_args = ObsArgs::parse(&args);
    let quick = args.flag("--quick");
    let keys: u64 = args.get("--keys", 64);
    let reps: usize = args.get("--reps", 3);
    let sizes: Vec<u64> = if quick { vec![100, 400] } else { vec![100, 400, 1600, 6400] };
    let backend = args.backend(Backend::Mem);
    let io_depth = args.opt("--io-depth");

    let mut report = Report::new(
        "restart",
        vec![
            ("backend", backend.label().into()),
            ("keys", keys.into()),
            ("reps", reps.into()),
            ("quick", quick.into()),
        ],
    );
    let mut snaps: Vec<(String, MetricsSnapshot)> = Vec::new();
    for &txns in &sizes {
        for checkpointed in [false, true] {
            let tag = format!("{txns}{}", if checkpointed { "c" } else { "p" });
            let log_cfg = derive(&backend, &tag).storage(512, io_depth);
            let rec_cfg = derive(&backend, &format!("{tag}.rec")).storage(512, io_depth);
            let (records, snap) = build_log(&log_cfg, txns, keys, checkpointed, &obs_args);
            let (recover_ns, (_, s)) = best_of(reps, || {
                SiasDb::recover_from_wal(&records, rec_cfg.clone(), FlushPolicy::T2)
                    .expect("recovery")
            });
            let label = format!("txns{txns}-{}", if checkpointed { "ckpt" } else { "plain" });
            let row = vec![
                ("txns", txns.into()),
                ("checkpointed", checkpointed.into()),
                ("checkpoints_seen", s.checkpoints_seen.into()),
                ("records_scanned", s.records_scanned.into()),
                ("records_after_checkpoint", s.records_after_checkpoint.into()),
                ("versions_replayed", s.versions_replayed.into()),
                ("versions_replayed_after_checkpoint", s.versions_replayed_after_checkpoint.into()),
                ("versions_skipped_idempotent", s.versions_skipped_idempotent.into()),
                ("recover_ns", (recover_ns as u64).into()),
            ];
            // Bounded restart: a checkpointed cell replays a strict suffix
            // of the records and the versions; a plain cell's suffix is the
            // whole log.
            let prefix = |all: &str, after: &str| field(&row, all) - field(&row, after);
            let skipped = prefix("records_scanned", "records_after_checkpoint");
            let (want, op) = if checkpointed { (1.0, Op::Gt) } else { (0.0, Op::Eq) };
            report.gates([
                Gate::new(
                    format!("{label} checkpoints_seen"),
                    field(&row, "checkpoints_seen"),
                    Op::Eq,
                    want,
                ),
                Gate::new(format!("{label} records before the checkpoint"), skipped, op, 0.0),
            ]);
            if checkpointed {
                let versions = prefix("versions_replayed", "versions_replayed_after_checkpoint");
                report.gates([Gate::new(
                    format!("{label} versions before the checkpoint"),
                    versions,
                    Op::Gt,
                    0.0,
                )]);
            }
            snaps.push((label, snap));
            report.row("cells", row);
        }
    }
    obs_args.dump_metrics(&snaps);
    report.finish(&backend.results_name("restart"));
}

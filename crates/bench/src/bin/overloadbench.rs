//! **Overload survival** — open-loop arrivals past saturation, with and
//! without the admission gate.
//!
//! A closed-loop calibration run first measures the sustainable commit
//! rate of the full worker fleet. Open-loop workers then replay
//! deterministic arrival schedules at 0.5x the
//! sustainable rate (the healthy baseline) and at 2x (overload), each
//! on a fresh engine. Latency is charged from the *scheduled* arrival
//! time, so queueing delay — the thing overload actually costs — is in
//! the number, not hidden by a closed loop that politely slows its own
//! arrivals.
//!
//! With the gate ON, `try_begin` sheds arrivals over the pressure limit
//! with a typed `Overloaded { retry_after }`; the client honors the
//! hint and drops arrivals scheduled inside the backoff window, which
//! is exactly the contract a real admission-controlled client follows.
//! With the gate OFF every arrival is serviced no matter how late,
//! so the backlog — and the tail — grows without bound for the whole
//! run. The contrast is the point.
//!
//! Acceptance gate (the process exits 1 on a miss; the trio is
//! re-measured on a noisy miss, up to four times):
//!
//! * accepted-txn p99 at 2x with admission ON stays within 1.5x of the
//!   0.5x baseline p99 (baseline floored at 2 ms so sub-millisecond
//!   scheduler noise on shared CI boxes cannot fail the run);
//! * the 2x admission-OFF p99 exceeds 3x the same baseline — if
//!   unbounded admission does *not* degrade, the bench never
//!   overloaded anything and proved nothing;
//! * the gate actually shed work at 2x, and **zero anomalies**: every
//!   cell checks a per-key lost-update invariant (each committed
//!   increment must be visible in the final state, nothing more,
//!   nothing less).
//!
//! ```text
//! cargo run --release -p sias-bench --bin overloadbench \
//!     [-- --quick --seed 42 --keys 512 --metrics-out m.json]
//! ```
//!
//! Writes `results/BENCH_overload.json`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use sias_bench::report::{field, num, Gate, Op, Report, Row};
use sias_bench::{Args, ObsArgs};
use sias_core::{AdmissionConfig, SiasDb};
use sias_obs::MetricsSnapshot;
use sias_storage::{StorageConfig, WalConfig};
use sias_txn::MvccEngine;
use sias_workload::random::SplitMix64;

/// WAL force latency (µs of real time per device force): commits are
/// device-bound the way the paper's flash experiments are, and the
/// sustainable rate is set by the log device, not by the allocator.
const FORCE_SLEEP_US: u64 = 800;

/// Group-commit batch cap. Deliberately small: unbounded batching would
/// let throughput scale almost linearly with offered concurrency, and
/// "2x the sustainable rate" would stop being an overload.
const WAL_MAX_BATCH: usize = 4;

/// Active-transaction limit enforced by the admission gate. Below the
/// worker fleet size so the gate actually binds at 2x, but high enough
/// that capacity at the limit clears the 0.5x baseline rate (group
/// commit makes throughput scale superlinearly with concurrency, so
/// the limit cannot sit too far under the fleet size).
const ACTIVE_LIMIT: u64 = 6;

/// Worker threads: the closed-loop calibration fleet and the open-loop
/// arrival fleet are the same size, so "sustainable" means what this
/// client population can actually push through the engine flat-out.
const WORKERS: usize = 8;

/// Client-side abandon threshold: an arrival this far past its
/// scheduled time is dropped without being offered to the engine. An
/// open-loop client that never abandons converts overload into
/// unbounded queueing no admission gate can save it from; pairing the
/// gate's typed backoff with request staleness is the standard shape.
const STALE_DROP: Duration = Duration::from_millis(5);

/// Accepted-txn p99 at 2x (gate ON) must stay within this factor of
/// the 0.5x baseline.
const P99_LIMIT: f64 = 1.5;

/// The 2x gate-OFF p99 must exceed this factor of the baseline, or the
/// bench never saturated the engine.
const DEGRADE_FACTOR: f64 = 3.0;

/// Baseline floor (µs): tails below this are timer/scheduler noise on a
/// shared box, not signal.
const BASELINE_FLOOR_US: f64 = 2_000.0;

#[derive(Clone, Copy)]
enum Mode {
    /// Closed loop at WORKERS threads: measures the sustainable rate.
    Closed,
    /// Open loop at `rate` txns/s across WORKERS threads.
    Open { rate: f64, admission: bool },
}

fn storage_cfg() -> StorageConfig {
    StorageConfig::in_memory().with_wal_config(WalConfig {
        // Short group window: sparse arrivals should pay the device
        // force, not a batching timeout — otherwise the healthy 0.5x
        // baseline queues on latency the overload cells never see.
        group_timeout_ticks: 8,
        max_batch: WAL_MAX_BATCH,
        force_sleep_us: FORCE_SLEEP_US,
    })
}

fn admission_cfg() -> AdmissionConfig {
    AdmissionConfig {
        enabled: true,
        max_active_txns: ACTIVE_LIMIT,
        // Only the active-txn signal governs here: WAL backlog and dirty
        // ratio are left unbounded so the cell measures one mechanism.
        max_wal_backlog_bytes: 0,
        max_dirty_pct: 0,
        max_delay: Duration::from_millis(1),
        delay_tick: Duration::from_micros(200),
    }
}

fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)] as f64
}

/// Sleep until `t`, spinning only for the last millisecond.
fn sleep_until(t: Instant) {
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        let left = t - now;
        if left > Duration::from_millis(1) {
            std::thread::sleep(left - Duration::from_micros(500));
        } else {
            std::hint::spin_loop();
        }
    }
}

struct WorkerOut {
    attempted: u64,
    committed: u64,
    conflicts: u64,
    shed: u64,
    dropped: u64,
    latencies_us: Vec<u64>,
    /// When this worker finished its last arrival — a backlogged gate-OFF
    /// worker runs well past the schedule horizon, and throughput must
    /// be divided by the real span, not the intended one.
    finished: Instant,
}

/// One read-modify-write transaction over two distinct keys; every
/// committed update increments the key's u64 counter by one, and bumps
/// the client-side expectation only after the commit is acknowledged.
fn one_txn(
    db: &SiasDb,
    rel: sias_common::RelId,
    txn: sias_txn::Txn,
    keys: u64,
    rng: &mut SplitMix64,
    expected: &[AtomicU64],
) -> Result<(), ()> {
    let k1 = rng.next_u64() % keys;
    let k2 = (k1 + 1 + rng.next_u64() % (keys - 1)) % keys;
    for key in [k1, k2] {
        let cur = match db.get(&txn, rel, key) {
            Ok(Some(bytes)) => u64::from_le_bytes(bytes[..8].try_into().unwrap()),
            Ok(None) => panic!("key {key} missing: setup must pre-insert every key"),
            Err(e) => panic!("read failed under load: {e:?}"),
        };
        match db.update(&txn, rel, key, &(cur + 1).to_le_bytes()) {
            Ok(()) => {}
            Err(
                sias_common::SiasError::WriteConflict { .. }
                | sias_common::SiasError::StaleUpdate { .. }
                | sias_common::SiasError::SerializationFailure(_),
            ) => {
                db.abort(txn);
                return Err(());
            }
            Err(e) => panic!("unexpected write error: {e:?}"),
        }
    }
    match db.commit(txn) {
        Ok(()) => {
            expected[k1 as usize].fetch_add(1, Ordering::Relaxed);
            expected[k2 as usize].fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
        Err(sias_common::SiasError::SerializationFailure(_)) => Err(()),
        Err(e) => panic!("unexpected commit error: {e:?}"),
    }
}

fn run_cell(
    label: &'static str,
    mode: Mode,
    duration: Duration,
    keys: u64,
    seed: u64,
) -> (Row, MetricsSnapshot) {
    // Fresh engine per cell: admission counters and the lost-update
    // expectations live per run.
    let db = SiasDb::open(storage_cfg());
    // Calibration runs with the gate ON too: "sustainable" means what
    // the admission-controlled system itself sustains closed-loop, not
    // the ungated fleet peak — 0.5x of that is a genuinely healthy
    // load, and 2x of it still exceeds even the ungated capacity.
    let admission_on = !matches!(mode, Mode::Open { admission: false, .. });
    if admission_on {
        db.admission().set_config(admission_cfg());
    }
    let rel = db.create_relation("overload");
    let expected: Vec<AtomicU64> = (0..keys).map(|_| AtomicU64::new(0)).collect();
    {
        let txn = db.begin();
        for key in 0..keys {
            db.insert(&txn, rel, key, &0u64.to_le_bytes()).expect("setup insert");
        }
        db.commit(txn).expect("setup commit");
    }

    let threads = WORKERS;
    let start = Instant::now() + Duration::from_millis(10);
    let deadline = start + duration;
    let outs: Vec<WorkerOut> = std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(threads);
        for w in 0..threads {
            let db = &db;
            let expected = &expected;
            handles.push(s.spawn(move || {
                let mut rng = SplitMix64(seed ^ (w as u64).wrapping_mul(0xa076_1d64_78bd_642f));
                let mut out = WorkerOut {
                    attempted: 0,
                    committed: 0,
                    conflicts: 0,
                    shed: 0,
                    dropped: 0,
                    latencies_us: Vec::new(),
                    finished: start,
                };
                match mode {
                    Mode::Closed => {
                        sleep_until(start);
                        while Instant::now() < deadline {
                            out.attempted += 1;
                            let t0 = Instant::now();
                            let txn = db.begin();
                            match one_txn(db, rel, txn, keys, &mut rng, expected) {
                                Ok(()) => {
                                    out.committed += 1;
                                    out.latencies_us.push(t0.elapsed().as_micros() as u64);
                                }
                                Err(()) => out.conflicts += 1,
                            }
                        }
                    }
                    Mode::Open { rate, admission } => {
                        // Deterministic arrival schedule: this worker's
                        // share of the offered rate, phase-shifted so
                        // the fleet's arrivals interleave evenly.
                        let interval = Duration::from_secs_f64(threads as f64 / rate);
                        let phase = interval.mul_f64(w as f64 / threads as f64);
                        let mut i: u32 = 0;
                        loop {
                            let sched = start + phase + interval * i;
                            i += 1;
                            if sched >= deadline {
                                break;
                            }
                            sleep_until(sched);
                            // Gate ON pairs the engine's shedding with a
                            // cooperating client: arrivals already stale
                            // are abandoned, never offered. Gate OFF is
                            // the naive client that services everything
                            // no matter how late — the contrast cell.
                            if admission && sched.elapsed() > STALE_DROP {
                                out.dropped += 1;
                                continue;
                            }
                            out.attempted += 1;
                            let txn = if admission {
                                match db.try_begin() {
                                    Ok(txn) => txn,
                                    Err(sias_common::SiasError::Overloaded { retry_after_ms }) => {
                                        out.shed += 1;
                                        // Honor the typed backoff hint:
                                        // drop arrivals scheduled inside
                                        // the window instead of retrying
                                        // into a saturated engine.
                                        let resume =
                                            Instant::now() + Duration::from_millis(retry_after_ms);
                                        while start + phase + interval * i < resume {
                                            i += 1;
                                            out.dropped += 1;
                                        }
                                        continue;
                                    }
                                    Err(e) => panic!("unexpected begin error: {e:?}"),
                                }
                            } else {
                                db.begin()
                            };
                            match one_txn(db, rel, txn, keys, &mut rng, expected) {
                                Ok(()) => {
                                    out.committed += 1;
                                    // Charged from the *scheduled* arrival:
                                    // queueing delay is part of the price.
                                    out.latencies_us.push(sched.elapsed().as_micros() as u64);
                                }
                                Err(()) => out.conflicts += 1,
                            }
                        }
                    }
                }
                out.finished = Instant::now();
                out
            }));
        }
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    });
    let finished = outs.iter().map(|o| o.finished).max().unwrap_or(deadline);
    let wall = finished.max(deadline).saturating_duration_since(start).as_secs_f64();

    // Lost-update invariant: the final visible counter of every key must
    // equal the number of acknowledged committed increments, exactly.
    let mut anomalies = 0u64;
    {
        let txn = db.begin();
        for key in 0..keys {
            let got = match db.get(&txn, rel, key) {
                Ok(Some(bytes)) => u64::from_le_bytes(bytes[..8].try_into().unwrap()),
                other => panic!("final read of key {key} failed: {other:?}"),
            };
            if got != expected[key as usize].load(Ordering::Relaxed) {
                anomalies += 1;
            }
        }
        db.abort(txn);
    }

    let mut lat: Vec<u64> = outs.iter().flat_map(|o| o.latencies_us.iter().copied()).collect();
    lat.sort_unstable();
    let sum = |f: fn(&WorkerOut) -> u64| outs.iter().map(f).sum::<u64>();
    let committed = sum(|o| o.committed);
    let snap = db.metrics_snapshot();
    let gate = |name: &str| snap.counter(name).unwrap_or(0);
    let offered = match mode {
        Mode::Closed => 0.0,
        Mode::Open { rate, .. } => rate,
    };
    let row = vec![
        ("cell", label.into()),
        ("offered_per_sec", num(offered, 1)),
        ("admission", admission_on.into()),
        ("wall_secs", num(wall, 3)),
        ("attempted", sum(|o| o.attempted).into()),
        ("committed", committed.into()),
        ("conflicts", sum(|o| o.conflicts).into()),
        ("shed", sum(|o| o.shed).into()),
        ("dropped", sum(|o| o.dropped).into()),
        ("commits_per_sec", num(committed as f64 / wall, 1)),
        ("p50_us", num(quantile(&lat, 0.50), 1)),
        ("p99_us", num(quantile(&lat, 0.99), 1)),
        ("p999_us", num(quantile(&lat, 0.999), 1)),
        ("gate_admitted", gate("core.admission.admitted").into()),
        ("gate_delayed", gate("core.admission.delayed").into()),
        ("gate_shed", gate("core.admission.shed").into()),
        ("anomalies", anomalies.into()),
    ];
    (row, snap)
}

/// The trio's gates: the 2x-ON tail bounded, the 2x-OFF tail degraded,
/// and the gate shedding at 2x.
fn trio_gates(base: &Row, on2x: &Row, off2x: &Row) -> Vec<Gate> {
    let base_eff = field(base, "p99_us").max(BASELINE_FLOOR_US);
    vec![
        Gate::new("on_2x_ratio", field(on2x, "p99_us") / base_eff, Op::Le, P99_LIMIT),
        Gate::new("off_2x_ratio", field(off2x, "p99_us") / base_eff, Op::Ge, DEGRADE_FACTOR),
        Gate::new(
            "on_2x_shed_or_dropped",
            field(on2x, "shed") + field(on2x, "dropped"),
            Op::Gt,
            0.0,
        ),
        Gate::new("on_2x_gate_shed", field(on2x, "gate_shed"), Op::Gt, 0.0),
    ]
}

fn main() {
    let args = Args::from_env();
    let obs_args = ObsArgs::parse(&args);
    let quick = args.flag("--quick");
    let seed: u64 = args.get("--seed", 42);
    let keys: u64 = args.get("--keys", 512);
    let calib_secs = if quick { 1.2 } else { 2.0 };
    let cell_secs = if quick { 1.6 } else { 3.0 };
    let mut report = Report::new(
        "overloadbench",
        vec![
            ("workers", WORKERS.into()),
            ("active_limit", ACTIVE_LIMIT.into()),
            ("keys", keys.into()),
            ("seed", seed.into()),
            ("force_sleep_us", FORCE_SLEEP_US.into()),
            ("wal_max_batch", WAL_MAX_BATCH.into()),
            ("quick", quick.into()),
        ],
    );

    // Warmup, discarded: first run in the process pays one-time costs.
    let _ = run_cell("warmup", Mode::Closed, Duration::from_millis(400), keys, seed);

    // Closed-loop calibration with the full fleet defines the
    // sustainable rate all open-loop cells are sized from.
    let (calib, snap_calib) =
        run_cell("calibrate", Mode::Closed, Duration::from_secs_f64(calib_secs), keys, seed);
    let sustainable = field(&calib, "commits_per_sec");
    report.config.push(("sustainable_commits_per_sec", num(sustainable, 1)));
    report.row("cells", calib);

    let dur = Duration::from_secs_f64(cell_secs);
    let open = |label, factor, admission, s| {
        run_cell(label, Mode::Open { rate: sustainable * factor, admission }, dur, keys, s)
    };
    // The first trio runs on seed offset 0, re-measures on offsets 2, 3, 4.
    let trio = report.remeasure(
        4,
        |attempt| {
            let s = seed.wrapping_add(
                if attempt == 1 { 0 } else { u64::from(attempt) }.wrapping_mul(0x9e37),
            );
            [
                open("base-0.5x", 0.5, true, s),
                open("overload-2x-on", 2.0, true, s ^ 1),
                open("overload-2x-off", 2.0, false, s ^ 2),
            ]
        },
        |[base, on2x, off2x]| trio_gates(&base.0, &on2x.0, &off2x.0),
    );
    let mut snaps = vec![("calibrate".to_string(), snap_calib)];
    for (label, (row, snap)) in
        ["base-0.5x", "overload-2x-on", "overload-2x-off"].into_iter().zip(trio)
    {
        snaps.push((label.to_string(), snap));
        report.row("cells", row);
    }
    let anomalies: f64 = report.rows("cells").iter().map(|c| field(c, "anomalies")).sum();
    report.gates([Gate::new("anomalies", anomalies, Op::Eq, 0.0)]);
    obs_args.dump_metrics(&snaps);
    report.finish("BENCH_overload.json");
}

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
//! Acceptance gate (asserted in-process, pair re-measured on a noisy
//! miss):
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

use sias_bench::{arg_value, write_results, ObsArgs};
use sias_core::{AdmissionConfig, SiasDb};
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

/// Gate attempts before a tail-latency miss is declared real.
const MAX_ATTEMPTS: u32 = 4;

#[derive(Clone, Copy)]
enum Mode {
    /// Closed loop at WORKERS threads: measures the sustainable rate.
    Closed,
    /// Open loop at `rate` txns/s across WORKERS threads.
    Open { rate: f64, admission: bool },
}

#[derive(Clone)]
struct Cell {
    label: &'static str,
    offered_rate: f64,
    admission: bool,
    wall_secs: f64,
    attempted: u64,
    committed: u64,
    conflicts: u64,
    shed: u64,
    dropped: u64,
    commits_per_sec: f64,
    p50_us: f64,
    p99_us: f64,
    p999_us: f64,
    gate_admitted: u64,
    gate_delayed: u64,
    gate_shed: u64,
    anomalies: u64,
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
) -> (Cell, sias_obs::MetricsSnapshot) {
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
    let cell = Cell {
        label,
        offered_rate: match mode {
            Mode::Closed => 0.0,
            Mode::Open { rate, .. } => rate,
        },
        admission: admission_on,
        wall_secs: wall,
        attempted: sum(|o| o.attempted),
        committed,
        conflicts: sum(|o| o.conflicts),
        shed: sum(|o| o.shed),
        dropped: sum(|o| o.dropped),
        commits_per_sec: committed as f64 / wall,
        p50_us: quantile(&lat, 0.50),
        p99_us: quantile(&lat, 0.99),
        p999_us: quantile(&lat, 0.999),
        gate_admitted: gate("core.admission.admitted"),
        gate_delayed: gate("core.admission.delayed"),
        gate_shed: gate("core.admission.shed"),
        anomalies,
    };
    (cell, snap)
}

fn print_cell(c: &Cell) {
    println!(
        "{:<14} {:>9.0} {:>5} {:>9} {:>9} {:>7} {:>7} {:>7} {:>11.0} {:>9.0} {:>10.0} {:>10.0} {:>5}",
        c.label,
        c.offered_rate,
        if c.admission { "on" } else { "off" },
        c.attempted,
        c.committed,
        c.conflicts,
        c.shed,
        c.dropped,
        c.commits_per_sec,
        c.p50_us,
        c.p99_us,
        c.p999_us,
        c.anomalies,
    );
}

struct Gate {
    base_eff_us: f64,
    on_ratio: f64,
    off_ratio: f64,
    passed_tail: bool,
    passed_degrade: bool,
    passed_shed: bool,
}

fn gate(base: &Cell, on2x: &Cell, off2x: &Cell) -> Gate {
    let base_eff = base.p99_us.max(BASELINE_FLOOR_US);
    let on_ratio = on2x.p99_us / base_eff;
    let off_ratio = off2x.p99_us / base_eff;
    Gate {
        base_eff_us: base_eff,
        on_ratio,
        off_ratio,
        passed_tail: on_ratio <= P99_LIMIT,
        passed_degrade: off_ratio >= DEGRADE_FACTOR,
        passed_shed: on2x.shed + on2x.dropped > 0 && on2x.gate_shed > 0,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let obs_args = ObsArgs::parse(&args);
    let quick = args.iter().any(|a| a == "--quick");
    let seed: u64 = arg_value(&args, "--seed").and_then(|v| v.parse().ok()).unwrap_or(42);
    let keys: u64 = arg_value(&args, "--keys").and_then(|v| v.parse().ok()).unwrap_or(512);
    let calib_secs = if quick { 1.2 } else { 2.0 };
    let cell_secs = if quick { 1.6 } else { 3.0 };

    println!(
        "overloadbench: {WORKERS} open-loop workers, active-txn limit {ACTIVE_LIMIT}, \
         {keys} keys, force latency {FORCE_SLEEP_US} us, wal batch {WAL_MAX_BATCH}"
    );

    // Warmup, discarded: first run in the process pays one-time costs.
    let _ = run_cell("warmup", Mode::Closed, Duration::from_millis(400), keys, seed);

    // Closed-loop calibration with the full fleet defines the
    // sustainable rate all open-loop cells are sized from.
    let (calib, snap_calib) =
        run_cell("calibrate", Mode::Closed, Duration::from_secs_f64(calib_secs), keys, seed);
    let sustainable = calib.commits_per_sec;
    println!("sustainable rate at {WORKERS} closed-loop threads: {sustainable:.0} commits/s");
    println!(
        "{:<14} {:>9} {:>5} {:>9} {:>9} {:>7} {:>7} {:>7} {:>11} {:>9} {:>10} {:>10} {:>5}",
        "cell",
        "offered/s",
        "gate",
        "arrived",
        "commits",
        "confl",
        "shed",
        "dropped",
        "commits/s",
        "p50(us)",
        "p99(us)",
        "p999(us)",
        "anom",
    );
    print_cell(&calib);

    let dur = Duration::from_secs_f64(cell_secs);
    let run_trio = |attempt: u64| {
        let s = seed.wrapping_add(attempt.wrapping_mul(0x9e37));
        let base = run_cell(
            "base-0.5x",
            Mode::Open { rate: sustainable * 0.5, admission: true },
            dur,
            keys,
            s,
        );
        let on2x = run_cell(
            "overload-2x-on",
            Mode::Open { rate: sustainable * 2.0, admission: true },
            dur,
            keys,
            s ^ 1,
        );
        let off2x = run_cell(
            "overload-2x-off",
            Mode::Open { rate: sustainable * 2.0, admission: false },
            dur,
            keys,
            s ^ 2,
        );
        (base, on2x, off2x)
    };

    let mut attempts = 1u32;
    let (mut base, mut on2x, mut off2x) = run_trio(0);
    let mut verdict = gate(&base.0, &on2x.0, &off2x.0);
    while !(verdict.passed_tail && verdict.passed_degrade && verdict.passed_shed)
        && attempts < MAX_ATTEMPTS
    {
        attempts += 1;
        println!(
            "gate miss (on {:.2}x, off {:.2}x of baseline {:.0} us, shed {}), \
             re-measuring trio (attempt {attempts}/{MAX_ATTEMPTS})",
            verdict.on_ratio,
            verdict.off_ratio,
            verdict.base_eff_us,
            on2x.0.shed + on2x.0.dropped,
        );
        let trio = run_trio(attempts as u64);
        base = trio.0;
        on2x = trio.1;
        off2x = trio.2;
        verdict = gate(&base.0, &on2x.0, &off2x.0);
    }
    print_cell(&base.0);
    print_cell(&on2x.0);
    print_cell(&off2x.0);

    let cells = [&calib, &base.0, &on2x.0, &off2x.0];
    let total_anomalies: u64 = cells.iter().map(|c| c.anomalies).sum();
    let passed = verdict.passed_tail
        && verdict.passed_degrade
        && verdict.passed_shed
        && total_anomalies == 0;
    println!(
        "gate: 2x-ON p99 {:.0} us = {:.2}x of baseline {:.0} us (limit {P99_LIMIT}x); \
         2x-OFF p99 {:.0} us = {:.2}x (must exceed {DEGRADE_FACTOR}x); \
         shed {} / dropped {}; anomalies {} -> {}",
        on2x.0.p99_us,
        verdict.on_ratio,
        verdict.base_eff_us,
        off2x.0.p99_us,
        verdict.off_ratio,
        on2x.0.shed,
        on2x.0.dropped,
        total_anomalies,
        if passed { "PASS" } else { "FAIL" }
    );

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"config\": {{\"workers\": {WORKERS}, \"active_limit\": {ACTIVE_LIMIT}, \
         \"keys\": {keys}, \"seed\": {seed}, \"force_sleep_us\": {FORCE_SLEEP_US}, \
         \"wal_max_batch\": {WAL_MAX_BATCH}, \"quick\": {quick}, \
         \"sustainable_commits_per_sec\": {sustainable:.1}}},\n"
    ));
    json.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"cell\": \"{}\", \"offered_per_sec\": {:.1}, \"admission\": {}, \
             \"wall_secs\": {:.3}, \"attempted\": {}, \"committed\": {}, \
             \"conflicts\": {}, \"shed\": {}, \"dropped\": {}, \
             \"commits_per_sec\": {:.1}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \
             \"p999_us\": {:.1}, \"gate_admitted\": {}, \"gate_delayed\": {}, \
             \"gate_shed\": {}, \"anomalies\": {}}}{}\n",
            c.label,
            c.offered_rate,
            c.admission,
            c.wall_secs,
            c.attempted,
            c.committed,
            c.conflicts,
            c.shed,
            c.dropped,
            c.commits_per_sec,
            c.p50_us,
            c.p99_us,
            c.p999_us,
            c.gate_admitted,
            c.gate_delayed,
            c.gate_shed,
            c.anomalies,
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"gate\": {{\"baseline_eff_p99_us\": {:.1}, \"on_2x_ratio\": {:.3}, \
         \"off_2x_ratio\": {:.3}, \"p99_limit\": {P99_LIMIT}, \
         \"degrade_factor\": {DEGRADE_FACTOR}, \"attempts\": {attempts}, \
         \"anomalies\": {total_anomalies}, \"passed\": {passed}}}\n",
        verdict.base_eff_us, verdict.on_ratio, verdict.off_ratio
    ));
    json.push_str("}\n");
    let path = write_results("BENCH_overload.json", &json);
    println!("wrote {}", path.display());

    if let Some(p) = obs_args.dump_metrics(&[
        ("calibrate".to_string(), snap_calib),
        ("base-0.5x".to_string(), base.1),
        ("overload-2x-on".to_string(), on2x.1),
        ("overload-2x-off".to_string(), off2x.1),
    ]) {
        println!("wrote {}", p.display());
    }

    assert!(
        passed,
        "overload gate failed after {attempts} attempts: on {:.2}x (limit {P99_LIMIT}x), \
         off {:.2}x (must exceed {DEGRADE_FACTOR}x), shed {}, anomalies {total_anomalies}",
        verdict.on_ratio,
        verdict.off_ratio,
        on2x.0.shed + on2x.0.dropped,
    );
}

//! `report-hot-range`: a reporter holding one snapshot across 50 range
//! scans of a table 3–4× the buffer pool, while an updater rewrites
//! mostly the newest 1 % of keys. No maintenance runs.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use sias_common::RelId;
use sias_core::SiasDb;
use sias_storage::StorageConfig;
use sias_txn::MvccEngine;
use sias_workload::WriteTag;

use crate::client::{load_keys, payload, verify, Merged, Recorder, PAYLOAD_LEN};
use crate::counters::Counters;
use crate::result::{metric, Interval, Pass};
use crate::spans::Span;
use crate::stats::{Rng, Stamped};

pub const POOL_FRAMES: usize = 1_024;
/// Passes per untraced run. The workload is not stationary: with no GC,
/// the closed-loop updater writes ~35 000 versions a second and scans
/// slow down as they do, 3–5x over 16 s. Short passes, each from a fresh
/// set-up, keep every window near the same state.
pub const PASSES: usize = 8;
const KEYS: u64 = 200_000;
const HOT_LO: u64 = KEYS - KEYS / 100;
const SCAN_LEN: u64 = 1_000;
const SCANS_PER_TXN: usize = 50;
const UPDATES_PER_TXN: usize = 8;

pub struct State {
    db: SiasDb,
    rel: RelId,
}

pub fn setup() -> State {
    let db = SiasDb::open(StorageConfig::ssd().with_pool_frames(POOL_FRAMES));
    let rel = db.create_relation("report");
    load_keys(&db, rel, KEYS);
    db.maintenance(true);
    State { db, rel }
}

/// Scan start keys of the reporter: even scans start in the hot range,
/// odd ones anywhere; every scan covers 1 000 existing keys.
fn scan_starts(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = Rng::new(seed, 0x7265_0001);
    (0..n)
        .map(|i| {
            if i % 2 == 0 {
                HOT_LO + rng.below(KEYS - HOT_LO - SCAN_LEN + 1)
            } else {
                rng.below(KEYS - SCAN_LEN + 1)
            }
        })
        .collect()
}

/// Keys of the updater: 90 % in the hot range, 10 % anywhere.
fn update_keys(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = Rng::new(seed, 0x7265_0002);
    (0..n)
        .map(
            |_| if rng.below(10) < 9 { HOT_LO + rng.below(KEYS - HOT_LO) } else { rng.below(KEYS) },
        )
        .collect()
}

#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
}

fn reporter(
    db: &SiasDb,
    rel: RelId,
    starts: &[u64],
    deadline: Instant,
    rec: &mut Recorder,
) -> Outcome {
    let mut out = Outcome::default();
    for txn_starts in starts.chunks(SCANS_PER_TXN).cycle() {
        if Instant::now() >= deadline {
            break;
        }
        out.attempted += 1;
        let txn = rec.begin(db);
        let mut ok = true;
        for &lo in txn_starts {
            let hi = lo + SCAN_LEN - 1;
            let rows = match rec.scan(db, &txn, rel, lo, hi) {
                Ok(rows) => rows,
                Err(e) => {
                    out.violations.push(format!("scan [{lo}, {hi}] failed: {e}"));
                    ok = false;
                    break;
                }
            };
            rec.maybe_probe(db, &txn, rel, lo + (lo % SCAN_LEN));
            if rows.len() as u64 != SCAN_LEN {
                out.violations.push(format!("scan [{lo}, {hi}] returned {} rows", rows.len()));
            }
            for (i, (key, bytes)) in rows.iter().enumerate() {
                if *key != lo + i as u64 || verify(*key, bytes).is_none() {
                    out.violations.push(format!(
                        "scan [{lo}, {hi}] row {i}: key {key} out of order or corrupt"
                    ));
                    break;
                }
            }
        }
        if !ok || rec.commit(db, txn).is_err() {
            out.failed += 1;
        }
    }
    out
}

fn updater(
    db: &SiasDb,
    rel: RelId,
    keys: &[u64],
    deadline: Instant,
    rec: &mut Recorder,
) -> Outcome {
    let mut out = Outcome::default();
    for txn_keys in keys.chunks(UPDATES_PER_TXN).cycle() {
        if Instant::now() >= deadline {
            break;
        }
        out.attempted += 1;
        let txn = rec.begin(db);
        let xid = txn.xid;
        let mut failed = false;
        for (seq, &key) in txn_keys.iter().enumerate() {
            let p = payload(key, WriteTag { xid, seq: seq as u32 });
            if rec.write("engine.update", &txn, || db.update(&txn, rel, key, &p)).is_err() {
                failed = true;
                break;
            }
        }
        if failed {
            rec.abort(db, txn);
            out.failed += 1;
        } else if rec.commit(db, txn).is_err() {
            out.failed += 1;
        }
    }
    out
}

pub fn measure(state: State, seed: u64, seconds: u64, trace: bool) -> (Pass, Vec<Vec<Span>>) {
    let State { db, rel } = state;
    let n = 50_000 * seconds.max(1) as usize;
    let starts = scan_starts(seed, n / 10);
    let keys = update_keys(seed, n);
    let barrier = Barrier::new(3);
    let before = Counters::take(&db);
    let t0 = Instant::now();
    let (results, interval) = std::thread::scope(|s| {
        let (db, barrier) = (&db, &barrier);
        let spawn = |f: fn(&SiasDb, RelId, &[u64], Instant, &mut Recorder) -> Outcome,
                     input: Vec<u64>| {
            s.spawn(move || {
                let mut rec = Recorder::new(trace, t0, 1);
                barrier.wait();
                let deadline = Instant::now() + Duration::from_secs(seconds);
                let out = f(db, rel, &input, deadline, &mut rec);
                (out, rec)
            })
        };
        let handles = [spawn(reporter, starts), spawn(updater, keys)];
        barrier.wait();
        let start = Instant::now();
        let results: Vec<(Outcome, Recorder)> =
            handles.into_iter().map(|h| h.join().expect("report client")).collect();
        (results, Interval::since(t0, start))
    });
    let after = Counters::take(&db);

    let mut outcome = Outcome::default();
    let mut merged = Merged::default();
    let mut updater_txn = Stamped::default();
    for (i, (o, rec)) in results.into_iter().enumerate() {
        outcome.attempted += o.attempted;
        outcome.failed += o.failed;
        outcome.violations.extend(o.violations);
        if i == 1 {
            updater_txn = rec.txn_ns.clone();
        }
        merged.add(rec);
    }
    if let Err(e) = db.debug_validate_index(rel) {
        outcome.violations.push(format!("index: {e}"));
    }
    // Only the reporter scans, hot range and anywhere in turn (50 per
    // transaction, an even number, so the turns carry across
    // transactions). The two kinds cost different
    // amounts, so a median over both would sit between them and jump
    // with their mix; the reported reads are the hot-range scans, the
    // paper's read-side price.
    let (read, anywhere) = std::mem::take(&mut merged.scan).split_alternate();
    let mut anywhere = anywhere.all();
    let live_bytes = KEYS * PAYLOAD_LEN as u64;
    let (mut pass, spans) = Pass::new(
        &before,
        &after,
        merged,
        None,
        interval,
        live_bytes,
        read,
        "hot-range scan_range calls of 1000 keys",
    );
    let n = format!("n={} scans of 1000 keys starting anywhere", anywhere.len());
    pass.extra.push(metric("scan_anywhere_p50_us", anywhere.quantile_us(0.5), "us", n.clone()));
    pass.extra.push(metric("scan_anywhere_p99_us", anywhere.quantile_us(0.99), "us", n));
    // Transaction latency is the updater's; the reporter's read-only
    // transactions are measured by their scans.
    pass.txn = updater_txn;
    pass.attempted = outcome.attempted;
    pass.failed = outcome.failed;
    pass.violations = outcome.violations;
    (pass, spans)
}

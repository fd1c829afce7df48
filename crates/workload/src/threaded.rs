//! Real OS-thread workload driver.
//!
//! The discrete-event driver ([`crate::driver`]) interleaves simulated
//! terminals on one thread under the virtual clock — ideal for the
//! paper's device-time experiments, useless for measuring the engine's
//! *multi-core* hot paths (sharded buffer pool, group commit, lock-free
//! VID map). This driver is the complement: `threads` genuine OS threads
//! hammer one shared engine through the [`MvccEngine`] trait, each with
//! its own seeded splitmix64 stream, and wall-clock time is the metric.
//!
//! Every thread records what it did and observed as [`TxnRecord`]s over
//! checksummed [`WriteTag`] payloads — the same format the chaos harness
//! uses — and the per-thread records are merged into one [`History`]
//! that feeds the black-box SI-anomaly checker
//! ([`crate::check_anomalies`]). For SIAS engines,
//! [`fill_sias_version_order`] walks the version chains afterwards so
//! the G0 (dirty write) check has the engine's own opinion of each
//! key's committed order.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use sias_common::SiasError;
use sias_core::{MaintenanceConfig, MaintenanceScheduler, MaintenanceTotals, SiasDb};
use sias_txn::MvccEngine;

use crate::check::{HistOp, HistOutcome, History, TxnRecord, WriteTag};
use crate::random::SplitMix64;

/// Parameters of one threaded run. The same config and seed produce the
/// same *per-thread* operation streams; the cross-thread interleaving is
/// whatever the scheduler does — that nondeterminism is the test.
#[derive(Clone, Debug)]
pub struct ThreadedConfig {
    /// OS threads (terminals) to run.
    pub threads: usize,
    /// Transactions each thread executes.
    pub txns_per_thread: usize,
    /// Shared key-space size; every key is pre-inserted by a setup
    /// transaction so all threads contend on the same rows.
    pub keys: u64,
    /// Operations per transaction (each op reads; some also update).
    pub ops_per_txn: usize,
    /// Percent of operations that follow their read with an update.
    pub update_pct: u32,
    /// Probability (parts per million) of a deliberate client abort at
    /// the end of a transaction.
    pub abort_ppm: u32,
    /// Master seed; thread `i` draws from `splitmix64(seed ^ mix(i))`.
    pub seed: u64,
    /// Upgrade the engine to serializable snapshot isolation before the
    /// contended phase.
    pub serializable: bool,
    /// Constraint-pair mode: each op picks a zipfian-distributed key
    /// *pair* `(2p, 2p+1)`, reads both, and (at `update_pct`) writes one
    /// of them — the write-skew-prone access pattern. Off: independent
    /// uniform single-key read-modify-writes.
    pub constraint_pairs: bool,
}

impl Default for ThreadedConfig {
    fn default() -> Self {
        ThreadedConfig {
            threads: 4,
            txns_per_thread: 64,
            keys: 64,
            ops_per_txn: 4,
            update_pct: 60,
            abort_ppm: 20_000,
            seed: 1,
            serializable: false,
            constraint_pairs: false,
        }
    }
}

/// Outcome of one threaded run.
pub struct ThreadedRun {
    /// Merged history of every thread (checker-compatible; the
    /// `version_order` is empty until [`fill_sias_version_order`]).
    pub history: History,
    /// Transactions acknowledged as committed.
    pub committed: u64,
    /// Transactions aborted (client choice, conflicts, errors).
    pub aborted: u64,
    /// First-updater-wins conflicts encountered.
    pub conflicts: u64,
    /// Serialization-failure aborts the engine reported during the run
    /// (always 0 unless `serializable` was set).
    pub serialization_aborts: u64,
    /// Wall-clock duration of the contended phase (excludes setup).
    pub wall: Duration,
}

impl ThreadedRun {
    /// Committed transactions per wall-clock second.
    pub fn commits_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.committed as f64 / secs
        } else {
            0.0
        }
    }
}

/// Runs `cfg.threads` OS threads of read-modify-write transactions over
/// the shared engine's `"threaded"` relation and returns the merged
/// history plus throughput counters. Works against any [`MvccEngine`];
/// the caller owns engine construction so the same driver measures SIAS
/// and the SI baseline.
pub fn drive_threaded<E: MvccEngine + ?Sized>(db: &E, cfg: &ThreadedConfig) -> ThreadedRun {
    let rel = db.create_relation("threaded");
    let mut history = History::default();
    if cfg.serializable {
        db.set_serializable();
    }
    let ser_aborts_base = db.serialization_aborts();

    // Dense acknowledgement order across all threads. The anomaly
    // checker keys on outcomes and tags, not on this sequence, so a
    // post-commit fetch_add is exact enough.
    let commit_seq = AtomicU64::new(0);

    // Setup: every key exists before the contended phase starts.
    {
        let txn = db.begin();
        let xid = txn.xid;
        let mut rec = TxnRecord { xid, ops: Vec::new(), outcome: HistOutcome::Aborted };
        for key in 0..cfg.keys.max(1) {
            let tag = WriteTag { xid, seq: key as u32 };
            db.insert(&txn, rel, key, &tag.encode_payload(key)).expect("setup insert");
            rec.ops.push(HistOp::Write { key, tag });
        }
        db.commit(txn).expect("setup commit");
        rec.outcome = HistOutcome::Committed {
            commit_seq: commit_seq.fetch_add(1, Ordering::Relaxed),
            acked_at_record: 0,
        };
        history.txns.push(rec);
    }

    let threads = cfg.threads.max(1);
    let barrier = Barrier::new(threads);
    let start = Instant::now();
    let per_thread: Vec<(Vec<TxnRecord>, u64, u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|ti| {
                let barrier = &barrier;
                let commit_seq = &commit_seq;
                scope.spawn(move || {
                    let mut rng =
                        SplitMix64(cfg.seed ^ (ti as u64).wrapping_mul(0xa076_1d64_78bd_642f));
                    let mut records = Vec::with_capacity(cfg.txns_per_thread);
                    let (mut committed, mut aborted, mut conflicts) = (0u64, 0u64, 0u64);
                    barrier.wait();
                    for _ in 0..cfg.txns_per_thread {
                        let txn = db.begin();
                        let xid = txn.xid;
                        let mut rec =
                            TxnRecord { xid, ops: Vec::new(), outcome: HistOutcome::Aborted };
                        let mut op_seq = 0u32;
                        let mut alive = Some(txn);
                        'ops: for _ in 0..cfg.ops_per_txn {
                            if alive.is_none() {
                                break;
                            }
                            // Key set of this op: one uniform key, or a
                            // zipfian constraint pair (both read, one
                            // written) in pair mode.
                            let keys = cfg.keys.max(1);
                            let (reads, write_key) = if cfg.constraint_pairs && keys >= 2 {
                                let p = rng.zipf(keys / 2);
                                let (k0, k1) = (2 * p, 2 * p + 1);
                                let wk = if rng.next_u64().is_multiple_of(2) { k0 } else { k1 };
                                (vec![k0, k1], wk)
                            } else {
                                let key = rng.next_u64() % keys;
                                (vec![key], key)
                            };
                            for key in reads {
                                let txn = alive.as_ref().expect("txn alive in op loop");
                                let observed = match db.get(txn, rel, key) {
                                    Ok(Some(bytes)) => {
                                        let (k, tag) = WriteTag::decode_payload(&bytes)
                                            .expect("threaded payloads are checksummed tags");
                                        assert_eq!(k, key, "payload key mismatch");
                                        Some(tag)
                                    }
                                    Ok(None) => None,
                                    Err(_) => {
                                        db.abort(alive.take().unwrap());
                                        aborted += 1;
                                        break 'ops;
                                    }
                                };
                                rec.ops.push(HistOp::Read { key, observed });
                            }
                            if rng.next_u64() % 100 >= u64::from(cfg.update_pct) {
                                continue;
                            }
                            let txn = alive.as_ref().expect("txn alive in op loop");
                            let tag = WriteTag { xid, seq: op_seq };
                            op_seq += 1;
                            match db.update(txn, rel, write_key, &tag.encode_payload(write_key)) {
                                Ok(()) => rec.ops.push(HistOp::Write { key: write_key, tag }),
                                Err(e) => {
                                    if matches!(e, SiasError::WriteConflict { .. }) {
                                        conflicts += 1;
                                    }
                                    db.abort(alive.take().unwrap());
                                    aborted += 1;
                                }
                            }
                        }
                        if let Some(txn) = alive {
                            if rng.chance_ppm(cfg.abort_ppm) {
                                db.abort(txn);
                                aborted += 1;
                            } else {
                                match db.commit(txn) {
                                    Ok(()) => {
                                        rec.outcome = HistOutcome::Committed {
                                            commit_seq: commit_seq.fetch_add(1, Ordering::Relaxed),
                                            acked_at_record: 0,
                                        };
                                        committed += 1;
                                    }
                                    // A commit-time serialization abort
                                    // is a definitive abort, not an
                                    // uncertain outcome.
                                    Err(SiasError::SerializationFailure(_)) => {
                                        rec.outcome = HistOutcome::Aborted;
                                        aborted += 1;
                                    }
                                    Err(_) => rec.outcome = HistOutcome::Unacked,
                                }
                            }
                        }
                        records.push(rec);
                    }
                    (records, committed, aborted, conflicts)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("terminal thread")).collect()
    });
    let wall = start.elapsed();

    let (mut committed, mut aborted, mut conflicts) = (1u64, 0u64, 0u64); // setup committed
    for (records, c, a, w) in per_thread {
        history.txns.extend(records);
        committed += c;
        aborted += a;
        conflicts += w;
    }
    let serialization_aborts = db.serialization_aborts().saturating_sub(ser_aborts_base);

    ThreadedRun { history, committed, aborted, conflicts, serialization_aborts, wall }
}

/// Fills `history.version_order` from a SIAS engine's own version
/// chains (oldest-first per key), enabling the G0 check on a history
/// produced by [`drive_threaded`]. SI chains are not walkable from the
/// outside, which is why this is SIAS-specific.
pub fn fill_sias_version_order(db: &SiasDb, history: &mut History) {
    history.version_order =
        crate::chaos::extract_version_order(db, "threaded", &history.committed());
}

/// [`drive_threaded`] with the online-maintenance scheduler running for
/// the duration of the contended phase: incremental GC, scrub slices
/// and WAL-paced checkpoints all compete with the foreground threads.
/// Returns the run plus the maintenance work totals — the pairing the
/// `maintbench` binary sweeps to price background maintenance in
/// foreground tail latency.
pub fn drive_threaded_with_maintenance(
    db: &Arc<SiasDb>,
    cfg: &ThreadedConfig,
    maint: MaintenanceConfig,
) -> (ThreadedRun, MaintenanceTotals) {
    let sched = MaintenanceScheduler::spawn(Arc::clone(db), maint);
    let run = drive_threaded(db.as_ref(), cfg);
    let totals = sched.stop();
    (run, totals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_anomalies;
    use sias_storage::{StorageConfig, WalConfig};

    #[test]
    fn threaded_run_commits_and_merges_all_records() {
        let db = SiasDb::open(StorageConfig::in_memory());
        let cfg = ThreadedConfig { threads: 4, txns_per_thread: 16, ..Default::default() };
        let run = drive_threaded(&db, &cfg);
        assert_eq!(run.history.txns.len() as u64, 1 + 4 * 16);
        assert!(run.committed > 4, "some transactions committed: {}", run.committed);
        assert_eq!(
            run.committed
                + run.aborted
                + run.history.txns.iter().filter(|t| t.outcome == HistOutcome::Unacked).count()
                    as u64,
            1 + 4 * 16
        );
    }

    #[test]
    fn threaded_history_passes_the_anomaly_checker() {
        let db = SiasDb::open(StorageConfig::in_memory().with_wal_config(WalConfig {
            group_timeout_ticks: 8,
            max_batch: 16,
            force_sleep_us: 0,
        }));
        let cfg = ThreadedConfig { threads: 4, txns_per_thread: 24, ..Default::default() };
        let mut run = drive_threaded(&db, &cfg);
        fill_sias_version_order(&db, &mut run.history);
        assert!(!run.history.version_order.is_empty());
        let v = check_anomalies(&run.history);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn per_thread_streams_are_deterministic() {
        // Same seed: every thread issues the same key/op sequence, so
        // total op counts per thread match across runs even though the
        // interleaving differs.
        let ops_of = |seed: u64| {
            let db = SiasDb::open(StorageConfig::in_memory());
            let cfg = ThreadedConfig {
                threads: 2,
                txns_per_thread: 8,
                update_pct: 0, // reads only: no conflict-dependent aborts
                abort_ppm: 0,
                seed,
                ..Default::default()
            };
            let run = drive_threaded(&db, &cfg);
            run.history.txns.iter().map(|t| t.ops.len()).sum::<usize>()
        };
        assert_eq!(ops_of(7), ops_of(7));
    }

    #[test]
    fn maintenance_under_threaded_load_is_anomaly_free() {
        let db = Arc::new(SiasDb::open(StorageConfig::in_memory()));
        let cfg = ThreadedConfig {
            threads: 4,
            txns_per_thread: 48,
            update_pct: 80, // garbage-heavy so GC has real work
            ..Default::default()
        };
        let maint = MaintenanceConfig::for_db(&db).with_pages_per_sec(0);
        let (mut run, totals) = drive_threaded_with_maintenance(&db, &cfg, maint);
        assert!(run.committed > 4, "commits under maintenance: {}", run.committed);
        assert_eq!(totals.errors, 0, "maintenance slices must not fail: {totals:?}");
        assert!(totals.ticks > 0, "scheduler must have run: {totals:?}");
        fill_sias_version_order(&db, &mut run.history);
        let v = check_anomalies(&run.history);
        assert!(v.is_empty(), "maintenance must not perturb SI: {v:?}");
        let rel = db.relation("threaded").unwrap();
        db.debug_validate_index(rel).unwrap();
    }
}
